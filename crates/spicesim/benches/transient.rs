//! Criterion benchmarks of the transient solver inner loop: full-trace
//! recording vs. the lean observed-node trace used by characterization,
//! and a 7-slew edge sweep vs. the 7 independent runs it replaces.

use criterion::{criterion_group, criterion_main, Criterion};
use ptm::MosModel;
use spicesim::{Circuit, EdgeProbe, NodeId, SweepVariant, TransientConfig, Waveform};
use std::hint::black_box;

/// A 3-stage inverter chain with internal nodes — enough state for the
/// observed-node restriction to matter.
fn inverter_chain(stages: usize, load: f64) -> (Circuit, NodeId, NodeId) {
    inverter_chain_driven(stages, load, Waveform::rising_ramp(0.5e-9, 40e-12, 1.2))
}

fn inverter_chain_driven(stages: usize, load: f64, drive: Waveform) -> (Circuit, NodeId, NodeId) {
    let vdd = 1.2;
    let mut c = Circuit::new(vdd);
    let input = c.add_source("a", drive);
    let mut from = input;
    let mut out = input;
    for k in 0..stages {
        out = c.add_node(&format!("n{k}"), if k + 1 == stages { load } else { 0.0 });
        c.add_pmos(MosModel::pmos_45nm(), from, out, c.vdd_node(), 630e-9);
        c.add_nmos(MosModel::nmos_45nm(), from, out, c.gnd_node(), 415e-9);
        from = out;
    }
    (c, input, out)
}

fn bench_transient(c: &mut Criterion) {
    let mut group = c.benchmark_group("transient_solve");
    group.sample_size(20);
    let (circuit, input, output) = inverter_chain(3, 2e-15);
    let config = TransientConfig::up_to(2.0e-9);
    group.bench_function("chain3_full_trace", |b| {
        b.iter(|| circuit.transient(&config).expect("non-empty window"));
    });
    let lean = config.clone().observing(&[input, output]);
    group.bench_function("chain3_lean_trace", |b| {
        b.iter(|| circuit.transient(&lean).expect("non-empty window"));
    });
    let (wide, input, output) = inverter_chain(9, 2e-15);
    let lean_wide = TransientConfig::up_to(3.0e-9).observing(&[input, output]);
    group.bench_function("chain9_lean_trace", |b| {
        b.iter(|| wide.transient(&lean_wide).expect("non-empty window"));
    });
    group.finish();
}

/// The paper's seven input slews on a 3-stage chain (odd, so the output
/// falls on a rising input): one sweep against seven separate transients
/// each followed by `measure_edge`, the per-point loop it replaces.
fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("slew_sweep");
    group.sample_size(20);
    let (vdd, t_edge) = (1.2, 0.3e-9);
    let slews = [5e-12, 25e-12, 70e-12, 150e-12, 300e-12, 550e-12, 947e-12];
    let variants: Vec<SweepVariant> = slews
        .iter()
        .map(|&slew| SweepVariant {
            waveform: Waveform::from_slew(t_edge, slew, vdd, true),
            t_stop: t_edge + 4.0 * slew + 3.0e-9,
        })
        .collect();
    let (circuit, input, output) = inverter_chain_driven(3, 2e-15, variants[0].waveform.clone());
    let probe =
        EdgeProbe { input, input_rising: true, output, output_rising: false, t_after: 0.1e-9 };
    let config = TransientConfig::up_to(t_edge);
    group.bench_function("chain3_7slews_sweep", |b| {
        b.iter(|| {
            let sweep = circuit.sweep_edges(&config, input, black_box(&variants), &probe);
            sweep.expect("valid sweep")
        });
    });
    let separate: Vec<(Circuit, TransientConfig)> = variants
        .iter()
        .map(|v| {
            let (c, input, output) = inverter_chain_driven(3, 2e-15, v.waveform.clone());
            (c, TransientConfig::up_to(v.t_stop).observing(&[input, output]))
        })
        .collect();
    group.bench_function("chain3_7slews_separate", |b| {
        b.iter(|| {
            separate
                .iter()
                .map(|(c, cfg)| probe.measure(&c.transient(black_box(cfg)).expect("valid window")))
                .collect::<Vec<_>>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_transient, bench_sweep);
criterion_main!(benches);
