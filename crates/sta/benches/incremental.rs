//! Criterion benchmark: full re-analysis versus an incremental single-cell
//! change on the same pseudo-random inverter DAGs the `arrival` benchmark
//! uses. The incremental engine re-times only the touched fanout cone, so
//! its advantage grows with design size.

use criterion::{criterion_group, criterion_main, Criterion};
use liberty::{Cell, Library};
use netlist::{InstId, Netlist, PortDir};
use sta::{analyze, Constraints, IncrementalSta};

fn lib() -> Library {
    let mut lib = Library::new("lib", 1.2);
    lib.add_cell(Cell::test_inverter("INV_X1"));
    let mut big = Cell::test_inverter("INV_X2");
    for out in &mut big.outputs {
        for arc in &mut out.arcs {
            arc.cell_rise = arc.cell_rise.map(|v| v * 0.8);
            arc.cell_fall = arc.cell_fall.map(|v| v * 0.8);
        }
    }
    lib.add_cell(big);
    lib
}

/// A deterministic pseudo-random inverter DAG with `gates` instances.
fn dag(gates: usize) -> Netlist {
    let mut nl = Netlist::new("dag");
    let a = nl.add_port("a", PortDir::Input);
    let mut nets = vec![a];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for k in 0..gates {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let src = nets[(state >> 33) as usize % nets.len()];
        let dst = nl.add_net(&format!("n{k}"));
        nl.add_instance(&format!("u{k}"), "INV_X1", &[("A", src), ("Y", dst)]);
        nets.push(dst);
    }
    let y = nl.add_port("y", PortDir::Output);
    nl.add_instance("ob", "INV_X1", &[("A", *nets.last().expect("nonempty")), ("Y", y)]);
    nl
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("sta_incremental");
    let library = lib();
    let constraints = Constraints::default();
    for gates in [100usize, 1000, 5000] {
        let nl = dag(gates);
        // Re-analyze the whole design after one resize (the baseline the
        // sizing loop used to pay per trial).
        group.bench_function(format!("full_recell_{gates}"), |b| {
            let mut nl = nl.clone();
            b.iter(|| {
                let target = InstId::from_index(gates / 2);
                let next = if nl.instance(target).cell == "INV_X1" { "INV_X2" } else { "INV_X1" };
                nl.instance_mut(target).cell = next.to_owned();
                analyze(&nl, &library, &constraints).expect("sta")
            });
        });
        // Incremental: same resize against a persistent engine.
        group.bench_function(format!("incremental_recell_{gates}"), |b| {
            let mut work = nl.clone();
            let mut sta = IncrementalSta::new(&mut work, &library, &constraints).expect("build");
            b.iter(|| {
                let target = InstId::from_index(gates / 2);
                let next = if sta.netlist().instance(target).cell == "INV_X1" {
                    "INV_X2"
                } else {
                    "INV_X1"
                };
                sta.recell(target, next).expect("recell");
                sta.critical_delay().expect("report")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
