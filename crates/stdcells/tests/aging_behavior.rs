//! Integration tests reproducing the *mechanisms* behind the paper's Fig. 1:
//! the impact of aging on a gate's delay is driven by its operating
//! conditions (input slew, output load), and under some OPCs a gate's delay
//! *improves* with aging (the NOR fall arc at large slews).

use bti::AgingScenario;
use ptm::MosModel;
use spicesim::{TransientConfig, Waveform};
use std::collections::BTreeMap;
use stdcells::CellSet;

const VDD: f64 = 1.2;

/// Measures one delay of `cell` for an edge on input A (other inputs held at
/// non-controlling values given in `side`), returning seconds.
#[allow(clippy::too_many_arguments)]
fn measure(
    cell: &stdcells::CellDef,
    nmos: &MosModel,
    pmos: &MosModel,
    input_rising: bool,
    output_rising: bool,
    slew: f64,
    load: f64,
    side: &[(&str, bool)],
) -> f64 {
    let mut stimuli: BTreeMap<String, Waveform> = BTreeMap::new();
    stimuli.insert("A".into(), Waveform::from_slew(0.4e-9, slew, VDD, input_rising));
    for (pin, high) in side {
        stimuli.insert((*pin).into(), Waveform::Dc(if *high { VDD } else { 0.0 }));
    }
    let loads: BTreeMap<String, f64> = [("Y".to_owned(), load)].into_iter().collect();
    let inst = cell.instantiate(nmos, pmos, VDD, &stimuli, &loads);
    let t_stop = 3.0e-9 + 3.0 * slew;
    let trace = inst.circuit.transient(&TransientConfig::up_to(t_stop)).expect("non-empty window");
    trace
        .delay_after(
            inst.node("A").unwrap(),
            input_rising,
            inst.node("Y").unwrap(),
            output_rising,
            0.0,
        )
        .expect("edge propagates")
}

fn aged_models() -> (MosModel, MosModel) {
    let d = AgingScenario::worst_case(10.0).degradations();
    (MosModel::nmos_45nm().degraded(&d.nmos), MosModel::pmos_45nm().degraded(&d.pmos))
}

fn fresh_models() -> (MosModel, MosModel) {
    (MosModel::nmos_45nm(), MosModel::pmos_45nm())
}

#[test]
fn nand_aging_impact_grows_with_input_slew() {
    // Fig. 1(a): a larger input slew magnifies the NAND delay increase —
    // slow falling input keeps the pull-down on while the NBTI-weakened
    // pull-up fights it.
    let cells = CellSet::nangate45_like();
    let nand = cells.get("NAND2_X1").unwrap();
    let (fn_, fp) = fresh_models();
    let (an, ap) = aged_models();
    let side = [("B", true)];
    let load = 1.0e-15;
    let ratio_at = |slew: f64| {
        let fresh = measure(nand, &fn_, &fp, false, true, slew, load, &side);
        let aged = measure(nand, &an, &ap, false, true, slew, load, &side);
        aged / fresh
    };
    let fast = ratio_at(10e-12);
    let slow = ratio_at(600e-12);
    assert!(fast > 1.0, "aging must slow the NAND rise at fast slew (ratio {fast})");
    assert!(slow > fast, "aging impact must grow with slew: {slow} vs {fast}");
}

#[test]
fn nand_aging_impact_shrinks_with_load() {
    // Fig. 1(a): increasing the output load diminishes the (relative)
    // impact of aging — a slower gate tolerates device degradation.
    let cells = CellSet::nangate45_like();
    let nand = cells.get("NAND2_X1").unwrap();
    let (fn_, fp) = fresh_models();
    let (an, ap) = aged_models();
    let side = [("B", true)];
    let slew = 300e-12;
    let ratio_at = |load: f64| {
        let fresh = measure(nand, &fn_, &fp, false, true, slew, load, &side);
        let aged = measure(nand, &an, &ap, false, true, slew, load, &side);
        aged / fresh
    };
    let light = ratio_at(0.5e-15);
    let heavy = ratio_at(20e-15);
    assert!(
        heavy < light,
        "relative aging impact must shrink with load: light {light}, heavy {heavy}"
    );
}

#[test]
fn nor_fall_delay_improves_with_aging_at_large_slew() {
    // Fig. 1(b): for the NOR's falling output under a slowly rising input,
    // NBTI weakens the opposing pull-up stack, so the aged gate is FASTER.
    let cells = CellSet::nangate45_like();
    let nor = cells.get("NOR2_X1").unwrap();
    let (fn_, fp) = fresh_models();
    let (an, ap) = aged_models();
    let side = [("B", false)];
    let slew = 600e-12;
    let load = 0.5e-15;
    let fresh = measure(nor, &fn_, &fp, true, false, slew, load, &side);
    let aged = measure(nor, &an, &ap, true, false, slew, load, &side);
    assert!(aged < fresh, "aged NOR fall must improve at large slew: fresh {fresh}, aged {aged}");
}

#[test]
fn inverter_always_degrades_at_fast_slew() {
    // At the fastest slews no contention window exists, so aging simply
    // slows every edge — the single-OPC world of Fig. 2 (left).
    let cells = CellSet::nangate45_like();
    let inv = cells.get("INV_X1").unwrap();
    let (fn_, fp) = fresh_models();
    let (an, ap) = aged_models();
    for (in_rising, out_rising) in [(true, false), (false, true)] {
        let fresh = measure(inv, &fn_, &fp, in_rising, out_rising, 5e-12, 1e-15, &[]);
        let aged = measure(inv, &an, &ap, in_rising, out_rising, 5e-12, 1e-15, &[]);
        assert!(
            aged > fresh,
            "aged INV edge (in_rising={in_rising}) must be slower: {aged} vs {fresh}"
        );
    }
}

#[test]
fn vth_only_underestimates_delay_degradation() {
    // The root of Fig. 5(a): dropping Δμ from the aged models recovers part
    // of the lost drive, underestimating the delay increase.
    let cells = CellSet::nangate45_like();
    let inv = cells.get("INV_X1").unwrap();
    let (fn_, fp) = fresh_models();
    let d = AgingScenario::worst_case(10.0).degradations();
    let full = (MosModel::nmos_45nm().degraded(&d.nmos), MosModel::pmos_45nm().degraded(&d.pmos));
    let vth_only = (
        MosModel::nmos_45nm().degraded(&d.nmos.vth_only()),
        MosModel::pmos_45nm().degraded(&d.pmos.vth_only()),
    );
    let fresh = measure(inv, &fn_, &fp, false, true, 50e-12, 4e-15, &[]);
    let aged_full = measure(inv, &full.0, &full.1, false, true, 50e-12, 4e-15, &[]);
    let aged_vth = measure(inv, &vth_only.0, &vth_only.1, false, true, 50e-12, 4e-15, &[]);
    assert!(aged_full > aged_vth, "Δμ must add delay: {aged_full} vs {aged_vth}");
    assert!(aged_vth > fresh);
}
