//! Property-based tests for the transient engine: physical monotonicity
//! and accuracy-knob convergence on the canonical inverter.

use proptest::prelude::*;
use ptm::MosModel;
use spicesim::{Circuit, NodeId, TransientConfig, Waveform};

fn inverter(load: f64, slew: f64, rising: bool) -> (Circuit, NodeId, NodeId) {
    let vdd = 1.2;
    let mut c = Circuit::new(vdd);
    let a = c.add_source("a", Waveform::from_slew(0.4e-9, slew, vdd, rising));
    let y = c.add_node("y", load);
    c.add_pmos(MosModel::pmos_45nm(), a, y, c.vdd_node(), 630e-9);
    c.add_nmos(MosModel::nmos_45nm(), a, y, c.gnd_node(), 415e-9);
    (c, a, y)
}

fn delay(load: f64, slew: f64, rising: bool, max_dv: f64) -> f64 {
    let (c, a, y) = inverter(load, slew, rising);
    let cfg = TransientConfig::up_to(2e-9 + 4.0 * slew).with_max_dv(max_dv);
    let trace = c.transient(&cfg).expect("non-empty window");
    trace.delay_after(a, rising, y, !rising, 0.0).expect("edge propagates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Delay grows strictly with output load at fixed slew.
    #[test]
    fn delay_monotone_in_load(
        l1 in 0.5e-15f64..20e-15,
        l2 in 0.5e-15f64..20e-15,
        rising in any::<bool>(),
    ) {
        prop_assume!((l1 - l2).abs() > 2e-15);
        let (lo, hi) = if l1 < l2 { (l1, l2) } else { (l2, l1) };
        let slew = 60e-12;
        let d_lo = delay(lo, slew, rising, 4e-3);
        let d_hi = delay(hi, slew, rising, 4e-3);
        prop_assert!(d_hi > d_lo, "load {hi:.2e} must be slower than {lo:.2e}: {d_hi} vs {d_lo}");
    }

    /// The accuracy knob converges: a fine integration agrees with a very
    /// fine one within a small relative error, while a coarse one may not.
    #[test]
    fn accuracy_convergence(load in 1e-15f64..15e-15, slew in 20e-12f64..400e-12) {
        let reference = delay(load, slew, true, 1e-3);
        let fine = delay(load, slew, true, 3e-3);
        prop_assert!(
            (fine - reference).abs() <= 0.05 * reference.abs() + 0.3e-12,
            "3mV vs 1mV delay mismatch: {fine} vs {reference}"
        );
    }

    /// The output always settles to the full rail after the transition.
    #[test]
    fn output_settles_to_rail(load in 0.5e-15f64..20e-15, rising in any::<bool>()) {
        let (c, _a, y) = inverter(load, 80e-12, rising);
        let trace = c.transient(&TransientConfig::up_to(3e-9)).expect("non-empty window");
        let v = trace.final_voltage(y);
        if rising {
            prop_assert!(v < 0.05, "output must settle low, got {v}");
        } else {
            prop_assert!(v > 1.15, "output must settle high, got {v}");
        }
    }

    /// Delay measured from identical circuits is deterministic.
    #[test]
    fn deterministic(load in 0.5e-15f64..20e-15) {
        let a = delay(load, 50e-12, true, 4e-3);
        let b = delay(load, 50e-12, true, 4e-3);
        prop_assert_eq!(a, b);
    }
}
