//! Property test for the incremental STA engine: on every bundled
//! benchmark, a randomized sequence of λ re-annotations, cell resizes and
//! constraint edits must leave [`sta::IncrementalSta`] **bit-identical** to
//! a fresh [`sta::analyze`] of its current netlist/library/constraints
//! after every single step — the engine's core contract.

use liberty::{split_lambda_tag, LambdaTag};
use sta::{analyze, Constraints, IncrementalSta, StaChange};

const STEPS: u32 = 4;

/// Deterministic LCG (same parameters as the `sta` arrival benchmark).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() as usize) % n.max(1)
    }
}

/// A grid tag drawn from the same (STEPS+1)² grid the complete library
/// was built over.
fn grid_tag(rng: &mut Lcg) -> LambdaTag {
    let p = rng.pick(STEPS as usize + 1) as u32;
    let n = rng.pick(STEPS as usize + 1) as u32;
    LambdaTag {
        lambda_pmos: f64::from(p) / f64::from(STEPS),
        lambda_nmos: f64::from(n) / f64::from(STEPS),
    }
}

/// Swap the strength token of a base cell name: `INV_X1` → `INV_X2` etc.
fn resized(base: &str, rng: &mut Lcg) -> Option<String> {
    let (family, _) = base.rsplit_once("_X")?;
    let strength = ["1", "2", "4"][rng.pick(3)];
    Some(format!("{family}_X{strength}"))
}

fn drive(design: &str, seed: u64, changes: usize) {
    let design = bench::design_by_name(design).expect("bundled design");
    let library = synth::test_fixtures::fixture_library();
    // Cheap mapping: the engine contract is what's under test, not QoR.
    let options = synth::MapOptions { sizing_iterations: 1, ..synth::MapOptions::default() };
    let nl = synth::synthesize(&design.aig, &library, &options).expect("synthesis");

    // Start from a uniformly-annotated netlist against the merged complete
    // library so re-annotation is a pure cell rename.
    let complete = bench::lambda_scaled_complete(&library, STEPS);
    let tag0 = LambdaTag { lambda_pmos: 0.0, lambda_nmos: 0.0 };
    let annotated = netlist::annotate::annotated_with_static(&nl, tag0);
    let constraints = Constraints::default();

    let mut working = annotated.clone();
    let mut inc =
        IncrementalSta::new(&mut working, &complete, &constraints).expect("initial build");
    let mut rng = Lcg(seed);
    let ids: Vec<netlist::InstId> = annotated.instance_ids().collect();

    for step in 0..changes {
        let inst = ids[rng.pick(ids.len())];
        let current = inc.netlist().instance(inst).cell.clone();
        let (base, tag) = split_lambda_tag(&current);
        let change = match rng.pick(4) {
            // λ re-annotation: same base cell, new grid tag.
            0 | 1 => format!("{base}_{}", grid_tag(&mut rng).suffix()),
            // Resize: same tag, different strength (skip if the complete
            // library has no such variant, e.g. for the flop).
            2 => {
                let tag = tag.unwrap_or(tag0);
                match resized(base, &mut rng) {
                    Some(b) if inc.library().cell(&format!("{b}_{}", tag.suffix())).is_some() => {
                        format!("{b}_{}", tag.suffix())
                    }
                    _ => current.clone(),
                }
            }
            // Constraint edit: move the clock period around.
            _ => {
                let period = 1e-9 * f64::from(rng.pick(20) as u32 + 1);
                inc.apply(&[StaChange::SetConstraints(Constraints {
                    clock_period: Some(period),
                    ..constraints
                })])
                .expect("constraint edit");
                let full =
                    analyze(inc.netlist(), inc.library(), inc.constraints()).expect("full analyze");
                let fast = inc.critical_delay().expect("report-free critical delay");
                assert_eq!(fast.to_bits(), full.critical_delay().to_bits(), "step {step}");
                assert_eq!(inc.report().expect("incremental report"), &full);
                continue;
            }
        };
        inc.recell(inst, &change)
            .unwrap_or_else(|e| panic!("step {step}: recell to {change}: {e}"));
        let full = analyze(inc.netlist(), inc.library(), inc.constraints()).expect("full analyze");
        let fast = inc.critical_delay().expect("report-free critical delay");
        assert_eq!(fast.to_bits(), full.critical_delay().to_bits(), "step {step}");
        assert_eq!(
            inc.report().expect("incremental report"),
            &full,
            "step {step}: incremental diverged from fresh analyze after recell to {change}"
        );
        let stats = inc.stats();
        assert!(
            stats.last_recomputed <= stats.instances_total,
            "recompute count exceeds design size"
        );
    }
}

#[test]
fn dct_stays_bit_identical() {
    drive("dct", 0x9e37_79b9_7f4a_7c15, 20);
}

#[test]
fn idct_stays_bit_identical() {
    drive("idct", 0x0123_4567_89ab_cdef, 20);
}

#[test]
fn fft_stays_bit_identical() {
    drive("fft", 0xdead_beef_cafe_f00d, 12);
}

#[test]
fn dsp_stays_bit_identical() {
    drive("dsp", 0x0f0f_0f0f_1234_5678, 12);
}

#[test]
fn risc_stays_bit_identical() {
    drive("risc", 0xfeed_face_0000_0001, 12);
}

#[test]
fn risc6_stays_bit_identical() {
    drive("risc6", 0xfeed_face_0000_0002, 12);
}

#[test]
fn vliw_stays_bit_identical() {
    drive("vliw", 0xabcd_ef01_2345_6789, 8);
}
