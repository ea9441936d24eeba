//! Property-based tests for the simulators: timed-vs-functional agreement,
//! activity-statistics invariants and duty-cycle extraction bounds.

use liberty::{Cell, Library};
use netlist::{ArcDelays, Bound, DelayAnnotation, Netlist, PortDir};
use proptest::prelude::*;

fn lib() -> Library {
    let mut lib = Library::new("lib", 1.2);
    lib.add_cell(Cell::test_inverter("INV_X1"));
    lib
}

/// Random inverter DAG (same construction as the sta property tests).
fn random_dag(choices: &[usize]) -> Netlist {
    let mut nl = Netlist::new("dag");
    let a = nl.add_port("a", PortDir::Input);
    let mut nets = vec![a];
    for (k, &c) in choices.iter().enumerate() {
        let src = nets[c % nets.len()];
        let dst = nl.add_net(&format!("n{k}"));
        nl.add_instance(&format!("u{k}"), "INV_X1", &[("A", src), ("Y", dst)]);
        nets.push(dst);
    }
    let port = nl.add_port("y", PortDir::Output);
    let last = *nets.last().expect("nonempty");
    nl.add_instance("ob", "INV_X1", &[("A", last), ("Y", port)]);
    nl
}

fn annotate(nl: &Netlist, delays: &[f64]) -> DelayAnnotation {
    let mut ann = DelayAnnotation::zeroed(&Bound::new(nl, &lib()).expect("binds"));
    for (k, id) in nl.instance_ids().enumerate() {
        let d = delays[k % delays.len()];
        // A → Y
        ann.set(id, 0, 0, ArcDelays { rise: d, fall: d * 0.9 });
    }
    ann
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// With a period far beyond the total network delay, event-driven
    /// timing simulation equals zero-delay functional simulation.
    #[test]
    fn timed_equals_functional_with_slack(
        choices in prop::collection::vec(any::<usize>(), 1..20),
        delays in prop::collection::vec(1e-12f64..60e-12, 1..5),
        bits in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let nl = random_dag(&choices);
        let lib = lib();
        let ann = annotate(&nl, &delays);
        let vectors: Vec<Vec<bool>> = bits.iter().map(|&b| vec![b]).collect();
        let golden = logicsim::run_cycles(&nl, &lib, None, &vectors).expect("sim");
        // Total delay is bounded by instances × max arc delay.
        let bound = (nl.instance_count() as f64 + 2.0)
            * delays.iter().copied().fold(0.0, f64::max);
        let timed =
            logicsim::run_timed(&nl, &lib, &ann, bound + 1e-9, None, &vectors).expect("timed");
        prop_assert_eq!(timed.outputs, golden.outputs);
        prop_assert_eq!(timed.late_events, 0);
    }

    /// One compiled simulator serves any number of runs: two vector sets
    /// run back to back on one `TimedSim`, at a generous and at a tight
    /// period, give exactly what fresh `run_timed` calls give.
    #[test]
    fn timed_sim_runs_equal_fresh_run_timed_calls(
        choices in prop::collection::vec(any::<usize>(), 1..20),
        delays in prop::collection::vec(1e-12f64..60e-12, 1..5),
        first in prop::collection::vec(any::<bool>(), 1..16),
        second in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let nl = random_dag(&choices);
        let lib = lib();
        let ann = annotate(&nl, &delays);
        // Every run starts from the settled all-low state, so a leading
        // `true` toggles the input in each set's first cycle.
        let sets: Vec<Vec<Vec<bool>>> = [first, second]
            .into_iter()
            .map(|bits| std::iter::once(true).chain(bits).map(|b| vec![b]).collect())
            .collect();
        let max_delay = delays.iter().copied().fold(0.0, f64::max);
        let generous = (nl.instance_count() as f64 + 2.0) * max_delay + 1e-9;
        let tight = 0.5 * delays.iter().copied().fold(f64::INFINITY, f64::min);
        let sim = logicsim::TimedSim::new(&nl, &lib, &ann, None).expect("compile");
        for period in [generous, tight] {
            for vectors in &sets {
                let reused = sim.run(period, vectors).expect("timed");
                let fresh =
                    logicsim::run_timed(&nl, &lib, &ann, period, None, vectors).expect("timed");
                prop_assert_eq!(&reused.outputs, &fresh.outputs);
                prop_assert_eq!(reused.late_events, fresh.late_events);
                if period == tight {
                    prop_assert!(fresh.late_events > 0, "a tight clock leaves events late");
                } else {
                    prop_assert_eq!(fresh.late_events, 0);
                }
            }
        }
    }

    /// Signal probabilities are proper frequencies: P ∈ [0,1], and an
    /// inverter's output probability complements its input's.
    #[test]
    fn activity_probabilities_consistent(
        choices in prop::collection::vec(any::<usize>(), 1..20),
        bits in prop::collection::vec(any::<bool>(), 2..24),
    ) {
        let nl = random_dag(&choices);
        let lib = lib();
        let vectors: Vec<Vec<bool>> = bits.iter().map(|&b| vec![b]).collect();
        let run = logicsim::run_cycles(&nl, &lib, None, &vectors).expect("sim");
        for inst in nl.instances() {
            let input = inst.net_on("A").expect("net");
            let output = inst.net_on("Y").expect("net");
            let pi = run.activity.signal_probability(input);
            let po = run.activity.signal_probability(output);
            prop_assert!((0.0..=1.0).contains(&pi));
            prop_assert!((pi + po - 1.0).abs() < 1e-12, "INV output complements input");
        }
    }

    /// Extracted duty cycles satisfy λp + λn = 1 per instance (each device
    /// polarity is stressed exactly when the other is not), and quantized
    /// values sit on the grid.
    #[test]
    fn duty_cycles_complementary(
        choices in prop::collection::vec(any::<usize>(), 1..15),
        bits in prop::collection::vec(any::<bool>(), 2..20),
        steps in 1u32..12,
    ) {
        let nl = random_dag(&choices);
        let lib = lib();
        let vectors: Vec<Vec<bool>> = bits.iter().map(|&b| vec![b]).collect();
        let run = logicsim::run_cycles(&nl, &lib, None, &vectors).expect("sim");
        for id in nl.instance_ids() {
            let tag = run.activity.lambda_of(&nl, &lib, id, steps).expect("single-input cell");
            prop_assert!((tag.lambda_pmos + tag.lambda_nmos - 1.0).abs() < 1.0 / f64::from(steps) + 1e-9);
            let on_grid = |x: f64| {
                let g = x * f64::from(steps);
                (g - g.round()).abs() < 1e-9
            };
            prop_assert!(on_grid(tag.lambda_pmos) && on_grid(tag.lambda_nmos));
        }
    }

    /// Tightening the clock can only corrupt more, never less: the set of
    /// cycles whose outputs match the golden run shrinks monotonically...
    /// verified via error counts at two periods.
    #[test]
    fn tighter_clock_no_fewer_errors(
        choices in prop::collection::vec(any::<usize>(), 4..20),
        bits in prop::collection::vec(any::<bool>(), 4..16),
    ) {
        let nl = random_dag(&choices);
        let lib = lib();
        let ann = annotate(&nl, &[50e-12]);
        let vectors: Vec<Vec<bool>> = bits.iter().map(|&b| vec![b]).collect();
        let golden = logicsim::run_cycles(&nl, &lib, None, &vectors).expect("sim");
        let errors_at = |period: f64| {
            let run = logicsim::run_timed(&nl, &lib, &ann, period, None, &vectors).expect("timed");
            run.outputs
                .iter()
                .zip(&golden.outputs)
                .filter(|(a, b)| a != b)
                .count()
        };
        let total = (nl.instance_count() as f64) * 50e-12;
        let relaxed = errors_at(2.0 * total + 1e-10);
        prop_assert_eq!(relaxed, 0, "fully relaxed clock is error-free");
    }
}
