//! Cycle-based zero-delay simulation: functional verification, workload
//! playback and activity extraction.

use crate::activity::ActivityStats;
use crate::structure::SimStructure;
use crate::SimError;
use liberty::Library;
use netlist::Netlist;

/// The result of a cycle-based run.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRun {
    /// Primary-output values per cycle (port order, clock excluded).
    pub outputs: Vec<Vec<bool>>,
    /// Accumulated per-net statistics.
    pub activity: ActivityStats,
}

/// Simulates `vectors` (one primary-input assignment per clock cycle, in
/// port order, excluding `clock_port` if given) with zero gate delays.
///
/// Per cycle: inputs apply, combinational logic settles, outputs are
/// sampled, and flip-flops capture their data inputs for the next cycle.
/// Flops start at logic 0.
///
/// # Errors
///
/// Returns [`SimError`] for broken netlists, combinational loops or
/// mis-sized vectors.
pub fn run_cycles(
    netlist: &Netlist,
    library: &Library,
    clock_port: Option<&str>,
    vectors: &[Vec<bool>],
) -> Result<CycleRun, SimError> {
    let s = SimStructure::build(netlist, library, clock_port)?;
    let mut values = vec![false; s.n_nets];
    let mut previous: Option<Vec<bool>> = None;
    let mut activity = ActivityStats::new(s.n_nets, s.clock_net);
    let mut outputs = Vec::with_capacity(vectors.len());
    // Flop internal state, by position in s.flops.
    let mut flop_state = vec![false; s.flops().len()];

    for vector in vectors {
        if vector.len() != s.inputs.len() {
            return Err(SimError::VectorWidth { expected: s.inputs.len(), got: vector.len() });
        }
        for (net, &v) in s.inputs.iter().zip(vector) {
            values[net.index()] = v;
        }
        // Flop outputs present their captured state.
        for (fi, k) in s.flops().enumerate() {
            for net in s.bound.output_nets(k).flatten() {
                values[net.index()] = flop_state[fi];
            }
        }
        // Combinational settle in topological order.
        for k in s.comb_order() {
            s.settle(k, &mut values);
        }
        outputs.push(s.outputs.iter().map(|n| values[n.index()]).collect());
        activity.record(&values, previous.as_deref());
        // Capture for the next cycle.
        for (fi, k) in s.flops().enumerate() {
            if let Some(v) = s.captured(k, &values) {
                flop_state[fi] = v;
            }
        }
        previous = Some(values.clone());
    }
    Ok(CycleRun { outputs, activity })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_cells::lib;
    use netlist::PortDir;

    #[test]
    fn nand_truth_table() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let b = nl.add_port("b", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "NAND2_X1", &[("A", a), ("B", b), ("Y", y)]);
        let vectors =
            vec![vec![false, false], vec![true, false], vec![false, true], vec![true, true]];
        let run = run_cycles(&nl, &lib(), None, &vectors).unwrap();
        let outs: Vec<bool> = run.outputs.iter().map(|o| o[0]).collect();
        assert_eq!(outs, vec![true, true, true, false]);
    }

    #[test]
    fn flop_delays_by_one_cycle() {
        let mut nl = Netlist::new("m");
        let clk = nl.add_port("clk", PortDir::Input);
        let d = nl.add_port("d", PortDir::Input);
        let q = nl.add_port("q", PortDir::Output);
        nl.add_instance("ff", "DFF_X1", &[("D", d), ("CK", clk), ("Q", q)]);
        let vectors = vec![vec![true], vec![false], vec![true], vec![true]];
        let run = run_cycles(&nl, &lib(), Some("clk"), &vectors).unwrap();
        let outs: Vec<bool> = run.outputs.iter().map(|o| o[0]).collect();
        // Q shows the previous cycle's D (reset state 0 first).
        assert_eq!(outs, vec![false, true, false, true]);
    }

    #[test]
    fn activity_extraction() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", y)]);
        let vectors: Vec<Vec<bool>> = (0..10).map(|k| vec![k % 4 == 0]).collect();
        let run = run_cycles(&nl, &lib(), None, &vectors).unwrap();
        // a high 3/10 cycles → P(a)=0.3; y = !a → 0.7.
        assert!((run.activity.signal_probability(a) - 0.3).abs() < 1e-12);
        assert!((run.activity.signal_probability(y) - 0.7).abs() < 1e-12);
        let tag = run.activity.lambda_of(&nl, &lib(), netlist::InstId::from_index(0), 10).unwrap();
        assert!((tag.lambda_nmos - 0.3).abs() < 1e-9);
        assert!((tag.lambda_pmos - 0.7).abs() < 1e-9);
    }

    #[test]
    fn vector_width_checked() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", y)]);
        assert!(matches!(
            run_cycles(&nl, &lib(), None, &[vec![true, false]]),
            Err(SimError::VectorWidth { expected: 1, got: 2 })
        ));
    }

    #[test]
    fn unknown_clock_errors() {
        let nl = Netlist::new("m");
        assert!(matches!(
            run_cycles(&nl, &lib(), Some("nope"), &[]),
            Err(SimError::BadClock { .. })
        ));
    }
}
