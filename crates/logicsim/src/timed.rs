//! Event-driven timing simulation with per-arc delays.
//!
//! This is the mechanism behind the paper's system-level study (Sec. 5):
//! the circuit runs at a fixed clock period while its gates carry the
//! delays of a chosen aging scenario. Flip-flops and primary outputs sample
//! at each clock edge, so any combinational path that has not settled by
//! then silently captures a wrong value — a *timing error* that corrupts
//! data exactly as on aged silicon.

use crate::structure::SimStructure;
use crate::SimError;
use liberty::Library;
use netlist::{DelayAnnotation, InstId, Netlist};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The result of a timing-accurate run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRun {
    /// Primary-output values sampled at the end of each cycle (port order).
    pub outputs: Vec<Vec<bool>>,
    /// Events that were still pending when their cycle's sampling edge
    /// arrived — a direct count of timing-violation opportunities.
    pub late_events: usize,
}

#[derive(Debug, PartialEq)]
struct Event {
    time: f64,
    /// Scheduling order: breaks time ties first-in first-out, and marks
    /// the event stale once a later one is scheduled on its net.
    seq: u64,
    net: usize,
    value: bool,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A netlist compiled once for event-driven timing simulation under one
/// delay annotation.
///
/// [`TimedSim::new`] binds the netlist to its library, compiles the cells it
/// uses, settles the initial state and keeps a copy of the annotation's
/// dense delay table, so [`TimedSim::run`] looks up no names. Every run
/// resets all per-run state, so runs on one `TimedSim` give exactly what
/// fresh [`run_timed`] calls give.
#[derive(Debug, Clone)]
pub struct TimedSim {
    s: SimStructure,
    /// Per net: its combinational sinks as `(instance, input position)`, in
    /// instance and position order. Flops sample only at the clock edge.
    net_sinks: Vec<Vec<(InstId, usize)>>,
    /// Arc delays laid out by the binding's pins.
    delays: DelayAnnotation,
    /// Net values with all inputs low and all flops at 0, settled with
    /// zero delays: where every run starts.
    settled: Vec<bool>,
}

impl TimedSim {
    /// Compiles `netlist` against `library` with the per-arc delays of
    /// `delays`, a table laid out for this netlist's binding or one of no
    /// instances (zero delay on every arc). `clock_port` names the clock
    /// input, which takes no vector bit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for broken netlists, combinational loops, an
    /// unknown clock port or an annotation laid out for another netlist.
    pub fn new(
        netlist: &Netlist,
        library: &Library,
        delays: &DelayAnnotation,
        clock_port: Option<&str>,
    ) -> Result<Self, SimError> {
        let s = SimStructure::build(netlist, library, clock_port)?;
        let delays = if delays.is_empty() {
            DelayAnnotation::zeroed(&s.bound)
        } else {
            if delays.instance_count() != netlist.instance_count() {
                return Err(SimError::AnnotationMismatch { instance: None });
            }
            let pins = |id| (s.bound.input_nets(id).len(), s.bound.output_nets(id).len());
            if let Some(id) = netlist.instance_ids().find(|&id| delays.shape(id) != pins(id)) {
                let instance = Some(netlist.instance(id).name.clone());
                return Err(SimError::AnnotationMismatch { instance });
            }
            delays.clone()
        };
        let mut net_sinks = vec![Vec::new(); s.n_nets];
        for (id, cell) in netlist.instance_ids().zip(&s.cells) {
            if cell.flop.is_none() {
                for (pos, net) in s.bound.input_nets(id).enumerate() {
                    net_sinks[net.index()].push((id, pos));
                }
            }
        }
        // Settle the initial state with zero delays so event propagation
        // starts from a consistent network.
        let mut settled = vec![false; s.n_nets];
        for k in s.comb_order() {
            s.settle(k, &mut settled);
        }
        Ok(TimedSim { s, net_sinks, delays, settled })
    }

    /// The delay of instance `k`'s arc from input position `input` to
    /// output position `o`, for a rising or falling output.
    #[inline]
    fn delay(&self, k: InstId, input: usize, o: usize, rising: bool) -> f64 {
        let arc = self.delays.get(k, input, o);
        if rising {
            arc.rise
        } else {
            arc.fall
        }
    }

    /// Simulates `vectors` at clock period `period`.
    ///
    /// Per cycle `k`: at `t = k·period` the inputs take vector `k` and the
    /// flops drive their captured state through their clk→Q delay; events
    /// then propagate through the combinational network; just before
    /// `t = (k+1)·period` the primary outputs are sampled and the flops
    /// capture whatever value their data nets hold *at that instant* —
    /// settled or not.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadPeriod`] if `period` is not positive and
    /// finite, and [`SimError::VectorWidth`] for mis-sized vectors.
    pub fn run(&self, period: f64, vectors: &[Vec<bool>]) -> Result<TimedRun, SimError> {
        if !(period.is_finite() && period > 0.0) {
            return Err(SimError::BadPeriod { period });
        }
        let s = &self.s;
        let mut value = self.settled.clone();
        let mut target = value.clone();
        let mut queue: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        // Inertial-delay preemption: the latest scheduled transition per
        // net (by `seq`, 0 = none yet) invalidates all earlier pending ones
        // (narrow pulses are swallowed).
        let mut latest = vec![0u64; s.n_nets];
        let mut flop_state = vec![false; s.flops().len()];
        let mut outputs = Vec::with_capacity(vectors.len());
        let mut late_events = 0usize;

        let mut schedule = |queue: &mut BinaryHeap<Reverse<Event>>,
                            latest: &mut Vec<u64>,
                            time: f64,
                            net: usize,
                            v: bool| {
            seq += 1;
            latest[net] = seq;
            queue.push(Reverse(Event { time, seq, net, value: v }));
        };

        for (cycle, vector) in vectors.iter().enumerate() {
            if vector.len() != s.inputs.len() {
                return Err(SimError::VectorWidth { expected: s.inputs.len(), got: vector.len() });
            }
            let t_edge = cycle as f64 * period;
            let t_sample = (cycle as f64 + 1.0) * period;

            // Apply inputs at the edge.
            for (net, &v) in s.inputs.iter().zip(vector) {
                if target[net.index()] != v {
                    target[net.index()] = v;
                    schedule(&mut queue, &mut latest, t_edge, net.index(), v);
                }
            }
            // Flops drive captured state after clk→Q.
            for (fi, k) in s.flops().enumerate() {
                let clock = s.cells[k.index()].flop.and_then(|(clock, _)| clock);
                for (o, net) in s.bound.output_nets(k).enumerate() {
                    let Some(net) = net else { continue };
                    let v = flop_state[fi];
                    if target[net.index()] != v {
                        target[net.index()] = v;
                        let d = clock.map_or(0.0, |c| self.delay(k, c, o, v));
                        schedule(&mut queue, &mut latest, t_edge + d, net.index(), v);
                    }
                }
            }

            // Drain events strictly before the sampling edge.
            while queue.peek().is_some_and(|Reverse(e)| e.time < t_sample) {
                let Some(Reverse(e)) = queue.pop() else { break };
                if e.seq != latest[e.net] || value[e.net] == e.value {
                    continue;
                }
                value[e.net] = e.value;
                // An instance with several inputs on this net is listed
                // once per input, in position order: the first listing
                // schedules, so the delay is that of the first such pin.
                for &(k, pos) in &self.net_sinks[e.net] {
                    let row = s.input_row(k, &value);
                    let cell = &s.cells[k.index()];
                    for (o, out_net) in s.bound.output_nets(k).enumerate() {
                        let Some(out_net) = out_net else { continue };
                        let new = cell.eval(o, row);
                        if target[out_net.index()] != new {
                            target[out_net.index()] = new;
                            let d = self.delay(k, pos, o, new);
                            schedule(&mut queue, &mut latest, e.time + d, out_net.index(), new);
                        }
                    }
                }
            }
            late_events += queue
                .iter()
                .filter(|Reverse(e)| e.seq == latest[e.net] && e.value != value[e.net])
                .count();

            // Sample primary outputs and capture flop data at the edge.
            outputs.push(s.outputs.iter().map(|n| value[n.index()]).collect());
            for (fi, k) in s.flops().enumerate() {
                if let Some(v) = s.captured(k, &value) {
                    flop_state[fi] = v;
                }
            }
        }
        Ok(TimedRun { outputs, late_events })
    }
}

/// Simulates `vectors` at clock period `period` with the per-arc delays of
/// `delays`: compiles a [`TimedSim`] and runs it once (see
/// [`TimedSim::run`] for the cycle semantics).
///
/// # Errors
///
/// Returns [`SimError`] for broken netlists, loops, mis-sized vectors or a
/// period that is not positive and finite.
pub fn run_timed(
    netlist: &Netlist,
    library: &Library,
    delays: &DelayAnnotation,
    period: f64,
    clock_port: Option<&str>,
    vectors: &[Vec<bool>],
) -> Result<TimedRun, SimError> {
    TimedSim::new(netlist, library, delays, clock_port)?.run(period, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_cycles;
    use liberty::{Cell, Library};
    use netlist::{ArcDelays, Bound, PortDir};

    fn lib() -> Library {
        let mut lib = Library::new("l", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1"));
        lib
    }

    fn chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_port("a", PortDir::Input);
        for k in 0..n {
            let next = if k + 1 == n {
                nl.add_port("y", PortDir::Output)
            } else {
                nl.add_net(&format!("n{k}"))
            };
            nl.add_instance(&format!("u{k}"), "INV_X1", &[("A", prev), ("Y", next)]);
            prev = next;
        }
        nl
    }

    fn annotate(nl: &Netlist, d: f64) -> DelayAnnotation {
        let mut ann = DelayAnnotation::zeroed(&Bound::new(nl, &lib()).unwrap());
        for id in nl.instance_ids() {
            // A → Y
            ann.set(id, 0, 0, ArcDelays { rise: d, fall: d });
        }
        ann
    }

    #[test]
    fn matches_zero_delay_with_slack() {
        // 4 inverters × 10 ps ≪ 1 ns period: timed == functional.
        let nl = chain(4);
        let lib = lib();
        let ann = annotate(&nl, 10e-12);
        let vectors: Vec<Vec<bool>> = (0..8).map(|k| vec![k % 3 == 0]).collect();
        let golden = run_cycles(&nl, &lib, None, &vectors).unwrap();
        let timed = run_timed(&nl, &lib, &ann, 1e-9, None, &vectors).unwrap();
        assert_eq!(timed.outputs, golden.outputs);
        assert_eq!(timed.late_events, 0);
    }

    #[test]
    fn violations_corrupt_outputs() {
        // 4 inverters × 400 ps ≫ 1 ns period: the output lags the input.
        let nl = chain(4);
        let lib = lib();
        let ann = annotate(&nl, 400e-12);
        let vectors: Vec<Vec<bool>> = (0..8).map(|k| vec![k % 2 == 0]).collect();
        let golden = run_cycles(&nl, &lib, None, &vectors).unwrap();
        let timed = run_timed(&nl, &lib, &ann, 1e-9, None, &vectors).unwrap();
        assert_ne!(timed.outputs, golden.outputs, "slow gates must corrupt sampling");
        assert!(timed.late_events > 0);
    }

    #[test]
    fn boundary_speed_just_fits() {
        // 4 × 100 ps = 400 ps < 500 ps period: correct but tight.
        let nl = chain(4);
        let lib = lib();
        let ann = annotate(&nl, 100e-12);
        let vectors: Vec<Vec<bool>> = (0..6).map(|k| vec![k % 2 == 0]).collect();
        let golden = run_cycles(&nl, &lib, None, &vectors).unwrap();
        let timed = run_timed(&nl, &lib, &ann, 500e-12, None, &vectors).unwrap();
        assert_eq!(timed.outputs, golden.outputs);
    }

    #[test]
    fn bad_period_is_a_typed_error() {
        let nl = chain(1);
        let sim = TimedSim::new(&nl, &lib(), &DelayAnnotation::new(), None).unwrap();
        for period in [0.0, -1e-9, f64::NAN, f64::INFINITY] {
            for result in [
                sim.run(period, &[vec![true]]),
                run_timed(&nl, &lib(), &DelayAnnotation::new(), period, None, &[vec![true]]),
            ] {
                match result {
                    Err(SimError::BadPeriod { period: p }) => {
                        assert_eq!(p.to_bits(), period.to_bits());
                    }
                    other => panic!("period {period}: expected BadPeriod, got {other:?}"),
                }
            }
        }
    }

    /// A table laid out for another netlist is a typed error: another
    /// instance count, or an instance whose cell has other pin counts.
    #[test]
    fn an_annotation_of_another_netlist_is_a_typed_error() {
        let lib = crate::test_cells::lib();
        let ann = annotate(&chain(2), 10e-12);
        match TimedSim::new(&chain(3), &lib, &ann, None) {
            Err(SimError::AnnotationMismatch { instance: None }) => {}
            other => panic!("expected AnnotationMismatch, got {other:?}"),
        }
        let mut nl = Netlist::new("nand");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let n = nl.add_net("n");
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", n)]);
        nl.add_instance("u1", "NAND2_X1", &[("A", n), ("B", a), ("Y", y)]);
        match run_timed(&nl, &lib, &ann, 1e-9, None, &[vec![true]]) {
            Err(e @ SimError::AnnotationMismatch { instance: Some(_) }) => {
                assert!(e.to_string().contains("u1"), "{e}");
            }
            other => panic!("expected AnnotationMismatch naming u1, got {other:?}"),
        }
    }

    /// `q` samples the flop's output: it lags `d` by one cycle while the
    /// clk→Q delay fits the period, and misses edges once it does not.
    #[test]
    fn flop_outputs_take_the_clk_to_q_delay() {
        let lib = crate::test_cells::lib();
        let mut nl = Netlist::new("ff");
        let clk = nl.add_port("clk", PortDir::Input);
        let d = nl.add_port("d", PortDir::Input);
        let q = nl.add_port("q", PortDir::Output);
        let ff = nl.add_instance("ff", "DFF_X1", &[("D", d), ("CK", clk), ("Q", q)]);
        let vectors: Vec<Vec<bool>> = [true, false, true, true, false].map(|b| vec![b]).into();
        let golden = run_cycles(&nl, &lib, Some("clk"), &vectors).unwrap();
        let with_clk_q = |d: f64| {
            let mut ann = DelayAnnotation::zeroed(&Bound::new(&nl, &lib).unwrap());
            // CK (input 1) → Q
            ann.set(ff, 1, 0, ArcDelays { rise: d, fall: d });
            TimedSim::new(&nl, &lib, &ann, Some("clk")).unwrap()
        };

        let fast = with_clk_q(300e-12);
        let run = fast.run(1e-9, &vectors).unwrap();
        assert_eq!(run.outputs, golden.outputs);
        assert_eq!(run.late_events, 0);
        assert_eq!(fast.run(1e-9, &vectors).unwrap(), run, "runs reset all state");

        let slow = with_clk_q(1.5e-9).run(1e-9, &vectors).unwrap();
        assert_ne!(slow.outputs, golden.outputs);
        assert!(slow.late_events > 0);
    }

    /// A NAND with both inputs on one net is an inverter; a change on that
    /// net takes the delay of the first pin connected to it, A.
    #[test]
    fn shared_input_net_takes_the_first_pins_delay() {
        let lib = crate::test_cells::lib();
        let mut nl = Netlist::new("shared");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let g = nl.add_instance("g", "NAND2_X1", &[("A", a), ("B", a), ("Y", y)]);
        let vectors: Vec<Vec<bool>> = (0..6).map(|k| vec![k % 2 == 0]).collect();
        let golden = run_cycles(&nl, &lib, None, &vectors).unwrap();
        let run = |a_delay: f64, b_delay: f64| {
            let mut ann = DelayAnnotation::zeroed(&Bound::new(&nl, &lib).unwrap());
            // A → Y and B → Y
            ann.set(g, 0, 0, ArcDelays { rise: a_delay, fall: a_delay });
            ann.set(g, 1, 0, ArcDelays { rise: b_delay, fall: b_delay });
            run_timed(&nl, &lib, &ann, 500e-12, None, &vectors).unwrap()
        };
        let fast_a = run(100e-12, 700e-12);
        assert_eq!(fast_a.outputs, golden.outputs);
        assert_eq!(fast_a.late_events, 0);
        let slow_a = run(700e-12, 100e-12);
        assert_ne!(slow_a.outputs, golden.outputs);
        assert!(slow_a.late_events > 0);
    }
}
