//! The abstract-interpretation engine: interval propagation to a fixpoint.
//!
//! Initialization pins every net whose value the analysis cannot constrain
//! to [`Interval::FULL`] — primary inputs (unless the caller supplies
//! tighter bounds), flop outputs (a register can hold either level),
//! floating nets, outputs of unresolvable instances and every output of a
//! combinational loop (widening; the loops come from
//! [`sta::combinational_loops`]). The remaining combinational instances
//! form a DAG and are evaluated once each in Kahn topological order, so the
//! fixpoint is reached in a single sweep.

use crate::interval::Interval;
use liberty::{BoolExpr, Library};
use netlist::{InstId, NetId, Netlist};
use std::collections::HashMap;

/// Evaluates a Liberty pin function over intervals; `env` supplies the
/// interval of each referenced pin.
///
/// N-ary conjunctions/disjunctions fold pairwise — Fréchet bounds compose
/// soundly, each step being valid for any joint distribution.
#[must_use]
pub fn expr_interval(expr: &BoolExpr, env: &impl Fn(&str) -> Interval) -> Interval {
    match expr {
        BoolExpr::Const(b) => Interval::point(if *b { 1.0 } else { 0.0 }),
        BoolExpr::Var(pin) => env(pin),
        BoolExpr::Not(e) => expr_interval(e, env).not(),
        BoolExpr::And(es) => {
            es.iter().map(|e| expr_interval(e, env)).fold(Interval::point(1.0), Interval::and)
        }
        BoolExpr::Or(es) => {
            es.iter().map(|e| expr_interval(e, env)).fold(Interval::point(0.0), Interval::or)
        }
        BoolExpr::Xor(a, b) => expr_interval(a, env).xor(expr_interval(b, env)),
    }
}

/// Analysis configuration: per-net overrides for the boundary condition.
#[derive(Debug, Clone, Default)]
pub struct DataflowConfig {
    /// Signal-probability intervals assumed at primary-input nets.
    /// Unlisted inputs default to [`Interval::FULL`] (any workload).
    pub input_intervals: HashMap<NetId, Interval>,
}

/// The result of one interval-propagation pass over a netlist.
#[derive(Debug, Clone)]
pub struct NetlistDataflow {
    intervals: Vec<Interval>,
    widened: Vec<InstId>,
    skipped: Vec<InstId>,
}

impl NetlistDataflow {
    /// Analyzes `netlist` against `library` with the workload-free boundary
    /// condition (every primary input spans [`Interval::FULL`]).
    #[must_use]
    pub fn analyze(netlist: &Netlist, library: &Library) -> Self {
        Self::analyze_with(netlist, library, &DataflowConfig::default())
    }

    /// [`NetlistDataflow::analyze`] with explicit primary-input intervals.
    ///
    /// The pass is total: unresolvable cells or pins never abort, they
    /// widen (and are reported via [`NetlistDataflow::skipped_instances`]).
    #[must_use]
    pub fn analyze_with(netlist: &Netlist, library: &Library, config: &DataflowConfig) -> Self {
        let n_nets = netlist.net_count();
        let n_insts = netlist.instance_count();
        let mut intervals = vec![Interval::FULL; n_nets];
        let mut known = vec![true; n_nets];
        let mut widened = Vec::new();
        let mut skipped = Vec::new();

        // Combinational-loop membership (widened to FULL).
        let mut in_loop = vec![false; n_insts];
        for scc in sta::combinational_loops(netlist, library) {
            for inst in scc {
                in_loop[inst.index()] = true;
                widened.push(inst);
            }
        }

        // Classify instances; collect the pending combinational DAG.
        // `pending[k]` is Some for instances still awaiting evaluation.
        struct Pending<'a> {
            inputs: Vec<(&'a str, NetId)>,
            outputs: Vec<(&'a BoolExpr, NetId)>,
            deps: usize,
        }
        let mut pending: Vec<Option<Pending<'_>>> = Vec::with_capacity(n_insts);
        for (k, inst) in netlist.instances().iter().enumerate() {
            let Some(cell) = library.cell(&inst.cell) else {
                skipped.push(InstId::from_index(k));
                pending.push(None);
                continue;
            };
            if cell.is_sequential() || in_loop[k] {
                // Flop Q spans FULL (registers start anywhere and hold
                // anything across cycles); loop outputs are widened.
                pending.push(None);
                continue;
            }
            let mut inputs = Vec::new();
            let mut outputs = Vec::new();
            let mut unknown_pin = false;
            for (pin, net) in &inst.connections {
                if cell.input_cap(pin).is_some() {
                    inputs.push((pin.as_str(), *net));
                } else if let Some(out) = cell.output(pin) {
                    outputs.push((&out.function, *net));
                } else {
                    unknown_pin = true;
                }
            }
            if unknown_pin {
                skipped.push(InstId::from_index(k));
            }
            pending.push(Some(Pending { inputs, outputs, deps: 0 }));
        }

        // Nets computed by a pending instance start unknown; everything
        // else (inputs, floating nets, flop/loop/skipped outputs) is FULL.
        for p in pending.iter().flatten() {
            for &(_, net) in &p.outputs {
                known[net.index()] = false;
            }
        }
        for net in netlist.input_nets() {
            known[net.index()] = true;
            intervals[net.index()] =
                config.input_intervals.get(&net).copied().unwrap_or(Interval::FULL);
        }

        // Kahn topological evaluation over the pending DAG.
        let mut waiters: Vec<Vec<usize>> = vec![Vec::new(); n_nets];
        let mut queue: Vec<usize> = Vec::new();
        for (k, p) in pending.iter_mut().enumerate() {
            let Some(p) = p else { continue };
            p.deps = p.inputs.iter().filter(|(_, net)| !known[net.index()]).count();
            for &(_, net) in &p.inputs {
                if !known[net.index()] {
                    waiters[net.index()].push(k);
                }
            }
            if p.deps == 0 {
                queue.push(k);
            }
        }
        while let Some(k) = queue.pop() {
            // Only pending instances are queued, each once.
            let Some(p) = pending[k].as_ref() else { continue };
            let env = |pin: &str| {
                p.inputs
                    .iter()
                    .find(|(name, _)| *name == pin)
                    .map_or(Interval::FULL, |&(_, net)| intervals[net.index()])
            };
            let results: Vec<(NetId, Interval)> =
                p.outputs.iter().map(|&(f, net)| (net, expr_interval(f, &env))).collect();
            for (net, value) in results {
                intervals[net.index()] = value;
                if !known[net.index()] {
                    known[net.index()] = true;
                    for &w in &waiters[net.index()] {
                        if let Some(wp) = pending[w].as_mut() {
                            wp.deps -= 1;
                            if wp.deps == 0 {
                                queue.push(w);
                            }
                        }
                    }
                }
            }
            pending[k] = None;
        }
        // Anything still pending depends on a cycle the loop detector did
        // not model (e.g. through multiply-driven nets): widen defensively.
        for (k, p) in pending.iter().enumerate() {
            if let Some(p) = p {
                for &(_, net) in &p.outputs {
                    intervals[net.index()] = Interval::FULL;
                }
                widened.push(InstId::from_index(k));
            }
        }
        widened.sort_unstable_by_key(|i: &InstId| i.index());
        widened.dedup();
        skipped.sort_unstable_by_key(|i: &InstId| i.index());
        skipped.dedup();
        NetlistDataflow { intervals, widened, skipped }
    }

    /// The computed interval of `net`.
    #[must_use]
    pub fn interval(&self, net: NetId) -> Interval {
        self.intervals[net.index()]
    }

    /// All per-net intervals, indexed by [`NetId::index`].
    #[must_use]
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Instances widened to [`Interval::FULL`] because they sit on (or
    /// could not be ordered around) a combinational loop.
    #[must_use]
    pub fn widened_instances(&self) -> &[InstId] {
        &self.widened
    }

    /// Instances skipped because their cell or a pin could not be resolved
    /// against the library (their outputs stay [`Interval::FULL`]).
    #[must_use]
    pub fn skipped_instances(&self) -> &[InstId] {
        &self.skipped
    }

    /// True when no widening or skipping occurred — every interval is the
    /// best the Fréchet lattice can prove for this netlist.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.widened.is_empty() && self.skipped.is_empty()
    }

    /// Nets statically pinned to a constant level, restricted to nets
    /// actually driven by an instance — the BTI stress hotspots: the
    /// driver's transistors sit at the asymmetric worst-case λ corner of
    /// the paper's Fig. 2 grid, aging monotonically with no recovery.
    #[must_use]
    pub fn constant_nets(&self, netlist: &Netlist, library: &Library) -> Vec<(NetId, bool)> {
        let mut driven = vec![false; netlist.net_count()];
        for inst in netlist.instances() {
            let Some(cell) = library.cell(&inst.cell) else { continue };
            for (pin, net) in &inst.connections {
                if cell.output(pin).is_some() {
                    driven[net.index()] = true;
                }
            }
        }
        (0..netlist.net_count())
            .filter(|&k| driven[k])
            .filter_map(|k| {
                self.intervals[k].as_constant().map(|level| (NetId::from_index(k), level))
            })
            .collect()
    }
}

/// Instances whose output cone never reaches a primary output — dead
/// logic whose aging (and area) is unobservable.
///
/// Reverse reachability from the primary-output nets; sequential cells
/// propagate liveness like any other instance (a flop is live when its `Q`
/// is transitively observable). Unresolvable instances are conservatively
/// treated as live sinks of every net they touch.
#[must_use]
pub fn dead_cone(netlist: &Netlist, library: &Library) -> Vec<InstId> {
    let n_nets = netlist.net_count();
    let n_insts = netlist.instance_count();
    let mut live_net = vec![false; n_nets];
    for net in netlist.output_nets() {
        live_net[net.index()] = true;
    }

    // Per resolvable instance: input and output nets. Unknown cells make
    // every touched net live (they might observe it).
    let mut resolvable: Vec<Option<(Vec<NetId>, Vec<NetId>)>> = Vec::with_capacity(n_insts);
    for inst in netlist.instances() {
        let Some(cell) = library.cell(&inst.cell) else {
            for (_, net) in &inst.connections {
                live_net[net.index()] = true;
            }
            resolvable.push(None);
            continue;
        };
        let mut ins = Vec::new();
        let mut outs = Vec::new();
        for (pin, net) in &inst.connections {
            if cell.input_cap(pin).is_some() {
                ins.push(*net);
            } else if cell.output(pin).is_some() {
                outs.push(*net);
            }
        }
        resolvable.push(Some((ins, outs)));
    }

    let mut live_inst = vec![false; n_insts];
    let mut changed = true;
    while changed {
        changed = false;
        for (k, r) in resolvable.iter().enumerate() {
            let Some((ins, outs)) = r else { continue };
            if !live_inst[k] && outs.iter().any(|net| live_net[net.index()]) {
                live_inst[k] = true;
                changed = true;
                for net in ins {
                    if !live_net[net.index()] {
                        live_net[net.index()] = true;
                        changed = true;
                    }
                }
            }
        }
    }
    (0..n_insts)
        .filter(|&k| resolvable[k].is_some() && !live_inst[k])
        .map(InstId::from_index)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty::Cell;
    use netlist::PortDir;

    fn inv_lib() -> Library {
        let mut lib = Library::new("lib", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1"));
        lib
    }

    #[test]
    fn inverter_chain_flips_intervals() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let n1 = nl.add_net("n1");
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", y)]);
        let mut config = DataflowConfig::default();
        config.input_intervals.insert(a, Interval::new(0.2, 0.3));
        let df = NetlistDataflow::analyze_with(&nl, &inv_lib(), &config);
        assert!(df.is_exact());
        assert!((df.interval(n1).lo() - 0.7).abs() < 1e-12);
        assert!((df.interval(n1).hi() - 0.8).abs() < 1e-12);
        assert!((df.interval(y).lo() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn default_inputs_are_full() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", y)]);
        let df = NetlistDataflow::analyze(&nl, &inv_lib());
        assert_eq!(df.interval(y), Interval::FULL);
    }

    #[test]
    fn constant_input_pins_the_cone() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", y)]);
        let mut config = DataflowConfig::default();
        config.input_intervals.insert(a, Interval::point(1.0));
        let df = NetlistDataflow::analyze_with(&nl, &inv_lib(), &config);
        assert_eq!(df.interval(y).as_constant(), Some(false));
        let constants = df.constant_nets(&nl, &inv_lib());
        assert_eq!(constants, vec![(y, false)], "only the driven net is a hotspot");
    }

    #[test]
    fn combinational_loop_widens() {
        // Cross-coupled inverters: both nets widened, analysis not exact.
        let mut nl = Netlist::new("m");
        let n1 = nl.add_net("n1");
        let n2 = nl.add_net("n2");
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "INV_X1", &[("A", n2), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", n2)]);
        nl.add_instance("u2", "INV_X1", &[("A", n1), ("Y", y)]);
        let df = NetlistDataflow::analyze(&nl, &inv_lib());
        assert!(!df.is_exact());
        assert_eq!(df.widened_instances().len(), 2);
        assert_eq!(df.interval(n1), Interval::FULL);
        assert_eq!(df.interval(y), Interval::FULL, "downstream of the loop stays sound");
    }

    #[test]
    fn unknown_cell_skipped_not_fatal() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let n1 = nl.add_net("n1");
        nl.add_instance("u0", "MYSTERY", &[("A", a), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", y)]);
        let mut config = DataflowConfig::default();
        config.input_intervals.insert(a, Interval::point(1.0));
        let df = NetlistDataflow::analyze_with(&nl, &inv_lib(), &config);
        assert_eq!(df.skipped_instances().len(), 1);
        assert_eq!(df.interval(n1), Interval::FULL);
        assert_eq!(df.interval(y), Interval::FULL);
    }

    #[test]
    fn dead_cone_found_behind_live_logic() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let d1 = nl.add_net("d1");
        let d2 = nl.add_net("d2");
        nl.add_instance("live", "INV_X1", &[("A", a), ("Y", y)]);
        nl.add_instance("dead0", "INV_X1", &[("A", a), ("Y", d1)]);
        nl.add_instance("dead1", "INV_X1", &[("A", d1), ("Y", d2)]);
        let dead = dead_cone(&nl, &inv_lib());
        assert_eq!(dead, vec![InstId::from_index(1), InstId::from_index(2)]);
    }

    #[test]
    fn unknown_cells_keep_their_fanin_live() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let n1 = nl.add_net("n1");
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", n1)]);
        nl.add_instance("u1", "MYSTERY", &[("A", n1)]);
        assert!(dead_cone(&nl, &inv_lib()).is_empty());
    }
}
