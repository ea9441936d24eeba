//! Incremental static timing analysis.
//!
//! [`IncrementalSta`] works on the caller's netlist through a mutable
//! borrow, keeps a persistent compiled timing graph over it and accepts
//! [`StaChange`] sets — per-instance re-annotation or resize ([`StaChange::Recell`]),
//! library swaps, constraint edits. It re-evaluates only the instances whose
//! timing can actually move (the seeded dirty set plus the value-changed
//! fanout cone) and is **bit-identical** to a fresh [`crate::analyze`] after
//! every change:
//!
//! - Both run the *same* propagation loop over the same compiled graph
//!   ([`TimingGraph::propagate`]), so a re-evaluated instance reads input
//!   nets that hold the values a full analysis would produce and gets
//!   bit-identical results.
//! - A recell rebinds only its own instance ([`netlist::Bound::recell`])
//!   and re-sums only the loads of the nets it reads, in the full
//!   analysis' order. It seeds itself and
//!   the driver of every net whose load changed; every other instance keeps
//!   its inputs, cell and load, so skipping it reproduces the full result
//!   exactly. Instances whose input values are bitwise unchanged are
//!   skipped the same way.
//! - The backward required-time pass replays the stored per-instance edge
//!   lists in the same order a full analysis does.
//!
//! [`StaStats`] counts instances re-evaluated vs total so callers (the
//! sizing loop, perfbench, `RunContext` stages) can report cache
//! effectiveness.

use crate::graph::TimingGraph;
use crate::report::TimingReport;
use crate::{Constraints, StaError};
use liberty::Library;
use netlist::{InstId, Netlist, NetlistError};
use std::cell::OnceCell;

/// One edit to a live timing graph.
#[derive(Debug, Clone)]
pub enum StaChange {
    /// Point the instance at a different library cell: a λ re-annotation
    /// (same base cell, new tag) or a resize (same family, new strength).
    Recell {
        /// Instance to edit.
        inst: InstId,
        /// New library cell name.
        cell: String,
    },
    /// Replace the whole library (e.g. fresh ↔ aged corner). Always a full
    /// refresh.
    SwapLibrary(Library),
    /// Replace the constraints. Clock-period-only edits cost zero
    /// re-evaluations; slew/load edits refresh everything.
    SetConstraints(Constraints),
}

/// Cache-effectiveness counters for an [`IncrementalSta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaStats {
    /// Instances in the design (the cost of one full analysis).
    pub instances_total: usize,
    /// Instances re-evaluated by the most recent change set.
    pub last_recomputed: usize,
    /// Instances re-evaluated since construction (including the initial
    /// full evaluation).
    pub recomputed_total: u64,
    /// Changes that forced a full structural refresh.
    pub full_refreshes: u64,
    /// Change sets applied.
    pub changes_applied: u64,
}

impl StaStats {
    /// Fraction of the design the last change set re-evaluated
    /// (`0.0` for an empty design).
    #[must_use]
    pub fn last_touched_fraction(&self) -> f64 {
        if self.instances_total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.last_recomputed as f64 / self.instances_total as f64
            }
        }
    }
}

/// A persistent, incrementally updatable timing graph over a borrowed
/// netlist.
///
/// Edits the caller's netlist in place and owns copies of the library and
/// constraints; [`Self::apply`] changes them and repairs the timing state.
/// A failed change leaves the netlist as it was. [`Self::report`] is
/// bit-identical to `analyze(self.netlist(), self.library(),
/// self.constraints())` at every point in the change history.
#[derive(Debug)]
pub struct IncrementalSta<'a> {
    netlist: &'a mut Netlist,
    library: Library,
    constraints: Constraints,
    graph: TimingGraph,
    stats: StaStats,
    cache: OnceCell<TimingReport>,
    poison: Option<StaError>,
}

impl<'a> IncrementalSta<'a> {
    /// Builds the timing graph over `netlist` and runs the initial full
    /// evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`StaError`] for the same structural problems a full
    /// [`crate::analyze`] would report.
    pub fn new(
        netlist: &'a mut Netlist,
        library: &Library,
        constraints: &Constraints,
    ) -> Result<Self, StaError> {
        let (graph, evaluated) = TimingGraph::build(netlist, library, constraints)?;
        Ok(IncrementalSta {
            netlist,
            library: library.clone(),
            constraints: constraints.clone(),
            graph,
            stats: StaStats {
                instances_total: evaluated,
                last_recomputed: evaluated,
                recomputed_total: evaluated as u64,
                ..StaStats::default()
            },
            cache: OnceCell::new(),
            poison: None,
        })
    }

    /// The netlist the engine edits.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The engine's current library.
    #[must_use]
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// The engine's current constraints.
    #[must_use]
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// Cache-effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> StaStats {
        self.stats
    }

    /// Applies a change set in order. Stops at the first failing change.
    ///
    /// # Errors
    ///
    /// Returns [`StaError`] when a change references an unknown instance or
    /// cell or produces a netlist a full analysis would reject; the engine
    /// recovers to its pre-change state when it can and poisons itself
    /// otherwise.
    pub fn apply(&mut self, changes: &[StaChange]) -> Result<(), StaError> {
        if let Some(err) = &self.poison {
            return Err(err.clone());
        }
        self.stats.last_recomputed = 0;
        for change in changes {
            self.apply_one(change)?;
        }
        self.stats.changes_applied += 1;
        Ok(())
    }

    /// Convenience wrapper: applies one [`StaChange::Recell`].
    ///
    /// # Errors
    ///
    /// See [`Self::apply`].
    pub fn recell(&mut self, inst: InstId, cell: &str) -> Result<(), StaError> {
        self.apply(&[StaChange::Recell { inst, cell: cell.to_owned() }])
    }

    /// The timing report for the current netlist/library/constraints —
    /// bit-identical to a fresh [`crate::analyze`]. Cached until the next
    /// change.
    ///
    /// # Errors
    ///
    /// Returns the stored error when the engine is poisoned by a previous
    /// failed change.
    pub fn report(&self) -> Result<&TimingReport, StaError> {
        if let Some(err) = &self.poison {
            return Err(err.clone());
        }
        Ok(self.cache.get_or_init(|| self.graph.report(&self.library, &self.constraints)))
    }

    /// Worst endpoint arrival (the critical delay), bit-identical to
    /// [`Self::report`]'s. Without a cached report it is read straight off
    /// the forward state: no required times, no critical path.
    ///
    /// # Errors
    ///
    /// See [`Self::report`].
    pub fn critical_delay(&self) -> Result<f64, StaError> {
        if let Some(err) = &self.poison {
            return Err(err.clone());
        }
        Ok(match self.cache.get() {
            Some(report) => report.critical_delay(),
            None => self.graph.critical_delay(&self.library),
        })
    }

    fn apply_one(&mut self, change: &StaChange) -> Result<(), StaError> {
        match change {
            StaChange::SwapLibrary(library) => {
                let old = std::mem::replace(&mut self.library, library.clone());
                self.full_refresh().inspect_err(|_| self.library = old)
            }
            StaChange::SetConstraints(constraints) => {
                let old = std::mem::replace(&mut self.constraints, constraints.clone());
                let unchanged = |c: &Constraints| {
                    (
                        c.input_slew.unwrap_or(self.library.default_input_slew).to_bits(),
                        c.output_load.unwrap_or(self.library.default_output_load).to_bits(),
                    )
                };
                if unchanged(&old) == unchanged(constraints) {
                    // Clock-period-only edit: the forward state is untouched;
                    // only the report (required times, slacks) changes.
                    self.cache.take();
                    Ok(())
                } else {
                    self.full_refresh().inspect_err(|_| self.constraints = old)
                }
            }
            StaChange::Recell { inst, cell } => self.apply_recell(*inst, cell),
        }
    }

    fn apply_recell(&mut self, inst: InstId, cell: &str) -> Result<(), StaError> {
        let Some(instance) = self.netlist.instances().get(inst.index()) else {
            return Err(StaError::UnknownInstance {
                index: inst.index(),
                instances: self.netlist.instance_count(),
            });
        };
        if instance.cell == cell {
            return Ok(());
        }
        let Some(id) = self.library.cell_id(cell) else {
            return Err(StaError::Netlist(NetlistError::UnknownCell {
                instance: instance.name.clone(),
                cell: cell.to_owned(),
            }));
        };
        let old_name =
            std::mem::replace(&mut self.netlist.instance_mut(inst).cell, cell.to_owned());
        let result = if self.graph.recell(self.netlist, &self.library, inst, id) {
            self.graph.propagate(&self.library).map(|evaluated| {
                self.stats.last_recomputed += evaluated;
                self.stats.recomputed_total += evaluated as u64;
                self.cache.take();
            })
        } else {
            // Pin roles or sequential class changed: sinks/drivers/levels are
            // stale, rebuild everything.
            self.full_refresh()
        };
        if let Err(err) = result {
            // Restore the pre-change netlist and state so a failed change
            // leaves the engine usable; poison it if even that fails.
            self.netlist.instance_mut(inst).cell = old_name;
            if let Err(fatal) = self.full_refresh() {
                self.poison = Some(fatal);
            }
            return Err(err);
        }
        Ok(())
    }

    /// Recompiles the graph and re-evaluates every instance from scratch.
    /// On failure the previous graph stays in place.
    fn full_refresh(&mut self) -> Result<(), StaError> {
        let (graph, evaluated) =
            TimingGraph::build(self.netlist, &self.library, &self.constraints)?;
        self.graph = graph;
        self.stats.instances_total = evaluated;
        self.stats.last_recomputed += evaluated;
        self.stats.recomputed_total += evaluated as u64;
        self.stats.full_refreshes += 1;
        self.cache.take();
        self.poison = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use liberty::{Cell, CellClass};
    use netlist::PortDir;

    fn lib() -> Library {
        let mut lib = Library::new("lib", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1"));
        let mut big = Cell::test_inverter("INV_X4");
        for pin in &mut big.inputs {
            pin.capacitance *= 4.0;
        }
        for out in &mut big.outputs {
            for arc in &mut out.arcs {
                arc.cell_rise = arc.cell_rise.map(|v| v * 0.5);
                arc.cell_fall = arc.cell_fall.map(|v| v * 0.5);
                arc.rise_transition = arc.rise_transition.map(|v| v * 0.5);
                arc.fall_transition = arc.fall_transition.map(|v| v * 0.5);
            }
        }
        lib.add_cell(big);
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

    #[test]
    fn initial_report_matches_analyze() {
        let lib = lib();
        let nl = chain(6);
        let constraints = Constraints::with_clock(1e-9);
        let full = analyze(&nl, &lib, &constraints).unwrap();
        let mut work = nl.clone();
        let inc = IncrementalSta::new(&mut work, &lib, &constraints).unwrap();
        assert_eq!(inc.report().unwrap(), &full);
        assert_eq!(inc.stats().instances_total, 6);
        assert_eq!(inc.stats().recomputed_total, 6);
    }

    #[test]
    fn recell_matches_fresh_analyze_and_touches_a_cone() {
        let lib = lib();
        let nl = chain(8);
        let constraints = Constraints::default();
        let mut work = nl.clone();
        let mut inc = IncrementalSta::new(&mut work, &lib, &constraints).unwrap();
        // Resize the tail instance: only itself and the load-affected
        // predecessor driver need re-evaluation.
        let tail = InstId::from_index(7);
        inc.recell(tail, "INV_X4").unwrap();
        assert!(inc.stats().last_recomputed <= 3, "{:?}", inc.stats());
        let mut reference = nl.clone();
        reference.instance_mut(tail).cell = "INV_X4".into();
        let full = analyze(&reference, &lib, &constraints).unwrap();
        assert_eq!(inc.report().unwrap(), &full);
        assert_eq!(inc.netlist(), &reference);
    }

    #[test]
    fn head_recell_repropagates_downstream() {
        let lib = lib();
        let nl = chain(8);
        let mut work = nl.clone();
        let mut inc = IncrementalSta::new(&mut work, &lib, &Constraints::default()).unwrap();
        inc.recell(InstId::from_index(0), "INV_X4").unwrap();
        // The head's slew change propagates the whole chain.
        assert_eq!(inc.stats().last_recomputed, 8);
        let mut reference = nl.clone();
        reference.instance_mut(InstId::from_index(0)).cell = "INV_X4".into();
        let full = analyze(&reference, &lib, &Constraints::default()).unwrap();
        assert_eq!(inc.report().unwrap(), &full);
    }

    #[test]
    fn recell_to_same_strength_is_free_and_revert_restores() {
        let lib = lib();
        let nl = chain(5);
        let mut work = nl.clone();
        let mut inc = IncrementalSta::new(&mut work, &lib, &Constraints::default()).unwrap();
        let before = inc.report().unwrap().clone();
        let mid = InstId::from_index(2);
        inc.recell(mid, "INV_X1").unwrap(); // no-op recell
        assert_eq!(inc.stats().last_recomputed, 0);
        inc.recell(mid, "INV_X4").unwrap();
        inc.recell(mid, "INV_X1").unwrap(); // revert
        assert_eq!(inc.report().unwrap(), &before);
    }

    #[test]
    fn unknown_cell_is_rejected_and_engine_survives() {
        let lib = lib();
        let nl = chain(4);
        let mut work = nl.clone();
        let mut inc = IncrementalSta::new(&mut work, &lib, &Constraints::default()).unwrap();
        let err = inc.recell(InstId::from_index(1), "NO_SUCH_CELL").unwrap_err();
        assert!(matches!(err, StaError::Netlist(NetlistError::UnknownCell { .. })));
        let full = analyze(&nl, &lib, &Constraints::default()).unwrap();
        assert_eq!(inc.report().unwrap(), &full);
    }

    /// A failed recell leaves the caller's netlist as it was and the engine
    /// usable, whether it fails before touching anything (an unknown cell)
    /// or in the rebuild a non-fitting cell forces (a flop has no pin A).
    #[test]
    fn failed_recells_leave_the_callers_netlist_and_the_engine_usable() {
        let mut lib = lib();
        lib.add_cell(flop_cell());
        let nl = chain(4);
        let full = analyze(&nl, &lib, &Constraints::default()).unwrap();
        let mut work = nl.clone();
        let mut inc = IncrementalSta::new(&mut work, &lib, &Constraints::default()).unwrap();
        let u1 = InstId::from_index(1);
        let unknown = NetlistError::UnknownCell { instance: "u1".into(), cell: "NOPE".into() };
        assert_eq!(inc.recell(u1, "NOPE").unwrap_err(), StaError::Netlist(unknown));
        assert_eq!(inc.netlist(), &nl);
        assert_eq!(inc.report().unwrap(), &full);
        let no_pin = NetlistError::UnknownPin {
            instance: "u1".into(),
            cell: "DFF_X1".into(),
            pin: "A".into(),
        };
        assert_eq!(inc.recell(u1, "DFF_X1").unwrap_err(), StaError::Netlist(no_pin));
        assert_eq!(inc.netlist(), &nl);
        assert_eq!(inc.report().unwrap(), &full);
        assert_eq!(inc.stats().full_refreshes, 1, "the restore after the failed rebuild");
        drop(inc);
        assert_eq!(work, nl);
    }

    #[test]
    fn clock_only_constraint_edit_recomputes_nothing() {
        let lib = lib();
        let nl = chain(6);
        let mut work = nl.clone();
        let mut inc = IncrementalSta::new(&mut work, &lib, &Constraints::default()).unwrap();
        let evals = inc.stats().recomputed_total;
        inc.apply(&[StaChange::SetConstraints(Constraints::with_clock(2e-9))]).unwrap();
        assert_eq!(inc.stats().recomputed_total, evals);
        assert_eq!(inc.stats().last_recomputed, 0);
        let full = analyze(&nl, &lib, &Constraints::with_clock(2e-9)).unwrap();
        assert_eq!(inc.report().unwrap(), &full);
    }

    #[test]
    fn library_swap_is_a_full_refresh() {
        let lib = lib();
        let mut slow = Library::new("slow", lib.vdd);
        for cell in lib.cells() {
            let mut cell = cell.clone();
            for out in &mut cell.outputs {
                for arc in &mut out.arcs {
                    arc.cell_rise = arc.cell_rise.map(|v| v * 1.3);
                    arc.cell_fall = arc.cell_fall.map(|v| v * 1.3);
                }
            }
            slow.add_cell(cell);
        }
        let nl = chain(5);
        let mut work = nl.clone();
        let mut inc = IncrementalSta::new(&mut work, &lib, &Constraints::default()).unwrap();
        inc.apply(&[StaChange::SwapLibrary(slow.clone())]).unwrap();
        assert_eq!(inc.stats().full_refreshes, 1);
        let full = analyze(&nl, &slow, &Constraints::default()).unwrap();
        assert_eq!(inc.report().unwrap(), &full);
    }

    fn flop_cell() -> Cell {
        use liberty::{BoolExpr, InputPin, OutputPin, Table2d, TimingArc, TimingSense};
        let t = Table2d::constant(20e-12, 4e-15, 50e-12);
        Cell {
            name: "DFF_X1".into(),
            area: 4.0,
            class: CellClass::Flop {
                clock: "CK".into(),
                data: "D".into(),
                setup: 30e-12,
                hold: 5e-12,
            },
            inputs: vec![
                InputPin { name: "D".into(), capacitance: 1.2e-15 },
                InputPin { name: "CK".into(), capacitance: 0.8e-15 },
            ],
            outputs: vec![OutputPin {
                name: "Q".into(),
                function: BoolExpr::var("D"),
                max_capacitance: 30e-15,
                arcs: vec![TimingArc {
                    related_pin: "CK".into(),
                    sense: TimingSense::PositiveUnate,
                    cell_rise: t.clone(),
                    cell_fall: t.clone(),
                    rise_transition: t.map(|_| 15e-12),
                    fall_transition: t.map(|_| 15e-12),
                }],
            }],
        }
    }

    #[test]
    fn flop_pipeline_recell_stays_bit_identical() {
        let mut lib = lib();
        lib.add_cell(flop_cell());
        let mut nl = Netlist::new("pipe");
        let clk = nl.add_port("clk", PortDir::Input);
        let d = nl.add_port("d", PortDir::Input);
        let q1 = nl.add_net("q1");
        let n1 = nl.add_net("n1");
        let q2 = nl.add_port("q", PortDir::Output);
        nl.add_instance("ff0", "DFF_X1", &[("D", d), ("CK", clk), ("Q", q1)]);
        nl.add_instance("u0", "INV_X1", &[("A", q1), ("Y", n1)]);
        nl.add_instance("ff1", "DFF_X1", &[("D", n1), ("CK", clk), ("Q", q2)]);
        let constraints = Constraints::with_clock(1e-9);
        let mut work = nl.clone();
        let mut inc = IncrementalSta::new(&mut work, &lib, &constraints).unwrap();
        inc.recell(InstId::from_index(1), "INV_X4").unwrap();
        let mut reference = nl.clone();
        reference.instance_mut(InstId::from_index(1)).cell = "INV_X4".into();
        let full = analyze(&reference, &lib, &constraints).unwrap();
        assert_eq!(inc.report().unwrap(), &full);
        // The resize changed the Q-net load of ff0, so ff0 was re-launched.
        assert!(inc.stats().last_recomputed >= 2);
    }

    #[test]
    fn unknown_instance_is_a_typed_error_and_engine_survives() {
        let lib = lib();
        let nl = chain(4);
        let mut work = nl.clone();
        let mut inc = IncrementalSta::new(&mut work, &lib, &Constraints::default()).unwrap();
        let err = inc.recell(InstId::from_index(4), "INV_X4").unwrap_err();
        assert_eq!(err, StaError::UnknownInstance { index: 4, instances: 4 });
        assert!(err.to_string().contains("outside the netlist"), "{err}");
        let far = StaChange::Recell { inst: InstId::from_index(usize::MAX), cell: "INV_X1".into() };
        assert!(matches!(inc.apply(&[far]), Err(StaError::UnknownInstance { .. })));
        let full = analyze(&nl, &lib, &Constraints::default()).unwrap();
        assert_eq!(inc.report().unwrap(), &full);
        inc.recell(InstId::from_index(3), "INV_X4").unwrap();
        let mut reference = nl.clone();
        reference.instance_mut(InstId::from_index(3)).cell = "INV_X4".into();
        let full = analyze(&reference, &lib, &Constraints::default()).unwrap();
        assert_eq!(inc.report().unwrap(), &full);
    }

    #[test]
    fn failed_library_swap_keeps_the_old_library() {
        let lib = lib();
        let nl = chain(4);
        let mut work = nl.clone();
        let mut inc = IncrementalSta::new(&mut work, &lib, &Constraints::default()).unwrap();
        let empty = Library::new("empty", lib.vdd);
        let err = inc.apply(&[StaChange::SwapLibrary(empty)]).unwrap_err();
        assert!(matches!(err, StaError::Netlist(NetlistError::UnknownCell { .. })));
        assert_eq!(inc.library(), &lib);
        let full = analyze(&nl, &lib, &Constraints::default()).unwrap();
        assert_eq!(inc.critical_delay().unwrap().to_bits(), full.critical_delay().to_bits());
        assert_eq!(inc.report().unwrap(), &full);
    }
}
