use crate::{Constraints, StaError, TimingReport};
use liberty::{Cell, Library, TimingArc};
use netlist::{Bound, InstId, NetId, Netlist, NetlistError};

/// One traversed timing arc of a path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The instance traversed.
    pub inst: InstId,
    /// Input pin the path enters through.
    pub input: String,
    /// Polarity of the edge at the input (`true` = rising).
    pub input_rising: bool,
    /// Output pin the path leaves through.
    pub output: String,
    /// Polarity of the edge at the output.
    pub output_rising: bool,
    /// Arc delay as computed when the path was extracted, in seconds.
    pub delay: f64,
}

/// A concrete path through the netlist, re-evaluable under a different
/// library via [`evaluate_path`] — the tool for the paper's critical-path
/// switching study (Figs. 3, 5(c)).
#[derive(Debug, Clone, PartialEq)]
pub struct PathSpec {
    /// The net the path starts at (a primary input or a clock net).
    pub start_net: NetId,
    /// Edge polarity at the start net.
    pub start_rising: bool,
    /// Traversed arcs in order.
    pub steps: Vec<PathStep>,
    /// Endpoint arrival when the path was extracted, in seconds (includes
    /// the flop setup time when the endpoint is a flop data pin).
    pub arrival: f64,
}

impl PathSpec {
    /// Sum of the recorded step delays.
    #[must_use]
    pub fn recorded_delay(&self) -> f64 {
        self.steps.iter().map(|s| s.delay).sum()
    }

    /// Instance names along the path, for reporting.
    #[must_use]
    pub fn instance_names<'a>(&self, netlist: &'a Netlist) -> Vec<&'a str> {
        self.steps.iter().map(|s| netlist.instance(s.inst).name.as_str()).collect()
    }
}

/// Re-computes the delay of `path` against `library`: slews are propagated
/// along the path's own arcs (starting from the constrained input slew) and
/// each step's delay is looked up at its actual output load. Returns the
/// total path delay in seconds.
///
/// The cell of each step is taken from `netlist` — so re-evaluating a
/// λ-annotated netlist against the merged complete library works the same
/// way as a plain netlist against a per-scenario library.
///
/// # Errors
///
/// Returns [`StaError`] if `netlist` does not bind to `library` (see
/// [`Bound::new`]) or a step references a cell/pin/arc the library does
/// not provide.
pub fn evaluate_path(
    netlist: &Netlist,
    library: &Library,
    constraints: &Constraints,
    path: &PathSpec,
) -> Result<f64, StaError> {
    Ok(evaluate_path_steps(netlist, library, constraints, path)?.iter().sum())
}

/// Like [`evaluate_path`] but returns the per-step (per-arc) delays instead
/// of their sum — the basis for per-arc aging-sensitivity attribution: the
/// same path evaluated under a fresh and an aged/annotated library gives a
/// fresh-vs-aged delta for every traversed arc.
///
/// # Errors
///
/// Returns [`StaError`] if `netlist` does not bind to `library` (see
/// [`Bound::new`]) or a step references a cell/pin/arc the library does
/// not provide.
pub fn evaluate_path_steps(
    netlist: &Netlist,
    library: &Library,
    constraints: &Constraints,
    path: &PathSpec,
) -> Result<Vec<f64>, StaError> {
    let bound = Bound::new(netlist, library)?;
    let output_load = constraints.output_load.unwrap_or(library.default_output_load);
    let mut slew = constraints.input_slew.unwrap_or(library.default_input_slew);
    let mut delays = Vec::with_capacity(path.steps.len());
    for step in &path.steps {
        let (_, arc, _, out_net) = step_arc(netlist, library, step)?;
        let load = bound.load(library, out_net, output_load);
        delays.push(arc.delay(step.output_rising, slew, load));
        slew = arc.transition(step.output_rising, slew, load);
    }
    Ok(delays)
}

/// Like [`evaluate_path_steps`], but *graph-consistent*: each arc is looked
/// up at the propagated slew the full analysis recorded in `report` for the
/// arc's input net, instead of a path-local slew chain. Sequential steps
/// (a flop's clock-to-output launch) are evaluated at the constrained input
/// slew, exactly as the analysis launches them. Each returned delay is then
/// one term of the analysis' arrival recurrence, so for any path that
/// starts at a launch point (see `timed_segment` truncation in the
/// `dataflow` crate) the step sum is bounded by the report's critical
/// delay — the property the `PT` path rules rely on when comparing
/// per-path aged delays against a design-level bound.
///
/// `report` must come from analyzing the same `netlist`, `library` and
/// `constraints`: each step's output load is read from it
/// ([`TimingReport::load`]) rather than summed again.
///
/// # Errors
///
/// Returns [`StaError`] if a step references a cell/pin/arc the library
/// does not provide.
pub fn evaluate_path_steps_with(
    netlist: &Netlist,
    library: &Library,
    constraints: &Constraints,
    report: &TimingReport,
    path: &PathSpec,
) -> Result<Vec<f64>, StaError> {
    let input_slew = constraints.input_slew.unwrap_or(library.default_input_slew);
    let mut delays = Vec::with_capacity(path.steps.len());
    for step in &path.steps {
        let (cell, arc, in_net, out_net) = step_arc(netlist, library, step)?;
        let slew = if cell.is_sequential() {
            // Launch semantics: the analysis starts flop outputs from the
            // clock edge at the constrained input slew, regardless of the
            // clock net's own propagated state.
            input_slew
        } else {
            report.slew_edge(in_net, step.input_rising)
        };
        delays.push(arc.delay(step.output_rising, slew, report.load(out_net)));
    }
    Ok(delays)
}

/// The cell of `step`'s instance, the arc the step traverses and the nets
/// on its input and output pins.
///
/// # Errors
///
/// Returns [`StaError`] if the library lacks the cell or the arc, or a pin
/// of the step is unconnected.
fn step_arc<'a>(
    netlist: &Netlist,
    library: &'a Library,
    step: &PathStep,
) -> Result<(&'a Cell, &'a TimingArc, NetId, NetId), StaError> {
    let inst = netlist.instance(step.inst);
    let cell = library.cell(&inst.cell).ok_or_else(|| NetlistError::UnknownCell {
        instance: inst.name.clone(),
        cell: inst.cell.clone(),
    })?;
    let missing_arc = || StaError::MissingArc {
        cell: cell.name.clone(),
        input: step.input.clone(),
        output: step.output.clone(),
    };
    let arc = cell.output(&step.output).and_then(|o| o.arc_from(&step.input));
    let arc = arc.ok_or_else(missing_arc)?;
    let in_net = inst.net_on(&step.input).ok_or_else(missing_arc)?;
    let out_net = inst.net_on(&step.output).ok_or_else(missing_arc)?;
    Ok((cell, arc, in_net, out_net))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use liberty::{Cell, Library};
    use netlist::PortDir;

    fn lib() -> Library {
        let mut lib = Library::new("lib", 1.2);
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

    #[test]
    fn evaluate_matches_analysis_on_chain() {
        let nl = chain(4);
        let lib = lib();
        let c = Constraints::default();
        let report = analyze(&nl, &lib, &c).unwrap();
        let path = report.critical_path();
        assert_eq!(path.steps.len(), 4);
        let re = evaluate_path(&nl, &lib, &c, path).unwrap();
        assert!(
            (re - report.critical_delay()).abs() < 1e-15,
            "re-evaluated {re} vs analyzed {}",
            report.critical_delay()
        );
        assert!((path.recorded_delay() - re).abs() < 1e-15);
    }

    #[test]
    fn evaluate_against_scaled_library_scales_delay() {
        let nl = chain(3);
        let lib_fresh = lib();
        // An "aged" library: same cells, 30 % slower everywhere.
        let mut lib_aged = Library::new("aged", 1.2);
        let mut cell = Cell::test_inverter("INV_X1");
        for out in &mut cell.outputs {
            for arc in &mut out.arcs {
                arc.cell_rise = arc.cell_rise.map(|v| v * 1.3);
                arc.cell_fall = arc.cell_fall.map(|v| v * 1.3);
            }
        }
        lib_aged.add_cell(cell);
        let c = Constraints::default();
        let report = analyze(&nl, &lib_fresh, &c).unwrap();
        let fresh = evaluate_path(&nl, &lib_fresh, &c, report.critical_path()).unwrap();
        let aged = evaluate_path(&nl, &lib_aged, &c, report.critical_path()).unwrap();
        assert!((aged / fresh - 1.3).abs() < 1e-9, "ratio = {}", aged / fresh);
    }

    #[test]
    fn graph_consistent_steps_match_analysis_on_chain() {
        let nl = chain(5);
        let lib = lib();
        let c = Constraints::default();
        let report = analyze(&nl, &lib, &c).unwrap();
        let path = report.critical_path();
        let steps = evaluate_path_steps_with(&nl, &lib, &c, &report, path).unwrap();
        let total: f64 = steps.iter().sum();
        // On a chain the recorded slews are the path's own slews, so the
        // graph-consistent evaluation reproduces the analysis exactly.
        assert!(
            (total - report.critical_delay()).abs() < 1e-15,
            "graph-consistent sum {total} vs critical {}",
            report.critical_delay()
        );
        let local = evaluate_path_steps(&nl, &lib, &c, path).unwrap();
        assert_eq!(steps, local);
    }

    #[test]
    fn missing_cell_is_error() {
        let nl = chain(2);
        let c = Constraints::default();
        let report = analyze(&nl, &lib(), &c).unwrap();
        let empty = Library::new("empty", 1.2);
        assert!(evaluate_path(&nl, &empty, &c, report.critical_path()).is_err());
    }

    #[test]
    fn instance_names_follow_path() {
        let nl = chain(3);
        let c = Constraints::default();
        let report = analyze(&nl, &lib(), &c).unwrap();
        assert_eq!(report.critical_path().instance_names(&nl), vec!["u0", "u1", "u2"]);
    }
}
