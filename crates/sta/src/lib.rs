#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Static timing analysis over gate-level netlists and NLDM libraries.
//!
//! This crate plays the role of the Synopsys timing engine in the paper's
//! flow (Fig. 4(b,c)): it propagates slews and arrival times through a
//! mapped netlist using whatever [`liberty::Library`] it is given — the
//! *initial* library for fresh timing, a *degradation-aware* library for
//! aged timing, or the merged *complete* library for λ-annotated netlists —
//! and reports path delays, the critical path, endpoint slacks and the data
//! needed to compute guardbands.
//!
//! Because cell delay depends on each gate's operating conditions (input
//! slew × output load), simply swapping the library re-evaluates the whole
//! circuit under aging, including paths whose criticality *switches* — the
//! effect of the paper's Fig. 3 / Fig. 5(c). [`PathSpec`] +
//! [`evaluate_path`] allow re-costing a specific fresh-critical path under
//! an aged library to quantify exactly that.
//!
//! # Example
//!
//! ```
//! use liberty::{Cell, Library};
//! use netlist::{Netlist, PortDir};
//! use sta::{analyze, Constraints};
//!
//! # fn main() -> Result<(), sta::StaError> {
//! let mut lib = Library::new("lib", 1.2);
//! lib.add_cell(Cell::test_inverter("INV_X1"));
//!
//! let mut nl = Netlist::new("chain");
//! let a = nl.add_port("a", PortDir::Input);
//! let y = nl.add_port("y", PortDir::Output);
//! let n1 = nl.add_net("n1");
//! nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", n1)]);
//! nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", y)]);
//!
//! let report = analyze(&nl, &lib, &Constraints::default())?;
//! assert!(report.critical_delay() > 0.0);
//! assert_eq!(report.critical_path().steps.len(), 2);
//! # Ok(())
//! # }
//! ```

mod error;
mod graph;
mod incremental;
mod loops;
mod path;
mod paths_topk;
mod report;

pub use error::StaError;
pub use graph::{analyze, annotate};
pub use incremental::{IncrementalSta, StaChange, StaStats};
pub use loops::combinational_loops;
pub use path::{evaluate_path, evaluate_path_steps, evaluate_path_steps_with, PathSpec, PathStep};
pub use paths_topk::k_worst_paths;
pub use report::{Endpoint, EndpointKind, TimingReport};

/// Analysis boundary conditions.
///
/// `None` fields fall back to the defaults recorded in the library
/// (`default_input_slew`, `default_output_load`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Constraints {
    /// Clock period in seconds; enables slack/required-time reporting.
    pub clock_period: Option<f64>,
    /// Transition time assumed at primary inputs, in seconds.
    pub input_slew: Option<f64>,
    /// Load capacitance assumed at primary outputs, in farad.
    pub output_load: Option<f64>,
}

impl Constraints {
    /// Constraints with a clock period, for slack analysis.
    #[must_use]
    pub fn with_clock(period: f64) -> Self {
        Constraints { clock_period: Some(period), ..Constraints::default() }
    }
}
