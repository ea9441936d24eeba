#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! **dataflow** — static λ-interval analysis of gate-level netlists.
//!
//! The paper's degradation model is driven by per-transistor duty cycles
//! (λ): they select the ΔVth/Δμ corner every cell is characterized at.
//! The dynamic flow extracts λ from logic simulation of one workload —
//! which silently under-covers every workload that was *not* simulated.
//! This crate brackets what simulation can ever produce: an
//! abstract-interpretation engine propagates **signal-probability
//! intervals** `[lo, hi] ⊆ [0, 1]` from the primary inputs through every
//! gate using correlation-proof Fréchet bounds (topological order for
//! DAGs, widening to `[0, 1]` across combinational loops).
//!
//! Four analyses sit on the core lattice:
//!
//! - **λ-interval bounds** per instance ([`NetlistDataflow::lambda_bounds`]),
//!   convertible to [`bti::DutyCycle`] ranges;
//! - **constant-net detection** ([`NetlistDataflow::constant_nets`]) —
//!   statically pinned nets are maximal asymmetric BTI/PBTI stress points;
//! - **dead-cone detection** ([`dead_cone`]) — instances whose output
//!   never reaches a primary output;
//! - **annotation validation**
//!   ([`NetlistDataflow::validate_annotations`]) — a λ-annotation outside
//!   its statically provable interval can come from no workload.
//!
//! [`static_guardband_bound`] turns the intervals into a provable timing
//! bound: each instance is moved to its worst characterized λ-grid variant
//! inside the interval box and the netlist is re-timed, upper-bounding the
//! dynamic guardband of **any** workload.
//!
//! The `lint` crate surfaces these analyses as relialint rules
//! `DF001`–`DF006`; the `bench` crate ships a `dataflow` CLI.
//!
//! # Example
//!
//! ```
//! use dataflow::{DataflowConfig, Interval, NetlistDataflow};
//! use liberty::{Cell, Library};
//! use netlist::{Netlist, PortDir};
//!
//! let mut lib = Library::new("lib", 1.2);
//! lib.add_cell(Cell::test_inverter("INV_X1"));
//! let mut nl = Netlist::new("m");
//! let a = nl.add_port("a", PortDir::Input);
//! let y = nl.add_port("y", PortDir::Output);
//! nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", y)]);
//!
//! let mut config = DataflowConfig::default();
//! config.input_intervals.insert(a, Interval::new(0.8, 0.9));
//! let df = NetlistDataflow::analyze_with(&nl, &lib, &config);
//! assert!((df.interval(y).lo() - 0.1).abs() < 1e-12);
//! assert!((df.interval(y).hi() - 0.2).abs() < 1e-12);
//! ```

mod engine;
mod guardband;
mod interval;
mod lambda;
mod lifetime;
mod mc;
mod paths;

pub use engine::{dead_cone, expr_interval, DataflowConfig, NetlistDataflow};
pub use guardband::{static_guardband_bound, StaticBoundReport};
pub use interval::Interval;
pub use lambda::{Extraction, LambdaBounds, Violation, ViolationKind};
pub use lifetime::{
    activity_upper_bound, series_mttf_lower_bound, static_lifetime_bound, InstanceLifetime,
    LifetimeConfig, LifetimeReport, MechanismInterval,
};
pub use mc::{
    clamp_boundary_bound, mc_design_mttf, sample_design_mttf, McDistribution, McSampling,
};
pub use paths::{analyze_paths, ArcAging, PathAnalysis, PathAnalysisConfig, PathProfile};
