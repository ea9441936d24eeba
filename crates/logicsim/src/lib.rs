#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Gate-level logic and timing simulation.
//!
//! This crate covers both roles `ModelSim` plays in the paper:
//!
//! 1. **Activity extraction** (Sec. 4.2): [`run_cycles`] performs fast
//!    cycle-based zero-delay simulation of a workload and collects per-net
//!    signal probabilities, from which [`ActivityStats::lambda_of`] derives
//!    the average pMOS/nMOS duty cycles of every instance — the input to
//!    netlist λ-annotation for *dynamic aging stress*.
//! 2. **Timing-error injection** (Sec. 5): [`TimedSim`] is an event-driven
//!    simulator using per-arc delays from a [`netlist::DelayAnnotation`]
//!    (produced by STA under a chosen aging scenario). Flip-flops and
//!    primary outputs sample at each clock edge, so any path slower than
//!    the period corrupts real data — exactly how aging destroys the
//!    paper's DCT→IDCT image pipeline. [`TimedSim::new`] compiles a
//!    netlist with its delays once; [`TimedSim::run`] then simulates any
//!    number of vector sets, and [`run_timed`] is the one-shot form.
//!
//! # Example: zero-delay truth check
//!
//! ```
//! use liberty::{Cell, Library};
//! use netlist::{Netlist, PortDir};
//! use logicsim::run_cycles;
//!
//! # fn main() -> Result<(), logicsim::SimError> {
//! let mut lib = Library::new("lib", 1.2);
//! lib.add_cell(Cell::test_inverter("INV_X1"));
//! let mut nl = Netlist::new("m");
//! let a = nl.add_port("a", PortDir::Input);
//! let y = nl.add_port("y", PortDir::Output);
//! nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", y)]);
//!
//! let run = run_cycles(&nl, &lib, None, &[vec![false], vec![true]])?;
//! assert_eq!(run.outputs, vec![vec![true], vec![false]]);
//! # Ok(())
//! # }
//! ```

mod activity;
mod error;
mod eval;
mod structure;
#[cfg(test)]
mod test_cells;
mod timed;
mod zero_delay;

pub use activity::ActivityStats;
pub use error::SimError;
pub use timed::{run_timed, TimedRun, TimedSim};
pub use zero_delay::{run_cycles, CycleRun};
