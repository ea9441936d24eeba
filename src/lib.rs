//! # reliaware — Reliability-Aware Design to Suppress Aging
//!
//! A from-scratch Rust reproduction of the DAC 2016 paper *Reliability-Aware
//! Design to Suppress Aging* (Amrouch, Khaleghi, Gerstlauer, Henkel):
//! degradation-aware standard-cell libraries that make existing EDA flows —
//! timing analysis **and** logic synthesis — aware of NBTI/PBTI transistor
//! aging, including the mobility degradation that state-of-the-art flows
//! ignore.
//!
//! This facade crate re-exports every layer of the stack so downstream users
//! can depend on a single crate:
//!
//! - [`bti`] — device-level trap generation, `ΔVth` and Δμ models
//! - [`ptm`] — 45 nm transistor cards with alpha-power-law I–V
//! - [`spicesim`] — transistor-level transient simulation (HSPICE substitute)
//! - [`stdcells`] — the 68-cell open standard-cell library
//! - [`liberty`] — NLDM timing libraries, Liberty-subset text format
//! - [`netlist`] — gate-level netlists, Verilog subset, per-arc delay tables
//! - [`sta`] — static timing analysis and guardband computation
//! - [`dataflow`] — static λ-interval propagation and provable stress bounds
//! - [`lint`] — relialint: rule-based static analysis and pre-flight gates
//! - [`logicsim`] — event-driven logic/timing simulation, activity extraction
//! - [`synth`] — timing-driven technology mapping, sizing and buffering
//! - [`circuits`] — the DSP/FFT/RISC/VLIW/DCT/IDCT benchmark generators
//! - [`imgproc`] — image utilities and PSNR for the system-level study
//! - [`flow`] — the paper's flow: degradation-aware library creation,
//!   guardband estimation, aging-aware synthesis, system-level evaluation
//! - [`serve`] — the characterization service: a unix-socket daemon with a
//!   sharded library memo, in-flight request coalescing and typed
//!   backpressure, plus its client and load generator
//! - [`surrogate`] — the tier-0 learned characterizer: deterministic ridge
//!   models with split-conformal error bounds that serve arc tables without
//!   simulation when the bound clears the accuracy budget
//!
//! See `README.md` for a quickstart and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure.

pub use bti;
pub use circuits;
pub use dataflow;
pub use flow;
pub use imgproc;
pub use liberty;
pub use lint;
pub use logicsim;
pub use netlist;
pub use ptm;
pub use serve;
pub use spicesim;
pub use sta;
pub use stdcells;
pub use surrogate;
pub use synth;
