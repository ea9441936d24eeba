#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Transistor-level transient circuit simulation.
//!
//! This crate is the repository's substitute for HSPICE: it simulates small
//! CMOS circuits (standard cells with their parasitics, driven by voltage
//! ramps and loaded with capacitors) in the time domain and measures
//! propagation delays and output slews — exactly the role HSPICE plays in
//! the paper's degradation-aware library creation (Fig. 4(a)).
//!
//! The engine integrates each floating node's charge balance
//! `C·dV/dt = ΣI(V)` with an exponential-Euler scheme: per node the device
//! currents are linearized and the node voltage is stepped along the exact
//! solution of the linearized ODE. That makes the integration
//! unconditionally stable on stiff nets (strong transistor on a tiny
//! parasitic node) while an adaptive step keeps the voltage change per step
//! below [`TransientConfig::max_dv`] for accuracy.
//!
//! Characterization drives one input with many slews.
//! [`Circuit::sweep_edges`] runs those variants as one sweep: the settle
//! phase before the input edge is integrated once, and each variant stops
//! as soon as its edge is measured. Its measurements equal those of
//! separate [`Circuit::transient`] runs bit for bit.
//!
//! # Example: inverter delay
//!
//! ```
//! use ptm::MosModel;
//! use spicesim::{Circuit, TransientConfig, Waveform};
//!
//! let vdd = 1.2;
//! let mut c = Circuit::new(vdd);
//! let a = c.add_source("a", Waveform::rising_ramp(1.0e-9, 20.0e-12, vdd));
//! let y = c.add_node("y", 1.0e-15); // 1 fF load
//! c.set_initial_voltage(y, vdd);
//! c.add_pmos(MosModel::pmos_45nm(), a, y, c.vdd_node(), 630e-9);
//! c.add_nmos(MosModel::nmos_45nm(), a, y, c.gnd_node(), 415e-9);
//!
//! let trace = c.transient(&TransientConfig::up_to(2.0e-9)).expect("non-empty window");
//! let delay = trace.delay(a, true, y, false, 0.5 * vdd).expect("output fell");
//! assert!(delay > 0.0 && delay < 100.0e-12);
//! ```

mod circuit;
mod engine;
mod error;
mod measure;
mod sweep;
mod waveform;

pub use circuit::{Circuit, DeviceId, NodeId};
pub use engine::{Trace, TransientConfig};
pub use error::SimError;
pub use measure::{EdgeMeasurement, EdgeProbe};
pub use sweep::{Sweep, SweepVariant, SweptEdge};
pub use waveform::Waveform;
