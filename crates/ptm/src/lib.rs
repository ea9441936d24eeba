#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Predictive transistor models for a 45 nm high-k process.
//!
//! This crate stands in for the 45 nm Predictive Technology Model (PTM) cards
//! plus BSIM 4 evaluation that the paper uses inside HSPICE. It provides
//! [`MosModel`] parameter cards for nMOS/pMOS devices and a Sakurai–Newton
//! alpha-power-law I–V evaluation ([`MosModel::drain_current`]) that captures
//! exactly the dependencies the paper's Eq. (1) relies on:
//!
//! ```text
//! Id ∝ μ · (Vgs − Vth − ΔVth)^α
//! ```
//!
//! Aging enters through [`MosModel::degraded`], which applies a
//! [`bti::Degradation`] (`ΔVth` shift *and* mobility loss) to a fresh card —
//! yielding the "degraded transistor models" of the paper's Sec. 4.1.
//!
//! # Example
//!
//! ```
//! use bti::AgingScenario;
//! use ptm::MosModel;
//!
//! let fresh = MosModel::pmos_45nm();
//! let aged = fresh.degraded(&AgingScenario::worst_case(10.0).degradations().pmos);
//! let vdd = 1.2;
//! // An aged transistor drives less current at identical bias
//! // (gate low turns the pMOS on; source at Vdd, drain pulled low).
//! let w_over_l = 10.0;
//! let i_fresh = fresh.drain_current(0.0, 0.0, vdd, w_over_l).abs();
//! let i_aged = aged.drain_current(0.0, 0.0, vdd, w_over_l).abs();
//! assert!(i_aged < i_fresh);
//! ```

mod card;
mod iv;
mod variation;

pub use card::{MosModel, MosPolarity};
pub use iv::{Bias, Overdrive};
pub use variation::{DeviceSample, VariationModel};

/// Nominal supply voltage of the modeled 45 nm corner (paper Sec. 4.4).
pub const VDD_NOMINAL: f64 = 1.2;

/// Drawn channel length of the modeled node in meters.
pub const CHANNEL_LENGTH: f64 = 45e-9;
