#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Physics-based Bias Temperature Instability (BTI) aging model.
//!
//! This crate implements the device-level aging model of the DAC'16 paper
//! *Reliability-Aware Design to Suppress Aging* (Amrouch et al.): defect
//! generation inside MOS transistors under Negative/Positive BTI stress and
//! the resulting degradation of the threshold voltage (`ΔVth`) **and** the
//! carrier mobility (Δμ) — the paper's key distinction from state of the art
//! which models `ΔVth` only.
//!
//! Beyond the paper, the mechanism layer generalizes the crate into a
//! mechanism-generic aging toolkit: one [`Mechanism`] type whose closed
//! [`Law`] is NBTI/PBTI trap kinetics, the hot-carrier cycle power law,
//! Black's electromigration equation or the dielectric-breakdown voltage
//! power law, each reporting a [`Weibull`] time-to-failure — the substrate
//! for static lifetime verification in the `dataflow` crate.
//!
//! The model follows the paper's Eqs. (2) and (3):
//!
//! ```text
//! ΔVth = q / Cox · (ΔN_IT + ΔN_OT)          (interface + oxide traps)
//! μ    = μ0 / (1 + α · ΔN_IT)               (mobility scattering)
//! ```
//!
//! where the trap densities `ΔN_IT`/`ΔN_OT` grow with stress time and the
//! transistor duty cycle λ (the fraction of time the device is under stress).
//! The kinetics are phenomenological power laws calibrated against published
//! 45 nm high-k/metal-gate data (see `DESIGN.md` for the substitution
//! rationale): worst-case 10-year stress yields `ΔVth` ≈ 51 mV and a ≈ 4 %
//! mobility loss for pMOS (NBTI), with PBTI on nMOS roughly half as severe.
//!
//! # Example
//!
//! ```
//! use bti::{BtiModel, DutyCycle, Stress};
//!
//! # fn main() -> Result<(), bti::DutyCycleError> {
//! let nbti = BtiModel::nbti();
//! let stress = Stress::years(10.0, DutyCycle::new(1.0)?);
//! let d = nbti.degradation(&stress);
//! assert!(d.delta_vth > 0.040 && d.delta_vth < 0.070);
//! assert!(d.mobility_factor < 1.0 && d.mobility_factor > 0.85);
//! # Ok(())
//! # }
//! ```

mod degradation;
mod duty;
pub mod json;
mod mechanism;
mod model;
pub mod rng;
mod scenario;
mod stress;

pub use degradation::Degradation;
pub use duty::{DutyCycle, DutyCycleError};
pub use mechanism::{
    monotonicity_violations, AgingInput, AgingSuite, Law, Mechanism, StressSource, Weibull,
};
pub use model::BtiModel;
pub use scenario::{AgingScenario, DevicePair};
pub use stress::Stress;

/// Elementary charge in coulomb.
pub const Q_ELECTRON: f64 = 1.602_176_634e-19;

/// Seconds per (Julian) year, used to convert lifetimes.
pub const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn year_constant_sane() {
        let computed = 365.25 * 24.0 * 3600.0;
        assert!((SECONDS_PER_YEAR - computed).abs() < 1e-6);
        assert!(Q_ELECTRON.is_finite());
    }
}
