//! Mechanism-generic aging layer: one [`Mechanism`] type whose physics is
//! a closed [`Law`], and the [`Weibull`] time-to-failure distribution every
//! mechanism reports.
//!
//! The paper models BTI only; oldspot-style lifetime tools treat Hot-Carrier
//! Injection, Electromigration and Time-Dependent Dielectric Breakdown as
//! peers, each with a Weibull failure distribution. This module generalizes
//! the crate accordingly: every mechanism maps one [`AgingInput`] — stress
//! duty/activity, temperature, supply, clock frequency and elapsed time —
//! to a parametric [`Degradation`] contribution and/or a [`Weibull`]
//! time-to-failure. The five standard mechanisms share four [`Law`]s.
//!
//! # The monotonicity contract
//!
//! Static lifetime analysis (the `dataflow` crate) evaluates mechanisms at
//! the *endpoints* of provable input intervals and claims the results bound
//! every point inside. That is sound **iff** each mechanism is monotone:
//! degradation non-decreasing and failure time non-increasing in each of
//! duty, temperature, Vdd, frequency and time. Each law satisfies the
//! contract analytically for non-negative exponents and activation
//! energies (power laws, Arrhenius and field acceleration);
//! [`monotonicity_violations`] probes it numerically so misconfigured
//! parameters (e.g. a negative exponent) are rejected instead of producing
//! unsound bounds (lint rule `LT004`).
//!
//! # Example
//!
//! ```
//! use bti::{monotonicity_violations, AgingInput, AgingSuite, Law};
//!
//! let suite = AgingSuite::standard();
//! let worst = AgingInput::new(1.0, 10.0, 398.15, 1.2, 1.0e9);
//! for (source, mech) in suite.mechanisms() {
//!     let d = mech.degradation(&worst);
//!     assert!(d.delta_vth >= 0.0, "{} ({source:?})", mech.name());
//!     if let Some(w) = mech.failure_distribution(&worst) {
//!         assert!(w.mttf_years() > 10.0, "{} fails inside the horizon", mech.name());
//!     }
//! }
//!
//! // A law's parameters are plain data; the probe rejects a set that
//! // breaks the contract, such as HCI healing with use.
//! let mut hci = suite.hci.clone();
//! if let Law::CyclePowerLaw { cycle_exp, .. } = &mut hci.law {
//!     *cycle_exp = -0.45;
//! }
//! assert!(!monotonicity_violations(&hci).is_empty());
//! ```

use crate::model::{arrhenius, field};
use crate::{BtiModel, Degradation, DutyCycle, Stress, SECONDS_PER_YEAR};
use std::fmt;

/// Mechanisms that do not fail within this horizon report no failure
/// distribution at all (the hazard is numerically irrelevant).
const FAILURE_HORIZON_YEARS: f64 = 1.0e6;

/// One operating point a mechanism is evaluated at.
///
/// `duty` doubles as the switching *activity* for the activity-driven
/// mechanisms (HCI, EM): the fraction of cycles the device toggles, where
/// the duty-cycle mechanisms read the fraction of time it is stressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingInput {
    /// Stress duty cycle (BTI) or switching activity (HCI/EM) in `[0, 1]`.
    pub duty: f64,
    /// Elapsed operating time in years.
    pub years: f64,
    /// Junction temperature in kelvin.
    pub temperature_k: f64,
    /// Supply (stress) voltage in volts.
    pub vdd: f64,
    /// Clock frequency in hertz (drives the cycle-count mechanisms).
    pub frequency_hz: f64,
    /// Sampled fresh threshold-voltage offset in volts (process variation;
    /// 0 = nominal device). A device born with its Vth already shifted by
    /// `+x` has `x` less of the parametric failure budget left, so the
    /// Vth-criterion mechanisms fail it at `vth_crit − x` of *generated*
    /// shift. Negative offsets widen the budget symmetrically.
    pub vth0_offset: f64,
}

impl AgingInput {
    /// Creates a nominal-device input, clamping `duty` into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when years is negative, or temperature/vdd/frequency are not
    /// positive finite numbers.
    #[must_use]
    pub fn new(duty: f64, years: f64, temperature_k: f64, vdd: f64, frequency_hz: f64) -> Self {
        assert!(years.is_finite() && years >= 0.0, "years must be finite and non-negative");
        assert!(temperature_k.is_finite() && temperature_k > 0.0, "temperature must be positive");
        assert!(vdd.is_finite() && vdd > 0.0, "vdd must be positive");
        assert!(frequency_hz.is_finite() && frequency_hz > 0.0, "frequency must be positive");
        AgingInput {
            duty: duty.clamp(0.0, 1.0),
            years,
            temperature_k,
            vdd,
            frequency_hz,
            vth0_offset: 0.0,
        }
    }

    /// This input for a device whose fresh Vth is offset by `volts`.
    ///
    /// # Panics
    ///
    /// Panics when `volts` is not finite.
    #[must_use]
    pub fn with_vth0_offset(self, volts: f64) -> Self {
        assert!(volts.is_finite(), "vth0 offset must be finite");
        AgingInput { vth0_offset: volts, ..self }
    }

    /// The nominal worst-stress corner: duty 1 at the calibration
    /// environment and a 1 GHz clock.
    #[must_use]
    pub fn worst(years: f64) -> Self {
        Self::new(1.0, years, Stress::NOMINAL_TEMPERATURE_K, Stress::NOMINAL_VDD, 1.0e9)
    }

    fn stress_at(&self, years: f64) -> Stress {
        Stress::years(years, DutyCycle::saturating(self.duty))
            .with_temperature(self.temperature_k)
            .with_vdd(self.vdd)
    }
}

/// Remaining generated-ΔVth budget of a device whose fresh threshold is
/// already offset by process variation: `vth_crit − vth0_offset`, floored
/// at 1 mV so even a beyond-clamp sample keeps a positive (if tiny)
/// budget and the failure-time inversions stay well-defined.
fn vth_budget(vth_crit: f64, input: &AgingInput) -> f64 {
    (vth_crit - input.vth0_offset).max(1e-3)
}

/// A two-parameter Weibull time-to-failure distribution in **years**.
///
/// `R(t) = exp(−(t/η)^β)` with scale `η` ([`Weibull::scale_years`]) and
/// shape `β`; `MTTF = η·Γ(1 + 1/β)`. Shape > 1 models wear-out (hazard
/// grows with age), shape 1 a constant hazard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    /// Scale parameter η in years (the 63.2 % failure quantile).
    pub scale_years: f64,
    /// Shape parameter β (dimensionless).
    pub shape: f64,
}

impl Weibull {
    /// Creates a distribution from scale and shape.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive finite numbers.
    #[must_use]
    pub fn new(scale_years: f64, shape: f64) -> Self {
        assert!(scale_years.is_finite() && scale_years > 0.0, "Weibull scale must be positive");
        assert!(shape.is_finite() && shape > 0.0, "Weibull shape must be positive");
        Weibull { scale_years, shape }
    }

    /// The distribution with a given mean time to failure:
    /// `η = MTTF / Γ(1 + 1/β)`.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive finite numbers.
    #[must_use]
    pub fn from_mttf(mttf_years: f64, shape: f64) -> Self {
        assert!(mttf_years.is_finite() && mttf_years > 0.0, "MTTF must be positive");
        Self::new(mttf_years / gamma(1.0 + 1.0 / shape), shape)
    }

    /// Mean time to failure `η·Γ(1 + 1/β)` in years.
    #[must_use]
    pub fn mttf_years(&self) -> f64 {
        self.scale_years * gamma(1.0 + 1.0 / self.shape)
    }

    /// Survival probability `R(t) = exp(−(t/η)^β)` at `t_years`.
    #[must_use]
    pub fn reliability(&self, t_years: f64) -> f64 {
        (-self.cumulative_hazard(t_years)).exp()
    }

    /// Cumulative hazard `H(t) = (t/η)^β` at `t_years`.
    #[must_use]
    pub fn cumulative_hazard(&self, t_years: f64) -> f64 {
        if t_years <= 0.0 {
            return 0.0;
        }
        (t_years / self.scale_years).powf(self.shape)
    }

    /// Inverse CDF: the failure time whose CDF equals `p ∈ [0, 1)` —
    /// `η·(−ln(1 − p))^(1/β)`. Feeding uniform samples through this is the
    /// standard Monte-Carlo failure-time sampler.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0 - 1e-15);
        self.scale_years * (-(1.0 - p).ln()).powf(1.0 / self.shape)
    }
}

impl fmt::Display for Weibull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Weibull(η={:.3e}y, β={:.2})", self.scale_years, self.shape)
    }
}

/// Γ(x) for positive arguments via the Lanczos approximation (g = 7, n = 9);
/// accurate to ~1e-13 over the shapes used here. The workspace deliberately
/// carries no math-library dependency.
fn gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x.is_finite() && x > 0.0, "gamma needs a positive argument");
    if x < 0.5 {
        // Reflection keeps the Lanczos core in its accurate region.
        return std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x));
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * acc
}

/// One wear-out mechanism: a [`Law`] with its parameters and the Weibull
/// shape of its failure distribution. One operating point in, degradation
/// and/or a failure distribution out.
///
/// The name is fixed by the constructor ([`Mechanism::nbti`], ...) and the
/// stress quantity it consumes by its [`AgingSuite`] slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Mechanism {
    name: &'static str,
    /// The physics and its parameters.
    pub law: Law,
    /// Weibull shape β of the failure distribution.
    pub weibull_shape: f64,
}

/// The physics of a [`Mechanism`].
///
/// Every law is monotone in its inputs for non-negative exponents and
/// activation energies; [`monotonicity_violations`] checks a parameter set.
#[derive(Debug, Clone, PartialEq)]
pub enum Law {
    /// BTI (NBTI or PBTI): the [`BtiModel`] trap kinetics of Eqs. (2) and
    /// (3). The failure time is the (bisected) crossing of `ΔVth` over
    /// `vth_crit`.
    TrapKinetics {
        /// The underlying power-law trap model.
        model: BtiModel,
        /// `ΔVth` (volts) at which the device counts as failed.
        vth_crit: f64,
    },
    /// Hot-Carrier Injection: channel carriers heated by the lateral field
    /// damage the Si/SiO₂ interface on every switching event.
    ///
    /// `ΔVth = a · (activity·f·t)^n · AF_T · AF_V` — cycle-count driven,
    /// with a weak positive thermal activation and a strong field
    /// dependence. The failure time inverts the power law at `vth_crit`.
    CyclePowerLaw {
        /// Prefactor in volts per cycle^`cycle_exp` (at the nominal corner).
        a: f64,
        /// Cycle-count exponent n (empirically ≈ 0.45).
        cycle_exp: f64,
        /// Activation energy in eV (HCI worsens mildly with temperature
        /// here; the classic low-temperature worsening is below this
        /// model's scope).
        ea: f64,
        /// Field-acceleration exponent `(V/Vnom)^γ`.
        gamma_v: f64,
        /// Mobility loss per volt of `ΔVth` (interface damage scatters
        /// carriers).
        mobility_per_volt: f64,
        /// `ΔVth` (volts) at which the device counts as failed.
        vth_crit: f64,
    },
    /// Electromigration on the gate's output wiring, via Black's equation:
    /// `MTTF = A · (J/J0)^−n · exp(Ea/k · (1/T − 1/T0))` with the current
    /// density `J` proportional to switching activity, frequency and
    /// supply.
    ///
    /// EM is a hard (catastrophic) failure: it contributes no parametric
    /// degradation, only a Weibull failure distribution.
    Black {
        /// Per-wire MTTF in years at the nominal corner (`J = J0`).
        mttf_nominal_years: f64,
        /// Black's current-density exponent n (≈ 2 for void nucleation).
        current_exp: f64,
        /// Activation energy in eV (Cu interconnect ≈ 0.9).
        ea: f64,
        /// Frequency at which activity 1 yields the nominal current density.
        nominal_frequency_hz: f64,
    },
    /// Time-Dependent Dielectric Breakdown of the gate oxide: the vertical
    /// field wears a conducting path through the dielectric whenever the
    /// gate is biased — in either logic state, so TDDB is duty-independent
    /// here.
    ///
    /// `MTTF = A · (V/Vnom)^−γ · exp(Ea/k · (1/T − 1/T0))`, the standard
    /// power-law voltage model. Like EM, TDDB is a hard failure.
    VoltagePowerLaw {
        /// Per-device MTTF in years at the nominal corner.
        mttf_nominal_years: f64,
        /// Voltage-acceleration exponent γ (power-law TDDB ≈ 30–40; a
        /// softer value keeps the model conservative over small Vdd
        /// ranges).
        voltage_exp: f64,
        /// Activation energy in eV.
        ea: f64,
    },
}

impl Mechanism {
    /// NBTI on pMOS with the default parametric-failure criterion.
    #[must_use]
    pub fn nbti() -> Self {
        Self::trap("nbti", BtiModel::nbti())
    }

    /// PBTI on nMOS (about half as severe as NBTI).
    #[must_use]
    pub fn pbti() -> Self {
        Self::trap("pbti", BtiModel::pbti())
    }

    fn trap(name: &'static str, model: BtiModel) -> Self {
        Mechanism { name, law: Law::TrapKinetics { model, vth_crit: 0.15 }, weibull_shape: 3.0 }
    }

    /// HCI at the default 45 nm-class calibration: 10-year worst-case
    /// (activity 1 at 1 GHz) contributes ≈ 15 mV — a clear second to NBTI,
    /// as in scaled planar nodes.
    #[must_use]
    pub fn hci() -> Self {
        let law = Law::CyclePowerLaw {
            a: 2.05e-10,
            cycle_exp: 0.45,
            ea: 0.06,
            gamma_v: 6.0,
            mobility_per_volt: 0.5,
            vth_crit: 0.15,
        };
        Mechanism { name: "hci", law, weibull_shape: 3.0 }
    }

    /// EM at the default calibration: 10⁵ years per wire at the nominal
    /// corner — EM budgets are set per via/wire so that millions of them
    /// survive a decade in series.
    #[must_use]
    pub fn em() -> Self {
        let law = Law::Black {
            mttf_nominal_years: 1.0e5,
            current_exp: 2.0,
            ea: 0.9,
            nominal_frequency_hz: 1.0e9,
        };
        Mechanism { name: "em", law, weibull_shape: 2.0 }
    }

    /// TDDB at the default calibration: 10⁶ years per device at the
    /// nominal corner, with a shape below the wear-out modes' (breakdown
    /// has a wide, defect-driven spread).
    #[must_use]
    pub fn tddb() -> Self {
        let law = Law::VoltagePowerLaw { mttf_nominal_years: 1.0e6, voltage_exp: 12.0, ea: 0.7 };
        Mechanism { name: "tddb", law, weibull_shape: 1.2 }
    }

    /// Short stable name (`"nbti"`, `"hci"`, ...), used in diagnostics and
    /// JSON output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Parametric degradation accumulated by `input.years`.
    #[must_use]
    pub fn degradation(&self, input: &AgingInput) -> Degradation {
        match &self.law {
            Law::TrapKinetics { model, .. } => model.degradation(&input.stress_at(input.years)),
            Law::CyclePowerLaw { a, cycle_exp, ea, gamma_v, mobility_per_volt, .. } => {
                let cycles = input.duty * input.frequency_hz * input.years * SECONDS_PER_YEAR;
                if cycles <= 0.0 {
                    return Degradation::fresh();
                }
                let delta_vth =
                    a * cycles.powf(*cycle_exp) * hci_acceleration(*ea, *gamma_v, input);
                Degradation {
                    delta_vth,
                    mobility_factor: 1.0 / (1.0 + mobility_per_volt * delta_vth),
                    interface_traps: 0.0,
                    oxide_traps: 0.0,
                }
            }
            Law::Black { .. } | Law::VoltagePowerLaw { .. } => Degradation::fresh(),
        }
    }

    /// Time-to-failure distribution under constant stress at `input`
    /// (the `years` field is ignored — the distribution covers all time).
    ///
    /// `None` when the mechanism cannot fail at this operating point (zero
    /// stress) or its failure time exceeds the 10⁶-year horizon.
    #[must_use]
    pub fn failure_distribution(&self, input: &AgingInput) -> Option<Weibull> {
        let mttf_years = match &self.law {
            Law::TrapKinetics { model, vth_crit } => trap_crossing_years(model, *vth_crit, input)?,
            Law::CyclePowerLaw { a, cycle_exp, ea, gamma_v, vth_crit, .. } => {
                let cycles_per_year = input.duty * input.frequency_hz * SECONDS_PER_YEAR;
                if cycles_per_year <= 0.0 {
                    return None;
                }
                // Invert ΔVth = a·N^n·AF for the critical cycle count, then
                // convert cycles to years at this frequency and activity.
                let crit = vth_budget(*vth_crit, input);
                let critical_cycles =
                    (crit / (a * hci_acceleration(*ea, *gamma_v, input))).powf(1.0 / cycle_exp);
                critical_cycles / cycles_per_year
            }
            Law::Black { mttf_nominal_years, current_exp, ea, nominal_frequency_hz } => {
                // Time-averaged current density scales with the charge moved
                // per unit time: activity × frequency × Vdd.
                let j_ratio = input.duty
                    * (input.frequency_hz / nominal_frequency_hz)
                    * (input.vdd / Stress::NOMINAL_VDD);
                if j_ratio <= 0.0 {
                    return None; // a wire that never switches carries no net current
                }
                mttf_nominal_years
                    * j_ratio.powf(-current_exp)
                    * arrhenius(*ea, input.temperature_k, Stress::NOMINAL_TEMPERATURE_K)
            }
            Law::VoltagePowerLaw { mttf_nominal_years, voltage_exp, ea } => {
                mttf_nominal_years
                    * field(input.vdd, -voltage_exp)
                    * arrhenius(*ea, input.temperature_k, Stress::NOMINAL_TEMPERATURE_K)
            }
        };
        (mttf_years <= FAILURE_HORIZON_YEARS)
            .then(|| Weibull::from_mttf(mttf_years, self.weibull_shape))
    }
}

/// HCI's combined thermal and field acceleration at `input`.
fn hci_acceleration(ea: f64, gamma_v: f64, input: &AgingInput) -> f64 {
    arrhenius(ea, Stress::NOMINAL_TEMPERATURE_K, input.temperature_k) * field(input.vdd, gamma_v)
}

/// The years after which BTI's `ΔVth` reaches the failure budget at
/// `input`; `None` when the device is unstressed or stays below the budget
/// up to the horizon.
fn trap_crossing_years(model: &BtiModel, vth_crit: f64, input: &AgingInput) -> Option<f64> {
    if input.duty <= 0.0 {
        return None; // no stress, no trap generation, no failure
    }
    let crit = vth_budget(vth_crit, input);
    // Only `t^n` changes along the inversion: the duty, Arrhenius and
    // field factors are evaluated once.
    let kinetics = model.kinetics(&input.stress_at(FAILURE_HORIZON_YEARS));
    let delta_vth_at = |years: f64| kinetics.degradation(years * SECONDS_PER_YEAR).delta_vth;
    if delta_vth_at(FAILURE_HORIZON_YEARS) < crit {
        return None;
    }
    // ΔVth(t) is a sum of two power laws — strictly increasing — so the
    // crossing time is unique; at most 80 bisection steps in log-time pin
    // it to machine precision, deterministically. Both exits lie inside
    // the horizon: `exp(ln 1e6)` rounds below 1e6.
    let (mut lo, mut hi) = (1e-6f64.ln(), FAILURE_HORIZON_YEARS.ln());
    if delta_vth_at(lo.exp()) >= crit {
        return Some(lo.exp());
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        // `lo` is always below the crossing and `hi` at or above it, so a
        // midpoint that rounds onto either end leaves `hi` where it is for
        // every remaining step.
        if mid == lo || mid == hi {
            break;
        }
        if delta_vth_at(mid.exp()) < crit {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi.exp())
}

/// Which per-gate stress quantity feeds a mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StressSource {
    /// The pMOS duty cycle λp (NBTI: pMOS stressed while its gate is low).
    PmosDuty,
    /// The nMOS duty cycle λn (PBTI).
    NmosDuty,
    /// The output switching activity (HCI, EM).
    Activity,
}

/// The standard mechanism suite: NBTI, PBTI, HCI, EM and TDDB, each paired
/// with the stress quantity it consumes.
///
/// The struct is plain data (`Clone`/`PartialEq`) so it can ride inside
/// analysis configurations; [`AgingSuite::mechanisms`] lists the members
/// with their stress sources.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingSuite {
    /// NBTI on the pMOS devices.
    pub nbti: Mechanism,
    /// PBTI on the nMOS devices.
    pub pbti: Mechanism,
    /// Hot-carrier injection on the switching devices.
    pub hci: Mechanism,
    /// Electromigration on the output wiring.
    pub em: Mechanism,
    /// Dielectric breakdown of the gate oxides.
    pub tddb: Mechanism,
}

impl AgingSuite {
    /// The default five-mechanism suite.
    #[must_use]
    pub fn standard() -> Self {
        AgingSuite {
            nbti: Mechanism::nbti(),
            pbti: Mechanism::pbti(),
            hci: Mechanism::hci(),
            em: Mechanism::em(),
            tddb: Mechanism::tddb(),
        }
    }

    /// Every mechanism with its stress source, in a fixed, deterministic
    /// order (nbti, pbti, hci, em, tddb).
    #[must_use]
    pub fn mechanisms(&self) -> [(StressSource, &Mechanism); 5] {
        [
            (StressSource::PmosDuty, &self.nbti),
            (StressSource::NmosDuty, &self.pbti),
            (StressSource::Activity, &self.hci),
            (StressSource::Activity, &self.em),
            (StressSource::Activity, &self.tddb),
        ]
    }
}

impl Default for AgingSuite {
    fn default() -> Self {
        Self::standard()
    }
}

/// Numerically probes the monotonicity contract of `mechanism` and returns
/// a description of every violated axis (empty = contract holds on the
/// probe grid).
///
/// For each axis (duty, years, temperature, Vdd, frequency, fresh-Vth
/// offset) the probe sweeps three increasing values around the nominal
/// corner and requires `ΔVth` non-decreasing and MTTF non-increasing (a
/// missing distribution counts as an infinite failure time). This is what
/// lint rule `LT004` runs before trusting interval-endpoint evaluation —
/// and, since the process-variation axis joined the contract, what makes
/// clamp-boundary evaluation cover every sampled device.
#[must_use]
pub fn monotonicity_violations(mechanism: &Mechanism) -> Vec<String> {
    const REL_TOL: f64 = 1e-9;
    let base = AgingInput::worst(5.0);
    let axes: [(&str, [AgingInput; 3]); 6] = [
        ("duty", [0.25, 0.5, 1.0].map(|duty| AgingInput { duty, ..base })),
        ("years", [1.0, 5.0, 10.0].map(|years| AgingInput { years, ..base })),
        (
            "temperature",
            [368.15, 398.15, 428.15].map(|temperature_k| AgingInput { temperature_k, ..base }),
        ),
        ("vdd", [1.1, 1.2, 1.3].map(|vdd| AgingInput { vdd, ..base })),
        (
            "frequency",
            [5.0e8, 1.0e9, 2.0e9].map(|frequency_hz| AgingInput { frequency_hz, ..base }),
        ),
        ("vth0_offset", [-0.06, 0.0, 0.06].map(|vth0_offset| AgingInput { vth0_offset, ..base })),
    ];
    let mut out = Vec::new();
    for (axis, points) in &axes {
        for pair in points.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let (dv_a, dv_b) =
                (mechanism.degradation(a).delta_vth, mechanism.degradation(b).delta_vth);
            if dv_b < dv_a * (1.0 - REL_TOL) - 1e-15 {
                out.push(format!(
                    "{}: ΔVth decreases along {axis} ({dv_a:.3e} → {dv_b:.3e})",
                    mechanism.name()
                ));
                break;
            }
            let mttf = |input: &AgingInput| {
                mechanism.failure_distribution(input).map_or(f64::INFINITY, |w| w.mttf_years())
            };
            let (m_a, m_b) = (mttf(a), mttf(b));
            if m_b > m_a * (1.0 + REL_TOL) {
                out.push(format!(
                    "{}: MTTF increases along {axis} ({m_a:.3e}y → {m_b:.3e}y)",
                    mechanism.name()
                ));
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs().max(1e-300)
    }

    /// The trap model and failure criterion of a BTI mechanism.
    fn trap_law(mech: &Mechanism) -> (&BtiModel, f64) {
        let Law::TrapKinetics { model, vth_crit } = &mech.law else {
            panic!("{} is not a trap-kinetics mechanism", mech.name())
        };
        (model, *vth_crit)
    }

    #[test]
    fn gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(3) = 2, Γ(1/2) = √π, Γ(1.5) = √π/2.
        assert!(approx(gamma(1.0), 1.0, 1e-12));
        assert!(approx(gamma(2.0), 1.0, 1e-12));
        assert!(approx(gamma(3.0), 2.0, 1e-12));
        assert!(approx(gamma(0.5), std::f64::consts::PI.sqrt(), 1e-12));
        assert!(approx(gamma(1.5), std::f64::consts::PI.sqrt() / 2.0, 1e-12));
        assert!(approx(gamma(5.0), 24.0, 1e-12));
    }

    #[test]
    fn weibull_roundtrips() {
        let w = Weibull::from_mttf(100.0, 2.0);
        assert!(approx(w.mttf_years(), 100.0, 1e-12));
        // R(η) = 1/e by definition of the scale.
        assert!(approx(w.reliability(w.scale_years), (-1.0f64).exp(), 1e-12));
        assert!(w.reliability(0.0) == 1.0);
        // quantile inverts the CDF: p = 1 − R(q(p)).
        for p in [0.01, 0.5, 0.99] {
            assert!(approx(1.0 - w.reliability(w.quantile(p)), p, 1e-9));
        }
        // Exponential special case: shape 1 → MTTF = scale.
        let e = Weibull::new(50.0, 1.0);
        assert!(approx(e.mttf_years(), 50.0, 1e-12));
    }

    #[test]
    fn bti_mechanism_matches_model() {
        let nbti = Mechanism::nbti();
        let input = AgingInput::worst(10.0);
        let via_law = nbti.degradation(&input);
        let direct = BtiModel::nbti().degradation(&Stress::years(10.0, DutyCycle::WORST));
        assert_eq!(via_law, direct);
    }

    #[test]
    fn bti_failure_time_inverts_the_power_law() {
        let nbti = Mechanism::nbti();
        let (model, vth_crit) = trap_law(&nbti);
        let input = AgingInput::worst(10.0);
        let mttf = nbti.failure_distribution(&input).expect("worst-case NBTI fails").mttf_years();
        // The crossing time must actually cross the criterion.
        assert!(model.delta_vth(&input.stress_at(mttf)) >= vth_crit * (1.0 - 1e-9));
        assert!(model.delta_vth(&input.stress_at(mttf * 0.99)) < vth_crit);
        // 10-year ΔVth ≈ 51 mV with crit 150 mV → failure is far out but
        // within the horizon (power-law exponents 1/6..0.2).
        assert!(mttf > 100.0 && mttf < FAILURE_HORIZON_YEARS, "NBTI MTTF = {mttf}");
    }

    /// Which way [`reference_failure_distribution`] left.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Exit {
        BeyondHorizon,
        CrossedAtStart,
        Bisected,
    }

    /// The BTI failure-time inversion before its time-independent factors
    /// were hoisted: Eq. (2) rebuilt from the model parameters, Arrhenius
    /// and field factors included, at every one of 80 bisection steps.
    fn reference_failure_distribution(
        mech: &Mechanism,
        input: &AgingInput,
    ) -> (Option<Weibull>, Exit) {
        let (m, vth_crit) = trap_law(mech);
        let delta_vth_at = |years: f64| {
            let stress = input.stress_at(years);
            let traps = |a: f64, duty_exp: f64, time_exp: f64, ea: f64, gamma: f64| {
                let lambda = stress.duty().value();
                let t = stress.time_seconds();
                if lambda == 0.0 || t == 0.0 {
                    return 0.0;
                }
                let af_t = arrhenius(ea, Stress::NOMINAL_TEMPERATURE_K, stress.temperature_k());
                let af_v = field(stress.vdd(), gamma);
                a * lambda.powf(duty_exp) * t.powf(time_exp) * af_t * af_v
            };
            crate::Q_ELECTRON / m.cox
                * (traps(m.a_it, m.duty_exp_it, m.time_exp_it, m.ea_it, m.gamma_it)
                    + traps(m.a_ot, m.duty_exp_ot, m.time_exp_ot, m.ea_ot, m.gamma_ot))
        };
        if input.duty <= 0.0 {
            return (None, Exit::BeyondHorizon);
        }
        let crit = vth_budget(vth_crit, input);
        if delta_vth_at(FAILURE_HORIZON_YEARS) < crit {
            return (None, Exit::BeyondHorizon);
        }
        let (mut lo, mut hi) = (1e-6f64.ln(), FAILURE_HORIZON_YEARS.ln());
        if delta_vth_at(lo.exp()) >= crit {
            return (Some(Weibull::from_mttf(lo.exp(), mech.weibull_shape)), Exit::CrossedAtStart);
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if delta_vth_at(mid.exp()) < crit {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (Some(Weibull::from_mttf(hi.exp(), mech.weibull_shape)), Exit::Bisected)
    }

    #[test]
    fn hoisted_bti_inversion_is_bit_identical_to_the_per_step_one() {
        let bits = |w: Option<Weibull>| w.map(|w| (w.scale_years.to_bits(), w.shape.to_bits()));
        let mut exits = Vec::new();
        for mech in [Mechanism::nbti(), Mechanism::pbti()] {
            let (_, vth_crit) = trap_law(&mech);
            for duty in [1e-3, 0.3, 1.0] {
                for temperature in [398.15, 428.15] {
                    for vdd in [1.1, 1.2, 1.3] {
                        for offset in [-0.06, 0.0, 0.03, 0.06, 0.2] {
                            let input = AgingInput::new(duty, 10.0, temperature, vdd, 1.0e9)
                                .with_vth0_offset(offset);
                            if offset == 0.2 {
                                assert_eq!(vth_budget(vth_crit, &input), 1e-3, "1 mV floor");
                            }
                            let (expected, exit) = reference_failure_distribution(&mech, &input);
                            exits.push(exit);
                            assert_eq!(
                                bits(mech.failure_distribution(&input)),
                                bits(expected),
                                "{} at {input:?}",
                                mech.name()
                            );
                        }
                    }
                }
            }
        }
        for exit in [Exit::BeyondHorizon, Exit::CrossedAtStart, Exit::Bisected] {
            assert!(exits.contains(&exit), "the grid never reaches {exit:?}");
        }
    }

    /// Every `Degradation` field and Weibull `(scale, shape)` of the five
    /// standard mechanisms over a fixed operating grid, folded bit for bit
    /// into one FNV-1a digest. A change to any mechanism's arithmetic, down
    /// to the operand order of one factor, changes the digest.
    #[test]
    fn standard_suite_results_are_pinned_bit_for_bit() {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bits: u64| {
            for byte in bits.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let suite = AgingSuite::standard();
        for duty in [0.0, 1e-3, 0.25, 0.5, 1.0] {
            for years in [0.0, 1.0, 10.0, 1e3] {
                for temperature in [348.15, 398.15, 428.15] {
                    for vdd in [1.0, 1.2, 1.3] {
                        for frequency in [0.5e9, 1.0e9, 2.0e9] {
                            for offset in [-0.06, 0.0, 0.03, 0.2, 10.0] {
                                let input =
                                    AgingInput::new(duty, years, temperature, vdd, frequency)
                                        .with_vth0_offset(offset);
                                for (_, mech) in suite.mechanisms() {
                                    let d = mech.degradation(&input);
                                    fold(d.delta_vth.to_bits());
                                    fold(d.mobility_factor.to_bits());
                                    fold(d.interface_traps.to_bits());
                                    fold(d.oxide_traps.to_bits());
                                    match mech.failure_distribution(&input) {
                                        Some(w) => {
                                            fold(w.scale_years.to_bits());
                                            fold(w.shape.to_bits());
                                        }
                                        None => fold(u64::MAX),
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(digest, 0x898f_3b2b_8231_6115, "digest {digest:#018x}");
    }

    #[test]
    fn unstressed_devices_never_fail() {
        let suite = AgingSuite::standard();
        let idle = AgingInput::new(0.0, 10.0, 398.15, 1.2, 1.0e9);
        for (_, mech) in suite.mechanisms() {
            assert!(mech.degradation(&idle).is_fresh() || mech.name() == "tddb");
        }
        assert!(suite.nbti.failure_distribution(&idle).is_none());
        assert!(suite.hci.failure_distribution(&idle).is_none());
        assert!(suite.em.failure_distribution(&idle).is_none());
        // TDDB stresses the oxide regardless of switching.
        assert!(suite.tddb.failure_distribution(&idle).is_some());
    }

    #[test]
    fn hci_calibration_ten_year_worst_case() {
        let d = Mechanism::hci().degradation(&AgingInput::worst(10.0));
        assert!(d.delta_vth > 0.010 && d.delta_vth < 0.020, "HCI ΔVth = {}", d.delta_vth);
        assert!(d.mobility_factor < 1.0 && d.mobility_factor > 0.99);
    }

    #[test]
    fn per_device_failure_times_support_a_decade_design_life() {
        // Per-device MTTFs must sit orders of magnitude above 10 years so
        // that thousands of devices in series still clear a decade.
        let worst = AgingInput::worst(10.0);
        for (_, mech) in AgingSuite::standard().mechanisms() {
            let mttf = mech.failure_distribution(&worst).expect("worst corner fails").mttf_years();
            assert!(mttf > 1.0e3, "{}: per-device MTTF {mttf} too small", mech.name());
        }
    }

    #[test]
    fn em_follows_blacks_equation() {
        let em = Mechanism::em();
        let Law::Black { mttf_nominal_years, .. } = em.law else { panic!("EM follows Black") };
        let nominal = em.failure_distribution(&AgingInput::worst(10.0)).unwrap().mttf_years();
        assert!(approx(nominal, mttf_nominal_years, 1e-9));
        // Halving activity quadruples the MTTF (J^−2).
        let half = AgingInput { duty: 0.5, ..AgingInput::worst(10.0) };
        let m_half = em.failure_distribution(&half).unwrap().mttf_years();
        assert!(approx(m_half, 4.0 * nominal, 1e-9), "{m_half} vs {nominal}");
    }

    #[test]
    fn environment_accelerates_every_mechanism() {
        let base = AgingInput::worst(10.0);
        let hot = AgingInput { temperature_k: 428.15, ..base };
        let over = AgingInput { vdd: 1.3, ..base };
        for (_, mech) in AgingSuite::standard().mechanisms() {
            let mttf = |input: &AgingInput| {
                mech.failure_distribution(input).map_or(f64::INFINITY, |w| w.mttf_years())
            };
            assert!(mttf(&hot) <= mttf(&base), "{} not thermally accelerated", mech.name());
            assert!(mttf(&over) <= mttf(&base), "{} not field accelerated", mech.name());
        }
    }

    #[test]
    fn standard_suite_passes_the_monotonicity_probe() {
        for (_, mech) in AgingSuite::standard().mechanisms() {
            let violations = monotonicity_violations(mech);
            assert!(violations.is_empty(), "{violations:?}");
        }
    }

    #[test]
    fn vth0_offset_consumes_the_failure_budget() {
        let nbti = Mechanism::nbti();
        let (model, vth_crit) = trap_law(&nbti);
        let base = AgingInput::worst(10.0);
        let slow = base.with_vth0_offset(0.05);
        let fast = base.with_vth0_offset(-0.05);
        let mttf = |m: &Mechanism, i: &AgingInput| {
            m.failure_distribution(i).map_or(f64::INFINITY, |w| w.mttf_years())
        };
        // A device born slow has less generated-ΔVth budget and fails
        // earlier; a fast one gains budget symmetrically.
        assert!(mttf(&nbti, &slow) < mttf(&nbti, &base));
        assert!(mttf(&nbti, &fast) > mttf(&nbti, &base));
        // The crossing honors the reduced budget exactly.
        let t = mttf(&nbti, &slow);
        assert!(model.delta_vth(&slow.stress_at(t)) >= (vth_crit - 0.05) * (1.0 - 1e-9));
        // HCI inverts its power law at the same reduced budget.
        let hci = Mechanism::hci();
        assert!(mttf(&hci, &slow) < mttf(&hci, &base));
        // EM and TDDB are not Vth-criterion mechanisms: the offset is a no-op.
        let em = Mechanism::em();
        let tddb = Mechanism::tddb();
        assert_eq!(em.failure_distribution(&base), em.failure_distribution(&slow));
        assert_eq!(tddb.failure_distribution(&base), tddb.failure_distribution(&slow));
        // Degradation trajectories are offset-independent (the offset moves
        // the criterion, not the physics).
        assert_eq!(nbti.degradation(&base), nbti.degradation(&slow));
        // Even a beyond-clamp offset keeps a positive budget (1 mV floor).
        let wild = base.with_vth0_offset(10.0);
        let m = mttf(&nbti, &wild);
        assert!(m.is_finite() && m > 0.0);
    }

    #[test]
    fn probe_rejects_a_non_monotone_configuration() {
        // A negative cycle exponent makes HCI *heal* with use — exactly the
        // misconfiguration the probe (and LT004) must reject.
        let mut broken = Mechanism::hci();
        let Law::CyclePowerLaw { cycle_exp, .. } = &mut broken.law else { panic!("HCI law") };
        *cycle_exp = -0.45;
        let violations = monotonicity_violations(&broken);
        assert!(!violations.is_empty());
        assert!(violations.iter().any(|v| v.contains("hci")));
    }
}
