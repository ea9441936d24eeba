use crate::{Degradation, Stress, Q_ELECTRON};

/// Boltzmann constant in eV/K (shared by every Arrhenius factor).
const K_BOLTZMANN_EV: f64 = 8.617_333_262e-5;

/// Arrhenius factor `exp(Ea/k · (1/t_ref − 1/t))` for `ea` in eV. Rates
/// pass the nominal temperature as `t_ref`, failure times pass it as `t`.
pub(crate) fn arrhenius(ea: f64, t_ref: f64, t: f64) -> f64 {
    (ea / K_BOLTZMANN_EV * (1.0 / t_ref - 1.0 / t)).exp()
}

/// Field factor `(vdd / Vnom)^exponent` against [`Stress::NOMINAL_VDD`].
pub(crate) fn field(vdd: f64, exponent: f64) -> f64 {
    (vdd / Stress::NOMINAL_VDD).powf(exponent)
}

/// A phenomenological physics-based BTI model for one device polarity.
///
/// The model produces generated interface-trap (`ΔN_IT`) and oxide-trap
/// (`ΔN_OT`) densities as power laws of stress time, scaled by the duty
/// cycle λ and by Arrhenius/field acceleration factors, and converts them to
/// electrical degradation via the paper's Eqs. (2) and (3):
///
/// ```text
/// ΔN_IT = a_it · λ^duty_exp_it · (t/1s)^time_exp_it · AF_T · AF_V
/// ΔN_OT = a_ot · λ^duty_exp_ot · (t/1s)^time_exp_ot · AF_T · AF_V
/// ΔVth  = q/Cox · (ΔN_IT + ΔN_OT)
/// μ/μ0  = 1 / (1 + α · ΔN_IT)
/// ```
///
/// Use [`BtiModel::nbti`] for pMOS and [`BtiModel::pbti`] for nMOS; NBTI is
/// calibrated roughly 2× more severe than PBTI, consistent with the
/// literature the paper builds on.
///
/// All trap densities are in cm⁻² and `cox` is the gate-oxide capacitance
/// per area in F/cm².
///
/// # Example
///
/// ```
/// use bti::{BtiModel, DutyCycle, Stress};
///
/// let nbti = BtiModel::nbti();
/// let pbti = BtiModel::pbti();
/// let s = Stress::years(10.0, DutyCycle::WORST);
/// // NBTI on pMOS is more severe than PBTI on nMOS.
/// assert!(nbti.degradation(&s).delta_vth > pbti.degradation(&s).delta_vth);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BtiModel {
    /// Interface-trap generation prefactor in cm⁻² (at t = 1 s, λ = 1).
    pub a_it: f64,
    /// Oxide-trap generation prefactor in cm⁻².
    pub a_ot: f64,
    /// Time exponent of interface-trap growth (reaction–diffusion ≈ 1/6).
    pub time_exp_it: f64,
    /// Time exponent of oxide-trap (hole trapping) growth.
    pub time_exp_ot: f64,
    /// Duty-cycle exponent for interface traps (sub-linear: recovery between
    /// stress phases is partial).
    pub duty_exp_it: f64,
    /// Duty-cycle exponent for oxide traps (≈ linear in stress share).
    pub duty_exp_ot: f64,
    /// Mobility-scattering coefficient α of Eq. (3), in cm².
    pub mobility_alpha: f64,
    /// Gate-oxide capacitance per area in F/cm² (45 nm high-k ≈ 3.1 µF/cm²).
    pub cox: f64,
    /// Activation energy (eV) for interface-trap generation.
    pub ea_it: f64,
    /// Activation energy (eV) for oxide-trap generation.
    pub ea_ot: f64,
    /// Field-acceleration exponent for interface traps, `(V/Vnom)^γ`.
    pub gamma_it: f64,
    /// Field-acceleration exponent for oxide traps.
    pub gamma_ot: f64,
}

impl BtiModel {
    /// NBTI model for pMOS transistors in a 45 nm high-k process.
    ///
    /// Calibration target: 10-year worst-case (λ = 1) stress at the nominal
    /// corner yields `ΔVth` ≈ 51 mV and μ/μ0 ≈ 0.96 (the mobility share is
    /// tuned so its guardband contribution matches the paper's Fig. 5(a)).
    #[must_use]
    pub fn nbti() -> Self {
        BtiModel {
            a_it: 2.7e10,
            a_ot: 6.0e9,
            time_exp_it: 1.0 / 6.0,
            time_exp_ot: 0.20,
            duty_exp_it: 1.0 / 3.0,
            duty_exp_ot: 1.0,
            mobility_alpha: 5.5e-14,
            cox: 3.139e-6,
            ea_it: 0.08,
            ea_ot: 0.15,
            gamma_it: 3.0,
            gamma_ot: 4.0,
        }
    }

    /// PBTI model for nMOS transistors, roughly half as severe as NBTI.
    #[must_use]
    pub fn pbti() -> Self {
        BtiModel { a_it: 1.35e10, a_ot: 3.0e9, ..Self::nbti() }
    }

    /// Generated interface-trap density `ΔN_IT` in cm⁻² under `stress`.
    #[must_use]
    pub fn interface_traps(&self, stress: &Stress) -> f64 {
        self.degradation(stress).interface_traps
    }

    /// Generated oxide-trap density `ΔN_OT` in cm⁻² under `stress`.
    #[must_use]
    pub fn oxide_traps(&self, stress: &Stress) -> f64 {
        self.degradation(stress).oxide_traps
    }

    /// Threshold-voltage shift `ΔVth` in volts under `stress` (Eq. 2).
    #[must_use]
    pub fn delta_vth(&self, stress: &Stress) -> f64 {
        self.degradation(stress).delta_vth
    }

    /// Mobility factor μ/μ0 under `stress` (Eq. 3).
    #[must_use]
    pub fn mobility_factor(&self, stress: &Stress) -> f64 {
        self.degradation(stress).mobility_factor
    }

    /// Full electrical degradation of a device under `stress`.
    #[must_use]
    pub fn degradation(&self, stress: &Stress) -> Degradation {
        self.kinetics(stress).degradation(stress.time_seconds())
    }

    /// The time-independent part of the model at `stress`'s duty cycle,
    /// temperature and supply (its stress time is ignored).
    pub(crate) fn kinetics(&self, stress: &Stress) -> TrapKinetics {
        let term = |a: f64, duty_exp: f64, time_exp: f64, ea: f64, gamma: f64| TrapTerm {
            duty_scaled: a * stress.duty().value().powf(duty_exp),
            time_exp,
            arrhenius: arrhenius(ea, Stress::NOMINAL_TEMPERATURE_K, stress.temperature_k()),
            field: field(stress.vdd(), gamma),
        };
        TrapKinetics {
            it: term(self.a_it, self.duty_exp_it, self.time_exp_it, self.ea_it, self.gamma_it),
            ot: term(self.a_ot, self.duty_exp_ot, self.time_exp_ot, self.ea_ot, self.gamma_ot),
            stressed: stress.duty().value() != 0.0,
            q_over_cox: Q_ELECTRON / self.cox,
            mobility_alpha: self.mobility_alpha,
        }
    }
}

/// One trap power law with its duty, Arrhenius and field factors already
/// evaluated.
#[derive(Debug)]
struct TrapTerm {
    /// `a · λ^duty_exp`.
    duty_scaled: f64,
    time_exp: f64,
    arrhenius: f64,
    field: f64,
}

impl TrapTerm {
    /// `a · λ^duty_exp · t^time_exp · AF_T · AF_V`, multiplied left to
    /// right exactly as the unhoisted formula was, so hoisting the
    /// time-independent factors does not change a single bit.
    fn at(&self, t_seconds: f64) -> f64 {
        self.duty_scaled * t_seconds.powf(self.time_exp) * self.arrhenius * self.field
    }
}

/// The model's Eqs. (2) and (3) at one duty cycle, temperature and supply,
/// as a function of stress time only.
///
/// Every time-independent factor is evaluated once, so inverting `ΔVth(t)`
/// (the BTI failure-time bisection) costs one `powf` per trap term per
/// step. [`BtiModel`]'s public accessors go through the same kernel, which
/// keeps the equations written once.
#[derive(Debug)]
pub(crate) struct TrapKinetics {
    it: TrapTerm,
    ot: TrapTerm,
    /// λ > 0: an unstressed device generates no traps at any time.
    stressed: bool,
    q_over_cox: f64,
    mobility_alpha: f64,
}

impl TrapKinetics {
    /// The degradation after `t_seconds` of stress.
    pub(crate) fn degradation(&self, t_seconds: f64) -> Degradation {
        let (interface_traps, oxide_traps) = if self.stressed && t_seconds != 0.0 {
            (self.it.at(t_seconds), self.ot.at(t_seconds))
        } else {
            (0.0, 0.0)
        };
        Degradation {
            delta_vth: self.q_over_cox * (interface_traps + oxide_traps),
            mobility_factor: 1.0 / (1.0 + self.mobility_alpha * interface_traps),
            interface_traps,
            oxide_traps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DutyCycle;

    fn worst(years: f64) -> Stress {
        Stress::years(years, DutyCycle::WORST)
    }

    #[test]
    fn calibration_ten_year_worst_case_nbti() {
        let d = BtiModel::nbti().degradation(&worst(10.0));
        assert!(d.delta_vth > 0.045 && d.delta_vth < 0.060, "ΔVth = {}", d.delta_vth);
        assert!(
            d.mobility_factor > 0.94 && d.mobility_factor < 0.98,
            "μ/μ0 = {}",
            d.mobility_factor
        );
    }

    #[test]
    fn pbti_weaker_than_nbti() {
        let s = worst(10.0);
        let n = BtiModel::nbti().degradation(&s);
        let p = BtiModel::pbti().degradation(&s);
        assert!(p.delta_vth < n.delta_vth);
        assert!(p.mobility_factor > n.mobility_factor);
        // Roughly half as severe.
        assert!((p.delta_vth / n.delta_vth - 0.5).abs() < 0.05);
    }

    #[test]
    fn no_stress_no_aging() {
        let m = BtiModel::nbti();
        let s = Stress::years(10.0, DutyCycle::FRESH);
        assert!(m.degradation(&s).is_fresh());
        let s0 = Stress::new(0.0, DutyCycle::WORST);
        assert!(m.degradation(&s0).is_fresh());
    }

    #[test]
    fn monotone_in_time_and_duty() {
        let m = BtiModel::nbti();
        let mut prev = 0.0;
        for years in [0.5, 1.0, 3.0, 10.0, 20.0] {
            let v = m.delta_vth(&worst(years));
            assert!(v > prev, "ΔVth must grow with time");
            prev = v;
        }
        let mut prev = 0.0;
        for lambda in [0.1, 0.3, 0.5, 0.8, 1.0] {
            let v = m.delta_vth(&Stress::years(10.0, DutyCycle::saturating(lambda)));
            assert!(v > prev, "ΔVth must grow with duty cycle");
            prev = v;
        }
    }

    #[test]
    fn temperature_and_voltage_accelerate() {
        let m = BtiModel::nbti();
        let base = m.delta_vth(&worst(1.0));
        let hot = m.delta_vth(&worst(1.0).with_temperature(423.15));
        let cold = m.delta_vth(&worst(1.0).with_temperature(348.15));
        assert!(hot > base && cold < base);
        let over = m.delta_vth(&worst(1.0).with_vdd(1.3));
        let under = m.delta_vth(&worst(1.0).with_vdd(1.0));
        assert!(over > base && under < base);
    }

    #[test]
    fn nominal_corner_has_unity_acceleration() {
        let m = BtiModel::nbti();
        let s = worst(1.0);
        let explicit = worst(1.0)
            .with_temperature(Stress::NOMINAL_TEMPERATURE_K)
            .with_vdd(Stress::NOMINAL_VDD);
        assert_eq!(m.delta_vth(&s), m.delta_vth(&explicit));
    }

    #[test]
    fn sublinear_time_kinetics() {
        // Doubling the time must much-less-than-double the degradation
        // (power-law exponent ≈ 1/6 .. 0.2).
        let m = BtiModel::nbti();
        let v1 = m.delta_vth(&worst(1.0));
        let v2 = m.delta_vth(&worst(2.0));
        assert!(v2 / v1 < 1.25 && v2 / v1 > 1.05);
    }

    #[test]
    fn one_year_worst_case_substantial_share_of_ten_year() {
        // The paper's Fig. 7 shows dramatic failures already after 1 year;
        // power-law kinetics mean year 1 carries most of the degradation.
        let m = BtiModel::nbti();
        let ratio = m.delta_vth(&worst(1.0)) / m.delta_vth(&worst(10.0));
        assert!(ratio > 0.6, "1y/10y ratio = {ratio}");
    }
}
