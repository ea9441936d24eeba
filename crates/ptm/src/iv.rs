//! Alpha-power-law I–V evaluation (Sakurai–Newton) for [`MosModel`].

use crate::card::MosModel;

/// A device's terminal voltages mapped into the magnitude domain of the
/// I–V equations — the bias part of
/// [`MosModel::drain_current_and_conductance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bias {
    /// `Vgs_eff − Vth`, the only input of [`MosModel::overdrive`].
    pub x: f64,
    /// `Vds_eff ≥ 0` after the symmetric drain/source swap.
    vds: f64,
    /// Polarity sign times swap direction: maps the magnitude-domain
    /// current back to the current into the drain terminal.
    orientation: f64,
}

/// The transcendental terms of one overdrive `x = Vgs_eff − Vth`:
/// `Vgt = softplus(x)`, `Vgt^α` and `Vgt^(α/2)`.
///
/// A pure function of `x` for a given card, so a caller may cache it keyed
/// on `x`'s bits without changing any result. The powers are 0 when
/// `Vgt ≤ 0` (the device is off and they are never read).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overdrive {
    vgt: f64,
    vgt_alpha: f64,
    vgt_half_alpha: f64,
}

impl MosModel {
    /// Drain current of a device with the given terminal voltages and aspect
    /// ratio `w_over_l`, in amperes.
    ///
    /// The returned current is *signed into the drain terminal*: positive
    /// current flows drain → source. For an nMOS with `vd > vs` and the gate
    /// high the result is positive; for a pMOS pulling its drain up
    /// (`vd < vs = Vdd`, gate low) the result is negative (current flows
    /// source → drain, i.e. out of the drain node into the net).
    ///
    /// The device is treated symmetrically: if the bias reverses
    /// (`vds_eff < 0`), drain and source swap roles, as in a real MOSFET.
    ///
    /// The model is the Sakurai–Newton alpha-power law with channel-length
    /// modulation and a softplus smoothing of the overdrive, so the current
    /// is continuous (and cheap) for the transient integrator:
    ///
    /// ```text
    /// Vgt    = softplus(Vgs_eff − Vth)
    /// Vdsat  = kv · Vgt^(α/2)
    /// Isat   = kp · W/L · Vgt^α · (1 + λ·Vds_eff)
    /// Id     = Isat                               if Vds_eff ≥ Vdsat
    ///        = Isat · (2 − Vds/Vdsat)·(Vds/Vdsat) otherwise
    /// ```
    #[must_use]
    pub fn drain_current(&self, vg: f64, vd: f64, vs: f64, w_over_l: f64) -> f64 {
        self.drain_current_and_conductance(vg, vd, vs, w_over_l).0
    }

    /// Small-signal output conductance estimate |dId/dVd| at the given bias,
    /// used by the transient integrator for step-size control. Computed by a
    /// symmetric finite difference.
    #[must_use]
    pub fn conductance_estimate(&self, vg: f64, vd: f64, vs: f64, w_over_l: f64) -> f64 {
        let h = 1e-3;
        let a = self.drain_current(vg, vd + h, vs, w_over_l);
        let b = self.drain_current(vg, vd - h, vs, w_over_l);
        ((a - b) / (2.0 * h)).abs()
    }

    /// Drain current **and** analytic channel conductance |∂Id/∂Vds| in one
    /// evaluation — the hot path of the transient integrator's
    /// exponential-Euler update. It is [`MosModel::bias`], then
    /// [`MosModel::overdrive`], then [`MosModel::channel_current`].
    #[must_use]
    pub fn drain_current_and_conductance(
        &self,
        vg: f64,
        vd: f64,
        vs: f64,
        w_over_l: f64,
    ) -> (f64, f64) {
        let bias = self.bias(vg, vd, vs);
        self.channel_current(bias, self.overdrive(bias.x), self.kp * w_over_l)
    }

    /// Maps terminal voltages into the magnitude domain: the more negative
    /// terminal (for nMOS; positive for pMOS) acts as source.
    #[must_use]
    pub fn bias(&self, vg: f64, vd: f64, vs: f64) -> Bias {
        let sign = self.polarity.sign();
        let (mut vd_m, mut vs_m) = (sign * vd, sign * vs);
        let vg_m = sign * vg;
        let mut direction = 1.0;
        if vd_m < vs_m {
            std::mem::swap(&mut vd_m, &mut vs_m);
            direction = -1.0;
        }
        let vgs = vg_m - vs_m;
        Bias { x: vgs - self.vth, vds: vd_m - vs_m, orientation: sign * direction }
    }

    /// The overdrive terms at `x = Vgs_eff − Vth` — every transcendental
    /// call of the I–V evaluation.
    #[must_use]
    pub fn overdrive(&self, x: f64) -> Overdrive {
        let vgt = softplus(x, self.v_smooth);
        if vgt <= 0.0 {
            return Overdrive { vgt, vgt_alpha: 0.0, vgt_half_alpha: 0.0 };
        }
        Overdrive {
            vgt,
            vgt_alpha: vgt.powf(self.alpha),
            vgt_half_alpha: vgt.powf(self.alpha * 0.5),
        }
    }

    /// Drain current and channel conductance from a [`Bias`] and its
    /// [`Overdrive`]. `kp_w_over_l` is `self.kp * w_over_l`, which a caller
    /// evaluating one device repeatedly can compute once.
    #[must_use]
    pub fn channel_current(&self, bias: Bias, od: Overdrive, kp_w_over_l: f64) -> (f64, f64) {
        if od.vgt <= 0.0 {
            return (0.0, 0.0);
        }
        let vds = bias.vds;
        let base = kp_w_over_l * od.vgt_alpha;
        let isat = base * (1.0 + self.channel_lambda * vds);
        let vdsat = self.kv * od.vgt_half_alpha;
        let (id, g) = if vds >= vdsat || vdsat <= 0.0 {
            (isat, base * self.channel_lambda)
        } else {
            let x = vds / vdsat;
            // d/dVds [ isat(Vds)·(2−x)x ] ≈ isat·(2−2x)/vdsat + λ-term.
            let id = isat * (2.0 - x) * x;
            let g = isat * (2.0 - 2.0 * x) / vdsat + base * self.channel_lambda * (2.0 - x) * x;
            (id, g)
        };
        (bias.orientation * id, g.abs())
    }
}

/// Softplus with scale `s`: smooth approximation of `max(x, 0)` that decays
/// to ~0 a few `s` below zero; exactly `x` for `x ≫ s`.
fn softplus(x: f64, s: f64) -> f64 {
    if x > 8.0 * s {
        x
    } else if x < -12.0 * s {
        0.0
    } else {
        s * (x / s).exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card::MosPolarity;
    use crate::VDD_NOMINAL;

    const WL: f64 = 10.0;

    #[test]
    fn nmos_on_current_calibration() {
        let m = MosModel::nmos_45nm();
        let id = m.drain_current(VDD_NOMINAL, VDD_NOMINAL, 0.0, WL);
        assert!(id > 3.5e-4 && id < 7.5e-4, "Ion = {id}");
    }

    #[test]
    fn pmos_weaker_per_width() {
        let n = MosModel::nmos_45nm().drain_current(1.2, 1.2, 0.0, WL);
        // pMOS pulling up: source at Vdd, gate at 0, drain at 0.
        let p = MosModel::pmos_45nm().drain_current(0.0, 0.0, 1.2, WL);
        assert!(p < 0.0, "pull-up current flows out of the drain");
        assert!(p.abs() < n && p.abs() > 0.25 * n);
    }

    #[test]
    fn off_device_conducts_nothing() {
        let m = MosModel::nmos_45nm();
        assert_eq!(m.drain_current(0.0, 1.2, 0.0, WL), 0.0);
        let p = MosModel::pmos_45nm();
        assert_eq!(p.drain_current(1.2, 0.0, 1.2, WL), 0.0);
    }

    #[test]
    fn zero_vds_zero_current() {
        let m = MosModel::nmos_45nm();
        assert_eq!(m.drain_current(1.2, 0.6, 0.6, WL), 0.0);
    }

    #[test]
    fn current_monotone_in_vgs() {
        let m = MosModel::nmos_45nm();
        let mut prev = -1.0;
        for step in 0..=12 {
            let vg = f64::from(step) * 0.1;
            let id = m.drain_current(vg, 1.2, 0.0, WL);
            assert!(id >= prev, "Id must be monotone in Vgs");
            prev = id;
        }
    }

    #[test]
    fn current_monotone_in_vds() {
        let m = MosModel::nmos_45nm();
        let mut prev = -1.0;
        for step in 0..=12 {
            let vd = f64::from(step) * 0.1;
            let id = m.drain_current(1.2, vd, 0.0, WL);
            assert!(id >= prev, "Id must be monotone in Vds (λ_ch > 0)");
            prev = id;
        }
    }

    #[test]
    fn linear_region_below_saturation() {
        let m = MosModel::nmos_45nm();
        let shallow = m.drain_current(1.2, 0.05, 0.0, WL);
        let deep = m.drain_current(1.2, 1.2, 0.0, WL);
        assert!(shallow < 0.4 * deep, "small Vds must be in the resistive region");
    }

    #[test]
    fn symmetric_reverse_conduction() {
        // Swapping drain and source negates the current.
        let m = MosModel::nmos_45nm();
        let fwd = m.drain_current(1.2, 0.8, 0.2, WL);
        let rev = m.drain_current(1.2, 0.2, 0.8, WL);
        assert!((fwd + rev).abs() < 1e-12);
    }

    #[test]
    fn aging_reduces_drive_current() {
        use bti::AgingScenario;
        let fresh = MosModel::pmos_45nm();
        let worst = AgingScenario::worst_case(10.0).degradations().pmos;
        let aged = fresh.degraded(&worst);
        let i_f = fresh.drain_current(0.0, 0.0, 1.2, WL).abs();
        let i_a = aged.drain_current(0.0, 0.0, 1.2, WL).abs();
        assert!(i_a < i_f);
        // 45nm worst-case 10-year BTI costs roughly 10–30 % of drive.
        let loss = 1.0 - i_a / i_f;
        assert!(loss > 0.08 && loss < 0.35, "drive loss = {loss}");
    }

    #[test]
    fn vth_only_underestimates_current_loss() {
        // Ignoring Δμ (state of the art) recovers part of the current —
        // the device-level root of the paper's Fig. 5(a).
        use bti::AgingScenario;
        let fresh = MosModel::pmos_45nm();
        let d = AgingScenario::worst_case(10.0).degradations().pmos;
        let full = fresh.degraded(&d).drain_current(0.0, 0.0, 1.2, WL).abs();
        let vth_only = fresh.degraded(&d.vth_only()).drain_current(0.0, 0.0, 1.2, WL).abs();
        assert!(vth_only > full);
    }

    #[test]
    fn conductance_positive_when_on() {
        let m = MosModel::nmos_45nm();
        assert!(m.conductance_estimate(1.2, 0.3, 0.0, WL) > 0.0);
        assert_eq!(m.conductance_estimate(0.0, 0.3, 0.0, WL), 0.0);
    }

    #[test]
    fn softplus_limits() {
        assert_eq!(softplus(1.0, 0.03), 1.0);
        assert_eq!(softplus(-1.0, 0.03), 0.0);
        let mid = softplus(0.0, 0.03);
        assert!(mid > 0.0 && mid < 0.03);
    }

    #[test]
    fn polarity_mapping_consistency() {
        // A pMOS with all voltages mirrored behaves like the nMOS equations.
        let p = MosModel { polarity: MosPolarity::Pmos, ..MosModel::nmos_45nm() };
        let n = MosModel::nmos_45nm();
        let i_n = n.drain_current(1.0, 0.7, 0.0, WL);
        let i_p = p.drain_current(-1.0, -0.7, 0.0, WL);
        assert!((i_n + i_p).abs() < 1e-15);
    }
}
