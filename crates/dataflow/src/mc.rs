//! Monte-Carlo composition of process variation into MTTF *distributions*.
//!
//! The static engine ([`crate::static_lifetime_bound`]) answers "what is
//! the worst the design can do" with one number. This module answers "what
//! does the population of manufactured dies look like": each sample is one
//! die whose instances carry sampled fresh-Vth offsets, every instance's
//! worst-corner Weibulls are re-derived with its offset, and the
//! series-system machinery of the static engine composes them into that
//! die's design-MTTF. Over N samples this yields an empirical
//! [`McDistribution`] — quantiles, spread and a variation-aware guardband
//! reference.
//!
//! # Determinism and containment
//!
//! Sampling is counter-based ([`bti::rng`]): die `s` draws its per-instance
//! offsets from stream `draw(seed, s)` at counter = instance index, so any
//! sample is a pure function of `(seed, s)` — evaluable in any order, on
//! any worker count, bit-identically. Offsets are clamped at
//! `±clamp_sigmas·sigma_vth`; by the mechanism monotonicity contract every
//! sampled die's MTTF therefore sits at or above the *variation-aware*
//! static bound ([`McDistribution::static_bound_years`], the clamp-boundary
//! re-evaluation), which is asserted by the `reliaware` test-suite across
//! all benchmarks. Zero-variance sampling reproduces the deterministic
//! path bit-for-bit: every sample equals
//! [`LifetimeReport::design_mttf_lo_years`].

use crate::lifetime::{pool_and_fold, stress_interval};
use crate::{InstanceLifetime, LifetimeReport};
use bti::Weibull;
use std::collections::BTreeMap;

/// Configuration of a Monte-Carlo lifetime run at the composition level:
/// how many dies to sample and how instance offsets spread.
#[derive(Debug, Clone, PartialEq)]
pub struct McSampling {
    /// Number of sampled dies.
    pub samples: usize,
    /// Base seed of the sampling streams (die `s` uses stream
    /// `bti::rng::draw(seed, s)`).
    pub seed: u64,
    /// 1σ of the per-instance fresh-Vth offset in volts (0 = the
    /// deterministic path).
    pub sigma_vth: f64,
    /// Offsets are clamped to `±clamp_sigmas` standard deviations.
    pub clamp_sigmas: f64,
}

impl McSampling {
    /// A sampling plan with the given size and seed at a 15 mV / 4σ-clamp
    /// spread (matching `ptm`'s nominal 45 nm variation model).
    #[must_use]
    pub fn nominal_45nm(samples: usize, seed: u64) -> Self {
        McSampling { samples, seed, sigma_vth: 0.015, clamp_sigmas: 4.0 }
    }

    /// The zero-variance plan: every sample is the nominal die.
    #[must_use]
    pub fn zero_variance(samples: usize, seed: u64) -> Self {
        McSampling { samples, seed, sigma_vth: 0.0, clamp_sigmas: 4.0 }
    }

    /// True when sampling can only produce the nominal die.
    #[must_use]
    pub fn is_zero_variance(&self) -> bool {
        self.sigma_vth == 0.0
    }

    /// The largest offset any instance can realize (clamp boundary).
    #[must_use]
    pub fn max_vth_offset(&self) -> f64 {
        self.sigma_vth * self.clamp_sigmas
    }

    /// Validates the plan, returning a description of every problem
    /// (empty = sound).
    #[must_use]
    pub fn validation_errors(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.samples == 0 {
            out.push("sample count must be at least 1".to_owned());
        }
        if !(self.sigma_vth.is_finite() && self.sigma_vth >= 0.0) {
            out.push(format!("sigma_vth {} must be finite and non-negative", self.sigma_vth));
        }
        if !(self.clamp_sigmas.is_finite() && self.clamp_sigmas > 0.0) {
            out.push(format!("clamp_sigmas {} must be positive and finite", self.clamp_sigmas));
        }
        out
    }

    /// The sampled fresh-Vth offset of instance `index` on die `sample`.
    /// Pure in its arguments; zero-variance plans return exactly 0.
    #[must_use]
    pub fn instance_offset(&self, sample: usize, index: usize) -> f64 {
        if self.is_zero_variance() {
            return 0.0;
        }
        let stream = bti::rng::draw(self.seed, sample as u64);
        let c = self.clamp_sigmas;
        self.sigma_vth * bti::rng::normal_at(stream, index as u64).clamp(-c, c)
    }
}

/// The per-mechanism worst-corner Weibulls of one instance on a die whose
/// fresh Vth is offset by `vth0_offset`, each tagged with its suite slot
/// (mechanisms that cannot fail at the worst corner are left out). Rebuilt
/// exactly like the static engine's corner evaluation, so a zero offset
/// reproduces the report's pooled components bit-for-bit.
pub(crate) fn instance_components(
    report: &LifetimeReport,
    inst: &InstanceLifetime,
    vth0_offset: f64,
) -> Vec<(usize, Weibull)> {
    let config = &report.config;
    config
        .suite
        .mechanisms()
        .iter()
        .enumerate()
        .filter_map(|(slot, (source, mech))| {
            let (_, stress_hi) = stress_interval(*source, inst.lambda, inst.activity_hi);
            let worst_input = config.worst_input(stress_hi, config.years, vth0_offset);
            Some((slot, mech.failure_distribution(&worst_input)?))
        })
        .collect()
}

/// The design-MTTF of one sampled die: per-instance offsets drawn from
/// `sampling`, worst-corner Weibulls re-derived per instance, composed
/// with the same pooled series integration as the static engine.
///
/// A pure function of `(report, sampling, sample)` — the unit the flow's
/// Monte-Carlo driver fans across its worker pool.
#[must_use]
pub fn sample_design_mttf(report: &LifetimeReport, sampling: &McSampling, sample: usize) -> f64 {
    let components = report.instances.iter().enumerate().flat_map(|(index, inst)| {
        instance_components(report, inst, sampling.instance_offset(sample, index))
    });
    pool_and_fold(report.config.suite.mechanisms().len(), components).1.mttf_lower_bound()
}

/// The variation-aware static lower bound: every instance evaluated at the
/// clamp-boundary offset `+clamp_sigmas·sigma_vth`. By mechanism
/// monotonicity this bounds every die the clamped sampler can realize —
/// [`mc_design_mttf`] validates its samples against it.
#[must_use]
pub fn clamp_boundary_bound(report: &LifetimeReport, sampling: &McSampling) -> f64 {
    // One offset for every instance: its Weibulls depend only on its worst
    // (λp, λn, activity) corner, which instances share heavily.
    let offset = sampling.max_vth_offset();
    let mut corners: BTreeMap<[u64; 3], Vec<(usize, Weibull)>> = BTreeMap::new();
    let mut components = Vec::new();
    for inst in &report.instances {
        let corner =
            [inst.lambda.pmos.hi(), inst.lambda.nmos.hi(), inst.activity_hi].map(f64::to_bits);
        let weibulls =
            corners.entry(corner).or_insert_with(|| instance_components(report, inst, offset));
        components.extend_from_slice(weibulls);
    }
    pool_and_fold(report.config.suite.mechanisms().len(), components).1.mttf_lower_bound()
}

/// An empirical design-MTTF distribution over sampled dies.
#[derive(Debug, Clone, PartialEq)]
pub struct McDistribution {
    /// Per-sample design MTTF in years, in sample order (`samples[s]` is
    /// die `s`; infinite when that die cannot fail).
    pub samples: Vec<f64>,
    /// The sampling plan that produced it.
    pub sampling: McSampling,
    /// The nominal-die static bound ([`LifetimeReport::design_mttf_lo_years`])
    /// the distribution is measured against.
    pub nominal_years: f64,
    /// The variation-aware static bound at the sampling clamp boundary —
    /// provably below every sample.
    pub static_bound_years: f64,
}

impl McDistribution {
    /// Smallest sampled design MTTF (infinite when there are no samples).
    #[must_use]
    pub fn min_years(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sampled design MTTF.
    #[must_use]
    pub fn max_years(&self) -> f64 {
        self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean sampled design MTTF.
    #[must_use]
    pub fn mean_years(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Empirical `p`-quantile (nearest-rank on the sorted samples).
    ///
    /// # Panics
    ///
    /// Panics when the distribution holds no samples or `p` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn quantile_years(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile probability must be in [0, 1]");
        assert!(!self.samples.is_empty(), "no samples to take a quantile of");
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p * sorted.len() as f64).ceil() as usize).max(1) - 1;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Median sampled design MTTF.
    #[must_use]
    pub fn median_years(&self) -> f64 {
        self.quantile_years(0.5)
    }

    /// True when every sample respects the variation-aware static bound —
    /// the soundness invariant of the whole Monte-Carlo layer.
    #[must_use]
    pub fn contains_static_bound(&self) -> bool {
        self.min_years() >= self.static_bound_years * (1.0 - 1e-12)
    }

    /// The variation-aware guardband factor: how much of the nominal-die
    /// MTTF the p5 die keeps (1 = no variation erosion). Infinite nominal
    /// bounds (nothing can fail) report 1.
    #[must_use]
    pub fn p5_retention(&self) -> f64 {
        let p5 = self.quantile_years(0.05);
        if self.nominal_years.is_infinite() {
            1.0
        } else {
            p5 / self.nominal_years
        }
    }
}

/// Runs the full Monte-Carlo composition serially: every die of
/// `sampling`, plus the nominal and clamp-boundary references.
///
/// The flow crate's `mc_lifetime` fans [`sample_design_mttf`] across its
/// worker pool instead, then assembles the identical structure — both
/// paths are bit-identical because every sample is pure in `(seed, s)`.
///
/// # Panics
///
/// Panics if `sampling` fails [`McSampling::validation_errors`].
#[must_use]
pub fn mc_design_mttf(report: &LifetimeReport, sampling: &McSampling) -> McDistribution {
    let problems = sampling.validation_errors();
    assert!(problems.is_empty(), "invalid MC sampling plan: {problems:?}");
    let samples: Vec<f64> =
        (0..sampling.samples).map(|s| sample_design_mttf(report, sampling, s)).collect();
    McDistribution {
        samples,
        sampling: sampling.clone(),
        nominal_years: report.design_mttf_lo_years,
        static_bound_years: clamp_boundary_bound(report, sampling),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{static_lifetime_bound, DataflowConfig, LifetimeConfig};
    use liberty::{Cell, Library};
    use netlist::{Netlist, PortDir};

    fn lib() -> Library {
        let mut lib = Library::new("lib", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1"));
        lib
    }

    fn inv_chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_port("a", PortDir::Input);
        for k in 0..n {
            let next = if k + 1 == n {
                nl.add_port("y", PortDir::Output)
            } else {
                nl.add_net(&format!("n{k}"))
            };
            nl.add_instance(&format!("u{k}"), "INV_X1", &[("A", prev), ("Y", next)]);
            prev = next;
        }
        nl
    }

    fn report() -> LifetimeReport {
        static_lifetime_bound(
            &inv_chain(6),
            &lib(),
            &LifetimeConfig::default(),
            &DataflowConfig::default(),
        )
    }

    #[test]
    fn zero_variance_samples_reproduce_the_deterministic_bound() {
        let report = report();
        let dist = mc_design_mttf(&report, &McSampling::zero_variance(8, 42));
        for s in &dist.samples {
            assert_eq!(
                s.to_bits(),
                report.design_mttf_lo_years.to_bits(),
                "zero-variance MC must be bit-identical to the static path"
            );
        }
        assert_eq!(dist.static_bound_years.to_bits(), report.design_mttf_lo_years.to_bits());
        assert!(dist.contains_static_bound());
    }

    #[test]
    fn samples_are_pure_in_seed_and_index() {
        let report = report();
        let sampling = McSampling::nominal_45nm(6, 0x5eed);
        let forward: Vec<f64> = (0..6).map(|s| sample_design_mttf(&report, &sampling, s)).collect();
        let backward: Vec<f64> =
            (0..6).rev().map(|s| sample_design_mttf(&report, &sampling, s)).collect();
        for (s, v) in forward.iter().enumerate() {
            assert_eq!(v.to_bits(), backward[5 - s].to_bits());
        }
        // Distinct dies really differ.
        assert!(forward.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn sampled_dies_stay_above_the_clamp_boundary_bound() {
        let report = report();
        let dist = mc_design_mttf(&report, &McSampling::nominal_45nm(32, 7));
        assert!(dist.contains_static_bound(), "a sample fell below the variation-aware bound");
        assert!(dist.static_bound_years < report.design_mttf_lo_years);
        // Order statistics are ordered and the spread is real.
        assert!(dist.min_years() <= dist.quantile_years(0.05));
        assert!(dist.quantile_years(0.05) <= dist.median_years());
        assert!(dist.median_years() <= dist.quantile_years(0.95));
        assert!(dist.quantile_years(0.95) <= dist.max_years());
        assert!(dist.min_years() < dist.max_years());
        assert!(dist.p5_retention() > 0.0 && dist.p5_retention() <= 1.0 + 1e-12);
    }

    #[test]
    fn sampling_validation_rejects_broken_plans() {
        assert!(McSampling::nominal_45nm(16, 1).validation_errors().is_empty());
        let bad = McSampling { samples: 0, seed: 0, sigma_vth: -1.0, clamp_sigmas: f64::NAN };
        assert_eq!(bad.validation_errors().len(), 3);
    }
}
