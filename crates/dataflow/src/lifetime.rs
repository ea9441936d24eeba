//! Static lifetime bounds: mechanism-generic degradation intervals and a
//! provable any-workload MTTF lower bound.
//!
//! This is the lifetime analogue of [`crate::static_guardband_bound`]. The
//! λ-interval engine brackets every instance's stress — pMOS/nMOS duty
//! cycles from the signal-probability lattice, switching activity from the
//! output-net interval via `P(toggle) ≤ 2·min(p, 1−p)` — and every
//! [`bti::Mechanism`] is evaluated at the *endpoints* of those intervals
//! plus the configured temperature/Vdd ranges.
//!
//! # Soundness argument
//!
//! Each mechanism is monotone in every input (degradation non-decreasing,
//! failure time non-increasing — a property of each law's parameters,
//! numerically probed by [`bti::monotonicity_violations`] and lint rule
//! `LT004`). Therefore:
//!
//! 1. evaluating at the interval **high** endpoints yields a degradation
//!    upper bound and a stochastically *smallest* failure distribution —
//!    valid for every workload and environment inside the intervals;
//! 2. the design is a **series system** (first instance failure is design
//!    failure, the standard conservative composition), so
//!    `R_design(t) ≥ Π R_i(t)` evaluated with those worst-corner Weibulls
//!    lower-bounds design reliability for any workload;
//! 3. `MTTF = ∫₀^∞ R(t) dt` is under-approximated by a **right-endpoint
//!    Riemann sum** on a fixed log grid (R is non-increasing), truncated at
//!    both ends — every approximation step only ever *lowers* the result.
//!
//! The chain gives [`LifetimeReport::design_mttf_lo_years`]: a provable
//! MTTF lower bound over every workload whose primary-input probabilities
//! satisfy the analysis boundary, and every environment inside the
//! configured temperature/Vdd ranges.

use crate::engine::{DataflowConfig, NetlistDataflow};
use crate::interval::Interval;
use crate::lambda::{Extraction, LambdaBounds};
use bti::{AgingInput, AgingSuite, StressSource, Weibull};
use liberty::Library;
use netlist::{InstId, Netlist};
use std::collections::BTreeMap;

/// Lower end of the MTTF integration grid in years.
const T_MIN_YEARS: f64 = 1.0e-6;
/// Upper end of the MTTF integration grid in years (beyond the mechanism
/// failure horizon, so no finite Weibull mass is truncated unaccounted).
const T_MAX_YEARS: f64 = 1.0e7;
/// Log-grid resolution of the MTTF integration.
const T_GRID_POINTS: usize = 1600;

/// Configuration of the static lifetime analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeConfig {
    /// The mechanism suite to evaluate.
    pub suite: AgingSuite,
    /// Design lifetime horizon in years (dominance shares, guardband
    /// budget and hotspot checks are evaluated at this age).
    pub years: f64,
    /// Junction-temperature interval `(lo, hi)` in kelvin the bound must
    /// cover.
    pub temperature_range: (f64, f64),
    /// Supply-voltage interval `(lo, hi)` in volts the bound must cover.
    pub vdd_range: (f64, f64),
    /// Clock frequency in hertz (drives the cycle-count mechanisms).
    pub frequency_hz: f64,
    /// Parametric guardband budget: the total `ΔVth` (volts) the design's
    /// timing margin can absorb before re-timing is required.
    pub vth_budget: f64,
    /// Sampled fresh-Vth offset interval `(lo, hi)` in volts the bound must
    /// cover (process variation). `(0, 0)` analyzes the nominal die only;
    /// setting it to a [`ptm`-style variation clamp boundary] — e.g.
    /// `(−σ·clamp, +σ·clamp)` — makes the bound cover every device a
    /// clamped sampler can realize, by the mechanism monotonicity contract
    /// (MTTF non-increasing in the offset).
    pub vth0_offset_range: (f64, f64),
}

impl Default for LifetimeConfig {
    fn default() -> Self {
        LifetimeConfig {
            suite: AgingSuite::standard(),
            years: 10.0,
            temperature_range: (
                bti::Stress::NOMINAL_TEMPERATURE_K,
                bti::Stress::NOMINAL_TEMPERATURE_K,
            ),
            vdd_range: (bti::Stress::NOMINAL_VDD, bti::Stress::NOMINAL_VDD),
            frequency_hz: 1.0e9,
            vth_budget: 0.1,
            vth0_offset_range: (0.0, 0.0),
        }
    }
}

impl LifetimeConfig {
    /// Validates the environment intervals and scalars, returning a
    /// description of every problem (empty = sound). An inverted or
    /// non-finite range makes endpoint evaluation meaningless, so the
    /// analyzer must not run on an invalid configuration (lint `LT003`).
    #[must_use]
    pub fn validation_errors(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut range = |name: &str, (lo, hi): (f64, f64)| {
            if !(lo.is_finite() && hi.is_finite() && lo > 0.0) {
                out.push(format!("{name} range ({lo}, {hi}) must be positive and finite"));
            } else if lo > hi {
                out.push(format!("{name} range ({lo}, {hi}) is inverted"));
            }
        };
        range("temperature", self.temperature_range);
        range("vdd", self.vdd_range);
        if !(self.years.is_finite() && self.years > 0.0) {
            out.push(format!("lifetime horizon {} years must be positive and finite", self.years));
        }
        if !(self.frequency_hz.is_finite() && self.frequency_hz > 0.0) {
            out.push(format!("frequency {} Hz must be positive and finite", self.frequency_hz));
        }
        if !(self.vth_budget.is_finite() && self.vth_budget > 0.0) {
            out.push(format!("ΔVth budget {} V must be positive and finite", self.vth_budget));
        }
        let (olo, ohi) = self.vth0_offset_range;
        if !(olo.is_finite() && ohi.is_finite()) {
            out.push(format!("vth0 offset range ({olo}, {ohi}) must be finite"));
        } else if olo > ohi {
            out.push(format!("vth0 offset range ({olo}, {ohi}) is inverted"));
        }
        out
    }

    /// The worst-corner operating point of a mechanism at `stress` after
    /// `years`: the top of the temperature and Vdd ranges, on a device
    /// whose fresh Vth is offset by `vth0_offset`.
    pub(crate) fn worst_input(&self, stress: f64, years: f64, vth0_offset: f64) -> AgingInput {
        AgingInput::new(
            stress,
            years,
            self.temperature_range.1,
            self.vdd_range.1,
            self.frequency_hz,
        )
        .with_vth0_offset(vth0_offset)
    }
}

/// Interval results of one mechanism on one instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MechanismInterval {
    /// Stable mechanism name (`"nbti"`, `"hci"`, ...).
    pub mechanism: &'static str,
    /// The per-gate stress quantity this mechanism consumed.
    pub source: StressSource,
    /// `[lo, hi]` of `ΔVth` (volts) at the configured lifetime horizon.
    pub delta_vth: (f64, f64),
    /// `[lo, hi]` of the mean time to failure in years
    /// (`f64::INFINITY` = cannot fail at that corner).
    pub mttf_years: (f64, f64),
    /// Worst-corner failure distribution (`None` = cannot fail even at the
    /// worst corner).
    pub worst: Option<Weibull>,
}

/// Lifetime bounds of one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceLifetime {
    /// The analyzed instance.
    pub inst: InstId,
    /// Its name in the netlist.
    pub name: String,
    /// Per-mechanism intervals, in suite order.
    pub mechanisms: Vec<MechanismInterval>,
    /// Provable MTTF lower bound of this instance (series over its own
    /// mechanisms at the worst corner), years.
    pub mttf_lo_years: f64,
    /// Upper bound of the summed parametric `ΔVth` at the lifetime horizon.
    pub delta_vth_hi: f64,
    /// The mechanism with the largest worst-corner cumulative hazard at
    /// the horizon (first in suite order on ties).
    pub dominant: &'static str,
    /// The λ bounds the duty-driven mechanisms were evaluated over.
    pub lambda: LambdaBounds,
    /// The switching-activity upper bound the activity-driven mechanisms
    /// were evaluated at.
    pub activity_hi: f64,
}

/// The outcome of a static lifetime analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeReport {
    /// Per-instance bounds, in netlist instance order.
    pub instances: Vec<InstanceLifetime>,
    /// Provable design MTTF lower bound (series over all instances and
    /// mechanisms at their worst corners), years. Infinite when nothing
    /// can fail.
    pub design_mttf_lo_years: f64,
    /// Best-corner design MTTF estimate (same series composition at the
    /// interval low endpoints) — an optimistic reference, not a bound on
    /// specific workloads.
    pub design_mttf_best_years: f64,
    /// Share of the design's total worst-corner cumulative hazard at the
    /// horizon per mechanism, in suite order. Shares sum to 1 (or are all
    /// 0 when nothing can fail).
    pub hazard_shares: Vec<(&'static str, f64)>,
    /// Sound lower bound on the years until some instance's summed
    /// parametric `ΔVth` exceeds the configured budget. Infinite when the
    /// budget is never exhausted inside the failure horizon.
    pub years_until_budget: f64,
    /// Name of the instance with the smallest MTTF lower bound.
    pub worst_instance: Option<String>,
    /// True when the interval analysis was exact and every instance's cell
    /// was resolvable; a widened/fallback analysis is still sound, just
    /// more conservative.
    pub exact: bool,
    /// The configuration the report was computed under.
    pub config: LifetimeConfig,
    /// Worst-corner failure distributions pooled per mechanism (suite
    /// order), each with its multiplicity.
    pub worst_pools: Vec<(&'static str, Vec<(Weibull, u64)>)>,
}

impl LifetimeReport {
    /// Lower bound of design reliability `R(t)` at `t_years` (worst-corner
    /// series system).
    #[must_use]
    pub fn design_reliability_lo(&self, t_years: f64) -> f64 {
        let pool = self.worst_pools.iter().flat_map(|(_, pool)| pool);
        (-SeriesHazard::fold(pool).at(t_years)).exp()
    }

    /// Per-mechanism design MTTF lower bound: the series MTTF if only that
    /// mechanism existed — the per-mechanism curves the `lifetime` bench
    /// binary plots. Suite order.
    #[must_use]
    pub fn mechanism_design_mttf(&self) -> Vec<(&'static str, f64)> {
        self.worst_pools
            .iter()
            .map(|(name, pool)| (*name, SeriesHazard::fold(pool).mttf_lower_bound()))
            .collect()
    }
}

/// Provable MTTF lower bound of a series system of Weibull components.
///
/// `R(t) = Π R_i(t)` is non-increasing, so the right-endpoint Riemann sum
/// of `∫ R dt` on a log grid under-approximates the integral; truncating
/// below `T_MIN_YEARS` (1e-6) and above `T_MAX_YEARS` (1e7) only drops
/// mass. An empty pool cannot fail: the bound is infinite.
#[must_use]
pub fn series_mttf_lower_bound(components: &[Weibull]) -> f64 {
    pool_and_fold(1, components.iter().map(|w| (0, *w))).1.mttf_lower_bound()
}

/// Pools Weibull components per suite slot by exact bit pattern (slot
/// order, then `(scale, shape)` bits) and folds the flattened pools into
/// their series hazard.
///
/// Every series composition of many components — the static report, each
/// sampled die, the clamp-boundary bound — goes through here, so equal
/// components always meet the hazard sum in the same floating-point
/// order: a die sampled at zero offset reproduces the static bound bit for
/// bit.
pub(crate) fn pool_and_fold(
    slots: usize,
    components: impl IntoIterator<Item = (usize, Weibull)>,
) -> (Vec<Vec<(Weibull, u64)>>, SeriesHazard) {
    let mut groups: Vec<BTreeMap<(u64, u64), u64>> = vec![BTreeMap::new(); slots];
    for (slot, w) in components {
        *groups[slot].entry((w.scale_years.to_bits(), w.shape.to_bits())).or_insert(0) += 1;
    }
    let pools: Vec<Vec<(Weibull, u64)>> = groups
        .into_iter()
        .map(|group| {
            group
                .into_iter()
                .map(|((scale, shape), count)| {
                    (Weibull::new(f64::from_bits(scale), f64::from_bits(shape)), count)
                })
                .collect()
        })
        .collect();
    let hazard = SeriesHazard::fold(pools.iter().flatten());
    (pools, hazard)
}

/// The cumulative hazard `H(t) = Σ_i n_i·(t/η_i)^β_i` of a series system
/// of pooled Weibulls, folded by shape.
///
/// Components that share a shape β share their time dependence:
/// `Σ_i n_i·(t/η_i)^β = C_β·(t/η_ref)^β` with `C_β = Σ_i n_i·(η_ref/η_i)^β`.
/// Every mechanism has a single shape, so a design pool of thousands of
/// distinct Weibulls folds, once, into a few terms, and each time point
/// costs one `powf` per shape instead of one per component. The reference
/// scale `η_ref` is the shape's first component, which keeps both factors
/// near the magnitudes of the unfolded terms (folding against `η = 1`
/// under- or overflows `η^−β` at large shapes). The identity is exact, so
/// folding changes results by floating-point rounding only.
#[derive(Debug)]
pub(crate) struct SeriesHazard {
    /// `(β, η_ref, C_β)` per distinct shape, in first-appearance order.
    terms: Vec<(f64, f64, f64)>,
}

impl SeriesHazard {
    fn fold<'a>(pool: impl IntoIterator<Item = &'a (Weibull, u64)>) -> Self {
        let mut terms: Vec<(f64, f64, f64)> = Vec::new();
        for (w, count) in pool {
            let count = *count as f64;
            match terms.iter_mut().find(|(shape, _, _)| *shape == w.shape) {
                Some((shape, scale, c)) => *c += count * (*scale / w.scale_years).powf(*shape),
                None => terms.push((w.shape, w.scale_years, count)),
            }
        }
        SeriesHazard { terms }
    }

    /// `H(t_years)`; 0 at and before `t = 0`.
    fn at(&self, t_years: f64) -> f64 {
        if t_years <= 0.0 {
            return 0.0;
        }
        self.terms.iter().map(|&(shape, scale, c)| c * (t_years / scale).powf(shape)).sum()
    }

    /// The series MTTF lower bound (see [`series_mttf_lower_bound`]).
    pub(crate) fn mttf_lower_bound(&self) -> f64 {
        if self.terms.is_empty() {
            return f64::INFINITY;
        }
        let ratio = (T_MAX_YEARS / T_MIN_YEARS).ln();
        let t_at = |k: usize| T_MIN_YEARS * (ratio * k as f64 / T_GRID_POINTS as f64).exp();
        let mut mttf = 0.0;
        let mut prev = t_at(0);
        for k in 1..=T_GRID_POINTS {
            let t = t_at(k);
            mttf += (t - prev) * (-self.at(t)).exp();
            prev = t;
        }
        mttf
    }
}

/// The provable switching-activity upper bound of a net with signal
/// probability in `interval`: a net at probability `p` toggles in at most
/// `2·min(p, 1−p)` of the cycles, maximized over the interval.
#[must_use]
pub fn activity_upper_bound(interval: Interval) -> f64 {
    if interval.contains(0.5) {
        1.0
    } else if interval.hi() < 0.5 {
        2.0 * interval.hi()
    } else {
        2.0 * (1.0 - interval.lo())
    }
}

/// The worst/best stress interval a mechanism sees on one instance.
pub(crate) fn stress_interval(
    source: StressSource,
    lambda: LambdaBounds,
    activity_hi: f64,
) -> (f64, f64) {
    match source {
        StressSource::PmosDuty => (lambda.pmos.lo(), lambda.pmos.hi()),
        StressSource::NmosDuty => (lambda.nmos.lo(), lambda.nmos.hi()),
        // A provable activity lower bound is always 0: any net can hold.
        StressSource::Activity => (0.0, activity_hi),
    }
}

/// Everything the analysis derives from one stress corner. Instances share
/// corners heavily (the λ lattice collapses to few distinct boxes on real
/// netlists), so the per-corner work — in particular the 1600-point series
/// integration behind `mttf_lo_years` — is computed once per distinct
/// `(λ box, activity)` signature and reused.
#[derive(Clone)]
struct CornerEval {
    mechanisms: Vec<MechanismInterval>,
    best: Vec<Weibull>,
    /// Worst-corner cumulative hazard at the horizon, per suite slot
    /// (0 when the mechanism cannot fail there).
    hazards: Vec<f64>,
    mttf_lo_years: f64,
    delta_vth_hi: f64,
    dominant: &'static str,
}

fn eval_corner(config: &LifetimeConfig, lambda: LambdaBounds, activity_hi: f64) -> CornerEval {
    let mechanisms = config.suite.mechanisms();
    let mut per_mech = Vec::with_capacity(mechanisms.len());
    let mut best = Vec::with_capacity(mechanisms.len());
    let mut hazards = Vec::with_capacity(mechanisms.len());
    let mut worst_here: Vec<Weibull> = Vec::with_capacity(mechanisms.len());
    let mut delta_vth_hi = 0.0;
    let mut dominant = (mechanisms[0].1.name(), -1.0f64);
    for (source, mech) in &mechanisms {
        let (stress_lo, stress_hi) = stress_interval(*source, lambda, activity_hi);
        // MTTF is non-increasing in the fresh-Vth offset (monotonicity
        // contract), so the high endpoint belongs to the worst corner.
        let worst_input = config.worst_input(stress_hi, config.years, config.vth0_offset_range.1);
        let best_input = AgingInput::new(
            stress_lo,
            config.years,
            config.temperature_range.0,
            config.vdd_range.0,
            config.frequency_hz,
        )
        .with_vth0_offset(config.vth0_offset_range.0);
        let worst = mech.failure_distribution(&worst_input);
        let best_w = mech.failure_distribution(&best_input);
        let dv_hi = mech.degradation(&worst_input).delta_vth;
        delta_vth_hi += dv_hi;
        let mut hazard = 0.0;
        if let Some(w) = worst {
            worst_here.push(w);
            hazard = w.cumulative_hazard(config.years);
            if hazard > dominant.1 {
                dominant = (mech.name(), hazard);
            }
        }
        hazards.push(hazard);
        if let Some(b) = best_w {
            best.push(b);
        }
        per_mech.push(MechanismInterval {
            mechanism: mech.name(),
            source: *source,
            delta_vth: (mech.degradation(&best_input).delta_vth, dv_hi),
            mttf_years: (
                worst.map_or(f64::INFINITY, |w| w.mttf_years()),
                best_w.map_or(f64::INFINITY, |w| w.mttf_years()),
            ),
            worst,
        });
    }
    CornerEval {
        mechanisms: per_mech,
        best,
        hazards,
        mttf_lo_years: series_mttf_lower_bound(&worst_here),
        delta_vth_hi,
        dominant: dominant.0,
    }
}

/// Computes the static lifetime bound of `netlist`.
///
/// Instances whose cell is unknown to `library` (or with no connected
/// input pins) fall back to the full stress box — fully conservative, and
/// flagged through [`LifetimeReport::exact`]. The function is infallible:
/// unlike the guardband bound it needs no timing run.
///
/// # Panics
///
/// Panics if `config` fails [`LifetimeConfig::validation_errors`] — run
/// the validation (or the `LT003` lint rule) first.
#[must_use]
pub fn static_lifetime_bound(
    netlist: &Netlist,
    library: &Library,
    config: &LifetimeConfig,
    dataflow: &DataflowConfig,
) -> LifetimeReport {
    let problems = config.validation_errors();
    assert!(problems.is_empty(), "invalid lifetime config: {problems:?}");
    let df = NetlistDataflow::analyze_with(netlist, library, dataflow);
    let full = LambdaBounds { pmos: Interval::FULL, nmos: Interval::FULL };
    let mut exact = df.is_exact();

    let mechanisms = config.suite.mechanisms();
    let mut instances = Vec::with_capacity(netlist.instances().len());
    let mut best_all: Vec<Weibull> = Vec::new();
    let mut hazard_totals = vec![0.0f64; mechanisms.len()];
    let mut corner_cache: BTreeMap<[u64; 5], CornerEval> = BTreeMap::new();

    for id in netlist.instance_ids() {
        let instance = netlist.instance(id);
        let lambda = df
            .lambda_bounds(netlist, library, id, Extraction::GateAverage)
            .zip(df.lambda_bounds(netlist, library, id, Extraction::WorstPin))
            .map(|(a, b)| a.join(b))
            .unwrap_or_else(|| {
                exact = false;
                full
            });
        let activity_hi = match library.cell(&instance.cell) {
            Some(cell) => instance
                .connections
                .iter()
                .filter(|(pin, _)| cell.output(pin).is_some())
                .map(|(_, net)| activity_upper_bound(df.interval(*net)))
                .fold(0.0, f64::max),
            None => 1.0,
        };

        let signature = [
            lambda.pmos.lo().to_bits(),
            lambda.pmos.hi().to_bits(),
            lambda.nmos.lo().to_bits(),
            lambda.nmos.hi().to_bits(),
            activity_hi.to_bits(),
        ];
        let corner = corner_cache
            .entry(signature)
            .or_insert_with(|| eval_corner(config, lambda, activity_hi));
        // A slot that cannot fail contributes a hazard of exactly 0.
        for (total, hazard) in hazard_totals.iter_mut().zip(&corner.hazards) {
            *total += hazard;
        }
        best_all.extend_from_slice(&corner.best);
        instances.push(InstanceLifetime {
            inst: id,
            name: instance.name.clone(),
            mechanisms: corner.mechanisms.clone(),
            mttf_lo_years: corner.mttf_lo_years,
            delta_vth_hi: corner.delta_vth_hi,
            dominant: corner.dominant,
            lambda,
            activity_hi,
        });
    }

    let (pools, design_hazard) = pool_and_fold(
        mechanisms.len(),
        instances.iter().flat_map(|inst| {
            inst.mechanisms.iter().enumerate().filter_map(|(slot, m)| Some((slot, m.worst?)))
        }),
    );
    let worst_pools: Vec<(&'static str, Vec<(Weibull, u64)>)> =
        mechanisms.iter().map(|(_, mech)| mech.name()).zip(pools).collect();

    let total_hazard: f64 = hazard_totals.iter().sum();
    let hazard_shares = mechanisms
        .iter()
        .zip(&hazard_totals)
        .map(|((_, mech), hazard)| {
            (mech.name(), if total_hazard > 0.0 { hazard / total_hazard } else { 0.0 })
        })
        .collect();

    let worst_instance = instances
        .iter()
        .min_by(|a, b| a.mttf_lo_years.total_cmp(&b.mttf_lo_years))
        .map(|i| i.name.clone());

    LifetimeReport {
        years_until_budget: years_until_budget(&instances, config),
        design_mttf_lo_years: design_hazard.mttf_lower_bound(),
        design_mttf_best_years: series_mttf_lower_bound(&best_all),
        instances,
        hazard_shares,
        worst_instance,
        exact,
        config: config.clone(),
        worst_pools,
    }
}

/// Sound lower bound on the years until some instance's summed worst-corner
/// `ΔVth` exceeds the budget: log-space bisection of the monotone
/// `max_inst ΔVth(t) = budget` crossing, deduplicating instances by their
/// worst-corner signature.
fn years_until_budget(instances: &[InstanceLifetime], config: &LifetimeConfig) -> f64 {
    // Distinct (pmos_hi, nmos_hi, activity_hi) corners: ΔVth(t) is the same
    // function of t for every instance sharing one.
    let mut corners: BTreeMap<(u64, u64, u64), ()> = BTreeMap::new();
    for inst in instances {
        corners.insert(
            (
                inst.lambda.pmos.hi().to_bits(),
                inst.lambda.nmos.hi().to_bits(),
                inst.activity_hi.to_bits(),
            ),
            (),
        );
    }
    let mechanisms = config.suite.mechanisms();
    let worst_dv = |years: f64| -> f64 {
        corners
            .keys()
            .map(|&(p, n, a)| {
                let lambda = LambdaBounds {
                    pmos: Interval::point(f64::from_bits(p)),
                    nmos: Interval::point(f64::from_bits(n)),
                };
                mechanisms
                    .iter()
                    .map(|(source, mech)| {
                        let (_, hi) = stress_interval(*source, lambda, f64::from_bits(a));
                        mech.degradation(&config.worst_input(hi, years, 0.0)).delta_vth
                    })
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    };
    if worst_dv(T_MAX_YEARS) <= config.vth_budget {
        return f64::INFINITY;
    }
    let (mut lo, mut hi) = (T_MIN_YEARS.ln(), T_MAX_YEARS.ln());
    if worst_dv(lo.exp()) > config.vth_budget {
        return 0.0;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if worst_dv(mid.exp()) <= config.vth_budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo.exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty::Cell;
    use netlist::PortDir;

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

    #[test]
    fn series_bound_is_below_the_analytic_mttf() {
        // One exponential component: MTTF = scale exactly; the Riemann
        // bound must come in below but close.
        let w = Weibull::new(100.0, 1.0);
        let bound = series_mttf_lower_bound(&[w]);
        assert!(bound <= 100.0, "bound {bound} exceeds the true MTTF");
        assert!(bound > 95.0, "bound {bound} is needlessly loose");
        // Two identical exponentials in series halve the MTTF.
        let two = series_mttf_lower_bound(&[w, w]);
        assert!(two <= 50.0 && two > 47.0, "series of two: {two}");
        // Nothing in the pool → nothing can fail.
        assert_eq!(series_mttf_lower_bound(&[]), f64::INFINITY);
    }

    /// The integrator the folded hazard replaced: every pooled Weibull's
    /// `(t/η)^β` at every grid point.
    fn per_entry_mttf(pool: &[(Weibull, u64)]) -> f64 {
        let ratio = (T_MAX_YEARS / T_MIN_YEARS).ln();
        let t_at = |k: usize| T_MIN_YEARS * (ratio * k as f64 / T_GRID_POINTS as f64).exp();
        let mut mttf = 0.0;
        let mut prev = t_at(0);
        for k in 1..=T_GRID_POINTS {
            let t = t_at(k);
            mttf += (t - prev) * (-per_entry_hazard(pool, t)).exp();
            prev = t;
        }
        mttf
    }

    fn per_entry_hazard<'a>(pool: impl IntoIterator<Item = &'a (Weibull, u64)>, t: f64) -> f64 {
        pool.into_iter().map(|(w, count)| *count as f64 * w.cumulative_hazard(t)).sum()
    }

    fn assert_close(folded: f64, reference: f64, what: &str) {
        let rel = ((folded - reference) / reference).abs();
        assert!(rel <= 1e-12, "{what}: folded {folded} vs per-entry {reference} (rel {rel:.2e})");
    }

    #[test]
    fn folded_hazard_matches_the_per_entry_sum() {
        // Wear-out (β = 3), EM (2) and TDDB (1.2) shapes, interleaved and
        // repeated so the fold has to regroup them.
        let pool = [
            (Weibull::new(400.0, 3.0), 7),
            (Weibull::new(2.0e3, 1.2), 3),
            (Weibull::new(900.0, 2.0), 11),
            (Weibull::new(650.0, 3.0), 2),
            (Weibull::new(5.0e4, 1.2), 40),
            (Weibull::new(1.5e3, 2.0), 5),
            (Weibull::new(120.0, 3.0), 1),
        ];
        let folded = SeriesHazard::fold(&pool);
        assert_eq!(folded.terms.len(), 3, "one term per distinct shape");
        assert_close(folded.mttf_lower_bound(), per_entry_mttf(&pool), "mixed-shape MTTF");
        for t in [1e-3, 0.5, 10.0, 100.0, 1e4] {
            assert_close(folded.at(t), per_entry_hazard(&pool, t), &format!("H({t})"));
        }

        // A sampled die of an inverter chain: the pool the Monte-Carlo
        // path folds, against the per-entry sum over the same pool.
        let report = static_lifetime_bound(
            &inv_chain(8),
            &lib(),
            &LifetimeConfig::default(),
            &DataflowConfig::default(),
        );
        let sampling = crate::McSampling::nominal_45nm(4, 0xfeed);
        for die in 0..4 {
            let components = report.instances.iter().enumerate().flat_map(|(index, inst)| {
                crate::mc::instance_components(&report, inst, sampling.instance_offset(die, index))
            });
            let (pools, _) = pool_and_fold(report.worst_pools.len(), components);
            assert_close(
                crate::sample_design_mttf(&report, &sampling, die),
                per_entry_mttf(&pools.concat()),
                &format!("die {die}"),
            );
        }

        // The report's reliability curve and bound use the same fold.
        let design_pool: Vec<(Weibull, u64)> =
            report.worst_pools.iter().flat_map(|(_, pool)| pool.iter().copied()).collect();
        assert_close(report.design_mttf_lo_years, per_entry_mttf(&design_pool), "design bound");
        for t in [1.0, 10.0, 50.0, 200.0] {
            assert_close(
                report.design_reliability_lo(t),
                (-per_entry_hazard(&design_pool, t)).exp(),
                &format!("R({t})"),
            );
        }
    }

    #[test]
    fn activity_bound_covers_the_toggle_identity() {
        assert_eq!(activity_upper_bound(Interval::FULL), 1.0);
        assert_eq!(activity_upper_bound(Interval::point(0.5)), 1.0);
        assert!((activity_upper_bound(Interval::new(0.0, 0.2)) - 0.4).abs() < 1e-12);
        assert!((activity_upper_bound(Interval::new(0.9, 1.0)) - 0.2).abs() < 1e-12);
        assert_eq!(activity_upper_bound(Interval::point(0.0)), 0.0);
        assert_eq!(activity_upper_bound(Interval::point(1.0)), 0.0);
    }

    #[test]
    fn unconstrained_chain_gets_a_finite_sound_bound() {
        let nl = inv_chain(8);
        let report = static_lifetime_bound(
            &nl,
            &lib(),
            &LifetimeConfig::default(),
            &DataflowConfig::default(),
        );
        assert!(report.exact);
        assert_eq!(report.instances.len(), 8);
        assert!(report.design_mttf_lo_years.is_finite());
        assert!(
            report.design_mttf_lo_years > 10.0,
            "chain dies young: {}",
            report.design_mttf_lo_years
        );
        // The design bound cannot exceed any instance bound.
        for inst in &report.instances {
            assert!(report.design_mttf_lo_years <= inst.mttf_lo_years + 1e-9);
            // Interval ordering: lo ≤ hi everywhere.
            for m in &inst.mechanisms {
                assert!(m.delta_vth.0 <= m.delta_vth.1 + 1e-15);
                assert!(m.mttf_years.0 <= m.mttf_years.1);
            }
        }
        // Best-corner estimate dominates the worst-corner bound.
        assert!(report.design_mttf_best_years >= report.design_mttf_lo_years);
        // Shares sum to 1 and the report names a worst instance.
        let total: f64 = report.hazard_shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(report.worst_instance.is_some());
        assert!(report.years_until_budget > 10.0);
    }

    #[test]
    fn pinned_inputs_relax_the_bound() {
        let nl = inv_chain(4);
        let free = static_lifetime_bound(
            &nl,
            &lib(),
            &LifetimeConfig::default(),
            &DataflowConfig::default(),
        );
        // Input pinned high: every level is exactly known, activity is 0,
        // duty corners shrink from FULL to points.
        let mut df = DataflowConfig::default();
        let a = nl.find_net("a").unwrap();
        df.input_intervals.insert(a, Interval::point(1.0));
        let pinned = static_lifetime_bound(&nl, &lib(), &LifetimeConfig::default(), &df);
        assert!(pinned.design_mttf_lo_years >= free.design_mttf_lo_years);
        for inst in &pinned.instances {
            assert_eq!(inst.activity_hi, 0.0);
            // Activity-driven hard-failure mechanisms cannot fire.
            for m in &inst.mechanisms {
                if m.source == StressSource::Activity && m.mechanism != "tddb" {
                    assert_eq!(m.mttf_years.0, f64::INFINITY);
                }
            }
        }
    }

    #[test]
    fn hotter_and_overdriven_environments_shrink_the_bound() {
        let nl = inv_chain(4);
        let nominal = static_lifetime_bound(
            &nl,
            &lib(),
            &LifetimeConfig::default(),
            &DataflowConfig::default(),
        );
        let harsh = LifetimeConfig {
            temperature_range: (368.15, 428.15),
            vdd_range: (1.1, 1.3),
            ..LifetimeConfig::default()
        };
        let bounded = static_lifetime_bound(&nl, &lib(), &harsh, &DataflowConfig::default());
        assert!(bounded.design_mttf_lo_years < nominal.design_mttf_lo_years);
        assert!(bounded.design_mttf_best_years > nominal.design_mttf_best_years);
        assert!(bounded.years_until_budget <= nominal.years_until_budget);
    }

    #[test]
    fn variation_offset_range_widens_the_corner_box() {
        let nl = inv_chain(4);
        let nominal = static_lifetime_bound(
            &nl,
            &lib(),
            &LifetimeConfig::default(),
            &DataflowConfig::default(),
        );
        let varied =
            LifetimeConfig { vth0_offset_range: (-0.06, 0.06), ..LifetimeConfig::default() };
        let bounded = static_lifetime_bound(&nl, &lib(), &varied, &DataflowConfig::default());
        // Slow-die devices (positive offset) fail earlier, so the worst-corner
        // bound shrinks; fast-die devices stretch the best-corner estimate.
        assert!(bounded.design_mttf_lo_years < nominal.design_mttf_lo_years);
        assert!(bounded.design_mttf_best_years >= nominal.design_mttf_best_years);
        // Degradation trajectories are offset-independent, so the ΔVth
        // budget crossing is unchanged.
        assert_eq!(bounded.years_until_budget, nominal.years_until_budget);
        let bad = LifetimeConfig { vth0_offset_range: (0.06, -0.06), ..LifetimeConfig::default() };
        assert!(bad.validation_errors().iter().any(|e| e.contains("inverted")));
        let nan =
            LifetimeConfig { vth0_offset_range: (f64::NAN, 0.0), ..LifetimeConfig::default() };
        assert!(nan.validation_errors().iter().any(|e| e.contains("finite")));
    }

    #[test]
    fn unknown_cells_fall_back_conservatively() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "MYSTERY", &[("A", a), ("Y", y)]);
        let report = static_lifetime_bound(
            &nl,
            &lib(),
            &LifetimeConfig::default(),
            &DataflowConfig::default(),
        );
        assert!(!report.exact);
        let inst = &report.instances[0];
        assert_eq!(inst.lambda.pmos, Interval::FULL);
        assert_eq!(inst.activity_hi, 1.0);
        assert!(inst.mttf_lo_years.is_finite());
    }

    #[test]
    fn config_validation_catches_unsound_ranges() {
        assert!(LifetimeConfig::default().validation_errors().is_empty());
        let inverted =
            LifetimeConfig { temperature_range: (428.15, 398.15), ..LifetimeConfig::default() };
        assert!(inverted.validation_errors().iter().any(|e| e.contains("inverted")));
        let bad = LifetimeConfig { vdd_range: (f64::NAN, 1.2), years: -1.0, ..Default::default() };
        assert!(bad.validation_errors().len() >= 2);
    }

    #[test]
    fn report_reliability_and_curves_are_consistent() {
        let nl = inv_chain(4);
        let report = static_lifetime_bound(
            &nl,
            &lib(),
            &LifetimeConfig::default(),
            &DataflowConfig::default(),
        );
        assert!(report.design_reliability_lo(0.0) == 1.0);
        let r10 = report.design_reliability_lo(10.0);
        let r50 = report.design_reliability_lo(50.0);
        assert!((0.0..=1.0).contains(&r10) && r50 <= r10);
        // Every single-mechanism series bound dominates the all-mechanism one.
        for (name, mttf) in report.mechanism_design_mttf() {
            assert!(mttf >= report.design_mttf_lo_years, "{name}: {mttf}");
        }
    }
}
