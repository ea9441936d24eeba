//! Monte-Carlo lifetime under process variation: the static λ-interval
//! lifetime analysis runs once, then sampled dies are composed into a
//! design-MTTF distribution on the run's worker pool.

use crate::context::RunContext;
use crate::error::CharError;
use crate::pool;
use dataflow::{DataflowConfig, LifetimeConfig, LifetimeReport, McDistribution, McSampling};
use liberty::Library;
use netlist::Netlist;

/// Result of [`mc_lifetime`]: the deterministic static lifetime report plus
/// the Monte-Carlo design-MTTF distribution sampled on top of it.
#[derive(Debug, Clone)]
pub struct McLifetimeOutcome {
    /// The nominal (interval-based) static lifetime analysis.
    pub report: LifetimeReport,
    /// Per-die sampled design MTTFs with quantile/guardband accessors.
    pub distribution: McDistribution,
}

/// Monte-Carlo lifetime of `netlist` under process variation: the static
/// λ-interval lifetime analysis runs once, then `sampling.samples` per-die
/// draws of the sampled fresh-Vth offsets are composed into a design-MTTF
/// distribution on `ctx`'s worker pool, booked on its `mc_lifetime` stage.
///
/// The per-sample MTTF is a pure function of `(sampling plan, sample
/// index)` and the fan-out preserves sample order, so the distribution is
/// **bit-identical at any worker count**. A zero-variance plan reproduces
/// the deterministic static bound in every sample.
///
/// # Errors
///
/// Returns [`CharError::InvalidLifetimePlan`], naming every failed check,
/// when the sampling plan (e.g. zero samples) or the lifetime config fails
/// validation.
pub fn mc_lifetime(
    ctx: &RunContext,
    netlist: &Netlist,
    library: &Library,
    lifetime: &LifetimeConfig,
    df: &DataflowConfig,
    sampling: &McSampling,
) -> Result<McLifetimeOutcome, CharError> {
    let mut problems = sampling.validation_errors();
    problems.extend(lifetime.validation_errors());
    if !problems.is_empty() {
        return Err(CharError::InvalidLifetimePlan { problems });
    }
    let report = dataflow::static_lifetime_bound(netlist, library, lifetime, df);
    let samples = sampling.samples;
    ctx.add_tasks("mc_lifetime", samples as u64);
    let indices: Vec<usize> = (0..samples).collect();
    let workers = ctx.workers().clamp(1, samples.max(1));
    let mttfs = pool::parallel_map(workers, &indices, |&s| {
        dataflow::sample_design_mttf(&report, sampling, s)
    });
    let distribution = McDistribution {
        samples: mttfs,
        nominal_years: report.design_mttf_lo_years,
        static_bound_years: dataflow::clamp_boundary_bound(&report, sampling),
        sampling: sampling.clone(),
    };
    Ok(McLifetimeOutcome { report, distribution })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::PortDir;
    use synth::test_fixtures::fixture_library;

    /// A two-inverter chain exercising the full `mc_lifetime` contract.
    fn inv_chain() -> Netlist {
        let mut nl = Netlist::new("chain");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let m = nl.add_net("m");
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", m)]);
        nl.add_instance("u1", "INV_X1", &[("A", m), ("Y", y)]);
        nl
    }

    /// `mc_lifetime` must be a pure function of the sampling plan:
    /// bit-identical across worker counts, and a zero-variance plan must
    /// reproduce the deterministic static bound in every sample.
    #[test]
    fn mc_lifetime_is_bit_identical_across_worker_counts() {
        let library = fixture_library();
        let nl = inv_chain();
        let lifetime = LifetimeConfig::default();
        let df = DataflowConfig::default();

        let run = |workers: usize, sampling: &McSampling| {
            let ctx = RunContext::new().with_workers(workers);
            mc_lifetime(&ctx, &nl, &library, &lifetime, &df, sampling).unwrap()
        };
        let sampled = McSampling::nominal_45nm(24, 11);
        let one = run(1, &sampled);
        for workers in [2, 8] {
            let other = run(workers, &sampled);
            assert_eq!(
                one.distribution.samples.len(),
                other.distribution.samples.len(),
                "sample count must not depend on workers"
            );
            for (i, (a, b)) in
                one.distribution.samples.iter().zip(&other.distribution.samples).enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "sample {i} differs at {workers} workers");
            }
        }
        assert!(
            one.distribution.contains_static_bound(),
            "sampled MTTFs must stay above the variation-aware static bound: min {} < bound {}",
            one.distribution.min_years(),
            one.distribution.static_bound_years
        );

        // Zero-variance plan → every sample is the deterministic static
        // bound, bit for bit.
        let zero = run(2, &McSampling::zero_variance(5, 0));
        for s in &zero.distribution.samples {
            assert_eq!(s.to_bits(), zero.report.design_mttf_lo_years.to_bits());
        }
        assert!(zero.distribution.contains_static_bound());
    }

    /// `mc_lifetime` books its fan-out on the context's `mc_lifetime`
    /// stage.
    #[test]
    fn mc_lifetime_books_context_tasks() {
        let ctx = RunContext::new().with_workers(2);
        let out = mc_lifetime(
            &ctx,
            &inv_chain(),
            &fixture_library(),
            &LifetimeConfig::default(),
            &DataflowConfig::default(),
            &McSampling::nominal_45nm(6, 3),
        )
        .unwrap();
        assert_eq!(out.distribution.samples.len(), 6);
        let report = ctx.report();
        let stage = report.stages.iter().find(|s| s.name == "mc_lifetime").unwrap();
        assert_eq!(stage.tasks, 6);
    }
}
