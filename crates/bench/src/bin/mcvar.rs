//! `mcvar` — Monte-Carlo process-variation MTTF distributions.
//!
//! Synthesizes the bundled benchmarks against the fixture library, runs the
//! static λ-interval lifetime analysis once per design, then samples N dies
//! with per-instance fresh-Vth offsets and composes each die's series-system
//! design MTTF ([`flow::mc_lifetime`]). Reports the
//! empirical distribution (min / p5 / median / mean / p95 / max), the
//! variation-aware static lower bound every sample must respect, and the p5
//! retention of the nominal bound.
//!
//! ```text
//! mcvar [--design NAME]... [--samples N] [--seed S] [--sigma-vth V]
//!       [--clamp C] [--workers W] [--json PATH] [--smoke] [--report PATH]
//! ```
//!
//! Exit status: 0 on success, 1 when any sampled die falls below the
//! variation-aware static bound (a soundness violation), 2 on usage errors.

use bench::cli::{self, Args, Flag};
use bti::json::{Json, MAX_SAFE_INT};
use dataflow::{McDistribution, McSampling};
use flow::{FlowError, RunContext};
use std::num::NonZeroUsize;
use std::process::ExitCode;

const USAGE: &str = "\
usage: mcvar [options]

Monte-Carlo MTTF distributions under process variation (reliaware-mcvar-v1).

options:
  --design NAME    benchmark to analyze (repeatable; default: all bundled
                   benchmarks): dct, idct, fft, dsp, risc, risc6, vliw
  --samples N      number of sampled dies per design, at least 1 (default 256)
  --seed S         base seed of the sampling streams, an integer in
                   [0, 2^53) (default 1)
  --sigma-vth V    1-sigma per-instance fresh-Vth offset in volts
                   (default 0.015, the ptm 45 nm within-die spread)
  --clamp C        clamp offsets at +/- C standard deviations (default 4)
  --workers W      worker threads for the per-die fan-out (default 4)
  --json PATH      write the reliaware-mcvar-v1 JSON record to PATH
  --smoke          quick mode: 16 samples unless --samples is given
  --report PATH    write a reliaware-run-v1 JSON run report
  -h, --help       show this help

exit status:
  0  success
  1  a sampled die fell below the variation-aware static bound
  2  usage or I/O problem";

const FLAGS: &[Flag] = &[
    Flag::value("--design"),
    Flag::value("--samples"),
    Flag::value("--seed"),
    Flag::value("--sigma-vth"),
    Flag::value("--clamp"),
    Flag::value("--workers"),
    Flag::value("--json"),
    Flag::switch("--smoke"),
    cli::REPORT,
];

/// The `--seed` value (default 1). The record carries the seed as a JSON
/// number, which holds integers exactly only below 2^53.
fn seed(args: &Args) -> Result<u64, FlowError> {
    match args.get::<u64>("--seed")? {
        Some(seed) if seed > MAX_SAFE_INT => {
            Err(cli::invalid("--seed", seed, "needs an integer in [0, 2^53)"))
        }
        seed => Ok(seed.unwrap_or(1)),
    }
}

/// One design's entry in the `reliaware-mcvar-v1` record.
fn design_record(name: &str, instances: usize, dist: &McDistribution, contained: bool) -> Json {
    Json::obj([
        ("name", name.into()),
        ("instances", instances.into()),
        ("nominal_mttf_lo_years", dist.nominal_years.into()),
        ("static_bound_years", dist.static_bound_years.into()),
        ("min_years", dist.min_years().into()),
        ("p5_years", dist.quantile_years(0.05).into()),
        ("median_years", dist.median_years().into()),
        ("mean_years", dist.mean_years().into()),
        ("p95_years", dist.quantile_years(0.95).into()),
        ("max_years", dist.max_years().into()),
        ("p5_retention", dist.p5_retention().into()),
        ("contains_static_bound", contained.into()),
    ])
}

/// The `reliaware-mcvar-v1` record.
fn mcvar_record(sampling: &McSampling, designs: Vec<Json>) -> Json {
    Json::obj([
        ("schema", "reliaware-mcvar-v1".into()),
        ("samples", sampling.samples.into()),
        ("seed", sampling.seed.into()),
        ("sigma_vth", sampling.sigma_vth.into()),
        ("clamp_sigmas", sampling.clamp_sigmas.into()),
        ("designs", Json::Arr(designs)),
    ])
}

fn run(args: &Args) -> Result<ExitCode, FlowError> {
    let default_samples = if args.has("--smoke") { 16 } else { 256 };
    let samples = args.get::<NonZeroUsize>("--samples")?.map_or(default_samples, usize::from);
    let names: Vec<String> = args.all("--design")?;
    let designs: Vec<circuits::Design> = if names.is_empty() {
        circuits::all_benchmarks()
    } else {
        names.iter().map(|name| bench::design_by_name(name)).collect::<Result<_, _>>()?
    };

    let workers = args.get::<NonZeroUsize>("--workers")?.map_or(4, usize::from);
    let ctx = RunContext::new().with_workers(workers);
    let sampling = McSampling {
        samples,
        seed: seed(args)?,
        sigma_vth: args.get("--sigma-vth")?.unwrap_or(0.015),
        clamp_sigmas: args.get("--clamp")?.unwrap_or(4.0),
    };
    if let Some(problem) = sampling.validation_errors().into_iter().next() {
        return Err(FlowError::Usage(problem));
    }

    let library = synth::test_fixtures::fixture_library();
    let lifetime = dataflow::LifetimeConfig::default();
    let df = dataflow::DataflowConfig::default();

    println!(
        "Monte-Carlo design-MTTF distributions ({samples} dies, sigma {} V, clamp {}σ, seed {})\n",
        sampling.sigma_vth, sampling.clamp_sigmas, sampling.seed
    );
    println!(
        "| design | instances | nominal [y] | var-bound [y] | min [y] | p5 [y] | median [y] \
         | p95 [y] | p5 retention | contained |"
    );
    println!("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |");

    let mut blocks = Vec::new();
    let mut all_contained = true;
    for design in &designs {
        let nl = ctx.stage("synthesis", || {
            synth::synthesize(&design.aig, &library, &synth::MapOptions::default())
        })?;
        let outcome = ctx.stage("mc-lifetime", || {
            flow::mc_lifetime(&ctx, &nl, &library, &lifetime, &df, &sampling)
        })?;
        let dist = &outcome.distribution;
        let contained = dist.contains_static_bound();
        all_contained &= contained;
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {:.3} | {} |",
            design.name,
            outcome.report.instances.len(),
            bench::years(dist.nominal_years),
            bench::years(dist.static_bound_years),
            bench::years(dist.min_years()),
            bench::years(dist.quantile_years(0.05)),
            bench::years(dist.median_years()),
            bench::years(dist.quantile_years(0.95)),
            dist.p5_retention(),
            if contained { "yes" } else { "NO" },
        );
        blocks.push(design_record(&design.name, outcome.report.instances.len(), dist, contained));
    }

    if let Some(path) = args.get::<String>("--json")? {
        let json = mcvar_record(&sampling, blocks).render_pretty();
        std::fs::write(&path, json).map_err(|e| FlowError::io(&path, &e))?;
        println!("\nwrote {path}");
    }
    cli::emit_report(&ctx, args.report().as_deref())?;
    if all_contained {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("error: a sampled die fell below the variation-aware static bound");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    cli::run_code(USAGE, FLAGS, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let sampling = McSampling::nominal_45nm(3, MAX_SAFE_INT);
        let dist = McDistribution {
            samples: vec![20.0, f64::INFINITY, 30.5],
            sampling: sampling.clone(),
            nominal_years: 25.0,
            static_bound_years: 12.25,
        };
        let block = design_record("risc \"5p\"", 4, &dist, true);
        let doc = Json::parse(&mcvar_record(&sampling, vec![block]).render_pretty()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("reliaware-mcvar-v1"));
        assert_eq!(doc.get("samples").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(MAX_SAFE_INT));
        assert_eq!(doc.get("sigma_vth").and_then(Json::as_f64), Some(sampling.sigma_vth));
        let design = &doc.get("designs").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(design.get("name").and_then(Json::as_str), Some("risc \"5p\""));
        assert_eq!(design.get("instances").and_then(Json::as_u64), Some(4));
        assert_eq!(design.get("static_bound_years").and_then(Json::as_f64), Some(12.25));
        assert_eq!(design.get("min_years").and_then(Json::as_f64), Some(20.0));
        assert_eq!(design.get("max_years"), Some(&Json::Null));
        assert_eq!(design.get("mean_years"), Some(&Json::Null));
        assert_eq!(design.get("contains_static_bound"), Some(&Json::Bool(true)));
    }

    #[test]
    fn seeds_the_record_cannot_carry_are_usage_errors() {
        let seed = |v: &str| cli::parse(&["--seed".into(), v.into()], FLAGS).and_then(|a| seed(&a));
        assert_eq!(seed("9007199254740991").ok(), Some(MAX_SAFE_INT));
        for bad in ["9007199254740992", "9007199254740993", "-5", "2.7"] {
            let err = seed(bad).err().unwrap_or_else(|| panic!("accepted {bad}"));
            assert_eq!(err.exit_code(), 2, "{bad}");
        }
    }
}
