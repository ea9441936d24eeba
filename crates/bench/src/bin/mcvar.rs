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

use bti::json::{Json, MAX_SAFE_INT};
use dataflow::{McDistribution, McSampling};
use flow::{FlowError, RunContext};
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

struct Args {
    designs: Vec<String>,
    samples: Option<usize>,
    seed: u64,
    sigma_vth: f64,
    clamp: f64,
    workers: usize,
    json: Option<String>,
    smoke: bool,
}

fn parse_args(rest: Vec<String>) -> Result<Args, FlowError> {
    let mut args = Args {
        designs: Vec::new(),
        samples: None,
        seed: 1,
        sigma_vth: 0.015,
        clamp: 4.0,
        workers: 4,
        json: None,
        smoke: false,
    };
    let mut it = rest.into_iter();
    while let Some(flag) = it.next() {
        let mut value =
            |flag: &str| it.next().ok_or_else(|| FlowError::Usage(format!("{flag} needs a value")));
        let parse = |flag: &str, v: &str| -> Result<f64, FlowError> {
            v.parse().map_err(|_| FlowError::Usage(format!("bad {flag} value {v}")))
        };
        match flag.as_str() {
            "--design" => args.designs.push(value("--design")?),
            "--samples" => {
                let v = value("--samples")?;
                let n = v.parse().ok().filter(|&n: &usize| n > 0);
                args.samples = Some(n.ok_or_else(|| {
                    FlowError::Usage(format!("--samples needs at least 1 die, got {v}"))
                })?);
            }
            "--seed" => {
                // The record carries the seed as a JSON number, which holds
                // integers exactly only below 2^53.
                let v = value("--seed")?;
                let seed = v.parse().ok().filter(|&s: &u64| s <= MAX_SAFE_INT);
                args.seed = seed.ok_or_else(|| {
                    FlowError::Usage(format!("--seed needs an integer in [0, 2^53), got {v}"))
                })?;
            }
            "--sigma-vth" => args.sigma_vth = parse("--sigma-vth", &value("--sigma-vth")?)?,
            "--clamp" => args.clamp = parse("--clamp", &value("--clamp")?)?,
            "--workers" => {
                let v = value("--workers")?;
                args.workers =
                    v.parse().map_err(|_| FlowError::Usage(format!("bad workers {v}")))?;
            }
            "--json" => args.json = Some(value("--json")?),
            "--smoke" => args.smoke = true,
            other => return Err(FlowError::Usage(format!("unknown flag {other}"))),
        }
    }
    Ok(args)
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

fn fmt_years(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        ">1e7".to_owned()
    }
}

fn run() -> Result<ExitCode, FlowError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (rest, report_path) = bench::cli::take_common_flags(&argv)?;
    let args = parse_args(rest)?;
    let samples = args.samples.unwrap_or(if args.smoke { 16 } else { 256 });

    let designs: Vec<circuits::Design> = if args.designs.is_empty() {
        circuits::all_benchmarks()
    } else {
        args.designs
            .iter()
            .map(|name| {
                bench::design_by_name(name)
                    .ok_or_else(|| FlowError::Usage(format!("unknown design {name}")))
            })
            .collect::<Result<_, _>>()?
    };

    let ctx = RunContext::new().with_workers(args.workers.max(1));
    let sampling = McSampling {
        samples,
        seed: args.seed,
        sigma_vth: args.sigma_vth,
        clamp_sigmas: args.clamp,
    };
    if let Some(problem) = sampling.validation_errors().into_iter().next() {
        return Err(FlowError::Usage(problem));
    }

    let library = synth::test_fixtures::fixture_library();
    let lifetime = dataflow::LifetimeConfig::default();
    let df = dataflow::DataflowConfig::default();

    println!(
        "Monte-Carlo design-MTTF distributions ({samples} dies, sigma {} V, clamp {}σ, seed {})\n",
        args.sigma_vth, args.clamp, args.seed
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
            fmt_years(dist.nominal_years),
            fmt_years(dist.static_bound_years),
            fmt_years(dist.min_years()),
            fmt_years(dist.quantile_years(0.05)),
            fmt_years(dist.median_years()),
            fmt_years(dist.quantile_years(0.95)),
            dist.p5_retention(),
            if contained { "yes" } else { "NO" },
        );
        blocks.push(design_record(&design.name, outcome.report.instances.len(), dist, contained));
    }

    if let Some(path) = &args.json {
        let json = mcvar_record(&sampling, blocks).render_pretty();
        std::fs::write(path, json).map_err(|e| FlowError::io(path, &e))?;
        println!("\nwrote {path}");
    }
    bench::cli::emit_report(&ctx, report_path.as_deref())?;
    if all_contained {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("error: a sampled die fell below the variation-aware static bound");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    bench::cli::run_code(USAGE, run)
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
        let seed = |v: &str| parse_args(vec!["--seed".into(), v.into()]).map(|a| a.seed);
        assert_eq!(seed("9007199254740991").ok(), Some(MAX_SAFE_INT));
        for bad in ["9007199254740992", "9007199254740993", "-5", "2.7"] {
            let err = seed(bad).err().unwrap_or_else(|| panic!("accepted {bad}"));
            assert_eq!(err.exit_code(), 2, "{bad}");
        }
    }
}
