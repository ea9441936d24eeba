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

use dataflow::McSampling;
use flow::{FlowError, RunContext};
use std::process::ExitCode;

const USAGE: &str = "\
usage: mcvar [options]

Monte-Carlo MTTF distributions under process variation (reliaware-mcvar-v1).

options:
  --design NAME    benchmark to analyze (repeatable; default: all bundled
                   benchmarks): dct, idct, fft, dsp, risc, risc6, vliw
  --samples N      number of sampled dies per design, at least 1 (default 256)
  --seed S         base seed of the sampling streams (default 1)
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
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| FlowError::Usage(format!("bad seed {v}")))?;
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

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_owned()
    }
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
        blocks.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"instances\": {},\n      \
             \"nominal_mttf_lo_years\": {},\n      \"static_bound_years\": {},\n      \
             \"min_years\": {},\n      \"p5_years\": {},\n      \"median_years\": {},\n      \
             \"mean_years\": {},\n      \"p95_years\": {},\n      \"max_years\": {},\n      \
             \"p5_retention\": {},\n      \"contains_static_bound\": {}\n    }}",
            design.name,
            outcome.report.instances.len(),
            json_num(dist.nominal_years),
            json_num(dist.static_bound_years),
            json_num(dist.min_years()),
            json_num(dist.quantile_years(0.05)),
            json_num(dist.median_years()),
            json_num(dist.mean_years()),
            json_num(dist.quantile_years(0.95)),
            json_num(dist.max_years()),
            json_num(dist.p5_retention()),
            contained,
        ));
    }

    if let Some(path) = &args.json {
        let json = format!(
            "{{\n  \"schema\": \"reliaware-mcvar-v1\",\n  \"samples\": {samples},\n  \
             \"seed\": {},\n  \"sigma_vth\": {},\n  \"clamp_sigmas\": {},\n  \
             \"designs\": [\n{}\n  ]\n}}\n",
            args.seed,
            json_num(args.sigma_vth),
            json_num(args.clamp),
            blocks.join(",\n")
        );
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
