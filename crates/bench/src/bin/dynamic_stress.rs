//! Sec. 4.2 — dynamic (workload-driven) aging stress: play a workload on a
//! benchmark, extract per-gate duty cycles, annotate the netlist with
//! λ-indexed cells and time it against the merged complete
//! degradation-aware library.
//!
//! Environment: `RELIAWARE_STEPS` sets the λ-grid interval count (default 2
//! → a 3×3 grid / 9 characterized libraries; the paper's 10 → 121 libraries
//! takes ~30 min on one core, all cached).

use bench::{characterizer_in, ps, row, LIFETIME_YEARS};
use flow::FlowError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sta::Constraints;
use std::process::ExitCode;

const USAGE: &str = "usage: dynamic_stress [--report <path>]

Workload-driven λ-annotated timing vs the static worst case (Sec. 4.2).
RELIAWARE_STEPS sets the λ-grid interval count (default 2).

options:
  --report <path>  write a reliaware-run-v1 JSON run report
  -h, --help       show this help
";

fn run() -> Result<(), FlowError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (rest, report) = bench::cli::take_common_flags(&argv)?;
    if let Some(extra) = rest.first() {
        return Err(FlowError::Usage(format!("unexpected argument `{extra}`")));
    }
    let ctx = bench::context();
    let steps: u32 =
        std::env::var("RELIAWARE_STEPS").ok().and_then(|s| s.parse().ok()).unwrap_or(2);
    let fresh = ctx.stage("characterize", || bench::fresh_library(&ctx))?;
    let chars = characterizer_in(&ctx)?;
    let complete = ctx.stage("characterize", || chars.complete_library(steps, LIFETIME_YEARS))?;
    println!(
        "complete degradation-aware library: {} λ-indexed cells ({} scenarios × 68)\n",
        complete.len(),
        (steps + 1) * (steps + 1)
    );

    let design = circuits::dsp_fir();
    let nl = ctx.stage("synthesis", || bench::synthesized(&design, &fresh))?;

    // Two workloads with very different signal statistics.
    let mut rng = StdRng::seed_from_u64(99);
    let uniform: Vec<Vec<bool>> =
        (0..400).map(|_| (0..design.input_width()).map(|_| rng.gen_bool(0.5)).collect()).collect();
    let idle: Vec<Vec<bool>> =
        (0..400).map(|_| (0..design.input_width()).map(|_| rng.gen_bool(0.05)).collect()).collect();

    println!(
        "Sec 4.2 — dynamic aging stress on {} ({} instances, 10y lifetime)\n",
        design.name,
        nl.instance_count()
    );
    row(&[
        "workload / extraction".into(),
        "fresh CP [ps]".into(),
        "dynamic aged CP [ps]".into(),
        "dynamic GB [ps]".into(),
        "static worst GB [ps]".into(),
    ]);
    row(&["---".into(), "---".into(), "---".into(), "---".into(), "---".into()]);
    for (name, vectors) in [("uniform p=0.5", &uniform), ("idle p=0.05", &idle)] {
        for (mode_name, mode) in [
            ("gate-average (paper fn.2)", flow::DutyExtraction::GateAverage),
            ("worst-pin (conservative)", flow::DutyExtraction::WorstPin),
        ] {
            let report = ctx.stage("sta", || {
                flow::dynamic_stress_analysis_with(
                    &nl,
                    &fresh,
                    &complete,
                    steps,
                    Some("clk"),
                    vectors,
                    &Constraints::default(),
                    mode,
                )
            })?;
            ctx.add_tasks("sta", 1);
            row(&[
                format!("{name}, {mode_name}"),
                ps(report.fresh_delay),
                ps(report.aged_delay),
                ps(report.dynamic_guardband()),
                ps(report.static_guardband()),
            ]);
        }
    }
    println!("\nThe workload-specific guardband is bounded by the static worst case,");
    println!("exactly as Sec. 4.2 argues; suppressing aging for *any* workload");
    println!("requires the λ=1 static analysis.");
    bench::cli::emit_report(&ctx, report.as_deref())
}

fn main() -> ExitCode {
    bench::cli::run(USAGE, run)
}
