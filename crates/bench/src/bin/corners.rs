//! Extension: guardband sensitivity to the environment corner. The paper
//! evaluates one corner (125 °C, 1.2 V); the BTI model carries
//! Arrhenius/field acceleration, so hotter or over-driven parts need larger
//! guardbands — quantified here on the DCT benchmark.

use bench::{fresh_library, library_for, ps, row};
use bti::AgingScenario;
use flow::{estimate_guardband, FlowError};
use sta::Constraints;
use std::process::ExitCode;

const USAGE: &str = "usage: corners [--report <path>]

Guardband vs environment corner on the DCT benchmark.

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

    let fresh = ctx.stage("characterize", || fresh_library(&ctx))?;
    let design = circuits::dct8();
    let nl = ctx.stage("synthesis", || bench::synthesized(&design, &fresh))?;
    let c = Constraints::default();

    println!("Extension — guardband vs environment corner (DCT, worst case λ=1, 10y)\n");
    row(&["corner".into(), "aged CP [ps]".into(), "guardband [ps]".into()]);
    row(&["---".into(), "---".into(), "---".into()]);
    for (label, temp, vdd) in [
        ("75C / 1.10V (relaxed)", 348.15, 1.10),
        ("125C / 1.20V (paper nominal)", 398.15, 1.20),
        ("150C / 1.32V (hot, overdriven)", 423.15, 1.32),
    ] {
        let scenario = AgingScenario::worst_case(10.0).with_environment(temp, vdd);
        let aged = ctx.stage("characterize", || library_for(&ctx, &scenario))?;
        let gb = ctx.stage("sta", || estimate_guardband(&nl, &fresh, &aged, &c))?;
        ctx.add_tasks("sta", 1);
        row(&[label.into(), ps(gb.aged_delay), ps(gb.guardband())]);
    }
    println!("\nGuardbands grow monotonically with junction temperature and stress");
    println!("voltage — the acceleration factors of the BTI kinetics (DESIGN.md).");
    bench::cli::emit_report(&ctx, report.as_deref())
}

fn main() -> ExitCode {
    bench::cli::run(USAGE, run)
}
