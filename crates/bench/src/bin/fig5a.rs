//! Fig. 5(a) — guardband estimation with both `ΔVth` and Δμ versus ΔVth-only
//! (the state of the art): ignoring the mobility degradation
//! under-estimates the required guardband.

use bench::{
    benchmark_netlists, fresh_library, pct, ps, row, worst_library, worst_vth_only_library,
};
use flow::{estimate_guardband, FlowError};
use sta::Constraints;
use std::process::ExitCode;

const USAGE: &str = "usage: fig5a [--report <path>]

Guardband with Vth+mu vs Vth-only degradation (paper Fig. 5a).

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
    let aged_full = ctx.stage("characterize", || worst_library(&ctx))?;
    let aged_vth = ctx.stage("characterize", || worst_vth_only_library(&ctx))?;
    let designs = ctx.stage("synthesis", || benchmark_netlists(&fresh))?;
    let c = Constraints::default();

    println!("Fig 5(a) — required guardband [ps], worst-case aging, 10 years\n");
    row(&[
        "design".into(),
        "Vth+mu [ours]".into(),
        "Vth only [SoA]".into(),
        "underestimation".into(),
    ]);
    row(&["---".into(), "---".into(), "---".into(), "---".into()]);
    let mut ratios = Vec::new();
    for (design, nl) in &designs {
        let full = ctx.stage("sta", || estimate_guardband(nl, &fresh, &aged_full, &c))?;
        let vth = ctx.stage("sta", || estimate_guardband(nl, &fresh, &aged_vth, &c))?;
        ctx.add_tasks("sta", 2);
        let under = vth.guardband() / full.guardband() - 1.0;
        ratios.push(under);
        row(&[design.name.clone(), ps(full.guardband()), ps(vth.guardband()), pct(under)]);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("\naverage under-estimation when neglecting mobility: {}", pct(avg));
    println!("(paper reports −19% on average)");
    bench::cli::emit_report(&ctx, report.as_deref())
}

fn main() -> ExitCode {
    bench::cli::run(USAGE, run)
}
