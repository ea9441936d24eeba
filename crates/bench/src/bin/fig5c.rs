//! Fig. 5(c) — the cost of ignoring critical-path switching: re-costing
//! only the *initial* critical path under aging (as CP-only approaches do)
//! versus re-analyzing the whole circuit, which may surface a new critical
//! path.

use bench::{benchmark_netlists, fresh_library, pct, ps, row, worst_library};
use flow::{estimate_guardband, guardband_of_initial_critical_path, FlowError};
use sta::Constraints;
use std::process::ExitCode;

const USAGE: &str = "usage: fig5c [--report <path>]

Guardband with vs without critical-path-switch awareness (paper Fig. 5c).

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
    let aged = ctx.stage("characterize", || worst_library(&ctx))?;
    let designs = ctx.stage("synthesis", || benchmark_netlists(&fresh))?;
    let c = Constraints::default();

    println!("Fig 5(c) — guardband [ps]: full re-analysis vs initial-CP-only tracking\n");
    row(&[
        "design".into(),
        "CP switch aware [ours]".into(),
        "initial CP only [SoA]".into(),
        "error".into(),
        "CP switched?".into(),
    ]);
    row(&["---".into(), "---".into(), "---".into(), "---".into(), "---".into()]);
    let mut errors = Vec::new();
    for (design, nl) in &designs {
        let full = ctx.stage("sta", || estimate_guardband(nl, &fresh, &aged, &c))?;
        let cp_only =
            ctx.stage("sta", || guardband_of_initial_critical_path(nl, &fresh, &aged, &c))?;
        ctx.add_tasks("sta", 2);
        let err = cp_only / full.guardband() - 1.0;
        errors.push(err);
        row(&[
            design.name.clone(),
            ps(full.guardband()),
            ps(cp_only),
            pct(err),
            if full.critical_path_switched { "yes".into() } else { "no".into() },
        ]);
    }
    let avg = errors.iter().sum::<f64>() / errors.len() as f64;
    println!("\naverage error from tracking only the initial critical path: {}", pct(avg));
    println!("(paper reports −6% on average, wrong in all circuits)");
    bench::cli::emit_report(&ctx, report.as_deref())
}

fn main() -> ExitCode {
    bench::cli::run(USAGE, run)
}
