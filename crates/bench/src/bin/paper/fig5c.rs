//! Fig. 5(c) — the cost of ignoring critical-path switching: re-costing
//! only the *initial* critical path under aging (as CP-only approaches do)
//! versus re-analyzing the whole circuit, which may surface a new critical
//! path.

use bench::cli::{self, Args};
use bench::{benchmark_netlists, fresh_library, pct, ps, row, worst_library};
use flow::{estimate_guardband, guardband_of_initial_critical_path, FlowError};
use sta::Constraints;

pub fn run(args: &Args) -> Result<(), FlowError> {
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
    cli::emit_report(&ctx, args.report().as_deref())
}
