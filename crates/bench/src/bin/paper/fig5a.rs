//! Fig. 5(a) — guardband estimation with both `ΔVth` and Δμ versus ΔVth-only
//! (the state of the art): ignoring the mobility degradation
//! under-estimates the required guardband.

use bench::cli::{self, Args};
use bench::{
    benchmark_netlists, fresh_library, pct, ps, row, worst_library, worst_vth_only_library,
};
use flow::{estimate_guardband, FlowError};
use sta::Constraints;

pub fn run(args: &Args) -> Result<(), FlowError> {
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
    cli::emit_report(&ctx, args.report().as_deref())
}
