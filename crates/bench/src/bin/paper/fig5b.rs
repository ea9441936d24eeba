//! Fig. 5(b) — guardbands from a single operating condition versus the
//! full multi-OPC tables: single-OPC characterization (pessimistic corner)
//! grossly over-estimates the required guardband.

use bench::cli::{self, Args};
use bench::{benchmark_netlists, fresh_library, pct, ps, row, worst_library};
use flow::{estimate_guardband, single_opc_aged_library, FlowError};
use sta::Constraints;

pub fn run(args: &Args) -> Result<(), FlowError> {
    let ctx = bench::context();
    let fresh = ctx.stage("characterize", || fresh_library(&ctx))?;
    let aged = ctx.stage("characterize", || worst_library(&ctx))?;
    // The single-OPC state of the art characterizes aging at one
    // pessimistic corner — large slew, small load, where Fig. 1 shows the
    // biggest impact — and applies that degradation factor everywhere.
    let pess_slew = 300e-12;
    let pess_load = 0.5e-15;
    let aged_single =
        ctx.stage("library", || single_opc_aged_library(&fresh, &aged, pess_slew, pess_load));

    let designs = ctx.stage("synthesis", || benchmark_netlists(&fresh))?;
    let c = Constraints::default();

    println!("Fig 5(b) — required guardband [ps]: multiple OPCs vs a single OPC\n");
    row(&[
        "design".into(),
        "49 OPCs [ours]".into(),
        "single OPC [SoA]".into(),
        "overestimation".into(),
    ]);
    row(&["---".into(), "---".into(), "---".into(), "---".into()]);
    let mut ratios = Vec::new();
    for (design, nl) in &designs {
        let multi = ctx.stage("sta", || estimate_guardband(nl, &fresh, &aged, &c))?;
        let single = ctx.stage("sta", || estimate_guardband(nl, &fresh, &aged_single, &c))?;
        ctx.add_tasks("sta", 2);
        let over = single.guardband() / multi.guardband() - 1.0;
        ratios.push(over);
        row(&[design.name.clone(), ps(multi.guardband()), ps(single.guardband()), pct(over)]);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("\naverage over-estimation from a single OPC: {}", pct(avg));
    println!("(paper reports +214% on average)");
    cli::emit_report(&ctx, args.report().as_deref())
}
