//! Fig. 6(c) — PSNR of the gate-level DCT→IDCT chain under aging, with
//! **no guardband**: both the aging-unaware and aging-aware designs run at
//! the frequency set by the unaware design's fresh critical path.
//!
//! `--image N` sets the test image edge length (default 32).

use bench::cli::{self, Args};
use bench::{balanced_library, fresh_library, library_for, worst_library, ImageChain};
use bti::AgingScenario;
use flow::FlowError;
use std::num::NonZeroUsize;

pub fn run(args: &Args) -> Result<(), FlowError> {
    let size = args.get::<NonZeroUsize>("--image")?.map_or(32, NonZeroUsize::get);
    let ctx = bench::context();
    let fresh = ctx.stage("characterize", || fresh_library(&ctx))?;
    let aged10 = ctx.stage("characterize", || worst_library(&ctx))?;

    let unaware = ctx.stage("synthesis", || ImageChain::build(&fresh, &aged10, false))?;
    let aware = ctx.stage("synthesis", || ImageChain::build(&fresh, &aged10, true))?;
    // The common frequency: maximum performance in the absence of aging
    // (the unaware design's fresh CP), with a hair of margin so the fresh
    // run itself is not metastable at the sampling edge.
    let period = ctx.stage("sta", || unaware.fresh_period(&fresh))? * 1.001;
    println!(
        "clock period = {:.1} ps (fresh critical path of the traditional design; no guardband)\n",
        period * 1e12
    );

    let image = imgproc::synthetic::test_image(size, size, 7);
    let scenarios: Vec<(&str, liberty::Library)> = vec![
        ("unaged (year 0)", fresh.clone()),
        ("balanced λ=0.5, 1y", ctx.stage("characterize", || balanced_library(&ctx, 1.0))?),
        ("balanced λ=0.5, 10y", ctx.stage("characterize", || balanced_library(&ctx, 10.0))?),
        (
            "worst λ=1, 1y",
            ctx.stage("characterize", || library_for(&ctx, &AgingScenario::worst_case(1.0)))?,
        ),
        (
            "worst λ=1, 3y",
            ctx.stage("characterize", || library_for(&ctx, &AgingScenario::worst_case(3.0)))?,
        ),
        ("worst λ=1, 10y", aged10.clone()),
    ];

    println!("Fig 6(c) — PSNR [dB] of the DCT→IDCT chain on a {size}x{size} test image");
    println!("(30 dB is the acceptability threshold)\n");
    println!("| scenario | aging-unaware design | aging-aware design |");
    println!("| --- | --- | --- |");
    for (name, lib) in &scenarios {
        let ru = ctx.stage("system-eval", || unaware.run(&image, lib, period))?;
        let ra = ctx.stage("system-eval", || aware.run(&image, lib, period))?;
        ctx.add_tasks("system-eval", 2);
        println!(
            "| {name} | {:.1} dB ({} late) | {:.1} dB ({} late) |",
            ru.psnr_db, ru.late_events, ra.psnr_db, ra.late_events
        );
    }
    println!("\nPaper shape: the unaware design collapses within a year of worst-case");
    println!("aging (9 dB; 19 dB balanced), while the aware design holds unaged");
    println!("quality even after 10 years of worst-case stress.");
    cli::emit_report(&ctx, args.report().as_deref())
}
