//! Fig. 7 — the DCT→IDCT output images themselves: the original, the
//! aging-unaware design and the aging-aware design after 1 and 10 years,
//! written as PGM files under `target/fig7/`.
//!
//! `--image N` sets the test image edge length (default 48).

use bench::cli::{self, Args};
use bench::{balanced_library, fresh_library, library_for, worst_library, ImageChain};
use bti::AgingScenario;
use flow::FlowError;
use imgproc::write_pgm;
use std::num::NonZeroUsize;
use std::path::PathBuf;

pub fn run(args: &Args) -> Result<(), FlowError> {
    let size = args.get::<NonZeroUsize>("--image")?.map_or(48, NonZeroUsize::get);
    let ctx = bench::context();
    let out_dir = PathBuf::from("target/fig7");
    std::fs::create_dir_all(&out_dir).map_err(|e| FlowError::io(out_dir.display(), &e))?;

    let fresh = ctx.stage("characterize", || fresh_library(&ctx))?;
    let aged10 = ctx.stage("characterize", || worst_library(&ctx))?;
    let unaware = ctx.stage("synthesis", || ImageChain::build(&fresh, &aged10, false))?;
    let aware = ctx.stage("synthesis", || ImageChain::build(&fresh, &aged10, true))?;
    let period = ctx.stage("sta", || unaware.fresh_period(&fresh))? * 1.001;

    let image = imgproc::synthetic::test_image(size, size, 7);
    let original = out_dir.join("original.pgm");
    std::fs::write(&original, write_pgm(&image))
        .map_err(|e| FlowError::io(original.display(), &e))?;

    let scenarios: Vec<(&str, liberty::Library)> = vec![
        ("year1_balance", ctx.stage("characterize", || balanced_library(&ctx, 1.0))?),
        (
            "year1_worst",
            ctx.stage("characterize", || library_for(&ctx, &AgingScenario::worst_case(1.0)))?,
        ),
        ("year10_worst", aged10.clone()),
    ];
    println!(
        "Fig 7 — output images written to {} ({}x{} @ {:.0} ps clock)\n",
        out_dir.display(),
        size,
        size,
        period * 1e12
    );
    for (label, chain) in [("unaware", &unaware), ("aware", &aware)] {
        for (scenario, lib) in &scenarios {
            let result = ctx.stage("system-eval", || chain.run(&image, lib, period))?;
            ctx.add_tasks("system-eval", 1);
            let file = out_dir.join(format!("{label}_{scenario}.pgm"));
            std::fs::write(&file, write_pgm(&result.output))
                .map_err(|e| FlowError::io(file.display(), &e))?;
            println!(
                "{label:>8} {scenario:<14} PSNR {:>6.1} dB  late events {:>6}  -> {}",
                result.psnr_db,
                result.late_events,
                file.display()
            );
        }
    }
    println!("\nPaper shape: the reliability-unaware outputs degrade visibly within a");
    println!("year of worst-case aging; the reliability-aware outputs stay clean far longer.");
    cli::emit_report(&ctx, args.report().as_deref())
}
