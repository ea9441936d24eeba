//! Fig. 6(a,b) — containing guardbands via aging-aware synthesis: the same
//! designs synthesized with the initial library (baseline, requiring a
//! guardband) versus with the degradation-aware library (aware, with a
//! contained guardband), plus the area overhead of awareness.

use bench::{aware_netlist, benchmark_netlists, fresh_library, pct, ps, row, worst_library};
use flow::FlowError;
use sta::{analyze, Constraints};
use std::process::ExitCode;

const USAGE: &str = "usage: fig6a [--report <path>]

Guardband containment via aging-aware synthesis (paper Fig. 6a/6b).

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
    let baselines = ctx.stage("synthesis", || benchmark_netlists(&fresh))?;
    let c = Constraints::default();

    println!("Fig 6(a) — guardband [ps]: traditional vs aging-aware synthesis (worst case, 10y)\n");
    row(&[
        "design".into(),
        "required GB (baseline)".into(),
        "contained GB (aware)".into(),
        "reduction".into(),
        "freq gain".into(),
    ]);
    row(&["---".into(), "---".into(), "---".into(), "---".into(), "---".into()]);
    let mut reductions = Vec::new();
    let mut area_rows = Vec::new();
    for (design, baseline) in &baselines {
        let aware = ctx.stage("synthesis", || aware_netlist(design, &fresh, &aged))?;
        let baseline_fresh = ctx.stage("sta", || analyze(baseline, &fresh, &c))?.critical_delay();
        let baseline_aged = ctx.stage("sta", || analyze(baseline, &aged, &c))?.critical_delay();
        let aware_aged = ctx.stage("sta", || analyze(&aware, &aged, &c))?.critical_delay();
        ctx.add_tasks("sta", 3);
        let required = baseline_aged - baseline_fresh;
        let contained = aware_aged - baseline_fresh;
        let reduction = 1.0 - contained / required;
        reductions.push(reduction);
        row(&[
            design.name.clone(),
            ps(required),
            ps(contained),
            pct(reduction),
            pct(baseline_aged / aware_aged - 1.0),
        ]);
        let ba = baseline.area(&fresh)?;
        let aa = aware.area(&aged)?;
        area_rows.push((design.name.clone(), ba, aa));
    }
    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    println!("\naverage guardband reduction: {}", pct(avg));
    println!("(paper reports 50% on average, up to 75%, with ~4% higher frequency)");

    println!("\nFig 6(b) — area [µm²]\n");
    row(&["design".into(), "baseline".into(), "aging-aware".into(), "overhead".into()]);
    row(&["---".into(), "---".into(), "---".into(), "---".into()]);
    let mut overheads = Vec::new();
    for (name, ba, aa) in &area_rows {
        let o = aa / ba - 1.0;
        overheads.push(o);
        row(&[name.clone(), format!("{ba:.1}"), format!("{aa:.1}"), pct(o)]);
    }
    let avg_area = overheads.iter().sum::<f64>() / overheads.len() as f64;
    println!("\naverage area overhead: {} (paper reports ~0.2%)", pct(avg_area));
    bench::cli::emit_report(&ctx, report.as_deref())
}

fn main() -> ExitCode {
    bench::cli::run(USAGE, run)
}
