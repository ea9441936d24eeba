//! Fig. 2 — distribution of aging-induced delay change across the whole
//! cell library: a single operating condition sees only degradation, the
//! full 7×7 OPC grid reveals a wide spread including *improvements*.

use bench::cli::{self, Args};
use bench::{fresh_library, worst_library};
use flow::FlowError;
use liberty::Table2d;

/// Delays shorter than this are dominated by measurement convention (50 %
/// crossings can even go negative for very slow inputs); ratios over them
/// are meaningless and excluded, as in any sane guardband analysis.
const MIN_DELAY: f64 = 2.0e-12;

fn deltas(fresh: &Table2d, aged: &Table2d, single_opc: bool) -> Vec<f64> {
    if single_opc {
        // Single-OPC baseline: the nominal fast-input corner (first slew,
        // smallest load) — the conventional characterization point.
        let slew = fresh.slew_axis()[0];
        let load = fresh.load_axis()[0];
        let (f, a) = (fresh.value(slew, load), aged.value(slew, load));
        if f > MIN_DELAY {
            vec![a / f - 1.0]
        } else {
            Vec::new()
        }
    } else {
        let mut out = Vec::new();
        for si in 0..fresh.slew_axis().len() {
            for li in 0..fresh.load_axis().len() {
                let (f, a) = (fresh.at(si, li), aged.at(si, li));
                if f > MIN_DELAY {
                    out.push(a / f - 1.0);
                }
            }
        }
        out
    }
}

fn histogram(title: &str, samples: &[f64]) {
    println!("\n{title}  ({} samples)", samples.len());
    let improved = samples.iter().filter(|&&d| d < 0.0).count();
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "  range: {:+.1}% .. {:+.1}%   improved: {:.1}%",
        min * 100.0,
        max * 100.0,
        improved as f64 / samples.len() as f64 * 100.0
    );
    let lo = -0.6;
    let hi = 0.6;
    let bins = 24;
    let mut counts = vec![0usize; bins];
    for &d in samples {
        let x = ((d - lo) / (hi - lo) * bins as f64).floor();
        let b = (x.max(0.0) as usize).min(bins - 1);
        counts[b] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    for (b, &c) in counts.iter().enumerate() {
        let left = lo + (hi - lo) * b as f64 / bins as f64;
        let bar = "#".repeat((c * 50).div_ceil(peak).min(50));
        println!("  {:>6.0}% | {:<50} {}", left * 100.0, bar, c);
    }
}

pub fn run(args: &Args) -> Result<(), FlowError> {
    let ctx = bench::context();
    let fresh = ctx.stage("characterize", || fresh_library(&ctx))?;
    let aged = ctx.stage("characterize", || worst_library(&ctx))?;

    let mut single = Vec::new();
    let mut multi = Vec::new();
    for cell in fresh.cells() {
        let Some(aged_cell) = aged.cell(&cell.name) else { continue };
        for out in &cell.outputs {
            let Some(aged_out) = aged_cell.output(&out.name) else { continue };
            for arc in &out.arcs {
                let Some(aged_arc) = aged_out.arc_from(&arc.related_pin) else { continue };
                for (f, a) in
                    [(&arc.cell_rise, &aged_arc.cell_rise), (&arc.cell_fall, &aged_arc.cell_fall)]
                {
                    single.extend(deltas(f, a, true));
                    multi.extend(deltas(f, a, false));
                }
            }
        }
    }
    histogram("Fig 2 (left): single OPC per arc — delay change under worst-case aging", &single);
    histogram("Fig 2 (right): all 49 OPCs per arc — delay change under worst-case aging", &multi);
    println!("\nPaper shape: single-OPC histogram is all-degradation with a narrow range;");
    println!("multi-OPC histogram is much wider and a noticeable share of points improve.");
    ctx.add_tasks("report", 2);
    cli::emit_report(&ctx, args.report().as_deref())
}
