//! Offline trainer for the tier-0 learned surrogate.
//!
//! Characterizes the (λp, λn) complete-library grid with a **collect-only**
//! surrogate tier (budget 0) in front of the arc cache — every simulated
//! arc feeds the sample buffer while the produced library stays bit-exact —
//! then refits the per-class ridge models with their split-conformal error
//! bounds and writes the deterministic model text to `--model`.
//!
//! Before the model is accepted, it is evaluated on **held-out off-grid**
//! λ points the training grid never saw. The run fails if the held-out
//! error exceeds the accuracy budget, or if the collect-only pass is not
//! bit-identical to a direct, uncached characterization. A machine-readable
//! metrics record (`reliaware-surrogate-train-v1`) goes to `--metrics`.
//!
//! ```text
//! surrogate_train --model PATH [--metrics PATH] [--smoke] [--steps N]
//!                 [--cells A,B,...] [--threads N] [--budget F]
//!                 [--cache-dir DIR]
//! ```
//!
//! Point `--cache-dir` at a warm arc cache (e.g. the serve daemon's) and
//! the grid pass replays from disk instead of re-simulating.

use bench::cli::{self, Args, Flag};
use bti::json::Json;
use bti::{AgingScenario, DutyCycle};
use flow::{ArcCache, Characterizer, FlowError, SurrogateTier};
use std::num::{NonZeroU32, NonZeroUsize};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread::available_parallelism;
use std::time::Instant;
use stdcells::CellSet;

const USAGE: &str = "usage: surrogate_train --model PATH [--metrics PATH] [--smoke] [--steps N]
                       [--cells A,B,...] [--threads N] [--budget F]
                       [--cache-dir DIR]

options:
  --model PATH     write the trained model text here (required)
  --metrics PATH   write the reliaware-surrogate-train-v1 metrics JSON here
  --smoke          tiny pinned OPC grid for CI
  --steps N        λ-grid interval count (default: 4 smoke, 6 full)
  --cells A,B,...  cells to train on (default: INV_X1,NAND2_X1)
  --threads N      worker threads for the grid characterization
  --budget F       held-out relative-error budget (default: 0.05)
  --cache-dir DIR  warm arc-cache directory (default: memory only)
  -h, --help       show this help
";

/// Held-out λ points: deliberately off every training grid this binary can
/// produce (grid values are multiples of `1/steps`).
const HELDOUT_LAMBDAS: [(f64, f64); 3] = [(0.37, 0.81), (0.63, 0.19), (0.11, 0.52)];

struct Options {
    model: PathBuf,
    metrics: Option<PathBuf>,
    smoke: bool,
    steps: u32,
    cells: Vec<String>,
    threads: usize,
    budget: f64,
    cache_dir: Option<PathBuf>,
}

const FLAGS: &[Flag] = &[
    Flag::value("--model"),
    Flag::value("--metrics"),
    Flag::switch("--smoke"),
    Flag::value("--steps"),
    Flag::value("--cells"),
    Flag::value("--threads"),
    Flag::value("--budget"),
    Flag::value("--cache-dir"),
];

fn options(args: &Args) -> Result<Options, FlowError> {
    let smoke = args.has("--smoke");
    let model =
        args.get("--model")?.ok_or_else(|| FlowError::Usage("--model is required".into()))?;
    let cells = args.get::<String>("--cells")?.map_or_else(
        || vec!["INV_X1".into(), "NAND2_X1".into()],
        |list| list.split(',').map(|c| c.trim().to_string()).collect(),
    );
    let threads = args.get::<NonZeroUsize>("--threads")?.or(available_parallelism().ok());
    let budget = args.get::<f64>("--budget")?.unwrap_or(0.05);
    if !(budget.is_finite() && budget > 0.0) {
        return Err(cli::invalid("--budget", budget, "must be finite and positive"));
    }
    // The degree-2 polynomial basis needs a dense enough λ grid to pin the
    // off-grid behavior down: 2 steps (9 scenarios) leaves the fit
    // underdetermined and held-out error an order of magnitude over budget,
    // 4 steps (25 scenarios) brings it safely under.
    let steps = args.get::<NonZeroU32>("--steps")?.map_or(if smoke { 4 } else { 6 }, u32::from);
    Ok(Options {
        model,
        metrics: args.get("--metrics")?,
        smoke,
        steps,
        cells,
        threads: threads.map_or(1, usize::from),
        budget,
        cache_dir: args.get("--cache-dir")?,
    })
}

fn run(args: &Args) -> Result<(), FlowError> {
    let opts = options(args)?;
    let cells: Vec<&str> = opts.cells.iter().map(String::as_str).collect();
    let set = CellSet::nangate45_like().subset(&cells);
    let config = bench::char_config(opts.smoke, opts.threads);
    println!(
        "surrogate_train: mode={}, steps={}, cells={}, budget={}",
        if opts.smoke { "smoke" } else { "full" },
        opts.steps,
        opts.cells.join(","),
        opts.budget
    );

    // Training pass: budget 0 collects every simulated arc. A warm disk
    // cache replays tables instead of re-simulating; observation happens
    // on both paths, so the sample set is identical either way.
    let collect = Arc::new(SurrogateTier::new(0.0));
    let cache = match &opts.cache_dir {
        Some(dir) => ArcCache::with_dir(dir),
        None => ArcCache::in_memory(),
    };
    let trainer = Characterizer::new(set.clone(), config.clone())?
        .with_cache(Arc::new(cache.with_tier0(Arc::clone(&collect))));
    let start = Instant::now();
    trainer.complete_library(opts.steps, bench::LIFETIME_YEARS)?;
    let train_secs = start.elapsed().as_secs_f64();
    let samples = collect.refit_now() as u64;
    let model = collect
        .model()
        .ok_or_else(|| FlowError::Usage("training produced no model (too few samples)".into()))?;
    println!("  trained {} classes from {samples} samples in {train_secs:.3} s", model.len());

    // Held-out evaluation on off-grid λ points through a second collect
    // tier; the first point is also characterized directly (no cache, no
    // tier) to prove the collect path bit-identical.
    let lambda = |v: f64| DutyCycle::new(v).map_err(|e| FlowError::Usage(e.to_string()));
    let heldout: Vec<AgingScenario> = HELDOUT_LAMBDAS
        .iter()
        .map(|&(p, n)| Ok(AgingScenario::new(lambda(p)?, lambda(n)?, bench::LIFETIME_YEARS)))
        .collect::<Result<_, FlowError>>()?;
    let harvest = Arc::new(SurrogateTier::new(0.0));
    let heldout_char = Characterizer::new(set.clone(), config.clone())?
        .with_cache(Arc::new(ArcCache::in_memory().with_tier0(Arc::clone(&harvest))));
    let heldout_libs =
        heldout.iter().map(|s| heldout_char.library(s)).collect::<Result<Vec<_>, _>>()?;
    let direct = Characterizer::new(set, config)?.library(&heldout[0])?;
    let bit_identical = direct == heldout_libs[0];
    if !bit_identical {
        return Err(flow::EvalError::Simulation {
            message: "collect-only tier diverged from direct characterization".into(),
        }
        .into());
    }
    let eval = model.evaluate(&harvest.samples());
    println!(
        "  held-out: {} points, max_rel={:.6}, mean_rel={:.6}, skipped={}",
        eval.points, eval.max_rel, eval.mean_rel, eval.skipped
    );
    if eval.skipped > 0 {
        return Err(flow::EvalError::Simulation {
            message: format!("{} held-out samples had no predicting class", eval.skipped),
        }
        .into());
    }
    if eval.max_rel > opts.budget {
        return Err(flow::EvalError::Simulation {
            message: format!(
                "held-out error {:.6} exceeds the {} budget — model rejected",
                eval.max_rel, opts.budget
            ),
        }
        .into());
    }

    model.save(&opts.model).map_err(|e| FlowError::io(opts.model.display(), &e))?;
    println!("wrote {}", opts.model.display());
    if let Some(path) = &opts.metrics {
        let classes = model.class_summaries();
        let json = metrics_record(&opts, train_secs, samples, &classes, &eval).render_pretty();
        std::fs::write(path, json).map_err(|e| FlowError::io(path.display(), &e))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// The `reliaware-surrogate-train-v1` record; `classes` holds
/// `(class, training points, conformal bound)` per fitted class.
fn metrics_record(
    opts: &Options,
    train_secs: f64,
    samples: u64,
    classes: &[(String, usize, f64)],
    eval: &surrogate::ErrorSummary,
) -> Json {
    let class_bounds = classes.iter().map(|(class, points, bound)| {
        Json::obj([
            ("class", class.as_str().into()),
            ("train_points", (*points).into()),
            ("bound", (*bound).into()),
        ])
    });
    let lambdas = HELDOUT_LAMBDAS.iter().map(|&(p, n)| Json::Arr(vec![p.into(), n.into()]));
    Json::obj([
        ("schema", "reliaware-surrogate-train-v1".into()),
        (
            "config",
            Json::obj([
                ("mode", if opts.smoke { "smoke" } else { "full" }.into()),
                ("grid_steps", opts.steps.into()),
                ("cells", opts.cells.iter().map(String::as_str).collect()),
                ("budget", opts.budget.into()),
            ]),
        ),
        (
            "train",
            Json::obj([
                ("seconds", train_secs.into()),
                ("samples", samples.into()),
                ("classes", classes.len().into()),
            ]),
        ),
        ("class_bounds", class_bounds.collect()),
        (
            "heldout",
            Json::obj([
                ("lambdas", lambdas.collect()),
                ("points", eval.points.into()),
                ("max_rel", eval.max_rel.into()),
                ("mean_rel", eval.mean_rel.into()),
                ("skipped", eval.skipped.into()),
            ]),
        ),
        ("fallback_bit_identical", true.into()),
    ])
}

fn main() -> ExitCode {
    cli::run(USAGE, FLAGS, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let opts = Options {
            model: PathBuf::new(),
            metrics: None,
            smoke: true,
            steps: 4,
            cells: vec!["INV_X1".into(), "NAND\"2".into()],
            threads: 1,
            budget: 0.05,
            cache_dir: None,
        };
        let classes =
            vec![("INV \"a\"".to_owned(), 40, 0.0625), ("NAND2\\b".to_owned(), 3, f64::INFINITY)];
        let eval =
            surrogate::ErrorSummary { points: 12, max_rel: 0.01, mean_rel: 0.005, skipped: 0 };
        let record = metrics_record(&opts, 1.5, 43, &classes, &eval);
        let doc = Json::parse(&record.render_pretty()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("reliaware-surrogate-train-v1"));
        let config = doc.get("config").unwrap();
        let cells: Vec<_> = config.get("cells").and_then(Json::as_arr).unwrap().to_vec();
        assert_eq!(cells, vec![Json::from("INV_X1"), Json::from("NAND\"2")]);
        assert_eq!(config.get("budget").and_then(Json::as_f64), Some(0.05));
        assert_eq!(doc.get("train").unwrap().get("classes").and_then(Json::as_u64), Some(2));
        let bounds = doc.get("class_bounds").and_then(Json::as_arr).unwrap();
        assert_eq!(bounds[0].get("class").and_then(Json::as_str), Some("INV \"a\""));
        assert_eq!(bounds[0].get("bound").and_then(Json::as_f64), Some(0.0625));
        assert_eq!(bounds[1].get("class").and_then(Json::as_str), Some("NAND2\\b"));
        assert_eq!(bounds[1].get("bound"), Some(&Json::Null));
        let heldout = doc.get("heldout").unwrap();
        let first = heldout.get("lambdas").and_then(Json::as_arr).unwrap()[0].clone();
        assert_eq!(first, Json::Arr(vec![0.37.into(), 0.81.into()]));
        assert_eq!(heldout.get("max_rel").and_then(Json::as_f64), Some(0.01));
    }
}
