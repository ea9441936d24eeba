//! Performance-trajectory harness: times the flow's compute stages under a
//! pinned configuration and writes a `BENCH_<stamp>.json` record at the
//! repo root, so every PR can compare wall-clock numbers against history.
//! A `RUN_<stamp>.json` (`reliaware-run-v1`) observability report rides
//! along: the same stages recorded through [`flow::RunContext`], including
//! the arc-cache hit rates.
//!
//! Stages:
//!
//! 1. single-cell characterization (the simulator inner loop),
//! 2. one-scenario library build, sequential vs. pooled (engine speedup),
//! 3. the (λp, λn) complete-library grid, sequential vs. pooled,
//! 4. the same grid cold vs. warm through the two-tier arc cache,
//! 5. STA arrival propagation and gate-level logic simulation,
//! 6. incremental vs. full re-STA after single-instance λ re-annotation
//!    on the risc and vliw benchmarks (nodes recomputed vs. total),
//! 7. the static lifetime analysis (BTI/HCI/EM/TDDB interval bounds and
//!    the series-system MTTF lower bound) on the same two benchmarks,
//! 8. the characterization service: an in-process server is stormed with
//!    identical requests (must collapse to exactly one computation) and
//!    then driven through a warm concurrent load phase, recording
//!    throughput and latency percentiles,
//! 9. the tier-0 learned surrogate: a collect-only tier harvests training
//!    samples from a λ-grid characterization, the refit model then serves
//!    **novel off-grid** λ points without simulation, timed against the
//!    full-simulation reference (both on one worker) — the measured error
//!    must respect the conformal budget and the smoke-mode speedup must
//!    clear 20×,
//! 10. Monte-Carlo process variation: per-die MTTF sampling fanned over the
//!     worker pool — bit-identical at worker counts 1/2/8, every sampled die
//!     at or above the variation-aware static bound, samples/sec scaling
//!     against the one-worker run.
//!
//! Every parallel stage asserts bit-identical output against its sequential
//! twin before reporting a speedup; instrumentation is observational, so
//! the instrumented run stays bit-identical to an uninstrumented one.
//! Usage:
//!
//! ```text
//! perfbench [--smoke] [--steps N] [--threads N] [--out DIR] [--report FILE]
//! ```
//!
//! `--smoke` pins a tiny grid for CI; the default configuration is sized
//! for a workstation run (a few minutes on one core).

use bench::char_config;
use bench::cli::{self, Args, Flag};
use bti::json::Json;
use bti::{AgingScenario, DutyCycle};
use flow::{ArcCache, CharConfig, Characterizer, FlowError, RunContext, SurrogateTier};
use sta::{analyze, Constraints};
use std::num::{NonZeroU32, NonZeroUsize};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread::available_parallelism;
use std::time::Instant;
use stdcells::CellSet;
use synth::test_fixtures::fixture_library;
use synth::MapOptions;

const USAGE: &str = "usage: perfbench [--smoke] [--steps N] [--threads N] [--out DIR]
                 [--report FILE]

options:
  --smoke          tiny pinned grid for CI
  --steps N        λ-grid interval count (default: 1 smoke, 10 full)
  --threads N      worker threads for the pooled stages
  --out DIR        output directory for BENCH_/RUN_ records (default: repo root)
  --report FILE    additionally write the reliaware-run-v1 report to FILE
  -h, --help       show this help
";

struct Options {
    smoke: bool,
    steps: u32,
    threads: usize,
    out_dir: PathBuf,
    report: Option<PathBuf>,
}

const FLAGS: &[Flag] = &[
    Flag::switch("--smoke"),
    Flag::value("--steps"),
    Flag::value("--threads"),
    Flag::value("--out"),
    cli::REPORT,
];

fn options(args: &Args) -> Result<Options, FlowError> {
    let smoke = args.has("--smoke");
    let threads = args.get::<NonZeroUsize>("--threads")?.or(available_parallelism().ok());
    Ok(Options {
        smoke,
        steps: args.get::<NonZeroU32>("--steps")?.map_or(if smoke { 1 } else { 10 }, u32::from),
        threads: threads.map_or(1, usize::from),
        out_dir: args.get("--out")?.unwrap_or_else(bench::repo_root),
        report: args.report(),
    })
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

fn run(args: &Args) -> Result<(), FlowError> {
    let opts = options(args)?;
    let ctx = RunContext::new().with_workers(opts.threads);
    let mut stages: Vec<Json> = Vec::new();
    let lib_cells = if opts.smoke {
        vec!["INV_X1", "NAND2_X1", "NOR2_X1", "DFF_X1"]
    } else {
        vec!["INV_X1", "NAND2_X1", "NOR2_X1", "XOR2_X1", "AOI21_X1", "DFF_X1"]
    };
    let grid_cells = if opts.smoke { vec!["INV_X1"] } else { vec!["INV_X1", "NAND2_X1"] };
    let scenario = AgingScenario::worst_case(10.0);

    println!("perfbench: mode={}, steps={}, threads={}", mode(&opts), opts.steps, opts.threads);

    // 1. Single-cell characterization.
    let single = Characterizer::new(
        CellSet::nangate45_like().subset(&["INV_X1"]),
        char_config(opts.smoke, 1),
    )?;
    let (r, secs) = time(|| single.library(&scenario));
    r?;
    report(&ctx, &mut stages, "characterize_1cell", secs, 1, vec![]);

    // 2. One-scenario library: sequential vs. pooled task queue.
    let subset = CellSet::nangate45_like().subset(&lib_cells);
    let seq = Characterizer::new(subset.clone(), char_config(opts.smoke, 1))?;
    let (lib_seq, seq_secs) = time(|| seq.library(&scenario));
    let lib_seq = lib_seq?;
    let cells = lib_cells.len() as u64;
    report(&ctx, &mut stages, "library_seq", seq_secs, cells, vec![("cells", cells.into())]);
    let par = Characterizer::new(subset, char_config(opts.smoke, opts.threads))?;
    let (lib_par, par_secs) = time(|| par.library(&scenario));
    let lib_par = lib_par?;
    assert_eq!(lib_seq, lib_par, "pooled library must be bit-identical to sequential");
    report(
        &ctx,
        &mut stages,
        "library_par",
        par_secs,
        cells,
        vec![
            ("cells", cells.into()),
            ("threads", opts.threads.into()),
            ("speedup_vs_seq", (seq_secs / par_secs.max(1e-12)).into()),
            ("bit_identical", true.into()),
        ],
    );

    // 3. Complete λ-grid: sequential vs. pooled (scenario × cell) queue.
    let grid_set = CellSet::nangate45_like().subset(&grid_cells);
    let grid_seq = Characterizer::new(grid_set.clone(), char_config(opts.smoke, 1))?;
    let (complete_seq, grid_seq_secs) = time(|| grid_seq.complete_library(opts.steps, 10.0));
    let complete_seq = complete_seq?;
    let scenarios = (opts.steps + 1) * (opts.steps + 1);
    let grid_tasks = u64::from(scenarios) * grid_cells.len() as u64;
    report(
        &ctx,
        &mut stages,
        "complete_grid_seq",
        grid_seq_secs,
        grid_tasks,
        vec![("scenarios", scenarios.into()), ("cells", grid_cells.len().into())],
    );
    let grid_par = Characterizer::new(grid_set.clone(), char_config(opts.smoke, opts.threads))?;
    let (complete_par, grid_par_secs) = time(|| grid_par.complete_library(opts.steps, 10.0));
    let complete_par = complete_par?;
    assert_eq!(
        complete_seq, complete_par,
        "pooled complete library must be bit-identical to sequential"
    );
    report(
        &ctx,
        &mut stages,
        "complete_grid_par",
        grid_par_secs,
        grid_tasks,
        vec![
            ("scenarios", scenarios.into()),
            ("cells", grid_cells.len().into()),
            ("threads", opts.threads.into()),
            ("speedup_vs_seq", (grid_seq_secs / grid_par_secs.max(1e-12)).into()),
            ("bit_identical", true.into()),
        ],
    );

    // 4. The same grid through the two-tier arc cache: cold, then warm from
    // a fresh process's perspective (new cache instance, same directory).
    let cache_dir =
        std::env::temp_dir().join(format!("reliaware_perfbench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cold_cache = Arc::new(ArcCache::with_dir(&cache_dir));
    let cold = Characterizer::new(grid_set.clone(), char_config(opts.smoke, opts.threads))?
        .with_cache(Arc::clone(&cold_cache));
    let (complete_cold, cold_secs) = time(|| cold.complete_library(opts.steps, 10.0));
    let complete_cold = complete_cold?;
    assert_eq!(complete_cold, complete_seq, "cold-cache grid must match uncached");
    report(
        &ctx,
        &mut stages,
        "complete_grid_cold_cache",
        cold_secs,
        grid_tasks,
        vec![("scenarios", scenarios.into()), ("cache", cache_block(&cold_cache))],
    );
    let warm_cache = Arc::new(ArcCache::with_dir(&cache_dir));
    let warm = Characterizer::new(grid_set, char_config(opts.smoke, opts.threads))?
        .with_cache(Arc::clone(&warm_cache));
    let (complete_warm, warm_secs) = time(|| warm.complete_library(opts.steps, 10.0));
    let complete_warm = complete_warm?;
    assert_eq!(complete_warm, complete_seq, "warm-cache grid must be bit-identical");
    // The warm cache carries the run's headline hit rates — surface it in
    // the run report alongside the per-stage timings.
    ctx.attach_cache(Arc::clone(&warm_cache));
    ctx.event("complete_grid_warm_cache", cache_block(&warm_cache).render());
    report(
        &ctx,
        &mut stages,
        "complete_grid_warm_cache",
        warm_secs,
        grid_tasks,
        vec![
            ("scenarios", scenarios.into()),
            ("speedup_vs_cold", (cold_secs / warm_secs.max(1e-12)).into()),
            ("bit_identical", true.into()),
            ("cache", cache_block(&warm_cache)),
        ],
    );
    let _ = std::fs::remove_dir_all(&cache_dir);

    // 5. STA and gate-level simulation on a synthesized benchmark.
    let fixture = fixture_library();
    let design = circuits::dct8();
    let netlist = synth::synthesize(&design.aig, &fixture, &MapOptions::default())?;
    let sta_iters: u32 = if opts.smoke { 5 } else { 20 };
    let (r, sta_secs) = time(|| -> Result<(), FlowError> {
        for _ in 0..sta_iters {
            let _ = analyze(&netlist, &fixture, &Constraints::default())?;
        }
        Ok(())
    });
    r?;
    report(
        &ctx,
        &mut stages,
        "sta_arrival_dct8",
        sta_secs / f64::from(sta_iters),
        u64::from(sta_iters),
        vec![("iterations", sta_iters.into()), ("instances", netlist.instance_count().into())],
    );
    let vectors: Vec<Vec<bool>> = (0..16)
        .map(|k| (0..design.input_width()).map(|b| (k * 7 + b) % 3 == 0).collect())
        .collect();
    let sim_iters: u32 = if opts.smoke { 3 } else { 10 };
    let (r, sim_secs) = time(|| -> Result<(), FlowError> {
        for _ in 0..sim_iters {
            let _ = logicsim::run_cycles(&netlist, &fixture, None, &vectors)
                .map_err(|e| flow::EvalError::Simulation { message: e.to_string() })?;
        }
        Ok(())
    });
    r?;
    report(
        &ctx,
        &mut stages,
        "logicsim_dct8_16cy",
        sim_secs / f64::from(sim_iters),
        u64::from(sim_iters),
        vec![("iterations", sim_iters.into())],
    );

    // 6. Incremental vs. full re-STA: single-instance λ re-annotations on
    // the two largest benchmarks. The engine must stay bit-identical to a
    // fresh analysis while re-timing an order of magnitude fewer instances.
    for (stage_name, design) in
        [("incremental_sta_risc", circuits::risc_5p()), ("incremental_sta_vliw", circuits::vliw())]
    {
        let nl = synth::synthesize(&design.aig, &fixture, &MapOptions::default())?;
        let grid_steps = 2u32;
        let complete = bench::lambda_scaled_complete(&fixture, grid_steps);
        let tag0 = liberty::LambdaTag { lambda_pmos: 0.0, lambda_nmos: 0.0 };
        let annotated = netlist::annotate::annotated_with_static(&nl, tag0);
        let constraints = Constraints::default();
        let instances = annotated.instance_count();

        // A deterministic re-annotation schedule over the λ grid.
        let iters: usize = if opts.smoke { 8 } else { 20 };
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ stage_name.len() as u64;
        let mut lcg = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 33) as usize
        };
        let schedule: Vec<(netlist::InstId, liberty::LambdaTag)> = (0..iters)
            .map(|_| {
                let inst = netlist::InstId::from_index(lcg() % instances);
                let tag = liberty::LambdaTag {
                    lambda_pmos: (lcg() % (grid_steps as usize + 1)) as f64 / f64::from(grid_steps),
                    lambda_nmos: (lcg() % (grid_steps as usize + 1)) as f64 / f64::from(grid_steps),
                };
                (inst, tag)
            })
            .collect();
        let retag = |nl: &netlist::Netlist, inst: netlist::InstId, tag: &liberty::LambdaTag| {
            let (base, _) = liberty::split_lambda_tag(&nl.instance(inst).cell);
            format!("{base}_{}", tag.suffix())
        };

        // Baseline: mutate and fully re-analyze per re-annotation.
        let mut full_nl = annotated.clone();
        let (r, full_secs) = time(|| -> Result<(), FlowError> {
            for (inst, tag) in &schedule {
                full_nl.instance_mut(*inst).cell = retag(&full_nl, *inst, tag);
                let _ = analyze(&full_nl, &complete, &constraints)?;
            }
            Ok(())
        });
        r?;

        // Incremental: one persistent engine over the same schedule.
        let mut inc_nl = annotated.clone();
        let mut inc = sta::IncrementalSta::new(&mut inc_nl, &complete, &constraints)?;
        let mut recomputed = 0u64;
        let (r, inc_secs) = time(|| -> Result<(), FlowError> {
            for (inst, tag) in &schedule {
                let cell = retag(inc.netlist(), *inst, tag);
                inc.recell(*inst, &cell)?;
                let _ = inc.report()?;
                recomputed += inc.stats().last_recomputed as u64;
            }
            Ok(())
        });
        r?;

        let final_full = analyze(&full_nl, &complete, &constraints)?;
        let bit_identical = inc.report()? == &final_full;
        assert!(bit_identical, "{stage_name}: incremental diverged from full re-analysis");
        let nodes_full = iters as u64 * instances as u64;
        let node_ratio = nodes_full as f64 / recomputed.max(1) as f64;
        assert!(
            node_ratio >= 10.0,
            "{stage_name}: expected >=10x fewer nodes recomputed, got {node_ratio:.1}x"
        );
        ctx.record_sta_stats(stage_name, &inc.stats());
        report(
            &ctx,
            &mut stages,
            stage_name,
            inc_secs,
            iters as u64,
            vec![
                ("instances", instances.into()),
                ("re_annotations", iters.into()),
                ("nodes_full", nodes_full.into()),
                ("nodes_recomputed", recomputed.into()),
                ("node_ratio", node_ratio.into()),
                ("full_seconds", full_secs.into()),
                ("speedup_vs_full", (full_secs / inc_secs.max(1e-12)).into()),
                ("bit_identical", true.into()),
            ],
        );
    }

    // 7. Static lifetime analysis: the full mechanism-interval sweep plus
    // the series MTTF lower bound. Deterministic by construction — two runs
    // must agree bit for bit before the timing is reported.
    for (stage_name, design) in
        [("static_lifetime_risc", circuits::risc_5p()), ("static_lifetime_vliw", circuits::vliw())]
    {
        let nl = synth::synthesize(&design.aig, &fixture, &MapOptions::default())?;
        let lt_config = dataflow::LifetimeConfig::default();
        let df_config = dataflow::DataflowConfig::default();
        let iters: u32 = if opts.smoke { 2 } else { 5 };
        let first = dataflow::static_lifetime_bound(&nl, &fixture, &lt_config, &df_config);
        let (last, lt_secs) = time(|| {
            let mut last = first.clone();
            for _ in 0..iters {
                last = dataflow::static_lifetime_bound(&nl, &fixture, &lt_config, &df_config);
            }
            last
        });
        assert_eq!(first, last, "{stage_name}: lifetime analysis must be deterministic");
        let instances = nl.instance_count();
        report(
            &ctx,
            &mut stages,
            stage_name,
            lt_secs / f64::from(iters),
            u64::from(iters) * instances as u64,
            vec![
                ("iterations", iters.into()),
                ("instances", instances.into()),
                ("mttf_lo_years", first.design_mttf_lo_years.into()),
                ("deterministic", true.into()),
            ],
        );
    }

    // 8. The characterization service under concurrent clients: an
    // identical-key storm (the coalescer must collapse it to exactly one
    // computation) followed by a warm mixed-key load phase.
    {
        let socket =
            std::env::temp_dir().join(format!("reliaware_perfbench_{}.sock", std::process::id()));
        let mut config = serve::ServeConfig::new(&socket);
        config.max_inflight = 16;
        let handle = serve::Server::bind(config, CellSet::nangate45_like())?.spawn();
        let storm_clients = if opts.smoke { 4 } else { 8 };
        let storm_req = serve::CharRequest::new(&["INV_X1", "NAND2_X1"], 0.75, 0.25, 10.0);
        let (storm, storm_secs) = time(|| serve::run_storm(&socket, storm_clients, &storm_req));
        let storm = storm?;
        assert!(storm.all_identical, "storm clients must receive identical libraries");
        assert_eq!(
            storm.server_computed, 1,
            "identical-key storm must compute exactly once, computed {}",
            storm.server_computed
        );
        report(
            &ctx,
            &mut stages,
            "serve_storm",
            storm_secs,
            storm_clients as u64,
            vec![
                ("clients", storm_clients.into()),
                ("server_computed", storm.server_computed.into()),
                ("absorbed", storm.absorbed.into()),
                ("coalesced_all", true.into()),
                ("bit_identical", true.into()),
            ],
        );
        let load_clients = if opts.smoke { 4 } else { 8 };
        let load_config = serve::LoadConfig {
            requests_per_client: if opts.smoke { 8 } else { 32 },
            unique_keys: if opts.smoke { 2 } else { 4 },
            ..serve::LoadConfig::smoke(load_clients)
        };
        let (load, _) = time(|| serve::run_load(&socket, &load_config));
        let load = load?;
        assert_eq!(load.errors, 0, "service load phase must not error");
        report(
            &ctx,
            &mut stages,
            "serve_load_warm",
            load.seconds,
            load.requests,
            vec![
                ("clients", load_clients.into()),
                ("requests", load.requests.into()),
                ("throughput_rps", load.throughput_rps.into()),
                ("p50_us", load.p50_us.into()),
                ("p95_us", load.p95_us.into()),
                ("p99_us", load.p99_us.into()),
                ("memo_hits", load.memo_hits.into()),
                ("computed", load.computed.into()),
                ("coalesced", load.coalesced.into()),
                ("overloads", load.overloads.into()),
            ],
        );
        handle.shutdown();
        let _ = std::fs::remove_file(&socket);
    }

    // 9. Tier-0 learned surrogate: a collect-only tier (budget 0) harvests
    // training samples from a λ-grid characterization while staying
    // bit-exact, the refit model then serves *novel off-grid* λ points with
    // no simulation at all — timed against the full-simulation reference.
    // The serving run must stay inside the conformal error budget, fall
    // back on nothing, and (smoke mode) clear a 20× speedup. Both timed
    // sides run on one worker: the floor is about the cost of serving a
    // point, pool scaling is what the stages above measure, and the served
    // side's ~0.1 ms of work would otherwise be timed mostly as the scoped
    // threads `Characterizer::library` spawns per call.
    {
        // The serving budget must clear the split-conformal class bounds
        // (safety-inflated worst calibration error, ~0.08–0.11 on this
        // grid); the *actual* novel-point error lands well under it.
        let budget = 0.15;
        let sur_cells = ["INV_X1", "NAND2_X1"];
        let sur_set = CellSet::nangate45_like().subset(&sur_cells);
        let config = char_config(opts.smoke, opts.threads);

        let collect = Arc::new(SurrogateTier::new(0.0));
        let trainer = Characterizer::new(sur_set.clone(), config.clone())?
            .with_cache(Arc::new(ArcCache::in_memory().with_tier0(Arc::clone(&collect))));
        // 4 λ steps (25 scenarios) is the floor at which the degree-2
        // polynomial fit pins off-grid points inside the budget.
        let train_steps: u32 = if opts.smoke { 4 } else { 6 };
        let (r, train_secs) = time(|| trainer.complete_library(train_steps, 10.0));
        r?;
        let train_samples = collect.refit_now() as u64;
        let model = collect
            .model()
            .ok_or_else(|| FlowError::Usage("surrogate training produced no model".into()))?;
        let train_points = (u64::from(train_steps) + 1) * (u64::from(train_steps) + 1);
        report(
            &ctx,
            &mut stages,
            "surrogate_train_grid",
            train_secs,
            train_points,
            vec![
                ("grid_points", train_points.into()),
                ("cells", sur_cells.len().into()),
                ("classes", model.len().into()),
                ("samples", train_samples.into()),
            ],
        );

        // Novel λ points: deliberately off the training grid.
        let lambda = |v: f64| DutyCycle::new(v).map_err(|e| FlowError::Usage(e.to_string()));
        let novel: Vec<AgingScenario> = [(0.37, 0.81), (0.63, 0.19), (0.11, 0.52)]
            .iter()
            .map(|&(p, n)| Ok(AgingScenario::new(lambda(p)?, lambda(n)?, 10.0)))
            .collect::<Result<_, FlowError>>()?;

        // Reference: full simulation of the novel points, with a second
        // collect-only tier harvesting their exact tables for the error
        // measurement (observation is memory-only and bit-neutral — proven
        // against a direct, uncached characterization below).
        let one_worker = CharConfig { parallelism: 1, ..config.clone() };
        let harvest = Arc::new(SurrogateTier::new(0.0));
        let ref_char = Characterizer::new(sur_set.clone(), one_worker.clone())?
            .with_cache(Arc::new(ArcCache::in_memory().with_tier0(Arc::clone(&harvest))));
        let (r, ref_secs) =
            time(|| novel.iter().map(|s| ref_char.library(s)).collect::<Result<Vec<_>, _>>());
        let ref_libs = r?;
        let direct = Characterizer::new(sur_set.clone(), config.clone())?.library(&novel[0])?;
        assert_eq!(
            direct, ref_libs[0],
            "collect-only tier must stay bit-identical to direct characterization"
        );

        let eval = model.evaluate(&harvest.samples());
        assert_eq!(eval.skipped, 0, "model must cover every novel arc class");
        assert!(
            eval.max_rel <= budget,
            "novel-point error {:.6} exceeds the {budget} budget",
            eval.max_rel
        );

        // Serving run: same novel points, simulator never invoked.
        let serving = Arc::new(SurrogateTier::new(budget).with_model(model.as_ref().clone()));
        let served_cache = Arc::new(ArcCache::in_memory().with_tier0(Arc::clone(&serving)));
        let served_char =
            Characterizer::new(sur_set, one_worker)?.with_cache(Arc::clone(&served_cache));
        let (r, served_secs) =
            time(|| novel.iter().try_for_each(|s| served_char.library(s).map(|_| ())));
        let r: Result<(), flow::CharError> = r;
        r?;
        let stats = served_cache.stats();
        assert_eq!(
            stats.misses, 0,
            "every novel arc must be served by the surrogate ({} fell back)",
            stats.tier0_fallbacks
        );
        assert!(stats.tier0_hits > 0, "serving run recorded no tier-0 hits");
        let speedup = ref_secs / served_secs.max(1e-12);
        if opts.smoke {
            assert!(speedup >= 20.0, "surrogate speedup {speedup:.1}x below the 20x smoke floor");
        }
        report(
            &ctx,
            &mut stages,
            "surrogate_tier0_novel",
            served_secs,
            novel.len() as u64,
            vec![
                ("novel_points", novel.len().into()),
                ("budget", budget.into()),
                ("max_rel_err", eval.max_rel.into()),
                ("mean_rel_err", eval.mean_rel.into()),
                ("ref_seconds", ref_secs.into()),
                ("speedup_vs_sim", speedup.into()),
                ("tier0_hits", stats.tier0_hits.into()),
                ("tier0_fallbacks", stats.tier0_fallbacks.into()),
                ("bit_identical_fallback", true.into()),
            ],
        );
    }

    // 10. Monte-Carlo process variation: per-die MTTF sampling fanned over
    // the worker pool. The distribution must be bit-identical at any worker
    // count (each sample is pure in (seed, die)), every sampled die must
    // respect the variation-aware static bound, and the pooled fan-out is
    // timed against one worker for the samples/sec scaling figure.
    {
        let design = circuits::risc_5p();
        let nl = synth::synthesize(&design.aig, &fixture, &MapOptions::default())?;
        let lt_config = dataflow::LifetimeConfig::default();
        let df_config = dataflow::DataflowConfig::default();
        let samples = if opts.smoke { 16 } else { 256 };
        let sampling = dataflow::McSampling::nominal_45nm(samples, 1);
        let mc_lifetime = |workers: usize| -> Result<flow::McLifetimeOutcome, FlowError> {
            let run = RunContext::new().with_workers(workers);
            Ok(flow::mc_lifetime(&run, &nl, &fixture, &lt_config, &df_config, &sampling)?)
        };
        let (one, one_secs) = time(|| mc_lifetime(1));
        let one = one?;
        for workers in [2, 8] {
            let other = mc_lifetime(workers)?;
            assert_eq!(
                one.distribution.samples.len(),
                other.distribution.samples.len(),
                "mcvar: sample count must not depend on workers"
            );
            for (i, (a, b)) in
                one.distribution.samples.iter().zip(&other.distribution.samples).enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "mcvar: die {i} diverged at {workers} workers"
                );
            }
        }
        let (pooled, pooled_secs) = time(|| mc_lifetime(opts.threads));
        let pooled = pooled?;
        assert!(
            pooled.distribution.contains_static_bound(),
            "mcvar: sampled die {:.3} y below the variation-aware bound {:.3} y",
            pooled.distribution.min_years(),
            pooled.distribution.static_bound_years
        );
        let dist = &pooled.distribution;
        report(
            &ctx,
            &mut stages,
            "mcvar_risc",
            pooled_secs,
            samples as u64,
            vec![
                ("samples", samples.into()),
                ("threads", opts.threads.into()),
                ("samples_per_sec", (samples as f64 / pooled_secs.max(1e-12)).into()),
                ("seq_seconds", one_secs.into()),
                ("speedup", (one_secs / pooled_secs.max(1e-12)).into()),
                ("nominal_years", dist.nominal_years.into()),
                ("var_bound_years", dist.static_bound_years.into()),
                ("min_years", dist.min_years().into()),
                ("p5_retention", dist.p5_retention().into()),
                ("bit_identical_workers", true.into()),
                ("contains_static_bound", true.into()),
            ],
        );
    }

    // Assemble and write the JSON records.
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let stamp = bench::utc_stamp(unix_time);
    let json = bench_record(&opts, unix_time, &stamp, stages).render_pretty();
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| FlowError::io(opts.out_dir.display(), &e))?;
    let path = opts.out_dir.join(format!("BENCH_{stamp}.json"));
    std::fs::write(&path, json).map_err(|e| FlowError::io(path.display(), &e))?;
    println!("\nwrote {}", path.display());
    let run_path = opts.out_dir.join(format!("RUN_{stamp}.json"));
    ctx.report().write(&run_path)?;
    println!("wrote {}", run_path.display());
    cli::emit_report(&ctx, opts.report.as_deref())
}

fn main() -> ExitCode {
    cli::run(USAGE, FLAGS, run)
}

fn mode(opts: &Options) -> &'static str {
    if opts.smoke {
        "smoke"
    } else {
        "full"
    }
}

fn report(
    ctx: &RunContext,
    stages: &mut Vec<Json>,
    name: &'static str,
    seconds: f64,
    tasks: u64,
    extra: Vec<(&'static str, Json)>,
) {
    let shown: Vec<String> = extra.iter().map(|(k, v)| format!("{k}: {}", v.render())).collect();
    println!("  {name:<28} {seconds:>10.3} s  {}", shown.join(", ").replace('"', ""));
    ctx.record_stage(name, seconds, tasks);
    let head = [("name", name.into()), ("seconds", seconds.into())];
    stages.push(Json::obj(head.into_iter().chain(extra)));
}

/// A cache's counters, as the cache-stage records carry them.
fn cache_block(cache: &ArcCache) -> Json {
    let stats = cache.stats();
    Json::obj([
        ("memory_hits", stats.memory_hits.into()),
        ("disk_hits", stats.disk_hits.into()),
        ("misses", stats.misses.into()),
        ("coalesced", stats.coalesced.into()),
        ("tier0_hits", stats.tier0_hits.into()),
        ("tier0_fallbacks", stats.tier0_fallbacks.into()),
        ("tier0_refits", cache.tier0_refits().into()),
        ("shards", cache.shard_count().into()),
        ("hit_rate", stats.hit_rate().into()),
    ])
}

/// The `reliaware-perfbench-v1` record.
fn bench_record(opts: &Options, unix_time: u64, stamp: &str, stages: Vec<Json>) -> Json {
    Json::obj([
        ("schema", "reliaware-perfbench-v1".into()),
        ("stamp", stamp.into()),
        ("unix_time", unix_time.into()),
        ("machine", bench::machine()),
        (
            "config",
            Json::obj([
                ("mode", mode(opts).into()),
                ("grid_steps", opts.steps.into()),
                ("threads", opts.threads.into()),
            ]),
        ),
        ("stages", Json::Arr(stages)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let opts =
            Options { smoke: true, steps: 1, threads: 2, out_dir: PathBuf::new(), report: None };
        let ctx = RunContext::new();
        let mut stages = Vec::new();
        let extra = vec![("mttf_lo_years", f64::INFINITY.into()), ("bit_identical", true.into())];
        report(&ctx, &mut stages, "static_lifetime_risc", 0.25, 3, extra);
        let cache = ArcCache::in_memory();
        let extra = vec![("cache", cache_block(&cache))];
        report(&ctx, &mut stages, "complete_grid_cold_cache", 1.5, 4, extra);
        let cache_shards = cache.shard_count() as u64;
        let record = bench_record(&opts, 1_465_128_000, "20160605-120000", stages);
        let doc = Json::parse(&record.render_pretty()).unwrap();
        assert_eq!(doc, Json::parse(&record.render()).unwrap());
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("reliaware-perfbench-v1"));
        assert_eq!(doc.get("unix_time").and_then(Json::as_u64), Some(1_465_128_000));
        assert_eq!(doc.get("config").unwrap().get("mode").and_then(Json::as_str), Some("smoke"));
        let stages = doc.get("stages").and_then(Json::as_arr).unwrap();
        assert_eq!(stages[0].get("name").and_then(Json::as_str), Some("static_lifetime_risc"));
        assert_eq!(stages[0].get("seconds").and_then(Json::as_f64), Some(0.25));
        assert_eq!(stages[0].get("mttf_lo_years"), Some(&Json::Null));
        assert_eq!(stages[0].get("bit_identical"), Some(&Json::Bool(true)));
        let cache = stages[1].get("cache").unwrap();
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(0));
        assert_eq!(cache.get("shards").and_then(Json::as_u64), Some(cache_shards));
    }
}
