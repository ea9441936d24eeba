//! Concurrent load generator for the characterization service.
//!
//! Drives a server (an external one via `--socket`, or an in-process one
//! it spawns itself) through four phases and writes a schema-versioned
//! `BENCH_<stamp>_loadgen.json` record:
//!
//! 1. **storm** — every client fires the *same* cold key simultaneously;
//!    the run fails unless the server computed it **exactly once** (100 %
//!    coalescing) and every client received byte-identical library text;
//! 2. **bit-identity** — the served library is compared byte for byte
//!    against a direct, in-process [`flow::Characterizer`] run;
//! 3. **shed** — a deliberately tiny in-process server (1 slot, ~1 ms
//!    queue timeout) is stormed with distinct cold keys to demonstrate
//!    the typed `overload` backpressure path (skipped with `--socket`);
//! 4. **load** — for each `--clients` count, a warm (or `--cold`) mixed
//!    key schedule with a configurable hot-key bias; throughput, latency
//!    percentiles and per-tier hit counters are recorded.
//!
//! Throughput scaling across client counts is always *recorded*; it is
//! only *asserted* (≥ `--min-scaling`) when the flag is given, because a
//! single-core machine serializes the compute phase and cannot
//! demonstrate parallel speedup.
//!
//! ```text
//! loadgen [--smoke] [--socket PATH] [--clients LIST] [--requests N]
//!         [--keys N] [--bias F] [--cold] [--storm-clients N]
//!         [--min-scaling X] [--out DIR]
//! ```

use bench::cli::{self, Args, Flag};
use bench::loadreport::LoadgenRecord;
use flow::{CharConfig, Characterizer, FlowError};
use liberty::write_library;
use serve::{
    run_load, run_storm, CharRequest, LoadConfig, LoadReport, ServeConfig, Server, StormReport,
};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use stdcells::CellSet;

const USAGE: &str = "usage: loadgen [--smoke] [--socket PATH] [--clients LIST] [--requests N]
               [--keys N] [--bias F] [--cold] [--storm-clients N]
               [--min-scaling X] [--out DIR]

options:
  --smoke            small pinned mix for CI
  --socket PATH      target an already-running server instead of spawning one
  --clients LIST     comma-separated client counts, e.g. 1,2,4,8
  --requests N       requests per client per load phase
  --keys N           unique λ-keys in the load key space
  --bias F           hot-key probability in [0,1] (default 0.3)
  --cold             skip pre-warming: measure cold-cache serving
  --storm-clients N  clients in the identical-key storm phase
  --min-scaling X    assert throughput(max clients) >= X * throughput(1)
  --out DIR          output directory for the BENCH record (default: repo root)
  -h, --help         show this help
";

struct Options {
    smoke: bool,
    socket: Option<PathBuf>,
    clients: Vec<usize>,
    requests: usize,
    keys: usize,
    bias: f64,
    cold: bool,
    storm_clients: usize,
    min_scaling: Option<f64>,
    out_dir: PathBuf,
}

const FLAGS: &[Flag] = &[
    Flag::switch("--smoke"),
    Flag::value("--socket"),
    Flag::value("--clients"),
    Flag::value("--requests"),
    Flag::value("--keys"),
    Flag::value("--bias"),
    Flag::switch("--cold"),
    Flag::value("--storm-clients"),
    Flag::value("--min-scaling"),
    Flag::value("--out"),
];

fn options(args: &Args) -> Result<Options, FlowError> {
    let clients: Option<Vec<usize>> = match args.get::<String>("--clients")? {
        Some(list) => Some(
            list.split(',')
                .map(|v| v.trim().parse::<NonZeroUsize>().map(usize::from))
                .collect::<Result<_, _>>()
                .map_err(|e| cli::invalid("--clients", &list, e))?,
        ),
        None => None,
    };
    // Without --clients, --smoke pins a small mix.
    let small = args.has("--smoke") && clients.is_none();
    let count = |flag: &str, full: usize, smoke: usize| {
        Ok::<_, FlowError>(
            args.get::<NonZeroUsize>(flag)?.map_or(if small { smoke } else { full }, usize::from),
        )
    };
    let bias = args.get::<f64>("--bias")?.unwrap_or(0.3);
    if !(0.0..=1.0).contains(&bias) {
        return Err(cli::invalid("--bias", bias, "must be in [0,1]"));
    }
    Ok(Options {
        smoke: args.has("--smoke"),
        socket: args.get("--socket")?,
        clients: clients.unwrap_or_else(|| if small { vec![1, 4] } else { vec![1, 2, 4, 8] }),
        requests: count("--requests", 32, 8)?,
        keys: count("--keys", 8, 3)?,
        bias,
        cold: args.has("--cold"),
        storm_clients: count("--storm-clients", 8, 6)?,
        min_scaling: args.get("--min-scaling")?,
        out_dir: args.get("--out")?.unwrap_or_else(bench::repo_root),
    })
}

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("reliaware_{tag}_{}.sock", std::process::id()))
}

/// Reproduces the server's characterization in-process — the reference
/// for the bit-identity check.
fn direct_library_text(req: &CharRequest) -> Result<String, FlowError> {
    let scenario = bti::AgingScenario::new(
        bti::DutyCycle::saturating(req.lambda_pmos),
        bti::DutyCycle::saturating(req.lambda_nmos),
        req.years,
    )
    .with_environment(req.temperature_k, req.vdd);
    let config = CharConfig {
        vdd: req.vdd,
        slews: req.slews.clone(),
        loads: req.loads.clone(),
        max_dv: req.max_dv,
        parallelism: 1,
        ..CharConfig::fast()
    };
    let names: Vec<&str> = req.cells.iter().map(String::as_str).collect();
    let chars = Characterizer::for_named_cells(&CellSet::nangate45_like(), &names, config)
        .map_err(FlowError::Char)?;
    Ok(write_library(&chars.library(&scenario).map_err(FlowError::Char)?))
}

/// Storms a 1-slot, ~1 ms-timeout server with distinct cold keys; the
/// overload responses prove the typed shed path. Returns
/// `(overloads, served)`.
fn shed_phase() -> Result<(u64, u64), FlowError> {
    let socket = temp_socket("loadgen_shed");
    let mut config = ServeConfig::new(&socket);
    config.max_inflight = 1;
    config.queue_timeout = Duration::from_millis(1);
    let handle = Server::bind(config, CellSet::nangate45_like())?.spawn();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(3));
    let mut threads = Vec::new();
    for k in 0..3u32 {
        let socket = socket.clone();
        let barrier = std::sync::Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || -> Result<bool, FlowError> {
            let mut client = serve::Client::connect_with_retry(&socket, Duration::from_secs(5))?;
            barrier.wait();
            // Distinct years → distinct content keys → no coalescing.
            let req = CharRequest::new(&["INV_X1"], 1.0, 1.0, 1.0 + f64::from(k));
            match client.characterize(req)? {
                serve::Response::Overload { .. } => Ok(true),
                serve::Response::Ok { .. } => Ok(false),
                other => Err(FlowError::Usage(format!("unexpected shed response: {other:?}"))),
            }
        }));
    }
    let mut overloads = 0u64;
    let mut served = 0u64;
    for t in threads {
        if t.join().map_err(|_| FlowError::Usage("shed client panicked".to_owned()))?? {
            overloads += 1;
        } else {
            served += 1;
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
    Ok((overloads, served))
}

fn run(args: &Args) -> Result<(), FlowError> {
    let opts = options(args)?;
    let max_clients = opts.clients.iter().copied().max().unwrap_or(1);

    // Spawn an in-process server unless targeting an external one.
    let spawned = match &opts.socket {
        Some(_) => None,
        None => {
            let socket = temp_socket("loadgen");
            let mut config = ServeConfig::new(&socket);
            // Generous slot budget: this run measures memo/coalescing
            // behavior, not shedding (the shed phase covers that).
            config.max_inflight = (max_clients + opts.storm_clients).max(8);
            Some(Server::bind(config, CellSet::nangate45_like())?.spawn())
        }
    };
    let socket = match (&opts.socket, &spawned) {
        (Some(path), _) => path.clone(),
        (None, Some(handle)) => handle.socket().to_path_buf(),
        (None, None) => unreachable!("no socket and no spawned server"),
    };

    println!(
        "loadgen: socket={}, clients={:?}, requests={}, keys={}, bias={}, {}",
        socket.display(),
        opts.clients,
        opts.requests,
        opts.keys,
        opts.bias,
        if opts.cold { "cold" } else { "warm" }
    );

    // 1. Identical-key storm: must collapse to exactly one computation.
    // λp ≠ λn keeps the storm key off the load phase's λ-diagonal.
    let storm_req = CharRequest::new(&["INV_X1", "NAND2_X1"], 0.75, 0.25, 10.0);
    let storm = run_storm(&socket, opts.storm_clients, &storm_req)?;
    let fresh_key = spawned.is_some();
    report_storm(&storm, fresh_key)?;

    // 2. Bit-identity: served text == direct Characterizer output.
    let direct = direct_library_text(&storm_req)?;
    if storm.library != direct {
        return Err(FlowError::Usage(format!(
            "served library differs from direct characterization ({} vs {} bytes)",
            storm.library.len(),
            direct.len()
        )));
    }
    println!("  bit_identity                 ok ({} bytes)", direct.len());

    // 3. Backpressure: typed overload responses from a saturated server.
    let shed = if opts.socket.is_none() {
        let (overloads, served) = shed_phase()?;
        if overloads == 0 {
            return Err(FlowError::Usage(
                "shed phase produced no overload response from a 1-slot server".into(),
            ));
        }
        println!("  shed                         {overloads} overloads, {served} served");
        Some((overloads, served))
    } else {
        None
    };

    // 4. Mixed load at each client count.
    let mut loads: Vec<LoadReport> = Vec::new();
    for &clients in &opts.clients {
        let config = LoadConfig {
            clients,
            requests_per_client: opts.requests,
            unique_keys: opts.keys,
            hot_key_bias: opts.bias,
            warm: !opts.cold,
            ..LoadConfig::smoke(clients)
        };
        let report = run_load(&socket, &config)?;
        let d = &report.stats_delta;
        println!(
            "  load c={clients:<3}                   {:>8.1} rps  p50 {:>6} µs  p95 {:>6} µs  p99 {:>6} µs  (memo {} / coalesced {} / computed {}; tier0 {} hit / {} fallback / {} refit)",
            report.throughput_rps,
            report.p50_us,
            report.p95_us,
            report.p99_us,
            report.memo_hits,
            report.coalesced,
            report.computed,
            d.cache.tier0_hits,
            d.cache.tier0_fallbacks,
            d.tier0_refits
        );
        if report.errors > 0 {
            return Err(FlowError::Usage(format!(
                "load phase at {clients} clients saw {} error responses",
                report.errors
            )));
        }
        loads.push(report);
    }

    // Scaling: always recorded, asserted only on request.
    let scaling = scaling_ratio(&loads);
    if let Some(ratio) = scaling {
        println!(
            "  throughput_scaling           {ratio:.2}x ({} -> {} clients)",
            loads.first().map_or(0, |r| r.clients),
            loads.last().map_or(0, |r| r.clients)
        );
        if let Some(min) = opts.min_scaling {
            if ratio < min {
                return Err(FlowError::Usage(format!(
                    "throughput scaling {ratio:.2}x below required {min:.2}x"
                )));
            }
        }
    }

    // Write the schema-versioned record.
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let stamp = bench::utc_stamp(unix_time);
    let json = LoadgenRecord {
        mode: if opts.smoke { "smoke" } else { "full" },
        clients: &opts.clients,
        requests_per_client: opts.requests,
        unique_keys: opts.keys,
        hot_key_bias: opts.bias,
        warm: !opts.cold,
        unix_time,
        stamp: &stamp,
        storm: &storm,
        shed,
        loads: &loads,
        scaling,
    }
    .to_json();
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| FlowError::io(opts.out_dir.display(), &e))?;
    let path = opts.out_dir.join(format!("BENCH_{stamp}_loadgen.json"));
    std::fs::write(&path, json).map_err(|e| FlowError::io(path.display(), &e))?;
    println!("\nwrote {}", path.display());

    if let Some(handle) = spawned {
        handle.shutdown();
        let _ = std::fs::remove_file(&socket);
    }
    Ok(())
}

fn report_storm(storm: &StormReport, fresh_key: bool) -> Result<(), FlowError> {
    println!(
        "  storm c={:<3}                  computed {} / absorbed {} (server computed {})",
        storm.clients, storm.computed, storm.absorbed, storm.server_computed
    );
    if !storm.all_identical {
        return Err(FlowError::Usage("storm clients received differing libraries".into()));
    }
    if storm.ok != storm.clients as u64 {
        return Err(FlowError::Usage(format!(
            "storm served {} of {} clients",
            storm.ok, storm.clients
        )));
    }
    // Against a server we just spawned the key is provably cold, so the
    // coalescer must have collapsed the storm to exactly one computation.
    // An external server may have the key warm already (0 computations).
    let limit = u64::from(fresh_key);
    if storm.server_computed > 1 || (fresh_key && storm.server_computed != limit) {
        return Err(FlowError::Usage(format!(
            "identical-key storm computed {} times, expected {limit}",
            storm.server_computed
        )));
    }
    Ok(())
}

fn scaling_ratio(loads: &[LoadReport]) -> Option<f64> {
    let first = loads.first()?;
    let last = loads.last()?;
    if loads.len() < 2 || first.throughput_rps <= 0.0 {
        return None;
    }
    Some(last.throughput_rps / first.throughput_rps)
}

fn main() -> ExitCode {
    cli::run(USAGE, FLAGS, run)
}
