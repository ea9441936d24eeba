//! The characterization-service daemon.
//!
//! Binds a unix socket and serves `reliaware-serve-v1` requests (see
//! `crates/serve`) until killed. Clients get degradation-aware libraries
//! out of a sharded memo with in-flight request coalescing, backed by the
//! shared two-tier arc cache; excess load is shed with typed `overload`
//! responses instead of unbounded queueing.
//!
//! With `--surrogate-budget` the arc cache gets a learned tier 0 in
//! front: predictions within the conformal error budget are served
//! without simulation, everything else falls back and feeds online
//! training (see `crates/surrogate`).
//!
//! ```text
//! serve --socket PATH [--threads N] [--inflight N] [--shards N]
//!       [--cache-dir DIR] [--timeout-ms N]
//!       [--surrogate-budget F] [--surrogate-model PATH]
//!       [--surrogate-refit-every N]
//! ```

use bench::cli::{self, Args, Flag};
use flow::FlowError;
use serve::{ServeConfig, Server};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use stdcells::CellSet;

const USAGE: &str = "usage: serve --socket PATH [--threads N] [--inflight N] [--shards N]
             [--cache-dir DIR] [--timeout-ms N]
             [--surrogate-budget F] [--surrogate-model PATH]
             [--surrogate-refit-every N]

options:
  --socket PATH             unix socket to listen on (required)
  --threads N               worker threads per characterize request (default: 1)
  --inflight N              max concurrently running characterize requests (default: 4)
  --shards N                shard-count hint for the memo and arc cache (default: 16)
  --cache-dir DIR           persist the arc cache to DIR (default: memory only)
  --timeout-ms N            queue wait before shedding with overload (default: 5000)
  --surrogate-budget F      enable the tier-0 surrogate with this relative-error
                            budget (e.g. 0.05); off by default
  --surrogate-model PATH    load a trained model from PATH and persist refits there
  --surrogate-refit-every N retrain after N observed samples (default: 64; 0 = off)
  -h, --help                show this help
";

const FLAGS: &[Flag] = &[
    Flag::value("--socket"),
    Flag::value("--threads"),
    Flag::value("--inflight"),
    Flag::value("--shards"),
    Flag::value("--timeout-ms"),
    Flag::value("--cache-dir"),
    Flag::value("--surrogate-budget"),
    Flag::value("--surrogate-model"),
    Flag::value("--surrogate-refit-every"),
];

fn run(args: &Args) -> Result<(), FlowError> {
    let socket: PathBuf =
        args.get("--socket")?.ok_or_else(|| FlowError::Usage("--socket is required".into()))?;
    let mut config = ServeConfig::new(socket);
    let count = |flag: &str| Ok::<_, FlowError>(args.get::<NonZeroUsize>(flag)?.map(usize::from));
    config.workers = count("--threads")?.unwrap_or(config.workers);
    config.max_inflight = count("--inflight")?.unwrap_or(config.max_inflight);
    config.shards = count("--shards")?.unwrap_or(config.shards);
    if let Some(ms) = args.get("--timeout-ms")? {
        config.queue_timeout = Duration::from_millis(ms);
    }
    config.cache_dir = args.get("--cache-dir")?;
    config.surrogate_budget = args.get::<f64>("--surrogate-budget")?;
    if let Some(budget) = config.surrogate_budget.filter(|b| !(b.is_finite() && *b >= 0.0)) {
        return Err(cli::invalid("--surrogate-budget", budget, "must be finite and non-negative"));
    }
    config.surrogate_model = args.get("--surrogate-model")?;
    config.surrogate_refit_every =
        args.get("--surrogate-refit-every")?.unwrap_or(config.surrogate_refit_every);

    let server = Server::bind(config, CellSet::nangate45_like())?;
    eprintln!("serve: listening on {}", server.socket().display());
    server.run();
    Ok(())
}

fn main() -> ExitCode {
    cli::run(USAGE, FLAGS, run)
}
