//! The unix-socket characterization server.
//!
//! One thread per connection, newline-delimited JSON requests
//! ([`crate::protocol`]). Three layers keep concurrent clients cheap:
//!
//! 1. a **library-level memo** — a sharded [`Coalescer`] keyed on
//!    [`CharRequest::content_key`], so identical requests (same cells, OPC
//!    grid, scenario) are answered from memory and identical *in-flight*
//!    requests join the same computation instead of repeating it;
//! 2. the shared **arc-level** [`ArcCache`], so even *different* requests
//!    reuse per-arc transient simulations they have in common;
//! 3. a **bounded in-flight gate** — at most `max_inflight` *distinct
//!    characterizations* run concurrently. Memo hits and coalesced joins
//!    bypass the gate entirely (they cost nothing and must never be
//!    shed); a request that would start a new computation but cannot get
//!    a slot within `queue_timeout` is shed with a typed `overload`
//!    response. That is the backpressure contract: connections are never
//!    stalled indefinitely or dropped mid-line, and load shedding is
//!    explicit and machine-readable.
//!
//! Every characterize request runs under its own [`RunContext`], so
//! per-request stage timing and cache counters are observable server-side.

use crate::protocol::{CharRequest, Op, Request, Response, ServedVia, StatsSnapshot};
use flow::{
    ArcCache, CharConfig, Characterizer, CoalesceOutcome, Coalescer, FlowError, RunContext,
    SurrogateTier,
};
use liberty::write_library;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use surrogate::SurrogateModel;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-socket path to listen on (created; removed on shutdown).
    pub socket: PathBuf,
    /// Worker threads each characterize request may use.
    pub workers: usize,
    /// Maximum concurrently *running* characterize requests; further
    /// requests wait up to [`ServeConfig::queue_timeout`], then are shed.
    pub max_inflight: usize,
    /// How long a request may wait for an in-flight slot before the
    /// server sheds it with an `overload` response.
    pub queue_timeout: Duration,
    /// Optional disk tier for the arc cache.
    pub cache_dir: Option<PathBuf>,
    /// Shard count hint for the library memo and arc cache.
    pub shards: usize,
    /// Tier-0 surrogate accuracy budget (maximum conformal relative error
    /// a served prediction may carry); `None` disables the learned tier.
    pub surrogate_budget: Option<f64>,
    /// Serialized surrogate model: loaded at bind time when readable, and
    /// rewritten after every online refit. Only used with a budget set.
    pub surrogate_model: Option<PathBuf>,
    /// Online refit cadence: retrain after this many observed samples
    /// (0 keeps whatever model was loaded, without online training).
    pub surrogate_refit_every: usize,
}

impl ServeConfig {
    /// A config listening on `socket` with library defaults: inflight
    /// bound 4× workers, 5 s queue timeout, in-memory cache, 16 shards.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            workers: 1,
            max_inflight: 4,
            queue_timeout: Duration::from_secs(5),
            cache_dir: None,
            shards: 16,
            surrogate_budget: None,
            surrogate_model: None,
            surrogate_refit_every: 64,
        }
    }
}

/// Counting semaphore with a bounded wait — the backpressure primitive.
#[derive(Debug)]
struct Gate {
    running: Mutex<usize>,
    freed: Condvar,
    max: usize,
}

impl Gate {
    fn new(max: usize) -> Self {
        Gate { running: Mutex::new(0), freed: Condvar::new(), max: max.max(1) }
    }

    /// Claims a slot, waiting at most `timeout`. Returns `None` when the
    /// server stayed at capacity for the whole window (→ shed the request).
    fn enter(&self, timeout: Duration) -> Option<GateGuard<'_>> {
        let deadline = Instant::now() + timeout;
        let mut running = match self.running.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        while *running >= self.max {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (next, result) = match self.freed.wait_timeout(running, left) {
                Ok((g, r)) => (g, r),
                Err(poisoned) => {
                    let (g, r) = poisoned.into_inner();
                    (g, r)
                }
            };
            running = next;
            if result.timed_out() && *running >= self.max {
                return None;
            }
        }
        *running += 1;
        Some(GateGuard { gate: self })
    }
}

struct GateGuard<'a> {
    gate: &'a Gate,
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        let mut running = match self.gate.running.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *running = running.saturating_sub(1);
        drop(running);
        self.gate.freed.notify_one();
    }
}

/// Shared server state: catalog, caches, counters.
#[derive(Debug)]
struct ServerState {
    config: ServeConfig,
    catalog: stdcells::CellSet,
    /// Library-level memo: content key → rendered Liberty text.
    libraries: Coalescer<String>,
    /// Arc-level simulation cache shared by all requests.
    cache: Arc<ArcCache>,
    gate: Gate,
    requests: AtomicU64,
    served: AtomicU64,
    errors: AtomicU64,
    overloads: AtomicU64,
    /// Characterize computations run with non-zero process variation.
    varied: AtomicU64,
    stop: AtomicBool,
}

impl ServerState {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            overloads: self.overloads.load(Ordering::Relaxed),
            library: self.libraries.stats(),
            cache: self.cache.stats(),
            tier0_refits: self.cache.tier0_refits(),
            varied: self.varied.load(Ordering::Relaxed),
            library_shards: self.libraries.shard_count() as u64,
            cache_shards: self.cache.shard_count() as u64,
        }
    }

    /// Serves one characterize request end to end.
    ///
    /// The in-flight gate deliberately sits *inside* the memo's compute
    /// path: memo hits and coalesced joins are answered regardless of
    /// load, and only requests that would start a new characterization
    /// compete for the `max_inflight` slots. A request whose computation
    /// cannot start within the queue timeout is shed with `overload`.
    fn characterize(&self, id: &str, req: &CharRequest) -> Response {
        let started = Instant::now();
        let key = req.content_key();
        let result = self.libraries.get_or_compute(key, || {
            let Some(_slot) = self.gate.enter(self.config.queue_timeout) else {
                return Err(Shed::Overload);
            };
            self.compute_library(req).map_err(Shed::Flow)
        });
        match result {
            Ok((text, outcome)) => {
                self.served.fetch_add(1, Ordering::Relaxed);
                let via = match outcome {
                    CoalesceOutcome::Hit => ServedVia::MemoHit,
                    CoalesceOutcome::Computed => ServedVia::Computed,
                    CoalesceOutcome::Coalesced => ServedVia::Coalesced,
                };
                Response::Ok {
                    id: id.to_owned(),
                    via,
                    micros: started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                    library: text.as_ref().clone(),
                }
            }
            Err(Shed::Overload) => {
                self.overloads.fetch_add(1, Ordering::Relaxed);
                Response::Overload { id: id.to_owned() }
            }
            Err(Shed::Flow(e)) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    id: id.to_owned(),
                    stage: e.stage().to_owned(),
                    message: e.to_string(),
                }
            }
        }
    }

    /// The leader path: characterize under a fresh per-request
    /// [`RunContext`] wired to the shared arc cache.
    fn compute_library(&self, req: &CharRequest) -> Result<String, FlowError> {
        let scenario = scenario_of(req)?;
        let config = CharConfig {
            vdd: req.vdd,
            slews: req.slews.clone(),
            loads: req.loads.clone(),
            max_dv: req.max_dv,
            ..CharConfig::fast()
        };
        let ctx = Arc::new(
            RunContext::new().with_workers(self.config.workers).with_cache(Arc::clone(&self.cache)),
        );
        let names: Vec<&str> = req.cells.iter().map(String::as_str).collect();
        let subset = self
            .catalog
            .checked_subset(&names)
            .map_err(|cell| FlowError::Usage(format!("unknown cell \"{cell}\"")))?;
        let mut chars = Characterizer::in_context(subset, config, &ctx).map_err(FlowError::Char)?;
        if req.sigma_vth != 0.0 {
            let variation = ptm::VariationModel {
                sigma_vth: req.sigma_vth,
                sigma_kp_frac: 0.0,
                clamp_sigmas: req.clamp_sigmas,
            };
            if let Some(problem) = variation.validation_errors().into_iter().next() {
                return Err(FlowError::Usage(format!("invalid variation: {problem}")));
            }
            chars = chars.with_variation(variation, req.var_seed);
            self.varied.fetch_add(1, Ordering::Relaxed);
        }
        let library = ctx.stage("characterize", || chars.library(&scenario));
        Ok(write_library(&library.map_err(FlowError::Char)?))
    }
}

/// Why a characterize leader did not produce a library.
enum Shed {
    /// No computation slot freed up within the queue timeout.
    Overload,
    /// The characterization itself failed.
    Flow(FlowError),
}

fn scenario_of(req: &CharRequest) -> Result<bti::AgingScenario, FlowError> {
    let duty = |name: &str, v: f64| {
        bti::DutyCycle::new(v).map_err(|e| FlowError::Usage(format!("invalid {name}: {e}")))
    };
    if !(req.years.is_finite() && req.years >= 0.0) {
        return Err(FlowError::Usage(format!("invalid years: {}", req.years)));
    }
    Ok(bti::AgingScenario::new(
        duty("lambda_pmos", req.lambda_pmos)?,
        duty("lambda_nmos", req.lambda_nmos)?,
        req.years,
    )
    .with_environment(req.temperature_k, req.vdd))
}

/// A bound, not-yet-running characterization server.
#[derive(Debug)]
pub struct Server {
    listener: UnixListener,
    state: Arc<ServerState>,
}

/// Handle to a server running on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    state: Arc<ServerState>,
    socket: PathBuf,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, serving `catalog` under `config`. A stale
    /// socket file from a previous run is removed first.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Io`] when the socket cannot be bound.
    pub fn bind(config: ServeConfig, catalog: stdcells::CellSet) -> Result<Server, FlowError> {
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)
                .map_err(|e| FlowError::io(config.socket.display(), &e))?;
        }
        let listener = UnixListener::bind(&config.socket)
            .map_err(|e| FlowError::io(config.socket.display(), &e))?;
        let mut cache = match &config.cache_dir {
            Some(dir) => ArcCache::with_dir(dir),
            None => ArcCache::in_memory(),
        };
        if let Some(budget) = config.surrogate_budget {
            let mut tier =
                SurrogateTier::new(budget).with_refit_every(config.surrogate_refit_every);
            if let Some(path) = &config.surrogate_model {
                tier = tier.with_persist(path);
                if let Ok(model) = SurrogateModel::load(path) {
                    tier = tier.with_model(model);
                }
            }
            cache = cache.with_tier0(Arc::new(tier));
        }
        let state = Arc::new(ServerState {
            libraries: Coalescer::with_shards(config.shards),
            cache: Arc::new(cache),
            gate: Gate::new(config.max_inflight),
            catalog,
            config,
            requests: AtomicU64::new(0),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            overloads: AtomicU64::new(0),
            varied: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        Ok(Server { listener, state })
    }

    /// The socket path the server listens on.
    #[must_use]
    pub fn socket(&self) -> &Path {
        &self.state.config.socket
    }

    /// Runs the accept loop on the current thread until
    /// [`ServerHandle::shutdown`] (or process exit).
    pub fn run(self) {
        for stream in self.listener.incoming() {
            if self.state.stop.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(conn) => {
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || serve_connection(&state, conn));
                }
                Err(_) => break,
            }
        }
        let _ = std::fs::remove_file(&self.state.config.socket);
    }

    /// Moves the accept loop onto a background thread and returns a
    /// shutdown handle.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let state = Arc::clone(&self.state);
        let socket = self.state.config.socket.clone();
        let accept_thread = std::thread::spawn(move || self.run());
        ServerHandle { state, socket, accept_thread: Some(accept_thread) }
    }
}

impl ServerHandle {
    /// The socket path the server listens on.
    #[must_use]
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// A snapshot of the server's counters (same data as the `stats` op).
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.state.snapshot()
    }

    /// Stops accepting connections and joins the accept thread. In-flight
    /// connections finish their current request; idle ones see EOF.
    pub fn shutdown(mut self) {
        self.stop_accepting();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    fn stop_accepting(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // The accept loop only observes `stop` when a connection arrives;
        // poke it with a throwaway connect so it wakes up and exits.
        let _ = UnixStream::connect(&self.socket);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_accepting();
            if let Some(t) = self.accept_thread.take() {
                let _ = t.join();
            }
        }
    }
}

/// Reads request lines until EOF, answering each on the same stream.
fn serve_connection(state: &ServerState, conn: UnixStream) {
    let Ok(write_half) = conn.try_clone() else { return };
    let mut writer = write_half;
    let reader = BufReader::new(conn);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::parse(&line) {
            Err(message) => {
                state.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error { id: String::new(), stage: "usage".to_owned(), message }
            }
            Ok(request) => {
                state.requests.fetch_add(1, Ordering::Relaxed);
                match &request.op {
                    Op::Characterize(c) => state.characterize(&request.id, c),
                    Op::Stats => {
                        Response::Stats { id: request.id.clone(), snapshot: state.snapshot() }
                    }
                    Op::Ping => Response::Ok {
                        id: request.id.clone(),
                        via: ServedVia::MemoHit,
                        micros: 0,
                        library: String::new(),
                    },
                }
            }
        };
        let mut line = response.to_line();
        line.push('\n');
        if writer.write_all(line.as_bytes()).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_bounds_concurrency_and_sheds_on_timeout() {
        let gate = Gate::new(2);
        let a = gate.enter(Duration::from_millis(10));
        let b = gate.enter(Duration::from_millis(10));
        assert!(a.is_some() && b.is_some());
        assert!(gate.enter(Duration::from_millis(20)).is_none(), "third slot must shed");
        drop(a);
        assert!(gate.enter(Duration::from_millis(10)).is_some(), "freed slot reusable");
    }

    #[test]
    fn gate_wakes_waiters_when_a_slot_frees() {
        let gate = Arc::new(Gate::new(1));
        let held = gate.enter(Duration::from_secs(1));
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.enter(Duration::from_secs(5)).is_some())
        };
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        assert!(waiter.join().unwrap(), "waiter should win the freed slot");
    }

    #[test]
    fn scenario_validation_rejects_bad_duties() {
        let mut req = CharRequest::new(&["INV_X1"], 0.4, 0.6, 10.0);
        assert!(scenario_of(&req).is_ok());
        req.lambda_pmos = 1.5;
        assert!(scenario_of(&req).is_err());
        req.lambda_pmos = 0.4;
        req.years = f64::NAN;
        assert!(scenario_of(&req).is_err());
    }

    #[test]
    fn deeply_nested_line_gets_a_usage_error_and_the_server_lives_on() {
        let socket =
            std::env::temp_dir().join(format!("reliaware_nesting_{}.sock", std::process::id()));
        let catalog = stdcells::CellSet::nangate45_like();
        let handle = Server::bind(ServeConfig::new(&socket), catalog).unwrap().spawn();
        let mut conn = UnixStream::connect(&socket).unwrap();
        conn.write_all(format!("{}\n", "[".repeat(100_000)).as_bytes()).unwrap();
        let mut reply = String::new();
        BufReader::new(&conn).read_line(&mut reply).unwrap();
        match Response::parse(reply.trim_end()).unwrap() {
            Response::Error { stage, message, .. } => {
                assert_eq!(stage, "usage");
                assert!(message.contains("nesting"), "{message}");
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
        let mut client = crate::Client::connect(&socket).unwrap();
        assert_eq!(client.stats().unwrap().errors, 1);
        handle.shutdown();
    }
}
