//! `RunContext` — the per-run observability spine of the flow.
//!
//! Batch drivers create one [`RunContext`] per run and thread it through
//! every stage. It owns the shared [`ArcCache`] and worker count, and it
//! collects an instrumentation record: per-stage wall time, task counts,
//! structured events and the cache's [`CacheStats`]. [`RunContext::report`]
//! freezes the record into a [`RunReport`] that serializes as the
//! `reliaware-run-v1` JSON schema — the machine-readable run report the
//! bench CLIs emit behind `--report <path>`.
//!
//! Instrumentation is strictly observational: wrapping a computation in
//! [`RunContext::stage`] never changes its result, so instrumented runs
//! stay bit-identical to uninstrumented ones (perfbench asserts this).

use crate::cache::{ArcCache, CacheStats};
use crate::error::FlowError;
use bti::json::Json;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One named stage's accumulated instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage name (stable across runs; used as the JSON key).
    pub name: String,
    /// Accumulated wall-clock seconds across all [`RunContext::stage`]
    /// calls with this name.
    pub seconds: f64,
    /// Work items attributed to the stage via [`RunContext::add_tasks`].
    pub tasks: u64,
    /// Events attributed to the stage via [`RunContext::event`].
    pub events: u64,
}

/// One structured event, attached to a stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEvent {
    /// The stage the event belongs to.
    pub stage: String,
    /// Free-form event text.
    pub message: String,
}

#[derive(Debug, Default)]
struct Sink {
    stages: Vec<StageRecord>,
    events: Vec<RunEvent>,
}

impl Sink {
    fn stage_mut(&mut self, name: &str) -> &mut StageRecord {
        if let Some(i) = self.stages.iter().position(|s| s.name == name) {
            &mut self.stages[i]
        } else {
            self.stages.push(StageRecord {
                name: name.to_owned(),
                seconds: 0.0,
                tasks: 0,
                events: 0,
            });
            let last = self.stages.len() - 1;
            &mut self.stages[last]
        }
    }
}

/// Shared, thread-safe run state: cache, worker count and the
/// instrumentation sink. Cheap to share via [`Arc`]; all mutation is behind
/// a mutex, and a poisoned sink degrades to the last-written record rather
/// than panicking.
#[derive(Debug)]
pub struct RunContext {
    workers: usize,
    cache: Mutex<Option<Arc<ArcCache>>>,
    start: Instant,
    sink: Mutex<Sink>,
}

impl Default for RunContext {
    fn default() -> Self {
        Self::new()
    }
}

impl RunContext {
    /// A context with the machine's available parallelism and no cache.
    #[must_use]
    pub fn new() -> Self {
        RunContext {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cache: Mutex::new(None),
            start: Instant::now(),
            sink: Mutex::new(Sink::default()),
        }
    }

    /// Sets the worker count every characterization stage inherits.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Attaches the shared arc cache (builder form).
    #[must_use]
    pub fn with_cache(self, cache: Arc<ArcCache>) -> Self {
        self.attach_cache(cache);
        self
    }

    /// Attaches (or replaces) the shared arc cache after construction.
    pub fn attach_cache(&self, cache: Arc<ArcCache>) {
        *self.cache.lock().unwrap_or_else(PoisonError::into_inner) = Some(cache);
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The attached arc cache, if any.
    #[must_use]
    pub fn cache(&self) -> Option<Arc<ArcCache>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The attached cache's counters, if a cache is attached.
    #[must_use]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache().map(|c| c.stats())
    }

    /// Runs `f`, attributing its wall time to stage `name`. Returns `f`'s
    /// result unchanged — including `Result`s, so stages wrap fallible
    /// work transparently: `ctx.stage("sta", || analyze(...))?`.
    pub fn stage<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record_stage(name, t0.elapsed().as_secs_f64(), 0);
        r
    }

    /// Records pre-timed work against stage `name` (for call sites that
    /// need the duration themselves, e.g. to compute speedups).
    pub fn record_stage(&self, name: &str, seconds: f64, tasks: u64) {
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        let s = sink.stage_mut(name);
        s.seconds += seconds;
        s.tasks += tasks;
    }

    /// Attributes `tasks` work items to stage `name` (e.g. cells queued by
    /// a library build running under that stage).
    pub fn add_tasks(&self, name: &str, tasks: u64) {
        self.record_stage(name, 0.0, tasks);
    }

    /// Surfaces an incremental-STA engine's counters ([`sta::StaStats`])
    /// under stage `name`: the instances re-evaluated by the last change
    /// set are attributed as tasks, and a structured event records the
    /// touched fraction alongside the cumulative change/refresh counts —
    /// the timing-graph analogue of the [`CacheStats`] block.
    pub fn record_sta_stats(&self, name: &str, stats: &sta::StaStats) {
        self.add_tasks(name, stats.last_recomputed as u64);
        self.event(
            name,
            format!(
                "incremental sta: recomputed {}/{} instances ({:.2}% touched), \
                 {} change sets, {} full refreshes",
                stats.last_recomputed,
                stats.instances_total,
                100.0 * stats.last_touched_fraction(),
                stats.changes_applied,
                stats.full_refreshes,
            ),
        );
    }

    /// Appends a structured event under stage `name`.
    pub fn event(&self, name: &str, message: impl Into<String>) {
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        sink.stage_mut(name).events += 1;
        sink.events.push(RunEvent { stage: name.to_owned(), message: message.into() });
    }

    /// Freezes the instrumentation into a serializable [`RunReport`].
    #[must_use]
    pub fn report(&self) -> RunReport {
        let sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = self.cache();
        RunReport {
            workers: self.workers,
            total_seconds: self.start.elapsed().as_secs_f64(),
            stages: sink.stages.clone(),
            events: sink.events.clone(),
            cache: cache.as_ref().map(|c| c.stats()),
            tier0_refits: cache.as_ref().map_or(0, |c| c.tier0_refits()),
        }
    }
}

/// A frozen run record, serializable as the `reliaware-run-v1` schema.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Worker count the run was configured with.
    pub workers: usize,
    /// Wall-clock seconds from context creation to [`RunContext::report`].
    pub total_seconds: f64,
    /// Per-stage instrumentation, in first-touched order.
    pub stages: Vec<StageRecord>,
    /// All structured events, in emission order.
    pub events: Vec<RunEvent>,
    /// Cache counters at report time (`null` in JSON when no cache).
    pub cache: Option<CacheStats>,
    /// Tier-0 surrogate refits completed by the cache's tier (0 when no
    /// cache or no tier is attached).
    pub tier0_refits: u64,
}

impl RunReport {
    /// The schema identifier embedded in every serialized report.
    pub const SCHEMA: &'static str = "reliaware-run-v1";

    /// Serializes the report as `reliaware-run-v1` JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let stages = self.stages.iter().map(|s| {
            Json::obj([
                ("name", s.name.as_str().into()),
                ("seconds", s.seconds.into()),
                ("tasks", s.tasks.into()),
                ("events", s.events.into()),
            ])
        });
        let events = self.events.iter().map(|e| {
            Json::obj([("stage", e.stage.as_str().into()), ("message", e.message.as_str().into())])
        });
        let cache = self.cache.as_ref().map(|c| {
            Json::obj([
                ("memory_hits", c.memory_hits.into()),
                ("disk_hits", c.disk_hits.into()),
                ("misses", c.misses.into()),
                ("coalesced", c.coalesced.into()),
                ("tier0_hits", c.tier0_hits.into()),
                ("tier0_fallbacks", c.tier0_fallbacks.into()),
                ("tier0_refits", self.tier0_refits.into()),
                ("hit_rate", c.hit_rate().into()),
            ])
        });
        Json::obj([
            ("schema", Self::SCHEMA.into()),
            ("workers", self.workers.into()),
            ("total_seconds", self.total_seconds.into()),
            ("stages", stages.collect()),
            ("events", events.collect()),
            ("cache", cache.unwrap_or(Json::Null)),
        ])
        .render_pretty()
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Io`] when the file cannot be written.
    pub fn write(&self, path: &Path) -> Result<(), FlowError> {
        std::fs::write(path, self.to_json()).map_err(|e| FlowError::io(path.display(), &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_accumulate_by_name() {
        let ctx = RunContext::new().with_workers(3);
        assert_eq!(ctx.stage("sta", || 41 + 1), 42);
        ctx.stage("sta", || ());
        ctx.add_tasks("sta", 7);
        ctx.event("sta", "endpoint count: 12");
        let report = ctx.report();
        assert_eq!(report.workers, 3);
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stages[0].tasks, 7);
        assert_eq!(report.stages[0].events, 1);
        assert!(report.stages[0].seconds >= 0.0);
        assert_eq!(report.events.len(), 1);
    }

    #[test]
    fn stage_propagates_results_and_errors() {
        let ctx = RunContext::new();
        let ok: Result<u32, String> = ctx.stage("a", || Ok(5));
        assert_eq!(ok, Ok(5));
        let err: Result<u32, String> = ctx.stage("a", || Err("boom".into()));
        assert_eq!(err, Err("boom".to_owned()));
    }

    #[test]
    fn report_json_schema() {
        let ctx = RunContext::new().with_workers(2).with_cache(Arc::new(ArcCache::in_memory()));
        ctx.stage("characterize", || ());
        ctx.event("characterize", "cells: \"4\"");
        let json = ctx.report().to_json();
        assert!(json.contains(r#""schema": "reliaware-run-v1""#), "{json}");
        assert!(json.contains(r#""name": "characterize""#), "{json}");
        assert!(json.contains(r#""hit_rate""#), "{json}");
        assert!(json.contains(r#""tier0_hits": 0"#), "{json}");
        assert!(json.contains(r#""tier0_refits": 0"#), "{json}");
        assert!(json.contains(r#"cells: \"4\""#), "{json}");
    }

    #[test]
    fn report_json_round_trips() {
        let report = RunReport {
            workers: 3,
            total_seconds: 1.0 / 3.0,
            stages: vec![StageRecord {
                name: "sta \"x\"".into(),
                seconds: f64::INFINITY,
                tasks: 7,
                events: 1,
            }],
            events: vec![RunEvent { stage: "sta".into(), message: "a\nb".into() }],
            cache: Some(CacheStats { misses: 4, ..CacheStats::default() }),
            tier0_refits: 2,
        };
        let doc = Json::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(RunReport::SCHEMA));
        assert_eq!(doc.get("workers").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("total_seconds").and_then(Json::as_f64), Some(1.0 / 3.0));
        let stage = &doc.get("stages").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(stage.get("name").and_then(Json::as_str), Some("sta \"x\""));
        assert_eq!(stage.get("seconds"), Some(&Json::Null));
        assert_eq!(stage.get("tasks").and_then(Json::as_u64), Some(7));
        let event = &doc.get("events").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(event.get("message").and_then(Json::as_str), Some("a\nb"));
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(4));
        assert_eq!(cache.get("tier0_refits").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn report_without_cache_is_null() {
        let json = RunContext::new().report().to_json();
        assert!(json.contains(r#""cache": null"#), "{json}");
    }

    #[test]
    fn cache_can_attach_late() {
        let ctx = RunContext::new();
        assert!(ctx.cache_stats().is_none());
        ctx.attach_cache(Arc::new(ArcCache::in_memory()));
        assert!(ctx.cache_stats().is_some());
    }
}
