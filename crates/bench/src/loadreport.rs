//! The schema-versioned load-generator record (`reliaware-loadgen-v2`).
//!
//! v1 lived inline in the `loadgen` binary; v2 moves the rendering here so
//! the schema is library-testable, and extends every load phase's `server`
//! block with the tier-0 surrogate counters (`cache_tier0_hits`,
//! `cache_tier0_fallbacks`, `cache_tier0_refits`) — the per-phase deltas a
//! dashboard needs to see how much simulation the learned tier displaced.

use bti::json::Json;
use serve::{LoadReport, StormReport};

/// The schema identifier embedded in every serialized record.
pub const LOADGEN_SCHEMA: &str = "reliaware-loadgen-v2";

/// Everything one `BENCH_*_loadgen.json` record carries.
#[derive(Debug)]
pub struct LoadgenRecord<'a> {
    /// `"smoke"` or `"full"`.
    pub mode: &'a str,
    /// Client counts the load phase swept.
    pub clients: &'a [usize],
    /// Requests per client per load phase.
    pub requests_per_client: usize,
    /// Unique λ-keys in the load key space.
    pub unique_keys: usize,
    /// Hot-key probability in `[0, 1]`.
    pub hot_key_bias: f64,
    /// Whether the key space was pre-warmed before timing.
    pub warm: bool,
    /// Record timestamp (unix seconds).
    pub unix_time: u64,
    /// Human-readable UTC stamp (see [`crate::utc_stamp`]).
    pub stamp: &'a str,
    /// The identical-key storm result.
    pub storm: &'a StormReport,
    /// `(overloads, served)` from the shed phase, if it ran.
    pub shed: Option<(u64, u64)>,
    /// One report per client count.
    pub loads: &'a [LoadReport],
    /// Throughput ratio last/first client count, if computable.
    pub scaling: Option<f64>,
}

impl LoadgenRecord<'_> {
    /// Serializes the record as `reliaware-loadgen-v2` JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let storm = self.storm;
        let loads = self.loads.iter().map(|r| {
            let d = &r.stats_delta;
            let server = Json::obj([
                ("lib_hits", d.library.hits.into()),
                ("lib_computed", d.library.computed.into()),
                ("lib_coalesced", d.library.coalesced.into()),
                ("cache_memory_hits", d.cache.memory_hits.into()),
                ("cache_disk_hits", d.cache.disk_hits.into()),
                ("cache_misses", d.cache.misses.into()),
                ("cache_coalesced", d.cache.coalesced.into()),
                ("cache_tier0_hits", d.cache.tier0_hits.into()),
                ("cache_tier0_fallbacks", d.cache.tier0_fallbacks.into()),
                ("cache_tier0_refits", d.tier0_refits.into()),
            ]);
            Json::obj([
                ("clients", r.clients.into()),
                ("requests", r.requests.into()),
                ("ok", r.ok.into()),
                ("errors", r.errors.into()),
                ("overloads", r.overloads.into()),
                ("seconds", r.seconds.into()),
                ("throughput_rps", r.throughput_rps.into()),
                ("p50_us", r.p50_us.into()),
                ("p95_us", r.p95_us.into()),
                ("p99_us", r.p99_us.into()),
                ("memo_hits", r.memo_hits.into()),
                ("computed", r.computed.into()),
                ("coalesced", r.coalesced.into()),
                ("server", server),
            ])
        });
        let mut fields = vec![
            ("schema", LOADGEN_SCHEMA.into()),
            ("stamp", self.stamp.into()),
            ("unix_time", self.unix_time.into()),
            ("machine", crate::machine()),
            (
                "config",
                Json::obj([
                    ("mode", self.mode.into()),
                    ("clients", self.clients.iter().copied().collect()),
                    ("requests_per_client", self.requests_per_client.into()),
                    ("unique_keys", self.unique_keys.into()),
                    ("hot_key_bias", self.hot_key_bias.into()),
                    ("warm", self.warm.into()),
                ]),
            ),
            (
                "storm",
                Json::obj([
                    ("clients", storm.clients.into()),
                    ("computed", storm.computed.into()),
                    ("absorbed", storm.absorbed.into()),
                    ("server_computed", storm.server_computed.into()),
                    ("all_identical", storm.all_identical.into()),
                    ("bit_identical_to_direct", true.into()),
                ]),
            ),
        ];
        if let Some((overloads, served)) = self.shed {
            let shed = Json::obj([("overloads", overloads.into()), ("served", served.into())]);
            fields.push(("shed", shed));
        }
        fields.push(("loads", loads.collect()));
        fields.push(("throughput_scaling", self.scaling.map_or(Json::Null, Json::from)));
        Json::obj(fields).render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::StatsSnapshot;

    fn sample_record<'a>(storm: &'a StormReport, loads: &'a [LoadReport]) -> LoadgenRecord<'a> {
        LoadgenRecord {
            mode: "smoke",
            clients: &[1, 4],
            requests_per_client: 8,
            unique_keys: 3,
            hot_key_bias: 0.3,
            warm: true,
            unix_time: 1_465_128_000,
            stamp: "20160605-120000",
            storm,
            shed: Some((2, 1)),
            loads,
            scaling: Some(1.5),
        }
    }

    #[test]
    fn record_carries_v2_schema_and_tier0_counters() {
        let storm = StormReport {
            clients: 6,
            ok: 6,
            computed: 1,
            absorbed: 5,
            server_computed: 1,
            library: String::new(),
            all_identical: true,
        };
        let delta = StatsSnapshot {
            cache: flow::CacheStats { tier0_hits: 11, tier0_fallbacks: 3, ..Default::default() },
            tier0_refits: 1,
            ..Default::default()
        };
        let loads = vec![LoadReport {
            clients: 4,
            requests: 32,
            ok: 32,
            errors: 0,
            overloads: 0,
            memo_hits: 20,
            computed: 8,
            coalesced: 4,
            seconds: 0.5,
            throughput_rps: 64.0,
            p50_us: 100,
            p95_us: 400,
            p99_us: 900,
            stats_delta: delta,
        }];
        let json = sample_record(&storm, &loads).to_json();
        assert!(json.contains(r#""schema": "reliaware-loadgen-v2""#), "{json}");
        assert!(json.contains(r#""cache_tier0_hits": 11"#), "{json}");
        assert!(json.contains(r#""cache_tier0_fallbacks": 3"#), "{json}");
        assert!(json.contains(r#""cache_tier0_refits": 1"#), "{json}");
        // The v1 identifier must be gone: consumers key on the schema
        // string to pick the parser.
        assert!(!json.contains("reliaware-loadgen-v1"), "{json}");
    }

    #[test]
    fn record_round_trips() {
        let storm = StormReport {
            clients: 6,
            ok: 6,
            computed: 1,
            absorbed: 5,
            server_computed: 1,
            library: String::new(),
            all_identical: true,
        };
        let delta = StatsSnapshot { tier0_refits: 9, ..Default::default() };
        let loads = vec![LoadReport {
            clients: 4,
            requests: 32,
            ok: 31,
            errors: 1,
            overloads: 0,
            memo_hits: 20,
            computed: 8,
            coalesced: 4,
            seconds: 0.0,
            throughput_rps: f64::INFINITY,
            p50_us: 100,
            p95_us: 400,
            p99_us: 900,
            stats_delta: delta,
        }];
        let record = LoadgenRecord { scaling: None, ..sample_record(&storm, &loads) };
        let doc = Json::parse(&record.to_json()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(LOADGEN_SCHEMA));
        assert_eq!(doc.get("stamp").and_then(Json::as_str), Some("20160605-120000"));
        assert_eq!(doc.get("unix_time").and_then(Json::as_u64), Some(1_465_128_000));
        let config = doc.get("config").unwrap();
        assert_eq!(config.get("clients"), Some(&Json::Arr(vec![1.0.into(), 4.0.into()])));
        assert_eq!(config.get("hot_key_bias").and_then(Json::as_f64), Some(0.3));
        assert_eq!(doc.get("storm").unwrap().get("absorbed").and_then(Json::as_u64), Some(5));
        assert_eq!(doc.get("shed").unwrap().get("overloads").and_then(Json::as_u64), Some(2));
        let load = &doc.get("loads").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(load.get("ok").and_then(Json::as_u64), Some(31));
        assert_eq!(load.get("throughput_rps"), Some(&Json::Null));
        let server = load.get("server").unwrap();
        assert_eq!(server.get("cache_tier0_refits").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get("throughput_scaling"), Some(&Json::Null));
    }
}
