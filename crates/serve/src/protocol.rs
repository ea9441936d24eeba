//! The `reliaware-serve-v1` request/response line protocol.
//!
//! One JSON object per line in each direction. A characterization request
//! names the cells, the slew/load (OPC) grid, the aging scenario (duty
//! cycles, years, environment) and the simulator accuracy; the response
//! carries the characterized library as Liberty-subset text. Both
//! directions are built as [`bti::json::Json`] values and rendered by that
//! codec. Because both the JSON numbers (see [`bti::json::render_f64`])
//! and the Liberty writer use shortest round-trip float formatting, a
//! served library is bit-identical to one produced by calling
//! [`flow::Characterizer`] directly in the client's process.
//!
//! Requests also carry an `op`:
//!
//! - `"characterize"` (the default) — produce a library.
//! - `"stats"` — snapshot the server's cache/coalescing/backpressure
//!   counters (used by the load generator to verify compute-exactly-once).
//! - `"ping"` — liveness probe; responds with `status: "ok"` and no body.

use bti::json::Json;
use flow::{CacheStats, CharConfig, CoalesceStats, KeyHasher};

/// The protocol identifier every request and response carries in `v`.
pub const PROTOCOL: &str = "reliaware-serve-v1";

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed back verbatim.
    pub id: String,
    /// What the client wants.
    pub op: Op,
}

/// The request operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Characterize a library under an aging scenario.
    Characterize(CharRequest),
    /// Snapshot server counters.
    Stats,
    /// Liveness probe.
    Ping,
}

/// The payload of a `characterize` request.
#[derive(Debug, Clone, PartialEq)]
pub struct CharRequest {
    /// Cell names to characterize (must exist in the server's catalog).
    pub cells: Vec<String>,
    /// Input-slew axis in seconds; defaults to the server's fast grid.
    pub slews: Vec<f64>,
    /// Output-load axis in farad; defaults to the server's fast grid.
    pub loads: Vec<f64>,
    /// pMOS duty cycle λp in `[0, 1]`.
    pub lambda_pmos: f64,
    /// nMOS duty cycle λn in `[0, 1]`.
    pub lambda_nmos: f64,
    /// Lifetime in years the degradation is evaluated at.
    pub years: f64,
    /// Junction temperature in kelvin.
    pub temperature_k: f64,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Integrator accuracy in volts per step.
    pub max_dv: f64,
    /// 1-sigma per-instance fresh-Vth spread in volts; `0` (the default)
    /// characterizes the nominal corner with no variation applied.
    pub sigma_vth: f64,
    /// Clamp sampled offsets at ±`clamp_sigmas` standard deviations.
    pub clamp_sigmas: f64,
    /// Die seed of the variation sampling stream; the same
    /// `(sigma_vth, clamp_sigmas, var_seed)` triple always reproduces the
    /// same sampled die. Ignored when `sigma_vth` is `0`. Must be an
    /// integer in `[0, 2^53)` ([`bti::json::MAX_SAFE_INT`]): JSON numbers
    /// carry no larger integer exactly, so [`Request::parse`] refuses it.
    pub var_seed: u64,
}

impl CharRequest {
    /// A request for `cells` at `(λp, λn, years)` using `defaults` for the
    /// OPC grid, environment and accuracy.
    #[must_use]
    pub fn new(cells: &[&str], lambda_pmos: f64, lambda_nmos: f64, years: f64) -> Self {
        let defaults = CharConfig::fast();
        CharRequest {
            cells: cells.iter().map(|&c| c.to_owned()).collect(),
            slews: defaults.slews,
            loads: defaults.loads,
            lambda_pmos,
            lambda_nmos,
            years,
            temperature_k: bti::Stress::NOMINAL_TEMPERATURE_K,
            vdd: defaults.vdd,
            max_dv: defaults.max_dv,
            sigma_vth: 0.0,
            clamp_sigmas: ptm::VariationModel::nominal_45nm().clamp_sigmas,
            var_seed: 0,
        }
    }

    /// Requests a variation-sampled die: per-instance fresh-Vth offsets
    /// drawn with `sigma_vth` volts of spread from the stream seeded by
    /// `var_seed`, an integer in `[0, 2^53)`; the server refuses a larger
    /// seed rather than round it to another die.
    #[must_use]
    pub fn with_variation(mut self, sigma_vth: f64, var_seed: u64) -> Self {
        self.sigma_vth = sigma_vth;
        self.var_seed = var_seed;
        self
    }

    /// Content hash of everything that determines the served library —
    /// the server's library-level memoization key. Cell order is
    /// canonicalized (the output library is name-ordered regardless).
    #[must_use]
    pub fn content_key(&self) -> u64 {
        let mut names: Vec<&str> = self.cells.iter().map(String::as_str).collect();
        names.sort_unstable();
        names.dedup();
        let mut h = KeyHasher::new();
        h.str(PROTOCOL).u64(names.len() as u64);
        for name in names {
            h.str(name);
        }
        h.f64s(&self.slews).f64s(&self.loads);
        h.f64(self.lambda_pmos)
            .f64(self.lambda_nmos)
            .f64(self.years)
            .f64(self.temperature_k)
            .f64(self.vdd)
            .f64(self.max_dv);
        // A sampled die is a distinct library; the nominal corner hashes
        // nothing extra so pre-variation keys stay stable.
        if self.sigma_vth != 0.0 {
            h.str("pv").f64(self.sigma_vth).f64(self.clamp_sigmas).u64(self.var_seed);
        }
        h.finish()
    }
}

impl Request {
    /// Builds a characterize request.
    #[must_use]
    pub fn characterize(id: &str, payload: CharRequest) -> Self {
        Request { id: id.to_owned(), op: Op::Characterize(payload) }
    }

    /// Builds a stats request.
    #[must_use]
    pub fn stats(id: &str) -> Self {
        Request { id: id.to_owned(), op: Op::Stats }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, a wrong or
    /// missing protocol version, an unknown op, or missing/ill-typed
    /// fields. The server turns this into a `status: "error"` response
    /// with stage `"usage"`.
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line)?;
        let version = doc.get("v").and_then(Json::as_str).unwrap_or("");
        if version != PROTOCOL {
            return Err(format!("expected v = \"{PROTOCOL}\", got \"{version}\""));
        }
        let id = doc.get("id").and_then(Json::as_str).unwrap_or("").to_owned();
        let op = doc.get("op").and_then(Json::as_str).unwrap_or("characterize");
        match op {
            "characterize" => Ok(Request { id, op: Op::Characterize(parse_char(&doc)?) }),
            "stats" => Ok(Request { id, op: Op::Stats }),
            "ping" => Ok(Request { id, op: Op::Ping }),
            other => Err(format!("unknown op \"{other}\"")),
        }
    }

    /// Renders the request as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut fields = vec![("v", PROTOCOL.into()), ("id", self.id.as_str().into())];
        match &self.op {
            Op::Stats => fields.push(("op", "stats".into())),
            Op::Ping => fields.push(("op", "ping".into())),
            Op::Characterize(c) => {
                fields.extend([
                    ("op", "characterize".into()),
                    ("cells", c.cells.iter().map(String::as_str).collect()),
                    ("slews", c.slews.iter().copied().collect()),
                    ("loads", c.loads.iter().copied().collect()),
                    ("lambda_pmos", c.lambda_pmos.into()),
                    ("lambda_nmos", c.lambda_nmos.into()),
                    ("years", c.years.into()),
                    ("temperature_k", c.temperature_k.into()),
                    ("vdd", c.vdd.into()),
                    ("max_dv", c.max_dv.into()),
                ]);
                // Variation fields ride along only on sampled-die requests,
                // so nominal request lines are byte-identical to the
                // pre-variation protocol.
                if c.sigma_vth != 0.0 {
                    fields.extend([
                        ("sigma_vth", c.sigma_vth.into()),
                        ("clamp_sigmas", c.clamp_sigmas.into()),
                        ("var_seed", c.var_seed.into()),
                    ]);
                }
            }
        }
        Json::obj(fields).render()
    }
}

fn parse_char(doc: &Json) -> Result<CharRequest, String> {
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing \"cells\" array")?
        .iter()
        .map(|c| c.as_str().map(str::to_owned).ok_or("non-string cell name"))
        .collect::<Result<Vec<_>, _>>()?;
    if cells.is_empty() {
        return Err("\"cells\" must not be empty".to_owned());
    }
    let axis = |name: &str, default: Vec<f64>| -> Result<Vec<f64>, String> {
        match doc.get(name) {
            None => Ok(default),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| format!("\"{name}\" must be an array"))?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| format!("non-numeric \"{name}\" entry")))
                .collect(),
        }
    };
    let num = |name: &str| -> Result<f64, String> {
        doc.get(name).and_then(Json::as_f64).ok_or_else(|| format!("missing numeric \"{name}\""))
    };
    let num_or = |name: &str, default: f64| -> Result<f64, String> {
        match doc.get(name) {
            None => Ok(default),
            Some(v) => v.as_f64().ok_or_else(|| format!("\"{name}\" must be a number")),
        }
    };
    let defaults = CharConfig::fast();
    Ok(CharRequest {
        cells,
        slews: axis("slews", defaults.slews)?,
        loads: axis("loads", defaults.loads)?,
        lambda_pmos: num("lambda_pmos")?,
        lambda_nmos: num("lambda_nmos")?,
        years: num("years")?,
        temperature_k: num_or("temperature_k", bti::Stress::NOMINAL_TEMPERATURE_K)?,
        vdd: num_or("vdd", defaults.vdd)?,
        max_dv: num_or("max_dv", defaults.max_dv)?,
        sigma_vth: num_or("sigma_vth", 0.0)?,
        clamp_sigmas: num_or("clamp_sigmas", ptm::VariationModel::nominal_45nm().clamp_sigmas)?,
        var_seed: match doc.get("var_seed") {
            None => 0,
            Some(v) => v.as_u64().ok_or("\"var_seed\" must be an integer in [0, 2^53)")?,
        },
    })
}

/// How the server satisfied a characterize request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedVia {
    /// The library was in the memo.
    MemoHit,
    /// This request ran the characterization.
    Computed,
    /// The request joined an identical in-flight computation.
    Coalesced,
}

impl ServedVia {
    /// The wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ServedVia::MemoHit => "memo_hit",
            ServedVia::Computed => "computed",
            ServedVia::Coalesced => "coalesced",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "memo_hit" => Some(ServedVia::MemoHit),
            "computed" => Some(ServedVia::Computed),
            "coalesced" => Some(ServedVia::Coalesced),
            _ => None,
        }
    }
}

/// A snapshot of the server's counters, returned by the `stats` op.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Requests accepted (parsed, any op).
    pub requests: u64,
    /// Characterize requests answered with a library.
    pub served: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// Requests shed with an `overload` response.
    pub overloads: u64,
    /// Library-level memo counters.
    pub library: CoalesceStats,
    /// Arc-level cache counters (zero when the server runs uncached).
    pub cache: CacheStats,
    /// Tier-0 surrogate refits completed (zero when no tier is attached).
    pub tier0_refits: u64,
    /// Characterize computations that ran with non-zero process variation
    /// (sampled dies; memo hits and coalesced joins are not re-counted).
    pub varied: u64,
    /// Shards in the library memo.
    pub library_shards: u64,
    /// Shards in the arc cache.
    pub cache_shards: u64,
}

impl StatsSnapshot {
    fn fields(&self) -> [(&'static str, u64); 17] {
        [
            ("requests", self.requests),
            ("served", self.served),
            ("errors", self.errors),
            ("overloads", self.overloads),
            ("varied", self.varied),
            ("lib_hits", self.library.hits),
            ("lib_computed", self.library.computed),
            ("lib_coalesced", self.library.coalesced),
            ("lib_shards", self.library_shards),
            ("cache_memory_hits", self.cache.memory_hits),
            ("cache_disk_hits", self.cache.disk_hits),
            ("cache_misses", self.cache.misses),
            ("cache_coalesced", self.cache.coalesced),
            ("cache_tier0_hits", self.cache.tier0_hits),
            ("cache_tier0_fallbacks", self.cache.tier0_fallbacks),
            ("cache_tier0_refits", self.tier0_refits),
            ("cache_shards", self.cache_shards),
        ]
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A characterized library (Liberty-subset text) — or an empty body
    /// for `ping`.
    Ok {
        /// Echoed request id.
        id: String,
        /// How the library was produced.
        via: ServedVia,
        /// Server-side service time in microseconds.
        micros: u64,
        /// The Liberty-subset library text; empty for `ping`.
        library: String,
    },
    /// Counter snapshot for a `stats` request.
    Stats {
        /// Echoed request id.
        id: String,
        /// The counters.
        snapshot: StatsSnapshot,
    },
    /// The request failed; mirrors [`flow::FlowError`]'s stage taxonomy.
    Error {
        /// Echoed request id (may be empty if the line didn't parse).
        id: String,
        /// Failing flow stage (`usage`, `characterize`, `io`, …).
        stage: String,
        /// Human-readable cause.
        message: String,
    },
    /// The server is at capacity; retry later. This is the backpressure
    /// contract: the connection stays open and well-formed.
    Overload {
        /// Echoed request id.
        id: String,
    },
}

impl Response {
    /// Renders the response as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut fields = vec![("v", PROTOCOL.into())];
        match self {
            Response::Ok { id, via, micros, library } => fields.extend([
                ("id", id.as_str().into()),
                ("status", "ok".into()),
                ("via", via.as_str().into()),
                ("micros", (*micros).into()),
                ("library", library.as_str().into()),
            ]),
            Response::Stats { id, snapshot } => {
                fields.extend([("id", id.as_str().into()), ("status", "stats".into())]);
                fields.extend(snapshot.fields().map(|(k, v)| (k, v.into())));
            }
            Response::Error { id, stage, message } => fields.extend([
                ("id", id.as_str().into()),
                ("status", "error".into()),
                ("stage", stage.as_str().into()),
                ("message", message.as_str().into()),
            ]),
            Response::Overload { id } => {
                fields.extend([("id", id.as_str().into()), ("status", "overload".into())]);
            }
        }
        Json::obj(fields).render()
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or an unknown `status`.
    pub fn parse(line: &str) -> Result<Response, String> {
        let doc = Json::parse(line)?;
        let id = doc.get("id").and_then(Json::as_str).unwrap_or("").to_owned();
        let status = doc.get("status").and_then(Json::as_str).unwrap_or("");
        let count = |name: &str| doc.get(name).and_then(Json::as_u64).unwrap_or(0);
        match status {
            "ok" => {
                let via = doc
                    .get("via")
                    .and_then(Json::as_str)
                    .and_then(ServedVia::parse)
                    .ok_or("missing or unknown \"via\"")?;
                Ok(Response::Ok {
                    id,
                    via,
                    micros: count("micros"),
                    library: doc.get("library").and_then(Json::as_str).unwrap_or("").to_owned(),
                })
            }
            "stats" => Ok(Response::Stats {
                id,
                snapshot: StatsSnapshot {
                    requests: count("requests"),
                    served: count("served"),
                    errors: count("errors"),
                    overloads: count("overloads"),
                    library: CoalesceStats {
                        hits: count("lib_hits"),
                        computed: count("lib_computed"),
                        coalesced: count("lib_coalesced"),
                    },
                    cache: CacheStats {
                        memory_hits: count("cache_memory_hits"),
                        disk_hits: count("cache_disk_hits"),
                        misses: count("cache_misses"),
                        coalesced: count("cache_coalesced"),
                        tier0_hits: count("cache_tier0_hits"),
                        tier0_fallbacks: count("cache_tier0_fallbacks"),
                    },
                    tier0_refits: count("cache_tier0_refits"),
                    varied: count("varied"),
                    library_shards: count("lib_shards"),
                    cache_shards: count("cache_shards"),
                },
            }),
            "error" => Ok(Response::Error {
                id,
                stage: doc.get("stage").and_then(Json::as_str).unwrap_or("").to_owned(),
                message: doc.get("message").and_then(Json::as_str).unwrap_or("").to_owned(),
            }),
            "overload" => Ok(Response::Overload { id }),
            other => Err(format!("unknown status \"{other}\"")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterize_request_round_trips() {
        let req =
            Request::characterize("r-1", CharRequest::new(&["INV_X1", "NAND2_X1"], 0.4, 0.6, 10.0));
        let line = req.to_line();
        let back = Request::parse(&line).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let line = format!(
            "{{\"v\":\"{PROTOCOL}\",\"id\":\"x\",\"cells\":[\"INV_X1\"],\
             \"lambda_pmos\":1,\"lambda_nmos\":1,\"years\":10}}"
        );
        let req = Request::parse(&line).unwrap();
        let Op::Characterize(c) = req.op else { panic!("wrong op") };
        let defaults = CharConfig::fast();
        assert_eq!(c.slews, defaults.slews);
        assert_eq!(c.loads, defaults.loads);
        assert_eq!(c.vdd, defaults.vdd);
        assert_eq!(c.max_dv, defaults.max_dv);
        assert_eq!(c.temperature_k, bti::Stress::NOMINAL_TEMPERATURE_K);
    }

    #[test]
    fn rejects_wrong_version_and_bad_fields() {
        assert!(Request::parse("{\"v\":\"other-proto\",\"op\":\"stats\"}").is_err());
        assert!(Request::parse("not json").is_err());
        let no_cells =
            format!("{{\"v\":\"{PROTOCOL}\",\"lambda_pmos\":1,\"lambda_nmos\":1,\"years\":1}}");
        assert!(Request::parse(&no_cells).is_err());
        let empty_cells = format!(
            "{{\"v\":\"{PROTOCOL}\",\"cells\":[],\"lambda_pmos\":1,\"lambda_nmos\":1,\"years\":1}}"
        );
        assert!(Request::parse(&empty_cells).is_err());
        let bad_op = format!("{{\"v\":\"{PROTOCOL}\",\"op\":\"reboot\"}}");
        assert!(Request::parse(&bad_op).is_err());
    }

    #[test]
    fn variation_requests_round_trip_and_key_distinct_dies() {
        let nominal = CharRequest::new(&["INV_X1"], 0.4, 0.6, 10.0);
        let sampled = nominal.clone().with_variation(0.015, 7);
        // The wire line carries the variation triple and parses back.
        let req = Request::characterize("r-2", sampled.clone());
        assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
        // Nominal lines stay byte-identical to the pre-variation protocol.
        let line = Request::characterize("r-2", nominal.clone()).to_line();
        assert!(!line.contains("sigma_vth"), "{line}");
        // Each sampled die is its own memo entry; the nominal corner keeps
        // its pre-variation key semantics.
        assert_ne!(nominal.content_key(), sampled.content_key());
        assert_ne!(sampled.content_key(), nominal.clone().with_variation(0.015, 8).content_key());
        assert_eq!(sampled.content_key(), nominal.with_variation(0.015, 7).content_key());
    }

    #[test]
    fn content_key_canonicalizes_cell_order_only() {
        let a = CharRequest::new(&["INV_X1", "NAND2_X1"], 0.4, 0.6, 10.0);
        let b = CharRequest::new(&["NAND2_X1", "INV_X1"], 0.4, 0.6, 10.0);
        assert_eq!(a.content_key(), b.content_key());
        let c = CharRequest { lambda_pmos: 0.5, ..a.clone() };
        assert_ne!(a.content_key(), c.content_key());
        let d = CharRequest { slews: vec![1e-12, 2e-12], ..a.clone() };
        assert_ne!(a.content_key(), d.content_key());
    }

    /// Stats lines from a pre-tier-0 server (no `cache_tier0_*` keys) must
    /// still parse, with the new counters defaulting to zero.
    #[test]
    fn stats_without_tier0_fields_parses_as_zero() {
        let line = format!(
            "{{\"v\":\"{PROTOCOL}\",\"id\":\"s\",\"status\":\"stats\",\
             \"requests\":3,\"served\":2,\"cache_misses\":7}}"
        );
        let Response::Stats { snapshot, .. } = Response::parse(&line).unwrap() else {
            panic!("expected stats response");
        };
        assert_eq!(snapshot.requests, 3);
        assert_eq!(snapshot.cache.misses, 7);
        assert_eq!(snapshot.cache.tier0_hits, 0);
        assert_eq!(snapshot.cache.tier0_fallbacks, 0);
        assert_eq!(snapshot.tier0_refits, 0);
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Ok {
                id: "a".into(),
                via: ServedVia::Coalesced,
                micros: 1234,
                library: "library (aged) {\n}\n".into(),
            },
            Response::Stats {
                id: "b".into(),
                snapshot: StatsSnapshot {
                    requests: 10,
                    served: 7,
                    errors: 1,
                    overloads: 2,
                    library: CoalesceStats { hits: 3, computed: 2, coalesced: 2 },
                    cache: CacheStats {
                        memory_hits: 5,
                        disk_hits: 1,
                        misses: 9,
                        coalesced: 0,
                        tier0_hits: 4,
                        tier0_fallbacks: 2,
                    },
                    tier0_refits: 1,
                    varied: 3,
                    library_shards: 16,
                    cache_shards: 16,
                },
            },
            Response::Error {
                id: "c".into(),
                stage: "usage".into(),
                message: "missing \"cells\"".into(),
            },
            Response::Overload { id: "d".into() },
        ];
        for resp in cases {
            let line = resp.to_line();
            assert_eq!(Response::parse(&line).unwrap(), resp, "line {line}");
        }
    }

    /// The protocol's bytes: these lines must never change.
    #[test]
    fn wire_lines_match_the_golden_bytes() {
        let snapshot = StatsSnapshot {
            requests: 1,
            served: 2,
            errors: 3,
            overloads: 4,
            library: CoalesceStats { hits: 5, computed: 6, coalesced: 7 },
            cache: CacheStats {
                memory_hits: 8,
                disk_hits: 9,
                misses: 10,
                coalesced: 11,
                tier0_hits: 12,
                tier0_fallbacks: 13,
            },
            tier0_refits: 14,
            varied: 15,
            library_shards: 16,
            cache_shards: 17,
        };
        let varied = CharRequest::new(&["INV_X1"], 1.0, 1.0, 10.0).with_variation(0.015, 42);
        let cases = [
            (
                Request::characterize(
                    "r-1",
                    CharRequest::new(&["INV_X1", "NAND2_X1"], 0.4, 0.6, 10.0),
                )
                .to_line(),
                r#"{"v":"reliaware-serve-v1","id":"r-1","op":"characterize","cells":["INV_X1","NAND2_X1"],"slews":[5e-12,1.5e-10,9.47e-10],"loads":[5e-16,4e-15,2e-14],"lambda_pmos":4e-1,"lambda_nmos":6e-1,"years":10,"temperature_k":3.9815e2,"vdd":1.2e0,"max_dv":6e-3}"#,
            ),
            (
                Request::characterize("r-2", varied).to_line(),
                r#"{"v":"reliaware-serve-v1","id":"r-2","op":"characterize","cells":["INV_X1"],"slews":[5e-12,1.5e-10,9.47e-10],"loads":[5e-16,4e-15,2e-14],"lambda_pmos":1,"lambda_nmos":1,"years":10,"temperature_k":3.9815e2,"vdd":1.2e0,"max_dv":6e-3,"sigma_vth":1.5e-2,"clamp_sigmas":4,"var_seed":42}"#,
            ),
            (
                Request::stats("s-\u{1}1").to_line(),
                r#"{"v":"reliaware-serve-v1","id":"s-\u00011","op":"stats"}"#,
            ),
            (
                Response::Ok {
                    id: "r-1".into(),
                    via: ServedVia::Computed,
                    micros: 1234,
                    library: "library (x) {\n  \"q\"\t}\n".into(),
                }
                .to_line(),
                r#"{"v":"reliaware-serve-v1","id":"r-1","status":"ok","via":"computed","micros":1234,"library":"library (x) {\n  \"q\"\t}\n"}"#,
            ),
            (
                Response::Error {
                    id: "r-3".into(),
                    stage: "usage".into(),
                    message: "missing \"cells\" array\\".into(),
                }
                .to_line(),
                r#"{"v":"reliaware-serve-v1","id":"r-3","status":"error","stage":"usage","message":"missing \"cells\" array\\"}"#,
            ),
            (
                Response::Overload { id: "r-4".into() }.to_line(),
                r#"{"v":"reliaware-serve-v1","id":"r-4","status":"overload"}"#,
            ),
            (
                Response::Stats { id: "s-1".into(), snapshot }.to_line(),
                r#"{"v":"reliaware-serve-v1","id":"s-1","status":"stats","requests":1,"served":2,"errors":3,"overloads":4,"varied":15,"lib_hits":5,"lib_computed":6,"lib_coalesced":7,"lib_shards":16,"cache_memory_hits":8,"cache_disk_hits":9,"cache_misses":10,"cache_coalesced":11,"cache_tier0_hits":12,"cache_tier0_fallbacks":13,"cache_tier0_refits":14,"cache_shards":17}"#,
            ),
        ];
        for (line, golden) in cases {
            assert_eq!(line, golden);
        }
    }

    /// JSON numbers carry integers exactly only below 2^53: a seed outside
    /// that range is refused, never rounded to another die.
    #[test]
    fn var_seed_crosses_exactly_or_is_refused() {
        let sampled = |seed| {
            let payload = CharRequest::new(&["INV_X1"], 0.4, 0.6, 10.0).with_variation(0.015, seed);
            Request::characterize("s", payload)
        };
        for seed in [0, 42, bti::json::MAX_SAFE_INT] {
            let line = sampled(seed).to_line();
            assert!(line.ends_with(&format!(",\"var_seed\":{seed}}}")), "{line}");
            assert_eq!(Request::parse(&line).unwrap(), sampled(seed));
        }
        let line = sampled(1).to_line();
        for bad in ["9007199254740992", "9007199254740993", "-5", "2.7"] {
            let bad_line = line.replace("\"var_seed\":1}", &format!("\"var_seed\":{bad}}}"));
            let err = Request::parse(&bad_line).unwrap_err();
            assert!(err.contains("var_seed"), "{bad}: {err}");
        }
        assert!(Request::parse(&sampled((1 << 60) + 3).to_line()).is_err());
    }
}
