//! Shared harness for the bench binaries and Criterion benches: the run
//! context with its disk arc cache, characterized libraries, synthesized
//! benchmark netlists, table printing and the one CLI parser ([`cli`]).
//!
//! Every experiment of the `paper` binary (`src/bin/paper/`) regenerates
//! one figure or study of the paper (see `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for recorded results). Both expensive
//! artifacts are cached under [`cache_dir`]: characterized libraries as the
//! per-arc entries of the [`context`]'s [`ArcCache`], mapped netlists as
//! Verilog text named by the content digest of the libraries they were
//! mapped against. Repeated runs are fast and the artifacts stay
//! inspectable.

use bti::AgingScenario;
use flow::{ArcCache, CharConfig, Characterizer, FlowError, KeyHasher, RunContext};
use liberty::{write_library, Library};
use netlist::verilog::{parse_verilog, write_verilog};
use netlist::Netlist;
use std::fmt::Display;
use std::path::PathBuf;
use std::sync::Arc;
use stdcells::CellSet;
use synth::MapOptions;

pub mod cli;
pub mod loadreport;

/// The artifact cache directory: `$RELIAWARE_CACHE` or
/// `target/reliaware-cache`.
#[must_use]
pub fn cache_dir() -> PathBuf {
    std::env::var_os("RELIAWARE_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/reliaware-cache"))
}

/// The run context of a `paper` experiment: the machine's worker count and
/// an [`ArcCache`] persisted under [`cache_dir`], shared by every library
/// the run characterizes.
#[must_use]
pub fn context() -> Arc<RunContext> {
    Arc::new(RunContext::new().with_cache(Arc::new(ArcCache::with_dir(cache_dir()))))
}

/// The paper-grade characterizer — all 68 cells on the 7×7 OPC grid —
/// wired into `ctx`: it inherits the context's worker count and arc cache,
/// and bills its work to the `characterize` stage of the context's run
/// report.
///
/// # Errors
///
/// Propagates [`FlowError::Char`] (the paper config always validates, but
/// the caller sees any future validation failure as a typed error).
pub fn characterizer_in(ctx: &Arc<RunContext>) -> Result<Characterizer, FlowError> {
    Ok(Characterizer::in_context(CellSet::nangate45_like(), CharConfig::paper(), ctx)?)
}

/// Evaluation lifetime used throughout the figures (the paper's 10 years).
pub const LIFETIME_YEARS: f64 = 10.0;

/// The characterized library for `scenario`, reassembled from `ctx`'s arc
/// cache where it holds the arcs.
///
/// # Errors
///
/// Returns [`FlowError::Char`] when characterization fails.
pub fn library_for(ctx: &Arc<RunContext>, scenario: &AgingScenario) -> Result<Library, FlowError> {
    Ok(characterizer_in(ctx)?.library(scenario)?)
}

/// The fresh (initial, degradation-unaware) library.
///
/// # Errors
///
/// See [`library_for`].
pub fn fresh_library(ctx: &Arc<RunContext>) -> Result<Library, FlowError> {
    library_for(ctx, &AgingScenario::fresh())
}

/// The worst-case (λ = 1, 10 y) degradation-aware library.
///
/// # Errors
///
/// See [`library_for`].
pub fn worst_library(ctx: &Arc<RunContext>) -> Result<Library, FlowError> {
    library_for(ctx, &AgingScenario::worst_case(LIFETIME_YEARS))
}

/// The balanced-stress (λ = 0.5) library at `years`.
///
/// # Errors
///
/// See [`library_for`].
pub fn balanced_library(ctx: &Arc<RunContext>, years: f64) -> Result<Library, FlowError> {
    library_for(ctx, &AgingScenario::balanced(years))
}

/// The worst-case library with mobility degradation ignored (ΔVth-only
/// state of the art).
///
/// # Errors
///
/// See [`library_for`].
pub fn worst_vth_only_library(ctx: &Arc<RunContext>) -> Result<Library, FlowError> {
    Ok(characterizer_in(ctx)?.library_vth_only(&AgingScenario::worst_case(LIFETIME_YEARS))?)
}

/// The synthesis tag of the netlist cache. Bump it with every change to the
/// synthesis code that can change the netlist mapped from one design and
/// one set of libraries: cached netlists then miss and are mapped again.
const SYNTH_TAG: &str = "reliaware-synth-v1";

/// The netlist-cache digest of `library`: a [`KeyHasher`] over
/// [`SYNTH_TAG`] and the library's Liberty text, which renders every value
/// exactly.
fn library_digest(library: &Library) -> u64 {
    KeyHasher::new().str(SYNTH_TAG).str(&write_library(library)).finish()
}

/// The cache file name of design `design` mapped against the libraries
/// with `digests` (one for [`synthesized`], fresh and aged for
/// [`aware_netlist`]).
fn netlist_file(design: &str, digests: &[u64]) -> String {
    let digests: String = digests.iter().map(|d| format!("_{d:016x}")).collect();
    format!("netlist_{}{digests}.v", design.replace('-', "_"))
}

/// Loads the netlist cached for `design` under `digests` when it parses and
/// validates against `library`, or runs `synthesize` and caches its result.
fn cached_netlist(
    design: &circuits::Design,
    digests: &[u64],
    library: &Library,
    synthesize: impl FnOnce() -> Result<Netlist, FlowError>,
) -> Result<Netlist, FlowError> {
    let dir = cache_dir();
    std::fs::create_dir_all(&dir).map_err(|e| FlowError::io(dir.display(), &e))?;
    let path = dir.join(netlist_file(&design.name, digests));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(nl) = parse_verilog(&text) {
            if nl.validate(library).is_ok() {
                return Ok(nl);
            }
        }
    }
    let nl = synthesize()?;
    std::fs::write(&path, write_verilog(&nl)).map_err(|e| FlowError::io(path.display(), &e))?;
    Ok(nl)
}

/// `design` synthesized against the library with digest `digest`.
fn synthesized_with(
    design: &circuits::Design,
    library: &Library,
    digest: u64,
) -> Result<Netlist, FlowError> {
    cached_netlist(design, &[digest], library, || {
        Ok(flow::synthesize_best(&design.aig, library, &MapOptions::default())?)
    })
}

/// Synthesizes (or loads from cache) `design` against `library`. The cache
/// file is named by the design and a digest of `library`'s Liberty text.
///
/// # Errors
///
/// Returns [`FlowError::Synth`] on synthesis failure and [`FlowError::Io`]
/// for an unusable cache.
pub fn synthesized(design: &circuits::Design, library: &Library) -> Result<Netlist, FlowError> {
    synthesized_with(design, library, library_digest(library))
}

/// The aging-aware netlist of `design` (cached): candidates mapped with
/// both libraries, selected and sized by **aged** timing (paper Sec. 4.3).
/// The cache file is named by the design and both libraries' digests.
///
/// # Errors
///
/// Returns [`FlowError::Synth`] on synthesis failure and [`FlowError::Io`]
/// for an unusable cache.
pub fn aware_netlist(
    design: &circuits::Design,
    fresh: &Library,
    aged: &Library,
) -> Result<Netlist, FlowError> {
    let digests = [library_digest(fresh), library_digest(aged)];
    cached_netlist(design, &digests, aged, || {
        Ok(flow::synthesize_aging_aware(&design.aig, fresh, aged, &MapOptions::default())?)
    })
}

/// All seven paper benchmarks synthesized against `library` (cached),
/// in the paper's order: DSP, FFT, RISC-6P, RISC-5P, VLIW, DCT, IDCT.
///
/// # Errors
///
/// Propagates the first [`FlowError`] from [`synthesized`].
pub fn benchmark_netlists(
    library: &Library,
) -> Result<Vec<(circuits::Design, Netlist)>, FlowError> {
    let digest = library_digest(library);
    circuits::all_benchmarks()
        .into_iter()
        .map(|d| {
            let nl = synthesized_with(&d, library, digest)?;
            Ok((d, nl))
        })
        .collect()
}

/// The gate-level DCT→IDCT image chain for one design style, ready to run
/// under any aging scenario.
pub struct ImageChain {
    /// The 8-point DCT design (for port metadata).
    pub dct_design: circuits::Design,
    /// The 8-point IDCT design.
    pub idct_design: circuits::Design,
    /// Mapped DCT netlist.
    pub dct: Netlist,
    /// Mapped IDCT netlist.
    pub idct: Netlist,
}

impl ImageChain {
    /// Builds the chain for the aging-unaware baseline (`aware = false`) or
    /// the aging-aware design.
    ///
    /// # Errors
    ///
    /// Propagates synthesis/cache failures from [`synthesized`] and
    /// [`aware_netlist`].
    pub fn build(fresh: &Library, aged: &Library, aware: bool) -> Result<Self, FlowError> {
        let dct_design = circuits::dct8();
        let idct_design = circuits::idct8();
        let (dct, idct) = if aware {
            (aware_netlist(&dct_design, fresh, aged)?, aware_netlist(&idct_design, fresh, aged)?)
        } else {
            (synthesized(&dct_design, fresh)?, synthesized(&idct_design, fresh)?)
        };
        Ok(ImageChain { dct_design, idct_design, dct, idct })
    }

    /// The chain's fresh critical path (the larger of the two circuits).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Sta`] on analysis failure.
    pub fn fresh_period(&self, fresh: &Library) -> Result<f64, FlowError> {
        let c = sta::Constraints::default();
        let a = sta::analyze(&self.dct, fresh, &c)?.critical_delay();
        let b = sta::analyze(&self.idct, fresh, &c)?.critical_delay();
        Ok(a.max(b))
    }

    /// Runs `image` through the chain with delays of `scenario_lib` at
    /// clock period `period`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Sta`] on annotation failure and
    /// [`FlowError::Eval`] on simulation failure.
    pub fn run(
        &self,
        image: &imgproc::GrayImage,
        scenario_lib: &Library,
        period: f64,
    ) -> Result<flow::ImageChainResult, FlowError> {
        let c = sta::Constraints::default();
        let dct_ann = flow::annotation_from_sta(&self.dct, scenario_lib, &c)?;
        let idct_ann = flow::annotation_from_sta(&self.idct, scenario_lib, &c)?;
        Ok(flow::run_image_chain(
            image,
            &self.dct,
            &self.dct_design,
            &self.idct,
            &self.idct_design,
            scenario_lib,
            &dct_ann,
            &idct_ann,
            period,
        )?)
    }
}

/// Resolves a CLI `--design` name to a benchmark generator. Accepts the
/// paper names case-insensitively plus the short aliases used by CI:
/// `dct`, `idct`, `fft`, `dsp`, `risc` (the 5-stage slice), `risc6`, `vliw`.
///
/// # Errors
///
/// Returns a [`FlowError::Usage`] naming any other design.
pub fn design_by_name(name: &str) -> Result<circuits::Design, FlowError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "dct" => circuits::dct8(),
        "idct" => circuits::idct8(),
        "fft" => circuits::fft_butterflies(),
        "dsp" => circuits::dsp_fir(),
        "risc" | "risc5" | "risc-5p" => circuits::risc_5p(),
        "risc6" | "risc-6p" => circuits::risc_6p(),
        "vliw" => circuits::vliw(),
        _ => return Err(FlowError::Usage(format!("unknown design {name}"))),
    })
}

/// Reads and parses the Liberty library at `path`.
///
/// # Errors
///
/// Returns [`FlowError::Io`] when the file cannot be read or parsed.
pub fn load_library(path: &str) -> Result<Library, FlowError> {
    load(path, liberty::parse_library)
}

/// Reads and parses the structural-Verilog netlist at `path`.
///
/// # Errors
///
/// Returns [`FlowError::Io`] when the file cannot be read or parsed.
pub fn load_netlist(path: &str) -> Result<Netlist, FlowError> {
    load(path, parse_verilog)
}

fn load<T, E: Display>(path: &str, parse: fn(&str) -> Result<T, E>) -> Result<T, FlowError> {
    let text = std::fs::read_to_string(path).map_err(|e| FlowError::io(path, &e))?;
    parse(&text)
        .map_err(|e| FlowError::Io { path: path.to_owned(), message: format!("cannot parse: {e}") })
}

/// The characterization config of `perfbench` and `surrogate_train` at
/// `parallelism` workers: with `smoke`, the paper config on a pinned 2×2
/// OPC grid, else [`CharConfig::fast`].
#[must_use]
pub fn char_config(smoke: bool, parallelism: usize) -> CharConfig {
    if smoke {
        CharConfig {
            slews: vec![10e-12, 300e-12],
            loads: vec![1e-15, 10e-15],
            max_dv: 8e-3,
            parallelism,
            ..CharConfig::paper()
        }
    } else {
        CharConfig { parallelism, ..CharConfig::fast() }
    }
}

/// The repository root: where perfbench and loadgen write their records
/// by default.
#[must_use]
pub fn repo_root() -> PathBuf {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop(); // crates/
    path.pop(); // the repository root
    path
}

/// A λ-indexed complete library derived from `base`: every cell is cloned
/// onto the `(steps+1)²` duty-cycle grid with its delay arcs scaled by
/// `1 + 0.2·(λp + λn)/2` — the analytic stand-in the `--design` CLI modes
/// use instead of the (expensive) characterized grid.
#[must_use]
pub fn lambda_scaled_complete(base: &Library, steps: u32) -> Library {
    let mut parts = Vec::new();
    for p in 0..=steps {
        for n in 0..=steps {
            let lp = f64::from(p) / f64::from(steps);
            let ln = f64::from(n) / f64::from(steps);
            let factor = 1.0 + 0.2 * (lp + ln) / 2.0;
            let mut lib = Library::new("part", base.vdd);
            for cell in base.cells() {
                let mut c = cell.clone();
                for o in &mut c.outputs {
                    for arc in &mut o.arcs {
                        arc.cell_rise = arc.cell_rise.map(|v| v * factor);
                        arc.cell_fall = arc.cell_fall.map(|v| v * factor);
                    }
                }
                lib.add_cell(c);
            }
            parts.push((liberty::LambdaTag { lambda_pmos: lp, lambda_nmos: ln }, lib));
        }
    }
    liberty::merge_indexed("complete", &parts)
}

/// Formats a unix timestamp as `YYYYMMDD-HHMMSS` UTC (civil-from-days,
/// Hinnant's algorithm) — no clock libraries in the workspace. Used by the
/// perfbench and loadgen binaries to stamp their `BENCH_*.json` records.
#[must_use]
pub fn utc_stamp(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}{month:02}{day:02}-{hh:02}{mm:02}{ss:02}")
}

/// The `machine` block of the `BENCH_*.json` records: available threads,
/// OS and architecture.
#[must_use]
pub fn machine() -> bti::json::Json {
    bti::json::Json::obj([
        (
            "threads_available",
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get).into(),
        ),
        ("os", std::env::consts::OS.into()),
        ("arch", std::env::consts::ARCH.into()),
    ])
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Formats seconds as picoseconds with two decimals.
#[must_use]
pub fn ps(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e12)
}

/// Formats a ratio as a signed percentage.
#[must_use]
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", ratio * 100.0)
}

/// Formats a lifetime in years with one decimal, or `>1e7` when unbounded.
#[must_use]
pub fn years(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        ">1e7".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(ps(1.5e-12), "1.50");
        assert_eq!(pct(0.214), "+21.4%");
        assert_eq!(pct(-0.19), "-19.0%");
    }

    #[test]
    fn utc_stamp_known_instants() {
        assert_eq!(utc_stamp(0), "19700101-000000");
        // 2016-06-05 12:00:00 UTC — the paper's DAC week.
        assert_eq!(utc_stamp(1_465_128_000), "20160605-120000");
    }

    /// Two libraries that differ in one table value must not share a cached
    /// netlist.
    #[test]
    fn netlist_file_tracks_every_table_value() {
        let base = synth::test_fixtures::fixture_library();
        let mut inv = base.cell("INV_X1").unwrap().clone();
        let arc = &mut inv.outputs[0].arcs[0];
        let mut values = arc.cell_rise.values().to_vec();
        values[0] *= 1.5;
        let axes = (arc.cell_rise.slew_axis().to_vec(), arc.cell_rise.load_axis().to_vec());
        arc.cell_rise = liberty::Table2d::new(axes.0, axes.1, values).unwrap();
        let mut moved = base.clone();
        moved.add_cell(inv);
        let name = |lib: &Library| netlist_file("DCT", &[library_digest(lib)]);
        assert_ne!(name(&base), name(&moved));
        assert_eq!(name(&base), name(&synth::test_fixtures::fixture_library()));
    }

    /// A name made from the libraries' digest alone, without the synthesis
    /// tag, never matches: netlists cached without the tag are not read.
    #[test]
    fn netlist_file_tracks_the_synthesis_tag() {
        let lib = synth::test_fixtures::fixture_library();
        let untagged = KeyHasher::new().str(&write_library(&lib)).finish();
        assert_ne!(netlist_file("DCT", &[library_digest(&lib)]), netlist_file("DCT", &[untagged]));
    }

    #[test]
    fn cache_dir_default() {
        // No assertion on the env-var path; just exercise the default.
        let d = cache_dir();
        assert!(!d.as_os_str().is_empty());
    }
}
