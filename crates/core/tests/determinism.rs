//! Determinism guarantees of the work-stealing characterization engine:
//! the same inputs must yield **bit-identical** libraries for every worker
//! count and for every cache state (no cache, cold two-tier cache, warm
//! memory tier, warm disk tier) — and downstream static-analysis gates must
//! not be able to tell cached and fresh libraries apart.

use bti::AgingScenario;
use flow::{ArcCache, CharConfig, Characterizer};
use lint::{LintConfig, LintReport};
use std::sync::Arc;
use stdcells::CellSet;

fn cells() -> CellSet {
    CellSet::nangate45_like().subset(&["INV_X1", "NAND2_X1", "DFF_X1"])
}

fn config(parallelism: usize) -> CharConfig {
    CharConfig {
        slews: vec![10e-12, 300e-12],
        loads: vec![1e-15, 10e-15],
        max_dv: 8e-3,
        parallelism,
        ..CharConfig::paper()
    }
}

fn chars(parallelism: usize) -> Characterizer {
    Characterizer::new(cells(), config(parallelism)).expect("valid config")
}

#[test]
fn worker_count_does_not_change_the_library() {
    let reference = chars(1).library(&AgingScenario::worst_case(10.0)).expect("characterization");
    for workers in [2, 8] {
        let lib =
            chars(workers).library(&AgingScenario::worst_case(10.0)).expect("characterization");
        assert_eq!(lib, reference, "parallelism = {workers} changed the library");
    }
}

#[test]
fn worker_count_does_not_change_the_complete_library() {
    let reference = chars(1).complete_library(1, 10.0).expect("characterization");
    for workers in [2, 8] {
        let lib = chars(workers).complete_library(1, 10.0).expect("characterization");
        assert_eq!(lib, reference, "parallelism = {workers} changed the complete library");
    }
}

#[test]
fn cache_state_does_not_change_the_library() {
    let dir = std::env::temp_dir().join(format!("reliaware_det_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scenario = AgingScenario::worst_case(10.0);
    let uncached = chars(2).library(&scenario).expect("characterization");

    // Cold run: misses populate both tiers.
    let cold_cache = Arc::new(ArcCache::with_dir(&dir));
    let cold_chars = chars(2).with_cache(Arc::clone(&cold_cache));
    let cold = cold_chars.library(&scenario).expect("characterization");
    assert_eq!(cold, uncached);
    assert!(cold_cache.stats().misses > 0);

    // Warm memory tier, for 1 and 8 workers.
    for workers in [1, 8] {
        cold_cache.reset_stats();
        let warm = chars(workers)
            .with_cache(Arc::clone(&cold_cache))
            .library(&scenario)
            .expect("characterization");
        assert_eq!(warm, uncached, "warm memory tier at parallelism = {workers}");
        assert_eq!(cold_cache.stats().misses, 0);
    }

    // Warm disk tier: a brand-new cache over the same directory.
    let disk_cache = Arc::new(ArcCache::with_dir(&dir));
    let warm =
        chars(8).with_cache(Arc::clone(&disk_cache)).library(&scenario).expect("characterization");
    assert_eq!(warm, uncached, "warm disk tier");
    let stats = disk_cache.stats();
    assert_eq!(stats.misses, 0, "disk tier must answer every lookup");
    assert!(stats.disk_hits > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The relialint library gates (LB/LM rules) must judge a cache-served
/// library exactly as they judge a freshly characterized one.
#[test]
fn lint_gates_see_identical_cached_and_fresh_libraries() {
    let scenario = AgingScenario::worst_case(10.0);
    let fresh = chars(2).library(&scenario).expect("characterization");
    let cache = Arc::new(ArcCache::in_memory());
    let cached_chars = chars(2).with_cache(Arc::clone(&cache));
    let _cold = cached_chars.library(&scenario).expect("characterization");
    cache.reset_stats();
    let cached = cached_chars.library(&scenario).expect("characterization");
    assert_eq!(cache.stats().misses, 0, "second run must be fully cache-served");

    let lint_config = LintConfig::default();
    let fresh_report = LintReport::run_library(&fresh, &lint_config);
    let cached_report = LintReport::run_library(&cached, &lint_config);
    assert_eq!(fresh_report.diagnostics(), cached_report.diagnostics());
    assert_eq!(fresh_report.render(), cached_report.render());

    // And through the Liberty text round trip that served libraries and
    // `.lib` files take: still byte-for-byte the same verdicts.
    let round = liberty::parse_library(&liberty::write_library(&cached)).expect("round trip");
    let round_report = LintReport::run_library(&round, &lint_config);
    assert_eq!(fresh_report.diagnostics(), round_report.diagnostics());
}

/// Synthesis is reproducible: the same AIG and library give byte-identical
/// Verilog on every call — buffer names and instance order included — and
/// therefore in every process.
#[test]
fn synthesis_gives_byte_identical_verilog() {
    use netlist::verilog::write_verilog;
    let fresh = synth::test_fixtures::fixture_library();
    let aged = synth::test_fixtures::slowed_library(1.3);
    let options = synth::MapOptions::default();
    for design in [circuits::dct8(), circuits::risc_5p()] {
        let mapped = || synth::synthesize(&design.aig, &fresh, &options).expect("synthesis");
        assert_eq!(
            write_verilog(&mapped()),
            write_verilog(&mapped()),
            "synth::synthesize on {}",
            design.name
        );
        let aware = || {
            flow::synthesize_aging_aware(&design.aig, &fresh, &aged, &options).expect("synthesis")
        };
        assert_eq!(
            write_verilog(&aware()),
            write_verilog(&aware()),
            "flow::synthesize_aging_aware on {}",
            design.name
        );
    }
}
