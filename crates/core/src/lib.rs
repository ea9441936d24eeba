#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! The reliability-aware design flow of the paper (its primary
//! contribution): degradation-aware cell libraries plugged into standard
//! timing analysis and logic synthesis.
//!
//! The three capabilities of the paper's Fig. 4 map to three modules:
//!
//! - **Library creation** (Fig. 4(a), [`charlib`]): [`Characterizer`] runs
//!   the transistor-level simulator over every cell of a [`stdcells::CellSet`]
//!   under BTI-degraded device models, across the 7×7 slew/load operating
//!   conditions, producing [`liberty::Library`] instances per aging
//!   scenario — and the merged λ-indexed *complete* library.
//! - **Guardband estimation** (Fig. 4(b), [`guardband`], [`dynamic`]):
//!   re-analyzing a netlist with a degradation-aware library yields the
//!   aged critical path and thus the required guardband, under static
//!   (uniform λ) or dynamic (workload-extracted λ) stress.
//! - **Guardband containment** (Fig. 4(c), [`aging_synth`]): handing the
//!   degradation-aware library to the synthesizer yields circuits that are
//!   inherently resilient, with *contained* guardbands.
//!
//! [`system_eval`] closes the loop at the system level: it pushes images
//! through gate-level DCT→IDCT simulations with aged delays and reports
//! PSNR — the paper's Figs. 6(c) and 7. [`variation`] samples the design
//! MTTF over process-variation dies on top of the static lifetime bound.
//!
//! Characterization performance comes from three supporting modules:
//! [`pool`] (the shared fine-grained task queue all grid walks drain),
//! [`cache`] (a two-tier, content-hashed memo of per-arc simulation
//! results, sharded for concurrent clients) and [`coalesce`] (the sharded
//! in-flight-request coalescer both the cache and the characterization
//! service build on). All preserve bit-identical output for any thread
//! count, client count and cache state. On top of them, [`tier0`] adds an
//! *opt-in* learned surrogate in front of the cache: predictions within a
//! conformal error bound replace simulation for novel points, and every
//! fallback falls through to the exact simulation path (bit-identical to a
//! surrogate-free run).
//!
//! Failures at every stage are typed ([`FlowError`] and the per-crate
//! errors it wraps; see [`error`]) and a [`RunContext`] threads cache,
//! worker count and per-stage instrumentation through a whole run
//! (see [`context`]).
//!
//! # Example (fast settings)
//!
//! ```no_run
//! use bti::AgingScenario;
//! use flow::{CharConfig, Characterizer, FlowError};
//! use stdcells::CellSet;
//!
//! # fn main() -> Result<(), FlowError> {
//! let chars = Characterizer::new(CellSet::minimal(), CharConfig::fast())?;
//! let fresh = chars.library(&AgingScenario::fresh())?;
//! let aged = chars.library(&AgingScenario::worst_case(10.0))?;
//! assert!(aged.cell("INV_X1").unwrap().worst_delay(20e-12, 4e-15)
//!     > fresh.cell("INV_X1").unwrap().worst_delay(20e-12, 4e-15));
//! # Ok(())
//! # }
//! ```

pub mod aging_synth;
pub mod cache;
pub mod charlib;
pub mod coalesce;
pub mod context;
pub mod dynamic;
pub mod error;
pub mod guardband;
pub mod pool;
pub mod rng;
pub mod system_eval;
pub mod tier0;
pub mod variation;

pub use aging_synth::{
    compare_synthesis, synthesize_aging_aware, synthesize_best, SynthesisComparison,
};
pub use cache::{ArcCache, ArcTables, CacheSnapshot, CacheStats, KeyHasher};
pub use charlib::{CharConfig, Characterizer};
pub use coalesce::{CoalesceOutcome, CoalesceStats, Coalescer};
pub use context::{RunContext, RunEvent, RunReport, StageRecord};
pub use dynamic::{
    dynamic_stress_analysis, dynamic_stress_analysis_with, DutyExtraction, DynamicStressReport,
};
pub use error::{run_main, CharError, EvalError, FlowError};
pub use guardband::{
    collapse_library, estimate_guardband, guardband_of_initial_critical_path,
    single_opc_aged_library, GuardbandReport,
};
pub use pool::parallel_map;
pub use rng::Lcg;
pub use system_eval::{annotation_from_sta, image_from_pgm, run_image_chain, ImageChainResult};
pub use tier0::{SurrogateTier, TierStats};
pub use variation::{mc_lifetime, McLifetimeOutcome};
