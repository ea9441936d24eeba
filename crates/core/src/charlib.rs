//! Degradation-aware cell library creation (paper Sec. 4.1, Fig. 4(a)).

use crate::cache::{ArcCache, ArcTables, KeyHasher};
use crate::context::RunContext;
use crate::error::CharError;
use crate::pool;
use bti::AgingScenario;
use liberty::{
    merge_indexed, Cell, CellClass, InputPin, LambdaTag, Library, OutputPin, Table2d, TimingArc,
    TimingSense,
};
use ptm::{MosModel, MosPolarity, VariationModel};
use spicesim::{EdgeProbe, SweepVariant, TransientConfig, Waveform};
use std::collections::BTreeMap;
use std::sync::Arc;
use stdcells::{CellDef, CellInstance, CellSet, SampledCards, Topology};
use surrogate::ArcFeatures;

/// Characterization settings: the operating-condition grid, supply, device
/// lifetimes and simulator accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct CharConfig {
    /// Supply voltage (the paper uses 1.2 V).
    pub vdd: f64,
    /// Input-slew axis in seconds (10–90 %).
    pub slews: Vec<f64>,
    /// Output-load axis in farad.
    pub loads: Vec<f64>,
    /// Integrator accuracy (volts per step); see
    /// [`spicesim::TransientConfig::max_dv`].
    pub max_dv: f64,
    /// Worker threads for parallel cell characterization.
    pub parallelism: usize,
    /// Flop setup/hold constants in seconds (not characterized; see
    /// `DESIGN.md`).
    pub flop_setup: f64,
    /// Flop hold constant in seconds.
    pub flop_hold: f64,
}

impl CharConfig {
    /// The paper's grid: 7 slews from 5 ps to 947 ps, 7 loads from 0.5 fF
    /// to 20 fF, tight integrator accuracy.
    #[must_use]
    pub fn paper() -> Self {
        CharConfig {
            vdd: 1.2,
            slews: vec![5e-12, 25e-12, 70e-12, 150e-12, 300e-12, 550e-12, 947e-12],
            loads: vec![0.5e-15, 1.2e-15, 2.5e-15, 5e-15, 9e-15, 14e-15, 20e-15],
            max_dv: 2.0e-3,
            parallelism: default_parallelism(),
            flop_setup: 35e-12,
            flop_hold: 5e-12,
        }
    }

    /// A reduced 3×3 grid with relaxed accuracy for tests and quick runs.
    #[must_use]
    pub fn fast() -> Self {
        CharConfig {
            slews: vec![5e-12, 150e-12, 947e-12],
            loads: vec![0.5e-15, 4e-15, 20e-15],
            max_dv: 6.0e-3,
            ..Self::paper()
        }
    }

    /// Checks that the configuration describes a usable OPC grid: both axes
    /// non-empty, strictly increasing and positive; `vdd` and `max_dv`
    /// positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`CharError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), CharError> {
        let axis = |name: &str, values: &[f64]| -> Result<(), CharError> {
            let bad = |message: String| Err(CharError::InvalidConfig { message });
            if values.is_empty() {
                return bad(format!("{name} axis is empty"));
            }
            if !values.iter().all(|v| v.is_finite() && *v > 0.0) {
                return bad(format!("{name} axis values must be positive and finite"));
            }
            if !values.windows(2).all(|w| w[0] < w[1]) {
                return bad(format!("{name} axis must be strictly increasing"));
            }
            Ok(())
        };
        axis("slews", &self.slews)?;
        axis("loads", &self.loads)?;
        for (name, v) in [("vdd", self.vdd), ("max_dv", self.max_dv)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(CharError::InvalidConfig {
                    message: format!("{name} must be positive and finite, got {v}"),
                });
            }
        }
        Ok(())
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZero::get)
}

/// Characterizes a [`CellSet`] into degradation-aware [`Library`] objects
/// — the HSPICE loop of the paper's Fig. 4(a).
///
/// All grid walks drain a shared fine-grained task queue
/// ([`pool::parallel_map`]); attach an [`ArcCache`] via
/// [`Characterizer::with_cache`] to memoize per-arc simulation results
/// across scenarios, runs and processes. Output libraries are bit-identical
/// for every `parallelism` setting and for cold vs. warm caches.
#[derive(Debug, Clone)]
pub struct Characterizer {
    cells: CellSet,
    config: CharConfig,
    cache: Option<Arc<ArcCache>>,
    ctx: Option<Arc<RunContext>>,
    /// Per-device process variation of the characterized die: the model
    /// and the die's sampling-stream seed. `None` (or a zero-variance
    /// model) characterizes the nominal die on the exact pre-variation
    /// code path, bit-identically.
    variation: Option<(VariationModel, u64)>,
}

impl Characterizer {
    /// Creates a characterizer over `cells` with `config` (no cache).
    ///
    /// # Errors
    ///
    /// Returns [`CharError::InvalidConfig`] for a degenerate OPC grid and
    /// [`CharError::EmptyCellSet`] when there is nothing to characterize.
    pub fn new(cells: CellSet, config: CharConfig) -> Result<Self, CharError> {
        config.validate()?;
        if cells.is_empty() {
            return Err(CharError::EmptyCellSet);
        }
        Ok(Characterizer { cells, config, cache: None, ctx: None, variation: None })
    }

    /// Creates a characterizer over the named subset of `catalog`,
    /// rejecting unknown names — unlike [`stdcells::CellSet::subset`],
    /// which silently drops them and would yield a partial (or empty)
    /// library that downstream STA reports as missing-cell errors far from
    /// the cause.
    ///
    /// # Errors
    ///
    /// Returns [`CharError::UnknownCell`] naming the first unresolved cell,
    /// plus the [`Characterizer::new`] validation errors.
    pub fn for_named_cells(
        catalog: &CellSet,
        names: &[&str],
        config: CharConfig,
    ) -> Result<Self, CharError> {
        let subset =
            catalog.checked_subset(names).map_err(|cell| CharError::UnknownCell { cell })?;
        Self::new(subset, config)
    }

    /// Creates a characterizer wired into a [`RunContext`]: it inherits the
    /// context's worker count and arc cache (if one is attached) and
    /// attributes its task counts to the context's `characterize` stage.
    ///
    /// # Errors
    ///
    /// Same as [`Characterizer::new`].
    pub fn in_context(
        cells: CellSet,
        config: CharConfig,
        ctx: &Arc<RunContext>,
    ) -> Result<Self, CharError> {
        let config = CharConfig { parallelism: ctx.workers(), ..config };
        let mut chars = Self::new(cells, config)?;
        chars.cache = ctx.cache();
        chars.ctx = Some(Arc::clone(ctx));
        Ok(chars)
    }

    /// Attaches a two-tier arc cache consulted before every transient
    /// simulation; results are keyed on the full characterization input
    /// (cell topology, degraded models, OPC axes, `max_dv`, Vdd).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<ArcCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached arc cache, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&ArcCache> {
        self.cache.as_deref()
    }

    /// Characterizes one *sampled* die: every device of every cell gets its
    /// own parameter card drawn from `model` on the counter-based stream
    /// anchored at `die_seed`. The draw for a given device depends only on
    /// `(model, die_seed, cell name, device ordinal)` — never on
    /// characterization order, worker count or cache state — so sampled
    /// libraries replay bit-identically. A zero-variance model keeps the
    /// nominal code path (and nominal cache keys) exactly.
    #[must_use]
    pub fn with_variation(mut self, model: VariationModel, die_seed: u64) -> Self {
        self.variation = Some((model, die_seed));
        self
    }

    /// The attached variation model and die seed, if any.
    #[must_use]
    pub fn variation(&self) -> Option<&(VariationModel, u64)> {
        self.variation.as_ref()
    }

    /// The variation actually in effect: `None` unless a model with
    /// non-zero spread is attached, so zero-variance sampling degrades to
    /// the bit-identical nominal path.
    fn active_variation(&self) -> Option<&(VariationModel, u64)> {
        self.variation.as_ref().filter(|(m, _)| !m.is_zero())
    }

    /// Instantiates `def` against the die in effect: per-device sampled
    /// cards under active variation, the shared per-polarity cards
    /// otherwise. The per-cell sampling stream is seeded from the die seed
    /// and the cell *name* so a cell's devices draw the same parameters
    /// regardless of which other cells are characterized alongside it.
    fn instantiate_cell(
        &self,
        def: &CellDef,
        nmos: &MosModel,
        pmos: &MosModel,
        stimuli: &BTreeMap<String, Waveform>,
        loads: &BTreeMap<String, f64>,
    ) -> CellInstance {
        let vdd = self.config.vdd;
        match self.active_variation() {
            Some((variation, die_seed)) => {
                let cell_seed = bti::rng::draw(*die_seed, KeyHasher::new().str(&def.name).finish());
                let cards = SampledCards { nmos, pmos, variation, seed: cell_seed };
                def.instantiate_with(&cards, vdd, stimuli, loads)
            }
            None => def.instantiate(nmos, pmos, vdd, stimuli, loads),
        }
    }

    /// The configured OPC grid.
    #[must_use]
    pub fn config(&self) -> &CharConfig {
        &self.config
    }

    /// Characterizes the full cell set under `scenario`, producing one
    /// degradation-aware library.
    ///
    /// # Errors
    ///
    /// Propagates [`CharError`] from the underlying cell characterization.
    pub fn library(&self, scenario: &AgingScenario) -> Result<Library, CharError> {
        let d = scenario.degradations();
        let nmos = MosModel::nmos_45nm().degraded(&d.nmos);
        let pmos = MosModel::pmos_45nm().degraded(&d.pmos);
        self.library_at(
            &format!("aged_{}", scenario.index_tag()),
            &nmos,
            &pmos,
            scenario.temperature_k,
        )
    }

    /// Like [`Characterizer::library`] but dropping the mobility
    /// degradation — the ΔVth-only state of the art of Fig. 5(a).
    ///
    /// # Errors
    ///
    /// Propagates [`CharError`] from the underlying cell characterization.
    pub fn library_vth_only(&self, scenario: &AgingScenario) -> Result<Library, CharError> {
        let d = scenario.degradations();
        let nmos = MosModel::nmos_45nm().degraded(&d.nmos.vth_only());
        let pmos = MosModel::pmos_45nm().degraded(&d.pmos.vth_only());
        self.library_at(
            &format!("aged_vthonly_{}", scenario.index_tag()),
            &nmos,
            &pmos,
            scenario.temperature_k,
        )
    }

    /// Characterizes under explicit device models. Cells are independent
    /// task units on the shared pool (they vary >10× in arc count, so the
    /// dynamic queue load-balances where static chunking cannot).
    ///
    /// # Errors
    ///
    /// Propagates the first [`CharError`] (in cell order) from the pooled
    /// cell characterizations.
    pub fn library_with_models(
        &self,
        name: &str,
        nmos: &MosModel,
        pmos: &MosModel,
    ) -> Result<Library, CharError> {
        self.library_at(name, nmos, pmos, bti::Stress::NOMINAL_TEMPERATURE_K)
    }

    /// [`Characterizer::library_with_models`] at an explicit environment
    /// temperature (the surrogate feature axis; the transient simulation
    /// itself sees temperature only through the degraded device models).
    fn library_at(
        &self,
        name: &str,
        nmos: &MosModel,
        pmos: &MosModel,
        temperature_k: f64,
    ) -> Result<Library, CharError> {
        let mut lib = self.empty_library(name);
        let defs: Vec<&CellDef> = self.cells.iter().collect();
        if let Some(ctx) = &self.ctx {
            ctx.add_tasks("characterize", defs.len() as u64);
        }
        let workers = self.config.parallelism.clamp(1, defs.len().max(1));
        let cells = pool::parallel_map(workers, &defs, |d| {
            self.characterize_cell(d, nmos, pmos, temperature_k)
        });
        for cell in cells {
            lib.add_cell(cell?);
        }
        Ok(lib)
    }

    /// The N×N grid of per-scenario libraries merged into one *complete*
    /// degradation-aware library with λ-indexed cell names (`steps = 10`
    /// reproduces the paper's 121 libraries).
    ///
    /// The whole grid is flattened into one (scenario × cell) task queue,
    /// so every worker stays busy until the very last cell of the very last
    /// scenario — the scenario loop itself is no longer a sequential outer
    /// wall. The result is assembled by task index and therefore identical
    /// to the sequential build.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CharError`] (in task order) from the pooled
    /// cell characterizations.
    pub fn complete_library(&self, steps: u32, years: f64) -> Result<Library, CharError> {
        let scenarios = AgingScenario::grid(steps, years);
        let defs: Vec<&CellDef> = self.cells.iter().collect();
        let models: Vec<(LambdaTag, String, MosModel, MosModel, f64)> = scenarios
            .iter()
            .map(|s| {
                let d = s.degradations();
                let tag = LambdaTag {
                    lambda_pmos: s.lambda_pmos.value(),
                    lambda_nmos: s.lambda_nmos.value(),
                };
                let name = format!("aged_{}", s.index_tag());
                let nmos = MosModel::nmos_45nm().degraded(&d.nmos);
                let pmos = MosModel::pmos_45nm().degraded(&d.pmos);
                (tag, name, nmos, pmos, s.temperature_k)
            })
            .collect();
        let tasks: Vec<(usize, usize)> =
            (0..models.len()).flat_map(|s| (0..defs.len()).map(move |c| (s, c))).collect();
        if let Some(ctx) = &self.ctx {
            ctx.add_tasks("characterize", tasks.len() as u64);
        }
        let workers = self.config.parallelism.clamp(1, tasks.len().max(1));
        let cells = pool::parallel_map(workers, &tasks, |&(si, ci)| {
            self.characterize_cell(defs[ci], &models[si].2, &models[si].3, models[si].4)
        });

        let mut cells = cells.into_iter();
        let mut parts: Vec<(LambdaTag, Library)> = Vec::with_capacity(models.len());
        for (tag, name, _, _, _) in &models {
            let mut lib = self.empty_library(name);
            for _ in 0..defs.len() {
                match cells.next() {
                    Some(cell) => {
                        lib.add_cell(cell?);
                    }
                    None => unreachable!("one characterized cell per task"),
                }
            }
            parts.push((*tag, lib));
        }
        Ok(merge_indexed("complete", &parts))
    }

    /// Feeds the active variation (spread parameters and die seed) into
    /// `h`. A nominal or zero-variance characterizer feeds nothing, so its
    /// keys are byte-identical to the pre-variation format and warm caches
    /// stay valid.
    fn hash_variation(&self, h: &mut KeyHasher) {
        if let Some((model, die_seed)) = self.active_variation() {
            h.str("pv")
                .f64(model.sigma_vth)
                .f64(model.sigma_kp_frac)
                .f64(model.clamp_sigmas)
                .u64(*die_seed);
        }
    }

    /// Feeds the result-determining [`CharConfig`] fields into `h`.
    fn hash_config(&self, h: &mut KeyHasher) {
        let cfg = &self.config;
        h.f64(cfg.vdd)
            .f64s(&cfg.slews)
            .f64s(&cfg.loads)
            .f64(cfg.max_dv)
            .f64(cfg.flop_setup)
            .f64(cfg.flop_hold);
    }

    /// Cache key of one timing arc: the arc identity plus the full
    /// characterization input it depends on.
    fn arc_key(
        &self,
        def: &CellDef,
        kind: &str,
        related: &str,
        output: &str,
        nmos: &MosModel,
        pmos: &MosModel,
    ) -> u64 {
        fn hash_mos(h: &mut KeyHasher, m: &MosModel) {
            h.str(match m.polarity {
                MosPolarity::Nmos => "n",
                MosPolarity::Pmos => "p",
            })
            .f64(m.vth)
            .f64(m.kp)
            .f64(m.alpha)
            .f64(m.kv)
            .f64(m.channel_lambda)
            .f64(m.v_smooth)
            .f64(m.cgate_per_width)
            .f64(m.cjunction_per_width);
        }
        let mut h = KeyHasher::new();
        h.str("reliaware-arc-v1").str(kind).str(related).str(output).str(&format!("{def:?}"));
        self.hash_config(&mut h);
        self.hash_variation(&mut h);
        hash_mos(&mut h, nmos);
        hash_mos(&mut h, pmos);
        h.finish()
    }

    /// Tier-0 surrogate features of one arc: the cell's topology class
    /// string plus a numeric fingerprint of drive strength, stack depth,
    /// device count and the degradation state (`ΔVth` and mobility ratio
    /// per polarity, relative to the fresh 45 nm models), the environment
    /// axes (junction temperature and Vdd, so a model trained over several
    /// operating corners can interpolate between them), and the OPC axes
    /// the tables span. Built only when the attached cache carries a
    /// [`crate::tier0::SurrogateTier`]; everywhere else the cache path
    /// stays feature-free and surrogate-free.
    #[allow(clippy::too_many_arguments)]
    fn arc_features(
        &self,
        def: &CellDef,
        kind: &str,
        related: &str,
        output: &str,
        nmos: &MosModel,
        pmos: &MosModel,
        temperature_k: f64,
    ) -> Option<ArcFeatures> {
        // The tier-0 surrogate is trained on nominal (per-polarity) cards;
        // a sampled die's arcs are outside its feature space, so variation
        // always goes to real simulation (tier-1/2 keys stay exact).
        if self.active_variation().is_some() {
            return None;
        }
        self.cache.as_ref().filter(|c| c.tier0().is_some())?;
        let fresh_n = MosModel::nmos_45nm();
        let fresh_p = MosModel::pmos_45nm();
        let depth = match &def.topology {
            Topology::Flop { .. } => 2.0,
            Topology::Stages(stages) => {
                stages.iter().map(|s| s.pulldown.series_depth()).max().unwrap_or(1) as f64
            }
        };
        Some(ArcFeatures {
            class: format!("{kind}:{}:{related}->{output}", def.name),
            base: vec![
                strength_of(&def.name),
                depth,
                def.device_count() as f64,
                nmos.vth - fresh_n.vth,
                pmos.vth - fresh_p.vth,
                nmos.kp / fresh_n.kp,
                pmos.kp / fresh_p.kp,
            ],
            temperature_k,
            vdd: self.config.vdd,
            slews: self.config.slews.clone(),
            loads: self.config.loads.clone(),
        })
    }

    /// A library shell with this configuration's defaults.
    fn empty_library(&self, name: &str) -> Library {
        let mut lib = Library::new(name, self.config.vdd);
        lib.default_input_slew = self.config.slews[self.config.slews.len() / 2];
        lib.default_output_load = self.config.loads[self.config.loads.len() / 2];
        lib
    }

    /// Returns `key`'s tables from the cache — coalescing with any
    /// identical in-flight computation — or runs `simulate` without a
    /// cache. A (hash-collision) entry of the wrong grid shape is ignored
    /// and recomputed directly.
    fn tables_via_cache(
        &self,
        key: u64,
        features: Option<ArcFeatures>,
        simulate: impl Fn() -> Result<ArcTables, CharError>,
    ) -> Result<Arc<ArcTables>, CharError> {
        if let Some(cache) = &self.cache {
            let t = cache.get_or_compute_with_features(key, features.as_ref(), &simulate)?;
            if t.rows == self.config.slews.len() && t.cols == self.config.loads.len() {
                return Ok(t);
            }
        }
        Ok(Arc::new(simulate()?))
    }

    /// Builds the Liberty arc from (fresh or cached) grid tables. The axes
    /// are validated at construction, so table assembly cannot fail.
    fn arc_from_tables(&self, related_pin: &str, sense: TimingSense, t: &ArcTables) -> TimingArc {
        let cfg = &self.config;
        let table = |v: &[f64]| match Table2d::new(cfg.slews.clone(), cfg.loads.clone(), v.to_vec())
        {
            Ok(t) => t,
            Err(e) => unreachable!("axes validated at construction: {e}"),
        };
        TimingArc {
            related_pin: related_pin.to_owned(),
            sense,
            cell_rise: table(&t.rise_delay),
            cell_fall: table(&t.fall_delay),
            rise_transition: table(&t.rise_tran),
            fall_transition: table(&t.fall_tran),
        }
    }

    /// Characterizes one cell under the given device models.
    fn characterize_cell(
        &self,
        def: &CellDef,
        nmos: &MosModel,
        pmos: &MosModel,
        temperature_k: f64,
    ) -> Result<Cell, CharError> {
        let cfg = &self.config;
        let inputs: Vec<InputPin> = def
            .inputs
            .iter()
            .map(|pin| InputPin {
                name: pin.clone(),
                capacitance: def.input_capacitance(pin, nmos, pmos),
            })
            .collect();

        let class = match &def.topology {
            Topology::Flop { .. } => CellClass::Flop {
                clock: "CK".into(),
                data: "D".into(),
                setup: cfg.flop_setup,
                hold: cfg.flop_hold,
            },
            Topology::Stages(_) => CellClass::Combinational,
        };

        let mut outputs = Vec::new();
        for out in &def.outputs {
            let function = def.function(&out.pin);
            let mut arcs = Vec::new();
            if def.is_sequential() {
                arcs.push(self.characterize_flop_arc(def, nmos, pmos, temperature_k)?);
            } else {
                for input in &def.inputs {
                    let Some(sense) = def.timing_sense(input, &out.pin) else {
                        continue; // output independent of this input
                    };
                    arcs.push(self.characterize_arc(
                        def,
                        input,
                        &out.pin,
                        sense,
                        nmos,
                        pmos,
                        temperature_k,
                    )?);
                }
            }
            outputs.push(OutputPin {
                name: out.pin.clone(),
                function,
                max_capacitance: 2.0 * cfg.loads[cfg.loads.len() - 1] * strength_of(&def.name),
                arcs,
            });
        }
        Ok(Cell { name: def.name.clone(), area: def.area(), class, inputs, outputs })
    }

    /// Characterizes one combinational input→output arc over the OPC grid.
    #[allow(clippy::too_many_arguments)]
    fn characterize_arc(
        &self,
        def: &CellDef,
        input: &str,
        output: &str,
        sense: TimingSense,
        nmos: &MosModel,
        pmos: &MosModel,
        temperature_k: f64,
    ) -> Result<TimingArc, CharError> {
        let key = self.arc_key(def, "comb", input, output, nmos, pmos);
        let features = self.arc_features(def, "comb", input, output, nmos, pmos, temperature_k);
        let tables = self.tables_via_cache(key, features, || {
            self.sweep_tables(def, nmos, pmos, &self.comb_stimulus(def, input, output))
        })?;
        Ok(self.arc_from_tables(input, sense, &tables))
    }

    /// The stimulus of a combinational arc: `input` switches at 0.3 ns with
    /// the other inputs held at their sensitizing values.
    fn comb_stimulus<'a>(&self, def: &CellDef, input: &'a str, output: &'a str) -> ArcStimulus<'a> {
        let vdd = self.config.vdd;
        let side = def.sensitizing_assignment(input, output).unwrap_or_default();
        // Output polarity for a rising input under this sensitization.
        let f = def.function(output);
        let assign = |input_high: bool| {
            let side = &side;
            move |pin: &str| {
                if pin == input {
                    input_high
                } else {
                    side.iter().find(|(p, _)| p == pin).is_some_and(|(_, v)| *v)
                }
            }
        };
        let out_rises_with_input = !f.eval(&assign(false)) && f.eval(&assign(true));
        let held: BTreeMap<String, Waveform> = side
            .iter()
            .map(|(pin, high)| (pin.clone(), Waveform::Dc(if *high { vdd } else { 0.0 })))
            .collect();
        ArcStimulus {
            input,
            output,
            t_edge: 0.3e-9,
            t_after: 0.1e-9,
            edges: [true, false].map(|input_rising| EdgeStimulus {
                held: held.clone(),
                input_rising,
                output_rising: input_rising == out_rises_with_input,
            }),
        }
    }

    /// The stimulus of the flop's CK→Q arc: D settles to the target value
    /// well before the clock edge at 1.2 ns; the initial state is the
    /// complement so Q moves.
    fn flop_stimulus(&self) -> ArcStimulus<'static> {
        let vdd = self.config.vdd;
        let t_edge = 1.2e-9;
        ArcStimulus {
            input: "CK",
            output: "Q",
            t_edge,
            t_after: t_edge - 0.1e-9,
            edges: [true, false].map(|q_rising| EdgeStimulus {
                held: [(
                    "D".to_owned(),
                    Waveform::Ramp {
                        t_start: 0.2e-9,
                        duration: 50e-12,
                        from: if q_rising { 0.0 } else { vdd },
                        to: if q_rising { vdd } else { 0.0 },
                    },
                )]
                .into_iter()
                .collect(),
                input_rising: true,
                output_rising: q_rising,
            }),
        }
    }

    /// Runs the OPC-grid transient sweep of one arc. The cell is built once
    /// per (load, edge direction) and every slew is a variant of one
    /// [`spicesim::Circuit::sweep_edges`] run. An edge that is not measured
    /// falls back to `(t_stop − t_edge, slowest slew)` and is counted on the
    /// context's `unmeasured_edges` stage.
    fn sweep_tables(
        &self,
        def: &CellDef,
        nmos: &MosModel,
        pmos: &MosModel,
        arc: &ArcStimulus,
    ) -> Result<ArcTables, CharError> {
        let cfg = &self.config;
        let rows = cfg.slews.len();
        let cols = cfg.loads.len();
        let mut rise_delay = vec![0.0; rows * cols];
        let mut fall_delay = vec![0.0; rows * cols];
        let mut rise_tran = vec![0.0; rows * cols];
        let mut fall_tran = vec![0.0; rows * cols];
        let (mut steps, mut unmeasured) = (0, 0);
        let missing = |pin: &str| CharError::MissingPin { cell: def.name.clone(), pin: pin.into() };
        // The sweep gives each variant its own `t_stop`.
        let config = TransientConfig::up_to(arc.t_edge).with_max_dv(cfg.max_dv);
        for edge in &arc.edges {
            let variants: Vec<SweepVariant> = cfg
                .slews
                .iter()
                .map(|&slew| SweepVariant {
                    waveform: Waveform::from_slew(arc.t_edge, slew, cfg.vdd, edge.input_rising),
                    t_stop: arc.t_edge + 4.0 * slew + 3.0e-9,
                })
                .collect();
            let mut stimuli = edge.held.clone();
            stimuli.insert(arc.input.to_owned(), variants[0].waveform.clone());
            for (li, &load) in cfg.loads.iter().enumerate() {
                let loads: BTreeMap<String, f64> =
                    [(arc.output.to_owned(), load)].into_iter().collect();
                let inst = self.instantiate_cell(def, nmos, pmos, &stimuli, &loads);
                let probe = EdgeProbe {
                    input: inst.node(arc.input).ok_or_else(|| missing(arc.input))?,
                    input_rising: edge.input_rising,
                    output: inst.node(arc.output).ok_or_else(|| missing(arc.output))?,
                    output_rising: edge.output_rising,
                    t_after: arc.t_after,
                };
                let sweep = inst
                    .circuit
                    .sweep_edges(&config, probe.input, &variants, &probe)
                    .map_err(|error| CharError::Simulation { cell: def.name.clone(), error })?;
                steps += sweep.step_count();
                for (si, (swept, variant)) in sweep.edges.iter().zip(&variants).enumerate() {
                    let (delay, slew) = match swept.measurement {
                        Some(m) => (m.delay, m.output_slew),
                        None => {
                            // The edge did not propagate (should not happen
                            // for a valid sensitization): a conservative
                            // large delay. The slew axis is non-empty by
                            // construction-time validation.
                            unmeasured += 1;
                            (variant.t_stop - arc.t_edge, cfg.slews[rows - 1])
                        }
                    };
                    let idx = si * cols + li;
                    if edge.output_rising {
                        rise_delay[idx] = delay;
                        rise_tran[idx] = slew;
                    } else {
                        fall_delay[idx] = delay;
                        fall_tran[idx] = slew;
                    }
                }
            }
        }
        if let Some(ctx) = &self.ctx {
            ctx.add_tasks("transient", steps as u64);
            ctx.add_tasks("unmeasured_edges", unmeasured);
        }
        Ok(ArcTables { rows, cols, rise_delay, fall_delay, rise_tran, fall_tran })
    }

    /// Characterizes the CLK→Q arc of a flip-flop.
    fn characterize_flop_arc(
        &self,
        def: &CellDef,
        nmos: &MosModel,
        pmos: &MosModel,
        temperature_k: f64,
    ) -> Result<TimingArc, CharError> {
        let key = self.arc_key(def, "flop", "CK", "Q", nmos, pmos);
        let features = self.arc_features(def, "flop", "CK", "Q", nmos, pmos, temperature_k);
        let tables = self.tables_via_cache(key, features, || {
            self.sweep_tables(def, nmos, pmos, &self.flop_stimulus())
        })?;
        Ok(self.arc_from_tables("CK", TimingSense::PositiveUnate, &tables))
    }
}

/// What one arc's OPC sweep drives and measures.
struct ArcStimulus<'a> {
    /// The swept input pin.
    input: &'a str,
    /// The measured output pin.
    output: &'a str,
    /// Start of the swept input's ramp in seconds.
    t_edge: f64,
    /// Crossings before this time are not measured, in seconds.
    t_after: f64,
    /// The arc's two edge directions.
    edges: [EdgeStimulus; 2],
}

/// One edge direction of an [`ArcStimulus`].
struct EdgeStimulus {
    /// Waveforms of the input pins that do not switch with the slew.
    held: BTreeMap<String, Waveform>,
    input_rising: bool,
    output_rising: bool,
}

/// Drive strength parsed from a cell name (`_X4` → 4.0; default 1.0).
fn strength_of(name: &str) -> f64 {
    name.rfind("_X").and_then(|p| name[p + 2..].parse::<f64>().ok()).unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_set() -> CellSet {
        CellSet::nangate45_like().subset(&["INV_X1", "NAND2_X1", "NOR2_X1", "DFF_X1"])
    }

    fn tiny_config() -> CharConfig {
        CharConfig {
            slews: vec![10e-12, 300e-12],
            loads: vec![1e-15, 10e-15],
            max_dv: 8e-3,
            parallelism: 2,
            ..CharConfig::paper()
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_grids() {
        let bad = |cfg: CharConfig, needle: &str| {
            let e = Characterizer::new(tiny_set(), cfg).unwrap_err();
            match e {
                CharError::InvalidConfig { message } => {
                    assert!(message.contains(needle), "{message} vs {needle}");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        };
        bad(CharConfig { slews: vec![], ..tiny_config() }, "slews axis is empty");
        bad(CharConfig { loads: vec![], ..tiny_config() }, "loads axis is empty");
        bad(CharConfig { slews: vec![300e-12, 10e-12], ..tiny_config() }, "strictly increasing");
        bad(CharConfig { loads: vec![1e-15, 1e-15], ..tiny_config() }, "strictly increasing");
        bad(CharConfig { slews: vec![-1e-12, 10e-12], ..tiny_config() }, "positive");
        bad(CharConfig { vdd: 0.0, ..tiny_config() }, "vdd");
        bad(CharConfig { max_dv: f64::NAN, ..tiny_config() }, "max_dv");
    }

    #[test]
    fn empty_cell_set_is_a_typed_error() {
        let none = CellSet::nangate45_like().subset(&[]);
        assert_eq!(Characterizer::new(none, tiny_config()).unwrap_err(), CharError::EmptyCellSet);
    }

    #[test]
    fn unknown_cell_surfaces_instead_of_empty_library() {
        let catalog = CellSet::nangate45_like();
        let e = Characterizer::for_named_cells(&catalog, &["INV_X1", "XNOR9_X4"], tiny_config())
            .unwrap_err();
        assert_eq!(e, CharError::UnknownCell { cell: "XNOR9_X4".into() });
        assert!(
            Characterizer::for_named_cells(&catalog, &["INV_X1"], tiny_config()).is_ok(),
            "known names must resolve"
        );
    }

    #[test]
    fn context_wires_workers_cache_and_tasks() {
        use crate::cache::ArcCache;
        use std::sync::Arc;
        let ctx =
            Arc::new(RunContext::new().with_workers(2).with_cache(Arc::new(ArcCache::in_memory())));
        let chars = Characterizer::in_context(
            CellSet::nangate45_like().subset(&["INV_X1"]),
            tiny_config(),
            &ctx,
        )
        .unwrap();
        assert_eq!(chars.config().parallelism, 2);
        assert!(chars.cache().is_some());
        let _ = chars.library(&AgingScenario::fresh()).unwrap();
        let report = ctx.report();
        let stage = report.stages.iter().find(|s| s.name == "characterize").unwrap();
        assert_eq!(stage.tasks, 1);
        assert!(report.cache.is_some_and(|c| c.misses > 0));
        // Every simulated edge books its integration steps against the
        // transient stage — the cost the tier-0 surrogate amortizes away.
        let transient = report.stages.iter().find(|s| s.name == "transient").unwrap();
        assert!(transient.tasks > 0, "transient stage must account integration steps");
    }

    #[test]
    fn fresh_library_structure() {
        let chars = Characterizer::new(tiny_set(), tiny_config()).unwrap();
        let lib = chars.library(&AgingScenario::fresh()).unwrap();
        assert_eq!(lib.len(), 4);
        let inv = lib.cell("INV_X1").unwrap();
        assert_eq!(inv.inputs.len(), 1);
        assert!(
            inv.inputs[0].capacitance > 0.3e-15 && inv.inputs[0].capacitance < 3e-15,
            "INV input cap = {}",
            inv.inputs[0].capacitance
        );
        let arc = inv.output("Y").unwrap().arc_from("A").unwrap();
        assert_eq!(arc.sense, TimingSense::NegativeUnate);
        // Delay grows with load.
        assert!(arc.delay(true, 10e-12, 10e-15) > arc.delay(true, 10e-12, 1e-15));
        // DFF is sequential with a CK arc.
        let dff = lib.cell("DFF_X1").unwrap();
        assert!(dff.is_sequential());
        let cq = dff.output("Q").unwrap().arc_from("CK").unwrap();
        let d = cq.delay(true, 10e-12, 1e-15);
        assert!(d > 1e-12 && d < 1e-9, "clk→Q = {d}");
    }

    #[test]
    fn aging_slows_the_library() {
        let chars = Characterizer::new(
            CellSet::nangate45_like().subset(&["INV_X1", "NAND2_X1"]),
            tiny_config(),
        )
        .unwrap();
        let fresh = chars.library(&AgingScenario::fresh()).unwrap();
        let aged = chars.library(&AgingScenario::worst_case(10.0)).unwrap();
        for name in ["INV_X1", "NAND2_X1"] {
            let f = fresh.cell(name).unwrap().worst_delay(10e-12, 10e-15);
            let a = aged.cell(name).unwrap().worst_delay(10e-12, 10e-15);
            assert!(a > f, "{name}: aged {a} vs fresh {f}");
            assert!(a < 2.0 * f, "{name}: aging is severe but bounded");
        }
    }

    #[test]
    fn vth_only_is_faster_than_full_degradation() {
        let chars =
            Characterizer::new(CellSet::nangate45_like().subset(&["INV_X1"]), tiny_config())
                .unwrap();
        let scenario = AgingScenario::worst_case(10.0);
        let full = chars.library(&scenario).unwrap();
        let vth = chars.library_vth_only(&scenario).unwrap();
        let df = full.cell("INV_X1").unwrap().worst_delay(10e-12, 10e-15);
        let dv = vth.cell("INV_X1").unwrap().worst_delay(10e-12, 10e-15);
        assert!(dv < df, "ΔVth-only must underestimate: {dv} vs {df}");
    }

    #[test]
    fn complete_library_merges_grid() {
        let chars =
            Characterizer::new(CellSet::nangate45_like().subset(&["INV_X1"]), tiny_config())
                .unwrap();
        let complete = chars.complete_library(1, 10.0).unwrap();
        // 2×2 grid × 1 cell.
        assert_eq!(complete.len(), 4);
        assert!(complete.cell("INV_X1_0.00_0.00").is_some());
        assert!(complete.cell("INV_X1_1.00_1.00").is_some());
    }

    #[test]
    fn characterized_library_passes_sanity_check() {
        let chars = Characterizer::new(tiny_set(), tiny_config()).unwrap();
        for scenario in [AgingScenario::fresh(), AgingScenario::worst_case(10.0)] {
            let lib = chars.library(&scenario).unwrap();
            let issues = lib.sanity_check();
            assert!(
                issues.is_empty(),
                "characterization QA failed for {scenario}: {:?}",
                issues.iter().map(ToString::to_string).collect::<Vec<_>>()
            );
        }
    }

    /// Regression: the disk key used to encode only the *lengths* of the
    /// OPC axes, so changing grid values at unchanged counts silently
    /// returned the stale entry. The table axes come from the config, so
    /// only the cache counters can tell a stale hit from a fresh run.
    #[test]
    fn cache_key_tracks_grid_values_not_just_shape() {
        let dir = std::env::temp_dir()
            .join(format!("reliaware_test_cache_values_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cells = || CellSet::nangate45_like().subset(&["INV_X1"]);
        let scenario = AgingScenario::worst_case(10.0);
        let on_disk = |config: CharConfig| {
            let cache = Arc::new(ArcCache::with_dir(&dir));
            let chars = Characterizer::new(cells(), config).unwrap().with_cache(Arc::clone(&cache));
            chars.library(&scenario).unwrap();
            cache.stats()
        };
        assert!(on_disk(tiny_config()).misses > 0, "cold directory");
        assert_eq!(on_disk(tiny_config()).misses, 0, "same grid must replay from disk");
        // Same axis lengths, different values.
        let moved =
            CharConfig { slews: vec![20e-12, 500e-12], loads: vec![2e-15, 8e-15], ..tiny_config() };
        assert!(on_disk(moved).misses > 0, "stale cache entry returned");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A warm arc cache must reproduce the cold library bit-identically and
    /// answer every lookup without simulating.
    #[test]
    fn arc_cache_warm_is_bit_identical() {
        use crate::cache::ArcCache;
        use std::sync::Arc;
        let cache = Arc::new(ArcCache::in_memory());
        let chars = Characterizer::new(
            CellSet::nangate45_like().subset(&["INV_X1", "NAND2_X1", "DFF_X1"]),
            tiny_config(),
        )
        .unwrap()
        .with_cache(Arc::clone(&cache));
        let scenario = AgingScenario::worst_case(10.0);
        let cold = chars.library(&scenario).unwrap();
        let cold_stats = cache.stats();
        assert_eq!(cold_stats.memory_hits + cold_stats.disk_hits, 0);
        assert!(cold_stats.misses > 0);
        cache.reset_stats();
        let warm = chars.library(&scenario).unwrap();
        assert_eq!(cold, warm);
        let warm_stats = cache.stats();
        assert_eq!(warm_stats.misses, 0, "warm run must not simulate");
        assert!((warm_stats.hit_rate() - 1.0).abs() < f64::EPSILON);
    }

    /// A cache carrying a collect-only tier (budget 0) must never serve a
    /// prediction: the library stays bit-identical to a tier-free run while
    /// every fallback feeds the training buffer — the online-feedback path.
    #[test]
    fn tier0_collect_only_is_bit_identical_and_collects() {
        use crate::cache::ArcCache;
        use crate::tier0::SurrogateTier;
        use std::sync::Arc;
        let cells = || CellSet::nangate45_like().subset(&["INV_X1", "DFF_X1"]);
        let scenario = AgingScenario::worst_case(10.0);
        let want = Characterizer::new(cells(), tiny_config()).unwrap().library(&scenario).unwrap();

        let tier = Arc::new(SurrogateTier::new(0.0));
        let cache = Arc::new(ArcCache::in_memory().with_tier0(Arc::clone(&tier)));
        let chars =
            Characterizer::new(cells(), tiny_config()).unwrap().with_cache(Arc::clone(&cache));
        let got = chars.library(&scenario).unwrap();
        assert_eq!(want, got, "collect-only tier must not perturb the library");
        let stats = cache.stats();
        assert_eq!(stats.tier0_hits, 0, "budget 0 must never serve");
        assert!(stats.tier0_fallbacks > 0, "every lookup must consult the tier");
        assert_eq!(tier.stats().samples, stats.tier0_fallbacks, "fallbacks feed training");
    }

    /// Different device models (other scenarios) must not collide with
    /// cached entries for the same cell/arc/grid.
    #[test]
    fn arc_cache_distinguishes_models() {
        use crate::cache::ArcCache;
        use std::sync::Arc;
        let cache = Arc::new(ArcCache::in_memory());
        let chars =
            Characterizer::new(CellSet::nangate45_like().subset(&["INV_X1"]), tiny_config())
                .unwrap()
                .with_cache(Arc::clone(&cache));
        let fresh = chars.library(&AgingScenario::fresh()).unwrap();
        let aged = chars.library(&AgingScenario::worst_case(10.0)).unwrap();
        let f = fresh.cell("INV_X1").unwrap().worst_delay(10e-12, 10e-15);
        let a = aged.cell("INV_X1").unwrap().worst_delay(10e-12, 10e-15);
        assert!(a > f, "aged library must not reuse fresh-model cache entries");
    }

    /// A sampled die's library differs from the nominal one, replays
    /// bit-identically under the same seed, and differs across seeds.
    #[test]
    fn sampled_library_differs_and_replays_deterministically() {
        let cells = || CellSet::nangate45_like().subset(&["INV_X1", "NAND2_X1"]);
        let scenario = AgingScenario::fresh();
        let nominal = Characterizer::new(cells(), tiny_config()).unwrap();
        let die = |seed: u64| {
            Characterizer::new(cells(), tiny_config())
                .unwrap()
                .with_variation(ptm::VariationModel::nominal_45nm(), seed)
        };
        let base = nominal.library(&scenario).unwrap();
        let a = die(7).library(&scenario).unwrap();
        let b = die(7).library(&scenario).unwrap();
        let c = die(8).library(&scenario).unwrap();
        assert_eq!(a, b, "same die seed must replay bit-identically");
        let d = |lib: &Library| lib.cell("INV_X1").unwrap().worst_delay(10e-12, 10e-15);
        assert!(d(&a) != d(&base), "a sampled die must not equal the nominal die");
        assert!(d(&a) != d(&c), "different die seeds must sample different devices");
    }

    /// Zero-variance sampling must stay on the nominal code path —
    /// bit-identical library, nominal cache keys (warm hits across the
    /// nominal/zero-variance boundary).
    #[test]
    fn zero_variance_sampling_is_the_nominal_library() {
        use crate::cache::ArcCache;
        use std::sync::Arc;
        let cells = || CellSet::nangate45_like().subset(&["INV_X1"]);
        let scenario = AgingScenario::worst_case(10.0);
        let cache = Arc::new(ArcCache::in_memory());
        let nominal = Characterizer::new(cells(), tiny_config())
            .unwrap()
            .with_cache(Arc::clone(&cache))
            .library(&scenario)
            .unwrap();
        cache.reset_stats();
        let zero = Characterizer::new(cells(), tiny_config())
            .unwrap()
            .with_cache(Arc::clone(&cache))
            .with_variation(ptm::VariationModel::none(), 42)
            .library(&scenario)
            .unwrap();
        assert_eq!(nominal, zero, "zero variance must be the nominal path");
        let stats = cache.stats();
        assert_eq!(stats.misses, 0, "zero variance must reuse nominal cache keys");
    }

    /// Sampled dies must key the arc cache on (spread, seed): no collisions
    /// with the nominal entries or across seeds, and a same-seed warm rerun
    /// must answer fully from cache.
    #[test]
    fn variation_cache_keys_isolate_dies() {
        use crate::cache::ArcCache;
        use std::sync::Arc;
        let cells = || CellSet::nangate45_like().subset(&["INV_X1"]);
        let scenario = AgingScenario::fresh();
        let cache = Arc::new(ArcCache::in_memory());
        let with = |variation: Option<u64>| {
            let c =
                Characterizer::new(cells(), tiny_config()).unwrap().with_cache(Arc::clone(&cache));
            match variation {
                Some(seed) => c.with_variation(ptm::VariationModel::nominal_45nm(), seed),
                None => c,
            }
        };
        let nominal = with(None).library(&scenario).unwrap();
        let die1 = with(Some(1)).library(&scenario).unwrap();
        let die2 = with(Some(2)).library(&scenario).unwrap();
        let d = |lib: &Library| lib.cell("INV_X1").unwrap().worst_delay(10e-12, 10e-15);
        assert!(d(&die1) != d(&nominal), "die 1 must not reuse nominal entries");
        assert!(d(&die1) != d(&die2), "die 2 must not reuse die 1 entries");
        cache.reset_stats();
        let warm = with(Some(1)).library(&scenario).unwrap();
        assert_eq!(die1, warm, "warm same-seed rerun must be bit-identical");
        assert_eq!(cache.stats().misses, 0, "warm same-seed rerun must not simulate");
    }

    /// The six cells of the char-grid benchmark workload: single-stage,
    /// stacked, complex, multi-stage and flop topologies.
    const CHAR_GRID_CELLS: [&str; 6] =
        ["INV_X1", "NAND3_X1", "AOI21_X1", "XOR2_X1", "BUF_X2", "DFF_X1"];

    /// The per-point characterization the sweep replaced, kept as its
    /// reference: per OPC point one fresh instance, one full `transient`,
    /// `measure_edge` and the same fallback.
    #[allow(clippy::too_many_arguments)]
    fn reference_edge(
        chars: &Characterizer,
        def: &CellDef,
        stimuli: BTreeMap<String, Waveform>,
        (input, input_rising): (&str, bool),
        (output, output_rising): (&str, bool),
        (t_edge, t_after): (f64, f64),
        slew: f64,
        load: f64,
        nmos: &MosModel,
        pmos: &MosModel,
    ) -> (f64, f64) {
        let cfg = &chars.config;
        let loads: BTreeMap<String, f64> = [(output.to_owned(), load)].into_iter().collect();
        let inst = chars.instantiate_cell(def, nmos, pmos, &stimuli, &loads);
        let in_node = inst.node(input).unwrap();
        let out_node = inst.node(output).unwrap();
        let t_stop = t_edge + 4.0 * slew + 3.0e-9;
        let config =
            TransientConfig::up_to(t_stop).with_max_dv(cfg.max_dv).observing(&[in_node, out_node]);
        let trace = inst.circuit.transient(&config).unwrap();
        match trace.measure_edge(in_node, input_rising, out_node, output_rising, t_after) {
            Some(m) => (m.delay, m.output_slew),
            None => (t_stop - t_edge, cfg.slews[cfg.slews.len() - 1]),
        }
    }

    /// Reference tables of one arc: `input` is `None` for the flop's CK→Q.
    fn reference_tables(
        chars: &Characterizer,
        def: &CellDef,
        input: Option<&str>,
        output: &str,
        nmos: &MosModel,
        pmos: &MosModel,
    ) -> ArcTables {
        let cfg = &chars.config;
        let (rows, cols) = (cfg.slews.len(), cfg.loads.len());
        let mut t = ArcTables {
            rows,
            cols,
            rise_delay: vec![0.0; rows * cols],
            fall_delay: vec![0.0; rows * cols],
            rise_tran: vec![0.0; rows * cols],
            fall_tran: vec![0.0; rows * cols],
        };
        for (si, &slew) in cfg.slews.iter().enumerate() {
            for (li, &load) in cfg.loads.iter().enumerate() {
                for rising in [true, false] {
                    let mut stimuli: BTreeMap<String, Waveform> = BTreeMap::new();
                    let (m, output_rising) = match input {
                        Some(input) => {
                            let side = def.sensitizing_assignment(input, output).unwrap();
                            let f = def.function(output);
                            let assign = |high: bool| {
                                let side = &side;
                                move |pin: &str| {
                                    if pin == input {
                                        high
                                    } else {
                                        side.iter().find(|(p, _)| p == pin).is_some_and(|(_, v)| *v)
                                    }
                                }
                            };
                            let out_rises = !f.eval(&assign(false)) && f.eval(&assign(true));
                            let output_rising = rising == out_rises;
                            let t_edge = 0.3e-9;
                            stimuli.insert(
                                input.to_owned(),
                                Waveform::from_slew(t_edge, slew, cfg.vdd, rising),
                            );
                            for (pin, high) in &side {
                                stimuli.insert(
                                    pin.clone(),
                                    Waveform::Dc(if *high { cfg.vdd } else { 0.0 }),
                                );
                            }
                            let m = reference_edge(
                                chars,
                                def,
                                stimuli,
                                (input, rising),
                                (output, output_rising),
                                (t_edge, 0.1e-9),
                                slew,
                                load,
                                nmos,
                                pmos,
                            );
                            (m, output_rising)
                        }
                        None => {
                            let t_clk = 1.2e-9;
                            let d_wave = Waveform::Ramp {
                                t_start: 0.2e-9,
                                duration: 50e-12,
                                from: if rising { 0.0 } else { cfg.vdd },
                                to: if rising { cfg.vdd } else { 0.0 },
                            };
                            stimuli.insert("D".into(), d_wave);
                            stimuli.insert(
                                "CK".into(),
                                Waveform::from_slew(t_clk, slew, cfg.vdd, true),
                            );
                            let m = reference_edge(
                                chars,
                                def,
                                stimuli,
                                ("CK", true),
                                ("Q", rising),
                                (t_clk, t_clk - 0.1e-9),
                                slew,
                                load,
                                nmos,
                                pmos,
                            );
                            (m, rising)
                        }
                    };
                    let idx = si * cols + li;
                    if output_rising {
                        t.rise_delay[idx] = m.0;
                        t.rise_tran[idx] = m.1;
                    } else {
                        t.fall_delay[idx] = m.0;
                        t.fall_tran[idx] = m.1;
                    }
                }
            }
        }
        t
    }

    fn table_bits(t: &ArcTables) -> Vec<u64> {
        [&t.rise_delay, &t.fall_delay, &t.rise_tran, &t.fall_tran]
            .into_iter()
            .flatten()
            .map(|v| v.to_bits())
            .collect()
    }

    /// The sweep (shared settle, early stop, overdrive memo, one instance
    /// per load and direction) must reproduce the per-point reference bit
    /// for bit on every arc of the char-grid cells: fresh, worst-case
    /// 10-year and on a sampled die.
    #[test]
    fn sweep_tables_equal_the_per_point_reference_bit_for_bit() {
        let cells = CellSet::nangate45_like().subset(&CHAR_GRID_CELLS);
        let nominal = Characterizer::new(cells.clone(), CharConfig::fast()).unwrap();
        let die = nominal.clone().with_variation(ptm::VariationModel::nominal_45nm(), 5);
        let cases = [
            (&nominal, AgingScenario::fresh()),
            (&nominal, AgingScenario::worst_case(10.0)),
            (&die, AgingScenario::fresh()),
        ];
        let mut arcs = 0;
        for (chars, scenario) in cases {
            let d = scenario.degradations();
            let nmos = MosModel::nmos_45nm().degraded(&d.nmos);
            let pmos = MosModel::pmos_45nm().degraded(&d.pmos);
            for def in cells.iter() {
                let mut pairs = Vec::new();
                if def.is_sequential() {
                    pairs.push((None, "Q".to_owned(), chars.flop_stimulus()));
                }
                for out in def.outputs.iter().filter(|_| !def.is_sequential()) {
                    for input in &def.inputs {
                        if def.timing_sense(input, &out.pin).is_some() {
                            let stimulus = chars.comb_stimulus(def, input, &out.pin);
                            pairs.push((Some(input.as_str()), out.pin.clone(), stimulus));
                        }
                    }
                }
                for (input, output, stimulus) in pairs {
                    let got = chars.sweep_tables(def, &nmos, &pmos, &stimulus).unwrap();
                    let want = reference_tables(chars, def, input, &output, &nmos, &pmos);
                    assert_eq!((got.rows, got.cols), (want.rows, want.cols));
                    assert_eq!(
                        table_bits(&got),
                        table_bits(&want),
                        "{} {input:?}->{output} under {scenario}",
                        def.name
                    );
                    arcs += 1;
                }
            }
        }
        assert_eq!(arcs, 3 * 11, "every arc of the six cells in all three cases");
    }

    /// The char-grid workload (its six cells on the paper grid over the
    /// 2×2 λ grid) never falls back to the substituted delay, and the
    /// context says so: its `unmeasured_edges` stage books 0.
    #[test]
    fn char_grid_cells_book_no_unmeasured_edges() {
        let ctx = Arc::new(RunContext::new().with_workers(2));
        let cells = CellSet::nangate45_like().subset(&CHAR_GRID_CELLS);
        let chars = Characterizer::in_context(cells, CharConfig::paper(), &ctx).unwrap();
        for scenario in AgingScenario::grid(1, 10.0) {
            chars.library(&scenario).unwrap();
        }
        let report = ctx.report();
        let stage = |name: &str| report.stages.iter().find(|s| s.name == name).unwrap().tasks;
        assert_eq!(stage("unmeasured_edges"), 0);
        assert!(stage("transient") > 0);
    }

    /// Below threshold no output completes its swing within the window:
    /// every edge takes the fallback, and every fallback is counted.
    #[test]
    fn sub_threshold_supply_counts_every_fallback() {
        let ctx = Arc::new(RunContext::new().with_workers(1));
        let config =
            CharConfig { vdd: 0.3, slews: vec![50e-12], loads: vec![2e-15], ..tiny_config() };
        let inv = CellSet::nangate45_like().subset(&["INV_X1"]);
        let chars = Characterizer::in_context(inv, config, &ctx).unwrap();
        let lib = chars.library(&AgingScenario::fresh()).unwrap();
        let arc = lib.cell("INV_X1").unwrap().output("Y").unwrap().arc_from("A").unwrap().clone();
        let fallback = 4.0 * 50e-12 + 3.0e-9;
        for table in [&arc.cell_rise, &arc.cell_fall] {
            assert!((table.at(0, 0) - fallback).abs() < 1e-21, "{}", table.at(0, 0));
        }
        let report = ctx.report();
        let unmeasured = report.stages.iter().find(|s| s.name == "unmeasured_edges").unwrap();
        assert_eq!(unmeasured.tasks, 2, "one rising and one falling edge");
    }
}
