#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! **relialint** — rule-based static analysis for the reliability-aware
//! design flow.
//!
//! The paper's flow chains characterized libraries, gate-level netlists and
//! λ-annotations through synthesis, STA and simulation; a malformed input
//! surfaces late, deep inside whichever tool happens to trip over it first.
//! relialint runs the checks *before* simulation or timing analysis and
//! reports every finding at once as structured diagnostics:
//!
//! - a stable rule ID per check (`LB...` library, `NL...` netlist,
//!   `LM...` λ-annotation, `TM...` timing-context, `AG...` aging,
//!   `DF...` dataflow, `PT...` path-level timing, `LT...` lifetime,
//!   `PV...` process variation),
//! - a severity ([`Severity::Error`] aborts flows, [`Severity::Warning`]
//!   is logged, [`Severity::Info`] is advisory),
//! - a precise [`Location`] (cell, arc, instance or net),
//! - human-readable rendering and JSON output,
//! - per-rule suppression via [`LintConfig::allow`].
//!
//! Entry points: [`LintReport::run`] (netlist against library),
//! [`LintReport::run_library`] (library alone), [`LintReport::run_aging`]
//! (fresh/aged pair) and [`preflight`] (the gate used by the `flow` crate).
//!
//! # Example
//!
//! ```
//! use lint::{LintConfig, LintReport, Rule};
//! use liberty::{Cell, Library};
//! use netlist::{Netlist, PortDir};
//!
//! let mut lib = Library::new("lib", 1.2);
//! lib.add_cell(Cell::test_inverter("INV_X1"));
//! let mut nl = Netlist::new("m");
//! let a = nl.add_port("a", PortDir::Input);
//! let y = nl.add_port("y", PortDir::Output);
//! nl.add_instance("u0", "MISSING_X1", &[("A", a), ("Y", y)]);
//!
//! let report = LintReport::run(&nl, &lib, &LintConfig::default());
//! assert!(report.has_errors());
//! assert!(report.diagnostics().iter().any(|d| d.rule == Rule::UnknownCell));
//! ```

mod rules;

use bti::json::Json;
pub use dataflow::Extraction;
use liberty::Library;
use netlist::Netlist;
use std::collections::BTreeSet;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory; never affects flow control.
    Info,
    /// Suspicious but analyzable; pre-flight gates log these and continue.
    Warning,
    /// The input is unusable for analysis; pre-flight gates abort.
    Error,
}

impl Severity {
    /// Lower-case label used in text and JSON output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Every relialint rule, identified by a stable code.
///
/// Codes are append-only: a rule keeps its code forever so suppression
/// lists and tooling stay valid across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// LB001 — the library contains no cells.
    EmptyLibrary,
    /// LB002 — an input pin capacitance is non-positive, NaN or absurd.
    ImplausibleCapacitance,
    /// LB003 — an output pin carries no timing arcs.
    MissingArcs,
    /// LB004 — an output-transition table has non-positive entries.
    NonPositiveTransition,
    /// LB005 — delay fails to increase with output load.
    NonMonotoneLoad,
    /// LB006 — a table contains the characterizer's timeout fallback.
    TimedOutMeasurement,
    /// LB007 — delay decreases with input slew.
    NonMonotoneSlew,
    /// LB008 — cells are characterized on different slew/load grids.
    InconsistentGrid,
    /// NL001 — an instance references a cell the library does not have.
    UnknownCell,
    /// NL002 — an instance connects a pin its cell does not have.
    UnknownPin,
    /// NL003 — a net is driven by more than one output (or port).
    MultipleDrivers,
    /// NL004 — a cell input pin is unconnected.
    UnconnectedInput,
    /// NL005 — a net with sinks has no driver at all.
    FloatingNet,
    /// NL006 — a cell output is unconnected, or drives a net nobody reads.
    DanglingOutput,
    /// NL007 — two instances share one name.
    DuplicateInstance,
    /// NL008 — the combinational logic contains a cycle.
    CombinationalLoop,
    /// LM001 — a λ-annotated instance references an uncharacterized
    /// duty-cycle pair (outside or between the grid points of the library).
    LambdaOutOfGrid,
    /// LM002 — an annotated netlist leaves some instances unannotated even
    /// though their cells have λ variants (coverage gap).
    LambdaCoverageGap,
    /// TM001 — the analysis operating conditions fall outside the
    /// characterized table axes, forcing extrapolation.
    Extrapolation,
    /// AG001 — an aged delay is *smaller* than the fresh delay on some arc
    /// that is not a whitelisted physical improvement (cf. the NOR fall
    /// arc of the paper's Fig. 1(b)).
    AgingImprovement,
    /// DF001 — interval propagation pins an internal net to a constant
    /// level: the driver is a maximal asymmetric BTI stress hotspot.
    ConstantNet,
    /// DF002 — a primary output is statically constant (the whole cone
    /// computes nothing observable).
    ConstantOutput,
    /// DF003 — an instance's output cone never reaches a primary output.
    DeadCone,
    /// DF004 — a λ-annotation lies outside its statically provable
    /// interval; no workload can produce it.
    LambdaOutsideBounds,
    /// DF005 — a (λp, λn) annotation pair violates the extraction-mode
    /// invariant (gate-average: λp + λn = 1; worst-pin: λp + λn ≥ 1).
    LambdaInconsistentPair,
    /// DF006 — the interval analysis widened or skipped instances
    /// (combinational loops, unresolvable cells), so DF checks are partial.
    WidenedAnalysis,
    /// PT001 — an enumerated path's aged delay exceeds the provable
    /// `static_guardband_bound`; bound and path come from the same
    /// annotation, so this is an invariant violation.
    PathGuardbandOverBound,
    /// PT002 — one arc carries almost the entire aging guardband of a
    /// near-critical path (a single degradation hotspot decides the
    /// design's lifetime margin).
    AgingDominantArc,
    /// PT003 — a path's aged delay is *below* its fresh delay: the
    /// annotation or complete library breaks degradation monotonicity at
    /// the path level.
    NonMonotoneAgedPath,
    /// PT004 — the near-critical path population inside the window exceeds
    /// the configured limit (or exhausted the enumeration budget):
    /// single-path guardbanding is unreliable under criticality switching.
    NearCriticalExplosion,
    /// PT005 — timing endpoints exist but no clock period is configured,
    /// so path slacks are vacuous.
    UnconstrainedEndpoint,
    /// LT001 — the provable design MTTF lower bound falls below the
    /// configured lifetime target.
    MttfBelowTarget,
    /// LT002 — one mechanism carries almost the entire design failure
    /// hazard: the lifetime verdict hinges on a single model's calibration.
    MechanismDominance,
    /// LT003 — the lifetime environment configuration is unsound
    /// (inverted/non-finite temperature or Vdd range, non-positive horizon,
    /// frequency or budget), so interval-endpoint evaluation proves nothing.
    EnvIntervalUnsound,
    /// LT004 — a configured aging mechanism violates the monotonicity
    /// contract, so evaluating it at interval endpoints is unsound.
    NonMonotoneMechanism,
    /// LT005 — an instance's MTTF lower bound falls below the lifetime
    /// target (a localized wear-out hotspot).
    LifetimeHotspot,
    /// LT006 — the provable years-until-guardband-exhaustion bound is
    /// shorter than the configured lifetime horizon.
    GuardbandExhausted,
    /// PV001 — process variation erodes the design MTTF: the sampled
    /// low-quantile die retains less of the nominal bound than the allowed
    /// variation guardband gap, so nominal-only sign-off over-promises.
    VariationGuardbandGap,
    /// PV002 — the Monte-Carlo sampling plan (or its quantile/gap
    /// thresholds) is unsound, so the sampled distribution proves nothing.
    SamplingPlanUnsound,
    /// PV003 — a sampled die's MTTF falls below the variation-aware static
    /// lower bound; sampler and bound come from the same monotonicity
    /// contract, so this is an invariant violation.
    SampleBelowStaticBound,
}

impl Rule {
    /// All rules in code order.
    pub const ALL: [Rule; 40] = [
        Rule::EmptyLibrary,
        Rule::ImplausibleCapacitance,
        Rule::MissingArcs,
        Rule::NonPositiveTransition,
        Rule::NonMonotoneLoad,
        Rule::TimedOutMeasurement,
        Rule::NonMonotoneSlew,
        Rule::InconsistentGrid,
        Rule::UnknownCell,
        Rule::UnknownPin,
        Rule::MultipleDrivers,
        Rule::UnconnectedInput,
        Rule::FloatingNet,
        Rule::DanglingOutput,
        Rule::DuplicateInstance,
        Rule::CombinationalLoop,
        Rule::LambdaOutOfGrid,
        Rule::LambdaCoverageGap,
        Rule::Extrapolation,
        Rule::AgingImprovement,
        Rule::ConstantNet,
        Rule::ConstantOutput,
        Rule::DeadCone,
        Rule::LambdaOutsideBounds,
        Rule::LambdaInconsistentPair,
        Rule::WidenedAnalysis,
        Rule::PathGuardbandOverBound,
        Rule::AgingDominantArc,
        Rule::NonMonotoneAgedPath,
        Rule::NearCriticalExplosion,
        Rule::UnconstrainedEndpoint,
        Rule::MttfBelowTarget,
        Rule::MechanismDominance,
        Rule::EnvIntervalUnsound,
        Rule::NonMonotoneMechanism,
        Rule::LifetimeHotspot,
        Rule::GuardbandExhausted,
        Rule::VariationGuardbandGap,
        Rule::SamplingPlanUnsound,
        Rule::SampleBelowStaticBound,
    ];

    /// The stable rule code, e.g. `NL003`.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Rule::EmptyLibrary => "LB001",
            Rule::ImplausibleCapacitance => "LB002",
            Rule::MissingArcs => "LB003",
            Rule::NonPositiveTransition => "LB004",
            Rule::NonMonotoneLoad => "LB005",
            Rule::TimedOutMeasurement => "LB006",
            Rule::NonMonotoneSlew => "LB007",
            Rule::InconsistentGrid => "LB008",
            Rule::UnknownCell => "NL001",
            Rule::UnknownPin => "NL002",
            Rule::MultipleDrivers => "NL003",
            Rule::UnconnectedInput => "NL004",
            Rule::FloatingNet => "NL005",
            Rule::DanglingOutput => "NL006",
            Rule::DuplicateInstance => "NL007",
            Rule::CombinationalLoop => "NL008",
            Rule::LambdaOutOfGrid => "LM001",
            Rule::LambdaCoverageGap => "LM002",
            Rule::Extrapolation => "TM001",
            Rule::AgingImprovement => "AG001",
            Rule::ConstantNet => "DF001",
            Rule::ConstantOutput => "DF002",
            Rule::DeadCone => "DF003",
            Rule::LambdaOutsideBounds => "DF004",
            Rule::LambdaInconsistentPair => "DF005",
            Rule::WidenedAnalysis => "DF006",
            Rule::PathGuardbandOverBound => "PT001",
            Rule::AgingDominantArc => "PT002",
            Rule::NonMonotoneAgedPath => "PT003",
            Rule::NearCriticalExplosion => "PT004",
            Rule::UnconstrainedEndpoint => "PT005",
            Rule::MttfBelowTarget => "LT001",
            Rule::MechanismDominance => "LT002",
            Rule::EnvIntervalUnsound => "LT003",
            Rule::NonMonotoneMechanism => "LT004",
            Rule::LifetimeHotspot => "LT005",
            Rule::GuardbandExhausted => "LT006",
            Rule::VariationGuardbandGap => "PV001",
            Rule::SamplingPlanUnsound => "PV002",
            Rule::SampleBelowStaticBound => "PV003",
        }
    }

    /// The built-in severity of the rule.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Rule::EmptyLibrary
            | Rule::ImplausibleCapacitance
            | Rule::MissingArcs
            | Rule::NonPositiveTransition
            | Rule::TimedOutMeasurement
            | Rule::UnknownCell
            | Rule::UnknownPin
            | Rule::MultipleDrivers
            | Rule::UnconnectedInput
            | Rule::DuplicateInstance
            | Rule::CombinationalLoop
            | Rule::LambdaOutOfGrid
            | Rule::LambdaOutsideBounds
            | Rule::LambdaInconsistentPair
            | Rule::PathGuardbandOverBound
            | Rule::NonMonotoneAgedPath
            | Rule::EnvIntervalUnsound
            | Rule::NonMonotoneMechanism
            | Rule::SamplingPlanUnsound
            | Rule::SampleBelowStaticBound => Severity::Error,
            Rule::NonMonotoneLoad
            | Rule::NonMonotoneSlew
            | Rule::InconsistentGrid
            | Rule::FloatingNet
            | Rule::LambdaCoverageGap
            | Rule::Extrapolation
            | Rule::AgingImprovement
            | Rule::ConstantNet
            | Rule::ConstantOutput
            | Rule::DeadCone
            | Rule::AgingDominantArc
            | Rule::UnconstrainedEndpoint
            | Rule::MttfBelowTarget
            | Rule::LifetimeHotspot
            | Rule::GuardbandExhausted
            | Rule::VariationGuardbandGap => Severity::Warning,
            Rule::DanglingOutput
            | Rule::WidenedAnalysis
            | Rule::NearCriticalExplosion
            | Rule::MechanismDominance => Severity::Info,
        }
    }

    /// One-line description of what the rule checks.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Rule::EmptyLibrary => "library has no cells",
            Rule::ImplausibleCapacitance => "implausible input-pin capacitance",
            Rule::MissingArcs => "output pin without timing arcs",
            Rule::NonPositiveTransition => "non-positive output transition",
            Rule::NonMonotoneLoad => "delay not increasing with output load",
            Rule::TimedOutMeasurement => "table contains a timed-out measurement",
            Rule::NonMonotoneSlew => "delay decreasing with input slew",
            Rule::InconsistentGrid => "cells characterized on different OPC grids",
            Rule::UnknownCell => "instance references unknown cell",
            Rule::UnknownPin => "instance connects unknown pin",
            Rule::MultipleDrivers => "net driven by multiple outputs",
            Rule::UnconnectedInput => "cell input pin unconnected",
            Rule::FloatingNet => "net with sinks but no driver",
            Rule::DanglingOutput => "cell output drives nothing",
            Rule::DuplicateInstance => "duplicate instance names",
            Rule::CombinationalLoop => "combinational loop",
            Rule::LambdaOutOfGrid => "λ pair not characterized in the library",
            Rule::LambdaCoverageGap => "λ annotation does not cover all instances",
            Rule::Extrapolation => "operating conditions outside table axes",
            Rule::AgingImprovement => "aged delay faster than fresh (not whitelisted)",
            Rule::ConstantNet => "net statically constant (BTI stress hotspot)",
            Rule::ConstantOutput => "primary output statically constant",
            Rule::DeadCone => "instance unobservable from any primary output",
            Rule::LambdaOutsideBounds => "λ-annotation outside provable interval",
            Rule::LambdaInconsistentPair => "λ pair violates extraction invariant",
            Rule::WidenedAnalysis => "interval analysis widened (partial DF coverage)",
            Rule::PathGuardbandOverBound => "aged path delay exceeds the static bound",
            Rule::AgingDominantArc => "one arc dominates a near-critical path's guardband",
            Rule::NonMonotoneAgedPath => "aged path delay below fresh path delay",
            Rule::NearCriticalExplosion => "near-critical path population explosion",
            Rule::UnconstrainedEndpoint => "timing endpoints without a clock constraint",
            Rule::MttfBelowTarget => "design MTTF lower bound below the lifetime target",
            Rule::MechanismDominance => "one mechanism dominates the failure hazard",
            Rule::EnvIntervalUnsound => "lifetime environment configuration is unsound",
            Rule::NonMonotoneMechanism => "aging mechanism violates monotonicity contract",
            Rule::LifetimeHotspot => "instance MTTF lower bound below the lifetime target",
            Rule::GuardbandExhausted => "guardband budget exhausted within the horizon",
            Rule::VariationGuardbandGap => "sampled quantile MTTF erodes the nominal bound",
            Rule::SamplingPlanUnsound => "Monte-Carlo sampling plan is unsound",
            Rule::SampleBelowStaticBound => "sampled MTTF below the variation-aware bound",
        }
    }

    /// Parses a rule code (`"NL003"`), case-insensitively.
    #[must_use]
    pub fn from_code(code: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.code().eq_ignore_ascii_case(code))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Where a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// The library as a whole.
    Library,
    /// A library cell.
    Cell {
        /// Cell name.
        cell: String,
    },
    /// One timing arc of a cell.
    Arc {
        /// Cell name.
        cell: String,
        /// Related input pin.
        input: String,
        /// Output pin.
        output: String,
    },
    /// A netlist instance.
    Instance {
        /// Instance name.
        instance: String,
    },
    /// A net.
    Net {
        /// Net name.
        net: String,
    },
    /// The design as a whole.
    Design,
}

impl Location {
    /// `{"kind": …}` plus the names of the located item.
    fn to_json(&self) -> Json {
        let (kind, names): (&str, &[(&str, &String)]) = match self {
            Location::Library => ("library", &[]),
            Location::Design => ("design", &[]),
            Location::Cell { cell } => ("cell", &[("cell", cell)]),
            Location::Arc { cell, input, output } => {
                ("arc", &[("cell", cell), ("input", input), ("output", output)])
            }
            Location::Instance { instance } => ("instance", &[("instance", instance)]),
            Location::Net { net } => ("net", &[("net", net)]),
        };
        let names = names.iter().map(|&(k, v)| (k, v.as_str().into()));
        Json::obj([("kind", kind.into())].into_iter().chain(names))
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Library => f.write_str("library"),
            Location::Cell { cell } => write!(f, "cell {cell}"),
            Location::Arc { cell, input, output } => {
                write!(f, "cell {cell} arc {input}->{output}")
            }
            Location::Instance { instance } => write!(f, "instance {instance}"),
            Location::Net { net } => write!(f, "net {net}"),
            Location::Design => f.write_str("design"),
        }
    }
}

/// One finding: a rule violation at a location.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Severity (the rule's built-in severity).
    pub severity: Severity,
    /// Where the problem is.
    pub location: Location,
    /// Specifics of this occurrence.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(rule: Rule, location: Location, message: String) -> Self {
        Diagnostic { rule, severity: rule.severity(), location, message }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity.label(),
            self.rule.code(),
            self.location,
            self.message
        )
    }
}

/// A whitelisted physical delay improvement for rule `AG001`.
///
/// The paper's Fig. 1(b): the NOR fall delay *improves* with aging at large
/// input slews, because NBTI weakens the opposing pMOS stack during the
/// contention window. Such arcs are physical, not characterization bugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImprovementWhitelist {
    /// Cell-name prefix the exemption applies to (matched against the
    /// λ-stripped base name), e.g. `"NOR"`.
    pub cell_prefix: String,
    /// `true` exempts falling-output delays, `false` rising-output delays.
    pub output_falling: bool,
}

/// Configuration of the `LT` lifetime rules.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeLintConfig {
    /// The static-lifetime-analysis configuration (mechanism suite,
    /// horizon, environment ranges, `ΔVth` budget).
    pub config: dataflow::LifetimeConfig,
    /// `LT001`/`LT005` fire when a provable MTTF lower bound falls below
    /// this many years.
    pub mttf_target_years: f64,
    /// `LT002` fires when one mechanism's share of the total design hazard
    /// exceeds this fraction.
    pub dominance_share: f64,
}

impl Default for LifetimeLintConfig {
    fn default() -> Self {
        LifetimeLintConfig {
            config: dataflow::LifetimeConfig::default(),
            mttf_target_years: 10.0,
            dominance_share: 0.9,
        }
    }
}

/// Configuration of the `PV` process-variation rules.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationLintConfig {
    /// The static-lifetime-analysis configuration the sampled dies are
    /// derived from.
    pub config: dataflow::LifetimeConfig,
    /// The Monte-Carlo sampling plan (die count, seed, Vth spread, clamp).
    pub sampling: dataflow::McSampling,
    /// The low quantile `PV001` measures variation erosion at (e.g. 0.05
    /// = the p5 die).
    pub quantile: f64,
    /// `PV001` fires when the quantile die retains less than
    /// `1 − max_gap` of the nominal design MTTF bound.
    pub max_gap: f64,
}

impl Default for VariationLintConfig {
    fn default() -> Self {
        VariationLintConfig {
            config: dataflow::LifetimeConfig::default(),
            sampling: dataflow::McSampling::nominal_45nm(64, 1),
            quantile: 0.05,
            max_gap: 0.25,
        }
    }
}

/// Lint configuration: suppression and analysis context.
#[derive(Debug, Clone, PartialEq)]
pub struct LintConfig {
    /// Rules to suppress entirely.
    pub allow: BTreeSet<Rule>,
    /// Input slew assumed at primary inputs for `TM001` (defaults to the
    /// library's `default_input_slew`).
    pub input_slew: Option<f64>,
    /// Load assumed at primary outputs for `TM001` (defaults to the
    /// library's `default_output_load`).
    pub output_load: Option<f64>,
    /// Arcs allowed to improve with aging under `AG001`.
    pub improvement_whitelist: Vec<ImprovementWhitelist>,
    /// Extraction mode assumed by the `DF004`/`DF005` λ-validation rules
    /// (must match the mode the annotations were produced with).
    pub lambda_extraction: Extraction,
    /// λ-grid resolution the annotations were quantized to; sets the
    /// quantization tolerance of `DF004`/`DF005`.
    pub lambda_steps: u32,
    /// Signal-probability intervals assumed at primary inputs for the `DF`
    /// rules (unlisted inputs span the full `[0, 1]` — any workload).
    pub input_intervals: std::collections::HashMap<netlist::NetId, dataflow::Interval>,
    /// Maximum number of worst paths the `PT` rules enumerate.
    pub path_budget: usize,
    /// Near-critical window width for `PT002`/`PT004`, as a fraction of the
    /// fresh critical delay.
    pub near_critical_fraction: f64,
    /// `PT004` fires when at least this many non-false paths sit inside the
    /// near-critical window.
    pub near_critical_limit: usize,
    /// `PT002` fires when one arc's share of a near-critical path's
    /// guardband exceeds this fraction.
    pub arc_concentration: f64,
    /// Clock period assumed by the `PT` rules; `None` trips `PT005` on
    /// designs with endpoints.
    pub clock_period: Option<f64>,
    /// Enables the `LT` lifetime rules with the given configuration;
    /// `None` (the default) skips them.
    pub lifetime: Option<LifetimeLintConfig>,
    /// Enables the `PV` process-variation rules with the given
    /// configuration; `None` (the default) skips them.
    pub variation: Option<VariationLintConfig>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            allow: BTreeSet::new(),
            input_slew: None,
            output_load: None,
            improvement_whitelist: vec![ImprovementWhitelist {
                cell_prefix: "NOR".to_owned(),
                output_falling: true,
            }],
            lambda_extraction: Extraction::default(),
            lambda_steps: 10,
            input_intervals: std::collections::HashMap::new(),
            path_budget: 256,
            near_critical_fraction: 0.05,
            near_critical_limit: 64,
            arc_concentration: 0.8,
            clock_period: None,
            lifetime: None,
            variation: None,
        }
    }
}

impl LintConfig {
    /// Suppresses `rule`.
    #[must_use]
    pub fn allowing(mut self, rule: Rule) -> Self {
        self.allow.insert(rule);
        self
    }

    /// Suppresses every rule named in `codes` (e.g. `["NL006", "LB008"]`).
    ///
    /// # Errors
    ///
    /// Returns the first code that is not a known rule.
    pub fn allow_codes<'a>(
        mut self,
        codes: impl IntoIterator<Item = &'a str>,
    ) -> Result<Self, String> {
        for code in codes {
            let rule = Rule::from_code(code).ok_or_else(|| code.to_owned())?;
            self.allow.insert(rule);
        }
        Ok(self)
    }
}

/// The outcome of a lint run: the surviving diagnostics, worst first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Lints `netlist` against `library`: all `NL`, `LM` and `TM` rules,
    /// plus the `LB` library rules.
    #[must_use]
    pub fn run(netlist: &Netlist, library: &Library, config: &LintConfig) -> Self {
        let mut diagnostics = Vec::new();
        rules::library::check(library, &mut diagnostics);
        rules::structure::check(netlist, library, &mut diagnostics);
        rules::lambda::check(netlist, library, &mut diagnostics);
        rules::timing::check(netlist, library, config, &mut diagnostics);
        rules::dataflow::check(netlist, library, config, &mut diagnostics);
        if config.lifetime.is_some() {
            rules::lifetime::check(netlist, library, config, &mut diagnostics);
        }
        if config.variation.is_some() {
            rules::variation::check(netlist, library, config, &mut diagnostics);
        }
        Self::finish(diagnostics, config)
    }

    /// Runs the `LT` lifetime rules alone (static lifetime bounds against
    /// [`LintConfig::lifetime`], or the default lifetime configuration when
    /// unset).
    #[must_use]
    pub fn run_lifetime(netlist: &Netlist, library: &Library, config: &LintConfig) -> Self {
        let mut with_lifetime;
        let config = if config.lifetime.is_some() {
            config
        } else {
            with_lifetime = config.clone();
            with_lifetime.lifetime = Some(LifetimeLintConfig::default());
            &with_lifetime
        };
        let mut diagnostics = Vec::new();
        rules::lifetime::check(netlist, library, config, &mut diagnostics);
        Self::finish(diagnostics, config)
    }

    /// Runs the `PV` process-variation rules alone (Monte-Carlo MTTF
    /// distribution against [`LintConfig::variation`], or the default
    /// variation configuration when unset).
    #[must_use]
    pub fn run_variation(netlist: &Netlist, library: &Library, config: &LintConfig) -> Self {
        let mut with_variation;
        let config = if config.variation.is_some() {
            config
        } else {
            with_variation = config.clone();
            with_variation.variation = Some(VariationLintConfig::default());
            &with_variation
        };
        let mut diagnostics = Vec::new();
        rules::variation::check(netlist, library, config, &mut diagnostics);
        Self::finish(diagnostics, config)
    }

    /// Lints a library alone: the `LB` rules.
    #[must_use]
    pub fn run_library(library: &Library, config: &LintConfig) -> Self {
        let mut diagnostics = Vec::new();
        rules::library::check(library, &mut diagnostics);
        Self::finish(diagnostics, config)
    }

    /// Lints a fresh/aged library pair: rule `AG001` (aging monotonicity,
    /// honoring [`LintConfig::improvement_whitelist`]).
    #[must_use]
    pub fn run_aging(fresh: &Library, aged: &Library, config: &LintConfig) -> Self {
        let mut diagnostics = Vec::new();
        rules::aging::check(fresh, aged, config, &mut diagnostics);
        Self::finish(diagnostics, config)
    }

    /// Runs the `PT` path-level rules: enumerates the worst paths of
    /// `netlist` (up to [`LintConfig::path_budget`]), re-evaluates each
    /// under the static worst-case λ-annotation against the merged
    /// `complete` library, and checks the resulting path population.
    ///
    /// # Errors
    ///
    /// Returns [`sta::StaError`] when the design cannot be timed at all
    /// (structural errors, combinational loops, missing arcs) — run the
    /// structural rules first to turn those into diagnostics.
    pub fn run_paths(
        netlist: &Netlist,
        base_library: &Library,
        complete: &Library,
        config: &LintConfig,
    ) -> Result<Self, sta::StaError> {
        let constraints = sta::Constraints {
            clock_period: config.clock_period,
            input_slew: config.input_slew,
            output_load: config.output_load,
        };
        let df_config =
            dataflow::DataflowConfig { input_intervals: config.input_intervals.clone() };
        let bound = dataflow::static_guardband_bound(
            netlist,
            base_library,
            complete,
            config.lambda_steps,
            &df_config,
            &constraints,
        )?;
        let path_config = dataflow::PathAnalysisConfig {
            max_paths: config.path_budget,
            near_critical_fraction: config.near_critical_fraction,
        };
        let analysis = dataflow::analyze_paths(
            netlist,
            &bound.annotated,
            base_library,
            complete,
            &constraints,
            &df_config,
            &path_config,
        )?;
        let mut diagnostics = Vec::new();
        rules::paths::check(netlist, &analysis, &bound, config, &mut diagnostics);
        Ok(Self::finish(diagnostics, config))
    }

    /// Combines two reports (e.g. a netlist run and an aging run) into one,
    /// restoring the errors-first ordering. Suppression has already been
    /// applied by each run.
    #[must_use]
    pub fn merged_with(mut self, other: LintReport) -> LintReport {
        self.diagnostics.extend(other.diagnostics);
        Self::finish(self.diagnostics, &LintConfig::default())
    }

    pub(crate) fn finish(mut diagnostics: Vec<Diagnostic>, config: &LintConfig) -> Self {
        diagnostics.retain(|d| !config.allow.contains(&d.rule));
        // Errors first, then by rule code, then location text — a stable,
        // readable order independent of rule evaluation order.
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.rule.cmp(&b.rule))
                .then_with(|| a.location.to_string().cmp(&b.location.to_string()))
        });
        LintReport { diagnostics }
    }

    /// All surviving diagnostics, most severe first.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// True when nothing was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one [`Severity::Error`] diagnostic survived.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of error diagnostics.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning diagnostics.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// The diagnostics of one severity.
    pub fn with_severity(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity == severity)
    }

    /// Renders the report as human-readable text, one diagnostic per line,
    /// with a trailing summary line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info\n",
            self.error_count(),
            self.warning_count(),
            self.diagnostics.len() - self.error_count() - self.warning_count()
        ));
        out
    }

    /// Serializes the report as JSON (schema documented in `DESIGN.md`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let diagnostics = self.diagnostics.iter().map(|d| {
            Json::obj([
                ("rule", d.rule.code().into()),
                ("severity", d.severity.label().into()),
                ("location", d.location.to_json()),
                ("message", d.message.as_str().into()),
            ])
        });
        Json::obj([
            ("tool", "relialint".into()),
            ("errors", self.error_count().into()),
            ("warnings", self.warning_count().into()),
            ("diagnostics", diagnostics.collect()),
        ])
        .render_pretty()
    }
}

/// The error returned by [`preflight`] when lint finds fatal problems.
#[derive(Debug, Clone, PartialEq)]
pub struct PreflightError {
    /// The error-severity diagnostics that caused the abort.
    pub errors: Vec<Diagnostic>,
}

impl fmt::Display for PreflightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "relialint found {} error(s)", self.errors.len())?;
        for d in &self.errors {
            write!(f, "; {} {}: {}", d.rule.code(), d.location, d.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for PreflightError {}

/// The pre-flight gate used before simulation/STA entry points: lints
/// `netlist` against `library` and splits the outcome.
///
/// Returns the non-error diagnostics (for the caller to log) on success.
///
/// # Errors
///
/// Returns [`PreflightError`] carrying every error-severity diagnostic.
pub fn preflight(netlist: &Netlist, library: &Library) -> Result<Vec<Diagnostic>, PreflightError> {
    preflight_with(netlist, library, &LintConfig::default())
}

/// [`preflight`] with an explicit configuration.
///
/// # Errors
///
/// Returns [`PreflightError`] carrying every error-severity diagnostic.
pub fn preflight_with(
    netlist: &Netlist,
    library: &Library,
    config: &LintConfig,
) -> Result<Vec<Diagnostic>, PreflightError> {
    let report = LintReport::run(netlist, library, config);
    split_preflight(report)
}

/// Library-only pre-flight gate (for flows that have no netlist yet, e.g.
/// synthesis): runs the `LB` rules and splits the outcome like [`preflight`].
///
/// # Errors
///
/// Returns [`PreflightError`] carrying every error-severity diagnostic.
pub fn preflight_library(
    library: &Library,
    config: &LintConfig,
) -> Result<Vec<Diagnostic>, PreflightError> {
    split_preflight(LintReport::run_library(library, config))
}

fn split_preflight(report: LintReport) -> Result<Vec<Diagnostic>, PreflightError> {
    let (errors, rest): (Vec<_>, Vec<_>) =
        report.diagnostics.into_iter().partition(|d| d.severity == Severity::Error);
    if errors.is_empty() {
        Ok(rest)
    } else {
        Err(PreflightError { errors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_codes_unique_and_parse_back() {
        let mut seen = BTreeSet::new();
        for rule in Rule::ALL {
            assert!(seen.insert(rule.code()), "duplicate code {}", rule.code());
            assert_eq!(Rule::from_code(rule.code()), Some(rule));
            assert_eq!(Rule::from_code(&rule.code().to_lowercase()), Some(rule));
            assert!(!rule.summary().is_empty());
        }
        assert_eq!(seen.len(), Rule::ALL.len());
        assert_eq!(Rule::from_code("ZZ999"), None);
    }

    #[test]
    fn at_least_ten_distinct_rules() {
        assert!(Rule::ALL.len() >= 10);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn config_allow_codes() {
        let cfg = LintConfig::default().allow_codes(["nl006", "LB008"]).unwrap();
        assert!(cfg.allow.contains(&Rule::DanglingOutput));
        assert!(cfg.allow.contains(&Rule::InconsistentGrid));
        assert_eq!(LintConfig::default().allow_codes(["XX123"]).unwrap_err(), "XX123");
    }

    #[test]
    fn display_formats() {
        let d = Diagnostic::new(
            Rule::MultipleDrivers,
            Location::Net { net: "n1".into() },
            "driven by u0 and u1".into(),
        );
        let text = d.to_string();
        assert!(text.contains("error"));
        assert!(text.contains("NL003"));
        assert!(text.contains("net n1"));
    }

    #[test]
    fn empty_report_serializes() {
        let json = LintReport::default().to_json();
        assert!(json.contains("\"tool\": \"relialint\""));
        assert!(json.contains("\"errors\": 0"));
        assert!(json.contains("\"diagnostics\": []"));
    }

    #[test]
    fn diagnostics_serialize_with_locations() {
        let diagnostics = vec![
            Diagnostic::new(
                Rule::MultipleDrivers,
                Location::Net { net: "n\"1".into() },
                "driven by u0, u1".into(),
            ),
            Diagnostic::new(
                Rule::AgingImprovement,
                Location::Arc { cell: "NOR2_X1".into(), input: "A1".into(), output: "Y".into() },
                "fall delay improves".into(),
            ),
        ];
        let report = LintReport::finish(diagnostics, &LintConfig::default());
        let json = report.to_json();
        assert!(json.contains(r#""rule": "NL003""#), "{json}");
        assert!(json.contains(r#""severity": "error""#), "{json}");
        assert!(json.contains(r#""kind": "net", "net": "n\"1""#), "{json}");
        assert!(
            json.contains(r#""kind": "arc", "cell": "NOR2_X1", "input": "A1", "output": "Y""#),
            "{json}"
        );
        assert!(json.contains(r#""errors": 1"#), "{json}");
        assert!(json.contains(r#""warnings": 1"#), "{json}");
    }

    #[test]
    fn report_json_round_trips() {
        let diagnostics = vec![
            Diagnostic::new(Rule::MultipleDrivers, Location::Design, "two\ndrivers".into()),
            Diagnostic::new(
                Rule::AgingImprovement,
                Location::Instance { instance: "u\\7".into() },
                "improves".into(),
            ),
        ];
        let report = LintReport::finish(diagnostics, &LintConfig::default());
        let doc = Json::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("tool").and_then(Json::as_str), Some("relialint"));
        assert_eq!(doc.get("errors").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("warnings").and_then(Json::as_u64), Some(1));
        let rows = doc.get("diagnostics").and_then(Json::as_arr).unwrap();
        for (row, d) in rows.iter().zip(report.diagnostics()) {
            assert_eq!(row.get("rule").and_then(Json::as_str), Some(d.rule.code()));
            assert_eq!(row.get("severity").and_then(Json::as_str), Some(d.severity.label()));
            assert_eq!(row.get("message").and_then(Json::as_str), Some(d.message.as_str()));
        }
        let location = |i: usize, key: &str| rows[i].get("location")?.get(key)?.as_str();
        assert_eq!(location(0, "kind"), Some("design"));
        assert_eq!(location(1, "kind"), Some("instance"));
        assert_eq!(location(1, "instance"), Some("u\\7"));
    }
}
