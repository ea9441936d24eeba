//! `lint` — the relialint command-line front end.
//!
//! Runs the rule-based static-analysis pass over a timing library and,
//! optionally, a structural-Verilog netlist or a fresh/aged library pair.
//!
//! ```text
//! lint --lib complete.lib [--verilog design.v] [--fresh-lib t0.lib]
//!      [--allow RULE]... [--input-slew S] [--output-load L] [--json]
//!      [--deny-warnings] [--paths] [--clock-period SEC]
//!      [--mechanisms] [--years Y] [--temp-range LO:HI] [--vdd-range LO:HI]
//! lint --design NAME [--paths] [--mechanisms] [--deny-warnings] ...
//! lint --list-rules
//! ```
//!
//! Exit status: 0 when no errors were found (warnings allowed), 1 when at
//! least one error-severity diagnostic fired (or any warning under
//! `--deny-warnings`), 2 on usage or I/O problems.

use bench::cli::{self, Args, Flag};
use flow::{FlowError, RunContext};
use lint::{LintConfig, LintReport, Rule};
use std::process::ExitCode;

const USAGE: &str = "\
usage: lint --lib FILE [options]
       lint --design NAME [options]
       lint --list-rules

options:
  --lib FILE          timing library to check (.lib subset); required unless
                      --design or --list-rules is given
  --verilog FILE      structural-Verilog netlist to lint against the library
  --design NAME       synthesize a bundled benchmark (dct, idct, fft, dsp,
                      risc, vliw) against the built-in test library and lint
                      the result; mutually exclusive with --lib/--verilog
  --fresh-lib FILE    fresh (t=0) library: enables the AG001 fresh/aged
                      cross-check with --lib as the aged library
  --allow RULE        suppress a rule by code (repeatable), e.g. --allow NL006
  --input-slew SEC    boundary input slew for TM001 (default: library value)
  --output-load F     primary-output load for TM001 (default: library value)
  --paths             also run the PT path-level timing rules: with --design
                      the λ-scaled complete library is derived on the fly;
                      with --lib the library is used as the complete (aged)
                      library and --fresh-lib (when given) as the base
  --clock-period SEC  clock period for the PT pass (PT005 flags constrained
                      designs without one); with --design, defaults to 2x
                      the fresh critical path
  --mechanisms        also run the LT static lifetime rules (BTI/HCI/EM/TDDB
                      interval bounds and the provable design MTTF lower
                      bound); implied by the other --years/--temp-range/...
                      lifetime flags
  --years Y           lifetime horizon in years for the LT pass (default 10)
  --temp-range LO:HI  junction-temperature interval in kelvin the LT bound
                      must cover (default 398.15:398.15)
  --vdd-range LO:HI   supply-voltage interval in volts for the LT bound
                      (default 1.2:1.2)
  --mttf-target Y     LT001/LT005 fire below this MTTF bound (default 10)
  --vth-budget V      guardband ΔVth budget in volts for LT006 (default 0.1)
  --variation         also run the PV process-variation rules: Monte-Carlo
                      MTTF distribution, containment invariant (PV003) and
                      nominal-vs-quantile guardband gap (PV001); implied by
                      the other --mc-.../--sigma-vth/--max-gap flags
  --mc-samples N      number of sampled dies for the PV pass (default 64)
  --mc-seed S         sampling-stream seed for the PV pass (default 1)
  --sigma-vth V       1-sigma per-instance fresh-Vth offset in volts for the
                      PV pass (default 0.015)
  --max-gap F         PV001 fires when the p5 die retains less than 1-F of
                      the nominal MTTF bound (default 0.25)
  --deny-warnings     exit 1 when warnings survive, not only on errors
  --json              emit the JSON report instead of text
  --list-rules        print every rule code, severity and summary, then exit
  --report FILE       write a reliaware-run-v1 JSON run report

exit status:
  0  no errors (warnings allowed unless --deny-warnings)
  1  at least one error-severity diagnostic (or a warning under
     --deny-warnings)
  2  usage or I/O problem";

const FLAGS: &[Flag] = &[
    Flag::value("--lib"),
    Flag::value("--verilog"),
    Flag::value("--design"),
    Flag::value("--fresh-lib"),
    Flag::value("--allow"),
    Flag::value("--input-slew"),
    Flag::value("--output-load"),
    Flag::switch("--paths"),
    Flag::value("--clock-period"),
    Flag::switch("--mechanisms"),
    Flag::value("--years"),
    Flag::value("--temp-range"),
    Flag::value("--vdd-range"),
    Flag::value("--mttf-target"),
    Flag::value("--vth-budget"),
    Flag::switch("--variation"),
    Flag::value("--mc-samples"),
    Flag::value("--mc-seed"),
    Flag::value("--sigma-vth"),
    Flag::value("--max-gap"),
    Flag::switch("--deny-warnings"),
    Flag::switch("--json"),
    Flag::switch("--list-rules"),
    cli::REPORT,
];

/// The `LO:HI` interval given for `flag`, if any.
fn range(args: &Args, flag: &str) -> Result<Option<(f64, f64)>, FlowError> {
    let Some(raw) = args.get::<String>(flag)? else { return Ok(None) };
    let bounds =
        raw.split_once(':').and_then(|(lo, hi)| Some((lo.parse().ok()?, hi.parse().ok()?)));
    bounds.map(Some).ok_or_else(|| cli::invalid(flag, &raw, "expected LO:HI"))
}

fn print_rules() {
    println!("{:<7} {:<8} summary", "code", "severity");
    for rule in Rule::ALL {
        println!("{:<7} {:<8} {}", rule.code(), rule.severity().label(), rule.summary());
    }
}

fn run(args: &Args) -> Result<ExitCode, FlowError> {
    let lib: Option<String> = args.get("--lib")?;
    let verilog: Option<String> = args.get("--verilog")?;
    let design: Option<String> = args.get("--design")?;
    let fresh_lib: Option<String> = args.get("--fresh-lib")?;
    let allow: Vec<String> = args.all("--allow")?;
    let input_slew: Option<f64> = args.get("--input-slew")?;
    let output_load: Option<f64> = args.get("--output-load")?;
    let paths = args.has("--paths");
    let clock_period: Option<f64> = args.get("--clock-period")?;
    let years: Option<f64> = args.get("--years")?;
    let temp_range = range(args, "--temp-range")?;
    let vdd_range = range(args, "--vdd-range")?;
    let mttf_target: Option<f64> = args.get("--mttf-target")?;
    let vth_budget: Option<f64> = args.get("--vth-budget")?;
    let mc_samples: Option<usize> = args.get("--mc-samples")?;
    let mc_seed: Option<u64> = args.get("--mc-seed")?;
    let sigma_vth: Option<f64> = args.get("--sigma-vth")?;
    let max_gap: Option<f64> = args.get("--max-gap")?;
    if design.is_some() && (lib.is_some() || verilog.is_some()) {
        return Err(FlowError::Usage("--design is mutually exclusive with --lib/--verilog".into()));
    }
    if args.has("--list-rules") {
        print_rules();
        return Ok(ExitCode::SUCCESS);
    }
    if lib.is_none() && design.is_none() {
        return Err(FlowError::Usage("--lib or --design is required".into()));
    }

    let mut config = LintConfig::default()
        .allow_codes(allow.iter().map(String::as_str))
        .map_err(|code| FlowError::Usage(format!("unknown rule code {code}")))?;
    config.input_slew = input_slew;
    config.output_load = output_load;
    if args.has("--mechanisms")
        || years.is_some()
        || temp_range.is_some()
        || vdd_range.is_some()
        || mttf_target.is_some()
        || vth_budget.is_some()
    {
        let lt = config.lifetime.get_or_insert_with(lint::LifetimeLintConfig::default);
        lt.config.years = years.unwrap_or(lt.config.years);
        lt.config.temperature_range = temp_range.unwrap_or(lt.config.temperature_range);
        lt.config.vdd_range = vdd_range.unwrap_or(lt.config.vdd_range);
        lt.mttf_target_years = mttf_target.unwrap_or(lt.mttf_target_years);
        lt.config.vth_budget = vth_budget.unwrap_or(lt.config.vth_budget);
    }
    if args.has("--variation")
        || mc_samples.is_some()
        || mc_seed.is_some()
        || sigma_vth.is_some()
        || max_gap.is_some()
    {
        let pv = config.variation.get_or_insert_with(lint::VariationLintConfig::default);
        pv.sampling.samples = mc_samples.unwrap_or(pv.sampling.samples);
        pv.sampling.seed = mc_seed.unwrap_or(pv.sampling.seed);
        pv.sampling.sigma_vth = sigma_vth.unwrap_or(pv.sampling.sigma_vth);
        pv.max_gap = max_gap.unwrap_or(pv.max_gap);
        // The PV pass shares the lifetime configuration when one is set,
        // so --years/--temp-range/... shape both passes consistently.
        if let Some(lt) = &config.lifetime {
            pv.config = lt.config.clone();
        }
    }

    let ctx = RunContext::new();

    let report = if let Some(name) = &design {
        let design = bench::design_by_name(name)?;
        let library = synth::test_fixtures::fixture_library();
        let nl = ctx.stage("synthesis", || {
            synth::synthesize(&design.aig, &library, &synth::MapOptions::default())
        })?;
        let mut report = ctx.stage("lint", || LintReport::run(&nl, &library, &config));
        if paths {
            // PT needs a constrained design; default to a comfortable 2x
            // the fresh critical path when no period was given.
            config.clock_period = match clock_period {
                Some(p) => Some(p),
                None => {
                    let cp =
                        sta::analyze(&nl, &library, &sta::Constraints::default())?.critical_delay();
                    Some(2.0 * cp)
                }
            };
            let complete = bench::lambda_scaled_complete(&library, config.lambda_steps);
            report = report.merged_with(ctx.stage("lint-paths", || {
                LintReport::run_paths(&nl, &library, &complete, &config)
            })?);
        }
        report
    } else {
        let lib_path = lib.as_deref().unwrap_or_default();
        let library = bench::load_library(lib_path)?;
        let mut report = match &verilog {
            Some(path) => {
                let nl = bench::load_netlist(path)?;
                let mut report = ctx.stage("lint", || LintReport::run(&nl, &library, &config));
                if paths {
                    config.clock_period = clock_period;
                    let base = match &fresh_lib {
                        Some(path) => bench::load_library(path)?,
                        None => library.clone(),
                    };
                    report = report.merged_with(ctx.stage("lint-paths", || {
                        LintReport::run_paths(&nl, &base, &library, &config)
                    })?);
                }
                report
            }
            None if paths => {
                return Err(FlowError::Usage("--paths needs --verilog or --design".into()));
            }
            None => ctx.stage("lint", || LintReport::run_library(&library, &config)),
        };
        if let Some(path) = &fresh_lib {
            let fresh = bench::load_library(path)?;
            report = report.merged_with(
                ctx.stage("lint", || LintReport::run_aging(&fresh, &library, &config)),
            );
        }
        report
    };

    if args.has("--json") {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    ctx.add_tasks("lint", (report.error_count() + report.warning_count()) as u64);
    cli::emit_report(&ctx, args.report().as_deref())?;
    let fail = report.has_errors() || (args.has("--deny-warnings") && report.warning_count() > 0);
    Ok(if fail { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    cli::run_code(USAGE, FLAGS, run)
}
