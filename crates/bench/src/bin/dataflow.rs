//! `dataflow` — the static λ-interval analysis command-line front end.
//!
//! Propagates signal-probability intervals through a netlist, prints the
//! per-net intervals and per-instance λ bounds, reports the `DF` rule
//! diagnostics, and — when a λ-indexed complete library is available —
//! evaluates the **static worst-case guardband bound**: the netlist
//! re-timed at the worst characterized λ-grid point inside each instance's
//! provable interval box. The bound upper-bounds the dynamic guardband of
//! any workload.
//!
//! ```text
//! dataflow --design NAME [--steps N] [--quiet]
//! dataflow --lib FILE --verilog FILE [--complete FILE] [--steps N]
//! ```
//!
//! With `--json`, standard output holds the relialint report as one JSON
//! document and every other line goes to standard error.
//!
//! Exit status: 0 when no error-severity diagnostics were found, 1 when at
//! least one error fired, 2 on usage or I/O problems.

use bench::cli::{self, Args, Flag};
use dataflow::{DataflowConfig, Extraction, NetlistDataflow};
use flow::{FlowError, RunContext};
use lint::{LintConfig, LintReport};
use std::num::NonZeroU32;
use std::process::ExitCode;

const USAGE: &str = "\
usage: dataflow --design NAME [options]
       dataflow --lib FILE --verilog FILE [options]

options:
  --design NAME    synthesize a bundled benchmark (dct, idct, fft, dsp,
                   risc, vliw) against the built-in test library and analyze
                   it, including the static guardband bound on an analytic
                   λ-scaled complete library
  --lib FILE       base timing library (.lib subset)
  --verilog FILE   structural-Verilog netlist to analyze
  --complete FILE  λ-indexed merged complete library: enables the static
                   guardband bound in --lib/--verilog mode
  --steps N        λ-grid resolution for validation and the bound (default 10)
  --quiet          omit the per-net interval listing
  --json           emit the DF lint report as JSON instead of text; it is
                   then all of stdout, and the other lines go to stderr
  --report FILE    write a reliaware-run-v1 JSON run report

exit status:
  0  no error-severity diagnostics
  1  at least one error-severity diagnostic
  2  usage or I/O problem";

const FLAGS: &[Flag] = &[
    Flag::value("--design"),
    Flag::value("--lib"),
    Flag::value("--verilog"),
    Flag::value("--complete"),
    Flag::value("--steps"),
    Flag::switch("--quiet"),
    Flag::switch("--json"),
    cli::REPORT,
];

fn run(args: &Args) -> Result<ExitCode, FlowError> {
    let design: Option<String> = args.get("--design")?;
    let lib: Option<String> = args.get("--lib")?;
    let verilog: Option<String> = args.get("--verilog")?;
    let steps = args.get::<NonZeroU32>("--steps")?.map_or(10, NonZeroU32::get);
    let json = args.has("--json");
    if design.is_some() && (lib.is_some() || verilog.is_some()) {
        return Err(FlowError::Usage("--design is mutually exclusive with --lib/--verilog".into()));
    }
    let ctx = RunContext::new();

    let (netlist, library, complete) = if let Some(name) = &design {
        let design = bench::design_by_name(name)?;
        let library = synth::test_fixtures::fixture_library();
        let nl = ctx.stage("synthesis", || {
            synth::synthesize(&design.aig, &library, &synth::MapOptions::default())
        })?;
        let complete = ctx.stage("library", || bench::lambda_scaled_complete(&library, steps));
        (nl, library, Some(complete))
    } else {
        let (Some(lib_path), Some(v_path)) = (&lib, &verilog) else {
            return Err(FlowError::Usage(
                "--design or both --lib and --verilog are required".into(),
            ));
        };
        let library = bench::load_library(lib_path)?;
        let nl = bench::load_netlist(v_path)?;
        let complete = args.get::<String>("--complete")?;
        (nl, library, complete.map(|path| bench::load_library(&path)).transpose()?)
    };

    // Under --json, stdout carries the relialint report alone.
    let say = |line: std::fmt::Arguments| {
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    let df = ctx.stage("dataflow", || NetlistDataflow::analyze(&netlist, &library));
    say(format_args!(
        "module {}: {} nets, {} instances ({} widened, {} skipped)",
        netlist.name,
        netlist.net_count(),
        netlist.instance_count(),
        df.widened_instances().len(),
        df.skipped_instances().len()
    ));

    if !args.has("--quiet") {
        say(format_args!("\nper-net signal-probability intervals:"));
        for k in 0..netlist.net_count() {
            let net = netlist::NetId::from_index(k);
            say(format_args!("  {:<24} {}", netlist.net_name(net), df.interval(net)));
        }
        say(format_args!("\nper-instance λ bounds (gate-average extraction):"));
        for inst in netlist.instance_ids() {
            if let Some(b) = df.lambda_bounds(&netlist, &library, inst, Extraction::GateAverage) {
                say(format_args!("  {:<24} {b}", netlist.instance(inst).name));
            }
        }
    }

    let config = LintConfig { lambda_steps: steps, ..LintConfig::default() };
    let report = ctx.stage("lint", || LintReport::run(&netlist, &library, &config));
    say(format_args!(""));
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }

    match complete {
        Some(complete) => {
            let bound = ctx.stage("sta", || {
                dataflow::static_guardband_bound(
                    &netlist,
                    &library,
                    &complete,
                    steps,
                    &DataflowConfig::default(),
                    &sta::Constraints::default(),
                )
            })?;
            say(format_args!(
                "\nstatic worst-case bound: fresh {:.2} ps, bound {:.2} ps, \
                 guardband {:.2} ps ({:+.1}%, {})",
                bound.fresh_delay * 1e12,
                bound.bound_delay * 1e12,
                bound.guardband() * 1e12,
                bound.guardband() / bound.fresh_delay * 100.0,
                if bound.exact { "exact intervals" } else { "widened/skipped: conservative" }
            ));
        }
        None => {
            say(format_args!("\nstatic worst-case bound: skipped (no --complete library)"));
        }
    }

    ctx.add_tasks("lint", (report.error_count() + report.warning_count()) as u64);
    cli::emit_report(&ctx, args.report().as_deref())?;
    Ok(if report.has_errors() { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    cli::run_code(USAGE, FLAGS, run)
}
