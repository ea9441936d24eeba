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

use dataflow::{DataflowConfig, Extraction, NetlistDataflow};
use flow::{FlowError, RunContext};
use lint::{LintConfig, LintReport};
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

struct Args {
    design: Option<String>,
    lib: Option<String>,
    verilog: Option<String>,
    complete: Option<String>,
    steps: u32,
    quiet: bool,
    json: bool,
    report: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        design: None,
        lib: None,
        verilog: None,
        complete: None,
        steps: 10,
        quiet: false,
        json: false,
        report: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--design" => args.design = Some(value("--design")?),
            "--lib" => args.lib = Some(value("--lib")?),
            "--verilog" => args.verilog = Some(value("--verilog")?),
            "--complete" => args.complete = Some(value("--complete")?),
            "--steps" => {
                let v = value("--steps")?;
                args.steps = v.parse().map_err(|_| format!("bad step count {v}"))?;
            }
            "--quiet" => args.quiet = true,
            "--json" => args.json = true,
            "--report" => args.report = Some(value("--report")?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.design.is_some() && (args.lib.is_some() || args.verilog.is_some()) {
        return Err("--design is mutually exclusive with --lib/--verilog".into());
    }
    if args.design.is_none() && (args.lib.is_none() || args.verilog.is_none()) {
        return Err("--design or both --lib and --verilog are required".into());
    }
    if args.steps == 0 {
        return Err("--steps must be positive".into());
    }
    Ok(args)
}

fn read(path: &str) -> Result<String, FlowError> {
    std::fs::read_to_string(path).map_err(|e| FlowError::io(path, &e))
}

fn parse_failure(path: &str, e: impl std::fmt::Display) -> FlowError {
    FlowError::Io { path: path.to_owned(), message: format!("cannot parse: {e}") }
}

fn run() -> Result<ExitCode, FlowError> {
    let args = parse_args(std::env::args().skip(1)).map_err(FlowError::Usage)?;
    let ctx = RunContext::new();

    let (netlist, library, complete) = if let Some(name) = &args.design {
        let design = bench::design_by_name(name)
            .ok_or_else(|| FlowError::Usage(format!("unknown design {name}")))?;
        let library = synth::test_fixtures::fixture_library();
        let nl = ctx.stage("synthesis", || {
            synth::synthesize(&design.aig, &library, &synth::MapOptions::default())
        })?;
        let complete = ctx.stage("library", || bench::lambda_scaled_complete(&library, args.steps));
        (nl, library, Some(complete))
    } else {
        let lib_path = args.lib.as_deref().unwrap_or_default();
        let library =
            liberty::parse_library(&read(lib_path)?).map_err(|e| parse_failure(lib_path, e))?;
        let v_path = args.verilog.as_deref().unwrap_or_default();
        let nl = netlist::verilog::parse_verilog(&read(v_path)?)
            .map_err(|e| parse_failure(v_path, e))?;
        let complete = match &args.complete {
            Some(path) => {
                Some(liberty::parse_library(&read(path)?).map_err(|e| parse_failure(path, e))?)
            }
            None => None,
        };
        (nl, library, complete)
    };

    // Under --json, stdout carries the relialint report alone.
    let say = |line: std::fmt::Arguments| {
        if args.json {
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

    if !args.quiet {
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

    let config = LintConfig { lambda_steps: args.steps, ..LintConfig::default() };
    let report = ctx.stage("lint", || LintReport::run(&netlist, &library, &config));
    say(format_args!(""));
    if args.json {
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
                    args.steps,
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
    bench::cli::emit_report(&ctx, args.report.as_deref().map(std::path::Path::new))?;
    Ok(if report.has_errors() { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    bench::cli::run_code(USAGE, run)
}
