//! Sec. 3 — how deep in the *fresh* path ranking does the *aged* critical
//! path hide? Related work tracks the "top x % of critical paths" hoping the
//! future critical path is among them; the paper argues no practical x is
//! guaranteed. This binary measures the required rank per benchmark and the
//! number of paths within the top-5 % delay window, and attributes each aged
//! critical path's degradation to its single worst-aging arc (per-arc
//! fresh→aged delta and its share of the whole-path slowdown), plus the
//! path's lifetime attribution: the smallest static MTTF lower bound among
//! the instances on the aged critical path and its dominant mechanism.

use bench::{benchmark_netlists, fresh_library, pct, ps, row, worst_library};
use flow::FlowError;
use sta::{analyze, evaluate_path_steps_with, k_worst_paths, Constraints, PathSpec};
use std::process::ExitCode;

const USAGE: &str = "usage: top_paths [--report <path>]

Rank of the aged critical path within the fresh path ordering (Sec. 3).

options:
  --report <path>  write a reliaware-run-v1 JSON run report
  -h, --help       show this help
";

/// Per-arc aging attribution along a path: the arc whose fresh→aged delay
/// delta is largest, its delta, and that delta's share of the whole-path
/// degradation. Uses graph-consistent slews so each per-arc delay is the
/// exact term the analysis summed into the endpoint arrival.
fn worst_aging_arc(
    nl: &netlist::Netlist,
    fresh: &liberty::Library,
    aged: &liberty::Library,
    c: &Constraints,
    fresh_report: &sta::TimingReport,
    aged_report: &sta::TimingReport,
    path: &PathSpec,
) -> Result<(String, f64, f64), FlowError> {
    let fresh_steps = evaluate_path_steps_with(nl, fresh, c, fresh_report, path)?;
    let aged_steps = evaluate_path_steps_with(nl, aged, c, aged_report, path)?;
    let total: f64 = aged_steps.iter().sum::<f64>() - fresh_steps.iter().sum::<f64>();
    let (idx, delta) = fresh_steps
        .iter()
        .zip(&aged_steps)
        .map(|(f, a)| a - f)
        .enumerate()
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .unwrap_or((0, 0.0));
    let arc = path.steps.get(idx).map_or_else(String::new, |s| {
        format!("{}.{}->{}", nl.instance(s.inst).name, s.input, s.output)
    });
    let share = if total > 0.0 { delta / total } else { 0.0 };
    Ok((arc, delta, share))
}

/// Lifetime attribution of a path: the smallest per-instance MTTF lower
/// bound along its steps and that instance's dominant aging mechanism.
fn path_lifetime(lifetimes: &dataflow::LifetimeReport, path: &PathSpec) -> (f64, &'static str) {
    path.steps
        .iter()
        .map(|s| &lifetimes.instances[s.inst.index()])
        .map(|inst| (inst.mttf_lo_years, inst.dominant))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap_or((f64::INFINITY, "-"))
}

/// A structural signature of a path (instance/pin/polarity sequence).
fn signature(nl: &netlist::Netlist, p: &PathSpec) -> String {
    p.steps
        .iter()
        .map(|s| {
            format!(
                "{}.{}>{}{}",
                nl.instance(s.inst).name,
                s.input,
                s.output,
                if s.output_rising { '+' } else { '-' }
            )
        })
        .collect::<Vec<_>>()
        .join("/")
}

fn run() -> Result<(), FlowError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (rest, report) = bench::cli::take_common_flags(&argv)?;
    if let Some(extra) = rest.first() {
        return Err(FlowError::Usage(format!("unexpected argument `{extra}`")));
    }
    let ctx = bench::context();
    let fresh = ctx.stage("characterize", || fresh_library(&ctx))?;
    let aged = ctx.stage("characterize", || worst_library(&ctx))?;
    let designs = ctx.stage("synthesis", || benchmark_netlists(&fresh))?;
    let c = Constraints::default();
    let k = 2000;

    println!("Sec 3 — rank of the aged critical path within the fresh path ordering\n");
    row(&[
        "design".into(),
        "fresh CP [ps]".into(),
        "aged CP [ps]".into(),
        "paths in top 5%".into(),
        format!("aged-CP rank (k={k})"),
        "worst aging arc".into(),
        "arc Δ [ps]".into(),
        "arc share".into(),
        "path MTTF lo [y]".into(),
        "mechanism".into(),
    ]);
    row(&["---"; 10].map(String::from));
    for (design, nl) in &designs {
        let fresh_report = ctx.stage("sta", || analyze(nl, &fresh, &c))?;
        let aged_report = ctx.stage("sta", || analyze(nl, &aged, &c))?;
        let aged_cp = aged_report.critical_path();
        let aged_sig = signature(nl, aged_cp);
        let (arc, delta, share) =
            worst_aging_arc(nl, &fresh, &aged, &c, &fresh_report, &aged_report, aged_cp)?;
        let lifetimes = ctx.stage("lifetime-bound", || {
            dataflow::static_lifetime_bound(
                nl,
                &fresh,
                &dataflow::LifetimeConfig::default(),
                &dataflow::DataflowConfig::default(),
            )
        });
        let (path_mttf, mechanism) = path_lifetime(&lifetimes, aged_cp);
        let fresh_paths = ctx.stage("sta", || k_worst_paths(nl, &fresh, &c, k))?;
        ctx.add_tasks("sta", 3);
        // Compare raw path delays against the raw worst path (endpoint
        // setup offsets cancel out of the ranking).
        let cp_raw = fresh_paths.first().map_or(0.0, |p| p.arrival);
        let cp = fresh_report.critical_delay();
        let in_top5 = fresh_paths.iter().filter(|p| p.arrival >= 0.95 * cp_raw).count();
        let top5_note = if in_top5 >= k { format!(">{k}") } else { in_top5.to_string() };
        let rank = fresh_paths
            .iter()
            .position(|p| signature(nl, p) == aged_sig)
            .map_or_else(|| format!(">{k}"), |r| (r + 1).to_string());
        row(&[
            design.name.clone(),
            ps(cp),
            ps(aged_report.critical_delay()),
            top5_note,
            rank,
            arc,
            ps(delta),
            pct(share),
            format!("{path_mttf:.0}"),
            mechanism.to_owned(),
        ]);
    }
    println!("\nWhere the rank exceeds k, no top-k tracking of fresh paths would have");
    println!("included the path that actually becomes critical — the paper's argument");
    println!("for re-analyzing the whole circuit with the degradation-aware library.");
    bench::cli::emit_report(&ctx, report.as_deref())
}

fn main() -> ExitCode {
    bench::cli::run(USAGE, run)
}
