//! Sec. 5 lifetime quantification: the paper defines lifetime as the years
//! until the DCT→IDCT image quality drops below 30 dB, and claims > 10×
//! extension from aging-aware synthesis. This binary ladders the years of
//! worst-case stress and reports the failure year of each design.
//!
//! `--image N` sets the image edge length (default 24, for speed).

use bench::cli::{self, Args, Flag};
use bench::{fresh_library, library_for, ImageChain};
use bti::json::Json;
use bti::AgingScenario;
use flow::{FlowError, RunContext};
use imgproc::ACCEPTABLE_PSNR_DB;
use std::num::NonZeroUsize;
use std::process::ExitCode;

const USAGE: &str = "usage: lifetime [--image N] [--report <path>] [--mttf-json <path>]

Failure-year ladder of the DCT→IDCT chain under worst-case stress (Sec. 5).

options:
  --image N           test image edge length in pixels (default 24)
  --report <path>     write a reliaware-run-v1 JSON run report
  --mttf-json <path>  skip the PSNR ladder; instead run the static lifetime
                      analyzer over all bundled benchmarks and write the
                      per-mechanism MTTF bounds and reliability curves as
                      JSON (reliaware-mttf-v1)
  -h, --help          show this help
";

/// Ages (years) the reliability curves are sampled at.
const CURVE_YEARS: [f64; 9] = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0];

/// One design's entry in the `reliaware-mttf-v1` record.
fn design_record(name: &str, report: &dataflow::LifetimeReport) -> Json {
    let shares = report.hazard_shares.iter().map(|&(mechanism, share)| (mechanism, share.into()));
    let per_mech = report.mechanism_design_mttf().into_iter().map(|(m, mttf)| (m, mttf.into()));
    let curve = CURVE_YEARS
        .iter()
        .map(|&t| Json::Arr(vec![t.into(), report.design_reliability_lo(t).into()]))
        .collect();
    Json::obj([
        ("name", name.into()),
        ("instances", report.instances.len().into()),
        ("design_mttf_lo_years", report.design_mttf_lo_years.into()),
        ("design_mttf_best_years", report.design_mttf_best_years.into()),
        ("years_until_budget", report.years_until_budget.into()),
        ("worst_instance", report.worst_instance.as_deref().unwrap_or("-").into()),
        ("hazard_shares", Json::obj(shares)),
        ("mechanism_mttf_lo_years", Json::obj(per_mech)),
        ("reliability_lo", curve),
    ])
}

/// The `reliaware-mttf-v1` record.
fn mttf_record(horizon_years: f64, designs: Vec<Json>) -> Json {
    Json::obj([
        ("schema", "reliaware-mttf-v1".into()),
        ("horizon_years", horizon_years.into()),
        ("designs", Json::Arr(designs)),
    ])
}

/// The fast fixture-based mode behind `--mttf-json`: static lifetime bounds
/// per mechanism over all bundled benchmarks, no characterization ladder.
fn run_mttf(path: &str, ctx: &RunContext) -> Result<(), FlowError> {
    let library = synth::test_fixtures::fixture_library();
    let config = dataflow::LifetimeConfig::default();
    let mut blocks = Vec::new();
    println!("Static per-mechanism MTTF lower bounds ({:.0}-year horizon)\n", config.years);
    println!(
        "| design | instances | MTTF lo [y] | budget exhausted [y] | worst instance | dominant |"
    );
    println!("| --- | --- | --- | --- | --- | --- |");
    for design in circuits::all_benchmarks() {
        let nl = ctx.stage("synthesis", || {
            synth::synthesize(&design.aig, &library, &synth::MapOptions::default())
        })?;
        let report = ctx.stage("lifetime-bound", || {
            dataflow::static_lifetime_bound(
                &nl,
                &library,
                &config,
                &dataflow::DataflowConfig::default(),
            )
        });
        ctx.add_tasks("lifetime-bound", report.instances.len() as u64);
        let dominant = report
            .hazard_shares
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite share"))
            .map_or("-", |(name, _)| name);
        println!(
            "| {} | {} | {:.1} | {} | {} | {dominant} |",
            design.name,
            report.instances.len(),
            report.design_mttf_lo_years,
            bench::years(report.years_until_budget),
            report.worst_instance.as_deref().unwrap_or("-"),
        );
        blocks.push(design_record(&design.name, &report));
    }
    let json = mttf_record(config.years, blocks).render_pretty();
    std::fs::write(path, json).map_err(|e| FlowError::io(path, &e))?;
    println!("\nwrote {path}");
    Ok(())
}

const FLAGS: &[Flag] = &[Flag::value("--image"), cli::REPORT, Flag::value("--mttf-json")];

fn run(args: &Args) -> Result<(), FlowError> {
    let size = args.get::<NonZeroUsize>("--image")?.map_or(24, NonZeroUsize::get);
    let report = args.report();
    if let Some(path) = args.get::<String>("--mttf-json")? {
        let ctx = RunContext::new();
        run_mttf(&path, &ctx)?;
        return cli::emit_report(&ctx, report.as_deref());
    }
    let ctx = bench::context();
    let fresh = ctx.stage("characterize", || fresh_library(&ctx))?;
    let aged10 =
        ctx.stage("characterize", || library_for(&ctx, &AgingScenario::worst_case(10.0)))?;
    let unaware = ctx.stage("synthesis", || ImageChain::build(&fresh, &aged10, false))?;
    let aware = ctx.stage("synthesis", || ImageChain::build(&fresh, &aged10, true))?;
    let period = ctx.stage("sta", || unaware.fresh_period(&fresh))? * 1.001;
    let image = imgproc::synthetic::test_image(size, size, 7);

    let years = [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0];
    println!(
        "Lifetime under worst-case stress (clock {:.0} ps, {size}x{size} image, threshold {ACCEPTABLE_PSNR_DB} dB)\n",
        period * 1e12
    );
    println!("| years | unaware PSNR [dB] | aware PSNR [dB] |");
    println!("| --- | --- | --- |");
    let mut fail_unaware: Option<f64> = None;
    let mut fail_aware: Option<f64> = None;
    for &y in &years {
        let lib = ctx.stage("characterize", || library_for(&ctx, &AgingScenario::worst_case(y)))?;
        let ru = ctx.stage("system-eval", || unaware.run(&image, &lib, period))?;
        let ra = ctx.stage("system-eval", || aware.run(&image, &lib, period))?;
        ctx.add_tasks("system-eval", 2);
        println!("| {y} | {:.1} | {:.1} |", ru.psnr_db, ra.psnr_db);
        if ru.psnr_db < ACCEPTABLE_PSNR_DB && fail_unaware.is_none() {
            fail_unaware = Some(y);
        }
        if ra.psnr_db < ACCEPTABLE_PSNR_DB && fail_aware.is_none() {
            fail_aware = Some(y);
        }
    }
    let fu = fail_unaware.map_or(">10".to_owned(), |y| y.to_string());
    let fa = fail_aware.map_or(">10".to_owned(), |y| y.to_string());
    println!("\nfailure year: unaware {fu}, aware {fa}");
    match (fail_unaware, fail_aware) {
        (Some(u), Some(a)) => println!("lifetime extension: {:.1}x", a / u),
        (Some(u), None) => println!("lifetime extension: >{:.1}x", 10.0 / u),
        _ => println!("unaware design did not fail within 10 years at this image/clock"),
    }
    println!("(paper: unaware fails within 1 year; aware exceeds 10 years → >10x)");
    cli::emit_report(&ctx, report.as_deref())
}

fn main() -> ExitCode {
    cli::run(USAGE, FLAGS, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let report = dataflow::LifetimeReport {
            instances: Vec::new(),
            design_mttf_lo_years: 12.5,
            design_mttf_best_years: 40.0,
            hazard_shares: vec![("nbti", 0.75), ("em", 0.25)],
            years_until_budget: f64::INFINITY,
            worst_instance: Some("u\"1\\".into()),
            exact: true,
            config: dataflow::LifetimeConfig::default(),
            worst_pools: vec![("nbti", vec![(bti::Weibull::new(30.0, 2.0), 3)]), ("em", vec![])],
        };
        let record = mttf_record(10.0, vec![design_record("dct", &report)]);
        let doc = Json::parse(&record.render_pretty()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("reliaware-mttf-v1"));
        assert_eq!(doc.get("horizon_years").and_then(Json::as_f64), Some(10.0));
        let design = &doc.get("designs").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(design.get("name").and_then(Json::as_str), Some("dct"));
        assert_eq!(design.get("design_mttf_lo_years").and_then(Json::as_f64), Some(12.5));
        assert_eq!(design.get("years_until_budget"), Some(&Json::Null));
        assert_eq!(design.get("worst_instance").and_then(Json::as_str), Some("u\"1\\"));
        let shares = design.get("hazard_shares").unwrap();
        assert_eq!(shares.get("nbti").and_then(Json::as_f64), Some(0.75));
        let per_mech = design.get("mechanism_mttf_lo_years").unwrap();
        assert_eq!(per_mech.get("em"), Some(&Json::Null));
        let curve = design.get("reliability_lo").and_then(Json::as_arr).unwrap();
        assert_eq!(curve.len(), CURVE_YEARS.len());
        let point = curve[4].as_arr().unwrap();
        assert_eq!(point[0].as_f64(), Some(CURVE_YEARS[4]));
        assert_eq!(point[1].as_f64(), Some(report.design_reliability_lo(CURVE_YEARS[4])));
    }
}
