//! Fig. 3 — a concrete pair of paths whose criticality *switches* under
//! aging: the initially-critical path ages mildly while the initially
//!-uncritical one ages badly, inverting their order.
//!
//! The paper hand-picks such a pair from HSPICE runs; here we search a
//! small space of 3-cell paths (start strength × gate chain) and print the
//! first pair that switches, with per-stage delays before/after aging.

use bench::{fresh_library, ps, worst_library};
use flow::{EvalError, FlowError};
use liberty::Library;
use netlist::{Netlist, NetlistError, PortDir};
use sta::{analyze, Constraints};
use std::process::ExitCode;

const USAGE: &str = "usage: fig3 [--report <path>]

Criticality-switch path pair under worst-case aging (paper Fig. 3).

options:
  --report <path>  write a reliaware-run-v1 JSON run report
  -h, --help       show this help
";

/// Builds a linear path `cells[0] → cells[1] → …` (input pin A, other pins
/// tied to the second input port) and returns the netlist.
fn path_netlist(cells: &[&str], lib: &Library) -> Result<Netlist, FlowError> {
    let mut nl = Netlist::new("path");
    let a = nl.add_port("a", PortDir::Input);
    let b = nl.add_port("b", PortDir::Input);
    let mut prev = a;
    for (k, cell_name) in cells.iter().enumerate() {
        let out = if k + 1 == cells.len() {
            nl.add_port("y", PortDir::Output)
        } else {
            nl.add_net(&format!("n{k}"))
        };
        let Some(cell) = lib.cell(cell_name) else {
            return Err(FlowError::from(NetlistError::UnknownCell {
                instance: format!("g{k}"),
                cell: (*cell_name).to_owned(),
            }));
        };
        let mut conns: Vec<(String, netlist::NetId)> = vec![("A".into(), prev)];
        for pin in cell.inputs.iter().skip(1) {
            conns.push((pin.name.clone(), b));
        }
        conns.push((cell.outputs[0].name.clone(), out));
        let refs: Vec<(&str, netlist::NetId)> =
            conns.iter().map(|(p, n)| (p.as_str(), *n)).collect();
        nl.add_instance(&format!("g{k}"), cell_name, &refs);
        prev = out;
    }
    Ok(nl)
}

fn path_delay(cells: &[&str], lib: &Library) -> Result<f64, FlowError> {
    let nl = path_netlist(cells, lib)?;
    Ok(analyze(&nl, lib, &Constraints::default())?.critical_delay())
}

fn per_stage(cells: &[&str], lib: &Library) -> Result<Vec<f64>, FlowError> {
    let nl = path_netlist(cells, lib)?;
    let report = analyze(&nl, lib, &Constraints::default())?;
    Ok(report.critical_path().steps.iter().map(|s| s.delay).collect())
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

    let candidates: Vec<Vec<&str>> = vec![
        vec!["INV_X4", "NAND2_X1", "NOR2_X2", "INV_X1"],
        vec!["NOR2_X1", "INV_X1", "NAND2_X2", "INV_X1"],
        vec!["INV_X4", "NOR2_X1", "NOR2_X1", "INV_X2"],
        vec!["NAND2_X1", "NAND2_X1", "INV_X2", "NOR2_X1"],
        vec!["INV_X1", "AOI21_X1", "INV_X2", "NAND2_X1"],
        vec!["NOR2_X2", "NOR2_X1", "INV_X1", "INV_X1"],
        vec!["INV_X2", "XOR2_X1", "INV_X1", "NAND2_X1"],
        vec!["BUF_X2", "NOR3_X1", "INV_X1", "NOR2_X1"],
    ];

    let mut found = None;
    'outer: for (i, p1) in candidates.iter().enumerate() {
        for p2 in candidates.iter().skip(i + 1) {
            ctx.add_tasks("sta", 4);
            let f1 = path_delay(p1, &fresh)?;
            let f2 = path_delay(p2, &fresh)?;
            let a1 = path_delay(p1, &aged)?;
            let a2 = path_delay(p2, &aged)?;
            // Path 1 critical before aging, path 2 critical after.
            if f1 > f2 && a2 > a1 {
                found = Some((p1.clone(), p2.clone(), f1, f2, a1, a2));
                break 'outer;
            }
            if f2 > f1 && a1 > a2 {
                found = Some((p2.clone(), p1.clone(), f2, f1, a2, a1));
                break 'outer;
            }
        }
    }

    match found {
        Some((p1, p2, f1, f2, a1, a2)) => {
            println!("Fig 3 — criticality switch under worst-case aging (10y)\n");
            for (label, p, f, a) in [
                ("Path1 (initially critical)", &p1, f1, a1),
                ("Path2 (initially uncritical)", &p2, f2, a2),
            ] {
                println!("{label}: {}", p.join(" -> "));
                let sf = per_stage(p, &fresh)?;
                let sa = per_stage(p, &aged)?;
                let fresh_str: Vec<String> = sf.iter().map(|d| format!("{}ps", ps(*d))).collect();
                let aged_str: Vec<String> = sa
                    .iter()
                    .zip(&sf)
                    .map(|(a, f)| format!("{}ps ({:+.1}%)", ps(*a), (a / f - 1.0) * 100.0))
                    .collect();
                println!("  fresh stages: {}  = {} ps", fresh_str.join(" + "), ps(f));
                println!(
                    "  aged  stages: {}  = {} ps ({:+.1}%)",
                    aged_str.join(" + "),
                    ps(a),
                    (a / f - 1.0) * 100.0
                );
            }
            println!(
                "\nBefore aging:  Path1 {} ps  >  Path2 {} ps   (Path1 critical)",
                ps(f1),
                ps(f2)
            );
            println!(
                "After  aging:  Path1 {} ps  <  Path2 {} ps   (Path2 critical)",
                ps(a1),
                ps(a2)
            );
            println!("\nAs in the paper's Fig. 3: identical worst-case stress, different OPCs,");
            println!("so the initially-critical path loses criticality after aging.");
        }
        None => {
            return Err(FlowError::from(EvalError::Design {
                message: "no criticality switch among the candidate pairs — widen the search space"
                    .into(),
            }));
        }
    }
    bench::cli::emit_report(&ctx, report.as_deref())
}

fn main() -> ExitCode {
    bench::cli::run(USAGE, run)
}
