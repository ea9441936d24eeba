//! Fig. 1 — impact of worst-case aging on NAND and NOR gate delays across
//! the 7×7 slew × load operating-condition grid.
//!
//! Reproduces the surfaces of Fig. 1(a) (NAND: delay increase grows with
//! input slew, shrinks with load) and Fig. 1(b) (NOR: the fall arc
//! *improves* at large slews / small loads).

use bench::{fresh_library, worst_library};
use flow::{CharError, FlowError};
use std::process::ExitCode;

const USAGE: &str = "usage: fig1 [--report <path>]

Worst-case aging impact surfaces for NAND2/NOR2 (paper Fig. 1).

options:
  --report <path>  write a reliaware-run-v1 JSON run report
  -h, --help       show this help
";

fn run() -> Result<(), FlowError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (rest, report) = bench::cli::take_common_flags(&argv)?;
    if let Some(extra) = rest.first() {
        return Err(FlowError::Usage(format!("unexpected argument `{extra}`")));
    }
    let ctx = bench::context();
    let fresh = ctx.stage("characterize", || fresh_library(&ctx))?;
    let aged = ctx.stage("characterize", || worst_library(&ctx))?;

    for (cell, pin, arc_edge, title) in [
        (
            "NAND2_X1",
            "A",
            true,
            "Fig 1(a): NAND2_X1 A→Y rise-delay change [%] (worst-case aging, 10y)",
        ),
        (
            "NOR2_X1",
            "A",
            false,
            "Fig 1(b): NOR2_X1 A→Y fall-delay change [%] (worst-case aging, 10y)",
        ),
    ] {
        println!("\n{title}");
        let missing = |pin: &str| {
            FlowError::from(CharError::MissingPin { cell: cell.to_owned(), pin: pin.to_owned() })
        };
        let unknown = || FlowError::from(CharError::UnknownCell { cell: cell.to_owned() });
        let f = fresh
            .cell(cell)
            .ok_or_else(unknown)?
            .output("Y")
            .ok_or_else(|| missing("Y"))?
            .arc_from(pin)
            .ok_or_else(|| missing(pin))?;
        let a = aged
            .cell(cell)
            .ok_or_else(unknown)?
            .output("Y")
            .ok_or_else(|| missing("Y"))?
            .arc_from(pin)
            .ok_or_else(|| missing(pin))?;
        let (ft, at) =
            if arc_edge { (&f.cell_rise, &a.cell_rise) } else { (&f.cell_fall, &a.cell_fall) };
        print!("{:>10}", "slew\\load");
        for load in ft.load_axis() {
            print!("{:>9.1}fF", load * 1e15);
        }
        println!();
        for (si, slew) in ft.slew_axis().iter().enumerate() {
            print!("{:>8.0}ps", slew * 1e12);
            for li in 0..ft.load_axis().len() {
                let delta = at.at(si, li) / ft.at(si, li) - 1.0;
                print!("{:>+10.1}%", delta * 100.0);
            }
            println!();
        }
        ctx.add_tasks("report", 1);
    }
    println!("\nShape check (paper): NAND impact grows with slew, shrinks with load;");
    println!("NOR fall arc improves (negative %) at large slew + small load.");
    bench::cli::emit_report(&ctx, report.as_deref())
}

fn main() -> ExitCode {
    bench::cli::run(USAGE, run)
}
