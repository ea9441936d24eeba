//! `paper` — regenerates the paper's experiments, one command each: the
//! figures (Figs. 1–7), the Sec. 3 path-rank study, the Sec. 4.2
//! dynamic-stress study and the environment-corner extension.
//!
//! ```text
//! paper <experiment> [--report <path>] [experiment option]
//! ```
//!
//! Every experiment characterizes the libraries it needs through the arc
//! cache under [`bench::cache_dir`], so a rerun reassembles them without
//! simulating. `DESIGN.md` indexes the experiments and `EXPERIMENTS.md`
//! records their results.

mod corners;
mod dynamic_stress;
mod fig1;
mod fig2;
mod fig3;
mod fig5a;
mod fig5b;
mod fig5c;
mod fig6a;
mod fig6c;
mod fig7;
mod top_paths;

use bench::cli::{self, Args, Flag};
use flow::FlowError;
use std::process::ExitCode;

/// One experiment: the module that runs it, what it regenerates and, for
/// three of them, the one option they take besides `--report`.
struct Experiment {
    name: &'static str,
    about: &'static str,
    /// The option as the synopsis shows it (`--image N`) and its help.
    option: Option<(&'static str, &'static str)>,
    run: fn(&Args) -> Result<(), FlowError>,
}

/// The table entry of experiment module `$name`.
macro_rules! experiment {
    ($name:ident, $about:literal) => {
        experiment!($name, $about, None)
    };
    ($name:ident, $about:literal, $option:expr) => {
        Experiment { name: stringify!($name), about: $about, option: $option, run: $name::run }
    };
}

const EXPERIMENTS: &[Experiment] = &[
    experiment!(fig1, "Worst-case aging impact surfaces for NAND2/NOR2 (Fig. 1)"),
    experiment!(fig2, "Library-wide delay-change histograms under worst-case aging (Fig. 2)"),
    experiment!(fig3, "Criticality-switch path pair under worst-case aging (Fig. 3)"),
    experiment!(fig5a, "Guardband with Vth+mu vs Vth-only degradation (Fig. 5a)"),
    experiment!(fig5b, "Guardband from 49 OPCs vs a single pessimistic OPC (Fig. 5b)"),
    experiment!(fig5c, "Guardband with vs without critical-path-switch awareness (Fig. 5c)"),
    experiment!(fig6a, "Guardband containment via aging-aware synthesis (Figs. 6a, 6b)"),
    experiment!(
        fig6c,
        "PSNR of the DCT→IDCT chain under aging, no guardband (Fig. 6c)",
        Some(("--image N", "test image edge length in pixels (default 32)"))
    ),
    experiment!(
        fig7,
        "DCT→IDCT output images under aging, written to target/fig7/ (Fig. 7)",
        Some(("--image N", "test image edge length in pixels (default 48)"))
    ),
    experiment!(corners, "Guardband vs environment corner on the DCT benchmark (extension)"),
    experiment!(
        dynamic_stress,
        "Workload-driven λ-annotated timing vs the static worst case (Sec. 4.2)",
        Some(("--steps N", "λ-grid interval count, at least 1 (default 2)"))
    ),
    experiment!(top_paths, "Rank of the aged critical path in the fresh path ordering (Sec. 3)"),
];

impl Experiment {
    fn usage(&self) -> String {
        let (synopsis, help) = self.option.map_or_else(Default::default, |(option, help)| {
            (format!(" [{option}]"), format!("  {option:<17}{help}\n"))
        });
        format!(
            "usage: paper {}{synopsis} [--report <path>]\n\n{}.\n\noptions:\n{help}  \
             --report <path>  write a reliaware-run-v1 JSON run report\n  \
             -h, --help       show this help\n",
            self.name, self.about
        )
    }

    /// `--report` and the experiment's own option, if any.
    fn flags(&self) -> Vec<Flag> {
        let own = self.option.and_then(|(option, _)| option.split(' ').next());
        own.map(Flag::value).into_iter().chain([cli::REPORT]).collect()
    }
}

/// The binary's usage text, listing every experiment.
fn usage() -> String {
    let list: String =
        EXPERIMENTS.iter().map(|e| format!("  {:<16}{}\n", e.name, e.about)).collect();
    format!(
        "usage: paper <experiment> [options]\n\nRegenerates one experiment of the paper; \
         `paper <experiment> --help`\nlists its options.\n\nexperiments:\n{list}\noptions:\n  \
         -h, --help      show this help\n"
    )
}

/// Runs the experiment the first argument names on the arguments after it.
/// Returns the usage text to show on a help request or usage error: the
/// experiment's, or the binary's when the name is missing, unknown or a
/// help flag.
fn dispatch(argv: &[String]) -> (String, Result<(), FlowError>) {
    let name = argv.first().map_or("", String::as_str);
    match EXPERIMENTS.iter().find(|e| e.name == name) {
        Some(e) => (e.usage(), cli::parse(&argv[1..], &e.flags()).and_then(|args| (e.run)(&args))),
        None => {
            let message = match name {
                "" => "missing experiment".to_owned(),
                "-h" | "--help" => String::new(),
                _ => format!("unknown experiment `{name}`"),
            };
            (usage(), Err(FlowError::Usage(message)))
        }
    }
}

fn main() -> ExitCode {
    let (usage, outcome) = dispatch(&cli::argv());
    cli::finish(&usage, outcome.map(|()| ExitCode::SUCCESS))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exit code of `paper <args>`, for arguments that do no work.
    fn exit(args: &[&str]) -> ExitCode {
        let argv: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let (usage, outcome) = dispatch(&argv);
        cli::finish(&usage, outcome.map(|()| ExitCode::SUCCESS))
    }

    #[test]
    fn help_lists_every_experiment_in_table_order() {
        let help = usage();
        let listed: Vec<&str> = help
            .split("experiments:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .unwrap()
            .lines()
            .filter_map(|line| line.split_whitespace().next())
            .collect();
        let table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(listed, table);
        assert_eq!(exit(&["--help"]), ExitCode::SUCCESS);
        for e in EXPERIMENTS {
            assert!(e.usage().starts_with(&format!("usage: paper {} ", e.name)), "{}", e.name);
            assert_eq!(exit(&[e.name, "--help"]), ExitCode::SUCCESS, "{}", e.name);
            assert_eq!(exit(&[e.name, "--no-such-flag"]), ExitCode::from(2), "{}", e.name);
        }
    }

    #[test]
    fn a_missing_or_unknown_experiment_exits_2() {
        assert_eq!(exit(&[]), ExitCode::from(2));
        assert_eq!(exit(&["nosuch"]), ExitCode::from(2));
        assert_eq!(exit(&["--no-such-flag"]), ExitCode::from(2));
    }

    #[test]
    fn sizes_and_grids_are_refused_before_any_work() {
        for args in [
            ["fig6c", "--image", "0"],
            ["fig7", "--image", "abc"],
            ["dynamic_stress", "--steps", "0"],
        ] {
            let argv: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
            let err = dispatch(&argv).1.unwrap_err();
            assert_eq!(err.exit_code(), 2, "{args:?}: {err}");
            assert!(err.to_string().contains(args[1]), "{args:?}: {err}");
        }
    }
}
