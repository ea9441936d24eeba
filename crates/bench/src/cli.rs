//! Shared CLI orchestration for the bench binaries.
//!
//! Every binary follows one contract:
//!
//! * exit 0 — success (including an explicit help request),
//! * exit 1 — the flow ran and found analysis errors,
//! * exit 2 — usage or I/O problems (bad flags, unreadable files),
//!
//! with failures rendered as `error: [<stage>] <diagnostic>` on stderr.
//!
//! A binary declares its flags once, as a table of [`Flag`]s. [`parse`]
//! makes one left-to-right pass over the arguments and the typed getters
//! of [`Args`] read the values, so every usage error is reported before
//! any work starts and in one wording. A help request is modelled as
//! `FlowError::Usage(String::new())`: the runner prints the usage text and
//! exits 0 instead of treating it as a failure.

use flow::{FlowError, RunContext};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// A command-line flag: its name and whether a value follows it.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    takes_value: bool,
}

impl Flag {
    /// A flag that stands alone, such as `--smoke`.
    #[must_use]
    pub const fn switch(name: &'static str) -> Self {
        Flag { name, takes_value: false }
    }

    /// A flag followed by one value, such as `--steps N`. The value is the
    /// next argument, whatever it looks like.
    #[must_use]
    pub const fn value(name: &'static str) -> Self {
        Flag { name, takes_value: true }
    }
}

/// `--report <path>`: write a `reliaware-run-v1` run report (see
/// [`Args::report`] and [`emit_report`]).
pub const REPORT: Flag = Flag::value("--report");

/// The flags of one command line, in the order given.
#[derive(Debug)]
pub struct Args {
    given: Vec<(&'static str, Option<String>)>,
}

/// Parses `argv` (without the program name) against `flags` in one
/// left-to-right pass.
///
/// # Errors
///
/// Returns an empty [`FlowError::Usage`] for `-h`/`--help`, and one naming
/// the argument for an unknown flag, a flag without its value or a
/// positional argument.
pub fn parse(argv: &[String], flags: &[Flag]) -> Result<Args, FlowError> {
    let mut given = Vec::with_capacity(argv.len());
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "-h" || arg == "--help" {
            return Err(FlowError::Usage(String::new()));
        }
        let Some(flag) = flags.iter().find(|f| f.name == arg) else {
            return Err(FlowError::Usage(if arg.starts_with('-') {
                format!("unknown flag `{arg}`")
            } else {
                format!("unexpected argument `{arg}`")
            }));
        };
        let value = if flag.takes_value {
            let value = it
                .next()
                .ok_or_else(|| FlowError::Usage(format!("{} needs a value", flag.name)))?;
            Some(value.clone())
        } else {
            None
        };
        given.push((flag.name, value));
    }
    Ok(Args { given })
}

impl Args {
    /// Whether `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// The value of `flag` parsed as `T`; the last occurrence wins.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError::Usage`] from [`invalid`] when any occurrence
    /// does not parse.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, FlowError>
    where
        T::Err: Display,
    {
        Ok(self.all(flag)?.pop())
    }

    /// Every value of the repeatable `flag` parsed as `T`, in order.
    ///
    /// # Errors
    ///
    /// See [`Args::get`].
    pub fn all<T: FromStr>(&self, flag: &str) -> Result<Vec<T>, FlowError>
    where
        T::Err: Display,
    {
        self.given
            .iter()
            .filter(|(name, _)| *name == flag)
            .filter_map(|(_, value)| value.as_deref())
            .map(|raw| raw.parse().map_err(|e| invalid(flag, raw, e)))
            .collect()
    }

    /// The [`REPORT`] path, if one was given.
    #[must_use]
    pub fn report(&self) -> Option<PathBuf> {
        // A path parses from any string.
        self.get(REPORT.name).ok().flatten()
    }
}

/// The usage error for a `value` of `flag` that is refused, and why.
#[must_use]
pub fn invalid(flag: &str, value: impl Display, why: impl Display) -> FlowError {
    FlowError::Usage(format!("invalid value `{value}` for {flag}: {why}"))
}

/// The process arguments after the program name.
#[must_use]
pub fn argv() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Runs a binary under the shared exit-code contract: parses the process
/// arguments against `flags`, then runs `body` on them. `usage` is printed
/// on help requests and after usage errors.
pub fn run(
    usage: &str,
    flags: &[Flag],
    body: impl FnOnce(&Args) -> Result<(), FlowError>,
) -> ExitCode {
    run_code(usage, flags, |args| body(args).map(|()| ExitCode::SUCCESS))
}

/// Like [`run`], but the body chooses its own success exit code — for
/// linters whose diagnostics set exit 1 without being flow errors.
pub fn run_code(
    usage: &str,
    flags: &[Flag],
    body: impl FnOnce(&Args) -> Result<ExitCode, FlowError>,
) -> ExitCode {
    finish(usage, parse(&argv(), flags).and_then(|args| body(&args)))
}

/// Maps a body's outcome to the process exit code, printing `usage` for a
/// help request (exit 0) and after a usage error.
pub fn finish(usage: &str, outcome: Result<ExitCode, FlowError>) -> ExitCode {
    match outcome {
        Ok(code) => code,
        Err(FlowError::Usage(message)) if message.is_empty() => {
            println!("{}", usage.trim_end());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, FlowError::Usage(_)) {
                eprintln!("\n{}", usage.trim_end());
            }
            ExitCode::from(e.exit_code())
        }
    }
}

/// Serializes `ctx`'s run report to `path` when one was requested.
///
/// # Errors
///
/// Returns [`FlowError::Io`] when the report file cannot be written.
pub fn emit_report(ctx: &RunContext, path: Option<&Path>) -> Result<(), FlowError> {
    if let Some(path) = path {
        ctx.report().write(path)?;
        eprintln!("run report written to {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroU32;

    const FLAGS: &[Flag] =
        &[Flag::switch("--smoke"), Flag::value("--steps"), Flag::value("--design"), REPORT];

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    /// The usage message of a refused command line; panics on success.
    fn usage_error(args: &[&str]) -> String {
        match parse(&argv(args), FLAGS).and_then(|a| a.get::<NonZeroU32>("--steps")) {
            Err(e @ FlowError::Usage(_)) => {
                assert_eq!(e.exit_code(), 2);
                let FlowError::Usage(message) = e else { unreachable!() };
                message
            }
            other => panic!("{args:?} was not refused: {other:?}"),
        }
    }

    #[test]
    fn help_anywhere_is_an_empty_usage_error_and_exits_0() {
        for args in [&["--help"][..], &["--smoke", "-h"], &["-h", "--no-such-flag"]] {
            let err = parse(&argv(args), FLAGS).unwrap_err();
            assert!(matches!(&err, FlowError::Usage(m) if m.is_empty()), "{args:?}");
            assert_eq!(finish("usage: t", Err(err)), ExitCode::SUCCESS);
        }
    }

    #[test]
    fn report_and_switches_are_read() {
        let args = parse(&argv(&["--smoke", "--report", "out/run.json"]), FLAGS).unwrap();
        assert!(args.has("--smoke"));
        assert!(!args.has("--design"));
        assert_eq!(args.report(), Some(PathBuf::from("out/run.json")));
        assert_eq!(parse(&[], FLAGS).unwrap().report(), None);
    }

    #[test]
    fn each_usage_error_exits_2_and_names_the_argument() {
        assert_eq!(usage_error(&["--no-such-flag"]), "unknown flag `--no-such-flag`");
        assert_eq!(usage_error(&["--smoke", "dct"]), "unexpected argument `dct`");
        assert_eq!(usage_error(&["--report"]), "--report needs a value");
        assert_eq!(usage_error(&["--smoke", "--steps"]), "--steps needs a value");
        assert!(usage_error(&["--steps", "abc"]).starts_with("invalid value `abc` for --steps"));
        assert!(usage_error(&["--steps", "0"]).starts_with("invalid value `0` for --steps"));
        let err = parse(&argv(&["--no-such-flag"]), FLAGS).unwrap_err();
        assert_eq!(finish("usage: t", Err(err)), ExitCode::from(2));
    }

    #[test]
    fn values_are_taken_verbatim_even_when_they_look_like_flags() {
        let args = parse(&argv(&["--design", "--smoke", "--report", "-h"]), FLAGS).unwrap();
        assert_eq!(args.get::<String>("--design").unwrap().as_deref(), Some("--smoke"));
        assert!(!args.has("--smoke"));
        assert_eq!(args.report(), Some(PathBuf::from("-h")));
    }

    #[test]
    fn repeatable_flags_keep_every_value_and_single_ones_the_last() {
        let args = parse(
            &argv(&["--design", "dct", "--steps", "3", "--design", "fft", "--steps", "5"]),
            FLAGS,
        )
        .unwrap();
        assert_eq!(args.all::<String>("--design").unwrap(), vec!["dct", "fft"]);
        assert_eq!(args.get::<String>("--design").unwrap().as_deref(), Some("fft"));
        assert_eq!(args.get::<u32>("--steps").unwrap(), Some(5));
        assert_eq!(args.get::<u32>("--no-such-flag").unwrap(), None);
        // Every occurrence must parse, not only the one that wins.
        let args = parse(&argv(&["--steps", "x", "--steps", "5"]), FLAGS).unwrap();
        assert!(args.get::<u32>("--steps").is_err());
    }

    #[test]
    fn emit_report_writes_schema_tagged_json() {
        let ctx = RunContext::new();
        ctx.record_stage("demo", 0.005, 3);
        let dir = std::env::temp_dir().join("reliaware-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.json");
        emit_report(&ctx, Some(&path)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("reliaware-run-v1"));
        assert!(text.contains("\"demo\""));
        std::fs::remove_file(&path).ok();
    }
}
