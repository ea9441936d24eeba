//! The flow-level error hierarchy and the shared CLI error contract.
//!
//! Every stage of the pipeline reports failures through a typed per-crate
//! error ([`CharError`] for characterization, [`sta::StaError`],
//! [`synth::SynthError`], [`netlist::NetlistError`],
//! [`liberty::LibertyError`], [`EvalError`] for the system-level study);
//! [`FlowError`] wraps them all so end-to-end drivers — the bench CLIs and
//! the examples — can propagate any stage failure with `?` and render it
//! uniformly: `error: [<stage>] <diagnostic>` plus an exit code following
//! the lint CLI contract (0 ok, 1 analysis error, 2 usage/I/O problem).

use liberty::LibertyError;
use netlist::NetlistError;
use sta::StaError;
use std::fmt;
use std::process::ExitCode;
use synth::SynthError;

/// Characterization failures: degenerate configurations, unknown cells and
/// broken transistor-level netlists.
#[derive(Debug, Clone, PartialEq)]
pub enum CharError {
    /// The [`crate::CharConfig`] fails validation (empty or non-increasing
    /// OPC axes, non-positive supply or accuracy).
    InvalidConfig {
        /// What is wrong with the configuration.
        message: String,
    },
    /// A requested cell is not part of the characterized cell set.
    UnknownCell {
        /// The unresolved cell name.
        cell: String,
    },
    /// The cell set is empty — the resulting library would be empty too,
    /// and downstream STA would report missing cells far from the cause.
    EmptyCellSet,
    /// A cell's transistor netlist has no node for a pin the
    /// characterization stimulus needs.
    MissingPin {
        /// The cell under characterization.
        cell: String,
        /// The unresolved pin name.
        pin: String,
    },
    /// The transistor-level simulation of a cell's arc could not run.
    Simulation {
        /// The cell under characterization.
        cell: String,
        /// Why the simulator refused the run.
        error: spicesim::SimError,
    },
    /// A Monte-Carlo lifetime run was asked for with an unsound sampling
    /// plan or lifetime configuration.
    InvalidLifetimePlan {
        /// One entry per failed check, sampling-plan checks first.
        problems: Vec<String>,
    },
}

impl fmt::Display for CharError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharError::InvalidConfig { message } => {
                write!(f, "invalid characterization config: {message}")
            }
            CharError::UnknownCell { cell } => {
                write!(f, "unknown cell '{cell}': not in the characterized cell set")
            }
            CharError::EmptyCellSet => write!(f, "empty cell set: nothing to characterize"),
            CharError::MissingPin { cell, pin } => {
                write!(f, "cell '{cell}' has no transistor node for pin '{pin}'")
            }
            CharError::Simulation { cell, error } => {
                write!(f, "cell '{cell}': transistor simulation failed: {error}")
            }
            CharError::InvalidLifetimePlan { problems } => {
                write!(f, "invalid Monte-Carlo lifetime plan: {}", problems.join("; "))
            }
        }
    }
}

impl std::error::Error for CharError {}

/// System-level evaluation failures (the DCT→IDCT image chain).
#[derive(Debug)]
pub enum EvalError {
    /// Timing analysis of a chain circuit failed.
    Sta(StaError),
    /// Encoding inputs into / decoding outputs from a circuit's ports
    /// failed (unknown port, width mismatch).
    Design {
        /// The underlying design codec error text.
        message: String,
    },
    /// Gate-level timed simulation failed.
    Simulation {
        /// The underlying simulator error text.
        message: String,
    },
    /// A PGM image failed to parse.
    Image(imgproc::PgmError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Sta(e) => write!(f, "{e}"),
            EvalError::Design { message } => write!(f, "design codec: {message}"),
            EvalError::Simulation { message } => write!(f, "gate-level simulation: {message}"),
            EvalError::Image(e) => write!(f, "image: {e}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Sta(e) => Some(e),
            EvalError::Image(e) => Some(e),
            EvalError::Design { .. } | EvalError::Simulation { .. } => None,
        }
    }
}

impl From<StaError> for EvalError {
    fn from(e: StaError) -> Self {
        EvalError::Sta(e)
    }
}

impl From<imgproc::PgmError> for EvalError {
    fn from(e: imgproc::PgmError) -> Self {
        EvalError::Image(e)
    }
}

/// Any failure of the end-to-end flow, tagged with the stage it came from.
///
/// The [`fmt::Display`] rendering always leads with the bracketed
/// [`FlowError::stage`] name, so a batch driver's log names the failing
/// stage for every item.
#[derive(Debug)]
pub enum FlowError {
    /// Library characterization failed.
    Char(CharError),
    /// A timing library failed to parse or validate.
    Liberty(LibertyError),
    /// A netlist is structurally broken.
    Netlist(NetlistError),
    /// Static timing analysis failed.
    Sta(StaError),
    /// Logic synthesis failed.
    Synth(SynthError),
    /// The system-level image-chain evaluation failed.
    Eval(EvalError),
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error text.
        message: String,
    },
    /// The command line is malformed. An empty message requests the usage
    /// text (the `--help` path).
    Usage(String),
}

impl FlowError {
    /// The flow stage this error belongs to — always present in the
    /// [`fmt::Display`] rendering.
    #[must_use]
    pub fn stage(&self) -> &'static str {
        match self {
            FlowError::Char(_) => "characterize",
            FlowError::Liberty(_) => "library",
            FlowError::Netlist(_) => "netlist",
            FlowError::Sta(_) => "sta",
            FlowError::Synth(_) => "synthesis",
            FlowError::Eval(_) => "system-eval",
            FlowError::Io { .. } => "io",
            FlowError::Usage(_) => "usage",
        }
    }

    /// The process exit code under the lint CLI contract: 2 for usage and
    /// I/O problems, 1 for any analysis failure.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            FlowError::Io { .. } | FlowError::Usage(_) => 2,
            _ => 1,
        }
    }

    /// Builds an [`FlowError::Io`] from a path and [`std::io::Error`].
    #[must_use]
    pub fn io(path: impl fmt::Display, error: &std::io::Error) -> Self {
        FlowError::Io { path: path.to_string(), message: error.to_string() }
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.stage())?;
        match self {
            FlowError::Char(e) => write!(f, "{e}"),
            FlowError::Liberty(e) => write!(f, "{e}"),
            FlowError::Netlist(e) => write!(f, "{e}"),
            FlowError::Sta(e) => write!(f, "{e}"),
            FlowError::Synth(e) => write!(f, "{e}"),
            FlowError::Eval(e) => write!(f, "{e}"),
            FlowError::Io { path, message } => write!(f, "{path}: {message}"),
            FlowError::Usage(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Char(e) => Some(e),
            FlowError::Liberty(e) => Some(e),
            FlowError::Netlist(e) => Some(e),
            FlowError::Sta(e) => Some(e),
            FlowError::Synth(e) => Some(e),
            FlowError::Eval(e) => Some(e),
            FlowError::Io { .. } | FlowError::Usage(_) => None,
        }
    }
}

impl From<CharError> for FlowError {
    fn from(e: CharError) -> Self {
        FlowError::Char(e)
    }
}

impl From<LibertyError> for FlowError {
    fn from(e: LibertyError) -> Self {
        FlowError::Liberty(e)
    }
}

impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}

impl From<StaError> for FlowError {
    fn from(e: StaError) -> Self {
        FlowError::Sta(e)
    }
}

impl From<SynthError> for FlowError {
    fn from(e: SynthError) -> Self {
        FlowError::Synth(e)
    }
}

impl From<EvalError> for FlowError {
    fn from(e: EvalError) -> Self {
        FlowError::Eval(e)
    }
}

/// Runs a fallible entry point and renders any [`FlowError`] to stderr with
/// the shared `error: [<stage>] <diagnostic>` format and exit-code
/// contract. The `main` of every example and figure binary is one line:
///
/// ```no_run
/// fn run() -> Result<(), flow::FlowError> {
///     Ok(())
/// }
///
/// fn main() -> std::process::ExitCode {
///     flow::run_main(run)
/// }
/// ```
pub fn run_main<F: FnOnce() -> Result<(), FlowError>>(f: F) -> ExitCode {
    match f() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_stage() {
        let e = FlowError::Char(CharError::EmptyCellSet);
        assert!(e.to_string().starts_with("[characterize] "));
        let e = FlowError::Usage("--steps needs a value".into());
        assert_eq!(e.to_string(), "[usage] --steps needs a value");
    }

    #[test]
    fn exit_codes_follow_lint_contract() {
        assert_eq!(FlowError::Usage(String::new()).exit_code(), 2);
        assert_eq!(FlowError::Io { path: "x".into(), message: "denied".into() }.exit_code(), 2);
        assert_eq!(FlowError::Char(CharError::EmptyCellSet).exit_code(), 1);
        assert_eq!(
            FlowError::Sta(StaError::CombinationalLoop { instance: "u1".into() }).exit_code(),
            1
        );
    }

    #[test]
    fn sources_are_chained() {
        use std::error::Error as _;
        let e = FlowError::Char(CharError::EmptyCellSet);
        assert!(e.source().is_some());
        let e =
            FlowError::Eval(EvalError::Sta(StaError::CombinationalLoop { instance: "u1".into() }));
        assert!(e.source().and_then(std::error::Error::source).is_some());
    }
}
