use std::fmt;

/// Why a transient analysis or an edge sweep could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The window `[t_start, t_stop]` is empty (or one end is not a number).
    EmptyWindow {
        /// Window start in seconds.
        t_start: f64,
        /// Window end in seconds.
        t_stop: f64,
    },
    /// The swept node of a sweep is not a stimulus source of the circuit.
    NotASource {
        /// The node's name, or `#index` if the circuit has no such node.
        node: String,
    },
    /// A variant's swept waveform starts from a different value than the
    /// first variant's, so the variants share no initial state.
    VariantsDisagree {
        /// Index of the first disagreeing variant.
        variant: usize,
    },
    /// A variant's window ends before the fork, where the variants part.
    StopBeforeFork {
        /// Index of the variant.
        variant: usize,
        /// The variant's end time in seconds.
        t_stop: f64,
        /// The fork time in seconds.
        t_fork: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyWindow { t_start, t_stop } => {
                write!(f, "empty simulation window [{t_start:e}, {t_stop:e}] s")
            }
            SimError::NotASource { node } => {
                write!(f, "swept node {node} is not a stimulus source")
            }
            SimError::VariantsDisagree { variant } => {
                write!(f, "sweep variant {variant} starts from a different value than variant 0")
            }
            SimError::StopBeforeFork { variant, t_stop, t_fork } => write!(
                f,
                "sweep variant {variant} stops at {t_stop:e} s, before the fork at {t_fork:e} s"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Checks that `[t_start, t_stop]` is a non-empty window.
pub(crate) fn check_window(t_start: f64, t_stop: f64) -> Result<(), SimError> {
    if t_stop > t_start {
        Ok(())
    } else {
        Err(SimError::EmptyWindow { t_start, t_stop })
    }
}
