use netlist::NetlistError;
use std::error::Error;
use std::fmt;

/// Errors raised by gate-level simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The netlist is structurally broken.
    Netlist(NetlistError),
    /// The combinational logic contains a cycle.
    CombinationalLoop {
        /// An instance on the cycle.
        instance: String,
    },
    /// A cell has more inputs than the compiled-function limit (16).
    TooManyInputs {
        /// Cell name.
        cell: String,
        /// Its input count.
        inputs: usize,
    },
    /// An input vector's width does not match the primary-input count.
    VectorWidth {
        /// Expected width.
        expected: usize,
        /// Provided width.
        got: usize,
    },
    /// The named clock port does not exist or is not an input.
    BadClock {
        /// The requested clock port.
        port: String,
    },
    /// A timed run's clock period is not positive and finite.
    BadPeriod {
        /// The requested period, in seconds.
        period: f64,
    },
    /// A delay annotation laid out for another netlist.
    AnnotationMismatch {
        /// The first instance whose cell has another input or output count
        /// than its rows in the annotation; `None` when the instance counts
        /// differ.
        instance: Option<String>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Netlist(e) => write!(f, "{e}"),
            SimError::CombinationalLoop { instance } => {
                write!(f, "combinational loop through instance {instance}")
            }
            SimError::TooManyInputs { cell, inputs } => {
                write!(f, "cell {cell} has {inputs} inputs, more than the simulator supports")
            }
            SimError::VectorWidth { expected, got } => {
                write!(f, "input vector has {got} bits, expected {expected}")
            }
            SimError::BadClock { port } => write!(f, "clock port {port} not found among inputs"),
            SimError::BadPeriod { period } => {
                write!(f, "clock period {period:e} s is not positive and finite")
            }
            SimError::AnnotationMismatch { instance: None } => {
                write!(f, "delay annotation holds another instance count than the netlist")
            }
            SimError::AnnotationMismatch { instance: Some(i) } => {
                write!(f, "delay annotation rows of instance {i} do not match its cell's pins")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for SimError {
    fn from(e: NetlistError) -> Self {
        match e {
            NetlistError::CombinationalLoop { instance } => {
                SimError::CombinationalLoop { instance }
            }
            e => SimError::Netlist(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(SimError::VectorWidth { expected: 4, got: 2 }.to_string().contains("2 bits"));
        assert!(SimError::BadClock { port: "ck".into() }.to_string().contains("ck"));
        assert!(SimError::BadPeriod { period: -1e-9 }.to_string().contains("-1e-9 s"));
        let e: SimError = NetlistError::Parse { line: 1, message: "x".into() }.into();
        assert!(e.source().is_some());
    }
}
