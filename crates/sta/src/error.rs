use netlist::NetlistError;
use std::error::Error;
use std::fmt;

/// Errors raised by timing analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaError {
    /// The netlist is structurally broken (unknown cell, multiple drivers…).
    Netlist(NetlistError),
    /// The combinational logic contains a cycle through the named instance.
    CombinationalLoop {
        /// An instance on the cycle.
        instance: String,
    },
    /// A cell output lacks a timing arc from a connected input.
    MissingArc {
        /// Cell name.
        cell: String,
        /// Input pin without an arc.
        input: String,
        /// Output pin.
        output: String,
    },
    /// An incremental change named an instance the netlist does not have.
    UnknownInstance {
        /// The instance index asked for.
        index: usize,
        /// Instances in the netlist.
        instances: usize,
    },
    /// A pre-flight lint gate rejected the inputs before analysis started
    /// (see the `lint` crate; `message` carries the rendered diagnostics).
    Preflight {
        /// The rendered lint errors.
        message: String,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::Netlist(e) => write!(f, "{e}"),
            StaError::CombinationalLoop { instance } => {
                write!(f, "combinational loop through instance {instance}")
            }
            StaError::MissingArc { cell, input, output } => {
                write!(f, "cell {cell} has no timing arc {input} -> {output}")
            }
            StaError::UnknownInstance { index, instances } => {
                write!(f, "instance index {index} is outside the netlist ({instances} instances)")
            }
            StaError::Preflight { message } => write!(f, "pre-flight lint failed: {message}"),
        }
    }
}

impl Error for StaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StaError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for StaError {
    fn from(e: NetlistError) -> Self {
        match e {
            NetlistError::CombinationalLoop { instance } => {
                StaError::CombinationalLoop { instance }
            }
            e => StaError::Netlist(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = StaError::CombinationalLoop { instance: "u7".into() };
        assert!(e.to_string().contains("u7"));
        let n: StaError =
            NetlistError::UnknownCell { instance: "u1".into(), cell: "X".into() }.into();
        assert!(n.source().is_some());
        let m = StaError::MissingArc { cell: "C".into(), input: "A".into(), output: "Y".into() };
        assert!(m.to_string().contains("A -> Y"));
    }
}
