use std::error::Error;
use std::fmt;

/// Structural problems of a netlist, reported by
/// [`Netlist::validate`](crate::Netlist::validate) and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// An instance references a cell the library does not contain.
    UnknownCell {
        /// Offending instance name.
        instance: String,
        /// The missing cell name.
        cell: String,
    },
    /// An instance connects a pin its cell does not have.
    UnknownPin {
        /// Offending instance name.
        instance: String,
        /// Its cell name.
        cell: String,
        /// The unknown pin.
        pin: String,
    },
    /// A net is driven by more than one output.
    MultipleDrivers {
        /// Net name.
        net: String,
        /// First driver found.
        first: String,
        /// Second driver found.
        second: String,
    },
    /// An instance input pin is left unconnected.
    UnconnectedPin {
        /// Offending instance name.
        instance: String,
        /// The dangling pin.
        pin: String,
    },
    /// The combinational logic contains a cycle through the named instance
    /// (reported by [`Bound::new`](crate::Bound::new)).
    CombinationalLoop {
        /// An instance on the cycle.
        instance: String,
    },
    /// Two instances share one name.
    DuplicateInstance {
        /// The name used twice.
        instance: String,
    },
    /// Error from parsing a structural-Verilog file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownCell { instance, cell } => {
                write!(f, "instance {instance} uses unknown cell {cell}")
            }
            NetlistError::UnknownPin { instance, cell, pin } => {
                write!(f, "instance {instance} connects unknown pin {pin} of cell {cell}")
            }
            NetlistError::MultipleDrivers { net, first, second } => {
                write!(f, "net {net} driven by both {first} and {second}")
            }
            NetlistError::UnconnectedPin { instance, pin } => {
                write!(f, "input pin {pin} of instance {instance} is unconnected")
            }
            NetlistError::CombinationalLoop { instance } => {
                write!(f, "combinational loop through instance {instance}")
            }
            NetlistError::DuplicateInstance { instance } => {
                write!(f, "duplicate instance name {instance}")
            }
            NetlistError::Parse { line, message } => {
                write!(f, "verilog parse error on line {line}: {message}")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_render() {
        let e = NetlistError::UnknownCell { instance: "u1".into(), cell: "X".into() };
        assert!(e.to_string().contains("u1"));
        let e = NetlistError::Parse { line: 4, message: "bad token".into() };
        assert!(e.to_string().contains("line 4"));
    }
}
