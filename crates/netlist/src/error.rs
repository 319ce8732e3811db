//! Error type for netlist construction and mutation.

use std::error::Error;
use std::fmt;

use crate::{CellId, NetId, PinId};

/// Errors raised by netlist construction, mutation, or validation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A pin was connected as a sink of two different nets.
    SinkAlreadyConnected(PinId),
    /// A pin was used as the driver of two different nets.
    DriverAlreadyConnected(PinId),
    /// A pin was listed twice among one net's sinks.
    DuplicateSink(PinId),
    /// The referenced entity has been removed (tombstoned).
    Dead(&'static str, u32),
    /// Net has no sinks, which is not allowed for connected nets.
    EmptyNet(NetId),
    /// A combinational cycle was found while levelizing the timing graph.
    CombinationalCycle {
        /// Number of pins left unlevelized when propagation stalled.
        unresolved: usize,
    },
    /// Resize attempted across different gate functions.
    ResizeChangesFunction(CellId),
    /// A pin direction did not match its use (e.g. input pin used as driver).
    DirectionMismatch(PinId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SinkAlreadyConnected(p) => {
                write!(f, "pin {p} is already a sink of another net")
            }
            Self::DriverAlreadyConnected(p) => {
                write!(f, "pin {p} already drives another net")
            }
            Self::DuplicateSink(p) => write!(f, "pin {p} is listed twice as a sink of one net"),
            Self::Dead(kind, id) => write!(f, "{kind} {id} has been removed"),
            Self::EmptyNet(n) => write!(f, "net {n} has no sinks"),
            Self::CombinationalCycle { unresolved } => {
                write!(f, "combinational cycle: {unresolved} pins could not be levelized")
            }
            Self::ResizeChangesFunction(c) => {
                write!(f, "resize of cell {c} would change its logic function")
            }
            Self::DirectionMismatch(p) => {
                write!(f, "pin {p} used against its direction")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let msgs = [
            NetlistError::SinkAlreadyConnected(PinId(1)).to_string(),
            NetlistError::DriverAlreadyConnected(PinId(2)).to_string(),
            NetlistError::DuplicateSink(PinId(2)).to_string(),
            NetlistError::Dead("cell", 3).to_string(),
            NetlistError::EmptyNet(NetId(4)).to_string(),
            NetlistError::CombinationalCycle { unresolved: 5 }.to_string(),
            NetlistError::ResizeChangesFunction(CellId(6)).to_string(),
            NetlistError::DirectionMismatch(PinId(7)).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase(), "{m}");
            assert!(!m.ends_with('.'), "{m}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
