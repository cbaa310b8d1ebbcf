//! Typed simulation errors.
//!
//! The engines used to `panic!` from deep inside the packed evaluation
//! loop when a fault spec named a pin the gate does not have. A single
//! malformed fault group would then abort a whole campaign — fatal for
//! sharded sweeps where one shard's bad spec must not lose the other
//! shards' work. Validation now happens *before* simulation
//! ([`crate::FaultEngine::check`]) and reports failures as values; the
//! evaluation loops themselves are total (an out-of-range pin can no
//! longer be reached after validation, and is ignored defensively if
//! one is injected through the raw batch API).

use std::error::Error;
use std::fmt;

/// Why a fault spec was rejected or a parallel campaign aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A fault names a gate index beyond the compiled netlist.
    GateOutOfRange {
        /// The rejected gate index.
        gate: usize,
        /// Number of gates in the compiled netlist.
        gates: usize,
    },
    /// A fault names an input pin the gate does not have (e.g. pin 1 on
    /// an inverter, or any pin on a primary input).
    PinOutOfRange {
        /// The gate the fault is attached to.
        gate: usize,
        /// The rejected pin number.
        pin: u8,
        /// Number of input pins the gate actually has.
        pins: u8,
    },
    /// A fault group lists its lines out of gate order: the packed
    /// evaluator applies a group's lines in one sweep over the gates,
    /// so producers emit them sorted by gate.
    LinesOutOfOrder {
        /// The gate of the line that is out of order.
        gate: usize,
        /// The larger gate of the line before it.
        previous: usize,
    },
    /// A worker thread in the parallel pool panicked. The pool stops
    /// handing out work, joins the remaining workers, and surfaces the
    /// first panic payload here instead of re-panicking on the caller's
    /// thread.
    WorkerPanicked {
        /// The panic payload, rendered to a string when it was one.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::GateOutOfRange { gate, gates } => {
                write!(
                    f,
                    "fault gate {gate} out of range: netlist has {gates} gates"
                )
            }
            SimError::PinOutOfRange { gate, pin, pins } => {
                write!(
                    f,
                    "fault pin {pin} out of range: gate {gate} has {pins} input pins"
                )
            }
            SimError::LinesOutOfOrder { gate, previous } => {
                write!(
                    f,
                    "fault lines out of gate order: gate {gate} follows gate {previous}"
                )
            }
            SimError::WorkerPanicked { message } => {
                write!(f, "campaign worker panicked: {message}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_are_std_errors() {
        let e = SimError::PinOutOfRange {
            gate: 3,
            pin: 7,
            pins: 2,
        };
        assert!(e.to_string().contains("pin 7"));
        let boxed: Box<dyn Error> = Box::new(e);
        assert!(boxed.to_string().contains("out of range"));
        assert!(SimError::GateOutOfRange { gate: 9, gates: 4 }
            .to_string()
            .contains("9"));
        let p = SimError::WorkerPanicked {
            message: "index out of bounds".into(),
        };
        assert!(p.to_string().contains("worker panicked"));
        assert!(p.to_string().contains("index out of bounds"));
    }
}
