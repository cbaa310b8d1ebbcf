//! Typed campaign errors.
//!
//! The engine-room constructors (`scdp_coverage::CampaignBuilder::over`,
//! `scdp_sim::EngineCampaign::over`) validate with `assert!`; the
//! unified [`CampaignSpec::run`](crate::CampaignSpec::run) performs the
//! same checks *before* dispatching and reports failures as values
//! instead of panics. Sharded campaigns add their own failure surface —
//! invalid shard plans, inconsistent partial reports, unreadable
//! checkpoint files — all typed here too.

use crate::scenario::{Backend, FaultModel};
use scdp_core::Operator;
use scdp_netlist::gen::AdderRealisation;
use std::error::Error;
use std::fmt;

/// Why a campaign could not be configured, run or deserialised.
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignError {
    /// The operand width lies outside the supported `1..=max` range.
    WidthOutOfRange {
        /// The rejected width.
        width: u32,
        /// The inclusive upper bound.
        max: u32,
    },
    /// A worker-thread count of zero was requested.
    ZeroThreads,
    /// The operator is not available on the selected backend (division
    /// checking has no gate-level realisation).
    UnsupportedOperator {
        /// The rejected operator.
        op: Operator,
        /// The backend that cannot analyse it.
        backend: Backend,
    },
    /// The fault model is not available on the selected backend or
    /// circuit realisation.
    UnsupportedFaultModel {
        /// The rejected model.
        model: FaultModel,
        /// The backend it was requested on.
        backend: Backend,
        /// Human-readable explanation.
        detail: &'static str,
    },
    /// Fault dropping is only meaningful on the gate-level engine; the
    /// functional classifier needs every situation tallied.
    UnsupportedDropPolicy {
        /// The backend that cannot drop faults.
        backend: Backend,
    },
    /// Fault-equivalence collapsing needs a gate-level netlist to
    /// analyse; the functional classifier has none.
    UnsupportedCollapse {
        /// The backend that cannot collapse.
        backend: Backend,
    },
    /// Deductive pruning needs a gate-level netlist to analyse; the
    /// functional classifier has none.
    UnsupportedPrune {
        /// The backend that cannot prune.
        backend: Backend,
    },
    /// The structural realisation only applies to `+` datapaths.
    UnsupportedRealisation {
        /// The rejected realisation.
        realisation: AdderRealisation,
        /// The operator it was requested for.
        op: Operator,
    },
    /// Exhaustive enumeration of the input space would overflow the
    /// vector counter; use a sampled space instead.
    ExhaustiveSpaceTooLarge {
        /// The rejected operand width.
        width: u32,
    },
    /// Exhaustive enumeration over an elaborated datapath's primary
    /// inputs would be intractable; use a sampled input space.
    ExhaustiveDatapathTooLarge {
        /// Primary input bits of the elaborated netlist.
        input_bits: usize,
    },
    /// A transient fault was requested for a cycle the sequential
    /// datapath never executes.
    TransientCycleOutOfRange {
        /// The rejected injection cycle.
        cycle: u32,
        /// Cycles the elaborated datapath runs (valid cycles are
        /// `0..total_cycles`).
        total_cycles: u32,
    },
    /// A fault spec was rejected by the simulation engines' validation
    /// (e.g. a pin the gate does not have) — surfaced as a value so one
    /// malformed group cannot abort a sharded sweep mid-campaign.
    FaultSpec {
        /// The engine's [`scdp_sim::SimError`] rendering.
        message: String,
    },
    /// A shard plan must partition the universe into at least one
    /// shard.
    ZeroShards,
    /// A shard index at or beyond the plan's shard count.
    ShardIndexOutOfRange {
        /// The rejected shard index.
        index: u32,
        /// The plan's shard count (valid indices are `0..count`).
        count: u32,
    },
    /// Partial shard reports could not be merged back into one
    /// campaign report.
    ShardMerge {
        /// What is inconsistent.
        message: String,
    },
    /// A checkpoint file could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The OS error rendering.
        message: String,
    },
    /// A report could not be parsed as JSON.
    Parse {
        /// Byte offset of the first offending character.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A report's JSON parsed but does not match the report schema,
    /// or a run spec (JSON or command line) does not match the
    /// [`KEYS`](crate::KEYS) table.
    Schema {
        /// The offending field (dotted report path, or the spec key).
        field: &'static str,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::WidthOutOfRange { width, max } => {
                write!(f, "operand width {width} out of range 1..={max}")
            }
            CampaignError::ZeroThreads => f.write_str("worker thread count must be positive"),
            CampaignError::UnsupportedOperator { op, backend } => {
                write!(
                    f,
                    "operator `{op}` is not supported on the {backend} backend"
                )
            }
            CampaignError::UnsupportedFaultModel {
                model,
                backend,
                detail,
            } => {
                write!(
                    f,
                    "fault model {model} is not supported on the {backend} backend: {detail}"
                )
            }
            CampaignError::UnsupportedDropPolicy { backend } => {
                write!(
                    f,
                    "fault dropping is not supported on the {backend} backend \
                     (coverage classification needs every situation tallied)"
                )
            }
            CampaignError::UnsupportedCollapse { backend } => {
                write!(
                    f,
                    "fault collapsing is not supported on the {backend} backend \
                     (no gate-level netlist to analyse)"
                )
            }
            CampaignError::UnsupportedPrune { backend } => {
                write!(
                    f,
                    "deductive pruning is not supported on the {backend} backend \
                     (no gate-level netlist to analyse)"
                )
            }
            CampaignError::UnsupportedRealisation { realisation, op } => {
                write!(
                    f,
                    "adder realisation {realisation} only applies to `+` datapaths, not `{op}`"
                )
            }
            CampaignError::ExhaustiveSpaceTooLarge { width } => {
                write!(
                    f,
                    "exhaustive input space at width {width} overflows the vector counter; \
                     use a sampled space"
                )
            }
            CampaignError::ExhaustiveDatapathTooLarge { input_bits } => {
                write!(
                    f,
                    "exhaustive enumeration over {input_bits} datapath input bits is \
                     intractable; use a sampled input space"
                )
            }
            CampaignError::TransientCycleOutOfRange {
                cycle,
                total_cycles,
            } => {
                write!(
                    f,
                    "transient fault cycle {cycle} out of range: the sequential datapath \
                     runs {total_cycles} cycles (0..{total_cycles})"
                )
            }
            CampaignError::FaultSpec { message } => {
                write!(f, "malformed fault spec: {message}")
            }
            CampaignError::ZeroShards => f.write_str("shard plans need at least one shard"),
            CampaignError::ShardIndexOutOfRange { index, count } => {
                write!(f, "shard index {index} out of range 0..{count}")
            }
            CampaignError::ShardMerge { message } => {
                write!(f, "cannot merge shard reports: {message}")
            }
            CampaignError::Io { path, message } => {
                write!(f, "checkpoint I/O error at `{path}`: {message}")
            }
            CampaignError::Parse { offset, message } => {
                write!(f, "report JSON parse error at byte {offset}: {message}")
            }
            CampaignError::Schema { field, message } => {
                write!(f, "schema error at `{field}`: {message}")
            }
        }
    }
}

impl Error for CampaignError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_are_std_errors() {
        let e = CampaignError::WidthOutOfRange { width: 99, max: 32 };
        assert!(e.to_string().contains("99"));
        let boxed: Box<dyn Error> = Box::new(e);
        assert!(boxed.to_string().contains("out of range"));
        assert!(CampaignError::ZeroThreads.to_string().contains("positive"));
        let e = CampaignError::UnsupportedDropPolicy {
            backend: Backend::Functional,
        };
        assert!(e.to_string().contains("functional"));
    }
}
