//! Gate-level netlist substrate for self-checking data-paths.
//!
//! The paper's methodology is *specification-level*: the `SCK` data type
//! expands into extra operations that a synthesis flow maps to hardware.
//! This crate plays the role of that hardware back-end: it provides
//!
//! * a small structural **netlist IR** ([`Netlist`], [`NetlistBuilder`])
//!   with two-input gates, levelized evaluation and single/multiple
//!   stuck-at fault injection on every gate output (stem) and input pin
//!   (fanout branch);
//! * **generators** for the datapath components the paper's circuits
//!   need: ripple-carry and carry-lookahead adders, add/sub units, array
//!   multipliers, restoring dividers, comparators, zero detectors and
//!   two-rail checkers;
//! * a **self-checking datapath generator** ([`gen::self_checking`])
//!   that assembles `operator × technique × width` into a netlist with a
//!   `ris` output and an `error` output — the structural realisation of
//!   the paper's overloaded operators;
//! * exports to Graphviz DOT and structural Verilog.
//!
//! Gate-level stuck-at campaigns on these netlists cross-validate the
//! functional-level coverage numbers of `scdp-coverage` (the paper's
//! claim that its test architecture is "independent of the actual
//! implementation" — exercised by comparing ripple-carry against
//! carry-lookahead realisations).
//!
//! # Example
//!
//! ```
//! use scdp_netlist::gen::rca;
//! use scdp_netlist::Word;
//!
//! let adder = rca(8);
//! let out = adder.eval_words(&[Word::from_i64(8, 100), Word::from_i64(8, -27)], &[]);
//! assert_eq!(out[0].to_i64(), 73); // sum bus
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod gen;
mod ir;

pub use ir::{
    FaultDuration, Gate, GateKind, NetId, Netlist, NetlistBuilder, ReaderTable, SeqStuckAt,
    StuckAtLine, StuckSite,
};
pub use scdp_arith::Word;
