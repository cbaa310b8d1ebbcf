//! Datapath component generators.
//!
//! Each generator exists in two forms: a `*_into` function that appends
//! the component to an existing [`NetlistBuilder`](crate::NetlistBuilder)
//! and returns its output nets (for composition), and a top-level
//! function that wraps it into a complete [`Netlist`](crate::Netlist)
//! with named IO buses.

mod adder;
mod checker;
mod compare;
mod datapath;
mod divider;
mod interp;
mod mult;
mod seq_datapath;

pub use adder::{
    addsub, cla, cla_into, csa, csa_into, rca, rca_into, subtract_into, FaCells, RcaInstance,
};
pub use checker::{
    self_checking, self_checking_add_with, AdderRealisation, SelfCheckingDatapath,
    SelfCheckingSpec, UnitInstance,
};
pub use compare::{equal, is_zero_into, neq_into, two_rail_checker};
pub use datapath::{class_label, elaborate_datapath, ElaboratedDatapath, FuFaultRange, FuSpan};
pub use divider::{restoring_divider, restoring_divider_into};
pub use interp::{interpret_dfg, DfgEval};
pub use mult::{array_mult, array_mult_into};
pub use seq_datapath::{elaborate_seq_datapath, SeqDatapath};
