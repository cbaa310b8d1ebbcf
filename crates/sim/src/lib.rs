//! `scdp-sim` — bit-parallel (PPSFP) stuck-at fault simulation for the
//! gate-level campaigns of the reproduction.
//!
//! # Why this crate exists
//!
//! The paper's evaluation (§4, Tables 1–2) rests on exhaustive fault
//! campaigns. The scalar path — [`scdp_netlist::Netlist::eval_nets`] —
//! walks the whole netlist once per `(fault, input)` *situation*,
//! carrying one `bool` per net and scanning the fault list at every gate
//! read: `O(faults × inputs × gates × |fault list|)`. That makes the
//! gate-level cross-validation (`gate_xval`) minutes-slow at 8 bits and
//! infeasible at 16. This crate implements the two classic remedies:
//!
//! * **PPSFP packing** (parallel-pattern single-fault propagation): 64
//!   input vectors are packed into one `u64` per net ([`InputBatch`],
//!   [`LANES`]). Each gate evaluates 64 situations with a single bitwise
//!   operation; the good machine is simulated **once per batch** and its
//!   packed net values are compared against each fault's re-simulation.
//!   A stuck-at fault is injected by splatting the stuck value across
//!   the word at the faulty stem, or by overriding one operand word at a
//!   faulty input pin — faults touch only their own gate, so the fast
//!   path stays branch-free.
//! * **Fault dropping** ([`DropPolicy`]): a fault leaves the simulated
//!   universe as soon as its verdict is decided. Detection-style
//!   campaigns drop on the first alarmed batch
//!   ([`DropPolicy::OnDetect`]); safeness-style campaigns drop on the
//!   first *undetected erroneous* lane ([`DropPolicy::OnEscape`]).
//!   Coverage classification in the paper's situation taxonomy —
//!   `CorrectSilent` / `CorrectDetected` / `ErrorDetected` /
//!   `ErrorUndetected` ratios over the full input space — needs every
//!   situation tallied, so [`DropPolicy::Never`] keeps all faults live
//!   and returns exact per-fault [`scdp_coverage::TechTally`] counts.
//!
//! A third remedy extends both to the time axis: the **sequential
//! engine** ([`SeqEngine`], [`SeqCampaign`]) evaluates netlists with
//! [`scdp_netlist::GateKind::Dff`] state cells cycle by cycle, carrying
//! a packed per-cycle state vector. Faults gain a [`FaultDuration`]
//! (permanent structural defects vs single-cycle transients) and every
//! detection records the cycle it first fired in — the per-cycle
//! detection-latency axis of the sequential datapath campaigns.
//!
//! On top sits one **parallel campaign driver** ([`Campaign`], generic
//! over the [`FaultEngine`] it grades faults on; [`EngineCampaign`] and
//! [`SeqCampaign`] name its two instances): the fault universe is split
//! into small blocks scheduled by a work-stealing pool ([`par::run_blocks`]), every block regenerates
//! the same deterministic batch stream (so results are independent of
//! thread count and scheduling), and per-block results are merged in
//! block order at the join barrier. `rayon` would provide the same
//! fork-join shape, but the build environment is offline, so the pool
//! uses `std::thread::scope` and an atomic work index directly. The
//! packing itself is lane-width generic ([`Words`], [`Lanes`]): the
//! drivers default to 8×`u64` wide words — 512 situations per gate
//! operation, which amortise one gate-kind dispatch over 512 lanes
//! (the limb ops compile to the x86-64 SSE2 baseline, two limbs per
//! instruction) — and consume verdicts limb by limb so every tally,
//! drop point and latency histogram stays bit-identical to the 64-lane
//! path. Every evaluation loop of both engines runs one inlined gate
//! kernel: the fanin words are loaded once, pin faults are splatted
//! into them, and one `match` on the gate's kind computes the output.
//!
//! # Relation to the paper's situation taxonomy
//!
//! The paper classifies each `(fault, input)` situation by whether the
//! nominal result is wrong (*observable*) and whether any check fired
//! (*detected*). At gate level those map to packed masks: `wrong` — OR
//! over the result-bus nets of `good XOR faulty` — and `alarm` — OR over
//! the `error`-bus nets of the faulty values. The four taxonomy classes
//! are bit-sliced out of `wrong`/`alarm` with two AND-NOTs and counted
//! with `count_ones`, 64 situations at a time ([`BatchOutcome`]).
//!
//! # Example
//!
//! ```
//! use scdp_core::{Operator, Technique};
//! use scdp_netlist::gen::{self_checking, SelfCheckingSpec};
//! use scdp_sim::{correlated_coverage, DropPolicy, InputPlan};
//!
//! let dp = self_checking(SelfCheckingSpec {
//!     op: Operator::Add,
//!     technique: Technique::Both,
//!     width: 4,
//! });
//! let report = correlated_coverage(&dp, InputPlan::Exhaustive, 2);
//! // Shared-unit masking leaves a small uncovered tail (cf. Table 2).
//! assert!(report.tally.coverage() > 0.9);
//! assert!(report.tally.error_undetected > 0);
//! ```

#![warn(missing_docs)]

mod batch;
mod campaign;
mod engine;
mod error;
pub mod par;
mod seq;
mod words;

pub use batch::{BatchStream, InputBatch, InputPlan, WideBatch, WideStream, LANES};
pub use campaign::{
    correlated_coverage, dedicated_coverage, BlockWork, Campaign, CampaignSummary, DropPolicy,
    EngineCampaign, FaultEngine, FaultOutcome, SeqCampaign, Verdict, XvalReport,
};
pub use engine::{BatchOutcome, Engine, WideOutcome};
pub use error::SimError;
pub use par::PoolStats;
pub use scdp_netlist::FaultDuration;
pub use seq::{mean_detection_latency, SeqBatchOutcome, SeqEngine};
pub use words::{LaneWord, Lanes, Words};
