//! `scdp-campaign` — the one scenario/campaign surface over both
//! reliability-analysis engines of the reproduction.
//!
//! The paper's central claim is that a single specification-level
//! description (the `Sck<T>` data type plus a technique selection)
//! should drive *every* downstream analysis. Before this crate the repo
//! had two rival campaign APIs: `scdp_coverage::CampaignBuilder`
//! (functional cell-level classification, Table 2) and
//! `scdp_sim::EngineCampaign` (bit-parallel gate-level PPSFP
//! simulation, §4's validation). This crate unifies them:
//!
//! * [`Scenario`] — *what* is analysed: operator, width, check policy
//!   (Table 1 technique), checker allocation, structural realisation.
//! * [`CampaignSpec`] — *how*: backend selection, fault model, input
//!   space (exhaustive / seeded Monte-Carlo), and one [`ExecPolicy`]
//!   value bundling the execution knobs — worker threads, SIMD lane
//!   width, drop policy, equivalence collapsing, deductive pruning,
//!   telemetry — shared verbatim by the datapath and sequential spec
//!   shapes.
//! * [`reduce`] — the one fault-universe pipeline behind every
//!   gate-level shape: shard slice → collapse → prune → campaign
//!   driver → fan-out, bit-identical to simulating everything.
//! * [`RunSpec`] — the one run-spec vocabulary: the [`KEYS`] table
//!   and a strict resolver behind both the command line
//!   ([`RunSpec::from_argv`]) and the job server
//!   ([`RunSpec::from_json`]).
//! * [`CampaignReport`] — one result type for both engines: four-way
//!   situation tallies, per-fault outcomes, detection/safe rates,
//!   simulated-situation counts, wall-clock, and a stable hand-written
//!   JSON serialisation (`scdp.campaign.report/v1`…`v4`) with a full
//!   parser for round-tripping.
//! * [`CampaignError`] — typed validation errors replacing the
//!   engine-room constructors' `assert!`s.
//! * [`ShardPlan`] / [`CampaignRunner`] — deterministic fault-universe
//!   partitioning with per-shard v4 checkpoints, interrupt/resume, and
//!   a [`CampaignReport::merge`] that reproduces the unsharded report
//!   bit for bit.
//!
//! # Bit-comparable backends
//!
//! With [`FaultModel::FaGate`] the gate-level backend replays the
//! functional model's `32·n` full-adder stuck-at universe as equivalent
//! multiple-stuck-at groups on the generated ripple-carry netlist
//! (via `SelfCheckingDatapath::fa_gate_fault_groups`), in the same
//! enumeration order. The same [`Scenario`] run through both backends
//! over the same exhaustive input space then yields **bit-identical**
//! four-way tallies — the paper's §4 "functional campaign, then
//! gate-level validation" flow becomes a machine-checked equality:
//!
//! ```
//! use scdp_campaign::{Backend, FaultModel, Scenario};
//! use scdp_core::{Operator, Technique};
//!
//! let scenario = Scenario::new(Operator::Add, 3).technique(Technique::Tech1);
//! let spec = scenario.campaign().fault_model(FaultModel::FaGate);
//! let functional = spec.clone().run().expect("functional");
//! let gate = spec.backend(Backend::GateLevel).run().expect("gate level");
//! assert_eq!(functional.four_way(), gate.four_way());
//! assert!(functional.same_results(&gate));
//! ```
//!
//! # Migration
//!
//! The deprecated shims are removed: the engine-room constructors
//! (`CampaignBuilder::new`, `EngineCampaign::new`) and the per-knob
//! spec setters (`threads`, `drop_policy`, `collapse`, `telemetry` on
//! the three spec shapes) — set those through [`ExecPolicy`]. The
//! engine-room entries below this surface are `CampaignBuilder::over`
//! and the `scdp_sim::Campaign` driver (`EngineCampaign::over`,
//! `SeqCampaign::new`). `docs/CAMPAIGN_API.md` has the old-call →
//! new-call table for every rewired bench binary.

#![warn(missing_docs)]

mod datapath;
mod error;
pub mod json;
mod obs;
mod reduce;
mod report;
mod runner;
mod runspec;
mod scenario;
mod seq;
mod shard;
mod spec;

pub use datapath::{
    datapath_input_plan, role_label, style_from_label, style_label, DatapathCampaignSpec,
    DatapathScenario, DfgSource, MAX_EXHAUSTIVE_INPUT_BITS,
};
pub use error::CampaignError;
pub use reduce::{reduce, Reduced};
pub use report::{
    drop_from_label, drop_label, duration_from_label, duration_label, CampaignReport,
    DatapathDetails, DeduceDetails, FaultRecord, FuTally, SequentialDetails, REPORT_SCHEMA,
    REPORT_SCHEMA_V2, REPORT_SCHEMA_V3, REPORT_SCHEMA_V4,
};
pub use runner::{write_atomic, CampaignJob, CampaignRunner, RunnerOutcome, ShardState};
pub use runspec::{
    Default, Key, KeyType, Kind, RunSpec, Value, DEFAULT_SEED, KEYS, MAX_SHARDS, MAX_THREADS,
};
pub use scenario::{
    allocation_from_label, allocation_label, op_from_label, realisation_from_label,
    realisation_label, technique_from_label, technique_label, Backend, FaultModel, Scenario,
};
pub use seq::SeqDatapathCampaignSpec;
pub use shard::{config_fingerprint, ShardInfo, ShardPlan};
pub use spec::{CampaignSpec, ExecPolicy, MAX_WIDTH};

// The shared input-space configuration and its batched twin are part of
// the unified surface: campaign front-ends configure an `InputSpace`;
// the gate-level backend converts it with `InputPlan::from_space` (also
// available as `InputPlan::from`). Re-exported so downstream code no
// longer reaches into engine crates for them.
pub use scdp_coverage::{InputSpace, Tally, TechIndex, TechTally};
pub use scdp_netlist::FaultDuration;
pub use scdp_sim::{DropPolicy, InputPlan, Lanes};

// The observability vocabulary is part of the unified surface too:
// every spec shape takes an `EventSink`, and reports embed a
// `TelemetrySnapshot` when telemetry is requested.
pub use scdp_obs::{EventSink, ObsEvent, TelemetrySnapshot};
