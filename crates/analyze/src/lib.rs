//! Static netlist analysis for self-checking data-paths.
//!
//! Four layers over [`scdp_netlist::Netlist`], all pure structural
//! analysis (no simulation):
//!
//! * [`collapse`] — classic stuck-at fault-equivalence collapsing.
//!   [`CollapsedUniverse`] maps every [`scdp_netlist::StuckAtLine`] to
//!   an equivalence-class representative whose *complete faulty
//!   function* matches, so campaign engines can simulate
//!   representatives only and fan verdicts back out bit-identically
//!   (`scdp-campaign`'s `.collapse(true)`).
//! * [`deduce`] — deductive untestability proofs. [`PrunedUniverse`]
//!   classifies fault groups that provably behave like the fault-free
//!   machine on every vector (constant-redundant, blocked-path, or
//!   unobservable-cone), so campaigns can settle them from a baseline
//!   probe without simulating (`scdp-campaign`'s `.prune(true)`).
//! * [`dominance`] — [`DominatorChains`] closes
//!   [`CollapsedUniverse::dominance_edges`] into per-line dominator
//!   chains: a dominator that simulates completely silent settles
//!   every line it dominates. No campaign path uses them
//!   (`.prune(true)` settles groups by [`PrunedUniverse`] proofs
//!   only); the benchmark harness still times them.
//! * [`lint()`] — structural sanity checks that catch elaboration bugs
//!   (floating nets, combinational cycles, dead logic, alarms that can
//!   never fire or never observe a region) before any vector runs;
//!   surfaced on the CLI as `scdp lint`.

pub mod collapse;
pub mod deduce;
pub mod dominance;
pub mod lint;

pub use collapse::{CollapsedGroups, CollapsedUniverse};
pub use deduce::{PrunedUniverse, UntestableReason, Verdict};
pub use dominance::DominatorChains;
pub use lint::{lint, Diagnostic, LintOptions, LintReport, Severity};
