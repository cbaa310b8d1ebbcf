//! The one fault-universe reduction pipeline behind every gate-level
//! spec shape — operator ([`crate::CampaignSpec`]), unrolled datapath
//! ([`crate::DatapathCampaignSpec`]) and sequential machine
//! ([`crate::SeqDatapathCampaignSpec`]) — and the engine benches.
//!
//! [`reduce`] takes a universe of stuck-line groups and the slice a run
//! covers (the whole universe, or one shard's range) and:
//!
//! 1. **collapses** (`exec.collapse`) in two steps. The whole-universe
//!    step canonicalises the groups against the netlist's
//!    [`CollapsedUniverse`] into equivalence classes; it is the same
//!    for every slice, so a caller that runs several slices of one
//!    universe (the runner's shards) hands every run the same lazily
//!    built classes. The slice step keeps one representative group per
//!    class that intersects the covered slice, so a class whose
//!    representative lives outside the shard still simulates;
//! 2. **prunes** (`exec.prune`): untestability is one more class. Every
//!    row whose group [`PrunedUniverse`] proves untestable maps to one
//!    empty group — the fault-free machine — appended to the groups
//!    the engine grades, a map composed onto collapse's row→slot map;
//! 3. **runs** the campaign driver on the graded groups — the covered
//!    slice itself, borrowed, or what the steps above kept;
//! 4. **fans out** each engine group's verdict to every covered row,
//!    recomputes the aggregates from the fanned rows, and lists the rows
//!    whose verdict was deduced.
//!
//! Every step leaves the rows bit-identical to simulating the whole
//! covered slice, because the engine replays the same deterministic
//! batch stream for every group: a group's outcome depends only on its
//! faulty circuit function, which canonicalisation preserves (see
//! `scdp_analyze::collapse`), and an untestable group's function *is*
//! the fault-free one — valid per cycle, so on combinational and
//! sequential netlists alike. The driver's telemetry counts only the
//! groups it graded. Shard geometry is computed on the original
//! universe before any of this, so collapse-then-shard,
//! shard-then-collapse and prune-then-shard all coincide, and the
//! configuration fingerprint never depends on `collapse` or `prune`.

use crate::error::CampaignError;
use crate::obs::RunCtx;
use crate::report::{DeduceDetails, FaultRecord, FuTally};
use crate::scenario::{Backend, FaultModel};
use crate::shard::ShardInfo;
use crate::spec::ExecPolicy;
use scdp_analyze::{CollapsedGroups, CollapsedUniverse, PrunedUniverse, Verdict};
use scdp_coverage::TechTally;
use scdp_netlist::gen::FuFaultRange;
use scdp_netlist::{Netlist, StuckAtLine};
use scdp_obs::EventSink;
use scdp_sim::{Campaign, FaultEngine, InputPlan};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::ops::Range;

/// What one reduced run produced for the covered slice of a universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reduced {
    /// One row per covered universe index, in universe order.
    pub per_fault: Vec<FaultRecord>,
    /// Sum of the rows' tallies.
    pub tally: TechTally,
    /// Situations the rows account for.
    pub simulated: u64,
    /// Aggregate per-cycle first-detection histogram of the rows
    /// (sequential engines; empty on combinational ones).
    pub first_detect: Vec<u64>,
    /// The deduction breakdown, present when `exec.prune` is on.
    pub deduce: Option<DeduceDetails>,
    /// The covered universe slice the rows stand for.
    covered: Range<u64>,
}

impl Reduced {
    /// Folds one functional unit's covered rows into `unit`, whose
    /// descriptive fields the caller filled: the unit's universe range
    /// is intersected with the covered slice.
    pub(crate) fn fu_tally(&self, unit: FuTally, range: &FuFaultRange) -> FuTally {
        let lo = (range.start as u64).max(self.covered.start);
        let hi = (range.end as u64).min(self.covered.end);
        let mut unit = FuTally {
            faults: hi.saturating_sub(lo),
            ..unit
        };
        for i in lo..hi {
            let f = &self.per_fault[(i - self.covered.start) as usize];
            unit.tally += f.tally;
            unit.detected += u64::from(f.detected);
            unit.escaped += u64::from(f.escaped);
        }
        unit
    }
}

/// Runs the covered slice of `groups` (the shard's range, or the whole
/// universe when `shard` is `None`) through collapse, prune, the
/// campaign `campaign` builds on `engine` over the surviving groups,
/// and fan-out — the pipeline every gate-level spec shape runs. `exec`
/// supplies the threads, lanes, drop policy and the collapse/prune
/// switches; its `telemetry` flag is ignored here (spec runs record
/// telemetry).
///
/// # Errors
///
/// [`CampaignError::FaultSpec`] when a group names a gate or pin the
/// engine's netlist does not have, or lists its lines out of gate
/// order.
#[allow(clippy::too_many_arguments)]
pub fn reduce<E: FaultEngine>(
    netlist: &Netlist,
    groups: &[Vec<StuckAtLine>],
    shard: Option<ShardInfo>,
    plan: InputPlan,
    exec: &ExecPolicy,
    engine: &E,
    campaign: impl for<'a> FnOnce(&'a E, &'a [Vec<StuckAtLine>]) -> Campaign<'a, E>,
) -> Result<Reduced, CampaignError> {
    let ctx = RunCtx::start(Backend::GateLevel, FaultModel::Structural, None, false);
    let classes = OnceCell::new();
    reduce_in(
        &ctx, netlist, groups, &classes, shard, plan, exec, engine, campaign,
    )
}

/// [`reduce`] under a run's observability context: spans
/// `campaign/collapse`, `campaign/deduce`, `campaign/simulate` and
/// `campaign/tally`, plus the `collapse.*`/`deduce.*` counters and the
/// driver's telemetry when the run records it.
///
/// `groups` is the whole universe, borrowed: the uncollapsed engine
/// grades the covered slice of it in place. `classes` caches the
/// universe's collapse classes; a collapsed run builds them, inside its
/// `campaign/collapse` span, only if no earlier run sharing the cell
/// did (`pool.collapse_builds` counts the builds).
#[allow(clippy::too_many_arguments)]
pub(crate) fn reduce_in<E: FaultEngine>(
    ctx: &RunCtx,
    netlist: &Netlist,
    groups: &[Vec<StuckAtLine>],
    classes: &OnceCell<CollapsedGroups>,
    shard: Option<ShardInfo>,
    plan: InputPlan,
    exec: &ExecPolicy,
    engine: &E,
    campaign: impl for<'a> FnOnce(&'a E, &'a [Vec<StuckAtLine>]) -> Campaign<'a, E>,
) -> Result<Reduced, CampaignError> {
    let universe = groups.len();
    let covered = shard.map_or(0..universe as u64, |s| s.fault_start..s.fault_end);
    let slice = covered.start as usize..covered.end as usize;
    let covered_len = slice.len();
    // The groups the engine grades and each covered row's slot among
    // them: the covered slice itself, borrowed, until a reduction step
    // maps rows onto fewer groups.
    let (mut graded, mut slot_of, collapsed) = if exec.collapse {
        let span = ctx.span("collapse");
        let cg = classes.get_or_init(|| {
            ctx.record_build("pool.collapse_builds");
            CollapsedUniverse::build(netlist).collapse_groups(groups)
        });
        let (reps, slot_of) = representatives(cg, slice.clone());
        span.close();
        ctx.record_collapse(universe, reps.len(), cg.rep_groups.len());
        (Cow::Owned(reps), slot_of, Some(cg))
    } else {
        (
            Cow::Borrowed(&groups[slice.clone()]),
            (0..covered_len).collect(),
            None,
        )
    };
    // The engine slot of the one empty group every untestable row maps
    // to, when pruning found any.
    let mut empty_slot = None;
    if exec.prune {
        let span = ctx.span("deduce");
        let pu = PrunedUniverse::build(netlist, &graded);
        span.close();
        if pu.untestable_count() > 0 {
            // Testable groups keep their order; the empty group goes last.
            let empty = graded.len() - pu.untestable_count();
            let mut remap = vec![empty; graded.len()];
            let mut kept: Vec<_> = (0..graded.len())
                .filter(|&s| pu.verdict(s) == Verdict::MustSimulate)
                .enumerate()
                .map(|(k, s)| {
                    remap[s] = k;
                    graded[s].clone()
                })
                .collect();
            kept.push(Vec::new());
            slot_of.iter_mut().for_each(|s| *s = remap[*s]);
            graded = Cow::Owned(kept);
            empty_slot = Some(empty);
        }
    }

    let mut run = campaign(engine, &graded)
        .plan(plan)
        .drop_policy(exec.drop)
        .lanes(exec.lanes);
    if let Some(rec) = ctx.recorder() {
        run = run.recorder(rec);
    }
    if let Some(t) = exec.threads {
        run = run.threads(t);
    }
    run.check().map_err(|e| CampaignError::FaultSpec {
        message: e.to_string(),
    })?;
    let sim = ctx.span("simulate");
    let summary = run.run();
    sim.close();

    let tally_span = ctx.span("tally");
    let deduced = |i: usize| Some(slot_of[i]) == empty_slot;
    let deduce = exec.prune.then(|| {
        // Each class counts once across the shards of a universe: in
        // the shard holding its first member.
        let (untestable, simulated): (Vec<_>, Vec<_>) = (0..covered_len)
            .filter(|&i| {
                let u = slice.start + i;
                collapsed.is_none_or(|cg| cg.rep_index[cg.class_of[u]] == u)
            })
            .partition(|&i| deduced(i));
        let (untestable, simulated) = (untestable.len() as u64, simulated.len() as u64);
        ctx.record_deduce(untestable, simulated);
        DeduceDetails {
            untestable,
            simulated,
            rows: (0..covered_len)
                .filter(|&i| deduced(i))
                .map(|i| i as u64)
                .collect(),
        }
    });
    let mut reduced = Reduced {
        per_fault: Vec::with_capacity(covered_len),
        tally: TechTally::default(),
        simulated: 0,
        first_detect: vec![0; summary.first_detect.len()],
        deduce,
        covered,
    };
    for &s in &slot_of {
        let o = &summary.per_fault[s];
        reduced.tally += o.tally;
        reduced.simulated += o.tally.total();
        for (h, n) in reduced.first_detect.iter_mut().zip(&o.first_detect) {
            *h += n;
        }
        reduced.per_fault.push(FaultRecord::from(o));
    }
    tally_span.close();
    Ok(reduced)
}

/// The slice step of collapsing: the representatives of the classes
/// `cg` that intersect `covered`, in first-use order, and the slot of
/// each covered group among them.
fn representatives(
    cg: &CollapsedGroups,
    covered: Range<usize>,
) -> (Vec<Vec<StuckAtLine>>, Vec<usize>) {
    let mut slot = vec![None; cg.rep_groups.len()];
    let mut reps = Vec::new();
    let slot_of = covered
        .map(|i| {
            let class = cg.class_of[i];
            *slot[class].get_or_insert_with(|| {
                reps.push(cg.rep_groups[class].clone());
                reps.len() - 1
            })
        })
        .collect();
    (reps, slot_of)
}

/// Validates the run knobs every spec shape shares: a nonzero thread
/// cap and a well-formed shard selection.
pub(crate) fn validate_exec(
    exec: &ExecPolicy,
    shard: Option<(u32, u32)>,
) -> Result<(), CampaignError> {
    if exec.threads == Some(0) {
        return Err(CampaignError::ZeroThreads);
    }
    if let Some((index, count)) = shard {
        if count == 0 {
            return Err(CampaignError::ZeroShards);
        }
        if index >= count {
            return Err(CampaignError::ShardIndexOutOfRange { index, count });
        }
    }
    Ok(())
}

/// Opens the observability context of a datapath run (gate level,
/// structural faults) after validation.
pub(crate) fn start_ctx(events: &Option<EventSink>, exec: &ExecPolicy) -> RunCtx {
    RunCtx::start(
        Backend::GateLevel,
        FaultModel::Structural,
        events.clone(),
        exec.telemetry,
    )
}
