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
//!    class that intersects the covered slice. Representatives are
//!    passed to the engine as explicit groups, never via `fault_range`,
//!    so a class whose representative lives outside the shard still
//!    simulates;
//! 2. **prunes** (`exec.prune`): groups with an untestability proof
//!    ([`PrunedUniverse`]) skip simulation and take the fault-free
//!    baseline probe outcome, which the driver computes over the exact
//!    batch stream a simulated group would see — valid per cycle, so on
//!    combinational and sequential netlists alike;
//! 3. **runs** the campaign driver on what is left;
//! 4. **fans out** each engine group's verdict to every covered member,
//!    recomputes the aggregates from the fanned rows, and lists the rows
//!    whose verdict was deduced.
//!
//! Every step leaves the rows bit-identical to simulating the whole
//! covered slice, because the engine replays the same deterministic
//! batch stream for every group: a group's outcome depends only on its
//! faulty circuit function, which canonicalisation preserves (see
//! `scdp_analyze::collapse`), and an untestable group's function *is*
//! the fault-free one. Shard geometry is computed on the original
//! universe before any of this, so collapse-then-shard,
//! shard-then-collapse and prune-then-shard all coincide, and the
//! configuration fingerprint never depends on `collapse` or `prune`.

use crate::error::CampaignError;
use crate::obs::RunCtx;
use crate::report::{DeduceDetails, FaultRecord, FuTally};
use crate::scenario::{Backend, FaultModel};
use crate::shard::ShardInfo;
use crate::spec::ExecPolicy;
use scdp_analyze::{CollapsedGroups, CollapsedUniverse, PrunedUniverse};
use scdp_coverage::TechTally;
use scdp_netlist::gen::FuFaultRange;
use scdp_netlist::{Netlist, StuckAtLine};
use scdp_obs::EventSink;
use scdp_sim::{Campaign, FaultEngine, InputPlan};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashMap;
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
/// campaign `campaign` builds over the surviving groups, and fan-out —
/// the pipeline every gate-level spec shape runs. `exec` supplies the
/// threads, lanes, drop policy and the collapse/prune switches; its
/// `telemetry` flag is ignored here (spec runs record telemetry).
///
/// # Errors
///
/// [`CampaignError::FaultSpec`] when a group names a gate or pin the
/// engine's netlist does not have.
pub fn reduce<'e, E: FaultEngine + 'e>(
    netlist: &Netlist,
    groups: Vec<Vec<StuckAtLine>>,
    shard: Option<ShardInfo>,
    plan: InputPlan,
    exec: &ExecPolicy,
    campaign: impl FnOnce(Vec<Vec<StuckAtLine>>) -> Campaign<'e, E>,
) -> Result<Reduced, CampaignError> {
    let ctx = RunCtx::start(Backend::GateLevel, FaultModel::Structural, None, false);
    let classes = OnceCell::new();
    reduce_in(
        &ctx,
        netlist,
        Cow::Owned(groups),
        &classes,
        shard,
        plan,
        exec,
        campaign,
    )
}

/// [`reduce`] under a run's observability context: spans
/// `campaign/collapse`, `campaign/deduce`, `campaign/simulate` and
/// `campaign/tally`, plus the `collapse.*`/`deduce.*` counters and the
/// driver's telemetry when the run records it.
///
/// `groups` is the whole universe: owned when this run is its only
/// user (the uncollapsed engine then takes it whole, scoped by
/// `fault_range`), borrowed when several runs share it (the engine then
/// gets a copy of the covered slice). `classes` caches the universe's
/// collapse classes; a collapsed run builds them, inside its
/// `campaign/collapse` span, only if no earlier run sharing the cell
/// did (`pool.collapse_builds` counts the builds).
#[allow(clippy::too_many_arguments)]
pub(crate) fn reduce_in<'e, E: FaultEngine + 'e>(
    ctx: &RunCtx,
    netlist: &Netlist,
    groups: Cow<'_, [Vec<StuckAtLine>]>,
    classes: &OnceCell<CollapsedGroups>,
    shard: Option<ShardInfo>,
    plan: InputPlan,
    exec: &ExecPolicy,
    campaign: impl FnOnce(Vec<Vec<StuckAtLine>>) -> Campaign<'e, E>,
) -> Result<Reduced, CampaignError> {
    let universe = groups.len();
    let covered = shard.map_or(0..universe as u64, |s| s.fault_start..s.fault_end);
    let slice = covered.start as usize..covered.end as usize;
    let (sim_groups, slot_of, scope) = if exec.collapse {
        let span = ctx.span("collapse");
        let cg = classes.get_or_init(|| {
            ctx.record_build("pool.collapse_builds");
            CollapsedUniverse::build(netlist).collapse_groups(&groups)
        });
        let (reps, slot_of) = representatives(cg, slice);
        span.close();
        ctx.record_collapse(universe, reps.len(), cg.rep_groups.len());
        let scope = 0..reps.len();
        (reps, Some(slot_of), scope)
    } else {
        match groups {
            Cow::Owned(all) => (all, None, slice),
            Cow::Borrowed(all) => (all[slice.clone()].to_vec(), None, 0..slice.len()),
        }
    };
    let untestable: Vec<usize> = if exec.prune {
        let span = ctx.span("deduce");
        let pu = PrunedUniverse::build(netlist, &sim_groups[scope.clone()]);
        span.close();
        pu.untestable_indices()
            .iter()
            .map(|&i| i + scope.start)
            .collect()
    } else {
        Vec::new()
    };

    let mut run = campaign(sim_groups)
        .plan(plan)
        .drop_policy(exec.drop)
        .lanes(exec.lanes)
        .fault_range(scope.clone())
        .skip_resolved(untestable.clone());
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
    let slot = |i: usize| slot_of.as_ref().map_or(i, |s| s[i]);
    let covered_len = (covered.end - covered.start) as usize;
    let deduce = exec.prune.then(|| {
        let mut deduced = vec![false; scope.len()];
        for &u in &untestable {
            deduced[u - scope.start] = true;
        }
        let untestable = untestable.len() as u64;
        let simulated = scope.len() as u64 - untestable;
        ctx.record_deduce(untestable, simulated);
        DeduceDetails {
            untestable,
            simulated,
            rows: (0..covered_len)
                .filter(|&i| deduced[slot(i)])
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
    for i in 0..covered_len {
        let o = &summary.per_fault[slot(i)];
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
    let mut slot: HashMap<usize, usize> = HashMap::new();
    let mut reps = Vec::new();
    let slot_of = covered
        .map(|i| {
            let class = cg.class_of[i];
            *slot.entry(class).or_insert_with(|| {
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
