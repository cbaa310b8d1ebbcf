//! Parallel gate-level campaign driver with fault dropping.

use crate::batch::InputPlan;
use crate::engine::{Cones, Engine};
use crate::error::SimError;
use crate::par::{self, PoolStats};
use crate::words::{LaneWord, Lanes};
use scdp_coverage::TechTally;
use scdp_netlist::gen::SelfCheckingDatapath;
use scdp_netlist::StuckAtLine;
use scdp_obs::Recorder;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When a fault leaves the simulated universe.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DropPolicy {
    /// Keep every fault live through the whole input space, producing
    /// exact situation tallies — what coverage classification needs.
    Never,
    /// Drop a fault after the first batch in which a check fires
    /// (classic detectability fault grading). Tallies are partial.
    OnDetect,
    /// Drop a fault after the first batch containing an undetected
    /// erroneous lane — the fault is proven *unsafe* and further
    /// simulation cannot change that verdict. Tallies are partial.
    OnEscape,
}

/// Per-fault result of a campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultOutcome {
    /// Situation tallies (exact for [`DropPolicy::Never`], partial up
    /// to the dropping batch otherwise).
    pub tally: TechTally,
    /// A check fired in at least one simulated situation.
    pub detected: bool,
    /// At least one simulated situation was an undetected error.
    pub escaped: bool,
    /// Situations simulated before the fault was dropped (`None` when
    /// it stayed live to the end).
    pub dropped_after: Option<u64>,
}

/// Aggregate result of a gate-level campaign.
#[derive(Clone, Debug)]
pub struct CampaignSummary {
    /// One outcome per fault group, in universe order.
    pub per_fault: Vec<FaultOutcome>,
    /// Sum of all per-fault tallies.
    pub tally: TechTally,
    /// Situations actually simulated (drops make this smaller than
    /// `faults × vectors`).
    pub simulated: u64,
    /// The fault-free **baseline probe**: the outcome of replaying the
    /// batch stream with an empty fault group, computed once when any
    /// group was skipped via [`EngineCampaign::skip_resolved`] (`None`
    /// otherwise). Skipped entries of `per_fault` hold a copy of it.
    pub baseline: Option<FaultOutcome>,
}

impl CampaignSummary {
    /// Fraction of faults with at least one alarmed situation.
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        if self.per_fault.is_empty() {
            return 1.0;
        }
        self.per_fault.iter().filter(|f| f.detected).count() as f64 / self.per_fault.len() as f64
    }

    /// Fraction of faults that never produced an undetected error.
    #[must_use]
    pub fn safe_rate(&self) -> f64 {
        if self.per_fault.is_empty() {
            return 1.0;
        }
        self.per_fault.iter().filter(|f| !f.escaped).count() as f64 / self.per_fault.len() as f64
    }
}

/// A configured bit-parallel campaign: a compiled engine, a universe of
/// fault groups (each group is one multiple-stuck-at fault — e.g. the
/// correlated copies of one local site across unit instances), an input
/// plan, a drop policy and a lane width.
///
/// The driver splits the universe into fault blocks scheduled by the
/// work-stealing pool ([`par::run_blocks`]). Every block builds the
/// fanout cone of each of its groups once, re-generates the same
/// deterministic batch stream and simulates the good machine once per
/// (wide) batch. It then replays each live group against the batch by
/// re-evaluating only that group's cone, overlaid on the good
/// machine's values, and consumes the verdict one 64-lane limb at a
/// time. Results are therefore independent of the worker count, the
/// scheduling order *and* the lane width, and bit-identical to full
/// faulty passes.
#[derive(Clone, Debug)]
pub struct EngineCampaign<'a> {
    engine: &'a Engine,
    groups: Vec<Vec<StuckAtLine>>,
    plan: InputPlan,
    drop: DropPolicy,
    threads: usize,
    lanes: Lanes,
    range: Option<Range<usize>>,
    skip: Vec<usize>,
    recorder: Option<Arc<Recorder>>,
}

impl<'a> EngineCampaign<'a> {
    /// Starts a campaign over `groups` with exhaustive inputs, no
    /// dropping and all available cores — the engine-room entry the
    /// unified `scdp_campaign::{Scenario, CampaignSpec}` surface drives
    /// after validating the configuration with typed errors.
    #[must_use]
    pub fn over(engine: &'a Engine, groups: Vec<Vec<StuckAtLine>>) -> Self {
        let mut groups = groups;
        for g in &mut groups {
            g.sort_by_key(|f| (f.site.gate, f.site.pin));
        }
        Self {
            engine,
            groups,
            plan: InputPlan::Exhaustive,
            drop: DropPolicy::Never,
            threads: par::default_threads(),
            lanes: Lanes::Auto,
            range: None,
            skip: Vec::new(),
            recorder: None,
        }
    }

    /// Selects the input plan.
    #[must_use]
    pub fn plan(mut self, plan: InputPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Selects the drop policy.
    #[must_use]
    pub fn drop_policy(mut self, drop: DropPolicy) -> Self {
        self.drop = drop;
        self
    }

    /// Caps the worker thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        self.threads = threads;
        self
    }

    /// Selects the SIMD lane width (wide words per gate operation).
    /// Results are bit-identical at every width; [`Lanes::Auto`] picks
    /// the widest supported path.
    #[must_use]
    pub fn lanes(mut self, lanes: Lanes) -> Self {
        self.lanes = lanes;
        self
    }

    /// Restricts simulation to the universe subrange `range` — the
    /// shard-scoped iteration of a partitioned campaign. The summary's
    /// `per_fault` then covers only `range`, in universe order; because
    /// every fault replays the same deterministic batch stream
    /// independently, per-fault outcomes are bit-identical to the
    /// corresponding slice of an unrestricted run.
    ///
    /// # Panics
    ///
    /// `run` panics if the range exceeds the universe (campaign
    /// front-ends validate shard plans before reaching this driver).
    #[must_use]
    pub fn fault_range(mut self, range: Range<usize>) -> Self {
        self.range = Some(range);
        self
    }

    /// Marks fault groups as **pre-resolved**: the given indices (into
    /// the universe passed to [`EngineCampaign::over`], before any
    /// [`EngineCampaign::fault_range`] scoping) are excluded from
    /// packing and never simulated. Instead, the driver replays the
    /// batch stream once with an *empty* fault group — the fault-free
    /// baseline probe — and fills each skipped entry of
    /// `per_fault` with a copy of that outcome. For a fault proven to
    /// behave exactly like the fault-free machine (see
    /// `scdp-analyze`'s `PrunedUniverse`), this is bit-identical to
    /// simulating it under every drop policy: the baseline is silent
    /// by construction wherever the good machine is, and a silent
    /// fault is never dropped. Indices outside the scoped range are
    /// ignored, so shard geometry composes with skipping.
    #[must_use]
    pub fn skip_resolved(mut self, skip: Vec<usize>) -> Self {
        self.skip = skip;
        self
    }

    /// Attaches a telemetry recorder. The driver then counts fault
    /// groups, per-fault batch evaluations, faulty-pass gate
    /// evaluations, dropped faults and simulated situations under
    /// `engine.*` (all thread-count and shard invariant), plus
    /// per-worker busy time under `engine.busy_ns` and good-machine
    /// batch evaluations under `pool.good_evals` (which depend on the
    /// block geometry).
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The universe subrange that will be simulated.
    fn scoped(&self) -> &[Vec<StuckAtLine>] {
        match &self.range {
            None => &self.groups,
            Some(r) => {
                assert!(
                    r.start <= r.end && r.end <= self.groups.len(),
                    "fault range {r:?} exceeds the {}-group universe",
                    self.groups.len()
                );
                &self.groups[r.clone()]
            }
        }
    }

    /// Validates every in-scope fault group against the compiled
    /// netlist — call before [`EngineCampaign::run`] to surface
    /// malformed specs as typed errors instead of feeding them to the
    /// packed evaluator.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] found, in universe order.
    pub fn check(&self) -> Result<(), SimError> {
        for group in self.scoped() {
            self.engine.check_faults(group)?;
        }
        Ok(())
    }

    /// Runs the campaign.
    ///
    /// # Panics
    ///
    /// Panics if a fault group names a gate or pin the compiled
    /// netlist does not have — validate with [`EngineCampaign::check`]
    /// first for a typed error (the unified `scdp-campaign` surface
    /// does); silently dropping such lines would produce plausible but
    /// wrong tallies. Also re-raises a worker panic (see
    /// [`EngineCampaign::try_run`] for the typed-error form).
    #[must_use]
    pub fn run(&self) -> CampaignSummary {
        match self.try_run() {
            Ok(summary) => summary,
            Err(e @ SimError::WorkerPanicked { .. }) => panic!("{e}"),
            Err(e) => panic!("invalid fault spec: {e} (validate with EngineCampaign::check)"),
        }
    }

    /// Runs the campaign, surfacing malformed fault specs and worker
    /// panics as typed errors.
    ///
    /// # Errors
    ///
    /// The first [`SimError`] a fault group fails validation with, or
    /// [`SimError::WorkerPanicked`] if a pool worker panicked.
    pub fn try_run(&self) -> Result<CampaignSummary, SimError> {
        self.check()?;
        let scoped = self.scoped();
        let start = self.range.as_ref().map_or(0, |r| r.start);
        let mut skip_mask = vec![false; scoped.len()];
        for &i in &self.skip {
            if let Some(s) = i.checked_sub(start).filter(|&s| s < scoped.len()) {
                skip_mask[s] = true;
            }
        }
        let block = par::auto_block(scoped.len(), self.threads);
        let work = WorkCounters::default();
        // One fault-free probe stands in for every skipped group; its
        // limbs count toward `fault_batches` exactly like a simulated
        // group's, keeping the counter deterministic.
        let probe = [Vec::new()];
        let baseline: Option<FaultOutcome> = skip_mask.contains(&true).then(|| {
            match self.lanes.limbs() {
                1 => self.run_chunk::<1>(&probe, &[false], &work),
                4 => self.run_chunk::<4>(&probe, &[false], &work),
                _ => self.run_chunk::<8>(&probe, &[false], &work),
            }
            .pop()
            .expect("probe chunk yields one outcome")
        });
        let (mut per_fault, stats) = match self.lanes.limbs() {
            1 => par::run_blocks(scoped.len(), self.threads, block, |r| {
                self.run_chunk::<1>(&scoped[r.clone()], &skip_mask[r], &work)
            })?,
            4 => par::run_blocks(scoped.len(), self.threads, block, |r| {
                self.run_chunk::<4>(&scoped[r.clone()], &skip_mask[r], &work)
            })?,
            _ => par::run_blocks(scoped.len(), self.threads, block, |r| {
                self.run_chunk::<8>(&scoped[r.clone()], &skip_mask[r], &work)
            })?,
        };
        if let Some(b) = &baseline {
            for (o, &skipped) in per_fault.iter_mut().zip(&skip_mask) {
                if skipped {
                    *o = b.clone();
                }
            }
        }
        if let Some(rec) = &self.recorder {
            record_campaign_telemetry(
                rec,
                "engine",
                &per_fault,
                work.fault_batches.load(Ordering::Relaxed),
                &stats,
            );
            rec.add("engine.gate_evals", work.gate_evals.load(Ordering::Relaxed));
            rec.add("pool.good_evals", work.good_evals.load(Ordering::Relaxed));
        }
        let mut tally = TechTally::default();
        let mut simulated = 0u64;
        for f in &per_fault {
            tally += f.tally;
            simulated += f.tally.total();
        }
        Ok(CampaignSummary {
            per_fault,
            tally,
            simulated,
            baseline,
        })
    }

    /// Simulates one block of the fault universe on the calling worker
    /// (PPSFP inner loop, `64 * L` situations per gate operation).
    ///
    /// The block's cones are built once into one arena; per wide batch
    /// the good machine runs once over the whole netlist, and each live
    /// group costs one pass over its own cone. Wide verdicts are
    /// consumed one limb at a time in scalar-batch order — tallies,
    /// drop points, `fault_batches` (limbs tallied, the scalar path's
    /// per-batch count) and `gate_evals` (cone gates × limbs tallied)
    /// are lane-width invariant.
    fn run_chunk<const L: usize>(
        &self,
        chunk: &[Vec<StuckAtLine>],
        skip: &[bool],
        work: &WorkCounters,
    ) -> Vec<FaultOutcome> {
        let engine = self.engine;
        let mut outcomes: Vec<FaultOutcome> = vec![FaultOutcome::default(); chunk.len()];
        let mut live: Vec<usize> = (0..chunk.len())
            .filter(|&k| !skip.get(k).copied().unwrap_or(false))
            .collect();
        let mut cones = Cones::default();
        for (k, group) in chunk.iter().enumerate() {
            let skipped = skip.get(k).copied().unwrap_or(false);
            engine.push_cone(if skipped { &[] } else { group }, &mut cones);
        }
        let mut good = Vec::new();
        let mut faulty = Vec::new();
        let (mut evals, mut gate_evals, mut good_evals) = (0u64, 0u64, 0u64);
        for wide in self.plan.wide_stream::<L>(engine.input_bits()) {
            if live.is_empty() {
                break;
            }
            engine.eval_wide_into(&wide, &[], &mut good);
            good_evals += wide.limbs as u64;
            debug_assert!(
                engine.compare_wide(&good, &good, wide.mask).alarm.is_zero(),
                "good machine must be alarm-free"
            );
            faulty.clone_from(&good);
            let drop = self.drop;
            live.retain(|&k| {
                let cone = cones.get(k);
                let v = engine.eval_cone_wide(&good, &mut faulty, cone, &chunk[k], wide.mask);
                let o = &mut outcomes[k];
                let mut decided = false;
                for limb in 0..wide.limbs {
                    let (cs, cd, ed, eu) = v.limb(limb).counts();
                    evals += 1;
                    gate_evals += cone.len() as u64;
                    o.tally.correct_silent += cs;
                    o.tally.correct_detected += cd;
                    o.tally.error_detected += ed;
                    o.tally.error_undetected += eu;
                    o.detected |= cd + ed > 0;
                    o.escaped |= eu > 0;
                    decided = match drop {
                        DropPolicy::Never => false,
                        DropPolicy::OnDetect => o.detected,
                        DropPolicy::OnEscape => o.escaped,
                    };
                    if decided {
                        o.dropped_after = Some(o.tally.total());
                        break;
                    }
                }
                !decided
            });
        }
        work.fault_batches.fetch_add(evals, Ordering::Relaxed);
        work.gate_evals.fetch_add(gate_evals, Ordering::Relaxed);
        work.good_evals.fetch_add(good_evals, Ordering::Relaxed);
        outcomes
    }
}

/// The work counters the blocks of one campaign add into, flushed once
/// per campaign.
#[derive(Debug, Default)]
struct WorkCounters {
    /// Limbs tallied across every fault: the scalar path's per-fault
    /// batch count.
    fault_batches: AtomicU64,
    /// Gates evaluated in faulty passes, times the limbs tallied from
    /// each pass.
    gate_evals: AtomicU64,
    /// Good-machine batch evaluations, in limbs: one pass per block per
    /// batch, so it depends on the block geometry.
    good_evals: AtomicU64,
}

/// Flushes one campaign's telemetry into `rec` under the `prefix.*`
/// and `pool.*` namespaces. Shared by the combinational and sequential
/// drivers; one flush per campaign keeps the atomics entirely off the
/// inner loop. The `prefix.*` counters (and the situation histogram)
/// are thread-count, scheduling and lane-width invariant; the `pool.*`
/// counters describe the schedule itself — blocks, steals, per-worker
/// busy time — and are excluded from
/// `TelemetrySnapshot::deterministic_counters`.
pub(crate) fn record_campaign_telemetry(
    rec: &Recorder,
    prefix: &str,
    outcomes: &[FaultOutcome],
    batch_evals: u64,
    stats: &PoolStats,
) {
    let hist = rec.histogram(&format!("{prefix}.fault_situations"));
    let mut dropped = 0u64;
    let mut situations = 0u64;
    for o in outcomes {
        let total = o.tally.total();
        situations += total;
        dropped += u64::from(o.dropped_after.is_some());
        hist.record(total);
    }
    rec.add(&format!("{prefix}.faults"), outcomes.len() as u64);
    rec.add(&format!("{prefix}.fault_batches"), batch_evals);
    rec.add(&format!("{prefix}.faults_dropped"), dropped);
    rec.add(&format!("{prefix}.situations"), situations);
    rec.add(&format!("{prefix}.busy_ns"), stats.busy_ns());
    rec.add("pool.blocks", stats.blocks);
    rec.add("pool.steals", stats.steals);
    for (w, &busy_ns) in stats.worker_busy_ns.iter().enumerate() {
        rec.add(&format!("pool.w{w}.busy_ns"), busy_ns);
    }
}

/// Summary of one gate-level cross-validation campaign.
#[derive(Clone, Debug)]
pub struct XvalReport {
    /// Number of per-instance-local stuck-at sites (each simulated
    /// stuck-at-0 and stuck-at-1).
    pub sites: usize,
    /// Aggregate situation tallies across the whole universe.
    pub tally: TechTally,
}

impl XvalReport {
    /// The paper's coverage metric: fraction of situations that are not
    /// undetected errors.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.tally.coverage()
    }
}

fn datapath_coverage(
    dp: &SelfCheckingDatapath,
    plan: InputPlan,
    threads: usize,
    correlated: bool,
) -> XvalReport {
    let engine = Engine::new(&dp.netlist);
    let sites = dp.local_sites();
    let mut groups = Vec::with_capacity(sites.len() * 2);
    for site in &sites {
        for value in [false, true] {
            groups.push(if correlated {
                dp.correlated_fault(*site, value)
            } else {
                dp.nominal_fault(*site, value)
            });
        }
    }
    let summary = EngineCampaign::over(&engine, groups)
        .plan(plan)
        .threads(threads)
        .run();
    XvalReport {
        sites: sites.len(),
        tally: summary.tally,
    }
}

/// Full-tally coverage of a self-checking datapath under **correlated**
/// (shared physical unit) faults — the paper's worst case and the
/// workload of `gate_xval`.
#[must_use]
pub fn correlated_coverage(
    dp: &SelfCheckingDatapath,
    plan: InputPlan,
    threads: usize,
) -> XvalReport {
    datapath_coverage(dp, plan, threads, true)
}

/// Full-tally coverage with the fault confined to the nominal unit —
/// the dedicated-checker allocation (§2.1).
#[must_use]
pub fn dedicated_coverage(
    dp: &SelfCheckingDatapath,
    plan: InputPlan,
    threads: usize,
) -> XvalReport {
    datapath_coverage(dp, plan, threads, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_core::{Operator, Technique};
    use scdp_netlist::gen::{self_checking, SelfCheckingSpec};

    fn add_dp(width: u32, tech: Technique) -> SelfCheckingDatapath {
        self_checking(SelfCheckingSpec {
            op: Operator::Add,
            technique: tech,
            width,
        })
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let dp = add_dp(3, Technique::Both);
        let a = correlated_coverage(&dp, InputPlan::Exhaustive, 1);
        let b = correlated_coverage(&dp, InputPlan::Exhaustive, 4);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.sites, b.sites);
    }

    #[test]
    fn dedicated_allocation_catches_every_observable_error() {
        let dp = add_dp(3, Technique::Tech1);
        let r = dedicated_coverage(&dp, InputPlan::Exhaustive, 2);
        assert_eq!(r.tally.error_undetected, 0);
        assert!(r.tally.error_detected > 0);
    }

    #[test]
    fn correlated_faults_escape_sometimes() {
        let dp = add_dp(3, Technique::Tech1);
        let r = correlated_coverage(&dp, InputPlan::Exhaustive, 2);
        assert!(
            r.tally.error_undetected > 0,
            "shared-unit masking must exist"
        );
        assert!(r.coverage() < 1.0);
    }

    #[test]
    fn dropping_preserves_verdicts_and_saves_work() {
        let dp = add_dp(6, Technique::Both);
        let engine = Engine::new(&dp.netlist);
        let mut groups = Vec::new();
        for site in dp.local_sites() {
            for value in [false, true] {
                groups.push(dp.correlated_fault(site, value));
            }
        }
        let full = EngineCampaign::over(&engine, groups.clone())
            .drop_policy(DropPolicy::Never)
            .threads(2)
            .run();
        let dropped = EngineCampaign::over(&engine, groups)
            .drop_policy(DropPolicy::OnDetect)
            .threads(2)
            .run();
        for (f, d) in full.per_fault.iter().zip(&dropped.per_fault) {
            assert_eq!(
                f.detected, d.detected,
                "dropping must not change the verdict"
            );
        }
        assert!(
            dropped.simulated * 4 < full.simulated,
            "dropping should cut simulated situations substantially \
             ({} vs {})",
            dropped.simulated,
            full.simulated
        );
    }

    #[test]
    fn telemetry_counters_are_thread_invariant() {
        let dp = add_dp(5, Technique::Both);
        let engine = Engine::new(&dp.netlist);
        let mut groups = Vec::new();
        for site in dp.local_sites() {
            for value in [false, true] {
                groups.push(dp.correlated_fault(site, value));
            }
        }
        let run = |threads: usize| {
            let rec = Arc::new(Recorder::new());
            let summary = EngineCampaign::over(&engine, groups.clone())
                .drop_policy(DropPolicy::OnDetect)
                .threads(threads)
                .recorder(Arc::clone(&rec))
                .run();
            (summary, rec.snapshot())
        };
        let (s1, t1) = run(1);
        let (s4, t4) = run(4);
        assert_eq!(t1.deterministic_counters(), t4.deterministic_counters());
        assert_eq!(t1.histograms, t4.histograms);
        assert_eq!(t1.counter("engine.faults"), Some(groups.len() as u64));
        assert_eq!(t1.counter("engine.situations"), Some(s1.simulated));
        assert_eq!(s1.simulated, s4.simulated);
        let dropped = s1
            .per_fault
            .iter()
            .filter(|f| f.dropped_after.is_some())
            .count() as u64;
        assert_eq!(t1.counter("engine.faults_dropped"), Some(dropped));
        assert!(t1.counter("engine.busy_ns").is_some(), "busy time recorded");
        assert!(
            t1.counter("engine.fault_batches").unwrap() > 0,
            "batch evaluations recorded"
        );
        // Faulty passes cover only fanout cones: never more than a full
        // pass per tallied limb, and the same count at any thread count.
        let gate_evals = t1
            .counter("engine.gate_evals")
            .expect("gate evals recorded");
        assert_eq!(t4.counter("engine.gate_evals"), Some(gate_evals));
        assert!(gate_evals > 0);
        assert!(
            gate_evals < t1.counter("engine.fault_batches").unwrap() * engine.net_count() as u64,
            "cone passes must be cheaper than full passes"
        );
        // Good-machine passes follow the block geometry: one per block
        // per batch, so `pool.*` and outside the deterministic filter.
        let batches = InputPlan::Exhaustive
            .vector_count(engine.input_bits())
            .div_ceil(64);
        for (t, threads) in [(&t1, 1), (&t4, 4)] {
            let blocks = par::auto_block(groups.len(), threads);
            let good = t.counter("pool.good_evals").expect("good evals recorded");
            assert!(good > 0 && good <= groups.len().div_ceil(blocks) as u64 * batches);
            assert!(t
                .deterministic_counters()
                .iter()
                .all(|c| c.name != "pool.good_evals"));
        }
    }

    #[test]
    fn lane_width_does_not_change_results_even_when_dropping() {
        let dp = add_dp(5, Technique::Both);
        let engine = Engine::new(&dp.netlist);
        let mut groups = Vec::new();
        for site in dp.local_sites() {
            for value in [false, true] {
                groups.push(dp.correlated_fault(site, value));
            }
        }
        for drop in [
            DropPolicy::Never,
            DropPolicy::OnDetect,
            DropPolicy::OnEscape,
        ] {
            let run = |lanes: Lanes| {
                EngineCampaign::over(&engine, groups.clone())
                    .drop_policy(drop)
                    .threads(2)
                    .lanes(lanes)
                    .run()
            };
            let reference = run(Lanes::L1);
            for lanes in [Lanes::L4, Lanes::L8, Lanes::Auto] {
                let wide = run(lanes);
                assert_eq!(reference.tally, wide.tally, "{drop:?} {lanes:?}");
                assert_eq!(reference.simulated, wide.simulated, "{drop:?} {lanes:?}");
                for (a, b) in reference.per_fault.iter().zip(&wide.per_fault) {
                    assert_eq!(a.tally, b.tally, "{drop:?} {lanes:?}");
                    assert_eq!(a.detected, b.detected);
                    assert_eq!(a.escaped, b.escaped);
                    assert_eq!(a.dropped_after, b.dropped_after, "{drop:?} {lanes:?}");
                }
            }
        }
    }

    /// Skipping a group whose faulty machine *is* the fault-free
    /// machine (here: an empty group) must reproduce the unskipped run
    /// bit-for-bit — per-fault rows, tallies and simulated count — and
    /// expose the baseline probe.
    #[test]
    fn skipping_resolved_groups_is_bit_identical() {
        let dp = add_dp(4, Technique::Both);
        let engine = Engine::new(&dp.netlist);
        let mut groups = vec![Vec::new()];
        for site in dp.local_sites() {
            for value in [false, true] {
                groups.push(dp.correlated_fault(site, value));
            }
        }
        let mid = groups.len() / 2;
        groups.insert(mid, Vec::new());
        for drop in [DropPolicy::Never, DropPolicy::OnDetect] {
            let plain = EngineCampaign::over(&engine, groups.clone())
                .drop_policy(drop)
                .threads(2)
                .run();
            let skipped = EngineCampaign::over(&engine, groups.clone())
                .drop_policy(drop)
                .threads(2)
                .skip_resolved(vec![0, mid])
                .run();
            assert_eq!(plain.per_fault, skipped.per_fault, "{drop:?}");
            assert_eq!(plain.tally, skipped.tally);
            assert_eq!(plain.simulated, skipped.simulated);
            assert!(plain.baseline.is_none());
            let baseline = skipped.baseline.expect("probe ran");
            assert_eq!(baseline, skipped.per_fault[0]);
            assert!(!baseline.detected && !baseline.escaped);
        }
    }

    /// Skip indices address the pre-range universe; out-of-range ones
    /// are ignored, so shard scoping composes with skipping.
    #[test]
    fn skip_indices_compose_with_fault_range() {
        let dp = add_dp(4, Technique::Tech1);
        let engine = Engine::new(&dp.netlist);
        let mut groups = Vec::new();
        for site in dp.local_sites() {
            for value in [false, true] {
                groups.push(dp.correlated_fault(site, value));
            }
        }
        groups.insert(3, Vec::new());
        let range = 2..groups.len().min(8);
        let plain = EngineCampaign::over(&engine, groups.clone())
            .fault_range(range.clone())
            .threads(2)
            .run();
        let skipped = EngineCampaign::over(&engine, groups.clone())
            .fault_range(range)
            .threads(2)
            // 3 is the empty group (in range); 0 is out of range.
            .skip_resolved(vec![0, 3])
            .run();
        assert_eq!(plain.per_fault, skipped.per_fault);
        assert_eq!(plain.simulated, skipped.simulated);
    }

    #[test]
    fn try_run_surfaces_bad_specs_as_typed_errors() {
        let dp = add_dp(3, Technique::Tech1);
        let engine = Engine::new(&dp.netlist);
        let bogus = vec![vec![scdp_netlist::StuckAtLine::new(
            scdp_netlist::StuckSite {
                gate: usize::MAX,
                pin: None,
            },
            true,
        )]];
        let err = EngineCampaign::over(&engine, bogus).try_run().unwrap_err();
        assert!(matches!(err, SimError::GateOutOfRange { .. }));
    }

    #[test]
    fn sampled_campaign_is_reproducible_across_threads() {
        let dp = add_dp(6, Technique::Both);
        let plan = InputPlan::Sampled {
            vectors: 512,
            seed: 0xDA7E,
        };
        let a = correlated_coverage(&dp, plan, 1);
        let b = correlated_coverage(&dp, plan, 3);
        assert_eq!(a.tally, b.tally);
    }
}
