//! The parallel gate-level campaign driver with fault dropping — one
//! driver, generic over the engine it grades fault groups on
//! ([`FaultEngine`]: the combinational [`Engine`] and the
//! cycle-accurate [`crate::SeqEngine`]).

use crate::batch::InputPlan;
use crate::engine::{Engine, WideOutcome};
use crate::error::SimError;
use crate::par;
use crate::seq::{mean_detection_latency, SeqEngine};
use crate::words::{Lanes, Words};
use scdp_coverage::TechTally;
use scdp_netlist::gen::SelfCheckingDatapath;
use scdp_netlist::{FaultDuration, StuckAtLine};
use scdp_obs::Recorder;
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
    /// `first_detect[c]` — situations whose alarm fired first in cycle
    /// `c`, one entry per cycle on a sequential engine (empty on a
    /// combinational one). Sums to the number of detected situations
    /// (partial under dropping, like the tallies).
    pub first_detect: Vec<u64>,
}

/// Aggregate result of a campaign.
#[derive(Clone, Debug)]
pub struct CampaignSummary {
    /// One outcome per fault group, in universe order.
    pub per_fault: Vec<FaultOutcome>,
    /// Sum of all per-fault tallies.
    pub tally: TechTally,
    /// Situations actually simulated (drops make this smaller than
    /// `faults × vectors`).
    pub simulated: u64,
    /// Aggregate first-detection histogram over all faults, one entry
    /// per cycle (empty for combinational campaigns).
    pub first_detect: Vec<u64>,
    /// Cycles each situation ran (1 for combinational campaigns).
    pub cycles: u32,
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

    /// Mean first-detection latency in cycles over all detected
    /// situations (`None` when nothing was detected or the campaign
    /// has no cycle axis).
    #[must_use]
    pub fn mean_detection_latency(&self) -> Option<f64> {
        mean_detection_latency(&self.first_detect)
    }
}

/// One fault group's verdict on one wide batch (`64 * L` vectors),
/// handed by a [`FaultEngine`] to the driver, which consumes it one
/// 64-lane limb at a time in scalar-batch order.
#[derive(Debug)]
pub struct Verdict<'a, const L: usize> {
    /// Wrong-result and alarm lanes against the good machine.
    pub outcome: WideOutcome<L>,
    /// `first_detect[c]` — lanes whose alarm fired first in cycle `c`
    /// (empty on a combinational engine).
    pub first_detect: &'a [Words<L>],
    /// Limbs of the batch that carry real vectors.
    pub limbs: usize,
    /// Gates the faulty pass evaluated, counted once per limb tallied
    /// (`engine.gate_evals`).
    pub gate_evals: u64,
}

/// The schedule-dependent work of one [`FaultEngine::simulate_block`]
/// call, exported under `pool.*`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockWork {
    /// Good-machine batch evaluations, in limbs (`pool.good_evals`).
    pub good_evals: u64,
    /// Fanout cones built (`pool.cones_built`; 0 on an engine without
    /// cones).
    pub cones_built: u64,
}

/// A compiled netlist the campaign driver grades fault groups on. A
/// fault group — the unit of injection — is one multiple-stuck-at
/// fault: stuck lines forced together, in gate order.
///
/// The driver owns everything around the simulation — lane dispatch,
/// block scheduling, the per-limb tally and drop step, and telemetry —
/// and calls
/// [`FaultEngine::simulate_block`] once per block with the lane width
/// as a constant, so the hot loop is statically dispatched.
pub trait FaultEngine: Sync {
    /// Telemetry namespace of the driver's per-campaign counters.
    const PREFIX: &'static str;
    /// Whether verdicts carry a per-cycle first-detection axis.
    const TRACKS_LATENCY: bool;

    /// Validates one fault group against the compiled netlist: every
    /// line must name an existing gate and, for pin faults, an input
    /// pin the gate actually has, and the lines must be in gate order.
    /// Campaign drivers call this for every group *before* simulation,
    /// so a malformed spec becomes a typed error instead of aborting a
    /// running (possibly sharded) campaign.
    ///
    /// # Errors
    ///
    /// The first [`SimError`] found, in line order.
    fn check(&self, group: &[StuckAtLine]) -> Result<(), SimError>;

    /// Simulates every group of `chunk` over `plan`'s deterministic
    /// batch stream, each situation running `cycles` clock cycles with
    /// the lines forced in the cycles `duration` is active in. Every
    /// live group's verdict on every batch goes to `tally` with the
    /// group's index in `chunk`; `tally` returns `false` once the group
    /// is dropped, and the engine then stops simulating it. An empty
    /// group is the fault-free machine. Returns the block's
    /// schedule-dependent work.
    fn simulate_block<const L: usize, F>(
        &self,
        chunk: &[Vec<StuckAtLine>],
        plan: InputPlan,
        cycles: u32,
        duration: FaultDuration,
        tally: F,
    ) -> BlockWork
    where
        F: FnMut(usize, &Verdict<'_, L>) -> bool;
}

/// A configured bit-parallel campaign: a compiled engine, the borrowed
/// slice of fault groups it grades (each group is one multiple-stuck-at
/// fault — e.g. the correlated copies of one local site across unit
/// instances — with its lines in gate order), an input plan, a drop
/// policy and a lane width.
///
/// A shard of a partitioned campaign is graded by handing the driver
/// that shard's slice: because every group replays the same
/// deterministic batch stream independently, per-fault outcomes are
/// bit-identical to the corresponding slice of a run over the whole
/// universe.
///
/// The driver splits its groups into fault blocks scheduled by the
/// work-stealing pool ([`par::run_blocks`]). Every block re-generates
/// the same deterministic batch stream and shares one good-machine
/// evaluation per (wide) batch across its groups; each live group's
/// verdict is consumed one 64-lane limb at a time. Results are
/// therefore independent of the worker count, the scheduling order
/// *and* the lane width.
#[derive(Clone, Debug)]
pub struct Campaign<'a, E: FaultEngine> {
    engine: &'a E,
    groups: &'a [Vec<StuckAtLine>],
    cycles: u32,
    duration: FaultDuration,
    plan: InputPlan,
    drop: DropPolicy,
    threads: usize,
    lanes: Lanes,
    recorder: Option<Arc<Recorder>>,
}

/// A combinational campaign on [`Engine`]: each group's faulty pass
/// covers only the fanout cone of its sites, overlaid on the good
/// machine, bit-identical to full faulty passes.
pub type EngineCampaign<'a> = Campaign<'a, Engine>;

/// A cycle-accurate campaign on [`SeqEngine`]: a fixed cycle count per
/// situation, one fault duration for every group, and a per-cycle
/// first-detection histogram.
pub type SeqCampaign<'a> = Campaign<'a, SeqEngine>;

impl<'a> Campaign<'a, Engine> {
    /// Starts a campaign over `groups` with exhaustive inputs, no
    /// dropping and all available cores — the engine-room entry the
    /// unified `scdp_campaign::{Scenario, CampaignSpec}` surface drives
    /// after validating the configuration with typed errors.
    #[must_use]
    pub fn over(engine: &'a Engine, groups: &'a [Vec<StuckAtLine>]) -> Self {
        Self::with_engine(engine, groups, 1, FaultDuration::Permanent)
    }
}

impl<'a> Campaign<'a, SeqEngine> {
    /// Starts a campaign over `groups`, each run for `cycles` clock
    /// cycles per input vector with its lines forced in the cycles
    /// `duration` is active in, with exhaustive inputs, no dropping and
    /// all available cores.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is 0.
    #[must_use]
    pub fn new(
        engine: &'a SeqEngine,
        groups: &'a [Vec<StuckAtLine>],
        cycles: u32,
        duration: FaultDuration,
    ) -> Self {
        assert!(cycles > 0, "at least one cycle required");
        Self::with_engine(engine, groups, cycles, duration)
    }
}

impl<'a, E: FaultEngine> Campaign<'a, E> {
    fn with_engine(
        engine: &'a E,
        groups: &'a [Vec<StuckAtLine>],
        cycles: u32,
        duration: FaultDuration,
    ) -> Self {
        Self {
            engine,
            groups,
            cycles,
            duration,
            plan: InputPlan::Exhaustive,
            drop: DropPolicy::Never,
            threads: par::default_threads(),
            lanes: Lanes::Auto,
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

    /// Attaches a telemetry recorder. The driver then counts fault
    /// groups, per-fault batch evaluations, faulty-pass gate
    /// evaluations, dropped faults and simulated situations (plus
    /// evaluated cycles on a sequential engine) under the engine's
    /// prefix (`engine.*` or `seq.*`; all thread-count invariant, and
    /// additive over campaigns on disjoint slices), per-worker busy time under `<prefix>.busy_ns`, and
    /// the schedule itself — blocks, steals, good-machine batch
    /// evaluations — under `pool.*`.
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Validates every fault group against the compiled netlist — call
    /// before [`Campaign::run`] to surface malformed specs (a line on a
    /// gate or pin the netlist does not have, or lines out of gate
    /// order) as typed errors instead of feeding them to the packed
    /// evaluator.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] found, in group order.
    pub fn check(&self) -> Result<(), SimError> {
        self.groups.iter().try_for_each(|g| self.engine.check(g))
    }

    /// Runs the campaign.
    ///
    /// # Panics
    ///
    /// Panics if a fault group names a gate or pin the compiled
    /// netlist does not have, or lists its lines out of gate order —
    /// validate with [`Campaign::check`] first for a typed error (the
    /// unified `scdp-campaign` surface does); silently dropping such
    /// lines would produce plausible but wrong tallies. Also re-raises a worker panic (see
    /// [`Campaign::try_run`] for the typed-error form).
    #[must_use]
    pub fn run(&self) -> CampaignSummary {
        match self.try_run() {
            Ok(summary) => summary,
            Err(e @ SimError::WorkerPanicked { .. }) => panic!("{e}"),
            Err(e) => panic!("invalid fault spec: {e} (validate with Campaign::check)"),
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
        let groups = self.groups;
        let work = WorkCounters::default();
        let block = par::auto_block(groups.len(), self.threads);
        let (per_fault, stats) = par::run_blocks(groups.len(), self.threads, block, |r| {
            let chunk = &groups[r];
            match self.lanes.limbs() {
                1 => self.run_block::<1>(chunk, &work),
                4 => self.run_block::<4>(chunk, &work),
                _ => self.run_block::<8>(chunk, &work),
            }
        })?;
        let mut tally = TechTally::default();
        let mut simulated = 0u64;
        let mut first_detect = vec![0u64; self.hist_len()];
        for f in &per_fault {
            tally += f.tally;
            simulated += f.tally.total();
            for (h, n) in first_detect.iter_mut().zip(&f.first_detect) {
                *h += n;
            }
        }
        // One flush per campaign keeps the atomics off the inner loop.
        // The prefixed counters (and the situation histogram) are
        // thread-count, scheduling and lane-width invariant; `pool.*`
        // describes the schedule itself and is excluded from
        // `TelemetrySnapshot::deterministic_counters`.
        if let Some(rec) = &self.recorder {
            let p = E::PREFIX;
            let hist = rec.histogram(&format!("{p}.fault_situations"));
            for o in &per_fault {
                hist.record(o.tally.total());
            }
            let dropped = per_fault
                .iter()
                .filter(|o| o.dropped_after.is_some())
                .count();
            rec.add(&format!("{p}.faults"), per_fault.len() as u64);
            rec.add(
                &format!("{p}.fault_batches"),
                work.fault_batches.into_inner(),
            );
            rec.add(&format!("{p}.faults_dropped"), dropped as u64);
            rec.add(&format!("{p}.situations"), simulated);
            rec.add(&format!("{p}.busy_ns"), stats.busy_ns());
            rec.add(&format!("{p}.gate_evals"), work.gate_evals.into_inner());
            if E::TRACKS_LATENCY {
                rec.add(
                    &format!("{p}.cycles_evaluated"),
                    simulated * u64::from(self.cycles),
                );
            }
            rec.add("pool.blocks", stats.blocks);
            rec.add("pool.steals", stats.steals);
            rec.add("pool.good_evals", work.good_evals.into_inner());
            rec.add("pool.cones_built", work.cones_built.into_inner());
            for (w, &busy_ns) in stats.worker_busy_ns.iter().enumerate() {
                rec.add(&format!("pool.w{w}.busy_ns"), busy_ns);
            }
        }
        Ok(CampaignSummary {
            per_fault,
            tally,
            simulated,
            first_detect,
            cycles: self.cycles,
        })
    }

    /// Length of the per-fault first-detection histograms.
    fn hist_len(&self) -> usize {
        if E::TRACKS_LATENCY {
            self.cycles as usize
        } else {
            0
        }
    }

    /// Simulates one block of the fault universe on the calling worker
    /// (`64 * L` situations per gate operation), tallying every verdict
    /// limb by limb in scalar-batch order — so tallies, latency
    /// histograms, drop points, `fault_batches` (limbs tallied, the
    /// scalar path's per-batch count) and `gate_evals` are lane-width
    /// invariant.
    fn run_block<const L: usize>(
        &self,
        chunk: &[Vec<StuckAtLine>],
        work: &WorkCounters,
    ) -> Vec<FaultOutcome> {
        let blank = FaultOutcome {
            first_detect: vec![0; self.hist_len()],
            ..FaultOutcome::default()
        };
        let mut outcomes = vec![blank; chunk.len()];
        let (mut batches, mut gate_evals) = (0u64, 0u64);
        let drop = self.drop;
        let block = self.engine.simulate_block(
            chunk,
            self.plan,
            self.cycles,
            self.duration,
            |k, v: &Verdict<'_, L>| {
                let o = &mut outcomes[k];
                for limb in 0..v.limbs {
                    let (cs, cd, ed, eu) = v.outcome.limb(limb).counts();
                    batches += 1;
                    gate_evals += v.gate_evals;
                    o.tally.correct_silent += cs;
                    o.tally.correct_detected += cd;
                    o.tally.error_detected += ed;
                    o.tally.error_undetected += eu;
                    o.detected |= cd + ed > 0;
                    o.escaped |= eu > 0;
                    for (h, m) in o.first_detect.iter_mut().zip(v.first_detect) {
                        *h += u64::from(m.limb(limb).count_ones());
                    }
                    let decided = match drop {
                        DropPolicy::Never => false,
                        DropPolicy::OnDetect => o.detected,
                        DropPolicy::OnEscape => o.escaped,
                    };
                    if decided {
                        o.dropped_after = Some(o.tally.total());
                        return false;
                    }
                }
                true
            },
        );
        work.fault_batches.fetch_add(batches, Ordering::Relaxed);
        work.gate_evals.fetch_add(gate_evals, Ordering::Relaxed);
        work.good_evals
            .fetch_add(block.good_evals, Ordering::Relaxed);
        work.cones_built
            .fetch_add(block.cones_built, Ordering::Relaxed);
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
    /// Fanout cones built: one per run of same-site groups per block,
    /// so it depends on the block geometry too.
    cones_built: AtomicU64,
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
    let summary = EngineCampaign::over(&engine, &groups)
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
        let full = EngineCampaign::over(&engine, &groups)
            .drop_policy(DropPolicy::Never)
            .threads(2)
            .run();
        let dropped = EngineCampaign::over(&engine, &groups)
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
            let summary = EngineCampaign::over(&engine, &groups)
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
        // Good-machine passes and cone builds follow the block
        // geometry: one pass per block per batch, one cone per run of
        // same-site groups per block (here each site's stuck-at-0/1
        // pair), so `pool.*` and outside the deterministic filter.
        let batches = InputPlan::Exhaustive
            .vector_count(engine.input_bits())
            .div_ceil(64);
        for (t, threads) in [(&t1, 1), (&t4, 4)] {
            let block = par::auto_block(groups.len(), threads);
            let blocks = groups.len().div_ceil(block) as u64;
            let good = t.counter("pool.good_evals").expect("good evals recorded");
            assert!(good > 0 && good <= blocks * batches);
            let cones = t.counter("pool.cones_built").expect("cone builds recorded");
            assert!(cones > 0 && cones <= groups.len() as u64 / 2 + blocks);
            assert!(t
                .deterministic_counters()
                .iter()
                .all(|c| !c.name.starts_with("pool.")));
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
                EngineCampaign::over(&engine, &groups)
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
        let err = EngineCampaign::over(&engine, &bogus).try_run().unwrap_err();
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
