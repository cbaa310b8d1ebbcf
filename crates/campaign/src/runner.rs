//! Incremental, resumable execution of sharded campaigns.
//!
//! [`CampaignRunner`] turns the all-or-nothing Fig. 3 sweep into a
//! checkpointed pipeline: the fault universe is partitioned by a
//! [`ShardPlan`], every shard runs as an ordinary campaign restricted
//! to its range, and each finished shard is written to the checkpoint
//! directory as a `scdp.campaign.report/v4` document
//! (`shard-NNN.json`). A later invocation over the same directory
//! *resumes*: checkpoints whose shard section matches the job's
//! configuration fingerprint are reused verbatim, only the missing (or
//! stale) shards execute, and once all shards exist they are merged
//! into a report bit-identical to the unsharded run.
//!
//! Datapath and sequential jobs prepare their machine **once per
//! invocation**: the elaborated machine, its fault universe (groups
//! and per-FU ranges), its compiled engine and, for collapsed runs, its
//! collapse classes. Every fresh shard of the invocation grades on that
//! one copy — none of it depends on the shard's range — and the
//! `pool.universe_builds` and `pool.collapse_builds` telemetry counters
//! show each built once. A resume that reuses every checkpoint never
//! pays for any of it, and one that runs fresh shards builds it once
//! more. The copy lives for one [`CampaignRunner::run`] call: a caller
//! of `run_on`, such as a sweep over fault durations on one machine,
//! shares the machine but builds the analysis anew for every call.
//! Operator jobs prepare nothing; each shard compiles its own circuit.
//! If the final merge rejects resumed checkpoints as
//! inconsistent (e.g. the universe changed under an unchanged
//! configuration), the runner discards them, re-runs those shards
//! fresh and merges again — stale checkpoints are re-run, never
//! trusted, and a sweep always converges.
//!
//! # Example
//!
//! ```
//! use scdp_campaign::{CampaignJob, CampaignRunner, Scenario};
//! use scdp_core::Operator;
//!
//! let job = CampaignJob::Operator(Scenario::new(Operator::Add, 3).campaign());
//! // In-memory sharded run (no checkpoint directory): run + merge.
//! let outcome = CampaignRunner::new(job.clone(), 4).run().expect("runs");
//! let merged = outcome.report.expect("all shards ran");
//! let full = job.run().expect("unsharded run");
//! assert!(merged.same_results(&full));
//! ```

use crate::datapath::{Analysis, DatapathCampaignSpec};
use crate::error::CampaignError;
use crate::report::CampaignReport;
use crate::seq::SeqDatapathCampaignSpec;
use crate::shard::ShardPlan;
use crate::spec::{check_width, CampaignSpec, ExecPolicy};
use scdp_netlist::gen::{ElaboratedDatapath, SeqDatapath};
use scdp_netlist::Netlist;
use scdp_obs::{EventSink, ObsEvent};
use scdp_sim::{Engine, SeqEngine};
use std::cell::OnceCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One campaign of any backend shape, ready for sharded execution.
#[derive(Clone, Debug)]
pub enum CampaignJob {
    /// An operator scenario (functional or gate-level backend).
    Operator(CampaignSpec),
    /// An unrolled whole-datapath campaign.
    Datapath(DatapathCampaignSpec),
    /// A cycle-accurate sequential datapath campaign.
    Sequential(SeqDatapathCampaignSpec),
}

/// What one runner invocation prepares once and every fresh shard
/// reuses: the elaborated machine, and its [`Analysis`] — fault
/// universe, compiled engine and collapse classes — built by the first
/// shard that runs on it.
enum Prepared {
    Datapath(ElaboratedDatapath, OnceCell<Analysis<Engine>>),
    Sequential(SeqDatapath, OnceCell<Analysis<SeqEngine>>),
}

impl CampaignJob {
    /// The job's configuration fingerprint — what its shard
    /// checkpoints carry as `plan_hash`, and what resume uses to
    /// decide whether an existing checkpoint belongs to this sweep.
    #[must_use]
    pub fn config_fingerprint(&self) -> u64 {
        match self {
            CampaignJob::Operator(spec) => spec.config_fingerprint(),
            CampaignJob::Datapath(spec) => spec.config_fingerprint(),
            CampaignJob::Sequential(spec) => spec.config_fingerprint(),
        }
    }

    /// Installs a structured event sink on the underlying spec: every
    /// run of this job (sharded or not) streams its
    /// [`scdp_obs::ObsEvent`]s there.
    #[must_use]
    pub fn events(self, sink: EventSink) -> Self {
        match self {
            CampaignJob::Operator(spec) => CampaignJob::Operator(spec.events(sink)),
            CampaignJob::Datapath(spec) => CampaignJob::Datapath(spec.events(sink)),
            CampaignJob::Sequential(spec) => CampaignJob::Sequential(spec.events(sink)),
        }
    }

    /// Asks every run of this job to embed a
    /// [`scdp_obs::TelemetrySnapshot`] in its report.
    #[must_use]
    pub fn telemetry(self, enabled: bool) -> Self {
        self.update_exec(|exec| exec.telemetry = enabled)
    }

    /// Replaces the underlying spec's execution policy wholesale.
    #[must_use]
    pub fn exec(self, exec: ExecPolicy) -> Self {
        self.update_exec(|e| *e = exec)
    }

    /// Applies `f` to the underlying spec's [`ExecPolicy`], whichever
    /// backend shape the job wraps.
    fn update_exec(mut self, f: impl FnOnce(&mut ExecPolicy)) -> Self {
        match &mut self {
            CampaignJob::Operator(spec) => f(&mut spec.exec),
            CampaignJob::Datapath(spec) => f(&mut spec.exec),
            CampaignJob::Sequential(spec) => f(&mut spec.exec),
        }
        self
    }

    /// Runs shard `index` of a `count`-way partition of this job.
    ///
    /// # Errors
    ///
    /// Propagates the underlying spec's [`CampaignError`]s.
    pub fn run_shard(&self, index: u32, count: u32) -> Result<CampaignReport, CampaignError> {
        self.run_shard_on(index, count, &mut None)
    }

    /// As [`CampaignJob::run_shard`], reusing (or filling) the
    /// caller's per-invocation cache so the shards of one invocation
    /// share one elaboration and one analysis.
    fn run_shard_on(
        &self,
        index: u32,
        count: u32,
        prepared: &mut Option<Prepared>,
    ) -> Result<CampaignReport, CampaignError> {
        match self {
            CampaignJob::Operator(spec) => spec.clone().shard(index, count).run(),
            // The runner elaborates the machine itself, and `elaborate*`
            // asserts the width, so validate it first.
            CampaignJob::Datapath(spec) => {
                check_width(spec.scenario.width)?;
                let cache = prepared.get_or_insert_with(|| {
                    Prepared::Datapath(spec.scenario.elaborate(), OnceCell::new())
                });
                let Prepared::Datapath(dp, analysis) = cache else {
                    unreachable!("cache filled with this job's machine kind");
                };
                spec.clone().shard(index, count).run_shared(dp, analysis)
            }
            CampaignJob::Sequential(spec) => {
                check_width(spec.scenario.width)?;
                let cache = prepared.get_or_insert_with(|| {
                    Prepared::Sequential(spec.scenario.elaborate_seq(), OnceCell::new())
                });
                let Prepared::Sequential(dp, analysis) = cache else {
                    unreachable!("cache filled with this job's machine kind");
                };
                spec.clone().shard(index, count).run_shared(dp, analysis)
            }
        }
    }

    /// The netlist this job's campaign simulates: the operator's
    /// self-checking circuit, the unrolled datapath or the sequential
    /// machine — what `scdp lint` and `scdp analyze` inspect.
    ///
    /// # Errors
    ///
    /// A width outside `1..=MAX_WIDTH`, or an operator with no
    /// gate-level realisation ([`crate::Scenario::elaborate`]).
    pub fn netlist(&self) -> Result<Netlist, CampaignError> {
        match self {
            CampaignJob::Operator(spec) => {
                check_width(spec.scenario.width)?;
                Ok(spec.scenario.elaborate()?.netlist)
            }
            CampaignJob::Datapath(spec) => {
                check_width(spec.scenario.width)?;
                Ok(spec.scenario.elaborate().netlist)
            }
            CampaignJob::Sequential(spec) => {
                check_width(spec.scenario.width)?;
                Ok(spec.scenario.elaborate_seq().netlist)
            }
        }
    }

    /// Runs the whole job unsharded.
    ///
    /// # Errors
    ///
    /// Propagates the underlying spec's [`CampaignError`]s.
    pub fn run(&self) -> Result<CampaignReport, CampaignError> {
        match self {
            CampaignJob::Operator(spec) => spec.run(),
            CampaignJob::Datapath(spec) => spec.run(),
            CampaignJob::Sequential(spec) => spec.run(),
        }
    }
}

/// Writes `contents` to `path` atomically: to a sibling `<path>.tmp`
/// first, then renamed over `path`, so a reader (a resuming runner, the
/// job server's cache scan) sees either the previous file or the
/// complete new one — never a torn write.
///
/// # Errors
///
/// The first I/O error of the write or the rename.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// What the runner did about one shard.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardState {
    /// A matching checkpoint existed; its report was reused verbatim.
    Resumed,
    /// The shard was executed (and checkpointed) in this invocation.
    Ran,
    /// Skipped: the invocation's fresh-shard budget
    /// ([`CampaignRunner::max_shards`]) was exhausted first.
    Pending,
}

/// The result of one [`CampaignRunner::run`] invocation.
#[derive(Clone, Debug)]
pub struct RunnerOutcome {
    /// Per-shard states, plan order.
    pub shards: Vec<ShardState>,
    /// The merged report — present exactly when every shard completed
    /// (none left [`ShardState::Pending`]).
    pub report: Option<CampaignReport>,
}

impl RunnerOutcome {
    /// `true` when every shard completed and the merge ran.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.report.is_some()
    }

    /// Number of shards in each state: `(resumed, ran, pending)`.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let count = |s: ShardState| self.shards.iter().filter(|&&x| x == s).count();
        (
            count(ShardState::Resumed),
            count(ShardState::Ran),
            count(ShardState::Pending),
        )
    }
}

/// A per-shard progress callback: `(index, count, state)`, called on
/// the driver thread as each shard resolves.
pub type ShardHook = Arc<dyn Fn(u32, u32, ShardState) + Send + Sync>;

/// Executes a [`CampaignJob`] shard by shard with optional checkpoint
/// persistence and resume.
#[derive(Clone)]
pub struct CampaignRunner {
    job: CampaignJob,
    shards: u32,
    dir: Option<PathBuf>,
    max_shards: Option<u32>,
    on_shard: Option<ShardHook>,
    events: Option<EventSink>,
}

impl CampaignRunner {
    /// A runner partitioning `job`'s fault universe into `shards`
    /// pieces. Without a checkpoint directory the run is in-memory
    /// (still sharded and merged — useful for bounding peak state and
    /// for testing partition determinism).
    #[must_use]
    pub fn new(job: CampaignJob, shards: u32) -> Self {
        Self {
            job,
            shards,
            dir: None,
            max_shards: None,
            on_shard: None,
            events: None,
        }
    }

    /// Persists every finished shard to `dir/shard-NNN.json` and
    /// resumes from matching checkpoints already there. Checkpoints
    /// that do not parse, cover a different shard geometry, or carry a
    /// different configuration fingerprint are re-run and overwritten.
    #[must_use]
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Caps how many *fresh* shards this invocation executes, leaving
    /// the rest [`ShardState::Pending`] — a deterministic interrupt
    /// for tests and CI; a later invocation resumes the remainder.
    #[must_use]
    pub fn max_shards(mut self, max_shards: u32) -> Self {
        self.max_shards = Some(max_shards);
        self
    }

    /// Installs a per-shard progress callback.
    #[must_use]
    pub fn on_shard(mut self, hook: ShardHook) -> Self {
        self.on_shard = Some(hook);
        self
    }

    /// Streams [`scdp_obs::ObsEvent`]s to `sink`: the runner emits
    /// `ShardStarted`/`ShardFinished` around every shard, and the sink
    /// is forwarded to the underlying spec so each shard's own
    /// lifecycle and span events appear in the same stream.
    #[must_use]
    pub fn events(mut self, sink: EventSink) -> Self {
        self.job = self.job.events(sink.clone());
        self.events = Some(sink);
        self
    }

    /// Asks every shard run (and thus the merged report) to carry a
    /// telemetry section. The merged section aggregates the shards':
    /// for a plain run its count-typed counters equal an unsharded
    /// run's, while pruned and collapsed shards repeat per-shard work
    /// (each pruned shard's empty group, collapse representatives
    /// shared across shards, whole-universe `collapse.*` counts) that
    /// the sums then count more than once.
    #[must_use]
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.job = self.job.telemetry(enabled);
        self
    }

    /// The checkpoint path of shard `index` under `dir`.
    #[must_use]
    pub fn shard_path(dir: &Path, index: u32) -> PathBuf {
        dir.join(format!("shard-{index:03}.json"))
    }

    /// Runs (or resumes) the sharded campaign: reuse matching
    /// checkpoints, execute missing shards up to the fresh-shard
    /// budget, then merge if complete. A merge that rejects resumed
    /// checkpoints triggers one self-heal pass: those shards re-run
    /// fresh and the merge retries.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::ZeroShards`] for an empty plan, the
    /// underlying spec's validation errors, [`CampaignError::Io`] when
    /// a checkpoint cannot be written, and
    /// [`CampaignError::ShardMerge`] if even freshly-run shards cannot
    /// be merged.
    pub fn run(&self) -> Result<RunnerOutcome, CampaignError> {
        if self.shards == 0 {
            return Err(CampaignError::ZeroShards);
        }
        let fingerprint = self.job.config_fingerprint();
        let mut prepared: Option<Prepared> = None;
        let mut states = Vec::with_capacity(self.shards as usize);
        let mut reports: Vec<Option<CampaignReport>> = vec![None; self.shards as usize];
        let mut fresh = 0u32;
        for index in 0..self.shards {
            if let Some(report) = self.load_checkpoint(index, fingerprint) {
                self.shard_finished(index, "resumed", Some(&report), 0);
                reports[index as usize] = Some(report);
                self.notify(index, ShardState::Resumed);
                states.push(ShardState::Resumed);
                continue;
            }
            if self.max_shards.is_some_and(|max| fresh >= max) {
                self.shard_finished(index, "pending", None, 0);
                self.notify(index, ShardState::Pending);
                states.push(ShardState::Pending);
                continue;
            }
            reports[index as usize] = Some(self.run_fresh(index, &mut prepared)?);
            fresh += 1;
            self.notify(index, ShardState::Ran);
            states.push(ShardState::Ran);
        }
        if reports.iter().any(Option::is_none) {
            return Ok(RunnerOutcome {
                shards: states,
                report: None,
            });
        }
        let complete: Vec<CampaignReport> = reports.iter().flatten().cloned().collect();
        let report = match CampaignReport::merge(&complete) {
            Ok(report) => report,
            Err(err) if states.contains(&ShardState::Resumed) => {
                // Self-heal: a resumed checkpoint passed the
                // fingerprint gate but is inconsistent with the fresh
                // shards (e.g. the universe drifted under an unchanged
                // configuration). Never trust it — re-run every
                // resumed shard and merge again.
                let _ = err;
                for index in 0..self.shards {
                    if states[index as usize] == ShardState::Resumed {
                        reports[index as usize] = Some(self.run_fresh(index, &mut prepared)?);
                        states[index as usize] = ShardState::Ran;
                        self.notify(index, ShardState::Ran);
                    }
                }
                let complete: Vec<CampaignReport> = reports.into_iter().flatten().collect();
                CampaignReport::merge(&complete)?
            }
            Err(err) => return Err(err),
        };
        Ok(RunnerOutcome {
            shards: states,
            report: Some(report),
        })
    }

    /// Executes shard `index` fresh and checkpoints it.
    fn run_fresh(
        &self,
        index: u32,
        prepared: &mut Option<Prepared>,
    ) -> Result<CampaignReport, CampaignError> {
        self.emit(&ObsEvent::ShardStarted {
            shard: index,
            of: self.shards,
            // The universe size is unknown until the shard has run.
            faults: 0,
        });
        let report = self.job.run_shard_on(index, self.shards, prepared)?;
        self.shard_finished(index, "ran", Some(&report), report.elapsed_ms);
        if let Some(dir) = &self.dir {
            let io_err = |e: std::io::Error, path: &Path| CampaignError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            };
            std::fs::create_dir_all(dir).map_err(|e| io_err(e, dir))?;
            let path = Self::shard_path(dir, index);
            write_atomic(&path, &report.to_json()).map_err(|e| io_err(e, &path))?;
        }
        Ok(report)
    }

    /// Loads shard `index`'s checkpoint if it exists and belongs to
    /// this job's sweep; anything else (unreadable, unparseable, wrong
    /// geometry, a range that is not what the plan assigns, wrong
    /// fingerprint) means "not resumable".
    fn load_checkpoint(&self, index: u32, fingerprint: u64) -> Option<CampaignReport> {
        let dir = self.dir.as_ref()?;
        let text = std::fs::read_to_string(Self::shard_path(dir, index)).ok()?;
        let report = CampaignReport::from_json(&text).ok()?;
        let shard = report.shard?;
        let expected = ShardPlan::new(shard.total_faults, self.shards)
            .ok()?
            .range(index);
        let matches = shard.index == index
            && shard.count == self.shards
            && shard.fault_start == expected.start
            && shard.fault_end == expected.end
            && shard.plan_hash == fingerprint;
        matches.then_some(report)
    }

    fn notify(&self, index: u32, state: ShardState) {
        if let Some(hook) = &self.on_shard {
            hook(index, self.shards, state);
        }
    }

    fn emit(&self, event: &ObsEvent) {
        if let Some(sink) = &self.events {
            sink(event);
        }
    }

    /// Emits `ShardFinished` with the shard's outcome counts
    /// (`resumed` shards report `elapsed_ms: 0` — resumption is free;
    /// `pending` shards report zeros across the board).
    fn shard_finished(
        &self,
        index: u32,
        state: &str,
        report: Option<&CampaignReport>,
        elapsed_ms: u64,
    ) {
        if self.events.is_none() {
            return;
        }
        let detected = report.map_or(0, |r| {
            r.per_fault.iter().filter(|f| f.detected).count() as u64
        });
        let dropped = report.map_or(0, |r| {
            r.per_fault
                .iter()
                .filter(|f| f.dropped_after.is_some())
                .count() as u64
        });
        self.emit(&ObsEvent::ShardFinished {
            shard: index,
            of: self.shards,
            state: state.to_string(),
            faults: report.map_or(0, CampaignReport::fault_count),
            detected,
            dropped,
            simulated: report.map_or(0, |r| r.simulated),
            elapsed_ms,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use scdp_core::Operator;

    fn job() -> CampaignJob {
        CampaignJob::Operator(
            Scenario::new(Operator::Add, 2)
                .campaign()
                .exec(ExecPolicy::new().threads(2)),
        )
    }

    #[test]
    fn in_memory_sharded_run_matches_unsharded() {
        let outcome = CampaignRunner::new(job(), 3).run().expect("runs");
        assert!(outcome.completed());
        assert_eq!(outcome.counts(), (0, 3, 0));
        let merged = outcome.report.expect("complete");
        let full = job().run().expect("unsharded");
        assert!(merged.same_results(&full));
        assert!(merged.shard.is_none(), "merged reports are not partial");
    }

    #[test]
    fn event_stream_and_telemetry_cover_every_shard() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<ObsEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let probe = Arc::clone(&seen);
        let outcome = CampaignRunner::new(job(), 3)
            .telemetry(true)
            .events(Arc::new(move |e: &ObsEvent| {
                probe.lock().unwrap().push(e.clone());
            }))
            .run()
            .expect("runs");
        let merged = outcome.report.expect("complete");
        let seen = seen.lock().unwrap();

        let finished: Vec<(u32, String, u64)> = seen
            .iter()
            .filter_map(|e| match e {
                ObsEvent::ShardFinished {
                    shard,
                    state,
                    faults,
                    ..
                } => Some((*shard, state.clone(), *faults)),
                _ => None,
            })
            .collect();
        assert_eq!(finished.len(), 3, "one finish per shard");
        assert!(finished.iter().all(|(_, s, _)| s == "ran"));
        let traced: u64 = finished.iter().map(|(_, _, f)| f).sum();
        assert_eq!(
            traced,
            merged.fault_count(),
            "per-shard trace fault counts sum to the merged universe"
        );
        assert!(
            seen.iter().any(|e| e.kind() == "shard_started"),
            "fresh shards announce themselves"
        );
        assert!(
            seen.iter().any(|e| e.kind() == "span"),
            "shard campaigns stream their spans through the same sink"
        );

        // A plain run's merged count-typed counters equal an
        // unsharded run's — sharding only splits the work.
        let tel = merged.telemetry.expect("merged telemetry");
        let full = job().telemetry(true).run().expect("unsharded");
        let full_tel = full.telemetry.expect("unsharded telemetry");
        assert_eq!(
            tel.deterministic_counters(),
            full_tel.deterministic_counters()
        );
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        assert!(matches!(
            CampaignRunner::new(job(), 0).run(),
            Err(CampaignError::ZeroShards)
        ));
    }

    #[test]
    fn max_shards_interrupts_and_reports_pending() {
        let outcome = CampaignRunner::new(job(), 4)
            .max_shards(2)
            .run()
            .expect("runs");
        assert!(!outcome.completed());
        assert_eq!(outcome.counts(), (0, 2, 2));
        assert_eq!(
            outcome.shards,
            vec![
                ShardState::Ran,
                ShardState::Ran,
                ShardState::Pending,
                ShardState::Pending
            ]
        );
    }

    #[test]
    fn job_fingerprint_matches_the_shard_reports() {
        let report = job().run_shard(1, 3).expect("shard runs");
        let shard = report.shard.expect("shard section");
        assert_eq!(shard.plan_hash, job().config_fingerprint());
        assert_eq!((shard.index, shard.count), (1, 3));
    }

    #[test]
    fn datapath_jobs_validate_width_before_elaborating() {
        let job = CampaignJob::Datapath(
            crate::datapath::DatapathScenario::new(crate::datapath::DfgSource::Dot, 0).campaign(),
        );
        assert!(matches!(
            CampaignRunner::new(job, 2).run(),
            Err(CampaignError::WidthOutOfRange { width: 0, .. })
        ));
    }
}
