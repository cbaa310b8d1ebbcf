//! One analysis per runner invocation: every fresh shard of a
//! [`CampaignRunner`] run reuses the machine's fault universe, compiled
//! engine and collapse classes, and the merged report stays
//! byte-identical to the unsharded run.
//!
//! The cases cover datapath and sequential jobs (permanent and
//! single-cycle transient faults), plain, collapsed, pruned and
//! collapsed-and-pruned execution, and shard counts 1, 2, 3, 4 and 7;
//! then an interrupted sweep resumed by a second invocation, the
//! self-heal re-run, and `run_on` sweeps over fault durations on one
//! machine, which must build their analysis anew for every call. The
//! `pool.universe_builds` and `pool.collapse_builds` counters and the
//! `campaign/compile` span count say how often each was built.

use scdp_campaign::{
    CampaignJob, CampaignReport, CampaignRunner, DatapathScenario, DfgSource, ExecPolicy,
    FaultDuration, InputSpace, ShardState, TelemetrySnapshot,
};
use scdp_core::Technique;
use std::path::{Path, PathBuf};

const SPACE: InputSpace = InputSpace::Sampled {
    per_fault: 128,
    seed: 0x5A4E,
};

/// The report with its wall clock and telemetry removed: everything
/// else must match byte for byte.
fn canonical(report: &CampaignReport) -> String {
    let mut r = report.clone();
    r.elapsed_ms = 0;
    r.telemetry = None;
    r.to_json()
}

fn scenario() -> DatapathScenario {
    DatapathScenario::new(DfgSource::Fir, 3).technique(Technique::Both)
}

/// A single-cycle upset in the middle of the schedule.
fn mid_transient() -> FaultDuration {
    FaultDuration::Transient {
        cycle: scenario().elaborate_seq().total_cycles / 2,
    }
}

fn datapath_job(exec: ExecPolicy) -> CampaignJob {
    CampaignJob::Datapath(scenario().campaign().input_space(SPACE).exec(exec))
}

fn seq_job(duration: FaultDuration, exec: ExecPolicy) -> CampaignJob {
    CampaignJob::Sequential(
        scenario()
            .seq_campaign()
            .duration(duration)
            .input_space(SPACE)
            .exec(exec),
    )
}

/// Plain, collapsed, pruned, collapsed and pruned.
fn execs() -> [ExecPolicy; 4] {
    let base = ExecPolicy::new().threads(2).telemetry(true);
    [
        base,
        base.collapse(true),
        base.prune(true),
        base.collapse(true).prune(true),
    ]
}

fn counter(t: &TelemetrySnapshot, name: &str) -> u64 {
    t.counter(name).unwrap_or(0)
}

fn compile_spans(t: &TelemetrySnapshot) -> u64 {
    t.span("campaign/compile").map_or(0, |s| s.count)
}

/// Asserts that `t` records exactly `builds` universe builds (each
/// under one `campaign/compile` span) and, for a collapsed run,
/// exactly `builds` class builds.
fn assert_builds(t: &TelemetrySnapshot, builds: u64, collapse: bool, what: &str) {
    assert_eq!(counter(t, "pool.universe_builds"), builds, "{what}");
    assert_eq!(compile_spans(t), builds, "{what}");
    let classes = if collapse { builds } else { 0 };
    assert_eq!(counter(t, "pool.collapse_builds"), classes, "{what}");
}

/// Every shard count: the merged report equals the unsharded one, and
/// one invocation built the universe, the engine and (when collapsing)
/// the classes once.
fn assert_shared_and_identical(make: impl Fn(ExecPolicy) -> CampaignJob, what: &str) {
    for exec in execs() {
        let full = make(exec).run().expect("unsharded run");
        let full_tel = full.telemetry.as_ref().expect("unsharded telemetry");
        assert_builds(full_tel, 1, exec.collapse, what);
        for shards in [1, 2, 3, 4, 7] {
            let case = format!("{what}, {exec:?}, {shards} shards");
            let outcome = CampaignRunner::new(make(exec), shards)
                .run()
                .expect("sharded run");
            assert_eq!(outcome.counts(), (0, shards as usize, 0), "{case}");
            let merged = outcome.report.expect("complete");
            assert!(merged.same_results(&full), "{case}");
            assert_eq!(canonical(&merged), canonical(&full), "{case}");
            let tel = merged.telemetry.as_ref().expect("merged telemetry");
            assert_builds(tel, 1, exec.collapse, &case);
            if !exec.collapse && !exec.prune {
                // Plain shards split the work exactly. Collapsed ones
                // each simulate their own representatives, and pruned
                // ones each grade their own empty group.
                assert_eq!(
                    tel.deterministic_counters(),
                    full_tel.deterministic_counters(),
                    "{case}"
                );
            }
        }
    }
}

#[test]
fn datapath_shards_share_one_analysis() {
    assert_shared_and_identical(datapath_job, "datapath");
}

#[test]
fn permanent_sequential_shards_share_one_analysis() {
    assert_shared_and_identical(|e| seq_job(FaultDuration::Permanent, e), "seq permanent");
}

#[test]
fn transient_sequential_shards_share_one_analysis() {
    let duration = mid_transient();
    assert_shared_and_identical(|e| seq_job(duration, e), "seq transient");
}

/// A fresh, unique scratch directory (removed by `Scratch::drop`).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("scdp_shared_analysis_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The telemetry of shard `index`'s checkpoint under `dir`.
fn checkpoint_telemetry(dir: &Path, index: u32) -> TelemetrySnapshot {
    let text = std::fs::read_to_string(CampaignRunner::shard_path(dir, index)).expect("checkpoint");
    let report = CampaignReport::from_json(&text).expect("checkpoint parses");
    report.telemetry.expect("checkpoint telemetry")
}

fn collapsed() -> ExecPolicy {
    ExecPolicy::new().threads(2).telemetry(true).collapse(true)
}

#[test]
fn interrupted_sweep_builds_once_per_invocation_that_runs_a_fresh_shard() {
    let scratch = Scratch::new("resume");
    let dir = scratch.path();
    let job = || seq_job(FaultDuration::Permanent, collapsed());
    let full = job().run().expect("unsharded run");
    let full_tel = full.telemetry.as_ref().expect("unsharded telemetry");

    let partial = CampaignRunner::new(job(), 4)
        .checkpoint_dir(dir)
        .max_shards(2)
        .run()
        .expect("interrupted run");
    assert_eq!(partial.counts(), (0, 2, 2));

    let resumed = CampaignRunner::new(job(), 4)
        .checkpoint_dir(dir)
        .run()
        .expect("resumed run");
    assert_eq!(resumed.counts(), (2, 2, 0));
    let merged = resumed.report.expect("complete");
    assert!(merged.same_results(&full));
    assert_eq!(canonical(&merged), canonical(&full));
    // Each invocation built once, in its first fresh shard.
    let tel = merged.telemetry.as_ref().expect("merged telemetry");
    assert_builds(tel, 2, true, "two invocations");
    for index in 0..4 {
        let shard = checkpoint_telemetry(dir, index);
        let builds = u64::from(index % 2 == 0);
        assert_builds(&shard, builds, true, &format!("shard {index}"));
        // Every shard still records the whole universe's counts.
        for name in ["collapse.sites_before", "collapse.classes"] {
            assert_eq!(shard.counter(name), full_tel.counter(name), "{name}");
        }
    }

    // A third invocation resumes everything and builds nothing.
    let again = CampaignRunner::new(job(), 4)
        .checkpoint_dir(dir)
        .run()
        .expect("fully resumed run");
    assert_eq!(again.counts(), (4, 0, 0));
    assert_eq!(
        canonical(&again.report.expect("complete")),
        canonical(&full)
    );
}

#[test]
fn self_heal_reruns_on_the_invocations_analysis() {
    let scratch = Scratch::new("heal");
    let dir = scratch.path();
    let exec = collapsed().prune(true);
    let job = || datapath_job(exec);
    let full = job().run().expect("unsharded run");

    let partial = CampaignRunner::new(job(), 4)
        .checkpoint_dir(dir)
        .max_shards(2)
        .run()
        .expect("interrupted run");
    assert_eq!(partial.counts(), (0, 2, 2));
    // Shard 1's checkpoint passes the fingerprint and geometry gates
    // but disagrees with the fresh shards, so the merge rejects it.
    let path = CampaignRunner::shard_path(dir, 1);
    let mut stale = CampaignReport::from_json(&std::fs::read_to_string(&path).expect("checkpoint"))
        .expect("checkpoint parses");
    stale.datapath.as_mut().expect("datapath section").gates += 1;
    std::fs::write(&path, stale.to_json()).expect("rewrite checkpoint");

    let healed = CampaignRunner::new(job(), 4)
        .checkpoint_dir(dir)
        .run()
        .expect("self-healing run");
    assert_eq!(healed.shards, vec![ShardState::Ran; 4]);
    let merged = healed.report.expect("complete");
    assert!(merged.same_results(&full));
    assert_eq!(canonical(&merged), canonical(&full));
    // Shard 2 built the analysis; shards 3, 0 and 1 reused it.
    let tel = merged.telemetry.as_ref().expect("merged telemetry");
    assert_builds(tel, 1, true, "self-heal invocation");
}

#[test]
fn run_on_builds_its_own_analysis_for_every_duration() {
    let machine = scenario().elaborate_seq();
    for duration in [
        FaultDuration::Permanent,
        FaultDuration::Transient { cycle: 0 },
        mid_transient(),
    ] {
        let spec = scenario()
            .seq_campaign()
            .duration(duration)
            .input_space(SPACE)
            .exec(collapsed());
        let swept = spec.run_on(&machine).expect("run_on");
        let own = spec.run().expect("run");
        assert!(swept.same_results(&own), "{duration:?}");
        assert_eq!(canonical(&swept), canonical(&own), "{duration:?}");
        let tel = swept.telemetry.as_ref().expect("telemetry");
        assert_builds(tel, 1, true, &format!("run_on {duration:?}"));
    }
}
