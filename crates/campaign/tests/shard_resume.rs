//! Kill-then-resume integration: a sharded sequential FIR campaign is
//! checkpointed to disk, loses half its shard checkpoints ("the
//! machine died mid-sweep"), resumes from the survivors, and the
//! merged v4 checkpoints must reproduce a fresh unsharded run **bit
//! for bit** — tallies, per-fault outcomes and the detection-latency
//! histogram.

use scdp_campaign::{
    CampaignJob, CampaignReport, CampaignRunner, DatapathScenario, DfgSource, ExecPolicy,
    FaultDuration, InputSpace, ShardState,
};
use scdp_core::Technique;
use std::path::{Path, PathBuf};

fn seq_fir_job() -> CampaignJob {
    CampaignJob::Sequential(
        DatapathScenario::new(DfgSource::Fir, 3)
            .technique(Technique::Tech1)
            .seq_campaign()
            .duration(FaultDuration::Permanent)
            .input_space(InputSpace::Sampled {
                per_fault: 256,
                seed: 0xF1E,
            })
            .exec(ExecPolicy::new().threads(2)),
    )
}

/// A fresh, unique scratch directory (removed by `Scratch::drop`).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("scdp_shard_resume_{tag}_{}", std::process::id()));
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

fn canonical_json(report: &CampaignReport) -> String {
    let mut r = report.clone();
    r.elapsed_ms = 0;
    r.to_json()
}

#[test]
fn kill_then_resume_reproduces_the_unsharded_report_bit_for_bit() {
    let scratch = Scratch::new("kill");
    let dir = scratch.path();
    const SHARDS: u32 = 6;

    // Full sharded run, checkpointed.
    let first = CampaignRunner::new(seq_fir_job(), SHARDS)
        .checkpoint_dir(dir)
        .run()
        .expect("first run");
    assert!(first.completed());
    assert_eq!(first.counts(), (0, SHARDS as usize, 0));
    for i in 0..SHARDS {
        assert!(
            CampaignRunner::shard_path(dir, i).is_file(),
            "checkpoint {i} written"
        );
    }

    // The "kill": half the checkpoints vanish.
    for i in (0..SHARDS).step_by(2) {
        std::fs::remove_file(CampaignRunner::shard_path(dir, i)).expect("drop checkpoint");
    }

    // Resume: survivors are reused, the dropped half re-runs.
    let resumed = CampaignRunner::new(seq_fir_job(), SHARDS)
        .checkpoint_dir(dir)
        .run()
        .expect("resume");
    assert!(resumed.completed());
    assert_eq!(resumed.counts(), (3, 3, 0));
    assert_eq!(resumed.shards[0], ShardState::Ran);
    assert_eq!(resumed.shards[1], ShardState::Resumed);

    // Bit-identity against a fresh unsharded run.
    let merged = resumed.report.expect("complete");
    let fresh = seq_fir_job().run().expect("unsharded run");
    assert!(merged.same_results(&fresh));
    assert_eq!(canonical_json(&merged), canonical_json(&fresh));
    assert_eq!(merged.sequential, fresh.sequential, "latency histogram");
}

/// Checkpoints are written atomically (temporary file, then rename):
/// a finished sweep leaves exactly its shard files, no `*.tmp`.
#[test]
fn checkpointed_runs_leave_no_temporary_files() {
    let scratch = Scratch::new("atomic");
    let dir = scratch.path();
    let outcome = CampaignRunner::new(seq_fir_job(), 3)
        .checkpoint_dir(dir)
        .run()
        .expect("checkpointed run");
    assert!(outcome.completed());
    let names: Vec<String> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names.len(), 3, "one file per shard: {names:?}");
    assert!(
        names.iter().all(|n| !n.ends_with(".tmp")),
        "no temporary file survives: {names:?}"
    );
}

#[test]
fn interrupted_run_resumes_where_it_stopped() {
    let scratch = Scratch::new("interrupt");
    let dir = scratch.path();

    // "Interrupt after shard 2": the fresh-shard budget stops the
    // sweep deterministically mid-flight.
    let partial = CampaignRunner::new(seq_fir_job(), 4)
        .checkpoint_dir(dir)
        .max_shards(2)
        .run()
        .expect("interrupted run");
    assert!(!partial.completed());
    assert_eq!(partial.counts(), (0, 2, 2));
    assert!(CampaignRunner::shard_path(dir, 1).is_file());
    assert!(!CampaignRunner::shard_path(dir, 2).exists());

    // Resume without the budget: only the pending shards execute.
    let finished = CampaignRunner::new(seq_fir_job(), 4)
        .checkpoint_dir(dir)
        .run()
        .expect("resumed run");
    assert!(finished.completed());
    assert_eq!(finished.counts(), (2, 2, 0));
    let merged = finished.report.expect("complete");
    let fresh = seq_fir_job().run().expect("unsharded run");
    assert_eq!(canonical_json(&merged), canonical_json(&fresh));
}

#[test]
fn stale_or_corrupt_checkpoints_are_rerun_not_trusted() {
    let scratch = Scratch::new("stale");
    let dir = scratch.path();

    let first = CampaignRunner::new(seq_fir_job(), 3)
        .checkpoint_dir(dir)
        .run()
        .expect("first run");
    assert!(first.completed());

    // Corrupt one checkpoint and replace another with a checkpoint
    // from a *different* campaign (different seed → fingerprint).
    std::fs::write(CampaignRunner::shard_path(dir, 0), "{ not json").expect("corrupt");
    let alien_job = CampaignJob::Sequential(
        DatapathScenario::new(DfgSource::Fir, 3)
            .technique(Technique::Tech1)
            .seq_campaign()
            .input_space(InputSpace::Sampled {
                per_fault: 256,
                seed: 0xBAD,
            })
            .exec(ExecPolicy::new().threads(2)),
    );
    let alien = alien_job.run_shard(1, 3).expect("alien shard");
    std::fs::write(CampaignRunner::shard_path(dir, 1), alien.to_json()).expect("stale");

    let resumed = CampaignRunner::new(seq_fir_job(), 3)
        .checkpoint_dir(dir)
        .run()
        .expect("resume");
    assert!(resumed.completed());
    assert_eq!(
        resumed.shards,
        vec![ShardState::Ran, ShardState::Ran, ShardState::Resumed],
        "corrupt and alien checkpoints must be re-run"
    );
    let merged = resumed.report.expect("complete");
    let fresh = seq_fir_job().run().expect("unsharded run");
    assert_eq!(canonical_json(&merged), canonical_json(&fresh));
}
