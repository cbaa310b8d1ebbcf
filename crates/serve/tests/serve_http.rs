//! End-to-end exercise of the job server over real sockets: submit →
//! poll → fetch, the fingerprint-keyed cache, the resume-on-restart
//! path and the typed 4xx surface.

use scdp_campaign::{CampaignReport, CampaignRunner};
use scdp_serve::{client, job_id, jobspec, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

const POLL: Duration = Duration::from_millis(50);

/// A small, fast spec: gate-level add so the fault universe is real
/// but tiny, sharded 3 ways.
const SPEC: &str = r#"{"kind":"operator","op":"add","backend":"gate-level",
    "width":3,"samples":64,"threads":2,"shards":3}"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scdp_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: &Path) -> (scdp_serve::ServerHandle, String) {
    let handle = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        dir: dir.to_path_buf(),
        workers: 2,
    })
    .expect("bind an ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn submit_poll_fetch_and_cache_hit_round_trip() {
    let dir = temp_dir("cache");
    let (handle, addr) = start(&dir);

    // Liveness first: the CI smoke's first probe.
    let health = client::request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(
        (health.status, health.body.as_str()),
        (200, r#"{"status":"ok"}"#)
    );

    // First submission is a miss and runs for real.
    let first = client::submit(&addr, SPEC).expect("submit");
    assert_eq!(first.cache, "miss");
    let done = client::wait(&addr, &first.id, POLL).expect("job completes");
    assert_eq!((done.done, done.total), (3, 3), "all shards reported");

    // The served report is a real merged report, bit-identical to a
    // direct unsharded run of the same spec.
    let body = client::fetch_report(&addr, &first.id).expect("report");
    let report = CampaignReport::from_json(&body).expect("report parses");
    assert!(
        report.shard.is_none(),
        "served reports are merged, not partial"
    );
    let direct = jobspec::parse(SPEC)
        .expect("spec")
        .job
        .run()
        .expect("direct run");
    assert!(
        report.same_results(&direct),
        "server run matches a local run"
    );

    // Second submission of the same spec: cache hit, no re-run, and a
    // byte-identical report.
    let second = client::submit(&addr, SPEC).expect("resubmit");
    assert_eq!(
        (second.id.as_str(), second.cache.as_str()),
        (first.id.as_str(), "hit")
    );
    assert_eq!(second.status, "done");
    let cached = client::fetch_report(&addr, &first.id).expect("cached report");
    assert_eq!(cached, body, "cache hits serve byte-identical reports");

    // Semantically equal but textually different spec documents land
    // on the same content address.
    let respaced = SPEC.replace("\n    ", " ");
    assert_ne!(respaced, SPEC);
    let third = client::submit(&addr, &respaced).expect("respaced submit");
    assert_eq!((third.id, third.cache.as_str()), (first.id.clone(), "hit"));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pruned job runs the product's pruning path on the server: its
/// merged report carries the `deduce` section and matches a direct run
/// of its unpruned twin. (Both twins share one job id, so the pruned
/// spec is submitted to a fresh server to force a real run.)
#[test]
fn a_fresh_pruned_job_matches_its_unpruned_twin() {
    const UNPRUNED: &str = r#"{"kind":"datapath","workload":"fir","technique":"tech1",
        "width":3,"samples":64,"threads":2,"shards":3}"#;
    let pruned = UNPRUNED.replace("\"shards\":3", "\"shards\":3,\"prune\":true");
    assert_ne!(pruned, UNPRUNED);
    let dir = temp_dir("prune");
    let (handle, addr) = start(&dir);
    let sub = client::submit(&addr, &pruned).expect("submit");
    assert_eq!(sub.cache, "miss", "a fresh server runs the job");
    client::wait(&addr, &sub.id, POLL).expect("job completes");
    let body = client::fetch_report(&addr, &sub.id).expect("report");
    let report = CampaignReport::from_json(&body).expect("report parses");
    let deduce = report.deduce.as_ref().expect("pruned jobs carry deduce");
    assert!(deduce.untestable > 0, "the FIR datapath deduces");
    let twin = jobspec::parse(UNPRUNED)
        .expect("spec")
        .job
        .run()
        .expect("direct run");
    assert!(twin.deduce.is_none());
    assert!(report.same_results(&twin), "pruning never changes results");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_input_and_bad_routes_get_typed_errors() {
    let dir = temp_dir("errors");
    let (handle, addr) = start(&dir);

    // Broken JSON: a 400 carrying the parser's byte-offset message.
    let bad = client::request(&addr, "POST", "/jobs", Some(r#"{"kind":"#)).expect("response");
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("parse error at byte"), "{}", bad.body);

    // Valid JSON, invalid spec: a 400 naming the offending field.
    let schema = client::request(
        &addr,
        "POST",
        "/jobs",
        Some(r#"{"kind":"operator","widht":3}"#),
    )
    .expect("response");
    assert_eq!(schema.status, 400);
    assert!(schema.body.contains("widht"), "{}", schema.body);

    // Unknown routes and ids are 404; wrong methods are 405.
    let missing = client::request(&addr, "GET", "/jobs/ffffffffffffffff", None).expect("resp");
    assert_eq!(missing.status, 404);
    assert_eq!(
        client::request(&addr, "GET", "/nope", None)
            .expect("resp")
            .status,
        404
    );
    assert_eq!(
        client::request(&addr, "DELETE", "/jobs", None)
            .expect("resp")
            .status,
        405
    );
    assert_eq!(
        client::request(&addr, "POST", "/jobs/abc", Some("{}"))
            .expect("resp")
            .status,
        405
    );

    // A body over the limit is refused before it is read.
    let huge = "x".repeat(scdp_serve::http::MAX_BODY + 1);
    let too_large = client::request(&addr, "POST", "/jobs", Some(&huge)).expect("response");
    assert_eq!(too_large.status, 413);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Specs that could only fail once they run — zero shards, an
/// out-of-range width, zero threads, a repeated key — are refused at
/// submission: a 400 naming the key, and no job directory on disk.
#[test]
fn unrunnable_specs_are_refused_at_submit_time() {
    let dir = temp_dir("unrunnable");
    let (handle, addr) = start(&dir);
    for (spec, key) in [
        (r#"{"kind":"operator","shards":0}"#, "shards"),
        (r#"{"kind":"operator","width":0}"#, "width"),
        (r#"{"kind":"operator","width":100}"#, "width"),
        (r#"{"kind":"operator","threads":0}"#, "threads"),
        (r#"{"kind":"operator","width":4,"width":8}"#, "width"),
        (
            r#"{"kind":"operator","workload":"fir","duration":"transient@2"}"#,
            "workload",
        ),
    ] {
        let response = client::request(&addr, "POST", "/jobs", Some(spec)).expect("response");
        assert_eq!(response.status, 400, "{spec}: {}", response.body);
        assert!(response.body.contains(key), "{spec}: {}", response.body);
    }
    let jobs: Vec<_> = std::fs::read_dir(&dir)
        .expect("job dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    assert!(jobs.is_empty(), "refused specs created {jobs:?}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restarted_server_resumes_interrupted_jobs_from_checkpoints() {
    let dir = temp_dir("resume");

    // Simulate a server killed mid-job: the job directory holds the
    // submitted spec and the checkpoints of one finished shard, but no
    // report.json.
    let spec = jobspec::parse(SPEC).expect("spec");
    let id = job_id(&spec.job);
    let job_dir = dir.join(&id);
    std::fs::create_dir_all(&job_dir).expect("job dir");
    std::fs::write(job_dir.join("spec.json"), SPEC).expect("persist spec");
    let partial = CampaignRunner::new(spec.job.clone(), spec.shards)
        .checkpoint_dir(&job_dir)
        .max_shards(1)
        .run()
        .expect("interrupted run");
    assert!(
        !partial.completed(),
        "the seeded run really was interrupted"
    );
    assert!(job_dir.join("shard-000.json").is_file());
    assert!(!job_dir.join("report.json").exists());

    // A fresh server scans the directory, re-enqueues the job and
    // finishes it without being asked.
    let (handle, addr) = start(&dir);
    let done = client::wait(&addr, &id, POLL).expect("resumed job completes");
    assert_eq!(done.status, "done");
    let body = client::fetch_report(&addr, &id).expect("report");
    let report = CampaignReport::from_json(&body).expect("parses");
    let direct = spec.job.run().expect("unsharded run");
    assert!(
        report.same_results(&direct),
        "a resumed sharded run merges bit-identical to an unsharded one"
    );

    // And the finished job now serves as a cache hit.
    let again = client::submit(&addr, SPEC).expect("resubmit");
    assert_eq!((again.id, again.cache.as_str()), (id, "hit"));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
