//! The campaign job server: four routes, a bounded worker pool and a
//! fingerprint-keyed result cache backed by the checkpoint directory.
//!
//! ## Layout on disk
//!
//! Every job lives under `<dir>/<id>/` where `<id>` is the job's
//! [`config_fingerprint`](scdp_campaign::CampaignJob::config_fingerprint)
//! in hex — the submission's content address:
//!
//! ```text
//! <dir>/<id>/spec.json       the submitted spec, verbatim
//! <dir>/<id>/shard-NNN.json  CampaignRunner checkpoints (v4)
//! <dir>/<id>/report.json     the merged report — its presence IS the
//!                            cache: written once, served verbatim
//! ```
//!
//! A second `POST /jobs` of the same spec therefore finds the job by
//! id and never re-runs it; a server killed mid-job leaves its shard
//! checkpoints behind, and the startup scan re-enqueues every job
//! directory without a `report.json`, so the resumed run pays only for
//! the missing shards (the runner's fingerprint guard re-runs stale
//! ones) and still merges bit-identical to an unsharded run.

use crate::http::{self, Request};
use crate::jobspec::{self, JobSpec};
use scdp_campaign::json::Json;
use scdp_campaign::{write_atomic, CampaignJob, CampaignRunner, EventSink, ObsEvent};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How a server instance is configured.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The address to bind, e.g. `127.0.0.1:7878` (port `0` picks a
    /// free port; read it back from [`ServerHandle::addr`]).
    pub addr: String,
    /// The job-state directory (created if missing).
    pub dir: PathBuf,
    /// How many campaign jobs may run concurrently.
    pub workers: usize,
}

/// Where a job is in its lifecycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Status {
    Queued,
    Running,
    Done,
    Failed,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Queued => "queued",
            Status::Running => "running",
            Status::Done => "done",
            Status::Failed => "failed",
        }
    }
}

/// The in-memory record of one job.
struct JobState {
    status: Status,
    shards_done: u32,
    shards_total: u32,
    error: Option<String>,
}

impl JobState {
    fn queued(shards: u32) -> Self {
        JobState {
            status: Status::Queued,
            shards_done: 0,
            shards_total: shards,
            error: None,
        }
    }
}

/// State shared by the acceptor, the handlers and the workers.
struct Inner {
    dir: PathBuf,
    jobs: Mutex<HashMap<String, JobState>>,
    queue: Mutex<VecDeque<String>>,
    work: Condvar,
    stop: AtomicBool,
}

/// The campaign job server. [`Server::start`] binds, scans the job
/// directory for unfinished work and returns a [`ServerHandle`].
pub struct Server;

/// A running server: its bound address plus shutdown/join control.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

/// The content address of a job: its configuration fingerprint in hex.
#[must_use]
pub fn job_id(job: &CampaignJob) -> String {
    format!("{:016x}", job.config_fingerprint())
}

impl Server {
    /// Binds `config.addr`, re-enqueues every unfinished job found
    /// under `config.dir` and starts the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and socket-bind failures.
    pub fn start(config: &ServerConfig) -> std::io::Result<ServerHandle> {
        std::fs::create_dir_all(&config.dir)?;
        let (jobs, queue) = scan_dir(&config.dir);
        let inner = Arc::new(Inner {
            dir: config.dir.clone(),
            jobs: Mutex::new(jobs),
            queue: Mutex::new(queue),
            work: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if inner.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let inner = Arc::clone(&inner);
                    std::thread::spawn(move || handle_connection(&inner, stream));
                }
            })
        };
        Ok(ServerHandle {
            addr,
            inner,
            acceptor,
            workers,
        })
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port `0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server is shut down from another thread (or
    /// forever — the `scdp serve` foreground mode).
    pub fn join(self) {
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Stops accepting, drains the worker pool (running jobs finish
    /// their current shard set; their checkpoints survive for the next
    /// start) and joins every thread.
    pub fn shutdown(self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.work.notify_all();
        // Unblock the acceptor's blocking `incoming()` call.
        let _ = TcpStream::connect(self.addr);
        self.join();
    }
}

/// Registers finished jobs and re-enqueues unfinished ones from a
/// previous server life. Directories whose name does not match their
/// spec's fingerprint are foreign and skipped; a saved spec that no
/// longer parses is skipped with its path and error on stderr.
fn scan_dir(dir: &Path) -> (HashMap<String, JobState>, VecDeque<String>) {
    let mut jobs = HashMap::new();
    let mut queue = VecDeque::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (jobs, queue);
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    paths.sort();
    for path in paths {
        let Some(id) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(path.join("spec.json")) else {
            continue;
        };
        let spec = match jobspec::parse(&text) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!(
                    "scdp serve: skipping {}: saved spec no longer parses: {e}",
                    path.join("spec.json").display()
                );
                continue;
            }
        };
        if job_id(&spec.job) != id {
            continue;
        }
        if path.join("report.json").is_file() {
            jobs.insert(
                id.to_string(),
                JobState {
                    status: Status::Done,
                    shards_done: spec.shards,
                    shards_total: spec.shards,
                    error: None,
                },
            );
        } else {
            jobs.insert(id.to_string(), JobState::queued(spec.shards));
            queue.push_back(id.to_string());
        }
    }
    (jobs, queue)
}

/// One worker: pop a job id, run it through the checkpointing runner,
/// publish the merged report.
fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let id = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                queue = inner.work.wait(queue).unwrap();
            }
        };
        if let Some(entry) = inner.jobs.lock().unwrap().get_mut(&id) {
            entry.status = Status::Running;
        }
        let result = execute(inner, &id);
        let mut jobs = inner.jobs.lock().unwrap();
        let Some(entry) = jobs.get_mut(&id) else {
            continue;
        };
        match result {
            Ok(()) => {
                entry.status = Status::Done;
                entry.shards_done = entry.shards_total;
            }
            Err(message) => {
                entry.status = Status::Failed;
                entry.error = Some(message);
            }
        }
    }
}

/// Runs one job to completion: rebuild the [`CampaignJob`] from its
/// persisted spec, run (or resume) every shard with checkpoints in the
/// job directory, then atomically publish `report.json`.
fn execute(inner: &Arc<Inner>, id: &str) -> Result<(), String> {
    let dir = inner.dir.join(id);
    let text = std::fs::read_to_string(dir.join("spec.json"))
        .map_err(|e| format!("read persisted spec: {e}"))?;
    let JobSpec { job, shards } = jobspec::parse(&text).map_err(|e| e.to_string())?;
    let outcome = CampaignRunner::new(job, shards)
        .checkpoint_dir(&dir)
        .events(progress_sink(inner, id))
        .run()
        .map_err(|e| e.to_string())?;
    let report = outcome
        .report
        .ok_or("runner returned an incomplete sweep")?;
    // Written atomically so `report.json` — the cache marker — only
    // ever exists complete.
    write_atomic(&dir.join("report.json"), &report.to_json())
        .map_err(|e| format!("publish report: {e}"))?;
    Ok(())
}

/// An [`EventSink`] that folds the runner's `shard_finished` events
/// into the job's progress counter (resumed shards count too; budget
/// `pending` ones do not, though the server never sets a budget).
fn progress_sink(inner: &Arc<Inner>, id: &str) -> EventSink {
    let inner = Arc::clone(inner);
    let id = id.to_string();
    Arc::new(move |event: &ObsEvent| {
        if let ObsEvent::ShardFinished { state, .. } = event {
            if state != "pending" {
                if let Some(entry) = inner.jobs.lock().unwrap().get_mut(&id) {
                    entry.shards_done += 1;
                }
            }
        }
    })
}

/// Reads one request, routes it, writes one response, closes.
fn handle_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    let (status, body) = match http::read_request(&mut stream) {
        Ok(request) => route(inner, &request),
        Err(e) => (e.status(), error_body(&e.to_string())),
    };
    let _ = http::write_response(&mut stream, status, &body);
}

/// The route table. Unknown paths are 404, known paths with the wrong
/// method are 405 — both as typed JSON errors.
fn route(inner: &Arc<Inner>, request: &Request) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, r#"{"status":"ok"}"#.to_string()),
        ("POST", "/jobs") => handle_submit(inner, &request.body),
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                if method != "GET" {
                    return (405, error_body(&format!("{method} not allowed on {path}")));
                }
                return match rest.strip_suffix("/report") {
                    Some(id) => handle_report(inner, id),
                    None => handle_status(inner, rest),
                };
            }
            if path == "/healthz" || path == "/jobs" {
                return (405, error_body(&format!("{method} not allowed on {path}")));
            }
            (404, error_body(&format!("no route for `{path}`")))
        }
    }
}

/// `POST /jobs`: parse, content-address, dedupe, enqueue. A spec the
/// run-spec table rejects is a 400 and never reaches the job
/// directory.
fn handle_submit(inner: &Arc<Inner>, body: &[u8]) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(body) else {
        return (400, error_body("request body is not UTF-8"));
    };
    let spec = match jobspec::parse(text) {
        Ok(spec) => spec,
        Err(e) => return (400, error_body(&e.to_string())),
    };
    let id = job_id(&spec.job);
    let mut jobs = inner.jobs.lock().unwrap();
    if let Some(entry) = jobs.get(&id) {
        return (200, submit_body(&id, entry.status.label(), "hit"));
    }
    let dir = inner.dir.join(&id);
    let persisted = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("spec.json"), text.as_bytes()));
    if let Err(e) = persisted {
        return (500, error_body(&format!("persist spec: {e}")));
    }
    jobs.insert(id.clone(), JobState::queued(spec.shards));
    drop(jobs);
    inner.queue.lock().unwrap().push_back(id.clone());
    inner.work.notify_one();
    (201, submit_body(&id, "queued", "miss"))
}

/// `GET /jobs/<id>`: the job's lifecycle state and shard progress.
fn handle_status(inner: &Arc<Inner>, id: &str) -> (u16, String) {
    let jobs = inner.jobs.lock().unwrap();
    match jobs.get(id) {
        None => (404, error_body(&format!("unknown job `{id}`"))),
        Some(state) => (200, status_body(id, state)),
    }
}

/// `GET /jobs/<id>/report`: the merged report, byte-verbatim from
/// disk so every cache hit is byte-identical to the first response.
fn handle_report(inner: &Arc<Inner>, id: &str) -> (u16, String) {
    let state = {
        let jobs = inner.jobs.lock().unwrap();
        match jobs.get(id) {
            None => return (404, error_body(&format!("unknown job `{id}`"))),
            Some(s) => (s.status, s.error.clone()),
        }
    };
    match state {
        (Status::Done, _) => {
            match std::fs::read_to_string(inner.dir.join(id).join("report.json")) {
                Ok(report) => (200, report),
                Err(e) => (500, error_body(&format!("read report: {e}"))),
            }
        }
        (Status::Failed, error) => (
            409,
            error_body(&format!(
                "job `{id}` failed: {}",
                error.as_deref().unwrap_or("unknown error")
            )),
        ),
        (status, _) => (
            409,
            error_body(&format!("job `{id}` is not finished ({})", status.label())),
        ),
    }
}

/// `{"error":{"message":...}}` with proper string escaping.
fn error_body(message: &str) -> String {
    Json::Obj(vec![(
        "error".to_string(),
        Json::Obj(vec![(
            "message".to_string(),
            Json::Str(message.to_string()),
        )]),
    )])
    .write_compact()
}

/// The `POST /jobs` response: id, lifecycle state and cache verdict.
fn submit_body(id: &str, status: &str, cache: &str) -> String {
    Json::Obj(vec![
        ("id".to_string(), Json::Str(id.to_string())),
        ("status".to_string(), Json::Str(status.to_string())),
        ("cache".to_string(), Json::Str(cache.to_string())),
    ])
    .write_compact()
}

/// The `GET /jobs/<id>` response.
fn status_body(id: &str, state: &JobState) -> String {
    let mut members = vec![
        ("id".to_string(), Json::Str(id.to_string())),
        (
            "status".to_string(),
            Json::Str(state.status.label().to_string()),
        ),
        (
            "shards".to_string(),
            Json::Obj(vec![
                ("done".to_string(), Json::Int(i128::from(state.shards_done))),
                (
                    "total".to_string(),
                    Json::Int(i128::from(state.shards_total)),
                ),
            ]),
        ),
    ];
    if let Some(error) = &state.error {
        members.push(("error".to_string(), Json::Str(error.clone())));
    }
    Json::Obj(members).write_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_bodies_are_valid_json() {
        for body in [
            error_body("quote \" and backslash \\"),
            submit_body("abc", "queued", "miss"),
            status_body(
                "abc",
                &JobState {
                    status: Status::Failed,
                    shards_done: 1,
                    shards_total: 4,
                    error: Some("boom".to_string()),
                },
            ),
        ] {
            scdp_campaign::json::parse(&body).expect("server JSON re-parses");
        }
    }

    #[test]
    fn job_ids_are_stable_hex_fingerprints() {
        let spec = jobspec::parse(r#"{"kind":"operator","width":3}"#).expect("spec");
        let id = job_id(&spec.job);
        assert_eq!(id.len(), 16);
        assert!(id.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(id, job_id(&spec.job), "deterministic");
    }
}
