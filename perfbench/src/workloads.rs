//! The four workloads, their output checks and the traced run's
//! per-layer attribution.

use crate::host::{self, ProcCounters};
use crate::trace::{event_log, Trace};
use crate::{
    quantile, Config, Metric, Outcome, Samples, Workload, ATTRIBUTION_REPS, HITS_PER_JOB,
    PER_LAYER, PROBE_HITS, SETUPS, SHARDS, WARMUP_REPORT,
};
use scdp_analyze::{CollapsedUniverse, DominatorChains, PrunedUniverse};
use scdp_campaign::{
    CampaignJob, CampaignReport, CampaignRunner, DatapathCampaignSpec, DatapathScenario, DfgSource,
    EventSink, ExecPolicy, InputSpace, Lanes, SeqDatapathCampaignSpec, TelemetrySnapshot,
};
use scdp_core::{Allocation, Technique};
use scdp_hls::SckStyle;
use scdp_netlist::{Netlist, StuckAtLine};
use scdp_rng::{Rng, SplitMix64};
use scdp_serve::{client, jobspec, Server, ServerConfig, ServerHandle};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Pinned report digests at [`crate::DEFAULT_SEED`], full size:
/// fault groups, situations, and the four-way tally (correct-silent,
/// correct-detected, error-detected, error-undetected).
const PINNED_COMB: (u64, u64, [u64; 4]) =
    (5182, 5_306_368, [2_196_557, 1_145_670, 1_919_973, 44_168]);
const PINNED_SEQ: (u64, u64, [u64; 4]) = (5182, 2_653_184, [1_025_792, 620_325, 984_975, 22_092]);

/// How often a waiting client polls a job's status. Every request is a
/// fresh connection that leaves a TIME_WAIT socket behind; polling
/// every 1 ms left ~15k of them per run and tripled the hit tail.
const POLL: Duration = Duration::from_millis(5);

/// Runs `cfg.workload`.
pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut run = Run::new(cfg)?;
    match cfg.workload {
        Workload::ServeMix => serve_mix(&mut run)?,
        kind => library(&mut run, kind)?,
    }
    Ok(run.finish())
}

/// One set-up of `cfg.workload` in this process: the workload's specs
/// (and for `serve_mix` its server, up to the first `/healthz` 200),
/// then one warm-up operation. Returns the time it took, s, and the
/// warm-up report.
pub(crate) fn setup_once(cfg: &Config) -> Result<(f64, String), String> {
    let t = Instant::now();
    let mut run = Run::new(cfg)?;
    if cfg.workload == Workload::ServeMix {
        let serve = Serve::start(run.state.join("serve"))?;
        let spec = serve_spec(cfg, JobSeeds::new(cfg).next(), false);
        let out = serve.job(&mut run, 0, None, &spec, false);
        let seconds = t.elapsed().as_secs_f64();
        serve.shutdown();
        return Ok((seconds, out?.1));
    }
    let report = Library::new(cfg, cfg.workload).campaign(&run.state.join("warmup"), None)?;
    Ok((t.elapsed().as_secs_f64(), report.to_json()))
}

/// The state of one run: samples, counts and the trace.
struct Run<'a> {
    cfg: &'a Config,
    state: PathBuf,
    samples: Samples,
    situations: u64,
    op_ms_total: f64,
    attempted: u64,
    failed: u64,
    digest_ok: bool,
    proc: ProcCounters,
    proc_ops: u64,
    trace: Trace,
    notes: Vec<String>,
    corrupt_pending: bool,
}

impl<'a> Run<'a> {
    fn new(cfg: &'a Config) -> Result<Self, String> {
        let state = cfg.work_dir.join("state");
        let _ = std::fs::remove_dir_all(&state);
        std::fs::create_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
        Ok(Run {
            cfg,
            state,
            samples: Samples::default(),
            situations: 0,
            op_ms_total: 0.0,
            attempted: 0,
            failed: 0,
            digest_ok: true,
            proc: ProcCounters::default(),
            proc_ops: 0,
            trace: Trace::new(),
            notes: Vec::new(),
            corrupt_pending: false,
        })
    }

    /// Counts one operation; a failed check is never skipped.
    fn count(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Checks `report` against `reference`, applying the test-only
    /// corruption to the first timed report.
    fn verify(&mut self, report: &CampaignReport, reference: &CampaignReport) -> bool {
        if std::mem::take(&mut self.corrupt_pending) {
            let mut bad = report.clone();
            let col = bad.filled[0] as usize;
            bad.tally.tech[col].error_undetected += 1;
            return bad.same_results(reference);
        }
        report.same_results(reference)
    }

    /// Traced runs alternate: odd operations are traced, even ones are
    /// not, so both medians come from the same stretch of time.
    fn traced(&self, i: u64) -> bool {
        self.cfg.trace && i % 2 == 1
    }

    /// Runs `op` until the measuring time is spent.
    fn timed_loop(
        &mut self,
        mut op: impl FnMut(&mut Self, u64) -> Result<(), String>,
    ) -> Result<(), String> {
        self.corrupt_pending = self.cfg.corrupt_first;
        let deadline = Instant::now() + Duration::from_secs_f64(self.cfg.seconds);
        // A traced run needs at least one untraced and one traced operation.
        let min_ops = if self.cfg.trace { 2 } else { 1 };
        let mut i = 0;
        while i < min_ops || Instant::now() < deadline {
            op(self, i)?;
            i += 1;
        }
        Ok(())
    }

    /// Records the samples of one finished campaign operation.
    fn record_op(&mut self, i: u64, ms: f64, situations: u64, before: ProcCounters) {
        if self.traced(i) {
            self.samples.push("traced_op_ms", ms);
            let st = self.trace.self_times(i);
            let total: u64 = st.values().sum();
            let unattributed = st.get("op").copied().unwrap_or(0);
            self.samples.push(
                "obs.unattributed_pct",
                100.0 * unattributed as f64 / total.max(1) as f64,
            );
            self.notes.push(format!(
                "selftime op={i} {}",
                st.iter()
                    .map(|(k, v)| format!("{k}={:.3}ms", *v as f64 / 1e6))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        } else {
            self.samples.push("op_ms", ms);
            self.op_ms_total += ms;
            self.situations += situations;
            self.proc.add(&ProcCounters::now().since(&before));
            self.proc_ops += 1;
        }
    }

    /// Times one attribution call into a layer's public function.
    fn attribute<T>(&mut self, name: &'static str, scale: f64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(f());
        self.samples.push(name, t.elapsed().as_secs_f64() * scale);
        out
    }

    /// Records the per-layer quantities a traced report's telemetry
    /// carries; `faults` is the report's fault-group universe.
    fn telemetry_samples(&mut self, t: &TelemetrySnapshot, faults: u64) {
        let counter = |name: &str| {
            t.counter(&format!("engine.{name}"))
                .or_else(|| t.counter(&format!("seq.{name}")))
        };
        let situations = counter("situations").unwrap_or(0);
        self.samples.push("sim.situations", situations as f64);
        self.samples.push(
            "sim.fault_batches",
            counter("fault_batches").unwrap_or(0) as f64,
        );
        let simulate_ns = t.span("campaign/simulate").map_or(0, |s| s.total_ns);
        self.samples
            .push("sim.simulate_ms", simulate_ns as f64 / 1e6);
        self.samples.push(
            "sim.ns_per_situation",
            simulate_ns as f64 / situations.max(1) as f64,
        );
        self.samples.push(
            "analyze.deduce_spans",
            t.span("campaign/deduce").map_or(0, |s| s.count) as f64,
        );
        // Groups the engine had to simulate, over the universe. (Each
        // shard's `collapse.sites_before` counts the whole universe, so
        // the merged counter is not the denominator.)
        let simulated = t
            .counter("deduce.simulated")
            .or_else(|| t.counter("collapse.sites_after"))
            .unwrap_or(faults);
        self.samples.push(
            "analyze.simulated_fraction",
            simulated as f64 / faults.max(1) as f64,
        );
        if let Some(root) = t.span("campaign") {
            self.samples.push(
                "campaign.shard_ms",
                root.total_ns as f64 / 1e6 / root.count.max(1) as f64,
            );
        }
    }

    /// Times the static layers on one workload netlist.
    fn attribute_netlist(&mut self, netlist: &Netlist, groups: &[Vec<StuckAtLine>]) {
        let cu = self.attribute("analyze.collapse_ms", 1e3, || {
            CollapsedUniverse::build(netlist)
        });
        self.attribute("analyze.deduce_ms", 1e3, || {
            (
                PrunedUniverse::build(netlist, groups),
                DominatorChains::build(netlist, &cu),
            )
        });
    }

    /// Times report serialise, parse and merge on the workload's
    /// reports. Returns the size of the shard files.
    fn attribute_reports(
        &mut self,
        report: &CampaignReport,
        shard_files: &[PathBuf],
    ) -> Result<usize, String> {
        let text = self.attribute("campaign.serialise_ms", 1e3, || report.to_json());
        self.attribute("campaign.parse_ms", 1e3, || {
            CampaignReport::from_json(&text)
        })
        .map_err(|e| format!("re-parse of a report: {e}"))?;
        self.samples
            .push("campaign.report_bytes", text.len() as f64);
        let mut shards = Vec::new();
        let mut bytes = 0usize;
        for path in shard_files {
            let t =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            bytes += t.len();
            shards.push(
                CampaignReport::from_json(&t).map_err(|e| format!("{}: {e}", path.display()))?,
            );
        }
        self.attribute("campaign.merge_ms", 1e3, || CampaignReport::merge(&shards))
            .map_err(|e| format!("merge of checkpoints: {e}"))?;
        Ok(bytes)
    }

    /// Runs [`SETUPS`] set-ups, each in a fresh process of this
    /// benchmark (`--setup-once`), and checks each warm-up report with
    /// `check`. A process that fails stops the run.
    fn setups(&mut self, check: impl Fn(&str) -> bool) -> Result<(), String> {
        let cfg = self.cfg;
        for k in 0..SETUPS {
            let dir = self.state.join(format!("setup-{k}"));
            let out = Command::new(&cfg.exe)
                .arg("--setup-once")
                .arg(cfg.workload.name())
                .arg(cfg.seed.to_string())
                .arg(if cfg.tiny { "tiny" } else { "full" })
                .arg(&dir)
                .output()
                .map_err(|e| format!("set-up process {}: {e}", cfg.exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let seconds = stdout
                .lines()
                .find_map(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.parse::<f64>().ok());
            let (true, Some(seconds)) = (out.status.success(), seconds) else {
                return Err(format!(
                    "set-up process exited with {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                ));
            };
            let report = std::fs::read_to_string(dir.join(WARMUP_REPORT)).unwrap_or_default();
            self.samples.push("setup_s", seconds);
            self.count(check(&report));
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(())
    }

    /// Assembles the outcome of this run's mode.
    fn finish(mut self) -> Outcome {
        let s = &self.samples;
        let mut metrics = Vec::new();
        let n_ops = s.get("op_ms").len();
        let n_hits = s.get("hit_ms").len();
        self.notes.push(format!(
            "samples campaign_ops={n_ops} traced_ops={} hits={n_hits} setups={}",
            s.get("traced_op_ms").len(),
            s.get("setup_s").len()
        ));
        let per_op = self.proc_ops.max(1) as f64;
        self.notes.push(format!(
            "host_per_op minflt={:.1} cpu_ms={:.1} sys_ms={:.1} runq_ms={:.2}",
            self.proc.minflt as f64 / per_op,
            self.proc.user_ms / per_op,
            self.proc.sys_ms / per_op,
            self.proc.runq_ms / per_op
        ));
        let list = |name: &str| {
            s.get(name)
                .iter()
                .map(|v| format!("{v:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        self.notes.push(format!("op_ms {}", list("op_ms")));
        self.notes
            .push(format!("traced_op_ms {}", list("traced_op_ms")));
        if n_hits > 0 {
            let qs = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 1.0];
            let hits = s.get("hit_ms");
            let line: Vec<String> = qs
                .iter()
                .map(|&q| format!("p{}={:.3}", q * 100.0, quantile(hits, q)))
                .collect();
            self.notes.push(format!("hit_ms {}", line.join(" ")));
        }
        let med = |name: &str| s.median(name).unwrap_or(f64::NAN);
        let hit_q = |q| {
            if n_hits == 0 {
                f64::NAN
            } else {
                quantile(s.get("hit_ms"), q)
            }
        };
        if self.cfg.trace {
            let ops = self.proc_ops.max(1) as f64;
            let overhead = 100.0 * (med("traced_op_ms") / med("op_ms") - 1.0);
            for (name, unit) in PER_LAYER {
                let value = match name {
                    "host.minflt_per_op" => self.proc.minflt as f64 / ops,
                    "host.cpu_ms_per_op" => self.proc.user_ms / ops,
                    "host.sys_ms_per_op" => self.proc.sys_ms / ops,
                    "host.runq_wait_ms_per_op" => self.proc.runq_ms / ops,
                    "obs.telemetry_overhead_pct" => overhead,
                    "serve.hit_p50_ms" => hit_q(0.5),
                    "serve.hit_p99_ms" => hit_q(0.99),
                    _ => med(name),
                };
                metrics.push(Metric { name, value, unit });
            }
        } else {
            let values = [
                med("setup_s"),
                med("op_ms"),
                self.situations as f64 / (self.op_ms_total / 1e3),
                host::peak_rss_mb(),
                (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64,
            ];
            for ((name, unit), value) in crate::END_TO_END.into_iter().zip(values) {
                metrics.push(Metric { name, value, unit });
            }
        }
        let complete = metrics.iter().all(|m| m.value.is_finite());
        if !complete {
            self.notes
                .push("incomplete: a metric had no samples".to_string());
        }
        Outcome {
            attempted: self.attempted.max(1),
            failed: self.failed,
            correct: self.failed == 0 && self.attempted > 0 && self.digest_ok && complete,
            metrics,
            notes: self.notes,
            trace: self.cfg.trace.then(|| self.trace.to_json()),
        }
    }
}

/// The FIR scenario every workload grades.
fn scenario(width: u32) -> DatapathScenario {
    DatapathScenario::new(DfgSource::Fir, width)
        .technique(Technique::Both)
        .style(SckStyle::Full)
        .allocation(Allocation::SingleUnit)
}

/// The execution policy of every campaign: one thread, widest lanes.
fn exec() -> ExecPolicy {
    ExecPolicy::new().threads(1).lanes(Lanes::Auto)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One of the three library workloads.
struct Library {
    kind: Workload,
    comb: DatapathCampaignSpec,
    seq: SeqDatapathCampaignSpec,
}

impl Library {
    /// The workload's campaign specs.
    fn new(cfg: &Config, kind: Workload) -> Library {
        let space = InputSpace::Sampled {
            per_fault: cfg.samples(),
            seed: cfg.input_seed(),
        };
        Library {
            kind,
            comb: scenario(cfg.width())
                .campaign()
                .input_space(space)
                .exec(exec()),
            seq: scenario(cfg.width())
                .seq_campaign()
                .input_space(space)
                .exec(exec()),
        }
    }

    /// The reference report. It comes from a different product path
    /// that the product promises to be bit-identical: reduced against
    /// unreduced.
    fn reference(&self) -> Result<CampaignReport, String> {
        let reduced = exec().collapse(true).prune(true);
        match self.kind {
            Workload::Fir8Pruned => self.comb.run(),
            Workload::Fir8Seq => self.seq.clone().exec(reduced).run(),
            _ => self.comb.clone().exec(reduced).run(),
        }
        .map_err(|e| format!("reference campaign: {e}"))
    }

    /// One campaign operation; `sink` makes it a traced one.
    fn campaign(&self, dir: &Path, sink: Option<EventSink>) -> Result<CampaignReport, String> {
        let traced = sink.is_some();
        match self.kind {
            Workload::Fir8Pruned => {
                let spec = self.comb.clone().exec(exec().collapse(true).prune(true));
                let mut runner =
                    CampaignRunner::new(CampaignJob::Datapath(spec), SHARDS).checkpoint_dir(dir);
                if let Some(sink) = sink {
                    runner = runner.events(sink).telemetry(true);
                }
                runner
                    .run()
                    .map_err(err)?
                    .report
                    .ok_or_else(|| "runner left shards pending".to_string())
            }
            Workload::Fir8Seq => {
                let mut spec = self.seq.clone().exec(exec().telemetry(traced));
                if let Some(sink) = sink {
                    spec = spec.events(sink);
                }
                spec.run().map_err(err)
            }
            _ => {
                let mut spec = self.comb.clone().exec(exec().telemetry(traced));
                if let Some(sink) = sink {
                    spec = spec.events(sink);
                }
                spec.run().map_err(err)
            }
        }
    }

    /// The `scdp serve` job spec equivalent to this workload's campaign.
    fn job_spec(&self, cfg: &Config) -> String {
        let kind = if self.kind == Workload::Fir8Seq {
            "sequential"
        } else {
            "datapath"
        };
        let collapse = if self.kind == Workload::Fir8Pruned {
            ", \"collapse\": true"
        } else {
            ""
        };
        format!(
            "{{\"kind\": \"{kind}\", \"workload\": \"fir\", \"width\": {}, \"samples\": {}, \"seed\": {}, \
             \"threads\": 1, \"shards\": {}{collapse}}}",
            cfg.width(),
            cfg.samples(),
            cfg.input_seed(),
            SHARDS
        )
    }
}

/// `fir8_comb`, `fir8_pruned` and `fir8_seq`.
fn library(run: &mut Run<'_>, kind: Workload) -> Result<(), String> {
    let cfg = run.cfg;
    let lib = Library::new(cfg, kind);
    let t = Instant::now();
    let reference = lib.reference()?;
    run.notes.push(format!(
        "reference {} built in {:.1} ms",
        kind.name(),
        ms_since(t)
    ));
    let digest = (
        reference.fault_count(),
        reference.total_situations(),
        tally4(&reference),
    );
    run.notes.push(format!(
        "digest {} faults={} situations={} tally={:?} coverage={:.4}",
        kind.name(),
        digest.0,
        digest.1,
        digest.2,
        reference.coverage()
    ));
    if cfg.pinned() {
        let pinned = if kind == Workload::Fir8Seq {
            PINNED_SEQ
        } else {
            PINNED_COMB
        };
        if digest != pinned {
            run.notes
                .push(format!("digest mismatch: pinned {pinned:?}"));
            run.digest_ok = false;
        }
    }
    run.setups(|text| CampaignReport::from_json(text).is_ok_and(|r| r.same_results(&reference)))?;
    // Nothing lazy is left for the timed loop: the set-ups timed it.
    let warm_up = lib.campaign(&run.state.join("warmup"), None)?;
    run.count(warm_up.same_results(&reference));

    let mut last: Option<(CampaignReport, PathBuf)> = None;
    run.timed_loop(|run, i| {
        let dir = run.state.join(format!("op-{i}"));
        let traced = run.traced(i);
        let (log, sink) = event_log();
        let before = ProcCounters::now();
        let t = Instant::now();
        let root = traced.then(|| run.trace.open(i, None, "op"));
        let call = traced.then(|| run.trace.open(i, root, "campaign.call"));
        let report = lib.campaign(&dir, traced.then_some(sink));
        if let Some(call) = call {
            run.trace.close(call);
            run.trace.import(i, call, &log);
        }
        let verify = traced.then(|| run.trace.open(i, root, "campaign.verify"));
        let ok = report.as_ref().is_ok_and(|r| run.verify(r, &reference));
        let ms = ms_since(t);
        if let (Some(verify), Some(root)) = (verify, root) {
            run.trace.close(verify);
            run.trace.close(root);
        }
        let report = report.map_err(|e| format!("campaign operation {i}: {e}"))?;
        run.count(ok);
        run.record_op(i, ms, report.total_situations(), before);
        if let (Some(call), Some(t)) = (call, &report.telemetry) {
            run.telemetry_samples(t, report.fault_count());
            let runs: f64 = run
                .trace
                .spans
                .iter()
                .filter(|s| s.op == i && s.name == "campaign.run")
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .sum();
            let overhead = run.trace.ms(call) - runs;
            run.samples.push("campaign.runner_overhead_ms", overhead);
        }
        if let Some((_, old)) = last.replace((report, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
        Ok(())
    })?;

    if cfg.trace {
        let (report, dir) = last.ok_or("no operation finished in the measuring time")?;
        let mut shard_files = checkpoint_files(&dir);
        for _ in 0..ATTRIBUTION_REPS {
            let s = scenario(cfg.width());
            if kind == Workload::Fir8Seq {
                let dp = run.attribute("hls.elaborate_ms", 1e3, || s.elaborate_seq());
                run.attribute("sim.compile_ms", 1e3, || {
                    scdp_sim::SeqEngine::new(&dp.netlist)
                });
                run.attribute_netlist(&dp.netlist, &dp.fault_universe().0);
            } else {
                let dp = run.attribute("hls.elaborate_ms", 1e3, || s.elaborate());
                run.attribute("sim.compile_ms", 1e3, || scdp_sim::Engine::new(&dp.netlist));
                run.attribute_netlist(&dp.netlist, &dp.fault_universe().0);
            }
            let spec = lib.job_spec(cfg);
            run.attribute("serve.jobspec_parse_us", 1e6, || jobspec::parse(&spec))
                .map_err(|e| format!("job spec: {e}"))?;
        }
        let probe_files = serve_probe(run, &lib.job_spec(cfg), &reference)?;
        if kind != Workload::Fir8Pruned {
            // Unsharded workloads write no checkpoints; their merge is
            // timed on the served job's shards.
            shard_files = probe_files;
        }
        let mut bytes = 0;
        for _ in 0..ATTRIBUTION_REPS {
            bytes = run.attribute_reports(&report, &shard_files)?;
        }
        // Only the runner workload writes checkpoints of its own.
        let written = if kind == Workload::Fir8Pruned {
            bytes
        } else {
            0
        };
        run.samples
            .push("campaign.checkpoint_bytes", written as f64);
    }
    Ok(())
}

/// The four-way tally of a report's canonical column.
fn tally4(r: &CampaignReport) -> [u64; 4] {
    let t = r.four_way();
    [
        t.correct_silent,
        t.correct_detected,
        t.error_detected,
        t.error_undetected,
    ]
}

/// The `shard-NNN.json` files of a checkpoint directory, in order.
fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    files.retain(|p| {
        p.file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("shard-"))
    });
    files.sort();
    files
}

/// A started server and the client's view of it.
struct Serve {
    handle: ServerHandle,
    addr: String,
    dir: PathBuf,
}

impl Serve {
    /// `Server::start` on a fresh directory, up to the first
    /// `/healthz` 200.
    fn start(dir: PathBuf) -> Result<Serve, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let handle = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            dir: dir.clone(),
            workers: 1,
        })
        .map_err(|e| format!("server start: {e}"))?;
        let addr = handle.addr().to_string();
        let deadline = Instant::now() + Duration::from_secs(10);
        while client::request(&addr, "GET", "/healthz", None).map(|r| r.status) != Ok(200) {
            if Instant::now() > deadline {
                handle.shutdown();
                return Err("server never answered /healthz".to_string());
            }
            std::thread::sleep(POLL);
        }
        Ok(Serve { handle, addr, dir })
    }

    /// Submits `spec`, waits for it and fetches its report, timing each
    /// route into `run` when `traced` (op `i` of the trace).
    fn job(
        &self,
        run: &mut Run<'_>,
        i: u64,
        root: Option<usize>,
        spec: &str,
        traced: bool,
    ) -> Result<(String, String), String> {
        let t = Instant::now();
        let submit = traced.then(|| run.trace.open(i, root, "serve.submit"));
        let outcome = client::submit(&self.addr, spec)?;
        let acked = Instant::now();
        if let Some(id) = submit {
            run.trace.close(id);
            run.samples.push("serve.submit_ms", ms_since(t));
        }
        if outcome.cache != "miss" {
            return Err(format!("fresh job answered `{}`", outcome.cache));
        }
        let wait = traced.then(|| run.trace.open(i, root, "serve.wait"));
        let mut running = None;
        loop {
            let t = Instant::now();
            let status = client::job_status(&self.addr, &outcome.id)?;
            if traced {
                run.samples.push("serve.status_ms", ms_since(t));
            }
            match status.status.as_str() {
                "done" => break,
                "failed" => return Err(status.error.unwrap_or_else(|| "job failed".to_string())),
                "running" if running.is_none() => running = Some(Instant::now()),
                _ => {}
            }
            std::thread::sleep(POLL);
        }
        if let Some(id) = wait {
            run.trace.close(id);
            let started = running.unwrap_or_else(Instant::now);
            run.samples.push(
                "serve.queue_wait_ms",
                started.duration_since(acked).as_secs_f64() * 1e3,
            );
        }
        let t = Instant::now();
        let fetch = traced.then(|| run.trace.open(i, root, "serve.fetch"));
        let text = client::fetch_report(&self.addr, &outcome.id)?;
        if let Some(id) = fetch {
            run.trace.close(id);
            run.samples.push("serve.fetch_ms", ms_since(t));
        }
        Ok((outcome.id, text))
    }

    /// One cache hit: resubmit a finished spec and fetch its report.
    /// `true` when the server answers `hit` for the same job and serves
    /// the bytes first fetched.
    fn hit(&self, run: &mut Run<'_>, done: &Finished, traced: bool) -> Result<bool, String> {
        let t = Instant::now();
        let outcome = client::submit(&self.addr, &done.spec)?;
        if traced {
            run.samples.push("serve.submit_ms", ms_since(t));
        }
        let t2 = Instant::now();
        let text = client::fetch_report(&self.addr, &done.id)?;
        if traced {
            run.samples.push("serve.fetch_ms", ms_since(t2));
        }
        run.samples.push("hit_ms", ms_since(t));
        Ok(outcome.cache == "hit"
            && outcome.id == done.id
            && fnv(text.as_bytes()) == done.hash
            && text.len() == done.len)
    }

    fn shutdown(self) {
        self.handle.shutdown();
    }
}

/// Lays the product's per-stage span totals of a served report end to
/// end under span `parent`: the server runs the job on its own thread,
/// so only totals reach the client.
fn import_totals(trace: &mut Trace, op: u64, parent: usize, t: &TelemetrySnapshot) {
    let Some(root) = t.span("campaign") else {
        return;
    };
    let start = trace.spans[parent].start_ns;
    let run = trace.push_span(
        op,
        Some(parent),
        "campaign.run",
        start,
        start + root.total_ns,
    );
    let mut at = start;
    for s in t.spans.iter().filter(|s| s.path.starts_with("campaign/")) {
        let stage = crate::trace::stage_name(&s.path["campaign/".len()..]);
        trace.push_span(op, Some(run), &stage, at, at + s.total_ns);
        at += s.total_ns;
    }
}

/// A finished job the client may ask for again.
struct Finished {
    spec: String,
    id: String,
    hash: u64,
    len: usize,
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The input seeds of the `serve_mix` jobs, drawn from the workload
/// seed. The first one is the set-up's warm-up job.
struct JobSeeds(SplitMix64);

impl JobSeeds {
    fn new(cfg: &Config) -> Self {
        JobSeeds(SplitMix64::new(cfg.seed))
    }

    /// The next job seed (kept below 2^32 so a JSON job spec carries
    /// it exactly).
    fn next(&mut self) -> u64 {
        self.0.next_u64() & 0xFFFF_FFFF
    }
}

/// A `serve_mix` job spec.
fn serve_spec(cfg: &Config, seed: u64, telemetry: bool) -> String {
    format!(
        "{{\"kind\": \"datapath\", \"workload\": \"fir\", \"width\": {}, \"samples\": {}, \"seed\": {seed}, \
         \"threads\": 1, \"collapse\": true, \"shards\": {}{}}}",
        cfg.serve_width(),
        cfg.samples(),
        SHARDS,
        if telemetry { ", \"telemetry\": true" } else { "" }
    )
}

/// The reference of a `serve_mix` job: the library runs the same
/// campaign unsharded and uncollapsed.
fn serve_reference(cfg: &Config, seed: u64) -> Result<CampaignReport, String> {
    scenario(cfg.serve_width())
        .campaign()
        .input_space(InputSpace::Sampled {
            per_fault: cfg.samples(),
            seed,
        })
        .exec(exec())
        .run()
        .map_err(|e| format!("reference campaign: {e}"))
}

/// The traced run's serve attribution for a library workload: one
/// fresh job with this workload's spec, then repeat requests. Returns
/// the job's shard checkpoint files.
fn serve_probe(
    run: &mut Run<'_>,
    spec: &str,
    reference: &CampaignReport,
) -> Result<Vec<PathBuf>, String> {
    let serve = Serve::start(run.state.join("probe-serve"))?;
    let (id, text) = serve.job(run, u64::MAX, None, spec, true)?;
    let ok = CampaignReport::from_json(&text).is_ok_and(|r| r.same_results(reference));
    run.count(ok);
    let done = Finished {
        spec: spec.to_string(),
        id: id.clone(),
        hash: fnv(text.as_bytes()),
        len: text.len(),
    };
    for _ in 0..PROBE_HITS {
        let ok = serve.hit(run, &done, true)?;
        run.count(ok);
    }
    let files = checkpoint_files(&serve.dir.join(&id));
    serve.shutdown();
    Ok(files)
}

/// `serve_mix`: fresh w4 jobs, each followed by cache hits on jobs
/// already finished.
fn serve_mix(run: &mut Run<'_>) -> Result<(), String> {
    let cfg = run.cfg;
    let mut seeds = JobSeeds::new(cfg);
    let setup_seed = seeds.next();
    let setup_reference = serve_reference(cfg, setup_seed)?;
    let warm_up = |text: &str| {
        CampaignReport::from_json(text).is_ok_and(|r| r.same_results(&setup_reference))
    };
    run.setups(warm_up)?;
    let serve = Serve::start(run.state.join("serve"))?;
    // Nothing lazy is left for the timed loop: the set-ups timed it.
    match serve.job(run, 0, None, &serve_spec(cfg, setup_seed, false), false) {
        Ok((_, text)) => run.count(warm_up(&text)),
        Err(e) => {
            serve.shutdown();
            return Err(e);
        }
    };

    let mut finished: Vec<Finished> = Vec::new();
    let mut pick = SplitMix64::new(!cfg.seed);
    let mut last: Option<(String, String, String)> = None;
    let result = run.timed_loop(|run, i| {
        let traced = run.traced(i);
        let seed = seeds.next();
        let expected = serve_reference(cfg, seed)?;
        let spec = serve_spec(cfg, seed, traced);
        let before = ProcCounters::now();
        let t = Instant::now();
        let root = traced.then(|| run.trace.open(i, None, "op"));
        let (id, text) = serve.job(run, i, root, &spec, traced)?;
        let verify = traced.then(|| run.trace.open(i, root, "campaign.verify"));
        let report = CampaignReport::from_json(&text).map_err(|e| format!("served report: {e}"));
        let ok = report.as_ref().is_ok_and(|r| run.verify(r, &expected));
        let ms = ms_since(t);
        if let (Some(verify), Some(root)) = (verify, root) {
            run.trace.close(verify);
            run.trace.close(root);
        }
        run.count(ok);
        let report = report?;
        if let Some(tel) = &report.telemetry {
            run.telemetry_samples(tel, report.fault_count());
            let wait = run
                .trace
                .spans
                .iter()
                .rposition(|s| s.op == i && s.name == "serve.wait");
            if let (Some(wait), Some(root)) = (wait, tel.span("campaign")) {
                import_totals(&mut run.trace, i, wait, tel);
                run.samples.push(
                    "campaign.runner_overhead_ms",
                    run.trace.ms(wait) - root.total_ns as f64 / 1e6,
                );
            }
        }
        run.record_op(i, ms, report.total_situations(), before);
        finished.push(Finished {
            spec: spec.clone(),
            id: id.clone(),
            hash: fnv(text.as_bytes()),
            len: text.len(),
        });
        for _ in 0..HITS_PER_JOB {
            let done = &finished[pick.gen_range(finished.len() as u64) as usize];
            let ok = serve.hit(run, done, traced)?;
            run.count(ok);
        }
        last = Some((spec, id, text));
        Ok(())
    });
    if let Err(e) = result {
        serve.shutdown();
        return Err(e);
    }

    if cfg.trace {
        let (spec, id, text) = last.ok_or("no operation finished in the measuring time")?;
        let report = CampaignReport::from_json(&text).map_err(err)?;
        let files = checkpoint_files(&serve.dir.join(&id));
        for _ in 0..ATTRIBUTION_REPS {
            let dp = run.attribute("hls.elaborate_ms", 1e3, || {
                scenario(cfg.serve_width()).elaborate()
            });
            run.attribute("sim.compile_ms", 1e3, || scdp_sim::Engine::new(&dp.netlist));
            run.attribute_netlist(&dp.netlist, &dp.fault_universe().0);
            run.attribute("serve.jobspec_parse_us", 1e6, || jobspec::parse(&spec))
                .map_err(|e| format!("job spec: {e}"))?;
            let bytes = run.attribute_reports(&report, &files)?;
            run.samples.push("campaign.checkpoint_bytes", bytes as f64);
        }
    }
    serve.shutdown();
    Ok(())
}
