//! The scdp benchmark: end-to-end campaign latency and throughput
//! through the public library and server surfaces, plus a traced run
//! that splits each operation into per-layer costs.
//!
//! One process runs one workload as a closed loop: a single caller
//! issues an operation, waits for its report, checks it, and only then
//! issues the next. Every campaign runs with `ExecPolicy::threads(1)`,
//! so the parallel pool stays out of the numbers. The workload seed is
//! the only input; the program receives the specs generated from it.
//!
//! The layer → end-to-end table and the meaning of every metric are in
//! `perfbench/LAYERS.md`.

pub mod host;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Shards of the runner and server jobs.
pub const SHARDS: u32 = 4;

/// The seed whose `fir8_*` reports are also checked against pinned
/// tally digests.
pub const DEFAULT_SEED: u64 = 1;

/// The named workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `DatapathCampaignSpec::run` of the w8 FIR datapath, unreduced.
    Fir8Comb,
    /// The same scenario collapsed and pruned through a 4-shard
    /// `CampaignRunner` with checkpoints.
    Fir8Pruned,
    /// `SeqDatapathCampaignSpec::run`, permanent faults.
    Fir8Seq,
    /// An in-process `scdp serve` with fresh jobs and cache hits.
    ServeMix,
}

impl Workload {
    /// Every workload the command runs. `BENCHMARK.json` lists only
    /// `fir8_comb` and `serve_mix`; `perfbench/LAYERS.md` says why.
    pub const ALL: [Workload; 4] = [
        Workload::Fir8Comb,
        Workload::Fir8Pruned,
        Workload::Fir8Seq,
        Workload::ServeMix,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fir8Comb => "fir8_comb",
            Workload::Fir8Pruned => "fir8_pruned",
            Workload::Fir8Seq => "fir8_seq",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `serve_mix` cache hits after each fresh job: 1,000+ hits per run,
/// so that 10+ samples lie beyond p99.
pub const HITS_PER_JOB: usize = 16;

/// Cache hits of the traced run's serve probe on the `fir8_*`
/// workloads.
pub const PROBE_HITS: usize = 1000;

/// How many fresh processes each run one set-up; `setup_s` is their
/// median.
pub const SETUPS: usize = 7;

/// Repetitions of each attribution call in the traced run.
pub const ATTRIBUTION_REPS: usize = 5;

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the timed loop runs, s.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small netlists and few vectors, for the smoke test.
    pub tiny: bool,
    /// Changes one tally of the first timed report before it is
    /// checked, to prove that a wrong report counts as failed.
    pub corrupt_first: bool,
    /// Work directory for checkpoints, job state and the trace.
    pub work_dir: PathBuf,
    /// The benchmark executable, run with `--setup-once` for each
    /// set-up.
    pub exe: PathBuf,
}

impl Config {
    /// The full-size configuration of `workload`.
    #[must_use]
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        work_dir: PathBuf,
        exe: PathBuf,
    ) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            tiny: false,
            corrupt_first: false,
            work_dir,
            exe,
        }
    }

    /// The tiny configuration of the smoke test: small netlists, few
    /// vectors.
    #[must_use]
    pub fn tiny(mut self) -> Self {
        self.tiny = true;
        self
    }

    /// Datapath width of the `fir8_*` workloads.
    fn width(&self) -> u32 {
        if self.tiny {
            3
        } else {
            8
        }
    }

    /// Datapath width of the `serve_mix` jobs.
    fn serve_width(&self) -> u32 {
        if self.tiny {
            3
        } else {
            4
        }
    }

    /// Sampled vectors per fault.
    fn samples(&self) -> u64 {
        match (self.tiny, self.workload) {
            (true, _) => 64,
            // The sequential machine grades 11 cycles per vector; half
            // the vectors keep 20+ operations inside one run.
            (false, Workload::Fir8Seq) => 512,
            (false, _) => 1024,
        }
    }

    /// `true` when the pinned tally digests apply.
    fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED && !self.tiny
    }

    /// The input-space seed of the `fir8_*` campaigns (kept below 2^32
    /// so a JSON job spec carries it exactly).
    fn input_seed(&self) -> u64 {
        self.seed & 0xFFFF_FFFF
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations (campaigns and repeat requests) issued.
    pub attempted: u64,
    /// Operations whose output did not verify.
    pub failed: u64,
    /// `true` when every output verified and every pinned digest held.
    pub correct: bool,
    /// The metrics of this run's mode.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result: samples, references, digests.
    pub notes: Vec<String>,
    /// The traced run's spans as JSON.
    pub trace: Option<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits (non-finite values become -1).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A description of a failure that stops the run before it can
/// report: the work directory, the server, a set-up process or a
/// reference campaign.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;
    let out = workloads::run(cfg);
    let _ = std::fs::remove_dir_all(cfg.work_dir.join("state"));
    out
}

/// One set-up of `cfg.workload`, as a fresh process runs it: from the
/// workload's start to the moment its first timed operation could be
/// issued. Writes the warm-up operation's report to
/// `cfg.work_dir/warmup.json` for the calling run to check, and returns
/// the set-up time, s.
///
/// # Errors
///
/// A description of a failed set-up.
pub fn setup_once(cfg: &Config) -> Result<f64, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;
    let out = workloads::setup_once(cfg);
    let _ = std::fs::remove_dir_all(cfg.work_dir.join("state"));
    let (seconds, report) = out?;
    let path = cfg.work_dir.join(WARMUP_REPORT);
    std::fs::write(&path, report).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(seconds)
}

/// The file a set-up process leaves its warm-up report in.
pub(crate) const WARMUP_REPORT: &str = "warmup.json";

/// The end-to-end metric names, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("campaign_p50_ms", "ms"),
    ("situations_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
];

/// The per-layer metric names, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("hls.elaborate_ms", "ms"),
    ("sim.compile_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("sim.situations", "count"),
    ("sim.fault_batches", "count"),
    ("sim.ns_per_situation", "ns"),
    ("analyze.collapse_ms", "ms"),
    ("analyze.deduce_ms", "ms"),
    ("analyze.deduce_spans", "count"),
    ("analyze.simulated_fraction", "ratio"),
    ("campaign.shard_ms", "ms"),
    ("campaign.runner_overhead_ms", "ms"),
    ("campaign.serialise_ms", "ms"),
    ("campaign.parse_ms", "ms"),
    ("campaign.merge_ms", "ms"),
    ("campaign.report_bytes", "bytes"),
    ("campaign.checkpoint_bytes", "bytes"),
    ("serve.submit_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.jobspec_parse_us", "us"),
    ("host.minflt_per_op", "count"),
    ("host.cpu_ms_per_op", "ms"),
    ("host.sys_ms_per_op", "ms"),
    ("host.runq_wait_ms_per_op", "ms"),
    ("obs.telemetry_overhead_pct", "%"),
    ("obs.unattributed_pct", "%"),
];

/// Samples of named quantities, reduced to medians at the end.
#[derive(Clone, Debug, Default)]
pub(crate) struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub(crate) fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub(crate) fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn median(&self, name: &str) -> Option<f64> {
        let v = self.get(name);
        (!v.is_empty()).then(|| quantile(v, 0.5))
    }
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
