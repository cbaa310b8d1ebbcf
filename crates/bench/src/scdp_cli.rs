//! The unified `scdp` command-line interface.
//!
//! One binary replaces the per-table binaries' duplicated argument and
//! report plumbing with four verbs over the unified campaign surface:
//!
//! * `scdp run` — one campaign (operator, datapath or sequential
//!   datapath), optionally sharded (`--shards N`) and checkpointed to
//!   a directory (`--dir D`). An interrupted sharded sweep resumes
//!   from its checkpoints on the next invocation; a completed one is
//!   merged into a report bit-identical to the unsharded run.
//! * `scdp merge` — recombine the `shard-NNN.json` checkpoints of one
//!   sweep into the full report.
//! * `scdp validate` — parse and schema-check report files (v1–v4).
//! * `scdp table` — render saved reports as a summary table.
//! * `scdp sweep` — the workload × technique sweeps formerly known as
//!   `table_datapath` (and, with `--seq`, `table_seq`); those binaries
//!   are now thin wrappers over this verb.
//!
//! The module lives in the library (rather than the binary) so the
//! wrapper binaries can delegate and tests can drive it directly.

use crate::cli::{CliArgs, Flag, UsageError};
use crate::pct;
use crate::trace;
use scdp_campaign::{
    duration_label, style_label, CampaignJob, CampaignReport, CampaignRunner, DatapathScenario,
    DfgSource, FaultDuration, RunSpec, ShardState,
};
use scdp_core::{Allocation, Technique};
use std::path::{Path, PathBuf};
use std::sync::Arc;

// Each verb's own flags. Every other flag of `run`, `lint`, `analyze`
// and `sweep` is a run-spec key ([`scdp_campaign::KEYS`]); anything
// else is a usage error, as is any undeclared flag of the other verbs.
const RUN_FLAGS: &[Flag] = &[
    Flag::text("--dir"),
    Flag::int("--max-shards", 0, u32::MAX as u64),
    Flag::text("--report"),
    Flag::text("--trace"),
    Flag::switch("--progress"),
    Flag::switch("--quiet"),
    Flag::switch("--per-fu"),
];
const LINT_FLAGS: &[Flag] = &[Flag::switch("--strict"), Flag::switch("--json")];
const ANALYZE_FLAGS: &[Flag] = &[Flag::switch("--json")];
const SWEEP_FLAGS: &[Flag] = &[Flag::text("--report-dir")];
const MERGE_FLAGS: &[Flag] = &[
    Flag::FILES,
    Flag::text("--dir"),
    Flag::text("--out"),
    Flag::switch("--per-fu"),
];
const VALIDATE_FLAGS: &[Flag] = &[Flag::FILES];
const TABLE_FLAGS: &[Flag] = &[Flag::FILES, Flag::text("--dir")];
const TRACE_FLAGS: &[Flag] = &[Flag::FILES];
const SERVE_FLAGS: &[Flag] = &[
    Flag::text("--addr"),
    Flag::text("--dir"),
    Flag::int("--jobs", 1, scdp_campaign::MAX_THREADS),
];
const SUBMIT_FLAGS: &[Flag] = &[
    Flag::FILES,
    Flag::text("--addr"),
    Flag::switch("--wait"),
    Flag::text("--out"),
];

/// Run-spec keys `sweep` fixes itself: it runs every workload and
/// technique (and, with `--seq`, three durations) unsharded.
const SWEEP_AXES: &[&str] = &[
    "--kind",
    "--workload",
    "--technique",
    "--duration",
    "--shards",
];

const USAGE: &str = "\
scdp — self-checking data-path campaigns

USAGE:
  scdp run [RUN SPEC] [SHARDING] [OBSERVABILITY] [--report FILE] [--per-fu]
  scdp merge (--dir DIR | FILE...) [--out FILE]
  scdp validate FILE...
  scdp table (--dir DIR | FILE...)
  scdp sweep [--seq] [RUN SPEC] [--report-dir DIR]   (all workloads
             x techniques; not --kind/--workload/--technique/--duration/--shards)
  scdp lint [RUN SPEC] [--strict] [--json]
  scdp analyze [RUN SPEC] [--json]
  scdp trace summarize FILE...   (spans end with `<root> unattributed`:
             the root span's time no direct child span covers)
  scdp serve [--addr A] [--dir DIR] [--jobs N]
  scdp submit SPEC.json [--addr A] [--wait] [--out FILE]

Every verb checks its whole command line first: an unknown, repeated
or value-less flag, or a bad value, exits 2 before any file is read.

RUN SPEC (the keys of a POST /jobs spec as --key, `_` written `-`; a
bad, repeated or unknown flag, or one foreign to the kind, exits 2;
types and defaults: docs/CAMPAIGN_API.md):
  --kind operator|datapath|sequential  (default: datapath with a
                                workload, else operator)
  --op add|sub|mul|div  --realisation rca|cla|csa  (operator)
  --backend functional|gate-level  (operator)
  --fault-model auto|fa-gate|cell|structural  (operator)
  --workload fir|iir|dot|matvec  --style plain|full|embedded  (datapath)
  --seq (= --kind sequential)  --duration permanent|transient@C  (sequential)
  --width N  --technique tech1|tech2|both  --allocation single-unit|dedicated
  --dedicated (= --allocation dedicated)
  --samples N  --seed S  --exhaustive   sampled unless --exhaustive
  --threads N  --drop never|on-detect|on-escape
  --lanes auto|1|4|8  packed-engine lane width (bit-identical results)
  --collapse        simulate one fault per equivalence class
  --prune           settle provably untestable faults unsimulated
                    (both bit-identical; `deduce` records the proofs)
  --telemetry       embed spans, counters and histograms in the report
  --shards N        fault-universe partitions (default 1; server 4)

LINT (scdp lint — static netlist analysis, no simulation):
  lints the scenario's generated netlist (floating nets, combinational
  cycles, dead logic, unreachable checker alarms) and reports the
  fault-collapsing statistics; exits nonzero on lint errors
  --strict          escalate waived findings to warnings
  --json            machine-readable lint + collapse output

ANALYZE (scdp analyze — deductive pruning preview, no simulation):
  prints what `--prune` would settle on the scenario's stuck-at line
  universe: untestability proofs by reason (redundant, blocked,
  unobservable) and the prune ratio
  --json            machine-readable breakdown

SHARDING (scdp run):
  --dir DIR         checkpoint each shard to DIR/shard-NNN.json; an
                    interrupted sweep resumes from DIR next invocation
  --max-shards K    stop after K fresh shards (deterministic interrupt)

SERVING (scdp serve / scdp submit):
  serve runs the campaign job server: POST /jobs, GET /jobs/<id>,
  GET /jobs/<id>/report, GET /healthz — results are cached by
  configuration fingerprint and interrupted jobs resume on restart
  --addr A          bind (serve) / connect (submit); default 127.0.0.1:7878
  --dir DIR         job-state directory (default scdp-jobs)
  --jobs N          concurrent campaign jobs, 1..=256 (default 2)
  --wait            poll the submitted job until it finishes
  --out FILE        write the fetched report (implies --wait)

OBSERVABILITY (scdp run):
  --trace FILE      write every campaign/shard/span event to FILE as
                    JSONL (summarise later with `scdp trace summarize`)
  --progress        live progress on stderr: shard bar, faults/s,
                    drop rate, ETA
";

/// What a verb returns: its exit code, or why it stopped — a
/// [`UsageError`] (exit 2) or any other error (exit 1).
type Outcome = Result<i32, Box<dyn std::error::Error>>;

/// Entry point used by the `scdp` binary: parses the process
/// arguments and returns the exit code.
#[must_use]
pub fn main_from_env() -> i32 {
    run(std::env::args().skip(1).collect())
}

/// Runs one `scdp` invocation over an explicit argument vector
/// (exposed for the wrapper binaries and tests). Returns the process
/// exit code: 0 on success, 1 on campaign/report errors, 2 on usage
/// errors (including every invalid run spec).
#[must_use]
pub fn run(raw: Vec<String>) -> i32 {
    let Some(verb) = raw.first().cloned() else {
        eprint!("{USAGE}");
        return 2;
    };
    let rest: Vec<String> = raw[1..].to_vec();
    let wants_help = rest.iter().any(|a| a == "--help" || a == "-h");
    let checked = |flags: &[Flag]| -> Result<CliArgs, Box<dyn std::error::Error>> {
        Ok(CliArgs::checked(rest.clone(), flags)?)
    };
    let outcome = match verb.as_str() {
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return 0;
        }
        // `--help` after a verb prints the usage instead of running it.
        "run" | "merge" | "validate" | "table" | "sweep" | "lint" | "analyze" | "trace"
        | "serve" | "submit"
            if wants_help =>
        {
            print!("{USAGE}");
            return 0;
        }
        "run" => campaign_args(&rest, RUN_FLAGS).and_then(|(own, spec)| cmd_run(&own, spec)),
        "lint" => campaign_args(&rest, LINT_FLAGS).and_then(|(own, spec)| cmd_lint(&own, &spec)),
        "analyze" => {
            campaign_args(&rest, ANALYZE_FLAGS).and_then(|(own, spec)| cmd_analyze(&own, &spec))
        }
        "sweep" => cmd_sweep(&rest),
        "merge" => checked(MERGE_FLAGS).and_then(|a| cmd_merge(&a)),
        "validate" => checked(VALIDATE_FLAGS).and_then(|a| cmd_validate(a.files())),
        "table" => checked(TABLE_FLAGS).and_then(|a| cmd_table(&a)),
        "trace" => checked(TRACE_FLAGS).and_then(|a| cmd_trace(a.files())),
        "serve" => checked(SERVE_FLAGS).and_then(|a| cmd_serve(&a)),
        "submit" => checked(SUBMIT_FLAGS).and_then(|a| cmd_submit(&a)),
        other => {
            eprintln!("unknown subcommand `{other}`\n");
            eprint!("{USAGE}");
            return 2;
        }
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("scdp {verb}: {e}");
            if e.is::<UsageError>() {
                2
            } else {
                1
            }
        }
    }
}

/// Splits a campaign verb's arguments into its own flags (with their
/// values) and the run-spec flags, and resolves the latter through the
/// one key table.
fn campaign_args(
    raw: &[String],
    own: &[Flag],
) -> Result<(CliArgs, RunSpec), Box<dyn std::error::Error>> {
    let (mut mine, mut spec) = (Vec::new(), Vec::new());
    let mut args = raw.iter();
    while let Some(arg) = args.next() {
        match own.iter().find(|flag| flag.name() == arg) {
            Some(flag) => {
                mine.push(arg.clone());
                if flag.takes_value() {
                    mine.extend(args.next().cloned());
                }
            }
            None => spec.push(arg.as_str()),
        }
    }
    let mine = CliArgs::checked(mine, own)?;
    let spec = RunSpec::from_argv(&spec).map_err(|e| UsageError(e.to_string()))?;
    Ok((mine, spec))
}

fn cmd_run(args: &CliArgs, spec: RunSpec) -> Outcome {
    let RunSpec { mut job, shards } = spec;
    let dir = args.value::<String>("--dir")?;
    let max_shards = args.value::<u32>("--max-shards")?;
    let report_path = args.value::<String>("--report")?;
    let trace_path = args.value::<String>("--trace")?;
    let quiet = args.flag("--quiet");
    let mut sinks = Vec::new();
    if let Some(path) = &trace_path {
        sinks.push(trace::trace_sink(path)?);
    }
    if args.flag("--progress") {
        sinks.push(trace::progress_sink());
    }
    let sink = trace::fan_out(sinks);
    // A shard count above one, a checkpoint directory or a shard budget
    // routes through the runner; only the plain single-shot case runs
    // directly.
    let report = if shards != 1 || dir.is_some() || max_shards.is_some() {
        let mut runner = CampaignRunner::new(job, shards);
        if let Some(sink) = sink {
            runner = runner.events(sink);
        }
        if !quiet {
            runner = runner.on_shard(Arc::new(|index, count, state| {
                let what = match state {
                    ShardState::Resumed => "resumed from checkpoint",
                    ShardState::Ran => "ran",
                    ShardState::Pending => "pending (fresh-shard budget reached)",
                };
                eprintln!("[shard {}/{count}] {what}", index + 1);
            }));
        }
        if let Some(d) = &dir {
            runner = runner.checkpoint_dir(d);
        }
        if let Some(max) = max_shards {
            runner = runner.max_shards(max);
        }
        let outcome = runner.run()?;
        let (resumed, ran, pending) = outcome.counts();
        match outcome.report {
            Some(report) => {
                if !quiet {
                    eprintln!("sweep complete: {ran} shard(s) ran, {resumed} resumed; merged");
                }
                report
            }
            None => {
                println!(
                    "interrupted: {}/{shards} shards checkpointed ({pending} pending); \
                     re-run with the same --dir to resume",
                    resumed + ran
                );
                return Ok(0);
            }
        }
    } else {
        if let Some(sink) = sink {
            job = job.events(sink);
        }
        job.run()?
    };
    print_summary(&report, args.flag("--per-fu"));
    if let Some(path) = &trace_path {
        eprintln!("wrote trace {path}");
    }
    if let Some(path) = report_path {
        std::fs::write(&path, report.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(0)
}

/// `scdp lint` — static analysis of the scenario's generated netlist:
/// structural lints plus the fault-collapsing statistics, without
/// running a single simulation vector. Exits 1 when lint errors exist.
fn cmd_lint(args: &CliArgs, spec: &RunSpec) -> Outcome {
    use scdp_analyze::{lint, CollapsedUniverse, LintOptions};

    let netlist = spec.job.netlist()?;
    let report = lint(
        &netlist,
        &LintOptions {
            strict: args.flag("--strict"),
        },
    );
    let cu = CollapsedUniverse::build(&netlist);
    if args.flag("--json") {
        println!(
            "{{\"lint\": {}, \"collapse\": {{\"sites_before\": {}, \"sites_after\": {}, \
             \"classes\": {}, \"ratio\": {:.4}}}}}",
            report.to_json(),
            cu.sites_before(),
            cu.sites_after(),
            cu.classes(),
            cu.ratio(),
        );
    } else {
        print!("{}", report.render());
        println!(
            "collapse: {} stuck-at lines -> {} equivalence classes (ratio {:.3})",
            cu.sites_before(),
            cu.sites_after(),
            cu.ratio(),
        );
    }
    Ok(i32::from(report.errors() > 0))
}

/// `scdp analyze` — the deductive-pruning preview: classifies the
/// scenario's stuck-at line universe without simulating and prints
/// what a `--prune` campaign would settle — untestability proofs by
/// reason, and the resulting prune ratio.
fn cmd_analyze(args: &CliArgs, spec: &RunSpec) -> Outcome {
    use scdp_analyze::{CollapsedUniverse, PrunedUniverse, UntestableReason, Verdict};

    let netlist = spec.job.netlist()?;
    let lines = netlist.fault_lines();
    let groups: Vec<Vec<scdp_netlist::StuckAtLine>> = lines.iter().map(|&l| vec![l]).collect();
    let pu = PrunedUniverse::build(&netlist, &groups);
    let cu = CollapsedUniverse::build(&netlist);

    let (mut redundant, mut blocked, mut unobservable) = (0usize, 0usize, 0usize);
    for v in pu.verdicts() {
        match v {
            Verdict::ProvenUntestable(UntestableReason::Redundant) => redundant += 1,
            Verdict::ProvenUntestable(UntestableReason::Blocked) => blocked += 1,
            Verdict::ProvenUntestable(UntestableReason::Unobservable) => unobservable += 1,
            Verdict::MustSimulate => {}
        }
    }
    let untestable = redundant + blocked + unobservable;

    let total = lines.len();
    let simulate = total - untestable;
    let ratio = total as f64 / simulate.max(1) as f64;
    if args.flag("--json") {
        println!(
            "{{\"lines\": {total}, \"classes\": {}, \"untestable\": {{\"total\": {untestable}, \
             \"redundant\": {redundant}, \"blocked\": {blocked}, \
             \"unobservable\": {unobservable}}}, \"simulate\": {simulate}, \
             \"prune_ratio\": {ratio:.4}}}",
            cu.classes(),
        );
    } else {
        println!(
            "analyze `{}`: {total} stuck-at lines, {} equivalence classes",
            netlist.name(),
            cu.classes(),
        );
        println!(
            "  untestable {untestable} (redundant {redundant}, blocked {blocked}, \
             unobservable {unobservable})"
        );
        println!("  simulate   {simulate} of {total} — prune ratio {ratio:.3}x");
    }
    Ok(0)
}

/// `scdp trace summarize FILE...` — fold a `--trace` JSONL file back
/// into event counts, span totals and a per-shard outcome table.
fn cmd_trace(files: &[String]) -> Outcome {
    let (action, files) = files
        .split_first()
        .ok_or_else(|| UsageError("usage: scdp trace summarize FILE...".into()))?;
    if action != "summarize" {
        return Err(UsageError(format!(
            "unknown trace action `{action}` (expected `summarize`)"
        ))
        .into());
    }
    if files.is_empty() {
        return Err(UsageError("pass trace files to summarize".into()).into());
    }
    for file in files {
        if files.len() > 1 {
            println!("== {file}");
        }
        let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
        print!(
            "{}",
            trace::summarize(&text).map_err(|e| format!("{file}: {e}"))?
        );
    }
    Ok(0)
}

/// The `shard-NNN.json` checkpoints under `dir`, shard order.
fn shard_files(dir: &str) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {dir}: {e}"))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no shard-*.json checkpoints in {dir}"));
    }
    Ok(files)
}

fn load_report(path: &Path) -> Result<CampaignReport, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    CampaignReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_merge(args: &CliArgs) -> Outcome {
    let paths: Vec<PathBuf> = match args.value::<String>("--dir")? {
        Some(dir) => shard_files(&dir)?,
        None if args.files().is_empty() => {
            return Err(UsageError("pass shard report files or --dir DIR".into()).into())
        }
        None => args.files().iter().map(PathBuf::from).collect(),
    };
    let reports: Vec<CampaignReport> = paths
        .iter()
        .map(|p| load_report(p))
        .collect::<Result<_, _>>()?;
    let merged = CampaignReport::merge(&reports)?;
    eprintln!("merged {} shard report(s)", reports.len());
    print_summary(&merged, args.flag("--per-fu"));
    if let Some(path) = args.value::<String>("--out")? {
        std::fs::write(&path, merged.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(0)
}

fn cmd_validate(files: &[String]) -> Outcome {
    if files.is_empty() {
        return Err(UsageError("pass report files to validate".into()).into());
    }
    let mut failures = 0usize;
    for file in files {
        match load_report(Path::new(file)) {
            Ok(report) => {
                let schema = schema_of(&report);
                println!(
                    "OK   {file}: {schema}, {} faults, coverage {}",
                    report.fault_count(),
                    pct(report.coverage()),
                );
            }
            Err(message) => {
                println!("FAIL {file}: {message}");
                failures += 1;
            }
        }
    }
    Ok(i32::from(failures > 0))
}

fn schema_of(report: &CampaignReport) -> &'static str {
    if report.shard.is_some() {
        scdp_campaign::REPORT_SCHEMA_V4
    } else if report.sequential.is_some() {
        scdp_campaign::REPORT_SCHEMA_V3
    } else if report.datapath.is_some() {
        scdp_campaign::REPORT_SCHEMA_V2
    } else {
        scdp_campaign::REPORT_SCHEMA
    }
}

fn cmd_table(args: &CliArgs) -> Outcome {
    let paths: Vec<PathBuf> = match args.value::<String>("--dir")? {
        Some(dir) => {
            let entries = std::fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))?;
            let mut v: Vec<PathBuf> = entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            v.sort();
            if v.is_empty() {
                return Err(format!("no .json reports in {dir}").into());
            }
            v
        }
        None if args.files().is_empty() => {
            return Err(UsageError("pass report files or --dir DIR".into()).into())
        }
        None => args.files().iter().map(PathBuf::from).collect(),
    };
    println!("{}", table_header());
    for path in &paths {
        let report = load_report(path)?;
        println!("{}", table_row(&report));
    }
    Ok(0)
}

fn table_header() -> String {
    format!(
        "{:<10} {:<6} {:>5} {:<12} {:>7} {:>7} {:>9} {:>10} {:>10} {:>8}",
        "scenario",
        "tech",
        "width",
        "duration",
        "shard",
        "faults",
        "coverage",
        "detection",
        "safe",
        "latency"
    )
}

fn table_row(report: &CampaignReport) -> String {
    let scenario = report.datapath.as_ref().map_or_else(
        || report.scenario.op_label().to_string(),
        |d| d.source.clone(),
    );
    let duration = report
        .sequential
        .as_ref()
        .map_or_else(|| "-".to_string(), |s| duration_label(s.duration));
    let shard = report
        .shard
        .map_or_else(|| "-".to_string(), |s| format!("{}/{}", s.index, s.count));
    let latency = report
        .sequential
        .as_ref()
        .and_then(SequentialLatency::new)
        .map_or_else(|| "-".to_string(), |l| l.0);
    format!(
        "{:<10} {:<6} {:>5} {:<12} {:>7} {:>7} {:>9} {:>10} {:>10} {:>8}",
        scenario,
        scdp_campaign::technique_label(report.scenario.technique),
        report.scenario.width,
        duration,
        shard,
        report.fault_count(),
        pct(report.coverage()),
        pct(report.detection_rate()),
        pct(report.safe_rate()),
        latency,
    )
}

/// Formats the mean detection latency of a sequential section.
struct SequentialLatency(String);

impl SequentialLatency {
    fn new(seq: &scdp_campaign::SequentialDetails) -> Option<SequentialLatency> {
        seq.mean_detection_latency()
            .map(|l| SequentialLatency(format!("{l:.2}c")))
    }
}

fn print_summary(report: &CampaignReport, per_fu: bool) {
    let scenario = report.datapath.as_ref().map_or_else(
        || report.scenario.op_label().to_string(),
        |d| d.source.clone(),
    );
    println!(
        "{} `{}` width {} technique {} — {} faults, {} situations",
        schema_of(report),
        scenario,
        report.scenario.width,
        scdp_campaign::technique_label(report.scenario.technique),
        report.fault_count(),
        report.simulated,
    );
    if let Some(sh) = report.shard {
        println!(
            "  shard {}/{} covering faults {}..{} of {}",
            sh.index, sh.count, sh.fault_start, sh.fault_end, sh.total_faults
        );
    }
    println!(
        "  coverage {}  detection {}  safe {}  ({} ms)",
        pct(report.coverage()),
        pct(report.detection_rate()),
        pct(report.safe_rate()),
        report.elapsed_ms,
    );
    if let Some(d) = &report.deduce {
        println!(
            "  deduce: {} untestable, {} simulated \
             ({} rows settled without simulation)",
            d.untestable,
            d.simulated,
            d.rows.len(),
        );
    }
    if let Some(tel) = &report.telemetry {
        println!(
            "  telemetry: {} counters, {} histograms, {} spans",
            tel.counters.len(),
            tel.histograms.len(),
            tel.spans.len(),
        );
    }
    if let Some(seq) = &report.sequential {
        let latency = seq
            .mean_detection_latency()
            .map_or_else(|| "-".to_string(), |l| format!("{l:.2}"));
        println!(
            "  sequential: {} over {} cycles, mean detection latency {latency} cycles",
            duration_label(seq.duration),
            seq.total_cycles,
        );
    }
    if per_fu {
        if let Some(dp) = &report.datapath {
            print_per_fu(dp);
        }
    }
}

/// The indented per-functional-unit breakdown shared by `run --per-fu`,
/// `merge --per-fu` and the unrolled `sweep` table.
fn print_per_fu(dp: &scdp_campaign::DatapathDetails) {
    for fu in dp.per_fu.iter().filter(|f| f.faults > 0) {
        println!(
            "    {:<6} {:<7} {:>2} ops {:>5} faults  cov {:>8}  det {:>4}/{:<4}",
            fu.name,
            fu.role,
            fu.ops,
            fu.faults,
            pct(fu.tally.coverage()),
            fu.detected,
            fu.faults,
        );
    }
}

/// The default server address shared by `scdp serve` and
/// `scdp submit`.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7878";

/// `scdp serve` — run the campaign job server in the foreground until
/// killed. Jobs (specs, checkpoints and merged reports) persist under
/// `--dir`; interrupted jobs resume on the next start.
fn cmd_serve(args: &CliArgs) -> Outcome {
    let config = scdp_serve::ServerConfig {
        addr: args.value_or("--addr", DEFAULT_SERVE_ADDR.to_string())?,
        dir: PathBuf::from(args.value_or("--dir", "scdp-jobs".to_string())?),
        workers: args.value_or("--jobs", 2usize)?,
    };
    let handle = scdp_serve::Server::start(&config)
        .map_err(|e| format!("start server on {}: {e}", config.addr))?;
    eprintln!(
        "scdp serve: listening on http://{} ({} worker(s), jobs under {})",
        handle.addr(),
        config.workers.max(1),
        config.dir.display(),
    );
    handle.join();
    Ok(0)
}

/// `scdp submit` — check a spec file against the run-spec table, POST
/// it to a running server, report the cache verdict, and optionally
/// wait for (and fetch) the result.
fn cmd_submit(args: &CliArgs) -> Outcome {
    let [spec_path] = args.files() else {
        return Err(UsageError(
            "usage: scdp submit SPEC.json [--addr A] [--wait] [--out FILE]".into(),
        )
        .into());
    };
    let addr = args.value_or("--addr", DEFAULT_SERVE_ADDR.to_string())?;
    let out = args.value::<String>("--out")?;
    let spec = std::fs::read_to_string(spec_path).map_err(|e| format!("read {spec_path}: {e}"))?;
    RunSpec::from_json(&spec).map_err(|e| UsageError(format!("{spec_path}: {e}")))?;
    let submitted = scdp_serve::client::submit(&addr, &spec)?;
    println!(
        "job {}  cache: {}  status: {}",
        submitted.id, submitted.cache, submitted.status
    );
    if !args.flag("--wait") && out.is_none() {
        return Ok(0);
    }
    let done =
        scdp_serve::client::wait(&addr, &submitted.id, std::time::Duration::from_millis(300))?;
    println!(
        "job {}  done ({}/{} shards)",
        submitted.id, done.done, done.total
    );
    if let Some(path) = out {
        let report = scdp_serve::client::fetch_report(&addr, &submitted.id)?;
        std::fs::write(&path, report).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(0)
}

/// The workload × technique sweep: the former `table_datapath`
/// (unrolled) and, with `--seq`, `table_seq` (cycle-accurate with a
/// duration axis) binaries.
fn cmd_sweep(raw: &[String]) -> Outcome {
    if let Some(axis) = raw.iter().find(|a| SWEEP_AXES.contains(&a.as_str())) {
        return Err(UsageError(format!(
            "`{axis}` does not apply to sweep: it runs every workload and technique \
             (and, with --seq, three durations) unsharded"
        ))
        .into());
    }
    // A placeholder workload makes the spec a datapath one, so
    // operator-only keys are wrong-shape errors; the loop below sets
    // the real workload of every row.
    let mut argv = raw.to_vec();
    argv.extend(["--workload".to_string(), "fir".to_string()]);
    let (args, spec) = campaign_args(&argv, SWEEP_FLAGS)?;
    let (base, space, exec, seq) = match spec.job {
        CampaignJob::Datapath(s) => (s.scenario, s.space, s.exec, false),
        CampaignJob::Sequential(s) => (s.scenario, s.space, s.exec, true),
        CampaignJob::Operator(_) => return Err("sweep needs a datapath spec".into()),
    };
    let report_dir = args.value::<String>("--report-dir")?;
    if let Some(dir) = &report_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    }

    let inputs = match space {
        scdp_campaign::InputSpace::Sampled { per_fault, seed } => {
            format!("{per_fault} vectors/fault (seed {seed:#x})")
        }
        scdp_campaign::InputSpace::Exhaustive => "exhaustive inputs".to_string(),
    };
    println!(
        "{} campaigns: width {}, style {}, {} allocation, {inputs}",
        if seq {
            "Sequential datapath"
        } else {
            "Datapath"
        },
        base.width,
        style_label(base.style),
        if base.allocation == Allocation::Dedicated {
            "dedicated-checker"
        } else {
            "shared (worst-case)"
        },
    );
    if seq {
        println!(
            "{:<8} {:<6} {:<12} {:>7} {:>7} {:>10} {:>10} {:>10}",
            "workload", "tech", "duration", "cycles", "faults", "coverage", "detection", "latency"
        );
    } else {
        println!(
            "{:<8} {:<6} {:>6} {:>7} {:>7} {:>10} {:>10} {:>10}",
            "workload", "tech", "gates", "cycles", "faults", "coverage", "detection", "safe"
        );
    }

    for source in DfgSource::BUILTIN {
        for technique in Technique::ALL {
            let label = source.label();
            let scenario = DatapathScenario {
                source: source.clone(),
                technique,
                ..base.clone()
            };
            let tech = format!("{technique:?}").to_lowercase();
            if seq {
                // One elaboration per scenario, shared by all
                // durations: permanent defects plus two single-cycle
                // upsets (early and mid-schedule).
                let machine = scenario.elaborate_seq();
                let durations = [
                    FaultDuration::Permanent,
                    FaultDuration::Transient { cycle: 1 },
                    FaultDuration::Transient {
                        cycle: machine.total_cycles / 2,
                    },
                ];
                for duration in durations {
                    let report = scenario
                        .clone()
                        .seq_campaign()
                        .duration(duration)
                        .input_space(space)
                        .exec(exec)
                        .run_on(&machine)?;
                    let details = report.sequential.as_ref().ok_or("no sequential section")?;
                    let latency = details
                        .mean_detection_latency()
                        .map_or("-".to_string(), |l| format!("{l:.2}c"));
                    println!(
                        "{:<8} {:<6} {:<12} {:>7} {:>7} {:>10} {:>10} {:>10}",
                        label,
                        tech,
                        duration_label(duration),
                        details.total_cycles,
                        report.fault_count(),
                        pct(report.coverage()),
                        pct(report.detection_rate()),
                        latency,
                    );
                    let name = format!("seq_{label}_{tech}_{}", duration_label(duration));
                    write_sweep_report(report_dir.as_deref(), &name.replace('@', "_"), &report)?;
                }
            } else {
                let report = scenario.campaign().input_space(space).exec(exec).run()?;
                let details = report.datapath.as_ref().ok_or("no datapath section")?;
                println!(
                    "{:<8} {:<6} {:>6} {:>7} {:>7} {:>10} {:>10} {:>10}",
                    label,
                    tech,
                    details.gates,
                    details.schedule_length,
                    report.fault_count(),
                    pct(report.coverage()),
                    pct(report.detection_rate()),
                    pct(report.safe_rate()),
                );
                print_per_fu(details);
                write_sweep_report(
                    report_dir.as_deref(),
                    &format!("dp_{label}_{tech}"),
                    &report,
                )?;
            }
        }
    }
    Ok(0)
}

/// Writes one sweep row's report to `dir/name.json` when a report
/// directory was asked for.
fn write_sweep_report(
    dir: Option<&str>,
    name: &str,
    report: &CampaignReport,
) -> Result<(), String> {
    if let Some(dir) = dir {
        let path = format!("{dir}/{name}.json");
        std::fs::write(&path, report.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("    wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_campaign::{CampaignError, Key, KeyType, Kind, Lanes, KEYS};
    use scdp_serve::jobspec;

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    /// The job `scdp run` builds from these flags.
    fn job(argv: &[&str]) -> CampaignJob {
        campaign_args(&strings(argv), RUN_FLAGS)
            .expect("valid run spec")
            .1
            .job
    }

    fn exec_of(job: &CampaignJob) -> scdp_campaign::ExecPolicy {
        match job {
            CampaignJob::Operator(s) => s.exec,
            CampaignJob::Datapath(s) => s.exec,
            CampaignJob::Sequential(s) => s.exec,
        }
    }

    #[test]
    fn every_verb_checks_its_flags_before_any_work() {
        for bad in [
            &["table", "a.json", "--colour", "red"][..],
            &["validate", "a.json", "--strict"],
            &["trace", "summarize", "--bogus", "t.jsonl"],
            &["merge", "--dir"],
            &["submit", "spec.json", "--wiat"],
            &["run", "--width", "2", "--max-shards", "many"],
            &["lint", "--op", "add", "--json", "--json"],
        ] {
            assert_eq!(run(strings(bad)), 2, "{bad:?}");
        }
        // The misspelt flag is caught before the server binds.
        assert_eq!(run(strings(&["serve", "--jbos", "3"])), 2);
        assert_eq!(run(strings(&["serve", "--jobs", "0"])), 2);
    }

    #[test]
    fn unknown_verbs_and_empty_invocations_are_usage_errors() {
        assert_eq!(run(strings(&["frobnicate"])), 2);
        assert_eq!(run(Vec::new()), 2);
        assert_eq!(run(strings(&["help"])), 0);
    }

    #[test]
    fn help_after_a_verb_prints_usage_instead_of_running() {
        for verb in ["run", "lint", "analyze"] {
            let bad = strings(&[verb, "--workload", "nope"]);
            assert_eq!(run(bad), 2, "{verb} rejects the spec without --help");
            for help in ["--help", "-h"] {
                let raw = strings(&[verb, "--workload", "nope", help]);
                assert_eq!(run(raw), 0, "{verb} {help}");
            }
        }
        assert_eq!(run(strings(&["validate", "--help"])), 0);
        assert_eq!(run(strings(&["merge", "-h"])), 0);
        assert_eq!(run(strings(&["frobnicate", "--help"])), 2);
    }

    #[test]
    fn bad_scenario_flags_are_reported_not_panicked() {
        assert_eq!(run(strings(&["run", "--workload", "nope"])), 2);
        assert_eq!(run(strings(&["run", "--op", "nope"])), 2);
        assert_eq!(run(strings(&["run", "--technique", "nope"])), 2);
        assert_eq!(run(strings(&["validate"])), 2);
        assert_eq!(run(strings(&["merge"])), 2);
        assert_eq!(run(strings(&["table"])), 2);
        assert_eq!(
            run(strings(&["merge", "--dir"])),
            2,
            "a flag without its value"
        );
    }

    /// Every boundary case the CI smoke checks: a misspelled flag, an
    /// unparseable value, another verb's flag, a key foreign to the
    /// resolved shape and an out-of-range sweep width all exit 2
    /// before any campaign runs.
    #[test]
    fn boundary_mistakes_are_usage_errors_not_default_campaigns() {
        for argv in [
            &["run", "--widht", "4"][..],
            &["run", "--width", "foo"],
            &["run", "--out", "x.json"],
            &["run", "--workload", "fir", "--op", "mul"],
            &["run", "--workload", "fir", "--realisation", "cla"],
            &["run", "--width", "4", "stray"],
            &["run", "--monte-carlo"],
            &["run", "--max-shards", "two"],
            &["run", "--report", "a.json", "--report", "b.json"],
            &["analyze", "--workload", "fir", "--duration", "transient@1"],
            &["lint", "--op", "add", "--report", "x.json"],
            &["sweep", "--width", "40"],
            &["sweep", "--workload", "fir"],
            &["sweep", "--technique", "tech1"],
            &["sweep", "--op", "mul"],
            &["sweep", "--shards", "2"],
        ] {
            assert_eq!(run(strings(argv)), 2, "{argv:?}");
        }
    }

    #[test]
    fn job_construction_covers_all_three_shapes() {
        assert!(matches!(
            job(&["--op", "add", "--width", "3"]),
            CampaignJob::Operator(_)
        ));
        assert!(matches!(
            job(&["--workload", "dot"]),
            CampaignJob::Datapath(_)
        ));
        match job(&["--workload", "fir", "--seq", "--duration", "transient@2"]) {
            CampaignJob::Sequential(spec) => {
                assert_eq!(spec.duration, FaultDuration::Transient { cycle: 2 });
            }
            other => panic!("expected sequential job, got {other:?}"),
        }
    }

    #[test]
    fn lint_verb_runs_over_scenarios_and_workloads() {
        assert_eq!(run(strings(&["lint", "--op", "add", "--width", "3"])), 0);
        assert_eq!(
            run(strings(&[
                "lint",
                "--workload",
                "dot",
                "--width",
                "2",
                "--seq",
                "--json"
            ])),
            0
        );
        assert_eq!(run(strings(&["lint", "--workload", "nope"])), 2);
        assert_eq!(run(strings(&["lint", "--op", "div"])), 1);
    }

    #[test]
    fn analyze_verb_runs_over_scenarios_and_workloads() {
        assert_eq!(run(strings(&["analyze", "--op", "add", "--width", "3"])), 0);
        assert_eq!(
            run(strings(&[
                "analyze",
                "--workload",
                "fir",
                "--width",
                "3",
                "--technique",
                "tech1",
                "--json"
            ])),
            0
        );
        assert_eq!(run(strings(&["analyze", "--workload", "dot", "--seq"])), 0);
        assert_eq!(run(strings(&["analyze", "--workload", "nope"])), 2);
        assert_eq!(run(strings(&["analyze", "--op", "div"])), 1);
    }

    /// `lint`/`analyze` inspect exactly the netlist a gate-level run of
    /// the same spec compiles: both come from `Scenario::elaborate`.
    #[test]
    fn lint_and_analyze_inspect_the_gate_level_campaign_netlist() {
        use scdp_campaign::ObsEvent;
        use std::sync::Mutex;
        for spec in [
            &["--op", "add", "--width", "3", "--realisation", "cla"][..],
            &["--op", "mul", "--width", "2", "--technique", "tech2"],
        ] {
            let netlist = job(spec).netlist().expect("a gate-level netlist");
            let compiled: Arc<Mutex<Vec<(String, u64)>>> = Arc::default();
            let tap = Arc::clone(&compiled);
            let gate_level = [spec, &["--backend", "gate-level", "--samples", "8"]].concat();
            job(&gate_level)
                .events(Arc::new(move |e: &ObsEvent| {
                    if let ObsEvent::NetlistCompiled { name, gates, .. } = e {
                        tap.lock().unwrap().push((name.clone(), *gates));
                    }
                }))
                .run()
                .expect("gate-level run");
            assert_eq!(
                compiled.lock().unwrap().as_slice(),
                [(netlist.name().to_string(), netlist.gate_count() as u64)],
                "{spec:?}"
            );
        }
    }

    #[test]
    fn prune_flag_reaches_the_job_and_preserves_results() {
        let scenario = [
            "--workload",
            "fir",
            "--technique",
            "tech1",
            "--width",
            "3",
            "--samples",
            "64",
            "--threads",
            "2",
        ];
        let mut with = scenario.to_vec();
        with.push("--prune");
        assert!(exec_of(&job(&with)).prune, "--prune reaches the policy");
        let plain = job(&scenario).run().expect("runs");
        let pruned = job(&with).run().expect("runs");
        assert!(plain.same_results(&pruned));
        assert_eq!(plain.per_fault, pruned.per_fault);
        let d = pruned.deduce.as_ref().expect("pruned runs carry deduce");
        assert!(d.untestable > 0, "the FIR datapath deduces");
    }

    #[test]
    fn collapse_flag_reaches_the_job_and_preserves_results() {
        let scenario = [
            "--workload",
            "dot",
            "--width",
            "2",
            "--samples",
            "64",
            "--threads",
            "2",
        ];
        let mut with = scenario.to_vec();
        with.push("--collapse");
        let plain = job(&scenario).run().expect("runs");
        let collapsed = job(&with).run().expect("runs");
        assert!(plain.same_results(&collapsed));
        assert_eq!(plain.per_fault, collapsed.per_fault);
    }

    #[test]
    fn lanes_flag_parses_and_preserves_results() {
        // Parsing: auto and the explicit widths resolve; junk is a
        // usage error.
        for (arg, lanes) in [
            ("auto", Lanes::Auto),
            ("1", Lanes::L1),
            ("4", Lanes::L4),
            ("8", Lanes::L8),
        ] {
            assert_eq!(
                exec_of(&job(&["--lanes", arg])).lanes,
                lanes,
                "--lanes {arg}"
            );
        }
        for bad in ["0", "2", "16", "wide"] {
            assert!(campaign_args(&strings(&["--lanes", bad]), RUN_FLAGS).is_err());
        }

        // Semantics: lane width never moves a result.
        let base = ["--workload", "dot", "--width", "2", "--samples", "64"];
        let narrow = job(&[&base[..], &["--lanes", "1"]].concat())
            .run()
            .expect("runs");
        let wide = job(&[&base[..], &["--lanes", "8"]].concat())
            .run()
            .expect("runs");
        assert!(narrow.same_results(&wide));
        assert_eq!(narrow.per_fault, wide.per_fault);
    }

    /// The command-line spelling of a key.
    fn flag(key: &Key) -> String {
        format!("--{}", key.name.replace('_', "-"))
    }

    /// A valid value of `key`: its command-line words and JSON text.
    fn valid(key: &Key) -> (Vec<String>, String) {
        match key.ty {
            KeyType::Label(labels) => {
                let label = labels.split('|').next().expect("a label");
                (vec![flag(key), label.to_string()], format!("\"{label}\""))
            }
            KeyType::U64 { min, .. } => (vec![flag(key), min.to_string()], min.to_string()),
            KeyType::Bool => (vec![flag(key)], "true".to_string()),
            KeyType::Lanes => (vec![flag(key), "4".to_string()], "4".to_string()),
        }
    }

    /// Keys that make `key` apply: command-line words, JSON members.
    fn context(key: &Key) -> (Vec<String>, Vec<String>) {
        if key.shapes.contains(&Kind::Operator) || key.name == "workload" {
            (Vec::new(), Vec::new())
        } else if key.shapes.contains(&Kind::Datapath) {
            (
                strings(&["--workload", "fir"]),
                strings(&[r#""workload":"fir""#]),
            )
        } else {
            (
                strings(&["--seq", "--workload", "fir"]),
                strings(&[r#""kind":"sequential""#, r#""workload":"fir""#]),
            )
        }
    }

    /// One invalid spec in both spellings and the field its typed
    /// error must name.
    struct Bad {
        what: String,
        argv: Vec<String>,
        json: String,
        argv_field: &'static str,
        json_field: &'static str,
    }

    /// For every key of the table: a misspelling, a wrong type, each
    /// bad label or out-of-range bound, a wrong shape (keys that do
    /// not apply to all three) and a duplicate.
    fn negative_matrix() -> Vec<Bad> {
        let mut out = Vec::new();
        for key in KEYS {
            let (ctx_argv, ctx_json) = context(key);
            let (ok_argv, ok_json) = valid(key);
            let name = key.name;
            // Every case but the wrong-shape one sits in a context where
            // the key applies.
            let mut push = |what: &str,
                            argv: Vec<String>,
                            json: Vec<String>,
                            argv_field: &'static str,
                            json_field: &'static str| {
                let (ctx_argv, ctx_json) = if what == "wrong shape" {
                    (Vec::new(), Vec::new())
                } else {
                    (ctx_argv.clone(), ctx_json.clone())
                };
                out.push(Bad {
                    what: format!("{name}: {what}"),
                    argv: [ctx_argv, argv].concat(),
                    json: format!("{{{}}}", [ctx_json, json].concat().join(",")),
                    argv_field,
                    json_field,
                });
            };
            let mut typo = ok_argv.clone();
            typo[0].push('x');
            push(
                "misspelled",
                typo,
                vec![format!("\"{name}x\":{ok_json}")],
                "spec",
                "spec",
            );
            let (wrong_argv, wrong_json, wrong_field) = match key.ty {
                KeyType::Label(_) => (vec![flag(key)], "1", name),
                KeyType::U64 { .. } => (vec![flag(key), "four".to_string()], "\"4\"", name),
                KeyType::Bool => (vec![flag(key), "yes".to_string()], "\"yes\"", "spec"),
                KeyType::Lanes => (vec![flag(key), "wide".to_string()], "true", name),
            };
            push(
                "wrong type",
                wrong_argv,
                vec![format!("\"{name}\":{wrong_json}")],
                wrong_field,
                name,
            );
            let bad_values: Vec<(String, String)> = match key.ty {
                KeyType::Label(_) => {
                    vec![("nope".to_string(), "\"nope\"".to_string())]
                }
                KeyType::U64 { min, max } => {
                    let mut v = Vec::new();
                    if min > 0 {
                        v.push((min - 1).to_string());
                    }
                    v.push((u128::from(max) + 1).to_string());
                    v.into_iter().map(|n| (n.clone(), n)).collect()
                }
                KeyType::Bool => Vec::new(),
                KeyType::Lanes => vec![("2".to_string(), "2".to_string())],
            };
            for (text, json) in bad_values {
                push(
                    &format!("bad value {text}"),
                    vec![flag(key), text],
                    vec![format!("\"{name}\":{json}")],
                    name,
                    name,
                );
            }
            if key.shapes.len() < 3 {
                let (other_argv, other_json) = if key.shapes.contains(&Kind::Operator) {
                    (strings(&["--workload", "fir"]), r#""workload":"fir""#)
                } else if key.shapes.contains(&Kind::Datapath) {
                    (strings(&["--kind", "operator"]), r#""kind":"operator""#)
                } else {
                    (strings(&["--kind", "datapath"]), r#""kind":"datapath""#)
                };
                push(
                    "wrong shape",
                    [other_argv, ok_argv.clone()].concat(),
                    vec![other_json.to_string(), format!("\"{name}\":{ok_json}")],
                    name,
                    name,
                );
            }
            push(
                "duplicate",
                [ok_argv.clone(), ok_argv.clone()].concat(),
                vec![
                    format!("\"{name}\":{ok_json}"),
                    format!("\"{name}\":{ok_json}"),
                ],
                name,
                name,
            );
        }
        out
    }

    /// The negative matrix against both front-ends: the typed error
    /// names the offending key, `scdp run` exits 2, and `POST /jobs`
    /// answers 400 without creating a job directory.
    #[test]
    fn every_key_rejects_typos_types_values_shapes_and_duplicates_on_both_front_ends() {
        let dir = std::env::temp_dir().join(format!("scdp_cli_matrix_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = scdp_serve::Server::start(&scdp_serve::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            dir: dir.clone(),
            workers: 1,
        })
        .expect("bind");
        let addr = handle.addr().to_string();
        let matrix = negative_matrix();
        assert!(
            matrix.len() >= 5 * KEYS.len() - 20,
            "{} cases",
            matrix.len()
        );
        for bad in &matrix {
            let field = |r: Result<RunSpec, CampaignError>| match r {
                Err(CampaignError::Schema { field, .. }) => field,
                other => panic!("{}: expected a schema error, got {other:?}", bad.what),
            };
            assert_eq!(
                field(RunSpec::from_argv(&bad.argv)),
                bad.argv_field,
                "{}: {:?}",
                bad.what,
                bad.argv
            );
            assert_eq!(
                field(jobspec::parse(&bad.json)),
                bad.json_field,
                "{}: {}",
                bad.what,
                bad.json
            );
            let mut argv = strings(&["run"]);
            argv.extend(bad.argv.iter().cloned());
            assert_eq!(run(argv), 2, "{}: scdp run {:?}", bad.what, bad.argv);
            let response =
                scdp_serve::client::request(&addr, "POST", "/jobs", Some(&bad.json)).expect("POST");
            assert_eq!(response.status, 400, "{}: {}", bad.what, bad.json);
        }
        let jobs = std::fs::read_dir(&dir).expect("job dir").count();
        assert_eq!(jobs, 0, "rejected specs leave no job directory");
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every key's command-line and JSON spellings resolve to the same
    /// job: `scdp run`'s resolver and `POST /jobs` agree on the
    /// configuration fingerprint (the job id) and the shard count.
    #[test]
    fn every_key_means_the_same_job_on_the_command_line_and_on_the_wire() {
        const SMALL: &[&str] = &["--width", "2", "--samples", "8"];
        const SMALL_JSON: &str = r#""width":2,"samples":8"#;
        let cases: &[(&[&str], &str)] = &[
            (&["--kind", "operator"], r#""kind":"operator""#),
            (
                &["--kind", "sequential", "--workload", "dot"],
                r#""kind":"sequential","workload":"dot""#,
            ),
            (
                &["--seq", "--workload", "dot"],
                r#""kind":"sequential","workload":"dot""#,
            ),
            (&["--technique", "tech1"], r#""technique":"tech1""#),
            (
                &["--allocation", "dedicated"],
                r#""allocation":"dedicated""#,
            ),
            (&["--dedicated"], r#""allocation":"dedicated""#),
            (&["--op", "mul"], r#""op":"mul""#),
            (
                &["--realisation", "cla", "--backend", "gate-level"],
                r#""realisation":"cla","backend":"gate-level""#,
            ),
            (
                &["--backend", "gate-level", "--fault-model", "structural"],
                r#""backend":"gate-level","fault_model":"structural""#,
            ),
            (&["--workload", "iir"], r#""workload":"iir""#),
            (
                &["--workload", "fir", "--style", "embedded"],
                r#""workload":"fir","style":"embedded""#,
            ),
            (
                &["--seq", "--workload", "fir", "--duration", "transient@1"],
                r#""kind":"sequential","workload":"fir","duration":"transient@1""#,
            ),
            (&["--seed", "9"], r#""seed":9"#),
            (&["--exhaustive"], r#""exhaustive":true"#),
            (&["--threads", "1"], r#""threads":1"#),
            (&["--lanes", "4"], r#""lanes":4"#),
            (&["--lanes", "auto"], r#""lanes":"auto""#),
            (
                &["--backend", "gate-level", "--drop", "on-detect"],
                r#""backend":"gate-level","drop":"on-detect""#,
            ),
            (
                &["--backend", "gate-level", "--collapse", "--prune"],
                r#""backend":"gate-level","collapse":true,"prune":true"#,
            ),
            (&["--telemetry"], r#""telemetry":true"#),
            (&["--shards", "3"], r#""shards":3"#),
        ];
        let dir = std::env::temp_dir().join(format!("scdp_cli_parity_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = scdp_serve::Server::start(&scdp_serve::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            dir: dir.clone(),
            workers: 1,
        })
        .expect("bind");
        let addr = handle.addr().to_string();
        let mut covered = std::collections::BTreeSet::new();
        for (argv, json) in cases {
            // Both surfaces default the shard count differently (1 on
            // the command line, 4 on the server), so it is always
            // explicit here unless it is the key under test.
            let shards = if argv.contains(&"--shards") {
                ""
            } else {
                "--shards 2"
            };
            let argv: Vec<String> = [SMALL, argv, &shards.split_whitespace().collect::<Vec<_>>()]
                .concat()
                .iter()
                .map(ToString::to_string)
                .collect();
            let shards_json = if shards.is_empty() {
                ""
            } else {
                r#","shards":2"#
            };
            let json = format!("{{{SMALL_JSON},{json}{shards_json}}}");
            let (_, cli) = campaign_args(&argv, RUN_FLAGS).expect("scdp run accepts it");
            let wire = jobspec::parse(&json).expect("the server accepts it");
            assert_eq!(
                cli.job.config_fingerprint(),
                wire.job.config_fingerprint(),
                "{argv:?} vs {json}"
            );
            assert_eq!(cli.shards, wire.shards, "{argv:?} vs {json}");
            let posted = scdp_serve::client::submit(&addr, &json).expect("POST /jobs");
            assert_eq!(posted.id, scdp_serve::job_id(&cli.job), "{argv:?}");
            let doc = scdp_campaign::json::parse(&json).expect("json");
            if let scdp_campaign::json::Json::Obj(members) = doc {
                covered.extend(members.into_iter().map(|(k, _)| k));
            }
        }
        let missing: Vec<&str> = KEYS
            .iter()
            .map(|k| k.name)
            .filter(|k| !covered.contains(*k))
            .collect();
        assert!(missing.is_empty(), "parity cases miss {missing:?}");
        assert_eq!(campaign_args(&[], RUN_FLAGS).expect("empty").1.shards, 1);
        assert_eq!(jobspec::parse("{}").expect("empty").shards, 4);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_takes_the_table_keys_and_fixes_its_axes() {
        assert_eq!(
            run(strings(&[
                "sweep",
                "--width",
                "1",
                "--samples",
                "8",
                "--threads",
                "1",
                "--style",
                "plain",
                "--dedicated",
            ])),
            0
        );
        assert_eq!(run(strings(&["sweep", "--width", "0"])), 2);
        assert_eq!(run(strings(&["sweep", "--fault-model", "cell"])), 2);
    }

    #[test]
    fn sharded_trace_sums_to_the_merged_report_and_matches_unsharded_telemetry() {
        use scdp_campaign::json::{self, Json};
        let dir = std::env::temp_dir().join(format!("scdp_cli_trace_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let trace_path = dir.join("t.jsonl").display().to_string();
        let merged_path = dir.join("merged.json").display().to_string();
        let scenario = &[
            "--workload",
            "fir",
            "--technique",
            "tech1",
            "--width",
            "4",
            "--samples",
            "64",
            "--threads",
            "2",
        ];
        let mut argv = strings(&["run"]);
        argv.extend(strings(scenario));
        argv.extend(strings(&[
            "--shards",
            "4",
            "--trace",
            &trace_path,
            "--progress",
            "--telemetry",
            "--report",
            &merged_path,
            "--quiet",
        ]));
        assert_eq!(run(argv), 0);

        // The trace carries span and shard events...
        let text = std::fs::read_to_string(&trace_path).expect("trace written");
        assert!(text.contains("\"event\":\"span\""), "spans traced");
        assert!(
            text.contains("\"event\":\"shard_finished\""),
            "shards traced"
        );
        // ...whose per-shard fault counts sum to the merged universe.
        let merged = load_report(Path::new(&merged_path)).expect("merged report");
        let traced: u64 = text
            .lines()
            .filter_map(|l| {
                let v = json::parse(l).expect("trace lines parse");
                (v.get("event").and_then(Json::as_str) == Some("shard_finished"))
                    .then(|| v.get("faults").and_then(Json::as_u64).unwrap_or(0))
            })
            .sum();
        assert_eq!(traced, merged.fault_count());

        // The merged telemetry's count-typed counters equal an
        // unsharded run's.
        let tel = merged.telemetry.as_ref().expect("merged telemetry");
        let full = job(scenario).telemetry(true).run().expect("unsharded run");
        let full_tel = full.telemetry.as_ref().expect("unsharded telemetry");
        assert_eq!(
            tel.deterministic_counters(),
            full_tel.deterministic_counters()
        );

        assert_eq!(run(strings(&["trace", "summarize", &trace_path])), 0);
        assert_eq!(run(strings(&["trace", "summarize"])), 2);
        assert_eq!(run(strings(&["trace", "frobnicate", &trace_path])), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_verb_round_trips_against_a_live_server() {
        let dir = std::env::temp_dir().join(format!("scdp_cli_serve_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let handle = scdp_serve::Server::start(&scdp_serve::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            dir: dir.join("jobs"),
            workers: 1,
        })
        .expect("bind");
        let addr = handle.addr().to_string();
        let spec_path = dir.join("spec.json").display().to_string();
        std::fs::write(
            &spec_path,
            r#"{"kind":"operator","op":"add","backend":"gate-level",
                "width":3,"samples":64,"shards":2}"#,
        )
        .expect("spec file");
        let out = dir.join("report.json").display().to_string();

        // Usage and connection errors are errors, not panics.
        assert_eq!(run(strings(&["submit"])), 2);
        assert_eq!(
            run(strings(&["submit", &spec_path, "--addr", "127.0.0.1:1"])),
            1
        );

        // Submit, wait, fetch; the fetched report validates.
        assert_eq!(
            run(strings(&[
                "submit", &spec_path, "--addr", &addr, "--out", &out
            ])),
            0
        );
        assert_eq!(run(strings(&["validate", &out])), 0);
        // Resubmission is a cache hit (the report is already there).
        assert_eq!(
            run(strings(&["submit", &spec_path, "--addr", &addr, "--wait"])),
            0
        );

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_merge_validate_table_round_trip_through_a_checkpoint_dir() {
        let dir = std::env::temp_dir().join(format!("scdp_cli_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.display().to_string();
        let merged = dir.join("merged.json");
        let merged_s = merged.display().to_string();
        // Sharded, checkpointed, interrupted after 2 shards...
        assert_eq!(
            run(strings(&[
                "run",
                "--workload",
                "dot",
                "--seq",
                "--width",
                "2",
                "--samples",
                "64",
                "--threads",
                "2",
                "--shards",
                "4",
                "--dir",
                &dir_s,
                "--max-shards",
                "2",
                "--quiet",
            ])),
            0
        );
        assert!(dir.join("shard-001.json").is_file());
        assert!(!dir.join("shard-002.json").exists());
        // ...resumed to completion with a merged report...
        assert_eq!(
            run(strings(&[
                "run",
                "--workload",
                "dot",
                "--seq",
                "--width",
                "2",
                "--samples",
                "64",
                "--threads",
                "2",
                "--shards",
                "4",
                "--dir",
                &dir_s,
                "--report",
                &merged_s,
                "--quiet",
            ])),
            0
        );
        assert!(merged.is_file());
        let text = std::fs::read_to_string(&merged).expect("merged report");
        assert!(text.contains("scdp.campaign.report/v3"), "merged is full");
        let shard0 = std::fs::read_to_string(dir.join("shard-000.json")).expect("checkpoint");
        assert!(
            shard0.contains("scdp.campaign.report/v4"),
            "checkpoints are v4"
        );
        // ...merge/validate/table accept what run wrote.
        assert_eq!(run(strings(&["merge", "--dir", &dir_s])), 0);
        assert_eq!(run(strings(&["validate", &merged_s])), 0);
        assert_eq!(run(strings(&["table", &merged_s])), 0);
        assert_eq!(run(strings(&["validate", "/nonexistent.json"])), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
