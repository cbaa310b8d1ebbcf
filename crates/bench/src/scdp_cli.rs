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

use crate::cli::CliArgs;
use crate::pct;
use crate::trace;
use scdp_campaign::{
    drop_from_label, duration_from_label, duration_label, op_from_label, realisation_from_label,
    style_from_label, style_label, technique_from_label, Backend, CampaignJob, CampaignReport,
    CampaignRunner, DatapathScenario, DfgSource, ExecPolicy, FaultDuration, InputSpace, Lanes,
    Scenario, ShardState,
};
use scdp_core::{Allocation, Technique};
use scdp_hls::SckStyle;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Bare flags (no value argument) of every subcommand — everything
/// else starting with `--` consumes the following argument.
const BARE_FLAGS: &[&str] = &[
    "--seq",
    "--dedicated",
    "--monte-carlo",
    "--exhaustive",
    "--quiet",
    "--per-fu",
    "--progress",
    "--telemetry",
    "--collapse",
    "--prune",
    "--strict",
    "--json",
    "--wait",
];

const USAGE: &str = "\
scdp — self-checking data-path campaigns

USAGE:
  scdp run [SCENARIO] [EXECUTION] [SHARDING] [OBSERVABILITY] [--report FILE]
  scdp merge (--dir DIR | FILE...) [--out FILE]
  scdp validate FILE...
  scdp table (--dir DIR | FILE...)
  scdp sweep [--seq] [SCENARIO] [EXECUTION] [--report-dir DIR]
  scdp lint [SCENARIO] [--strict] [--json]
  scdp analyze [SCENARIO] [--json]
  scdp trace summarize FILE...
  scdp serve [--addr A] [--dir DIR] [--jobs N]
  scdp submit SPEC.json [--addr A] [--wait] [--out FILE]

SCENARIO (pick an operator or a workload):
  --op add|sub|mul|div          checked operator scenario (default: add)
  --realisation rca|cla|csa     adder realisation (operator scenarios)
  --backend functional|gate-level  engine for operator scenarios
  --workload fir|iir|dot|matvec whole-datapath scenario
  --seq                         cycle-accurate sequential campaign
  --duration permanent|transient@C  fault duration (sequential)
  --width N  --technique tech1|tech2|both  --style plain|full|embedded
  --dedicated                   dedicated-checker allocation

EXECUTION:
  --samples N  --seed S  --monte-carlo  --exhaustive
  --threads N  --drop never|on-detect|on-escape
  --lanes auto|1|4|8  packed-engine lane width in 64-bit limbs
                    (results are bit-identical at every width)
  --collapse        simulate one representative per fault-equivalence
                    class and fan verdicts back out (bit-identical
                    reports, fewer simulated faults)
  --prune           settle faults with an untestability proof from the
                    fault-free baseline probe instead of simulating them
                    (bit-identical reports; the `deduce` section records
                    the provenance)

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
  --shards N        partition the fault universe into N shards
  --dir DIR         checkpoint each shard to DIR/shard-NNN.json; an
                    interrupted sweep resumes from DIR next invocation
  --max-shards K    stop after K fresh shards (deterministic interrupt)

SERVING (scdp serve / scdp submit):
  serve runs the campaign job server: POST /jobs, GET /jobs/<id>,
  GET /jobs/<id>/report, GET /healthz — results are cached by
  configuration fingerprint and interrupted jobs resume on restart
  --addr A          bind (serve) / connect (submit); default 127.0.0.1:7878
  --dir DIR         job-state directory (default scdp-jobs)
  --jobs N          concurrent campaign jobs (default 2)
  --wait            poll the submitted job until it finishes
  --out FILE        write the fetched report (implies --wait)

OBSERVABILITY (scdp run):
  --trace FILE      write every campaign/shard/span event to FILE as
                    JSONL (summarise later with `scdp trace summarize`)
  --progress        live progress on stderr: shard bar, faults/s,
                    drop rate, ETA
  --telemetry       embed a telemetry section (spans, counters,
                    histograms) in the report(s)
";

/// Entry point used by the `scdp` binary: parses the process
/// arguments and returns the exit code.
#[must_use]
pub fn main_from_env() -> i32 {
    run(std::env::args().skip(1).collect())
}

/// Runs one `scdp` invocation over an explicit argument vector
/// (exposed for the wrapper binaries and tests). Returns the process
/// exit code: 0 on success, 1 on campaign/report errors, 2 on usage
/// errors.
#[must_use]
pub fn run(raw: Vec<String>) -> i32 {
    let Some(verb) = raw.first().cloned() else {
        eprint!("{USAGE}");
        return 2;
    };
    let rest: Vec<String> = raw[1..].to_vec();
    let files = positionals(&rest);
    let wants_help = rest.iter().any(|a| a == "--help" || a == "-h");
    let args = CliArgs::from_vec(rest);
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
        "run" => cmd_run(&args),
        "merge" => cmd_merge(&args, &files),
        "validate" => cmd_validate(&files),
        "table" => cmd_table(&args, &files),
        "sweep" => cmd_sweep(&args),
        "lint" => cmd_lint(&args),
        "analyze" => cmd_analyze(&args),
        "trace" => cmd_trace(&files),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args, &files),
        other => {
            eprintln!("unknown subcommand `{other}`\n");
            eprint!("{USAGE}");
            return 2;
        }
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("scdp {verb}: {message}");
            1
        }
    }
}

/// The non-flag arguments (report file paths), skipping every flag's
/// value argument.
fn positionals(raw: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut skip = false;
    for arg in raw {
        if skip {
            skip = false;
            continue;
        }
        if arg.starts_with("--") {
            skip = !BARE_FLAGS.contains(&arg.as_str());
            continue;
        }
        out.push(arg.clone());
    }
    out
}

/// Parses a `--lanes auto|1|4|8` argument into a lane-width choice.
fn lanes_from_args(args: &CliArgs) -> Result<Lanes, String> {
    match args.value::<String>("--lanes") {
        None => Ok(Lanes::Auto),
        Some(s) if s == "auto" => Ok(Lanes::Auto),
        Some(s) => s
            .parse::<usize>()
            .ok()
            .and_then(Lanes::from_limbs)
            .ok_or(format!("unknown lane width `{s}` (auto|1|4|8)")),
    }
}

/// Builds the [`ExecPolicy`] a `run`/`sweep` invocation describes:
/// threads, lane width, drop policy and collapsing in one value.
fn exec_from_args(args: &CliArgs) -> Result<ExecPolicy, String> {
    let drop = match args.value::<String>("--drop") {
        None => scdp_campaign::DropPolicy::Never,
        Some(s) => drop_from_label(&s).ok_or(format!("unknown drop policy `{s}`"))?,
    };
    Ok(ExecPolicy::new()
        .threads(args.threads())
        .lanes(lanes_from_args(args)?)
        .drop_policy(drop)
        .collapse(args.flag("--collapse"))
        .prune(args.flag("--prune")))
}

/// Builds the campaign job a `run` invocation describes.
fn job_from_args(args: &CliArgs) -> Result<CampaignJob, String> {
    let width = args.width(4);
    let samples = args.samples(1024);
    let seed = args.seed();
    let exec = exec_from_args(args)?;
    let technique = match args.value::<String>("--technique") {
        None => Technique::Both,
        Some(s) => technique_from_label(&s).ok_or(format!("unknown technique `{s}`"))?,
    };
    let allocation = if args.flag("--dedicated") {
        Allocation::Dedicated
    } else {
        Allocation::SingleUnit
    };

    if let Some(workload) = args.value::<String>("--workload") {
        let source =
            DfgSource::from_label(&workload).ok_or(format!("unknown workload `{workload}`"))?;
        let style = match args.value::<String>("--style") {
            None => SckStyle::Full,
            Some(s) => style_from_label(&s).ok_or(format!("unknown style `{s}`"))?,
        };
        let space = if args.flag("--exhaustive") {
            InputSpace::Exhaustive
        } else {
            InputSpace::Sampled {
                per_fault: samples,
                seed,
            }
        };
        let scenario = DatapathScenario::new(source, width)
            .technique(technique)
            .style(style)
            .allocation(allocation);
        if args.flag("--seq") || args.value::<String>("--duration").is_some() {
            let duration = match args.value::<String>("--duration") {
                None => FaultDuration::Permanent,
                Some(s) => duration_from_label(&s).ok_or(format!("unknown duration `{s}`"))?,
            };
            Ok(CampaignJob::Sequential(
                scenario
                    .seq_campaign()
                    .duration(duration)
                    .input_space(space)
                    .exec(exec),
            ))
        } else {
            Ok(CampaignJob::Datapath(
                scenario.campaign().input_space(space).exec(exec),
            ))
        }
    } else {
        let op_label = args
            .value::<String>("--op")
            .unwrap_or_else(|| "add".to_string());
        let op = op_from_label(&op_label).ok_or(format!("unknown operator `{op_label}`"))?;
        let backend = match args.value::<String>("--backend") {
            None => Backend::Functional,
            Some(s) => Backend::from_label(&s).ok_or(format!("unknown backend `{s}`"))?,
        };
        let mut scenario = Scenario::new(op, width)
            .technique(technique)
            .allocation(allocation);
        if let Some(r) = args.value::<String>("--realisation") {
            scenario = scenario.realisation(
                realisation_from_label(&r).ok_or(format!("unknown realisation `{r}`"))?,
            );
        }
        let space = if args.flag("--exhaustive") {
            InputSpace::Exhaustive
        } else {
            args.space(width, samples)
        };
        Ok(CampaignJob::Operator(
            scenario
                .campaign()
                .backend(backend)
                .input_space(space)
                .exec(exec),
        ))
    }
}

fn cmd_run(args: &CliArgs) -> Result<i32, String> {
    let mut job = job_from_args(args)?;
    let shards = args.value_or("--shards", 1u32);
    let dir = args.value::<String>("--dir");
    let quiet = args.flag("--quiet");
    let telemetry = args.flag("--telemetry");
    let trace_path = args.value::<String>("--trace");
    let mut sinks = Vec::new();
    if let Some(path) = &trace_path {
        sinks.push(trace::trace_sink(path)?);
    }
    if args.flag("--progress") {
        sinks.push(trace::progress_sink());
    }
    let sink = trace::fan_out(sinks);
    // Any explicit shard count (including the invalid 0, which the
    // runner rejects with a typed error) or a checkpoint directory
    // routes through the runner; only the plain single-shot case runs
    // directly.
    let report = if shards != 1 || dir.is_some() {
        let mut runner = CampaignRunner::new(job, shards);
        if let Some(sink) = sink {
            runner = runner.events(sink);
        }
        if telemetry {
            runner = runner.telemetry(true);
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
        if let Some(max) = args.value::<u32>("--max-shards") {
            runner = runner.max_shards(max);
        }
        let outcome = runner.run().map_err(|e| e.to_string())?;
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
        if telemetry {
            job = job.telemetry(true);
        }
        job.run().map_err(|e| e.to_string())?
    };
    print_summary(&report, args.flag("--per-fu"));
    if let Some(path) = &trace_path {
        eprintln!("wrote trace {path}");
    }
    if let Some(path) = args.value::<String>("--report") {
        std::fs::write(&path, report.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(0)
}

/// Elaborates the netlist a `lint`/`analyze` invocation describes —
/// the same SCENARIO grammar as `run`, minus the input space (static
/// analysis needs no vectors).
fn netlist_from_args(args: &CliArgs) -> Result<scdp_netlist::Netlist, String> {
    use scdp_netlist::gen::{self_checking, self_checking_add_with, SelfCheckingSpec};

    let width = args.width(4);
    let technique = match args.value::<String>("--technique") {
        None => Technique::Both,
        Some(s) => technique_from_label(&s).ok_or(format!("unknown technique `{s}`"))?,
    };
    let netlist = if let Some(workload) = args.value::<String>("--workload") {
        let source =
            DfgSource::from_label(&workload).ok_or(format!("unknown workload `{workload}`"))?;
        let style = match args.value::<String>("--style") {
            None => SckStyle::Full,
            Some(s) => style_from_label(&s).ok_or(format!("unknown style `{s}`"))?,
        };
        let allocation = if args.flag("--dedicated") {
            Allocation::Dedicated
        } else {
            Allocation::SingleUnit
        };
        let scenario = DatapathScenario::new(source, width)
            .technique(technique)
            .style(style)
            .allocation(allocation);
        if args.flag("--seq") {
            scenario.elaborate_seq().netlist
        } else {
            scenario.elaborate().netlist
        }
    } else {
        let op_label = args
            .value::<String>("--op")
            .unwrap_or_else(|| "add".to_string());
        let op = op_from_label(&op_label).ok_or(format!("unknown operator `{op_label}`"))?;
        let realisation = match args.value::<String>("--realisation") {
            None => scdp_netlist::gen::AdderRealisation::RippleCarry,
            Some(r) => realisation_from_label(&r).ok_or(format!("unknown realisation `{r}`"))?,
        };
        match op {
            scdp_core::Operator::Add => self_checking_add_with(width, technique, realisation),
            scdp_core::Operator::Sub | scdp_core::Operator::Mul => {
                self_checking(SelfCheckingSpec {
                    op,
                    technique,
                    width,
                })
            }
            scdp_core::Operator::Div => {
                return Err("gate-level division checking is out of scope; \
                            analyse an add/sub/mul scenario or a --workload"
                    .to_string())
            }
        }
        .netlist
    };
    Ok(netlist)
}

/// `scdp lint` — static analysis of the scenario's generated netlist:
/// structural lints plus the fault-collapsing statistics, without
/// running a single simulation vector. Exits 1 when lint errors exist.
fn cmd_lint(args: &CliArgs) -> Result<i32, String> {
    use scdp_analyze::{lint, CollapsedUniverse, LintOptions};

    let netlist = netlist_from_args(args)?;
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
fn cmd_analyze(args: &CliArgs) -> Result<i32, String> {
    use scdp_analyze::{CollapsedUniverse, PrunedUniverse, UntestableReason, Verdict};

    let netlist = netlist_from_args(args)?;
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
fn cmd_trace(files: &[String]) -> Result<i32, String> {
    let (action, files) = files
        .split_first()
        .ok_or("usage: scdp trace summarize FILE...")?;
    if action != "summarize" {
        return Err(format!(
            "unknown trace action `{action}` (expected `summarize`)"
        ));
    }
    if files.is_empty() {
        return Err("pass trace files to summarize".to_string());
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

fn cmd_merge(args: &CliArgs, files: &[String]) -> Result<i32, String> {
    let paths: Vec<PathBuf> = match args.value::<String>("--dir") {
        Some(dir) => shard_files(&dir)?,
        None if files.is_empty() => return Err("pass shard report files or --dir DIR".to_string()),
        None => files.iter().map(PathBuf::from).collect(),
    };
    let reports: Vec<CampaignReport> = paths
        .iter()
        .map(|p| load_report(p))
        .collect::<Result<_, _>>()?;
    let merged = CampaignReport::merge(&reports).map_err(|e| e.to_string())?;
    eprintln!("merged {} shard report(s)", reports.len());
    print_summary(&merged, args.flag("--per-fu"));
    if let Some(path) = args.value::<String>("--out") {
        std::fs::write(&path, merged.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(0)
}

fn cmd_validate(files: &[String]) -> Result<i32, String> {
    if files.is_empty() {
        return Err("pass report files to validate".to_string());
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

fn cmd_table(args: &CliArgs, files: &[String]) -> Result<i32, String> {
    let paths: Vec<PathBuf> = match args.value::<String>("--dir") {
        Some(dir) => {
            let entries = std::fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))?;
            let mut v: Vec<PathBuf> = entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            v.sort();
            v
        }
        None => files.iter().map(PathBuf::from).collect(),
    };
    if paths.is_empty() {
        return Err("pass report files or --dir DIR".to_string());
    }
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
fn cmd_serve(args: &CliArgs) -> Result<i32, String> {
    let config = scdp_serve::ServerConfig {
        addr: args.value_or("--addr", DEFAULT_SERVE_ADDR.to_string()),
        dir: PathBuf::from(args.value_or("--dir", "scdp-jobs".to_string())),
        workers: args.value_or("--jobs", 2usize),
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

/// `scdp submit` — POST a spec file to a running server, report the
/// cache verdict, and optionally wait for (and fetch) the result.
fn cmd_submit(args: &CliArgs, files: &[String]) -> Result<i32, String> {
    let Some(spec_path) = files.first() else {
        return Err("usage: scdp submit SPEC.json [--addr A] [--wait] [--out FILE]".to_string());
    };
    let addr = args.value_or("--addr", DEFAULT_SERVE_ADDR.to_string());
    let spec = std::fs::read_to_string(spec_path).map_err(|e| format!("read {spec_path}: {e}"))?;
    let submitted = scdp_serve::client::submit(&addr, &spec)?;
    println!(
        "job {}  cache: {}  status: {}",
        submitted.id, submitted.cache, submitted.status
    );
    let out = args.value::<String>("--out");
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
fn cmd_sweep(args: &CliArgs) -> Result<i32, String> {
    let seq = args.flag("--seq");
    let width = args.width(3).clamp(1, 16);
    let samples = args.samples(1024);
    let seed = args.seed();
    let exec = exec_from_args(args)?;
    let style = match args.value::<String>("--style") {
        None => SckStyle::Full,
        Some(s) => style_from_label(&s).ok_or(format!("unknown style `{s}`"))?,
    };
    let allocation = if args.flag("--dedicated") {
        Allocation::Dedicated
    } else {
        Allocation::SingleUnit
    };
    let report_dir = args.value::<String>("--report-dir");
    if let Some(dir) = &report_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    }

    println!(
        "{} campaigns: width {width}, style {}, {} allocation, \
         {samples} vectors/fault (seed {seed:#x})",
        if seq {
            "Sequential datapath"
        } else {
            "Datapath"
        },
        style_label(style),
        if allocation == Allocation::Dedicated {
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
            let scenario = DatapathScenario::new(source.clone(), width)
                .technique(technique)
                .style(style)
                .allocation(allocation);
            let space = InputSpace::Sampled {
                per_fault: samples,
                seed,
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
                        .run_on(&machine)
                        .map_err(|e| e.to_string())?;
                    let details = report.sequential.as_ref().ok_or_else(|| {
                        format!(
                            "sweep {label}/{tech}: sequential campaign report is \
                             missing its sequential section"
                        )
                    })?;
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
                    if let Some(dir) = &report_dir {
                        let path = format!(
                            "{dir}/seq_{label}_{tech}_{}.json",
                            duration_label(duration).replace('@', "_"),
                        );
                        std::fs::write(&path, report.to_json())
                            .map_err(|e| format!("write {path}: {e}"))?;
                        eprintln!("    wrote {path}");
                    }
                }
            } else {
                let report = scenario
                    .campaign()
                    .input_space(space)
                    .exec(exec)
                    .run()
                    .map_err(|e| e.to_string())?;
                let details = report.datapath.as_ref().ok_or_else(|| {
                    format!(
                        "sweep {label}/{tech}: datapath campaign report is \
                         missing its datapath section"
                    )
                })?;
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
                if let Some(dir) = &report_dir {
                    let path = format!("{dir}/dp_{label}_{tech}.json");
                    std::fs::write(&path, report.to_json())
                        .map_err(|e| format!("write {path}: {e}"))?;
                    eprintln!("    wrote {path}");
                }
            }
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn positionals_skip_flag_values_but_keep_files() {
        let raw = strings(&[
            "--dir",
            "ckpt",
            "a.json",
            "--seq",
            "b.json",
            "--samples",
            "64",
        ]);
        assert_eq!(positionals(&raw), strings(&["a.json", "b.json"]));
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
            assert_eq!(run(bad), 1, "{verb} runs and fails without --help");
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
        assert_eq!(run(strings(&["run", "--workload", "nope"])), 1);
        assert_eq!(run(strings(&["run", "--op", "nope"])), 1);
        assert_eq!(run(strings(&["run", "--technique", "nope"])), 1);
        assert_eq!(run(strings(&["validate"])), 1);
        assert_eq!(run(strings(&["merge"])), 1);
    }

    #[test]
    fn job_construction_covers_all_three_shapes() {
        let op = job_from_args(&CliArgs::from_vec(strings(&[
            "--op", "add", "--width", "3",
        ])));
        assert!(matches!(op, Ok(CampaignJob::Operator(_))));
        let dp = job_from_args(&CliArgs::from_vec(strings(&["--workload", "dot"])));
        assert!(matches!(dp, Ok(CampaignJob::Datapath(_))));
        let seq = job_from_args(&CliArgs::from_vec(strings(&[
            "--workload",
            "fir",
            "--seq",
            "--duration",
            "transient@2",
        ])));
        match seq {
            Ok(CampaignJob::Sequential(spec)) => {
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
        assert_eq!(run(strings(&["lint", "--workload", "nope"])), 1);
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
        assert_eq!(run(strings(&["analyze", "--workload", "nope"])), 1);
        assert_eq!(run(strings(&["analyze", "--op", "div"])), 1);
    }

    #[test]
    fn prune_flag_reaches_the_job_and_preserves_results() {
        let scenario = strings(&[
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
        ]);
        let mut with = scenario.clone();
        with.push("--prune".to_string());
        let exec = exec_from_args(&CliArgs::from_vec(with.clone())).expect("parses");
        assert!(exec.prune, "--prune reaches the policy");
        let plain = job_from_args(&CliArgs::from_vec(scenario))
            .expect("job")
            .run()
            .expect("runs");
        let pruned = job_from_args(&CliArgs::from_vec(with))
            .expect("job")
            .run()
            .expect("runs");
        assert!(plain.same_results(&pruned));
        assert_eq!(plain.per_fault, pruned.per_fault);
        let d = pruned.deduce.as_ref().expect("pruned runs carry deduce");
        assert!(d.untestable > 0, "the FIR datapath deduces");
    }

    #[test]
    fn collapse_flag_reaches_the_job_and_preserves_results() {
        let scenario = strings(&[
            "--workload",
            "dot",
            "--width",
            "2",
            "--samples",
            "64",
            "--threads",
            "2",
        ]);
        let mut with = scenario.clone();
        with.push("--collapse".to_string());
        let plain = job_from_args(&CliArgs::from_vec(scenario))
            .expect("job")
            .run()
            .expect("runs");
        let collapsed = job_from_args(&CliArgs::from_vec(with))
            .expect("job")
            .run()
            .expect("runs");
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
            let exec =
                exec_from_args(&CliArgs::from_vec(strings(&["--lanes", arg]))).expect("parses");
            assert_eq!(exec.lanes, lanes, "--lanes {arg}");
        }
        for bad in ["2", "16", "wide"] {
            assert!(exec_from_args(&CliArgs::from_vec(strings(&["--lanes", bad]))).is_err());
        }

        // Semantics: lane width never moves a result.
        let base = strings(&["--workload", "dot", "--width", "2", "--samples", "64"]);
        let narrow = {
            let mut a = base.clone();
            a.extend(strings(&["--lanes", "1"]));
            job_from_args(&CliArgs::from_vec(a))
                .expect("job")
                .run()
                .expect("runs")
        };
        let wide = {
            let mut a = base;
            a.extend(strings(&["--lanes", "8"]));
            job_from_args(&CliArgs::from_vec(a))
                .expect("job")
                .run()
                .expect("runs")
        };
        assert!(narrow.same_results(&wide));
        assert_eq!(narrow.per_fault, wide.per_fault);
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
        let full = job_from_args(&CliArgs::from_vec(strings(scenario)))
            .expect("job")
            .telemetry(true)
            .run()
            .expect("unsharded run");
        let full_tel = full.telemetry.as_ref().expect("unsharded telemetry");
        assert_eq!(
            tel.deterministic_counters(),
            full_tel.deterministic_counters()
        );

        assert_eq!(run(strings(&["trace", "summarize", &trace_path])), 0);
        assert_eq!(run(strings(&["trace", "summarize"])), 1);
        assert_eq!(run(strings(&["trace", "frobnicate", &trace_path])), 1);
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
        assert_eq!(run(strings(&["submit"])), 1);
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
