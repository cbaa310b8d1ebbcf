//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the scdp benchmark from the repository root and
//! prints, as its last line, one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1`
//! the per-layer ones). Earlier lines carry the host facts, the host
//! probe before and after the run, sample counts and reference digests.
//! The traced run also writes its spans to
//! `perfbench/.work/trace-<workload>-<seed>.json`.

use perfbench::{host, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload fir8_comb|fir8_pruned|fir8_seq|serve_mix \
                     --seed N --seconds S --trace 0|1";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--host-probe"] {
        println!("{}", host::probe());
        return ExitCode::SUCCESS;
    }
    if args.first().is_some_and(|a| a == "--setup-once") {
        return setup_once(&args[1..]);
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = cfg.workload.name();
    println!("host {}", host::facts(name, cfg.seed));
    println!("probe_start {}", host::probe_in_child());
    let outcome = match perfbench::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("probe_end {}", host::probe_in_child());
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(trace) = &outcome.trace {
        let path = cfg.work_dir.join(format!("trace-{name}-{}.json", cfg.seed));
        if let Err(e) = std::fs::write(&path, trace) {
            eprintln!("perfbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace {}", path.display());
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}

/// Parses the four required flags; anything else is an error.
fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed `{value}`: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds `{value}`: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Config::new(
        workload,
        seed.ok_or("missing --seed")?,
        seconds.ok_or("missing --seconds")?,
        trace.ok_or("missing --trace")?,
        PathBuf::from("perfbench/.work"),
        exe(),
    ))
}

/// This executable, which each run starts again for its set-ups.
fn exe() -> PathBuf {
    std::env::current_exe().unwrap_or_else(|_| PathBuf::from("perfbench"))
}

/// `--setup-once WORKLOAD SEED full|tiny DIR`: one set-up in this fresh
/// process, timed from here to the point where a run's first timed
/// operation would start. Prints `setup_s <seconds>`; the run that
/// started this process checks the warm-up report left in `DIR`.
fn setup_once(args: &[String]) -> ExitCode {
    let [workload, seed, size, dir] = args else {
        eprintln!("perfbench: --setup-once WORKLOAD SEED full|tiny DIR");
        return ExitCode::from(2);
    };
    let (Some(workload), Ok(seed)) = (Workload::from_name(workload), seed.parse::<u64>()) else {
        eprintln!("perfbench: --setup-once: bad workload `{workload}` or seed `{seed}`");
        return ExitCode::from(2);
    };
    let mut cfg = Config::new(workload, seed, 0.0, false, PathBuf::from(dir), exe());
    cfg.tiny = size == "tiny";
    match perfbench::setup_once(&cfg) {
        Ok(seconds) => {
            println!("setup_s {seconds}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: set-up of {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}
