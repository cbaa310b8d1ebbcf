//! The bench-regression gate (`scdp-bench --check` mode): compare
//! fresh `BENCH_*.json` artifacts against the committed baselines and
//! exit non-zero on a regression.
//!
//! Usage:
//!   bench_check [--check] --fresh DIR [--baseline DIR]
//!               [--tolerance F] [--cross-machine]
//!
//! * `--baseline DIR` — committed artifacts (default: the workspace
//!   root, where `Bench::finish` writes them);
//! * `--fresh DIR` — artifacts from the run under test (e.g. a CI job
//!   that ran `cargo bench` with `BENCH_DIR=fresh`);
//! * `--tolerance F` — relative median/metric tolerance (default 0.30
//!   = ±30%). The hard floor — `speedup_1thread_vs_scalar` ≥ 100× —
//!   and the hard ceilings — `gate_evals_per_situation` ≤ 1.35 and
//!   `seq_gate_evals_per_situation` ≤ 65.875 — apply regardless of
//!   tolerance;
//! * `--cross-machine` — the baseline was recorded on a different
//!   machine: absolute-median slowdowns demote to warnings, while the
//!   machine-relative ratio metrics (`speedup_*`), the exact work
//!   counts and the hard floors and ceilings keep failing. Use on CI
//!   runners comparing against committed baselines.
//!
//! Exit status: 0 when the gate passes (warnings allowed), 1 on any
//! failure.

use scdp_bench::regression::{check_dirs, CheckConfig, Severity};
use scdp_bench::{CliArgs, Flag, OrUsageExit};
use std::path::PathBuf;

const FLAGS: &[Flag] = &[
    Flag::switch("--check"),
    Flag::text("--fresh"),
    Flag::text("--baseline"),
    Flag::real("--tolerance"),
    Flag::switch("--cross-machine"),
];

fn main() {
    let args = CliArgs::parse(FLAGS).or_usage_exit();
    let baseline = args
        .value::<String>("--baseline")
        .or_usage_exit()
        .map_or_else(default_baseline_dir, PathBuf::from);
    let Some(fresh) = args
        .value::<String>("--fresh")
        .or_usage_exit()
        .map(PathBuf::from)
    else {
        eprintln!("bench_check: --fresh DIR is required");
        std::process::exit(2);
    };
    let mut cfg = CheckConfig {
        tolerance: args
            .value_or("--tolerance", CheckConfig::default().tolerance)
            .or_usage_exit(),
        medians_fail: !args.flag("--cross-machine"),
        ..CheckConfig::default()
    };
    // The pool's scaling floor only holds where the physics allow it:
    // ≥ 3× at 4 workers needs ≥ 4 cores. Smaller runners still gate
    // the shape floors (`parallel_threads`, `simd_lanes`), which are
    // core-count independent.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores >= 4 {
        cfg.metric_floors
            .push(("parallel_speedup_w8".to_string(), 3.0));
    }

    let (findings, compared) = match check_dirs(&baseline, &fresh, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("bench_check: {e}");
            std::process::exit(2);
        }
    };
    let mut failures = 0usize;
    for f in &findings {
        match f.severity {
            Severity::Fail => {
                failures += 1;
                eprintln!("FAIL  {}", f.message);
            }
            Severity::Warn => eprintln!("warn  {}", f.message),
        }
    }
    println!(
        "bench_check: {compared} artifact pair(s), {} finding(s), {failures} failure(s) \
         (tolerance ±{:.0}%)",
        findings.len(),
        cfg.tolerance * 100.0
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

/// The committed baselines live where `Bench::finish` writes them: the
/// workspace root.
fn default_baseline_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}
