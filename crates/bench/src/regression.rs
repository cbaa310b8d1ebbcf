//! The bench-regression gate: comparing fresh `BENCH_*.json` artifacts
//! against the committed baselines.
//!
//! Every benchmark group writes a `BENCH_<name>.json` through
//! [`Bench::finish`](crate::Bench::finish); the workspace commits those
//! artifacts as the performance trajectory. This module is the `--check`
//! mode behind the `bench_check` binary (the CI bench-regression job):
//! it reloads both sides and fails on
//!
//! * a **median slowdown** beyond the tolerance (default ±30%),
//! * a **derived-metric decay** beyond the tolerance,
//! * a **hard floor** violation — `speedup_1thread_vs_scalar` below
//!   100× is a failure regardless of tolerance (the engine's headline
//!   acceptance),
//! * a **hard ceiling** violation on an exact work count —
//!   `gate_evals_per_situation` above its 1.35 ceiling means the
//!   engine's faulty passes grew past their fanout cones, and
//!   `seq_gate_evals_per_situation` above its measured value means the
//!   sequential engine evaluates more gates per situation,
//! * baseline ids or files missing from the fresh run.
//!
//! Improvements beyond the tolerance are reported as warnings (the
//! baseline is stale and should be regenerated), never failures.

use scdp_campaign::json::{self, Json};

/// One timed record of a bench file (`results` array entry).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Benchmark id within the group.
    pub id: String,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: f64,
}

/// One derived scalar metric (`metrics` array entry).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchMetric {
    /// Metric id.
    pub id: String,
    /// Metric value (e.g. a speedup ratio).
    pub value: f64,
}

/// A parsed `BENCH_<name>.json` artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchFile {
    /// Group name (the `bench` member).
    pub name: String,
    /// Timed records.
    pub records: Vec<BenchRecord>,
    /// Derived metrics.
    pub metrics: Vec<BenchMetric>,
}

impl BenchFile {
    /// Parses a bench artifact.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed documents.
    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let name = v
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("missing `bench` name")?
            .to_string();
        let mut records = Vec::new();
        for r in v.get("results").and_then(Json::as_arr).unwrap_or(&[]) {
            records.push(BenchRecord {
                id: r
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("result without id")?
                    .to_string(),
                median_ns: r
                    .get("median_ns")
                    .and_then(Json::as_f64)
                    .ok_or("result without median_ns")?,
            });
        }
        let mut metrics = Vec::new();
        for m in v.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
            metrics.push(BenchMetric {
                id: m
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("metric without id")?
                    .to_string(),
                value: m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("metric without value")?,
            });
        }
        Ok(BenchFile {
            name,
            records,
            metrics,
        })
    }

    /// Loads and parses a bench artifact from disk.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path for IO or parse failures.
    pub fn load(path: &std::path::Path) -> Result<BenchFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn median_of(&self, id: &str) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.median_ns)
    }

    fn metric_of(&self, id: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.id == id).map(|m| m.value)
    }
}

/// Severity of one check finding.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Severity {
    /// The gate fails.
    Fail,
    /// Noted, but not a failure (e.g. a stale baseline after a big
    /// improvement).
    Warn,
}

/// One comparison finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Whether the finding fails the gate.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    fn fail(message: String) -> Finding {
        Finding {
            severity: Severity::Fail,
            message,
        }
    }

    fn warn(message: String) -> Finding {
        Finding {
            severity: Severity::Warn,
            message,
        }
    }
}

/// Configuration of the regression gate.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Relative tolerance on medians and metrics (0.30 = ±30%).
    pub tolerance: f64,
    /// Whether absolute-median slowdowns fail the gate. `true` when
    /// fresh run and baseline come from the same machine (the local
    /// workflow); set `false` (`bench_check --cross-machine`) when the
    /// baseline was recorded elsewhere — absolute nanoseconds do not
    /// transfer between machines, so median findings demote to
    /// warnings while the machine-relative ratio metrics
    /// (`speedup_*`) and the hard floors keep failing.
    pub medians_fail: bool,
    /// Hard floors on derived metrics, checked on the *fresh* file
    /// regardless of tolerance.
    pub metric_floors: Vec<(String, f64)>,
}

/// Hard ceilings on exact work counts, checked on the *fresh* file
/// regardless of tolerance. They are exact counts, so host noise cannot
/// trip them:
///
/// * `gate_evals_per_situation` — the w8 FIR line universe's gate
///   evaluations per situation (measured 1.294; a full faulty pass per
///   batch would be 2,814 / 64 ≈ 44);
/// * `seq_gate_evals_per_situation` — the w4 sequential FIR machine's
///   gates × cycles per situation, held at exactly its measured value
///   (65.875: 4,216 gate-cycles per 64-situation limb): every situation
///   replays the whole machine, so any rise is work added to the
///   sequential engine.
const WORK_CEILINGS: [(&str, f64); 2] = [
    ("gate_evals_per_situation", 1.35),
    ("seq_gate_evals_per_situation", 65.875),
];

impl Default for CheckConfig {
    /// The committed gate: ±30% tolerance, combinational engine speedup
    /// ≥ 100×, sequential engine speedup ≥ 8×, fault-collapsed campaign
    /// wall-clock win ≥ 1.3×, deductive prune ratio ≥ 1.15× (universe ÷
    /// still-simulated groups), and the execution-layer shape floors —
    /// benches must exercise the work-stealing pool with ≥ 4 workers
    /// and the wide-word engine with ≥ 4 SIMD lanes (64-bit limbs).
    /// The pool's *scaling ratio* floor (`parallel_speedup_w8` ≥ 3×)
    /// is machine-conditional and added by `bench_check` only on
    /// runners with ≥ 4 physical cores.
    fn default() -> Self {
        Self {
            tolerance: 0.30,
            medians_fail: true,
            metric_floors: vec![
                ("speedup_1thread_vs_scalar".to_string(), 100.0),
                ("seq_speedup_1thread_vs_scalar".to_string(), 8.0),
                ("collapse_ratio".to_string(), 1.3),
                ("prune_ratio".to_string(), 1.15),
                ("parallel_threads".to_string(), 4.0),
                ("simd_lanes".to_string(), 4.0),
            ],
        }
    }
}

/// `true` for metrics counting work per unit of output (e.g.
/// `gate_evals_per_situation`): for them a *rise* is the decay.
fn lower_is_better(id: &str) -> bool {
    id.ends_with("_per_situation")
}

/// `true` for metrics carrying machine-absolute throughput or
/// utilisation (e.g. `seq_mcycles_per_sec`, `faults_per_sec`,
/// `parallel_busy_fraction`): like raw medians, they do not transfer
/// between machines (core count changes both rates and utilisation),
/// so their decay findings follow the `medians_fail` rule instead of
/// always failing. Speedup *ratios* stay strict.
fn absolute_metric(id: &str) -> bool {
    id.ends_with("_per_sec") || id.ends_with("_busy_fraction")
}

/// Compares one fresh bench file against its committed baseline.
#[must_use]
pub fn check(baseline: &BenchFile, fresh: &BenchFile, cfg: &CheckConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let group = &baseline.name;
    for rec in &baseline.records {
        match fresh.median_of(&rec.id) {
            None => findings.push(Finding::fail(format!(
                "{group}/{}: present in baseline, missing from fresh run",
                rec.id
            ))),
            Some(fresh_ns) => {
                let ratio = fresh_ns / rec.median_ns;
                if ratio > 1.0 + cfg.tolerance {
                    let message = format!(
                        "{group}/{}: median slowdown {:.2}x over baseline \
                         ({:.0} ns -> {:.0} ns, tolerance +{:.0}%)",
                        rec.id,
                        ratio,
                        rec.median_ns,
                        fresh_ns,
                        cfg.tolerance * 100.0
                    );
                    findings.push(if cfg.medians_fail {
                        Finding::fail(message)
                    } else {
                        Finding::warn(message)
                    });
                } else if ratio < 1.0 - cfg.tolerance {
                    findings.push(Finding::warn(format!(
                        "{group}/{}: {:.2}x faster than baseline — regenerate the \
                         committed BENCH artifact",
                        rec.id,
                        1.0 / ratio
                    )));
                }
            }
        }
    }
    for rec in &fresh.records {
        if baseline.median_of(&rec.id).is_none() {
            findings.push(Finding::warn(format!(
                "{group}/{}: new id not in the committed baseline",
                rec.id
            )));
        }
    }
    for m in &baseline.metrics {
        match fresh.metric_of(&m.id) {
            None => findings.push(Finding::fail(format!(
                "{group}/{}: metric present in baseline, missing from fresh run",
                m.id
            ))),
            Some(fresh_v) if m.value > 0.0 => {
                let ratio = if lower_is_better(&m.id) {
                    m.value / fresh_v
                } else {
                    fresh_v / m.value
                };
                if ratio < 1.0 - cfg.tolerance {
                    let message = format!(
                        "{group}/{}: metric decayed {:.2} -> {:.2} \
                         (tolerance -{:.0}%)",
                        m.id,
                        m.value,
                        fresh_v,
                        cfg.tolerance * 100.0
                    );
                    findings.push(if cfg.medians_fail || !absolute_metric(&m.id) {
                        Finding::fail(message)
                    } else {
                        Finding::warn(message)
                    });
                } else if ratio > 1.0 + cfg.tolerance {
                    findings.push(Finding::warn(format!(
                        "{group}/{}: metric improved {:.2} -> {:.2} — regenerate \
                         the committed BENCH artifact",
                        m.id, m.value, fresh_v
                    )));
                }
            }
            Some(_) => {}
        }
    }
    for (id, floor) in &cfg.metric_floors {
        if let Some(v) = fresh.metric_of(id) {
            if v < *floor {
                findings.push(Finding::fail(format!(
                    "{group}/{id}: {v:.1} below the hard floor {floor:.1}"
                )));
            }
        }
    }
    for (id, ceiling) in WORK_CEILINGS {
        if let Some(v) = fresh.metric_of(id) {
            if v > ceiling {
                findings.push(Finding::fail(format!(
                    "{group}/{id}: {v:.3} above the hard ceiling {ceiling:.3}"
                )));
            }
        }
    }
    findings
}

/// Compares every `BENCH_*.json` of `baseline_dir` against its
/// counterpart in `fresh_dir`. Returns the findings and the number of
/// file pairs compared.
///
/// # Errors
///
/// Returns a message when a directory cannot be read or a baseline
/// artifact is malformed (a malformed *fresh* file is a gate failure,
/// not an error).
pub fn check_dirs(
    baseline_dir: &std::path::Path,
    fresh_dir: &std::path::Path,
    cfg: &CheckConfig,
) -> Result<(Vec<Finding>, usize), String> {
    let mut findings = Vec::new();
    let mut compared = 0usize;
    let mut names: Vec<String> = std::fs::read_dir(baseline_dir)
        .map_err(|e| format!("{}: {e}", baseline_dir.display()))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines in {}",
            baseline_dir.display()
        ));
    }
    for name in names {
        let baseline = BenchFile::load(&baseline_dir.join(&name))?;
        let fresh_path = fresh_dir.join(&name);
        if !fresh_path.exists() {
            findings.push(Finding::fail(format!(
                "{name}: baseline has no fresh counterpart in {}",
                fresh_dir.display()
            )));
            continue;
        }
        match BenchFile::load(&fresh_path) {
            Ok(fresh) => {
                findings.extend(check(&baseline, &fresh, cfg));
                compared += 1;
            }
            Err(e) => findings.push(Finding::fail(format!("fresh artifact malformed: {e}"))),
        }
    }
    Ok((findings, compared))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(records: &[(&str, f64)], metrics: &[(&str, f64)]) -> BenchFile {
        BenchFile {
            name: "sim_engine".into(),
            records: records
                .iter()
                .map(|&(id, median_ns)| BenchRecord {
                    id: id.into(),
                    median_ns,
                })
                .collect(),
            metrics: metrics
                .iter()
                .map(|&(id, value)| BenchMetric {
                    id: id.into(),
                    value,
                })
                .collect(),
        }
    }

    fn fails(findings: &[Finding]) -> usize {
        findings
            .iter()
            .filter(|f| f.severity == Severity::Fail)
            .count()
    }

    #[test]
    fn parses_the_harness_format() {
        let text = "{\"bench\":\"sim_engine\",\"results\":[{\"id\":\"a\",\"median_ns\":120.5,\
                    \"min_ns\":100.0,\"samples\":10,\"elements\":64}],\
                    \"metrics\":[{\"id\":\"speedup\",\"value\":153.070}]}\n";
        let f = BenchFile::parse(text).expect("parses");
        assert_eq!(f.name, "sim_engine");
        assert_eq!(f.records.len(), 1);
        assert_eq!(f.median_of("a"), Some(120.5));
        assert_eq!(f.metric_of("speedup"), Some(153.07));
        assert!(BenchFile::parse("{}").is_err());
        assert!(BenchFile::parse("not json").is_err());
    }

    #[test]
    fn identical_runs_pass() {
        let base = file(&[("a", 100.0)], &[("speedup_1thread_vs_scalar", 150.0)]);
        let findings = check(&base, &base, &CheckConfig::default());
        assert_eq!(fails(&findings), 0, "{findings:?}");
    }

    #[test]
    fn injected_2x_slowdown_fails_the_gate() {
        let base = file(
            &[("bitparallel_1thread_w4", 285_816.0)],
            &[("speedup_1thread_vs_scalar", 153.0)],
        );
        // The acceptance scenario: the fresh run is 2x slower and the
        // headline speedup halves below the 100x floor.
        let fresh = file(
            &[("bitparallel_1thread_w4", 571_632.0)],
            &[("speedup_1thread_vs_scalar", 76.5)],
        );
        let findings = check(&base, &fresh, &CheckConfig::default());
        assert!(fails(&findings) >= 3, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("slowdown")));
        assert!(findings.iter().any(|f| f.message.contains("hard floor")));
        // Within tolerance passes: 1.25x is inside +-30%.
        let ok = file(
            &[("bitparallel_1thread_w4", 357_270.0)],
            &[("speedup_1thread_vs_scalar", 122.4)],
        );
        assert_eq!(fails(&check(&base, &ok, &CheckConfig::default())), 0);
    }

    #[test]
    fn improvements_warn_but_do_not_fail() {
        let base = file(&[("a", 100.0)], &[("speedup_1thread_vs_scalar", 150.0)]);
        let fresh = file(&[("a", 40.0)], &[("speedup_1thread_vs_scalar", 400.0)]);
        let findings = check(&base, &fresh, &CheckConfig::default());
        assert_eq!(fails(&findings), 0, "{findings:?}");
        assert_eq!(findings.len(), 2, "both improvements warned");
    }

    #[test]
    fn missing_ids_fail_and_new_ids_warn() {
        let base = file(&[("a", 100.0), ("gone", 50.0)], &[]);
        let fresh = file(&[("a", 100.0), ("new", 10.0)], &[]);
        let findings = check(&base, &fresh, &CheckConfig::default());
        assert_eq!(fails(&findings), 1);
        assert!(findings
            .iter()
            .any(|f| f.severity == Severity::Warn && f.message.contains("new")));
    }

    #[test]
    fn absolute_throughput_metrics_follow_the_median_rule() {
        // A slower CI machine halves the absolute Mcycles/s metric: a
        // warning in cross-machine mode, a failure in same-machine
        // mode. The machine-relative seq speedup ratio stays strict in
        // both, as does its hard floor.
        let base = file(
            &[],
            &[
                ("seq_mcycles_per_sec", 30.0),
                ("seq_speedup_1thread_vs_scalar", 100.0),
            ],
        );
        let slow_machine = file(
            &[],
            &[
                ("seq_mcycles_per_sec", 15.0),
                ("seq_speedup_1thread_vs_scalar", 98.0),
            ],
        );
        let cross = CheckConfig {
            medians_fail: false,
            ..CheckConfig::default()
        };
        let findings = check(&base, &slow_machine, &cross);
        assert_eq!(fails(&findings), 0, "{findings:?}");
        assert_eq!(findings.len(), 1, "throughput decay still warned");
        assert_eq!(
            fails(&check(&base, &slow_machine, &CheckConfig::default())),
            1
        );
        // A real engine regression: the ratio decays below tolerance
        // and breaches the 8x floor even cross-machine.
        let regressed = file(
            &[],
            &[
                ("seq_mcycles_per_sec", 15.0),
                ("seq_speedup_1thread_vs_scalar", 6.0),
            ],
        );
        let findings = check(&base, &regressed, &cross);
        assert!(fails(&findings) >= 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("hard floor")));
    }

    #[test]
    fn busy_fraction_and_faults_per_sec_demote_cross_machine() {
        // Utilisation and fault-grading rate shift with the core
        // count: warnings cross-machine, failures same-machine.
        let base = file(
            &[],
            &[
                ("parallel_busy_fraction", 0.9),
                ("faults_per_sec", 50_000.0),
            ],
        );
        let other_machine = file(
            &[],
            &[
                ("parallel_busy_fraction", 0.4),
                ("faults_per_sec", 20_000.0),
            ],
        );
        let cross = CheckConfig {
            medians_fail: false,
            ..CheckConfig::default()
        };
        let findings = check(&base, &other_machine, &cross);
        assert_eq!(fails(&findings), 0, "{findings:?}");
        assert_eq!(findings.len(), 2, "decays still warned: {findings:?}");
        assert_eq!(
            fails(&check(&base, &other_machine, &CheckConfig::default())),
            2
        );
    }

    #[test]
    fn cross_machine_mode_demotes_median_findings_only() {
        let cfg = CheckConfig {
            medians_fail: false,
            ..CheckConfig::default()
        };
        // A slower machine: every median 2x up, but the machine-relative
        // speedup ratio holds — the gate passes with warnings.
        let base = file(&[("a", 100.0)], &[("speedup_1thread_vs_scalar", 150.0)]);
        let slow_machine = file(&[("a", 200.0)], &[("speedup_1thread_vs_scalar", 149.0)]);
        let findings = check(&base, &slow_machine, &cfg);
        assert_eq!(fails(&findings), 0, "{findings:?}");
        assert_eq!(findings.len(), 1, "median slowdown still warned");
        // A real engine regression: the ratio decays and the floor
        // breaches — still failures in cross-machine mode.
        let regressed = file(&[("a", 200.0)], &[("speedup_1thread_vs_scalar", 75.0)]);
        let findings = check(&base, &regressed, &cfg);
        assert!(fails(&findings) >= 2, "{findings:?}");
    }

    #[test]
    fn gate_eval_ceiling_catches_full_passes_in_any_mode() {
        let base = file(&[], &[("gate_evals_per_situation", 1.294)]);
        let cross = CheckConfig {
            medians_fail: false,
            ..CheckConfig::default()
        };
        // Back to full faulty passes: the count rises ~34x — a decay
        // and a ceiling breach, in same- and cross-machine mode.
        let full_passes = file(&[], &[("gate_evals_per_situation", 43.97)]);
        for cfg in [CheckConfig::default(), cross] {
            let findings = check(&base, &full_passes, &cfg);
            assert_eq!(fails(&findings), 2, "{findings:?}");
            assert!(findings.iter().any(|f| f.message.contains("hard ceiling")));
        }
        // Fewer evaluations is an improvement: a warning at most.
        let smaller = file(&[], &[("gate_evals_per_situation", 0.8)]);
        let findings = check(&base, &smaller, &CheckConfig::default());
        assert_eq!(fails(&findings), 0, "{findings:?}");
        assert!(findings[0].message.contains("improved"));
        // Within the tolerance but over the ceiling still fails.
        let creeping = file(&[], &[("gate_evals_per_situation", 1.4)]);
        assert_eq!(fails(&check(&base, &creeping, &CheckConfig::default())), 1);
    }

    #[test]
    fn seq_gate_eval_ceiling_is_exact() {
        let base = file(&[], &[("seq_gate_evals_per_situation", 65.875)]);
        // Today's count passes; one more gate-cycle per limb fails,
        // well inside the tolerance.
        assert_eq!(fails(&check(&base, &base, &CheckConfig::default())), 0);
        let one_more = file(&[], &[("seq_gate_evals_per_situation", 4217.0 / 64.0)]);
        let findings = check(&base, &one_more, &CheckConfig::default());
        assert_eq!(fails(&findings), 1, "{findings:?}");
        assert!(findings[0].message.contains("hard ceiling"));
    }

    #[test]
    fn floor_applies_even_when_baseline_already_decayed() {
        // Baseline itself below the floor: tolerance would pass, the
        // floor still fails.
        let base = file(&[], &[("speedup_1thread_vs_scalar", 90.0)]);
        let fresh = file(&[], &[("speedup_1thread_vs_scalar", 85.0)]);
        let findings = check(&base, &fresh, &CheckConfig::default());
        assert_eq!(fails(&findings), 1);
        assert!(findings[0].message.contains("hard floor"));
    }

    #[test]
    fn check_dirs_pairs_baselines_with_fresh_artifacts() {
        let root = std::env::temp_dir().join(format!("scdp_bench_check_{}", std::process::id()));
        let base_dir = root.join("base");
        let fresh_dir = root.join("fresh");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&fresh_dir).unwrap();
        let doc = "{\"bench\":\"units\",\"results\":[{\"id\":\"a\",\"median_ns\":10.0,\
                   \"min_ns\":9.0,\"samples\":3,\"elements\":0}],\"metrics\":[]}";
        std::fs::write(base_dir.join("BENCH_units.json"), doc).unwrap();
        std::fs::write(fresh_dir.join("BENCH_units.json"), doc).unwrap();
        std::fs::write(base_dir.join("BENCH_missing.json"), doc).unwrap();
        let (findings, compared) =
            check_dirs(&base_dir, &fresh_dir, &CheckConfig::default()).expect("dirs readable");
        assert_eq!(compared, 1);
        assert_eq!(fails(&findings), 1, "missing fresh file fails");
        std::fs::remove_dir_all(&root).ok();
    }
}
