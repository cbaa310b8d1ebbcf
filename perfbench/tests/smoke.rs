//! The benchmark's own smoke test: every workload at a tiny size, in
//! both modes, prints every named metric with its unit; a corrupted
//! report counts as a failure; and the pruned, sharded campaign
//! reproduces the unreduced one.

use perfbench::{run, Config, Outcome, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};
use scdp_campaign::json::{self, Json};
use scdp_campaign::{
    CampaignJob, CampaignRunner, DatapathScenario, DfgSource, ExecPolicy, InputSpace,
};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool, tag: &str) -> Config {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{tag}", workload.name()));
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    Config::new(workload, 7, 0.3, trace, dir, exe).tiny()
}

fn check_metrics(out: &Outcome, expected: &[(&str, &str)], workload: Workload) {
    let printed = out.result_json();
    assert_eq!(
        out.metrics.len(),
        expected.len(),
        "{}: {printed}",
        workload.name()
    );
    for ((name, unit), m) in expected.iter().zip(&out.metrics) {
        assert_eq!((m.name, m.unit), (*name, *unit));
        assert!(
            m.value.is_finite(),
            "{}: {name} = {}",
            workload.name(),
            m.value
        );
        let field = format!("\"{name}\": {{\"value\": ");
        assert!(printed.contains(&field), "{name} missing from {printed}");
        assert!(
            printed.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_and_verifies() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(workload, trace, if trace { "t1" } else { "t0" })).expect("run");
            let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            check_metrics(&out, expected, workload);
            assert!(
                out.correct,
                "{} trace={trace}: {:?}",
                workload.name(),
                out.notes
            );
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 1);
            assert_eq!(out.trace.is_some(), trace);
        }
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let Some(Json::Arr(listed)) = doc.get(key) else {
            panic!("{key} is not a list");
        };
        let listed: Vec<(&str, &str)> = listed
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(listed, table, "{key}");
    }
}

#[test]
fn a_corrupted_report_counts_as_failed() {
    for workload in Workload::ALL {
        let mut cfg = tiny(workload, false, "corrupt");
        cfg.corrupt_first = true;
        let out = run(&cfg).expect("run");
        assert_eq!(out.failed, 1, "{}", workload.name());
        assert!(!out.correct);
        let success = out
            .metrics
            .iter()
            .find(|m| m.name == "success_rate")
            .expect("metric");
        assert!(success.value < 1.0);
    }
}

#[test]
fn pruned_sharded_report_matches_the_unreduced_one() {
    let space = InputSpace::Sampled {
        per_fault: 128,
        seed: DEFAULT_SEED,
    };
    let spec = DatapathScenario::new(DfgSource::Fir, 4)
        .campaign()
        .input_space(space)
        .exec(ExecPolicy::new().threads(1));
    let comb = spec.run().expect("unreduced run");
    let pruned = spec
        .clone()
        .exec(ExecPolicy::new().threads(1).collapse(true).prune(true));
    let merged = CampaignRunner::new(CampaignJob::Datapath(pruned), 4)
        .run()
        .expect("sharded run")
        .report
        .expect("all shards ran");
    assert!(merged.same_results(&comb));
}
