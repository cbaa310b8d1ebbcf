//! Regenerates **Table 2** of the paper: worst-case fault coverage of the
//! self-checking `+` operator on an n-bit ripple-carry adder, for the
//! three overloading strategies, when the same faulty unit executes the
//! nominal addition and its checking subtractions.
//!
//! Also reproduces the §4.1 in-text statistics for the 2-bit adder
//! (observable errors, detection-when-correct counts, per-fault coverage
//! range) with `--detail`, and the §2.1 dedicated-unit result (100%
//! coverage) with `--dual-unit`.
//!
//! All campaigns go through the unified `scdp-campaign` API; `--report
//! FILE` additionally writes the width-4 row's `CampaignReport` as
//! `scdp.campaign.report/v1` JSON.
//!
//! Usage:
//!   table2 [--detail] [--dual-unit] [--model gate|cell] [--samples N]
//!          [--seed S] [--gate] [--threads N] [--monte-carlo]
//!          [--report FILE]

use scdp_bench::{pct, timed, CliArgs, Flag, OrUsageExit};
use scdp_campaign::{
    Backend, CampaignReport, ExecPolicy, FaultModel, InputSpace, Scenario, TechIndex,
};
use scdp_core::{Allocation, Operator, Technique};
use scdp_fault::SituationCount;

/// Paper values for reference printing: (bits, situations-as-printed,
/// tech1, tech2, both).
const PAPER: [(u32, &str, f64, f64, f64); 6] = [
    (1, "128", 95.31, 96.88, 97.66),
    (2, "1024", 96.88, 98.44, 98.83),
    (3, "6144", 97.40, 98.96, 99.22),
    (4, "7808*", 97.66, 99.22, 99.41),
    (8, "16x2^20", 98.05, 99.61, 99.71),
    (16, "6x2^30*", 98.18, 99.74, 99.80),
];

const FLAGS: &[Flag] = &[
    Flag::switch("--detail"),
    Flag::switch("--dual-unit"),
    Flag::one_of("--model", &["gate", "cell"]),
    Flag::SAMPLES,
    Flag::SEED,
    Flag::THREADS,
    Flag::MONTE_CARLO,
    Flag::switch("--gate"),
    Flag::text("--report"),
];

fn model_from(args: &CliArgs) -> FaultModel {
    match args.value::<String>("--model").or_usage_exit().as_deref() {
        Some("cell") => FaultModel::Cell,
        _ => FaultModel::FaGate,
    }
}

fn main() {
    let args = CliArgs::parse(FLAGS).or_usage_exit();
    let model = model_from(&args);
    let samples = args.samples(1 << 17).or_usage_exit();
    let seed = args.seed().or_usage_exit();
    let alloc = if args.flag("--dual-unit") {
        Allocation::Dedicated
    } else {
        Allocation::SingleUnit
    };

    println!("Table 2 — experimental results for operator + ({model} fault model, {alloc:?})");
    println!(
        "{:>4} {:>16} {:>9} {:>9} {:>9}   paper: {:>7} {:>7} {:>7}",
        "bits", "situations", "Tech1", "Tech2", "Tech 1&2", "Tech1", "Tech2", "1&2"
    );
    for (bits, paper_situations, p1, p2, pb) in PAPER {
        let space = if bits <= 8 {
            InputSpace::Exhaustive
        } else {
            InputSpace::Sampled {
                per_fault: samples,
                seed,
            }
        };
        let report = timed(&format!("n={bits}"), || {
            Scenario::new(Operator::Add, bits)
                .allocation(alloc)
                .campaign()
                .fault_model(model)
                .input_space(space)
                .run()
                .or_usage_exit()
        });
        let cov = |t: TechIndex| pct(report.coverage_of(t).expect("functional fills all columns"));
        println!(
            "{:>4} {:>15}{} {:>9} {:>9} {:>9}   paper: {:>7} {:>7} {:>7}",
            bits,
            report.total_situations(),
            if report.sampled() { "~" } else { " " },
            cov(TechIndex::Tech1),
            cov(TechIndex::Tech2),
            cov(TechIndex::Both),
            p1,
            p2,
            pb,
        );
        // The paper's printed counts for n=4 and n=16 (marked *) violate
        // its own 32·n·2^(2n) formula; we print the formula value.
        let formula = SituationCount::rca(bits).total();
        if !report.sampled() {
            assert_eq!(u128::from(report.total_situations()), formula);
        }
        let _ = paper_situations;
        if bits == 4 {
            if let Some(path) = args.value::<String>("--report").or_usage_exit() {
                std::fs::write(&path, report.to_json()).expect("write report JSON");
                eprintln!("[wrote {path}]");
            }
        }
    }
    println!("(* = the paper's printed count differs from its own formula; see EXPERIMENTS.md)");

    if args.flag("--detail") {
        detail(model);
    }
    if args.flag("--gate") {
        gate_section(&args);
    }
}

/// Gate-level Table 2 companion on the bit-parallel engine: worst-case
/// coverage of the generated structural self-checking adder (correlated
/// shared-unit stuck-ats on every gate of one instance) versus width.
fn gate_section(args: &CliArgs) {
    let threads = args.threads().or_usage_exit();
    println!("\nGate-level structural adder (bit-parallel engine, correlated faults):");
    println!(
        "{:>4} {:>9} {:>9} {:>9}",
        "bits", "Tech1", "Tech2", "Tech 1&2"
    );
    for bits in [1u32, 2, 3, 4, 8, 16] {
        let space = args.space(bits, 1 << 17).or_usage_exit();
        let mut cov = Vec::new();
        for tech in Technique::ALL {
            let report = Scenario::new(Operator::Add, bits)
                .technique(tech)
                .campaign()
                .backend(Backend::GateLevel)
                .input_space(space)
                .exec(ExecPolicy::new().threads(threads))
                .run()
                .or_usage_exit();
            cov.push(report.coverage());
        }
        println!(
            "{bits:>4} {:>9} {:>9} {:>9}{}",
            pct(cov[0]),
            pct(cov[1]),
            pct(cov[2]),
            if matches!(space, InputSpace::Sampled { .. }) {
                "  (sampled)"
            } else {
                ""
            }
        );
    }
}

/// The §4.1 in-text statistics for the 2-bit adder.
fn detail(model: FaultModel) {
    let run = |tech: Technique| -> CampaignReport {
        Scenario::new(Operator::Add, 2)
            .technique(tech)
            .campaign()
            .fault_model(model)
            .run()
            .or_usage_exit()
    };
    let both = run(Technique::Both);
    println!();
    println!("§4.1 statistics, 2-bit adder (paper values in parentheses):");
    println!(
        "  observable errors:        {:>5}   (216)",
        both.column(TechIndex::Tech1)
            .expect("functional fills all columns")
            .observable()
    );
    println!(
        "  detected though correct:  Tech1 {:>4} (352)  Tech2 {:>4} (384)  Both {:>4} (428)",
        both.column(TechIndex::Tech1)
            .expect("filled")
            .correct_detected,
        both.column(TechIndex::Tech2)
            .expect("filled")
            .correct_detected,
        both.column(TechIndex::Both)
            .expect("filled")
            .correct_detected,
    );
    for tech in Technique::ALL {
        let r = run(tech);
        let (lo, hi) = r.per_fault_coverage_range();
        println!(
            "  per-fault coverage range {}: [{}, {}]   (paper overall: [81.90%, 99.87%])",
            r.scenario.tech_index(),
            pct(lo),
            pct(hi)
        );
    }
}
