//! Regenerates **Table 1** of the paper: the overloading techniques for
//! `+`, `−`, `×`, `/` and their local fault coverage under the
//! worst-case (shared-unit) allocation.
//!
//! The paper does not state the operand width used for its Table 1
//! percentages; we default to 8 bits (exhaustive for `+`/`−`, sampled
//! for `×`/`/` whose cell universes are large) and print the checking
//! recipe next to each coverage figure, as the paper's table does.
//!
//! All campaigns go through the unified `scdp-campaign` API: one
//! functional [`Scenario`] per operator yields every technique column in
//! a single pass, and `--gate` re-runs the same scenarios on the
//! bit-parallel gate-level backend.
//!
//! Usage:
//!   table1 [--width N] [--samples N] [--seed S] [--exhaustive] [--gate]
//!          [--threads N] [--monte-carlo]
//!
//! `--threads` and `--monte-carlo` apply to the `--gate` section.

use scdp_bench::{pct, timed, CliArgs, Flag, OrUsageExit};
use scdp_campaign::{Backend, ExecPolicy, InputSpace, Scenario, TechIndex};
use scdp_core::{Operator, Technique};

const PAPER: [(Operator, f64, f64, Option<f64>); 4] = [
    (Operator::Add, 97.25, 98.81, Some(99.11)),
    (Operator::Sub, 96.85, 94.01, Some(99.58)),
    (Operator::Mul, 96.22, 96.38, Some(97.43)),
    (Operator::Div, 94.33, 97.16, None),
];

const FLAGS: &[Flag] = &[
    Flag::WIDTH,
    Flag::SAMPLES,
    Flag::SEED,
    Flag::THREADS,
    Flag::MONTE_CARLO,
    Flag::switch("--exhaustive"),
    Flag::switch("--gate"),
];

fn main() {
    let args = CliArgs::parse(FLAGS).or_usage_exit();
    let width = args.width(8).or_usage_exit();
    let samples = args.samples(1 << 14).or_usage_exit();
    let seed = args.seed().or_usage_exit();
    let exhaustive = args.flag("--exhaustive");

    println!("Table 1 — overloading techniques and fault coverage ({width}-bit, worst case)");
    for (op, p1, p2, pboth) in PAPER {
        // +/- have compact universes: exhaustive. x and / are sampled
        // unless --exhaustive.
        let space = if exhaustive || matches!(op, Operator::Add | Operator::Sub) {
            InputSpace::Exhaustive
        } else {
            InputSpace::Sampled {
                per_fault: samples,
                seed,
            }
        };
        let r = timed(&format!("{op}"), || {
            Scenario::new(op, width)
                .campaign()
                .input_space(space)
                .run()
                .or_usage_exit()
        });
        println!("\n{op}  (ris = op1 {op} op2; {} faults)", r.fault_count());
        for (tech, idx, paper) in [
            (Technique::Tech1, TechIndex::Tech1, Some(p1)),
            (Technique::Tech2, TechIndex::Tech2, Some(p2)),
            (Technique::Both, TechIndex::Both, pboth),
        ] {
            let paper_s = paper.map_or("   -  ".to_string(), |p| format!("{p:.2}%"));
            println!(
                "  {:<9} {:<44} cov {:>7}  (paper {paper_s})",
                tech.to_string(),
                tech.describe(op),
                pct(r.coverage_of(idx).expect("functional fills all columns")),
            );
        }
    }
    println!("\n(the paper's Div row evaluates Tech1/Tech2 only)");

    if args.flag("--gate") {
        gate_section(&args, width.min(8));
    }
}

/// Gate-level companion rows: the same worst-case (correlated
/// shared-unit) analysis run on generated structural datapaths through
/// the gate-level backend of the unified API.
fn gate_section(args: &CliArgs, width: u32) {
    let space = args.space(width, 1 << 14).or_usage_exit();
    let threads = args.threads().or_usage_exit();
    println!("\nGate-level structural campaigns ({width}-bit, bit-parallel engine):");
    for op in [Operator::Add, Operator::Sub, Operator::Mul] {
        let mut cells = Vec::new();
        for tech in Technique::ALL {
            let r = timed(&format!("gate {op} {tech}"), || {
                Scenario::new(op, width)
                    .technique(tech)
                    .campaign()
                    .backend(Backend::GateLevel)
                    .input_space(space)
                    .exec(ExecPolicy::new().threads(threads))
                    .run()
                    .or_usage_exit()
            });
            cells.push(format!("{tech} {}", pct(r.coverage())));
        }
        println!("  {op}  {}", cells.join("   "));
    }
}
