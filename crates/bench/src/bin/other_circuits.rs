//! "Other circuits are now taken into consideration" (§5): the Table 3
//! analysis applied to the companion workloads — an IIR biquad (denser
//! multiplier traffic), a streaming dot product, and a matrix–vector row
//! with a running average (exercising the divider) — plus gate-level
//! reliability campaigns on the *other generators* (the carry-save
//! adder realisation and the array multiplier) at a non-default width
//! through the unified `scdp-campaign` API, exercising its Monte-Carlo
//! input space.
//!
//! Usage:
//!   other_circuits [--width N] [--samples N] [--seed S] [--threads N]

use scdp_bench::{pct, timed, CliArgs, Flag, OrUsageExit};
use scdp_campaign::{Backend, ExecPolicy, InputSpace, Scenario};
use scdp_core::{Operator, Technique};
use scdp_fir::{dot_body_dfg, iir_biquad_dfg, matvec_row_dfg};
use scdp_netlist::gen::AdderRealisation;

const FLAGS: &[Flag] = &[Flag::WIDTH, Flag::SAMPLES, Flag::SEED, Flag::THREADS];

fn main() {
    let args = CliArgs::parse(FLAGS).or_usage_exit();
    let flow = scdp_codesign::CodesignFlow::default();
    for body in [iir_biquad_dfg(), dot_body_dfg(), matvec_row_dfg()] {
        let name = body.name().to_string();
        let report = timed(&name, || flow.table3(&body));
        println!("=== {name} ===");
        print!("{report}");
        println!();
    }
    println!("The FIR conclusions generalise: min-area checking costs cycles and");
    println!("clock; min-latency hides the checks on dedicated units; area orders");
    println!("plain < embedded < full for every workload.");

    // Reliability campaigns for the companion generators, at a width
    // (12 bits) whose 2^24-pair input space forces Monte-Carlo
    // sampling: the carry-save realisation cross-validated against the
    // ripple-carry baseline, and the array multiplier worst case.
    let width = args.width(12).or_usage_exit();
    let space = InputSpace::Sampled {
        per_fault: args.samples(1 << 14).or_usage_exit(),
        seed: args.seed().or_usage_exit(),
    };
    let threads = args.threads().or_usage_exit();
    let gate = |op: Operator, tech: Technique, real: AdderRealisation| {
        Scenario::new(op, width)
            .technique(tech)
            .realisation(real)
            .campaign()
            .backend(Backend::GateLevel)
            .input_space(space)
            .exec(ExecPolicy::new().threads(threads))
            .run()
            .or_usage_exit()
    };
    println!(
        "\nCompanion generators, {width}-bit, Monte-Carlo ({} vectors):",
        match space {
            InputSpace::Sampled { per_fault, .. } => per_fault,
            InputSpace::Exhaustive => unreachable!("sampled by construction"),
        }
    );
    for tech in Technique::ALL {
        let csa = timed(&format!("CSA {tech}"), || {
            gate(Operator::Add, tech, AdderRealisation::CarrySave)
        });
        let rca = timed(&format!("RCA {tech}"), || {
            gate(Operator::Add, tech, AdderRealisation::RippleCarry)
        });
        println!(
            "  {tech:<9}  + CSA {} ({} sites)   + RCA {} ({} sites)",
            pct(csa.coverage()),
            csa.fault_count() / 2,
            pct(rca.coverage()),
            rca.fault_count() / 2,
        );
        // Cross-validation: the carry-save generator must land in the
        // ripple-carry coverage band (the paper's implementation-
        // independence claim stretched to a third realisation).
        let delta = (csa.coverage() - rca.coverage()).abs();
        assert!(
            delta < 0.05,
            "CSA coverage must track RCA within 5 points (off by {delta:.4})"
        );
    }
    println!("  (carry-save tracks ripple-carry within the coverage band — the");
    println!("   functional analysis transfers to the companion generators too)");

    // The array multiplier at a non-default width, same sampled space.
    let mul_width = 6;
    let mul = timed("mul Both", || {
        Scenario::new(Operator::Mul, mul_width)
            .campaign()
            .backend(Backend::GateLevel)
            .input_space(space)
            .exec(ExecPolicy::new().threads(threads))
            .run()
            .or_usage_exit()
    });
    println!(
        "Array multiplier, {mul_width}-bit Monte-Carlo worst case: x coverage {} \
         ({} sites)",
        pct(mul.coverage()),
        mul.fault_count() / 2,
    );
}
