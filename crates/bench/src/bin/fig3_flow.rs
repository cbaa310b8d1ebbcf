//! Walks the paper's **Figure 3** co-design flow end to end for the FIR
//! specification: self-checking specification → SCK expansion
//! ("OFFIS synthesizer") → hardware path (scheduling/binding/area — the
//! "Synopsys CoCentric" role) and software path (cost model — the "g++"
//! role) → partitioning → reliability validation.
//!
//! Validation happens twice, closing the loop at two abstraction
//! levels:
//!
//! * step `[6]` — the §4 *operator* campaign through the unified
//!   `scdp-campaign` API on both engines (bit-identical tallies);
//! * step `[7]` — the *system-level* campaign: the scheduled, bound FIR
//!   datapath elaborated to one flat netlist and fault-graded per
//!   functional unit (`scdp.campaign.report/v2`);
//! * step `[8]` — the *cycle-accurate* campaign: the same datapath as
//!   one shared-FU sequential machine, graded under permanent and
//!   single-cycle transient faults with per-cycle detection latencies
//!   (`scdp.campaign.report/v3`).
//!
//! Usage:
//!   fig3_flow [--width N] [--threads N] [--samples N] [--seed S]
//!             [--quick] [--report FILE] [--seq-report FILE]
//!
//! `--quick` shrinks the campaigns for CI smoke; `--report FILE` writes
//! the step-`[7]` datapath report as `scdp.campaign.report/v2` JSON and
//! `--seq-report FILE` the step-`[8]` sequential report as v3.

use scdp_bench::{CliArgs, Flag, OrUsageExit};
use scdp_campaign::{
    Backend, DatapathScenario, DfgSource, ExecPolicy, FaultDuration, FaultModel, InputSpace,
    Scenario,
};
use scdp_codesign::{partition, CodesignFlow, Goal, Mapping, PartitionProblem, TaskEstimate};
use scdp_core::{Operator, Technique};
use scdp_fir::fir_body_dfg;
use scdp_hls::{expand_sck, SckStyle};

const FLAGS: &[Flag] = &[
    // Exhaustive inputs are what make step [6]'s cross-backend
    // equality exact, so the validation width is capped at 8 to keep
    // the 2^(2w) pair space bounded.
    Flag::int("--width", 1, 8),
    Flag::THREADS,
    Flag::SAMPLES,
    Flag::SEED,
    Flag::switch("--quick"),
    Flag::text("--report"),
    Flag::text("--seq-report"),
];

fn main() {
    let args = CliArgs::parse(FLAGS).or_usage_exit();
    let quick = args.flag("--quick");
    let flow = CodesignFlow::default();
    let body = fir_body_dfg();
    println!(
        "[1] self-checking specification: {} ({} nodes)",
        body.name(),
        body.len()
    );

    let expanded = expand_sck(&body, Technique::Tech1, SckStyle::Full);
    println!(
        "[2] SCK expansion (OFFIS role): {} nodes (+{} hidden checker ops)",
        expanded.len(),
        expanded.len() - body.len()
    );
    for (name, count) in expanded.op_histogram() {
        println!("      {name:<8} x{count}");
    }

    let hw = flow.hardware(&body, SckStyle::Full, Goal::MinArea);
    println!(
        "[3] hardware path (CoCentric role): latency {}, fmax {:.2} MHz, {}",
        hw.latency_formula(),
        hw.fmax_mhz,
        hw.area
    );

    let sw = flow.software(&body, SckStyle::Full);
    println!(
        "[4] software path (g++ role): {} cycles/iteration, {} instructions, {} KB",
        sw.cycles_per_iteration,
        sw.instructions_per_iteration,
        sw.code_bytes / 1024
    );

    // Partition a small system: the FIR plus a control task.
    let n = 64.0; // taps
    let cpu_mhz = 50.0;
    let problem = PartitionProblem {
        tasks: vec![
            TaskEstimate {
                name: "fir".into(),
                hw_latency: (2.0 + f64::from(hw.cycles_per_iteration) * n) / hw.fmax_mhz,
                hw_area: hw.area_slices,
                sw_latency: (sw.cycles_per_iteration as f64 * n) / cpu_mhz,
            },
            TaskEstimate {
                name: "control".into(),
                hw_latency: 5.0,
                hw_area: 900.0,
                sw_latency: 8.0,
            },
        ],
        area_budget: 1000.0,
    };
    let (mapping, latency, area) = partition(&problem);
    println!("[5] partitioning under a 1000-slice budget:");
    for (task, m) in problem.tasks.iter().zip(&mapping) {
        println!(
            "      {:<8} -> {}",
            task.name,
            match m {
                Mapping::Hardware => "hardware",
                Mapping::Software => "software",
            }
        );
    }
    println!("      total latency {latency:.1} us, area used {area:.0} slices");

    // Operator-level validation: one scenario, both engines,
    // bit-identical tallies over exhaustive inputs.
    let width = args.width(4).or_usage_exit();
    let op_width = if quick { width.min(2) } else { width };
    let scenario = Scenario::new(Operator::Add, op_width).technique(Technique::Tech1);
    let spec = scenario
        .campaign()
        .fault_model(FaultModel::FaGate)
        .exec(ExecPolicy::new().threads(args.threads().or_usage_exit()));
    let functional = spec.clone().run().or_usage_exit();
    let gate = spec.backend(Backend::GateLevel).run().or_usage_exit();
    println!(
        "[6] operator validation (+, {op_width}-bit, Tech1): functional {:.2}% vs \
         gate-level {:.2}% — {}",
        functional.coverage() * 100.0,
        gate.coverage() * 100.0,
        if functional.same_results(&gate) {
            "bit-identical four-way tallies"
        } else {
            "MISMATCH"
        }
    );

    // System-level validation: the scheduled, bound FIR datapath as one
    // circuit, fault-graded per physical functional unit.
    let dp_width = if quick { width.min(2) } else { width.min(4) };
    let samples = args.samples(if quick { 256 } else { 2048 }).or_usage_exit();
    let report = DatapathScenario::new(DfgSource::Fir, dp_width)
        .technique(Technique::Tech1)
        .campaign()
        .input_space(InputSpace::Sampled {
            per_fault: samples,
            seed: args.seed().or_usage_exit(),
        })
        .exec(ExecPolicy::new().threads(args.threads().or_usage_exit()))
        .run()
        .or_usage_exit();
    let details = report.datapath.as_ref().expect("datapath section");
    println!(
        "[7] datapath validation (FIR, {dp_width}-bit, Tech1, {} vectors): \
         {} gates over {} cycles, {} faults, coverage {:.2}%, detection {:.2}%",
        samples,
        details.gates,
        details.schedule_length,
        report.fault_count(),
        report.coverage() * 100.0,
        report.detection_rate() * 100.0,
    );
    for fu in &details.per_fu {
        if fu.faults == 0 {
            println!(
                "      {:<6} {:<7} {} ops (no gates: memory port)",
                fu.name, fu.role, fu.ops
            );
            continue;
        }
        println!(
            "      {:<6} {:<7} {} ops x {} gates, {} faults: \
             [{} cs, {} cd, {} ed, {} eu] detected {}/{}",
            fu.name,
            fu.role,
            fu.ops,
            fu.instance_gates,
            fu.faults,
            fu.tally.correct_silent,
            fu.tally.correct_detected,
            fu.tally.error_detected,
            fu.tally.error_undetected,
            fu.detected,
            fu.faults,
        );
    }

    if let Some(path) = args.value::<String>("--report").or_usage_exit() {
        std::fs::write(&path, report.to_json()).expect("write report");
        println!("      wrote {path} ({})", scdp_campaign::REPORT_SCHEMA_V2);
    }

    // Cycle-accurate validation: the same datapath as one shared-FU
    // sequential machine — permanent faults for the coverage story,
    // one mid-schedule transient for the upset story, both with
    // per-cycle first-detection latencies.
    let seq_scenario = DatapathScenario::new(DfgSource::Fir, dp_width).technique(Technique::Tech1);
    let machine = seq_scenario.elaborate_seq();
    let total_cycles = machine.total_cycles;
    let seq_space = InputSpace::Sampled {
        per_fault: samples,
        seed: args.seed().or_usage_exit(),
    };
    let mut seq_reports = Vec::new();
    for duration in [
        FaultDuration::Permanent,
        FaultDuration::Transient {
            cycle: total_cycles / 2,
        },
    ] {
        let r = seq_scenario
            .clone()
            .seq_campaign()
            .duration(duration)
            .input_space(seq_space)
            .exec(ExecPolicy::new().threads(args.threads().or_usage_exit()))
            .run_on(&machine)
            .or_usage_exit();
        seq_reports.push((duration, r));
    }
    println!(
        "[8] sequential validation (FIR, {dp_width}-bit, Tech1, {} cycles/vector):",
        total_cycles
    );
    for (duration, r) in &seq_reports {
        let seq = r.sequential.as_ref().expect("sequential section");
        let latency = seq
            .mean_detection_latency()
            .map_or("-".to_string(), |l| format!("{l:.2} cycles"));
        println!(
            "      {:<12} coverage {:>6.2}%  detection {:>6.2}%  mean first-detect {latency}",
            scdp_campaign::duration_label(*duration),
            r.coverage() * 100.0,
            r.detection_rate() * 100.0,
        );
        print!("      latency hist:");
        for (c, n) in seq.first_detect_hist.iter().enumerate() {
            if *n > 0 {
                print!(" c{c}:{n}");
            }
        }
        println!();
    }
    if let Some(path) = args.value::<String>("--seq-report").or_usage_exit() {
        let (_, permanent) = &seq_reports[0];
        std::fs::write(&path, permanent.to_json()).expect("write seq report");
        println!("      wrote {path} ({})", scdp_campaign::REPORT_SCHEMA_V3);
    }
}
