//! The sequential-engine benchmark: the cycle-accurate shared-FU FIR
//! machine on the packed multi-cycle engine vs the scalar
//! `Netlist::eval_seq_nets` path, single-threaded and parallel.
//!
//! Writes `BENCH_seq_engine.json`. Two kinds of metrics land in its
//! `metrics` array:
//!
//! * `seq_speedup_1thread_vs_scalar` — machine-relative ratio, gated by
//!   `bench_check`'s hard floor;
//! * `seq_mcycles_per_sec` — absolute throughput (million gate-netlist
//!   cycles simulated per second), informational across machines
//!   (`*_per_sec` metrics demote to warnings in `--cross-machine`
//!   mode);
//! * `seq_gate_evals_per_situation` — the exact work count
//!   (`seq.gate_evals / seq.situations`), gated by `bench_check`'s
//!   hard ceiling.

use scdp_bench::Bench;
use scdp_campaign::{reduce, DatapathScenario, DfgSource, ExecPolicy};
use scdp_core::Technique;
use scdp_netlist::{FaultDuration, SeqStuckAt};
use scdp_obs::Recorder;
use scdp_sim::{par, InputPlan, SeqCampaign, SeqEngine};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let width = 4u32;
    let scenario = DatapathScenario::new(DfgSource::Fir, width).technique(Technique::Tech1);
    let dp = scenario.elaborate_seq();
    let (groups, _) = dp.fault_universe();
    let cycles = dp.total_cycles;
    let vectors = 512u64;
    let plan = InputPlan::Sampled {
        vectors,
        seed: 0xBEEF,
    };
    let situations = groups.len() as u64 * vectors;
    // Netlist-cycles simulated per campaign: every situation runs the
    // whole machine for `cycles` clock cycles.
    let netlist_cycles = situations * u64::from(cycles);

    let engine = SeqEngine::new(&dp.netlist);

    let mut bench = Bench::new("seq_engine");

    // Scalar reference on a slice of the universe (the full universe
    // would blow the bench budget), normalised per situation below.
    let scalar_faults = 8usize.min(groups.len());
    let scalar_vectors = 32u64;
    let input_bits = dp.netlist.input_bits();
    let scalar_work = scalar_faults as u64 * scalar_vectors * u64::from(cycles);
    let scalar_ns = bench.sample_elements("scalar_eval_seq_w4", 3, scalar_work, &mut || {
        let mut acc = 0usize;
        for lines in groups.iter().take(scalar_faults) {
            let faults: Vec<SeqStuckAt> = lines
                .iter()
                .map(|&line| SeqStuckAt::permanent(line))
                .collect();
            let mut seed = 0x5EED_u64;
            for _ in 0..scalar_vectors {
                let bits: Vec<bool> = (0..input_bits)
                    .map(|_| {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        seed >> 63 != 0
                    })
                    .collect();
                let trace = dp.netlist.eval_seq_nets(&bits, cycles, &faults);
                acc += usize::from(trace.last().unwrap()[0]);
            }
        }
        black_box(acc)
    });

    let packed_ns = bench.sample_elements("seq_1thread_w4", 5, situations, &mut || {
        black_box(
            SeqCampaign::new(&engine, &groups, cycles, FaultDuration::Permanent)
                .plan(plan)
                .threads(1)
                .run()
                .tally,
        )
    });
    // Floor of 4 workers: exercises the work-stealing pool's
    // multi-worker merge even on smaller machines (idle workers steal
    // nothing and park); the actual count lands in `parallel_threads`.
    let threads = par::default_threads().max(4);
    bench.sample_elements("seq_parallel_w4", 5, situations, &mut || {
        black_box(
            SeqCampaign::new(&engine, &groups, cycles, FaultDuration::Permanent)
                .plan(plan)
                .threads(threads)
                .run()
                .tally,
        )
    });
    bench.sample_elements("seq_dropping_w4", 5, situations, &mut || {
        black_box(
            SeqCampaign::new(&engine, &groups, cycles, FaultDuration::Permanent)
                .plan(plan)
                .drop_policy(scdp_sim::DropPolicy::OnDetect)
                .threads(1)
                .run()
                .simulated,
        )
    });

    // Deductive pruning on the same universe, through the product
    // pipeline (analysis inside the timed closure). The ratio is
    // informational here — the gated floor lives on the combinational
    // bench.
    let pruned_run = || {
        reduce(
            &dp.netlist,
            &groups,
            None,
            plan,
            &ExecPolicy::new().threads(1).prune(true),
            &engine,
            |e, g| SeqCampaign::new(e, g, cycles, FaultDuration::Permanent),
        )
        .expect("valid universe")
    };
    let deduce = pruned_run().deduce.expect("pruned runs report deduction");
    let (seq_untestable, seq_simulated_groups) = (deduce.untestable, deduce.simulated);
    let seq_prune_ratio = groups.len() as f64 / seq_simulated_groups as f64;
    bench.sample_elements("seq_pruned_w4", 5, situations, &mut || {
        black_box(pruned_run().tally)
    });
    eprintln!(
        "prune: {} groups -> {seq_simulated_groups} simulated \
         ({seq_untestable} untestable); ratio {seq_prune_ratio:.2}x",
        groups.len()
    );

    // Per-situation-cycle rates: scalar measured on its slice, packed
    // on the full campaign.
    let scalar_ns_per_cycle = scalar_ns / scalar_work as f64;
    let packed_ns_per_cycle = packed_ns / netlist_cycles as f64;
    let speedup = scalar_ns_per_cycle / packed_ns_per_cycle;
    let mcycles_per_sec = 1e3 / packed_ns_per_cycle; // 1e9 ns/s ÷ ns/cycle ÷ 1e6
    eprintln!(
        "sequential engine: {speedup:.1}x over scalar, {mcycles_per_sec:.2} Mcycles/s \
         single-thread"
    );
    // Telemetry-derived metrics: one instrumented parallel campaign.
    // `seq.busy_ns` sums the workers' in-chunk time, so busy ÷
    // (threads × wall) is the parallel utilisation.
    let recorder = Arc::new(Recorder::new());
    let start = Instant::now();
    let summary = SeqCampaign::new(&engine, &groups, cycles, FaultDuration::Permanent)
        .plan(plan)
        .threads(threads)
        .recorder(Arc::clone(&recorder))
        .run();
    black_box(summary.simulated);
    let wall_ns = start.elapsed().as_nanos() as f64;
    let telemetry = recorder.snapshot();
    let busy_ns = telemetry.counter("seq.busy_ns").unwrap_or(0) as f64;
    // Gates × cycles per tallied limb over situations: an exact work
    // count, so `bench_check` holds it under a ceiling host noise
    // cannot trip.
    let seq_gate_evals_per_situation = telemetry.counter("seq.gate_evals").unwrap_or(0) as f64
        / telemetry.counter("seq.situations").unwrap_or(1).max(1) as f64;
    let busy_fraction = busy_ns / (threads as f64 * wall_ns);
    let faults_per_sec = groups.len() as f64 * 1e9 / wall_ns;
    eprintln!("parallel run: busy fraction {busy_fraction:.2}, {faults_per_sec:.0} faults/s");

    bench.metric("seq_speedup_1thread_vs_scalar", speedup);
    bench.metric("seq_mcycles_per_sec", mcycles_per_sec);
    bench.metric("seq_parallel_busy_fraction", busy_fraction);
    bench.metric("seq_faults_per_sec", faults_per_sec);
    bench.metric("seq_gate_evals_per_situation", seq_gate_evals_per_situation);
    bench.metric("parallel_threads", threads as f64);
    bench.metric("simd_lanes", scdp_sim::Lanes::Auto.limbs() as f64);
    bench.metric("seq_prune_ratio", seq_prune_ratio);
    bench.metric("deduce.untestable", seq_untestable as f64);
    bench.metric("deduce.simulated", seq_simulated_groups as f64);
    bench.finish();
    assert!(
        speedup >= 8.0,
        "acceptance: sequential packed engine must be >=8x over scalar \
         (measured {speedup:.1}x)"
    );
}
