//! The headline benchmark of `scdp-sim`: scalar `Netlist::eval_nets`
//! campaigns versus the bit-parallel engine, single-threaded and with
//! the parallel campaign driver, on the `gate_xval` workload (width-4
//! exhaustive so the scalar path finishes in reasonable time).
//!
//! Writes `BENCH_sim_engine.json`; the measured speedup ratios land in
//! its `metrics` array.
//!
//! Benchmarks measure the engine layers directly, below the unified
//! `scdp-campaign` surface, through the engine-room constructors; the
//! pruning section runs the product's reduction pipeline
//! (`scdp_campaign::reduce`).

use scdp_analyze::CollapsedUniverse;
use scdp_bench::{scalar_add_oracle, Bench};
use scdp_campaign::{reduce, DatapathScenario, DfgSource, ExecPolicy, FaultRecord, InputSpace};
use scdp_core::{Operator, Technique};
use scdp_netlist::gen::{self_checking, SelfCheckingSpec};
use scdp_netlist::StuckAtLine;
use scdp_obs::Recorder;
use scdp_sim::{correlated_coverage, par, Engine, EngineCampaign, InputPlan, Lanes};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let width = 4u32;
    let dp = self_checking(SelfCheckingSpec {
        op: Operator::Add,
        technique: Technique::Both,
        width,
    });
    let situations = (dp.local_sites().len() as u64) * 2 * (1u64 << (2 * width));

    let mut bench = Bench::new("sim_engine");
    let scalar = bench.sample_elements("scalar_eval_nets_w4", 3, situations, &mut || {
        black_box(scalar_add_oracle(&dp, width))
    });
    let packed = bench.sample_elements("bitparallel_1thread_w4", 10, situations, &mut || {
        black_box(correlated_coverage(&dp, InputPlan::Exhaustive, 1).tally)
    });
    // One stable id regardless of the machine's core count (a
    // thread-count-dependent id once produced `bitparallel_1threads_w4`,
    // colliding with the single-thread record on 1-core machines); the
    // actual thread count is recorded as a metric below. The floor of 4
    // exercises the work-stealing pool's multi-worker merge path even
    // on smaller machines (oversubscription is harmless: idle workers
    // steal nothing and park).
    let threads = par::default_threads().max(4);
    let parallel = bench.sample_elements("bitparallel_parallel_w4", 10, situations, &mut || {
        black_box(correlated_coverage(&dp, InputPlan::Exhaustive, threads).tally)
    });
    // Fault dropping on the same universe (detectability grading).
    let engine = Engine::new(&dp.netlist);
    let groups: Vec<_> = dp
        .local_sites()
        .iter()
        .flat_map(|s| [false, true].map(|v| dp.correlated_fault(*s, v)))
        .collect();
    bench.sample_elements("bitparallel_dropping_w4", 10, situations, &mut || {
        black_box(
            EngineCampaign::over(&engine, &groups)
                .drop_policy(scdp_sim::DropPolicy::OnDetect)
                .threads(1)
                .run()
                .simulated,
        )
    });

    // Fault-equivalence collapsing on the same universe: simulate only
    // class representatives and fan the verdicts back out. The wall
    // clock must win by the gated `collapse_ratio` floor (bench_check:
    // >= 1.3x) since the run cost is linear in the group count.
    let cu = CollapsedUniverse::build(&dp.netlist);
    let rep_groups = cu.collapse_groups(&groups).rep_groups;
    // Timed in one alternating loop so host drift cannot move the
    // ratio between the two medians.
    let medians = bench.sample_interleaved(
        &mut [
            ("campaign_uncollapsed_w4", &mut || {
                black_box(
                    EngineCampaign::over(&engine, &groups)
                        .threads(1)
                        .run()
                        .simulated,
                );
            }),
            ("campaign_collapsed_w4", &mut || {
                black_box(
                    EngineCampaign::over(&engine, &rep_groups)
                        .threads(1)
                        .run()
                        .simulated,
                );
            }),
        ],
        10,
        situations,
    );
    let (uncollapsed, collapsed) = (medians[0], medians[1]);
    let collapse_ratio = uncollapsed / collapsed;

    // A width-8 engine-only run — infeasible on the scalar path inside a
    // bench budget, routine for the engine. Single-thread vs pooled on
    // the same universe gives the pool's own scaling ratio
    // (`parallel_speedup_w8`); its >=3x-at-4-threads floor is gated by
    // `bench_check` only on machines with >=4 cores, since the ratio is
    // physically capped at 1x on fewer.
    let dp8 = self_checking(SelfCheckingSpec {
        op: Operator::Add,
        technique: Technique::Both,
        width: 8,
    });
    let situations8 = (dp8.local_sites().len() as u64) * 2 * (1u64 << 16);
    let single_w8 = bench.sample_elements("bitparallel_1thread_w8", 5, situations8, &mut || {
        black_box(correlated_coverage(&dp8, InputPlan::Exhaustive, 1).tally)
    });
    let parallel_w8 = bench.sample_elements("bitparallel_parallel_w8", 5, situations8, &mut || {
        black_box(correlated_coverage(&dp8, InputPlan::Exhaustive, threads).tally)
    });
    let parallel_speedup_w8 = single_w8 / parallel_w8;

    // Lane-width scaling on the same width-8 universe: the 64-vector
    // scalar path (one u64 limb) vs the widest `Words` path the engine
    // auto-selects. Results are bit-identical; only the throughput
    // moves.
    let engine8 = Engine::new(&dp8.netlist);
    let groups8: Vec<_> = dp8
        .local_sites()
        .iter()
        .flat_map(|s| [false, true].map(|v| dp8.correlated_fault(*s, v)))
        .collect();
    let lane1_w8 = bench.sample_elements("bitparallel_lanes1_w8", 5, situations8, &mut || {
        black_box(
            EngineCampaign::over(&engine8, &groups8)
                .lanes(Lanes::L1)
                .threads(1)
                .run()
                .simulated,
        )
    });
    let lane8_w8 = bench.sample_elements("bitparallel_lanes8_w8", 5, situations8, &mut || {
        black_box(
            EngineCampaign::over(&engine8, &groups8)
                .lanes(Lanes::L8)
                .threads(1)
                .run()
                .simulated,
        )
    });
    let lane_speedup = lane1_w8 / lane8_w8;

    // Deductive pruning on the width-8 FIR datapath's full stuck-at
    // line universe, through the product pipeline: untestability proofs
    // map groups onto one empty group, the fault-free machine, that the
    // engine grades in their place.
    // Campaign cost is linear in the simulated group count, so the wall
    // clock should follow `prune_ratio` (bench_check floor: >= 1.15x).
    // Both timed runs go through `reduce`, the pruned one with the
    // analysis *inside* the timed closure — the measured speedup is
    // end-to-end, deduction cost included.
    let fir = DatapathScenario::new(DfgSource::Fir, 8)
        .technique(Technique::Tech1)
        .elaborate();
    let fir_engine = Engine::new(&fir.netlist);
    let fir_groups: Vec<Vec<StuckAtLine>> =
        fir.netlist.fault_lines().iter().map(|&l| vec![l]).collect();
    let fir_plan = InputPlan::from_space(InputSpace::Sampled {
        per_fault: 64,
        seed: 0x51AE,
    });
    let fir_situations = fir_groups.len() as u64 * 64;
    let fir_run = |prune: bool| {
        reduce(
            &fir.netlist,
            &fir_groups,
            None,
            fir_plan,
            &ExecPolicy::new().threads(1).prune(prune),
            &fir_engine,
            |e, g| EngineCampaign::over(e, g),
        )
        .expect("valid universe")
    };
    let unpruned_fir =
        bench.sample_elements("campaign_unpruned_fir_w8", 5, fir_situations, &mut || {
            black_box(fir_run(false).per_fault)
        });
    // Bit-identity first, then the timing samples. The reference run
    // also reads the engine's work counters: gate evaluations per
    // simulated situation is an exact count (the fanout-cone passes
    // plus nothing else), so `bench_check` can hold it under a tight
    // ceiling that host noise cannot trip.
    let fir_recorder = Arc::new(Recorder::new());
    let reference: Vec<FaultRecord> = EngineCampaign::over(&fir_engine, &fir_groups)
        .plan(fir_plan)
        .threads(1)
        .recorder(Arc::clone(&fir_recorder))
        .run()
        .per_fault
        .iter()
        .map(FaultRecord::from)
        .collect();
    let fir_telemetry = fir_recorder.snapshot();
    let gate_evals_per_situation = fir_telemetry.counter("engine.gate_evals").unwrap_or(0) as f64
        / fir_telemetry
            .counter("engine.situations")
            .unwrap_or(1)
            .max(1) as f64;
    eprintln!(
        "w8 FIR cone passes: {gate_evals_per_situation:.3} gate evals per situation \
         ({} gates, full pass {:.3})",
        fir_engine.net_count(),
        fir_engine.net_count() as f64 / 64.0
    );
    bench.metric("gate_evals_per_situation", gate_evals_per_situation);
    let pruned = fir_run(true);
    assert_eq!(
        pruned.per_fault, reference,
        "acceptance: pruned outcomes must be bit-identical to simulation"
    );
    let deduce = pruned.deduce.expect("pruned runs report deduction");
    let pruned_fir =
        bench.sample_elements("campaign_pruned_fir_w8", 5, fir_situations, &mut || {
            black_box(fir_run(true).per_fault)
        });
    let prune_ratio = fir_groups.len() as f64 / deduce.simulated as f64;
    let prune_speedup = unpruned_fir / pruned_fir;
    eprintln!(
        "prune: {} lines -> {} simulated ({} untestable); \
         ratio {prune_ratio:.3}x, end-to-end {prune_speedup:.2}x",
        fir_groups.len(),
        deduce.simulated,
        deduce.untestable
    );
    bench.metric("prune_ratio", prune_ratio);
    bench.metric("prune_campaign_speedup_w8", prune_speedup);
    bench.metric("deduce.untestable", deduce.untestable as f64);
    bench.metric("deduce.simulated", deduce.simulated as f64);

    // Host-rate metrics; both demote to cross-machine warnings in
    // `bench_check --cross-machine`. `faults_per_sec` times one
    // parallel campaign over the width-4 universe. The pool
    // utilisation comes from one instrumented run of the width-8
    // parallel campaign behind `parallel_speedup_w8`: ~10 ms of work,
    // so thread spawn and join stay a small share of the wall clock,
    // where the ~0.1 ms width-4 campaign would measure mostly those.
    // `engine.busy_ns` sums the workers' in-chunk time, so
    // busy ÷ (threads × wall) is the utilisation.
    let start = Instant::now();
    let summary = EngineCampaign::over(&engine, &groups)
        .threads(threads)
        .run();
    black_box(summary.simulated);
    let faults_per_sec = groups.len() as f64 * 1e9 / start.elapsed().as_nanos() as f64;
    let recorder = Arc::new(Recorder::new());
    let start = Instant::now();
    let summary = EngineCampaign::over(&engine8, &groups8)
        .plan(InputPlan::Exhaustive)
        .threads(threads)
        .recorder(Arc::clone(&recorder))
        .run();
    black_box(summary.simulated);
    let wall_ns = start.elapsed().as_nanos() as f64;
    let busy_ns = recorder.snapshot().counter("engine.busy_ns").unwrap_or(0) as f64;
    let busy_fraction = busy_ns / (threads as f64 * wall_ns);

    let speedup_1t = scalar / packed;
    let speedup_mt = scalar / parallel;
    eprintln!("speedup vs scalar: {speedup_1t:.1}x single-thread, {speedup_mt:.1}x parallel");
    eprintln!(
        "parallel runs: w8 busy fraction {busy_fraction:.2}, w4 {faults_per_sec:.0} faults/s"
    );
    eprintln!(
        "pool: {threads} workers, {parallel_speedup_w8:.2}x at w8; \
         lanes 1->8: {lane_speedup:.2}x"
    );
    bench.metric("speedup_1thread_vs_scalar", speedup_1t);
    bench.metric("speedup_parallel_vs_scalar", speedup_mt);
    bench.metric("parallel_threads", threads as f64);
    bench.metric("simd_lanes", Lanes::Auto.limbs() as f64);
    bench.metric("parallel_speedup_w8", parallel_speedup_w8);
    bench.metric("lane_speedup_w8", lane_speedup);
    bench.metric("parallel_busy_fraction", busy_fraction);
    bench.metric("faults_per_sec", faults_per_sec);
    eprintln!(
        "collapse: {} -> {} groups, {collapse_ratio:.2}x campaign speedup",
        groups.len(),
        rep_groups.len()
    );
    bench.metric("collapse_ratio", collapse_ratio);
    bench.finish();
    assert!(
        speedup_1t >= 20.0,
        "acceptance: bit-parallel engine must be >=20x over scalar at width 4+ \
         (measured {speedup_1t:.1}x)"
    );
    assert!(
        prune_ratio >= 1.15,
        "acceptance: deductive pruning must settle enough of the w8 FIR line \
         universe (measured {prune_ratio:.2}x, floor 1.15x)"
    );
}
