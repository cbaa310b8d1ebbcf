//! `ExecPolicy::prune` is an engine-side optimisation, never a result
//! change: every test here pins a pruned campaign byte-for-byte against
//! its unpruned twin — per-fault rows, per-FU tallies, latency
//! histograms, shard sections and all. The only permitted delta is the
//! presence-driven `deduce` section, which records how the same rows
//! were obtained.

use scdp_campaign::{
    Backend, CampaignError, CampaignReport, DatapathScenario, DfgSource, DropPolicy, ExecPolicy,
    FaultDuration, FaultModel, InputSpace, Scenario,
};
use scdp_core::{Operator, Technique};
use scdp_hls::testgen::{random_dfg, DfgGenConfig};

/// Byte-comparable form: wall clock zeroed and the provenance-only
/// `deduce` section stripped; everything else verbatim. Telemetry stays
/// off in these runs, so the JSON covers every result field.
fn canonical(mut report: CampaignReport) -> String {
    report.elapsed_ms = 0;
    report.deduce = None;
    assert!(report.telemetry.is_none(), "comparisons run telemetry-free");
    report.to_json()
}

/// The deduce section must be present, internally consistent, and its
/// rows must index the per-fault table.
fn check_deduce(report: &CampaignReport) -> (u64, u64) {
    let d = report.deduce.as_ref().expect("pruned runs carry deduce");
    assert_eq!(
        d.rows.len() as u64,
        d.untestable,
        "every settled engine group must fan out to at least itself"
    );
    for &row in &d.rows {
        assert!(row < report.fault_count(), "row {row} out of range");
    }
    (d.untestable, d.simulated)
}

#[test]
fn gate_backend_prune_is_bit_identical() {
    for (op, tech, model, drop) in [
        (
            Operator::Add,
            Technique::Tech1,
            FaultModel::Structural,
            DropPolicy::Never,
        ),
        (
            Operator::Add,
            Technique::Both,
            FaultModel::FaGate,
            DropPolicy::OnDetect,
        ),
        (
            Operator::Sub,
            Technique::Tech2,
            FaultModel::Structural,
            DropPolicy::OnEscape,
        ),
    ] {
        let spec = Scenario::new(op, 3)
            .technique(tech)
            .campaign()
            .backend(Backend::GateLevel)
            .fault_model(model)
            .exec(ExecPolicy::new().threads(2).drop_policy(drop));
        let plain = spec.clone().run().expect("unpruned");
        let pruned = spec
            .exec(ExecPolicy::new().threads(2).drop_policy(drop).prune(true))
            .run()
            .expect("pruned");
        check_deduce(&pruned);
        assert_eq!(canonical(plain), canonical(pruned), "{op:?}/{tech:?}");
    }
}

#[test]
fn functional_backend_rejects_prune() {
    let err = Scenario::new(Operator::Add, 3)
        .campaign()
        .exec(ExecPolicy::new().prune(true))
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        CampaignError::UnsupportedPrune {
            backend: Backend::Functional
        }
    ));
}

/// The acceptance pin: the golden-pinned width-4 Tech1 configurations
/// of all three spec shapes — operator gate-level, unrolled datapath,
/// cycle-accurate sequential — produce byte-identical reports with
/// pruning on, and the datapath shapes actually save work (the
/// time-multiplexed muxes carry zero-tied legs the constant lattice
/// kills).
#[test]
fn golden_width4_tech1_campaigns_prune_bit_identical() {
    let op = Scenario::new(Operator::Add, 4)
        .technique(Technique::Tech1)
        .campaign()
        .backend(Backend::GateLevel)
        .fault_model(FaultModel::FaGate)
        .exec(ExecPolicy::new().threads(2));
    assert_eq!(
        canonical(op.clone().run().expect("op")),
        canonical(
            op.exec(ExecPolicy::new().threads(2).prune(true))
                .run()
                .expect("op pruned")
        )
    );

    let space = InputSpace::Sampled {
        per_fault: 128,
        seed: 0xF1,
    };
    let dp = DatapathScenario::new(DfgSource::Fir, 4)
        .technique(Technique::Tech1)
        .campaign()
        .input_space(space)
        .exec(ExecPolicy::new().threads(2));
    let plain = dp.clone().run().expect("dp");
    let pruned = dp
        .exec(ExecPolicy::new().threads(2).prune(true))
        .run()
        .expect("dp pruned");
    let (untestable, simulated) = check_deduce(&pruned);
    assert!(
        untestable > 0,
        "the FIR datapath universe must yield deductions \
         ({untestable} untestable, {simulated} simulated)"
    );
    assert_eq!(canonical(plain), canonical(pruned));

    let seq = DatapathScenario::new(DfgSource::Fir, 4)
        .technique(Technique::Tech1)
        .seq_campaign()
        .input_space(space)
        .exec(ExecPolicy::new().threads(2));
    let plain = seq.clone().run().expect("seq");
    let pruned = seq
        .exec(ExecPolicy::new().threads(2).prune(true))
        .run()
        .expect("seq pruned");
    check_deduce(&pruned);
    assert_eq!(plain.sequential, pruned.sequential);
    assert_eq!(canonical(plain), canonical(pruned));
}

#[test]
fn sequential_prune_preserves_latency_histograms_for_transients() {
    let space = InputSpace::Sampled {
        per_fault: 64,
        seed: 0x7A,
    };
    for duration in [
        FaultDuration::Permanent,
        FaultDuration::Transient { cycle: 1 },
    ] {
        let spec = DatapathScenario::new(DfgSource::Dot, 2)
            .technique(Technique::Both)
            .seq_campaign()
            .duration(duration)
            .input_space(space)
            .exec(ExecPolicy::new().threads(2));
        let plain = spec.clone().run().expect("unpruned");
        let pruned = spec
            .exec(ExecPolicy::new().threads(2).prune(true))
            .run()
            .expect("pruned");
        assert_eq!(canonical(plain), canonical(pruned), "{duration:?}");
    }
}

/// Satellite: seeded random DFGs through the synthesis front half, both
/// datapath shapes, pruned vs unpruned byte-identical.
#[test]
fn random_custom_dfg_campaigns_prune_bit_identical() {
    let cfg = DfgGenConfig {
        max_ops: 4,
        allow_div: false,
        allow_mem: false,
    };
    let space = InputSpace::Sampled {
        per_fault: 32,
        seed: 0xC0,
    };
    for seed in 0..4u64 {
        let dfg = random_dfg(0x5CD9_1000 + seed, &cfg);
        let dp = DatapathScenario::new(DfgSource::Custom(dfg.clone()), 2)
            .technique(Technique::Tech1)
            .campaign()
            .input_space(space)
            .exec(ExecPolicy::new().threads(2));
        assert_eq!(
            canonical(dp.clone().run().expect("dp")),
            canonical(
                dp.exec(ExecPolicy::new().threads(2).prune(true))
                    .run()
                    .expect("dp pruned")
            ),
            "datapath seed {seed}"
        );
        let seq = DatapathScenario::new(DfgSource::Custom(dfg), 2)
            .technique(Technique::Tech1)
            .seq_campaign()
            .input_space(space)
            .exec(ExecPolicy::new().threads(2));
        assert_eq!(
            canonical(seq.clone().run().expect("seq")),
            canonical(
                seq.exec(ExecPolicy::new().threads(2).prune(true))
                    .run()
                    .expect("seq pruned")
            ),
            "sequential seed {seed}"
        );
    }
}

/// Prune-then-shard == shard-then-prune: shard geometry is computed on
/// the original universe before any deduction, so pruned shards match
/// their unpruned twins byte for byte (fingerprints interchange) and
/// merge back into the unsharded report with summed deduce counts.
#[test]
fn prune_composes_with_sharding() {
    let spec = DatapathScenario::new(DfgSource::Fir, 3)
        .technique(Technique::Tech1)
        .campaign()
        .input_space(InputSpace::Sampled {
            per_fault: 64,
            seed: 0x5A,
        })
        .exec(ExecPolicy::new().threads(2));
    let full = spec.clone().run().expect("unsharded");
    let mut shards = Vec::new();
    let mut untestable_sum = 0u64;
    for index in 0..3 {
        let mut sharded = spec.clone().shard(index, 3);
        sharded.exec.prune = true;
        let pruned = sharded.run().expect("pruned shard");
        untestable_sum += check_deduce(&pruned).0;
        let plain = spec.clone().shard(index, 3).run().expect("plain shard");
        assert_eq!(canonical(plain), canonical(pruned.clone()), "shard {index}");
        shards.push(pruned);
    }
    let merged = CampaignReport::merge(&shards).expect("merge");
    let d = merged.deduce.as_ref().expect("merged deduce");
    assert_eq!(d.untestable, untestable_sum, "counts sum across shards");
    for w in d.rows.windows(2) {
        assert!(w[0] < w[1], "merged rows stay strictly increasing");
    }
    assert_eq!(canonical(full), canonical(merged));
}

/// Pruning composes with equivalence collapsing: deductions then apply
/// to the representative groups, and the fan-out marks every member of
/// a deduced class.
#[test]
fn prune_composes_with_collapse() {
    let spec = DatapathScenario::new(DfgSource::Fir, 3)
        .technique(Technique::Tech1)
        .campaign()
        .input_space(InputSpace::Sampled {
            per_fault: 64,
            seed: 0xCC,
        })
        .exec(ExecPolicy::new().threads(2));
    let plain = spec.clone().run().expect("plain");
    let both = spec
        .exec(ExecPolicy::new().threads(2).collapse(true).prune(true))
        .run()
        .expect("collapsed+pruned");
    let d = both.deduce.as_ref().expect("deduce");
    assert!(
        d.rows.len() as u64 >= d.untestable,
        "fan-out may only widen the deduced row set"
    );
    for &row in &d.rows {
        assert!(row < both.fault_count());
    }
    assert_eq!(canonical(plain), canonical(both));
}

#[test]
fn prune_telemetry_counters_are_recorded() {
    let report = DatapathScenario::new(DfgSource::Fir, 3)
        .technique(Technique::Tech1)
        .campaign()
        .input_space(InputSpace::Sampled {
            per_fault: 32,
            seed: 0x7E,
        })
        .exec(ExecPolicy::new().threads(2).prune(true).telemetry(true))
        .run()
        .expect("runs");
    let tel = report.telemetry.as_ref().expect("telemetry section");
    let untestable = tel.counter("deduce.untestable").expect("untestable");
    let simulated = tel.counter("deduce.simulated").expect("simulated");
    let d = report.deduce.as_ref().expect("deduce section");
    assert_eq!(
        (untestable, simulated),
        (d.untestable, d.simulated),
        "telemetry counters mirror the report section"
    );
    assert_eq!(
        untestable + simulated,
        report.fault_count(),
        "unsharded, uncollapsed: engine units are the fault universe"
    );
    assert!(untestable > 0, "the FIR datapath must deduce");
}

/// The analyses behind `scdp analyze` on the w8 FIR datapath with both
/// techniques, pinned: the reader table, output roles and deduce
/// scratch they share must not move a single count.
#[test]
fn w8_fir_both_analysis_counts_are_pinned() {
    use scdp_analyze::{CollapsedUniverse, PrunedUniverse, UntestableReason, Verdict};

    let netlist = DatapathScenario::new(DfgSource::Fir, 8)
        .technique(Technique::Both)
        .elaborate()
        .netlist;
    let lines = netlist.fault_lines();
    let groups: Vec<Vec<_>> = lines.iter().map(|&l| vec![l]).collect();
    let pu = PrunedUniverse::build(&netlist, &groups);
    let count = |reason| {
        pu.verdicts()
            .iter()
            .filter(|&&v| v == Verdict::ProvenUntestable(reason))
            .count()
    };
    assert_eq!(lines.len(), 40_496);
    assert_eq!(CollapsedUniverse::build(&netlist).classes(), 9_602);
    assert_eq!(pu.untestable_count(), 24_418);
    assert_eq!(count(UntestableReason::Redundant), 14_403);
    assert_eq!(count(UntestableReason::Blocked), 3_978);
    assert_eq!(count(UntestableReason::Unobservable), 6_037);
    assert_eq!(lines.len() - pu.untestable_count(), 16_078);
}

/// Pruning maps every untestable row onto one empty group, so a pruned
/// run's engine counters count only what the engine graded: the
/// testable groups plus that empty group when any row maps to it —
/// never one entry per untestable row.
#[test]
fn pruned_telemetry_counts_only_graded_groups() {
    const SAMPLES: u64 = 32;
    let space = InputSpace::Sampled {
        per_fault: SAMPLES,
        seed: 0x7E,
    };
    let run = |seq: bool, collapse: bool, shard: Option<u32>| {
        let exec = ExecPolicy::new()
            .threads(2)
            .collapse(collapse)
            .prune(true)
            .telemetry(true);
        let scenario = DatapathScenario::new(DfgSource::Fir, 2).technique(Technique::Tech1);
        let report = match (seq, shard) {
            (false, None) => scenario.campaign().input_space(space).exec(exec).run(),
            (false, Some(i)) => scenario
                .campaign()
                .input_space(space)
                .exec(exec)
                .shard(i, 64)
                .run(),
            (true, None) => scenario.seq_campaign().input_space(space).exec(exec).run(),
            (true, Some(i)) => scenario
                .seq_campaign()
                .input_space(space)
                .exec(exec)
                .shard(i, 64)
                .run(),
        };
        let report = report.expect("pruned run");
        let d = report.deduce.clone().expect("deduce section");
        let tel = report.telemetry.as_ref().expect("telemetry section");
        let prefix = if seq { "seq" } else { "engine" };
        let faults = tel.counter(&format!("{prefix}.faults")).expect("faults");
        let situations = tel.counter(&format!("{prefix}.situations"));
        assert_eq!(situations, Some(faults * SAMPLES), "{prefix} {collapse}");
        (d, faults)
    };
    for seq in [false, true] {
        for collapse in [false, true] {
            let (d, faults) = run(seq, collapse, None);
            assert!(d.untestable > 0, "seq {seq}, collapse {collapse}");
            assert_eq!(faults, d.simulated + 1, "seq {seq}, collapse {collapse}");
        }
        // Shard 45 of 64 holds no untestable row: no empty group.
        let (d, faults) = run(seq, false, Some(45));
        assert_eq!(d.untestable, 0, "seq {seq}");
        assert_eq!(faults, d.simulated, "seq {seq}");
        // Shard 49 of 64 holds only untestable rows: the empty group is
        // all the engine grades.
        let (d, faults) = run(seq, false, Some(49));
        assert_eq!((d.simulated, d.untestable > 0), (0, true), "seq {seq}");
        assert_eq!(faults, 1, "seq {seq}");
    }
}
