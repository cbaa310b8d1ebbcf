//! `ExecPolicy::collapse` is an engine-side optimisation, never a result
//! change: every test here pins a collapsed campaign byte-for-byte
//! against its uncollapsed twin — per-fault rows, per-FU tallies,
//! latency histograms, shard sections and all.

use scdp_analyze::CollapsedUniverse;
use scdp_campaign::{
    Backend, CampaignError, CampaignJob, CampaignReport, CampaignRunner, DatapathScenario,
    DfgSource, ExecPolicy, FaultDuration, FaultModel, InputSpace, Scenario,
};
use scdp_core::{Operator, Technique};
use scdp_hls::testgen::{random_dfg, DfgGenConfig};

/// Byte-comparable form: wall clock zeroed, everything else verbatim.
/// Telemetry stays off in these runs, so the JSON covers every result
/// field of the report.
fn canonical(mut report: CampaignReport) -> String {
    report.elapsed_ms = 0;
    assert!(report.telemetry.is_none(), "comparisons run telemetry-free");
    report.to_json()
}

#[test]
fn gate_backend_collapse_is_bit_identical() {
    for (op, tech, model) in [
        (Operator::Add, Technique::Tech1, FaultModel::Structural),
        (Operator::Add, Technique::Both, FaultModel::FaGate),
        (Operator::Sub, Technique::Tech2, FaultModel::Structural),
    ] {
        let spec = Scenario::new(op, 3)
            .technique(tech)
            .campaign()
            .backend(Backend::GateLevel)
            .fault_model(model)
            .exec(ExecPolicy::new().threads(2));
        let plain = spec.clone().run().expect("uncollapsed");
        let collapsed = spec
            .exec(ExecPolicy::new().threads(2).collapse(true))
            .run()
            .expect("collapsed");
        assert_eq!(canonical(plain), canonical(collapsed), "{op:?}/{tech:?}");
    }
}

#[test]
fn functional_backend_rejects_collapse() {
    let err = Scenario::new(Operator::Add, 3)
        .campaign()
        .exec(ExecPolicy::new().collapse(true))
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        CampaignError::UnsupportedCollapse {
            backend: Backend::Functional
        }
    ));
}

/// The acceptance pin: the golden-pinned width-4 Tech1 configurations
/// of all three spec shapes — operator gate-level, unrolled datapath,
/// cycle-accurate sequential — produce byte-identical reports with
/// collapsing on.
#[test]
fn golden_width4_tech1_campaigns_collapse_bit_identical() {
    // Operator shape, the golden add_tech1_w4 configuration on the
    // gate-level backend (the shape that supports collapsing).
    let op = Scenario::new(Operator::Add, 4)
        .technique(Technique::Tech1)
        .campaign()
        .backend(Backend::GateLevel)
        .fault_model(FaultModel::FaGate)
        .exec(ExecPolicy::new().threads(2));
    assert_eq!(
        canonical(op.clone().run().expect("op")),
        canonical(
            op.exec(ExecPolicy::new().threads(2).collapse(true))
                .run()
                .expect("op collapsed")
        )
    );

    // Unrolled FIR datapath.
    let space = InputSpace::Sampled {
        per_fault: 128,
        seed: 0xF1,
    };
    let dp = DatapathScenario::new(DfgSource::Fir, 4)
        .technique(Technique::Tech1)
        .campaign()
        .input_space(space)
        .exec(ExecPolicy::new().threads(2));
    assert_eq!(
        canonical(dp.clone().run().expect("dp")),
        canonical(
            dp.exec(ExecPolicy::new().threads(2).collapse(true))
                .run()
                .expect("dp collapsed")
        )
    );

    // Cycle-accurate sequential FIR machine.
    let seq = DatapathScenario::new(DfgSource::Fir, 4)
        .technique(Technique::Tech1)
        .seq_campaign()
        .input_space(space)
        .exec(ExecPolicy::new().threads(2));
    let plain = seq.clone().run().expect("seq");
    let collapsed = seq
        .exec(ExecPolicy::new().threads(2).collapse(true))
        .run()
        .expect("seq collapsed");
    assert_eq!(plain.sequential, collapsed.sequential);
    assert_eq!(canonical(plain), canonical(collapsed));
}

#[test]
fn sequential_collapse_preserves_latency_histograms_for_transients() {
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
        let plain = spec.clone().run().expect("uncollapsed");
        let collapsed = spec
            .exec(ExecPolicy::new().threads(2).collapse(true))
            .run()
            .expect("collapsed");
        assert_eq!(canonical(plain), canonical(collapsed), "{duration:?}");
    }
}

/// Satellite: seeded random DFGs through the synthesis front half, both
/// datapath shapes, collapsed vs uncollapsed byte-identical.
#[test]
fn random_custom_dfg_campaigns_collapse_bit_identical() {
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
        let dfg = random_dfg(0x5CD9_0000 + seed, &cfg);
        let dp = DatapathScenario::new(DfgSource::Custom(dfg.clone()), 2)
            .technique(Technique::Tech1)
            .campaign()
            .input_space(space)
            .exec(ExecPolicy::new().threads(2));
        assert_eq!(
            canonical(dp.clone().run().expect("dp")),
            canonical(
                dp.exec(ExecPolicy::new().threads(2).collapse(true))
                    .run()
                    .expect("dp collapsed")
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
                seq.exec(ExecPolicy::new().threads(2).collapse(true))
                    .run()
                    .expect("seq collapsed")
            ),
            "sequential seed {seed}"
        );
    }
}

/// Collapse-then-shard == shard-then-collapse: collapsed shards merge
/// into the uncollapsed unsharded report, and the shard sections
/// themselves match their uncollapsed twins byte for byte (the
/// fingerprint excludes collapsing, so checkpoints interchange).
#[test]
fn collapse_composes_with_sharding() {
    let spec = Scenario::new(Operator::Add, 3)
        .technique(Technique::Tech1)
        .campaign()
        .backend(Backend::GateLevel)
        .exec(ExecPolicy::new().threads(2));
    let full = spec.clone().run().expect("unsharded");
    let mut shards = Vec::new();
    for index in 0..3 {
        let mut sharded = spec.clone().shard(index, 3);
        sharded.exec.collapse = true;
        let collapsed = sharded.run().expect("collapsed shard");
        let plain = spec.clone().shard(index, 3).run().expect("plain shard");
        assert_eq!(
            canonical(plain),
            canonical(collapsed.clone()),
            "shard {index}"
        );
        shards.push(collapsed);
    }
    let merged = CampaignReport::merge(&shards).expect("merge");
    assert_eq!(canonical(full), canonical(merged));
}

/// The runner passthrough: an in-memory sharded collapsed job merges
/// to the same report as the unsharded uncollapsed run — for the
/// sequential shape too, where the latency histogram must survive the
/// shard fan-out.
#[test]
fn runner_collapse_passthrough_reaches_every_shape() {
    let exec = ExecPolicy::new().threads(2);
    let op = |exec: ExecPolicy| {
        CampaignJob::Operator(
            Scenario::new(Operator::Add, 2)
                .campaign()
                .backend(Backend::GateLevel)
                .exec(exec),
        )
    };
    let merged = CampaignRunner::new(op(exec.collapse(true)), 3)
        .run()
        .expect("runs")
        .report
        .expect("complete");
    assert_eq!(canonical(op(exec).run().expect("full")), canonical(merged));

    let seq = |exec: ExecPolicy| {
        CampaignJob::Sequential(
            DatapathScenario::new(DfgSource::Dot, 2)
                .technique(Technique::Tech1)
                .seq_campaign()
                .input_space(InputSpace::Sampled {
                    per_fault: 64,
                    seed: 0x5E9,
                })
                .exec(exec),
        )
    };
    let merged = CampaignRunner::new(seq(exec.collapse(true)), 2)
        .run()
        .expect("runs")
        .report
        .expect("complete");
    assert_eq!(canonical(seq(exec).run().expect("full")), canonical(merged));
}

/// Acceptance floor: the golden width-4 ripple-carry adder universe
/// collapses to at most 70 % of its stuck-at lines. Wider adders
/// approach the ~0.71 asymptote of the per-full-adder structure (the
/// constant carry-in only helps at bit 0), so they get a looser bound.
#[test]
fn rca_universe_collapses_below_seventy_percent() {
    let cu = CollapsedUniverse::build(&scdp_netlist::gen::rca(4));
    let ratio = cu.ratio();
    assert!(
        ratio <= 0.7,
        "rca(4): {} / {} = {ratio:.3} > 0.7",
        cu.sites_after(),
        cu.sites_before()
    );
    for width in [8u32, 16] {
        let cu = CollapsedUniverse::build(&scdp_netlist::gen::rca(width));
        assert!(cu.ratio() <= 0.72, "rca({width}): {:.3}", cu.ratio());
    }
}

#[test]
fn collapse_telemetry_counters_are_recorded() {
    let report = Scenario::new(Operator::Add, 3)
        .technique(Technique::Tech1)
        .campaign()
        .backend(Backend::GateLevel)
        .exec(ExecPolicy::new().threads(2).collapse(true).telemetry(true))
        .run()
        .expect("runs");
    let tel = report.telemetry.as_ref().expect("telemetry section");
    let before = tel.counter("collapse.sites_before").expect("sites_before");
    let after = tel.counter("collapse.sites_after").expect("sites_after");
    let classes = tel.counter("collapse.classes").expect("classes");
    assert_eq!(before, report.fault_count());
    assert!(after < before, "collapsing must shrink the universe");
    assert_eq!(classes, after, "unsharded: every class is simulated");
}

/// The collapse analysis is its own stage: every gate-level shape opens
/// exactly one `campaign/collapse` span around it when telemetry is on.
#[test]
fn collapse_span_is_recorded_for_every_shape() {
    let exec = ExecPolicy::new().threads(2).collapse(true).telemetry(true);
    let space = InputSpace::Sampled {
        per_fault: 32,
        seed: 0xC0,
    };
    let dp = DatapathScenario::new(DfgSource::Dot, 2).technique(Technique::Tech1);
    let reports = [
        (
            "operator",
            Scenario::new(Operator::Add, 3)
                .campaign()
                .backend(Backend::GateLevel)
                .exec(exec)
                .run(),
        ),
        (
            "datapath",
            dp.clone().campaign().input_space(space).exec(exec).run(),
        ),
        (
            "sequential",
            dp.seq_campaign().input_space(space).exec(exec).run(),
        ),
    ];
    for (shape, report) in reports {
        let report = report.expect("runs");
        let tel = report.telemetry.as_ref().expect("telemetry section");
        let span = tel.span("campaign/collapse");
        assert_eq!(span.map(|s| s.count), Some(1), "{shape}: one collapse span");
    }
}
