//! Typed fault-spec validation and slice-scoped campaigns.
//!
//! Malformed fault specs used to `panic!` from inside the packed
//! evaluation loop, aborting whole campaigns; they are now rejected up
//! front as [`SimError`]s and the evaluation loops are total. A
//! campaign over a sub-slice of a universe must reproduce the
//! corresponding slice of a run over the whole universe bit for bit —
//! the engine-level basis of sharded campaigns.

use scdp_core::{Operator, Technique};
use scdp_netlist::gen::{self_checking, SelfCheckingSpec};
use scdp_netlist::{FaultDuration, NetlistBuilder, StuckAtLine, StuckSite};
use scdp_sim::{
    DropPolicy, Engine, EngineCampaign, FaultEngine, InputPlan, SeqCampaign, SeqEngine, SimError,
};

fn add_engine() -> (Engine, Vec<Vec<StuckAtLine>>) {
    let dp = self_checking(SelfCheckingSpec {
        op: Operator::Add,
        technique: Technique::Both,
        width: 3,
    });
    let engine = Engine::new(&dp.netlist);
    let mut groups = Vec::new();
    for site in dp.local_sites() {
        for value in [false, true] {
            groups.push(dp.correlated_fault(site, value));
        }
    }
    (engine, groups)
}

#[test]
fn malformed_pin_specs_are_typed_errors_not_panics() {
    let (engine, _) = add_engine();
    let bad_pin = StuckAtLine::new(
        StuckSite {
            gate: 10,
            pin: Some(7),
        },
        true,
    );
    assert_eq!(
        engine.check(&[bad_pin]),
        Err(SimError::PinOutOfRange {
            gate: 10,
            pin: 7,
            pins: 2,
        })
    );
    let bad_gate = StuckAtLine::new(
        StuckSite {
            gate: usize::MAX,
            pin: None,
        },
        false,
    );
    assert!(matches!(
        engine.check(&[bad_gate]),
        Err(SimError::GateOutOfRange { .. })
    ));
    // The campaign-level check finds the bad group wherever it hides.
    let mut groups = add_engine().1;
    groups.insert(groups.len() / 2, vec![bad_pin]);
    let campaign = EngineCampaign::over(&engine, &groups);
    assert!(matches!(
        campaign.check(),
        Err(SimError::PinOutOfRange { pin: 7, .. })
    ));
}

#[test]
fn pin_faults_on_one_input_gates_are_rejected() {
    let mut b = NetlistBuilder::new("inv");
    let x = b.input_bus("x", 1);
    let y = b.not(x[0]);
    b.output("y", &[y]);
    let engine = Engine::new(&b.finish());
    let bad = StuckAtLine::new(
        StuckSite {
            gate: 1,
            pin: Some(1),
        },
        true,
    );
    assert_eq!(
        engine.check(&[bad]),
        Err(SimError::PinOutOfRange {
            gate: 1,
            pin: 1,
            pins: 1,
        })
    );
    // Defensive totality: even if the line bypasses validation through
    // the raw batch API, evaluation ignores it rather than aborting.
    let batch = InputPlan::Exhaustive.stream(1).next().unwrap();
    let faulty = engine.eval_batch(&batch, &[bad]);
    let clean = engine.eval_batch(&batch, &[]);
    assert_eq!(faulty, clean, "an impossible pin has no effect");
}

#[test]
fn sequential_groups_are_validated_too() {
    let mut b = NetlistBuilder::new("shift");
    let x = b.input_bus("x", 1);
    let s0 = b.dff();
    b.connect_dff(s0, x[0]);
    b.output("y", &[s0]);
    let nl = b.finish();
    let engine = SeqEngine::new(&nl);
    let bad = vec![StuckAtLine::new(
        StuckSite {
            gate: 1,
            pin: Some(3),
        },
        true,
    )];
    assert_eq!(
        engine.check(&bad),
        Err(SimError::PinOutOfRange {
            gate: 1,
            pin: 3,
            pins: 1,
        })
    );
    let groups = [bad.clone()];
    let campaign = SeqCampaign::new(&engine, &groups, 3, FaultDuration::Permanent);
    assert!(campaign.check().is_err());
    // Defensive totality on the sequential path as well.
    let batch = InputPlan::Exhaustive.stream(1).next().unwrap();
    let (mut values, mut state) = (Vec::new(), Vec::new());
    let fault = Some((&bad[..], FaultDuration::Permanent));
    let out = engine.run_batch_into(&batch, fault, 3, &mut values, &mut state);
    assert_eq!(out.alarm, 0, "impossible pin never fires an alarm");
}

/// A group whose lines are out of gate order is rejected as a typed
/// error by both engines' campaigns, before any simulation.
#[test]
fn groups_out_of_gate_order_are_typed_errors() {
    let (engine, mut groups) = add_engine();
    let k = groups
        .iter()
        .position(|g| g.len() > 1)
        .expect("a multi-line group");
    groups[k].reverse();
    let (gate, previous) = (groups[k][1].site.gate, groups[k][0].site.gate);
    let want = SimError::LinesOutOfOrder { gate, previous };
    let campaign = EngineCampaign::over(&engine, &groups);
    assert_eq!(campaign.check(), Err(want.clone()));
    assert_eq!(campaign.try_run().unwrap_err(), want);

    let mut b = NetlistBuilder::new("shift");
    let x = b.input_bus("x", 1);
    let s0 = b.dff();
    let s1 = b.dff();
    b.connect_dff(s0, x[0]);
    b.connect_dff(s1, s0);
    b.output("y", &[s1]);
    let engine = SeqEngine::new(&b.finish());
    let line = |gate| StuckAtLine::new(StuckSite { gate, pin: None }, true);
    let groups = [vec![line(1)], vec![line(2), line(1)]];
    let campaign = SeqCampaign::new(&engine, &groups, 3, FaultDuration::Permanent);
    let want = SimError::LinesOutOfOrder {
        gate: 1,
        previous: 2,
    };
    assert_eq!(campaign.check(), Err(want.clone()));
    assert_eq!(campaign.try_run().unwrap_err(), want);
}

#[test]
fn sub_slice_campaign_matches_the_slice_of_a_full_run() {
    let (engine, groups) = add_engine();
    let n = groups.len();
    let full = EngineCampaign::over(&engine, &groups)
        .drop_policy(DropPolicy::OnDetect)
        .threads(2)
        .run();
    for (start, end) in [(0, n / 3), (n / 3, n - 1), (n - 1, n), (n, n)] {
        let shard = EngineCampaign::over(&engine, &groups[start..end])
            .drop_policy(DropPolicy::OnDetect)
            .threads(3)
            .run();
        assert_eq!(shard.per_fault.len(), end - start);
        for (s, f) in shard.per_fault.iter().zip(&full.per_fault[start..end]) {
            assert_eq!(s.tally, f.tally);
            assert_eq!(s.detected, f.detected);
            assert_eq!(s.escaped, f.escaped);
            assert_eq!(s.dropped_after, f.dropped_after);
        }
    }
}

#[test]
fn seq_sub_slice_campaign_matches_the_slice_of_a_full_run() {
    let mut b = NetlistBuilder::new("quiet");
    let s0 = b.dff();
    let s1 = b.dff();
    let zero = b.constant(false);
    b.connect_dff(s0, zero);
    b.connect_dff(s1, s0);
    let x = b.input_bus("x", 2);
    let y = b.xor(x[0], x[1]);
    b.output("y", &[y]);
    b.output("error", &[s1]);
    let nl = b.finish();
    let engine = SeqEngine::new(&nl);
    let groups: Vec<_> = (0..nl.gate_count())
        .map(|gate| vec![StuckAtLine::new(StuckSite { gate, pin: None }, true)])
        .collect();
    let full = SeqCampaign::new(&engine, &groups, 4, FaultDuration::Permanent)
        .threads(2)
        .run();
    let (start, end) = (2, groups.len() - 1);
    let shard = SeqCampaign::new(&engine, &groups[start..end], 4, FaultDuration::Permanent)
        .threads(3)
        .run();
    assert_eq!(shard.per_fault.len(), end - start);
    for (s, f) in shard.per_fault.iter().zip(&full.per_fault[start..end]) {
        assert_eq!(s.tally, f.tally);
        assert_eq!(s.first_detect, f.first_detect);
    }
}
