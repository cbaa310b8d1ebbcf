//! The campaign driver's cone overlay against full faulty passes.
//!
//! `EngineCampaign` evaluates each fault group only over the fanout
//! cone of its sites, overlaid on the good machine. The reference here
//! replays every group on its own with full passes — `eval_wide_into`
//! for the good and the faulty machine, then `compare_wide` — and
//! tallies the verdicts limb by limb under the same drop policy. Every
//! per-fault row of the campaign must equal the reference row, at every
//! lane width, drop policy and thread count, on random netlists and on
//! the elaborated FIR/IIR/Dot/Matvec datapaths.
//!
//! Consecutive groups on the same site gates share one cone, and run
//! over it with no restore of the good values in between; the
//! shared-site universes below hold runs of such groups, broken by
//! empty groups and decoys that share only their first site, with
//! runs straddling the block boundaries of every thread count tested.

mod common;

use common::{random_faults, random_netlist};
use scdp_campaign::{DatapathScenario, DfgSource};
use scdp_core::Technique;
use scdp_netlist::{GateKind, Netlist, StuckAtLine, StuckSite};
use scdp_obs::Recorder;
use scdp_rng::{Rng, Xoshiro256StarStar};
use scdp_sim::{par, DropPolicy, Engine, EngineCampaign, FaultOutcome, InputPlan, Lanes};
use std::sync::Arc;

const DROPS: [DropPolicy; 3] = [
    DropPolicy::Never,
    DropPolicy::OnDetect,
    DropPolicy::OnEscape,
];
const LANES: [Lanes; 4] = [Lanes::L1, Lanes::L4, Lanes::L8, Lanes::Auto];

/// One group's outcome from full passes, tallied as the driver does.
fn reference_row(
    engine: &Engine,
    faults: &[StuckAtLine],
    plan: InputPlan,
    drop: DropPolicy,
) -> FaultOutcome {
    let mut faults = faults.to_vec();
    faults.sort_by_key(|f| (f.site.gate, f.site.pin));
    let mut o = FaultOutcome::default();
    let (mut good, mut faulty) = (Vec::new(), Vec::new());
    for wide in plan.wide_stream::<4>(engine.input_bits()) {
        engine.eval_wide_into(&wide, &[], &mut good);
        engine.eval_wide_into(&wide, &faults, &mut faulty);
        let v = engine.compare_wide(&good, &faulty, wide.mask);
        for limb in 0..wide.limbs {
            let (cs, cd, ed, eu) = v.limb(limb).counts();
            o.tally.correct_silent += cs;
            o.tally.correct_detected += cd;
            o.tally.error_detected += ed;
            o.tally.error_undetected += eu;
            o.detected |= cd + ed > 0;
            o.escaped |= eu > 0;
            let decided = match drop {
                DropPolicy::Never => false,
                DropPolicy::OnDetect => o.detected,
                DropPolicy::OnEscape => o.escaped,
            };
            if decided {
                o.dropped_after = Some(o.tally.total());
                return o;
            }
        }
    }
    o
}

/// Runs `groups` through the campaign at every lane width, drop policy
/// and thread count in `threads`, and checks each per-fault row against
/// its full-pass reference. An empty group's reference is the
/// fault-free machine.
fn assert_cone_equivalent(
    engine: &Engine,
    groups: &[Vec<StuckAtLine>],
    plan: InputPlan,
    threads: &[usize],
    what: &str,
) {
    for drop in DROPS {
        let reference: Vec<FaultOutcome> = groups
            .iter()
            .map(|g| reference_row(engine, g, plan, drop))
            .collect();
        for lanes in LANES {
            for &t in threads {
                let run = EngineCampaign::over(engine, groups)
                    .plan(plan)
                    .drop_policy(drop)
                    .lanes(lanes)
                    .threads(t)
                    .run();
                for (k, (got, want)) in run.per_fault.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        got, want,
                        "{what}: group {k} {:?}, {drop:?} {lanes:?} {t} threads",
                        groups[k]
                    );
                }
            }
        }
    }
}

/// Gates no output reads, directly or transitively.
fn dead_gates(nl: &Netlist) -> Vec<usize> {
    let gates = nl.gates();
    let mut live = vec![false; gates.len()];
    for (_, bus) in nl.outputs() {
        for n in bus {
            live[n.index()] = true;
        }
    }
    for i in (0..gates.len()).rev() {
        if live[i] {
            for n in [gates[i].a, gates[i].b].into_iter().flatten() {
                live[n.index()] = true;
            }
        }
    }
    (0..gates.len()).filter(|&i| !live[i]).collect()
}

fn line(gate: usize, pin: Option<u8>, value: bool) -> StuckAtLine {
    StuckAtLine::new(StuckSite { gate, pin }, value)
}

/// The `error` output's net.
fn alarm_net(nl: &Netlist) -> usize {
    nl.outputs()
        .iter()
        .find(|(name, _)| name == "error")
        .and_then(|(_, bus)| bus.first().map(|n| n.index()))
        .expect("random netlists carry an error bus")
}

/// Random groups plus the shapes the overlay must get right: stem and
/// pin faults on one gate, faults on inputs and constants, cones that
/// reach no output, the alarm net inside and outside the cone, and
/// empty groups.
fn shaped_groups(rng: &mut impl Rng, nl: &Netlist) -> Vec<Vec<StuckAtLine>> {
    let gates = nl.gates();
    let mut groups: Vec<Vec<StuckAtLine>> = (0..12)
        .map(|_| {
            let lines = 1 + rng.gen_range(4) as usize;
            random_faults(rng, nl, lines)
        })
        .collect();
    groups.push(Vec::new());
    if let Some(g) = (0..gates.len()).rev().find(|&g| gates[g].kind.pins() == 2) {
        groups.push(vec![
            line(g, Some(0), rng.gen_bool()),
            line(g, Some(1), rng.gen_bool()),
            line(g, None, rng.gen_bool()),
        ]);
        groups.push(vec![line(0, None, false), line(g, Some(1), true)]);
    }
    let input = rng.gen_range(nl.input_bits() as u64) as usize;
    groups.push(vec![line(input, None, rng.gen_bool())]);
    if let Some(c) = (0..gates.len()).find(|&g| matches!(gates[g].kind, GateKind::Const(_))) {
        groups.push(vec![line(c, None, rng.gen_bool())]);
    }
    let alarm = alarm_net(nl);
    groups.push(vec![line(alarm, None, true)]);
    groups.push(vec![line(alarm, None, false)]);
    for d in dead_gates(nl).into_iter().take(2) {
        groups.push(vec![line(d, None, rng.gen_bool())]);
    }
    groups.push(Vec::new());
    groups
}

#[test]
fn cone_overlay_equals_full_passes_on_random_netlists() {
    let mut rng = Xoshiro256StarStar::from_seed(0xC0_4E5);
    let mut dead_cases = 0;
    for case in 0..24 {
        let inputs = 1 + rng.gen_range(12) as u32;
        let gates = 20 + rng.gen_range(100) as usize;
        let nl = random_netlist(&mut rng, inputs, gates);
        dead_cases += usize::from(!dead_gates(&nl).is_empty());
        let engine = Engine::new(&nl);
        let groups = shaped_groups(&mut rng, &nl);
        // Up to 1,024 vectors: several wide batches at every lane width.
        let plan = if inputs <= 10 {
            InputPlan::Exhaustive
        } else {
            InputPlan::Sampled {
                vectors: 700,
                seed: 0x5EED ^ case,
            }
        };
        assert_cone_equivalent(&engine, &groups, plan, &[1, 2, 3], &format!("case {case}"));
    }
    assert!(dead_cases > 12, "most random netlists have dead gates");
}

#[test]
fn cone_overlay_equals_full_passes_on_the_datapath_workloads() {
    for source in DfgSource::BUILTIN {
        for technique in [Technique::Tech1, Technique::Tech2, Technique::Both] {
            let dp = DatapathScenario::new(source.clone(), 2)
                .technique(technique)
                .elaborate();
            let engine = Engine::new(&dp.netlist);
            // An even stride through the universe keeps the large
            // IIR/Both netlist (23k gates) affordable.
            let (universe, _) = dp.fault_universe();
            let stride = universe.len().div_ceil(400);
            let groups: Vec<_> = universe.into_iter().step_by(stride).collect();
            let plan = InputPlan::Sampled {
                vectors: 320,
                seed: 0xF1_2E,
            };
            assert_cone_equivalent(
                &engine,
                &groups,
                plan,
                &[1, 2],
                &format!("{source:?} {technique:?}"),
            );
        }
    }
}

/// A random line on `gate`: its stem or one of its input pins.
fn any_line(rng: &mut impl Rng, nl: &Netlist, gate: usize) -> StuckAtLine {
    let pins = nl.gates()[gate].kind.pins();
    let pin = (pins > 0 && rng.gen_bool()).then(|| rng.gen_range(u64::from(pins)) as u8);
    line(gate, pin, rng.gen_bool())
}

/// `count` distinct random gates, ascending.
fn distinct_gates(rng: &mut impl Rng, nl: &Netlist, count: usize) -> Vec<usize> {
    let mut gates = Vec::new();
    while gates.len() < count.min(nl.gates().len()) {
        let g = rng.gen_range(nl.gates().len() as u64) as usize;
        if !gates.contains(&g) {
            gates.push(g);
        }
    }
    gates.sort_unstable();
    gates
}

/// Runs of groups that share one site set, until the universe holds at
/// least `min_groups`. Each run is one of: every single-line fault of
/// one gate (stem stuck-at-0 and -1, each input pin at both values),
/// multi-line groups on the same gates with random pins and values, or
/// a decoy pair that shares only its first site. Empty groups fall
/// between runs.
fn shared_site_universe(
    rng: &mut impl Rng,
    nl: &Netlist,
    min_groups: usize,
) -> Vec<Vec<StuckAtLine>> {
    let mut groups: Vec<Vec<StuckAtLine>> = Vec::new();
    while groups.len() < min_groups {
        match rng.gen_range(3) {
            0 => {
                let g = distinct_gates(rng, nl, 1)[0];
                let pins = nl.gates()[g].kind.pins();
                for pin in std::iter::once(None).chain((0..pins).map(Some)) {
                    for value in [false, true] {
                        groups.push(vec![line(g, pin, value)]);
                    }
                }
            }
            1 => {
                let count = 2 + rng.gen_range(2) as usize;
                let gates = distinct_gates(rng, nl, count);
                for _ in 0..2 + rng.gen_range(4) {
                    groups.push(gates.iter().map(|&g| any_line(rng, nl, g)).collect());
                }
            }
            _ => {
                let gates = distinct_gates(rng, nl, 3);
                let first = any_line(rng, nl, gates[0]);
                groups.push(vec![first, any_line(rng, nl, gates[1])]);
                groups.push(vec![first, any_line(rng, nl, gates[2])]);
            }
        }
        if rng.gen_range(4) == 1 {
            groups.push(Vec::new());
        }
    }
    groups
}

/// Whether some run of consecutive groups on equal site gates crosses a
/// boundary of `block`-sized blocks.
fn a_run_crosses_a_block(groups: &[Vec<StuckAtLine>], block: usize) -> bool {
    let gates = |g: &[StuckAtLine]| g.iter().map(|f| f.site.gate).collect::<Vec<_>>();
    (block..groups.len())
        .step_by(block)
        .any(|b| !groups[b].is_empty() && gates(&groups[b - 1]) == gates(&groups[b]))
}

#[test]
fn shared_cones_equal_full_passes_across_empty_groups_and_block_boundaries() {
    let mut rng = Xoshiro256StarStar::from_seed(0x5A_4ED);
    let threads = [1, 2, 3];
    let mut crossings = [0usize; 3];
    for case in 0..6 {
        let inputs = 3 + rng.gen_range(8) as u32;
        let gates = 30 + rng.gen_range(80) as usize;
        let nl = random_netlist(&mut rng, inputs, gates);
        let engine = Engine::new(&nl);
        // More groups than one block holds at one thread.
        let groups = shared_site_universe(&mut rng, &nl, 150);
        for (c, &t) in crossings.iter_mut().zip(&threads) {
            let block = par::auto_block(groups.len(), t);
            *c += usize::from(a_run_crosses_a_block(&groups, block));
        }
        let plan = if inputs <= 8 {
            InputPlan::Exhaustive
        } else {
            InputPlan::Sampled {
                vectors: 600,
                seed: 0x5_4A2E ^ case,
            }
        };
        let what = format!("shared-site case {case}");
        assert_cone_equivalent(&engine, &groups, plan, &threads, &what);
    }
    assert!(
        crossings.iter().all(|&c| c >= 3),
        "runs must straddle block boundaries at every thread count: {crossings:?}"
    );
}

#[test]
fn groups_on_one_site_set_build_one_cone_per_block() {
    let dp = DatapathScenario::new(DfgSource::Fir, 8)
        .technique(Technique::Both)
        .elaborate();
    let engine = Engine::new(&dp.netlist);
    let (groups, _) = dp.fault_universe();
    let rec = Arc::new(Recorder::new());
    let summary = EngineCampaign::over(&engine, &groups)
        .plan(InputPlan::Sampled {
            vectors: 64,
            seed: 0xC0_4E,
        })
        .lanes(Lanes::L1)
        .threads(1)
        .recorder(Arc::clone(&rec))
        .run();
    assert_eq!(summary.per_fault.len(), groups.len());
    // The count the driver should reach: one cone per run of groups on
    // equal site gates within each block.
    let block = par::auto_block(groups.len(), 1);
    let gates = |g: &[StuckAtLine]| g.iter().map(|f| f.site.gate).collect::<Vec<_>>();
    let runs: usize = groups
        .chunks(block)
        .map(|chunk| {
            1 + chunk
                .windows(2)
                .filter(|w| gates(&w[0]) != gates(&w[1]))
                .count()
        })
        .sum();
    let built = rec.snapshot().counter("pool.cones_built");
    assert_eq!(built, Some(runs as u64));
    // 952 cones for 5,182 groups at the time of writing.
    assert!(
        runs * 5 < groups.len(),
        "{runs} cones for {} groups",
        groups.len()
    );
}
