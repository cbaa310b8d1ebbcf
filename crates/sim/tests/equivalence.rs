//! The engine's ground-truth contract: bit-parallel batched evaluation
//! is bit-for-bit equivalent to the scalar oracle
//! `Netlist::eval_nets` — across random netlists, random stuck-at
//! faults (stems and pins, single and correlated-multiple), random
//! input batches and every lane width.

mod common;

use common::{random_faults, random_netlist};
use scdp_netlist::{GateKind, NetlistBuilder, StuckAtLine};
use scdp_rng::{Rng, Xoshiro256StarStar};
use scdp_sim::{Engine, InputPlan};

/// The wide full pass at `L` limbs over `plan`, one word per net for
/// each scalar batch: limb `k` of wide batch `j` is batch `j * L + k`.
fn wide_limbs<const L: usize>(
    engine: &Engine,
    plan: InputPlan,
    faults: &[StuckAtLine],
) -> Vec<Vec<u64>> {
    let mut values = Vec::new();
    let mut batches = Vec::new();
    for wide in plan.wide_stream::<L>(engine.input_bits()) {
        engine.eval_wide_into(&wide, faults, &mut values);
        for k in 0..wide.limbs {
            batches.push(values.iter().map(|w| w.limb(k)).collect());
        }
    }
    batches
}

#[test]
fn bit_parallel_equals_scalar_on_random_netlists() {
    let mut rng = Xoshiro256StarStar::from_seed(0xE9_0137);
    for case in 0..60 {
        let inputs = 1 + rng.gen_range(8) as u32;
        let gates = 20 + rng.gen_range(60) as usize;
        let nl = random_netlist(&mut rng, inputs, gates);
        let engine = Engine::new(&nl);
        let n_faults = rng.gen_range(4) as usize;
        let faults = random_faults(&mut rng, &nl, n_faults);
        let plan = if inputs <= 6 {
            InputPlan::Exhaustive
        } else {
            InputPlan::Sampled {
                vectors: 128,
                seed: 0xBA7C4 ^ case,
            }
        };
        let wide4 = wide_limbs::<4>(&engine, plan, &faults);
        let wide8 = wide_limbs::<8>(&engine, plan, &faults);
        let mut batches = 0;
        for (j, batch) in plan.stream(engine.input_bits()).enumerate() {
            let packed = engine.eval_batch(&batch, &faults);
            let passes = [("u64", &packed), ("L4", &wide4[j]), ("L8", &wide8[j])];
            for lane in 0..batch.len {
                let scalar = nl.eval_nets(&batch.lane_bits(lane), &faults);
                for (pass, words) in passes {
                    for (net, word) in words.iter().enumerate() {
                        assert_eq!(
                            (word >> lane) & 1 != 0,
                            scalar[net],
                            "case {case}: {pass} pass, net {net}, lane {lane}, faults {faults:?}"
                        );
                    }
                }
            }
            batches += 1;
        }
        assert_eq!((wide4.len(), wide8.len()), (batches, batches));
    }
}

#[test]
fn correlated_multi_fault_groups_match_scalar() {
    use scdp_core::{Operator, Technique};
    use scdp_netlist::gen::{self_checking, SelfCheckingSpec};
    let mut rng = Xoshiro256StarStar::from_seed(0xC0_44E1);
    let dp = self_checking(SelfCheckingSpec {
        op: Operator::Add,
        technique: Technique::Both,
        width: 4,
    });
    let engine = Engine::new(&dp.netlist);
    let sites = dp.local_sites();
    for _ in 0..24 {
        let site = sites[rng.gen_range(sites.len() as u64) as usize];
        let mut faults = dp.correlated_fault(site, rng.gen_bool());
        faults.sort_by_key(|f| (f.site.gate, f.site.pin));
        let plan = InputPlan::Sampled {
            vectors: 96,
            seed: rng.next_u64(),
        };
        for batch in plan.stream(engine.input_bits()) {
            let packed = engine.eval_batch(&batch, &faults);
            for lane in 0..batch.len {
                let scalar = dp.netlist.eval_nets(&batch.lane_bits(lane), &faults);
                for (net, word) in packed.iter().enumerate() {
                    assert_eq!((word >> lane) & 1 != 0, scalar[net], "{site:?}");
                }
            }
        }
    }
}

#[test]
fn inputs_and_constants_round_trip() {
    // Degenerate netlists: only inputs/constants, output straight out.
    let mut b = NetlistBuilder::new("thin");
    let x = b.input_bus("x", 3);
    let c = b.constant(true);
    b.output("ris", &[x[0], c, x[2]]);
    let nl = b.finish();
    let engine = Engine::new(&nl);
    assert_eq!(engine.net_count(), nl.gates().len());
    for batch in InputPlan::Exhaustive.stream(3) {
        let packed = engine.eval_batch(&batch, &[]);
        for lane in 0..batch.len {
            let scalar = nl.eval_nets(&batch.lane_bits(lane), &[]);
            for (net, word) in packed.iter().enumerate() {
                assert_eq!((word >> lane) & 1 != 0, scalar[net]);
            }
        }
    }
    // GateKind is re-exported for consumers building engines generically.
    assert_eq!(GateKind::Const(true).pins(), 0);
}
