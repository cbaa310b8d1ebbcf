//! Property-based differential harness: the cycle-accurate sequential
//! engine must be bit-identical to the word-level DFG interpreter on
//! fault-free runs.
//!
//! Every case runs one loop body through the full pipeline — SCK
//! expansion (workload cases), list scheduling, binding, sequential
//! elaboration ([`elaborate_seq_datapath`]), packed multi-cycle
//! simulation ([`SeqEngine`]) — and compares all 64 lanes of a random
//! input batch, output bus by output bus, against
//! [`interpret_dfg`]. The sweep covers the four built-in workloads ×
//! techniques × styles × widths (72 cases) plus 184 seeded random
//! DFGs (160 plain + 24 SCK-expanded): 256 cases in all, each
//! reproducible from its printed seed.

use scdp::campaign::{DatapathScenario, DfgSource};
use scdp::hls::testgen::{random_dfg, random_resources, DfgGenConfig};
use scdp::hls::{bind, sched, BindOptions, ComponentLibrary, Dfg, SckStyle};
use scdp::netlist::gen::{elaborate_seq_datapath, interpret_dfg, SeqDatapath};
use scdp::netlist::Word;
use scdp::rng::{Rng, Xoshiro256StarStar};
use scdp::sim::{InputBatch, SeqEngine, LANES};
use scdp::Technique;

/// Packs `words[bus][lane]` into the engine's bit-sliced batch format.
fn pack_batch(words: &[Vec<Word>]) -> InputBatch {
    let lanes = words.first().map_or(0, Vec::len);
    let mut bits = Vec::new();
    for bus in words {
        assert_eq!(bus.len(), lanes);
        let width = bus[0].width();
        for bit in 0..width {
            let mut packed = 0u64;
            for (lane, w) in bus.iter().enumerate() {
                if w.bit(bit) {
                    packed |= 1 << lane;
                }
            }
            bits.push(packed);
        }
    }
    InputBatch { bits, len: lanes }
}

/// Runs one differential case: 64 random vectors through the packed
/// sequential engine vs the interpreter. Returns the case count (1).
fn check_case(tag: &str, dfg: &Dfg, dp: &SeqDatapath, width: u32, seed: u64) -> usize {
    let engine = SeqEngine::new(&dp.netlist);
    let mut rng = Xoshiro256StarStar::from_seed(seed ^ 0xD1FF_7E57);
    let buses = dp.netlist.inputs().len();
    let words: Vec<Vec<Word>> = (0..buses)
        .map(|_| {
            (0..LANES)
                .map(|_| Word::new(width, rng.next_u64()))
                .collect()
        })
        .collect();
    let batch = pack_batch(&words);
    let mut values = Vec::new();
    let mut state = Vec::new();
    let out = engine.run_batch_into(&batch, None, dp.total_cycles, &mut values, &mut state);
    assert_eq!(out.alarm, 0, "{tag}: fault-free alarm fired");
    for lane in 0..LANES {
        let inputs: Vec<Word> = words.iter().map(|bus| bus[lane]).collect();
        let ev = interpret_dfg(dfg, width, &inputs);
        assert!(!ev.alarm, "{tag}: interpreter alarm on fault-free inputs");
        let mut result_idx = 0usize;
        for (name, nets) in dp.netlist.outputs() {
            if name == "error" {
                continue;
            }
            let mut got = 0u64;
            for (i, &net) in nets.iter().enumerate() {
                if (values[net.index()] >> lane) & 1 != 0 {
                    got |= 1 << i;
                }
            }
            let expect = ev.results[result_idx];
            assert_eq!(
                got,
                expect.bits(),
                "{tag}: lane {lane} output `{name}` mismatch (seed {seed})"
            );
            result_idx += 1;
        }
        assert_eq!(result_idx, ev.results.len(), "{tag}: result bus count");
    }
    1
}

#[test]
fn workloads_match_interpreter_across_techniques_styles_widths() {
    let mut cases = 0usize;
    for source in DfgSource::BUILTIN {
        for technique in [Technique::Tech1, Technique::Tech2, Technique::Both] {
            for style in [SckStyle::Plain, SckStyle::Full, SckStyle::Embedded] {
                for width in [2u32, 3] {
                    let scenario = DatapathScenario::new(source.clone(), width)
                        .technique(technique)
                        .style(style);
                    let dfg = scenario.expanded();
                    let dp = scenario.elaborate_seq();
                    let tag = format!("{}/{technique:?}/{style:?}/w{width}", source.label());
                    let seed = u64::from(width) ^ (cases as u64) << 8;
                    cases += check_case(&tag, &dfg, &dp, width, seed);
                }
            }
        }
    }
    assert_eq!(
        cases, 72,
        "4 workloads x 3 techniques x 3 styles x 2 widths"
    );
}

#[test]
fn random_dfgs_match_interpreter() {
    let lib = ComponentLibrary::virtex16();
    let mut cases = 0usize;
    for seed in 0..160u64 {
        let cfg = DfgGenConfig {
            max_ops: 8,
            // Divider cores dominate gate counts; keep them to a third
            // of the sweep so the whole run stays fast.
            allow_div: seed % 3 == 0,
            allow_mem: seed % 2 == 0,
        };
        let dfg = random_dfg(seed, &cfg);
        let width = 2 + (seed % 3) as u32; // 2..=4
        let resources = random_resources(seed);
        let schedule = sched::list_schedule(&dfg, &lib, &resources);
        let binding = bind(&dfg, &schedule, &lib, BindOptions::default());
        let dp = elaborate_seq_datapath(&dfg, &schedule, &binding, width);
        cases += check_case(&format!("rand{seed}/w{width}"), &dfg, &dp, width, seed);
    }
    assert_eq!(cases, 160);
}

#[test]
fn random_dfgs_with_checkers_match_interpreter() {
    // Random graphs through the SCK expansion too: checker scheduling
    // and the gated sticky alarms must stay silent fault-free.
    let lib = ComponentLibrary::virtex16();
    let mut cases = 0usize;
    for seed in 1000..1024u64 {
        let cfg = DfgGenConfig {
            max_ops: 5,
            allow_div: false,
            allow_mem: seed % 2 == 0,
        };
        let body = random_dfg(seed, &cfg);
        let dfg = scdp::hls::expand_sck(&body, Technique::Both, SckStyle::Full);
        let width = 2 + (seed % 2) as u32;
        let resources = random_resources(seed);
        let schedule = sched::list_schedule(&dfg, &lib, &resources);
        let binding = bind(&dfg, &schedule, &lib, BindOptions::default());
        let dp = elaborate_seq_datapath(&dfg, &schedule, &binding, width);
        cases += check_case(&format!("sck_rand{seed}/w{width}"), &dfg, &dp, width, seed);
    }
    assert_eq!(cases, 24);
}
