//! Gate-for-gate pins of both datapath elaborations.
//!
//! Every built-in workload × technique at width 4, plus the width-8
//! FIR/Both machine, is elaborated unrolled (`elaborate`) and
//! cycle-accurate (`elaborate_seq`). Each machine is reduced to one
//! FNV-1a digest ([`scdp_campaign::config_fingerprint`]) over its
//! structural Verilog and, per functional unit, its name and the gate
//! span of every instance (plus the mux-chain gate count on the
//! sequential side). Any change to the netlists' gates, their order or
//! the FU spans — a swapped mux leg, a different operand conditioning —
//! moves a digest.

use scdp_campaign::{config_fingerprint, DatapathScenario, DfgSource};
use scdp_core::Technique;
use scdp_netlist::export::to_verilog;
use scdp_netlist::gen::UnitInstance;
use scdp_netlist::Netlist;

/// `(scenario label, unrolled digest, sequential digest)`.
const PINNED: [(&str, u64, u64); 13] = [
    ("fir/tech1/w4", 0x05dabb24103ff9bd, 0x636dafe99d116851),
    ("fir/tech2/w4", 0xf8f2993a22a29253, 0xf706eb11a1686b4e),
    ("fir/both/w4", 0xb47c6bd08221ebf0, 0xd9dc63fe26602adb),
    ("iir/tech1/w4", 0xd16d1d5fdbad37f2, 0xe7b11b1978107193),
    ("iir/tech2/w4", 0xd657056003897a58, 0x04889a4e1358f89b),
    ("iir/both/w4", 0x6eb6c07e3b4b9c8c, 0x44a22a62b6a1af7d),
    ("dot/tech1/w4", 0x0f1dd4e4b5a08ff6, 0x3a8ef4c794d15216),
    ("dot/tech2/w4", 0xc248dc06b2cb45a8, 0x336b3b6207c515f9),
    ("dot/both/w4", 0x490dead8881a6beb, 0x2ab6b4cfb9d181f4),
    ("matvec/tech1/w4", 0x4d9ba4a64fef9d62, 0x4cd00f86e0d7a48c),
    ("matvec/tech2/w4", 0xcf06ed261d287794, 0x9e07ccf55d6f67ad),
    ("matvec/both/w4", 0x9966400741fde49d, 0x7ef9be96c4e06bae),
    ("fir/both/w8", 0xb368cb756c310f3a, 0x75aa4958f854d4ff),
];

fn scenarios() -> Vec<(String, DatapathScenario)> {
    let mut all = Vec::new();
    for source in DfgSource::BUILTIN {
        for technique in Technique::ALL {
            let label = format!("{source}/{}/w4", format!("{technique:?}").to_lowercase());
            all.push((
                label,
                DatapathScenario::new(source.clone(), 4).technique(technique),
            ));
        }
    }
    all.push((
        "fir/both/w8".to_string(),
        DatapathScenario::new(DfgSource::Fir, 8).technique(Technique::Both),
    ));
    all
}

/// One FU's digest part: its name, each instance's `start-end` gate
/// span and, when given, its mux-chain gate count.
fn fu_part(name: &str, instances: &[UnitInstance], mux_gates: Option<usize>) -> String {
    let mut part = name.to_string();
    for inst in instances {
        part.push_str(&format!(" {}-{}", inst.start, inst.end));
    }
    if let Some(m) = mux_gates {
        part.push_str(&format!(" mux{m}"));
    }
    part
}

fn digest(netlist: &Netlist, fus: &[String]) -> u64 {
    let verilog = to_verilog(netlist);
    config_fingerprint(std::iter::once(verilog.as_str()).chain(fus.iter().map(String::as_str)))
}

#[test]
fn both_elaborations_are_pinned_gate_for_gate() {
    let mut actual = Vec::new();
    for (label, scenario) in scenarios() {
        let dp = scenario.elaborate();
        let unrolled: Vec<String> = dp
            .fus
            .iter()
            .map(|fu| fu_part(&fu.name, &fu.instances, None))
            .collect();
        let seq = scenario.elaborate_seq();
        let sequential: Vec<String> = seq
            .fus
            .iter()
            .map(|fu| fu_part(&fu.name, &fu.instances, Some(fu.mux_gates)))
            .collect();
        actual.push((
            label,
            digest(&dp.netlist, &unrolled),
            digest(&seq.netlist, &sequential),
        ));
    }
    let expected: Vec<(String, u64, u64)> = PINNED
        .iter()
        .map(|&(l, u, s)| (l.to_string(), u, s))
        .collect();
    let table: String = actual
        .iter()
        .map(|(l, u, s)| format!("    (\"{l}\", {u:#018x}, {s:#018x}),\n"))
        .collect();
    assert_eq!(actual, expected, "actual digests:\n{table}");
}
