//! Random-netlist generators shared by the engine's property suites.

use scdp_netlist::{Netlist, NetlistBuilder, StuckAtLine, StuckSite};
use scdp_rng::Rng;

/// Builds a random combinational netlist: `inputs` primary bits, then
/// `gates` random gates wired to arbitrary existing nets (the builder
/// enforces topological order by construction), with a random slice of
/// nets exposed as the `ris` output bus and a random net as `error`.
pub fn random_netlist(rng: &mut impl Rng, inputs: u32, gates: usize) -> Netlist {
    let mut b = NetlistBuilder::new("random");
    let x = b.input_bus("x", inputs);
    let mut nets: Vec<_> = x;
    for _ in 0..gates {
        let kind = rng.gen_range(9);
        let a = nets[rng.gen_range(nets.len() as u64) as usize];
        let c = nets[rng.gen_range(nets.len() as u64) as usize];
        let n = match kind {
            0 => b.and(a, c),
            1 => b.or(a, c),
            2 => b.xor(a, c),
            3 => b.nand(a, c),
            4 => b.nor(a, c),
            5 => b.xnor(a, c),
            6 => b.not(a),
            7 => b.buf(a),
            _ => b.constant(rng.gen_bool()),
        };
        nets.push(n);
    }
    let out: Vec<_> = (0..4)
        .map(|_| nets[rng.gen_range(nets.len() as u64) as usize])
        .collect();
    b.output("ris", &out);
    let err = nets[rng.gen_range(nets.len() as u64) as usize];
    b.output("error", &[err]);
    b.finish()
}

/// Draws a random set of stuck-at faults valid for `nl`, sorted by
/// gate as the engine requires.
pub fn random_faults(rng: &mut impl Rng, nl: &Netlist, count: usize) -> Vec<StuckAtLine> {
    let gates = nl.gates();
    let mut faults: Vec<StuckAtLine> = (0..count)
        .map(|_| {
            let gate = rng.gen_range(gates.len() as u64) as usize;
            let pins = gates[gate].kind.pins();
            let pin = if pins > 0 && rng.gen_bool() {
                Some(rng.gen_range(u64::from(pins)) as u8)
            } else {
                None
            };
            StuckAtLine::new(StuckSite { gate, pin }, rng.gen_bool())
        })
        .collect();
    faults.sort_by_key(|f| (f.site.gate, f.site.pin));
    faults.dedup_by_key(|f| f.site);
    faults
}
