//! Deductive fault pre-classification: untestability proofs.
//!
//! [`PrunedUniverse`] classifies every fault group of a campaign
//! universe *before a single vector is simulated*, using only the
//! constant-propagation lattice (see [`mod@crate::lint`]) and the netlist
//! DAG structure. A group proven untestable behaves exactly like the
//! fault-free machine on **every** input vector (and, for sequential
//! netlists, on every cycle), so a campaign can grade one empty group —
//! the fault-free machine — in place of every such group and copy its
//! outcome verbatim, bit-identical to simulating each
//! (`scdp-campaign`'s `.prune(true)`).
//!
//! Two proof tiers run per group:
//!
//! 1. **No-op proofs** (`Redundant`/`Blocked`) — every line of the
//!    group is individually a no-op: either it sticks a net at the
//!    constant value the net already holds, or it sits on an input pin
//!    of an AND/OR/NAND/NOR gate whose *other* pin is proven constant
//!    at the gate's controlling value, so the forced pin can never
//!    influence the output. By induction over topological order (and
//!    over cycles, for Dff-bearing netlists), all nets then hold their
//!    fault-free values under the whole group.
//! 2. **Observability-cone proofs** (`Unobservable`) — the group's
//!    possible disturbance, seeded at the outputs of every gate a group
//!    line touches, is closed forward over the reader graph
//!    (Dff-aware: a disturbed D net disturbs the Q output in the next
//!    cycle). Propagation through an AND/OR/NAND/NOR reader is blocked
//!    when its other pin is proven constant at the controlling value
//!    *and* that pin is itself outside the disturbance closure. If the
//!    blocked closure never reaches a primary-output or alarm net, no
//!    vector can ever expose the group.
//!
//! Both proofs are deliberately conservative: `MustSimulate` means
//! "not proven", never "testable". The soundness obligation — every
//! `ProvenUntestable` verdict is exhaustively brute-force-checked on
//! seeded random netlists — lives in `tests/deduce_prop.rs`.

use scdp_netlist::{GateKind, Netlist, StuckAtLine};
use std::collections::HashMap;

/// Why a fault group is provably untestable.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum UntestableReason {
    /// Every line sticks a net at the constant value it already holds:
    /// the faulty function *is* the fault-free function.
    Redundant,
    /// Every line is a no-op, at least one because the other pin of its
    /// gate is proven constant at the controlling value (the classic
    /// "blocked path": the faulted pin can never drive the output).
    Blocked,
    /// The group can disturb nets, but its disturbance cone — closed
    /// forward over the DAG with constant-blocked side inputs pruned —
    /// never reaches a primary output or checker alarm.
    Unobservable,
}

/// Pre-simulation verdict for one fault group.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The group provably behaves like the fault-free machine on every
    /// vector; campaigns may settle it with the empty group's outcome.
    ProvenUntestable(UntestableReason),
    /// No proof found — the group must be simulated.
    MustSimulate,
}

/// How a single line was proven dead, if it was.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Kill {
    Redundant,
    Blocked,
}

/// The deductive layer over a campaign's fault-group universe: one
/// [`Verdict`] per group, in the order the groups were given.
#[derive(Clone, Debug)]
pub struct PrunedUniverse {
    verdicts: Vec<Verdict>,
    untestable: usize,
}

impl PrunedUniverse {
    /// Classifies every group of `groups` against `netlist`.
    ///
    /// Groups may hold any number of lines (the proofs are sound for
    /// multi-line groups and for sequential netlists — transient
    /// faults included, since a per-cycle no-op stays a no-op). An
    /// empty group *is* the fault-free machine and classifies as
    /// `Redundant`.
    #[must_use]
    pub fn build(netlist: &Netlist, groups: &[Vec<StuckAtLine>]) -> Self {
        let consts = netlist.constants();
        let mut cones = ConeProver {
            netlist,
            consts,
            cache: HashMap::new(),
            mark: vec![0; netlist.gate_count()],
            touched: Vec::new(),
            stack: Vec::new(),
        };
        let verdicts: Vec<Verdict> = groups
            .iter()
            .map(|group| classify(&mut cones, group))
            .collect();
        let untestable = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::ProvenUntestable(_)))
            .count();
        PrunedUniverse {
            verdicts,
            untestable,
        }
    }

    /// Verdict for group `i` (panics if out of range).
    #[must_use]
    pub fn verdict(&self, i: usize) -> Verdict {
        self.verdicts[i]
    }

    /// All verdicts, in group order.
    #[must_use]
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// Indices of every group proven untestable.
    #[must_use]
    pub fn untestable_indices(&self) -> Vec<usize> {
        self.verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v, Verdict::ProvenUntestable(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of groups proven untestable.
    #[must_use]
    pub fn untestable_count(&self) -> usize {
        self.untestable
    }

    /// Number of groups classified.
    #[must_use]
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// `true` when no groups were classified.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }
}

fn classify(cones: &mut ConeProver<'_>, group: &[StuckAtLine]) -> Verdict {
    // Tier 1: every line individually a no-op.
    let kills: Vec<Option<Kill>> = group
        .iter()
        .map(|line| kill_of(cones.netlist, cones.consts, line))
        .collect();
    if kills.iter().all(Option::is_some) {
        let reason = if kills.contains(&Some(Kill::Blocked)) {
            UntestableReason::Blocked
        } else {
            UntestableReason::Redundant
        };
        return Verdict::ProvenUntestable(reason);
    }
    // Tier 2: the whole group's disturbance cone is blind. Seeded at
    // every gate a line touches — deliberately ignoring per-line kills,
    // which keeps the closure sound without conditional reasoning.
    let mut sources: Vec<usize> = group.iter().map(|l| l.site.gate).collect();
    sources.sort_unstable();
    sources.dedup();
    if cones.is_blind(sources) {
        Verdict::ProvenUntestable(UntestableReason::Unobservable)
    } else {
        Verdict::MustSimulate
    }
}

/// Proof that a single line can never change any net value, or `None`.
fn kill_of(netlist: &Netlist, consts: &[Option<bool>], line: &StuckAtLine) -> Option<Kill> {
    let gates = netlist.gates();
    let g = line.site.gate;
    let Some(p) = line.site.pin else {
        // Stem fault: redundant iff the net is proven constant at the
        // stuck value. (Holds for Dff outputs too — `consts` never
        // proves a Dff net, so this simply never fires there.)
        return (consts[g] == Some(line.value)).then_some(Kill::Redundant);
    };
    let gate = &gates[g];
    let src = if p == 0 { gate.a } else { gate.b }?;
    if consts[src.index()] == Some(line.value) {
        // The pin already reads the stuck value on every vector (for a
        // Dff D pin: every captured value is the constant, and the
        // reset state is irrelevant to what the fault could change).
        return Some(Kill::Redundant);
    }
    let controlling = match gate.kind {
        GateKind::And | GateKind::Nand => false,
        GateKind::Or | GateKind::Nor => true,
        _ => return None,
    };
    let other = if p == 0 { gate.b } else { gate.a }?;
    (consts[other.index()] == Some(controlling)).then_some(Kill::Blocked)
}

/// Net mark: in the unrestricted closure of the current site set.
const TAINTED: u8 = 1;
/// Net mark: in the blocked closure of the current site set.
const REACHED: u8 = 2;

/// The tier-2 prover. Its verdicts depend only on the set of touched
/// gates, and campaign universes repeat those heavily (both polarities
/// of a site, correlated FU groups), so they are memoised. The per-net
/// marks are reused across site sets: only the nets a closure marked
/// are cleared after it, so a set costs its closures, not the netlist.
struct ConeProver<'a> {
    netlist: &'a Netlist,
    consts: &'a [Option<bool>],
    cache: HashMap<Vec<usize>, bool>,
    /// `TAINTED | REACHED` per net; all clear between site sets.
    mark: Vec<u8>,
    /// Every net the current site set marked.
    touched: Vec<usize>,
    stack: Vec<usize>,
}

impl ConeProver<'_> {
    /// `true` when no disturbance seeded at `sources` (sorted, deduped)
    /// can reach an output or alarm net.
    fn is_blind(&mut self, sources: Vec<usize>) -> bool {
        if let Some(&blind) = self.cache.get(&sources) {
            return blind;
        }
        let blind = self.closures(&sources);
        self.stack.clear();
        for n in self.touched.drain(..) {
            self.mark[n] = 0;
        }
        self.cache.insert(sources, blind);
        blind
    }

    /// Sets `bit` on net `n`; `false` if it was already set.
    fn mark(&mut self, n: usize, bit: u8) -> bool {
        let m = &mut self.mark[n];
        if *m & bit != 0 {
            return false;
        }
        if *m == 0 {
            self.touched.push(n);
        }
        *m |= bit;
        true
    }

    /// Two forward closures over the reader table, seeded at `sources`.
    /// Both follow Dff D-pin reads, so they cross cycles; a Dff can sit
    /// below its D net, so neither may assume its nets lie above the
    /// lowest source.
    ///
    /// * `TAINTED` — the unrestricted closure: a conservative superset
    ///   of every net the group could *possibly* disturb (on any
    ///   vector, in any cycle).
    /// * `REACHED` — like `TAINTED`, but a side-controlled
    ///   AND/OR/NAND/NOR reader stops propagation when its other pin is
    ///   proven constant at the controlling value and is *not* itself
    ///   tainted (a tainted "constant" pin can no longer be trusted).
    ///
    /// Any net outside `TAINTED` provably holds its fault-free value on
    /// every vector and cycle, which is what makes the blocking test
    /// valid; the truly-disturbed set is then contained in `REACHED`,
    /// so if that closure avoids all output nets the group is
    /// invisible. Returns on the first output net reached.
    fn closures(&mut self, sources: &[usize]) -> bool {
        let netlist = self.netlist;
        let gates = netlist.gates();
        for &s in sources {
            self.mark(s, TAINTED);
            self.stack.push(s);
        }
        while let Some(n) = self.stack.pop() {
            for &(h, _) in netlist.readers(n) {
                if self.mark(h as usize, TAINTED) {
                    self.stack.push(h as usize);
                }
            }
        }
        for &s in sources {
            if netlist.is_output_net(s) {
                return false;
            }
            self.mark(s, REACHED);
            self.stack.push(s);
        }
        while let Some(n) = self.stack.pop() {
            for &(h, p) in netlist.readers(n) {
                let h = h as usize;
                if self.mark[h] & REACHED != 0 {
                    continue;
                }
                let gate = &gates[h];
                let blocked = match gate.kind {
                    GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => {
                        let controlling = matches!(gate.kind, GateKind::Or | GateKind::Nor);
                        let other = if p == 0 { gate.b } else { gate.a };
                        other.is_some_and(|o| {
                            self.consts[o.index()] == Some(controlling)
                                && self.mark[o.index()] & TAINTED == 0
                        })
                    }
                    _ => false,
                };
                if !blocked {
                    if netlist.is_output_net(h) {
                        return false;
                    }
                    self.mark(h, REACHED);
                    self.stack.push(h);
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_netlist::{NetlistBuilder, StuckSite};

    fn stem(gate: usize, value: bool) -> StuckAtLine {
        StuckAtLine::new(StuckSite { gate, pin: None }, value)
    }

    fn pin(gate: usize, pin: u8, value: bool) -> StuckAtLine {
        StuckAtLine::new(
            StuckSite {
                gate,
                pin: Some(pin),
            },
            value,
        )
    }

    fn singletons(n: &Netlist) -> Vec<Vec<StuckAtLine>> {
        n.fault_lines().iter().map(|&l| vec![l]).collect()
    }
    use scdp_netlist::Netlist;

    /// Sticking a zero-tied net at 0 is redundant; at 1 it is live.
    #[test]
    fn constant_nets_yield_redundant_verdicts() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let z = b.constant(false);
        let y = b.or(a, z);
        b.output("y", &[y]);
        let n = b.finish();
        let pu = PrunedUniverse::build(
            &n,
            &[vec![stem(z.index(), false)], vec![stem(z.index(), true)]],
        );
        assert_eq!(
            pu.verdict(0),
            Verdict::ProvenUntestable(UntestableReason::Redundant)
        );
        assert_eq!(pu.verdict(1), Verdict::MustSimulate);
    }

    /// A pin behind a controlling-constant side input is blocked: the
    /// AND's other pin is tied to 0, so the faulted pin never matters.
    #[test]
    fn controlling_side_constant_blocks_a_pin() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let z = b.constant(false);
        let y = b.and(a, z);
        let w = b.or(y, a);
        b.output("w", &[w]);
        let n = b.finish();
        // Pin 0 of the AND reads `a` (not constant): s-a-1 on it is a
        // no-op only because pin 1 is tied to the controlling 0.
        let pu = PrunedUniverse::build(&n, &[vec![pin(y.index(), 0, true)]]);
        assert_eq!(
            pu.verdict(0),
            Verdict::ProvenUntestable(UntestableReason::Blocked)
        );
    }

    /// A fault whose only path to the outputs runs through a
    /// controlling-constant gate is unobservable even though the fault
    /// itself genuinely disturbs its net.
    #[test]
    fn blocked_path_yields_unobservable() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 2);
        let z = b.constant(false);
        let x = b.xor(a[0], a[1]); // genuinely live net…
        let y = b.and(x, z); // …read only through a killed AND
        let w = b.or(y, a[0]);
        b.output("w", &[w]);
        let n = b.finish();
        let pu = PrunedUniverse::build(&n, &[vec![stem(x.index(), true)]]);
        assert_eq!(
            pu.verdict(0),
            Verdict::ProvenUntestable(UntestableReason::Unobservable)
        );
    }

    /// The blocking test must refuse a "constant" side pin that the
    /// group itself taints: un-consting the side input re-opens the
    /// path, and the combined fault *is* detectable (a0=a1=0 shows
    /// out 0→1), so claiming `Unobservable` here would be unsound.
    #[test]
    fn tainted_side_constant_does_not_block() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 2);
        let z = b.constant(false);
        let w = b.buf(z); // proven constant 0 — until the group taints z
        let x = b.xor(a[0], a[1]);
        let y = b.and(x, w);
        let out = b.or(y, a[0]);
        b.output("out", &[out]);
        let n = b.finish();
        // Alone, x s-a-1 is unobservable (the AND is killed by w=0)…
        let pu = PrunedUniverse::build(
            &n,
            &[
                vec![stem(x.index(), true)],
                vec![stem(x.index(), true), stem(z.index(), true)],
            ],
        );
        assert_eq!(
            pu.verdict(0),
            Verdict::ProvenUntestable(UntestableReason::Unobservable)
        );
        // …but grouped with z s-a-1 the side pin is tainted: no proof.
        assert_eq!(pu.verdict(1), Verdict::MustSimulate);
    }

    /// Dff-aware closure: a disturbance captured by a Dff re-emerges at
    /// Q next cycle and must still count as reaching the output.
    #[test]
    fn disturbance_propagates_through_dffs() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let q = b.dff();
        let x = b.not(a);
        b.connect_dff(q, x);
        let y = b.buf(q);
        b.output("y", &[y]);
        let n = b.finish();
        let pu = PrunedUniverse::build(&n, &[vec![stem(x.index(), true)]]);
        assert_eq!(pu.verdict(0), Verdict::MustSimulate);
    }

    /// Whole-universe sweep on a mux-with-dead-leg shape: the verdict
    /// split matches the constant structure.
    #[test]
    fn dead_mux_leg_universe_splits_as_expected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 2);
        let z = b.constant(false);
        let dead = b.and(a[0], z); // dead leg: constantly 0
        let y = b.or(dead, a[1]);
        b.output("y", &[y]);
        let n = b.finish();
        let pu = PrunedUniverse::build(&n, &singletons(&n));
        assert_eq!(pu.len(), n.fault_lines().len());
        assert!(pu.untestable_count() >= 4, "dead-leg lines must prune");
        assert_eq!(pu.untestable_indices().len(), pu.untestable_count());
    }

    /// An empty group is the fault-free machine.
    #[test]
    fn empty_group_is_redundant() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        b.output("y", &[a]);
        let n = b.finish();
        let pu = PrunedUniverse::build(&n, &[vec![]]);
        assert_eq!(
            pu.verdict(0),
            Verdict::ProvenUntestable(UntestableReason::Redundant)
        );
    }
}
