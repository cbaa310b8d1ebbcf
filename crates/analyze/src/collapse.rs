//! Stuck-at fault-equivalence collapsing.
//!
//! Classic structural collapsing shrinks the single-stuck-at universe
//! *before a single vector is simulated*, using only local gate
//! identities and fanout-free-region (FFR) chaining:
//!
//! * **constant-forcing rules** — s-a-0 on an AND input forces the
//!   output to 0 exactly like s-a-0 on its stem, so the two faults have
//!   the *same faulty function* (duals: OR input s-a-1 ≡ stem s-a-1,
//!   NAND input s-a-0 ≡ stem s-a-1, NOR input s-a-1 ≡ stem s-a-0);
//! * **transfer rules** — an inverter maps input s-a-v to stem s-a-v̄, a
//!   buffer to stem s-a-v (XOR/XNOR have no such rule: an input fault
//!   turns them into a wire/inverter of the other input, which is not a
//!   stuck line);
//! * **FFR chaining** — a stem fault on a net with structural fanout 1
//!   that is not a primary output is observable only through its single
//!   reader pin, so it is equivalent to the same fault on that pin
//!   (this includes a Dff D pin: forcing the captured value is
//!   pointwise identical to forcing the net it samples);
//! * **constant redundancy** — sticking a line at the constant value it
//!   already holds (forward constant propagation from `Const` gates;
//!   datapaths tie inactive mux legs to the zero bus, so these are
//!   common) leaves the faulty function *equal to the fault-free one*,
//!   making every such fault a member of one shared class.
//!
//! Chasing these rewrites to a fixpoint assigns every line a unique
//! *representative*; two lines are equivalent iff they share one. The
//! rewrites preserve the complete faulty function — not merely
//! detectability — so a fault-simulation verdict computed for the
//! representative is *bit-identical* for every member of its class,
//! which is what lets campaign engines simulate representatives only
//! and fan verdicts back out (see `scdp-campaign`'s `.collapse(true)`).
//!
//! Dominance relations (e.g. AND stem s-a-1 is detected by any test for
//! an input s-a-1) only preserve detectability, not the four-way
//! silent/detected taxonomy this project reports, so they cannot fan a
//! verdict out the way equivalence classes do. They are still strong
//! enough to *settle* faults deductively in the one direction that is
//! safe: when a dominator's simulated outcome is completely silent, all
//! of its dominated lines are provably silent too.
//! [`crate::dominance::DominatorChains`] closes
//! [`CollapsedUniverse::dominance_edges`] into per-line dominator
//! chains that way, but no campaign path consumes them:
//! `scdp-campaign`'s `.prune(true)` pass settles groups by
//! [`crate::PrunedUniverse`] untestability proofs only, and the chains
//! survive for the benchmark harness alone.

use scdp_netlist::{GateKind, Netlist, StuckAtLine, StuckSite};
use std::collections::HashMap;

/// Dense key for a [`StuckAtLine`]: `(gate, pin∈{stem,0,1}, value)`.
pub(crate) fn line_key(line: &StuckAtLine) -> usize {
    let pin_code = match line.site.pin {
        None => 0,
        Some(p) => p as usize + 1,
    };
    (line.site.gate * 3 + pin_code) * 2 + usize::from(line.value)
}

/// The result of collapsing a netlist's single-stuck-at line universe.
///
/// Maps every original [`StuckAtLine`] to its equivalence-class
/// representative and keeps the reverse fan-out table (representative →
/// all members), plus informational dominance edges.
#[derive(Clone, Debug)]
pub struct CollapsedUniverse {
    /// `rep[line_key]` — representative of each line in the universe
    /// (chase rewrites plus constant-redundancy folding).
    rep: Vec<Option<StuckAtLine>>,
    /// Chase-only representatives — used for multi-line groups, where
    /// redundancy folding would be unsound (a co-injected fault can
    /// un-constant the cone a "redundant" line sits on).
    rep_chase: Vec<Option<StuckAtLine>>,
    /// All lines of the universe, in [`Netlist::fault_lines`] order.
    lines: Vec<StuckAtLine>,
    /// Representative → every member of its class (fan-out table).
    members: HashMap<usize, Vec<StuckAtLine>>,
    /// `(dominator, dominated)` pairs from local gate rules.
    dominance: Vec<(StuckAtLine, StuckAtLine)>,
}

impl CollapsedUniverse {
    /// Collapses the full stuck-at universe of `netlist`.
    #[must_use]
    pub fn build(netlist: &Netlist) -> Self {
        let gates = netlist.gates();
        let lines = netlist.fault_lines();
        let consts = netlist.constants();
        // A line is redundant when the net it forces already constantly
        // holds the stuck value — the faulty function is the fault-free
        // function, so all such lines share one class. The check runs on
        // the *chased* form; every chase rewrite of a syntactically
        // redundant line is syntactically redundant again (a forced
        // const input makes the output const at the forced value), so
        // nothing is missed.
        let redundant = |line: &StuckAtLine| -> bool {
            let src = match line.site.pin {
                None => Some(line.site.gate),
                Some(p) => {
                    let g = &gates[line.site.gate];
                    let net = if p == 0 { g.a } else { g.b };
                    net.map(scdp_netlist::NetId::index)
                }
            };
            src.and_then(|n| consts[n]).is_some_and(|v| v == line.value)
        };
        let mut rep = vec![None; gates.len() * 6];
        let mut rep_chase = vec![None; gates.len() * 6];
        let mut members: HashMap<usize, Vec<StuckAtLine>> = HashMap::new();
        let mut redundant_rep: Option<StuckAtLine> = None;
        for &line in &lines {
            let chased = chase(netlist, line);
            let r = if redundant(&chased) {
                *redundant_rep.get_or_insert(chased)
            } else {
                chased
            };
            rep[line_key(&line)] = Some(r);
            rep_chase[line_key(&line)] = Some(chased);
            members.entry(line_key(&r)).or_default().push(line);
        }
        let mut dominance = Vec::new();
        for (g, gate) in gates.iter().enumerate() {
            // `stem s-a-v` is detected by any test for `pin s-a-w`:
            // (AND,1,1), (OR,0,0), (NAND,0,1), (NOR,1,0).
            let (stem_v, pin_v) = match gate.kind {
                GateKind::And => (true, true),
                GateKind::Or => (false, false),
                GateKind::Nand => (false, true),
                GateKind::Nor => (true, false),
                _ => continue,
            };
            let stem = StuckAtLine::new(StuckSite { gate: g, pin: None }, stem_v);
            for pin in 0..gate.kind.pins() {
                let dominated = StuckAtLine::new(
                    StuckSite {
                        gate: g,
                        pin: Some(pin),
                    },
                    pin_v,
                );
                dominance.push((stem, dominated));
            }
        }
        CollapsedUniverse {
            rep,
            rep_chase,
            lines,
            members,
            dominance,
        }
    }

    /// The representative of `line`'s equivalence class. Lines outside
    /// the netlist's universe are their own representative.
    #[must_use]
    pub fn representative(&self, line: StuckAtLine) -> StuckAtLine {
        self.rep
            .get(line_key(&line))
            .copied()
            .flatten()
            .unwrap_or(line)
    }

    /// Every member of the class represented by `rep` (empty if `rep`
    /// is not a representative).
    #[must_use]
    pub fn class_members(&self, rep: StuckAtLine) -> &[StuckAtLine] {
        self.members.get(&line_key(&rep)).map_or(&[], Vec::as_slice)
    }

    /// Number of lines in the original universe (sites × 2 polarities).
    #[must_use]
    pub fn sites_before(&self) -> usize {
        self.lines.len()
    }

    /// Number of equivalence classes — lines left after collapsing.
    #[must_use]
    pub fn sites_after(&self) -> usize {
        self.members.len()
    }

    /// Alias for [`CollapsedUniverse::sites_after`].
    #[must_use]
    pub fn classes(&self) -> usize {
        self.members.len()
    }

    /// `sites_after / sites_before` — the collapse ratio (lower is
    /// better; classic circuits land around 0.4–0.6).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.lines.is_empty() {
            return 1.0;
        }
        self.sites_after() as f64 / self.sites_before() as f64
    }

    /// `(dominator, dominated)` pairs from local gate rules: on any
    /// vector where the dominated pin fault perturbs the gate at all,
    /// the dominator stem fault forces the *same* output value, so the
    /// two faulty machines agree net-for-net on that vector. Consumed
    /// by [`crate::dominance::DominatorChains`], which closes these
    /// edges (through equivalence-chase links) into per-line dominator
    /// chains: a dominator whose simulated outcome is completely silent
    /// settles every line it dominates without simulating it. No
    /// campaign path uses them; `scdp-campaign`'s `.prune(true)` relies
    /// on [`crate::PrunedUniverse`] proofs alone.
    #[must_use]
    pub fn dominance_edges(&self) -> &[(StuckAtLine, StuckAtLine)] {
        &self.dominance
    }

    /// The *chase-only* representative of `line` — equivalence rewrites
    /// without constant-redundancy folding, so the result always has
    /// the exact same faulty function as `line` even inside multi-line
    /// groups. Lines outside the universe map to themselves.
    #[must_use]
    pub fn chased(&self, line: StuckAtLine) -> StuckAtLine {
        self.rep_chase
            .get(line_key(&line))
            .copied()
            .flatten()
            .unwrap_or(line)
    }

    /// Collapses a campaign's fault-group universe: groups whose
    /// *canonical forms* (every line mapped to its representative,
    /// sorted, deduplicated) coincide are equivalent as a whole, so
    /// simulating one per class reproduces every member's verdict
    /// bit-for-bit.
    ///
    /// A group whose canonical form would place conflicting values on
    /// one site (e.g. `{pin0 s-a-0, stem s-a-1}` on one AND — the
    /// rewrite would lose the engine's last-wins semantics) is kept as
    /// its own singleton class rather than risk a wrong merge.
    #[must_use]
    pub fn collapse_groups(&self, groups: &[Vec<StuckAtLine>]) -> CollapsedGroups {
        #[derive(PartialEq, Eq, Hash)]
        enum Key {
            Canon(Vec<usize>),
            Unique(usize),
        }
        let mut seen: HashMap<Key, usize> = HashMap::new();
        let mut rep_groups = Vec::new();
        let mut rep_index = Vec::new();
        let mut class_of = Vec::with_capacity(groups.len());
        for (i, group) in groups.iter().enumerate() {
            let key = self.canonical(group).map_or(Key::Unique(i), Key::Canon);
            let class = *seen.entry(key).or_insert_with(|| {
                rep_groups.push(group.clone());
                rep_index.push(i);
                rep_groups.len() - 1
            });
            class_of.push(class);
        }
        CollapsedGroups {
            rep_groups,
            rep_index,
            class_of,
        }
    }

    /// Canonical form of a fault group: each line mapped to its
    /// representative, sorted, deduplicated. `None` if two lines land
    /// on the same site with conflicting values. Singleton groups use
    /// the full mapping; multi-line groups use chase-only rewrites,
    /// because constant-redundancy folding assumes the fault-free
    /// constant cone — which a co-injected group member can break.
    fn canonical(&self, group: &[StuckAtLine]) -> Option<Vec<usize>> {
        let mut keys: Vec<usize> = if group.len() == 1 {
            vec![line_key(&self.representative(group[0]))]
        } else {
            group
                .iter()
                .map(|&l| {
                    let chased = self
                        .rep_chase
                        .get(line_key(&l))
                        .copied()
                        .flatten()
                        .unwrap_or(l);
                    line_key(&chased)
                })
                .collect()
        };
        keys.sort_unstable();
        keys.dedup();
        for w in keys.windows(2) {
            if w[0] >> 1 == w[1] >> 1 {
                return None; // same site, both polarities
            }
        }
        Some(keys)
    }
}

/// Result of [`CollapsedUniverse::collapse_groups`].
#[derive(Clone, Debug)]
pub struct CollapsedGroups {
    /// One representative group per class — the (verbatim) fault lines
    /// of the class's first original member; simulate exactly these.
    pub rep_groups: Vec<Vec<StuckAtLine>>,
    /// Original group index each representative group came from.
    pub rep_index: Vec<usize>,
    /// `class_of[i]` — index into `rep_groups` for original group `i`.
    pub class_of: Vec<usize>,
}

impl CollapsedGroups {
    /// Original universe size.
    #[must_use]
    pub fn groups_before(&self) -> usize {
        self.class_of.len()
    }

    /// Number of groups that actually need simulating.
    #[must_use]
    pub fn groups_after(&self) -> usize {
        self.rep_groups.len()
    }
}

/// Chases local equivalence rewrites to a fixpoint. Each step moves the
/// fault strictly downstream (pin → own stem, stem → single reader
/// pin), so the chase terminates; the visited guard makes that robust
/// even for hand-built IR with Dff back-edges.
fn chase(netlist: &Netlist, mut line: StuckAtLine) -> StuckAtLine {
    let gates = netlist.gates();
    let mut visited = vec![line_key(&line)];
    loop {
        let next = match line.site.pin {
            Some(_) => {
                // Input-pin fault: fold into the gate's own stem when
                // the pin value forces (or transfers to) the output.
                let g = line.site.gate;
                let stem = |v: bool| Some(StuckAtLine::new(StuckSite { gate: g, pin: None }, v));
                match (gates[g].kind, line.value) {
                    (GateKind::And, false) => stem(false),
                    (GateKind::Or, true) => stem(true),
                    (GateKind::Nand, false) => stem(true),
                    (GateKind::Nor, true) => stem(false),
                    (GateKind::Not, v) => stem(!v),
                    (GateKind::Buf, v) => stem(v),
                    _ => None,
                }
            }
            None => {
                // Stem fault: with structural fanout 1 and no output
                // observer, only the single reader pin sees the net.
                let n = line.site.gate;
                match netlist.readers(n) {
                    &[(h, p)] if !netlist.is_output_net(n) => Some(StuckAtLine::new(
                        StuckSite {
                            gate: h as usize,
                            pin: Some(p),
                        },
                        line.value,
                    )),
                    _ => None,
                }
            }
        };
        match next {
            Some(l) if !visited.contains(&line_key(&l)) => {
                visited.push(line_key(&l));
                line = l;
            }
            _ => return line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_netlist::NetlistBuilder;

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

    /// `y = a & b`, y is an output: pin s-a-0 folds into stem s-a-0.
    #[test]
    fn and_pin_sa0_collapses_to_stem() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let c = b.input_bus("b", 1)[0];
        let y = b.and(a, c);
        b.output("y", &[y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        let g = y.index();
        assert_eq!(cu.representative(pin(g, 0, false)), stem(g, false));
        assert_eq!(cu.representative(pin(g, 1, false)), stem(g, false));
        // s-a-1 input faults are NOT equivalent to the stem.
        assert_eq!(cu.representative(pin(g, 0, true)), pin(g, 0, true));
        // Input stems chain through their single reader pin.
        assert_eq!(cu.representative(stem(a.index(), false)), stem(g, false));
        assert_eq!(cu.representative(stem(a.index(), true)), pin(g, 0, true));
    }

    /// Inverter chain: every fault on the chain collapses to one class
    /// per polarity at the far end.
    #[test]
    fn inverter_chain_collapses_to_two_classes_plus_ends() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let x = b.not(a);
        let y = b.not(x);
        b.output("y", &[y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        // a-stem sa0 → pin(x,0) sa0 → stem(x) sa1 → pin(y,0) sa1 → stem(y) sa0
        assert_eq!(
            cu.representative(stem(a.index(), false)),
            stem(y.index(), false)
        );
        assert_eq!(
            cu.representative(stem(x.index(), true)),
            stem(y.index(), false)
        );
        assert_eq!(
            cu.representative(stem(x.index(), false)),
            stem(y.index(), true)
        );
        // Universe: 1 input stem + 2 gates × (stem+pin) lines → 2 classes.
        assert_eq!(cu.sites_after(), 2);
        assert!(cu.ratio() < 0.3);
    }

    /// XOR pins never fold into the stem.
    #[test]
    fn xor_pins_do_not_collapse() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 2);
        let y = b.xor(a[0], a[1]);
        b.output("y", &[y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        for v in [false, true] {
            assert_eq!(
                cu.representative(pin(y.index(), 0, v)),
                pin(y.index(), 0, v)
            );
        }
    }

    /// A net with fanout 2 blocks FFR chaining.
    #[test]
    fn fanout_blocks_stem_chaining() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let x = b.not(a);
        let y = b.not(a);
        b.output("y", &[x, y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        assert_eq!(
            cu.representative(stem(a.index(), false)),
            stem(a.index(), false)
        );
    }

    /// Same net read on both pins of one gate counts as fanout 2.
    #[test]
    fn double_read_counts_as_fanout_two() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let y = b.and(a, a);
        b.output("y", &[y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        assert_eq!(
            cu.representative(stem(a.index(), true)),
            stem(a.index(), true)
        );
    }

    /// Conflicting canonical values bail to a singleton class.
    #[test]
    fn conflicting_group_is_its_own_class() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 2);
        let y = b.and(a[0], a[1]);
        b.output("y", &[y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        let g = y.index();
        // {pin0 sa0, stem sa1} canonicalises to {stem sa0, stem sa1}:
        // conflict, so it must NOT merge with {stem sa0}.
        let groups = vec![
            vec![pin(g, 0, false), stem(g, true)],
            vec![stem(g, false)],
            vec![pin(g, 1, false)],
        ];
        let cg = cu.collapse_groups(&groups);
        assert_eq!(cg.class_of[0], 0);
        assert_eq!(cg.class_of[1], 1);
        assert_eq!(cg.class_of[2], 1); // pin1 sa0 ≡ stem sa0
        assert_eq!(cg.groups_after(), 2);
        // The representative group keeps its original (uncollapsed) lines.
        assert_eq!(cg.rep_groups[1], vec![stem(g, false)]);
        assert_eq!(cg.rep_index[1], 1);
    }

    /// Dominance edges carry the textbook pairs.
    #[test]
    fn dominance_edges_for_and() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 2);
        let y = b.and(a[0], a[1]);
        b.output("y", &[y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        let g = y.index();
        assert!(cu
            .dominance_edges()
            .contains(&(stem(g, true), pin(g, 0, true))));
    }

    /// Dominance edges for the OR/NAND/NOR duals of the AND rule.
    #[test]
    fn dominance_edges_for_or_nand_nor() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 2);
        let o = b.or(a[0], a[1]);
        let nd = b.nand(a[0], a[1]);
        let nr = b.nor(a[0], a[1]);
        b.output("y", &[o, nd, nr]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        for p in 0..2 {
            // OR: stem s-a-0 dominated by pin s-a-0.
            assert!(cu
                .dominance_edges()
                .contains(&(stem(o.index(), false), pin(o.index(), p, false))));
            // NAND: stem s-a-0 dominated by pin s-a-1.
            assert!(cu
                .dominance_edges()
                .contains(&(stem(nd.index(), false), pin(nd.index(), p, true))));
            // NOR: stem s-a-1 dominated by pin s-a-0.
            assert!(cu
                .dominance_edges()
                .contains(&(stem(nr.index(), true), pin(nr.index(), p, false))));
        }
    }

    /// NOT/BUF pin faults are exact *equivalences* (transfer rules), so
    /// they contribute chase links, never dominance edges.
    #[test]
    fn inverters_and_buffers_produce_no_dominance_edges() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let x = b.not(a);
        let y = b.buf(x);
        b.output("y", &[y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        assert!(cu.dominance_edges().is_empty());
        // The transfer rules show up as equivalences instead.
        assert_eq!(cu.chased(pin(x.index(), 0, false)), stem(y.index(), true));
        assert_eq!(cu.chased(pin(y.index(), 0, true)), stem(y.index(), true));
    }

    /// Brute-force soundness of every dominance edge on a mixed
    /// netlist with AND/OR/NAND/NOR/NOT/BUF and a fanout-free chain:
    /// on every vector where the dominated fault disturbs any output,
    /// the dominator produces the *identical* faulty outputs — the
    /// containment `scdp-campaign`'s dominance settling relies on.
    #[test]
    fn dominance_edges_are_brute_force_sound() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 4);
        let x = b.or(a[0], a[1]);
        let y = b.nand(x, a[2]);
        // Fanout-free chain hanging off the NOR: nor → not → buf → and.
        let z = b.nor(y, a[3]);
        let w = b.not(z);
        let v = b.buf(w);
        let u = b.and(v, a[0]);
        b.output("y", &[u, y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        assert!(cu.dominance_edges().len() >= 8, "AND/OR/NAND/NOR each edge");
        let outs = |faults: &[StuckAtLine], bits: &[bool]| -> Vec<bool> {
            let values = n.eval_nets(bits, faults);
            n.outputs()
                .iter()
                .flat_map(|(_, bus)| bus.iter().map(|net| values[net.index()]))
                .collect()
        };
        for &(dom, sub) in cu.dominance_edges() {
            let mut perturbs = false;
            for word in 0..(1u32 << n.input_bits()) {
                let bits: Vec<bool> = (0..n.input_bits()).map(|i| word >> i & 1 != 0).collect();
                let good = outs(&[], &bits);
                let faulty = outs(&[sub], &bits);
                if faulty != good {
                    perturbs = true;
                    assert_eq!(
                        outs(&[dom], &bits),
                        faulty,
                        "dominator {dom:?} must replay dominated {sub:?} exactly"
                    );
                }
            }
            // The netlist is small enough that every edge's dominated
            // fault is actually detectable — the check above is live.
            assert!(perturbs, "edge ({dom:?}, {sub:?}) never witnessed");
        }
    }

    /// Dff D-pin: an upstream stem with fanout 1 into the D input
    /// chains onto the Dff capture pin.
    #[test]
    fn stem_chains_into_dff_d_pin() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let q = b.dff();
        let d = b.not(a);
        b.connect_dff(q, d);
        b.output("y", &[q]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        assert_eq!(
            cu.representative(stem(d.index(), true)),
            pin(q.index(), 0, true)
        );
    }

    /// Faults that stick a constant net at its own value are redundant
    /// and share one class — but only for single-fault semantics: in a
    /// multi-line group the chase-only mapping keeps them distinct.
    #[test]
    fn constant_redundant_faults_share_one_class() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let z = b.constant(false);
        let y = b.and(a, z);
        let w = b.or(a, z);
        b.output("y", &[y]);
        b.output("w", &[w]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        // z-stem sa0, the AND/OR pins reading z stuck at 0, and the
        // whole AND cone (its output is constantly 0) are all no-ops.
        let r = cu.representative(stem(z.index(), false));
        assert_eq!(cu.representative(pin(y.index(), 1, false)), r);
        assert_eq!(cu.representative(pin(w.index(), 1, false)), r);
        assert_eq!(cu.representative(stem(y.index(), false)), r);
        // Sticking the const net at 1 is a real fault.
        assert_ne!(cu.representative(stem(z.index(), true)), r);
        // Multi-line groups fall back to chase-only rewrites: a group
        // containing {z sa1, y-pin-z sa0} must not fold the second
        // line into the redundant class (z sa1 un-consts the net).
        let groups = vec![
            vec![stem(z.index(), true), pin(y.index(), 1, false)],
            vec![stem(z.index(), true), pin(w.index(), 1, false)],
        ];
        let cg = cu.collapse_groups(&groups);
        assert_eq!(cg.groups_after(), 2, "no unsound multi-line merge");
    }

    /// Every member listed in the class-member (fan-out) table maps back
    /// to its rep.
    #[test]
    fn class_member_table_is_consistent() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 3);
        let x = b.and(a[0], a[1]);
        let y = b.or(x, a[2]);
        b.output("y", &[y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        let mut total = 0;
        for &line in &n.fault_lines() {
            let rep = cu.representative(line);
            assert_eq!(cu.representative(rep), rep, "rep must be a fixpoint");
            assert!(cu.class_members(rep).contains(&line));
            total += 1;
        }
        assert_eq!(total, cu.sites_before());
    }
}
