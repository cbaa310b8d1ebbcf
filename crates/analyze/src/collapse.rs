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
//! Every rewrite moves a fault downstream (pin → own stem, stem → the
//! single reader pin on a later gate; a Dff D pin reading a later net
//! ends the chase), so [`CollapsedUniverse::build`] resolves the whole
//! universe in **one pass over the gates in descending index order**,
//! into dense `u32` tables keyed by line — linear in the netlist, with
//! no per-line walk. The class-member table and the dominance edges
//! below are built on first use: no campaign path reads them.
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
use std::sync::OnceLock;

/// Dense key for a [`StuckAtLine`]: `(gate, pin∈{stem,0,1}, value)`.
/// Ascending keys enumerate a netlist's lines in
/// [`Netlist::fault_lines`] order.
pub(crate) fn line_key(line: &StuckAtLine) -> usize {
    let pin_code = match line.site.pin {
        None => 0,
        Some(p) => p as usize + 1,
    };
    (line.site.gate * 3 + pin_code) * 2 + usize::from(line.value)
}

/// The line a dense key names — the inverse of [`line_key`].
fn key_line(key: u32) -> StuckAtLine {
    let site = key as usize >> 1;
    let pin = match site % 3 {
        0 => None,
        code => Some(code as u8 - 1),
    };
    StuckAtLine::new(
        StuckSite {
            gate: site / 3,
            pin,
        },
        key & 1 != 0,
    )
}

/// A key slot naming no line of the universe (a pin its gate lacks).
const NONE: u32 = u32::MAX;

/// The result of collapsing a netlist's single-stuck-at line universe.
///
/// Maps every original [`StuckAtLine`] to its equivalence-class
/// representative; the reverse fan-out table (representative → all
/// members) and the informational dominance edges are built on first
/// use.
#[derive(Clone, Debug)]
pub struct CollapsedUniverse {
    /// `rep[line_key]` — key of each line's representative (chase
    /// rewrites plus constant-redundancy folding), [`NONE`] for slots
    /// outside the universe.
    rep: Vec<u32>,
    /// Chase-only representatives — used for multi-line groups, where
    /// redundancy folding would be unsound (a co-injected fault can
    /// un-constant the cone a "redundant" line sits on).
    chased: Vec<u32>,
    /// Lines in the universe.
    lines: usize,
    /// Distinct representatives.
    classes: usize,
    /// Gate kinds, for the dominance edges.
    kinds: Vec<GateKind>,
    /// Representative → every member of its class (fan-out table).
    members: OnceLock<ClassTable>,
    /// `(dominator, dominated)` pairs from local gate rules.
    dominance: OnceLock<Vec<(StuckAtLine, StuckAtLine)>>,
}

/// The class-member table in compressed form: the members of the class
/// whose representative has key `k` are `lines[off[k]..off[k + 1]]`, in
/// [`Netlist::fault_lines`] order.
#[derive(Clone, Debug)]
struct ClassTable {
    off: Vec<u32>,
    lines: Vec<StuckAtLine>,
}

impl CollapsedUniverse {
    /// Collapses the full stuck-at universe of `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has so many gates that its line keys
    /// overflow `u32`.
    #[must_use]
    pub fn build(netlist: &Netlist) -> Self {
        let gates = netlist.gates();
        let slots = gates.len() * 6;
        assert!(slots < NONE as usize, "too many gates for u32 line keys");
        let key = |gate: usize, pin: Option<u8>, value: bool| {
            line_key(&StuckAtLine::new(StuckSite { gate, pin }, value)) as u32
        };
        // Every chase step moves a fault downstream — pin → own stem,
        // stem → its single reader pin on a later gate — so one pass in
        // descending gate order finds each target already resolved. The
        // exception is a stem read only by a Dff D pin at or before it:
        // that target is unresolved here, and since Dff pins never
        // rewrite, it is its own representative.
        let mut chased = vec![NONE; slots];
        for (g, gate) in gates.iter().enumerate().rev() {
            // Stem fault: with structural fanout 1 and no output
            // observer, only the single reader pin sees the net.
            let reader = match netlist.readers(g) {
                &[(h, p)] if !netlist.is_output_net(g) => Some((h as usize, p)),
                _ => None,
            };
            for value in [false, true] {
                let stem = key(g, None, value);
                chased[stem as usize] = reader.map_or(stem, |(h, p)| {
                    let target = key(h, Some(p), value);
                    match chased[target as usize] {
                        NONE => target,
                        rep => rep,
                    }
                });
            }
            // Input-pin fault: fold into the gate's own stem (resolved
            // just above) when the pin value forces or transfers to it.
            for p in 0..gate.kind.pins() {
                for value in [false, true] {
                    let pin = key(g, Some(p), value);
                    chased[pin as usize] = pin_rewrite(gate.kind, value)
                        .map_or(pin, |v| chased[key(g, None, v) as usize]);
                }
            }
        }
        // A line is redundant when the net it forces already constantly
        // holds the stuck value — the faulty function is the fault-free
        // function, so all such lines share one class, represented by
        // the first redundant chased line in `fault_lines` order. The
        // check runs on the *chased* form; every chase rewrite of a
        // syntactically redundant line is syntactically redundant again
        // (a forced const input makes the output const at the forced
        // value), so nothing is missed.
        let consts = netlist.constants();
        let redundant = |k: u32| -> bool {
            let line = key_line(k);
            let src = match line.site.pin {
                None => Some(line.site.gate),
                Some(p) => {
                    let g = &gates[line.site.gate];
                    let net = if p == 0 { g.a } else { g.b };
                    net.map(scdp_netlist::NetId::index)
                }
            };
            src.and_then(|n| consts[n]) == Some(line.value)
        };
        let mut rep = chased.clone();
        let mut shared = NONE;
        let mut is_rep = vec![false; slots];
        let (mut lines, mut classes) = (0, 0);
        for r in rep.iter_mut().filter(|r| **r != NONE) {
            if redundant(*r) {
                if shared == NONE {
                    shared = *r;
                }
                *r = shared;
            }
            lines += 1;
            if !is_rep[*r as usize] {
                is_rep[*r as usize] = true;
                classes += 1;
            }
        }
        CollapsedUniverse {
            rep,
            chased,
            lines,
            classes,
            kinds: gates.iter().map(|g| g.kind).collect(),
            members: OnceLock::new(),
            dominance: OnceLock::new(),
        }
    }

    /// The representative of `line`'s equivalence class. Lines outside
    /// the netlist's universe are their own representative.
    #[must_use]
    pub fn representative(&self, line: StuckAtLine) -> StuckAtLine {
        lookup(&self.rep, line)
    }

    /// Every member of the class represented by `rep` (empty if `rep`
    /// is not a representative), in [`Netlist::fault_lines`] order.
    #[must_use]
    pub fn class_members(&self, rep: StuckAtLine) -> &[StuckAtLine] {
        let table = self.members.get_or_init(|| {
            // Counting sort of the lines by representative key.
            let mut off = vec![0u32; self.rep.len() + 1];
            for &r in self.rep.iter().filter(|&&r| r != NONE) {
                off[r as usize + 1] += 1;
            }
            for k in 0..self.rep.len() {
                off[k + 1] += off[k];
            }
            let mut next = off.clone();
            let mut lines = vec![key_line(0); self.lines];
            for (k, &r) in self.rep.iter().enumerate().filter(|&(_, &r)| r != NONE) {
                lines[next[r as usize] as usize] = key_line(k as u32);
                next[r as usize] += 1;
            }
            ClassTable { off, lines }
        });
        let k = line_key(&rep);
        if k >= self.rep.len() {
            return &[];
        }
        &table.lines[table.off[k] as usize..table.off[k + 1] as usize]
    }

    /// Number of lines in the original universe (sites × 2 polarities).
    #[must_use]
    pub fn sites_before(&self) -> usize {
        self.lines
    }

    /// Number of equivalence classes — lines left after collapsing.
    #[must_use]
    pub fn sites_after(&self) -> usize {
        self.classes
    }

    /// Alias for [`CollapsedUniverse::sites_after`].
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// `sites_after / sites_before` — the collapse ratio (lower is
    /// better; classic circuits land around 0.4–0.6).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.lines == 0 {
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
    /// on [`crate::PrunedUniverse`] proofs alone. Built on first use.
    #[must_use]
    pub fn dominance_edges(&self) -> &[(StuckAtLine, StuckAtLine)] {
        self.dominance.get_or_init(|| {
            let mut dominance = Vec::new();
            for (g, &kind) in self.kinds.iter().enumerate() {
                // `stem s-a-v` is detected by any test for `pin s-a-w`:
                // (AND,1,1), (OR,0,0), (NAND,0,1), (NOR,1,0).
                let (stem_v, pin_v) = match kind {
                    GateKind::And => (true, true),
                    GateKind::Or => (false, false),
                    GateKind::Nand => (false, true),
                    GateKind::Nor => (true, false),
                    _ => continue,
                };
                let stem = StuckAtLine::new(StuckSite { gate: g, pin: None }, stem_v);
                for pin in 0..kind.pins() {
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
            dominance
        })
    }

    /// The *chase-only* representative of `line` — equivalence rewrites
    /// without constant-redundancy folding, so the result always has
    /// the exact same faulty function as `line` even inside multi-line
    /// groups. Lines outside the universe map to themselves.
    #[must_use]
    pub fn chased(&self, line: StuckAtLine) -> StuckAtLine {
        lookup(&self.chased, line)
    }

    /// Collapses a campaign's fault-group universe: groups whose
    /// *canonical forms* (every line mapped to its representative,
    /// sorted, deduplicated) coincide are equivalent as a whole, so
    /// simulating one per class reproduces every member's verdict
    /// bit-for-bit. Classes are numbered in order of their first
    /// member.
    ///
    /// A group whose canonical form would place conflicting values on
    /// one site (e.g. `{pin0 s-a-0, stem s-a-1}` on one AND — the
    /// rewrite would lose the engine's last-wins semantics) is kept as
    /// its own singleton class rather than risk a wrong merge.
    #[must_use]
    pub fn collapse_groups(&self, groups: &[Vec<StuckAtLine>]) -> CollapsedGroups {
        /// A canonical form seen before: its keys `arena[start..end]`,
        /// its class, and the next form in its bucket.
        struct Form {
            start: usize,
            end: usize,
            class: usize,
            next: u32,
        }
        // Forms are bucketed by their smallest key, which is dense and
        // nearly unique per form (a singleton's key is its form).
        let buckets = self.rep.len().max(1);
        let mut head = vec![NONE; buckets];
        let mut forms: Vec<Form> = Vec::new();
        let mut arena: Vec<u32> = Vec::new();
        let mut canon: Vec<u32> = Vec::new();
        let mut rep_groups = Vec::new();
        let mut rep_index = Vec::new();
        let mut class_of = Vec::with_capacity(groups.len());
        for (i, group) in groups.iter().enumerate() {
            let mut class = rep_groups.len();
            if self.canonical(group, &mut canon) {
                let bucket = canon.first().map_or(0, |&k| k as usize % buckets);
                let mut f = head[bucket];
                while f != NONE && arena[forms[f as usize].start..forms[f as usize].end] != canon {
                    f = forms[f as usize].next;
                }
                if f == NONE {
                    forms.push(Form {
                        start: arena.len(),
                        end: arena.len() + canon.len(),
                        class,
                        next: head[bucket],
                    });
                    arena.extend_from_slice(&canon);
                    head[bucket] = (forms.len() - 1) as u32;
                } else {
                    class = forms[f as usize].class;
                }
            }
            if class == rep_groups.len() {
                rep_groups.push(group.clone());
                rep_index.push(i);
            }
            class_of.push(class);
        }
        CollapsedGroups {
            rep_groups,
            rep_index,
            class_of,
        }
    }

    /// Writes the canonical form of a fault group into `out`: each line
    /// mapped to its representative's key, sorted, deduplicated.
    /// `false` if two lines land on the same site with conflicting
    /// values (or a line outside the universe has no `u32` key).
    /// Singleton groups use the full mapping; multi-line groups use
    /// chase-only rewrites, because constant-redundancy folding assumes
    /// the fault-free constant cone — which a co-injected group member
    /// can break.
    fn canonical(&self, group: &[StuckAtLine], out: &mut Vec<u32>) -> bool {
        let table = if group.len() == 1 {
            &self.rep
        } else {
            &self.chased
        };
        out.clear();
        for line in group {
            let k = line_key(line);
            match table.get(k) {
                Some(&r) if r != NONE => out.push(r),
                _ => match u32::try_from(k) {
                    Ok(k) if k != NONE => out.push(k),
                    _ => return false,
                },
            }
        }
        out.sort_unstable();
        out.dedup();
        // Same site, both polarities.
        !out.windows(2).any(|w| w[0] >> 1 == w[1] >> 1)
    }
}

/// `table[line_key(line)]` as a line; `line` itself outside the table.
fn lookup(table: &[u32], line: StuckAtLine) -> StuckAtLine {
    match table.get(line_key(&line)) {
        Some(&r) if r != NONE => key_line(r),
        _ => line,
    }
}

/// The stem value an input-pin fault folds into, if any: the
/// constant-forcing rules (AND/NAND input s-a-0, OR/NOR input s-a-1)
/// and the NOT/BUF transfer rules. XOR/XNOR and Dff pins never rewrite.
fn pin_rewrite(kind: GateKind, value: bool) -> Option<bool> {
    match (kind, value) {
        (GateKind::And, false) => Some(false),
        (GateKind::Or, true) => Some(true),
        (GateKind::Nand, false) => Some(true),
        (GateKind::Nor, true) => Some(false),
        (GateKind::Not, v) => Some(!v),
        (GateKind::Buf, v) => Some(v),
        _ => None,
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
    /// Number of groups that actually need simulating.
    #[must_use]
    pub fn groups_after(&self) -> usize {
        self.rep_groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_netlist::NetlistBuilder;
    use std::collections::BTreeMap;

    /// Chases local equivalence rewrites from one line to a fixpoint —
    /// the per-line walk [`CollapsedUniverse::build`] replaced, kept as
    /// its differential oracle. Each step moves the fault strictly
    /// downstream (pin → own stem, stem → single reader pin), so the
    /// chase terminates; the visited guard makes that robust even for
    /// hand-built IR with Dff back-edges.
    fn chase(netlist: &Netlist, mut line: StuckAtLine) -> StuckAtLine {
        let gates = netlist.gates();
        let mut visited = vec![line_key(&line)];
        loop {
            let next = match line.site.pin {
                Some(_) => {
                    let g = line.site.gate;
                    let stem =
                        |v: bool| Some(StuckAtLine::new(StuckSite { gate: g, pin: None }, v));
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

    /// The per-line collapse over [`chase`]: representatives, chase-only
    /// representatives and the member table, keyed by [`line_key`].
    struct Oracle {
        rep: BTreeMap<usize, StuckAtLine>,
        chased: BTreeMap<usize, StuckAtLine>,
        members: BTreeMap<usize, Vec<StuckAtLine>>,
    }

    impl Oracle {
        fn build(netlist: &Netlist) -> Self {
            let gates = netlist.gates();
            let consts = netlist.constants();
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
            let mut oracle = Oracle {
                rep: BTreeMap::new(),
                chased: BTreeMap::new(),
                members: BTreeMap::new(),
            };
            let mut redundant_rep: Option<StuckAtLine> = None;
            for line in netlist.fault_lines() {
                let chased = chase(netlist, line);
                let r = if redundant(&chased) {
                    *redundant_rep.get_or_insert(chased)
                } else {
                    chased
                };
                oracle.rep.insert(line_key(&line), r);
                oracle.chased.insert(line_key(&line), chased);
                oracle.members.entry(line_key(&r)).or_default().push(line);
            }
            oracle
        }

        fn collapse_groups(&self, groups: &[Vec<StuckAtLine>]) -> CollapsedGroups {
            #[derive(PartialEq, Eq, PartialOrd, Ord)]
            enum Key {
                Canon(Vec<usize>),
                Unique(usize),
            }
            let mut seen: BTreeMap<Key, usize> = BTreeMap::new();
            let mut rep_groups = Vec::new();
            let mut rep_index = Vec::new();
            let mut class_of = Vec::new();
            for (i, group) in groups.iter().enumerate() {
                let table = if group.len() == 1 {
                    &self.rep
                } else {
                    &self.chased
                };
                let mut keys: Vec<usize> = group
                    .iter()
                    .map(|l| line_key(table.get(&line_key(l)).unwrap_or(l)))
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                let conflict = keys.windows(2).any(|w| w[0] >> 1 == w[1] >> 1);
                let key = if conflict {
                    Key::Unique(i)
                } else {
                    Key::Canon(keys)
                };
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
    }

    /// The one-pass tables agree with the per-line oracle on every line
    /// of `netlist`, and group collapsing agrees on `groups` and on the
    /// singleton line universe. Returns the class count.
    fn assert_matches_oracle(netlist: &Netlist, groups: &[Vec<StuckAtLine>]) -> usize {
        let cu = CollapsedUniverse::build(netlist);
        let oracle = Oracle::build(netlist);
        let lines = netlist.fault_lines();
        for &line in &lines {
            let k = line_key(&line);
            let rep = cu.representative(line);
            assert_eq!(rep, oracle.rep[&k], "representative of {line:?}");
            assert_eq!(cu.chased(line), oracle.chased[&k], "chased {line:?}");
            for probe in [line, rep] {
                let expect = oracle
                    .members
                    .get(&line_key(&probe))
                    .map_or(&[][..], Vec::as_slice);
                assert_eq!(cu.class_members(probe), expect, "members of {probe:?}");
            }
        }
        assert_eq!(cu.sites_before(), lines.len());
        assert_eq!(cu.classes(), oracle.members.len());
        let singletons: Vec<Vec<StuckAtLine>> = lines.iter().map(|&l| vec![l]).collect();
        for groups in [groups, &singletons] {
            let (got, want) = (cu.collapse_groups(groups), oracle.collapse_groups(groups));
            assert_eq!(got.rep_groups, want.rep_groups);
            assert_eq!(got.rep_index, want.rep_index);
            assert_eq!(got.class_of, want.class_of);
        }
        cu.classes()
    }

    /// The FIR loop body with both checking techniques, synthesised
    /// with the campaign defaults, elaborated unrolled or sequential.
    fn fir_both(width: u32, seq: bool) -> (Netlist, Vec<Vec<StuckAtLine>>) {
        use scdp_hls::{bind, expand_sck, sched, BindOptions, ComponentLibrary, ResourceSet};
        let dfg = expand_sck(
            &scdp_fir::fir_body_dfg(),
            scdp_core::Technique::Both,
            scdp_hls::SckStyle::Full,
        );
        let lib = ComponentLibrary::virtex16();
        let schedule = sched::list_schedule(&dfg, &lib, &ResourceSet::min_area());
        let opts = BindOptions {
            separate_checkers: false,
            no_sharing: false,
        };
        let binding = bind(&dfg, &schedule, &lib, opts);
        if seq {
            let dp = scdp_netlist::gen::elaborate_seq_datapath(&dfg, &schedule, &binding, width);
            let groups = dp.fault_universe().0;
            (dp.netlist, groups)
        } else {
            let dp = scdp_netlist::gen::elaborate_datapath(&dfg, &schedule, &binding, width);
            let groups = dp.fault_universe().0;
            (dp.netlist, groups)
        }
    }

    #[test]
    fn one_pass_matches_oracle_on_unrolled_fir() {
        for width in [4, 8] {
            let (netlist, groups) = fir_both(width, false);
            let classes = assert_matches_oracle(&netlist, &groups);
            if width == 8 {
                // The count `scdp lint --workload fir --width 8` prints.
                assert_eq!(classes, 9_602);
            }
        }
    }

    #[test]
    fn one_pass_matches_oracle_on_sequential_fir() {
        for width in [4, 8] {
            let (netlist, groups) = fir_both(width, true);
            assert!(netlist.is_sequential());
            let classes = assert_matches_oracle(&netlist, &groups);
            if width == 4 {
                // The count `scdp lint --workload fir --seq --width 4` prints.
                assert_eq!(classes, 1_613);
            }
        }
    }

    #[test]
    fn one_pass_matches_oracle_on_an_operator() {
        let dp = scdp_netlist::gen::self_checking(scdp_netlist::gen::SelfCheckingSpec {
            op: scdp_core::Operator::Mul,
            technique: scdp_core::Technique::Both,
            width: 4,
        });
        let groups: Vec<Vec<StuckAtLine>> = dp
            .local_sites()
            .iter()
            .flat_map(|s| [false, true].map(|v| dp.correlated_fault(*s, v)))
            .collect();
        assert_matches_oracle(&dp.netlist, &groups);
    }

    /// Hand-built registers: a two-Dff loop through logic, a stem whose
    /// single reader is an *earlier* Dff's D pin (unresolved when the
    /// descending pass reaches it), self-looped Dffs, and a constant
    /// feeding redundant lines.
    #[test]
    fn one_pass_matches_oracle_on_dff_loops() {
        let mut b = NetlistBuilder::new("loops");
        let a = b.input_bus("a", 2);
        let q0 = b.dff();
        let q1 = b.dff();
        let s = b.dff();
        let zero = b.constant(false);
        let x = b.and(q0, a[0]);
        let y = b.not(x);
        b.connect_dff(q1, y); // `y`'s only reader is the earlier q1
        let z = b.or(q1, a[1]);
        let w = b.buf(z);
        b.connect_dff(q0, w); // q0 → x → y → q1 → z → w → q0
        b.connect_dff(s, s);
        let t = b.dff();
        b.connect_dff(t, t); // `t`'s only reader is itself
        let m = b.and(s, zero);
        let o = b.or(m, a[0]);
        let r = b.or(a[1], zero);
        let e = b.xor(q1, s);
        b.output("y", &[o, r]);
        b.output("error", &[e]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        assert_eq!(
            cu.representative(stem(y.index(), true)),
            pin(q1.index(), 0, true)
        );
        assert_eq!(cu.chased(stem(t.index(), false)), pin(t.index(), 0, false));
        // Three distinct chased lines stick a constant-0 net at 0.
        let noop = cu.representative(stem(zero.index(), false));
        assert_eq!(cu.representative(pin(o.index(), 0, false)), noop);
        assert_eq!(cu.representative(pin(r.index(), 1, false)), noop);
        let lines = n.fault_lines();
        let groups: Vec<Vec<StuckAtLine>> = lines
            .chunks(3)
            .map(<[StuckAtLine]>::to_vec)
            .chain(lines.windows(2).map(<[StuckAtLine]>::to_vec))
            .collect();
        assert_matches_oracle(&n, &groups);
    }

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
