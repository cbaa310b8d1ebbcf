//! Dominator chains: the consumer of
//! [`CollapsedUniverse::dominance_edges`].
//!
//! A dominance edge `(dominator stem, dominated pin)` is stronger than
//! textbook detectability containment: on any vector where the
//! dominated pin fault perturbs its gate at all, both faults force the
//! *same* gate-output value, so the two faulty machines agree
//! net-for-net on that vector. Chaining such edges through the
//! equivalence-chase rewrites (which preserve the faulty function
//! exactly) yields, per line, a chain `l → e₁ → … → eₖ` where each
//! step carries the same guarantee.
//!
//! That supports exactly one deductive move: if the chain's **root** `eₖ` simulates *completely
//! silent* — its outcome over the whole vector stream equals the
//! fault-free baseline — then by downward induction every `eᵢ` and
//! finally `l` is silent with the identical (baseline) outcome. On any
//! vector where `l` perturbed, its machine would equal `e₁`'s, whose
//! outputs equal the fault-free ones by induction; on all other
//! vectors `l`'s machine *is* the fault-free machine. If the root is
//! anything but silent, nothing can be concluded and the dominated
//! line must be simulated after all — pruning stays bit-identical
//! either way, it only saves work when the root stays quiet.
//!
//! Chains are only built over single-fault semantics (singleton
//! groups on combinational netlists); the argument is per-vector, so
//! it does not survive sequential state divergence across cycles.
//!
//! No campaign path consumes chains: `scdp-campaign`'s `.prune(true)`
//! settles groups by [`crate::PrunedUniverse`] untestability proofs
//! alone, which need no simulated root. The chains remain for the
//! benchmark harness, which times them.

use crate::collapse::{line_key, CollapsedUniverse};
use scdp_netlist::{Netlist, StuckAtLine};
use std::collections::HashMap;

/// Per-line dominator chains closed over a netlist's dominance edges
/// and equivalence-chase links.
#[derive(Clone, Debug)]
pub struct DominatorChains {
    /// `line_key` → (chain from the line to its root, `true` when at
    /// least one hop is a real dominance edge rather than a chase).
    chains: HashMap<usize, (Vec<StuckAtLine>, bool)>,
}

impl DominatorChains {
    /// Builds the chain for every line of `netlist`'s fault universe,
    /// consuming `cu`'s dominance edges.
    #[must_use]
    pub fn build(netlist: &Netlist, cu: &CollapsedUniverse) -> Self {
        let edge_of: HashMap<usize, StuckAtLine> = cu
            .dominance_edges()
            .iter()
            .map(|&(dominator, dominated)| (line_key(&dominated), dominator))
            .collect();
        let mut chains = HashMap::new();
        for &line in &netlist.fault_lines() {
            let mut chain = Vec::new();
            let mut dominated_hop = false;
            let mut seen = vec![line_key(&line)];
            let mut cur = line;
            loop {
                // Exact-equivalence move first: it never loses
                // information and exposes the pin form the edge table
                // is keyed on.
                let chased = cu.chased(cur);
                if line_key(&chased) != line_key(&cur) && !seen.contains(&line_key(&chased)) {
                    seen.push(line_key(&chased));
                    chain.push(chased);
                    cur = chased;
                    continue;
                }
                match edge_of.get(&line_key(&cur)) {
                    Some(&dom) if !seen.contains(&line_key(&dom)) => {
                        seen.push(line_key(&dom));
                        chain.push(dom);
                        dominated_hop = true;
                        cur = dom;
                    }
                    _ => break,
                }
            }
            if !chain.is_empty() {
                chains.insert(line_key(&line), (chain, dominated_hop));
            }
        }
        DominatorChains { chains }
    }

    /// The full chain from `line` (exclusive) to its root (inclusive);
    /// empty when the line is its own fixpoint.
    #[must_use]
    pub fn chain_of(&self, line: StuckAtLine) -> &[StuckAtLine] {
        self.chains
            .get(&line_key(&line))
            .map_or(&[], |(c, _)| c.as_slice())
    }

    /// The chain root whose silence settles `line`, or `None` when the
    /// chain contains no true dominance hop (pure-equivalence chains
    /// are the collapse pass's job, not a deferral win).
    #[must_use]
    pub fn deferrable_root(&self, line: StuckAtLine) -> Option<StuckAtLine> {
        self.chains
            .get(&line_key(&line))
            .filter(|(_, dominated)| *dominated)
            .and_then(|(c, _)| c.last().copied())
    }

    /// Number of lines with a deferrable (dominance-carrying) chain.
    #[must_use]
    pub fn deferrable_count(&self) -> usize {
        self.chains.values().filter(|(_, d)| *d).count()
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

    /// On a bare AND, pin s-a-1 is dominated by stem s-a-1; the stem
    /// has no outgoing move, so it roots the chain.
    #[test]
    fn and_pin_sa1_chains_to_stem_sa1() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 2);
        let y = b.and(a[0], a[1]);
        b.output("y", &[y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        let dc = DominatorChains::build(&n, &cu);
        let g = y.index();
        assert_eq!(dc.deferrable_root(pin(g, 0, true)), Some(stem(g, true)));
        // The root itself is never deferrable — settle order is acyclic.
        assert_eq!(dc.deferrable_root(stem(g, true)), None);
        // Input stems chase onto the pins first, then take the edge.
        assert_eq!(
            dc.deferrable_root(stem(a[0].index(), true)),
            Some(stem(g, true))
        );
    }

    /// Chains compose across gates: the AND's dominator stem feeds an
    /// OR through a fanout-free net, so the chase carries it onto the
    /// OR pin and (for the right polarity) a second dominance hop lands
    /// on the OR stem.
    #[test]
    fn chains_compose_through_fanout_free_regions() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 3);
        let x = b.and(a[0], a[1]);
        let y = b.or(x, a[2]);
        b.output("y", &[y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        let dc = DominatorChains::build(&n, &cu);
        // pin0-of-AND s-a-0 ≡ AND stem s-a-0 ≡ OR pin0 s-a-0, which is
        // dominated by OR stem s-a-0: a mixed chase/dominance chain.
        let chain = dc.chain_of(pin(x.index(), 0, false));
        assert_eq!(chain.last(), Some(&stem(y.index(), false)));
        assert_eq!(
            dc.deferrable_root(pin(x.index(), 0, false)),
            Some(stem(y.index(), false))
        );
    }

    /// Pure-equivalence chains (inverter pairs) are not deferrable.
    #[test]
    fn pure_equivalence_chains_are_not_deferrable() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 1)[0];
        let x = b.not(a);
        let y = b.not(x);
        b.output("y", &[y]);
        let n = b.finish();
        let cu = CollapsedUniverse::build(&n);
        let dc = DominatorChains::build(&n, &cu);
        assert_eq!(dc.deferrable_count(), 0);
        assert!(!dc.chain_of(stem(a.index(), false)).is_empty());
        assert_eq!(dc.deferrable_root(stem(a.index(), false)), None);
    }
}
