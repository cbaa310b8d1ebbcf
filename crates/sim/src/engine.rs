//! The levelized bit-parallel gate evaluator.
//!
//! Evaluation is generic over [`LaneWord`]: the same forward pass runs
//! on single `u64` words (64 vectors per gate op, the public
//! differential-test path) or on [`Words<L>`] wide words (256/512
//! vectors per gate op, the good-machine pass of the campaigns).
//!
//! Campaign faulty passes do not re-run the whole netlist: a fault can
//! only change the gates in the transitive fanout of its sites, so the
//! driver evaluates just that **cone**, overlaid on a copy of the good
//! machine's values ([`Engine::eval_cone_wide`]).
//!
//! Every pass of both engines — the full forward pass, the cone pass
//! and each cycle of [`crate::SeqEngine`] — is one loop,
//! [`eval_gates`], around one inlined gate kernel, [`eval_gate`]: per
//! gate, the two fanin words are loaded once, pin overrides are
//! splatted into them, and one `match` on the gate's kind computes the
//! output.

use crate::batch::{InputBatch, InputPlan, WideBatch};
use crate::campaign::{BlockWork, FaultEngine, Verdict};
use crate::error::SimError;
use crate::words::{LaneWord, Words};
use scdp_netlist::{FaultDuration, GateKind, Netlist, ReaderTable, StuckAtLine};

/// A combinational netlist compiled for bit-parallel evaluation.
///
/// Netlists are already stored in topological order, so evaluation is
/// one forward pass. The campaign driver's cone passes walk the
/// netlist's reader table, which the compiled core carries along.
#[derive(Clone, Debug)]
pub struct Engine {
    core: Compiled,
}

/// What both engines compile a netlist into: packed [`Gate`] records,
/// the input gates, and the netlist's output roles and reader table.
/// Every bus named `error` is an *alarm* bus, every other output bus is
/// part of the *result* (see [`Netlist::alarm_nets`]).
#[derive(Clone, Debug)]
pub(crate) struct Compiled {
    pub(crate) gates: Vec<Gate>,
    /// The input gates, in input-bit order.
    inputs: Vec<u32>,
    result_nets: Vec<u32>,
    alarm_nets: Vec<u32>,
    readers: ReaderTable,
    name: String,
}

/// Packed verdict of one faulty batch against the good machine, already
/// restricted to the valid lanes.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Lanes whose result-bus values differ from the good machine.
    pub wrong: u64,
    /// Lanes where an alarm net is asserted.
    pub alarm: u64,
    /// Mask of lanes that carry real vectors.
    pub mask: u64,
}

impl BatchOutcome {
    /// Lanes in the `ErrorUndetected` class (wrong result, silent
    /// checks) — the paper's uncovered situations.
    #[must_use]
    pub fn escapes(&self) -> u64 {
        self.wrong & !self.alarm
    }

    /// Situation counts in taxonomy order: `(correct_silent,
    /// correct_detected, error_detected, error_undetected)`.
    #[must_use]
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        let wrong = self.wrong & self.mask;
        let alarm = self.alarm & self.mask;
        let eu = (wrong & !alarm).count_ones() as u64;
        let ed = (wrong & alarm).count_ones() as u64;
        let cd = (!wrong & alarm & self.mask).count_ones() as u64;
        let cs = self.mask.count_ones() as u64 - eu - ed - cd;
        (cs, cd, ed, eu)
    }
}

/// Packed verdict of one faulty *wide* batch (`64 * L` vectors) against
/// the good machine. Campaign drivers consume it one limb at a time via
/// [`WideOutcome::limb`], in scalar-batch order.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WideOutcome<const L: usize> {
    /// Lanes whose result-bus values differ from the good machine.
    pub wrong: Words<L>,
    /// Lanes where an alarm net is asserted.
    pub alarm: Words<L>,
    /// Mask of lanes that carry real vectors.
    pub mask: Words<L>,
}

impl<const L: usize> WideOutcome<L> {
    /// The verdict of limb `k` — exactly the [`BatchOutcome`] the
    /// scalar path would have produced for the `k`-th batch.
    #[must_use]
    pub fn limb(&self, k: usize) -> BatchOutcome {
        BatchOutcome {
            wrong: self.wrong.limb(k),
            alarm: self.alarm.limb(k),
            mask: self.mask.limb(k),
        }
    }
}

impl Engine {
    /// Compiles `netlist` for packed evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the netlist holds state (Dff cells) — use
    /// [`crate::SeqEngine`] for cycle-accurate evaluation.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        assert!(
            !netlist.is_sequential(),
            "combinational engine cannot evaluate a sequential netlist; use SeqEngine"
        );
        Self {
            core: Compiled::new(netlist),
        }
    }

    /// The compiled design's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// Number of nets (= gates) in the compiled netlist.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.core.gates.len()
    }

    /// Number of primary input bits expected per batch.
    #[must_use]
    pub fn input_bits(&self) -> usize {
        self.core.input_bits()
    }

    /// Evaluates one packed batch under `faults` into `values` (one
    /// word per net, reused across calls to avoid allocation).
    ///
    /// `faults` must be sorted by gate index ([`FaultEngine::check`]
    /// rejects a list that is not; assert-checked in debug builds).
    /// This is a full forward pass over every gate: the good-machine
    /// evaluator of the campaign driver, and the reference its cone
    /// passes are tested against. The fault-free fast path costs one
    /// table-dispatched bitwise op per gate per 64 vectors; faulted
    /// gates take a slow path that applies pin overrides before and the
    /// stem override after the gate function.
    ///
    /// # Panics
    ///
    /// Panics if the batch width does not match the netlist.
    pub fn eval_batch_into(
        &self,
        batch: &InputBatch,
        faults: &[StuckAtLine],
        values: &mut Vec<u64>,
    ) {
        self.eval_words_into(&batch.bits, faults, values);
    }

    /// Wide twin of [`Engine::eval_batch_into`]: evaluates `64 * L`
    /// vectors per forward pass. Same fault semantics, same sort
    /// requirement on `faults`.
    ///
    /// # Panics
    ///
    /// Panics if the batch width does not match the netlist.
    pub fn eval_wide_into<const L: usize>(
        &self,
        batch: &WideBatch<L>,
        faults: &[StuckAtLine],
        values: &mut Vec<Words<L>>,
    ) {
        self.eval_words_into(&batch.bits, faults, values);
    }

    /// The generic forward pass shared by the scalar and wide paths.
    fn eval_words_into<W: LaneWord>(
        &self,
        bits: &[W],
        faults: &[StuckAtLine],
        values: &mut Vec<W>,
    ) {
        // Every net is written before any gate uses it, so the buffer
        // needs the right length, not clearing. Lanes beyond the batch
        // length hold junk; harmless, masked later.
        values.resize(self.core.gates.len(), W::ZERO);
        self.core.eval_pass(bits, faults, values);
    }

    /// Evaluates the faulty machine of `faults` over `cone` only — the
    /// gates its sites' stems and pins can reach, ascending (see
    /// [`Cones`]) — overlaid on the good machine, and compares it
    /// against `good` exactly as [`Engine::compare_wide`] compares a
    /// full faulty pass.
    ///
    /// Every gate outside `cone` must hold the good machine's value of
    /// this batch in `values` on entry: the faults cannot change it, so
    /// its good value *is* its faulty value. The gates inside the cone
    /// may hold anything, because the pass writes each of them before
    /// any gate reads it (ascending order; an input gate joins a cone
    /// only as a site, and a valid fault on an input is a stem fault).
    /// On return the cone holds this group's faulty values, so the
    /// next group on the same cone can run straight over them; before
    /// a group on another cone, [`restore`] puts the good values back.
    /// Same fault semantics and sort requirement as
    /// [`Engine::eval_wide_into`].
    fn eval_cone_wide<const L: usize>(
        &self,
        good: &[Words<L>],
        values: &mut [Words<L>],
        cone: &[u32],
        faults: &[StuckAtLine],
        mask: Words<L>,
    ) -> WideOutcome<L> {
        eval_gates(
            &self.core.gates,
            cone.iter().map(|&g| g as usize),
            faults,
            values,
        );
        self.compare_wide(good, values, mask)
    }

    /// Appends the fanout cone of `faults` to `cones` as its next
    /// entry. The sites are marked in a gate bitset and their fanout
    /// followed through the netlist's reader table (a gate reading one
    /// net on both pins is listed twice and marked once); because
    /// netlists are stored in topological order, every cone gate sits
    /// at or above the lowest site, so one upward scan of the bitset
    /// from there emits the cone in ascending order and leaves the
    /// bitset clear for the next group.
    fn push_cone(&self, faults: &[StuckAtLine], cones: &mut Cones) {
        let Cones {
            gates,
            spans,
            mark,
            stack,
        } = cones;
        let start = gates.len();
        mark.resize(self.core.gates.len().div_ceil(64), 0);
        let mut visit = |g: usize, stack: &mut Vec<u32>| {
            let (word, bit) = (&mut mark[g / 64], 1u64 << (g % 64));
            if *word & bit == 0 {
                *word |= bit;
                stack.push(g as u32);
            }
        };
        for f in faults {
            visit(f.site.gate, stack);
        }
        while let Some(g) = stack.pop() {
            for &(t, _) in self.core.readers.of(g as usize) {
                visit(t as usize, stack);
            }
        }
        if let Some(lowest) = faults.iter().map(|f| f.site.gate).min() {
            for (w, word) in mark.iter_mut().enumerate().skip(lowest / 64) {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    gates.push((w * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
        spans.push((start, gates.len()));
    }

    /// Convenience wrapper allocating a fresh value vector.
    #[must_use]
    pub fn eval_batch(&self, batch: &InputBatch, faults: &[StuckAtLine]) -> Vec<u64> {
        let mut values = Vec::new();
        self.eval_batch_into(batch, faults, &mut values);
        values
    }

    /// Compares a faulty evaluation against the good machine over one
    /// batch, producing the packed taxonomy masks.
    #[must_use]
    pub fn compare(&self, good: &[u64], faulty: &[u64], mask: u64) -> BatchOutcome {
        let (wrong, alarm) = self.core.compare(good, faulty, mask);
        BatchOutcome { wrong, alarm, mask }
    }

    /// Wide twin of [`Engine::compare`].
    #[must_use]
    pub fn compare_wide<const L: usize>(
        &self,
        good: &[Words<L>],
        faulty: &[Words<L>],
        mask: Words<L>,
    ) -> WideOutcome<L> {
        let (wrong, alarm) = self.core.compare(good, faulty, mask);
        WideOutcome { wrong, alarm, mask }
    }
}

impl Compiled {
    /// Compiles `netlist`'s gates into [`Gate`] records and takes its
    /// input gates, output roles and reader table.
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let mut inputs = Vec::new();
        let gates = netlist
            .gates()
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let own = i as u32;
                let net = |n: Option<scdp_netlist::NetId>| n.map_or(own, |n| n.index() as u32);
                let (a, b) = match g.kind {
                    GateKind::Input => {
                        inputs.push(own);
                        (own, own)
                    }
                    GateKind::Const(_) => (own, own),
                    GateKind::Dff => (net(g.a), own),
                    GateKind::Not | GateKind::Buf => (net(g.a), net(g.a)),
                    _ => (net(g.a), net(g.b)),
                };
                Gate { kind: g.kind, a, b }
            })
            .collect();
        let nets = |role: &[scdp_netlist::NetId]| role.iter().map(|n| n.index() as u32).collect();
        Self {
            gates,
            inputs,
            result_nets: nets(netlist.result_nets()),
            alarm_nets: nets(netlist.alarm_nets()),
            readers: netlist.reader_table().clone(),
            name: netlist.name().to_string(),
        }
    }

    /// Number of primary input bits expected per pass.
    pub(crate) fn input_bits(&self) -> usize {
        self.inputs.len()
    }

    /// One full forward pass under `faults`: the input gates hold
    /// `bits`, every other gate is evaluated in order. `values` must
    /// hold one word per net, with any other holding gate's value (a
    /// Dff's state) already in place.
    pub(crate) fn eval_pass<W: LaneWord>(
        &self,
        bits: &[W],
        faults: &[StuckAtLine],
        values: &mut [W],
    ) {
        assert_eq!(bits.len(), self.input_bits(), "input bit count mismatch");
        hold(values, &self.inputs, bits);
        eval_gates(&self.gates, 0..self.gates.len(), faults, values);
    }

    /// Lanes of `mask` whose result nets differ between `good` and
    /// `faulty`.
    pub(crate) fn wrong<W: LaneWord>(&self, good: &[W], faulty: &[W], mask: W) -> W {
        let mut wrong = W::ZERO;
        for &net in &self.result_nets {
            wrong = wrong | (good[net as usize] ^ faulty[net as usize]);
        }
        wrong & mask
    }

    /// Lanes of `mask` where any alarm net of `values` is set.
    pub(crate) fn alarm<W: LaneWord>(&self, values: &[W], mask: W) -> W {
        let mut alarm = W::ZERO;
        for &net in &self.alarm_nets {
            alarm = alarm | values[net as usize];
        }
        alarm & mask
    }

    /// The `(wrong, alarm)` verdict of `faulty` against `good`.
    fn compare<W: LaneWord>(&self, good: &[W], faulty: &[W], mask: W) -> (W, W) {
        (self.wrong(good, faulty, mask), self.alarm(faulty, mask))
    }

    /// Validates a fault list — both engines' [`FaultEngine::check`]:
    /// every line must name an existing gate and, for pin faults, an
    /// input pin the gate actually has, and the lines must be in gate
    /// order (the evaluator's single sweep).
    pub(crate) fn check(&self, faults: &[StuckAtLine]) -> Result<(), SimError> {
        let mut previous = 0;
        for f in faults {
            let gate = f.site.gate;
            if gate < previous {
                return Err(SimError::LinesOutOfOrder { gate, previous });
            }
            previous = gate;
            let Some(g) = self.gates.get(gate) else {
                return Err(SimError::GateOutOfRange {
                    gate,
                    gates: self.gates.len(),
                });
            };
            if let Some(pin) = f.site.pin {
                let pins = g.kind.pins();
                if pin >= pins {
                    return Err(SimError::PinOutOfRange { gate, pin, pins });
                }
            }
        }
        Ok(())
    }
}

impl FaultEngine for Engine {
    const PREFIX: &'static str = "engine";
    const TRACKS_LATENCY: bool = false;

    fn check(&self, group: &[StuckAtLine]) -> Result<(), SimError> {
        self.core.check(group)
    }

    /// The block's cones are built into one arena, each once per run
    /// of consecutive groups on the same site gates (an empty group's
    /// cone is empty); per wide batch the good machine runs once over
    /// the whole netlist, and each live group costs one pass over its
    /// own cone (`gate_evals` = cone length). A cone is copied back
    /// from the good machine only when the next live group
    /// sits on another one.
    fn simulate_block<const L: usize, F>(
        &self,
        chunk: &[Vec<StuckAtLine>],
        plan: InputPlan,
        _cycles: u32,
        _duration: FaultDuration,
        mut tally: F,
    ) -> BlockWork
    where
        F: FnMut(usize, &Verdict<'_, L>) -> bool,
    {
        let mut cones = Cones::default();
        let mut cones_built = 0u64;
        let mut previous: Option<&[StuckAtLine]> = None;
        for group in chunk {
            if previous.is_some_and(|p| same_gates(p, group)) {
                cones.share_last();
            } else {
                self.push_cone(group, &mut cones);
                cones_built += u64::from(!group.is_empty());
            }
            previous = Some(group);
        }
        let mut live: Vec<usize> = (0..chunk.len()).collect();
        let mut good = Vec::new();
        let mut faulty = Vec::new();
        let mut good_evals = 0u64;
        for wide in plan.wide_stream::<L>(self.input_bits()) {
            if live.is_empty() {
                break;
            }
            self.eval_wide_into(&wide, &[], &mut good);
            good_evals += wide.limbs as u64;
            faulty.clone_from(&good);
            // The cone whose gates `faulty` holds faulty values for.
            let mut dirty = (0, 0);
            live.retain(|&k| {
                let span = cones.spans[k];
                if span != dirty {
                    restore(&good, &mut faulty, cones.at(dirty));
                    dirty = span;
                }
                let cone = cones.at(span);
                let outcome = self.eval_cone_wide(&good, &mut faulty, cone, &chunk[k], wide.mask);
                tally(
                    k,
                    &Verdict {
                        outcome,
                        first_detect: &[],
                        limbs: wide.limbs,
                        gate_evals: cone.len() as u64,
                    },
                )
            });
        }
        BlockWork {
            good_evals,
            cones_built,
        }
    }
}

/// Copies `cone`'s gates back from the good machine into `values`.
fn restore<const L: usize>(good: &[Words<L>], values: &mut [Words<L>], cone: &[u32]) {
    for &g in cone {
        values[g as usize] = good[g as usize];
    }
}

/// Whether two fault groups sit on the same gates, line by line — and
/// so share one fanout cone.
fn same_gates(a: &[StuckAtLine], b: &[StuckAtLine]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.site.gate == y.site.gate)
}

/// The fanout cones of one block of fault groups, packed into one
/// reused arena: entry `k` is the ascending list of gates group `k`'s
/// faults can change — its sites and their transitive fanout. Filled by
/// [`Engine::push_cone`]; consecutive groups on the same site gates
/// share one arena slice ([`Cones::share_last`]), so the arena holds
/// one cone per distinct run of site sets, bounded by the block size
/// times the largest cone.
#[derive(Clone, Debug, Default)]
struct Cones {
    gates: Vec<u32>,
    /// Entry `k`'s `(start, end)` range in `gates`.
    spans: Vec<(usize, usize)>,
    /// Scratch gate bitset, all clear between groups.
    mark: Vec<u64>,
    /// Scratch traversal stack.
    stack: Vec<u32>,
}

impl Cones {
    /// Cone `k`, ascending.
    #[cfg(test)]
    fn get(&self, k: usize) -> &[u32] {
        self.at(self.spans[k])
    }

    /// The cone stored at `(start, end)`.
    fn at(&self, (start, end): (usize, usize)) -> &[u32] {
        &self.gates[start..end]
    }

    /// Appends an entry that reuses the last entry's cone.
    fn share_last(&mut self) {
        let last = *self.spans.last().expect("a cone to share");
        self.spans.push(last);
    }
}

/// One compiled gate: its kind and the nets its two pins read. A Not
/// or Buf reads its fanin on both pins; a gate that holds a value — an
/// input, a Dff's state — reads itself on pin b, where the pass's
/// caller puts that value ([`hold`]). A Dff's pin a is its D net, which
/// the kernel never uses: the value it captures is taken after the
/// cycle, and it may sit later in gate order.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

/// Writes the values the holding gates `at` output this pass — input
/// bits, Dff states — into their own nets.
pub(crate) fn hold<W: LaneWord>(values: &mut [W], at: &[u32], held: &[W]) {
    for (&g, &v) in at.iter().zip(held) {
        values[g as usize] = v;
    }
}

/// The one gate kernel of both engines at every lane width: the output
/// of a gate of `kind` whose pins read `a` and `b` — fanin words with
/// any pin override already splatted in. A holding gate returns `b`,
/// its own net.
#[inline(always)]
pub(crate) fn eval_gate<W: LaneWord>(kind: GateKind, a: W, b: W) -> W {
    match kind {
        GateKind::And => a & b,
        GateKind::Or => a | b,
        GateKind::Xor => a ^ b,
        GateKind::Nand => !(a & b),
        GateKind::Nor => !(a | b),
        GateKind::Xnor => !(a ^ b),
        GateKind::Not => !a,
        GateKind::Buf => a,
        GateKind::Const(c) => W::splat(c),
        GateKind::Input | GateKind::Dff => b,
    }
}

/// The one evaluation loop of both engines: evaluates the gates in
/// `order` (ascending) into `values` under `faults`, which must be
/// sorted by gate, with every site in `order`. Each gate's fanins are
/// read from `values` — the holding gates' values already in place —
/// so a full pass runs over every gate and a cone pass over its cone,
/// the rest of `values` holding the good machine. Faulted gates take a
/// slow path: pin overrides are splatted into the fanin words before
/// the kernel, the stem override replaces its output.
pub(crate) fn eval_gates<W: LaneWord>(
    gates: &[Gate],
    order: impl Iterator<Item = usize>,
    faults: &[StuckAtLine],
    values: &mut [W],
) {
    debug_assert!(
        faults.windows(2).all(|w| w[0].site.gate <= w[1].site.gate),
        "fault list must be sorted by gate"
    );
    let mut fi = 0usize;
    let mut fault_gate = faults.first().map_or(usize::MAX, |f| f.site.gate);
    for i in order {
        let g = gates[i];
        let (a, b) = (values[g.a as usize], values[g.b as usize]);
        values[i] = if i == fault_gate {
            let [pin0, pin1, stem] = overrides(faults, &mut fi, i, g.kind.pins());
            fault_gate = faults.get(fi).map_or(usize::MAX, |f| f.site.gate);
            let a = pin0.map_or(a, W::splat);
            let b = pin1.map_or(b, W::splat);
            stem.map_or_else(|| eval_gate(g.kind, a, b), W::splat)
        } else {
            eval_gate(g.kind, a, b)
        };
    }
}

/// Collects the overrides the faults on gate `gate`, which has `pins`
/// input pins, apply — stuck values on pin 0, pin 1 and the stem —
/// advancing `fi` past them.
fn overrides(faults: &[StuckAtLine], fi: &mut usize, gate: usize, pins: u8) -> [Option<bool>; 3] {
    let mut out = [None; 3];
    while let Some(f) = faults.get(*fi).filter(|f| f.site.gate == gate) {
        match f.site.pin {
            None => out[2] = Some(f.value),
            Some(pin) if pin < pins => out[usize::from(pin)] = Some(f.value),
            // Rejected by `FaultEngine::check`; ignored here so a line
            // smuggled past validation through the raw batch API
            // cannot abort a campaign.
            Some(_) => {}
        }
        *fi += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::InputPlan;
    use scdp_netlist::{NetlistBuilder, StuckSite};

    fn xor_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("xor");
        let x = b.input_bus("x", 2);
        let y = b.xor(x[0], x[1]);
        b.output("y", &[y]);
        b.finish()
    }

    #[test]
    fn packed_matches_scalar_on_xor() {
        let nl = xor_netlist();
        let engine = Engine::new(&nl);
        for batch in InputPlan::Exhaustive.stream(2) {
            let packed = engine.eval_batch(&batch, &[]);
            for lane in 0..batch.len {
                let scalar = nl.eval_nets(&batch.lane_bits(lane), &[]);
                for (net, word) in packed.iter().enumerate() {
                    assert_eq!(
                        (word >> lane) & 1 != 0,
                        scalar[net],
                        "net {net} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn stem_and_pin_faults_match_scalar() {
        let nl = xor_netlist();
        let engine = Engine::new(&nl);
        let cases = [
            StuckAtLine::new(StuckSite { gate: 2, pin: None }, true),
            StuckAtLine::new(
                StuckSite {
                    gate: 2,
                    pin: Some(1),
                },
                false,
            ),
            StuckAtLine::new(StuckSite { gate: 0, pin: None }, true),
        ];
        for fault in cases {
            for batch in InputPlan::Exhaustive.stream(2) {
                let packed = engine.eval_batch(&batch, &[fault]);
                for lane in 0..batch.len {
                    let scalar = nl.eval_nets(&batch.lane_bits(lane), &[fault]);
                    for (net, word) in packed.iter().enumerate() {
                        assert_eq!(
                            (word >> lane) & 1 != 0,
                            scalar[net],
                            "{fault:?} net {net} lane {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wide_eval_limbs_match_scalar_eval() {
        // 8 inputs -> 256 vectors -> several scalar batches per wide
        // batch at L = 4.
        let mut b = NetlistBuilder::new("wide");
        let x = b.input_bus("x", 8);
        let mut acc = x[0];
        for (i, &xi) in x.iter().enumerate().skip(1) {
            acc = match i % 3 {
                0 => b.and(acc, xi),
                1 => b.xor(acc, xi),
                _ => b.nor(acc, xi),
            };
        }
        b.output("y", &[acc]);
        let nl = b.finish();
        let engine = Engine::new(&nl);
        let fault = StuckAtLine::new(
            StuckSite {
                gate: 9,
                pin: Some(0),
            },
            true,
        );
        for faults in [&[][..], &[fault][..]] {
            let plan = InputPlan::Exhaustive;
            let scalar: Vec<Vec<u64>> = plan
                .stream(8)
                .map(|batch| engine.eval_batch(&batch, faults))
                .collect();
            let mut k = 0;
            let mut values = Vec::new();
            for wide in plan.wide_stream::<4>(8) {
                engine.eval_wide_into(&wide, faults, &mut values);
                for limb in 0..wide.limbs {
                    for (net, w) in values.iter().enumerate() {
                        assert_eq!(w.limb(limb), scalar[k][net], "net {net} batch {k}");
                    }
                    k += 1;
                }
            }
            assert_eq!(k, scalar.len());
        }
    }

    #[test]
    fn wide_compare_limbs_match_scalar_compare() {
        let nl = xor_netlist();
        let engine = Engine::new(&nl);
        let fault = StuckAtLine::new(StuckSite { gate: 2, pin: None }, true);
        let wide = InputPlan::Exhaustive.wide_stream::<4>(2).next().unwrap();
        let mut good = Vec::new();
        let mut faulty = Vec::new();
        engine.eval_wide_into(&wide, &[], &mut good);
        engine.eval_wide_into(&wide, &[fault], &mut faulty);
        let outcome = engine.compare_wide(&good, &faulty, wide.mask);
        let batch = InputPlan::Exhaustive.stream(2).next().unwrap();
        let sg = engine.eval_batch(&batch, &[]);
        let sf = engine.eval_batch(&batch, &[fault]);
        assert_eq!(outcome.limb(0), engine.compare(&sg, &sf, batch.mask()));
        for limb in 1..4 {
            assert_eq!(outcome.limb(limb).mask, 0, "dead limbs stay masked");
        }
    }

    /// A chain with a side branch: x0 -> n3 -> n5 -> y, x1 -> n4 (read
    /// by nothing but the alarm), x2 read on both pins of n6.
    fn branchy_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("branchy");
        let x = b.input_bus("x", 3);
        let n3 = b.and(x[0], x[1]);
        let n4 = b.not(x[1]);
        let n5 = b.xor(n3, x[2]);
        let n6 = b.or(x[2], x[2]);
        b.output("y", &[n5, n6]);
        b.output("error", &[n4]);
        b.finish()
    }

    fn line(gate: usize, pin: Option<u8>, value: bool) -> StuckAtLine {
        StuckAtLine::new(StuckSite { gate, pin }, value)
    }

    fn cone_of(engine: &Engine, faults: &[StuckAtLine]) -> Vec<u32> {
        let mut cones = Cones::default();
        engine.push_cone(faults, &mut cones);
        cones.get(0).to_vec()
    }

    #[test]
    fn cones_are_ascending_transitive_fanouts() {
        let engine = Engine::new(&branchy_netlist());
        assert_eq!(cone_of(&engine, &[line(0, None, true)]), vec![0, 3, 5]);
        assert_eq!(cone_of(&engine, &[line(3, Some(1), false)]), vec![3, 5]);
        assert_eq!(
            cone_of(&engine, &[line(1, None, true), line(2, None, false)]),
            vec![1, 2, 3, 4, 5, 6]
        );
        assert!(cone_of(&engine, &[]).is_empty());
        // One arena, several cones; the bitset is clear between them.
        let mut cones = Cones::default();
        engine.push_cone(&[line(4, None, true)], &mut cones);
        engine.push_cone(&[], &mut cones);
        engine.push_cone(&[line(0, None, false), line(6, Some(0), true)], &mut cones);
        assert_eq!(cones.get(0), &[4]);
        assert!(cones.get(1).is_empty());
        assert_eq!(cones.get(2), &[0, 3, 5, 6]);
        // A shared entry points at the last cone without growing the
        // arena.
        let len = cones.gates.len();
        cones.share_last();
        assert_eq!(cones.get(3), &[0, 3, 5, 6]);
        assert_eq!(cones.gates.len(), len);
    }

    #[test]
    fn same_gates_compares_every_site_not_pins_or_values() {
        let a = [line(1, None, true), line(3, Some(0), false)];
        let pins_and_values_differ = [line(1, Some(1), false), line(3, None, true)];
        assert!(same_gates(&a, &pins_and_values_differ));
        assert!(!same_gates(&a, &[line(1, None, true), line(4, None, true)]));
        assert!(!same_gates(&a, &a[..1]));
        assert!(same_gates(&[], &[]));
    }

    #[test]
    fn cone_overlay_matches_full_faulty_pass() {
        let engine = Engine::new(&branchy_netlist());
        let wide = InputPlan::Exhaustive.wide_stream::<4>(3).next().unwrap();
        let mut good = Vec::new();
        engine.eval_wide_into(&wide, &[], &mut good);
        // Pairs on one cone run back to back without a restore between
        // them; every other switch restores the previous cone first.
        let groups = [
            vec![line(0, None, true)],
            vec![line(0, None, false)],
            vec![line(1, None, false), line(4, Some(0), false)],
            vec![line(1, None, true), line(4, None, true)],
            vec![line(3, Some(0), true), line(3, None, false)],
            vec![line(3, Some(1), false), line(3, Some(0), false)],
            vec![line(6, Some(1), false)],
            vec![line(2, None, true), line(5, Some(1), false)],
            vec![],
        ];
        let mut overlay = good.clone();
        let mut full = Vec::new();
        let mut dirty: Vec<u32> = Vec::new();
        for faults in &groups {
            let cone = cone_of(&engine, faults);
            if cone != dirty {
                restore(&good, &mut overlay, &dirty);
                assert_eq!(overlay, good, "good values restored before {faults:?}");
            }
            let got = engine.eval_cone_wide(&good, &mut overlay, &cone, faults, wide.mask);
            engine.eval_wide_into(&wide, faults, &mut full);
            assert_eq!(
                got,
                engine.compare_wide(&good, &full, wide.mask),
                "{faults:?}"
            );
            dirty = cone;
        }
    }

    #[test]
    fn outcome_counts_partition_the_mask() {
        let o = BatchOutcome {
            wrong: 0b1100,
            alarm: 0b1010,
            mask: 0b1111,
        };
        let (cs, cd, ed, eu) = o.counts();
        assert_eq!((cs, cd, ed, eu), (1, 1, 1, 1));
        assert_eq!(o.escapes(), 0b0100);
    }

    #[test]
    fn error_bus_is_alarm_role() {
        let mut b = NetlistBuilder::new("roles");
        let x = b.input_bus("x", 1);
        b.output("ris", &[x[0]]);
        b.output("error", &[x[0]]);
        let engine = Engine::new(&b.finish());
        assert_eq!(engine.core.result_nets, vec![0]);
        assert_eq!(engine.core.alarm_nets, vec![0]);
    }
}
