//! Sequential datapath elaboration: lowering a scheduled, bound
//! dataflow graph onto one **cycle-accurate** shared-FU netlist.
//!
//! [`super::elaborate_datapath`] flattens the schedule into unrolled
//! combinational instances; faults that persist in a physical unit
//! across control steps are only *approximated* there by correlated
//! injection, and single-cycle transients cannot be modelled at all.
//! This module builds the machine the paper actually describes: **one
//! physical instance per bound functional unit**, time-multiplexed by
//! a generated controller, with operand/result registers ([`Dff`]
//! cells) carrying values between control steps.
//!
//! # The machine
//!
//! * **Controller** — a one-hot state chain: `state[c]` is high exactly
//!   in cycle `c` (a `started` flip-flop distinguishes cycle 0; each
//!   further state bit delays the previous one). The schedule is static,
//!   so this chain *is* the FSM controller ROM: every mux select and
//!   register enable is a fixed OR over state lines.
//! * **Functional units** — one structural instance per bound unit:
//!   operand mux chains (identical gate structure to the unrolled
//!   elaboration, but steered by dynamic select lines instead of
//!   per-instance constants) followed by the arithmetic core. The
//!   carry-in is muxed per leg the same way.
//! * **Registers** — every operation result is captured into its own
//!   `width`-bit register at the last cycle the operation occupies its
//!   unit (`state[avail-1]` enables a keep/capture mux in front of each
//!   Dff). Primary inputs are held constant for the whole iteration,
//!   so they need no registers.
//! * **Checkers** — comparators read registered values and are *gated*
//!   by the state line of the cycle all their operands become valid in;
//!   each comparator feeds a sticky alarm flip-flop. The `error` output
//!   ORs the sticky bits with the current cycle's gated comparisons, so
//!   a detection is visible in the cycle it happens — the basis of
//!   per-cycle detection-latency measurement.
//!
//! The machine runs for [`SeqDatapath::total_cycles`] =
//! `schedule_length + 1` cycles (states `0..=L`); result buses read the
//! registered values and are valid at the final cycle.
//!
//! # Fault universe
//!
//! Because each unit exists exactly once, a permanent stuck-at in a
//! shared unit corrupts every operation executed on it *by
//! construction* — no correlated injection needed. Both elaborations
//! describe their units with the same [`FuSpan`] and build the unit's
//! operand conditioning, mux chains and core with the same code, so
//! site `k` here corresponds to site `k` in every unrolled instance of
//! the same unit: the basis of the cross-elaboration equivalence tests.
//! The universe is enumerated by the same code too; with one instance
//! per unit, each group holds a single line.

use super::compare::neq_into;
use super::datapath::{
    bind_fus, condition, const_bus, fault_universe, push_instance, FuFaultRange, FuOut, FuSpan,
    Ports, Value,
};
use crate::{GateKind, NetId, Netlist, NetlistBuilder, StuckAtLine, StuckSite};
use scdp_hls::{Binding, Dfg, FuClass, OpKind, Schedule};

/// The result of the sequential elaboration: one cycle-accurate netlist
/// plus the per-FU spans defining the datapath's fault universe.
#[derive(Clone, Debug)]
pub struct SeqDatapath {
    /// The elaborated sequential netlist (`error` output = alarm bus,
    /// live every cycle; result buses valid at the final cycle).
    pub netlist: Netlist,
    /// One span per bound functional unit, binding order; each holds
    /// the unit's single instance (none for memory ports).
    pub fus: Vec<FuSpan>,
    /// Operand width in bits.
    pub width: u32,
    /// Node count of the elaborated DFG (for reports).
    pub nodes: usize,
    /// Schedule length in cycles.
    pub schedule_length: u32,
    /// Cycles one evaluation must run: `schedule_length + 1` (states
    /// `0..=schedule_length`; the extra state lets comparisons of
    /// values registered in the last schedule cycle raise the alarm).
    pub total_cycles: u32,
    /// Word-wide registers of the binding (for reports; the structural
    /// register count is [`SeqDatapath::dffs`]).
    pub registers: usize,
    /// Word-wide mux input legs of the binding.
    pub mux_legs: usize,
    /// State bits (Dff cells) of the elaborated netlist: controller
    /// chain + result registers + sticky alarm bits.
    pub dffs: usize,
}

impl SeqDatapath {
    /// Enumerates every stuck-at site local to the instance of FU `fu`
    /// (empty for memory ports) — offset-compatible with
    /// [`super::ElaboratedDatapath::fu_local_sites`] for the same
    /// binding.
    ///
    /// # Panics
    ///
    /// Panics if `fu` is out of range.
    #[must_use]
    pub fn fu_local_sites(&self, fu: usize) -> Vec<StuckSite> {
        self.fus[fu].local_sites(&self.netlist)
    }

    /// The fault groups of one FU: every instance-local site, both
    /// polarities. Each group is a single line — the physical unit
    /// exists once, so time-multiplexed corruption happens naturally
    /// across cycles instead of via correlated multi-site injection.
    ///
    /// # Panics
    ///
    /// Panics if `fu` is out of range.
    #[must_use]
    pub fn fu_fault_groups(&self, fu: usize) -> Vec<Vec<StuckAtLine>> {
        self.fus[fu].fault_groups(&self.netlist)
    }

    /// The whole datapath's fault universe: every FU's groups in binding
    /// order plus per-FU group-index ranges — index-compatible with
    /// [`super::ElaboratedDatapath::fault_universe`] for the same
    /// binding.
    #[must_use]
    pub fn fault_universe(&self) -> (Vec<Vec<StuckAtLine>>, Vec<FuFaultRange>) {
        fault_universe(&self.netlist, &self.fus)
    }
}

/// Elaborates a scheduled, bound DFG into one cycle-accurate shared-FU
/// netlist.
///
/// `binding` must come from [`scdp_hls::bind()`] over the same `dfg`
/// and `schedule`. Input buses, result buses and the fault universe are
/// ordered exactly like [`super::elaborate_datapath`]'s, so the two
/// elaborations are differential-testable against the same interpreter
/// and the same input vectors.
///
/// # Panics
///
/// Panics if `width` is 0 or above 32, or if the binding does not cover
/// the DFG.
#[must_use]
pub fn elaborate_seq_datapath(
    dfg: &Dfg,
    schedule: &Schedule,
    binding: &Binding,
    width: u32,
) -> SeqDatapath {
    assert!((1..=32).contains(&width), "width {width} out of range");
    let mut b = NetlistBuilder::new(format!("seq_dp_{}_{width}", dfg.name()));
    let length = schedule.length();
    let (mut fus, assignment) = bind_fus(dfg, schedule, binding);

    let zero = b.constant(false);
    let zeros: Vec<NetId> = vec![zero; width as usize];

    // --- Pass 1: value buses -----------------------------------------
    // Inputs and load data become primary input buses (held constant);
    // every sequential operation result becomes a register bus whose D
    // inputs are connected after the FU sections exist.
    let mut values: Vec<Value> = vec![Value::None; dfg.len()];
    let mut loads = 0usize;
    for (id, node) in dfg.iter() {
        values[id.index()] = match &node.kind {
            OpKind::Input(name) => Value::Bus(b.input_bus(name.clone(), width)),
            OpKind::Const(v) => Value::Bus(const_bus(&mut b, *v, width)),
            OpKind::Load { bank } => {
                loads += 1;
                Value::Bus(b.input_bus(format!("load{}_b{bank}", loads - 1), width))
            }
            OpKind::Add | OpKind::Sub | OpKind::Neg | OpKind::Mul | OpKind::Div | OpKind::Rem => {
                Value::Bus((0..width).map(|_| b.dff()).collect())
            }
            // Outputs/stores have no bus; chained checker logic is
            // lowered in pass 4 (its producers' buses already exist).
            OpKind::Output(_) | OpKind::Store { .. } | OpKind::CmpNe | OpKind::OrBit => Value::None,
        };
    }

    // --- Pass 2: controller ------------------------------------------
    // One-hot state chain: state[c] high exactly in cycle c.
    let one = b.constant(true);
    let started = b.dff();
    b.connect_dff(started, one);
    let mut states: Vec<NetId> = vec![b.not(started)];
    for _ in 1..=length {
        let s = b.dff();
        b.connect_dff(s, states[states.len() - 1]);
        states.push(s);
    }

    // --- Pass 3: functional units ------------------------------------
    // One span per unit: per-leg conditioned operands and select lines
    // outside the span, then (mux chain a, mux chain b, core) inside —
    // the same structure, gate for gate, as one unrolled instance.
    let mut fu_outs: Vec<Option<FuOut>> = Vec::with_capacity(fus.len());
    for fu in &mut fus {
        if fu.class == FuClass::Mem {
            fu_outs.push(None);
            continue;
        }
        let mut legs: [Vec<Vec<NetId>>; 2] = Default::default();
        let mut cin_legs: Vec<bool> = Vec::with_capacity(fu.ops.len());
        for &(id, _) in &fu.ops {
            let node = dfg.node(id);
            let (p0, p1, cin) = condition(&mut b, &node.kind, &node.args, &values, &zeros);
            legs[0].push(p0);
            legs[1].push(p1);
            cin_legs.push(cin);
        }
        // Select line of leg m (m >= 1): high while op m occupies the
        // unit. Leg 0 is the chain default, so it needs no select.
        let selects: Vec<NetId> = fu.ops[1..]
            .iter()
            .map(|&(id, start)| {
                let occupancy: Vec<NetId> = (start..schedule.avail(id))
                    .map(|c| states[c as usize])
                    .collect();
                b.or_tree(&occupancy)
            })
            .collect();
        let mut cin = b.constant(cin_legs[0]);
        for (m, &sel) in selects.iter().enumerate() {
            let leg_cin = b.constant(cin_legs[m + 1]);
            cin = b.mux(cin, leg_cin, sel);
        }
        let name = fu.name.clone();
        let out = push_instance(&mut b, fu, name, [&legs[0], &legs[1]], &selects, cin);
        fu_outs.push(Some(out));
    }

    // --- Pass 4: captures, checkers, outputs -------------------------
    let mut ports = Ports::default();
    for (id, node) in dfg.iter() {
        match &node.kind {
            OpKind::Input(_) | OpKind::Const(_) => {}
            OpKind::Output(_) | OpKind::Load { .. } | OpKind::Store { .. } => {
                ports.record(&node.kind, &node.args, &values);
            }
            OpKind::CmpNe => {
                let x = values[node.args[0].index()].bus().to_vec();
                let y = values[node.args[1].index()].bus().to_vec();
                let raw = neq_into(&mut b, &x, &y);
                // Valid once every operand register has captured.
                let valid = node
                    .args
                    .iter()
                    .map(|a| schedule.avail(*a))
                    .max()
                    .unwrap_or(0);
                let gated = b.and(raw, states[valid as usize]);
                let sticky = b.dff();
                let alarm = b.or(sticky, gated);
                b.connect_dff(sticky, alarm);
                values[id.index()] = Value::Bus(vec![alarm]);
            }
            OpKind::OrBit => {
                let x = values[node.args[0].index()].bus()[0];
                let y = values[node.args[1].index()].bus()[0];
                values[id.index()] = Value::Bus(vec![b.or(x, y)]);
            }
            kind @ (OpKind::Add
            | OpKind::Sub
            | OpKind::Neg
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Rem) => {
                let (fu, _) = assignment[id.index()].expect("sequential node is bound");
                let out = fu_outs[fu].as_ref().expect("arithmetic unit has gates");
                let en = states[(schedule.avail(id) - 1) as usize];
                let q_bus = values[id.index()].bus().to_vec();
                for (&q, &r) in q_bus.iter().zip(out.result(kind)) {
                    let d = b.mux(q, r, en);
                    b.connect_dff(q, d);
                }
            }
        }
    }
    ports.emit(&mut b);

    let netlist = b.finish();
    let dffs = netlist
        .gates()
        .iter()
        .filter(|g| g.kind == GateKind::Dff)
        .count();
    SeqDatapath {
        netlist,
        fus,
        width,
        nodes: dfg.len(),
        schedule_length: length,
        total_cycles: length + 1,
        registers: binding.registers,
        mux_legs: binding.mux_legs,
        dffs,
    }
}

#[cfg(test)]
mod tests {
    use super::super::interp::interpret_dfg;
    use super::*;
    use crate::{SeqStuckAt, Word};
    use scdp_core::Technique;
    use scdp_hls::{bind, sched, BindOptions, ComponentLibrary, ResourceSet, SckStyle};

    fn elaborate(dfg: &Dfg, width: u32, opts: BindOptions) -> SeqDatapath {
        let lib = ComponentLibrary::virtex16();
        let schedule = sched::list_schedule(dfg, &lib, &ResourceSet::min_area());
        let binding = bind(dfg, &schedule, &lib, opts);
        elaborate_seq_datapath(dfg, &schedule, &binding, width)
    }

    /// Fault-free cross-check of the sequential netlist against the
    /// shared interpreter, over a deterministic input sweep.
    fn check_fault_free(dfg: &Dfg, width: u32, opts: BindOptions) {
        let dp = elaborate(dfg, width, opts);
        let buses = dp.netlist.inputs().len();
        let mut seed = 0x5EED_05E9_u64;
        for _ in 0..16 {
            let inputs: Vec<Word> = (0..buses)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    Word::new(width, (seed >> 24) & ((1 << width) - 1))
                })
                .collect();
            let out = dp.netlist.eval_seq_words(&inputs, dp.total_cycles, &[]);
            let ev = interpret_dfg(dfg, width, &inputs);
            assert!(!ev.alarm, "interpreter must be alarm-free fault-free");
            let n = out.len();
            assert_eq!(out[n - 1].bits(), 0, "fault-free alarm fired");
            for (i, e) in ev.results.iter().enumerate() {
                assert_eq!(out[i], *e, "{} result bus {i}", dfg.name());
            }
        }
    }

    fn mac_dfg() -> Dfg {
        let mut d = Dfg::new("mac");
        let c = d.input("c");
        let x = d.input("x");
        let acc = d.input("acc");
        let t = d.op(OpKind::Mul, &[c, x]);
        let s = d.op(OpKind::Add, &[acc, t]);
        d.output("acc_next", s);
        d
    }

    /// A FIR-like body (local copy; `scdp-fir` depends on this crate's
    /// dependents, not the reverse).
    fn scdp_test_fir() -> Dfg {
        let mut d = Dfg::new("fir_tap");
        let i = d.input("i");
        let acc = d.input("acc");
        let one = d.constant(1);
        let i_next = d.op(OpKind::Add, &[i, one]);
        d.output("_i", i_next);
        let c = d.op(OpKind::Load { bank: 0 }, &[i]);
        let x = d.op(OpKind::Load { bank: 1 }, &[i]);
        let t = d.op(OpKind::Mul, &[c, x]);
        let acc_next = d.op(OpKind::Add, &[acc, t]);
        d.output("acc", acc_next);
        let _shift = d.op(OpKind::Store { bank: 1 }, &[i_next, x]);
        d
    }

    #[test]
    fn mac_matches_interpreter() {
        check_fault_free(&mac_dfg(), 4, BindOptions::default());
    }

    #[test]
    fn expanded_fir_matches_interpreter_all_styles() {
        let body = scdp_test_fir();
        for style in [SckStyle::Plain, SckStyle::Full, SckStyle::Embedded] {
            for tech in [Technique::Tech1, Technique::Both] {
                let g = scdp_hls::expand_sck(&body, tech, style);
                check_fault_free(&g, 4, BindOptions::default());
                check_fault_free(
                    &g,
                    3,
                    BindOptions {
                        separate_checkers: true,
                        no_sharing: false,
                    },
                );
            }
        }
    }

    #[test]
    fn divider_ops_elaborate() {
        let mut d = Dfg::new("divrem");
        let a = d.input("a");
        let b = d.input("b");
        let q = d.op(OpKind::Div, &[a, b]);
        let r = d.op(OpKind::Rem, &[a, b]);
        d.output("q", q);
        d.output("r", r);
        check_fault_free(&d, 4, BindOptions::default());
    }

    #[test]
    fn one_instance_per_unit_and_structural_parity_with_unrolled() {
        // The sequential FU span must be gate-for-gate identical in
        // kind to each unrolled instance of the same unit — that is
        // what makes local fault sites correspond across elaborations.
        let g = scdp_hls::expand_sck(&scdp_test_fir(), Technique::Tech1, SckStyle::Full);
        let lib = ComponentLibrary::virtex16();
        let schedule = sched::list_schedule(&g, &lib, &ResourceSet::min_area());
        let binding = bind(&g, &schedule, &lib, BindOptions::default());
        let seq = elaborate_seq_datapath(&g, &schedule, &binding, 4);
        let unrolled = super::super::elaborate_datapath(&g, &schedule, &binding, 4);
        assert_eq!(seq.fus.len(), unrolled.fus.len());
        let mut shared_seen = false;
        for (sf, uf) in seq.fus.iter().zip(&unrolled.fus) {
            assert_eq!(sf.name, uf.name);
            assert_eq!(sf.ops, uf.ops);
            let Some(inst) = sf.instances.first() else {
                assert_eq!(sf.class, FuClass::Mem);
                continue;
            };
            if sf.ops.len() > 1 {
                shared_seen = true;
            }
            let first = uf.instances.first().expect("arithmetic unit instance");
            assert_eq!(inst.len(), first.len(), "{}", sf.name);
            for k in 0..inst.len() {
                assert_eq!(
                    seq.netlist.gates()[inst.start + k].kind,
                    unrolled.netlist.gates()[first.start + k].kind,
                    "gate kind mismatch at offset {k} in {}",
                    sf.name
                );
            }
            assert_eq!(sf.mux_gates, 8 * (sf.ops.len() - 1) * 4, "{}", sf.name);
        }
        assert!(shared_seen, "min-area FIR must share at least one FU");
        // Same input and result bus shapes, so the same vectors drive
        // both elaborations.
        let shape = |nl: &Netlist| -> Vec<(String, usize)> {
            nl.inputs()
                .iter()
                .chain(nl.outputs())
                .map(|(n, b)| (n.clone(), b.len()))
                .collect()
        };
        assert_eq!(shape(&seq.netlist), shape(&unrolled.netlist));
    }

    #[test]
    fn fault_universe_partitions_by_fu() {
        let g = scdp_hls::expand_sck(&scdp_test_fir(), Technique::Tech1, SckStyle::Full);
        let dp = elaborate(&g, 3, BindOptions::default());
        let (groups, ranges) = dp.fault_universe();
        assert_eq!(ranges.len(), dp.fus.len());
        let mut cursor = 0usize;
        for r in &ranges {
            assert_eq!(r.start, cursor, "ranges must tile the universe");
            cursor = r.end;
            let span = &dp.fus[r.fu];
            if span.class == FuClass::Mem {
                assert_eq!(r.start, r.end, "memory ports carry no faults");
            } else {
                assert!(r.end > r.start, "{} has no faults", span.name);
                for g in &groups[r.start..r.end] {
                    assert_eq!(g.len(), 1, "one physical site per group");
                }
            }
        }
        assert_eq!(cursor, groups.len());
    }

    #[test]
    fn permanent_fault_corrupts_every_use_of_the_unit() {
        // One ALU executing two adds in sequence: some stuck line in
        // the shared core must corrupt both registered results at once.
        let mut d = Dfg::new("two_adds");
        let a = d.input("a");
        let b = d.input("b");
        let s1 = d.op(OpKind::Add, &[a, b]);
        let s2 = d.op(OpKind::Add, &[s1, b]);
        d.output("o1", s1);
        d.output("o2", s2);
        let dp = elaborate(&d, 3, BindOptions::default());
        let alu = dp
            .fus
            .iter()
            .position(|f| f.class == FuClass::Alu)
            .expect("alu");
        assert_eq!(dp.fus[alu].ops.len(), 2, "both adds share the ALU");
        let inst = dp.fus[alu].instances[0].clone();
        let zero = Word::new(3, 0);
        let mut corrupted_both = false;
        for site in dp.fu_local_sites(alu) {
            for value in [false, true] {
                let fault = SeqStuckAt::permanent(StuckAtLine::new(inst.globalize(site), value));
                let out = dp
                    .netlist
                    .eval_seq_words(&[zero, zero], dp.total_cycles, &[fault]);
                if out[0].bits() != 0 && out[1].bits() != 0 {
                    corrupted_both = true;
                }
            }
        }
        assert!(corrupted_both, "some physical fault must hit both uses");
    }

    #[test]
    fn transient_fault_hits_only_the_operation_in_flight() {
        // Two independent adds serialized on one ALU; a transient on
        // the core's low sum bit during the second op's cycle corrupts
        // o2 but leaves o1 untouched — inexpressible in the unrolled
        // model.
        let mut d = Dfg::new("two_indep");
        let a = d.input("a");
        let b = d.input("b");
        let s1 = d.op(OpKind::Add, &[a, b]);
        let s2 = d.op(OpKind::Add, &[b, a]);
        d.output("o1", s1);
        d.output("o2", s2);
        let lib = ComponentLibrary::virtex16();
        let schedule = sched::list_schedule(&d, &lib, &ResourceSet::min_area());
        let binding = bind(&d, &schedule, &lib, BindOptions::default());
        let dp = elaborate_seq_datapath(&d, &schedule, &binding, 3);
        let alu = dp
            .fus
            .iter()
            .position(|f| f.class == FuClass::Alu)
            .expect("alu");
        assert_eq!(dp.fus[alu].ops.len(), 2);
        let inst = dp.fus[alu].instances[0].clone();
        // Stem of the core's low-bit XOR: force the FU sum low bit to 1
        // with all-zero inputs. Find a core site whose transient at the
        // second op's capture cycle corrupts exactly o2.
        let (second_op, second_start) = dp.fus[alu].ops[1];
        let capture = schedule.avail(second_op) - 1;
        assert!(second_start > dp.fus[alu].ops[0].1, "serialized");
        let zero = Word::new(3, 0);
        let mut only_second = false;
        for site in dp.fu_local_sites(alu) {
            let fault =
                SeqStuckAt::transient(StuckAtLine::new(inst.globalize(site), true), capture);
            let out = dp
                .netlist
                .eval_seq_words(&[zero, zero], dp.total_cycles, &[fault]);
            if out[0].bits() == 0 && out[1].bits() != 0 {
                only_second = true;
                break;
            }
        }
        assert!(only_second, "a transient must be local to one control step");
    }

    #[test]
    fn total_cycles_is_schedule_length_plus_one() {
        let dp = elaborate(&mac_dfg(), 3, BindOptions::default());
        assert_eq!(dp.total_cycles, dp.schedule_length + 1);
        assert!(dp.dffs > 0);
        assert!(dp.netlist.is_sequential());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_is_rejected() {
        let d = mac_dfg();
        let lib = ComponentLibrary::virtex16();
        let s = sched::list_schedule(&d, &lib, &ResourceSet::min_area());
        let bnd = bind(&d, &s, &lib, BindOptions::default());
        let _ = elaborate_seq_datapath(&d, &s, &bnd, 0);
    }
}
