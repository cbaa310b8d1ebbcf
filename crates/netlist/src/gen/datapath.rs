//! Datapath elaboration: lowering a scheduled, bound dataflow graph
//! onto one flat structural netlist.
//!
//! The paper's flow ends where `scdp-hls` stops: a scheduled `Dfg` with
//! a functional-unit [`Binding`]. This module closes the remaining gap
//! to the gate level — it *elaborates* that triple into a single
//! combinational [`Netlist`] on which the bit-parallel stuck-at engine
//! of `scdp-sim` can run whole-datapath fault campaigns (the paper's
//! system-level reliability validation, not just lone operators).
//!
//! # The unrolled-time model
//!
//! The netlist IR is combinational, so the schedule is unrolled in
//! time: every operation bound to a physical functional unit becomes
//! one structural **instance** of that unit's template (operand mux
//! chains + arithmetic core). All instances of one FU are gate-for-gate
//! identical, which is exactly what makes time-multiplexing matter for
//! reliability: a stuck-at fault in the physical unit corrupts *every*
//! operation executed on it, modelled here by injecting the same
//! instance-local site into every instance of the FU
//! ([`ElaboratedDatapath::fu_fault_groups`]). Registers degrade to
//! wires under unrolling (their faults are out of scope); the
//! multiplexer trees in front of shared units are real gates with real
//! fault sites, steered by per-instance constant selects (the decoded
//! controller state of the cycle the operation executes in). Inactive
//! mux legs are tied to zero — the unrolled model's don't-care.
//!
//! # Operation lowering
//!
//! | DFG node | Hardware |
//! |----------|----------|
//! | `Add`/`Sub`/`Neg` | shared ripple-carry core; operand conditioning (inverters, carry-in) outside the instance, as in the paper's fault-free *g*/*f* functions |
//! | `Mul` | array-multiplier core |
//! | `Div`/`Rem` | unrolled restoring-divider core (quotient / remainder tap) |
//! | `Load` | a fresh primary input bus (memory contents are unknowable combinationally); its address is exported as a result bus so address corruption is observable |
//! | `Store` | address and value exported as result buses |
//! | `CmpNe`/`OrBit` | fault-free chained checker logic (disequality comparator / alarm OR), outside every instance |
//! | `Output` | a result bus — except `error`/`_err*` outputs, which are collected into the single 1-bit `error` alarm bus |

use super::adder::rca_into;
use super::compare::neq_into;
use super::divider::restoring_divider_into;
use super::mult::array_mult_into;
use super::UnitInstance;
use crate::{NetId, Netlist, NetlistBuilder, StuckAtLine, StuckSite};
use scdp_hls::{Binding, Dfg, FuClass, NodeId, OpKind, Role, Schedule};

/// One elaborated physical functional unit: its binding metadata plus
/// its structurally identical gate instances. The unrolled elaboration
/// creates one instance per operation the unit executes; the sequential
/// one creates the unit's single physical instance. Memory ports
/// elaborate to primary inputs/outputs and have none.
#[derive(Clone, Debug)]
pub struct FuSpan {
    /// Instance name, `<class><index>` (e.g. `alu0`, `mult1`).
    pub name: String,
    /// The unit's resource class.
    pub class: FuClass,
    /// Role partition of the operations bound here (first op's role
    /// when the binding mixes roles on one unit).
    pub role: Role,
    /// The operations executed on this unit with their start cycles,
    /// in schedule order — the mux-leg order of the operand chains.
    pub ops: Vec<(NodeId, u32)>,
    /// The unit's gate spans: one per operation in the same order as
    /// `ops` (unrolled), or the single physical one (sequential).
    pub instances: Vec<UnitInstance>,
    /// Gates of the operand mux chains at the start of every instance;
    /// local sites below this offset sit in the steering logic, whose
    /// fault behaviour legitimately differs between the elaborations
    /// (per-instance constant selects vs dynamic select lines).
    pub mux_gates: usize,
}

impl FuSpan {
    /// Gate count of one instance (0 for memory ports).
    #[must_use]
    pub fn instance_gates(&self) -> usize {
        self.instances.first().map_or(0, UnitInstance::len)
    }

    /// Every stuck-at site local to one instance (empty for memory
    /// ports): each gate's stem, then its input pins.
    pub(super) fn local_sites(&self, netlist: &Netlist) -> Vec<StuckSite> {
        let Some(first) = self.instances.first() else {
            return Vec::new();
        };
        let mut sites = Vec::new();
        for (offset, g) in netlist.gates()[first.start..first.end].iter().enumerate() {
            sites.push(StuckSite {
                gate: offset,
                pin: None,
            });
            sites.extend((0..g.kind.pins()).map(|pin| StuckSite {
                gate: offset,
                pin: Some(pin),
            }));
        }
        sites
    }

    /// Every local site, both polarities, each group holding the site
    /// in every instance of the unit.
    pub(super) fn fault_groups(&self, netlist: &Netlist) -> Vec<Vec<StuckAtLine>> {
        let mut groups = Vec::new();
        for site in self.local_sites(netlist) {
            for value in [false, true] {
                groups.push(
                    self.instances
                        .iter()
                        .map(|inst| StuckAtLine::new(inst.globalize(site), value))
                        .collect(),
                );
            }
        }
        groups
    }
}

/// The fault universe of a machine with units `fus`: every FU's groups
/// in binding order, plus the group-index range of each FU.
pub(super) fn fault_universe(
    netlist: &Netlist,
    fus: &[FuSpan],
) -> (Vec<Vec<StuckAtLine>>, Vec<FuFaultRange>) {
    let mut groups = Vec::new();
    let mut ranges = Vec::with_capacity(fus.len());
    for (fu, span) in fus.iter().enumerate() {
        let start = groups.len();
        groups.extend(span.fault_groups(netlist));
        ranges.push(FuFaultRange {
            fu,
            start,
            end: groups.len(),
        });
    }
    (groups, ranges)
}

/// Group-index range of one FU inside the universe returned by
/// [`ElaboratedDatapath::fault_universe`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuFaultRange {
    /// Index of the FU in [`ElaboratedDatapath::fus`].
    pub fu: usize,
    /// First group index of this FU's faults.
    pub start: usize,
    /// One past the last group index.
    pub end: usize,
}

/// The result of elaborating a `(Dfg, Schedule, Binding)` triple: one
/// flat netlist plus the per-FU gate spans that define the datapath's
/// fault universe.
#[derive(Clone, Debug)]
pub struct ElaboratedDatapath {
    /// The elaborated netlist (`error` output = alarm bus).
    pub netlist: Netlist,
    /// One span per bound functional unit, binding order.
    pub fus: Vec<FuSpan>,
    /// Operand width in bits.
    pub width: u32,
    /// Node count of the elaborated DFG (for reports).
    pub nodes: usize,
    /// Schedule length in cycles (for reports).
    pub schedule_length: u32,
    /// Word-wide registers of the binding (transparent wires under
    /// unrolling; recorded for reports).
    pub registers: usize,
    /// Word-wide mux input legs of the binding.
    pub mux_legs: usize,
}

impl ElaboratedDatapath {
    /// Enumerates every stuck-at site local to one instance of FU
    /// `fu` (empty for memory ports).
    ///
    /// # Panics
    ///
    /// Panics if `fu` is out of range.
    #[must_use]
    pub fn fu_local_sites(&self, fu: usize) -> Vec<StuckSite> {
        self.fus[fu].local_sites(&self.netlist)
    }

    /// The fault groups of one FU: every instance-local site, both
    /// polarities, each correlated across **all** instances of the unit
    /// (a physical fault corrupts every operation time-multiplexed onto
    /// the unit).
    ///
    /// # Panics
    ///
    /// Panics if `fu` is out of range.
    #[must_use]
    pub fn fu_fault_groups(&self, fu: usize) -> Vec<Vec<StuckAtLine>> {
        self.fus[fu].fault_groups(&self.netlist)
    }

    /// The whole datapath's fault universe: the concatenation of every
    /// FU's groups in binding order, plus the group-index range of each
    /// FU (the basis of per-FU campaign tallies).
    #[must_use]
    pub fn fault_universe(&self) -> (Vec<Vec<StuckAtLine>>, Vec<FuFaultRange>) {
        fault_universe(&self.netlist, &self.fus)
    }
}

/// The netlist value of one DFG node during elaboration.
#[derive(Clone, Debug, Default)]
pub(super) enum Value {
    /// Virtual nodes with no bus (outputs, stores) or not yet lowered.
    #[default]
    None,
    /// A bus of nets (operation results, inputs, constants: `width`
    /// bits; comparators and alarm bits: 1 bit).
    Bus(Vec<NetId>),
}

impl Value {
    pub(super) fn bus(&self) -> &[NetId] {
        match self {
            Value::Bus(b) => b,
            Value::None => panic!("node has no bus value"),
        }
    }
}

/// Names every bound unit `<class><index>` and orders its operations
/// by start cycle (the mux-leg order). Returns the spans, still without
/// instances, and each node's `(fu index, leg position)`.
pub(super) fn bind_fus(
    dfg: &Dfg,
    schedule: &Schedule,
    binding: &Binding,
) -> (Vec<FuSpan>, Vec<Option<(usize, usize)>>) {
    let mut assignment = vec![None; dfg.len()];
    let mut fus: Vec<FuSpan> = Vec::new();
    let mut class_counts: std::collections::HashMap<&'static str, usize> =
        std::collections::HashMap::new();
    for fu in &binding.fus {
        let label = class_label(fu.class);
        let index = class_counts.entry(label).or_insert(0);
        let name = format!("{label}{index}");
        *index += 1;
        let mut ops: Vec<(NodeId, u32)> =
            fu.ops.iter().map(|&id| (id, schedule.start(id))).collect();
        ops.sort_by_key(|&(id, start)| (start, id.index()));
        for (leg, &(id, _)) in ops.iter().enumerate() {
            assignment[id.index()] = Some((fus.len(), leg));
        }
        fus.push(FuSpan {
            name,
            class: fu.class,
            role: fu.role,
            ops,
            instances: Vec::new(),
            mux_gates: 0,
        });
    }
    (fus, assignment)
}

/// Operand conditioning of one arithmetic operation, outside every
/// instance (the paper's fault-free *g*/*f* functions): `Sub` inverts
/// its second operand and `Neg` its only one, both with carry-in 1.
/// Returns the two port buses and the carry-in.
pub(super) fn condition(
    b: &mut NetlistBuilder,
    kind: &OpKind,
    args: &[NodeId],
    values: &[Value],
    zeros: &[NetId],
) -> (Vec<NetId>, Vec<NetId>, bool) {
    let arg = |i: usize| values[args[i].index()].bus();
    match kind {
        OpKind::Sub => {
            let ny = arg(1).iter().map(|&n| b.not(n)).collect();
            (arg(0).to_vec(), ny, true)
        }
        OpKind::Neg => {
            let nx = arg(0).iter().map(|&n| b.not(n)).collect();
            (nx, zeros.to_vec(), true)
        }
        _ => (arg(0).to_vec(), arg(1).to_vec(), false),
    }
}

/// The result buses of one FU core.
pub(super) struct FuOut {
    /// Sum / product / quotient bus.
    main: Vec<NetId>,
    /// Remainder bus (divider units only).
    rem: Option<Vec<NetId>>,
}

impl FuOut {
    /// The bus an operation of `kind` reads: the remainder tap for
    /// `Rem`, the main bus otherwise.
    pub(super) fn result(&self, kind: &OpKind) -> &[NetId] {
        match kind {
            OpKind::Rem => self.rem.as_ref().expect("divider remainder tap"),
            _ => &self.main,
        }
    }
}

/// Appends one instance of `span`'s unit named `name`: the operand mux
/// chains of both ports over `legs`, steered by `selects`, then the
/// arithmetic core (carry-in `cin` feeds ALUs). Records the instance in
/// `span.instances` and the chains' size in `span.mux_gates`.
pub(super) fn push_instance(
    b: &mut NetlistBuilder,
    span: &mut FuSpan,
    name: String,
    legs: [&[Vec<NetId>]; 2],
    selects: &[NetId],
    cin: NetId,
) -> FuOut {
    let start = b.mark();
    let a_port = mux_chain(b, legs[0], selects);
    let b_port = mux_chain(b, legs[1], selects);
    span.mux_gates = b.mark() - start;
    let (main, rem) = match span.class {
        FuClass::Alu => (rca_into(b, &a_port, &b_port, cin).sum, None),
        FuClass::Mult => (array_mult_into(b, &a_port, &b_port).0, None),
        FuClass::Div => {
            let (q, r) = restoring_divider_into(b, &a_port, &b_port);
            (q, Some(r))
        }
        FuClass::Mem => unreachable!("memory ports carry no gates"),
    };
    span.instances.push(UnitInstance {
        name,
        start,
        end: b.mark(),
    });
    FuOut { main, rem }
}

/// The operand mux chain of one FU port: leg 0 is the chain default;
/// `selects[m - 1]` steers leg `m` in. Creates `4 × selects.len()`
/// gates per bit whatever the legs carry, so every instance of a unit,
/// in either elaboration, has the same gate kinds at the same offsets.
fn mux_chain(b: &mut NetlistBuilder, legs: &[Vec<NetId>], selects: &[NetId]) -> Vec<NetId> {
    let mut acc = legs[0].clone();
    for (&sel, leg) in selects.iter().zip(&legs[1..]) {
        acc = acc
            .iter()
            .zip(leg)
            .map(|(&a, &l)| b.mux(a, l, sel))
            .collect();
    }
    acc
}

/// The result and alarm buses of a machine, collected in DFG order.
#[derive(Default)]
pub(super) struct Ports {
    results: Vec<(String, Vec<NetId>)>,
    alarms: Vec<NetId>,
    /// `Load` nodes recorded so far (the index of the next load bus).
    pub(super) loads: usize,
    stores: usize,
}

impl Ports {
    /// Records what an `Output`, `Load` or `Store` node exports: a
    /// result bus or, for `error`/`_err*` outputs, an alarm bit; a load
    /// address; a store address and value.
    pub(super) fn record(&mut self, kind: &OpKind, args: &[NodeId], values: &[Value]) {
        let arg = |i: usize| values[args[i].index()].bus().to_vec();
        match kind {
            OpKind::Output(name) if name == "error" || name.starts_with("_err") => {
                self.alarms.push(arg(0)[0]);
            }
            OpKind::Output(name) => self.results.push((name.clone(), arg(0))),
            OpKind::Load { .. } => {
                self.results
                    .push((format!("load{}_addr", self.loads), arg(0)));
                self.loads += 1;
            }
            OpKind::Store { .. } => {
                for (i, part) in ["addr", "val"].into_iter().enumerate().take(args.len()) {
                    let name = format!("store{}_{part}", self.stores);
                    self.results.push((name, arg(i)));
                }
                self.stores += 1;
            }
            _ => unreachable!("only outputs, loads and stores export buses"),
        }
    }

    /// Emits the result buses in recorded order, then the single 1-bit
    /// `error` bus ORing every alarm.
    pub(super) fn emit(self, b: &mut NetlistBuilder) {
        for (name, bus) in self.results {
            b.output(name, &bus);
        }
        let error = b.or_tree(&self.alarms);
        b.output("error", &[error]);
    }
}

/// Elaborates a scheduled, bound DFG into one flat structural netlist.
///
/// `binding` must come from [`scdp_hls::bind()`] over the same `dfg` and
/// `schedule`; every non-virtual, non-chained node must be bound to
/// exactly one functional unit.
///
/// # Panics
///
/// Panics if `width` is 0 or above 32, or if the binding does not cover
/// the DFG.
#[must_use]
pub fn elaborate_datapath(
    dfg: &Dfg,
    schedule: &Schedule,
    binding: &Binding,
    width: u32,
) -> ElaboratedDatapath {
    assert!((1..=32).contains(&width), "width {width} out of range");
    let mut b = NetlistBuilder::new(format!("dp_{}_{width}", dfg.name()));
    let (mut fus, assignment) = bind_fus(dfg, schedule, binding);

    let zero = b.constant(false);
    let zeros: Vec<NetId> = vec![zero; width as usize];
    let mut values: Vec<Value> = Vec::with_capacity(dfg.len());
    let mut ports = Ports::default();

    for (id, node) in dfg.iter() {
        let value = match &node.kind {
            OpKind::Input(name) => Value::Bus(b.input_bus(name.clone(), width)),
            OpKind::Const(v) => Value::Bus(const_bus(&mut b, *v, width)),
            OpKind::Output(_) | OpKind::Store { .. } => {
                ports.record(&node.kind, &node.args, &values);
                Value::None
            }
            OpKind::Load { bank } => {
                let data = b.input_bus(format!("load{}_b{bank}", ports.loads), width);
                ports.record(&node.kind, &node.args, &values);
                Value::Bus(data)
            }
            OpKind::CmpNe => {
                let x = values[node.args[0].index()].bus().to_vec();
                let y = values[node.args[1].index()].bus().to_vec();
                Value::Bus(vec![neq_into(&mut b, &x, &y)])
            }
            OpKind::OrBit => {
                let x = values[node.args[0].index()].bus()[0];
                let y = values[node.args[1].index()].bus()[0];
                Value::Bus(vec![b.or(x, y)])
            }
            kind @ (OpKind::Add
            | OpKind::Sub
            | OpKind::Neg
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Rem) => {
                let (fu, leg) = assignment[id.index()].expect("sequential node is bound");
                let (port0, port1, cin) = condition(&mut b, kind, &node.args, &values, &zeros);
                let legs = fus[fu].ops.len();
                // Per-instance constant selects and carry-in, created
                // outside the span so every instance keeps identical
                // gate kinds at identical offsets.
                let selects: Vec<NetId> = (1..legs).map(|m| b.constant(m == leg)).collect();
                let cin_net = b.constant(cin);
                // Only this operation's leg is live; the others are
                // tied to zero, the unrolled model's don't-care.
                let chain = |port: Vec<NetId>| {
                    let mut buses = vec![zeros.clone(); legs];
                    buses[leg] = port;
                    buses
                };
                let (legs0, legs1) = (chain(port0), chain(port1));
                let name = format!("{}@{}", fus[fu].name, fus[fu].ops[leg].1);
                let out = push_instance(
                    &mut b,
                    &mut fus[fu],
                    name,
                    [&legs0, &legs1],
                    &selects,
                    cin_net,
                );
                Value::Bus(out.result(kind).to_vec())
            }
        };
        values.push(value);
    }
    ports.emit(&mut b);

    ElaboratedDatapath {
        netlist: b.finish(),
        fus,
        width,
        nodes: dfg.len(),
        schedule_length: schedule.length(),
        registers: binding.registers,
        mux_legs: binding.mux_legs,
    }
}

/// The short serialisation label of a resource class.
#[must_use]
pub fn class_label(class: FuClass) -> &'static str {
    match class {
        FuClass::Alu => "alu",
        FuClass::Mult => "mult",
        FuClass::Div => "div",
        FuClass::Mem => "mem",
    }
}

/// A constant bus holding the low `width` bits of `v` (two's
/// complement).
pub(super) fn const_bus(b: &mut NetlistBuilder, v: i64, width: u32) -> Vec<NetId> {
    (0..width).map(|i| b.constant((v >> i) & 1 != 0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_arith::Word;
    use scdp_core::Technique;
    use scdp_hls::{bind, sched, BindOptions, ComponentLibrary, ResourceSet, SckStyle};

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

    fn elaborate(dfg: &Dfg, width: u32, opts: BindOptions) -> ElaboratedDatapath {
        let lib = ComponentLibrary::virtex16();
        let schedule = sched::list_schedule(dfg, &lib, &ResourceSet::min_area());
        let binding = bind(dfg, &schedule, &lib, opts);
        elaborate_datapath(dfg, &schedule, &binding, width)
    }

    /// Fault-free cross-check of an elaborated netlist against the
    /// shared interpreter, over a deterministic input sweep.
    fn check_fault_free(dfg: &Dfg, width: u32, opts: BindOptions) {
        let dp = elaborate(dfg, width, opts);
        let buses = dp.netlist.inputs().len();
        let mut seed = 0x5EED_1234_u64;
        for _ in 0..24 {
            let inputs: Vec<Word> = (0..buses)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    Word::new(width, (seed >> 24) & ((1 << width) - 1))
                })
                .collect();
            let out = dp.netlist.eval_words(&inputs, &[]);
            let ev = super::super::interp::interpret_dfg(dfg, width, &inputs);
            assert!(!ev.alarm, "interpreter must be alarm-free fault-free");
            let n = out.len();
            assert_eq!(out[n - 1].bits(), 0, "fault-free alarm fired");
            for (i, e) in ev.results.iter().enumerate() {
                assert_eq!(out[i], *e, "{} result bus {i}", dfg.name());
            }
        }
    }

    #[test]
    fn mac_elaborates_and_matches_interpreter() {
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
    fn fu_instances_are_structurally_identical() {
        let g = scdp_hls::expand_sck(&scdp_test_fir(), Technique::Tech1, SckStyle::Full);
        let dp = elaborate(&g, 4, BindOptions::default());
        let gates = dp.netlist.gates();
        let mut shared_fu_seen = false;
        for span in &dp.fus {
            let Some(first) = span.instances.first() else {
                assert_eq!(span.class, FuClass::Mem);
                continue;
            };
            if span.instances.len() > 1 {
                shared_fu_seen = true;
            }
            for inst in &span.instances {
                assert_eq!(inst.len(), first.len(), "{}", span.name);
                for k in 0..inst.len() {
                    assert_eq!(
                        gates[first.start + k].kind,
                        gates[inst.start + k].kind,
                        "gate kind mismatch at offset {k} in {}",
                        span.name
                    );
                }
            }
        }
        assert!(shared_fu_seen, "min-area FIR must share at least one FU");
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
                // Each group correlates the site across every instance.
                for g in &groups[r.start..r.end] {
                    assert_eq!(g.len(), span.instances.len());
                }
            }
        }
        assert_eq!(cursor, groups.len());
    }

    #[test]
    fn correlated_fault_corrupts_every_use_of_the_unit() {
        // One ALU executing two adds: a stem fault forced onto the
        // ALU's sum bit must corrupt both results at once.
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
        assert_eq!(dp.fus[alu].instances.len(), 2, "both adds share the ALU");
        // Stuck the low sum bit of the core at 1 across both instances:
        // with a = b = 0 both results must read 1 — and differ from the
        // dedicated case where only the first instance is faulted.
        let sites = dp.fu_local_sites(alu);
        let mut corrupted_both = false;
        for site in sites {
            for value in [false, true] {
                let group: Vec<StuckAtLine> = dp.fus[alu]
                    .instances
                    .iter()
                    .map(|i| StuckAtLine::new(i.globalize(site), value))
                    .collect();
                let zero = Word::new(3, 0);
                let out = dp.netlist.eval_words(&[zero, zero], &group);
                if out[0].bits() != 0 && out[1].bits() != 0 {
                    corrupted_both = true;
                }
            }
        }
        assert!(corrupted_both, "some physical fault must hit both uses");
    }

    #[test]
    fn mux_width_matches_binding_sharing() {
        // A shared FU with k ops must elaborate k instances whose gate
        // count includes the mux chains: (k-1) legs x 4 gates x 2 ports
        // on top of the bare core.
        let mut d = Dfg::new("three_adds");
        let a = d.input("a");
        let b = d.input("b");
        let s1 = d.op(OpKind::Add, &[a, b]);
        let s2 = d.op(OpKind::Add, &[s1, b]);
        let s3 = d.op(OpKind::Add, &[s2, a]);
        d.output("o", s3);
        let w = 4u32;
        let dp = elaborate(&d, w, BindOptions::default());
        let alu = dp
            .fus
            .iter()
            .position(|f| f.class == FuClass::Alu)
            .expect("alu");
        let k = dp.fus[alu].instances.len();
        assert_eq!(k, 3);
        let core = 5 * w as usize;
        let muxes = 2 * (k - 1) * 4 * w as usize;
        assert_eq!(dp.fus[alu].instance_gates(), core + muxes);
        assert_eq!(dp.fus[alu].mux_gates, muxes);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_is_rejected() {
        let d = mac_dfg();
        let lib = ComponentLibrary::virtex16();
        let s = sched::list_schedule(&d, &lib, &ResourceSet::min_area());
        let bnd = bind(&d, &s, &lib, BindOptions::default());
        let _ = elaborate_datapath(&d, &s, &bnd, 0);
    }
}
