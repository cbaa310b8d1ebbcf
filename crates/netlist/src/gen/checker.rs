//! Self-checking datapath generator: the structural realisation of the
//! paper's overloaded operators.

use super::adder::{cla_into, csa_into, rca_into, FaCells, RcaInstance};
use super::compare::neq_into;
use super::mult::array_mult_into;
use crate::{NetId, Netlist, NetlistBuilder, StuckAtLine, StuckSite};
use scdp_core::{Operator, Technique};
use scdp_fault::FaSite;
use std::fmt;

/// Structural realisation of the adder instances inside a generated
/// self-checking `+` datapath.
///
/// The paper claims its coverage analysis is "independent of the actual
/// implementation"; [`self_checking_add_with`] turns that claim into a
/// testable axis by generating the same nominal/checking architecture
/// over structurally different adders.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AdderRealisation {
    /// Chain of five-gate full adders.
    RippleCarry,
    /// 4-bit-group two-level lookahead.
    CarryLookahead,
    /// 3:2 compress stage plus ripple merge.
    CarrySave,
}

impl AdderRealisation {
    /// All realisations, in cross-validation order.
    pub const ALL: [AdderRealisation; 3] = [
        AdderRealisation::RippleCarry,
        AdderRealisation::CarryLookahead,
        AdderRealisation::CarrySave,
    ];

    /// Short table label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AdderRealisation::RippleCarry => "RCA",
            AdderRealisation::CarryLookahead => "CLA",
            AdderRealisation::CarrySave => "CSA",
        }
    }

    /// Appends one adder instance of this realisation.
    fn build_into(
        self,
        b: &mut NetlistBuilder,
        x: &[NetId],
        y: &[NetId],
        cin: NetId,
    ) -> Vec<NetId> {
        match self {
            AdderRealisation::RippleCarry => rca_into(b, x, y, cin).sum,
            AdderRealisation::CarryLookahead => cla_into(b, x, y, cin).0,
            AdderRealisation::CarrySave => csa_into(b, x, y, cin).0,
        }
    }
}

impl fmt::Display for AdderRealisation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Specification of a self-checking datapath to generate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SelfCheckingSpec {
    /// The nominal operator (`Add`, `Sub` or `Mul`; gate-level division
    /// checking is out of scope — see crate docs).
    pub op: Operator,
    /// The checking technique (Table 1 column).
    pub technique: Technique,
    /// Operand width in bits.
    pub width: u32,
}

/// A unit instance inside a generated datapath: the contiguous gate-id
/// range produced by one generator call.
///
/// Instances produced by the same generator at the same width are
/// structurally identical, so a fault at local offset `k` in one instance
/// corresponds to local offset `k` in another — the basis of correlated
/// ("same physical unit, time-multiplexed") fault injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitInstance {
    /// Instance name (e.g. `"nominal"`, `"check1"`).
    pub name: String,
    /// First gate id of the instance.
    pub start: usize,
    /// One past the last gate id of the instance.
    pub end: usize,
}

impl UnitInstance {
    /// Number of gates in the instance.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the instance contains no gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Translates a site local to this instance into a global site.
    ///
    /// # Panics
    ///
    /// Panics if the local gate offset is out of range.
    #[must_use]
    pub fn globalize(&self, local: StuckSite) -> StuckSite {
        assert!(local.gate < self.len(), "local gate out of range");
        StuckSite {
            gate: self.start + local.gate,
            pin: local.pin,
        }
    }
}

/// A generated self-checking datapath: inputs `op1`, `op2`; outputs
/// `ris` (the nominal result) and `error` (1 if any check fired).
#[derive(Clone, Debug)]
pub struct SelfCheckingDatapath {
    /// The generated netlist.
    pub netlist: Netlist,
    /// The specification it was generated from.
    pub spec: SelfCheckingSpec,
    /// The nominal unit instance.
    pub nominal: UnitInstance,
    /// The checking unit instances (same structure as `nominal`).
    pub checkers: Vec<UnitInstance>,
    /// Per-bit full-adder cell maps of the nominal instance, with
    /// instance-local gate offsets. Present only when the nominal unit is
    /// a ripple-carry chain of five-gate full adders (`+`/`−` datapaths
    /// on the [`AdderRealisation::RippleCarry`] realisation) — the
    /// realisations that admit the functional fault model of
    /// `scdp-arith` (see [`SelfCheckingDatapath::fa_gate_fault_groups`]).
    pub fa_cells: Option<Vec<FaCells>>,
}

impl SelfCheckingDatapath {
    /// Correlates a fault local to the nominal unit across **all**
    /// instances — modelling one physical unit reused for the nominal and
    /// checking operations (the paper's worst case).
    ///
    /// # Panics
    ///
    /// Panics if the local gate offset exceeds the instance size.
    #[must_use]
    pub fn correlated_fault(&self, local: StuckSite, value: bool) -> Vec<StuckAtLine> {
        let mut faults = vec![StuckAtLine::new(self.nominal.globalize(local), value)];
        for c in &self.checkers {
            faults.push(StuckAtLine::new(c.globalize(local), value));
        }
        faults
    }

    /// A fault in the nominal unit only — the dedicated-checker
    /// allocation (checking units fault-free).
    ///
    /// # Panics
    ///
    /// Panics if the local gate offset exceeds the instance size.
    #[must_use]
    pub fn nominal_fault(&self, local: StuckSite, value: bool) -> Vec<StuckAtLine> {
        vec![StuckAtLine::new(self.nominal.globalize(local), value)]
    }

    /// The paper's functional fault universe (`32·n`: 16 [`FaSite`]s × 2
    /// polarities per full adder, position-major, stuck-at-0 before
    /// stuck-at-1) expressed as netlist fault groups, in exactly the
    /// enumeration order of `scdp_arith::RippleCarryAdder::gate_faults`.
    ///
    /// Each group is one multiple-stuck-at fault, its lines in gate
    /// order: the structural sites equivalent to the functional
    /// [`FaSite`] ([`FaCells::sites`]), replicated across the nominal
    /// and every checking instance when `correlated` (the
    /// shared-physical-unit worst case) or confined to the nominal
    /// instance otherwise (dedicated checkers).
    ///
    /// Returns `None` when the datapath does not retain full-adder cell
    /// maps (multiplier datapaths, CLA/CSA realisations) — those only
    /// support the structural [`local_sites`](Self::local_sites) model.
    #[must_use]
    pub fn fa_gate_fault_groups(&self, correlated: bool) -> Option<Vec<Vec<StuckAtLine>>> {
        let cells = self.fa_cells.as_ref()?;
        let mut groups = Vec::with_capacity(cells.len() * 32);
        for fa in cells {
            for site in FaSite::ALL {
                for value in [false, true] {
                    let mut group = Vec::new();
                    for local in fa.sites(site) {
                        group.push(StuckAtLine::new(self.nominal.globalize(local), value));
                        if correlated {
                            for c in &self.checkers {
                                group.push(StuckAtLine::new(c.globalize(local), value));
                            }
                        }
                    }
                    group.sort_by_key(|f| (f.site.gate, f.site.pin));
                    groups.push(group);
                }
            }
        }
        Some(groups)
    }

    /// Enumerates every stuck-at site local to one unit instance.
    #[must_use]
    pub fn local_sites(&self) -> Vec<StuckSite> {
        let gates = self.netlist.gates();
        let mut sites = Vec::new();
        for offset in 0..self.nominal.len() {
            let g = gates[self.nominal.start + offset];
            sites.push(StuckSite {
                gate: offset,
                pin: None,
            });
            for pin in 0..g.kind.pins() {
                sites.push(StuckSite {
                    gate: offset,
                    pin: Some(pin),
                });
            }
        }
        sites
    }
}

fn instance(name: &str, start: usize, end: usize) -> UnitInstance {
    UnitInstance {
        name: name.to_string(),
        start,
        end,
    }
}

/// Generates the self-checking datapath for `spec`.
///
/// Layout per operator (checker comparisons are fault-free hardware,
/// outside every instance):
///
/// * **Add**: `ris = op1 + op2` on an RCA; Tech1 re-derives
///   `op2' = ris − op1`, Tech2 `op1' = ris − op2`, each on a structural
///   twin of the adder; `error` ORs the comparator outputs.
/// * **Sub**: `ris = op1 − op2`; Tech1 `op1' = ris + op2`; Tech2
///   `ris' = op2 − op1` plus the zero-check addition `ris + ris'`.
/// * **Mul**: `ris = op1 × op2` on an array multiplier; Tech1
///   `ris' = (−op1) × op2`, Tech2 `ris' = op1 × (−op2)`; each checked by
///   `ris + ris' == 0` (negation and the zero-check adder are fault-free
///   conditioning).
///
/// # Panics
///
/// Panics if `spec.op` is [`Operator::Div`] (not supported at gate
/// level) or `spec.width` is 0.
#[must_use]
pub fn self_checking(spec: SelfCheckingSpec) -> SelfCheckingDatapath {
    assert!(spec.width > 0, "width must be positive");
    let w = spec.width;
    let op_name = match spec.op {
        Operator::Add => "add",
        Operator::Sub => "sub",
        Operator::Mul => "mul",
        Operator::Div => "div",
    };
    let mut b = NetlistBuilder::new(format!("sck_{op_name}_{:?}_{w}", spec.technique));
    let op1 = b.input_bus("op1", w);
    let op2 = b.input_bus("op2", w);

    let (ris, nominal, checkers, error, fa_cells) = match spec.op {
        Operator::Add => build_add(&mut b, spec, &op1, &op2),
        Operator::Sub => build_sub(&mut b, spec, &op1, &op2),
        Operator::Mul => build_mul(&mut b, spec, &op1, &op2),
        Operator::Div => panic!("gate-level division checking is not supported"),
    };

    b.output("ris", &ris);
    b.output("error", &[error]);
    SelfCheckingDatapath {
        netlist: b.finish(),
        spec,
        nominal,
        checkers,
        fa_cells,
    }
}

/// Generates a self-checking `+` datapath whose nominal and checking
/// adder instances all use the given structural `realisation` —
/// `ris = op1 + op2`, Tech1 re-deriving `op2' = ris − op1`, Tech2
/// `op1' = ris − op2` (subtraction through fault-free inverters and
/// carry-in 1 on the same realisation), comparators outside every
/// instance.
///
/// [`self_checking`] with [`Operator::Add`] is the
/// [`AdderRealisation::RippleCarry`] special case (kept separate
/// because it also exposes the full-adder cell map).
///
/// # Panics
///
/// Panics if `width` is 0.
#[must_use]
pub fn self_checking_add_with(
    width: u32,
    technique: Technique,
    realisation: AdderRealisation,
) -> SelfCheckingDatapath {
    assert!(width > 0, "width must be positive");
    let mut b = NetlistBuilder::new(format!(
        "sck_add_{}_{technique:?}_{width}",
        realisation.label()
    ));
    let op1 = b.input_bus("op1", width);
    let op2 = b.input_bus("op2", width);

    let zero = b.constant(false);
    let start = b.mark();
    let (ris, fa_cells) = match realisation {
        AdderRealisation::RippleCarry => {
            let inst = rca_into(&mut b, &op1, &op2, zero);
            let cells = inst.fas.iter().map(|c| c.rebased(start)).collect();
            (inst.sum, Some(cells))
        }
        _ => (realisation.build_into(&mut b, &op1, &op2, zero), None),
    };
    let nominal = instance("nominal", start, b.mark());

    let mut checkers = Vec::new();
    let mut alarms = Vec::new();
    let check = |b: &mut NetlistBuilder, name: &str, minuend: &[NetId], sub: &[NetId]| {
        let ns: Vec<NetId> = sub.iter().map(|&n| b.not(n)).collect();
        let one = b.constant(true);
        let start = b.mark();
        let chk = realisation.build_into(b, minuend, &ns, one);
        (instance(name, start, b.mark()), chk)
    };
    if technique.uses_tech1() {
        let (inst, chk) = check(&mut b, "check1", &ris, &op1);
        alarms.push(neq_into(&mut b, &chk, &op2));
        checkers.push(inst);
    }
    if technique.uses_tech2() {
        let (inst, chk) = check(&mut b, "check2", &ris, &op2);
        alarms.push(neq_into(&mut b, &chk, &op1));
        checkers.push(inst);
    }
    let error = b.or_tree(&alarms);
    b.output("ris", &ris);
    b.output("error", &[error]);
    SelfCheckingDatapath {
        netlist: b.finish(),
        spec: SelfCheckingSpec {
            op: Operator::Add,
            technique,
            width,
        },
        nominal,
        checkers,
        fa_cells,
    }
}

/// Appends an RCA instance computing `x + y + cin`, recording its range.
fn adder_instance(
    b: &mut NetlistBuilder,
    name: &str,
    x: &[NetId],
    y: &[NetId],
    cin: NetId,
) -> (RcaInstance, UnitInstance) {
    let start = b.mark();
    let inst = rca_into(b, x, y, cin);
    let end = b.mark();
    (inst, instance(name, start, end))
}

/// `x - y` through fault-free conditioning (`!y`, carry-in 1) feeding a
/// recorded adder instance.
fn sub_instance(
    b: &mut NetlistBuilder,
    name: &str,
    x: &[NetId],
    y: &[NetId],
) -> (RcaInstance, UnitInstance) {
    let ny: Vec<NetId> = y.iter().map(|&n| b.not(n)).collect();
    let one = b.constant(true);
    adder_instance(b, name, x, &ny, one)
}

/// What every `build_*` generator hands back: result bus, nominal
/// instance, checker instances, error net and (for ripple-carry nominal
/// units) the full-adder cell maps in instance-local offsets.
type BuiltDatapath = (
    Vec<NetId>,
    UnitInstance,
    Vec<UnitInstance>,
    NetId,
    Option<Vec<FaCells>>,
);

fn build_add(
    b: &mut NetlistBuilder,
    spec: SelfCheckingSpec,
    op1: &[NetId],
    op2: &[NetId],
) -> BuiltDatapath {
    let zero = b.constant(false);
    let (nom, nom_inst) = adder_instance(b, "nominal", op1, op2, zero);
    let fa_cells = nom.fas.iter().map(|c| c.rebased(nom_inst.start)).collect();
    let ris = nom.sum.clone();
    let mut checkers = Vec::new();
    let mut alarms = Vec::new();
    if spec.technique.uses_tech1() {
        let (chk, inst) = sub_instance(b, "check1", &ris, op1);
        alarms.push(neq_into(b, &chk.sum, op2));
        checkers.push(inst);
    }
    if spec.technique.uses_tech2() {
        let (chk, inst) = sub_instance(b, "check2", &ris, op2);
        alarms.push(neq_into(b, &chk.sum, op1));
        checkers.push(inst);
    }
    let error = b.or_tree(&alarms);
    (ris, nom_inst, checkers, error, Some(fa_cells))
}

fn build_sub(
    b: &mut NetlistBuilder,
    spec: SelfCheckingSpec,
    op1: &[NetId],
    op2: &[NetId],
) -> BuiltDatapath {
    let (nom, nom_inst) = sub_instance(b, "nominal", op1, op2);
    let fa_cells = nom.fas.iter().map(|c| c.rebased(nom_inst.start)).collect();
    let ris = nom.sum.clone();
    let mut checkers = Vec::new();
    let mut alarms = Vec::new();
    if spec.technique.uses_tech1() {
        let zero = b.constant(false);
        let (chk, inst) = adder_instance(b, "check1", &ris, op2, zero);
        alarms.push(neq_into(b, &chk.sum, op1));
        checkers.push(inst);
    }
    if spec.technique.uses_tech2() {
        let (dual, dual_inst) = sub_instance(b, "check2a", op2, op1);
        let zero = b.constant(false);
        let (zsum, zsum_inst) = adder_instance(b, "check2b", &ris, &dual.sum, zero);
        let any = b.or_tree(&zsum.sum);
        alarms.push(any);
        checkers.push(dual_inst);
        checkers.push(zsum_inst);
    }
    let error = b.or_tree(&alarms);
    (ris, nom_inst, checkers, error, Some(fa_cells))
}

fn build_mul(
    b: &mut NetlistBuilder,
    spec: SelfCheckingSpec,
    op1: &[NetId],
    op2: &[NetId],
) -> BuiltDatapath {
    let start = b.mark();
    let (ris, _) = array_mult_into(b, op1, op2);
    let nom_inst = instance("nominal", start, b.mark());
    let mut checkers = Vec::new();
    let mut alarms = Vec::new();
    if spec.technique.uses_tech1() {
        let neg1 = negate_bus(b, op1);
        let start = b.mark();
        let (risp, _) = array_mult_into(b, &neg1, op2);
        checkers.push(instance("check1", start, b.mark()));
        alarms.push(zero_sum_alarm(b, &ris, &risp));
    }
    if spec.technique.uses_tech2() {
        let neg2 = negate_bus(b, op2);
        let start = b.mark();
        let (risp, _) = array_mult_into(b, op1, &neg2);
        checkers.push(instance("check2", start, b.mark()));
        alarms.push(zero_sum_alarm(b, &ris, &risp));
    }
    let error = b.or_tree(&alarms);
    (ris, nom_inst, checkers, error, None)
}

/// Fault-free negation: `!x + 1` via inverters and an adder outside any
/// instance.
fn negate_bus(b: &mut NetlistBuilder, x: &[NetId]) -> Vec<NetId> {
    let nx: Vec<NetId> = x.iter().map(|&n| b.not(n)).collect();
    let zero = b.constant(false);
    let zeros = vec![zero; x.len()];
    let one = b.constant(true);
    rca_into(b, &nx, &zeros, one).sum
}

/// Fault-free `ris + ris' != 0` alarm.
fn zero_sum_alarm(b: &mut NetlistBuilder, ris: &[NetId], risp: &[NetId]) -> NetId {
    let zero = b.constant(false);
    let sum = rca_into(b, ris, risp, zero).sum;
    b.or_tree(&sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_arith::Word;

    fn eval(dp: &SelfCheckingDatapath, a: Word, b: Word, faults: &[StuckAtLine]) -> (Word, bool) {
        let out = dp.netlist.eval_words(&[a, b], faults);
        (out[0], out[1].bits() != 0)
    }

    #[test]
    fn add_datapath_fault_free() {
        for tech in [Technique::Tech1, Technique::Tech2, Technique::Both] {
            let dp = self_checking(SelfCheckingSpec {
                op: Operator::Add,
                technique: tech,
                width: 4,
            });
            for a in Word::all(4) {
                for b in Word::all(4) {
                    let (ris, err) = eval(&dp, a, b, &[]);
                    assert_eq!(ris, a.wrapping_add(b));
                    assert!(!err, "{tech} {a:?}+{b:?}");
                }
            }
        }
    }

    #[test]
    fn sub_datapath_fault_free() {
        let dp = self_checking(SelfCheckingSpec {
            op: Operator::Sub,
            technique: Technique::Both,
            width: 4,
        });
        for a in Word::all(4) {
            for b in Word::all(4) {
                let (ris, err) = eval(&dp, a, b, &[]);
                assert_eq!(ris, a.wrapping_sub(b));
                assert!(!err);
            }
        }
    }

    #[test]
    fn mul_datapath_fault_free() {
        let dp = self_checking(SelfCheckingSpec {
            op: Operator::Mul,
            technique: Technique::Both,
            width: 4,
        });
        for a in Word::all(4) {
            for b in Word::all(4) {
                let (ris, err) = eval(&dp, a, b, &[]);
                assert_eq!(ris, a.wrapping_mul(b));
                assert!(!err, "{a:?}*{b:?}");
            }
        }
    }

    #[test]
    fn dedicated_fault_always_detected_when_observable() {
        let dp = self_checking(SelfCheckingSpec {
            op: Operator::Add,
            technique: Technique::Tech1,
            width: 3,
        });
        for site in dp.local_sites() {
            for value in [false, true] {
                let faults = dp.nominal_fault(site, value);
                for a in Word::all(3) {
                    for b in Word::all(3) {
                        let (ris, err) = eval(&dp, a, b, &faults);
                        if ris != a.wrapping_add(b) {
                            assert!(err, "site {site:?} sa{} {a:?}+{b:?}", u8::from(value));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn correlated_fault_can_escape() {
        let dp = self_checking(SelfCheckingSpec {
            op: Operator::Add,
            technique: Technique::Tech1,
            width: 3,
        });
        let mut escaped = false;
        'outer: for site in dp.local_sites() {
            for value in [false, true] {
                let faults = dp.correlated_fault(site, value);
                for a in Word::all(3) {
                    for b in Word::all(3) {
                        let (ris, err) = eval(&dp, a, b, &faults);
                        if ris != a.wrapping_add(b) && !err {
                            escaped = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(escaped, "shared-unit masking must exist at gate level");
    }

    #[test]
    fn fa_gate_groups_follow_functional_universe_shape() {
        let dp = self_checking(SelfCheckingSpec {
            op: Operator::Add,
            technique: Technique::Both,
            width: 3,
        });
        let groups = dp
            .fa_gate_fault_groups(true)
            .expect("RCA add has cell maps");
        assert_eq!(groups.len(), 32 * 3, "16 sites x 2 polarities x n bits");
        // The a-stem site is two branch pins, correlated across the
        // nominal and both checker instances.
        assert_eq!(groups[0].len(), 2 * 3);
        // Dedicated injection confines the group to the nominal unit.
        let nominal_only = dp.fa_gate_fault_groups(false).expect("cell maps");
        assert_eq!(nominal_only[0].len(), 2);
        // Multiplier datapaths have no full-adder cell map.
        let mul = self_checking(SelfCheckingSpec {
            op: Operator::Mul,
            technique: Technique::Tech1,
            width: 2,
        });
        assert!(mul.fa_gate_fault_groups(true).is_none());
    }

    /// The twin groups must corrupt the generated nominal adder exactly
    /// as `RippleCarryAdder::gate_faults` corrupts the functional one —
    /// fault-for-fault, in the same enumeration order.
    #[test]
    fn fa_gate_groups_reproduce_functional_adder_faults() {
        use scdp_arith::RippleCarryAdder;
        let width = 2;
        let dp = self_checking(SelfCheckingSpec {
            op: Operator::Add,
            technique: Technique::Tech1,
            width,
        });
        let adder = RippleCarryAdder::new(width);
        let groups = dp.fa_gate_fault_groups(false).expect("cell maps");
        let faults: Vec<_> = adder.gate_faults().collect();
        assert_eq!(groups.len(), faults.len());
        for (rf, group) in faults.iter().zip(&groups) {
            for a in Word::all(width) {
                for b in Word::all(width) {
                    let out = dp.netlist.eval_words(&[a, b], group);
                    assert_eq!(out[0], adder.add(a, b, Some(*rf)), "{rf:?} {a:?}+{b:?}");
                }
            }
        }
    }

    #[test]
    fn instances_are_structurally_identical() {
        let dp = self_checking(SelfCheckingSpec {
            op: Operator::Add,
            technique: Technique::Both,
            width: 8,
        });
        let gates = dp.netlist.gates();
        for c in &dp.checkers {
            assert_eq!(c.len(), dp.nominal.len(), "{}", c.name);
            for k in 0..c.len() {
                assert_eq!(
                    gates[dp.nominal.start + k].kind,
                    gates[c.start + k].kind,
                    "gate kind mismatch at offset {k} in {}",
                    c.name
                );
            }
        }
    }
}
