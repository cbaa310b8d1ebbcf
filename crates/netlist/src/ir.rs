//! Structural netlist IR: gates, buses, evaluation, fault injection.

use scdp_arith::Word;
use std::fmt;

/// Identifier of a net (the output of the gate with the same index).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) usize);

impl NetId {
    /// The dense index of this net.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Primitive gate kinds (at most two inputs; wider functions are built as
/// trees by [`NetlistBuilder`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input bit.
    Input,
    /// Constant driver.
    Const(bool),
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// 2-input XOR.
    Xor,
    /// 2-input NAND.
    Nand,
    /// 2-input NOR.
    Nor,
    /// 2-input XNOR.
    Xnor,
    /// Inverter.
    Not,
    /// Buffer (used to materialise fanout stems where useful).
    Buf,
    /// D flip-flop (register bit). Its output is the *state* captured at
    /// the end of the previous cycle; the single input pin is the D line
    /// sampled at the end of the current cycle. State resets to 0. The
    /// D input may be connected *after* creation
    /// ([`NetlistBuilder::connect_dff`]) — registers are exactly where
    /// combinational feedback is legal.
    Dff,
}

impl GateKind {
    /// Number of input pins.
    #[must_use]
    pub fn pins(self) -> u8 {
        match self {
            GateKind::Input | GateKind::Const(_) => 0,
            GateKind::Not | GateKind::Buf | GateKind::Dff => 1,
            _ => 2,
        }
    }
}

/// One gate instance; drives the net with its own index.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// The gate's function.
    pub kind: GateKind,
    /// First input, if any.
    pub a: Option<NetId>,
    /// Second input, if any.
    pub b: Option<NetId>,
}

/// A stuck-at fault site: a gate output (stem) or one of its input pins
/// (fanout branch).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct StuckSite {
    /// The gate the fault is attached to.
    pub gate: usize,
    /// `None` = output stem; `Some(0)`/`Some(1)` = input pin.
    pub pin: Option<u8>,
}

/// A stuck-at fault: `site` stuck at `value`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct StuckAtLine {
    /// Where the fault sits.
    pub site: StuckSite,
    /// The forced logic value.
    pub value: bool,
}

impl StuckAtLine {
    /// Creates a stuck-at fault.
    #[must_use]
    pub fn new(site: StuckSite, value: bool) -> Self {
        Self { site, value }
    }
}

/// How long a fault is active during a sequential (multi-cycle)
/// evaluation.
///
/// Combinational campaigns only know permanent faults; the cycle axis of
/// sequential simulation adds single-cycle transients (an SEU-style
/// upset that corrupts the datapath for exactly one control step).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultDuration {
    /// Active in every cycle (a structural defect).
    Permanent,
    /// Active only during `cycle` (0-based).
    Transient {
        /// The single cycle the fault is active in.
        cycle: u32,
    },
}

impl FaultDuration {
    /// `true` if the fault is active during `cycle`.
    #[must_use]
    pub fn active_at(self, cycle: u32) -> bool {
        match self {
            FaultDuration::Permanent => true,
            FaultDuration::Transient { cycle: c } => c == cycle,
        }
    }
}

impl fmt::Display for FaultDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultDuration::Permanent => f.write_str("permanent"),
            FaultDuration::Transient { cycle } => write!(f, "transient@{cycle}"),
        }
    }
}

/// A stuck-at fault with a duration, for sequential evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct SeqStuckAt {
    /// The stuck line.
    pub line: StuckAtLine,
    /// When the line is forced.
    pub duration: FaultDuration,
}

impl SeqStuckAt {
    /// A permanently stuck line.
    #[must_use]
    pub fn permanent(line: StuckAtLine) -> Self {
        Self {
            line,
            duration: FaultDuration::Permanent,
        }
    }

    /// A line stuck only during `cycle`.
    #[must_use]
    pub fn transient(line: StuckAtLine, cycle: u32) -> Self {
        Self {
            line,
            duration: FaultDuration::Transient { cycle },
        }
    }
}

/// A gate-level netlist with named input/output buses.
///
/// Combinational gates are stored in topological order (the builder only
/// references already-created nets), so evaluation is a single forward
/// pass. [`GateKind::Dff`] cells are the one exception: their D input
/// may reference a later net (sequential feedback), which is harmless
/// because a register's *output* during a cycle never depends on its
/// input during that cycle — the forward pass reads state, and state
/// updates happen after the pass ([`Netlist::eval_seq_nets`]).
///
/// [`NetlistBuilder::finish`] derives the structure every analysis and
/// engine asks about once, and the netlist never changes after it: the
/// reader table ([`Netlist::readers`]), the constant nets
/// ([`Netlist::constants`]) and the output roles — buses
/// named `error` are *alarms*, every other output bus is part of the
/// *result* ([`Netlist::alarm_nets`], [`Netlist::result_nets`],
/// [`Netlist::is_output_net`]).
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<(String, Vec<NetId>)>,
    outputs: Vec<(String, Vec<NetId>)>,
    readers: ReaderTable,
    constants: Vec<Option<bool>>,
    result_nets: Vec<NetId>,
    alarm_nets: Vec<NetId>,
    is_output: Vec<bool>,
}

/// Who reads each net, in compressed (CSR) form: one offsets array and
/// one flat array of `(gate, pin)` reads. A net's reads are ascending
/// by gate; a gate reading one net on both pins appears twice (pin 0,
/// then pin 1), so a net's read count is its exact structural fanout.
/// Dff D-pin reads, forward references included, are listed like any
/// other read.
#[derive(Clone, Debug)]
pub struct ReaderTable {
    /// The reads of net `n` are `reads[off[n]..off[n + 1]]`.
    off: Vec<u32>,
    reads: Vec<(u32, u8)>,
}

impl ReaderTable {
    fn new(gates: &[Gate]) -> Self {
        let pins = |g: &Gate| {
            [g.a, g.b]
                .into_iter()
                .zip(0u8..)
                .filter_map(|(n, p)| Some((n?, p)))
        };
        let mut off = vec![0u32; gates.len() + 1];
        for (net, _) in gates.iter().flat_map(pins) {
            off[net.0 + 1] += 1;
        }
        for i in 0..gates.len() {
            off[i + 1] += off[i];
        }
        let mut next = off.clone();
        let mut reads = vec![(0, 0); off[gates.len()] as usize];
        for (i, g) in gates.iter().enumerate() {
            for (net, pin) in pins(g) {
                reads[next[net.0] as usize] = (i as u32, pin);
                next[net.0] += 1;
            }
        }
        Self { off, reads }
    }

    /// Every `(gate, pin)` that reads net `n`, ascending by gate.
    #[must_use]
    pub fn of(&self, n: usize) -> &[(u32, u8)] {
        &self.reads[self.off[n] as usize..self.off[n + 1] as usize]
    }
}

impl Netlist {
    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gates in topological order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates (including input/constant drivers).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of logic gates (excluding inputs and constants).
    #[must_use]
    pub fn logic_gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| !matches!(g.kind, GateKind::Input | GateKind::Const(_)))
            .count()
    }

    /// Number of [`GateKind::Dff`] state cells.
    #[must_use]
    pub fn dff_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind == GateKind::Dff)
            .count()
    }

    /// `true` if the netlist holds state (at least one Dff cell) and
    /// therefore needs cycle-accurate evaluation.
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        self.gates.iter().any(|g| g.kind == GateKind::Dff)
    }

    /// Named input buses, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[(String, Vec<NetId>)] {
        &self.inputs
    }

    /// Named output buses, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[(String, Vec<NetId>)] {
        &self.outputs
    }

    /// Total primary input bit count.
    #[must_use]
    pub fn input_bits(&self) -> usize {
        self.inputs.iter().map(|(_, b)| b.len()).sum()
    }

    /// The reader table, built once by [`NetlistBuilder::finish`].
    #[must_use]
    pub fn reader_table(&self) -> &ReaderTable {
        &self.readers
    }

    /// Every `(gate, pin)` that reads net `n`, ascending by gate (see
    /// [`ReaderTable`]).
    #[must_use]
    pub fn readers(&self, n: usize) -> &[(u32, u8)] {
        self.readers.of(n)
    }

    /// `constants()[n]` — the value net `n` holds for every input, when
    /// forward constant propagation proves one. Dff outputs count as
    /// unknown (state starts at 0 but may change), so sticky alarms stay
    /// non-constant. Derived once by [`NetlistBuilder::finish`].
    #[must_use]
    pub fn constants(&self) -> &[Option<bool>] {
        &self.constants
    }

    /// The nets of every output bus not named `error`, in declaration
    /// order: the values a fault must not change.
    #[must_use]
    pub fn result_nets(&self) -> &[NetId] {
        &self.result_nets
    }

    /// The nets of every output bus named `error`, in declaration
    /// order: the checker alarms.
    #[must_use]
    pub fn alarm_nets(&self) -> &[NetId] {
        &self.alarm_nets
    }

    /// `true` if net `n` belongs to any declared output bus.
    #[must_use]
    pub fn is_output_net(&self, n: usize) -> bool {
        self.is_output[n]
    }

    /// Enumerates the full single-stuck-at line universe: every site
    /// from [`Netlist::fault_sites`] at both polarities, stuck-at-0
    /// first.
    #[must_use]
    pub fn fault_lines(&self) -> Vec<StuckAtLine> {
        self.fault_sites()
            .into_iter()
            .flat_map(|site| [StuckAtLine::new(site, false), StuckAtLine::new(site, true)])
            .collect()
    }

    /// Enumerates every stuck-at fault site: one stem per logic gate plus
    /// one per input pin.
    #[must_use]
    pub fn fault_sites(&self) -> Vec<StuckSite> {
        let mut sites = Vec::new();
        for (i, g) in self.gates.iter().enumerate() {
            if matches!(g.kind, GateKind::Input | GateKind::Const(_)) {
                // Primary-input stems are still valid sites.
                sites.push(StuckSite { gate: i, pin: None });
                continue;
            }
            sites.push(StuckSite { gate: i, pin: None });
            for pin in 0..g.kind.pins() {
                sites.push(StuckSite {
                    gate: i,
                    pin: Some(pin),
                });
            }
        }
        sites
    }

    /// Evaluates the netlist for flattened input bits (concatenation of
    /// all input buses in declaration order, LSB first within each bus),
    /// under zero or more stuck-at faults. Returns all net values.
    ///
    /// # Panics
    ///
    /// Panics if `bits` does not match the total input width, or if the
    /// netlist is sequential (use [`Netlist::eval_seq_nets`]).
    #[must_use]
    pub fn eval_nets(&self, bits: &[bool], faults: &[StuckAtLine]) -> Vec<bool> {
        assert_eq!(bits.len(), self.input_bits(), "input bit count mismatch");
        self.eval_pass(bits, faults, None)
    }

    /// One scalar forward pass under `faults` (applied last-wins per
    /// site). Dff cells output `state`, which a combinational
    /// evaluation does not have.
    fn eval_pass(
        &self,
        bits: &[bool],
        faults: &[StuckAtLine],
        state: Option<&[bool]>,
    ) -> Vec<bool> {
        let mut values = vec![false; self.gates.len()];
        let mut next_input = 0usize;
        for (i, gate) in self.gates.iter().enumerate() {
            let read = |pin: u8, net: Option<NetId>, values: &[bool]| -> bool {
                let mut v = values[net.expect("gate input connected").0];
                for f in faults {
                    if f.site.gate == i && f.site.pin == Some(pin) {
                        v = f.value;
                    }
                }
                v
            };
            let mut out = match gate.kind {
                GateKind::Input => {
                    let v = bits[next_input];
                    next_input += 1;
                    v
                }
                GateKind::Const(c) => c,
                GateKind::Dff => state
                    .expect("combinational evaluation of a sequential netlist; use eval_seq_nets")
                    [i],
                GateKind::Not => !read(0, gate.a, &values),
                GateKind::Buf => read(0, gate.a, &values),
                kind => {
                    let a = read(0, gate.a, &values);
                    let b = read(1, gate.b, &values);
                    match kind {
                        GateKind::And => a & b,
                        GateKind::Or => a | b,
                        GateKind::Xor => a ^ b,
                        GateKind::Nand => !(a & b),
                        GateKind::Nor => !(a | b),
                        GateKind::Xnor => !(a ^ b),
                        _ => unreachable!("two-input kinds handled"),
                    }
                }
            };
            for f in faults {
                if f.site.gate == i && f.site.pin.is_none() {
                    out = f.value;
                }
            }
            values[i] = out;
        }
        values
    }

    /// Evaluates with [`Word`] operands (one per input bus, widths must
    /// match) and returns one `Word` per output bus.
    ///
    /// # Panics
    ///
    /// Panics if the number or widths of `words` do not match the input
    /// buses, or if an output bus is wider than 64 bits.
    #[must_use]
    pub fn eval_words(&self, words: &[Word], faults: &[StuckAtLine]) -> Vec<Word> {
        self.output_words(&self.eval_nets(&self.input_bits_of(words), faults))
    }

    /// Flattens one [`Word`] per input bus into input bits.
    fn input_bits_of(&self, words: &[Word]) -> Vec<bool> {
        assert_eq!(words.len(), self.inputs.len(), "input bus count mismatch");
        let mut bits = Vec::with_capacity(self.input_bits());
        for (w, (name, bus)) in words.iter().zip(&self.inputs) {
            assert_eq!(
                w.width() as usize,
                bus.len(),
                "width mismatch on input bus {name}"
            );
            for i in 0..w.width() {
                bits.push(w.bit(i));
            }
        }
        bits
    }

    /// Reads one [`Word`] per output bus from net values.
    fn output_words(&self, nets: &[bool]) -> Vec<Word> {
        self.outputs
            .iter()
            .map(|(_, bus)| {
                let mut v = 0u64;
                for (i, net) in bus.iter().enumerate() {
                    if nets[net.0] {
                        v |= 1 << i;
                    }
                }
                Word::new(bus.len() as u32, v)
            })
            .collect()
    }

    /// Cycle-accurate scalar evaluation: runs the netlist for `cycles`
    /// clock cycles with primary inputs held constant, under zero or
    /// more duration-qualified stuck-at faults. Dff cells start at 0,
    /// output their state during the pass and capture their D net at the
    /// end of each cycle. Returns the net values of **every** cycle
    /// (`cycles` vectors), the reference for the packed sequential
    /// engine.
    ///
    /// Fault semantics per cycle: a fault is applied only in cycles its
    /// [`FaultDuration`] is active in. A stem fault on a Dff forces its
    /// output (Q); a pin-0 fault on a Dff forces the value *captured*
    /// at the end of an active cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bits` does not match the total input width.
    #[must_use]
    pub fn eval_seq_nets(
        &self,
        bits: &[bool],
        cycles: u32,
        faults: &[SeqStuckAt],
    ) -> Vec<Vec<bool>> {
        assert_eq!(bits.len(), self.input_bits(), "input bit count mismatch");
        let mut state = vec![false; self.gates.len()];
        let mut trace = Vec::with_capacity(cycles as usize);
        for cycle in 0..cycles {
            let active: Vec<StuckAtLine> = faults
                .iter()
                .filter(|f| f.duration.active_at(cycle))
                .map(|f| f.line)
                .collect();
            let values = self.eval_pass(bits, &active, Some(&state));
            // Capture: state <- D, with pin-0 overrides on active faults.
            for (i, gate) in self.gates.iter().enumerate() {
                if gate.kind != GateKind::Dff {
                    continue;
                }
                let d = gate.a.expect("dff D input connected");
                let mut v = values[d.0];
                for f in &active {
                    if f.site.gate == i && f.site.pin == Some(0) {
                        v = f.value;
                    }
                }
                state[i] = v;
            }
            trace.push(values);
        }
        trace
    }

    /// Cycle-accurate evaluation with [`Word`] operands: runs `cycles`
    /// clock cycles and returns one `Word` per output bus read at the
    /// **final** cycle.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is 0, or on the same conditions as
    /// [`Netlist::eval_words`].
    #[must_use]
    pub fn eval_seq_words(&self, words: &[Word], cycles: u32, faults: &[SeqStuckAt]) -> Vec<Word> {
        assert!(cycles > 0, "at least one cycle required");
        let trace = self.eval_seq_nets(&self.input_bits_of(words), cycles, faults);
        self.output_words(trace.last().expect("cycles > 0"))
    }
}

/// Incremental netlist constructor.
///
/// All gate-creating methods return the [`NetId`] of the new net; inputs
/// must already exist, which guarantees topological order.
///
/// # Example
///
/// ```
/// use scdp_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("maj3");
/// let x = b.input_bus("x", 3);
/// let ab = b.and(x[0], x[1]);
/// let ac = b.and(x[0], x[2]);
/// let bc = b.and(x[1], x[2]);
/// let o1 = b.or(ab, ac);
/// let maj = b.or(o1, bc);
/// b.output("maj", &[maj]);
/// let nl = b.finish();
/// assert_eq!(nl.outputs().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct NetlistBuilder {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<(String, Vec<NetId>)>,
    outputs: Vec<(String, Vec<NetId>)>,
}

impl NetlistBuilder {
    /// Starts an empty netlist named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn push(&mut self, kind: GateKind, a: Option<NetId>, b: Option<NetId>) -> NetId {
        if let Some(a) = a {
            assert!(a.0 < self.gates.len(), "input net {a} does not exist");
        }
        if let Some(b) = b {
            assert!(b.0 < self.gates.len(), "input net {b} does not exist");
        }
        self.gates.push(Gate { kind, a, b });
        NetId(self.gates.len() - 1)
    }

    /// Declares a named input bus of `width` bits (LSB first).
    pub fn input_bus(&mut self, name: impl Into<String>, width: u32) -> Vec<NetId> {
        let bus: Vec<NetId> = (0..width)
            .map(|_| self.push(GateKind::Input, None, None))
            .collect();
        self.inputs.push((name.into(), bus.clone()));
        bus
    }

    /// Declares a named output bus.
    ///
    /// # Panics
    ///
    /// Panics if any net does not exist yet.
    pub fn output(&mut self, name: impl Into<String>, bus: &[NetId]) {
        for n in bus {
            assert!(n.0 < self.gates.len(), "output net {n} does not exist");
        }
        self.outputs.push((name.into(), bus.to_vec()));
    }

    /// A constant-driver net.
    pub fn constant(&mut self, value: bool) -> NetId {
        self.push(GateKind::Const(value), None, None)
    }

    /// 2-input AND gate.
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::And, Some(a), Some(b))
    }

    /// 2-input OR gate.
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Or, Some(a), Some(b))
    }

    /// 2-input XOR gate.
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Xor, Some(a), Some(b))
    }

    /// 2-input NAND gate.
    pub fn nand(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Nand, Some(a), Some(b))
    }

    /// 2-input NOR gate.
    pub fn nor(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Nor, Some(a), Some(b))
    }

    /// 2-input XNOR gate.
    pub fn xnor(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Xnor, Some(a), Some(b))
    }

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.push(GateKind::Not, Some(a), None)
    }

    /// Buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.push(GateKind::Buf, Some(a), None)
    }

    /// A D flip-flop with its D input left unconnected, so registers can
    /// be created *before* the logic computing their next-state value
    /// (the only legal feedback in the IR). Connect it with
    /// [`NetlistBuilder::connect_dff`] before [`NetlistBuilder::finish`].
    pub fn dff(&mut self) -> NetId {
        self.push(GateKind::Dff, None, None)
    }

    /// Connects the D input of the flip-flop driving net `q` to `d`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a Dff, is already connected, or `d` does
    /// not exist.
    pub fn connect_dff(&mut self, q: NetId, d: NetId) {
        assert!(d.0 < self.gates.len(), "D input net {d} does not exist");
        let gate = &mut self.gates[q.0];
        assert_eq!(gate.kind, GateKind::Dff, "net {q} is not a Dff");
        assert!(gate.a.is_none(), "Dff {q} already connected");
        gate.a = Some(d);
    }

    /// 2-to-1 multiplexer: `sel ? b : a` (three gates).
    pub fn mux(&mut self, a: NetId, b: NetId, sel: NetId) -> NetId {
        let ns = self.not(sel);
        let pa = self.and(a, ns);
        let pb = self.and(b, sel);
        self.or(pa, pb)
    }

    /// Balanced OR tree over `nets` (false constant when empty).
    pub fn or_tree(&mut self, nets: &[NetId]) -> NetId {
        self.tree(nets, |b, x, y| b.or(x, y), false)
    }

    /// Balanced AND tree over `nets` (true constant when empty).
    pub fn and_tree(&mut self, nets: &[NetId]) -> NetId {
        self.tree(nets, |b, x, y| b.and(x, y), true)
    }

    fn tree(
        &mut self,
        nets: &[NetId],
        mut op: impl FnMut(&mut Self, NetId, NetId) -> NetId,
        empty: bool,
    ) -> NetId {
        match nets.len() {
            0 => self.constant(empty),
            1 => nets[0],
            _ => {
                let mut level: Vec<NetId> = nets.to_vec();
                while level.len() > 1 {
                    let mut next = Vec::with_capacity(level.len().div_ceil(2));
                    for pair in level.chunks(2) {
                        if pair.len() == 2 {
                            next.push(op(self, pair[0], pair[1]));
                        } else {
                            next.push(pair[0]);
                        }
                    }
                    level = next;
                }
                level[0]
            }
        }
    }

    /// The number of gates created so far (used to record instance
    /// ranges for correlated fault injection).
    #[must_use]
    pub fn mark(&self) -> usize {
        self.gates.len()
    }

    /// Finalises the netlist.
    ///
    /// # Panics
    ///
    /// Panics if any Dff was left with its D input unconnected.
    #[must_use]
    pub fn finish(self) -> Netlist {
        for (i, g) in self.gates.iter().enumerate() {
            assert!(
                g.kind != GateKind::Dff || g.a.is_some(),
                "Dff n{i} has no D input; call connect_dff before finish"
            );
        }
        let mut result_nets = Vec::new();
        let mut alarm_nets = Vec::new();
        let mut is_output = vec![false; self.gates.len()];
        for (name, bus) in &self.outputs {
            let role = if name == "error" {
                &mut alarm_nets
            } else {
                &mut result_nets
            };
            role.extend_from_slice(bus);
            for n in bus {
                is_output[n.0] = true;
            }
        }
        Netlist {
            readers: ReaderTable::new(&self.gates),
            constants: propagate_constants(&self.gates),
            name: self.name,
            gates: self.gates,
            inputs: self.inputs,
            outputs: self.outputs,
            result_nets,
            alarm_nets,
            is_output,
        }
    }
}

/// Forward constant propagation over `gates`, in topological order
/// (see [`Netlist::constants`]).
fn propagate_constants(gates: &[Gate]) -> Vec<Option<bool>> {
    /// `Some(out)` when either operand holds the forcing value.
    fn force(a: Option<bool>, b: Option<bool>, forcing: bool, out: bool) -> Option<bool> {
        (a == Some(forcing) || b == Some(forcing)).then_some(out)
    }
    fn binop(a: Option<bool>, b: Option<bool>, f: impl Fn(bool, bool) -> bool) -> Option<bool> {
        Some(f(a?, b?))
    }
    let mut consts: Vec<Option<bool>> = vec![None; gates.len()];
    for (i, g) in gates.iter().enumerate() {
        let a = g.a.and_then(|n| consts.get(n.0).copied().flatten());
        let b = g.b.and_then(|n| consts.get(n.0).copied().flatten());
        consts[i] = match g.kind {
            GateKind::Const(v) => Some(v),
            GateKind::Input | GateKind::Dff => None,
            GateKind::And => force(a, b, false, false).or(binop(a, b, |x, y| x & y)),
            GateKind::Or => force(a, b, true, true).or(binop(a, b, |x, y| x | y)),
            GateKind::Nand => force(a, b, false, true).or(binop(a, b, |x, y| !(x & y))),
            GateKind::Nor => force(a, b, true, false).or(binop(a, b, |x, y| !(x | y))),
            GateKind::Xor => binop(a, b, |x, y| x ^ y),
            GateKind::Xnor => binop(a, b, |x, y| !(x ^ y)),
            GateKind::Not => a.map(|x| !x),
            GateKind::Buf => a,
        };
    }
    consts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("xor");
        let x = b.input_bus("x", 2);
        let y = b.xor(x[0], x[1]);
        b.output("y", &[y]);
        b.finish()
    }

    #[test]
    fn eval_simple_gates() {
        let nl = xor_netlist();
        for (a, b, expect) in [
            (false, false, false),
            (true, false, true),
            (true, true, false),
        ] {
            let nets = nl.eval_nets(&[a, b], &[]);
            assert_eq!(nets[2], expect);
        }
    }

    #[test]
    fn stuck_at_output_stem() {
        let nl = xor_netlist();
        let fault = StuckAtLine::new(StuckSite { gate: 2, pin: None }, true);
        let nets = nl.eval_nets(&[false, false], &[fault]);
        assert!(nets[2]);
    }

    #[test]
    fn stuck_at_input_pin_is_local() {
        let mut b = NetlistBuilder::new("fanout");
        let x = b.input_bus("x", 1);
        let n1 = b.not(x[0]); // gate 1
        let n2 = b.not(x[0]); // gate 2
        b.output("y", &[n1, n2]);
        let nl = b.finish();
        // Pin fault on gate 1 only: gate 2 unaffected.
        let fault = StuckAtLine::new(
            StuckSite {
                gate: 1,
                pin: Some(0),
            },
            true,
        );
        let nets = nl.eval_nets(&[false], &[fault]);
        assert!(!nets[1], "gate1 sees forced 1, outputs 0");
        assert!(nets[2], "gate2 unaffected");
    }

    #[test]
    fn stem_fault_affects_all_fanout() {
        let mut b = NetlistBuilder::new("stem");
        let x = b.input_bus("x", 1);
        let n1 = b.not(x[0]);
        let n2 = b.not(x[0]);
        b.output("y", &[n1, n2]);
        let nl = b.finish();
        // Stem fault on the input driver (gate 0).
        let fault = StuckAtLine::new(StuckSite { gate: 0, pin: None }, true);
        let nets = nl.eval_nets(&[false], &[fault]);
        assert!(!nets[1]);
        assert!(!nets[2]);
    }

    #[test]
    fn constants_propagate_forward_and_stop_at_state() {
        let mut b = NetlistBuilder::new("consts");
        let x = b.input_bus("x", 1);
        let zero = b.constant(false);
        let forced = b.and(x[0], zero);
        let free = b.or(x[0], forced);
        let inverted = b.not(forced);
        let s = b.dff();
        b.connect_dff(s, inverted);
        b.output("y", &[free, s]);
        let nl = b.finish();
        let c = nl.constants();
        assert_eq!(c[zero.index()], Some(false));
        assert_eq!(c[forced.index()], Some(false), "a controlling 0 forces AND");
        assert_eq!(c[inverted.index()], Some(true));
        assert_eq!(c[free.index()], None);
        assert_eq!(c[x[0].index()], None);
        assert_eq!(c[s.index()], None, "state is never constant");
    }

    #[test]
    fn reader_table_lists_each_read_ascending() {
        let mut b = NetlistBuilder::new("reads");
        let x = b.input_bus("x", 2);
        let s = b.dff(); // gate 2, D connected to a later net
        let n3 = b.and(x[0], x[1]);
        let n4 = b.or(x[1], x[1]);
        let n5 = b.xor(n3, s);
        b.connect_dff(s, n5);
        b.output("y", &[n4]);
        b.output("error", &[n5]);
        let nl = b.finish();
        assert_eq!(nl.readers(0), &[(3, 0)]);
        assert_eq!(nl.readers(1), &[(3, 1), (4, 0), (4, 1)], "both pins of n4");
        assert_eq!(nl.readers(2), &[(5, 1)]);
        assert_eq!(nl.readers(3), &[(5, 0)]);
        assert!(nl.readers(4).is_empty());
        assert_eq!(nl.readers(5), &[(2, 0)], "Dff D pin reads forward");
        assert_eq!(nl.result_nets(), &[n4]);
        assert_eq!(nl.alarm_nets(), &[n5]);
        let outputs: Vec<usize> = (0..nl.gate_count())
            .filter(|&n| nl.is_output_net(n))
            .collect();
        assert_eq!(outputs, vec![4, 5]);
    }

    #[test]
    fn fault_sites_enumeration() {
        let nl = xor_netlist();
        let sites = nl.fault_sites();
        // 2 input stems + xor stem + 2 xor pins.
        assert_eq!(sites.len(), 5);
    }

    #[test]
    fn words_round_trip() {
        let mut b = NetlistBuilder::new("pass");
        let x = b.input_bus("x", 4);
        b.output("y", &x);
        let nl = b.finish();
        let out = nl.eval_words(&[Word::from_i64(4, -3)], &[]);
        assert_eq!(out[0].to_i64(), -3);
    }

    #[test]
    fn mux_and_trees() {
        let mut b = NetlistBuilder::new("m");
        let x = b.input_bus("x", 3);
        let m = b.mux(x[0], x[1], x[2]);
        let ot = b.or_tree(&[x[0], x[1], x[2]]);
        let at = b.and_tree(&[x[0], x[1], x[2]]);
        b.output("o", &[m, ot, at]);
        let nl = b.finish();
        let nets = nl.eval_nets(&[true, false, false], &[]);
        let (m, ot, at) = (m.index(), ot.index(), at.index());
        assert!(nets[m], "sel=0 -> a=1");
        assert!(nets[ot]);
        assert!(!nets[at]);
        let nets = nl.eval_nets(&[true, false, true], &[]);
        assert!(!nets[m], "sel=1 -> b=0");
    }

    #[test]
    #[should_panic(expected = "input bit count mismatch")]
    fn wrong_input_width_panics() {
        let nl = xor_netlist();
        let _ = nl.eval_nets(&[true], &[]);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_reference_panics() {
        let mut b = NetlistBuilder::new("bad");
        let _ = b.input_bus("x", 1);
        b.output("y", &[NetId(99)]);
    }

    /// A 1-bit toggle: q' = !q.
    fn toggle_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("toggle");
        let q = b.dff();
        let nq = b.not(q);
        b.connect_dff(q, nq);
        b.output("q", &[q]);
        b.finish()
    }

    #[test]
    fn dff_toggles_across_cycles() {
        let nl = toggle_netlist();
        assert!(nl.is_sequential());
        assert_eq!(nl.dff_count(), 1);
        let trace = nl.eval_seq_nets(&[], 4, &[]);
        // Q starts 0 and flips each cycle.
        let q: Vec<bool> = trace.iter().map(|c| c[0]).collect();
        assert_eq!(q, vec![false, true, false, true]);
    }

    #[test]
    fn sticky_accumulator_holds_captured_value() {
        // q' = q | x: once x pulses (here: constant 1), q stays set.
        let mut b = NetlistBuilder::new("sticky");
        let x = b.input_bus("x", 1);
        let q = b.dff();
        let d = b.or(q, x[0]);
        b.connect_dff(q, d);
        b.output("q", &[q]);
        let nl = b.finish();
        let trace = nl.eval_seq_nets(&[true], 3, &[]);
        assert!(!trace[0][q.index()], "state visible one cycle later");
        assert!(trace[1][q.index()]);
        assert!(trace[2][q.index()]);
    }

    #[test]
    fn transient_fault_is_active_for_one_cycle() {
        // Sticky accumulator with x = 0; a transient stuck-at-1 on the
        // OR output during cycle 1 latches into the register forever.
        let mut b = NetlistBuilder::new("seu");
        let x = b.input_bus("x", 1);
        let q = b.dff();
        let d = b.or(q, x[0]);
        b.connect_dff(q, d);
        b.output("q", &[q]);
        let nl = b.finish();
        let or_gate = d.index();
        let upset = SeqStuckAt::transient(
            StuckAtLine::new(
                StuckSite {
                    gate: or_gate,
                    pin: None,
                },
                true,
            ),
            1,
        );
        let trace = nl.eval_seq_nets(&[false], 4, &[upset]);
        let q_trace: Vec<bool> = trace.iter().map(|c| c[q.index()]).collect();
        assert_eq!(q_trace, vec![false, false, true, true], "latched upset");
        // Fault-free: never sets.
        let clean = nl.eval_seq_nets(&[false], 4, &[]);
        assert!(clean.iter().all(|c| !c[q.index()]));
    }

    #[test]
    fn dff_pin_fault_forces_the_captured_value() {
        let nl = toggle_netlist();
        let pin = SeqStuckAt::permanent(StuckAtLine::new(
            StuckSite {
                gate: 0,
                pin: Some(0),
            },
            false,
        ));
        let trace = nl.eval_seq_nets(&[], 4, &[pin]);
        assert!(trace.iter().all(|c| !c[0]), "D forced 0 keeps Q at 0");
    }

    #[test]
    fn duration_predicates() {
        assert!(FaultDuration::Permanent.active_at(0));
        assert!(FaultDuration::Permanent.active_at(7));
        let t = FaultDuration::Transient { cycle: 2 };
        assert!(t.active_at(2));
        assert!(!t.active_at(1) && !t.active_at(3));
        assert_eq!(t.to_string(), "transient@2");
        assert_eq!(FaultDuration::Permanent.to_string(), "permanent");
    }

    #[test]
    fn seq_words_read_the_final_cycle() {
        // 2-bit shift register: out = in delayed by two cycles.
        let mut b = NetlistBuilder::new("shift2");
        let x = b.input_bus("x", 1);
        let s0 = b.dff();
        let s1 = b.dff();
        b.connect_dff(s0, x[0]);
        b.connect_dff(s1, s0);
        b.output("y", &[s1]);
        let nl = b.finish();
        let one = Word::new(1, 1);
        assert_eq!(nl.eval_seq_words(&[one], 1, &[])[0].bits(), 0);
        assert_eq!(nl.eval_seq_words(&[one], 2, &[])[0].bits(), 0);
        assert_eq!(nl.eval_seq_words(&[one], 3, &[])[0].bits(), 1);
    }

    #[test]
    #[should_panic(expected = "use eval_seq_nets")]
    fn combinational_eval_rejects_sequential_netlists() {
        let nl = toggle_netlist();
        let _ = nl.eval_nets(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "no D input")]
    fn unconnected_dff_is_rejected_at_finish() {
        let mut b = NetlistBuilder::new("bad");
        let _ = b.dff();
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_is_rejected() {
        let mut b = NetlistBuilder::new("bad");
        let c = b.constant(true);
        let q = b.dff();
        b.connect_dff(q, c);
        b.connect_dff(q, c);
    }
}
