//! Cycle-accurate bit-parallel fault simulation for sequential
//! netlists.
//!
//! [`crate::Engine`] evaluates a combinational netlist once per batch;
//! [`SeqEngine`] evaluates a *sequential* netlist (one containing
//! [`GateKind::Dff`] cells) for a fixed number of clock cycles per
//! batch, carrying a packed per-cycle state vector (one `u64` per Dff,
//! 64 input vectors in flight). The good machine is still simulated
//! once per batch and shared across every fault in a worker's chunk;
//! each fault replays all cycles with its stuck lines forced only in
//! the cycles its [`FaultDuration`] is active in — permanent structural
//! defects and single-cycle transients run through one code path.
//!
//! Classification follows the paper's situation taxonomy, extended with
//! the cycle axis:
//!
//! * **wrong** — any result-bus bit differs from the good machine at
//!   the *final* cycle (result registers are valid there);
//! * **alarm** — the `error` bus asserted in *any* cycle (checker
//!   alarms are sticky by construction);
//! * **detection latency** — the first cycle the alarm fired in,
//!   recorded per lane into a per-cycle histogram
//!   ([`SeqBatchOutcome::first_detect`], aggregated by
//!   [`crate::SeqCampaign`], the generic campaign driver over this
//!   engine).

use crate::batch::{InputBatch, InputPlan};
use crate::campaign::{BlockWork, FaultEngine, Verdict};
use crate::engine::{hold, BatchOutcome, Compiled, WideOutcome};
use crate::error::SimError;
use crate::words::LaneWord;
use scdp_netlist::{FaultDuration, GateKind, Netlist, StuckAtLine};

/// Packed verdict of one faulty multi-cycle batch against the good
/// machine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeqBatchOutcome {
    /// Lanes whose final-cycle result-bus values differ from the good
    /// machine.
    pub wrong: u64,
    /// Lanes where the alarm bus asserted in at least one cycle.
    pub alarm: u64,
    /// Mask of lanes that carry real vectors.
    pub mask: u64,
    /// `first_detect[c]` — lanes whose alarm fired *first* in cycle
    /// `c`. The set bits across all cycles equal `alarm & mask`.
    pub first_detect: Vec<u64>,
}

impl SeqBatchOutcome {
    /// The four-way situation counts, identical taxonomy to the
    /// combinational engine.
    #[must_use]
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        BatchOutcome {
            wrong: self.wrong,
            alarm: self.alarm,
            mask: self.mask,
        }
        .counts()
    }
}

/// The good machine: no line forced in any cycle.
const FAULT_FREE: (&[StuckAtLine], FaultDuration) = (&[], FaultDuration::Permanent);

/// A sequential netlist compiled for packed cycle-accurate evaluation.
///
/// It shares [`crate::Engine`]'s compiled core (packed gate records,
/// output roles) and additionally lists the Dffs.
#[derive(Clone, Debug)]
pub struct SeqEngine {
    core: Compiled,
    /// The Dff gates, gate order.
    dffs: Vec<u32>,
    /// Dense gate → Dff index (unused slots are `u32::MAX`).
    dff_index: Vec<u32>,
}

impl SeqEngine {
    /// Compiles `netlist` for packed sequential evaluation. Works for
    /// purely combinational netlists too (they simply have no state).
    /// Every Dff has a connected D input: `NetlistBuilder::finish`
    /// asserts it.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let mut dffs = Vec::new();
        let mut dff_index = vec![u32::MAX; netlist.gate_count()];
        for (i, g) in netlist.gates().iter().enumerate() {
            if g.kind == GateKind::Dff {
                dff_index[i] = dffs.len() as u32;
                dffs.push(i as u32);
            }
        }
        Self {
            core: Compiled::new(netlist),
            dffs,
            dff_index,
        }
    }

    /// Number of state bits.
    #[must_use]
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Evaluates one forward pass (one cycle) into `values`: Dff cells
    /// output `state`, faults in `faults` are forced (pass an empty
    /// slice for inactive cycles), inputs come from `bits`. A pin-0
    /// fault on a Dff lands on its D pin, which the pass does not read:
    /// it forces the value *captured* (handled in `step`).
    fn eval_cycle<W: LaneWord>(
        &self,
        bits: &[W],
        faults: &[StuckAtLine],
        state: &[W],
        values: &mut [W],
    ) {
        hold(values, &self.dffs, state);
        self.core.eval_pass(bits, faults, values);
    }

    /// Captures the next state from the D nets, honouring pin-0 faults
    /// on Dff cells.
    fn step<W: LaneWord>(&self, faults: &[StuckAtLine], values: &[W], state: &mut [W]) {
        for (k, &dff) in self.dffs.iter().enumerate() {
            state[k] = values[self.core.gates[dff as usize].a as usize];
        }
        for f in faults {
            if f.site.pin == Some(0) {
                let k = self.dff_index[f.site.gate];
                if k != u32::MAX {
                    state[k as usize] = W::splat(f.value);
                }
            }
        }
    }

    /// Runs one batch for `cycles` clock cycles under `fault` — stuck
    /// lines in gate order, forced in the cycles their duration is
    /// active in (pass `None` for the good machine) — leaving the
    /// **final cycle's** net values in `values`. `state` and `values`
    /// are scratch buffers reused across calls.
    ///
    /// Returns the per-cycle packed alarm masks folded into a
    /// [`SeqBatchOutcome`] — except `wrong`, which the caller fills by
    /// comparing against the good machine's final values.
    ///
    /// # Panics
    ///
    /// Panics if the batch width does not match the netlist or
    /// `cycles` is 0.
    pub fn run_batch_into(
        &self,
        batch: &InputBatch,
        fault: Option<(&[StuckAtLine], FaultDuration)>,
        cycles: u32,
        values: &mut Vec<u64>,
        state: &mut Vec<u64>,
    ) -> SeqBatchOutcome {
        let fault = fault.unwrap_or(FAULT_FREE);
        let (alarm, first_detect) =
            self.run_words_into(&batch.bits, batch.mask(), fault, cycles, values, state);
        SeqBatchOutcome {
            wrong: 0,
            alarm,
            mask: batch.mask(),
            first_detect,
        }
    }

    /// The generic multi-cycle run shared by the scalar and wide paths:
    /// returns the sticky alarm word and the per-cycle first-detection
    /// words, leaving the final cycle's net values in `values`. The
    /// fault's lines are forced in the cycles its duration is active in.
    fn run_words_into<W: LaneWord>(
        &self,
        bits: &[W],
        mask: W,
        (lines, duration): (&[StuckAtLine], FaultDuration),
        cycles: u32,
        values: &mut Vec<W>,
        state: &mut Vec<W>,
    ) -> (W, Vec<W>) {
        assert!(cycles > 0, "at least one cycle required");
        // Every net is written before any gate uses it (a Dff's D pin
        // is read but never used), so the buffer needs the right
        // length, not clearing.
        values.resize(self.core.gates.len(), W::ZERO);
        state.clear();
        state.resize(self.dffs.len(), W::ZERO);
        let mut alarm_seen = W::ZERO;
        let mut first_detect = vec![W::ZERO; cycles as usize];
        for cycle in 0..cycles {
            let active = if duration.active_at(cycle) {
                lines
            } else {
                &[]
            };
            self.eval_cycle(bits, active, state, values);
            let alarm = self.core.alarm(values, mask);
            let fired = alarm & !alarm_seen;
            if !fired.is_zero() {
                first_detect[cycle as usize] = fired;
                alarm_seen = alarm_seen | fired;
            }
            if cycle + 1 < cycles {
                self.step(active, values, state);
            }
        }
        (alarm_seen, first_detect)
    }
}

/// Mean of a per-cycle first-detection histogram, in cycles (`None`
/// when no situation was detected). The one latency computation shared
/// by the campaign summary and the serialised report section.
#[must_use]
pub fn mean_detection_latency(hist: &[u64]) -> Option<f64> {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return None;
    }
    let weighted: u64 = hist.iter().enumerate().map(|(c, &n)| c as u64 * n).sum();
    Some(weighted as f64 / total as f64)
}

impl FaultEngine for SeqEngine {
    const PREFIX: &'static str = "seq";
    const TRACKS_LATENCY: bool = true;

    fn check(&self, group: &[StuckAtLine]) -> Result<(), SimError> {
        self.core.check(group)
    }

    /// The good machine runs once per wide batch, shared across every
    /// group (and every cycle) of the block; each live group replays
    /// all cycles over the whole netlist (`gate_evals` = gates ×
    /// cycles).
    fn simulate_block<const L: usize, F>(
        &self,
        chunk: &[Vec<StuckAtLine>],
        plan: InputPlan,
        cycles: u32,
        duration: FaultDuration,
        mut tally: F,
    ) -> BlockWork
    where
        F: FnMut(usize, &Verdict<'_, L>) -> bool,
    {
        let mut good = Vec::new();
        let mut faulty = Vec::new();
        let mut state = Vec::new();
        let mut good_evals = 0u64;
        let gate_evals = self.core.gates.len() as u64 * u64::from(cycles);
        let mut live: Vec<usize> = (0..chunk.len()).collect();
        for wide in plan.wide_stream::<L>(self.core.input_bits()) {
            if live.is_empty() {
                break;
            }
            let _ = self.run_words_into(
                &wide.bits, wide.mask, FAULT_FREE, cycles, &mut good, &mut state,
            );
            good_evals += wide.limbs as u64;
            live.retain(|&k| {
                let (alarm, first_detect) = self.run_words_into(
                    &wide.bits,
                    wide.mask,
                    (&chunk[k], duration),
                    cycles,
                    &mut faulty,
                    &mut state,
                );
                let wrong = self.core.wrong(&good, &faulty, wide.mask);
                tally(
                    k,
                    &Verdict {
                        outcome: WideOutcome {
                            wrong,
                            alarm,
                            mask: wide.mask,
                        },
                        first_detect: &first_detect,
                        limbs: wide.limbs,
                        gate_evals,
                    },
                )
            });
        }
        BlockWork {
            good_evals,
            cones_built: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DropPolicy, Lanes, SeqCampaign};
    use scdp_netlist::{NetlistBuilder, SeqStuckAt, StuckSite, Word};

    /// A 2-deep shift register with a parity alarm: error = s0 ^ s1
    /// forced low in the fault-free run by feeding x into both.
    fn shift_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("shift");
        let x = b.input_bus("x", 1);
        let s0 = b.dff();
        let s1 = b.dff();
        b.connect_dff(s0, x[0]);
        b.connect_dff(s1, s0);
        b.output("y", &[s1]);
        b.finish()
    }

    #[test]
    fn packed_matches_scalar_on_sequential_netlists() {
        let nl = shift_netlist();
        let engine = SeqEngine::new(&nl);
        assert_eq!(engine.dff_count(), 2);
        let cycles = 4u32;
        let stem = [StuckAtLine::new(StuckSite { gate: 1, pin: None }, true)];
        let d_pin = [StuckAtLine::new(
            StuckSite {
                gate: 2,
                pin: Some(0),
            },
            true,
        )];
        let faults = [
            None,
            Some((&stem[..], FaultDuration::Permanent)),
            Some((&d_pin[..], FaultDuration::Transient { cycle: 1 })),
        ];
        for fault in faults {
            for batch in InputPlan::Exhaustive.stream(1) {
                let mut values = Vec::new();
                let mut state = Vec::new();
                let _ = engine.run_batch_into(&batch, fault, cycles, &mut values, &mut state);
                for lane in 0..batch.len {
                    let scalar_faults: Vec<SeqStuckAt> = fault
                        .iter()
                        .flat_map(|&(lines, duration)| {
                            lines.iter().map(move |&line| SeqStuckAt { line, duration })
                        })
                        .collect();
                    let trace = nl.eval_seq_nets(&batch.lane_bits(lane), cycles, &scalar_faults);
                    let last = trace.last().unwrap();
                    for (net, word) in values.iter().enumerate() {
                        assert_eq!(
                            (word >> lane) & 1 != 0,
                            last[net],
                            "{fault:?} net {net} lane {lane}"
                        );
                    }
                }
            }
        }
    }

    /// An alarm that fires in cycle 2 when x is set: x delayed twice,
    /// error = s1.
    fn delayed_alarm_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("delayed");
        let x = b.input_bus("x", 1);
        let s0 = b.dff();
        let s1 = b.dff();
        b.connect_dff(s0, x[0]);
        b.connect_dff(s1, s0);
        let zero = b.constant(false);
        b.output("y", &[zero]);
        b.output("error", &[s1]);
        b.finish()
    }

    #[test]
    fn first_detection_cycle_is_recorded() {
        let nl = delayed_alarm_netlist();
        let engine = SeqEngine::new(&nl);
        let batch = InputPlan::Exhaustive.stream(1).next().unwrap();
        // Lane 1 has x = 1: alarm rises at cycle 2 and stays.
        let mut values = Vec::new();
        let mut state = Vec::new();
        let out = engine.run_batch_into(&batch, None, 4, &mut values, &mut state);
        assert_eq!(out.mask, 0b11);
        assert_eq!(out.alarm, 0b10);
        assert_eq!(out.first_detect, vec![0, 0, 0b10, 0]);
    }

    #[test]
    fn campaign_counts_latencies_and_tallies() {
        // Good machine: x = 0 lane keeps everything quiet; x = 1 lane
        // raises the alarm. The "good machine" itself must be
        // alarm-free, so use a fault to create the alarm instead: stuck
        // s0 D at 1 (gate 1 pin 0) -> alarm at cycle 2 in every lane.
        let mut b = NetlistBuilder::new("c");
        let s0 = b.dff();
        let s1 = b.dff();
        let zero = b.constant(false);
        b.connect_dff(s0, zero);
        b.connect_dff(s1, s0);
        let x = b.input_bus("x", 1);
        let y = b.and(x[0], s1); // wrong result once s1 sets and x = 1
        b.output("y", &[y]);
        b.output("error", &[s1]);
        let nl = b.finish();
        let engine = SeqEngine::new(&nl);
        let stuck = [vec![StuckAtLine::new(
            StuckSite {
                gate: 0,
                pin: Some(0),
            },
            true,
        )]];
        let rec = std::sync::Arc::new(scdp_obs::Recorder::new());
        let summary = SeqCampaign::new(&engine, &stuck, 4, FaultDuration::Permanent)
            .threads(1)
            .recorder(std::sync::Arc::clone(&rec))
            .run();
        assert_eq!(summary.simulated, 2);
        // Full passes every cycle: no fanout cones to build.
        assert_eq!(rec.snapshot().counter("pool.cones_built"), Some(0));
        // Both lanes detected at cycle 2; the x = 1 lane is also wrong.
        assert_eq!(summary.first_detect, vec![0, 0, 2, 0]);
        assert_eq!(summary.tally.error_detected, 1);
        assert_eq!(summary.tally.correct_detected, 1);
        assert_eq!(summary.mean_detection_latency(), Some(2.0));
        assert!((summary.detection_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let nl = shift_netlist();
        let engine = SeqEngine::new(&nl);
        let mut groups = Vec::new();
        for gate in 0..nl.gate_count() {
            for value in [false, true] {
                groups.push(vec![StuckAtLine::new(StuckSite { gate, pin: None }, value)]);
            }
        }
        for duration in [
            FaultDuration::Permanent,
            FaultDuration::Transient { cycle: 1 },
        ] {
            let a = SeqCampaign::new(&engine, &groups, 5, duration)
                .threads(1)
                .run();
            let b = SeqCampaign::new(&engine, &groups, 5, duration)
                .threads(3)
                .run();
            assert_eq!(a.tally, b.tally);
            assert_eq!(a.first_detect, b.first_detect);
            for (x, y) in a.per_fault.iter().zip(&b.per_fault) {
                assert_eq!(x.tally, y.tally);
                assert_eq!(x.first_detect, y.first_detect);
            }
        }
    }

    #[test]
    fn transient_outside_the_window_is_harmless() {
        let nl = shift_netlist();
        let engine = SeqEngine::new(&nl);
        // Transient at a cycle >= cycles: never active.
        let harmless = [vec![StuckAtLine::new(
            StuckSite { gate: 1, pin: None },
            true,
        )]];
        let summary =
            SeqCampaign::new(&engine, &harmless, 3, FaultDuration::Transient { cycle: 9 })
                .threads(1)
                .run();
        assert_eq!(summary.tally.error_detected, 0);
        assert_eq!(summary.tally.error_undetected, 0);
        assert_eq!(summary.tally.correct_silent, summary.simulated);
    }

    /// Alarm path quiet in the good machine (s0 fed by constant 0);
    /// only faults can set the sticky chain.
    fn quiet_alarm_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("quiet");
        let s0 = b.dff();
        let s1 = b.dff();
        let zero = b.constant(false);
        b.connect_dff(s0, zero);
        b.connect_dff(s1, s0);
        let x = b.input_bus("x", 2);
        let y = b.xor(x[0], x[1]);
        b.output("y", &[y]);
        b.output("error", &[s1]);
        b.finish()
    }

    #[test]
    fn dropping_preserves_verdicts() {
        let nl = quiet_alarm_netlist();
        let engine = SeqEngine::new(&nl);
        let groups: Vec<_> = (0..nl.gate_count())
            .map(|gate| vec![StuckAtLine::new(StuckSite { gate, pin: None }, true)])
            .collect();
        let full = SeqCampaign::new(&engine, &groups, 4, FaultDuration::Permanent)
            .plan(InputPlan::Sampled {
                vectors: 256,
                seed: 7,
            })
            .threads(2)
            .run();
        let dropped = SeqCampaign::new(&engine, &groups, 4, FaultDuration::Permanent)
            .plan(InputPlan::Sampled {
                vectors: 256,
                seed: 7,
            })
            .drop_policy(DropPolicy::OnDetect)
            .threads(2)
            .run();
        for (f, d) in full.per_fault.iter().zip(&dropped.per_fault) {
            assert_eq!(f.detected, d.detected);
        }
        assert!(dropped.simulated <= full.simulated);
    }

    #[test]
    fn lane_width_does_not_change_seq_results() {
        let nl = quiet_alarm_netlist();
        let engine = SeqEngine::new(&nl);
        let groups: Vec<_> = (0..nl.gate_count())
            .flat_map(|gate| {
                [true, false]
                    .map(|value| vec![StuckAtLine::new(StuckSite { gate, pin: None }, value)])
            })
            .collect();
        let plan = InputPlan::Sampled {
            vectors: 300,
            seed: 0x5EED,
        };
        let run = |lanes: Lanes, drop: DropPolicy, duration: FaultDuration| {
            SeqCampaign::new(&engine, &groups, 4, duration)
                .plan(plan)
                .drop_policy(drop)
                .threads(2)
                .lanes(lanes)
                .run()
        };
        let durations = [
            FaultDuration::Permanent,
            FaultDuration::Transient { cycle: 1 },
        ];
        for (drop, duration) in [DropPolicy::Never, DropPolicy::OnDetect]
            .into_iter()
            .flat_map(|d| durations.map(|t| (d, t)))
        {
            let reference = run(Lanes::L1, drop, duration);
            for lanes in [Lanes::L4, Lanes::L8] {
                let wide = run(lanes, drop, duration);
                assert_eq!(reference.tally, wide.tally, "{drop:?} {lanes:?}");
                assert_eq!(
                    reference.first_detect, wide.first_detect,
                    "{drop:?} {lanes:?}"
                );
                assert_eq!(reference.simulated, wide.simulated);
                for (a, b) in reference.per_fault.iter().zip(&wide.per_fault) {
                    assert_eq!(a.tally, b.tally);
                    assert_eq!(a.dropped_after, b.dropped_after);
                    assert_eq!(a.first_detect, b.first_detect);
                }
            }
        }
    }

    #[test]
    fn seq_engine_word_extraction_matches_scalar() {
        let nl = shift_netlist();
        let engine = SeqEngine::new(&nl);
        assert_eq!(nl.outputs().len(), 1);
        let batch = InputPlan::Exhaustive.stream(1).next().unwrap();
        let mut values = Vec::new();
        let mut state = Vec::new();
        let _ = engine.run_batch_into(&batch, None, 3, &mut values, &mut state);
        // Lane 1 (x = 1): y = 1 after 3 cycles.
        let (_, nets) = &nl.outputs()[0];
        let y = (values[nets[0].index()] >> 1) & 1;
        assert_eq!(y, 1);
        let scalar = nl.eval_seq_words(&[Word::new(1, 1)], 3, &[]);
        assert_eq!(scalar[0].bits(), 1);
    }
}
