//! Cycle-accurate datapath campaigns: the sequential companion of
//! [`DatapathCampaignSpec`](crate::DatapathCampaignSpec).
//!
//! The unrolled campaign approximates time-multiplexing with correlated
//! injection; this module runs the *real machine* — the shared-FU
//! sequential netlist of [`scdp_netlist::gen::elaborate_seq_datapath`]
//! — on the multi-cycle bit-parallel engine ([`scdp_sim::SeqEngine`]).
//! Two things only the sequential model can express appear here:
//!
//! * **fault durations** — permanent structural defects vs single-cycle
//!   transients ([`FaultDuration`]), selected per campaign;
//! * **detection latency** — every alarm records the cycle it first
//!   fired in, aggregated into a per-cycle histogram serialised in the
//!   report's `sequential` section (`scdp.campaign.report/v3`).
//!
//! # Example
//!
//! ```
//! use scdp_campaign::{DatapathScenario, DfgSource, FaultDuration, InputSpace};
//! use scdp_core::Technique;
//!
//! let report = DatapathScenario::new(DfgSource::Dot, 2)
//!     .technique(Technique::Tech1)
//!     .seq_campaign()
//!     .duration(FaultDuration::Permanent)
//!     .input_space(InputSpace::Sampled { per_fault: 128, seed: 7 })
//!     .exec(scdp_campaign::ExecPolicy::new().threads(2))
//!     .run()
//!     .expect("valid scenario");
//! let seq = report.sequential.as_ref().expect("sequential section");
//! assert_eq!(seq.first_detect_hist.len() as u64, seq.total_cycles);
//! ```

use crate::datapath::{
    datapath_fingerprint, datapath_input_plan, datapath_spec_common, grade, Analysis,
    DatapathScenario,
};
use crate::error::CampaignError;
use crate::obs::RunCtx;
use crate::reduce::{start_ctx, validate_exec};
use crate::report::{duration_label, CampaignReport, SequentialDetails};
use crate::spec::{check_width, ExecPolicy};
use scdp_netlist::gen::{elaborate_seq_datapath, SeqDatapath};
use scdp_netlist::FaultDuration;
use scdp_obs::EventSink;
use scdp_sim::{SeqCampaign, SeqEngine};
use std::cell::OnceCell;
use std::fmt;

impl DatapathScenario {
    /// Runs the synthesis front half — expansion, list scheduling,
    /// binding — and elaborates the result to one cycle-accurate
    /// shared-FU netlist.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=32`; use
    /// [`SeqDatapathCampaignSpec::run`] for validated, typed-error
    /// entry.
    #[must_use]
    pub fn elaborate_seq(&self) -> SeqDatapath {
        self.synthesize(elaborate_seq_datapath)
    }

    /// Starts a cycle-accurate [`SeqDatapathCampaignSpec`] for this
    /// scenario.
    #[must_use]
    pub fn seq_campaign(self) -> SeqDatapathCampaignSpec {
        SeqDatapathCampaignSpec::new(self)
    }
}

/// Configures *how* a [`DatapathScenario`] is analysed cycle-accurately
/// and runs it on the sequential bit-parallel engine.
#[derive(Clone)]
pub struct SeqDatapathCampaignSpec {
    /// The scenario under analysis.
    pub scenario: DatapathScenario,
    /// How long injected faults stay active.
    pub duration: FaultDuration,
    /// The input-space strategy.
    pub space: scdp_coverage::InputSpace,
    /// How the campaign executes: threads, lanes, dropping, collapsing,
    /// telemetry.
    pub exec: ExecPolicy,
    /// Restricts the run to one shard of the fault universe:
    /// `(index, count)` of a [`ShardPlan`](crate::ShardPlan). `None`
    /// runs everything.
    pub shard: Option<(u32, u32)>,
    /// Optional structured event sink ([`scdp_obs::ObsEvent`] stream).
    pub events: Option<EventSink>,
}

impl fmt::Debug for SeqDatapathCampaignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqDatapathCampaignSpec")
            .field("scenario", &self.scenario)
            .field("duration", &self.duration)
            .field("space", &self.space)
            .field("exec", &self.exec)
            .field("shard", &self.shard)
            .field("events", &self.events.as_ref().map(|_| ".."))
            .finish()
    }
}

impl SeqDatapathCampaignSpec {
    /// Starts a campaign with permanent faults, exhaustive inputs and
    /// the default [`ExecPolicy`].
    #[must_use]
    pub fn new(scenario: DatapathScenario) -> Self {
        Self {
            scenario,
            duration: FaultDuration::Permanent,
            space: scdp_coverage::InputSpace::Exhaustive,
            exec: ExecPolicy::new(),
            shard: None,
            events: None,
        }
    }

    /// Selects the fault duration (validated against the elaborated
    /// cycle count by [`SeqDatapathCampaignSpec::run`]).
    #[must_use]
    pub fn duration(mut self, duration: FaultDuration) -> Self {
        self.duration = duration;
        self
    }

    datapath_spec_common!(SeqDatapath, SeqEngine);

    /// Fingerprint of this campaign's configuration — stamped into
    /// [`ShardInfo::plan_hash`](crate::ShardInfo::plan_hash) by sharded
    /// runs so checkpoints from different campaigns can never be resumed
    /// or merged together.
    #[must_use]
    pub fn config_fingerprint(&self) -> u64 {
        datapath_fingerprint(
            "seq-datapath",
            &self.scenario,
            self.space,
            self.exec.drop,
            Some(duration_label(self.duration)),
        )
    }

    /// Runs the campaign: expand → schedule → bind → sequential
    /// elaboration → cycle-accurate bit-parallel simulation, with
    /// per-FU tallies in the report's `datapath` section and the
    /// detection-latency histogram in its `sequential` section
    /// (`scdp.campaign.report/v3`).
    ///
    /// # Errors
    ///
    /// Returns a typed [`CampaignError`] for invalid configurations:
    /// width out of range, zero threads, an exhaustive input space over
    /// more than [`crate::MAX_EXHAUSTIVE_INPUT_BITS`] primary input
    /// bits, or a transient cycle beyond the elaborated cycle count.
    pub fn run(&self) -> Result<CampaignReport, CampaignError> {
        let s = &self.scenario;
        check_width(s.width)?;
        validate_exec(&self.exec, self.shard)?;
        let ctx = start_ctx(&self.events, &self.exec);
        let elaborate = ctx.span("elaborate");
        let dp = s.elaborate_seq();
        elaborate.close();
        self.grade_on(&dp, ctx, &OnceCell::new())
    }

    /// The back half of `run`/`run_on`/`run_shared`: grades `dp` with
    /// the analysis in `analysis`.
    fn grade_on(
        &self,
        dp: &SeqDatapath,
        ctx: RunCtx,
        analysis: &OnceCell<Analysis<SeqEngine>>,
    ) -> Result<CampaignReport, CampaignError> {
        let plan = datapath_input_plan(self.space, dp.netlist.input_bits())?;
        if let FaultDuration::Transient { cycle } = self.duration {
            if cycle >= dp.total_cycles {
                return Err(CampaignError::TransientCycleOutOfRange {
                    cycle,
                    total_cycles: dp.total_cycles,
                });
            }
        }
        let sequential = SequentialDetails {
            duration: self.duration,
            total_cycles: u64::from(dp.total_cycles),
            first_detect_hist: Vec::new(),
        };
        grade(
            ctx,
            self.grading(dp, plan),
            analysis,
            || (dp.fault_universe(), SeqEngine::new(&dp.netlist)),
            |engine, groups| SeqCampaign::new(engine, groups, dp.total_cycles, self.duration),
            Some(sequential),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::DfgSource;
    use scdp_core::Technique;
    use scdp_coverage::InputSpace;

    fn quick(source: DfgSource, duration: FaultDuration) -> CampaignReport {
        DatapathScenario::new(source, 2)
            .technique(Technique::Tech1)
            .seq_campaign()
            .duration(duration)
            .input_space(InputSpace::Sampled {
                per_fault: 128,
                seed: 0x5E9,
            })
            .exec(ExecPolicy::new().threads(2))
            .run()
            .expect("campaign runs")
    }

    #[test]
    fn sequential_section_is_consistent() {
        let r = quick(DfgSource::Fir, FaultDuration::Permanent);
        let seq = r.sequential.as_ref().expect("sequential section");
        assert_eq!(seq.first_detect_hist.len() as u64, seq.total_cycles);
        let detected: u64 = seq.first_detect_hist.iter().sum();
        let t = r.four_way();
        assert_eq!(
            detected,
            t.correct_detected + t.error_detected,
            "histogram sums to the detected situations"
        );
        assert!(seq.mean_detection_latency().is_some());
        let dp = r.datapath.as_ref().expect("datapath section");
        assert!(dp.per_fu.iter().all(|fu| fu.instances <= 1));
    }

    #[test]
    fn per_fu_tallies_sum_to_the_aggregate() {
        let r = quick(DfgSource::Dot, FaultDuration::Permanent);
        let dp = r.datapath.as_ref().expect("datapath section");
        let mut sum = scdp_coverage::TechTally::default();
        let mut faults = 0u64;
        for fu in &dp.per_fu {
            sum += fu.tally;
            faults += fu.faults;
        }
        assert_eq!(sum, *r.four_way());
        assert_eq!(faults, r.fault_count());
    }

    #[test]
    fn transients_are_milder_than_permanents() {
        let perm = quick(DfgSource::Dot, FaultDuration::Permanent);
        let wrong = |r: &CampaignReport| {
            let t = r.four_way();
            t.error_detected + t.error_undetected
        };
        let cycles = perm.sequential.as_ref().unwrap().total_cycles as u32;
        let mut any_corruption = false;
        for cycle in 0..cycles {
            let tran = quick(DfgSource::Dot, FaultDuration::Transient { cycle });
            assert!(
                wrong(&tran) < wrong(&perm),
                "a single-cycle upset at cycle {cycle} must corrupt fewer situations \
                 ({} vs {})",
                wrong(&tran),
                wrong(&perm)
            );
            any_corruption |= wrong(&tran) > 0;
        }
        assert!(any_corruption, "some transient cycle must corrupt results");
    }

    #[test]
    fn validation_is_typed() {
        let err = DatapathScenario::new(DfgSource::Fir, 0)
            .seq_campaign()
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::WidthOutOfRange { .. }));

        let err = DatapathScenario::new(DfgSource::Fir, 4)
            .seq_campaign()
            .exec(ExecPolicy::new().threads(0))
            .run()
            .unwrap_err();
        assert_eq!(err, CampaignError::ZeroThreads);

        let err = DatapathScenario::new(DfgSource::Iir, 8)
            .seq_campaign()
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            CampaignError::ExhaustiveDatapathTooLarge { input_bits } if input_bits > 24
        ));

        let err = DatapathScenario::new(DfgSource::Fir, 2)
            .seq_campaign()
            .duration(FaultDuration::Transient { cycle: 999 })
            .input_space(InputSpace::Sampled {
                per_fault: 16,
                seed: 1,
            })
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            CampaignError::TransientCycleOutOfRange { cycle: 999, .. }
        ));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let scenario = DatapathScenario::new(DfgSource::Dot, 2).technique(Technique::Both);
        let space = InputSpace::Sampled {
            per_fault: 128,
            seed: 11,
        };
        let a = scenario
            .clone()
            .seq_campaign()
            .input_space(space)
            .exec(ExecPolicy::new().threads(1))
            .run()
            .unwrap();
        let b = scenario
            .seq_campaign()
            .input_space(space)
            .exec(ExecPolicy::new().threads(3))
            .run()
            .unwrap();
        assert!(a.same_results(&b));
        assert_eq!(a.sequential, b.sequential);
    }
}
