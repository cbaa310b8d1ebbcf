//! Campaign configuration and the unified `run()` entry point.

use crate::error::CampaignError;
use crate::obs::RunCtx;
use crate::reduce::{reduce_in, validate_exec};
use crate::report::{drop_label, CampaignReport, FaultRecord};
use crate::scenario::{
    allocation_label, realisation_label, technique_label, Backend, FaultModel, Scenario,
};
use crate::shard::{self, ShardInfo};
use scdp_core::{Allocation, Operator};
use scdp_coverage::{AdderFaultModel, InputSpace, OperatorKind, Tally, TechIndex};
use scdp_netlist::gen::AdderRealisation;
use scdp_obs::EventSink;
use scdp_sim::{DropPolicy, Engine, EngineCampaign, InputPlan, Lanes};
use std::cell::OnceCell;
use std::fmt;

/// Maximum supported operand width (the functional cell models cap at
/// 32 bits).
pub const MAX_WIDTH: u32 = 32;

/// How a campaign *executes*, as opposed to *what* it simulates: the
/// worker-thread cap, SIMD lane width, fault-drop policy, equivalence
/// collapsing, deductive pruning, and telemetry capture. One `ExecPolicy` is shared —
/// field for field — by every spec builder ([`CampaignSpec`],
/// [`crate::DatapathCampaignSpec`], [`crate::SeqDatapathCampaignSpec`]),
/// so execution tuning written for one backend carries unchanged to the
/// others.
///
/// # Example
///
/// ```
/// use scdp_campaign::{Backend, ExecPolicy, Lanes, Scenario};
/// use scdp_core::Operator;
///
/// let exec = ExecPolicy::new().threads(2).lanes(Lanes::Auto);
/// let report = Scenario::new(Operator::Add, 3)
///     .campaign()
///     .backend(Backend::GateLevel)
///     .exec(exec)
///     .run()
///     .expect("gate level");
/// assert!(report.coverage() > 0.9);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker-thread cap for the work-stealing pool (`None` = all
    /// available cores). Validated against zero at `run()` time.
    pub threads: Option<usize>,
    /// Packed-engine lane width: how many 64-bit limbs each simulated
    /// word carries ([`Lanes::Auto`] picks the widest). Results are
    /// bit-identical at every width.
    pub lanes: Lanes,
    /// When faults leave the simulated universe (gate level only).
    pub drop: DropPolicy,
    /// When `true`, the gate-level engine simulates only one
    /// representative per fault-equivalence class and fans verdicts
    /// back out — reports stay bit-identical, wall clock shrinks.
    pub collapse: bool,
    /// When `true`, faults with an untestability proof (`scdp-analyze`'s
    /// `PrunedUniverse`) are not simulated one by one: each takes the
    /// outcome of one empty fault group (the fault-free machine) that
    /// the engine grades in their place — reports stay bit-identical,
    /// and the report carries a presence-driven `deduce` section with
    /// the breakdown.
    pub prune: bool,
    /// When `true`, the report carries a presence-driven `telemetry`
    /// section ([`scdp_obs::TelemetrySnapshot`]): engine counters and
    /// histograms, pool/scheduling observations, per-stage span
    /// timings.
    pub telemetry: bool,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecPolicy {
    /// The default policy: all cores, auto lane width, no dropping, no
    /// collapsing, no pruning, no telemetry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            threads: None,
            lanes: Lanes::Auto,
            drop: DropPolicy::Never,
            collapse: false,
            prune: false,
            telemetry: false,
        }
    }

    /// Caps the worker thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Selects the packed-engine lane width.
    #[must_use]
    pub fn lanes(mut self, lanes: Lanes) -> Self {
        self.lanes = lanes;
        self
    }

    /// Selects the drop policy (gate-level backend only).
    #[must_use]
    pub fn drop_policy(mut self, drop: DropPolicy) -> Self {
        self.drop = drop;
        self
    }

    /// Enables fault-equivalence collapsing (gate-level backend only).
    #[must_use]
    pub fn collapse(mut self, enabled: bool) -> Self {
        self.collapse = enabled;
        self
    }

    /// Enables deductive pruning (gate-level backends only): fault
    /// groups proven untestable are not simulated one by one; all of
    /// them take the outcome of one empty group — the fault-free
    /// machine over the same batch stream — that the engine grades in
    /// their place, on combinational and sequential netlists alike.
    /// Reports (tallies, per-fault rows, shard geometry, fingerprints)
    /// stay bit-identical to the unpruned run; the `deduce.*` telemetry
    /// counters and the report's `deduce` section record what was
    /// saved, and the engine counters count only what was graded
    /// (`engine.faults` = `deduce.simulated` + 1 on an unsharded
    /// collapsed or uncollapsed run with any untestable group).
    #[must_use]
    pub fn prune(mut self, enabled: bool) -> Self {
        self.prune = enabled;
        self
    }

    /// Embeds a telemetry snapshot in the report.
    #[must_use]
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }
}

/// Configures *how* a [`Scenario`] is analysed and runs it.
///
/// # Example
///
/// ```
/// use scdp_campaign::{Backend, ExecPolicy, Scenario};
/// use scdp_core::{Operator, Technique};
///
/// let scenario = Scenario::new(Operator::Add, 3).technique(Technique::Both);
/// // The same scenario drives both engines.
/// let functional = scenario.campaign().run().expect("functional");
/// let gate = scenario
///     .campaign()
///     .backend(Backend::GateLevel)
///     .exec(ExecPolicy::new().threads(2))
///     .run()
///     .expect("gate level");
/// assert!(functional.coverage() > 0.9);
/// assert!(gate.coverage() > 0.9);
/// ```
///
/// Invalid configurations are reported as typed errors, not panics:
///
/// ```
/// use scdp_campaign::{CampaignError, Scenario};
/// use scdp_core::Operator;
///
/// let err = Scenario::new(Operator::Add, 99).campaign().run().unwrap_err();
/// assert!(matches!(err, CampaignError::WidthOutOfRange { width: 99, .. }));
/// ```
#[derive(Clone)]
pub struct CampaignSpec {
    /// The scenario under analysis.
    pub scenario: Scenario,
    /// The executing engine.
    pub backend: Backend,
    /// The fault universe to inject.
    pub fault_model: FaultModel,
    /// The input-space strategy.
    pub space: InputSpace,
    /// How the campaign executes: threads, lanes, dropping, collapsing,
    /// telemetry.
    pub exec: ExecPolicy,
    /// Restricts the run to one shard of a partitioned universe:
    /// `(index, count)` of a [`ShardPlan`](crate::ShardPlan) over the
    /// fault universe. `None` runs the whole universe.
    pub shard: Option<(u32, u32)>,
    /// Optional structured event sink observing the run's lifecycle
    /// and span closures ([`scdp_obs::ObsEvent`]).
    pub events: Option<EventSink>,
}

impl fmt::Debug for CampaignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignSpec")
            .field("scenario", &self.scenario)
            .field("backend", &self.backend)
            .field("fault_model", &self.fault_model)
            .field("space", &self.space)
            .field("exec", &self.exec)
            .field("shard", &self.shard)
            .field("events", &self.events.as_ref().map(|_| ".."))
            .finish()
    }
}

impl CampaignSpec {
    /// Starts a campaign specification with the paper's defaults:
    /// functional backend, canonical fault model, exhaustive inputs,
    /// and the default [`ExecPolicy`].
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        Self {
            scenario,
            backend: Backend::Functional,
            fault_model: FaultModel::Auto,
            space: InputSpace::Exhaustive,
            exec: ExecPolicy::new(),
            shard: None,
            events: None,
        }
    }

    /// Selects the executing backend.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the fault model.
    #[must_use]
    pub fn fault_model(mut self, model: FaultModel) -> Self {
        self.fault_model = model;
        self
    }

    /// Selects the input space.
    #[must_use]
    pub fn input_space(mut self, space: InputSpace) -> Self {
        self.space = space;
        self
    }

    /// Replaces the execution policy: threads, lanes, drop policy,
    /// collapsing, pruning and telemetry in one value.
    #[must_use]
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Restricts the run to shard `index` of a `count`-way
    /// [`ShardPlan`](crate::ShardPlan) over the fault universe
    /// (validated by [`CampaignSpec::run`]). The report then carries a
    /// `shard` section and serialises as `scdp.campaign.report/v4`;
    /// merging all `count` shards reproduces the unsharded report bit
    /// for bit.
    #[must_use]
    pub fn shard(mut self, index: u32, count: u32) -> Self {
        self.shard = Some((index, count));
        self
    }

    /// Fingerprint of this campaign's configuration — the value sharded
    /// runs stamp into [`ShardInfo::plan_hash`] so checkpoints from
    /// different campaigns can never be resumed or merged into one
    /// sweep. Stable across processes (label-based, not hash-seeded).
    #[must_use]
    pub fn config_fingerprint(&self) -> u64 {
        let s = &self.scenario;
        let width = s.width.to_string();
        let space = shard::space_part(self.space);
        shard::config_fingerprint([
            "operator",
            s.op_label(),
            &width,
            technique_label(s.technique),
            allocation_label(s.allocation),
            realisation_label(s.realisation),
            self.backend.label(),
            self.fault_model.resolve(self.backend).label(),
            &space,
            drop_label(self.exec.drop),
        ])
    }

    /// Installs a structured event sink, called on the driver thread:
    /// lifecycle events plus a [`scdp_obs::ObsEvent::SpanClosed`] per
    /// run stage.
    #[must_use]
    pub fn events(mut self, sink: EventSink) -> Self {
        self.events = Some(sink);
        self
    }

    /// Runs the campaign on the selected backend.
    ///
    /// # Errors
    ///
    /// Returns a [`CampaignError`] instead of panicking for every
    /// invalid configuration: width out of range, zero threads,
    /// unsupported operator/fault-model/drop-policy combinations, and
    /// exhaustive spaces too large to enumerate.
    pub fn run(&self) -> Result<CampaignReport, CampaignError> {
        let model = self.validate()?;
        let ctx = RunCtx::start(
            self.backend,
            model,
            self.events.clone(),
            self.exec.telemetry,
        );
        let mut report = match self.backend {
            Backend::Functional => self.run_functional(model, &ctx),
            Backend::GateLevel => self.run_gate(model, &ctx),
        }?;
        ctx.finish(&mut report);
        Ok(report)
    }

    /// Validates the configuration and resolves the fault model.
    fn validate(&self) -> Result<FaultModel, CampaignError> {
        let s = &self.scenario;
        check_width(s.width)?;
        validate_exec(&self.exec, self.shard)?;
        let model = self.fault_model.resolve(self.backend);
        match self.backend {
            Backend::Functional => {
                if self.exec.collapse {
                    return Err(CampaignError::UnsupportedCollapse {
                        backend: self.backend,
                    });
                }
                if self.exec.prune {
                    return Err(CampaignError::UnsupportedPrune {
                        backend: self.backend,
                    });
                }
                if self.exec.drop != DropPolicy::Never {
                    return Err(CampaignError::UnsupportedDropPolicy {
                        backend: self.backend,
                    });
                }
                if model == FaultModel::Structural {
                    return Err(CampaignError::UnsupportedFaultModel {
                        model,
                        backend: self.backend,
                        detail: "structural stuck-ats exist only on generated netlists",
                    });
                }
            }
            // Operators and realisations without a netlist are
            // rejected by `Scenario::elaborate` in `run_gate`.
            Backend::GateLevel => {
                if model == FaultModel::Cell {
                    return Err(CampaignError::UnsupportedFaultModel {
                        model,
                        backend: self.backend,
                        detail: "truth-table cell faults exist only in the functional models",
                    });
                }
                if model == FaultModel::FaGate
                    && (s.op == Operator::Mul || s.realisation != AdderRealisation::RippleCarry)
                {
                    return Err(CampaignError::UnsupportedFaultModel {
                        model,
                        backend: self.backend,
                        detail: "the functional-twin universe needs a ripple-carry \
                                 full-adder chain",
                    });
                }
                if self.space == InputSpace::Exhaustive && 2 * s.width >= 64 {
                    return Err(CampaignError::ExhaustiveSpaceTooLarge { width: s.width });
                }
            }
        }
        Ok(model)
    }

    /// Dispatches to the functional classifier of `scdp-coverage`.
    fn run_functional(
        &self,
        model: FaultModel,
        ctx: &RunCtx,
    ) -> Result<CampaignReport, CampaignError> {
        let s = &self.scenario;
        let kind = match s.op {
            Operator::Add => OperatorKind::Add,
            Operator::Sub => OperatorKind::Sub,
            Operator::Mul => OperatorKind::Mul,
            Operator::Div => OperatorKind::Div,
        };
        let adder_model = match model {
            FaultModel::Cell => AdderFaultModel::Cell,
            _ => AdderFaultModel::Gate,
        };
        // The engine-room constructor's `assert!`s cannot fire because
        // `validate()` ran first.
        let mut builder = scdp_coverage::CampaignBuilder::over(kind, s.width)
            .adder_model(adder_model)
            .allocation(s.allocation)
            .input_space(self.space);
        if let Some(t) = self.exec.threads {
            builder = builder.threads(t);
        }
        let shard = ShardInfo::resolve(self.shard, builder.universe_size() as u64, || {
            self.config_fingerprint()
        })?;
        if let Some(sh) = shard {
            builder = builder.fault_range(sh.fault_start as usize..sh.fault_end as usize);
        }
        let sim = ctx.span("simulate");
        let result = builder.run();
        sim.close();
        let selected = s.tech_index();
        let per_fault: Vec<FaultRecord> = result
            .per_fault
            .iter()
            .map(|tally| {
                let t = *tally.of(selected);
                FaultRecord {
                    tally: t,
                    detected: t.alarms() > 0,
                    escaped: t.error_undetected > 0,
                    dropped_after: None,
                }
            })
            .collect();
        Ok(CampaignReport {
            scenario: *s,
            backend: Backend::Functional,
            fault_model: model,
            space: self.space,
            drop: self.exec.drop,
            simulated: result.tally.of(selected).total(),
            tally: result.tally,
            filled: TechIndex::ALL.to_vec(),
            per_fault,
            elapsed_ms: 0,
            datapath: None,
            sequential: None,
            shard,
            deduce: None,
            telemetry: None,
        })
    }

    /// Compiles the scenario's netlist and dispatches to the
    /// bit-parallel engine of `scdp-sim`.
    fn run_gate(&self, model: FaultModel, ctx: &RunCtx) -> Result<CampaignReport, CampaignError> {
        let s = &self.scenario;
        let compile = ctx.span("compile");
        let dp = s.elaborate()?;
        let correlated = s.allocation == Allocation::SingleUnit;
        let groups = match model {
            FaultModel::Structural => {
                let mut groups = Vec::new();
                for site in dp.local_sites() {
                    for value in [false, true] {
                        groups.push(if correlated {
                            dp.correlated_fault(site, value)
                        } else {
                            dp.nominal_fault(site, value)
                        });
                    }
                }
                groups
            }
            FaultModel::FaGate => {
                dp.fa_gate_fault_groups(correlated)
                    .ok_or(CampaignError::UnsupportedFaultModel {
                        model,
                        backend: self.backend,
                        detail: "this datapath retains no full-adder cell maps",
                    })?
            }
            _ => unreachable!("rejected by validate()"),
        };
        let engine = Engine::new(&dp.netlist);
        compile.close();
        ctx.record_build("pool.universe_builds");
        ctx.netlist_compiled(dp.netlist.name(), dp.netlist.gate_count(), groups.len());
        let shard = ShardInfo::resolve(self.shard, groups.len() as u64, || {
            self.config_fingerprint()
        })?;
        let reduced = reduce_in(
            ctx,
            &dp.netlist,
            &groups,
            &OnceCell::new(),
            shard,
            InputPlan::from_space(self.space),
            &self.exec,
            &engine,
            |engine, g| EngineCampaign::over(engine, g),
        )?;
        let selected = s.tech_index();
        let mut tally = Tally::default();
        tally.tech[selected as usize] = reduced.tally;
        Ok(CampaignReport {
            scenario: *s,
            backend: Backend::GateLevel,
            fault_model: model,
            space: self.space,
            drop: self.exec.drop,
            tally,
            filled: vec![selected],
            per_fault: reduced.per_fault,
            simulated: reduced.simulated,
            elapsed_ms: 0,
            datapath: None,
            sequential: None,
            shard,
            deduce: reduced.deduce,
            telemetry: None,
        })
    }
}

/// Rejects operand widths outside `1..=`[`MAX_WIDTH`].
pub(crate) fn check_width(width: u32) -> Result<(), CampaignError> {
    if width == 0 || width > MAX_WIDTH {
        return Err(CampaignError::WidthOutOfRange {
            width,
            max: MAX_WIDTH,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_core::Technique;
    use std::sync::Arc;

    #[test]
    fn validation_rejects_bad_configs() {
        let err = Scenario::new(Operator::Add, 0)
            .campaign()
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::WidthOutOfRange { .. }));

        let err = Scenario::new(Operator::Add, 4)
            .campaign()
            .exec(ExecPolicy::new().threads(0))
            .run()
            .unwrap_err();
        assert_eq!(err, CampaignError::ZeroThreads);

        let err = Scenario::new(Operator::Add, 4)
            .campaign()
            .exec(ExecPolicy::new().drop_policy(DropPolicy::OnDetect))
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::UnsupportedDropPolicy { .. }));

        let err = Scenario::new(Operator::Div, 4)
            .campaign()
            .backend(Backend::GateLevel)
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::UnsupportedOperator { .. }));

        let err = Scenario::new(Operator::Add, 4)
            .campaign()
            .fault_model(FaultModel::Structural)
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::UnsupportedFaultModel { .. }));

        let err = Scenario::new(Operator::Mul, 4)
            .campaign()
            .backend(Backend::GateLevel)
            .fault_model(FaultModel::FaGate)
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::UnsupportedFaultModel { .. }));

        let err = Scenario::new(Operator::Sub, 4)
            .realisation(AdderRealisation::CarrySave)
            .campaign()
            .backend(Backend::GateLevel)
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::UnsupportedRealisation { .. }));

        let err = Scenario::new(Operator::Add, 32)
            .campaign()
            .backend(Backend::GateLevel)
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::ExhaustiveSpaceTooLarge { .. }));
    }

    #[test]
    fn functional_report_fills_all_columns() {
        let r = Scenario::new(Operator::Add, 2)
            .technique(Technique::Tech1)
            .campaign()
            .run()
            .unwrap();
        assert_eq!(r.filled.len(), 3);
        assert_eq!(r.four_way().total(), 64 * 16, "64 faults x 16 input pairs");
        assert!(r.column(TechIndex::Both).is_some());
        assert_eq!(r.fault_count(), 64);
    }

    #[test]
    fn gate_report_fills_the_selected_column() {
        let r = Scenario::new(Operator::Add, 2)
            .technique(Technique::Tech1)
            .campaign()
            .backend(Backend::GateLevel)
            .exec(ExecPolicy::new().threads(2))
            .run()
            .unwrap();
        assert_eq!(r.filled, vec![TechIndex::Tech1]);
        assert!(r.column(TechIndex::Both).is_none());
        assert!(r.coverage() > 0.8);
    }

    #[test]
    fn event_sink_sees_lifecycle_and_spans() {
        use scdp_obs::ObsEvent;
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let tap = Arc::clone(&seen);
        let sink: EventSink = Arc::new(move |e: &ObsEvent| {
            tap.lock().unwrap().push(e.kind().to_string());
        });
        let r = Scenario::new(Operator::Add, 2)
            .campaign()
            .backend(Backend::GateLevel)
            .events(sink)
            .exec(ExecPolicy::new().telemetry(true))
            .run()
            .unwrap();
        let kinds = seen.lock().unwrap().clone();
        assert_eq!(kinds.first().map(String::as_str), Some("campaign_started"));
        assert!(kinds.contains(&"netlist_compiled".to_string()));
        assert!(
            kinds.iter().filter(|k| *k == "span").count() >= 4,
            "compile/simulate/tally/root spans expected, got {kinds:?}"
        );
        assert_eq!(kinds.last().map(String::as_str), Some("campaign_finished"));
        let tel = r.telemetry.as_ref().expect("telemetry requested");
        assert!(tel.span("campaign/simulate").is_some());
        assert_eq!(tel.counter("engine.faults"), Some(r.fault_count()));
        assert_eq!(tel.counter("engine.situations"), Some(r.simulated));
    }

    #[test]
    fn reports_without_telemetry_stay_plain() {
        let r = Scenario::new(Operator::Add, 2)
            .campaign()
            .backend(Backend::GateLevel)
            .run()
            .unwrap();
        assert!(r.telemetry.is_none(), "telemetry is opt-in");
        assert!(!r.to_json().contains("\"telemetry\""));
    }

    #[test]
    fn thread_count_does_not_change_gate_results() {
        let scenario = Scenario::new(Operator::Mul, 2);
        let a = scenario
            .campaign()
            .backend(Backend::GateLevel)
            .exec(ExecPolicy::new().threads(1))
            .run()
            .unwrap();
        let b = scenario
            .campaign()
            .backend(Backend::GateLevel)
            .exec(ExecPolicy::new().threads(4))
            .run()
            .unwrap();
        assert!(a.same_results(&b));
    }

    #[test]
    fn dropping_works_through_the_unified_api() {
        let scenario = Scenario::new(Operator::Add, 4);
        let full = scenario
            .campaign()
            .backend(Backend::GateLevel)
            .run()
            .unwrap();
        let dropped = scenario
            .campaign()
            .backend(Backend::GateLevel)
            .exec(ExecPolicy::new().drop_policy(DropPolicy::OnDetect))
            .run()
            .unwrap();
        assert!(dropped.simulated < full.simulated);
        for (f, d) in full.per_fault.iter().zip(&dropped.per_fault) {
            assert_eq!(f.detected, d.detected, "dropping must not change verdicts");
        }
    }
}
