//! Whole-datapath campaigns: the specification-level description of a
//! scheduled, bound dataflow graph analysed as one circuit.
//!
//! [`Scenario`](crate::Scenario) drives campaigns over a single checked
//! operator; this module scales the same machinery to the paper's
//! actual subject — a *system-level* self-checking datapath. A
//! [`DatapathScenario`] names a source DFG (the FIR loop body or one of
//! the §5 companion workloads), the SCK expansion that introduces the
//! checking operations, and the synthesis knobs (resources, checker
//! allocation). Its campaign elaborates the scheduled, bound graph to
//! one flat netlist (`scdp_netlist::gen::elaborate_datapath`), injects
//! every functional unit's structural stuck-at universe — each fault
//! correlated across all operations time-multiplexed onto the unit —
//! and reports four-way tallies both in aggregate and **per functional
//! unit** ([`DatapathDetails`](crate::DatapathDetails), serialised as
//! `scdp.campaign.report/v2`).
//!
//! # Example
//!
//! ```
//! use scdp_campaign::{DatapathScenario, DfgSource, ExecPolicy, InputSpace};
//! use scdp_core::Technique;
//!
//! let report = DatapathScenario::new(DfgSource::Fir, 3)
//!     .technique(Technique::Tech1)
//!     .campaign()
//!     .input_space(InputSpace::Sampled { per_fault: 256, seed: 7 })
//!     .exec(ExecPolicy::new().threads(2))
//!     .run()
//!     .expect("valid scenario");
//! let dp = report.datapath.as_ref().expect("datapath section");
//! assert_eq!(dp.source, "fir");
//! assert!(dp.per_fu.iter().any(|fu| fu.class == "alu"));
//! ```

use crate::error::CampaignError;
use crate::obs::RunCtx;
use crate::reduce::{reduce_in, start_ctx, validate_exec};
use crate::report::{drop_label, CampaignReport, DatapathDetails, FuTally, SequentialDetails};
use crate::scenario::{allocation_label, technique_label, Backend, FaultModel, Scenario};
use crate::shard::{self, ShardInfo};
use crate::spec::{check_width, ExecPolicy};
use scdp_analyze::CollapsedGroups;
use scdp_coverage::{InputSpace, Tally};
use scdp_fir::{dot_body_dfg, fir_body_dfg, iir_biquad_dfg, matvec_row_dfg};
use scdp_hls::{
    bind, expand_sck, sched, BindOptions, Binding, ComponentLibrary, Dfg, ResourceSet, Role,
    Schedule, SckStyle,
};
use scdp_netlist::gen::{
    class_label, elaborate_datapath, ElaboratedDatapath, FuFaultRange, FuSpan,
};
use scdp_netlist::{Netlist, StuckAtLine};
use scdp_obs::EventSink;
use scdp_sim::{Campaign, Engine, EngineCampaign, FaultEngine, InputPlan};
use std::cell::OnceCell;
use std::fmt;

/// Exhaustive datapath campaigns are rejected above this many primary
/// input bits (the engine could enumerate up to 63, but the run time
/// would be astronomical — sample instead).
pub const MAX_EXHAUSTIVE_INPUT_BITS: usize = 24;

/// Validates a datapath campaign's input space against the elaborated
/// netlist's primary-input width and converts it to the gate-level
/// engine's batched plan — the one construction shared by the unrolled
/// ([`DatapathCampaignSpec`]) and sequential
/// ([`crate::SeqDatapathCampaignSpec`]) campaign paths.
///
/// # Errors
///
/// Returns [`CampaignError::ExhaustiveDatapathTooLarge`] when an
/// exhaustive space is requested over more than
/// [`MAX_EXHAUSTIVE_INPUT_BITS`] primary input bits.
pub fn datapath_input_plan(
    space: InputSpace,
    input_bits: usize,
) -> Result<InputPlan, CampaignError> {
    if space == InputSpace::Exhaustive && input_bits > MAX_EXHAUSTIVE_INPUT_BITS {
        return Err(CampaignError::ExhaustiveDatapathTooLarge { input_bits });
    }
    Ok(InputPlan::from_space(space))
}

/// Which loop-body dataflow graph a datapath campaign analyses.
#[derive(Clone, Debug)]
pub enum DfgSource {
    /// The paper's FIR tap (`scdp_fir::fir_body_dfg`).
    Fir,
    /// Direct-form-I biquad IIR section (`scdp_fir::iir_biquad_dfg`).
    Iir,
    /// Dot-product accumulation step (`scdp_fir::dot_body_dfg`).
    Dot,
    /// Matrix–vector row with running average, divider included
    /// (`scdp_fir::matvec_row_dfg`).
    Matvec,
    /// A caller-supplied loop body.
    Custom(Dfg),
}

impl DfgSource {
    /// The built-in workloads, sweep order.
    pub const BUILTIN: [DfgSource; 4] = [
        DfgSource::Fir,
        DfgSource::Iir,
        DfgSource::Dot,
        DfgSource::Matvec,
    ];

    /// Stable serialisation label (`custom:<name>` for custom graphs).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            DfgSource::Fir => "fir".to_string(),
            DfgSource::Iir => "iir".to_string(),
            DfgSource::Dot => "dot".to_string(),
            DfgSource::Matvec => "matvec".to_string(),
            DfgSource::Custom(d) => format!("custom:{}", d.name()),
        }
    }

    /// Parses a built-in workload label.
    #[must_use]
    pub fn from_label(s: &str) -> Option<DfgSource> {
        match s {
            "fir" => Some(DfgSource::Fir),
            "iir" => Some(DfgSource::Iir),
            "dot" => Some(DfgSource::Dot),
            "matvec" => Some(DfgSource::Matvec),
            _ => None,
        }
    }

    /// Builds the (unexpanded) loop-body DFG.
    #[must_use]
    pub fn build(&self) -> Dfg {
        match self {
            DfgSource::Fir => fir_body_dfg(),
            DfgSource::Iir => iir_biquad_dfg(),
            DfgSource::Dot => dot_body_dfg(),
            DfgSource::Matvec => matvec_row_dfg(),
            DfgSource::Custom(d) => d.clone(),
        }
    }
}

impl fmt::Display for DfgSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Stable serialisation label of an SCK expansion style.
#[must_use]
pub fn style_label(style: SckStyle) -> &'static str {
    match style {
        SckStyle::Plain => "plain",
        SckStyle::Full => "full",
        SckStyle::Embedded => "embedded",
    }
}

/// Parses an SCK expansion-style serialisation label.
#[must_use]
pub fn style_from_label(s: &str) -> Option<SckStyle> {
    match s {
        "plain" => Some(SckStyle::Plain),
        "full" => Some(SckStyle::Full),
        "embedded" => Some(SckStyle::Embedded),
        _ => None,
    }
}

/// One whole-datapath reliability scenario: *what* is analysed — the
/// source graph, its checking expansion and the synthesis knobs —
/// independent of *how* (input space, drop policy, threads: those live
/// in [`DatapathCampaignSpec`]).
#[derive(Clone, Debug)]
pub struct DatapathScenario {
    /// The loop-body dataflow graph.
    pub source: DfgSource,
    /// Operand width in bits.
    pub width: u32,
    /// The check policy of the SCK expansion (Table 1 column).
    pub technique: scdp_core::Technique,
    /// How checking is introduced in the specification.
    pub style: SckStyle,
    /// Checker allocation: [`scdp_core::Allocation::SingleUnit`] lets
    /// binding share functional units between nominal and checking
    /// operations (the paper's worst case);
    /// [`scdp_core::Allocation::Dedicated`] keeps checker operations on
    /// their own units (§2.1's 100%-coverage allocation).
    pub allocation: scdp_core::Allocation,
    /// Resource constraints for list scheduling.
    pub resources: ResourceSet,
}

impl DatapathScenario {
    /// A scenario with the paper's defaults: the full `SCK<T>`
    /// expansion, combined techniques, shared (worst-case) allocation,
    /// minimum-area resources.
    #[must_use]
    pub fn new(source: DfgSource, width: u32) -> Self {
        Self {
            source,
            width,
            technique: scdp_core::Technique::Both,
            style: SckStyle::Full,
            allocation: scdp_core::Allocation::SingleUnit,
            resources: ResourceSet::min_area(),
        }
    }

    /// Selects the check policy.
    #[must_use]
    pub fn technique(mut self, technique: scdp_core::Technique) -> Self {
        self.technique = technique;
        self
    }

    /// Selects the SCK expansion style.
    #[must_use]
    pub fn style(mut self, style: SckStyle) -> Self {
        self.style = style;
        self
    }

    /// Selects the checker allocation.
    #[must_use]
    pub fn allocation(mut self, allocation: scdp_core::Allocation) -> Self {
        self.allocation = allocation;
        self
    }

    /// Selects the scheduling resource constraints.
    #[must_use]
    pub fn resources(mut self, resources: ResourceSet) -> Self {
        self.resources = resources;
        self
    }

    /// The expanded DFG (source graph after SCK expansion).
    #[must_use]
    pub fn expanded(&self) -> Dfg {
        expand_sck(&self.source.build(), self.technique, self.style)
    }

    /// Runs the synthesis front half — expansion, list scheduling,
    /// binding — and elaborates the result to one flat netlist.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=32`; use
    /// [`DatapathCampaignSpec::run`] for validated, typed-error entry.
    #[must_use]
    pub fn elaborate(&self) -> ElaboratedDatapath {
        self.synthesize(elaborate_datapath)
    }

    /// The synthesis front half both elaborations share: expansion,
    /// list scheduling and binding, lowered by `elaborate`.
    pub(crate) fn synthesize<M>(&self, elaborate: fn(&Dfg, &Schedule, &Binding, u32) -> M) -> M {
        let dfg = self.expanded();
        let lib = ComponentLibrary::virtex16();
        let schedule = sched::list_schedule(&dfg, &lib, &self.resources);
        let opts = BindOptions {
            separate_checkers: self.allocation == scdp_core::Allocation::Dedicated,
            no_sharing: false,
        };
        let binding = bind(&dfg, &schedule, &lib, opts);
        elaborate(&dfg, &schedule, &binding, self.width)
    }

    /// Starts a [`DatapathCampaignSpec`] for this scenario.
    #[must_use]
    pub fn campaign(self) -> DatapathCampaignSpec {
        DatapathCampaignSpec::new(self)
    }

    /// The technique column this scenario's report is canonical for.
    #[must_use]
    pub fn tech_index(&self) -> scdp_coverage::TechIndex {
        match self.technique {
            scdp_core::Technique::Tech1 => scdp_coverage::TechIndex::Tech1,
            scdp_core::Technique::Tech2 => scdp_coverage::TechIndex::Tech2,
            scdp_core::Technique::Both => scdp_coverage::TechIndex::Both,
        }
    }

    /// The operator-scenario twin recorded in the report's `scenario`
    /// field (width, technique and allocation are meaningful; the
    /// operator slot is a placeholder — whole datapaths have no single
    /// operator).
    #[must_use]
    pub(crate) fn placeholder_scenario(&self) -> Scenario {
        Scenario::new(scdp_core::Operator::Add, self.width)
            .technique(self.technique)
            .allocation(self.allocation)
    }
}

/// The builder methods and plumbing both datapath campaign specs
/// share: they carry the same `scenario`, `space`, `exec`, `shard` and
/// `events` fields and differ only in the machine they grade
/// (`$machine`), its engine (`$engine`) and how they grade it
/// (`grade_on`).
macro_rules! datapath_spec_common {
    ($machine:ty, $engine:ty) => {
        /// Selects the input space.
        #[must_use]
        pub fn input_space(mut self, space: $crate::InputSpace) -> Self {
            self.space = space;
            self
        }

        /// Replaces the execution policy: threads, lanes, drop policy,
        /// collapsing, pruning and telemetry in one value.
        #[must_use]
        pub fn exec(mut self, exec: $crate::ExecPolicy) -> Self {
            self.exec = exec;
            self
        }

        /// Restricts the run to shard `index` of a `count`-way
        /// [`ShardPlan`](crate::ShardPlan) over the fault universe
        /// (validated by [`Self::run`]). The report then carries a
        /// `shard` section (`scdp.campaign.report/v4`); merging all
        /// `count` shards reproduces the unsharded report — tallies,
        /// per-fault outcomes and any latency histogram — bit for bit.
        #[must_use]
        pub fn shard(mut self, index: u32, count: u32) -> Self {
            self.shard = Some((index, count));
            self
        }

        /// Installs a structured event sink, called on the driver thread
        /// with every [`scdp_obs::ObsEvent`] of the run.
        #[must_use]
        pub fn events(mut self, sink: $crate::EventSink) -> Self {
            self.events = Some(sink);
            self
        }

        /// Runs the campaign on a machine elaborated earlier from this
        /// spec's scenario, skipping the synthesis front half — for
        /// sweeps that grade several configurations of the same
        /// machine. Each call still builds its own fault universe,
        /// engine and collapse classes; only a
        /// [`CampaignRunner`](crate::CampaignRunner) invocation shares
        /// those across its shards.
        ///
        /// # Errors
        ///
        /// As [`Self::run`], minus the width check the elaboration
        /// already enforced.
        pub fn run_on(&self, dp: &$machine) -> Result<CampaignReport, CampaignError> {
            self.run_shared(dp, &std::cell::OnceCell::new())
        }

        /// As [`Self::run_on`], but takes `dp`'s analysis from
        /// `analysis`, building it there first if no earlier run did:
        /// the runner's per-invocation sharing.
        pub(crate) fn run_shared(
            &self,
            dp: &$machine,
            analysis: &std::cell::OnceCell<$crate::datapath::Analysis<$engine>>,
        ) -> Result<CampaignReport, CampaignError> {
            $crate::reduce::validate_exec(&self.exec, self.shard)?;
            let ctx = $crate::reduce::start_ctx(&self.events, &self.exec);
            self.grade_on(dp, ctx, analysis)
        }

        /// How [`grade`](crate::datapath::grade) runs this spec on
        /// `dp` over `plan`.
        fn grading<'a>(
            &'a self,
            dp: &'a $machine,
            plan: $crate::InputPlan,
        ) -> $crate::datapath::Grading<'a> {
            $crate::datapath::Grading {
                scenario: &self.scenario,
                space: self.space,
                plan,
                exec: &self.exec,
                shard: self.shard,
                fingerprint: self.config_fingerprint(),
                netlist: &dp.netlist,
                fus: &dp.fus,
                nodes: dp.nodes,
                schedule_length: dp.schedule_length,
                registers: dp.registers,
                mux_legs: dp.mux_legs,
            }
        }
    };
}
pub(crate) use datapath_spec_common;

/// Configures *how* a [`DatapathScenario`] is analysed and runs it on
/// the bit-parallel gate-level engine.
#[derive(Clone)]
pub struct DatapathCampaignSpec {
    /// The scenario under analysis.
    pub scenario: DatapathScenario,
    /// The input-space strategy.
    pub space: InputSpace,
    /// How the campaign executes: threads, lanes, dropping, collapsing,
    /// telemetry.
    pub exec: ExecPolicy,
    /// Restricts the run to one shard of the fault universe:
    /// `(index, count)` of a [`ShardPlan`](crate::ShardPlan). `None`
    /// runs everything.
    pub shard: Option<(u32, u32)>,
    /// Optional structured event sink ([`scdp_obs::ObsEvent`]).
    pub events: Option<EventSink>,
}

impl fmt::Debug for DatapathCampaignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DatapathCampaignSpec")
            .field("scenario", &self.scenario)
            .field("space", &self.space)
            .field("exec", &self.exec)
            .field("shard", &self.shard)
            .field("events", &self.events.as_ref().map(|_| ".."))
            .finish()
    }
}

impl DatapathCampaignSpec {
    /// Starts a campaign with exhaustive inputs and the default
    /// [`ExecPolicy`].
    #[must_use]
    pub fn new(scenario: DatapathScenario) -> Self {
        Self {
            scenario,
            space: InputSpace::Exhaustive,
            exec: ExecPolicy::new(),
            shard: None,
            events: None,
        }
    }

    datapath_spec_common!(ElaboratedDatapath, Engine);

    /// Fingerprint of this campaign's configuration — stamped into
    /// [`ShardInfo::plan_hash`] by sharded runs so checkpoints from
    /// different campaigns can never be resumed or merged together.
    #[must_use]
    pub fn config_fingerprint(&self) -> u64 {
        datapath_fingerprint("datapath", &self.scenario, self.space, self.exec.drop, None)
    }

    /// Runs the campaign: expand → schedule → bind → elaborate →
    /// bit-parallel structural stuck-at simulation, with per-FU
    /// tallies in the report's `datapath` section.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CampaignError`] for invalid configurations:
    /// width out of range, zero threads, or an exhaustive input space
    /// over more than [`MAX_EXHAUSTIVE_INPUT_BITS`] primary input bits.
    pub fn run(&self) -> Result<CampaignReport, CampaignError> {
        let s = &self.scenario;
        check_width(s.width)?;
        validate_exec(&self.exec, self.shard)?;
        let ctx = start_ctx(&self.events, &self.exec);
        let span = ctx.span("elaborate");
        let dp = s.elaborate();
        span.close();
        self.grade_on(&dp, ctx, &OnceCell::new())
    }

    /// The back half of `run`/`run_on`/`run_shared`: grades `dp` with
    /// the analysis in `analysis`.
    fn grade_on(
        &self,
        dp: &ElaboratedDatapath,
        ctx: RunCtx,
        analysis: &OnceCell<Analysis<Engine>>,
    ) -> Result<CampaignReport, CampaignError> {
        let plan = datapath_input_plan(self.space, dp.netlist.input_bits())?;
        grade(
            ctx,
            self.grading(dp, plan),
            analysis,
            || (dp.fault_universe(), Engine::new(&dp.netlist)),
            |engine, groups| EngineCampaign::over(engine, groups),
            None,
        )
    }
}

/// What the shared back half [`grade`] reads of either spec and of the
/// machine, unrolled or sequential, it grades.
pub(crate) struct Grading<'a> {
    pub(crate) scenario: &'a DatapathScenario,
    pub(crate) space: InputSpace,
    pub(crate) plan: InputPlan,
    pub(crate) exec: &'a ExecPolicy,
    pub(crate) shard: Option<(u32, u32)>,
    pub(crate) fingerprint: u64,
    pub(crate) netlist: &'a Netlist,
    pub(crate) fus: &'a [FuSpan],
    pub(crate) nodes: usize,
    pub(crate) schedule_length: u32,
    pub(crate) registers: usize,
    pub(crate) mux_legs: usize,
}

/// A machine's fault-universe analysis: its fault groups with their
/// per-FU ranges, its compiled engine and its collapse classes (built
/// by the first collapsed run that needs them). None of it depends on
/// the shard, the input space or the fault duration, so one
/// [`crate::CampaignRunner`] invocation builds it once and every fresh
/// shard reuses it.
pub(crate) struct Analysis<E> {
    groups: Vec<Vec<StuckAtLine>>,
    ranges: Vec<FuFaultRange>,
    engine: E,
    classes: OnceCell<CollapsedGroups>,
}

/// The back half both datapath campaign specs share: get the machine's
/// [`Analysis`] from `analysis` — built there by `compile` (its fault
/// universe and engine) under the `campaign/compile` span unless an
/// earlier run of the same runner invocation did — reduce the universe
/// through the campaign `campaign` builds, fold the per-FU tallies and
/// assemble the report under `ctx`. The sequential spec passes its
/// `sequential` section; the run fills its histogram.
pub(crate) fn grade<E: FaultEngine>(
    ctx: RunCtx,
    run: Grading<'_>,
    analysis: &OnceCell<Analysis<E>>,
    compile: impl FnOnce() -> ((Vec<Vec<StuckAtLine>>, Vec<FuFaultRange>), E),
    campaign: impl for<'a> FnOnce(&'a E, &'a [Vec<StuckAtLine>]) -> Campaign<'a, E>,
    sequential: Option<SequentialDetails>,
) -> Result<CampaignReport, CampaignError> {
    let s = run.scenario;
    let analysis = analysis.get_or_init(|| {
        let span = ctx.span("compile");
        let ((groups, ranges), engine) = compile();
        span.close();
        ctx.record_build("pool.universe_builds");
        Analysis {
            groups,
            ranges,
            engine,
            classes: OnceCell::new(),
        }
    });
    let groups = &analysis.groups;
    let netlist = run.netlist;
    ctx.netlist_compiled(netlist.name(), netlist.gate_count(), groups.len());

    let shard = ShardInfo::resolve(run.shard, groups.len() as u64, || run.fingerprint)?;
    let reduced = reduce_in(
        &ctx,
        netlist,
        groups,
        &analysis.classes,
        shard,
        run.plan,
        run.exec,
        &analysis.engine,
        campaign,
    )?;
    let per_fu: Vec<FuTally> = analysis
        .ranges
        .iter()
        .map(|r| {
            let span = &run.fus[r.fu];
            let unit = FuTally {
                name: span.name.clone(),
                class: class_label(span.class).to_string(),
                role: role_label(span.role).to_string(),
                ops: span.ops.len() as u64,
                instances: span.instances.len() as u64,
                instance_gates: span.instance_gates() as u64,
                ..FuTally::default()
            };
            reduced.fu_tally(unit, r)
        })
        .collect();

    let selected = s.tech_index();
    let mut tally = Tally::default();
    tally.tech[selected as usize] = reduced.tally;
    let details = DatapathDetails {
        source: s.source.label(),
        style: style_label(s.style).to_string(),
        nodes: run.nodes as u64,
        schedule_length: u64::from(run.schedule_length),
        registers: run.registers as u64,
        mux_legs: run.mux_legs as u64,
        gates: netlist.gate_count() as u64,
        per_fu,
    };
    let sequential = sequential.map(|seq| SequentialDetails {
        first_detect_hist: reduced.first_detect,
        ..seq
    });
    let mut report = CampaignReport {
        scenario: s.placeholder_scenario(),
        backend: Backend::GateLevel,
        fault_model: FaultModel::Structural,
        space: run.space,
        drop: run.exec.drop,
        tally,
        filled: vec![selected],
        per_fault: reduced.per_fault,
        simulated: reduced.simulated,
        elapsed_ms: 0,
        datapath: Some(details),
        sequential,
        shard,
        deduce: reduced.deduce,
        telemetry: None,
    };
    ctx.finish(&mut report);
    Ok(report)
}

/// The shared configuration-fingerprint construction of the unrolled
/// and sequential datapath campaigns (`kind` separates the two;
/// `duration` is the sequential campaigns' fault-duration label).
pub(crate) fn datapath_fingerprint(
    kind: &str,
    s: &DatapathScenario,
    space: InputSpace,
    drop: scdp_sim::DropPolicy,
    duration: Option<String>,
) -> u64 {
    let source = s.source.label();
    let width = s.width.to_string();
    let resources = format!(
        "alu{}:mult{}:div{}:mem{}",
        s.resources.alus, s.resources.mults, s.resources.divs, s.resources.mem_ports
    );
    let space = shard::space_part(space);
    let duration = duration.unwrap_or_default();
    shard::config_fingerprint([
        kind,
        &source,
        &width,
        technique_label(s.technique),
        allocation_label(s.allocation),
        style_label(s.style),
        &resources,
        &space,
        drop_label(drop),
        &duration,
    ])
}

/// Stable serialisation label of a binding role.
#[must_use]
pub fn role_label(role: Role) -> &'static str {
    match role {
        Role::Nominal => "nominal",
        Role::Checker => "checker",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_core::{Allocation, Technique};

    fn quick(source: DfgSource) -> CampaignReport {
        DatapathScenario::new(source, 2)
            .technique(Technique::Tech1)
            .campaign()
            .input_space(InputSpace::Sampled {
                per_fault: 128,
                seed: 0xDA7E,
            })
            .exec(ExecPolicy::new().threads(2))
            .run()
            .expect("campaign runs")
    }

    #[test]
    fn per_fu_tallies_sum_to_the_aggregate() {
        let r = quick(DfgSource::Fir);
        let dp = r.datapath.as_ref().expect("datapath section");
        let mut sum = scdp_coverage::TechTally::default();
        let mut faults = 0u64;
        for fu in &dp.per_fu {
            sum += fu.tally;
            faults += fu.faults;
        }
        assert_eq!(sum, *r.four_way());
        assert_eq!(faults, r.fault_count());
        assert!(dp.gates > 0 && dp.nodes > 0 && dp.schedule_length > 0);
    }

    #[test]
    fn all_builtin_sources_run() {
        for source in DfgSource::BUILTIN {
            let label = source.label();
            let r = quick(source);
            let dp = r.datapath.as_ref().expect("datapath section");
            assert_eq!(dp.source, label);
            assert!(r.fault_count() > 0, "{label}");
            assert!(r.detection_rate() > 0.0, "{label}");
        }
    }

    #[test]
    fn validation_is_typed() {
        let err = DatapathScenario::new(DfgSource::Fir, 0)
            .campaign()
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::WidthOutOfRange { .. }));

        let err = DatapathScenario::new(DfgSource::Fir, 4)
            .campaign()
            .exec(ExecPolicy::new().threads(0))
            .run()
            .unwrap_err();
        assert_eq!(err, CampaignError::ZeroThreads);

        // 10 input buses x 8 bits = 80 input bits: exhaustive rejected.
        let err = DatapathScenario::new(DfgSource::Iir, 8)
            .campaign()
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            CampaignError::ExhaustiveDatapathTooLarge { input_bits } if input_bits > 24
        ));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let scenario = DatapathScenario::new(DfgSource::Dot, 2).technique(Technique::Both);
        let space = InputSpace::Sampled {
            per_fault: 256,
            seed: 1,
        };
        let a = scenario
            .clone()
            .campaign()
            .input_space(space)
            .exec(ExecPolicy::new().threads(1))
            .run()
            .unwrap();
        let b = scenario
            .campaign()
            .input_space(space)
            .exec(ExecPolicy::new().threads(3))
            .run()
            .unwrap();
        assert!(a.same_results(&b));
    }

    #[test]
    fn dedicated_allocation_separates_checker_units() {
        let shared = DatapathScenario::new(DfgSource::Fir, 2).elaborate();
        let dedicated = DatapathScenario::new(DfgSource::Fir, 2)
            .allocation(Allocation::Dedicated)
            .elaborate();
        assert!(
            dedicated.fus.len() > shared.fus.len(),
            "dedicated checkers need extra units ({} vs {})",
            dedicated.fus.len(),
            shared.fus.len()
        );
        let checker_units = dedicated
            .fus
            .iter()
            .filter(|f| f.role == Role::Checker)
            .count();
        assert!(checker_units > 0, "checker ops must land on own units");
    }

    #[test]
    fn plain_style_has_no_alarms_and_everything_escapes_detection() {
        let r = DatapathScenario::new(DfgSource::Dot, 2)
            .style(SckStyle::Plain)
            .campaign()
            .input_space(InputSpace::Sampled {
                per_fault: 64,
                seed: 3,
            })
            .run()
            .unwrap();
        assert_eq!(
            r.four_way().correct_detected + r.four_way().error_detected,
            0,
            "no checkers, no alarms"
        );
        assert!((r.detection_rate() - 0.0).abs() < 1e-12);
        assert_eq!(r.datapath.as_ref().unwrap().style, "plain");
    }

    #[test]
    fn labels_round_trip() {
        for style in [SckStyle::Plain, SckStyle::Full, SckStyle::Embedded] {
            assert_eq!(style_from_label(style_label(style)), Some(style));
        }
        assert_eq!(style_from_label("nope"), None);
        for source in DfgSource::BUILTIN {
            let parsed = DfgSource::from_label(&source.label()).expect("builtin label");
            assert_eq!(parsed.label(), source.label());
        }
        assert!(DfgSource::from_label("custom:x").is_none());
        let custom = DfgSource::Custom(Dfg::new("mine"));
        assert_eq!(custom.label(), "custom:mine");
    }
}
