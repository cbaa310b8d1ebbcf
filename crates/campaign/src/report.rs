//! The unified campaign result and its stable JSON serialisation.

use crate::error::CampaignError;
use crate::json::{self, Json};
use crate::scenario::{
    allocation_from_label, allocation_label, op_from_label, realisation_from_label,
    realisation_label, technique_from_label, technique_label, Backend, FaultModel, Scenario,
};
use crate::shard::ShardInfo;
use scdp_coverage::{InputSpace, Tally, TechIndex, TechTally};
use scdp_netlist::FaultDuration;
use scdp_obs::{
    write_json_string, BucketCount, CounterSnapshot, HistogramSnapshot, SpanSnapshot,
    TelemetrySnapshot,
};
use scdp_sim::DropPolicy;
use std::fmt::Write as _;

/// Schema identifier of operator-scenario reports (no datapath
/// section).
pub const REPORT_SCHEMA: &str = "scdp.campaign.report/v1";

/// Schema identifier of datapath-campaign reports — a superset of v1
/// that adds the `datapath` section with per-FU four-way tallies.
/// Parsers accept both; the writer emits v2 exactly when a report
/// carries a [`DatapathDetails`] section.
pub const REPORT_SCHEMA_V2: &str = "scdp.campaign.report/v2";

/// Schema identifier of *sequential* datapath-campaign reports — a
/// superset of v2 that adds the `sequential` section (fault duration,
/// cycle count, first-detection latency histogram). Parsers accept all
/// three schemas; the writer emits v3 exactly when a report carries a
/// [`SequentialDetails`] section.
pub const REPORT_SCHEMA_V3: &str = "scdp.campaign.report/v3";

/// Schema identifier of *partial* (sharded) campaign reports — the
/// per-shard checkpoint documents of a partitioned sweep. A v4
/// document carries a `shard` section ([`ShardInfo`]: shard
/// index/count, covered fault range, plan fingerprint) on top of any
/// of the v1–v3 shapes; its tallies, per-fault rows and histograms
/// cover only the shard's fault range. Merging all shards of one plan
/// ([`CampaignReport::merge`]) yields a v1–v3 report bit-identical to
/// the unsharded run. The writer emits v4 exactly when a report
/// carries a [`ShardInfo`] section.
pub const REPORT_SCHEMA_V4: &str = "scdp.campaign.report/v4";

/// The sequential section of a `scdp.campaign.report/v3` document:
/// how the cycle-accurate campaign was run and when faults were first
/// detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SequentialDetails {
    /// The injected fault duration.
    pub duration: FaultDuration,
    /// Clock cycles each situation ran (`schedule_length + 1`).
    pub total_cycles: u64,
    /// `first_detect_hist[c]` — situations whose alarm first fired in
    /// cycle `c`; exactly `total_cycles` entries. Sums to the number of
    /// detected situations (partial under fault dropping, like the
    /// tallies).
    pub first_detect_hist: Vec<u64>,
}

impl SequentialDetails {
    /// Mean first-detection latency in cycles over all detected
    /// situations (`None` when nothing was detected).
    #[must_use]
    pub fn mean_detection_latency(&self) -> Option<f64> {
        scdp_sim::mean_detection_latency(&self.first_detect_hist)
    }
}

/// Per-functional-unit outcome of a datapath campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuTally {
    /// Unit name (`alu0`, `mult1`, …).
    pub name: String,
    /// Resource-class label (`alu`, `mult`, `div`, `mem`).
    pub class: String,
    /// Role label of the bound operations (`nominal` / `checker`).
    pub role: String,
    /// Number of operations time-multiplexed onto the unit.
    pub ops: u64,
    /// Structural instances in the unrolled netlist (= `ops` for
    /// arithmetic units, 0 for memory ports).
    pub instances: u64,
    /// Gates per instance.
    pub instance_gates: u64,
    /// Fault groups injected into this unit.
    pub faults: u64,
    /// Aggregate four-way situation tallies over the unit's faults.
    pub tally: TechTally,
    /// Faults with at least one alarmed situation.
    pub detected: u64,
    /// Faults with at least one undetected erroneous situation.
    pub escaped: u64,
}

/// The datapath section of a `scdp.campaign.report/v2` document: what
/// was elaborated and how each physical functional unit fared.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DatapathDetails {
    /// Source-DFG label (`fir`, `iir`, `dot`, `matvec`,
    /// `custom:<name>`).
    pub source: String,
    /// SCK expansion style label (`plain`, `full`, `embedded`).
    pub style: String,
    /// Node count of the expanded DFG.
    pub nodes: u64,
    /// Schedule length in cycles.
    pub schedule_length: u64,
    /// Word-wide registers of the binding.
    pub registers: u64,
    /// Word-wide multiplexer input legs of the binding.
    pub mux_legs: u64,
    /// Gate count of the elaborated netlist.
    pub gates: u64,
    /// One entry per bound functional unit, binding order.
    pub per_fu: Vec<FuTally>,
}

/// The deductive-pruning section of a report produced with
/// `ExecPolicy::prune(true)` (see `scdp_analyze::deduce`): how many
/// engine fault groups were settled without simulation and which
/// per-fault rows carry deduced verdicts. Presence-driven at every
/// schema version (like `telemetry`) and ignored by
/// [`CampaignReport::same_results`] — pruning never changes results,
/// only how they were obtained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeduceDetails {
    /// Engine fault groups settled by an untestability proof.
    pub untestable: u64,
    /// Engine fault groups that were actually simulated.
    ///
    /// In a collapsed run an engine group is an equivalence class, and
    /// a shard may simulate classes whose first member lies in another
    /// shard. Each class counts, in both counts, only in the shard
    /// holding its first member, so the merged counts of a sharded run
    /// equal the unsharded run's.
    pub simulated: u64,
    /// Indices into `per_fault` (shard-local) whose verdicts were
    /// deduced rather than simulated. With collapsing on top, a row is
    /// listed when its equivalence-class representative was deduced.
    pub rows: Vec<u64>,
}

/// Per-fault outcome of a campaign, for the scenario's check policy.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultRecord {
    /// Four-way situation tallies (exact under
    /// [`DropPolicy::Never`], partial up to the dropping batch
    /// otherwise).
    pub tally: TechTally,
    /// A check fired in at least one simulated situation.
    pub detected: bool,
    /// At least one simulated situation was an undetected error.
    pub escaped: bool,
    /// Situations simulated before the fault was dropped (`None` when it
    /// stayed live to the end of the input space).
    pub dropped_after: Option<u64>,
}

impl From<&scdp_sim::FaultOutcome> for FaultRecord {
    /// The engine outcome's report row (the per-cycle latency axis is
    /// aggregated into the report's `sequential` section instead).
    fn from(o: &scdp_sim::FaultOutcome) -> Self {
        FaultRecord {
            tally: o.tally,
            detected: o.detected,
            escaped: o.escaped,
            dropped_after: o.dropped_after,
        }
    }
}

/// The result of one unified campaign run.
///
/// The *canonical* four-way tally ([`CampaignReport::four_way`]) is the
/// column of the scenario's check policy; it is what the JSON
/// serialisation carries and what cross-backend comparisons use. The
/// functional backend additionally fills the other technique columns
/// (it classifies all three in one pass), exposed via
/// [`CampaignReport::column`].
///
/// # Example
///
/// ```
/// use scdp_campaign::Scenario;
/// use scdp_core::{Operator, Technique};
///
/// let report = Scenario::new(Operator::Add, 2)
///     .technique(Technique::Tech1)
///     .campaign()
///     .run()
///     .expect("valid scenario");
/// // §4.1: at width 2 some observable errors escape Tech1.
/// assert_eq!(report.four_way().error_undetected, 76);
/// let json = report.to_json();
/// let parsed = scdp_campaign::CampaignReport::from_json(&json).unwrap();
/// assert!(parsed.same_results(&report));
/// ```
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The analysed scenario.
    pub scenario: Scenario,
    /// The engine that produced the result.
    pub backend: Backend,
    /// The injected fault model (already resolved, never
    /// [`FaultModel::Auto`]).
    pub fault_model: FaultModel,
    /// The input-space strategy used.
    pub space: InputSpace,
    /// The drop policy used.
    pub drop: DropPolicy,
    /// Technique-column tallies; only the columns in
    /// [`CampaignReport::filled`] are meaningful.
    pub tally: Tally,
    /// Which technique columns were evaluated.
    pub filled: Vec<TechIndex>,
    /// One record per fault, universe order, for the scenario's check
    /// policy.
    pub per_fault: Vec<FaultRecord>,
    /// Situations actually simulated for the canonical column (smaller
    /// than `faults × inputs` when faults were dropped).
    pub simulated: u64,
    /// Wall-clock duration of the run in milliseconds.
    pub elapsed_ms: u64,
    /// Datapath-campaign section: present exactly when the report came
    /// from a [`DatapathScenario`](crate::DatapathScenario) run (the
    /// `scenario` field then records the campaign-wide knobs — width,
    /// technique, allocation — with a placeholder operator; the
    /// authoritative description lives here).
    pub datapath: Option<DatapathDetails>,
    /// Sequential-campaign section: present exactly when the report
    /// came from a cycle-accurate
    /// [`SeqDatapathCampaignSpec`](crate::SeqDatapathCampaignSpec) run
    /// (always together with the `datapath` section).
    pub sequential: Option<SequentialDetails>,
    /// Shard section: present exactly when the report is a *partial*
    /// result covering one shard of a partitioned universe; its
    /// tallies, `per_fault` rows and histograms then cover only
    /// `shard.fault_start..shard.fault_end`.
    pub shard: Option<ShardInfo>,
    /// Deductive-pruning section: present exactly when the run was
    /// executed with `ExecPolicy::prune(true)` on a gate-level backend.
    /// Presence-driven at every schema version; ignored by
    /// [`CampaignReport::same_results`]; aggregated across shards by
    /// [`CampaignReport::merge`] (counts sum, row indices shift by the
    /// shard's `fault_start`).
    pub deduce: Option<DeduceDetails>,
    /// Telemetry section: a frozen [`TelemetrySnapshot`] of the run's
    /// counters, histograms and span timings. Presence-driven at every
    /// schema version (a v1–v4 document with or without it parses and
    /// round-trips unchanged); ignored by
    /// [`CampaignReport::same_results`]; aggregated across shards by
    /// [`CampaignReport::merge`].
    pub telemetry: Option<TelemetrySnapshot>,
}

impl CampaignReport {
    /// The canonical four-way tally: the scenario's check-policy column.
    #[must_use]
    pub fn four_way(&self) -> &TechTally {
        self.tally.of(self.scenario.tech_index())
    }

    /// A technique column, if the run evaluated it.
    #[must_use]
    pub fn column(&self, t: TechIndex) -> Option<&TechTally> {
        self.filled.contains(&t).then(|| self.tally.of(t))
    }

    /// Coverage of the canonical column (the paper's Table 2 metric).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.four_way().coverage()
    }

    /// Coverage of one technique column, if evaluated.
    #[must_use]
    pub fn coverage_of(&self, t: TechIndex) -> Option<f64> {
        self.column(t).map(TechTally::coverage)
    }

    /// Number of faults in the campaign universe.
    #[must_use]
    pub fn fault_count(&self) -> u64 {
        self.per_fault.len() as u64
    }

    /// Situations evaluated in the canonical column.
    #[must_use]
    pub fn total_situations(&self) -> u64 {
        self.four_way().total()
    }

    /// `true` if the input space was sampled rather than exhaustive.
    #[must_use]
    pub fn sampled(&self) -> bool {
        matches!(self.space, InputSpace::Sampled { .. })
    }

    /// Fraction of faults with at least one alarmed situation.
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        if self.per_fault.is_empty() {
            return 1.0;
        }
        self.per_fault.iter().filter(|f| f.detected).count() as f64 / self.per_fault.len() as f64
    }

    /// Fraction of faults that never produced an undetected error.
    #[must_use]
    pub fn safe_rate(&self) -> f64 {
        if self.per_fault.is_empty() {
            return 1.0;
        }
        self.per_fault.iter().filter(|f| !f.escaped).count() as f64 / self.per_fault.len() as f64
    }

    /// Range `(min, max)` of per-fault coverage for the canonical column
    /// — the paper's §4.1 "[81.90%, 99.87%]" style bound. Faults that
    /// were never excited contribute 100%; an empty universe degenerates
    /// to `(1.0, 1.0)`.
    #[must_use]
    pub fn per_fault_coverage_range(&self) -> (f64, f64) {
        let mut min = 1.0f64;
        let mut max = 1.0f64;
        for (i, f) in self.per_fault.iter().enumerate() {
            let c = f.tally.coverage();
            min = min.min(c);
            max = if i == 0 { c } else { max.max(c) };
        }
        (min, max)
    }

    /// `true` if `other` carries the same results: everything except the
    /// producing backend and wall-clock time, which legitimately differ
    /// between equivalent runs.
    #[must_use]
    pub fn same_results(&self, other: &CampaignReport) -> bool {
        self.scenario == other.scenario
            && self.fault_model == other.fault_model
            && self.space == other.space
            && self.drop == other.drop
            && *self.four_way() == *other.four_way()
            && self.per_fault == other.per_fault
            && self.simulated == other.simulated
            && self.datapath == other.datapath
            && self.sequential == other.sequential
            && self.shard == other.shard
    }

    /// Serialises the report to the stable `scdp.campaign.report/v1`
    /// JSON schema (see `docs/CAMPAIGN_API.md`). Only the canonical
    /// column is serialised; member order and number formatting are
    /// deterministic.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024 + self.per_fault.len() * 32);
        let t = self.four_way();
        o.push_str("{\n");
        let schema = if self.shard.is_some() {
            REPORT_SCHEMA_V4
        } else if self.sequential.is_some() {
            debug_assert!(
                self.datapath.is_some(),
                "sequential reports carry the datapath section too"
            );
            REPORT_SCHEMA_V3
        } else if self.datapath.is_some() {
            REPORT_SCHEMA_V2
        } else {
            REPORT_SCHEMA
        };
        let _ = writeln!(o, "  \"schema\": \"{schema}\",");
        let op = if self.datapath.is_some() {
            // The operator slot is not meaningful for whole-datapath
            // campaigns; the `datapath` section is authoritative.
            "datapath"
        } else {
            self.scenario.op_label()
        };
        let _ = writeln!(
            o,
            "  \"scenario\": {{\"op\": \"{op}\", \"width\": {}, \"technique\": \"{}\", \
             \"allocation\": \"{}\", \"realisation\": \"{}\"}},",
            self.scenario.width,
            technique_label(self.scenario.technique),
            allocation_label(self.scenario.allocation),
            realisation_label(self.scenario.realisation),
        );
        let _ = writeln!(o, "  \"backend\": \"{}\",", self.backend.label());
        let _ = writeln!(o, "  \"fault_model\": \"{}\",", self.fault_model.label());
        match self.space {
            InputSpace::Exhaustive => {
                o.push_str("  \"input_space\": {\"kind\": \"exhaustive\"},\n");
            }
            InputSpace::Sampled { per_fault, seed } => {
                let _ = writeln!(
                    o,
                    "  \"input_space\": {{\"kind\": \"sampled\", \"per_fault\": {per_fault}, \
                     \"seed\": {seed}}},"
                );
            }
        }
        let _ = writeln!(o, "  \"drop_policy\": \"{}\",", drop_label(self.drop));
        if let Some(sh) = &self.shard {
            let _ = writeln!(
                o,
                "  \"shard\": {{\"index\": {}, \"count\": {}, \"fault_start\": {}, \
                 \"fault_end\": {}, \"total_faults\": {}, \"plan_hash\": {}}},",
                sh.index, sh.count, sh.fault_start, sh.fault_end, sh.total_faults, sh.plan_hash
            );
        }
        let _ = writeln!(o, "  \"fault_count\": {},", self.per_fault.len());
        let _ = writeln!(o, "  \"simulated\": {},", self.simulated);
        let _ = writeln!(
            o,
            "  \"tally\": {{\"correct_silent\": {}, \"correct_detected\": {}, \
             \"error_detected\": {}, \"error_undetected\": {}}},",
            t.correct_silent, t.correct_detected, t.error_detected, t.error_undetected
        );
        for (name, v) in [
            ("coverage", t.coverage()),
            ("detection_rate", self.detection_rate()),
            ("safe_rate", self.safe_rate()),
        ] {
            let _ = write!(o, "  \"{name}\": ");
            json::write_f64(&mut o, v);
            o.push_str(",\n");
        }
        let _ = writeln!(o, "  \"elapsed_ms\": {},", self.elapsed_ms);
        if let Some(dp) = &self.datapath {
            // String members pass through write_json_string: the source
            // label embeds a user-controlled custom-DFG name.
            o.push_str("  \"datapath\": {\"source\": ");
            write_json_string(&mut o, &dp.source);
            o.push_str(", \"style\": ");
            write_json_string(&mut o, &dp.style);
            let _ = writeln!(
                o,
                ", \"nodes\": {}, \"schedule_length\": {}, \"registers\": {}, \
                 \"mux_legs\": {}, \"gates\": {}, \"per_fu\": [",
                dp.nodes, dp.schedule_length, dp.registers, dp.mux_legs, dp.gates
            );
            for (i, fu) in dp.per_fu.iter().enumerate() {
                o.push_str("    {\"name\": ");
                write_json_string(&mut o, &fu.name);
                o.push_str(", \"class\": ");
                write_json_string(&mut o, &fu.class);
                o.push_str(", \"role\": ");
                write_json_string(&mut o, &fu.role);
                let _ = write!(
                    o,
                    ", \"ops\": {}, \"instances\": {}, \"instance_gates\": {}, \"faults\": {}, \
                     \"tally\": {{\"correct_silent\": {}, \"correct_detected\": {}, \
                     \"error_detected\": {}, \"error_undetected\": {}}}, \
                     \"detected\": {}, \"escaped\": {}}}",
                    fu.ops,
                    fu.instances,
                    fu.instance_gates,
                    fu.faults,
                    fu.tally.correct_silent,
                    fu.tally.correct_detected,
                    fu.tally.error_detected,
                    fu.tally.error_undetected,
                    fu.detected,
                    fu.escaped,
                );
                o.push_str(if i + 1 < dp.per_fu.len() { ",\n" } else { "\n" });
            }
            o.push_str("  ]},\n");
        }
        if let Some(seq) = &self.sequential {
            o.push_str("  \"sequential\": {\"duration\": ");
            match seq.duration {
                FaultDuration::Permanent => o.push_str("{\"kind\": \"permanent\"}"),
                FaultDuration::Transient { cycle } => {
                    let _ = write!(o, "{{\"kind\": \"transient\", \"cycle\": {cycle}}}");
                }
            }
            let _ = write!(
                o,
                ", \"total_cycles\": {}, \"first_detect_hist\": [",
                seq.total_cycles
            );
            for (i, n) in seq.first_detect_hist.iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                let _ = write!(o, "{n}");
            }
            o.push_str("]},\n");
        }
        if let Some(d) = &self.deduce {
            let _ = write!(
                o,
                "  \"deduce\": {{\"untestable\": {}, \"simulated\": {}, \"rows\": [",
                d.untestable, d.simulated
            );
            for (i, r) in d.rows.iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                let _ = write!(o, "{r}");
            }
            o.push_str("]},\n");
        }
        if let Some(tel) = &self.telemetry {
            o.push_str("  \"telemetry\": {\"counters\": [");
            for (i, c) in tel.counters.iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                o.push_str("{\"name\": ");
                write_json_string(&mut o, &c.name);
                let _ = write!(o, ", \"value\": {}}}", c.value);
            }
            o.push_str("], \"histograms\": [");
            for (i, h) in tel.histograms.iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                o.push_str("{\"name\": ");
                write_json_string(&mut o, &h.name);
                o.push_str(", \"buckets\": [");
                for (j, b) in h.buckets.iter().enumerate() {
                    if j > 0 {
                        o.push_str(", ");
                    }
                    let _ = write!(o, "[{}, {}]", b.bucket, b.count);
                }
                o.push_str("]}");
            }
            o.push_str("], \"spans\": [");
            for (i, s) in tel.spans.iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                o.push_str("{\"path\": ");
                write_json_string(&mut o, &s.path);
                let _ = write!(
                    o,
                    ", \"count\": {}, \"total_ns\": {}}}",
                    s.count, s.total_ns
                );
            }
            o.push_str("]},\n");
        }
        o.push_str("  \"per_fault\": [\n");
        for (i, f) in self.per_fault.iter().enumerate() {
            let _ = write!(
                o,
                "    [{}, {}, {}, {}, {}, {}, {}]",
                f.tally.correct_silent,
                f.tally.correct_detected,
                f.tally.error_detected,
                f.tally.error_undetected,
                u8::from(f.detected),
                u8::from(f.escaped),
                f.dropped_after.map_or(-1i64, |d| d as i64),
            );
            o.push_str(if i + 1 < self.per_fault.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        o.push_str("  ]\n}\n");
        o
    }

    /// Parses a report serialised by [`CampaignReport::to_json`].
    ///
    /// The parsed report carries only the canonical column (the JSON
    /// schema does not serialise the functional backend's bonus
    /// columns), so `parsed.same_results(&original)` holds rather than
    /// full structural equality.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Parse`] for malformed JSON and
    /// [`CampaignError::Schema`] for well-formed JSON that is not a
    /// `scdp.campaign.report/v1` document.
    pub fn from_json(text: &str) -> Result<CampaignReport, CampaignError> {
        let v = json::parse(text)?;
        let schema = require_str(&v, "schema")?;
        let version = match schema {
            s if s == REPORT_SCHEMA => 1u8,
            s if s == REPORT_SCHEMA_V2 => 2,
            s if s == REPORT_SCHEMA_V3 => 3,
            s if s == REPORT_SCHEMA_V4 => 4,
            other => {
                return Err(schema_err("schema", format!("unknown schema `{other}`")));
            }
        };

        let s = v
            .get("scenario")
            .ok_or_else(|| schema_err("scenario", "missing".into()))?;
        let op_label = require_str(s, "op")?;
        let op = if version >= 2 && op_label == "datapath" {
            // Whole-datapath reports carry no single operator; the
            // placeholder keeps the in-memory scenario well-formed.
            scdp_core::Operator::Add
        } else {
            op_from_label(op_label)
                .ok_or_else(|| schema_err("scenario.op", "unknown operator".into()))?
        };
        let width_raw = require_u64(s, "width")?;
        let max = u64::from(crate::spec::MAX_WIDTH);
        if width_raw == 0 || width_raw > max {
            return Err(schema_err(
                "scenario.width",
                format!("width {width_raw} out of range 1..={max}"),
            ));
        }
        let width = width_raw as u32;
        let technique = technique_from_label(require_str(s, "technique")?)
            .ok_or_else(|| schema_err("scenario.technique", "unknown technique".into()))?;
        let allocation = allocation_from_label(require_str(s, "allocation")?)
            .ok_or_else(|| schema_err("scenario.allocation", "unknown allocation".into()))?;
        let realisation = realisation_from_label(require_str(s, "realisation")?)
            .ok_or_else(|| schema_err("scenario.realisation", "unknown realisation".into()))?;
        let scenario = Scenario::new(op, width)
            .technique(technique)
            .allocation(allocation)
            .realisation(realisation);

        let backend = Backend::from_label(require_str(&v, "backend")?)
            .ok_or_else(|| schema_err("backend", "unknown backend".into()))?;
        let fault_model = FaultModel::from_label(require_str(&v, "fault_model")?)
            .ok_or_else(|| schema_err("fault_model", "unknown fault model".into()))?;

        let sp = v
            .get("input_space")
            .ok_or_else(|| schema_err("input_space", "missing".into()))?;
        let space = match require_str(sp, "kind")? {
            "exhaustive" => InputSpace::Exhaustive,
            "sampled" => InputSpace::Sampled {
                per_fault: require_u64(sp, "per_fault")?,
                seed: require_u64(sp, "seed")?,
            },
            other => {
                return Err(schema_err(
                    "input_space.kind",
                    format!("unknown kind `{other}`"),
                ))
            }
        };
        let drop = drop_from_label(require_str(&v, "drop_policy")?)
            .ok_or_else(|| schema_err("drop_policy", "unknown policy".into()))?;

        let selected = scenario.tech_index();
        let mut tally = Tally::default();
        let tj = v
            .get("tally")
            .ok_or_else(|| schema_err("tally", "missing".into()))?;
        tally.tech[selected as usize] = parse_tech_tally(tj, "tally")?;

        let simulated = require_u64(&v, "simulated")?;
        let elapsed_ms = require_u64(&v, "elapsed_ms")?;

        let pf = v
            .get("per_fault")
            .and_then(Json::as_arr)
            .ok_or_else(|| schema_err("per_fault", "missing or not an array".into()))?;
        let mut per_fault = Vec::with_capacity(pf.len());
        for row in pf {
            let cells = row
                .as_arr()
                .filter(|c| c.len() == 7)
                .ok_or_else(|| schema_err("per_fault", "each entry must be a 7-array".into()))?;
            let num = |i: usize| {
                cells[i]
                    .as_u64()
                    .ok_or_else(|| schema_err("per_fault", format!("cell {i} not a count")))
            };
            let dropped = match &cells[6] {
                Json::Int(-1) => None,
                other => Some(other.as_u64().ok_or_else(|| {
                    schema_err("per_fault", "dropped_after must be -1 or a count".into())
                })?),
            };
            per_fault.push(FaultRecord {
                tally: TechTally {
                    correct_silent: num(0)?,
                    correct_detected: num(1)?,
                    error_detected: num(2)?,
                    error_undetected: num(3)?,
                },
                detected: num(4)? != 0,
                escaped: num(5)? != 0,
                dropped_after: dropped,
            });
        }
        let declared = require_u64(&v, "fault_count")?;
        if declared != per_fault.len() as u64 {
            return Err(schema_err(
                "fault_count",
                format!("declares {declared} but per_fault has {}", per_fault.len()),
            ));
        }

        // Section rules: v2/v3 *require* the datapath section and v3
        // the sequential one; v4 (a sharded checkpoint of any campaign
        // shape) carries them presence-driven, but a sequential section
        // still implies a datapath section.
        let requires_dp = version == 2 || version == 3;
        let datapath = match (version, v.get("datapath")) {
            (1, Some(_)) => {
                return Err(schema_err(
                    "datapath",
                    "v1 documents must not carry a datapath section".into(),
                ));
            }
            (_, None) if requires_dp => {
                return Err(schema_err(
                    "datapath",
                    format!("v{version} documents require the datapath section"),
                ));
            }
            (_, Some(dp)) => Some(parse_datapath(dp)?),
            (_, None) => None,
        };
        let sequential = match (version, v.get("sequential")) {
            (1 | 2, Some(_)) => {
                return Err(schema_err(
                    "sequential",
                    format!("v{version} documents must not carry a sequential section"),
                ));
            }
            (3, None) => {
                return Err(schema_err(
                    "sequential",
                    "v3 documents require the sequential section".into(),
                ));
            }
            (_, Some(seq)) => {
                if datapath.is_none() {
                    return Err(schema_err(
                        "sequential",
                        "a sequential section requires a datapath section".into(),
                    ));
                }
                Some(parse_sequential(seq)?)
            }
            (_, None) => None,
        };
        let shard = match (version, v.get("shard")) {
            (4, Some(sh)) => Some(parse_shard(sh)?),
            (4, None) => {
                return Err(schema_err(
                    "shard",
                    "v4 documents require the shard section".into(),
                ));
            }
            (_, Some(_)) => {
                return Err(schema_err(
                    "shard",
                    format!("v{version} documents must not carry a shard section"),
                ));
            }
            (_, None) => None,
        };
        if let Some(sh) = &shard {
            let covered = sh.fault_end - sh.fault_start;
            if covered != per_fault.len() as u64 {
                return Err(schema_err(
                    "shard",
                    format!(
                        "shard covers {covered} faults but per_fault has {}",
                        per_fault.len()
                    ),
                ));
            }
        }

        // The deduce and telemetry sections are presence-driven at
        // every version: pruning provenance and operational metadata,
        // not results.
        let deduce = match v.get("deduce") {
            Some(d) => Some(parse_deduce(d)?),
            None => None,
        };
        let telemetry = match v.get("telemetry") {
            Some(t) => Some(parse_telemetry(t)?),
            None => None,
        };

        Ok(CampaignReport {
            scenario,
            backend,
            fault_model,
            space,
            drop,
            tally,
            filled: vec![selected],
            per_fault,
            simulated,
            elapsed_ms,
            datapath,
            sequential,
            shard,
            deduce,
            telemetry,
        })
    }

    /// Recombines the partial reports of one shard plan into the report
    /// the unsharded campaign would have produced — **bit-identical**
    /// in everything the schema serialises except `elapsed_ms` (summed
    /// over shards) and the producing `backend`'s wall-clock: tallies,
    /// per-fault outcomes, per-FU tallies and detection-latency
    /// histograms are exact concatenations/sums because every fault's
    /// outcome is independent of its neighbours.
    ///
    /// Shards may be passed in any order; each index of the plan must
    /// appear exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::ShardMerge`] when the reports do not
    /// form one complete, consistent plan: missing/duplicate shard
    /// indices, differing plan fingerprints or configurations, or
    /// ranges that do not tile the universe.
    pub fn merge(shards: &[CampaignReport]) -> Result<CampaignReport, CampaignError> {
        let merge_err = |message: String| CampaignError::ShardMerge { message };
        let Some(first) = shards.first() else {
            return Err(merge_err("no shard reports given".into()));
        };
        let Some(head) = first.shard else {
            return Err(merge_err("report 0 has no shard section".into()));
        };
        if shards.len() != head.count as usize {
            return Err(merge_err(format!(
                "plan has {} shards but {} reports were given",
                head.count,
                shards.len()
            )));
        }
        let mut by_index: Vec<Option<&CampaignReport>> = vec![None; head.count as usize];
        for (k, r) in shards.iter().enumerate() {
            let Some(sh) = r.shard else {
                return Err(merge_err(format!("report {k} has no shard section")));
            };
            if sh.count != head.count || sh.total_faults != head.total_faults {
                return Err(merge_err(format!(
                    "report {k} belongs to a different plan \
                     ({}/{} faults vs {}/{})",
                    sh.count, sh.total_faults, head.count, head.total_faults
                )));
            }
            if sh.plan_hash != head.plan_hash {
                return Err(merge_err(format!(
                    "report {k} has a different configuration fingerprint \
                     ({:#018x} vs {:#018x})",
                    sh.plan_hash, head.plan_hash
                )));
            }
            if r.scenario != first.scenario
                || r.backend != first.backend
                || r.fault_model != first.fault_model
                || r.space != first.space
                || r.drop != first.drop
                || r.filled != first.filled
            {
                return Err(merge_err(format!(
                    "report {k} was produced by a different campaign configuration"
                )));
            }
            let slot = &mut by_index[sh.index as usize];
            if slot.is_some() {
                return Err(merge_err(format!("shard {} appears twice", sh.index)));
            }
            *slot = Some(r);
        }
        let ordered: Vec<&CampaignReport> = by_index
            .into_iter()
            .map(|s| s.expect("count slots, count unique indices"))
            .collect();

        let mut per_fault = Vec::with_capacity(head.total_faults as usize);
        let mut cursor = 0u64;
        let mut tally = Tally::default();
        let mut simulated = 0u64;
        let mut elapsed_ms = 0u64;
        for r in &ordered {
            let sh = r.shard.expect("checked above");
            if sh.fault_start != cursor {
                return Err(merge_err(format!(
                    "shard {} covers {}..{} but the previous shards end at {cursor}",
                    sh.index, sh.fault_start, sh.fault_end
                )));
            }
            if (sh.fault_end - sh.fault_start) != r.per_fault.len() as u64 {
                return Err(merge_err(format!(
                    "shard {} declares {} faults but carries {}",
                    sh.index,
                    sh.fault_end - sh.fault_start,
                    r.per_fault.len()
                )));
            }
            cursor = sh.fault_end;
            per_fault.extend_from_slice(&r.per_fault);
            for &t in &r.filled {
                tally.tech[t as usize] += *r.tally.of(t);
            }
            simulated += r.simulated;
            elapsed_ms += r.elapsed_ms;
        }
        if cursor != head.total_faults {
            return Err(merge_err(format!(
                "shards cover {cursor} of {} universe faults",
                head.total_faults
            )));
        }

        let datapath = merge_datapath(&ordered)?;
        let sequential = merge_sequential(&ordered)?;
        // Deduce sections aggregate over whichever shards carried them:
        // counts sum; shard-local row indices shift by the shard's
        // fault_start so they index the concatenated per_fault.
        let mut deduce: Option<DeduceDetails> = None;
        for r in &ordered {
            if let Some(d) = &r.deduce {
                let sh = r.shard.expect("checked above");
                let m = deduce.get_or_insert_with(DeduceDetails::default);
                m.untestable += d.untestable;
                m.simulated += d.simulated;
                m.rows
                    .extend(d.rows.iter().map(|&row| row + sh.fault_start));
            }
        }
        // Telemetry aggregates over whichever shards carried it:
        // counters and span accumulators sum, histograms sum
        // bucket-wise. For a plain run the merged count-typed counters
        // equal an unsharded run's; pruned shards each grade their own
        // empty group and collapsed shards each record the
        // whole-universe `collapse.*` counts, so theirs exceed it.
        let mut telemetry: Option<TelemetrySnapshot> = None;
        for r in &ordered {
            if let Some(t) = &r.telemetry {
                telemetry
                    .get_or_insert_with(TelemetrySnapshot::default)
                    .merge(t);
            }
        }
        Ok(CampaignReport {
            scenario: first.scenario,
            backend: first.backend,
            fault_model: first.fault_model,
            space: first.space,
            drop: first.drop,
            tally,
            filled: first.filled.clone(),
            per_fault,
            simulated,
            elapsed_ms,
            datapath,
            sequential,
            shard: None,
            deduce,
            telemetry,
        })
    }
}

/// Merges the per-shard datapath sections (all-or-none; metadata must
/// agree, per-FU counters sum).
fn merge_datapath(ordered: &[&CampaignReport]) -> Result<Option<DatapathDetails>, CampaignError> {
    let merge_err = |message: String| CampaignError::ShardMerge { message };
    let Some(head) = &ordered[0].datapath else {
        if let Some(k) = ordered.iter().position(|r| r.datapath.is_some()) {
            return Err(merge_err(format!(
                "shard {k} carries a datapath section but shard 0 does not"
            )));
        }
        return Ok(None);
    };
    let mut merged = DatapathDetails {
        per_fu: head
            .per_fu
            .iter()
            .map(|fu| FuTally {
                faults: 0,
                tally: TechTally::default(),
                detected: 0,
                escaped: 0,
                ..fu.clone()
            })
            .collect(),
        ..head.clone()
    };
    for (k, r) in ordered.iter().enumerate() {
        let Some(dp) = &r.datapath else {
            return Err(merge_err(format!(
                "shard {k} is missing the datapath section"
            )));
        };
        let same_shape = dp.source == head.source
            && dp.style == head.style
            && dp.nodes == head.nodes
            && dp.schedule_length == head.schedule_length
            && dp.registers == head.registers
            && dp.mux_legs == head.mux_legs
            && dp.gates == head.gates
            && dp.per_fu.len() == head.per_fu.len();
        if !same_shape {
            return Err(merge_err(format!(
                "shard {k} describes a different elaborated datapath"
            )));
        }
        for (m, fu) in merged.per_fu.iter_mut().zip(&dp.per_fu) {
            let same_fu = fu.name == m.name
                && fu.class == m.class
                && fu.role == m.role
                && fu.ops == m.ops
                && fu.instances == m.instances
                && fu.instance_gates == m.instance_gates;
            if !same_fu {
                return Err(merge_err(format!(
                    "shard {k} describes functional unit `{}` differently",
                    m.name
                )));
            }
            m.faults += fu.faults;
            m.tally += fu.tally;
            m.detected += fu.detected;
            m.escaped += fu.escaped;
        }
    }
    Ok(Some(merged))
}

/// Merges the per-shard sequential sections (all-or-none; duration and
/// cycle count must agree, histograms sum element-wise).
fn merge_sequential(
    ordered: &[&CampaignReport],
) -> Result<Option<SequentialDetails>, CampaignError> {
    let merge_err = |message: String| CampaignError::ShardMerge { message };
    let Some(head) = &ordered[0].sequential else {
        if let Some(k) = ordered.iter().position(|r| r.sequential.is_some()) {
            return Err(merge_err(format!(
                "shard {k} carries a sequential section but shard 0 does not"
            )));
        }
        return Ok(None);
    };
    let mut merged = SequentialDetails {
        first_detect_hist: vec![0; head.first_detect_hist.len()],
        ..head.clone()
    };
    for (k, r) in ordered.iter().enumerate() {
        let Some(seq) = &r.sequential else {
            return Err(merge_err(format!(
                "shard {k} is missing the sequential section"
            )));
        };
        if seq.duration != head.duration
            || seq.total_cycles != head.total_cycles
            || seq.first_detect_hist.len() != head.first_detect_hist.len()
        {
            return Err(merge_err(format!(
                "shard {k} ran a different sequential configuration"
            )));
        }
        for (m, n) in merged
            .first_detect_hist
            .iter_mut()
            .zip(&seq.first_detect_hist)
        {
            *m += n;
        }
    }
    Ok(Some(merged))
}

/// Parses the `shard` section of a v4 document.
fn parse_shard(sh: &Json) -> Result<ShardInfo, CampaignError> {
    let num = |key: &str| {
        sh.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| schema_err("shard", format!("missing or malformed `{key}` member")))
    };
    let index = u32::try_from(num("index")?)
        .map_err(|_| schema_err("shard", "index out of range".into()))?;
    let count = u32::try_from(num("count")?)
        .map_err(|_| schema_err("shard", "count out of range".into()))?;
    let info = ShardInfo {
        index,
        count,
        fault_start: num("fault_start")?,
        fault_end: num("fault_end")?,
        total_faults: num("total_faults")?,
        plan_hash: num("plan_hash")?,
    };
    if info.count == 0 || info.index >= info.count {
        return Err(schema_err(
            "shard",
            format!("index {} out of range 0..{}", info.index, info.count),
        ));
    }
    if info.fault_start > info.fault_end || info.fault_end > info.total_faults {
        return Err(schema_err(
            "shard",
            format!(
                "range {}..{} does not fit a {}-fault universe",
                info.fault_start, info.fault_end, info.total_faults
            ),
        ));
    }
    Ok(info)
}

fn parse_sequential(seq: &Json) -> Result<SequentialDetails, CampaignError> {
    let d = seq
        .get("duration")
        .ok_or_else(|| schema_err("sequential.duration", "missing".into()))?;
    let duration = match require_str(d, "kind")
        .map_err(|_| schema_err("sequential.duration", "missing or malformed kind".into()))?
    {
        "permanent" => FaultDuration::Permanent,
        "transient" => {
            let cycle = require_u64(d, "cycle")
                .map_err(|_| schema_err("sequential.duration", "transient without cycle".into()))?;
            let cycle = u32::try_from(cycle).map_err(|_| {
                schema_err("sequential.duration", "transient cycle out of range".into())
            })?;
            FaultDuration::Transient { cycle }
        }
        other => {
            return Err(schema_err(
                "sequential.duration",
                format!("unknown kind `{other}`"),
            ))
        }
    };
    let total_cycles = require_u64(seq, "total_cycles")
        .map_err(|_| schema_err("sequential.total_cycles", "missing or not a count".into()))?;
    let hist_json = seq
        .get("first_detect_hist")
        .and_then(Json::as_arr)
        .ok_or_else(|| {
            schema_err(
                "sequential.first_detect_hist",
                "missing or not an array".into(),
            )
        })?;
    let mut first_detect_hist = Vec::with_capacity(hist_json.len());
    for cell in hist_json {
        first_detect_hist.push(cell.as_u64().ok_or_else(|| {
            schema_err(
                "sequential.first_detect_hist",
                "histogram cell is not a count".into(),
            )
        })?);
    }
    if first_detect_hist.len() as u64 != total_cycles {
        return Err(schema_err(
            "sequential.first_detect_hist",
            format!(
                "histogram has {} entries but total_cycles is {total_cycles}",
                first_detect_hist.len()
            ),
        ));
    }
    Ok(SequentialDetails {
        duration,
        total_cycles,
        first_detect_hist,
    })
}

fn parse_datapath(dp: &Json) -> Result<DatapathDetails, CampaignError> {
    let per_fu_json = dp
        .get("per_fu")
        .and_then(Json::as_arr)
        .ok_or_else(|| schema_err("datapath.per_fu", "missing or not an array".into()))?;
    let mut per_fu = Vec::with_capacity(per_fu_json.len());
    for fu in per_fu_json {
        let tally = fu
            .get("tally")
            .ok_or_else(|| schema_err("datapath.per_fu.tally", "missing".into()))?;
        per_fu.push(FuTally {
            name: require_str(fu, "name")
                .map_err(|_| schema_err("datapath.per_fu.name", "missing or not a string".into()))?
                .to_string(),
            class: require_str(fu, "class")
                .map_err(|_| schema_err("datapath.per_fu.class", "missing or not a string".into()))?
                .to_string(),
            role: require_str(fu, "role")
                .map_err(|_| schema_err("datapath.per_fu.role", "missing or not a string".into()))?
                .to_string(),
            ops: require_u64(fu, "ops")
                .map_err(|_| schema_err("datapath.per_fu.ops", "missing or not a count".into()))?,
            instances: require_u64(fu, "instances")
                .map_err(|_| schema_err("datapath.per_fu.instances", "not a count".into()))?,
            instance_gates: require_u64(fu, "instance_gates")
                .map_err(|_| schema_err("datapath.per_fu.instance_gates", "not a count".into()))?,
            faults: require_u64(fu, "faults").map_err(|_| {
                schema_err("datapath.per_fu.faults", "missing or not a count".into())
            })?,
            tally: parse_tech_tally(tally, "datapath.per_fu.tally").map_err(|_| {
                schema_err("datapath.per_fu.tally", "malformed four-way tally".into())
            })?,
            detected: require_u64(fu, "detected")
                .map_err(|_| schema_err("datapath.per_fu.detected", "not a count".into()))?,
            escaped: require_u64(fu, "escaped")
                .map_err(|_| schema_err("datapath.per_fu.escaped", "not a count".into()))?,
        });
    }
    Ok(DatapathDetails {
        source: require_str(dp, "source")
            .map_err(|_| schema_err("datapath.source", "missing or not a string".into()))?
            .to_string(),
        style: require_str(dp, "style")
            .map_err(|_| schema_err("datapath.style", "missing or not a string".into()))?
            .to_string(),
        nodes: require_u64(dp, "nodes")
            .map_err(|_| schema_err("datapath.nodes", "missing or not a count".into()))?,
        schedule_length: require_u64(dp, "schedule_length")
            .map_err(|_| schema_err("datapath.schedule_length", "not a count".into()))?,
        registers: require_u64(dp, "registers")
            .map_err(|_| schema_err("datapath.registers", "not a count".into()))?,
        mux_legs: require_u64(dp, "mux_legs")
            .map_err(|_| schema_err("datapath.mux_legs", "not a count".into()))?,
        gates: require_u64(dp, "gates")
            .map_err(|_| schema_err("datapath.gates", "not a count".into()))?,
        per_fu,
    })
}

/// Parses the presence-driven `telemetry` section. Element order is
/// preserved as written (snapshots serialise name-ordered), keeping
/// `to_json` a fixpoint of parse-then-serialise.
fn parse_telemetry(t: &Json) -> Result<TelemetrySnapshot, CampaignError> {
    let arr = |key: &'static str| {
        t.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| schema_err("telemetry", format!("missing or malformed `{key}` array")))
    };
    let mut counters = Vec::new();
    for c in arr("counters")? {
        counters.push(CounterSnapshot {
            name: require_str(c, "name")
                .map_err(|_| schema_err("telemetry", "counter without a name".into()))?
                .to_string(),
            value: require_u64(c, "value")
                .map_err(|_| schema_err("telemetry", "counter value is not a count".into()))?,
        });
    }
    let mut histograms = Vec::new();
    for h in arr("histograms")? {
        let name = require_str(h, "name")
            .map_err(|_| schema_err("telemetry", "histogram without a name".into()))?
            .to_string();
        let cells = h
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| schema_err("telemetry", "histogram without a buckets array".into()))?;
        let mut buckets = Vec::with_capacity(cells.len());
        for cell in cells {
            let pair = cell.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                schema_err("telemetry", "bucket must be a [index, count] pair".into())
            })?;
            let bucket = pair[0]
                .as_u64()
                .and_then(|b| u32::try_from(b).ok())
                .ok_or_else(|| schema_err("telemetry", "bucket index out of range".into()))?;
            let count = pair[1]
                .as_u64()
                .ok_or_else(|| schema_err("telemetry", "bucket count is not a count".into()))?;
            buckets.push(BucketCount { bucket, count });
        }
        histograms.push(HistogramSnapshot { name, buckets });
    }
    let mut spans = Vec::new();
    for s in arr("spans")? {
        spans.push(SpanSnapshot {
            path: require_str(s, "path")
                .map_err(|_| schema_err("telemetry", "span without a path".into()))?
                .to_string(),
            count: require_u64(s, "count")
                .map_err(|_| schema_err("telemetry", "span count is not a count".into()))?,
            total_ns: require_u64(s, "total_ns")
                .map_err(|_| schema_err("telemetry", "span total_ns is not a count".into()))?,
        });
    }
    Ok(TelemetrySnapshot {
        counters,
        histograms,
        spans,
    })
}

/// Parses the presence-driven `deduce` section.
fn parse_deduce(d: &Json) -> Result<DeduceDetails, CampaignError> {
    let num = |key: &'static str| {
        d.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| schema_err("deduce", format!("missing or malformed `{key}` member")))
    };
    let cells = d
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| schema_err("deduce", "missing or malformed `rows` array".into()))?;
    let mut rows = Vec::with_capacity(cells.len());
    for cell in cells {
        rows.push(
            cell.as_u64()
                .ok_or_else(|| schema_err("deduce", "row index is not a count".into()))?,
        );
    }
    Ok(DeduceDetails {
        untestable: num("untestable")?,
        simulated: num("simulated")?,
        rows,
    })
}

fn schema_err(field: &'static str, message: String) -> CampaignError {
    CampaignError::Schema { field, message }
}

fn require_str<'a>(v: &'a Json, key: &'static str) -> Result<&'a str, CampaignError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| schema_err(key, "missing or not a string".into()))
}

fn require_u64(v: &Json, key: &'static str) -> Result<u64, CampaignError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| schema_err(key, "missing or not a non-negative integer".into()))
}

fn parse_tech_tally(v: &Json, field: &'static str) -> Result<TechTally, CampaignError> {
    let _ = field;
    Ok(TechTally {
        correct_silent: require_u64(v, "correct_silent")?,
        correct_detected: require_u64(v, "correct_detected")?,
        error_detected: require_u64(v, "error_detected")?,
        error_undetected: require_u64(v, "error_undetected")?,
    })
}

/// Stable serialisation label of a drop policy.
#[must_use]
pub fn drop_label(d: DropPolicy) -> &'static str {
    match d {
        DropPolicy::Never => "never",
        DropPolicy::OnDetect => "on-detect",
        DropPolicy::OnEscape => "on-escape",
    }
}

/// Parses a drop-policy serialisation label.
#[must_use]
pub fn drop_from_label(s: &str) -> Option<DropPolicy> {
    match s {
        "never" => Some(DropPolicy::Never),
        "on-detect" => Some(DropPolicy::OnDetect),
        "on-escape" => Some(DropPolicy::OnEscape),
        _ => None,
    }
}

/// Stable serialisation label of a fault duration (`permanent`,
/// `transient@<cycle>`).
#[must_use]
pub fn duration_label(d: FaultDuration) -> String {
    d.to_string()
}

/// Parses a fault-duration serialisation label.
#[must_use]
pub fn duration_from_label(s: &str) -> Option<FaultDuration> {
    if s == "permanent" {
        return Some(FaultDuration::Permanent);
    }
    let cycle = s.strip_prefix("transient@")?.parse().ok()?;
    Some(FaultDuration::Transient { cycle })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_core::Operator;

    fn tiny_report() -> CampaignReport {
        let scenario = Scenario::new(Operator::Add, 1);
        let selected = scenario.tech_index();
        let mut tally = Tally::default();
        tally.tech[selected as usize] = TechTally {
            correct_silent: 10,
            correct_detected: 3,
            error_detected: 2,
            error_undetected: 1,
        };
        CampaignReport {
            scenario,
            backend: Backend::GateLevel,
            fault_model: FaultModel::Structural,
            space: InputSpace::Sampled {
                per_fault: 16,
                seed: 42,
            },
            drop: DropPolicy::OnDetect,
            tally,
            filled: vec![selected],
            per_fault: vec![
                FaultRecord {
                    tally: TechTally {
                        correct_silent: 10,
                        correct_detected: 3,
                        error_detected: 2,
                        error_undetected: 1,
                    },
                    detected: true,
                    escaped: true,
                    dropped_after: Some(16),
                },
                FaultRecord::default(),
            ],
            simulated: 16,
            elapsed_ms: 7,
            datapath: None,
            sequential: None,
            shard: None,
            deduce: None,
            telemetry: None,
        }
    }

    #[test]
    fn json_round_trips_structurally() {
        let r = tiny_report();
        let text = r.to_json();
        let parsed = CampaignReport::from_json(&text).expect("round trip");
        assert!(parsed.same_results(&r));
        assert_eq!(parsed.backend, r.backend);
        assert_eq!(parsed.elapsed_ms, r.elapsed_ms);
        assert_eq!(parsed.to_json(), text, "serialisation is a fixpoint");
    }

    #[test]
    fn telemetry_section_round_trips_and_stays_optional() {
        let plain = tiny_report();
        assert!(
            !plain.to_json().contains("\"telemetry\""),
            "reports without telemetry must not grow a section"
        );

        let mut r = tiny_report();
        r.telemetry = Some(TelemetrySnapshot {
            counters: vec![
                CounterSnapshot {
                    name: "engine.faults".to_string(),
                    value: 2,
                },
                CounterSnapshot {
                    name: "engine.situations".to_string(),
                    value: 16,
                },
            ],
            histograms: vec![HistogramSnapshot {
                name: "engine.fault_situations".to_string(),
                buckets: vec![BucketCount {
                    bucket: 4,
                    count: 2,
                }],
            }],
            spans: vec![
                SpanSnapshot {
                    path: "campaign".to_string(),
                    count: 1,
                    total_ns: 7_000_000,
                },
                SpanSnapshot {
                    path: "campaign/simulate".to_string(),
                    count: 1,
                    total_ns: 5_500_000,
                },
            ],
        });
        let text = r.to_json();
        let parsed = CampaignReport::from_json(&text).expect("round trip");
        assert_eq!(parsed.telemetry, r.telemetry);
        assert_eq!(
            parsed.to_json(),
            text,
            "telemetry serialisation is a fixpoint"
        );

        // Merging telemetry-carrying shards aggregates the sections.
        let mut a = r.clone();
        let mut b = r.clone();
        a.shard = Some(ShardInfo {
            index: 0,
            count: 2,
            fault_start: 0,
            fault_end: 2,
            total_faults: 4,
            plan_hash: 9,
        });
        b.shard = Some(ShardInfo {
            index: 1,
            count: 2,
            fault_start: 2,
            fault_end: 4,
            total_faults: 4,
            plan_hash: 9,
        });
        let merged = CampaignReport::merge(&[a, b]).expect("mergeable shards");
        let tel = merged.telemetry.expect("merged telemetry");
        assert_eq!(tel.counter("engine.faults"), Some(4));
        assert_eq!(tel.span("campaign/simulate").map(|s| s.count), Some(2));
    }

    #[test]
    fn deduce_section_round_trips_and_merges_with_offsets() {
        let plain = tiny_report();
        assert!(
            !plain.to_json().contains("\"deduce\""),
            "reports without pruning must not grow a section"
        );

        let mut r = tiny_report();
        r.deduce = Some(DeduceDetails {
            untestable: 1,
            simulated: 1,
            rows: vec![1],
        });
        let text = r.to_json();
        let parsed = CampaignReport::from_json(&text).expect("round trip");
        assert_eq!(parsed.deduce, r.deduce);
        assert!(parsed.same_results(&plain), "deduce never changes results");
        assert_eq!(parsed.to_json(), text, "deduce serialisation is a fixpoint");
        // Reports written while dominance deferral existed carry a
        // `dominated` member; the parser ignores it.
        let old = text.replace("\"simulated\": 1,", "\"dominated\": 0, \"simulated\": 1,");
        assert_ne!(old, text);
        let parsed_old = CampaignReport::from_json(&old).expect("old deduce section parses");
        assert_eq!(parsed_old.deduce, r.deduce);

        // Merging shifts shard-local row indices by the shard's start.
        let mut a = r.clone();
        let mut b = r.clone();
        a.shard = Some(ShardInfo {
            index: 0,
            count: 2,
            fault_start: 0,
            fault_end: 2,
            total_faults: 4,
            plan_hash: 9,
        });
        b.shard = Some(ShardInfo {
            index: 1,
            count: 2,
            fault_start: 2,
            fault_end: 4,
            total_faults: 4,
            plan_hash: 9,
        });
        let merged = CampaignReport::merge(&[a, b]).expect("mergeable shards");
        let d = merged.deduce.expect("merged deduce");
        assert_eq!((d.untestable, d.simulated), (2, 2));
        assert_eq!(d.rows, vec![1, 3]);
    }

    #[test]
    fn rates_and_ranges() {
        let r = tiny_report();
        assert_eq!(r.fault_count(), 2);
        assert_eq!(r.total_situations(), 16);
        assert!(r.sampled());
        assert!((r.detection_rate() - 0.5).abs() < 1e-12);
        assert!((r.safe_rate() - 0.5).abs() < 1e-12);
        let (lo, hi) = r.per_fault_coverage_range();
        assert!(lo <= hi && hi <= 1.0);
        assert_eq!(r.coverage_of(TechIndex::Tech1), None, "not filled");
        assert!(r.coverage_of(TechIndex::Both).is_some());
    }

    #[test]
    fn schema_violations_are_typed() {
        assert!(matches!(
            CampaignReport::from_json("{"),
            Err(CampaignError::Parse { .. })
        ));
        assert!(matches!(
            CampaignReport::from_json("{\"schema\": \"other/v9\"}"),
            Err(CampaignError::Schema {
                field: "schema",
                ..
            })
        ));
        let mut text = tiny_report().to_json();
        text = text.replace("\"fault_count\": 2", "\"fault_count\": 5");
        assert!(matches!(
            CampaignReport::from_json(&text),
            Err(CampaignError::Schema {
                field: "fault_count",
                ..
            })
        ));
    }

    #[test]
    fn out_of_range_widths_are_schema_errors() {
        let base = tiny_report().to_json();
        for bad in ["0", "99", "4294967300"] {
            let text = base.replace("\"width\": 1", &format!("\"width\": {bad}"));
            assert!(
                matches!(
                    CampaignReport::from_json(&text),
                    Err(CampaignError::Schema {
                        field: "scenario.width",
                        ..
                    })
                ),
                "width {bad} must be rejected"
            );
        }
    }

    #[test]
    fn empty_universe_coverage_range_is_degenerate() {
        let mut r = tiny_report();
        r.per_fault.clear();
        assert_eq!(r.per_fault_coverage_range(), (1.0, 1.0));
        let (lo, hi) = tiny_report().per_fault_coverage_range();
        assert!(lo <= hi, "range must be ordered for non-empty universes");
    }

    #[test]
    fn drop_labels_round_trip() {
        for d in [
            DropPolicy::Never,
            DropPolicy::OnDetect,
            DropPolicy::OnEscape,
        ] {
            assert_eq!(drop_from_label(drop_label(d)), Some(d));
        }
        assert_eq!(drop_from_label("nope"), None);
    }
}
