//! The wire format of a submitted campaign: one flat JSON object
//! mirroring the `scdp run` flag vocabulary, parsed into a
//! [`CampaignJob`] plus a shard count.
//!
//! The parser is strict — unknown keys, wrong types and out-of-range
//! values are typed [`CampaignError`]s, never panics — because this is
//! the first thing untrusted bytes from the network reach after
//! [`scdp_campaign::json::parse`].
//!
//! ```json
//! {"kind": "sequential", "workload": "fir", "width": 4,
//!  "technique": "tech1", "samples": 64, "shards": 4}
//! ```

use scdp_campaign::{
    allocation_from_label, drop_from_label, duration_from_label, json, op_from_label,
    realisation_from_label, style_from_label, technique_from_label, Backend, CampaignError,
    CampaignJob, DatapathScenario, DfgSource, ExecPolicy, FaultDuration, FaultModel, InputSpace,
    Lanes, Scenario,
};
use scdp_core::{Allocation, Technique};
use scdp_hls::SckStyle;

/// The seed a spec without an explicit `"seed"` uses — the same
/// default as the `scdp` CLI, so a submitted spec and the equivalent
/// `scdp run` invocation fingerprint identically.
pub const DEFAULT_SEED: u64 = 0xDA7E_2005;

/// Default shard count of a submitted job.
pub const DEFAULT_SHARDS: u32 = 4;

/// Every key a spec object may carry. Anything else is a schema error
/// — a typoed `"widht"` must not silently fall back to the default.
const KNOWN_KEYS: &[&str] = &[
    "kind",
    "width",
    "technique",
    "allocation",
    "op",
    "realisation",
    "backend",
    "fault_model",
    "workload",
    "style",
    "duration",
    "samples",
    "seed",
    "exhaustive",
    "threads",
    "lanes",
    "drop",
    "collapse",
    "prune",
    "telemetry",
    "shards",
];

/// A fully parsed submission: the job to run and its shard geometry.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The campaign, ready for [`scdp_campaign::CampaignRunner`].
    pub job: CampaignJob,
    /// How many shards to partition the fault universe into.
    pub shards: u32,
}

fn schema(field: &'static str, message: impl Into<String>) -> CampaignError {
    CampaignError::Schema {
        field,
        message: message.into(),
    }
}

/// A string field, or a schema error when present with another type.
fn str_field<'a>(
    obj: &'a json::Json,
    key: &str,
    field: &'static str,
) -> Result<Option<&'a str>, CampaignError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| schema(field, "expected a string")),
    }
}

/// An unsigned integer field, or a schema error.
fn u64_field(
    obj: &json::Json,
    key: &str,
    field: &'static str,
) -> Result<Option<u64>, CampaignError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| schema(field, "expected an unsigned integer")),
    }
}

/// A boolean field, or a schema error.
fn bool_field(obj: &json::Json, key: &str, field: &'static str) -> Result<bool, CampaignError> {
    match obj.get(key) {
        None => Ok(false),
        Some(json::Json::Bool(b)) => Ok(*b),
        Some(_) => Err(schema(field, "expected a boolean")),
    }
}

/// Parses one submitted spec document into a [`JobSpec`].
///
/// # Errors
///
/// [`CampaignError::Parse`] when the text is not JSON,
/// [`CampaignError::Schema`] when it is JSON but not a valid spec.
pub fn parse(text: &str) -> Result<JobSpec, CampaignError> {
    let doc = json::parse(text)?;
    let json::Json::Obj(members) = &doc else {
        return Err(schema("spec", "expected a JSON object"));
    };
    if let Some((key, _)) = members
        .iter()
        .find(|(k, _)| !KNOWN_KEYS.contains(&k.as_str()))
    {
        return Err(schema("spec", format!("unknown key `{key}`")));
    }

    let width = u32::try_from(u64_field(&doc, "width", "spec.width")?.unwrap_or(4))
        .map_err(|_| schema("spec.width", "width out of range"))?;
    let samples = u64_field(&doc, "samples", "spec.samples")?.unwrap_or(1024);
    let seed = u64_field(&doc, "seed", "spec.seed")?.unwrap_or(DEFAULT_SEED);
    let shards = u32::try_from(
        u64_field(&doc, "shards", "spec.shards")?.unwrap_or(u64::from(DEFAULT_SHARDS)),
    )
    .map_err(|_| schema("spec.shards", "shard count out of range"))?;

    let technique = match str_field(&doc, "technique", "spec.technique")? {
        None => Technique::Both,
        Some(s) => technique_from_label(s)
            .ok_or_else(|| schema("spec.technique", format!("unknown technique `{s}`")))?,
    };
    let allocation = match str_field(&doc, "allocation", "spec.allocation")? {
        None => Allocation::SingleUnit,
        Some(s) => allocation_from_label(s)
            .ok_or_else(|| schema("spec.allocation", format!("unknown allocation `{s}`")))?,
    };
    let space = if bool_field(&doc, "exhaustive", "spec.exhaustive")? {
        InputSpace::Exhaustive
    } else {
        InputSpace::Sampled {
            per_fault: samples,
            seed,
        }
    };
    let exec = exec_from(&doc)?;

    let kind = str_field(&doc, "kind", "spec.kind")?
        .ok_or_else(|| schema("spec.kind", "missing (operator|datapath|sequential)"))?;
    let job = match kind {
        "operator" => {
            let op_label = str_field(&doc, "op", "spec.op")?.unwrap_or("add");
            let op = op_from_label(op_label)
                .ok_or_else(|| schema("spec.op", format!("unknown operator `{op_label}`")))?;
            let mut scenario = Scenario::new(op, width)
                .technique(technique)
                .allocation(allocation);
            if let Some(r) = str_field(&doc, "realisation", "spec.realisation")? {
                scenario = scenario.realisation(realisation_from_label(r).ok_or_else(|| {
                    schema("spec.realisation", format!("unknown realisation `{r}`"))
                })?);
            }
            let backend = match str_field(&doc, "backend", "spec.backend")? {
                None => Backend::Functional,
                Some(s) => Backend::from_label(s)
                    .ok_or_else(|| schema("spec.backend", format!("unknown backend `{s}`")))?,
            };
            let mut spec = scenario.campaign().backend(backend).input_space(space);
            if let Some(m) = str_field(&doc, "fault_model", "spec.fault_model")? {
                spec = spec.fault_model(FaultModel::from_label(m).ok_or_else(|| {
                    schema("spec.fault_model", format!("unknown fault model `{m}`"))
                })?);
            }
            CampaignJob::Operator(spec.exec(exec))
        }
        "datapath" | "sequential" => {
            let workload = str_field(&doc, "workload", "spec.workload")?
                .ok_or_else(|| schema("spec.workload", "missing (fir|iir|dot|matvec)"))?;
            let source = DfgSource::from_label(workload)
                .ok_or_else(|| schema("spec.workload", format!("unknown workload `{workload}`")))?;
            let style = match str_field(&doc, "style", "spec.style")? {
                None => SckStyle::Full,
                Some(s) => style_from_label(s)
                    .ok_or_else(|| schema("spec.style", format!("unknown style `{s}`")))?,
            };
            let scenario = DatapathScenario::new(source, width)
                .technique(technique)
                .style(style)
                .allocation(allocation);
            if kind == "sequential" {
                let duration = match str_field(&doc, "duration", "spec.duration")? {
                    None => FaultDuration::Permanent,
                    Some(s) => duration_from_label(s).ok_or_else(|| {
                        schema("spec.duration", format!("unknown duration `{s}`"))
                    })?,
                };
                CampaignJob::Sequential(
                    scenario
                        .seq_campaign()
                        .duration(duration)
                        .input_space(space)
                        .exec(exec),
                )
            } else {
                if doc.get("duration").is_some() {
                    return Err(schema(
                        "spec.duration",
                        "durations apply to sequential campaigns only",
                    ));
                }
                CampaignJob::Datapath(scenario.campaign().input_space(space).exec(exec))
            }
        }
        other => {
            return Err(schema(
                "spec.kind",
                format!("unknown kind `{other}` (operator|datapath|sequential)"),
            ))
        }
    };
    Ok(JobSpec { job, shards })
}

/// The execution-policy subset of a spec: threads, lanes, drop policy,
/// collapsing, pruning and telemetry.
fn exec_from(doc: &json::Json) -> Result<ExecPolicy, CampaignError> {
    let mut exec = ExecPolicy::new()
        .collapse(bool_field(doc, "collapse", "spec.collapse")?)
        .prune(bool_field(doc, "prune", "spec.prune")?)
        .telemetry(bool_field(doc, "telemetry", "spec.telemetry")?);
    if let Some(threads) = u64_field(doc, "threads", "spec.threads")? {
        let threads = usize::try_from(threads)
            .map_err(|_| schema("spec.threads", "thread count out of range"))?;
        exec = exec.threads(threads);
    }
    if let Some(drop) = str_field(doc, "drop", "spec.drop")? {
        exec = exec.drop_policy(
            drop_from_label(drop)
                .ok_or_else(|| schema("spec.drop", format!("unknown drop policy `{drop}`")))?,
        );
    }
    match doc.get("lanes") {
        None => {}
        Some(json::Json::Str(s)) if s == "auto" => {}
        Some(v) => {
            let lanes = v
                .as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .and_then(Lanes::from_limbs)
                .ok_or_else(|| schema("spec.lanes", "expected \"auto\", 1, 4 or 8"))?;
            exec = exec.lanes(lanes);
        }
    }
    Ok(exec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_kinds_parse_with_defaults() {
        let op = parse(r#"{"kind":"operator"}"#).expect("operator spec");
        assert!(matches!(op.job, CampaignJob::Operator(_)));
        assert_eq!(op.shards, DEFAULT_SHARDS);
        let dp = parse(r#"{"kind":"datapath","workload":"dot","shards":2}"#).expect("dp spec");
        assert!(matches!(dp.job, CampaignJob::Datapath(_)));
        assert_eq!(dp.shards, 2);
        let seq = parse(r#"{"kind":"sequential","workload":"fir","duration":"transient@2"}"#)
            .expect("seq spec");
        match seq.job {
            CampaignJob::Sequential(spec) => {
                assert_eq!(spec.duration, FaultDuration::Transient { cycle: 2 });
            }
            other => panic!("expected sequential, got {other:?}"),
        }
    }

    #[test]
    fn prune_parses_next_to_collapse_and_leaves_the_fingerprint_alone() {
        let plain =
            parse(r#"{"kind":"datapath","workload":"fir","collapse":true}"#).expect("plain spec");
        let pruned = parse(r#"{"kind":"datapath","workload":"fir","collapse":true,"prune":true}"#)
            .expect("pruned spec");
        match &pruned.job {
            CampaignJob::Datapath(spec) => assert!(spec.exec.prune && spec.exec.collapse),
            other => panic!("expected datapath, got {other:?}"),
        }
        assert_eq!(
            plain.job.config_fingerprint(),
            pruned.job.config_fingerprint(),
            "pruning never changes results, so it never changes the job id"
        );
    }

    #[test]
    fn spec_fingerprints_match_the_equivalent_builder_job() {
        let spec = parse(
            r#"{"kind":"sequential","workload":"fir","width":4,
                "technique":"tech1","samples":64}"#,
        )
        .expect("parses");
        let direct = CampaignJob::Sequential(
            DatapathScenario::new(DfgSource::Fir, 4)
                .technique(Technique::Tech1)
                .seq_campaign()
                .input_space(InputSpace::Sampled {
                    per_fault: 64,
                    seed: DEFAULT_SEED,
                }),
        );
        assert_eq!(
            spec.job.config_fingerprint(),
            direct.config_fingerprint(),
            "wire spec and builder agree on the fingerprint"
        );
    }

    #[test]
    fn bad_specs_are_typed_errors_never_panics() {
        for (text, expect_parse) in [
            ("", true),
            ("[1,2]", false),
            (r#"{"kind":"operator","widht":4}"#, false),
            (r#"{"kind":"frobnicate"}"#, false),
            (r#"{"kind":"datapath"}"#, false),
            (r#"{"kind":"datapath","workload":"nope"}"#, false),
            (r#"{"kind":"operator","width":"four"}"#, false),
            (r#"{"kind":"operator","lanes":3}"#, false),
            (r#"{"kind":"operator","exhaustive":"yes"}"#, false),
            (r#"{"kind":"operator","prune":1}"#, false),
            (
                r#"{"kind":"datapath","workload":"dot","duration":"permanent"}"#,
                false,
            ),
        ] {
            match parse(text) {
                Err(CampaignError::Parse { .. }) => assert!(expect_parse, "{text}"),
                Err(CampaignError::Schema { .. }) => assert!(!expect_parse, "{text}"),
                other => panic!("{text}: expected a typed error, got {other:?}"),
            }
        }
    }
}
