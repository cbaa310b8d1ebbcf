//! The wire format of a submitted campaign: one flat JSON object over
//! the [`scdp_campaign::KEYS`] run-spec table — the same vocabulary as
//! the `scdp run` flags — resolved into a [`CampaignJob`] plus a shard
//! count by [`RunSpec::from_json`].
//!
//! The resolver is strict — unknown, duplicate, mistyped, out-of-range
//! and wrong-shape keys are typed [`CampaignError`]s, never panics or
//! silent defaults — because this is the first thing untrusted bytes
//! from the network reach after [`scdp_campaign::json::parse`].
//!
//! ```json
//! {"kind": "sequential", "workload": "fir", "width": 4,
//!  "technique": "tech1", "samples": 64, "shards": 4}
//! ```
//!
//! [`CampaignJob`]: scdp_campaign::CampaignJob

use scdp_campaign::{CampaignError, RunSpec};

/// A fully parsed submission: the job to run (`job`) and how many
/// shards to partition its fault universe into (`shards`, default 4).
pub type JobSpec = RunSpec;

/// Parses one submitted spec document into a [`JobSpec`].
///
/// # Errors
///
/// [`CampaignError::Parse`] when the text is not JSON,
/// [`CampaignError::Schema`] when it is JSON but not a valid spec.
pub fn parse(text: &str) -> Result<JobSpec, CampaignError> {
    RunSpec::from_json(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_campaign::{
        CampaignJob, DatapathScenario, DfgSource, FaultDuration, InputSpace, DEFAULT_SEED,
    };
    use scdp_core::Technique;

    #[test]
    fn all_three_kinds_parse_with_defaults() {
        let op = parse(r#"{"kind":"operator"}"#).expect("operator spec");
        assert!(matches!(op.job, CampaignJob::Operator(_)));
        assert_eq!(op.shards, 4);
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
            (r#"{"kind":"operator","workload":"fir"}"#, false),
            (r#"{"width":4,"width":8}"#, false),
            (r#"{"shards":0}"#, false),
            (r#"{"width":100}"#, false),
            (r#"{"threads":0}"#, false),
            (r#"{"samples":0}"#, false),
        ] {
            match parse(text) {
                Err(CampaignError::Parse { .. }) => assert!(expect_parse, "{text}"),
                Err(CampaignError::Schema { .. }) => assert!(!expect_parse, "{text}"),
                other => panic!("{text}: expected a typed error, got {other:?}"),
            }
        }
    }

    /// Job ids (and shard counts) of specs accepted before the run-spec
    /// table existed, pinned so saved jobs and cache entries survive:
    /// together they name every key and all three kinds.
    #[test]
    fn job_ids_of_previously_accepted_specs_are_unchanged() {
        let pinned = [
            (r#"{"kind":"operator"}"#, "a6f19649c84b7dd5", 4),
            (
                r#"{"kind":"operator","op":"mul","width":6,"technique":"tech1","samples":256,"seed":7}"#,
                "0a1d88ed919849c7",
                4,
            ),
            (
                r#"{"kind":"operator","op":"add","realisation":"cla","backend":"gate-level","fault_model":"structural","width":8,"drop":"on-detect","threads":2,"lanes":4}"#,
                "516b68c5df889643",
                4,
            ),
            (
                r#"{"kind":"operator","op":"sub","backend":"functional","fault_model":"cell","exhaustive":true,"allocation":"dedicated","width":3}"#,
                "ea05a9931005bee7",
                4,
            ),
            (
                r#"{"kind":"operator","op":"add","backend":"gate-level","fault_model":"fa-gate","width":4,"exhaustive":true,"collapse":true,"prune":true,"telemetry":true,"shards":2}"#,
                "54ffd6460d831c15",
                2,
            ),
            (
                r#"{"kind":"operator","op":"div","width":5,"samples":32,"seed":0,"shards":1}"#,
                "1157fd3326987d0e",
                1,
            ),
            (
                r#"{"kind":"datapath","workload":"fir"}"#,
                "a485406014e33f69",
                4,
            ),
            (
                r#"{"kind":"datapath","workload":"iir","width":3,"technique":"tech2","style":"plain","samples":64,"seed":1,"lanes":"auto","shards":3}"#,
                "f3a22eee3e2963e3",
                3,
            ),
            (
                r#"{"kind":"datapath","workload":"dot","style":"embedded","allocation":"dedicated","drop":"on-escape","collapse":true,"threads":1}"#,
                "b3f70e4b1c521077",
                4,
            ),
            (
                r#"{"kind":"datapath","workload":"matvec","width":2,"exhaustive":true,"prune":true,"lanes":1}"#,
                "e14663f1f7c567d1",
                4,
            ),
            (
                r#"{"kind":"datapath","workload":"fir","width":4,"technique":"tech1","samples":64,"shards":2,"prune":true}"#,
                "b90b6c715f351352",
                2,
            ),
            (
                r#"{"kind":"datapath","workload":"fir","width":8,"samples":64,"seed":3,"threads":1,"shards":4}"#,
                "a9c7870504b1b171",
                4,
            ),
            (
                r#"{"kind":"sequential","workload":"fir"}"#,
                "e08bd420767eade5",
                4,
            ),
            (
                r#"{"kind":"sequential","workload":"fir","width":4,"technique":"tech1","samples":64,"shards":4}"#,
                "cab8e028b6be4988",
                4,
            ),
            (
                r#"{"kind":"sequential","workload":"dot","duration":"transient@2","style":"full","allocation":"single-unit","samples":128,"seed":99,"telemetry":true,"lanes":8}"#,
                "ee8d8133ea5fbf53",
                4,
            ),
            (
                r#"{"kind":"sequential","workload":"iir","duration":"permanent","drop":"on-detect","width":5,"exhaustive":false,"technique":"both"}"#,
                "a457b8fcf341a280",
                4,
            ),
        ];
        let mut keys = std::collections::BTreeSet::new();
        for (text, id, shards) in pinned {
            let spec = parse(text).expect(text);
            assert_eq!(crate::job_id(&spec.job), id, "{text}");
            assert_eq!(spec.shards, shards, "{text}");
            if let Ok(scdp_campaign::json::Json::Obj(members)) = scdp_campaign::json::parse(text) {
                keys.extend(members.into_iter().map(|(k, _)| k));
            }
        }
        for key in scdp_campaign::KEYS {
            assert!(
                keys.contains(key.name),
                "no pinned spec names `{}`",
                key.name
            );
        }
    }
}
