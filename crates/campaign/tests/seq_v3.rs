//! Sequential-campaign regression pins, `scdp.campaign.report/v3`
//! schema compatibility and the cross-elaboration equivalence of the
//! permanent-fault universe.
//!
//! * The width-4 FIR/Tech1 sequential tally, detection-latency
//!   histogram and per-FU shape are golden-pinned (same seeded input
//!   space as the unrolled pin in `datapath_v2.rs`).
//! * **Cross-elaboration equivalence**: the sequential engine's
//!   permanent-fault per-fault tallies must match the unrolled
//!   correlated-injection tallies *exactly* for every fault site in a
//!   functional-unit **core**. Sites in the operand **mux-chain
//!   region** (`FuSpan::mux_gates`) legitimately diverge — the two
//!   machines are *semantically different* there (see
//!   `mux_divergence_is_semantically_required` for the root cause) —
//!   but the divergence is no longer a blanket allowlist: every
//!   divergent site and its exact tally delta is golden-pinned in
//!   `tests/golden/seq_mux_divergence_w4.json` (regenerate with
//!   `REGEN_GOLDEN=1`), so any behavioural drift in the steering
//!   logic fails the suite site by site.
//! * v1/v2/v3 documents all parse; v3 round-trips byte for byte; a
//!   malformed latency histogram is a typed [`CampaignError`], never a
//!   panic.

use scdp_campaign::json::{self, Json};
use scdp_campaign::{
    CampaignError, CampaignReport, DatapathScenario, DfgSource, ExecPolicy, FaultDuration,
    InputSpace, REPORT_SCHEMA, REPORT_SCHEMA_V2, REPORT_SCHEMA_V3,
};
use scdp_core::Technique;
use scdp_coverage::TechTally;
use std::path::PathBuf;

/// The pinned scenario: width-4 FIR, Tech1, full SCK expansion, shared
/// (worst-case) allocation, 2048 seeded Monte-Carlo vectors — the
/// sequential twin of `datapath_v2.rs`'s pin.
fn pinned_scenario() -> DatapathScenario {
    DatapathScenario::new(DfgSource::Fir, 4).technique(Technique::Tech1)
}

fn pinned_space() -> InputSpace {
    InputSpace::Sampled {
        per_fault: 2048,
        seed: 0xDA7E_2005,
    }
}

fn pinned_seq_report() -> CampaignReport {
    pinned_scenario()
        .seq_campaign()
        .duration(FaultDuration::Permanent)
        .input_space(pinned_space())
        .exec(ExecPolicy::new().threads(2))
        .run()
        .expect("sequential campaign runs")
}

#[test]
fn width4_fir_tech1_sequential_tally_is_pinned() {
    let r = pinned_seq_report();
    let t = r.four_way();
    assert_eq!(
        (
            t.correct_silent,
            t.correct_detected,
            t.error_detected,
            t.error_undetected,
        ),
        (1_300_966, 529_858, 986_969, 94_463),
        "the width-4 FIR/Tech1 sequential tally drifted — elaboration, \
         scheduling, binding or the sequential engine changed behaviour"
    );
    assert_eq!(r.fault_count(), 1422);
    assert_eq!(r.simulated, 2_912_256);
    let seq = r.sequential.as_ref().expect("sequential section");
    assert_eq!(seq.duration, FaultDuration::Permanent);
    assert_eq!(seq.total_cycles, 8, "7 schedule cycles + 1 drain state");
    assert_eq!(
        seq.first_detect_hist,
        vec![0, 0, 0, 864_314, 0, 0, 230_731, 421_782],
        "the detection-latency histogram drifted"
    );
    let dp = r.datapath.as_ref().expect("datapath section");
    // One physical ALU (6 ops), one physical multiplier (2 ops), one
    // memory port (no gates) — a single instance each.
    let alu = dp.per_fu.iter().find(|f| f.name == "alu0").expect("alu0");
    assert_eq!(
        (alu.ops, alu.instances, alu.instance_gates, alu.faults),
        (6, 1, 180, 1000)
    );
    let mult = dp.per_fu.iter().find(|f| f.name == "mult0").expect("mult0");
    assert_eq!(
        (mult.ops, mult.instances, mult.instance_gates, mult.faults),
        (2, 1, 75, 422)
    );
    let mem = dp.per_fu.iter().find(|f| f.class == "mem").expect("mem0");
    assert_eq!((mem.instances, mem.faults), (0, 0));
}

/// One cross-elaboration divergence: universe index, the site's
/// identity, and the exact four-way tallies on both machines.
#[derive(Debug, PartialEq, Eq)]
struct Divergence {
    index: usize,
    fu: String,
    gate: usize,
    /// `-1` encodes a stem fault.
    pin: i64,
    value: bool,
    unrolled: TechTally,
    sequential: TechTally,
}

fn tally_json(t: &TechTally) -> Json {
    Json::Arr(
        [
            t.correct_silent,
            t.correct_detected,
            t.error_detected,
            t.error_undetected,
        ]
        .iter()
        .map(|&n| Json::Int(i128::from(n)))
        .collect(),
    )
}

fn tally_from_json(v: &Json) -> TechTally {
    let cells = v.as_arr().expect("tally is a 4-array");
    assert_eq!(cells.len(), 4, "tally is a 4-array");
    let n = |i: usize| cells[i].as_u64().expect("tally cell is a count");
    TechTally {
        correct_silent: n(0),
        correct_detected: n(1),
        error_detected: n(2),
        error_undetected: n(3),
    }
}

fn divergence_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/seq_mux_divergence_w4.json")
}

/// The cross-elaboration differential, site by site: core sites must
/// agree exactly; mux-region sites may diverge, but only in the exact
/// per-site pattern pinned in the golden file.
#[test]
fn permanent_tallies_match_unrolled_with_mux_divergence_pinned_per_site() {
    let scenario = pinned_scenario();
    let unrolled = scenario
        .clone()
        .campaign()
        .input_space(pinned_space())
        .exec(ExecPolicy::new().threads(2))
        .run()
        .expect("unrolled campaign runs");
    let seq = pinned_seq_report();
    assert_eq!(
        unrolled.fault_count(),
        seq.fault_count(),
        "the two elaborations enumerate the same universe"
    );
    // Map universe indices to FU-local sites via the sequential
    // elaboration (site order is index-compatible by construction).
    let dp = scenario.elaborate_seq();
    let (_, ranges) = dp.fault_universe();
    let mut core_faults = 0usize;
    let mut divergences: Vec<Divergence> = Vec::new();
    for r in &ranges {
        let span = &dp.fus[r.fu];
        let sites = dp.fu_local_sites(r.fu);
        for i in r.start..r.end {
            let site = sites[(i - r.start) / 2];
            let u = &unrolled.per_fault[i];
            let s = &seq.per_fault[i];
            if site.gate < span.mux_gates {
                // Steering logic: the machines are semantically
                // different here, so divergence is expected — but it
                // must match the golden pin exactly, site by site.
                if u.tally != s.tally {
                    divergences.push(Divergence {
                        index: i,
                        fu: span.name.clone(),
                        gate: site.gate,
                        pin: site.pin.map_or(-1, i64::from),
                        value: (i - r.start) % 2 == 1,
                        unrolled: u.tally,
                        sequential: s.tally,
                    });
                }
            } else {
                core_faults += 1;
                assert_eq!(
                    u.tally, s.tally,
                    "core fault {i} ({} local gate {} pin {:?}): sequential and \
                     unrolled four-way tallies must be identical",
                    span.name, site.gate, site.pin
                );
                assert_eq!((u.detected, u.escaped), (s.detected, s.escaped));
            }
        }
    }
    assert!(core_faults > 300, "the core region must be substantial");

    let golden = Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str("scdp.test.mux-divergence/v1".to_string()),
        ),
        (
            "sites".to_string(),
            Json::Arr(
                divergences
                    .iter()
                    .map(|d| {
                        Json::Obj(vec![
                            ("index".to_string(), Json::Int(d.index as i128)),
                            ("fu".to_string(), Json::Str(d.fu.clone())),
                            ("gate".to_string(), Json::Int(d.gate as i128)),
                            ("pin".to_string(), Json::Int(i128::from(d.pin))),
                            ("value".to_string(), Json::Bool(d.value)),
                            ("unrolled".to_string(), tally_json(&d.unrolled)),
                            ("sequential".to_string(), tally_json(&d.sequential)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let rendered = format!("{}\n", golden.write_compact());
    let path = divergence_golden_path();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let pinned = std::fs::read_to_string(&path).expect("divergence golden file present");
    let pinned = json::parse(&pinned).expect("golden parses");
    let sites = pinned
        .get("sites")
        .and_then(Json::as_arr)
        .expect("sites array");
    // The probe that motivated the pin measured 111 divergent sites;
    // the exact per-site deltas are the golden content.
    assert_eq!(
        divergences.len(),
        sites.len(),
        "the number of divergent mux sites drifted (expected {}, measured {})",
        sites.len(),
        divergences.len()
    );
    assert_eq!(sites.len(), 111, "the headline 111-site count");
    for (d, g) in divergences.iter().zip(sites) {
        let num = |key: &str| g.get(key).and_then(Json::as_u64).expect("count member");
        assert_eq!(d.index as u64, num("index"), "site order drifted");
        let context = format!(
            "divergent site {} ({} local gate {} pin {})",
            d.index, d.fu, d.gate, d.pin
        );
        assert_eq!(
            d.fu,
            g.get("fu").and_then(Json::as_str).unwrap(),
            "{context}"
        );
        assert_eq!(d.gate as u64, num("gate"), "{context}");
        assert_eq!(
            tally_from_json(g.get("unrolled").expect("unrolled")),
            d.unrolled,
            "{context}: the unrolled tally drifted"
        );
        assert_eq!(
            tally_from_json(g.get("sequential").expect("sequential")),
            d.sequential,
            "{context}: the sequential tally drifted"
        );
    }
}

/// Root cause of the mux-region divergence, demonstrated on a minimal
/// machine: two independent adds serialized onto one ALU, plain style
/// (no checkers), exhaustive inputs.
///
/// The two elaborations are **semantically different** in the operand
/// steering region, in two distinct ways:
///
/// 1. **Dead legs are live.** The unrolled model ties every
///    not-selected mux leg to constant zero, so a stuck-at on such a
///    leg's data path can never be excited there. The physical
///    (sequential) machine routes *real operand data* through every
///    leg in every cycle — the same local fault corrupts whatever
///    flows past while the leg is selected. The test exhibits sites
///    that are completely silent in the unrolled run yet corrupt
///    results in the sequential run.
/// 2. **Selects are dynamic, so checkers see different excitation.**
///    Unrolled instances freeze the select lines at per-instance
///    constants (the decoded controller state of one cycle); the
///    physical chain decodes them from the live state machine, so a
///    steering fault perturbs the data flowing to the comparators in
///    cycles the unrolled model never represents. On the pinned FIR
///    machine this shows up as sites where *neither* machine corrupts
///    the final result, yet the alarm tallies differ
///    (`correct_detected` vs `correct_silent`) — checked below against
///    the golden divergence data, since it needs checkers (the minimal
///    plain-style machine has none).
///
/// Neither effect can be "fixed" without making one machine model the
/// other's approximation: the unrolled zero-tied legs are the
/// *model's* don't-care abstraction, while the sequential netlist is
/// the machine the paper actually describes. The divergence is
/// therefore pinned (previous test), not fixed.
#[test]
fn mux_divergence_is_semantically_required() {
    use scdp_hls::{Dfg, OpKind, SckStyle};
    let mut d = Dfg::new("two_indep_adds");
    let a = d.input("a");
    let b = d.input("b");
    let s1 = d.op(OpKind::Add, &[a, b]);
    let s2 = d.op(OpKind::Add, &[b, a]);
    d.output("o1", s1);
    d.output("o2", s2);
    let scenario = DatapathScenario::new(DfgSource::Custom(d), 2).style(SckStyle::Plain);

    let unrolled = scenario
        .clone()
        .campaign()
        .exec(ExecPolicy::new().threads(2))
        .run()
        .expect("unrolled");
    let seq = scenario
        .clone()
        .seq_campaign()
        .duration(FaultDuration::Permanent)
        .exec(ExecPolicy::new().threads(2))
        .run()
        .expect("sequential");
    let dp = scenario.elaborate_seq();
    let (_, ranges) = dp.fault_universe();

    let wrong = |t: &TechTally| t.error_detected + t.error_undetected;
    let mut live_dead_leg = 0usize; // silent unrolled, corrupting sequential
    for r in &ranges {
        let span = &dp.fus[r.fu];
        let sites = dp.fu_local_sites(r.fu);
        for i in r.start..r.end {
            let site = sites[(i - r.start) / 2];
            let u = &unrolled.per_fault[i];
            let s = &seq.per_fault[i];
            if site.gate >= span.mux_gates {
                assert_eq!(
                    u.tally, s.tally,
                    "core fault {i}: outside the steering region the machines agree"
                );
                continue;
            }
            if wrong(&u.tally) == 0 && wrong(&s.tally) > 0 {
                live_dead_leg += 1;
            }
        }
    }
    assert!(
        live_dead_leg > 0,
        "some mux fault must be unexcitable on zero-tied unrolled legs \
         yet corrupt the live-data sequential chain"
    );

    // Effect 2, read from the pinned FIR divergence data: sites where
    // neither machine ever corrupts the final result but the alarm
    // excitation differs — only the dynamic steering can do that.
    let pinned =
        std::fs::read_to_string(divergence_golden_path()).expect("divergence golden file present");
    let pinned = json::parse(&pinned).expect("golden parses");
    let sites = pinned
        .get("sites")
        .and_then(Json::as_arr)
        .expect("sites array");
    let mut alarm_only = 0usize;
    let mut result_corrupting = 0usize;
    for g in sites {
        let u = tally_from_json(g.get("unrolled").expect("unrolled"));
        let s = tally_from_json(g.get("sequential").expect("sequential"));
        if wrong(&u) == 0 && wrong(&s) == 0 {
            assert_ne!(
                u.correct_detected, s.correct_detected,
                "a result-clean divergence must differ in alarm excitation"
            );
            alarm_only += 1;
        }
        if wrong(&u) == 0 && wrong(&s) > 0 {
            result_corrupting += 1;
        }
    }
    assert!(
        alarm_only > 0,
        "dynamic selects must perturb checker excitation on result-clean sites"
    );
    assert!(
        result_corrupting > 0,
        "live dead legs must corrupt results on the FIR machine too"
    );
}

#[test]
fn v3_report_round_trips_byte_for_byte() {
    let mut r = DatapathScenario::new(DfgSource::Dot, 2)
        .technique(Technique::Tech1)
        .seq_campaign()
        .duration(FaultDuration::Transient { cycle: 2 })
        .input_space(InputSpace::Sampled {
            per_fault: 128,
            seed: 9,
        })
        .exec(ExecPolicy::new().threads(2))
        .run()
        .expect("campaign runs");
    r.elapsed_ms = 0;
    let json = r.to_json();
    assert!(json.contains(REPORT_SCHEMA_V3), "v3 schema tag missing");
    assert!(
        json.contains("\"sequential\""),
        "sequential section missing"
    );
    assert!(json.contains("\"kind\": \"transient\", \"cycle\": 2"));
    let parsed = CampaignReport::from_json(&json).expect("v3 parses");
    assert!(parsed.same_results(&r));
    assert_eq!(parsed.sequential, r.sequential);
    assert_eq!(parsed.to_json(), json, "serialisation is a fixpoint");
}

#[test]
fn v1_and_v2_documents_still_parse() {
    let v1 = scdp_campaign::Scenario::new(scdp_core::Operator::Add, 2)
        .campaign()
        .run()
        .expect("operator campaign");
    let json = v1.to_json();
    assert!(json.contains(REPORT_SCHEMA));
    let parsed = CampaignReport::from_json(&json).expect("v1 parses");
    assert!(parsed.sequential.is_none());

    let v2 = DatapathScenario::new(DfgSource::Dot, 2)
        .technique(Technique::Tech1)
        .campaign()
        .input_space(InputSpace::Sampled {
            per_fault: 64,
            seed: 3,
        })
        .run()
        .expect("datapath campaign");
    let json = v2.to_json();
    assert!(json.contains(REPORT_SCHEMA_V2));
    assert!(!json.contains("\"sequential\""));
    let parsed = CampaignReport::from_json(&json).expect("v2 parses");
    assert!(parsed.datapath.is_some());
    assert!(parsed.sequential.is_none());
}

#[test]
fn schema_and_sequential_section_must_agree() {
    let mut r = pinned_scenario()
        .seq_campaign()
        .input_space(InputSpace::Sampled {
            per_fault: 64,
            seed: 5,
        })
        .run()
        .expect("campaign runs");
    r.elapsed_ms = 0;
    let v3 = r.to_json();
    // v2-labelled document with a sequential section: typed error.
    let bad = v3.replace(REPORT_SCHEMA_V3, REPORT_SCHEMA_V2);
    assert!(matches!(
        CampaignReport::from_json(&bad),
        Err(CampaignError::Schema {
            field: "sequential",
            ..
        })
    ));
    // v3-labelled document without the section: typed error.
    let stripped = {
        let start = v3.find("  \"sequential\":").expect("section present");
        let end = v3[start..].find("]},\n").expect("section end") + start + 4;
        format!("{}{}", &v3[..start], &v3[end..])
    };
    assert!(matches!(
        CampaignReport::from_json(&stripped),
        Err(CampaignError::Schema {
            field: "sequential",
            ..
        })
    ));
}

#[test]
fn malformed_latency_histograms_are_typed_errors() {
    let mut r = DatapathScenario::new(DfgSource::Dot, 2)
        .technique(Technique::Tech1)
        .seq_campaign()
        .input_space(InputSpace::Sampled {
            per_fault: 64,
            seed: 5,
        })
        .exec(ExecPolicy::new().threads(1))
        .run()
        .expect("campaign runs");
    r.elapsed_ms = 0;
    let good = r.to_json();
    let hist_start = good.find("\"first_detect_hist\": [").expect("hist");
    let hist_end = good[hist_start..].find(']').unwrap() + hist_start + 1;
    let hist = &good[hist_start..hist_end];
    for (bad_hist, why) in [
        ("\"first_detect_hist\": 7".to_string(), "not an array"),
        (
            "\"first_detect_hist\": [true]".to_string(),
            "cell not a count",
        ),
        (
            hist.replacen('[', "[999, ", 1),
            "length disagrees with total_cycles",
        ),
    ] {
        let bad = good.replacen(hist, &bad_hist, 1);
        assert_ne!(bad, good, "{why}: replacement did not apply");
        match CampaignReport::from_json(&bad) {
            Err(CampaignError::Schema { field, .. }) => {
                assert_eq!(field, "sequential.first_detect_hist", "{why}");
            }
            other => panic!("{why}: expected typed schema error, got {other:?}"),
        }
    }
    // Malformed duration object.
    let bad = good.replacen("\"kind\": \"permanent\"", "\"kind\": \"forever\"", 1);
    assert!(matches!(
        CampaignReport::from_json(&bad),
        Err(CampaignError::Schema {
            field: "sequential.duration",
            ..
        })
    ));
}

#[test]
fn negative_paths_have_stable_display_messages() {
    // `Display` text is part of the CLI surface; pin it.
    let err = pinned_scenario()
        .seq_campaign()
        .duration(FaultDuration::Transient { cycle: 99 })
        .input_space(InputSpace::Sampled {
            per_fault: 16,
            seed: 1,
        })
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        CampaignError::TransientCycleOutOfRange {
            cycle: 99,
            total_cycles: 8
        }
    ));
    assert_eq!(
        err.to_string(),
        "transient fault cycle 99 out of range: the sequential datapath runs 8 cycles (0..8)"
    );

    let err = DatapathScenario::new(DfgSource::Iir, 8)
        .seq_campaign()
        .run()
        .unwrap_err();
    let CampaignError::ExhaustiveDatapathTooLarge { input_bits } = err.clone() else {
        panic!("expected ExhaustiveDatapathTooLarge, got {err:?}");
    };
    assert_eq!(
        err.to_string(),
        format!(
            "exhaustive enumeration over {input_bits} datapath input bits is \
             intractable; use a sampled input space"
        )
    );

    let err = CampaignError::Schema {
        field: "sequential.first_detect_hist",
        message: "missing or not an array".into(),
    };
    assert_eq!(
        err.to_string(),
        "schema error at `sequential.first_detect_hist`: \
         missing or not an array"
    );
}
