//! Ablation (E8): the reliability/area trade-off of binding the checker
//! operations onto the *same* functional units as the nominal ones
//! versus dedicated checker units — the design choice behind the paper's
//! §2.1 dichotomy and its stated future work ("allow the designer to
//! select the desired level of reliability while keeping area overhead …
//! within an acceptable limit").
//!
//! For each technique it reports:
//!  * worst-case coverage with a shared unit (from the exhaustive
//!    functional campaign, 8-bit adder);
//!  * coverage with a dedicated checker unit (always 100%);
//!  * the FIR datapath area with shared-allowed vs reliability-aware
//!    binding.
//!
//! Both campaign layers run through the unified `scdp-campaign` API:
//! one functional scenario per allocation yields all technique columns;
//! the gate-level cross-check re-runs the same allocations on the
//! structural datapath.

use scdp_bench::{pct, CliArgs, Flag, OrUsageExit};
use scdp_campaign::{Backend, ExecPolicy, Scenario, TechIndex};
use scdp_core::{Allocation, Operator, Technique};
use scdp_fir::fir_body_dfg;
use scdp_hls::{area, bind, expand_sck, sched, BindOptions, ErrorHandling, ResourceSet, SckStyle};

fn main() {
    let args = CliArgs::parse(&[Flag::THREADS]).or_usage_exit();
    println!("Reliability-aware binding ablation (8-bit adder campaigns, FIR datapath)\n");
    println!(
        "{:<10} {:>16} {:>16}",
        "technique", "shared-unit cov", "dedicated cov"
    );
    let functional = |alloc: Allocation| {
        Scenario::new(Operator::Add, 8)
            .allocation(alloc)
            .campaign()
            .run()
            .or_usage_exit()
    };
    let shared = functional(Allocation::SingleUnit);
    let dedicated = functional(Allocation::Dedicated);
    for (tech, idx) in [
        (Technique::Tech1, TechIndex::Tech1),
        (Technique::Tech2, TechIndex::Tech2),
        (Technique::Both, TechIndex::Both),
    ] {
        println!(
            "{:<10} {:>16} {:>16}",
            tech.to_string(),
            pct(shared.coverage_of(idx).expect("filled")),
            pct(dedicated.coverage_of(idx).expect("filled"))
        );
    }

    // Gate-level cross-check on the bit-parallel engine: the same
    // shared-vs-dedicated dichotomy measured on the generated
    // structural datapath (correlated faults = shared binding, nominal
    // only = dedicated checker units).
    println!("\nGate-level cross-check (4-bit structural adder, bit-parallel engine):");
    println!(
        "{:<10} {:>16} {:>16}",
        "technique", "correlated cov", "dedicated cov"
    );
    for tech in Technique::ALL {
        let gate = |alloc: Allocation| {
            Scenario::new(Operator::Add, 4)
                .technique(tech)
                .allocation(alloc)
                .campaign()
                .backend(Backend::GateLevel)
                .exec(ExecPolicy::new().threads(args.threads().or_usage_exit()))
                .run()
                .or_usage_exit()
        };
        let shared = gate(Allocation::SingleUnit);
        let dedicated = gate(Allocation::Dedicated);
        assert_eq!(
            dedicated.four_way().error_undetected,
            0,
            "dedicated checkers must catch every observable error"
        );
        println!(
            "{:<10} {:>16} {:>16}",
            tech.to_string(),
            pct(shared.coverage()),
            pct(dedicated.coverage())
        );
    }

    println!("\nFIR embedded-SCK datapath, min-area resources:");
    let flow = scdp_codesign::CodesignFlow::default();
    let expanded = expand_sck(&fir_body_dfg(), Technique::Tech1, SckStyle::Embedded);
    let schedule = sched::list_schedule(&expanded, &flow.library, &ResourceSet::min_area());
    for (label, opts) in [
        (
            "share checker with nominal (cheap, lossy)",
            BindOptions {
                separate_checkers: false,
                no_sharing: false,
            },
        ),
        (
            "reliability-aware (dedicated checker units)",
            BindOptions {
                separate_checkers: true,
                no_sharing: false,
            },
        ),
    ] {
        let binding = bind(&expanded, &schedule, &flow.library, opts);
        let report = area::area(
            &expanded,
            &schedule,
            &binding,
            &flow.library,
            ErrorHandling::SingleFlag,
        );
        println!("  {label:<45} {report}");
    }
    println!("\nShared binding reuses the nominal units (smaller) but exposes the");
    println!("worst-case masking above; reliability-aware binding buys back 100%");
    println!("coverage with the extra checker units.");
}
