//! Shared helpers for the table-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table1` | Table 1 — overloading techniques & fault coverage per operator |
//! | `table2` | Table 2 — `+` coverage vs operand width (+ §4.1 statistics) |
//! | `table3` | Table 3 — FIR hardware/software cost & performance |
//! | `fig3_flow` | Figure 3 — the co-design flow, end to end (+ §4 validation) |
//! | `gate_xval` | §4.1 "implementation independent" claim (RCA/CLA/CSA at gate level) |
//! | `ablation_binding` | reliability-aware binding ablation (future-work trade-off) |
//! | `other_circuits` | §5 companion workloads + companion-generator campaigns |
//! | `table_datapath` | system-level campaigns: every workload × technique, elaborated datapaths with per-FU tallies (wrapper over `scdp sweep`) |
//! | `table_seq` | cycle-accurate campaigns with fault durations and detection latencies (wrapper over `scdp sweep --seq`) |
//! | `scdp` | the unified CLI ([`scdp_cli`]): `run` (sharded/resumable campaigns), `merge`, `validate`, `table`, `sweep` |
//! | `bench_check` | the bench-regression gate: fresh `BENCH_*.json` vs committed baselines ([`regression`]) |
//!
//! Every binary constructs its campaigns through the unified
//! `scdp_campaign::{Scenario, CampaignSpec}` surface. The `scdp` verbs
//! that describe a campaign read their flags through the
//! `scdp_campaign::RunSpec` key table; the table binaries parse theirs
//! with the shared [`cli::CliArgs`] module.

#![warn(missing_docs)]

pub mod cli;
pub mod harness;
pub mod regression;
pub mod scdp_cli;
pub mod trace;

pub use cli::{CliArgs, Flag, OrUsageExit, UsageError};
pub use harness::{Bench, Record};
pub use regression::{BenchFile, CheckConfig};

use scdp_arith::Word;
use scdp_netlist::gen::SelfCheckingDatapath;
use std::time::Instant;

/// The pre-engine scalar `+` campaign: every instance-local site, both
/// polarities, correlated across instances, classified one situation at
/// a time through `Netlist::eval_nets`. Kept as the differential-
/// testing oracle for the bit-parallel engine (`gate_xval --oracle`)
/// and as the baseline of the `sim_engine` speedup bench. Returns the
/// coverage (fraction of situations that are not undetected errors).
#[must_use]
pub fn scalar_add_oracle(dp: &SelfCheckingDatapath, width: u32) -> f64 {
    let mut total = 0u64;
    let mut undetected = 0u64;
    for site in dp.local_sites() {
        for value in [false, true] {
            let faults = dp.correlated_fault(site, value);
            for a in Word::all(width) {
                for b in Word::all(width) {
                    total += 1;
                    let out = dp.netlist.eval_words(&[a, b], &faults);
                    let observable = out[0] != a.wrapping_add(b);
                    let alarm = out[1].bits() != 0;
                    if observable && !alarm {
                        undetected += 1;
                    }
                }
            }
        }
    }
    1.0 - undetected as f64 / total as f64
}

/// Runs `f`, printing the elapsed wall time afterwards.
pub fn timed<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    eprintln!("[{label}: {:.1}s]", start.elapsed().as_secs_f64());
    out
}

/// Formats a fraction as the paper's percentage style.
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.9711), "97.11%");
    }
}
