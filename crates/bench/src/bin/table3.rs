//! Regenerates **Table 3** of the paper: the FIR case study through the
//! reliable co-design flow — hardware latency/frequency/area for
//! {plain, with SCK, embedded SCK} × {min area, min latency}, plus the
//! software execution-time and code-size comparison.
//!
//! Hardware rows come from the `scdp-hls` + `scdp-codesign` models; the
//! software rows print both the instruction-level model and a measured
//! wall-clock run of the real `scdp-fir` implementations (use the
//! Criterion bench `fir_sw` for rigorous timing).
//!
//! Usage:
//!   table3 [--taps N] [--sw-samples N]

use scdp_bench::{timed, Bench, CliArgs, Flag, OrUsageExit};
use scdp_codesign::{CodesignFlow, Goal};
use scdp_fir::{fir_body_dfg, EmbeddedFir, PlainFir, SckFir};
use scdp_hls::SckStyle;

fn ns_to_s(ns: f64) -> f64 {
    ns / 1e9
}

const PAPER_HW: [(&str, &str, &str, f64, u32); 6] = [
    ("FIR", "min area", "2 + 7n", 20.0, 412),
    ("FIR", "min latency", "2 + 5n", 20.0, 477),
    ("FIR with SCK", "min area", "2 + 10n", 16.67, 1926),
    ("FIR with SCK", "min latency", "2 + 5n", 20.0, 1593),
    ("FIR embedded SCK", "min area", "2 + 9n", 15.38, 634),
    ("FIR embedded SCK", "min latency", "2 + 5n", 20.0, 861),
];

const PAPER_SW: [(&str, f64, u32); 3] = [
    ("FIR", 6.83, 889),
    ("FIR with SCK", 10.02, 893),
    ("FIR embedded SCK", 7.90, 889),
];

const FLAGS: &[Flag] = &[
    Flag::int("--taps", 1, u64::MAX),
    Flag::int("--sw-samples", 1, u64::MAX),
];

fn main() {
    let args = CliArgs::parse(FLAGS).or_usage_exit();
    let taps: usize = args.value_or("--taps", 64).or_usage_exit();
    let sw_samples: usize = args.value_or("--sw-samples", 200_000).or_usage_exit();

    let flow = CodesignFlow::default();
    let body = fir_body_dfg();
    let report = timed("hw flow", || flow.table3(&body));

    println!("Table 3 — application of the methodology to the FIR\n");
    println!("Hardware implementation");
    println!(
        "{:<18} {:<12} {:>9} {:>10} {:>7}   paper: {:>8} {:>8} {:>6}",
        "", "goal", "latency", "fmax", "slices", "latency", "fmax", "CLB"
    );
    let styles = [
        (SckStyle::Plain, "FIR"),
        (SckStyle::Full, "FIR with SCK"),
        (SckStyle::Embedded, "FIR embedded SCK"),
    ];
    let mut idx = 0;
    for (style, label) in styles {
        for goal in [Goal::MinArea, Goal::MinLatency] {
            let row = report.row(style, goal).expect("row");
            let (_, _, p_lat, p_fmax, p_clb) = PAPER_HW[idx];
            idx += 1;
            println!(
                "{:<18} {:<12} {:>9} {:>8.2}M {:>7.0}   paper: {:>8} {:>7.2}M {:>6}",
                label,
                match goal {
                    Goal::MinArea => "min area",
                    Goal::MinLatency => "min latency",
                },
                row.hw.latency_formula(),
                row.hw.fmax_mhz,
                row.hw.area_slices,
                p_lat,
                p_fmax,
                p_clb,
            );
        }
    }

    println!("\nSoftware implementation ({taps}-tap FIR, {sw_samples} samples)");
    println!(
        "{:<18} {:>12} {:>12} {:>10}   paper: {:>7} {:>8}",
        "", "model cyc/it", "measured s", "size KB", "exe s", "size KB"
    );
    let coeffs: Vec<i32> = (0..taps as i32).map(|i| (i * 7 % 23) - 11).collect();
    let xs: Vec<i32> = (0..sw_samples as i64)
        .map(|i| ((i * 31) % 201 - 100) as i32)
        .collect();

    // Measured through the shared mini-bench harness (median of
    // several passes; writes BENCH_table3_sw.json for the trajectory).
    let mut bench = Bench::new("table3_sw");
    let n = xs.len() as u64;
    let plain_t = ns_to_s(bench.sample_elements("plain_autovec", 5, n, &mut || {
        // The compiler auto-vectorizes this MAC loop.
        let mut plain = PlainFir::new(coeffs.clone());
        let mut sink = 0i64;
        for &x in &xs {
            sink = sink.wrapping_add(i64::from(plain.process(x)));
        }
        sink
    }));
    // Scalar plain baseline: black_box per sample suppresses the
    // vectorization a 2004-era compiler would not have performed,
    // giving the ratio comparable to the paper's 6.83 s baseline.
    let scalar_t = ns_to_s(bench.sample_elements("plain_scalar", 5, n, &mut || {
        let mut scalar = PlainFir::new(coeffs.clone());
        let mut sink = 0i64;
        for &x in &xs {
            sink = sink.wrapping_add(i64::from(std::hint::black_box(
                scalar.process(std::hint::black_box(x)),
            )));
        }
        sink
    }));
    let sck_t = ns_to_s(bench.sample_elements("sck", 5, n, &mut || {
        let mut sck: SckFir = SckFir::new(coeffs.clone());
        let mut sink = 0i64;
        for &x in &xs {
            sink = sink.wrapping_add(i64::from(sck.process(x).value()));
        }
        sink
    }));
    let emb_t = ns_to_s(bench.sample_elements("embedded", 5, n, &mut || {
        let mut emb = EmbeddedFir::new(coeffs.clone());
        let mut sink = 0i64;
        for &x in &xs {
            sink = sink.wrapping_add(i64::from(emb.process(x)));
        }
        assert!(!emb.error());
        sink
    }));
    bench.finish();

    for ((style, label), measured) in styles.iter().zip([plain_t, sck_t, emb_t]) {
        let sw = report.row(*style, Goal::MinArea).expect("row").sw;
        let (_, p_time, p_kb) = PAPER_SW[match style {
            SckStyle::Plain => 0,
            SckStyle::Full => 1,
            SckStyle::Embedded => 2,
        }];
        println!(
            "{:<18} {:>12} {:>12.3} {:>10}   paper: {:>7.2} {:>8}",
            label,
            sw.cycles_per_iteration,
            measured,
            sw.code_bytes / 1024,
            p_time,
            p_kb,
        );
    }
    println!(
        "\nmeasured slow-down vs auto-vectorized plain: SCK {:.2}x, embedded {:.2}x",
        sck_t / plain_t,
        emb_t / plain_t
    );
    println!(
        "measured slow-down vs scalar plain baseline:  SCK {:.2}x (paper 1.47x), embedded {:.2}x (paper 1.16x)",
        sck_t / scalar_t,
        emb_t / scalar_t
    );
}
