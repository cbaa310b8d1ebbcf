//! A tiny self-contained benchmark harness.
//!
//! The build environment is offline, so Criterion is not available; the
//! `[[bench]]` targets instead use this harness (`harness = false`). It
//! keeps the parts the repo actually relies on — warmup, repeated
//! sampling, median/min statistics, throughput, and a machine-readable
//! `BENCH_<name>.json` artifact in the current directory so speedups
//! land in the benchmark trajectory.
//!
//! Set `BENCH_QUICK=1` to divide sample counts by 5 (CI smoke mode).

use std::hint::black_box;
use std::time::Instant;

/// One recorded measurement.
#[derive(Clone, Debug)]
pub struct Record {
    /// Benchmark id within the group.
    pub id: String,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: f64,
    /// Number of measured iterations.
    pub samples: usize,
    /// Work items per iteration (0 when not meaningful).
    pub elements: u64,
}

impl Record {
    /// Throughput in million elements per second (`None` if no element
    /// count was declared).
    #[must_use]
    pub fn meps(&self) -> Option<f64> {
        if self.elements == 0 {
            return None;
        }
        Some(self.elements as f64 / self.median_ns * 1e3)
    }
}

/// A named group of benchmarks, written to `BENCH_<name>.json` on
/// [`Bench::finish`].
#[derive(Debug)]
pub struct Bench {
    name: String,
    records: Vec<Record>,
    metrics: Vec<(String, f64)>,
}

impl Bench {
    /// Starts a benchmark group.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        eprintln!("== bench group {name} ==");
        Self {
            name,
            records: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Effective sample count after `BENCH_QUICK` scaling.
    #[must_use]
    pub fn scaled(samples: usize) -> usize {
        if std::env::var_os("BENCH_QUICK").is_some() {
            (samples / 5).max(1)
        } else {
            samples.max(1)
        }
    }

    /// Measures `f` over `samples` iterations (after one warmup call)
    /// and records the median/min time. Returns the median in ns.
    pub fn sample<R>(&mut self, id: &str, samples: usize, mut f: impl FnMut() -> R) -> f64 {
        self.sample_elements(id, samples, 0, &mut f)
    }

    /// Like [`Bench::sample`], declaring `elements` processed per
    /// iteration so a throughput is reported.
    pub fn sample_elements<R>(
        &mut self,
        id: &str,
        samples: usize,
        elements: u64,
        f: &mut impl FnMut() -> R,
    ) -> f64 {
        let mut run = || {
            black_box(f());
        };
        self.sample_interleaved(&mut [(id, &mut run)], samples, elements)[0]
    }

    /// Measures several workloads in one alternating loop (`a`, `b`,
    /// `a`, `b`, …, after one warmup call each), so host drift during
    /// the run moves every median alike and ratios between them stay
    /// steady. Records each and returns the medians in ns, in order.
    pub fn sample_interleaved(
        &mut self,
        runs: &mut [(&str, &mut dyn FnMut())],
        samples: usize,
        elements: u64,
    ) -> Vec<f64> {
        let samples = Self::scaled(samples);
        for (_, f) in runs.iter_mut() {
            f(); // warmup
        }
        let mut times = vec![Vec::with_capacity(samples); runs.len()];
        for _ in 0..samples {
            for ((_, f), t) in runs.iter_mut().zip(&mut times) {
                let start = Instant::now();
                f();
                t.push(start.elapsed().as_nanos() as f64);
            }
        }
        let mut medians = Vec::new();
        for ((id, _), mut times) in runs.iter().zip(times) {
            times.sort_by(f64::total_cmp);
            let rec = Record {
                id: id.to_string(),
                median_ns: times[times.len() / 2],
                min_ns: times[0],
                samples,
                elements,
            };
            match rec.meps() {
                Some(m) => eprintln!(
                    "{id:<40} {:>12.1} ns/iter  {m:>10.2} Melem/s",
                    rec.median_ns
                ),
                None => eprintln!("{id:<40} {:>12.1} ns/iter", rec.median_ns),
            }
            medians.push(rec.median_ns);
            self.records.push(rec);
        }
        medians
    }

    /// The median of a previously recorded id (for speedup reporting).
    #[must_use]
    pub fn median_of(&self, id: &str) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.median_ns)
    }

    /// Records a derived scalar metric (e.g. a speedup ratio) emitted in
    /// the JSON's `metrics` array, separate from timed samples.
    pub fn metric(&mut self, id: &str, value: f64) {
        eprintln!("{id:<40} {value:>12.2}");
        self.metrics.push((id.to_string(), value));
    }

    /// The directory benchmark artifacts land in: `$BENCH_DIR` if set,
    /// otherwise the workspace root (so the trajectory is invocation-
    /// directory independent).
    #[must_use]
    pub fn artifact_dir() -> String {
        std::env::var("BENCH_DIR")
            .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string())
    }

    /// Writes `BENCH_<name>.json` into [`Bench::artifact_dir`] and
    /// prints the summary line.
    pub fn finish(self) {
        let mut json = String::new();
        json.push_str(&format!("{{\"bench\":\"{}\",\"results\":[", self.name));
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"id\":\"{}\",\"median_ns\":{:.1},\"min_ns\":{:.1},\"samples\":{},\"elements\":{}}}",
                r.id, r.median_ns, r.min_ns, r.samples, r.elements
            ));
        }
        json.push_str("],\"metrics\":[");
        for (i, (id, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!("{{\"id\":\"{id}\",\"value\":{value:.3}}}"));
        }
        json.push_str("]}\n");
        let path = format!("{}/BENCH_{}.json", Self::artifact_dir(), self.name);
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports() {
        let mut b = Bench::new("harness_selftest");
        let m = b.sample_elements("noop", 5, 64, &mut || 1 + 1);
        assert!(m >= 0.0);
        assert_eq!(b.records.len(), 1);
        assert!(b.records[0].meps().is_some());
        assert_eq!(b.median_of("noop"), Some(b.records[0].median_ns));
        assert_eq!(b.median_of("missing"), None);
        // finish() is deliberately not called: the unit test must not
        // write a BENCH_*.json artifact into the workspace.
    }

    #[test]
    fn quick_scaling_floors_at_one() {
        assert!(Bench::scaled(0) >= 1);
    }
}
