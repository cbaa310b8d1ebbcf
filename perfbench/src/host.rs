//! Host facts and process counters recorded beside every run, so a run
//! taken while the host was slow shows it next to its numbers.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Kernel clock ticks per second of the `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every mainstream Linux target).
const USER_HZ: f64 = 100.0;

/// Process-wide counters sampled from `/proc`.
#[derive(Copy, Clone, Debug, Default)]
pub struct ProcCounters {
    /// Minor page faults of the whole process.
    pub minflt: u64,
    /// User CPU time of the whole process, ms.
    pub user_ms: f64,
    /// System CPU time of the whole process, ms.
    pub sys_ms: f64,
    /// Time the process's live threads spent runnable but waiting for a
    /// CPU, ms (sum of `schedstat` run delays).
    pub runq_ms: f64,
}

impl ProcCounters {
    /// Samples the counters now. Missing `/proc` files read as zero.
    #[must_use]
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, which may hold spaces.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // `rest` starts at field 3 (state): minflt is field 10, utime 14, stime 15.
        let field =
            |n: usize| -> u64 { fields.get(n - 3).and_then(|v| v.parse().ok()).unwrap_or(0) };
        let mut runq_ns = 0u64;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let text =
                    std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
                runq_ns += text
                    .split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        ProcCounters {
            minflt: field(10),
            user_ms: field(14) as f64 * 1000.0 / USER_HZ,
            sys_ms: field(15) as f64 * 1000.0 / USER_HZ,
            runq_ms: runq_ns as f64 / 1e6,
        }
    }

    /// The counters accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &ProcCounters) -> ProcCounters {
        ProcCounters {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
            runq_ms: self.runq_ms - earlier.runq_ms,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &ProcCounters) {
        self.minflt += other.minflt;
        self.user_ms += other.user_ms;
        self.sys_ms += other.sys_ms;
        self.runq_ms += other.runq_ms;
    }
}

/// The process's peak resident set (`VmHWM`), MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The fixed host probe: an ALU-only loop and a touch-and-free of
/// 128 MiB of fresh pages, timed in ms. Returns a JSON object.
#[must_use]
pub fn probe() -> String {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..50_000_000u32 {
        x = black_box(x.rotate_left(7) ^ x.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    }
    let alu_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut pages = vec![0u8; 128 << 20];
    for i in (0..pages.len()).step_by(4096) {
        pages[i] = i as u8;
    }
    black_box(&pages);
    drop(pages);
    let touch_ms = t.elapsed().as_secs_f64() * 1e3;
    format!(
        "{{\"alu_ms\": {alu_ms:.3}, \"touch128_ms\": {touch_ms:.3}, \"check\": {}}}",
        x & 1
    )
}

/// Runs [`probe`] in a child process (this executable with
/// `--host-probe`), so its 128 MiB never counts in this process's peak
/// resident set. Returns the child's JSON, or a JSON string naming the
/// failure.
#[must_use]
pub fn probe_in_child() -> String {
    let out = std::env::current_exe()
        .and_then(|exe| std::process::Command::new(exe).arg("--host-probe").output());
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        Ok(o) => format!("\"probe exited with {}\"", o.status),
        Err(e) => format!("\"probe failed: {e}\""),
    }
}

/// The run's host facts as a JSON object: CPU count, uptime, compiler,
/// source revision, workload and seed.
#[must_use]
pub fn facts(workload: &str, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let uptime_s = std::fs::read_to_string("/proc/uptime")
        .ok()
        .and_then(|u| {
            u.split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(-1.0);
    format!(
        "{{\"nproc\": {nproc}, \"uptime_s\": {uptime_s:.1}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \
         \"workload\": \"{workload}\", \"seed\": {seed}}}",
        env!("PERFBENCH_RUSTC"),
        git_rev(),
    )
}

/// The checked-out revision (`git rev-parse HEAD` in the working
/// directory, looking no higher than it), or `none` outside a git
/// checkout or without `git`.
fn git_rev() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "none".to_string())
}
