//! Event sinks for `scdp run --trace/--progress` and the
//! `scdp trace summarize` aggregation.
//!
//! A trace file is JSONL: one [`ObsEvent`] object per line, written by
//! [`trace_sink`] in the stable `to_json_line` form. [`progress_sink`]
//! renders the same stream live on stderr (shard bar, faults/s, drop
//! rate, ETA), and [`summarize`] folds a saved trace back into a
//! human-readable report — per-shard outcome rows whose fault counts
//! sum to the merged campaign report's universe.

use scdp_campaign::json::{self, Json};
use scdp_campaign::{EventSink, ObsEvent};
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A sink appending one JSONL line per event to `path` (truncating any
/// existing file). Safe to call from concurrent emitters.
///
/// # Errors
///
/// Returns a message when the file cannot be created.
pub fn trace_sink(path: &str) -> Result<EventSink, String> {
    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let file = Mutex::new(file);
    let path = path.to_string();
    Ok(Arc::new(move |event: &ObsEvent| {
        let mut line = event.to_json_line();
        line.push('\n');
        let mut f = file.lock().expect("trace file lock");
        if let Err(e) = f.write_all(line.as_bytes()) {
            eprintln!("trace: write {path}: {e}");
        }
    }))
}

/// Live-progress rendering state behind the [`progress_sink`] closure.
struct ProgressState {
    started: Instant,
    netlist_shown: bool,
    saw_shards: bool,
    done: u32,
    total: u32,
    faults: u64,
    dropped: u64,
    simulated: u64,
    shard_ms: u64,
}

/// A sink rendering live campaign progress on stderr: one line per
/// finished shard with a completion bar, cumulative faults-per-second,
/// drop rate and a wall-clock ETA (plus a netlist line up front and a
/// summary line for unsharded runs).
#[must_use]
pub fn progress_sink() -> EventSink {
    let state = Mutex::new(ProgressState {
        started: Instant::now(),
        netlist_shown: false,
        saw_shards: false,
        done: 0,
        total: 0,
        faults: 0,
        dropped: 0,
        simulated: 0,
        shard_ms: 0,
    });
    Arc::new(move |event: &ObsEvent| {
        let mut s = state.lock().expect("progress state lock");
        match event {
            ObsEvent::NetlistCompiled {
                name,
                gates,
                faults,
            } if !s.netlist_shown => {
                s.netlist_shown = true;
                eprintln!("progress: netlist `{name}` — {gates} gates, {faults} faults");
            }
            // A runner is driving: suppress the per-shard campaigns'
            // own finish lines in favour of the shard bar.
            ObsEvent::ShardStarted { .. } => s.saw_shards = true,
            ObsEvent::ShardFinished {
                of,
                state: outcome,
                faults,
                detected: _,
                dropped,
                simulated,
                elapsed_ms,
                ..
            } => {
                s.saw_shards = true;
                s.total = *of;
                s.done += 1;
                s.faults += faults;
                s.dropped += dropped;
                s.simulated += simulated;
                s.shard_ms += elapsed_ms;
                let bar = bar(s.done, s.total);
                let fps = if s.shard_ms > 0 {
                    format!(
                        "{:.0} faults/s",
                        s.faults as f64 * 1000.0 / s.shard_ms as f64
                    )
                } else {
                    "- faults/s".to_string()
                };
                let drop_rate = if s.faults > 0 {
                    format!("{:.1}%", s.dropped as f64 * 100.0 / s.faults as f64)
                } else {
                    "-".to_string()
                };
                let eta = if s.done < s.total {
                    let per_shard = s.started.elapsed().as_secs_f64() / f64::from(s.done);
                    format!("{:.1}s", per_shard * f64::from(s.total - s.done))
                } else {
                    "done".to_string()
                };
                eprintln!(
                    "progress: [{bar}] {}/{} shards ({outcome}) · {} situations · {fps} · drop {drop_rate} · ETA {eta}",
                    s.done, s.total, s.simulated,
                );
            }
            ObsEvent::CampaignFinished {
                simulated,
                elapsed_ms,
            } if !s.saw_shards => {
                eprintln!(
                    "progress: campaign finished — {simulated} situations in {elapsed_ms} ms"
                );
            }
            _ => {}
        }
    })
}

/// A 20-cell completion bar.
fn bar(done: u32, total: u32) -> String {
    const CELLS: u32 = 20;
    let filled = (done.min(total) * CELLS).checked_div(total).unwrap_or(0);
    (0..CELLS)
        .map(|i| if i < filled { '#' } else { '.' })
        .collect()
}

/// Fans one event stream out to several sinks; `None` when there are
/// none (so callers skip the plumbing entirely).
#[must_use]
pub fn fan_out(mut sinks: Vec<EventSink>) -> Option<EventSink> {
    match sinks.len() {
        0 => None,
        1 => sinks.pop(),
        _ => Some(Arc::new(move |event: &ObsEvent| {
            for sink in &sinks {
                sink(event);
            }
        })),
    }
}

/// One `shard_finished` trace record.
struct ShardRow {
    shard: u64,
    of: u64,
    state: String,
    faults: u64,
    detected: u64,
    dropped: u64,
    simulated: u64,
    elapsed_ms: u64,
}

/// Summarises a JSONL trace: event counts by kind, span totals, and a
/// per-shard outcome table whose fault counts sum to the campaign's
/// merged universe.
///
/// # Errors
///
/// Returns a message (with the line number) for unparseable lines or
/// lines without an `"event"` field.
pub fn summarize(text: &str) -> Result<String, String> {
    let mut kinds: Vec<(String, u64)> = Vec::new();
    let mut spans: Vec<(String, u64, u64)> = Vec::new();
    let mut shards: Vec<ShardRow> = Vec::new();
    let mut events = 0u64;
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let kind = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no \"event\" field", n + 1))?;
        events += 1;
        match kinds.iter_mut().find(|(k, _)| k == kind) {
            Some((_, count)) => *count += 1,
            None => kinds.push((kind.to_string(), 1)),
        }
        let num = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        match kind {
            "span" => {
                let path = v
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {}: span without path", n + 1))?
                    .to_string();
                let ns = num("elapsed_ns");
                match spans.iter_mut().find(|(p, ..)| *p == path) {
                    Some((_, count, total)) => {
                        *count += 1;
                        *total += ns;
                    }
                    None => spans.push((path, 1, ns)),
                }
            }
            "shard_finished" => shards.push(ShardRow {
                shard: num("shard"),
                of: num("of"),
                state: v
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                faults: num("faults"),
                detected: num("detected"),
                dropped: num("dropped"),
                simulated: num("simulated"),
                elapsed_ms: num("elapsed_ms"),
            }),
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "{events} events");
    for (kind, count) in &kinds {
        let _ = writeln!(out, "  {count:>6} × {kind}");
    }
    if !spans.is_empty() {
        spans.sort_by(|a, b| a.0.cmp(&b.0));
        let _ = writeln!(out, "spans:");
        for (path, count, total_ns) in &spans {
            let _ = writeln!(
                out,
                "  {path:<24} {count:>4} × total {:.1} ms",
                *total_ns as f64 / 1e6
            );
        }
        // Per root span: the time none of its direct children covers.
        for (root, _, root_ns) in spans.iter().filter(|(p, ..)| !p.contains('/')) {
            let children: u64 = spans
                .iter()
                .filter(|(p, ..)| {
                    p.strip_prefix(root.as_str())
                        .and_then(|rest| rest.strip_prefix('/'))
                        .is_some_and(|child| !child.contains('/'))
                })
                .map(|&(_, _, ns)| ns)
                .sum();
            let gap_ms = (*root_ns as f64 - children as f64) / 1e6;
            let _ = writeln!(
                out,
                "  {:<24}        total {gap_ms:.1} ms ({:.1}% of {root})",
                format!("{root} unattributed"),
                gap_ms * 1e8 / (*root_ns).max(1) as f64
            );
        }
    }
    if !shards.is_empty() {
        shards.sort_by_key(|r| r.shard);
        let _ = writeln!(
            out,
            "shards:\n  {:<9} {:<8} {:>7} {:>9} {:>8} {:>10} {:>8}",
            "shard", "state", "faults", "detected", "dropped", "simulated", "ms"
        );
        let mut faults = 0u64;
        let mut detected = 0u64;
        let mut dropped = 0u64;
        let mut simulated = 0u64;
        let mut ms = 0u64;
        for r in &shards {
            let _ = writeln!(
                out,
                "  {:<9} {:<8} {:>7} {:>9} {:>8} {:>10} {:>8}",
                format!("{}/{}", r.shard, r.of),
                r.state,
                r.faults,
                r.detected,
                r.dropped,
                r.simulated,
                r.elapsed_ms
            );
            faults += r.faults;
            detected += r.detected;
            dropped += r.dropped;
            simulated += r.simulated;
            ms += r.elapsed_ms;
        }
        let fps = if ms > 0 {
            format!(", {:.0} faults/s", faults as f64 * 1000.0 / ms as f64)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "total: {faults} faults, {detected} detected, {dropped} dropped, \
             {simulated} situations{fps}"
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_folds_spans_and_shards() {
        let trace = "\
{\"event\":\"campaign_started\",\"backend\":\"gate_level\",\"fault_model\":\"structural\"}
{\"event\":\"span\",\"path\":\"campaign/simulate\",\"elapsed_ns\":2000000}
{\"event\":\"span\",\"path\":\"campaign/simulate\",\"elapsed_ns\":1000000}
{\"event\":\"shard_finished\",\"shard\":0,\"of\":2,\"state\":\"ran\",\"faults\":10,\"detected\":8,\"dropped\":1,\"simulated\":640,\"elapsed_ms\":4}
{\"event\":\"shard_finished\",\"shard\":1,\"of\":2,\"state\":\"resumed\",\"faults\":12,\"detected\":9,\"dropped\":0,\"simulated\":768,\"elapsed_ms\":0}
";
        let out = summarize(trace).expect("valid trace");
        assert!(out.starts_with("5 events"), "{out}");
        assert!(out.contains("campaign/simulate"), "{out}");
        assert!(out.contains("2 × total 3.0 ms"), "{out}");
        assert!(
            out.contains("total: 22 faults, 17 detected, 1 dropped, 1408 situations"),
            "{out}"
        );
    }

    #[test]
    fn summarize_reports_the_root_time_no_child_span_covers() {
        let trace = "\
{\"event\":\"span\",\"path\":\"campaign/elaborate\",\"elapsed_ns\":1000000}
{\"event\":\"span\",\"path\":\"campaign/simulate/cone\",\"elapsed_ns\":4000000}
{\"event\":\"span\",\"path\":\"campaign/simulate\",\"elapsed_ns\":5000000}
{\"event\":\"span\",\"path\":\"campaign\",\"elapsed_ns\":8000000}
";
        let out = summarize(trace).expect("valid trace");
        // 8 ms root − (1 + 5) ms direct children; the grandchild is
        // already inside `campaign/simulate`.
        assert!(
            out.contains("campaign unattributed")
                && out.contains("total 2.0 ms (25.0% of campaign)"),
            "{out}"
        );
    }

    #[test]
    fn summarize_rejects_garbage_with_line_numbers() {
        let err = summarize("{\"event\":\"span\",\"path\":\"x\",\"elapsed_ns\":1}\nnot json\n")
            .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = summarize("{\"no_event\": true}\n").unwrap_err();
        assert!(err.contains("no \"event\" field"), "{err}");
    }

    #[test]
    fn trace_sink_writes_parseable_jsonl() {
        let path = std::env::temp_dir().join(format!("scdp_trace_{}.jsonl", std::process::id()));
        let path_s = path.display().to_string();
        {
            let sink = trace_sink(&path_s).expect("create");
            sink(&ObsEvent::SpanClosed {
                path: "campaign".into(),
                elapsed_ns: 42,
            });
            sink(&ObsEvent::ShardStarted {
                shard: 0,
                of: 1,
                faults: 0,
            });
        }
        let text = std::fs::read_to_string(&path).expect("trace written");
        assert_eq!(text.lines().count(), 2);
        summarize(&text).expect("round-trips through the summarizer");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(0, 4), "....................");
        assert_eq!(bar(2, 4), "##########..........");
        assert_eq!(bar(4, 4), "####################");
        assert_eq!(bar(1, 0), "....................");
    }
}
