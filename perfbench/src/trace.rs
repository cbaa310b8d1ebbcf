//! In-memory spans of the traced run, written out once it ends.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions. Spans the product itself reports through its
//! event stream (`ObsEvent::SpanClosed`, `ShardStarted`/`ShardFinished`)
//! are imported under the benchmark span of the call that produced
//! them. A span's layer is its name up to the first `.`; the root span
//! of an operation is named `op`, so its self time is the part of the
//! operation no layer accounts for.

use scdp_campaign::{EventSink, ObsEvent};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval of one operation.
#[derive(Clone, Debug)]
pub struct Span {
    /// The operation every span of one request shares.
    pub op: u64,
    /// Index of the enclosing span in [`Trace::spans`].
    pub parent: Option<usize>,
    /// `layer.what`.
    pub name: String,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span belongs to.
    #[must_use]
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Product events captured with their arrival time.
pub type EventLog = Arc<Mutex<Vec<(Instant, ObsEvent)>>>;

/// A fresh event log and the sink that fills it.
#[must_use]
pub fn event_log() -> (EventLog, EventSink) {
    let log: EventLog = Arc::new(Mutex::new(Vec::new()));
    let sink_log = Arc::clone(&log);
    let sink: EventSink = Arc::new(move |e: &ObsEvent| {
        sink_log
            .lock()
            .expect("event log poisoned by a panicking writer")
            .push((Instant::now(), e.clone()));
    });
    (log, sink)
}

/// The span store.
pub struct Trace {
    t0: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace starting now.
    #[must_use]
    pub fn new() -> Self {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, op: u64, parent: Option<usize>, name: &str) -> usize {
        let now = self.ns(Instant::now());
        self.push_span(op, parent, name, now, now)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span with known bounds.
    pub fn push_span(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            op,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// The duration of span `id`, ms.
    #[must_use]
    pub fn ms(&self, id: usize) -> f64 {
        self.spans[id].dur() as f64 / 1e6
    }

    /// Imports the product's events under span `parent`: each fresh
    /// shard becomes a `campaign.shard` span, each campaign run a
    /// `campaign.run` span, and the run's stage spans become its
    /// children, named by the layer that does the stage's work.
    pub fn import(&mut self, op: u64, parent: usize, log: &EventLog) {
        let events = std::mem::take(&mut *log.lock().expect("event log poisoned"));
        let mut shard: Option<usize> = None;
        let mut stages: Vec<(String, u64, u64)> = Vec::new();
        for (at, event) in events {
            let now = self.ns(at);
            match event {
                ObsEvent::ShardStarted { .. } => {
                    shard = Some(self.push_span(op, Some(parent), "campaign.shard", now, now));
                }
                ObsEvent::ShardFinished { state, .. } if state == "ran" => {
                    if let Some(id) = shard.take() {
                        self.spans[id].end_ns = now;
                    }
                }
                ObsEvent::SpanClosed { path, elapsed_ns } => {
                    let start = now.saturating_sub(elapsed_ns);
                    if path == "campaign" {
                        let run = self.push_span(
                            op,
                            Some(shard.unwrap_or(parent)),
                            "campaign.run",
                            start,
                            now,
                        );
                        for (name, s, e) in stages.drain(..) {
                            self.push_span(op, Some(run), &name, s, e);
                        }
                    } else {
                        let stage = path.strip_prefix("campaign/").unwrap_or(&path);
                        stages.push((stage_name(stage), start, now));
                    }
                }
                _ => {}
            }
        }
    }

    /// Self time per layer of operation `op`, ns: each span's duration
    /// minus the part its direct children cover. The root's self time
    /// is filed under `op`.
    #[must_use]
    pub fn self_times(&self, op: u64) -> BTreeMap<String, u64> {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.op == op) {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.op == op) {
            let own = s
                .dur()
                .saturating_sub(child_ns.get(&i).copied().unwrap_or(0));
            *out.entry(s.layer().to_string()).or_default() += own;
        }
        out
    }

    /// Every span as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"op\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// The trace name of a product campaign stage: the layer whose code
/// does the stage's work.
pub(crate) fn stage_name(stage: &str) -> String {
    match stage {
        "elaborate" => "hls.elaborate".to_string(),
        "compile" | "simulate" => format!("sim.{stage}"),
        "deduce" | "collapse" => format!("analyze.{stage}"),
        other => format!("campaign.{other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Trace::new();
        let root = t.push_span(7, None, "op", 0, 100);
        let run = t.push_span(7, Some(root), "campaign.run", 10, 90);
        t.push_span(7, Some(run), "sim.simulate", 20, 80);
        t.push_span(8, None, "op", 0, 5);
        let st = t.self_times(7);
        assert_eq!(st["op"], 20);
        assert_eq!(st["campaign"], 20);
        assert_eq!(st["sim"], 60);
    }
}
