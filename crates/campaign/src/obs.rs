//! Run-scoped observability: the one lifecycle/telemetry context
//! behind every campaign spec shape.
//!
//! [`RunCtx`] owns the run's root [`Span`], its [`Recorder`] and the
//! structured [`EventSink`]. The three spec shapes (`CampaignSpec`,
//! `DatapathCampaignSpec`, `SeqDatapathCampaignSpec`) used to duplicate
//! the same `Instant::now()` → emit `Started` → run → patch
//! `elapsed_ms` → emit `Finished` choreography; they now share it here,
//! which makes it impossible by construction for a report to escape
//! with the `elapsed_ms: 0` placeholder — the only writer of
//! `elapsed_ms` is [`RunCtx::finish`], deriving it from the root span.
//!
//! Observers attach to a run through the structured [`EventSink`]
//! alone (`events(..)` on every spec shape): lifecycle events and one
//! [`ObsEvent::SpanClosed`] per closed stage span.

use crate::report::CampaignReport;
use crate::scenario::{Backend, FaultModel};
use scdp_obs::{EventSink, ObsEvent, Recorder, Span};
use std::sync::Arc;

/// The observability context of one campaign run.
pub(crate) struct RunCtx {
    recorder: Arc<Recorder>,
    root: Option<Span>,
    sink: Option<EventSink>,
    /// Embed a [`scdp_obs::TelemetrySnapshot`] in the finished report.
    record: bool,
}

impl RunCtx {
    /// Opens the root span and emits `CampaignStarted`. Call *after*
    /// validation so failed configs never announce a run.
    pub(crate) fn start(
        backend: Backend,
        fault_model: FaultModel,
        sink: Option<EventSink>,
        record: bool,
    ) -> RunCtx {
        let recorder = Arc::new(Recorder::new());
        let root = recorder.span("campaign", sink.clone());
        let ctx = RunCtx {
            recorder,
            root: Some(root),
            sink,
            record,
        };
        ctx.emit(&ObsEvent::CampaignStarted {
            backend: backend.label().to_string(),
            fault_model: fault_model.label().to_string(),
        });
        ctx
    }

    /// The run's recorder, when the spec asked for a telemetry section
    /// (`None` keeps the engine hot loops instrumentation-free).
    pub(crate) fn recorder(&self) -> Option<Arc<Recorder>> {
        self.record.then(|| Arc::clone(&self.recorder))
    }

    /// Opens a child span of the root (`campaign/<name>`).
    pub(crate) fn span(&self, name: &str) -> Span {
        self.root
            .as_ref()
            .expect("root span open until finish")
            .child(name)
    }

    /// Emits `NetlistCompiled`.
    pub(crate) fn netlist_compiled(&self, name: &str, gates: usize, faults: usize) {
        self.emit(&ObsEvent::NetlistCompiled {
            name: name.to_string(),
            gates: gates as u64,
            faults: faults as u64,
        });
    }

    /// Emits an event to the structured sink.
    pub(crate) fn emit(&self, event: &ObsEvent) {
        if let Some(sink) = &self.sink {
            sink(event);
        }
    }

    /// Records the collapse counters when telemetry is on:
    /// `collapse.sites_before` (original fault-group universe),
    /// `collapse.sites_after` (representative groups actually
    /// simulated) and `collapse.classes`.
    pub(crate) fn record_collapse(&self, before: usize, after: usize, classes: usize) {
        let Some(rec) = self.recorder() else {
            return;
        };
        rec.add("collapse.sites_before", before as u64);
        rec.add("collapse.sites_after", after as u64);
        rec.add("collapse.classes", classes as u64);
    }

    /// Records the deductive-pruning counters when telemetry is on:
    /// `deduce.untestable` (engine groups settled by an untestability
    /// proof) and `deduce.simulated` (groups that still went to the
    /// engine).
    pub(crate) fn record_deduce(&self, untestable: u64, simulated: u64) {
        let Some(rec) = self.recorder() else {
            return;
        };
        rec.add("deduce.untestable", untestable);
        rec.add("deduce.simulated", simulated);
    }

    /// Ends the run: closes the root span, stamps `elapsed_ms` from it
    /// (the single place that writes the field), embeds the telemetry
    /// snapshot when recording, and emits `CampaignFinished`.
    pub(crate) fn finish(mut self, report: &mut CampaignReport) {
        let root = self.root.take().expect("finish runs once");
        report.elapsed_ms = root.close() / 1_000_000;
        if self.record {
            let snap = self.recorder.snapshot();
            if !snap.is_empty() {
                report.telemetry = Some(snap);
            }
        }
        self.emit(&ObsEvent::CampaignFinished {
            simulated: report.simulated,
            elapsed_ms: report.elapsed_ms,
        });
    }
}
