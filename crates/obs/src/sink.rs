//! Event sinks: where scoped emissions go.
//!
//! A sink receives `(span, event)` pairs — the span identifies the
//! emitting job (id, label) and carries a per-job sequence number, so
//! traces from a concurrent workload can be demultiplexed and ordered
//! per job even though sinks interleave across jobs. Sink guarantees:
//!
//! * **Lock-cheap** — one short mutex hold per event, no allocation on
//!   the hot path beyond the rendered record itself;
//! * **Never fallible** — a full ring overwrites its oldest record, a
//!   JSONL sink only buffers (writing to disk is an explicit,
//!   post-execution call);
//! * **Never on the simulated clock** — sinks do not charge
//!   `SimClock`, so enabling tracing cannot change a query's simulated
//!   cost (asserted by the overhead test).

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::ObsEvent;

/// Identity of the emitting job, attached to every record.
#[derive(Debug, Clone)]
pub struct SpanInfo {
    /// Workload job index (0 for ad-hoc queries).
    pub job: u64,
    /// Human label (query name); empty for unlabeled spans.
    pub label: Arc<str>,
    /// Per-span monotone sequence number (orders records of one job).
    pub seq: u64,
}

/// A destination for observability events.
pub trait ObsSink: Send + Sync {
    fn emit(&self, span: &SpanInfo, event: &ObsEvent);
}

/// One structured record as captured by [`RingSink`].
#[derive(Debug, Clone)]
pub struct TraceRecord {
    pub job: u64,
    pub label: Arc<str>,
    pub seq: u64,
    pub event: ObsEvent,
}

/// A bounded in-memory ring of structured records: the newest
/// `capacity` events, oldest evicted first. Cheap enough to leave on.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<TraceRecord>>,
    total: AtomicU64,
}

impl RingSink {
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 1024))),
            total: AtomicU64::new(0),
        }
    }

    /// Every event ever emitted (including evicted ones).
    pub fn total_emitted(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Drop all retained records (the total keeps counting).
    pub fn clear(&self) {
        self.buf.lock().clear();
    }
}

impl ObsSink for RingSink {
    fn emit(&self, span: &SpanInfo, event: &ObsEvent) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(TraceRecord {
            job: span.job,
            label: span.label.clone(),
            seq: span.seq,
            event: event.clone(),
        });
    }
}

/// Buffers events as JSONL lines:
/// `{"job":0,"label":"Q10","seq":3,"event":"collector",…}`.
/// Lines accumulate in memory; [`JsonlSink::write_to`] persists them.
#[derive(Debug, Default)]
pub struct JsonlSink {
    lines: Mutex<Vec<String>>,
}

impl JsonlSink {
    pub fn new() -> JsonlSink {
        JsonlSink::default()
    }

    /// Number of buffered lines.
    pub fn len(&self) -> usize {
        self.lines.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the buffered lines, in emission order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().clone()
    }

    /// All lines joined with `\n` (trailing newline included when
    /// non-empty).
    pub fn dump(&self) -> String {
        let lines = self.lines.lock();
        let mut out = String::new();
        for l in lines.iter() {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Write the buffered trace to a file.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.dump())
    }

    pub fn clear(&self) {
        self.lines.lock().clear();
    }
}

impl ObsSink for JsonlSink {
    fn emit(&self, span: &SpanInfo, event: &ObsEvent) {
        let mut line = String::with_capacity(96);
        let _ = write!(line, "{{\"job\":{},\"label\":", span.job);
        crate::json::write_json_string(&mut line, &span.label);
        let _ = write!(line, ",\"seq\":{},", span.seq);
        event.write_json_fields(&mut line);
        line.push('}');
        self.lines.lock().push(line);
    }
}

/// Fans one emission out to several sinks (e.g. ring + JSONL).
pub struct TeeSink {
    sinks: Vec<Arc<dyn ObsSink>>,
}

impl TeeSink {
    pub fn new(sinks: Vec<Arc<dyn ObsSink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl ObsSink for TeeSink {
    fn emit(&self, span: &SpanInfo, event: &ObsEvent) {
        for s in &self.sinks {
            s.emit(span, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64) -> SpanInfo {
        SpanInfo {
            job: 2,
            label: Arc::from("Q10"),
            seq,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_total() {
        let ring = RingSink::new(2);
        for i in 0..3 {
            ring.emit(
                &span(i),
                &ObsEvent::SegmentStart {
                    attempt: i as u32 + 1,
                    plan_nodes: 5,
                },
            );
        }
        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 1, "oldest record evicted");
        assert_eq!(ring.total_emitted(), 3);
    }

    #[test]
    fn jsonl_lines_are_parseable_by_the_extractor() {
        let sink = JsonlSink::new();
        sink.emit(
            &span(7),
            &ObsEvent::Collector {
                node: 4,
                observed_rows: 1200,
                estimated_rows: 100.0,
                inaccuracy: 12.0,
                complete: true,
                progress: false,
            },
        );
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        let l = &lines[0];
        assert_eq!(
            crate::json::json_str(l, "event").as_deref(),
            Some("collector")
        );
        assert_eq!(crate::json::json_str(l, "label").as_deref(), Some("Q10"));
        assert_eq!(crate::json::json_u64(l, "job"), Some(2));
        assert_eq!(crate::json::json_u64(l, "seq"), Some(7));
        assert_eq!(crate::json::json_u64(l, "observed_rows"), Some(1200));
        assert_eq!(crate::json::json_f64(l, "inaccuracy"), Some(12.0));
    }

    #[test]
    fn tee_reaches_every_sink() {
        let ring = Arc::new(RingSink::new(8));
        let jsonl = Arc::new(JsonlSink::new());
        let tee = TeeSink::new(vec![ring.clone(), jsonl.clone()]);
        tee.emit(&span(0), &ObsEvent::QueryStart { mode: "full" });
        assert_eq!(ring.total_emitted(), 1);
        assert_eq!(jsonl.len(), 1);
    }
}
