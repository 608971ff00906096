//! Event sinks: where scoped emissions go.
//!
//! A sink receives `(span, event)` pairs — the span identifies the
//! emitting job (id, label) and carries a per-job sequence number, so
//! traces from a concurrent workload can be demultiplexed and ordered
//! per job even though sinks interleave across jobs. Sink guarantees:
//!
//! * **Lock-cheap** — one short mutex hold per event, no allocation on
//!   the hot path beyond the rendered record itself;
//! * **Never fallible** — the JSONL sink only buffers (writing to
//!   disk is an explicit, post-execution call);
//! * **Never on the simulated clock** — sinks do not charge
//!   `SimClock`, so enabling tracing cannot change a query's simulated
//!   cost (asserted by the overhead test).

use std::fmt::Write as _;
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
}
