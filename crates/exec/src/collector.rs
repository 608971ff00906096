//! The statistics-collector operator (§2.2, §3.1).
//!
//! "The statistics-collector operator was added as a regular streamed
//! operator (similar to the filter operator). It took a stream of
//! tuples as its input and produced exactly the same stream of tuples
//! as its output." Collection is pure CPU: cardinality and average
//! tuple size always; reservoir-sampled histograms and FM distinct
//! sketches for the columns the SCIA selected. When the input is
//! exhausted the collector finalizes and reports to the monitor — the
//! paper's "message to the dispatcher containing the statistics".

use std::collections::HashMap;

use mq_common::{Result, Row, Schema};
use mq_plan::{CollectorSpec, NodeId};
use mq_stats::{HistogramKind, ObservedColumn, StreamStats, HISTOGRAM_BUCKETS, RESERVOIR_SIZE};

use crate::context::ExecContext;
use crate::Operator;

/// Statistics observed at one collection site.
#[derive(Debug, Clone)]
pub struct ObservedStats {
    /// The collector's plan-node id.
    pub node: NodeId,
    /// Exact row count.
    pub rows: u64,
    /// Exact average encoded row width (bytes).
    pub avg_row_bytes: f64,
    /// Per-column observations, keyed by the spec's column name.
    pub columns: HashMap<String, ObservedColumn>,
    /// Whether the collector drained its input to exhaustion. `false`
    /// when the consumer stopped early (e.g. a Limit above closed the
    /// pipeline), in which case `rows` is only a lower bound. Statistics
    /// feedback must ignore incomplete observations.
    pub complete: bool,
}

/// The raw, still-mergeable state of one collector run — what a
/// capture-mode finalize deposits into
/// [`crate::ExecContext::collector_capture`]. The partitioned driver
/// merges the parts of every bucket run of the same site
/// ([`CollectorParts::merge`]) and finishes them into one [`ObservedStats`].
#[derive(Debug, Clone)]
pub struct CollectorParts {
    /// The collector's plan-node id.
    pub node: NodeId,
    /// The specs, in the order `stream` watches their columns.
    pub specs: Vec<CollectorSpec>,
    /// Rows, bytes and one accumulator per spec.
    pub stream: StreamStats,
    /// Whether this run drained its input.
    pub complete: bool,
}

impl CollectorParts {
    /// Fold another run of the same site into this one. The merged
    /// parts describe the concatenation of both streams; `complete`
    /// only if every constituent run was.
    pub fn merge(&mut self, other: &CollectorParts) {
        debug_assert_eq!(self.node, other.node);
        self.stream.merge(&other.stream);
        self.complete &= other.complete;
    }

    /// Finish the (possibly merged) parts into the [`ObservedStats`]
    /// the monitor consumes — the one finalize shared by the in-stream
    /// collector and the partitioned driver's barrier merge.
    pub fn finish(&self) -> ObservedStats {
        let observed = self
            .stream
            .finish(HistogramKind::MaxDiff, HISTOGRAM_BUCKETS);
        let columns = self
            .specs
            .iter()
            .zip(observed)
            .map(|(spec, mut obs)| {
                if !spec.histogram {
                    obs.histogram = None;
                }
                // `distinct` stays populated either way: once the
                // sketch exists the estimate is free, and extra
                // information never hurts the controller.
                (spec.column.clone(), obs)
            })
            .collect();
        ObservedStats {
            node: self.node,
            rows: self.stream.rows(),
            avg_row_bytes: self.stream.avg_row_bytes(),
            columns,
            complete: self.complete,
        }
    }
}

/// Pass-through operator that observes the stream.
pub struct StatsCollectorExec {
    input: Box<dyn Operator>,
    schema: Schema,
    parts: CollectorParts,
    bound: bool,
    reported: bool,
}

impl StatsCollectorExec {
    /// Create a collector for the given specs over the input schema.
    pub fn new(
        node: NodeId,
        input: Box<dyn Operator>,
        specs: Vec<CollectorSpec>,
        schema: Schema,
    ) -> StatsCollectorExec {
        StatsCollectorExec {
            input,
            schema,
            parts: CollectorParts {
                node,
                specs,
                stream: StreamStats::new([], RESERVOIR_SIZE),
                complete: false,
            },
            bound: false,
            reported: false,
        }
    }

    /// Resolve each spec's column position and start the stream.
    fn bind(&mut self) -> Result<()> {
        if self.bound {
            return Ok(());
        }
        let node = self.parts.node.0 as u64;
        let mut cols = Vec::with_capacity(self.parts.specs.len());
        for (i, spec) in self.parts.specs.iter().enumerate() {
            let pos = self.schema.index_of(&spec.column)?;
            cols.push((pos, 0x5EED ^ (node << 8) ^ i as u64));
        }
        self.parts.stream = StreamStats::new(cols, RESERVOIR_SIZE);
        self.bound = true;
        Ok(())
    }

    fn finalize(&mut self, ctx: &ExecContext, complete: bool) -> Result<()> {
        if self.reported {
            return Ok(());
        }
        self.reported = true;
        self.parts.complete = complete;
        if let Some(capture) = &ctx.collector_capture {
            // Capture mode: deposit raw, still-mergeable state; the
            // partitioned driver merges bucket runs and reports once.
            capture.borrow_mut().push(self.parts.clone());
            return Ok(());
        }
        ctx.notify_collector(self.parts.finish())
    }
}

impl Operator for StatsCollectorExec {
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.bind()?;
        self.input.open(ctx)
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        match self.input.next(ctx)? {
            Some(row) => {
                ctx.clock.add_cpu(1 + self.parts.stream.observe(&row));
                // Provisional progress: the observed count is a lower
                // bound on the final cardinality — cheap, and it lets
                // the controller react *before* a downstream build
                // overflows (§2.3 extension).
                let rows = self.parts.stream.rows();
                if rows.is_multiple_of(1024) {
                    ctx.notify_progress(self.parts.node, rows)?;
                }
                Ok(Some(row))
            }
            None => {
                self.finalize(ctx, true)?;
                Ok(None)
            }
        }
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        // Report even if the consumer stopped early (e.g. Limit):
        // partial statistics are still observations — but flagged
        // incomplete so feedback ignores them.
        self.finalize(ctx, false)?;
        self.input.close(ctx)
    }
}
