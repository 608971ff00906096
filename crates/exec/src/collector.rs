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
use mq_stats::{
    ColumnAccumulator, HistogramKind, ObservedColumn, HISTOGRAM_BUCKETS, RESERVOIR_SIZE,
};

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
    /// The specs, parallel to `accs`.
    pub specs: Vec<CollectorSpec>,
    /// One accumulator per spec.
    pub accs: Vec<ColumnAccumulator>,
    /// Rows observed by this run.
    pub rows: u64,
    /// Encoded bytes observed by this run.
    pub bytes: u64,
    /// Whether this run drained its input.
    pub complete: bool,
}

impl CollectorParts {
    /// Fold another run of the same site into this one. The merged
    /// parts describe the concatenation of both streams; `complete`
    /// only if every constituent run was.
    pub fn merge(&mut self, other: &CollectorParts) {
        debug_assert_eq!(self.node, other.node);
        debug_assert_eq!(self.accs.len(), other.accs.len());
        for (a, b) in self.accs.iter_mut().zip(&other.accs) {
            a.merge(b);
        }
        self.rows += other.rows;
        self.bytes += other.bytes;
        self.complete &= other.complete;
    }

    /// Finish the (possibly merged) parts into the [`ObservedStats`]
    /// the monitor consumes.
    pub fn finish(&self) -> ObservedStats {
        finish_observed(
            self.node,
            &self.specs,
            &self.accs,
            self.rows,
            self.bytes,
            self.complete,
        )
    }
}

/// Build an [`ObservedStats`] from raw accumulators — the single
/// finalize recipe shared by the in-stream collector and the
/// partitioned driver's barrier merge.
pub fn finish_observed(
    node: NodeId,
    specs: &[CollectorSpec],
    accs: &[ColumnAccumulator],
    rows: u64,
    bytes: u64,
    complete: bool,
) -> ObservedStats {
    let mut columns = HashMap::new();
    for (spec, acc) in specs.iter().zip(accs) {
        let mut obs = acc.finish(HistogramKind::MaxDiff, HISTOGRAM_BUCKETS);
        if !spec.histogram {
            obs.histogram = None;
        }
        // `distinct` stays populated either way: once the sketch
        // exists the estimate is free, and extra information never
        // hurts the controller.
        columns.insert(spec.column.clone(), obs);
    }
    ObservedStats {
        node,
        rows,
        avg_row_bytes: if rows > 0 {
            bytes as f64 / rows as f64
        } else {
            0.0
        },
        columns,
        complete,
    }
}

/// Pass-through operator that observes the stream.
pub struct StatsCollectorExec {
    node: NodeId,
    input: Box<dyn Operator>,
    specs: Vec<(CollectorSpec, usize)>,
    accs: Vec<ColumnAccumulator>,
    rows: u64,
    bytes: u64,
    reported: bool,
    bound: bool,
    schema: Schema,
    raw_specs: Vec<CollectorSpec>,
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
            node,
            input,
            specs: Vec::new(),
            accs: Vec::new(),
            rows: 0,
            bytes: 0,
            reported: false,
            bound: false,
            schema,
            raw_specs: specs,
        }
    }

    fn bind(&mut self) -> Result<()> {
        if self.bound {
            return Ok(());
        }
        for (i, spec) in self.raw_specs.iter().enumerate() {
            let idx = self.schema.index_of(&spec.column)?;
            self.specs.push((spec.clone(), idx));
            self.accs.push(ColumnAccumulator::new(
                RESERVOIR_SIZE,
                0x5EED ^ (self.node.0 as u64) << 8 ^ i as u64,
            ));
        }
        self.bound = true;
        Ok(())
    }

    fn finalize(&mut self, ctx: &ExecContext, complete: bool) -> Result<()> {
        if self.reported {
            return Ok(());
        }
        self.reported = true;
        if let Some(capture) = &ctx.collector_capture {
            // Capture mode: deposit raw, still-mergeable state; the
            // partitioned driver merges bucket runs and reports once.
            capture.borrow_mut().push(CollectorParts {
                node: self.node,
                specs: self.specs.iter().map(|(s, _)| s.clone()).collect(),
                accs: self.accs.clone(),
                rows: self.rows,
                bytes: self.bytes,
                complete,
            });
            return Ok(());
        }
        let stats = finish_observed(
            self.node,
            &self.raw_specs,
            &self.accs,
            self.rows,
            self.bytes,
            complete,
        );
        ctx.notify_collector(stats)
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
                self.rows += 1;
                self.bytes += row.encoded_len() as u64;
                ctx.clock.add_cpu(1);
                for ((_, idx), acc) in self.specs.iter().zip(&mut self.accs) {
                    let ops = acc.observe(row.get(*idx));
                    ctx.clock.add_cpu(ops);
                }
                // Provisional progress: the observed count is a lower
                // bound on the final cardinality — cheap, and it lets
                // the controller react *before* a downstream build
                // overflows (§2.3 extension).
                if self.rows.is_multiple_of(1024) {
                    ctx.notify_progress(self.node, self.rows)?;
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
