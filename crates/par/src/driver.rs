//! The partitioned pipeline driver: evaluates an exchange-annotated
//! physical plan bucket by bucket.
//!
//! The driver walks the plan from the root. At every non-exchange node
//! it finds the **exchange frontier** — the topmost exchange operators
//! strictly below it. The subtree above the frontier is one pipeline
//! *segment*: it is instantiated once per bucket with [`RowsExec`]
//! substituted at each frontier position (via `build_executor_with`),
//! so the segment's own operators (aggregates, joins, collectors, …)
//! run unmodified per bucket. Exchange nodes themselves are evaluated
//! by the driver: `Repartition` routes rows into buckets by key hash,
//! `Merge` concatenates buckets (or runs a chunkable producer as
//! parallel page-range chunks), `Broadcast` replicates a small input.
//!
//! Simulated time: every per-bucket (or per-chunk) unit is measured by
//! clock snapshots; a stage's *parallel saving* is `Σ unit times −
//! max-over-partitions(Σ unit times per partition)` under the stage's
//! bucket → partition assignment, credited to the clock via
//! [`mq_common::SimClock::add_parallel_saved_ms`]. io/cpu totals are untouched, so
//! they are identical to a serial run of the same bucketed work — and
//! identical across partition counts.
//!
//! Every exchange stage and skew verdict is recorded in the query's
//! event log (`ExecContext::events`), which is the only record of what
//! the partitioned run did.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use mq_common::{MqError, Result, Row, Value};
use mq_exec::context::hash_key;
use mq_exec::scan::SeqScanExec;
use mq_exec::{build_executor_with, CollectorParts, ExecContext, Operator, RowsExec};
use mq_obs::ObsEvent;
use mq_plan::{ExchangeMode, NodeId, PhysOp, PhysPlan};

use crate::rewrite::chunkable;
use crate::{ParSpec, PAR_BUCKETS};

/// Routing salt for exchange repartitioning. Distinct from the
/// hash-join family of level salts (0, 1, 2, …): rows inside one
/// bucket already share `hash(key, ROUTE_SALT) % B`, and if the join
/// used the same salt its own partitioning `hash(key, salt) % nparts`
/// would degenerate whenever `nparts` divides `B`.
const ROUTE_SALT: u64 = 0x7061_7254; // "parT"

/// Interrupt-poll stride inside a bucket run.
const INTERRUPT_STRIDE: usize = 1024;

/// Execute a parallelized plan (one that went through
/// [`crate::parallelize`]) and return its rows; exchange stages and
/// skew verdicts go to the query's event log. Results are
/// byte-identical for any partition count (bucket composition depends
/// only on the data, the keys and the bucket count), and equal to
/// serial execution up to floating-point summation order (aggregates
/// sum in bucket order).
pub fn run_partitioned(plan: &PhysPlan, ctx: &ExecContext, spec: &ParSpec) -> Result<Vec<Row>> {
    let mut driver = Driver {
        ctx,
        p: spec.partitions.max(1),
        b: PAR_BUCKETS,
        actuals: HashMap::new(),
    };
    let rows = match driver.eval(plan)? {
        Stream::Serial(rows) | Stream::Broadcast(rows) => rows,
        // A partitioned root is wrapped in a Merge by the rewrite; this
        // arm only fires for hand-built plans. Bucket order is the
        // canonical order.
        Stream::Buckets(buckets, _) => buckets.into_iter().flatten().collect(),
    };
    // Publish the merged per-operator actuals (summed across buckets)
    // on the job context for EXPLAIN ANALYZE.
    for (node, a) in driver.actuals.drain() {
        ctx.record_actuals(node, a);
    }
    Ok(rows)
}

/// The value of a plan subtree under the driver.
enum Stream {
    /// One serial row stream.
    Serial(Vec<Row>),
    /// A replicated stream: every bucket run receives a full copy.
    Broadcast(Vec<Row>),
    /// Bucketed rows plus the bucket → partition assignment the
    /// producing stage ran under (consumers inherit it for their own
    /// elapsed-time accounting).
    Buckets(Vec<Vec<Row>>, Vec<usize>),
}

struct Driver<'a> {
    ctx: &'a ExecContext,
    /// Partition (worker) count `P`.
    p: usize,
    /// Bucket count `B`.
    b: usize,
    /// Per-operator actuals summed across bucket runs.
    actuals: HashMap<NodeId, mq_exec::OpActuals>,
}

impl<'a> Driver<'a> {
    fn eval(&mut self, plan: &PhysPlan) -> Result<Stream> {
        match &plan.op {
            PhysOp::Exchange { mode, .. } => match mode.clone() {
                ExchangeMode::Repartition { keys } => self.eval_repartition(plan, &keys),
                ExchangeMode::Merge => self.eval_merge(plan),
                ExchangeMode::Broadcast => self.eval_broadcast(plan),
            },
            _ => self.eval_segment(plan),
        }
    }

    /// Evaluate a non-exchange subtree: resolve its exchange frontier,
    /// then run the segment above it once (serial inputs) or once per
    /// bucket (bucketed inputs).
    fn eval_segment(&mut self, plan: &PhysPlan) -> Result<Stream> {
        let exchanges = frontier(plan);
        let mut streams = Vec::with_capacity(exchanges.len());
        for ex in &exchanges {
            streams.push(self.eval(ex)?);
        }
        let capture = new_capture();
        let bucketed = streams.iter().any(|s| matches!(s, Stream::Buckets(..)));
        if !bucketed {
            // Fully serial segment (possibly with no exchanges at all,
            // e.g. the child of a Broadcast): one run.
            let mut overrides = Overrides::new();
            for (ex, s) in exchanges.iter().zip(streams) {
                let rows = match s {
                    Stream::Serial(r) | Stream::Broadcast(r) => r,
                    Stream::Buckets(..) => unreachable!(),
                };
                overrides.insert(ex.id, Box::new(RowsExec::new(rows)));
            }
            let rows = self.run_unit(plan, overrides, &capture)?;
            self.finish_capture(&capture)?;
            return Ok(Stream::Serial(rows));
        }
        // At least one input is bucketed: run the segment per bucket.
        // The stage inherits the assignment of its dominant bucketed
        // input (most rows; first on ties) — that producer dictates
        // where each bucket's rows already sit.
        let assignment = streams
            .iter()
            .filter_map(|s| match s {
                Stream::Buckets(bs, asg) => {
                    Some((bs.iter().map(Vec::len).sum::<usize>(), asg.clone()))
                }
                _ => None,
            })
            .max_by_key(|(n, _)| *n)
            .map(|(_, asg)| asg)
            .expect("bucketed input present");
        let mut out_buckets = Vec::with_capacity(self.b);
        let mut times = Vec::with_capacity(self.b);
        for bucket in 0..self.b {
            let mut overrides = Overrides::new();
            for (ex, s) in exchanges.iter().zip(streams.iter_mut()) {
                let rows = match s {
                    Stream::Buckets(bs, _) => std::mem::take(&mut bs[bucket]),
                    Stream::Broadcast(r) => r.clone(),
                    Stream::Serial(_) => {
                        return Err(MqError::Internal(
                            "serial stream feeding a bucketed segment".into(),
                        ))
                    }
                };
                overrides.insert(ex.id, Box::new(RowsExec::new(rows)));
            }
            let t0 = self.ctx.clock.snapshot();
            let rows = self.run_unit(plan, overrides, &capture)?;
            times.push(self.ctx.clock.snapshot().since(&t0).time_ms(&self.ctx.cfg));
            out_buckets.push(rows);
        }
        self.book_saved(&times, &assignment);
        self.finish_capture(&capture)?;
        Ok(Stream::Buckets(out_buckets, assignment))
    }

    /// `Repartition`: produce the child (as parallel scan chunks, from
    /// source buckets, or serially), route every row to bucket
    /// `hash(keys) % B`, then decide the bucket → partition assignment
    /// (skew check).
    fn eval_repartition(&mut self, ex: &PhysPlan, keys: &[usize]) -> Result<Stream> {
        let child = &ex.children[0];
        let mut buckets: Vec<Vec<Row>> = (0..self.b).map(|_| Vec::new()).collect();
        let mut times: Vec<f64> = Vec::new();
        let mut unit_assignment: Option<Vec<usize>> = None;
        let mut produced: u64 = 0;

        if let Some(ranges) = self.chunk_ranges(child)? {
            // Parallel producer: page-range chunks of the one scan.
            // Routing (1 cpu op/row) happens on the producing worker,
            // inside the measured window.
            let capture = new_capture();
            for (lo, hi) in ranges {
                let t0 = self.ctx.clock.snapshot();
                let rows = self.run_chunk(child, lo, hi, &capture)?;
                produced += rows.len() as u64;
                self.ctx.clock.add_cpu(rows.len() as u64);
                self.route(rows, keys, &mut buckets);
                times.push(self.ctx.clock.snapshot().since(&t0).time_ms(&self.ctx.cfg));
            }
            self.finish_capture(&capture)?;
        } else {
            match self.eval(child)? {
                Stream::Serial(rows) => {
                    // Serial producer: routing is serial too; no saving.
                    produced = rows.len() as u64;
                    self.ctx.clock.add_cpu(produced);
                    self.route(rows, keys, &mut buckets);
                }
                Stream::Buckets(src, asg) => {
                    // Re-route an already-bucketed stream (key change
                    // between stages): each source bucket re-routes on
                    // its own worker under the source assignment.
                    for rows in src {
                        let t0 = self.ctx.clock.snapshot();
                        produced += rows.len() as u64;
                        self.ctx.clock.add_cpu(rows.len() as u64);
                        self.route(rows, keys, &mut buckets);
                        times.push(self.ctx.clock.snapshot().since(&t0).time_ms(&self.ctx.cfg));
                    }
                    unit_assignment = Some(asg);
                }
                Stream::Broadcast(_) => {
                    return Err(MqError::Internal(
                        "broadcast stream feeding a repartition".into(),
                    ))
                }
            }
        }
        if !times.is_empty() {
            let asg = unit_assignment.unwrap_or_else(|| contiguous_assignment(times.len(), self.p));
            self.book_saved(&times, &asg);
        }
        let loads: Vec<u64> = buckets.iter().map(|b| b.len() as u64).collect();
        let assignment = self.skew_assign(ex.id, &loads);
        let per = fold_loads(&loads, &assignment, self.p);
        self.record_exchange(ex.id, "repartition", produced, per);
        Ok(Stream::Buckets(buckets, assignment))
    }

    /// `Merge`: concatenate buckets back into one serial stream in
    /// bucket order — or, for a chunkable serial child, run it as
    /// parallel chunks and concatenate those in chunk order.
    fn eval_merge(&mut self, ex: &PhysPlan) -> Result<Stream> {
        let child = &ex.children[0];
        if let Some(ranges) = self.chunk_ranges(child)? {
            let capture = new_capture();
            let mut out = Vec::new();
            let mut times = Vec::with_capacity(self.b);
            let mut chunk_rows = Vec::with_capacity(self.b);
            for (lo, hi) in ranges {
                let t0 = self.ctx.clock.snapshot();
                let rows = self.run_chunk(child, lo, hi, &capture)?;
                times.push(self.ctx.clock.snapshot().since(&t0).time_ms(&self.ctx.cfg));
                chunk_rows.push(rows.len() as u64);
                out.extend(rows);
            }
            self.finish_capture(&capture)?;
            let asg = contiguous_assignment(times.len(), self.p);
            self.book_saved(&times, &asg);
            // The concatenation itself runs on the consumer's (serial)
            // side of the barrier.
            self.ctx.clock.add_cpu(out.len() as u64);
            let per = fold_loads(&chunk_rows, &asg, self.p);
            self.record_exchange(ex.id, "merge", out.len() as u64, per);
            return Ok(Stream::Serial(out));
        }
        match self.eval(child)? {
            Stream::Buckets(src, asg) => {
                let loads: Vec<u64> = src.iter().map(|b| b.len() as u64).collect();
                let total: u64 = loads.iter().sum();
                self.ctx.clock.add_cpu(total);
                let out: Vec<Row> = src.into_iter().flatten().collect();
                let per = fold_loads(&loads, &asg, self.p);
                self.record_exchange(ex.id, "merge", total, per);
                Ok(Stream::Serial(out))
            }
            // Degenerate: the input was already serial.
            Stream::Serial(rows) | Stream::Broadcast(rows) => {
                let n = rows.len() as u64;
                let mut per = vec![0; self.p];
                per[0] = n;
                self.record_exchange(ex.id, "merge", n, per);
                Ok(Stream::Serial(rows))
            }
        }
    }

    /// `Broadcast`: evaluate the child serially once and replicate the
    /// stream to every bucket run of the consuming segment.
    fn eval_broadcast(&mut self, ex: &PhysPlan) -> Result<Stream> {
        let rows = match self.eval(&ex.children[0])? {
            Stream::Serial(r) | Stream::Broadcast(r) => r,
            Stream::Buckets(bs, _) => bs.into_iter().flatten().collect(),
        };
        let n = rows.len() as u64;
        self.ctx.clock.add_cpu(n);
        self.record_exchange(ex.id, "broadcast", n, vec![n; self.p]);
        Ok(Stream::Broadcast(rows))
    }

    /// One unit of work: a bucket (or chunk) instantiation of a
    /// segment, run on a fresh bucket context with collector capture
    /// into `capture`. Per-bucket actuals are summed into the driver's
    /// merged view; artifacts and temp files are reclaimed whether the
    /// run succeeds or fails.
    fn run_unit(
        &mut self,
        plan: &PhysPlan,
        mut overrides: Overrides,
        capture: &Capture,
    ) -> Result<Vec<Row>> {
        let mut bctx = self.ctx.bucket_context();
        bctx.collector_capture = Some(Rc::clone(capture));
        let result = (|| {
            bctx.check_interrupt()?;
            let mut exec = build_executor_with(plan, &mut overrides)?;
            exec.open(&bctx)?;
            let mut out = Vec::new();
            while let Some(row) = exec.next(&bctx)? {
                out.push(row);
                if out.len() % INTERRUPT_STRIDE == 0 {
                    bctx.check_interrupt()?;
                }
            }
            exec.close(&bctx)?;
            Ok(out)
        })();
        // Cleanup backstop on both paths: a bucket's spills and
        // externalized state must never outlive its run (the fault
        // harness audits for leaked pages after every query).
        bctx.clear_artifacts();
        bctx.release_temp_files();
        for (node, a) in bctx.take_actuals() {
            let e = self.actuals.entry(node).or_default();
            e.rows += a.rows;
            e.cpu_ops += a.cpu_ops;
            e.io_pages += a.io_pages;
        }
        result
    }

    /// Run a chunkable subtree over one page range of its single scan.
    fn run_chunk(
        &mut self,
        child: &PhysPlan,
        lo: usize,
        hi: usize,
        capture: &Capture,
    ) -> Result<Vec<Row>> {
        let scan = chunkable(child).ok_or_else(|| {
            MqError::Internal("chunk run requested for a non-chunkable subtree".into())
        })?;
        let (spec, filter) = match &scan.op {
            PhysOp::SeqScan { spec, filter } => (spec.clone(), filter.clone()),
            _ => unreachable!("chunkable returns a SeqScan"),
        };
        let mut overrides = Overrides::new();
        overrides.insert(scan.id, Box::new(SeqScanExec::ranged(spec, filter, lo, hi)));
        self.run_unit(child, overrides, capture)
    }

    /// The `B` page ranges for a chunkable subtree, or `None` if the
    /// subtree is not chunkable. Ranges cover the file's *live* page
    /// count (the planning-time estimate may be stale).
    fn chunk_ranges(&self, child: &PhysPlan) -> Result<Option<Vec<(usize, usize)>>> {
        let Some(scan) = chunkable(child) else {
            return Ok(None);
        };
        let file = match &scan.op {
            PhysOp::SeqScan { spec, .. } => spec.file,
            _ => unreachable!("chunkable returns a SeqScan"),
        };
        let pages = self.ctx.storage.file_pages(file)?;
        let b = self.b;
        Ok(Some(
            (0..b)
                .map(|j| (j * pages / b, (j + 1) * pages / b))
                .collect(),
        ))
    }

    /// Route rows into buckets by key hash. One cpu op per row is
    /// charged by the caller (inside or outside the measured window,
    /// depending on which side of the exchange does the routing).
    fn route(&self, rows: Vec<Row>, keys: &[usize], buckets: &mut [Vec<Row>]) {
        for row in rows {
            let key: Vec<Value> = keys.iter().map(|&i| row.get(i).clone()).collect();
            let bucket = (hash_key(&key, ROUTE_SALT) % self.b as u64) as usize;
            buckets[bucket].push(row);
        }
    }

    /// Credit the parallel saving of one stage: total unit time minus
    /// the busiest partition's share under `assignment`. With one
    /// partition the saving is exactly zero.
    fn book_saved(&mut self, times: &[f64], assignment: &[usize]) {
        let mut per = vec![0.0f64; self.p];
        for (j, t) in times.iter().enumerate() {
            let w = assignment.get(j).copied().unwrap_or(0).min(self.p - 1);
            per[w] += t;
        }
        let total: f64 = times.iter().sum();
        let busiest = per.iter().cloned().fold(0.0f64, f64::max);
        let saved = total - busiest;
        if saved > 0.0 {
            self.ctx.clock.add_parallel_saved_ms(saved);
        }
    }

    /// Decide the bucket → partition assignment after routing: start
    /// contiguous; if the max/mean per-partition load ratio exceeds
    /// `par_skew_theta`, record a skew verdict and greedily re-balance
    /// (largest bucket first onto the least-loaded partition).
    /// Deterministic: ties break on lowest bucket / partition index.
    fn skew_assign(&mut self, node: NodeId, loads: &[u64]) -> Vec<usize> {
        let contiguous = contiguous_assignment(self.b, self.p);
        if self.p <= 1 {
            return contiguous;
        }
        let per = fold_loads(loads, &contiguous, self.p);
        let total: u64 = per.iter().sum();
        let mean = total as f64 / self.p as f64;
        let max = per.iter().copied().max().unwrap_or(0) as f64;
        let ratio = if mean > 0.0 { max / mean } else { 1.0 };
        let theta = self.ctx.cfg.par_skew_theta;
        if ratio <= theta {
            return contiguous;
        }
        let mut order: Vec<usize> = (0..loads.len()).collect();
        order.sort_by(|&a, &c| loads[c].cmp(&loads[a]).then(a.cmp(&c)));
        // LPT with a bucket-count cap: every bucket run carries a fixed
        // setup cost (hash tables, broadcast copies), so the re-balance
        // keeps per-partition bucket counts as equal as the contiguous
        // map (≤ ⌈B/P⌉) and only redistributes *which* buckets each
        // partition owns — the hot ones end up spread apart.
        let cap = loads.len().div_ceil(self.p);
        let mut part_load = vec![0u64; self.p];
        let mut part_count = vec![0usize; self.p];
        let mut assignment = vec![0usize; loads.len()];
        for i in order {
            let mut target = None;
            for (w, &l) in part_load.iter().enumerate() {
                if part_count[w] >= cap {
                    continue;
                }
                if target.is_none_or(|t: usize| l < part_load[t]) {
                    target = Some(w);
                }
            }
            let target = target.unwrap_or(0);
            assignment[i] = target;
            part_load[target] += loads[i];
            part_count[target] += 1;
        }
        let after = fold_loads(loads, &assignment, self.p);
        let after_max = after.iter().copied().max().unwrap_or(0) as f64;
        let after_ratio = if mean > 0.0 { after_max / mean } else { 1.0 };
        self.ctx.events.record(ObsEvent::SkewVerdict {
            node: node.0 as u64,
            ratio,
            theta,
            action: "rebalance",
            after_ratio,
        });
        assignment
    }

    /// Merge captured collector parts across bucket runs and deliver
    /// one report per collector site through the *job* context (the
    /// one with the monitor) — the exchange-barrier statistics merge.
    fn finish_capture(&mut self, capture: &Capture) -> Result<()> {
        let parts: Vec<CollectorParts> = capture.borrow_mut().drain(..).collect();
        let mut order: Vec<NodeId> = Vec::new();
        let mut merged: HashMap<NodeId, CollectorParts> = HashMap::new();
        for part in parts {
            match merged.entry(part.node) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().merge(&part),
                std::collections::hash_map::Entry::Vacant(e) => {
                    order.push(part.node);
                    e.insert(part);
                }
            }
        }
        for node in order {
            let stats = merged[&node].finish();
            self.ctx.notify_collector(stats)?;
        }
        Ok(())
    }

    /// Record the exchange event and fold the stage into the actuals
    /// (exchange nodes have no executor under the driver, so their
    /// observed row counts are recorded here).
    fn record_exchange(
        &mut self,
        node: NodeId,
        mode: &'static str,
        rows: u64,
        per_partition_rows: Vec<u64>,
    ) {
        self.actuals.entry(node).or_default().rows += rows;
        self.ctx.events.record(ObsEvent::Exchange {
            node: node.0 as u64,
            mode,
            partitions: self.p as u64,
            buckets: self.b as u64,
            rows,
            per_partition_rows,
        });
    }
}

type Overrides = HashMap<NodeId, Box<dyn Operator>>;
type Capture = Rc<RefCell<Vec<CollectorParts>>>;

fn new_capture() -> Capture {
    Rc::new(RefCell::new(Vec::new()))
}

/// The topmost exchange nodes strictly below `plan` (pre-order).
fn frontier(plan: &PhysPlan) -> Vec<&PhysPlan> {
    fn rec<'a>(p: &'a PhysPlan, out: &mut Vec<&'a PhysPlan>) {
        for c in &p.children {
            if matches!(c.op, PhysOp::Exchange { .. }) {
                out.push(c);
            } else {
                rec(c, out);
            }
        }
    }
    let mut out = Vec::new();
    rec(plan, &mut out);
    out
}

/// The default assignment: bucket `i` of `n` goes to partition
/// `i * p / n` — contiguous, near-equal ranges.
fn contiguous_assignment(n: usize, p: usize) -> Vec<usize> {
    (0..n).map(|i| i * p / n).collect()
}

/// Per-partition load totals under an assignment.
fn fold_loads(loads: &[u64], assignment: &[usize], p: usize) -> Vec<u64> {
    let mut per = vec![0u64; p];
    for (i, &l) in loads.iter().enumerate() {
        let w = assignment.get(i).copied().unwrap_or(0).min(p - 1);
        per[w] += l;
    }
    per
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_assignment_covers_all_partitions() {
        let asg = contiguous_assignment(64, 4);
        assert_eq!(asg.len(), 64);
        assert_eq!(asg[0], 0);
        assert_eq!(asg[63], 3);
        for w in 0..4 {
            assert_eq!(asg.iter().filter(|&&a| a == w).count(), 16);
        }
    }

    #[test]
    fn fold_loads_sums_by_partition() {
        let per = fold_loads(&[5, 1, 2, 8], &[0, 0, 1, 1], 2);
        assert_eq!(per, vec![6, 10]);
    }
}
