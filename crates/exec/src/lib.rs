//! # mq-exec — the execution engine
//!
//! Pull-based (Volcano-style) physical operators with the three
//! properties the paper's runtime machinery needs:
//!
//! 1. **Honest cost accounting** — every page touch goes through the
//!    buffer pool (spills, materialization, index probes) and every
//!    tuple-level operation charges CPU on the shared clock;
//! 2. **Phase hooks** — blocking operators (hash-join build, sort run
//!    generation, aggregate input) notify an [`ExecMonitor`] when a
//!    phase completes. This is the paper's "statistics collector sends
//!    a message to the dispatcher" moment (§3.1): collectors report in
//!    stream, and the Dynamic Re-Optimization controller decides
//!    whether to re-allocate memory or switch plans *between phases*;
//! 3. **Externalized operator state** — hash tables, sorted runs and
//!    aggregate outputs live in the shared [`Artifact`] store keyed by
//!    plan-node id, not inside operator structs. When the controller
//!    unwinds execution with [`mq_common::MqError::PlanSwitch`], the
//!    work already done survives; re-instantiated operators pick their
//!    artifacts back up and continue. This is how "the filter and the
//!    build phase of the hash-join are left as they are" (§2.4).

pub mod aggregate;
pub mod collector;
pub mod context;
pub mod filter;
pub mod hash_join;
pub mod inl_join;
pub mod scan;
pub mod sink;
pub mod sort;

use std::collections::HashMap;

use mq_common::{MqError, Result, Row};
use mq_plan::{NodeId, PhysOp, PhysPlan};

pub use collector::{finish_observed, CollectorParts, ObservedStats};
pub use context::{Artifact, ExecContext, ExecMonitor, HashBuild, OpActuals};
pub use sink::{materialize, row_fingerprint, rows_fingerprint, MaterializedResult};

/// A pull-based physical operator.
pub trait Operator {
    /// Prepare for execution; blocking operators consume their build
    /// phase here (firing [`ExecMonitor::on_phase_complete`]).
    fn open(&mut self, ctx: &ExecContext) -> Result<()>;
    /// Produce the next output row, or `None` when exhausted.
    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>>;
    /// Release resources (temp files, artifacts).
    fn close(&mut self, ctx: &ExecContext) -> Result<()>;
}

/// Instantiate the operator tree for an annotated physical plan.
/// Every operator is wrapped in a `Profiled` shim that records its
/// observed row count (and, under an active event sink, inclusive
/// cpu/io deltas) into [`ExecContext::actuals`] — the "actual" side of
/// EXPLAIN ANALYZE.
pub fn build_executor(plan: &PhysPlan) -> Result<Box<dyn Operator>> {
    build_executor_with(plan, &mut HashMap::new())
}

/// Like [`build_executor`], but any node whose id appears in
/// `overrides` is replaced by the supplied operator (wrapped in the
/// same `Profiled` shim, so actuals are still recorded against that
/// node). The partitioned driver uses this to substitute pre-routed
/// bucket inputs ([`RowsExec`]) at exchange-child positions while the
/// rest of the segment builds normally.
pub fn build_executor_with(
    plan: &PhysPlan,
    overrides: &mut HashMap<NodeId, Box<dyn Operator>>,
) -> Result<Box<dyn Operator>> {
    if let Some(op) = overrides.remove(&plan.id) {
        return Ok(Box::new(Profiled::new(plan.id, op)));
    }
    Ok(Box::new(Profiled::new(
        plan.id,
        build_inner(plan, overrides)?,
    )))
}

fn build_inner(
    plan: &PhysPlan,
    overrides: &mut HashMap<NodeId, Box<dyn Operator>>,
) -> Result<Box<dyn Operator>> {
    let children: Vec<Box<dyn Operator>> = plan
        .children
        .iter()
        .map(|c| build_executor_with(c, overrides))
        .collect::<Result<_>>()?;
    let mut children = children;
    let node = plan.id;
    Ok(match &plan.op {
        PhysOp::SeqScan { spec, filter } => {
            Box::new(scan::SeqScanExec::new(spec.clone(), filter.clone()))
        }
        PhysOp::IndexScan {
            index,
            lo,
            hi,
            residual,
            ..
        } => Box::new(scan::IndexScanExec::new(
            *index,
            lo.clone(),
            hi.clone(),
            residual.clone(),
        )),
        PhysOp::Filter { predicate } => Box::new(filter::FilterExec::new(
            take_one(&mut children)?,
            predicate.clone(),
        )),
        PhysOp::Project { exprs } => Box::new(filter::ProjectExec::new(
            take_one(&mut children)?,
            exprs.clone(),
        )),
        PhysOp::Limit { n } => Box::new(filter::LimitExec::new(take_one(&mut children)?, *n)),
        PhysOp::HashJoin {
            build_keys,
            probe_keys,
        } => {
            let (build, probe) = take_two(&mut children)?;
            Box::new(hash_join::HashJoinExec::new(
                node,
                build,
                probe,
                build_keys.clone(),
                probe_keys.clone(),
                plan.annot.mem_grant_bytes,
            ))
        }
        PhysOp::IndexNLJoin {
            outer_key,
            index,
            residual,
            index_height,
            ..
        } => Box::new(inl_join::IndexNLJoinExec::new(
            take_one(&mut children)?,
            *outer_key,
            *index,
            *index_height,
            residual.clone(),
        )),
        PhysOp::Sort { keys } => Box::new(sort::SortExec::new(
            node,
            take_one(&mut children)?,
            keys.clone(),
            plan.annot.mem_grant_bytes,
        )),
        PhysOp::HashAggregate { group, aggs } => Box::new(aggregate::HashAggregateExec::new(
            node,
            take_one(&mut children)?,
            group.clone(),
            aggs.clone(),
            plan.annot.mem_grant_bytes,
        )),
        PhysOp::StatsCollector { specs, .. } => Box::new(collector::StatsCollectorExec::new(
            node,
            take_one(&mut children)?,
            specs.clone(),
            plan.schema.clone(),
        )),
        // In serial execution an exchange is the identity: rows flow
        // straight through. The partitioned driver (mq-par) never
        // builds an executor *at* an exchange — it evaluates the child
        // per bucket and routes rows itself — so this arm only runs
        // when a parallelized plan is executed by the serial engine.
        PhysOp::Exchange { .. } => take_one(&mut children)?,
        // A cached materialization reads back like any base table: the
        // cache table is catalog-registered with an exact-statistics
        // heap file, so a plain unfiltered sequential scan suffices.
        PhysOp::CachedScan { spec, .. } => Box::new(scan::SeqScanExec::new(spec.clone(), None)),
    })
}

/// An operator that replays a pre-materialized row buffer. The
/// partitioned driver substitutes one of these (via
/// [`build_executor_with`]) at each exchange-child position inside a
/// segment, feeding the bucket's already-routed input rows. It charges
/// nothing: scan/route costs were booked when the rows were produced.
pub struct RowsExec {
    rows: std::vec::IntoIter<Row>,
}

impl RowsExec {
    /// Wrap a buffer of rows.
    pub fn new(rows: Vec<Row>) -> RowsExec {
        RowsExec {
            rows: rows.into_iter(),
        }
    }
}

impl Operator for RowsExec {
    fn open(&mut self, _ctx: &ExecContext) -> Result<()> {
        Ok(())
    }

    fn next(&mut self, _ctx: &ExecContext) -> Result<Option<Row>> {
        Ok(self.rows.next())
    }

    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        Ok(())
    }
}

/// The profiling shim around every operator. Row counting is one
/// integer increment per row; the clock-snapshot deltas (inclusive of
/// the operator's subtree) are taken only in `profile_detail` mode.
/// Totals flush to the context on exhaustion *and* on close — a
/// `PlanSwitch` unwinds without either, which is correct: the next
/// attempt resets the actuals and re-runs from artifacts.
struct Profiled {
    node: mq_plan::NodeId,
    inner: Box<dyn Operator>,
    acc: context::OpActuals,
}

impl Profiled {
    fn new(node: mq_plan::NodeId, inner: Box<dyn Operator>) -> Profiled {
        Profiled {
            node,
            inner,
            acc: context::OpActuals::default(),
        }
    }

    fn flush(&self, ctx: &ExecContext) {
        ctx.record_actuals(self.node, self.acc);
    }

    fn measured<T>(
        &mut self,
        ctx: &ExecContext,
        f: impl FnOnce(&mut Box<dyn Operator>, &ExecContext) -> Result<T>,
    ) -> Result<T> {
        if !ctx.profile_detail {
            return f(&mut self.inner, ctx);
        }
        let before = ctx.clock.snapshot();
        let out = f(&mut self.inner, ctx);
        let delta = ctx.clock.snapshot().since(&before);
        self.acc.cpu_ops += delta.cpu_ops;
        self.acc.io_pages += delta.io_total();
        out
    }
}

impl Operator for Profiled {
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.measured(ctx, |op, ctx| op.open(ctx))
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        let out = self.measured(ctx, |op, ctx| op.next(ctx))?;
        match out {
            Some(row) => {
                self.acc.rows += 1;
                Ok(Some(row))
            }
            None => {
                self.flush(ctx);
                Ok(None)
            }
        }
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.flush(ctx);
        self.inner.close(ctx)
    }
}

fn take_one(children: &mut Vec<Box<dyn Operator>>) -> Result<Box<dyn Operator>> {
    if children.len() != 1 {
        return Err(MqError::Internal(format!(
            "operator expected 1 child, got {}",
            children.len()
        )));
    }
    children
        .pop()
        .ok_or_else(|| MqError::Internal("operator child vanished after arity check".to_string()))
}

fn take_two(
    children: &mut Vec<Box<dyn Operator>>,
) -> Result<(Box<dyn Operator>, Box<dyn Operator>)> {
    if children.len() != 2 {
        return Err(MqError::Internal(format!(
            "operator expected 2 children, got {}",
            children.len()
        )));
    }
    let (Some(second), Some(first)) = (children.pop(), children.pop()) else {
        return Err(MqError::Internal(
            "operator children vanished after arity check".to_string(),
        ));
    };
    Ok((first, second))
}

/// Open, drain and close an executor, collecting all rows.
///
/// Cancellation is honoured at start and every `INTERRUPT_STRIDE` rows
/// of the root drain, so even phase-less plans (pure scan pipelines,
/// which never hit a segment boundary) stay cancellable.
pub fn run_to_vec(plan: &PhysPlan, ctx: &ExecContext) -> Result<Vec<Row>> {
    const INTERRUPT_STRIDE: usize = 1024;
    ctx.check_interrupt()?;
    let mut exec = build_executor(plan)?;
    let result = (|| {
        exec.open(ctx)?;
        let mut out = Vec::new();
        while let Some(row) = exec.next(ctx)? {
            out.push(row);
            if out.len() % INTERRUPT_STRIDE == 0 {
                ctx.check_interrupt()?;
            }
        }
        Ok(out)
    })();
    // Close on success *and* genuine errors: operators release their
    // spill files in `close`, so dropping a failed executor unclosed
    // would leave reclamation to the context's temp-file registry
    // alone. A `PlanSwitch` is controlled unwinding, not failure — the
    // externalized artifacts own the operator state (including spilled
    // runs/partitions) and the resumed plan consumes them, so the
    // executor must NOT be closed then.
    match result {
        Ok(out) => {
            exec.close(ctx)?;
            Ok(out)
        }
        Err(e @ MqError::PlanSwitch(_)) => Err(e),
        Err(e) => {
            let _ = exec.close(ctx);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests;
