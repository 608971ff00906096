//! EXPLAIN ANALYZE rendering.
//!
//! Plain `EXPLAIN` is the optimizer's annotated plan printed through
//! `PhysPlan`'s `Display`; `EXPLAIN ANALYZE` re-renders the plan that
//! actually produced the rows, lining the optimizer's estimates up
//! against the observed per-operator counters
//! ([`QueryOutcome::actuals`]) — the
//! estimated-vs-actual cardinality comparison is the heart of the
//! paper's argument, so the renderer puts it front and center on every
//! line. Statistics collectors are marked as the potential
//! re-optimization points they are, and scans over `tmp_reopt_*` temp
//! tables are marked as the materialized cut of an accepted switch.
//! Exchange operators show their stage's `Exchange` and `SkewVerdict`
//! events: rows routed per partition, and any re-balancing.

use std::collections::HashMap;
use std::fmt::Write as _;

use mq_exec::OpActuals;
use mq_obs::ObsEvent;
use mq_plan::{NodeId, PhysOp, PhysPlan};

use crate::engine::QueryOutcome;

/// Render a finished query for `EXPLAIN ANALYZE`: headline counters,
/// the final plan with per-operator estimated vs actual rows, and the
/// query's decision events.
pub fn explain_analyze(outcome: &QueryOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXPLAIN ANALYZE ({} mode): {} rows in {:.1} ms simulated",
        outcome.mode,
        outcome.rows.len(),
        outcome.time_ms
    );
    let _ = writeln!(
        out,
        "plan switches: {}   memory re-allocations: {}   collector reports: {}   segment retries: {}",
        outcome.plan_switches,
        outcome.memory_reallocs,
        outcome.collector_reports,
        outcome.segment_retries
    );
    let stages = exchange_stages(outcome);
    if let Some(ObsEvent::Exchange {
        partitions,
        buckets,
        ..
    }) = stages.first().map(|s| s.exchange)
    {
        let _ = writeln!(
            out,
            "partitions: {partitions}   buckets: {buckets}   exchange stages: {}   skew verdicts: {}   parallel saving: {:.1} ms",
            stages.len(),
            stages.iter().filter(|s| s.skew.is_some()).count(),
            outcome.parallel_saved_ms
        );
    }
    render_node(&mut out, &outcome.final_plan, 0, &outcome.actuals, &stages);
    if !outcome.events.is_empty() {
        let _ = writeln!(out, "re-optimization events:");
        for (i, e) in outcome.events.iter().enumerate() {
            let _ = writeln!(out, "{:>3}. {e}", i + 1);
        }
    }
    out
}

/// One exchange stage of a query's final attempt, as its events
/// recorded it.
pub struct ExchangeStage<'a> {
    /// The exchange node of the final plan.
    pub node: NodeId,
    /// The stage's `Exchange` event.
    pub exchange: &'a ObsEvent,
    /// The `SkewVerdict` the stage recorded right before it, if any.
    pub skew: Option<&'a ObsEvent>,
}

/// The exchange stages of `outcome`'s final attempt, in final-plan
/// order (empty for serial execution). A transient retry re-runs a
/// segment under the same plan, so the last `Exchange` event recorded
/// for a node is the final attempt's; the driver records a stage's
/// skew verdict immediately before its exchange event.
pub fn exchange_stages(outcome: &QueryOutcome) -> Vec<ExchangeStage<'_>> {
    let events = &outcome.events;
    let mut stages = Vec::new();
    outcome.final_plan.walk(&mut |n| {
        if !matches!(n.op, PhysOp::Exchange { .. }) {
            return;
        }
        let id = n.id.0 as u64;
        let Some(i) = events
            .iter()
            .rposition(|e| matches!(e, ObsEvent::Exchange { node, .. } if *node == id))
        else {
            return;
        };
        let skew = i
            .checked_sub(1)
            .map(|j| &events[j])
            .filter(|e| matches!(e, ObsEvent::SkewVerdict { node, .. } if *node == id));
        stages.push(ExchangeStage {
            node: n.id,
            exchange: &events[i],
            skew,
        });
    });
    stages
}

/// Marker suffix identifying a node's role in re-optimization, if any.
fn marker(plan: &PhysPlan) -> &'static str {
    match &plan.op {
        PhysOp::StatsCollector { .. } => "  <-- collector (re-opt point)",
        PhysOp::Exchange { .. } => "  <-- exchange (partition boundary)",
        PhysOp::SeqScan { spec, .. } if spec.table.starts_with("tmp_reopt_") => {
            "  <-- materialized by plan switch"
        }
        PhysOp::CachedScan { .. } => "  <-- cached (cross-query reuse)",
        _ => "",
    }
}

fn render_node(
    out: &mut String,
    plan: &PhysPlan,
    indent: usize,
    actuals: &HashMap<NodeId, OpActuals>,
    stages: &[ExchangeStage<'_>],
) {
    let pad = "  ".repeat(indent);
    let _ = write!(out, "{pad}{} {}", plan.op.name(), plan.op_detail());
    match actuals.get(&plan.id) {
        Some(a) => {
            let _ = write!(
                out,
                "  (est rows={:.0}, actual rows={}",
                plan.annot.est_rows, a.rows
            );
            if a.cpu_ops > 0 || a.io_pages > 0 {
                let _ = write!(out, ", cpu={}, io={}", a.cpu_ops, a.io_pages);
            }
            let _ = write!(
                out,
                ", est time≈{:.1}ms, mem={}KB)",
                plan.annot.est_time_ms,
                plan.annot.mem_grant_bytes / 1024
            );
        }
        // A node with no actuals never produced a row (e.g. it sat
        // above a LIMIT that closed early, or the attempt restarted
        // before reaching it).
        None => {
            let _ = write!(
                out,
                "  (est rows={:.0}, actual rows=0, never executed)",
                plan.annot.est_rows
            );
        }
    }
    let _ = writeln!(out, "{}", marker(plan));
    // Exchange operators get the partitioned view: what the optimizer
    // would estimate per partition (uniform split) against the rows the
    // driver actually routed to each one — per-partition est vs actual,
    // the skew story at a glance.
    if let Some(ExchangeStage {
        exchange:
            ObsEvent::Exchange {
                partitions,
                per_partition_rows,
                ..
            },
        skew,
        ..
    }) = stages.iter().find(|s| s.node == plan.id)
    {
        let est_each = plan.annot.est_rows / (*partitions).max(1) as f64;
        let _ = writeln!(
            out,
            "{pad}    per-partition rows (est≈{est_each:.0} each): {per_partition_rows:?}"
        );
        if let Some(skew) = skew {
            let _ = writeln!(out, "{pad}    {skew}");
        }
    }
    for c in &plan.children {
        render_node(out, c, indent + 1, actuals, stages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_plan::ScanSpec;

    fn scan(table: &str) -> PhysPlan {
        let schema = mq_common::Schema::new(vec![mq_common::Field::qualified(
            table,
            "a",
            mq_common::DataType::Int,
        )])
        .unwrap();
        let mut p = PhysPlan::new(
            PhysOp::SeqScan {
                spec: ScanSpec {
                    table: table.into(),
                    file: mq_common::FileId(0),
                    pages: 10,
                    rows: 100,
                },
                filter: None,
            },
            vec![],
            schema,
        );
        p.annot.est_rows = 100.0;
        p
    }

    #[test]
    fn temp_table_scan_is_marked_as_switch_materialization() {
        let text = marker(&scan("tmp_reopt_q7_1"));
        assert!(text.contains("materialized by plan switch"), "{text}");
        assert_eq!(marker(&scan("lineitem")), "");
    }
}
