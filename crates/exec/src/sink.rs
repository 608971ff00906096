//! Materialization: drain a plan into a temp heap file, observing
//! *exact* statistics on the way (the re-optimizer's temp tables have
//! perfect cardinalities — that is the whole point of §2.4's Figure 6).

use std::collections::HashMap;

use mq_catalog::{ColumnStats, TableStats};
use mq_common::{FileId, Result, Schema};
use mq_plan::PhysPlan;
use mq_stats::{ColumnAccumulator, HistogramKind, HISTOGRAM_BUCKETS, RESERVOIR_SIZE};

use crate::build_executor;
use crate::context::ExecContext;

/// A materialized intermediate result.
#[derive(Debug, Clone)]
pub struct MaterializedResult {
    /// The temp heap file holding the rows.
    pub file: FileId,
    /// Row schema.
    pub schema: Schema,
    /// Exact statistics observed while writing.
    pub stats: TableStats,
    /// Order-insensitive content fingerprint of the written rows
    /// (see [`rows_fingerprint`]). The checkpoint manifest records it
    /// so recovery can verify a salvaged temp table holds exactly the
    /// rows the crashed query wrote.
    pub fingerprint: u64,
}

/// Per-row content hash used by [`rows_fingerprint`].
pub fn row_fingerprint(row: &mq_common::Row) -> u64 {
    crate::context::hash_key(row.values(), 0x5EED_F00D)
}

/// Order-insensitive fingerprint of a row multiset: the wrapping sum
/// of per-row hashes. Summation (not XOR) so duplicate rows do not
/// cancel; order-insensitive so it is stable under any scan order.
pub fn rows_fingerprint<'a>(rows: impl Iterator<Item = &'a mq_common::Row>) -> u64 {
    rows.fold(0u64, |acc, r| acc.wrapping_add(row_fingerprint(r)))
}

/// Execute `plan` to completion, writing every output row to a fresh
/// temp file and building exact statistics (cardinality, min/max,
/// distinct sketches, MaxDiff histograms) in the same pass.
pub fn materialize(plan: &PhysPlan, ctx: &ExecContext) -> Result<MaterializedResult> {
    let mut exec = build_executor(plan)?;
    let schema = plan.schema.clone();
    // Registered as a temp file until the caller hands ownership to a
    // durable owner (`ExecContext::forget_temp_file`): if execution
    // fails mid-drain, the unwind path reclaims the partial file.
    let file = ctx.create_temp_file();
    let mut accs: Vec<ColumnAccumulator> = (0..schema.len())
        .map(|i| ColumnAccumulator::new(RESERVOIR_SIZE, 0xFEED ^ i as u64))
        .collect();
    let mut rows = 0u64;
    let mut bytes = 0u64;
    let mut fingerprint = 0u64;

    exec.open(ctx)?;
    while let Some(row) = exec.next(ctx)? {
        rows += 1;
        bytes += row.encoded_len() as u64;
        fingerprint = fingerprint.wrapping_add(row_fingerprint(&row));
        for (i, acc) in accs.iter_mut().enumerate() {
            let ops = acc.observe(row.get(i));
            ctx.clock.add_cpu(ops);
        }
        ctx.storage.append_row(file, &row)?;
    }
    exec.close(ctx)?;
    // No forced flush: like any write, materialized pages reach disk on
    // eviction. Small results that stay pool-resident read back for
    // free — honest behaviour for both the baseline and the switch.

    let mut columns = HashMap::new();
    for (i, acc) in accs.iter().enumerate() {
        let obs = acc.finish(HistogramKind::MaxDiff, HISTOGRAM_BUCKETS);
        columns.insert(
            schema.field(i).name.to_string(),
            ColumnStats {
                min: obs.min,
                max: obs.max,
                distinct: obs.distinct,
                null_frac: obs.null_frac,
                histogram: obs.histogram,
                histogram_kind: Some(HistogramKind::MaxDiff),
                clustering: obs.clustering,
            },
        );
    }
    let pages = ctx.storage.file_pages(file)? as u64;
    Ok(MaterializedResult {
        file,
        fingerprint,
        schema,
        stats: TableStats {
            rows,
            pages,
            avg_row_bytes: if rows > 0 {
                bytes as f64 / rows as f64
            } else {
                0.0
            },
            columns,
        },
    })
}
