//! The parallelization pass: insert exchange operators into an
//! optimized, collector-instrumented physical plan.
//!
//! Rules (bottom-up; "partitioned" = the node's output is bucketed):
//!
//! * `HashJoin` — when the build side is estimated at or under
//!   [`PAR_BROADCAST_ROWS`], the build child is wrapped in a `Broadcast`
//!   (merged first if it was partitioned) and the probe child is left
//!   as-is when already partitioned (no co-partitioning requirement
//!   under a broadcast) or wrapped in a `Repartition` on the probe keys
//!   otherwise. Larger builds get the classic hash-repartition join:
//!   `Repartition` on the build keys above the build child and on the
//!   probe keys above the probe child, making the sides co-partitioned.
//!   Either way the join output is partitioned.
//! * grouped `HashAggregate` — `Repartition` on the group columns above
//!   the input; every group lands in exactly one bucket, so per-bucket
//!   aggregation is exact. Output partitioned.
//! * scalar `HashAggregate`, `Sort`, `Limit`, `IndexNLJoin` outer —
//!   serial operators: a partitioned input is merged below them; a
//!   serial but *chunkable* input (a streaming chain over exactly one
//!   sequential scan) also gets a `Merge`, which the driver evaluates
//!   as parallel page-range chunks.
//! * Collectors, filters and projections are transparent — exchanges go
//!   **above** them, so they run per bucket inside segments (collectors
//!   in capture mode, merged at the barrier).
//! * A partitioned root is wrapped in a final `Merge`.
//!
//! Exchanges are inserted even for `partitions = 1` so that results and
//! metrics can be compared byte-for-byte across partition counts over
//! the identical plan shape.

use mq_common::Result;
use mq_plan::{ExchangeMode, PhysOp, PhysPlan};

use crate::{ParSpec, PAR_BROADCAST_ROWS};

/// Insert exchange operators (see module docs), then re-assign node
/// ids. Runs after collector insertion and before memory allocation.
pub fn parallelize(plan: &mut PhysPlan, spec: &ParSpec) -> Result<()> {
    let (mut rewritten, partitioned) = rewrite(plan.clone(), spec);
    if partitioned {
        rewritten = wrap(rewritten, ExchangeMode::Merge, spec.partitions);
    }
    *plan = rewritten;
    plan.assign_ids();
    Ok(())
}

/// Wrap `child` in an exchange of the given mode. The exchange carries
/// its child's cardinality annotation (it reorders rows, it does not
/// change them); `recost` later derives its routing cost.
fn wrap(child: PhysPlan, mode: ExchangeMode, partitions: usize) -> PhysPlan {
    let schema = child.schema.clone();
    let annot = child.annot.clone();
    let mut ex = PhysPlan::new(PhysOp::Exchange { mode, partitions }, vec![child], schema);
    ex.annot = annot;
    ex
}

fn rewrite(mut plan: PhysPlan, spec: &ParSpec) -> (PhysPlan, bool) {
    let p = spec.partitions;
    match &plan.op {
        PhysOp::HashJoin {
            build_keys,
            probe_keys,
        } => {
            let build_keys = build_keys.clone();
            let probe_keys = probe_keys.clone();
            let mut ch = plan.children.drain(..);
            let build = ch.next().expect("hash join build child");
            let probe = ch.next().expect("hash join probe child");
            drop(ch);
            let (build, build_part) = rewrite(build, spec);
            let (probe, probe_part) = rewrite(probe, spec);
            if build.annot.est_rows <= PAR_BROADCAST_ROWS {
                // Tiny build: replicate it, keep the probe partitioning.
                let build = if build_part {
                    wrap(build, ExchangeMode::Merge, p)
                } else {
                    build
                };
                let build = wrap(build, ExchangeMode::Broadcast, p);
                let probe = if probe_part {
                    probe
                } else {
                    wrap(probe, ExchangeMode::Repartition { keys: probe_keys }, p)
                };
                plan.children = vec![build, probe];
            } else {
                // Hash-repartition join: co-partition on the join keys.
                let build = wrap(build, ExchangeMode::Repartition { keys: build_keys }, p);
                let probe = wrap(probe, ExchangeMode::Repartition { keys: probe_keys }, p);
                plan.children = vec![build, probe];
            }
            (plan, true)
        }
        PhysOp::HashAggregate { group, .. } if !group.is_empty() => {
            let keys = group.clone();
            let child = plan.children.pop().expect("aggregate child");
            let (child, _) = rewrite(child, spec);
            plan.children = vec![wrap(child, ExchangeMode::Repartition { keys }, p)];
            (plan, true)
        }
        // Serial consumers: merge a partitioned input below them; give
        // a chunkable serial input a Merge too, so the driver can run
        // it as parallel scan chunks.
        PhysOp::HashAggregate { .. } | PhysOp::Sort { .. } | PhysOp::Limit { .. } => {
            let child = plan.children.pop().expect("unary child");
            let (child, part) = rewrite(child, spec);
            let child = if part || chunkable(&child).is_some() {
                wrap(child, ExchangeMode::Merge, p)
            } else {
                child
            };
            plan.children = vec![child];
            (plan, false)
        }
        PhysOp::IndexNLJoin { .. } => {
            let outer = plan.children.pop().expect("inl outer child");
            let (outer, part) = rewrite(outer, spec);
            let outer = if part {
                wrap(outer, ExchangeMode::Merge, p)
            } else {
                outer
            };
            plan.children = vec![outer];
            (plan, false)
        }
        // Streaming unaries are transparent: exchanges go above them.
        PhysOp::Filter { .. } | PhysOp::Project { .. } | PhysOp::StatsCollector { .. } => {
            let child = plan.children.pop().expect("unary child");
            let (child, part) = rewrite(child, spec);
            plan.children = vec![child];
            (plan, part)
        }
        // Cached scans stay serial leaves like any other scan; the
        // driver reads the (small) cache table in one chunk.
        PhysOp::SeqScan { .. } | PhysOp::IndexScan { .. } | PhysOp::CachedScan { .. } => {
            (plan, false)
        }
        // Already-parallelized input (defensive): keep as-is.
        PhysOp::Exchange { mode, .. } => {
            let part = matches!(mode, ExchangeMode::Repartition { .. });
            (plan, part)
        }
    }
}

/// A subtree the driver can evaluate as parallel page-range chunks:
/// purely streaming operators over **exactly one** sequential scan
/// (filters, projections, collectors and index-nested-loops probes are
/// per-row, so running them per chunk and concatenating reproduces the
/// serial stream exactly; blocking operators would not).
pub(crate) fn chunkable(plan: &PhysPlan) -> Option<&PhysPlan> {
    fn walk<'a>(p: &'a PhysPlan, scan: &mut Option<&'a PhysPlan>, ok: &mut bool) {
        match &p.op {
            PhysOp::SeqScan { .. } => {
                if scan.is_some() {
                    *ok = false; // two scans: chunking one would be wrong
                } else {
                    *scan = Some(p);
                }
            }
            PhysOp::Filter { .. }
            | PhysOp::Project { .. }
            | PhysOp::StatsCollector { .. }
            | PhysOp::IndexNLJoin { .. } => {}
            _ => *ok = false,
        }
        if *ok {
            for c in &p.children {
                walk(c, scan, ok);
            }
        }
    }
    let mut scan = None;
    let mut ok = true;
    walk(plan, &mut scan, &mut ok);
    if ok {
        scan
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_common::{DataType, Field, FileId, Schema};
    use mq_plan::ScanSpec;

    fn scan(name: &str, rows: u64) -> PhysPlan {
        let mut p = PhysPlan::new(
            PhysOp::SeqScan {
                spec: ScanSpec {
                    table: name.into(),
                    file: FileId(0),
                    pages: 8,
                    rows,
                },
                filter: None,
            },
            vec![],
            Schema::new(vec![Field::qualified(name, "k", DataType::Int)]).unwrap(),
        );
        p.annot.est_rows = rows as f64;
        p
    }

    fn join(l: PhysPlan, r: PhysPlan) -> PhysPlan {
        let schema = l.schema.join(&r.schema);
        PhysPlan::new(
            PhysOp::HashJoin {
                build_keys: vec![0],
                probe_keys: vec![0],
            },
            vec![l, r],
            schema,
        )
    }

    fn count_exchanges(plan: &PhysPlan) -> (usize, usize, usize) {
        let (mut rep, mut mer, mut bro) = (0, 0, 0);
        plan.walk(&mut |n| {
            if let PhysOp::Exchange { mode, .. } = &n.op {
                match mode {
                    ExchangeMode::Repartition { .. } => rep += 1,
                    ExchangeMode::Merge => mer += 1,
                    ExchangeMode::Broadcast => bro += 1,
                }
            }
        });
        (rep, mer, bro)
    }

    #[test]
    fn large_join_gets_repartitions_and_root_merge() {
        let mut plan = join(scan("a", 10_000), scan("b", 10_000));
        plan.assign_ids();
        parallelize(&mut plan, &ParSpec::new(4)).unwrap();
        let (rep, mer, bro) = count_exchanges(&plan);
        assert_eq!((rep, mer, bro), (2, 1, 0), "{plan}");
        // Root is the final merge.
        assert!(matches!(
            &plan.op,
            PhysOp::Exchange {
                mode: ExchangeMode::Merge,
                ..
            }
        ));
    }

    #[test]
    fn tiny_build_is_broadcast() {
        let mut plan = join(scan("a", 10), scan("b", 10_000));
        plan.assign_ids();
        parallelize(&mut plan, &ParSpec::new(4)).unwrap();
        let (rep, mer, bro) = count_exchanges(&plan);
        assert_eq!((rep, mer, bro), (1, 1, 1), "{plan}");
    }

    #[test]
    fn grouped_aggregate_repartitions_on_group_keys() {
        let base = scan("a", 5_000);
        let schema = base.schema.clone();
        let mut plan = PhysPlan::new(
            PhysOp::HashAggregate {
                group: vec![0],
                aggs: vec![],
            },
            vec![base],
            schema,
        );
        plan.assign_ids();
        parallelize(&mut plan, &ParSpec::new(2)).unwrap();
        let (rep, mer, _) = count_exchanges(&plan);
        assert_eq!((rep, mer), (1, 1), "{plan}");
        // The repartition routes on the group column.
        let mut saw = false;
        plan.walk(&mut |n| {
            if let PhysOp::Exchange {
                mode: ExchangeMode::Repartition { keys },
                ..
            } = &n.op
            {
                assert_eq!(keys, &vec![0]);
                saw = true;
            }
        });
        assert!(saw);
    }

    #[test]
    fn scalar_aggregate_over_scan_gets_chunked_merge() {
        let base = scan("a", 5_000);
        let schema = base.schema.clone();
        let mut plan = PhysPlan::new(
            PhysOp::HashAggregate {
                group: vec![],
                aggs: vec![],
            },
            vec![base],
            schema,
        );
        plan.assign_ids();
        parallelize(&mut plan, &ParSpec::new(4)).unwrap();
        let (rep, mer, bro) = count_exchanges(&plan);
        assert_eq!((rep, mer, bro), (0, 1, 0), "{plan}");
        // The merge sits below the aggregate, not above it (the scalar
        // aggregate itself is serial, so no root merge either).
        assert!(matches!(&plan.op, PhysOp::HashAggregate { .. }));
    }

    #[test]
    fn chunkable_requires_exactly_one_seq_scan() {
        let single = scan("a", 100);
        assert!(chunkable(&single).is_some());
        let two = join(scan("a", 100), scan("b", 100));
        assert!(chunkable(&two).is_none());
    }

    #[test]
    fn exchanges_inserted_even_for_one_partition() {
        let mut plan = join(scan("a", 10_000), scan("b", 10_000));
        plan.assign_ids();
        parallelize(&mut plan, &ParSpec::new(1)).unwrap();
        let (rep, mer, _) = count_exchanges(&plan);
        assert_eq!((rep, mer), (2, 1));
    }
}
