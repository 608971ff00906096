//! # mq-memory — the memory manager
//!
//! Reproduces the Paradise memory-management behaviour the paper builds
//! on (§2.3, worked example of Figure 3): each memory-consuming
//! operator (hash join, sort, hash aggregate) derives *minimum* and
//! *maximum* memory demands from the optimizer's size estimates; the
//! manager divides a fixed per-query budget among them. Operators
//! granted less than their maximum spill — a hash join runs in multiple
//! passes, a sort does multi-pass merging — which is precisely the
//! sub-optimality Dynamic Re-Optimization repairs when improved
//! estimates show the demand was overstated.
//!
//! Re-allocation honours the paper's constraint: "once an operator
//! starts executing, its memory allocation cannot be changed. […]
//! improved statistics can only be used to improve the memory
//! allocation for operators that have not begun executing."

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mq_common::{EngineConfig, MqError, Result};
use mq_plan::{NodeId, PhysOp, PhysPlan};

pub mod broker;

pub use broker::{Lease, MemoryBroker};

/// The derived demand of one memory-consuming operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryDemand {
    /// The operator.
    pub node: NodeId,
    /// Bytes below which the operator cannot run (partitioning floor).
    pub min: usize,
    /// Bytes at which the operator runs in one pass.
    pub max: usize,
}

/// One grant in an [`AllocationReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The operator.
    pub node: NodeId,
    /// Its minimum demand.
    pub min: usize,
    /// Its maximum demand.
    pub max: usize,
    /// Bytes granted.
    pub granted: usize,
}

/// Result of an allocation pass.
#[derive(Debug, Clone, Default)]
pub struct AllocationReport {
    /// Per-operator grants, in execution (post-order) order.
    pub grants: Vec<Grant>,
    /// Budget that remained unassigned.
    pub unused: usize,
}

impl AllocationReport {
    /// The grant for one node, if it is a memory consumer.
    pub fn grant_for(&self, node: NodeId) -> Option<&Grant> {
        self.grants.iter().find(|g| g.node == node)
    }

    /// Count of operators squeezed below their maximum.
    pub fn squeezed(&self) -> usize {
        self.grants.iter().filter(|g| g.granted < g.max).count()
    }
}

/// Hash-table space overhead relative to raw build-side bytes
/// (the paper's "size of left input plus overhead").
pub const HASH_OVERHEAD: f64 = 1.4;

/// Per-group bookkeeping overhead for hash aggregation, bytes.
pub const GROUP_OVERHEAD: f64 = 32.0;

/// Compute min/max demands for every memory consumer in the plan,
/// based on its *current* annotations (so re-running after the
/// re-optimizer improves estimates yields new demands — Figure 3).
pub fn demands(plan: &PhysPlan, cfg: &EngineConfig) -> Vec<MemoryDemand> {
    let mut out = Vec::new();
    collect_postorder(plan, cfg, &mut out);
    out
}

fn collect_postorder(plan: &PhysPlan, cfg: &EngineConfig, out: &mut Vec<MemoryDemand>) {
    for c in &plan.children {
        collect_postorder(c, cfg, out);
    }
    let page = cfg.page_size as f64;
    let demand = match &plan.op {
        PhysOp::HashJoin { .. } => {
            let build = &plan.children[0].annot;
            // +16 bytes/row: the executor's per-entry bookkeeping
            // (keys, Vec headers) — the demand model must match the
            // spill accounting or grants systematically undershoot.
            let max = ((build.est_bytes() + build.est_rows * 16.0) * HASH_OVERHEAD).max(page);
            // Grace-partitioning floor: √(build pages) partitions, one
            // page each, plus an input page.
            let build_pages = (build.est_bytes() / page).max(1.0);
            let min = (build_pages.sqrt().ceil() + 1.0) * page;
            Some((min, max))
        }
        PhysOp::Sort { .. } => {
            let input = &plan.children[0].annot;
            let max = (input.est_bytes() + input.est_rows * 8.0).max(page);
            let min = 3.0 * page;
            Some((min, max))
        }
        PhysOp::HashAggregate { .. } => {
            // Output rows = groups; each needs its row plus bookkeeping.
            let groups = plan.annot.est_rows.max(1.0);
            let max = groups * (plan.annot.est_row_bytes + GROUP_OVERHEAD);
            let min = 2.0 * page;
            Some((min, max))
        }
        _ => None,
    };
    if let Some((min, max)) = demand {
        let min = min.round() as usize;
        let max = (max.round() as usize).max(min);
        out.push(MemoryDemand {
            node: plan.id,
            min,
            max,
        });
    }
}

/// The memory manager.
///
/// Standalone, its budget is a fixed number of bytes. Under the
/// concurrent runtime it instead holds a [`Lease`] from the global
/// [`MemoryBroker`]: the budget is whatever the lease currently
/// grants, and every mid-query re-allocation that needs more first
/// asks the lease to grow — so cross-query memory movement is always
/// brokered, never assumed.
#[derive(Debug, Clone)]
pub struct MemoryManager {
    budget: usize,
    lease: Option<Arc<Lease>>,
}

impl MemoryManager {
    /// Manager with the configured per-query budget.
    pub fn new(cfg: &EngineConfig) -> MemoryManager {
        MemoryManager {
            budget: cfg.query_memory_bytes,
            lease: None,
        }
    }

    /// Manager with an explicit budget (tests, experiments).
    pub fn with_budget(budget: usize) -> MemoryManager {
        MemoryManager {
            budget,
            lease: None,
        }
    }

    /// Manager whose budget is a lease from the global broker.
    pub fn with_lease(lease: Arc<Lease>) -> MemoryManager {
        MemoryManager {
            budget: 0,
            lease: Some(lease),
        }
    }

    /// The budget in bytes (the lease's current grant when brokered).
    pub fn budget(&self) -> usize {
        match &self.lease {
            Some(l) => l.granted(),
            None => self.budget,
        }
    }

    /// The lease backing this manager, if brokered.
    pub fn lease(&self) -> Option<&Arc<Lease>> {
        self.lease.as_ref()
    }

    /// Allocate memory to every memory consumer of `plan`, writing
    /// grants into each node's annotation. Greedy in execution order:
    /// every operator gets its minimum; then operators are raised to
    /// their maximum (or as far as the remaining budget allows) in the
    /// order they begin executing — mirroring Figure 3, where the first
    /// hash join receives its maximum and the second is squeezed to its
    /// minimum.
    pub fn allocate(&self, plan: &mut PhysPlan, cfg: &EngineConfig) -> Result<AllocationReport> {
        self.reallocate(plan, cfg, &HashSet::new(), &HashSet::new())
    }

    /// Re-allocate after estimates improved. Operators in `started`
    /// keep their existing grants (charged against the budget); only
    /// not-yet-started operators are re-sized (§2.3). Operators in
    /// `finished` have released their memory and are skipped entirely.
    pub fn reallocate(
        &self,
        plan: &mut PhysPlan,
        cfg: &EngineConfig,
        started: &HashSet<NodeId>,
        finished: &HashSet<NodeId>,
    ) -> Result<AllocationReport> {
        let all: Vec<MemoryDemand> = demands(plan, cfg)
            .into_iter()
            .filter(|d| !finished.contains(&d.node))
            .collect();
        let mut kept: HashMap<NodeId, usize> = HashMap::new();
        let mut budget = self.budget();
        for d in &all {
            if started.contains(&d.node) {
                let grant = plan
                    .find(d.node)
                    .map(|n| n.annot.mem_grant_bytes)
                    .unwrap_or(0);
                budget = budget.saturating_sub(grant);
                kept.insert(d.node, grant);
            }
        }
        let open: Vec<&MemoryDemand> = all.iter().filter(|d| !kept.contains_key(&d.node)).collect();

        // Pass 1: minimums for everyone still open. A brokered manager
        // first tries to grow its lease to cover the shortfall — and,
        // opportunistically, everyone's maximum — so a query squeezed
        // at admission recovers memory as concurrent queries release it.
        let min_sum: usize = open.iter().map(|d| d.min).sum();
        if let Some(lease) = &self.lease {
            let ideal: usize = open.iter().map(|d| d.max).sum();
            if ideal > budget {
                budget += lease.grow(ideal - budget);
            }
        }
        if min_sum > budget {
            return Err(MqError::OutOfMemory(format!(
                "minimum demands {min_sum} exceed remaining budget {budget}"
            )));
        }
        let mut grants: HashMap<NodeId, usize> = open.iter().map(|d| (d.node, d.min)).collect();
        let mut remaining = budget - min_sum;

        // Pass 2: raise to max greedily in execution order.
        for d in &open {
            let need = d.max - d.min;
            if need <= remaining {
                grants.insert(d.node, d.max);
                remaining -= need;
            }
        }
        // Pass 3: spread what is left partially (still execution
        // order). Paradise gave the leftover to the final aggregate
        // (§2.3's example); spreading toward the earliest still-squeezed
        // operator dominates that policy in our experiments, so we keep
        // the stronger allocator for both the baseline and the
        // re-optimized runs.
        for d in &open {
            if remaining == 0 {
                break;
            }
            let cur = grants[&d.node];
            if cur < d.max {
                let extra = remaining.min(d.max - cur);
                grants.insert(d.node, cur + extra);
                remaining -= extra;
            }
        }

        // Write grants into annotations and build the report.
        let mut report = AllocationReport {
            grants: Vec::with_capacity(all.len()),
            unused: remaining,
        };
        for d in &all {
            let granted = kept
                .get(&d.node)
                .copied()
                .or_else(|| grants.get(&d.node).copied())
                .unwrap_or(0);
            if let Some(node) = plan.find_mut(d.node) {
                node.annot.mem_grant_bytes = granted;
            }
            report.grants.push(Grant {
                node: d.node,
                min: d.min,
                max: d.max,
                granted,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_common::{DataType, Field, FileId, Schema};
    use mq_plan::{Annotation, CostEst, ScanSpec};

    fn scan(name: &str, rows: f64, row_bytes: f64) -> PhysPlan {
        let mut p = PhysPlan::new(
            PhysOp::SeqScan {
                spec: ScanSpec {
                    table: name.into(),
                    file: FileId(0),
                    pages: 1,
                    rows: rows as u64,
                },
                filter: None,
            },
            vec![],
            Schema::new(vec![Field::qualified(name, "a", DataType::Int)]).unwrap(),
        );
        p.annot = Annotation {
            est_rows: rows,
            est_row_bytes: row_bytes,
            est_cost: CostEst::default(),
            est_time_ms: 0.0,
            est_total_time_ms: 0.0,
            mem_grant_bytes: 0,
        };
        p
    }

    fn hash_join(build: PhysPlan, probe: PhysPlan, out_rows: f64) -> PhysPlan {
        let schema = build.schema.join(&probe.schema);
        let mut p = PhysPlan::new(
            PhysOp::HashJoin {
                build_keys: vec![0],
                probe_keys: vec![0],
            },
            vec![build, probe],
            schema,
        );
        p.annot.est_rows = out_rows;
        p.annot.est_row_bytes = 40.0;
        p
    }

    /// The Figure 3 scenario, scaled: budget fits one join's maximum but
    /// not both; the first join gets max, the second gets min.
    #[test]
    fn figure3_squeeze() {
        let cfg = EngineConfig::default();
        // Build sides: 15k rows × 200B ≈ 3 MB → max ≈ 4.2 MB each.
        let j1 = hash_join(
            scan("r1", 15_000.0, 200.0),
            scan("r2", 50_000.0, 100.0),
            15_000.0,
        );
        let mut j2 = hash_join(j1, scan("r3", 80_000.0, 100.0), 15_000.0);
        // Join 2's build is join 1's output: 15k × 40B... make it 3MB too.
        j2.children[0].annot.est_row_bytes = 200.0;
        j2.assign_ids();
        let mm = MemoryManager::with_budget(8 * 1024 * 1024);
        let report = mm.allocate(&mut j2, &cfg).unwrap();
        assert_eq!(report.grants.len(), 2);
        let g1 = report.grants[0];
        let g2 = report.grants[1];
        assert_eq!(g1.granted, g1.max, "first join gets its maximum");
        assert!(
            g2.granted < g2.max,
            "second join squeezed: {} vs max {}",
            g2.granted,
            g2.max
        );
        // Grants are written into the annotations.
        assert_eq!(j2.find(g1.node).unwrap().annot.mem_grant_bytes, g1.granted);
    }

    /// Figure 3's resolution: the observed build is half the estimate,
    /// so re-allocation (with join 1 already started) now satisfies
    /// join 2's maximum.
    #[test]
    fn figure3_realloc_after_improved_estimate() {
        let cfg = EngineConfig::default();
        let j1 = hash_join(
            scan("r1", 15_000.0, 200.0),
            scan("r2", 50_000.0, 100.0),
            15_000.0,
        );
        let mut j2 = hash_join(j1, scan("r3", 80_000.0, 100.0), 15_000.0);
        j2.children[0].annot.est_row_bytes = 200.0;
        j2.assign_ids();
        let mm = MemoryManager::with_budget(8 * 1024 * 1024);
        let first = mm.allocate(&mut j2, &cfg).unwrap();
        let j1_id = first.grants[0].node;
        let j2_id = first.grants[1].node;
        assert!(first.grants[1].granted < first.grants[1].max);

        // Improved estimate: join 1 output is 7500 rows, not 15000.
        j2.children[0].annot.est_rows = 7_500.0;
        let mut started = HashSet::new();
        started.insert(j1_id);
        let second = mm
            .reallocate(&mut j2, &cfg, &started, &HashSet::new())
            .unwrap();
        let g1 = second.grant_for(j1_id).unwrap();
        let g2 = second.grant_for(j2_id).unwrap();
        assert_eq!(
            g1.granted, first.grants[0].granted,
            "started operator keeps its grant"
        );
        assert_eq!(
            g2.granted, g2.max,
            "second join now gets its (smaller) maximum"
        );
    }

    #[test]
    fn min_demands_exceeding_budget_is_oom() {
        let cfg = EngineConfig::default();
        let mut plan = hash_join(
            scan("big", 10_000_000.0, 500.0),
            scan("p", 100.0, 10.0),
            100.0,
        );
        plan.assign_ids();
        let mm = MemoryManager::with_budget(8 * cfg.page_size);
        let err = mm.allocate(&mut plan, &cfg).unwrap_err();
        assert_eq!(err.kind(), "oom");
    }

    #[test]
    fn leftover_spreads_partially() {
        let cfg = EngineConfig::default();
        let j1 = hash_join(scan("a", 5_000.0, 200.0), scan("b", 100.0, 10.0), 5_000.0);
        let mut j2 = hash_join(j1, scan("c", 100.0, 10.0), 5_000.0);
        j2.children[0].annot.est_row_bytes = 200.0;
        j2.assign_ids();
        // Budget = one max (≈1.4MB) + half of the second's.
        let mm = MemoryManager::with_budget(2 * 1024 * 1024);
        let report = mm.allocate(&mut j2, &cfg).unwrap();
        let g2 = report.grants[1];
        assert!(g2.granted > g2.min, "partial raise above min");
        assert!(g2.granted < g2.max);
        assert_eq!(report.unused, 0);
    }

    #[test]
    fn sort_and_aggregate_demands() {
        let cfg = EngineConfig::default();
        let input = scan("t", 10_000.0, 100.0);
        let mut sort = PhysPlan::new(
            PhysOp::Sort {
                keys: vec![(0, true)],
            },
            vec![input],
            Schema::new(vec![Field::qualified("t", "a", DataType::Int)]).unwrap(),
        );
        sort.annot.est_rows = 10_000.0;
        sort.annot.est_row_bytes = 100.0;
        let mut agg = PhysPlan::new(
            PhysOp::HashAggregate {
                group: vec![0],
                aggs: vec![],
            },
            vec![sort],
            Schema::new(vec![Field::qualified("t", "a", DataType::Int)]).unwrap(),
        );
        agg.annot.est_rows = 500.0;
        agg.annot.est_row_bytes = 16.0;
        agg.assign_ids();
        let ds = demands(&agg, &cfg);
        assert_eq!(ds.len(), 2);
        // Sort max = input bytes plus 8 B/row run bookkeeping.
        assert_eq!(ds[0].max, 1_000_000 + 8 * 10_000);
        assert_eq!(ds[0].min, 3 * cfg.page_size);
        // Aggregate max = groups × (row + overhead).
        assert_eq!(ds[1].max, (500.0 * (16.0 + GROUP_OVERHEAD)) as usize);
        assert_ne!(ds[0].node, ds[1].node);
    }
}

#[cfg(test)]
mod realloc_tests {
    use super::*;
    use crate::tests_support::*;

    /// A finished operator's memory returns to the pool: after marking
    /// join 1 finished, join 2 can be raised to its maximum even though
    /// both maxima never fit together.
    #[test]
    fn finished_operator_releases_memory() {
        let cfg = EngineConfig::default();
        let j1 = hash_join(scan("a", 10_000.0, 200.0), scan("b", 100.0, 10.0), 10_000.0);
        let mut plan = hash_join(j1, scan("c", 100.0, 10.0), 10_000.0);
        plan.children[0].annot.est_row_bytes = 200.0;
        plan.assign_ids();
        // Budget fits exactly one maximum (~2.8 MB each).
        let mm = MemoryManager::with_budget(3 << 20);
        let first = mm.allocate(&mut plan, &cfg).unwrap();
        let j1_id = first.grants[0].node;
        let j2_id = first.grants[1].node;
        assert!(
            first.grants[1].granted < first.grants[1].max,
            "squeezed at first"
        );

        let mut finished = HashSet::new();
        finished.insert(j1_id);
        let second = mm
            .reallocate(&mut plan, &cfg, &HashSet::new(), &finished)
            .unwrap();
        assert!(
            second.grant_for(j1_id).is_none(),
            "finished op dropped from report"
        );
        let g2 = second.grant_for(j2_id).unwrap();
        assert_eq!(
            g2.granted, g2.max,
            "released memory raises the survivor to max"
        );
    }

    /// A started operator's existing grant is charged against the budget
    /// before anything is handed to open operators.
    #[test]
    fn started_grant_charged_against_budget() {
        let cfg = EngineConfig::default();
        let j1 = hash_join(scan("a", 8_000.0, 200.0), scan("b", 100.0, 10.0), 8_000.0);
        let mut plan = hash_join(j1, scan("c", 100.0, 10.0), 8_000.0);
        plan.children[0].annot.est_row_bytes = 200.0;
        plan.assign_ids();
        let mm = MemoryManager::with_budget(3 << 20);
        let first = mm.allocate(&mut plan, &cfg).unwrap();
        let j1_id = first.grants[0].node;
        let j2_id = first.grants[1].node;

        let mut started = HashSet::new();
        started.insert(j1_id);
        let second = mm
            .reallocate(&mut plan, &cfg, &started, &HashSet::new())
            .unwrap();
        let g1 = second.grant_for(j1_id).unwrap();
        let g2 = second.grant_for(j2_id).unwrap();
        assert_eq!(g1.granted, first.grants[0].granted, "started grant pinned");
        // Whatever join 2 received, the total never exceeds the budget.
        assert!(g1.granted + g2.granted <= mm.budget());
    }

    /// If a started operator plus the open minimums exceed the budget,
    /// re-allocation reports OOM rather than over-committing.
    #[test]
    fn started_grants_can_exhaust_budget() {
        let cfg = EngineConfig::default();
        let j1 = hash_join(scan("a", 8_000.0, 200.0), scan("b", 100.0, 10.0), 8_000.0);
        let mut plan = hash_join(j1, scan("c", 100.0, 10.0), 8_000.0);
        plan.children[0].annot.est_row_bytes = 200.0;
        plan.assign_ids();
        let mm = MemoryManager::with_budget(3 << 20);
        let first = mm.allocate(&mut plan, &cfg).unwrap();
        let j1_id = first.grants[0].node;

        // Inflate join 2's build estimate so even its *minimum* no longer
        // fits beside join 1's pinned grant.
        plan.children[0].annot.est_rows = 50_000_000.0;
        let mut started = HashSet::new();
        started.insert(j1_id);
        let err = mm
            .reallocate(&mut plan, &cfg, &started, &HashSet::new())
            .unwrap_err();
        assert_eq!(err.kind(), "oom");
    }

    #[test]
    fn report_helpers() {
        let cfg = EngineConfig::default();
        let j1 = hash_join(scan("a", 5_000.0, 200.0), scan("b", 100.0, 10.0), 5_000.0);
        let mut plan = hash_join(j1, scan("c", 100.0, 10.0), 5_000.0);
        plan.children[0].annot.est_row_bytes = 200.0;
        plan.assign_ids();
        let mm = MemoryManager::with_budget(2 << 20);
        let report = mm.allocate(&mut plan, &cfg).unwrap();
        assert_eq!(report.squeezed(), 1);
        assert!(report.grant_for(NodeId(999_999)).is_none());
        for g in &report.grants {
            assert!(g.min <= g.max);
            assert!(g.granted >= g.min && g.granted <= g.max);
        }
    }

    /// Plenty of budget: everyone gets max, leftover is reported unused.
    #[test]
    fn surplus_budget_reports_unused() {
        let cfg = EngineConfig::default();
        let mut plan = hash_join(scan("a", 1_000.0, 50.0), scan("b", 100.0, 10.0), 1_000.0);
        plan.assign_ids();
        let mm = MemoryManager::with_budget(64 << 20);
        let report = mm.allocate(&mut plan, &cfg).unwrap();
        assert_eq!(report.squeezed(), 0);
        assert!(report.unused > 0);
        let g = report.grants[0];
        assert_eq!(g.granted, g.max);
        assert_eq!(report.unused, mm.budget() - g.max);
    }

    /// Demand formulas: the grace-partitioning floor grows with the
    /// square root of the build size; the sort floor is constant.
    #[test]
    fn demand_floors_follow_formulas() {
        let cfg = EngineConfig::default();
        let page = cfg.page_size as f64;
        let mut small = hash_join(scan("a", 1_000.0, 100.0), scan("b", 10.0, 10.0), 10.0);
        small.assign_ids();
        let mut big = hash_join(scan("a", 100_000.0, 100.0), scan("b", 10.0, 10.0), 10.0);
        big.assign_ids();
        let d_small = demands(&small, &cfg)[0];
        let d_big = demands(&big, &cfg)[0];
        assert!(d_big.min > d_small.min, "floor grows with build size");
        let build_pages = (100_000.0 * 100.0 / page).max(1.0);
        let expected = ((build_pages.sqrt().ceil() + 1.0) * page) as usize;
        assert_eq!(d_big.min, expected);
    }

    /// A plan with no blocking operators yields no demands, and
    /// allocation over it trivially succeeds with the budget untouched.
    #[test]
    fn scan_only_plan_has_no_demands() {
        let cfg = EngineConfig::default();
        let mut plan = scan("t", 1_000.0, 100.0);
        plan.assign_ids();
        assert!(demands(&plan, &cfg).is_empty());
        let mm = MemoryManager::with_budget(1 << 20);
        let report = mm.allocate(&mut plan, &cfg).unwrap();
        assert!(report.grants.is_empty());
        assert_eq!(report.unused, mm.budget());
    }

    /// Demands respect postorder: the deepest consumer comes first, so
    /// greedy pass 2 favours operators that start executing earlier.
    #[test]
    fn demands_are_postorder() {
        let cfg = EngineConfig::default();
        let j1 = hash_join(scan("a", 1_000.0, 100.0), scan("b", 10.0, 10.0), 1_000.0);
        let mut j2 = hash_join(j1, scan("c", 10.0, 10.0), 1_000.0);
        j2.assign_ids();
        let ds = demands(&j2, &cfg);
        assert_eq!(ds.len(), 2);
        assert!(ds[0].node.0 > 0, "ids assigned");
        // j1 sits below j2, so it must be listed first.
        let j1_id = j2.children[0].id;
        assert_eq!(ds[0].node, j1_id);
        assert_eq!(ds[1].node, j2.id);
    }
}

#[cfg(test)]
mod lease_tests {
    use super::*;
    use crate::tests_support::*;

    /// A query admitted with a small lease grows it through the broker
    /// when allocation needs more — up to each operator's maximum.
    #[test]
    fn brokered_manager_grows_lease_for_demands() {
        let cfg = EngineConfig::default();
        let broker = MemoryBroker::new(16 << 20);
        let lease = broker.acquire(64 * 1024, 64 * 1024);
        let mm = MemoryManager::with_lease(lease);
        let mut plan = hash_join(scan("a", 10_000.0, 200.0), scan("b", 100.0, 10.0), 10_000.0);
        plan.assign_ids();
        let report = mm.allocate(&mut plan, &cfg).unwrap();
        let g = report.grants[0];
        assert_eq!(g.granted, g.max, "lease grew to cover the maximum");
        assert!(mm.budget() >= g.max);
        assert!(broker.in_use() <= broker.budget());
    }

    /// When concurrent queries hold the pool, growth is bounded: the
    /// allocation fails over minimums rather than over-committing, and
    /// succeeds once the hog releases.
    #[test]
    fn contended_broker_bounds_growth() {
        let cfg = EngineConfig::default();
        let broker = MemoryBroker::new(256 * 1024);
        let hog = broker.acquire(200 * 1024, 200 * 1024);
        let lease = broker.acquire(4 * 1024, 16 * 1024);
        let mm = MemoryManager::with_lease(lease);
        // Build side ≈ 2 MB: the grace-partitioning minimum (~96 KiB)
        // exceeds what the pool can spare while the hog lives.
        let mut plan = hash_join(scan("a", 10_000.0, 200.0), scan("b", 100.0, 10.0), 10_000.0);
        plan.assign_ids();
        let err = mm.allocate(&mut plan, &cfg).unwrap_err();
        assert_eq!(err.kind(), "oom");
        assert!(broker.in_use() <= broker.budget());

        drop(hog);
        let report = mm.allocate(&mut plan, &cfg).unwrap();
        let g = report.grants[0];
        assert!(g.granted >= g.min);
        assert!(broker.in_use() <= broker.budget());
        assert_eq!(broker.in_use(), mm.budget());
    }
}

#[cfg(test)]
mod tests_support {
    //! Shared plan-building helpers for this crate's tests.
    use mq_common::{DataType, Field, FileId, Schema};
    use mq_plan::{Annotation, CostEst, PhysOp, PhysPlan, ScanSpec};

    pub fn scan(name: &str, rows: f64, row_bytes: f64) -> PhysPlan {
        let mut p = PhysPlan::new(
            PhysOp::SeqScan {
                spec: ScanSpec {
                    table: name.into(),
                    file: FileId(0),
                    pages: 1,
                    rows: rows as u64,
                },
                filter: None,
            },
            vec![],
            Schema::new(vec![Field::qualified(name, "a", DataType::Int)]).unwrap(),
        );
        p.annot = Annotation {
            est_rows: rows,
            est_row_bytes: row_bytes,
            est_cost: CostEst::default(),
            est_time_ms: 0.0,
            est_total_time_ms: 0.0,
            mem_grant_bytes: 0,
        };
        p
    }

    pub fn hash_join(build: PhysPlan, probe: PhysPlan, out_rows: f64) -> PhysPlan {
        let schema = build.schema.join(&probe.schema);
        let mut p = PhysPlan::new(
            PhysOp::HashJoin {
                build_keys: vec![0],
                probe_keys: vec![0],
            },
            vec![build, probe],
            schema,
        );
        p.annot.est_rows = out_rows;
        p.annot.est_row_bytes = 40.0;
        p
    }
}
