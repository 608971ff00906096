//! Property tests for the memory manager's allocation invariants.
//!
//! Whatever the plan shape, estimates, budget, or set of started/
//! finished operators, an allocation must (a) never over-commit the
//! budget, (b) keep every grant within its operator's [min, max] band,
//! (c) pin started operators' grants, and (d) never lower a floored
//! grant. These are the §2.3 contract; every re-allocation decision the
//! controller makes relies on them.

use std::collections::HashSet;

use proptest::prelude::*;

use mq_common::{DataType, EngineConfig, Field, FileId, Schema};
use mq_memory::{demands, MemoryManager};
use mq_plan::{PhysOp, PhysPlan, ScanSpec};

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
    p.annot.est_rows = rows;
    p.annot.est_row_bytes = row_bytes;
    p
}

fn hash_join(build: PhysPlan, probe: PhysPlan, out_rows: f64, out_bytes: f64) -> PhysPlan {
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
    p.annot.est_row_bytes = out_bytes;
    p
}

/// A random left-deep join chain: the canonical Paradise plan shape.
fn arb_plan() -> impl Strategy<Value = PhysPlan> {
    let leaf = (10.0..20_000.0f64, 8.0..400.0f64);
    proptest::collection::vec(leaf, 2..6).prop_map(|leaves| {
        let mut iter = leaves.into_iter().enumerate();
        let (_, (r, w)) = iter.next().unwrap();
        let mut plan = scan("t0", r, w);
        for (i, (rows, width)) in iter {
            let probe = scan(&format!("t{i}"), rows, width);
            // Join output sized somewhere between the inputs.
            let out_rows = (plan.annot.est_rows + rows) / 2.0;
            plan = hash_join(plan, probe, out_rows, (width + 24.0).min(200.0));
        }
        plan.assign_ids();
        plan
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Grants stay within bands and the budget is never over-committed.
    #[test]
    fn allocation_respects_bands_and_budget(
        mut plan in arb_plan(),
        budget_kb in 64usize..16_384,
    ) {
        let cfg = EngineConfig::default();
        let mm = MemoryManager::with_budget(budget_kb * 1024);
        match mm.allocate(&mut plan, &cfg) {
            Ok(report) => {
                let mut total = 0usize;
                for g in &report.grants {
                    prop_assert!(g.min <= g.max);
                    prop_assert!(g.granted >= g.min, "grant below min: {g:?}");
                    prop_assert!(g.granted <= g.max, "grant above max: {g:?}");
                    total += g.granted;
                    // Grants are mirrored into the annotations.
                    prop_assert_eq!(
                        plan.find(g.node).unwrap().annot.mem_grant_bytes,
                        g.granted
                    );
                }
                prop_assert!(total + report.unused <= mm.budget());
            }
            Err(e) => {
                // OOM is the only legal failure, and only when minimums
                // genuinely exceed the budget.
                prop_assert_eq!(e.kind(), "oom");
                let min_sum: usize = demands(&plan, &cfg).iter().map(|d| d.min).sum();
                prop_assert!(min_sum > mm.budget());
            }
        }
    }

    /// Re-allocation pins every started operator's grant bit-for-bit
    /// and never hands out more than the budget in total.
    #[test]
    fn realloc_pins_started_grants(
        mut plan in arb_plan(),
        budget_kb in 256usize..16_384,
        shrink in 0.1..1.0f64,
    ) {
        let cfg = EngineConfig::default();
        let mm = MemoryManager::with_budget(budget_kb * 1024);
        let Ok(first) = mm.allocate(&mut plan, &cfg) else { return Ok(()) };
        if first.grants.is_empty() { return Ok(()); }

        // The deepest consumer starts; estimates elsewhere shrink.
        let started_node = first.grants[0].node;
        let mut started = HashSet::new();
        started.insert(started_node);
        plan.walk_mut(&mut |n| {
            if n.id != started_node {
                n.annot.est_rows = (n.annot.est_rows * shrink).max(1.0);
            }
        });

        let Ok(second) = mm.reallocate(&mut plan, &cfg, &started, &HashSet::new()) else {
            return Ok(());
        };
        let pinned = second.grant_for(started_node).unwrap();
        prop_assert_eq!(pinned.granted, first.grants[0].granted);
        let total: usize = second.grants.iter().map(|g| g.granted).sum();
        prop_assert!(total <= mm.budget());
    }

    /// Marking an operator finished frees its memory. An individual
    /// grant may legitimately move in either direction — with more
    /// budget the greedy pass can suddenly afford some operator's full
    /// maximum, diverting leftover that another operator used to
    /// receive as a partial — but the *total* granted to the survivors
    /// never decreases, and every grant stays within its band. (In a
    /// live query the controller keeps the larger of the old and the
    /// new grant, so an individual operator never regresses.)
    #[test]
    fn finishing_frees_memory(
        mut plan in arb_plan(),
        budget_kb in 256usize..8_192,
    ) {
        let cfg = EngineConfig::default();
        let mm = MemoryManager::with_budget(budget_kb * 1024);
        let Ok(first) = mm.allocate(&mut plan, &cfg) else { return Ok(()) };
        if first.grants.len() < 2 { return Ok(()); }

        let mut finished = HashSet::new();
        finished.insert(first.grants[0].node);
        let Ok(second) = mm.reallocate(&mut plan, &cfg, &HashSet::new(), &finished) else {
            return Ok(());
        };
        prop_assert!(second.grant_for(first.grants[0].node).is_none());

        let before_total: usize = first.grants[1..].iter().map(|g| g.granted).sum();
        let after_total: usize = second.grants.iter().map(|g| g.granted).sum();
        prop_assert!(
            after_total >= before_total,
            "total shrank after freeing: {before_total} -> {after_total}"
        );
        for g in &second.grants {
            prop_assert!(g.granted >= g.min && g.granted <= g.max);
        }
    }
}
