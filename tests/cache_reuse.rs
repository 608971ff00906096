//! Integration: the cross-query materialization cache and feedback
//! store answer repeated TPC-D query families correctly — cache off,
//! cold cache and warm cache agree row-for-row, serially and on a
//! 4-worker concurrent runtime — and writes invalidate what they must.

use midq::common::{EngineConfig, FaultInjector, FaultProfile};
use midq::obs::{MetricsRegistry, Obs, ObsEvent};
use midq::plan::{subplan_fingerprint, PhysOp, PhysPlan};
use midq::tpcd::{queries, TpcdConfig};
use midq::{Database, JobResult, QueryOutcome, ReoptMode, SqlOutcome, Workload, WorkloadQuery};
use mq_plancache::{Freshness, PlanProbe};

/// The four families the cache experiment tracks: a single-table
/// aggregate (never promotes, always probes), and three multi-join
/// queries whose mid-query switches seed the cache.
fn families() -> Vec<(&'static str, midq::LogicalPlan)> {
    vec![
        ("Q1", queries::q1()),
        ("Q3", queries::q3()),
        ("Q6", queries::q6()),
        ("Q10", queries::q10()),
    ]
}

fn load_db(cache: bool) -> Database {
    // The switch-friendly recipe (see tests/recovery.rs): tight memory
    // and the paper's bare acceptance margin over a half-stale catalog,
    // so the multi-join families mis-estimate and re-optimize mid-query
    // — exactly the temps the cache promotes.
    let db = Database::new(EngineConfig {
        buffer_pool_pages: 64,
        query_memory_bytes: 512 * 1024,
        stats_feedback: false,
        switch_margin: 1.0,
        cache_enabled: cache,
        ..EngineConfig::default()
    })
    .unwrap();
    db.load_tpcd(&TpcdConfig {
        scale: 0.008,
        analyze_after_fraction: 0.5,
        ..TpcdConfig::default()
    })
    .unwrap();
    db
}

/// Canonical row rendering (repo idiom): floats rounded so different
/// (equally correct) summation orders across plans compare equal.
fn sorted_rows(outcome: &QueryOutcome) -> Vec<String> {
    let mut rows: Vec<String> = outcome
        .rows
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| match v {
                    midq::common::Value::Float(f) => format!("{f:.3}"),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn off_cold_and_warm_answers_are_identical() {
    let off_db = load_db(false);
    let cached_db = load_db(true);

    for (name, q) in families() {
        let off = off_db
            .query_plan(&q)
            .mode(ReoptMode::PlanOnly)
            .run()
            .unwrap_or_else(|e| panic!("{name} off: {e}"));
        let cold = cached_db
            .query_plan(&q)
            .mode(ReoptMode::PlanOnly)
            .run()
            .unwrap_or_else(|e| panic!("{name} cold: {e}"));
        assert_eq!(
            sorted_rows(&off),
            sorted_rows(&cold),
            "{name}: cold cache diverged from cache-off"
        );
    }
    let after_cold = cached_db.cache_stats();
    assert!(
        after_cold.promotions >= 1,
        "no multi-join family promoted a switch temp: {after_cold:?}"
    );

    let mut warm_switches = 0u32;
    let mut cold_switches = 0u32;
    for (name, q) in families() {
        let off = off_db
            .query_plan(&q)
            .mode(ReoptMode::PlanOnly)
            .run()
            .unwrap();
        cold_switches += off.plan_switches; // off_db never warms: every run re-discovers
        let warm = cached_db
            .query_plan(&q)
            .mode(ReoptMode::PlanOnly)
            .run()
            .unwrap_or_else(|e| panic!("{name} warm: {e}"));
        warm_switches += warm.plan_switches;
        assert_eq!(
            sorted_rows(&off),
            sorted_rows(&warm),
            "{name}: warm cache diverged from cache-off"
        );
    }
    let after_warm = cached_db.cache_stats();
    assert!(
        after_warm.hits >= 1,
        "no family reused a cached sub-plan: {after_warm:?}"
    );
    // The feedback store steers repeat planning: the warmed engine
    // re-optimizes no more (and typically less) than the cold one.
    assert!(
        warm_switches <= cold_switches,
        "warm {warm_switches} switches vs cold {cold_switches}"
    );
    assert!(
        cached_db.engine().feedback().applied() >= 1,
        "feedback never steered a repeat optimization"
    );

    // Dropping the cache returns the engine to a clean state.
    cached_db.clear_cache();
    let cleared = cached_db.cache_stats();
    assert_eq!(cleared.entries, 0);
    assert_eq!(cleared.bytes, 0);
    let audit = cached_db.engine().audit();
    assert!(audit.is_clean(), "{audit}");
}

#[test]
fn warm_workload_is_stable_across_worker_counts() {
    let db = load_db(true);
    let make = |workers: usize| {
        let mut w = Workload::new(workers);
        for (name, q) in families() {
            w = w.query(WorkloadQuery::plan(name, q).with_mode(ReoptMode::PlanOnly));
        }
        w
    };

    // Serial cold pass seeds the cache and the feedback store.
    let cold = db.run_concurrent(&make(1));
    assert_eq!(cold.succeeded(), cold.results.len(), "{}", cold.summary());

    // Warmed, the workload's cache traffic is a function of the query
    // sequence alone: 1-worker and 4-worker runs agree on every row
    // and every Stable cache counter.
    let warm1 = db.run_concurrent(&make(1));
    let warm4 = db.run_concurrent(&make(4));
    assert_eq!(warm4.workers, 4);
    for (a, b) in warm1.results.iter().zip(&warm4.results) {
        assert_eq!(a.label, b.label);
        let ra = a
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", a.label));
        let rb = b
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", b.label));
        assert_eq!(
            sorted_rows(ra),
            sorted_rows(rb),
            "{}: rows diverged across worker counts",
            a.label
        );
        assert_eq!(
            (a.cache_hits(), a.cache_misses()),
            (b.cache_hits(), b.cache_misses()),
            "{}: cache counters diverged across worker counts",
            a.label
        );
    }
    assert!(
        warm1.cache_hits() >= 1,
        "warm workload never hit the cache:\n{}",
        warm1.summary()
    );
    let summary = warm4.summary();
    assert!(
        summary.contains("cache:"),
        "workload summary missing the cache line:\n{summary}"
    );
}

#[test]
fn inserts_invalidate_only_dependent_families() {
    let db = load_db(true);
    let oracle = load_db(false);
    let q3 = queries::q3();

    db.query_plan(&q3).mode(ReoptMode::PlanOnly).run().unwrap();
    let cold = db.cache_stats();
    if cold.promotions == 0 {
        // Q3 ran without a switch at this scale — nothing to invalidate.
        return;
    }

    // Append one synthesized order row on both databases: every cache
    // entry depending on `orders` dies, and the re-run agrees with the
    // cache-off oracle. The row is built from the live schema so the
    // test does not hard-code the TPC-D column layout.
    let schema = db.engine().catalog().table("orders").unwrap().schema;
    let values: Vec<midq::common::Value> = schema
        .fields()
        .iter()
        .map(|f| match f.dtype {
            midq::common::DataType::Bool => midq::common::Value::Bool(false),
            midq::common::DataType::Int => midq::common::Value::Int(1),
            midq::common::DataType::Float => midq::common::Value::Float(1.0),
            midq::common::DataType::Str => midq::common::Value::Str("1990-01-01".into()),
            midq::common::DataType::Date => midq::common::Value::Date(7305), // 1990-01-01
        })
        .collect();
    db.insert("orders", midq::common::Row::new(values.clone()))
        .unwrap();
    oracle
        .insert("orders", midq::common::Row::new(values))
        .unwrap();

    let stats = db.cache_stats();
    assert!(
        stats.invalidations >= 1,
        "write to orders invalidated nothing: {stats:?}"
    );

    let ours = db.query_plan(&q3).mode(ReoptMode::PlanOnly).run().unwrap();
    let theirs = oracle
        .query_plan(&q3)
        .mode(ReoptMode::PlanOnly)
        .run()
        .unwrap();
    assert_eq!(
        sorted_rows(&ours),
        sorted_rows(&theirs),
        "post-invalidation answer diverged from cache-off oracle"
    );
    let audit = db.engine().audit();
    assert!(audit.is_clean(), "{audit}");
}

/// Every `JobResult` accessor means the same thing with and without a
/// metrics snapshot: the snapshot folds exactly the events the outcome
/// carries. Two identically loaded databases run one seeded workload
/// in which every job completes, one observed by a metrics-only `Obs`
/// and one bare.
#[test]
fn job_accessors_agree_with_and_without_metrics() {
    let load = || {
        let mut db = load_db(true);
        let mut cfg = db.engine().config().clone();
        cfg.plan_cache_enabled = true;
        db.engine_mut().and_then(|e| e.set_config(cfg)).unwrap();
        db
    };
    let sql = "SELECT o_orderstatus, count(*) AS n FROM orders, lineitem \
               WHERE o_orderkey = l_orderkey AND l_quantity < 25 \
               GROUP BY o_orderstatus ORDER BY o_orderstatus";
    // Transient faults only, no more than the segment-retry limit.
    let profile = FaultProfile {
        max_faults: 2,
        transient_percent: 100,
        cancel_percent: 0,
        ..FaultProfile::default()
    };
    let make = |obs: Option<Obs>| {
        let mut w = Workload::new(1);
        // Each family twice: the repeat hits the caches the first run
        // filled.
        for pass in 0..2 {
            for (name, q) in families() {
                w = w.query(WorkloadQuery::plan(name, q).with_mode(ReoptMode::PlanOnly));
            }
            w = w.query(WorkloadQuery::sql(format!("sql{pass}"), sql));
        }
        for (i, q) in w.queries.iter_mut().enumerate() {
            q.fault = Some(FaultInjector::from_seed(0x5EED + i as u64, &profile));
        }
        w.obs = obs;
        w
    };
    let bare = load().run_concurrent(&make(None));
    let observed = load().run_concurrent(&make(Some(
        Obs::none().with_metrics(MetricsRegistry::new()),
    )));

    let accessors = |r: &JobResult| {
        [
            r.segment_retries(),
            r.reopt_decisions(),
            r.cache_hits(),
            r.cache_misses(),
            r.cache_bytes_saved(),
            r.plan_cache_hits(),
            r.plan_cache_misses(),
        ]
    };
    for (b, o) in bare.results.iter().zip(&observed.results) {
        assert!(b.is_ok() && o.is_ok(), "{}: {}", b.label, bare.summary());
        assert!(b.metrics.is_empty() && !o.metrics.is_empty());
        assert_eq!(accessors(b), accessors(o), "{}", b.label);
    }
    // The workload exercises what the accessors count beyond the
    // outcome's own counters: verdicts other than accepted switches,
    // bytes read from the cache, plan-cache hits and segment retries.
    let any = |f: fn(&JobResult) -> bool| observed.results.iter().any(f);
    assert!(any(
        |r| r.reopt_decisions() > u64::from(r.outcome.as_ref().unwrap().plan_switches)
    ));
    assert!(any(|r| r.cache_bytes_saved() > 0));
    assert!(any(|r| r.plan_cache_hits() > 0));
    assert!(any(|r| r.segment_retries() > 0));
}

/// The `feedback_applied` events of a warm run, as `(table,
/// fingerprint, estimated rows, observed rows)`.
fn feedback_events(outcome: &QueryOutcome) -> Vec<(String, String, String, String)> {
    outcome
        .events
        .iter()
        .filter_map(|e| match e {
            ObsEvent::FeedbackApplied {
                fingerprint,
                estimated_rows,
                observed_rows,
                table,
            } => Some((
                table.clone(),
                format!("{fingerprint:016x}"),
                format!("{estimated_rows:.1}"),
                format!("{observed_rows:.1}"),
            )),
            _ => None,
        })
        .collect()
}

/// Warm Q3 plans through the feedback store at every level the first
/// run observed: the customer scan, both joins, and the GROUP BY above
/// the join tree. Each correction names its base tables.
#[test]
fn warm_q3_feedback_corrections_are_pinned() {
    let db = load_db(true);
    let q3 = queries::q3();
    db.query_plan(&q3).mode(ReoptMode::PlanOnly).run().unwrap();
    let warm = db.query_plan(&q3).mode(ReoptMode::PlanOnly).run().unwrap();
    let want = [
        ("customer", "3866e5287d36bb70", "242.0", "252.0"),
        ("customer,orders", "80c74cbae82b4e0c", "1068.1", "1264.0"),
        (
            "customer,lineitem,orders",
            "5cd560f2dc242025",
            "4656.9",
            "250.0",
        ),
        (
            "customer,lineitem,orders",
            "13b5623fd47d6144",
            "250.0",
            "93.0",
        ),
    ]
    .map(|(t, fp, est, obs)| (t.into(), fp.into(), est.into(), obs.into()));
    assert_eq!(feedback_events(&warm), want, "{}", warm.report());
}

/// `Database::prepare` plans through the same feedback consult as an
/// executed miss: with the first run's observations stored, the
/// template it admits carries the same per-node estimates, the
/// GROUP BY's observed cardinality included.
#[test]
fn prepared_template_matches_an_executed_miss() {
    let db = Database::new(EngineConfig {
        buffer_pool_pages: 64,
        query_memory_bytes: 512 * 1024,
        stats_feedback: false,
        switch_margin: 1.0,
        cache_enabled: true,
        plan_cache_enabled: true,
        ..EngineConfig::default()
    })
    .unwrap();
    db.load_tpcd(&TpcdConfig {
        scale: 0.008,
        analyze_after_fraction: 0.5,
        ..TpcdConfig::default()
    })
    .unwrap();
    let sql = queries::q3_sql();
    let norm = midq::normalize(sql).expect("Q3 normalizes");
    let template = || match db.engine().plan_cache().probe(&norm, |_| Freshness::Fresh) {
        PlanProbe::Hit(plan, _) => *plan,
        _ => panic!("no template for Q3"),
    };
    let estimates = |plan: &PhysPlan| {
        let mut out = Vec::new();
        plan.walk(&mut |n| out.push((n.id, n.annot.est_rows)));
        out
    };
    // The first run stores the observations.
    db.execute_sql(sql, ReoptMode::PlanOnly).unwrap();

    db.engine().plan_cache().clear();
    db.prepare(sql).unwrap();
    let prepared = template();

    db.engine().plan_cache().clear();
    let miss = match db.execute_sql(sql, ReoptMode::PlanOnly).unwrap() {
        SqlOutcome::Query(out) => out,
        SqlOutcome::Command(c) => panic!("Q3 ran as a command: {c}"),
    };
    let executed = template();
    assert_eq!(estimates(&prepared), estimates(&executed));

    // The miss corrected the GROUP BY above the join tree, and the
    // prepared template carries that correction too.
    let mut agg = None;
    prepared.walk(&mut |n| {
        if matches!(n.op, PhysOp::HashAggregate { .. }) {
            agg = Some((subplan_fingerprint(n), n.annot.est_rows));
        }
    });
    let (agg_fp, agg_rows) = agg.expect("Q3 groups");
    assert!(
        miss.events.iter().any(|e| matches!(e,
            ObsEvent::FeedbackApplied { fingerprint, observed_rows, .. }
                if *fingerprint == agg_fp && *observed_rows == agg_rows)),
        "{}",
        miss.report()
    );
}
