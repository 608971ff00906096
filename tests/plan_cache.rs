//! Integration: the normalized-SQL plan cache answers repeated query
//! families correctly — one template per family, literals rebound per
//! run, rows byte-identical to a plan-cache-off oracle, serially and
//! on a 4-worker runtime — writes force exactly one stale
//! re-enumeration, and repeated large estimate errors trigger the
//! adaptive histogram refresh.

use midq::common::{EngineConfig, Row, Value};
use midq::obs::ObsEvent;
use midq::tpcd::TpcdConfig;
use midq::{Database, QueryOutcome, ReoptMode, Workload, WorkloadQuery};

fn load_db(plan_cache: bool) -> Database {
    let db = Database::new(EngineConfig {
        buffer_pool_pages: 64,
        query_memory_bytes: 512 * 1024,
        stats_feedback: false,
        switch_margin: 1.0,
        plan_cache_enabled: plan_cache,
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

fn is_plancache_hit(e: &ObsEvent) -> bool {
    matches!(e, ObsEvent::PlanCacheHit { .. })
}

/// One TPC-D join family parameterized by its two literals.
fn family(qty: i64, price: i64) -> String {
    format!(
        "SELECT o_orderstatus, count(*) AS n, max(o_totalprice) AS top \
         FROM orders, lineitem \
         WHERE o_orderkey = l_orderkey AND l_quantity < {qty} \
         AND o_totalprice > {price} \
         GROUP BY o_orderstatus ORDER BY o_orderstatus"
    )
}

#[test]
fn family_equivalent_queries_share_one_entry() {
    let db = load_db(true);
    // Same family: different literals, whitespace, and keyword case.
    let variants = [
        family(25, 1000),
        "select O_ORDERSTATUS,   count(*) AS n, MAX(o_totalprice) as top \
         from orders, lineitem \
         where o_orderkey = l_orderkey and l_quantity < 30 \
         and o_totalprice > 2500 \
         group by o_orderstatus order by o_orderstatus"
            .to_string(),
        family(40, 500),
    ];
    // All variants normalize to one cache key.
    let keys: Vec<String> = variants
        .iter()
        .map(|v| midq::normalize(v).expect("normalizable").key)
        .collect();
    assert_eq!(keys[0], keys[1], "case/whitespace variant changed the key");
    assert_eq!(keys[0], keys[2], "literal variant changed the key");

    for v in &variants {
        db.query(v).mode(ReoptMode::Off).run().unwrap();
    }
    let s = db.plan_cache_stats();
    assert_eq!(s.entries, 1, "family split across entries: {s:?}");
    assert_eq!(s.insertions, 1, "family re-entered: {s:?}");
    assert_eq!(s.hits, 2, "literal variants missed the template: {s:?}");
    assert_eq!(s.misses, 1, "{s:?}");
}

#[test]
fn different_queries_never_collide() {
    let db = load_db(true);
    let a = "SELECT count(*) AS n FROM lineitem WHERE l_quantity < 25";
    let b = "SELECT count(*) AS n FROM orders WHERE o_totalprice > 25";
    let c = "SELECT max(l_quantity) AS n FROM lineitem WHERE l_quantity < 25";
    assert_ne!(
        midq::normalize(a).unwrap().key,
        midq::normalize(b).unwrap().key
    );
    assert_ne!(
        midq::normalize(a).unwrap().key,
        midq::normalize(c).unwrap().key
    );
    for q in [a, b, c] {
        db.query(q).mode(ReoptMode::Off).run().unwrap();
    }
    let s = db.plan_cache_stats();
    assert_eq!(s.entries, 3, "distinct queries collided: {s:?}");
    assert_eq!(s.hits, 0, "a distinct query hit another's template: {s:?}");
}

#[test]
fn or_precedence_queries_never_collide() {
    // AND binds tighter than OR, so these predicates differ:
    // a = qty<10 OR (qty>45 AND supp=3), b = (supp=3 AND qty<10) OR
    // qty>45. Naive conjunct sorting would conflate them onto one key
    // and the second query would execute the first's cached plan.
    let a = "SELECT count(*) AS n FROM lineitem \
             WHERE l_quantity < 10 OR l_quantity > 45 AND l_suppkey = 3";
    let b = "SELECT count(*) AS n FROM lineitem \
             WHERE l_suppkey = 3 AND l_quantity < 10 OR l_quantity > 45";
    assert_ne!(
        midq::normalize(a).unwrap().key,
        midq::normalize(b).unwrap().key,
        "OR-precedence variants must separate families"
    );

    let cached = load_db(true);
    let oracle = load_db(false);
    for q in [a, b] {
        let ours = cached.query(q).mode(ReoptMode::Off).run().unwrap();
        let theirs = oracle.query(q).mode(ReoptMode::Off).run().unwrap();
        assert_eq!(
            sorted_rows(&ours),
            sorted_rows(&theirs),
            "rows diverged from cache-off oracle for: {q}"
        );
    }
    let s = cached.plan_cache_stats();
    assert_eq!(
        (s.hits, s.entries),
        (0, 2),
        "semantically different queries shared a template: {s:?}"
    );
}

#[test]
fn rebound_literals_match_cache_off_oracle() {
    let cached = load_db(true);
    let oracle = load_db(false);
    let variants = [
        family(25, 1000),
        family(30, 1000),
        family(25, 2500),
        family(40, 500),
        family(10, 9000),
    ];
    for (i, v) in variants.iter().enumerate() {
        let ours = cached.query(v).mode(ReoptMode::Off).run().unwrap();
        let theirs = oracle.query(v).mode(ReoptMode::Off).run().unwrap();
        assert_eq!(
            sorted_rows(&ours),
            sorted_rows(&theirs),
            "variant {i}: rebound template diverged from cache-off oracle"
        );
        if i > 0 {
            assert_eq!(
                ours.cost.opt_work, 0,
                "variant {i}: warm run paid join enumeration"
            );
            assert!(
                ours.events.iter().any(is_plancache_hit),
                "variant {i}: no hit event: {:?}",
                ours.events
            );
        }
    }
    let s = cached.plan_cache_stats();
    assert_eq!((s.hits, s.misses), (4, 1), "{s:?}");
    assert_eq!(s.rebind_failures, 0, "{s:?}");
}

#[test]
fn warm_workload_is_stable_across_worker_counts() {
    let db = load_db(true);
    let make = |workers: usize| {
        let mut w = Workload::new(workers);
        for (i, (qty, price)) in [(25, 1000), (30, 1000), (25, 2500), (40, 500)]
            .iter()
            .enumerate()
        {
            w = w.query(
                WorkloadQuery::sql(format!("f{i}"), family(*qty, *price)).with_mode(ReoptMode::Off),
            );
        }
        w
    };

    // Serial cold pass enters the family template.
    let cold = db.run_concurrent(&make(1));
    assert_eq!(cold.succeeded(), cold.results.len(), "{}", cold.summary());
    assert!(cold.plan_cache_hits() >= 1, "{}", cold.summary());

    // Warmed, plan-cache traffic is a function of the query sequence
    // alone: 1-worker and 4-worker runs agree on every row and every
    // per-job hit/miss count, and the summary footer reports them.
    let warm1 = db.run_concurrent(&make(1));
    let warm4 = db.run_concurrent(&make(4));
    assert_eq!(warm4.workers, 4);
    for (a, b) in warm1.results.iter().zip(&warm4.results) {
        assert_eq!(a.label, b.label);
        let ra = a.outcome.as_ref().unwrap();
        let rb = b.outcome.as_ref().unwrap();
        assert_eq!(
            sorted_rows(ra),
            sorted_rows(rb),
            "{}: rows diverged across worker counts",
            a.label
        );
        assert_eq!(
            (a.plan_cache_hits(), a.plan_cache_misses()),
            (b.plan_cache_hits(), b.plan_cache_misses()),
            "{}: plan-cache counters diverged across worker counts",
            a.label
        );
    }
    assert_eq!(
        warm1.plan_cache_hits(),
        warm1.results.len() as u64,
        "warm workload fell through to the optimizer:\n{}",
        warm1.summary()
    );
    let summary = warm4.summary();
    assert!(
        summary.contains("plan cache:"),
        "workload summary missing the plan-cache line:\n{summary}"
    );
    assert!(
        summary.contains("plancache="),
        "per-job lines missing the plancache column:\n{summary}"
    );
}

#[test]
fn insert_triggers_exactly_one_stale_reenumeration() {
    let db = load_db(true);
    let oracle = load_db(false);
    db.query(&family(25, 1000))
        .mode(ReoptMode::Off)
        .run()
        .unwrap();
    let warm = db
        .query(&family(30, 1000))
        .mode(ReoptMode::Off)
        .run()
        .unwrap();
    assert!(warm.events.iter().any(is_plancache_hit));

    // Append one synthesized lineitem row on both databases: the
    // table's data version moves, so the next probe must fall through
    // to one full re-enumeration.
    let schema = db.engine().catalog().table("lineitem").unwrap().schema;
    let values: Vec<Value> = schema
        .fields()
        .iter()
        .map(|f| match f.dtype {
            midq::common::DataType::Bool => Value::Bool(false),
            midq::common::DataType::Int => Value::Int(1),
            midq::common::DataType::Float => Value::Float(1.0),
            midq::common::DataType::Str => Value::str("N"),
            midq::common::DataType::Date => Value::Date(9500),
        })
        .collect();
    db.insert("lineitem", Row::new(values.clone())).unwrap();
    oracle.insert("lineitem", Row::new(values)).unwrap();

    let stale = db
        .query(&family(25, 1000))
        .mode(ReoptMode::Off)
        .run()
        .unwrap();
    assert!(
        stale
            .events
            .iter()
            .any(|e| matches!(e, ObsEvent::PlanCacheStale { reason: "write" })),
        "write did not force a re-enumeration: {:?}",
        stale.events
    );
    assert!(stale.cost.opt_work > 0, "stale run skipped enumeration");
    assert_eq!(
        sorted_rows(&stale),
        sorted_rows(
            &oracle
                .query(&family(25, 1000))
                .mode(ReoptMode::Off)
                .run()
                .unwrap()
        ),
        "post-insert answer diverged from cache-off oracle"
    );

    // The re-entered template serves the family again: exactly one
    // stale re-enumeration per write, then warm.
    let rewarm = db
        .query(&family(30, 1000))
        .mode(ReoptMode::Off)
        .run()
        .unwrap();
    assert!(
        rewarm.events.iter().any(is_plancache_hit),
        "family did not re-warm: {:?}",
        rewarm.events
    );
    assert_eq!(rewarm.cost.opt_work, 0);
    let s = db.plan_cache_stats();
    assert_eq!(s.stale_reopts, 1, "{s:?}");
}

/// Adaptive histogram refresh: a column whose histogram predates a
/// heavy skewed append mis-estimates a one-column predicate by far
/// more than `HIST_REFRESH_ERROR_FACTOR`. After `hist_refresh_hits`
/// plannings see the error through cardinality feedback, the engine
/// rebuilds just that column's histogram and drops the stored
/// corrections — and no further refresh fires, because the healed
/// estimates now fall within the error threshold.
#[test]
fn adaptive_histogram_refresh_fires_once_and_heals_estimates() {
    use midq::expr::{cmp, col, lit, CmpOp};
    use midq::plan::{AggExpr, AggFunc};
    use midq::LogicalPlan;

    let db = Database::new(EngineConfig {
        buffer_pool_pages: 64,
        query_memory_bytes: 512 * 1024,
        stats_feedback: false,
        cache_enabled: true,
        plan_cache_enabled: true,
        hist_refresh_hits: 2,
        ..EngineConfig::default()
    })
    .unwrap();
    db.create_table("sk", vec![("v", midq::common::DataType::Int)])
        .unwrap();
    // Uniform prefix, then ANALYZE, then a massive skewed append: the
    // histogram believes `v < 10` selects ~1% of 500 rows while the
    // live table has ~9500 matches.
    for i in 0..500i64 {
        db.insert("sk", Row::new(vec![Value::Int(i % 1000)]))
            .unwrap();
    }
    db.analyze("sk").unwrap();
    for _ in 0..9_500 {
        db.insert("sk", Row::new(vec![Value::Int(5)])).unwrap();
    }

    let q = LogicalPlan::scan_filtered("sk", cmp(CmpOp::Lt, col("sk.v"), lit(10i64))).aggregate(
        vec![],
        vec![AggExpr {
            func: AggFunc::Count,
            arg: None,
            name: "n".into(),
        }],
    );

    let refreshes = |out: &QueryOutcome| {
        out.events
            .iter()
            .filter(|e| {
                matches!(e, ObsEvent::HistogramRefresh { table, column, .. }
                    if table == "sk" && column == "v")
            })
            .count()
    };
    let mut total = 0usize;
    let mut fired_at = None;
    for run in 0..8 {
        let out = db.query_plan(&q).mode(ReoptMode::Full).run().unwrap();
        let n = refreshes(&out);
        total += n;
        if n > 0 && fired_at.is_none() {
            fired_at = Some(run);
        }
    }
    assert_eq!(
        total, 1,
        "expected exactly one refresh of sk.v across the sequence"
    );
    // Run 0 records the observation; the refresh needs
    // `hist_refresh_hits = 2` plannings that see the error.
    let fired_at = fired_at.expect("refresh never fired");
    assert!(
        (1..=3).contains(&fired_at),
        "refresh fired at unexpected run {fired_at}"
    );
    // The healed histogram plans within the error threshold on its
    // own: the runs after the refresh accumulated no new error count
    // (else a second refresh would have fired above) even though the
    // per-fingerprint corrections for `sk` were dropped.
}

/// Prepared statements pin the template once at prepare time, then
/// every run rebinds positional parameters without the normalizer:
/// each execution is a plan-cache hit with zero optimizer work charged,
/// and parameters bind in textual order.
#[test]
fn prepared_statements_skip_the_normalizer_and_hit_warm() {
    let db = load_db(true);
    let oracle = load_db(false);

    let stmt = db.prepare(&family(25, 1000)).unwrap();
    assert_eq!(stmt.param_count(), 2);
    // prepare() itself admitted the template, off any job clock.
    assert_eq!(db.plan_cache_stats().entries, 1);

    for (qty, price) in [(25i64, 1000i64), (30, 2500), (40, 500)] {
        // Textual order: qty is the first literal, price the second.
        let out = stmt
            .run_mode(&[Value::Int(qty), Value::Int(price)], ReoptMode::Off)
            .unwrap();
        assert_eq!(out.cost.opt_work, 0, "({qty},{price}) re-enumerated");
        assert_eq!(
            sorted_rows(&out),
            sorted_rows(
                &oracle
                    .query(&family(qty, price))
                    .mode(ReoptMode::Off)
                    .run()
                    .unwrap()
            ),
            "({qty},{price}) diverged from oracle"
        );
    }
    let s = db.plan_cache_stats();
    assert_eq!(s.hits, 3, "{s:?}");
    assert_eq!(s.misses, 0, "{s:?}");

    // Arity and type drift are bind-time errors, not panics.
    assert!(stmt.run(&[Value::Int(1)]).is_err());
    assert!(stmt.run(&[Value::str("no"), Value::Int(1)]).is_err());

    // A write to a dependency makes the template stale: the next
    // prepared run pays exactly one re-enumeration, then the family is
    // warm again.
    db.insert(
        "orders",
        Row::new(vec![
            Value::Int(9_999_999),
            Value::Int(1),
            Value::str("F"),
            Value::Float(42.0),
            midq::common::value::date(1995, 1, 1),
            Value::Int(0),
        ]),
    )
    .unwrap();
    let stale = stmt
        .run_mode(&[Value::Int(25), Value::Int(1000)], ReoptMode::Off)
        .unwrap();
    assert!(
        stale.cost.opt_work > 0,
        "stale template served unre-planned"
    );
    assert_eq!(db.plan_cache_stats().stale_reopts, 1);
    let rewarm = stmt
        .run_mode(&[Value::Int(30), Value::Int(2500)], ReoptMode::Off)
        .unwrap();
    assert_eq!(rewarm.cost.opt_work, 0, "family not warm after refresh");
}
