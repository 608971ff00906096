//! End-to-end engine tests: the full §2.6 loop, exercised on scenarios
//! engineered to reproduce the paper's two repair mechanisms.

use mq_common::{DataType, EngineConfig, Row, Value};
use mq_expr::{cmp, col, lit, CmpOp};
use mq_obs::{ObsEvent, ReoptVerdict};
use mq_plan::{AggExpr, AggFunc, LogicalPlan, PhysOp};
use mq_stats::HistogramKind;

use crate::engine::{Engine, ExecRequest, JobEnv, PlanSource, QueryOutcome};
use crate::ReoptMode;

/// The outcome's events, one report line each (assertion context).
fn events_text(o: &QueryOutcome) -> String {
    o.events
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

fn is_accept(e: &ObsEvent) -> bool {
    matches!(
        e,
        ObsEvent::Reopt {
            verdict: ReoptVerdict::Accept,
            ..
        }
    )
}

/// Execute a plan-built query under `env` (most tests pass
/// [`Engine::default_env`]).
fn run(
    engine: &Engine,
    q: &LogicalPlan,
    mode: ReoptMode,
    env: JobEnv,
) -> mq_common::Result<QueryOutcome> {
    engine.execute(ExecRequest {
        logical: q,
        mode,
        env,
        source: PlanSource::Plan,
    })
}

/// The classic stale-statistics setup: `fact` is analyzed early, then
/// grows 10× with a *different* value distribution, so the optimizer
/// badly underestimates the filtered cardinality. A big indexed
/// dimension makes the (estimate-driven) indexed nested-loops choice
/// catastrophic at the true cardinality — the exact sub-optimality of
/// Figure 4.
fn stale_fact_engine() -> Engine {
    stale_fact_engine_with(EngineConfig::default())
}

fn stale_fact_engine_with(cfg: EngineConfig) -> Engine {
    let engine = Engine::new(cfg).unwrap();
    let cat = engine.catalog();
    let st = engine.storage();

    cat.create_table(
        st,
        "fact",
        vec![
            ("fk1", DataType::Int),
            ("fk2", DataType::Int),
            ("v", DataType::Int),
        ],
    )
    .unwrap();
    cat.create_table(
        st,
        "dim1",
        vec![("pk", DataType::Int), ("x", DataType::Int)],
    )
    .unwrap();
    cat.create_table(
        st,
        "bigdim",
        vec![("pk", DataType::Int), ("payload", DataType::Int)],
    )
    .unwrap();

    // Initial load: v uniform over 0..499 (filter v < 1 ⇒ est. ~0.5%).
    for i in 0..20_000i64 {
        cat.insert_row(
            st,
            "fact",
            Row::new(vec![
                Value::Int(i % 100),
                Value::Int((i * 7919) % 60_000),
                Value::Int(i % 500),
            ]),
        )
        .unwrap();
    }
    // dim1's *filtered* estimate stays larger than the estimated
    // filtered fact, so the optimizer accumulates fact first — putting
    // the collector on the mis-estimated stream (the build side), as
    // in the paper's Fig. 2 — while the dim1 join is reductive enough
    // that the indexed bigdim join comes last.
    for i in 0..600i64 {
        cat.insert_row(st, "dim1", Row::new(vec![Value::Int(i), Value::Int(i)]))
            .unwrap();
    }
    // bigdim is loaded in truly shuffled pk order: the pk index is
    // unclustered, so random probes pay real I/O.
    let mut pks: Vec<i64> = (0..60_000).collect();
    mq_common::DetRng::new(0xB16D).shuffle(&mut pks);
    for (i, pk) in pks.into_iter().enumerate() {
        cat.insert_row(
            st,
            "bigdim",
            Row::new(vec![Value::Int(pk), Value::Int(i as i64 % 7)]),
        )
        .unwrap();
    }
    for t in ["fact", "dim1", "bigdim"] {
        cat.analyze(st, t, HistogramKind::MaxDiff, 16, 512, 11)
            .unwrap();
    }
    cat.create_index(st, "bigdim", "pk").unwrap();

    // Post-ANALYZE distribution shift: 2000 new rows, every one
    // satisfying v < 1. Page-count growth scaling cannot see this —
    // the *histogram* is what went stale, exactly footnote 2's world.
    for i in 0..2000i64 {
        cat.insert_row(
            st,
            "fact",
            Row::new(vec![
                Value::Int(i % 100),
                Value::Int((i * 6133) % 60_000),
                Value::Int(0),
            ]),
        )
        .unwrap();
    }
    engine
}

fn stale_fact_query() -> LogicalPlan {
    LogicalPlan::scan_filtered("fact", cmp(CmpOp::Lt, col("fact.v"), lit(1i64)))
        .join(
            LogicalPlan::scan_filtered("dim1", cmp(CmpOp::Lt, col("dim1.x"), lit(40i64))),
            vec![("fact.fk1", "dim1.pk")],
        )
        .join(LogicalPlan::scan("bigdim"), vec![("fact.fk2", "bigdim.pk")])
}

#[test]
fn all_modes_agree_on_results() {
    let engine = stale_fact_engine();
    let q = stale_fact_query();
    let mut sorted: Vec<Vec<String>> = Vec::new();
    for mode in [
        ReoptMode::Off,
        ReoptMode::MemoryOnly,
        ReoptMode::PlanOnly,
        ReoptMode::Full,
    ] {
        let outcome = run(&engine, &q, mode, engine.default_env()).unwrap();
        let mut rows: Vec<String> = outcome.rows.iter().map(|r| r.to_string()).collect();
        rows.sort();
        sorted.push(rows);
    }
    assert_eq!(sorted[0], sorted[1], "MemoryOnly must not change results");
    assert_eq!(sorted[0], sorted[2], "PlanOnly must not change results");
    assert_eq!(sorted[0], sorted[3], "Full must not change results");
    assert!(!sorted[0].is_empty());
}

#[test]
fn stale_stats_trigger_plan_switch_and_win() {
    let engine = stale_fact_engine();
    let q = stale_fact_query();

    let off = run(&engine, &q, ReoptMode::Off, engine.default_env()).unwrap();
    let full = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();

    assert!(full.collector_reports > 0, "collectors must report");
    assert!(
        full.plan_switches >= 1,
        "expected a plan switch; events:\n{}",
        events_text(&full)
    );
    // The re-optimized execution must beat the stale-planned one by a
    // wide margin (the INL join at true cardinality is catastrophic).
    assert!(
        full.time_ms < off.time_ms * 0.8,
        "full {:.0}ms vs off {:.0}ms; events:\n{}",
        full.time_ms,
        off.time_ms,
        events_text(&full)
    );
    // The final plan should no longer use the indexed join.
    let mut has_inl = false;
    full.final_plan.walk(&mut |n| {
        if matches!(n.op, PhysOp::IndexNLJoin { .. }) {
            has_inl = true;
        }
    });
    assert!(!has_inl, "final plan:\n{}", full.final_plan);
}

#[test]
fn off_mode_has_no_monitoring() {
    let engine = stale_fact_engine();
    let q = stale_fact_query();
    let off = run(&engine, &q, ReoptMode::Off, engine.default_env()).unwrap();
    assert_eq!(off.collector_reports, 0);
    assert_eq!(off.plan_switches, 0);
    assert_eq!(off.memory_reallocs, 0);
    let mut collectors = 0;
    off.final_plan.walk(&mut |n| {
        if matches!(n.op, PhysOp::StatsCollector { .. }) {
            collectors += 1;
        }
    });
    assert_eq!(collectors, 0, "Off mode must not instrument the plan");
}

#[test]
fn memory_only_never_switches_plans() {
    let engine = stale_fact_engine();
    let q = stale_fact_query();
    let outcome = run(&engine, &q, ReoptMode::MemoryOnly, engine.default_env()).unwrap();
    assert_eq!(outcome.plan_switches, 0);
}

/// Figure 3 / §2.3: the optimizer *under*-estimates a correlated
/// filter 4×, so the second hash join is granted a quarter of the
/// memory it needs and spills. The collector on the filter reveals the
/// truth when the first join's build completes; re-allocation re-sizes
/// the unstarted join into the unused budget and the spill disappears.
#[test]
fn memory_realloc_avoids_spill() {
    let cfg = EngineConfig {
        query_memory_bytes: 256 * 1024,
        buffer_pool_pages: 32,
        ..EngineConfig::default()
    };
    let engine = Engine::new(cfg).unwrap();
    let cat = engine.catalog();
    let st = engine.storage();

    cat.create_table(
        st,
        "r",
        vec![
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
            ("k", DataType::Int),
        ],
    )
    .unwrap();
    cat.create_table(st, "s", vec![("k", DataType::Int), ("m", DataType::Int)])
        .unwrap();
    cat.create_table(st, "t", vec![("m", DataType::Int), ("z", DataType::Int)])
        .unwrap();
    // a, b, c perfectly correlated: the three-way conjunction keeps
    // 50% of r, but independence predicts 12.5%.
    for i in 0..4000i64 {
        let a = i % 1000;
        cat.insert_row(
            st,
            "r",
            Row::new(vec![
                Value::Int(a),
                Value::Int(a),
                Value::Int(a),
                Value::Int(i % 2000),
            ]),
        )
        .unwrap();
    }
    for i in 0..1200i64 {
        cat.insert_row(st, "s", Row::new(vec![Value::Int(i), Value::Int(i % 50)]))
            .unwrap();
    }
    for i in 0..50i64 {
        cat.insert_row(st, "t", Row::new(vec![Value::Int(i), Value::Int(i % 10)]))
            .unwrap();
    }
    for name in ["r", "s", "t"] {
        cat.analyze(st, name, HistogramKind::MaxDiff, 16, 512, 5)
            .unwrap();
    }

    let q = LogicalPlan::scan_filtered(
        "r",
        mq_expr::and(vec![
            cmp(CmpOp::Lt, col("r.a"), lit(500i64)),
            cmp(CmpOp::Lt, col("r.b"), lit(500i64)),
            cmp(CmpOp::Lt, col("r.c"), lit(500i64)),
        ]),
    )
    .join(LogicalPlan::scan("s"), vec![("r.k", "s.k")])
    .join(LogicalPlan::scan("t"), vec![("s.m", "t.m")])
    .aggregate(
        vec!["t.z"],
        vec![AggExpr {
            func: AggFunc::Count,
            arg: None,
            name: "n".into(),
        }],
    );

    let off = run(&engine, &q, ReoptMode::Off, engine.default_env()).unwrap();
    let mem = run(&engine, &q, ReoptMode::MemoryOnly, engine.default_env()).unwrap();
    assert_eq!(mem.plan_switches, 0);
    // Results identical.
    let key = |o: &crate::engine::QueryOutcome| {
        let mut v: Vec<String> = o.rows.iter().map(|r| r.to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(key(&off), key(&mem));
    // A grant was raised mid-query…
    assert!(mem.memory_reallocs >= 1, "events:\n{}", events_text(&mem));
    assert!(
        mem.events
            .iter()
            .any(|e| matches!(e, ObsEvent::GrantChange { .. })),
        "events:\n{}",
        events_text(&mem)
    );
    // …and the spill it prevents is visible in the physical writes.
    assert!(
        mem.cost.pages_written < off.cost.pages_written,
        "mem writes {} vs off writes {}; events:\n{}",
        mem.cost.pages_written,
        off.cost.pages_written,
        events_text(&mem)
    );
}

#[test]
fn simple_queries_unaffected() {
    let engine = stale_fact_engine();
    // Zero-join query: collectors may exist but re-optimization never
    // fires, and results match.
    let q = LogicalPlan::scan_filtered("fact", cmp(CmpOp::Lt, col("fact.v"), lit(2i64))).aggregate(
        vec![],
        vec![AggExpr {
            func: AggFunc::Count,
            arg: None,
            name: "n".into(),
        }],
    );
    let off = run(&engine, &q, ReoptMode::Off, engine.default_env()).unwrap();
    let full = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    assert_eq!(off.rows, full.rows);
    assert_eq!(full.plan_switches, 0);
    // Overhead must respect μ within rounding: the full run can cost at
    // most a few percent more.
    assert!(
        full.time_ms <= off.time_ms * (1.0 + engine.config().mu + 0.05),
        "full {:.1} vs off {:.1}",
        full.time_ms,
        off.time_ms
    );
}

#[test]
fn events_are_informative() {
    let engine = stale_fact_engine();
    let q = stale_fact_query();
    let full = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    let log = events_text(&full);
    assert!(
        full.events
            .iter()
            .any(|e| matches!(e, ObsEvent::Collector { .. })),
        "log:\n{log}"
    );
    if full.plan_switches > 0 {
        assert!(full.events.iter().any(is_accept), "log:\n{log}");
    }
}

/// §1's object-relational motivation: a UDF predicate the optimizer
/// prices at its blind default (10%) actually keeps 90% of the rows.
/// The collector reveals it; re-allocation re-sizes the downstream
/// joins and removes their spill passes.
#[test]
fn udf_blindness_repaired_by_reallocation() {
    let cfg = EngineConfig {
        query_memory_bytes: 1024 * 1024,
        buffer_pool_pages: 32,
        ..EngineConfig::default()
    };
    let engine = Engine::new(cfg).unwrap();
    let cat = engine.catalog();
    let st = engine.storage();

    cat.create_table(
        st,
        "parcels",
        vec![
            ("id", DataType::Int),
            ("region_code", DataType::Int),
            ("area", DataType::Float),
        ],
    )
    .unwrap();
    cat.create_table(
        st,
        "regions",
        vec![("code", DataType::Int), ("zone", DataType::Int)],
    )
    .unwrap();
    cat.create_table(
        st,
        "zones",
        vec![("zone", DataType::Int), ("name", DataType::Str)],
    )
    .unwrap();
    for i in 0..6000i64 {
        cat.insert_row(
            st,
            "parcels",
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 800),
                Value::Float((i % 977) as f64),
            ]),
        )
        .unwrap();
    }
    for i in 0..800i64 {
        cat.insert_row(
            st,
            "regions",
            Row::new(vec![Value::Int(i), Value::Int(i % 40)]),
        )
        .unwrap();
    }
    for i in 0..40i64 {
        cat.insert_row(
            st,
            "zones",
            Row::new(vec![Value::Int(i), Value::str(format!("zone-{i}"))]),
        )
        .unwrap();
    }
    for t in ["parcels", "regions", "zones"] {
        cat.analyze(st, t, HistogramKind::MaxDiff, 16, 512, 3)
            .unwrap();
    }

    let udf_filter = mq_expr::Expr::UdfPred {
        name: "inside_survey_area".into(),
        arg: Box::new(col("parcels.area")),
        udf: mq_expr::Udf::HashFraction {
            keep_fraction: 0.9,
            salt: 42,
        },
    };
    let q = LogicalPlan::scan_filtered("parcels", udf_filter)
        .join(
            LogicalPlan::scan("regions"),
            vec![("parcels.region_code", "regions.code")],
        )
        .join(
            LogicalPlan::scan("zones"),
            vec![("regions.zone", "zones.zone")],
        )
        .aggregate(
            vec!["zones.name"],
            vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                name: "parcel_count".into(),
            }],
        );

    let off = run(&engine, &q, ReoptMode::Off, engine.default_env()).unwrap();
    let full = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    assert_eq!(off.rows.len(), full.rows.len());
    assert!(full.memory_reallocs >= 1, "events:\n{}", events_text(&full));
    assert!(
        full.cost.pages_written < off.cost.pages_written,
        "full writes {} vs off writes {}",
        full.cost.pages_written,
        off.cost.pages_written
    );
    assert!(
        full.time_ms < off.time_ms * 0.8,
        "full {:.0}ms vs off {:.0}ms",
        full.time_ms,
        off.time_ms
    );
}

/// Temp tables created by plan switches are unregistered and their
/// files freed once the query finishes.
#[test]
fn switch_temp_tables_are_cleaned_up() {
    let engine = stale_fact_engine();
    let q = stale_fact_query();
    let before_tables = engine.catalog().table_names();
    let full = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    assert!(full.plan_switches >= 1, "scenario must switch");
    let after_tables = engine.catalog().table_names();
    assert_eq!(before_tables, after_tables, "temp tables must be dropped");
    assert!(
        !after_tables.iter().any(|t| t.starts_with("tmp_reopt")),
        "{after_tables:?}"
    );
}

/// A budget too small for even the minimum demands is a clean error,
/// not a panic or a wrong answer.
#[test]
fn impossible_budget_is_a_clean_error() {
    let mut cfg = EngineConfig::default();
    cfg.query_memory_bytes = 4 * cfg.page_size; // the legal minimum
    let engine = Engine::new(cfg).unwrap();
    let cat = engine.catalog();
    let st = engine.storage();
    cat.create_table(st, "big", vec![("k", DataType::Int), ("v", DataType::Int)])
        .unwrap();
    for i in 0..20_000i64 {
        cat.insert_row(
            st,
            "big",
            Row::new(vec![Value::Int(i), Value::Int(i % 100)]),
        )
        .unwrap();
    }
    cat.analyze(st, "big", HistogramKind::MaxDiff, 16, 512, 1)
        .unwrap();
    let q = LogicalPlan::scan("big").join(LogicalPlan::scan("big2"), vec![("big.k", "big2.k")]);
    // big2 doesn't exist → NotFound, clean.
    assert!(run(&engine, &q, ReoptMode::Full, engine.default_env()).is_err());
    // Self-join-free giant hash join under a 4-page budget → OOM or a
    // successful (heavily spilling) run, but never a panic.
    let q = LogicalPlan::scan("big").aggregate(
        vec!["big.v"],
        vec![AggExpr {
            func: AggFunc::Count,
            arg: None,
            name: "n".into(),
        }],
    );
    let result = run(&engine, &q, ReoptMode::Full, engine.default_env());
    match result {
        Ok(out) => assert_eq!(out.rows.len(), 100),
        Err(e) => assert_eq!(e.kind(), "oom"),
    }
}

/// Mode separation: PlanOnly never emits `memory:` events; MemoryOnly
/// never switches.
#[test]
fn modes_are_cleanly_separated() {
    let engine = stale_fact_engine();
    let q = stale_fact_query();
    let plan_only = run(&engine, &q, ReoptMode::PlanOnly, engine.default_env()).unwrap();
    assert!(
        !plan_only
            .events
            .iter()
            .any(|e| matches!(e, ObsEvent::GrantChange { .. })),
        "PlanOnly must not re-allocate: {:?}",
        plan_only.events
    );
    assert_eq!(plan_only.memory_reallocs, 0);
    let mem_only = run(&engine, &q, ReoptMode::MemoryOnly, engine.default_env()).unwrap();
    assert_eq!(mem_only.plan_switches, 0);
    assert!(
        !mem_only.events.iter().any(is_accept),
        "MemoryOnly must not switch: {:?}",
        mem_only.events
    );
}

/// Statistics feedback (§2.2): after a query whose collector drained an
/// unfiltered stale table, the catalog holds that table's true row
/// count and column bounds — and only with the flag on.
#[test]
fn stats_feedback_heals_stale_catalog() {
    fn build(feedback: bool) -> Engine {
        let cfg = EngineConfig {
            stats_feedback: feedback,
            ..EngineConfig::default()
        };
        let engine = Engine::new(cfg).unwrap();
        let cat = engine.catalog();
        let st = engine.storage();
        cat.create_table(st, "r", vec![("k", DataType::Int), ("w", DataType::Int)])
            .unwrap();
        cat.create_table(st, "s", vec![("k", DataType::Int), ("v", DataType::Int)])
            .unwrap();
        // r analyzed at 200 rows, then grows 10×.
        for i in 0..200i64 {
            cat.insert_row(st, "r", Row::new(vec![Value::Int(i), Value::Int(i % 5)]))
                .unwrap();
        }
        cat.analyze(st, "r", HistogramKind::MaxDiff, 16, 512, 3)
            .unwrap();
        for i in 200..2000i64 {
            cat.insert_row(st, "r", Row::new(vec![Value::Int(i), Value::Int(i % 5)]))
                .unwrap();
        }
        // s is fresh.
        for i in 0..2000i64 {
            cat.insert_row(st, "s", Row::new(vec![Value::Int(i), Value::Int(i % 9)]))
                .unwrap();
        }
        cat.analyze(st, "s", HistogramKind::MaxDiff, 16, 512, 4)
            .unwrap();
        engine
    }
    let q = LogicalPlan::scan("r").join(LogicalPlan::scan("s"), vec![("r.k", "s.k")]);

    // Flag off: the catalog stays stale after the query.
    let engine = build(false);
    run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    assert_eq!(
        engine.catalog().table("r").unwrap().stats.unwrap().rows,
        200,
        "feedback must be opt-in"
    );

    // Flag on: the stale table is healed to its true cardinality.
    let engine = build(true);
    let out = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    assert_eq!(out.rows.len(), 2000, "join result sanity");
    let healed = engine.catalog().table("r").unwrap();
    let stats = healed.stats.unwrap();
    assert_eq!(
        stats.rows,
        2000,
        "exact observed cardinality written back; events:\n{}",
        events_text(&out)
    );
    // Observed columns carry fresh bounds (the stale max was 199).
    if let Some(k) = stats.columns.get("k") {
        if let Some(Value::Int(max)) = k.max {
            assert_eq!(max, 1999, "column max healed");
        }
    }
    // The staleness counter is deliberately untouched: unobserved
    // columns may still carry stale histograms.
    assert_eq!(healed.inserts_since_analyze, 1800);

    // The fresh table's stats are also overwritten but identical in
    // effect: still exact.
    assert_eq!(
        engine.catalog().table("s").unwrap().stats.unwrap().rows,
        2000
    );

    // And the *next* query plans against the healed numbers: the scan
    // of r is now estimated at its true cardinality.
    let second = run(&engine, &q, ReoptMode::Off, engine.default_env()).unwrap();
    let mut scan_est = None;
    second.final_plan.walk(&mut |n| {
        if let mq_plan::PhysOp::SeqScan { spec, .. } = &n.op {
            if spec.table == "r" {
                scan_est = Some(n.annot.est_rows);
            }
        }
    });
    assert_eq!(scan_est, Some(2000.0), "healed stats drive later plans");
}

/// The post-execution report must surface everything a user needs to
/// understand a re-optimization: counters, events, and the final plan.
#[test]
fn outcome_report_is_complete() {
    let engine = stale_fact_engine();
    let q = stale_fact_query();
    let full = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    let report = full.report();
    assert!(report.contains("Full mode"), "{report}");
    assert!(report.contains(&format!("rows: {}", full.rows.len())));
    assert!(report.contains("plan switches: 1"), "{report}");
    assert!(report.contains("-- controller events --"));
    // Every event line appears, numbered.
    for e in &full.events {
        assert!(report.contains(&e.to_string()), "missing event {e:?}");
    }
    assert!(report.contains("-- final plan"));
    assert!(report.contains("HashJoin"), "{report}");

    // A quiet run reports the absence of events rather than an empty
    // section.
    let off = run(&engine, &q, ReoptMode::Off, engine.default_env()).unwrap();
    let quiet = off.report();
    assert!(quiet.contains("controller events: none"), "{quiet}");
    assert!(quiet.contains("plan switches: 0"));
}

/// Engine reconfiguration between runs (knob sweeps use this).
#[test]
fn engine_reconfiguration() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let mut cfg = engine.config().clone();
    cfg.theta2 = 0.5;
    cfg.mu = 0.01;
    engine.set_config(cfg.clone()).unwrap();
    assert_eq!(engine.config().theta2, 0.5);
    // Invalid configs are rejected and leave the engine untouched.
    let mut bad = cfg;
    bad.mu = 7.0;
    assert!(engine.set_config(bad).is_err());
    assert_eq!(engine.config().mu, 0.01);
}

/// A small engine with one table for the fault-injection tests.
fn small_engine() -> Engine {
    let engine = Engine::new(EngineConfig::default()).unwrap();
    engine
        .catalog()
        .create_table(
            engine.storage(),
            "t",
            vec![("k", DataType::Int), ("v", DataType::Int)],
        )
        .unwrap();
    for i in 0..2000i64 {
        engine
            .catalog()
            .insert_row(
                engine.storage(),
                "t",
                Row::new(vec![Value::Int(i), Value::Int(i % 17)]),
            )
            .unwrap();
    }
    engine
}

fn group_by_query() -> LogicalPlan {
    LogicalPlan::scan("t")
        .aggregate(
            vec!["t.v"],
            vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                name: "n".into(),
            }],
        )
        .sort(vec![("t.v", true)])
}

fn row_fingerprints(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn transient_fault_recovers_via_segment_retry() {
    use mq_common::{FaultInjector, FaultKind, FaultSite, FaultSpec};
    let engine = small_engine();
    let q = group_by_query();
    let oracle = run(&engine, &q, ReoptMode::Off, engine.default_env())
        .unwrap()
        .rows;

    let inj = FaultInjector::new(
        vec![FaultSpec {
            site: FaultSite::PageRead,
            kind: FaultKind::Transient,
            at: 3,
        }],
        None,
    );
    let mut env = engine.default_env();
    env.fault = Some(inj.clone());
    let out = run(&engine, &q, ReoptMode::Off, env)
        .expect("transient fault must be absorbed by a segment retry");
    assert!(out.segment_retries >= 1, "expected a segment retry");
    assert_eq!(inj.fired().transient, 1, "fault must fire exactly once");
    assert_eq!(row_fingerprints(&out.rows), row_fingerprints(&oracle));
    assert!(
        out.events
            .iter()
            .any(|e| matches!(e, ObsEvent::SegmentRetry { .. })),
        "retry must be logged: {:?}",
        out.events
    );
    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
}

#[test]
fn permanent_fault_fails_cleanly_without_leaks() {
    use mq_common::{FaultInjector, FaultKind, FaultSite, FaultSpec};
    let engine = small_engine();
    let q = group_by_query();

    let inj = FaultInjector::new(
        vec![FaultSpec {
            site: FaultSite::PageRead,
            kind: FaultKind::Permanent,
            at: 3,
        }],
        None,
    );
    let mut env = engine.default_env();
    env.fault = Some(inj.clone());
    let err =
        run(&engine, &q, ReoptMode::Off, env).expect_err("permanent fault must fail the query");
    assert_eq!(err.kind(), "storage");
    assert!(!err.is_transient());
    assert_eq!(inj.fired().permanent, 1);
    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(engine.cleanup_failure_count(), 0);
}

#[test]
fn transient_faults_beyond_the_retry_limit_fail() {
    use mq_common::{FaultInjector, FaultKind, FaultSite, FaultSpec};
    let engine = small_engine();
    let q = group_by_query();
    let limit = engine.config().transient_retry_limit;

    // One more transient fault than the retry budget: every retry hits
    // the next scheduled fault, and the last one has no budget left.
    let specs = (0..=limit as u64)
        .map(|i| FaultSpec {
            site: FaultSite::PageRead,
            kind: FaultKind::Transient,
            at: 3 + i,
        })
        .collect();
    let inj = FaultInjector::new(specs, None);
    let mut env = engine.default_env();
    env.fault = Some(inj.clone());
    let err = run(&engine, &q, ReoptMode::Off, env).expect_err("retry budget exhausted");
    assert!(err.is_transient());
    assert_eq!(inj.fired().transient as u32, limit + 1);
    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
}

/// The retry backoff is charged to the job's simulated clock and grows
/// exponentially with the retry ordinal.
#[test]
fn segment_retries_charge_simulated_backoff() {
    use mq_common::{FaultInjector, FaultKind, FaultSite, FaultSpec};
    let engine = small_engine();
    let q = group_by_query();
    let clean = run(&engine, &q, ReoptMode::Off, engine.default_env()).unwrap();

    let inj = FaultInjector::new(
        vec![FaultSpec {
            site: FaultSite::PageRead,
            kind: FaultKind::Transient,
            at: 3,
        }],
        None,
    );
    let mut env = engine.default_env();
    env.fault = Some(inj);
    let out = run(&engine, &q, ReoptMode::Off, env).unwrap();
    // The faulted run re-ran the segment and paid at least the first
    // backoff step on top of the clean run's time.
    assert!(
        out.time_ms > clean.time_ms + engine.config().transient_retry_backoff_ms * 0.99,
        "faulted {} ms vs clean {} ms",
        out.time_ms,
        clean.time_ms
    );
}

// ---------------------------------------------------------------------
// Cross-query sub-plan cache + feedback store (mq-cache).
// ---------------------------------------------------------------------

fn cache_cfg() -> EngineConfig {
    EngineConfig {
        cache_enabled: true,
        ..EngineConfig::default()
    }
}

fn has_cached_scan(p: &mq_plan::PhysPlan) -> bool {
    matches!(p.op, PhysOp::CachedScan { .. }) || p.children.iter().any(has_cached_scan)
}

/// Column-order-insensitive row canonicalization. A cached sub-plan
/// can re-enter a later plan under the opposite join orientation, so a
/// bare-join query's *output column order* legitimately differs between
/// runs; the answer (as name→value tuples) must not.
fn canon_rows(out: &crate::engine::QueryOutcome) -> Vec<String> {
    let schema = &out.final_plan.schema;
    let mut cols: Vec<(String, usize)> = schema
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| (f.qualified_name(), i))
        .collect();
    cols.sort();
    let mut rows: Vec<String> = out
        .rows
        .iter()
        .map(|r| {
            cols.iter()
                .map(|(n, i)| format!("{n}={:?}", r.get(*i)))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    rows.sort();
    rows
}

/// The headline mq-cache property: a plan switch's materialized temp is
/// promoted into the cache, and a *second* query of the same family
/// reuses it — byte-identical answer, no re-optimization, and at least
/// 2× cheaper on the simulated clock.
#[test]
fn cache_promotes_and_reuses_across_queries() {
    let engine = stale_fact_engine_with(cache_cfg());
    let q = stale_fact_query();

    // Oracle: an identically-loaded engine with the cache off.
    let fresh = stale_fact_engine();
    let off = run(&fresh, &q, ReoptMode::Full, fresh.default_env()).unwrap();

    let cold = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    assert!(cold.plan_switches >= 1, "cold run must switch plans");
    let s = engine.cache_stats();
    assert!(s.promotions >= 1, "switch temp must be promoted: {s:?}");
    assert_eq!(s.hits, 0, "nothing to hit on the cold run");
    assert!(!has_cached_scan(&cold.final_plan));

    let warm = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    let s = engine.cache_stats();
    assert!(
        s.hits >= 1,
        "warm run must reuse the cached sub-plan: {s:?}"
    );
    assert!(
        has_cached_scan(&warm.final_plan),
        "warm plan must splice a CachedScan:\n{}",
        warm.final_plan
    );
    assert_eq!(
        warm.plan_switches, 0,
        "cache + feedback must remove the need to re-optimize: {:?}",
        warm.events
    );
    assert!(
        engine.feedback().applied() >= 1,
        "feedback store must have corrected at least one estimate"
    );
    assert!(
        warm.time_ms * 2.0 <= cold.time_ms,
        "warm ({} ms) must be at least 2x cheaper than cold ({} ms)",
        warm.time_ms,
        cold.time_ms
    );

    // Same answer in all three runs (modulo join-orientation column
    // order — this query has no projection pinning one down).
    assert_eq!(canon_rows(&off), canon_rows(&cold));
    assert_eq!(canon_rows(&cold), canon_rows(&warm));

    // Clearing the cache drops every cache_* table and leaves the
    // engine spotless.
    engine.clear_cache();
    assert_eq!(engine.cache_stats().entries, 0);
    assert!(
        engine
            .catalog()
            .table_names()
            .iter()
            .all(|n| !n.starts_with("cache_")),
        "clear_cache must drop backing tables"
    );
    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
}

/// A write to a base table invalidates every cached sub-plan that
/// depends on it: the next run rebuilds and the answer matches a
/// cache-off engine that saw the same write.
#[test]
fn writes_invalidate_dependent_cache_entries() {
    let engine = stale_fact_engine_with(cache_cfg());
    let twin = stale_fact_engine(); // cache off, same data
    let q = stale_fact_query();

    run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    assert!(engine.cache_stats().promotions >= 1);

    // The new row passes every predicate, so a stale cache entry would
    // give a visibly wrong (smaller) answer.
    for e in [&engine, &twin] {
        e.catalog()
            .insert_row(
                e.storage(),
                "fact",
                Row::new(vec![Value::Int(1), Value::Int(1), Value::Int(0)]),
            )
            .unwrap();
    }
    engine.invalidate_cache_for("fact");
    let s = engine.cache_stats();
    assert!(s.invalidations >= 1, "write must invalidate: {s:?}");

    let post = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    let oracle = run(&twin, &q, ReoptMode::Full, twin.default_env()).unwrap();
    assert_eq!(
        canon_rows(&post),
        canon_rows(&oracle),
        "post-write answer must match a cache-off engine"
    );
    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
}

/// Crash injected exactly at the promotion kill point (between
/// registering the cache table and publishing the cache metadata): the
/// debris is at most an orphaned `cache_*` table — never metadata
/// pointing at missing data — and recovery + the orphan sweep restore a
/// clean audit.
#[test]
fn crash_at_promotion_is_recoverable() {
    use mq_common::{FaultInjector, FaultKind, FaultSite, FaultSpec};

    // Counting run: enumerate the query's segment boundaries. The
    // promotion kill point is the *last* boundary of a successful run.
    let counting = stale_fact_engine_with(cache_cfg());
    let q = stale_fact_query();
    let inj = FaultInjector::none();
    let mut env = counting.default_env();
    env.fault = Some(inj.clone());
    let oracle = run(&counting, &q, ReoptMode::Full, env).unwrap();
    let boundaries = inj.ops_at(FaultSite::SegmentBoundary);
    assert!(
        counting.cache_stats().promotions >= 1,
        "counting run must promote, or there is no kill point to test"
    );
    assert!(boundaries >= 1);

    // Fresh identically-built engine, crash at that exact boundary.
    let engine = stale_fact_engine_with(cache_cfg());
    let inj = FaultInjector::new(
        vec![FaultSpec {
            site: FaultSite::SegmentBoundary,
            kind: FaultKind::Crash,
            at: boundaries,
        }],
        None,
    );
    let mut env = engine.default_env();
    let qid = env.query_id;
    env.fault = Some(inj.clone());
    let err = run(&engine, &q, ReoptMode::Full, env)
        .expect_err("crash at the promotion kill point must unwind");
    assert_eq!(err.kind(), "crash");
    assert_eq!(inj.fired().crashes, 1);

    // Data-before-metadata: the cache has no entry, but the orphaned
    // backing table exists and the audit names it.
    assert_eq!(engine.cache_stats().promotions, 0);
    let audit = engine.audit();
    assert!(
        !audit.orphan_cache_tables.is_empty(),
        "audit must flag the orphaned cache table: {audit}"
    );

    engine.recover(qid).unwrap();
    let swept = engine.sweep_cache_orphans();
    assert!(swept >= 1, "sweep must reclaim the orphan");
    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");

    // The engine is fully functional, and the *feedback* recorded
    // before the crash survived it: the repeated family now plans with
    // truthful cardinalities, answers correctly, and no longer needs
    // the mid-query switch the first run paid for.
    let after = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    assert_eq!(canon_rows(&after), canon_rows(&oracle));
    assert_eq!(after.plan_switches, 0, "{:?}", after.events);
    assert!(engine.feedback().applied() >= 1);
    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
}

/// Entries survive disabling the cache (probing just stops), so
/// re-enabling starts warm; and `set_config` with a smaller budget
/// retires entries to fit.
#[test]
fn cache_survives_disable_and_respects_budget() {
    let mut engine = stale_fact_engine_with(cache_cfg());
    let q = stale_fact_query();
    run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    let s = engine.cache_stats();
    assert!(s.promotions >= 1 && s.entries >= 1);

    // Disable: the entry stays, but runs no longer probe.
    let mut cfg = cache_cfg();
    cfg.cache_enabled = false;
    engine.set_config(cfg).unwrap();
    assert!(engine.cache_stats().entries >= 1, "entries survive disable");
    let out = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    assert!(!has_cached_scan(&out.final_plan));
    assert_eq!(engine.cache_stats().hits, 0);

    // Re-enable: starts warm.
    engine.set_config(cache_cfg()).unwrap();
    let out = run(&engine, &q, ReoptMode::Full, engine.default_env()).unwrap();
    assert!(has_cached_scan(&out.final_plan), "re-enable starts warm");
    assert!(engine.cache_stats().hits >= 1);

    // Shrinking the budget below the entry's size retires it (and its
    // backing table) via cost-benefit eviction.
    let mut tiny = cache_cfg();
    tiny.cache_budget_bytes = engine.config().page_size;
    engine.set_config(tiny).unwrap();
    let s = engine.cache_stats();
    assert!(
        s.entries == 0 || s.bytes <= s.budget_bytes,
        "budget must be enforced: {s:?}"
    );
    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
}
