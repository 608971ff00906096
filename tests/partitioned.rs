//! Integration: intra-query partitioned execution (`mq-par`).
//!
//! The partitioned driver routes rows through a fixed set of logical
//! buckets, so its results — and every Stable metric — must be
//! byte-identical for any partition count; the partition count only
//! changes the simulated elapsed time (work overlaps) and the skew
//! accounting. These tests pin all three properties on the paper's
//! query set.

use midq::common::EngineConfig;
use midq::obs::{json_str, JsonlSink, MetricsRegistry, Obs, ObsEvent};
use midq::tpcd::{queries, TpcdConfig};
use midq::{Database, ExecRequest, PlanSource, ReoptMode, Workload, WorkloadQuery};

fn load_db(scale: f64, stale: f64) -> Database {
    load_db_cfg(EngineConfig::default(), scale, stale, None)
}

fn load_db_cfg(cfg: EngineConfig, scale: f64, stale: f64, zipf_z: Option<f64>) -> Database {
    let db = Database::new(cfg).unwrap();
    db.load_tpcd(&TpcdConfig {
        scale,
        zipf_z,
        analyze_after_fraction: stale,
        ..TpcdConfig::default()
    })
    .unwrap();
    db
}

/// The outcome's exchange events, as (node, partitions,
/// per-partition rows).
fn exchanges(outcome: &midq::QueryOutcome) -> Vec<(u64, u64, Vec<u64>)> {
    outcome
        .events
        .iter()
        .filter_map(|e| match e {
            ObsEvent::Exchange {
                node,
                partitions,
                per_partition_rows,
                ..
            } => Some((*node, *partitions, per_partition_rows.clone())),
            _ => None,
        })
        .collect()
}

/// The outcome's skew verdicts, as (ratio, theta, action, after ratio).
fn skew_verdicts(outcome: &midq::QueryOutcome) -> Vec<(f64, f64, &'static str, f64)> {
    outcome
        .events
        .iter()
        .filter_map(|e| match e {
            ObsEvent::SkewVerdict {
                ratio,
                theta,
                action,
                after_ratio,
                ..
            } => Some((*ratio, *theta, *action, *after_ratio)),
            _ => None,
        })
        .collect()
}

/// Rows rendered in their *produced* order — partition-count
/// invariance is a byte-level claim, not a multiset one.
fn exact_rows(outcome: &midq::QueryOutcome) -> Vec<String> {
    outcome.rows.iter().map(|r| r.to_string()).collect()
}

/// Canonical multiset rendering for comparing against serial runs
/// (sort tie order may differ when input arrival order differs).
fn sorted_rows(outcome: &midq::QueryOutcome) -> Vec<String> {
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

/// ISSUE acceptance: Q1/Q3/Q6/Q10 results and Stable metrics are
/// byte-identical across partitions ∈ {1, 2, 8}, and agree with the
/// serial (non-partitioned) engine as multisets.
#[test]
fn results_and_stable_metrics_identical_across_partition_counts() {
    for (name, q) in [
        ("Q1", queries::q1()),
        ("Q3", queries::q3()),
        ("Q6", queries::q6()),
        ("Q10", queries::q10()),
    ] {
        let serial = load_db(0.002, 1.0)
            .query_plan(&q)
            .mode(ReoptMode::Off)
            .run()
            .unwrap_or_else(|e| panic!("{name} serial: {e}"));

        let mut baseline: Option<(Vec<String>, String)> = None;
        for partitions in [1usize, 2, 8] {
            // Fresh database per run: a warm buffer pool would change
            // the I/O counters and hide (or fake) a divergence.
            let db = load_db(0.002, 1.0);
            let metrics = MetricsRegistry::new();
            let obs = Obs::none().with_metrics(metrics.clone()).for_job(1, name);
            let out = db
                .query_plan(&q)
                .mode(ReoptMode::Off)
                .partitions(partitions)
                .observed(&obs)
                .run()
                .unwrap_or_else(|e| panic!("{name} P={partitions}: {e}"));

            let stages = exchanges(&out);
            assert!(
                !stages.is_empty(),
                "{name} P={partitions}: no exchange stages recorded"
            );
            for (node, p, per_partition_rows) in &stages {
                assert_eq!(*p, partitions as u64, "{name} op#{node}");
                assert_eq!(per_partition_rows.len(), partitions, "{name} op#{node}");
            }
            // One exchange event per exchange node of the final plan.
            let mut planned = Vec::new();
            out.final_plan.walk(&mut |n| {
                if matches!(n.op, midq::plan::PhysOp::Exchange { .. }) {
                    planned.push(n.id.0 as u64);
                }
            });
            let mut recorded: Vec<u64> = stages.iter().map(|s| s.0).collect();
            planned.sort_unstable();
            recorded.sort_unstable();
            assert_eq!(planned, recorded, "{name} P={partitions}");

            assert_eq!(
                sorted_rows(&serial),
                sorted_rows(&out),
                "{name} P={partitions} diverged from serial execution"
            );

            let fingerprint = (exact_rows(&out), metrics.snapshot().stable_text());
            match &baseline {
                None => baseline = Some(fingerprint),
                Some((rows, stable)) => {
                    assert_eq!(
                        rows, &fingerprint.0,
                        "{name} P={partitions}: rows not byte-identical"
                    );
                    assert_eq!(
                        stable, &fingerprint.1,
                        "{name} P={partitions}: stable metrics diverged"
                    );
                }
            }
        }
    }
}

/// EXPLAIN ANALYZE's actual rows for an exchange are the rows it
/// routed, as its `exchange` event reports them: the bucket runs that
/// read the routed rows do not count them again (Q10's nation
/// broadcast shows 25 rows, not 25 per bucket run on top).
#[test]
fn exchange_actual_rows_equal_their_exchange_events() {
    for (name, q) in [("Q3", queries::q3()), ("Q10", queries::q10())] {
        let out = load_db(0.002, 1.0)
            .query_plan(&q)
            .mode(ReoptMode::Off)
            .partitions(4)
            .run()
            .unwrap_or_else(|e| panic!("{name} P=4: {e}"));
        let mut checked = 0;
        out.final_plan.walk(&mut |n| {
            if !matches!(n.op, midq::plan::PhysOp::Exchange { .. }) {
                return;
            }
            let routed = out
                .events
                .iter()
                .rev()
                .find_map(|e| match e {
                    ObsEvent::Exchange { node, rows, .. } if *node == n.id.0 as u64 => Some(*rows),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{name} op#{}: no exchange event", n.id.0));
            let actual = out.actuals.get(&n.id).map_or(0, |a| a.rows);
            assert_eq!(actual, routed, "{name} op#{} actual rows", n.id.0);
            checked += 1;
        });
        assert!(checked > 0, "{name}: no exchange in the final plan");
    }
}

/// Collector reports still flow under partitioned execution: the
/// per-bucket parts are merged at the exchange barrier and delivered
/// once per collection site, so Full mode sees observed cardinalities.
#[test]
fn collector_reports_survive_the_exchange_barrier() {
    let q = queries::q10();
    let serial = load_db(0.002, 0.5)
        .query_plan(&q)
        .mode(ReoptMode::Off)
        .run()
        .unwrap();
    for partitions in [1usize, 4] {
        let db = load_db(0.002, 0.5);
        let out = db
            .query_plan(&q)
            .mode(ReoptMode::Full)
            .partitions(partitions)
            .run()
            .unwrap_or_else(|e| panic!("Q10 Full P={partitions}: {e}"));
        assert!(
            out.collector_reports > 0,
            "P={partitions}: no collector reports crossed the barrier"
        );
        assert_eq!(
            out.plan_switches, 0,
            "P={partitions}: plan switches are suppressed under par"
        );
        assert_eq!(
            sorted_rows(&serial),
            sorted_rows(&out),
            "Q10 Full P={partitions} diverged"
        );
    }
}

/// ISSUE acceptance: at partitions=4, Q10's simulated elapsed time is
/// at least 2x better than partitions=1 while io and cpu *totals* stay
/// within 10% (the same buckets run either way; only overlap changes).
#[test]
fn q10_four_partitions_halve_elapsed_without_inflating_work() {
    let q = queries::q10();
    let p1 = load_db(0.002, 1.0)
        .query_plan(&q)
        .mode(ReoptMode::Off)
        .partitions(1)
        .run()
        .unwrap();
    let p4 = load_db(0.002, 1.0)
        .query_plan(&q)
        .mode(ReoptMode::Off)
        .partitions(4)
        .run()
        .unwrap();

    assert!(
        p4.time_ms * 2.0 <= p1.time_ms,
        "Q10 speedup: P=4 {:.1}ms vs P=1 {:.1}ms (need >= 2x)",
        p4.time_ms,
        p1.time_ms
    );

    let io1 = p1.cost.pages_read + p1.cost.pages_written;
    let io4 = p4.cost.pages_read + p4.cost.pages_written;
    let within = |a: u64, b: u64| {
        let (a, b) = (a as f64, b as f64);
        (a - b).abs() <= 0.10 * a.max(b)
    };
    assert!(within(io1, io4), "io totals drifted: {io1} vs {io4}");
    assert!(
        within(p1.cost.cpu_ops, p4.cost.cpu_ops),
        "cpu totals drifted: {} vs {}",
        p1.cost.cpu_ops,
        p4.cost.cpu_ops
    );
    assert!(
        p4.parallel_saved_ms > 0.0,
        "P=4 recorded no parallel saving"
    );
    assert_eq!(p1.parallel_saved_ms, 0.0, "P=1 cannot overlap anything");
}

/// ISSUE acceptance: on Zipf-skewed data the repartition exchange
/// detects the hot-bucket imbalance (max/mean above theta), emits a
/// skew verdict, and the greedy re-balance beats the static
/// assignment — same rows, less simulated elapsed time wasted on the
/// hottest worker.
#[test]
fn skew_verdict_fires_and_rebalance_beats_static() {
    let q = queries::q10();
    let theta = 1.15;
    let rebalanced_cfg = EngineConfig {
        par_skew_theta: theta,
        ..EngineConfig::default()
    };
    // "Static" = the same engine with the verdict effectively disabled.
    let static_cfg = EngineConfig {
        par_skew_theta: 1e18,
        ..EngineConfig::default()
    };

    let sink = std::sync::Arc::new(JsonlSink::new());
    let obs = Obs::none().with_sink(sink.clone()).for_job(1, "Q10-skew");
    let rebalanced = load_db_cfg(rebalanced_cfg, 0.002, 1.0, Some(1.0))
        .query_plan(&q)
        .mode(ReoptMode::Off)
        .partitions(4)
        .observed(&obs)
        .run()
        .unwrap();
    let stat = load_db_cfg(static_cfg, 0.002, 1.0, Some(1.0))
        .query_plan(&q)
        .mode(ReoptMode::Off)
        .partitions(4)
        .run()
        .unwrap();

    let verdicts = skew_verdicts(&rebalanced);
    assert!(
        !verdicts.is_empty(),
        "no skew verdict fired on Zipf z=1.0 data at theta={theta}"
    );
    for s @ (ratio, theta, action, after_ratio) in &verdicts {
        assert!(ratio > theta, "verdict below threshold: {s:?}");
        assert_eq!(*action, "rebalance");
        assert!(
            after_ratio <= ratio,
            "re-balance worsened the load ratio: {s:?}"
        );
    }
    assert!(
        skew_verdicts(&stat).is_empty(),
        "static run must not re-balance"
    );

    // The verdict reached the trace, too.
    let verdicts: Vec<String> = sink
        .lines()
        .iter()
        .filter(|l| json_str(l, "event").as_deref() == Some("skew_verdict"))
        .cloned()
        .collect();
    assert!(!verdicts.is_empty(), "no skew_verdict event in trace");
    assert!(
        verdicts
            .iter()
            .all(|l| l.contains("\"action\":\"rebalance\"")),
        "unexpected verdict action: {verdicts:?}"
    );

    // The report's event list carries the stages and the verdicts.
    let report = rebalanced.report();
    assert!(report.contains("exchange op#"), "{report}");
    assert!(report.contains("skew verdict: max/mean"), "{report}");

    // Re-balancing only moves accounting, never rows.
    assert_eq!(sorted_rows(&rebalanced), sorted_rows(&stat));
    // ... and it schedules the hot buckets better than the static map.
    assert!(
        rebalanced.parallel_saved_ms >= stat.parallel_saved_ms,
        "rebalance saved {:.1}ms < static {:.1}ms",
        rebalanced.parallel_saved_ms,
        stat.parallel_saved_ms
    );
    assert!(
        rebalanced.time_ms <= stat.time_ms,
        "rebalanced {:.1}ms slower than static {:.1}ms",
        rebalanced.time_ms,
        stat.time_ms
    );
}

/// EXPLAIN ANALYZE renders the exchange operators with the headline
/// partition counters and per-partition routed row counts.
#[test]
fn explain_analyze_shows_exchange_operators() {
    let db = load_db(0.002, 1.0);
    let out = db
        .query_plan(&queries::q10())
        .mode(ReoptMode::Off)
        .partitions(4)
        .run()
        .unwrap();
    let text = out.explain_analyze();
    assert!(text.contains("partitions: 4"), "{text}");
    assert!(text.contains("exchange (partition boundary)"), "{text}");
    assert!(text.contains("per-partition rows"), "{text}");
}

/// ISSUE satellite: a crash injected at a mid-run exchange barrier
/// under 4-way partitioned execution must leak nothing once recovered —
/// no bucket partials (temp tables or orphaned pages), no stuck pins,
/// and no checkpoint manifest left open. The `CleanupGuard` is
/// deliberately skipped on the crash path, so everything the guard
/// would have freed has to be reabsorbed by `Engine::recover_with`.
#[test]
fn partitioned_crash_at_exchange_barrier_leaks_nothing() {
    use midq::common::{FaultInjector, FaultKind, FaultSite, FaultSpec};
    use midq::reopt::ParSpec;
    use midq::MqError;

    let q = queries::q10();
    let db = load_db(0.002, 1.0);
    let engine = db.engine();

    // Fault-free counting run: the oracle rows plus the number of
    // segment boundaries (exchange-barrier crossings) the partitioned
    // execution passes through.
    let counter = FaultInjector::none();
    let mut env = engine.default_env();
    env.par = Some(ParSpec::new(4));
    env.fault = Some(counter.clone());
    let oracle = engine
        .execute(ExecRequest {
            logical: &q,
            mode: ReoptMode::PlanOnly,
            env,
            source: PlanSource::Plan,
        })
        .unwrap();
    let boundaries = counter.ops_at(FaultSite::SegmentBoundary);
    assert!(
        boundaries > 2,
        "Q10 P=4 crossed only {boundaries} boundaries"
    );

    // Crash at a barrier in the middle of the exchange fan.
    let mut env = engine.default_env();
    env.par = Some(ParSpec::new(4));
    env.fault = Some(FaultInjector::new(
        vec![FaultSpec {
            site: FaultSite::SegmentBoundary,
            kind: FaultKind::Crash,
            at: boundaries / 2,
        }],
        None,
    ));
    let query_id = env.query_id;
    let err = engine
        .execute(ExecRequest {
            logical: &q,
            mode: ReoptMode::PlanOnly,
            env,
            source: PlanSource::Plan,
        })
        .unwrap_err();
    assert!(matches!(err, MqError::Crash(_)), "expected crash: {err}");

    // Recover on a fresh environment and compare against the oracle.
    let mut env = engine.default_env();
    env.par = Some(ParSpec::new(4));
    let rec = engine.recover_with(query_id, env).unwrap();
    assert_eq!(
        sorted_rows(&oracle),
        sorted_rows(&rec.outcome),
        "recovered rows diverged from the fault-free run"
    );

    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
    assert!(audit.leaked_temp_tables.is_empty(), "{audit}");
    assert_eq!(audit.orphan_pages, 0, "{audit}");
    assert_eq!(audit.pinned_frames, 0, "{audit}");
    assert!(
        engine.manifests().open_queries().is_empty(),
        "manifest left open after recovery"
    );
}

/// The concurrent runtime path: a workload-level partition default
/// admits each query with an atomic group of leases and runs it
/// through the partitioned driver; results match the serial workload.
#[test]
fn workload_partition_default_applies_to_every_query() {
    let db_serial = load_db(0.002, 1.0);
    let db_par = load_db(0.002, 1.0);

    let build = |partitions: Option<usize>| {
        let mut wl = Workload::new(2);
        for (name, plan) in [("Q3", queries::q3()), ("Q6", queries::q6())] {
            wl.queries
                .push(WorkloadQuery::plan(name, plan).with_mode(ReoptMode::Off));
        }
        if let Some(p) = partitions {
            wl = wl.with_partitions(p);
        }
        wl
    };

    let serial = db_serial.run_concurrent(&build(None));
    let par = db_par.run_concurrent(&build(Some(4)));
    assert_eq!(serial.succeeded(), serial.results.len());
    assert_eq!(par.succeeded(), par.results.len());
    for (a, b) in serial.results.iter().zip(&par.results) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.rows(), b.rows(), "{}: row count diverged", a.label);
    }
}
