//! Integration: the observability subsystem end-to-end.
//!
//! * A skewed-stats Q10 run traces a collector checkpoint whose
//!   inaccuracy factor crosses the re-optimization threshold, followed
//!   by exactly one accepted re-optimization event.
//! * Stable metrics snapshots are byte-identical across worker counts
//!   for chaos-style seeded workloads.
//! * A disabled sink adds zero simulated cost (the 2% budget in
//!   DESIGN.md, met exactly).
//! * EXPLAIN ANALYZE renders per-operator est vs actual rows with
//!   collector markers.

use std::sync::Arc;

use midq::common::{EngineConfig, FaultInjector, FaultProfile};
use midq::obs::{json_f64, json_str, json_u64, JsonlSink, MetricsRegistry, Obs};
use midq::tpcd::{queries, TpcdConfig};
use midq::{Database, ReoptMode, Workload, WorkloadQuery};

/// A TPC-D instance whose statistics are both stale (ANALYZE ran early
/// in the load) and skewed (zipfian non-key attributes), so the
/// optimizer's cardinality estimates are badly wrong for Q10.
fn skewed_db() -> Database {
    let db = Database::new(EngineConfig::default()).unwrap();
    db.load_tpcd(&TpcdConfig {
        scale: 0.005,
        analyze_after_fraction: 0.2,
        zipf_z: Some(1.1),
        ..TpcdConfig::default()
    })
    .unwrap();
    db
}

#[test]
fn q10_skewed_trace_collector_then_one_reopt() {
    let db = skewed_db();
    let sink = Arc::new(JsonlSink::new());
    let metrics = MetricsRegistry::new();
    let obs = Obs::none()
        .with_sink(sink.clone())
        .with_metrics(metrics.clone())
        .for_job(1, "Q10");

    let out = db
        .query_plan(&queries::q10())
        .mode(ReoptMode::Full)
        .observed(&obs)
        .run()
        .unwrap();
    assert_eq!(out.plan_switches, 1, "scenario must trigger one switch");

    let lines = sink.lines();
    assert!(!lines.is_empty(), "sink captured no events");

    // A collector checkpoint whose inaccuracy factor crosses the
    // re-optimization threshold (1 + θ2)...
    let theta2 = db.engine().config().theta2;
    let crossing_seq = lines
        .iter()
        .filter(|l| json_str(l, "event").as_deref() == Some("collector"))
        .filter(|l| json_f64(l, "inaccuracy").unwrap_or(0.0) > 1.0 + theta2)
        .filter_map(|l| json_u64(l, "seq"))
        .min()
        .expect("no collector checkpoint crossed the re-opt threshold");

    // ...followed by exactly one accepted re-optimization event.
    let accepts: Vec<u64> = lines
        .iter()
        .filter(|l| json_str(l, "event").as_deref() == Some("reopt"))
        .filter(|l| json_str(l, "verdict").as_deref() == Some("accept"))
        .filter_map(|l| json_u64(l, "seq"))
        .collect();
    assert_eq!(accepts.len(), 1, "expected exactly one accepted re-opt");
    assert!(
        crossing_seq < accepts[0],
        "collector checkpoint (seq {crossing_seq}) must precede the \
         accepted re-opt (seq {})",
        accepts[0]
    );

    // The accepted event carries both cost estimates.
    let accept_line = lines
        .iter()
        .find(|l| json_str(l, "verdict").as_deref() == Some("accept"))
        .unwrap();
    let t_new = json_f64(accept_line, "t_new_ms").unwrap();
    let t_cur = json_f64(accept_line, "t_cur_ms").unwrap();
    assert!(t_new > 0.0 && t_cur > t_new, "accept: {t_new} !< {t_cur}");

    // Every trace line carries the span identity, and the lifecycle
    // events frame the trace.
    for l in &lines {
        assert_eq!(json_u64(l, "job"), Some(1), "bad span in {l}");
        assert_eq!(json_str(l, "label").as_deref(), Some("Q10"));
    }
    let events: Vec<String> = lines.iter().filter_map(|l| json_str(l, "event")).collect();
    assert_eq!(events.first().map(String::as_str), Some("query_start"));
    assert_eq!(events.last().map(String::as_str), Some("query_end"));
    assert!(events.iter().any(|e| e == "segment_end"));
    assert!(events.iter().any(|e| e == "cleanup"));

    // The metrics registry folded the same story.
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("midq_plan_switches_total"), 1);
    assert_eq!(
        snap.counter_with("midq_reopt_decisions_total", ("verdict", "accept")),
        1
    );
    assert_eq!(
        snap.counter_with("midq_queries_total", ("outcome", "ok")),
        1
    );
    assert!(snap.counter("midq_collector_reports_total") >= 1);
    assert!(snap
        .stable_text()
        .contains("midq_estimation_inaccuracy_count"));
}

/// The chaos-style workload: paper queries with seeded fault
/// schedules, alternating re-optimization modes.
fn seeded_workload(workers: usize, seed: u64) -> Workload {
    let mut wl = Workload::new(workers);
    for (qi, (name, plan)) in queries::all().into_iter().enumerate() {
        let mode = if qi % 2 == 0 {
            ReoptMode::Full
        } else {
            ReoptMode::Off
        };
        let inj = FaultInjector::from_seed(
            seed.wrapping_mul(1000).wrapping_add(qi as u64),
            &FaultProfile::default(),
        );
        wl.queries.push(
            WorkloadQuery::plan(name, plan)
                .with_mode(mode)
                .with_faults(inj),
        );
    }
    wl.obs = Some(Obs::none().with_metrics(MetricsRegistry::new()));
    wl
}

#[test]
fn stable_metrics_identical_across_worker_counts() {
    for seed in [7_u64, 42] {
        // Identically loaded databases: runs must not share healed
        // statistics or buffer caches.
        let db1 = Database::new(EngineConfig::default()).unwrap();
        let db4 = Database::new(EngineConfig::default()).unwrap();
        for db in [&db1, &db4] {
            db.load_tpcd(&TpcdConfig {
                scale: 0.002,
                analyze_after_fraction: 0.5,
                ..TpcdConfig::default()
            })
            .unwrap();
        }

        let serial = db1.run_concurrent(&seeded_workload(1, seed));
        let parallel = db4.run_concurrent(&seeded_workload(4, seed));

        assert_eq!(serial.results.len(), parallel.results.len());
        for (a, b) in serial.results.iter().zip(&parallel.results) {
            assert!(!a.metrics.is_empty(), "{}: no metrics captured", a.label);
            assert_eq!(
                a.metrics.stable_text(),
                b.metrics.stable_text(),
                "seed {seed} {}: stable metrics diverged between 1 and 4 workers",
                a.label
            );
        }
    }
}

#[test]
fn workload_report_lines_carry_metrics() {
    let db = Database::new(EngineConfig::default()).unwrap();
    db.load_tpcd(&TpcdConfig {
        scale: 0.002,
        analyze_after_fraction: 0.5,
        ..TpcdConfig::default()
    })
    .unwrap();
    let report = db.run_concurrent(&seeded_workload(2, 42));
    let summary = report.summary();
    for r in &report.results {
        assert!(summary.contains(&r.label), "{} missing", r.label);
    }
    assert!(summary.contains("retries="));
    assert!(summary.contains("reopts="));
}

#[test]
fn disabled_sink_adds_no_simulated_cost() {
    // Two identically loaded databases; one run observed (JSONL sink +
    // metrics), one bare. Observability never charges the simulated
    // clock, so the acceptance bound (< 2% simulated-cost overhead)
    // holds exactly: the costs are equal. The bare run still fills the
    // query's always-on event log, which must charge nothing.
    let observed_db = skewed_db();
    let bare_db = skewed_db();
    let obs = Obs::none()
        .with_sink(Arc::new(JsonlSink::new()))
        .with_metrics(MetricsRegistry::new())
        .for_job(1, "Q10");

    let observed = observed_db
        .query_plan(&queries::q10())
        .mode(ReoptMode::Full)
        .observed(&obs)
        .run()
        .unwrap();
    let bare = bare_db
        .query_plan(&queries::q10())
        .mode(ReoptMode::Full)
        .run()
        .unwrap();

    assert!(!bare.events.is_empty(), "the bare run recorded no events");
    assert_eq!(observed.cost, bare.cost);
    assert_eq!(observed.time_ms, bare.time_ms);
}

#[test]
fn explain_analyze_renders_est_vs_actual() {
    let db = skewed_db();
    let obs = Obs::none()
        .with_metrics(MetricsRegistry::new())
        .for_job(1, "Q10");
    let out = db
        .query_plan(&queries::q10())
        .mode(ReoptMode::Full)
        .observed(&obs)
        .run()
        .unwrap();
    let text = out.explain_analyze();
    assert!(text.contains("est rows="), "no estimates:\n{text}");
    assert!(text.contains("actual rows="), "no actuals:\n{text}");
    assert!(
        text.contains("collector (re-opt point)"),
        "no collector markers:\n{text}"
    );
    assert!(
        text.contains("materialized by plan switch"),
        "no switch marker:\n{text}"
    );
    assert!(text.contains("re-optimization events:"), "{text}");

    // EXPLAIN (without ANALYZE) renders estimates only.
    let plain = out.final_plan.to_string();
    assert!(plain.contains("rows≈"));
    assert!(!plain.contains("actual rows="));
}
