use std::sync::Arc;

use mq_common::{DataType, EngineConfig, Row, Value};
use mq_reopt::{Engine, ReoptMode};

use crate::{Runtime, Workload, WorkloadQuery};

/// An engine with one table `t(k INT, v INT)` of `rows` rows.
fn engine_with_table(rows: i64) -> Arc<Engine> {
    let engine = Engine::new(EngineConfig::default()).expect("engine");
    engine
        .catalog()
        .create_table(
            engine.storage(),
            "t",
            vec![("k", DataType::Int), ("v", DataType::Int)],
        )
        .expect("create");
    for i in 0..rows {
        engine
            .catalog()
            .insert_row(
                engine.storage(),
                "t",
                Row::new(vec![Value::Int(i), Value::Int(i % 17)]),
            )
            .expect("insert");
    }
    Arc::new(engine)
}

fn mix(n: usize) -> Vec<WorkloadQuery> {
    let sqls = [
        "SELECT v, count(*) AS n FROM t GROUP BY v ORDER BY v",
        "SELECT k, v FROM t WHERE v < 5",
        "SELECT count(*) AS n FROM t",
        "SELECT k FROM t WHERE k >= 100 ORDER BY k",
    ];
    (0..n)
        .map(|i| {
            WorkloadQuery::sql(format!("q{i}"), sqls[i % sqls.len()]).with_mode(if i % 2 == 0 {
                ReoptMode::Full
            } else {
                ReoptMode::Off
            })
        })
        .collect()
}

#[test]
fn workload_runs_and_attributes_cost() {
    let engine = engine_with_table(3000);
    let runtime = Runtime::with_default_budget(Arc::clone(&engine), 3);
    let global_before = engine.clock().snapshot();

    let mut workload = Workload::new(3);
    workload.queries = mix(9);
    let report = runtime.run_workload(&workload);

    assert_eq!(report.results.len(), 9);
    assert_eq!(report.succeeded(), 9, "{}", report.summary());
    assert!(report.max_in_flight >= 1 && report.max_in_flight <= 3);
    assert!(report.broker_high_water <= runtime.broker().budget());
    // Every job got real work attributed to its own clock, and the
    // global aggregate advanced by at least the largest job (charges
    // propagate child -> parent exactly once).
    let global_delta = engine.clock().snapshot().since(&global_before);
    for r in &report.results {
        assert!(r.sim_ms > 0.0, "job {} has no attributed cost", r.label);
        assert!(r.granted_bytes >= 4 * engine.config().page_size);
    }
    assert!(
        global_delta.time_ms(engine.config()) + 1e-9 >= report.makespan_sim_ms / 3.0,
        "global clock did not see the jobs' work"
    );
    assert!(report.makespan_sim_ms > 0.0);
    assert!(report.serial_sim_ms + 1e-9 >= report.makespan_sim_ms);
    assert!(report.throughput_qps() > 0.0);
}

#[test]
fn serial_and_concurrent_agree_on_rows() {
    let engine = engine_with_table(2000);
    let runtime = Runtime::with_default_budget(Arc::clone(&engine), 4);

    let mut serial = Workload::new(1);
    serial.queries = mix(8);
    let mut concurrent = Workload::new(4);
    concurrent.queries = mix(8);

    let a = runtime.run_workload(&serial);
    let b = runtime.run_workload(&concurrent);
    for (ra, rb) in a.results.iter().zip(&b.results) {
        let rows_a = ra.outcome.as_ref().expect("serial ok").rows.clone();
        let rows_b = rb.outcome.as_ref().expect("concurrent ok").rows.clone();
        let mut da: Vec<String> = rows_a.iter().map(|r| format!("{r:?}")).collect();
        let mut db: Vec<String> = rows_b.iter().map(|r| format!("{r:?}")).collect();
        da.sort();
        db.sort();
        assert_eq!(da, db, "rows differ for {}", ra.label);
    }
}

#[test]
fn tight_global_budget_serializes_admission() {
    let engine = engine_with_table(2000);
    // Budget = one full per-query grant: the broker can admit a second
    // query only at its (much smaller) minimum once the first released.
    let runtime = Runtime::new(Arc::clone(&engine), engine.config().query_memory_bytes);
    let mut workload = Workload::new(4);
    workload.queries = mix(8);
    let report = runtime.run_workload(&workload);
    assert_eq!(report.succeeded(), 8, "{}", report.summary());
    assert!(report.broker_high_water <= engine.config().query_memory_bytes);
}

#[test]
fn session_runs_cancels_and_accounts() {
    let engine = engine_with_table(2000);
    let runtime = Runtime::with_default_budget(Arc::clone(&engine), 2);
    let mut session = runtime.session();

    let out = session
        .run_sql("SELECT count(*) AS n FROM t", ReoptMode::Full)
        .expect("query");
    assert_eq!(out.rows.len(), 1);
    assert!(session.sim_ms() > 0.0);
    assert!(session.cost().cpu_ops > 0);

    session.cancel();
    let err = session
        .run_sql("SELECT count(*) AS n FROM t", ReoptMode::Off)
        .expect_err("cancelled session must not run");
    assert_eq!(err.kind(), "cancelled");

    session.reset_cancel();
    session
        .run_sql("SELECT count(*) AS n FROM t", ReoptMode::Off)
        .expect("re-armed session runs again");
}

#[test]
fn deadline_interrupts_query() {
    let engine = engine_with_table(5000);
    let runtime = Runtime::with_default_budget(Arc::clone(&engine), 1);
    let mut session = runtime.session();
    session.set_deadline_ms(Some(0.0));
    let err = session
        .run_sql("SELECT k, v FROM t", ReoptMode::Off)
        .expect_err("zero deadline must interrupt");
    assert_eq!(err.kind(), "cancelled", "got: {err}");
}

#[test]
fn cancelled_workload_query_fails_without_admission() {
    let engine = engine_with_table(500);
    let runtime = Runtime::with_default_budget(Arc::clone(&engine), 2);
    let token = mq_common::CancelToken::new();
    token.cancel();
    let mut workload = Workload::new(2);
    workload.queries = vec![
        WorkloadQuery::sql("ok", "SELECT count(*) AS n FROM t"),
        WorkloadQuery::sql("dead", "SELECT count(*) AS n FROM t").with_cancel(token),
    ];
    let report = runtime.run_workload(&workload);
    assert!(report.results[0].is_ok());
    let err = report.results[1].outcome.as_ref().expect_err("cancelled");
    assert_eq!(err.kind(), "cancelled");
    assert_eq!(report.results[1].granted_bytes, 0);
}

#[test]
fn workload_budget_override_uses_fresh_broker() {
    let engine = engine_with_table(500);
    let runtime = Runtime::with_default_budget(Arc::clone(&engine), 2);
    let mut workload = Workload::new(2);
    workload.queries = mix(4);
    let workload = workload.with_global_memory(64 * 1024);
    let report = runtime.run_workload(&workload);
    assert_eq!(report.global_budget_bytes, 64 * 1024);
    assert!(report.broker_high_water <= 64 * 1024);
    assert_eq!(report.succeeded(), 4, "{}", report.summary());
    // The runtime's own broker was not touched by the override run.
    assert_eq!(runtime.broker().high_water(), 0);
}

#[test]
fn injected_cancellation_mid_segment_leaves_no_leases_or_pins() {
    use mq_common::FaultInjector;
    let engine = engine_with_table(3000);
    let runtime = Runtime::with_default_budget(Arc::clone(&engine), 2);
    // Cancellation trigger after 5 logical I/Os: fires inside the first
    // segment, well before any phase completes.
    let inj = FaultInjector::new(vec![], Some(5));
    let mut workload = Workload::new(2);
    workload.queries = vec![
        WorkloadQuery::sql(
            "chaos",
            "SELECT v, count(*) AS n FROM t GROUP BY v ORDER BY v",
        )
        .with_faults(inj.clone()),
        WorkloadQuery::sql("ok", "SELECT count(*) AS n FROM t"),
    ];
    let report = runtime.run_workload(&workload);
    let err = report.results[0]
        .outcome
        .as_ref()
        .expect_err("injected cancellation");
    assert_eq!(err.kind(), "cancelled");
    assert!(inj.fired().cancels >= 1);
    assert!(report.results[1].is_ok());
    // No leaked lease, no stuck pins, no surviving temp state.
    assert_eq!(runtime.broker().in_use(), 0, "leaked lease");
    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(engine.cleanup_failure_count(), 0);
}

#[test]
fn grant_denials_under_contended_broker_leak_nothing() {
    use mq_common::{FaultInjector, FaultKind, FaultSite, FaultSpec};
    let engine = engine_with_table(2000);
    let sql = "SELECT v, count(*) AS n FROM t GROUP BY v ORDER BY v";
    let oracle = {
        let plan = mq_sql::plan_sql(sql, engine.catalog()).expect("plan");
        let mut rows: Vec<String> = engine
            .execute(mq_reopt::ExecRequest {
                logical: &plan,
                mode: mq_reopt::ReoptMode::Off,
                env: engine.default_env(),
                source: mq_reopt::PlanSource::Plan,
            })
            .expect("oracle")
            .rows
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        rows.sort();
        rows
    };
    // One full per-query grant for four workers: admission contends,
    // and every query's first four grant requests are denied (clamped
    // to the minimum), forcing spills and the OOM-retry path.
    let runtime = Runtime::new(Arc::clone(&engine), engine.config().query_memory_bytes);
    let mut workload = Workload::new(4);
    workload.queries = (0..8)
        .map(|i| {
            let inj = FaultInjector::new(
                (1..=4u64)
                    .map(|g| FaultSpec {
                        site: FaultSite::Grant,
                        kind: FaultKind::Transient,
                        at: g,
                    })
                    .collect(),
                None,
            );
            WorkloadQuery::sql(format!("q{i}"), sql).with_faults(inj)
        })
        .collect();
    let report = runtime.run_workload(&workload);
    assert_eq!(report.succeeded(), 8, "{}", report.summary());
    for r in &report.results {
        let mut rows: Vec<String> = r
            .outcome
            .as_ref()
            .expect("ok")
            .rows
            .iter()
            .map(|row| format!("{row:?}"))
            .collect();
        rows.sort();
        assert_eq!(
            rows, oracle,
            "denied-grant query {} returned wrong rows",
            r.label
        );
    }
    assert_eq!(runtime.broker().in_use(), 0, "leaked lease");
    let audit = engine.audit();
    assert!(audit.is_clean(), "{audit}");
}
