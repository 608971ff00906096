//! Cross-restart durability through the `Database::open`/`save` API:
//! a saved-and-reopened database answers every query byte-identically
//! to one that never restarted, the plan cache and feedback store come
//! back warm, a crash at any save point never loses the previous good
//! snapshot, and corrupted snapshots are refused with a typed error.

use midq::common::fault::{FaultInjector, FaultKind, FaultSite, FaultSpec};
use midq::common::{EngineConfig, MqError};
use midq::tpcd::{queries, TpcdConfig};
use midq::{Database, QueryOutcome, ReoptMode};

fn cfg() -> EngineConfig {
    EngineConfig {
        buffer_pool_pages: 64,
        query_memory_bytes: 512 * 1024,
        stats_feedback: false,
        switch_margin: 1.0,
        plan_cache_enabled: true,
        ..EngineConfig::default()
    }
}

fn load_tpcd(db: &Database) {
    db.load_tpcd(&TpcdConfig {
        scale: 0.005,
        analyze_after_fraction: 0.5,
        ..TpcdConfig::default()
    })
    .unwrap();
}

fn tmp_file(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("midq_persistence_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.mqsnap", std::process::id()))
}

/// Exact (order-preserving) row rendering: restored databases must be
/// byte-identical, not just set-equal.
fn exact_rows(outcome: &QueryOutcome) -> Vec<String> {
    outcome.rows.iter().map(|r| r.to_string()).collect()
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
fn reopened_database_is_byte_identical_to_oracle() {
    let path = tmp_file("round_trip");
    let _ = std::fs::remove_file(&path);

    let oracle = Database::new(cfg()).unwrap();
    load_tpcd(&oracle);

    let db = Database::open_with(cfg(), &path).unwrap();
    load_tpcd(&db);
    let report = db.save().unwrap();
    assert!(report.tables >= 4, "TPC-D tables missing: {report:?}");
    assert!(report.rows > 0);

    let reopened = Database::open_with(cfg(), &path).unwrap();

    // Every tier-1 TPC-D query, serial and partitioned, off SQL text
    // and off pre-built plans: byte-identical to the never-restarted
    // oracle.
    for (name, plan) in queries::all() {
        let want = exact_rows(&oracle.query_plan(&plan).mode(ReoptMode::Off).run().unwrap());
        let got = exact_rows(
            &reopened
                .query_plan(&plan)
                .mode(ReoptMode::Off)
                .run()
                .unwrap(),
        );
        assert_eq!(got, want, "{name} diverged after reopen");
    }
    for sql in [
        queries::q1_sql(),
        queries::q3_sql(),
        queries::q6_sql(),
        queries::q10_sql(),
    ] {
        let want = exact_rows(&oracle.query(sql).mode(ReoptMode::Full).run().unwrap());
        let got = exact_rows(&reopened.query(sql).mode(ReoptMode::Full).run().unwrap());
        assert_eq!(got, want, "{sql} diverged after reopen");
    }

    // Catalog shape round-tripped exactly: same data versions, stats.
    for name in oracle.engine().catalog().table_names() {
        let a = oracle.engine().catalog().table(&name).unwrap();
        let b = reopened.engine().catalog().table(&name).unwrap();
        assert_eq!(a.data_version, b.data_version, "{name}");
        assert_eq!(
            a.stats.as_ref().map(|s| s.rows),
            b.stats.as_ref().map(|s| s.rows),
            "{name}"
        );
        assert_eq!(a.indexes.len(), b.indexes.len(), "{name}");
    }
    // Reopened engine starts clean — no leaked temps or orphan pages.
    let audit = reopened.engine().audit();
    assert!(audit.is_clean(), "{audit:?}");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn reopened_plan_cache_is_warm_with_zero_opt_work() {
    let path = tmp_file("warm_cache");
    let _ = std::fs::remove_file(&path);

    let db = Database::open_with(cfg(), &path).unwrap();
    load_tpcd(&db);
    // Admit the family template (miss + insert), then prove it's warm.
    db.query(&family(25, 1000))
        .mode(ReoptMode::Off)
        .run()
        .unwrap();
    let warm = db
        .query(&family(30, 1500))
        .mode(ReoptMode::Off)
        .run()
        .unwrap();
    assert_eq!(warm.cost.opt_work, 0, "template not warm before save");
    db.save().unwrap();

    let reopened = Database::open_with(cfg(), &path).unwrap();
    assert_eq!(
        reopened.plan_cache_stats().entries,
        1,
        "template not restored"
    );
    // The very first run of the family after reopen is a hit: zero
    // optimizer work charged to the query.
    let first = reopened
        .query(&family(35, 2000))
        .mode(ReoptMode::Off)
        .run()
        .unwrap();
    assert_eq!(
        first.cost.opt_work, 0,
        "first warm run re-enumerated after reopen"
    );
    let s = reopened.plan_cache_stats();
    assert_eq!(s.hits, 1, "{s:?}");
    assert_eq!(s.misses, 0, "{s:?}");

    // And the restored template still answers correctly.
    let oracle = Database::new(cfg()).unwrap();
    load_tpcd(&oracle);
    assert_eq!(
        exact_rows(&first),
        exact_rows(
            &oracle
                .query(&family(35, 2000))
                .mode(ReoptMode::Off)
                .run()
                .unwrap()
        )
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn feedback_corrections_survive_restart() {
    let path = tmp_file("feedback");
    let _ = std::fs::remove_file(&path);

    let db = Database::open_with(cfg(), &path).unwrap();
    load_tpcd(&db);
    let v = db.engine().catalog().data_version("lineitem").unwrap();
    db.engine()
        .feedback()
        .record(0xFEED, 321.5, vec![("lineitem".to_string(), v)]);
    db.engine().feedback().note_applied_for(0xFEED);
    let report = db.save().unwrap();
    assert_eq!(report.feedback_entries, 1);

    let reopened = Database::open_with(cfg(), &path).unwrap();
    let entry = reopened
        .engine()
        .feedback()
        .get(0xFEED)
        .expect("correction lost across restart");
    assert_eq!(entry.rows, 321.5);
    assert_eq!(entry.deps, vec![("lineitem".to_string(), v)]);
    // The staleness signal (applied counters) round-trips too.
    assert_eq!(reopened.engine().feedback().applied(), 1);
    assert_eq!(reopened.engine().feedback().applied_sum(&[0xFEED]), 1);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn crash_at_any_save_point_preserves_previous_snapshot() {
    let path = tmp_file("crash_save");
    let _ = std::fs::remove_file(&path);

    let db = Database::open_with(cfg(), &path).unwrap();
    load_tpcd(&db);
    db.query(&family(25, 1000))
        .mode(ReoptMode::Off)
        .run()
        .unwrap();
    db.save().unwrap();
    let good = std::fs::read(&path).unwrap();

    // Grow the database so the next save writes different bytes, then
    // count the save points one full save passes through.
    db.execute_sql("CREATE TABLE extra (k INT, v FLOAT)", ReoptMode::Off)
        .unwrap();
    db.execute_sql(
        "INSERT INTO extra VALUES (1, 1.5), (2, 2.5), (3, 3.5)",
        ReoptMode::Off,
    )
    .unwrap();
    let counter = FaultInjector::new(vec![], None);
    {
        let _scope = counter.enter_scope();
        db.save().unwrap();
    }
    let points = counter.ops_at(FaultSite::SegmentBoundary);
    assert!(
        points >= 3,
        "expected per-section save points, got {points}"
    );
    std::fs::write(&path, &good).unwrap();

    for at in 1..=points {
        let inj = FaultInjector::new(
            vec![FaultSpec {
                site: FaultSite::SegmentBoundary,
                kind: FaultKind::Crash,
                at,
            }],
            None,
        );
        let err = {
            let _scope = inj.enter_scope();
            db.save().unwrap_err()
        };
        assert!(matches!(err, MqError::Crash(_)), "kill point {at}: {err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            good,
            "kill point {at} damaged the published snapshot"
        );
        // The survivor still restores and audits clean.
        let back = Database::open_with(cfg(), &path).unwrap();
        assert!(back.engine().audit().is_clean(), "kill point {at}");
        assert!(!back.engine().catalog().table_names().is_empty());
    }

    // With no fault armed the save completes and includes the growth.
    db.save().unwrap();
    let reopened = Database::open_with(cfg(), &path).unwrap();
    let out = reopened
        .query("SELECT count(*) AS n FROM extra")
        .mode(ReoptMode::Off)
        .run()
        .unwrap();
    assert_eq!(out.rows[0].get(0).to_string(), "3");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_snapshot_is_rejected_with_typed_error() {
    let path = tmp_file("corrupt");
    let _ = std::fs::remove_file(&path);

    let db = Database::open_with(cfg(), &path).unwrap();
    db.execute_sql("CREATE TABLE t (k INT)", ReoptMode::Off)
        .unwrap();
    db.execute_sql("INSERT INTO t VALUES (1), (2)", ReoptMode::Off)
        .unwrap();
    db.save().unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let err = Database::open_with(cfg(), &path)
        .err()
        .expect("corrupt snapshot accepted");
    assert_eq!(err.kind(), "storage");
    assert!(err.to_string().contains("snapshot corrupt"), "{err}");

    // Truncation is refused the same way.
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
    let err = Database::open_with(cfg(), &path)
        .err()
        .expect("truncated snapshot accepted");
    assert_eq!(err.kind(), "storage");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn save_requires_a_path_and_in_memory_db_says_so() {
    let db = Database::new(cfg()).unwrap();
    let err = db.save().unwrap_err();
    assert!(matches!(err, MqError::InvalidConfig(_)), "{err}");
    // save_as still works without an open path.
    let path = tmp_file("save_as");
    let _ = std::fs::remove_file(&path);
    db.execute_sql("CREATE TABLE t (k INT)", ReoptMode::Off)
        .unwrap();
    db.save_as(&path).unwrap();
    assert!(path.exists());
    let _ = std::fs::remove_file(&path);
}

/// Names reserved for query-local tables (`tmp_reopt_*`, `cache_*`)
/// are refused with a typed error through both SQL and the API, so no
/// user table can carry one — snapshots leave query-local tables out,
/// and such a user table used to vanish silently across save/open.
#[test]
fn reserved_table_names_are_refused_and_nothing_vanishes_on_reopen() {
    let path = tmp_file("reserved_names");
    let _ = std::fs::remove_file(&path);
    let db = Database::new(cfg()).unwrap();
    let err = db
        .execute_sql("CREATE TABLE cache_items (k INT)", ReoptMode::Off)
        .unwrap_err();
    assert!(matches!(err, MqError::SchemaError(_)), "{err}");
    let err = db
        .create_table("tmp_reopt_q9_log", vec![("k", midq::common::DataType::Int)])
        .unwrap_err();
    assert!(matches!(err, MqError::SchemaError(_)), "{err}");
    db.execute_sql("CREATE TABLE plain (k INT)", ReoptMode::Off)
        .unwrap();
    db.execute_sql("INSERT INTO plain VALUES (7)", ReoptMode::Off)
        .unwrap();
    let tables = db.engine().catalog().table_names();
    assert_eq!(tables, vec!["plain".to_string()]);
    db.save_as(&path).unwrap();

    let reopened = Database::open_with(cfg(), &path).unwrap();
    assert_eq!(reopened.engine().catalog().table_names(), tables);
    let out = reopened
        .query("SELECT k FROM plain")
        .mode(ReoptMode::Off)
        .run()
        .unwrap();
    assert_eq!(exact_rows(&out), vec!["[7]".to_string()]);
    assert!(reopened.engine().audit().is_clean());
    let _ = std::fs::remove_file(&path);
}
