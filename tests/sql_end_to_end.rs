//! SQL → plan → execution, end to end through the `Database` facade.

use midq::common::{DataType, EngineConfig, Row, Value};
use midq::{Database, ReoptMode};

fn sample_db() -> Database {
    let db = Database::new(EngineConfig::default()).unwrap();
    db.create_table(
        "emp",
        vec![
            ("id", DataType::Int),
            ("dept", DataType::Str),
            ("salary", DataType::Float),
            ("hired", DataType::Date),
        ],
    )
    .unwrap();
    db.create_table(
        "dept",
        vec![("name", DataType::Str), ("budget", DataType::Int)],
    )
    .unwrap();
    let depts = ["eng", "sales", "hr"];
    for i in 0..900i64 {
        db.insert(
            "emp",
            Row::new(vec![
                Value::Int(i),
                Value::str(depts[(i % 3) as usize]),
                Value::Float(40_000.0 + (i % 100) as f64 * 1_000.0),
                midq::common::value::date(2010 + (i % 10), 1 + (i % 12) as u32, 1),
            ]),
        )
        .unwrap();
    }
    for (i, d) in depts.iter().enumerate() {
        db.insert(
            "dept",
            Row::new(vec![Value::str(*d), Value::Int(100 * (i as i64 + 1))]),
        )
        .unwrap();
    }
    db.analyze("emp").unwrap();
    db.analyze("dept").unwrap();
    db
}

#[test]
fn aggregates_group_order_limit() {
    let db = sample_db();
    let out = db
        .query(
            "SELECT dept, count(*) AS n, avg(salary) AS pay, max(salary) AS top \
             FROM emp WHERE salary >= 50000 GROUP BY dept ORDER BY dept",
        )
        .mode(ReoptMode::Full)
        .run()
        .unwrap();
    assert_eq!(out.rows.len(), 3);
    assert_eq!(out.rows[0].get(0), &Value::str("eng"));
    // 90 of 100 salary steps are ≥ 50000 → 270 per dept.
    assert_eq!(out.rows[0].get(1), &Value::Int(270));
    let top = match out.rows[0].get(3) {
        Value::Float(f) => *f,
        other => panic!("{other:?}"),
    };
    assert!((top - 139_000.0).abs() < 1e-6);
}

#[test]
fn join_with_date_predicate() {
    let db = sample_db();
    let out = db
        .query(
            "SELECT id, budget FROM emp, dept \
             WHERE dept = name AND hired >= DATE '2018-01-01' AND budget > 150 \
             ORDER BY id LIMIT 5",
        )
        .mode(ReoptMode::Full)
        .run()
        .unwrap();
    assert_eq!(out.rows.len(), 5);
    // Ordered by id ascending.
    let ids: Vec<i64> = out
        .rows
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
    for r in &out.rows {
        assert!(r.get(1).as_i64().unwrap() > 150);
    }
}

#[test]
fn explain_mentions_operators() {
    let db = sample_db();
    let plan = db
        .plan_sql("SELECT dept, count(*) AS n FROM emp GROUP BY dept")
        .unwrap();
    let text = db.explain(&plan).unwrap();
    assert!(text.contains("HashAggregate"), "{text}");
    assert!(text.contains("SeqScan emp"), "{text}");
    assert!(text.contains("rows≈"), "{text}");
}

#[test]
fn empty_results_are_fine() {
    let db = sample_db();
    let out = db
        .query("SELECT id FROM emp WHERE salary < 0")
        .mode(ReoptMode::Full)
        .run()
        .unwrap();
    assert!(out.rows.is_empty());
    let out = db
        .query("SELECT count(*) AS n FROM emp WHERE salary < 0")
        .mode(ReoptMode::Full)
        .run()
        .unwrap();
    assert_eq!(out.rows[0].get(0), &Value::Int(0));
}

#[test]
fn errors_are_reported_not_panicked() {
    let db = sample_db();
    assert!(db
        .query("SELECT nope FROM emp")
        .mode(ReoptMode::Off)
        .run()
        .is_err());
    assert!(db.query("SELECT FROM").mode(ReoptMode::Off).run().is_err());
    assert!(db
        .query("SELECT id FROM ghost")
        .mode(ReoptMode::Off)
        .run()
        .is_err());
    assert!(db
        .query("SELECT id, count(*) FROM emp GROUP BY dept")
        .mode(ReoptMode::Off)
        .run()
        .is_err());
}

#[test]
fn between_and_or_predicates() {
    let db = sample_db();
    let out = db
        .query(
            "SELECT count(*) AS n FROM emp \
             WHERE salary BETWEEN 50000 AND 60000 OR dept = 'hr'",
        )
        .mode(ReoptMode::Full)
        .run()
        .unwrap();
    let n = out.rows[0].get(0).as_i64().unwrap();
    // 11 salary steps in [50k,60k] → 99 emps, plus 300 hr minus overlap 33.
    assert_eq!(n, 99 + 300 - 33);
}

/// The full SQL-only lifecycle through `execute_sql`: DDL, literal
/// inserts with coercion, ANALYZE, index creation, query, and typed
/// error reporting — no Rust-side table building at all.
#[test]
fn sql_only_lifecycle() {
    use midq::SqlOutcome;
    let db = Database::new(EngineConfig::default()).unwrap();
    let cmd = |sql: &str| match db.execute_sql(sql, ReoptMode::Off).unwrap() {
        SqlOutcome::Command(msg) => msg,
        SqlOutcome::Query(_) => panic!("{sql} should be a command"),
    };

    assert!(cmd("CREATE TABLE p (id INT, price FLOAT, tag VARCHAR, day DATE)").contains("created"));
    assert!(cmd("INSERT INTO p VALUES \
         (1, 10, 'a', DATE '2020-01-01'), \
         (2, 2.5, 'b', DATE '2020-06-15'), \
         (3, -0.5, 'a', NULL)")
    .contains("3 rows"));
    assert!(cmd("ANALYZE p").contains("analyzed"));
    assert!(cmd("CREATE INDEX ON p (id)").contains("index"));

    // The INT literal 10 was coerced into the FLOAT column.
    let out = match db
        .execute_sql(
            "SELECT tag, count(*) AS n FROM p WHERE price > 0 GROUP BY tag ORDER BY tag",
            ReoptMode::Full,
        )
        .unwrap()
    {
        SqlOutcome::Query(q) => q,
        SqlOutcome::Command(m) => panic!("unexpected command: {m}"),
    };
    assert_eq!(out.rows.len(), 2);
    assert_eq!(out.rows[0].get(0), &Value::str("a"));
    assert_eq!(out.rows[0].get(1), &Value::Int(1)); // a: only the price-10 row
    assert_eq!(out.rows[1].get(1), &Value::Int(1)); // b: the 2.5 row

    // Typed failures, not panics.
    let arity = db.execute_sql("INSERT INTO p VALUES (1, 2.0)", ReoptMode::Off);
    assert_eq!(arity.unwrap_err().kind(), "schema");
    let ty = db.execute_sql("INSERT INTO p VALUES ('x', 1.0, 'a', NULL)", ReoptMode::Off);
    assert_eq!(ty.unwrap_err().kind(), "type_mismatch");
    let dup = db.execute_sql("CREATE TABLE p (a INT)", ReoptMode::Off);
    assert_eq!(dup.unwrap_err().kind(), "already_exists");
    let ghost = db.execute_sql("ANALYZE ghost", ReoptMode::Off);
    assert_eq!(ghost.unwrap_err().kind(), "not_found");
}

/// Statements inserted through SQL are visible to the re-optimization
/// machinery exactly like API inserts: post-ANALYZE SQL inserts raise
/// update activity and therefore the SCIA's staleness signal.
#[test]
fn sql_inserts_count_as_update_activity() {
    let db = Database::new(EngineConfig::default()).unwrap();
    db.execute_sql("CREATE TABLE t (a INT)", ReoptMode::Off)
        .unwrap();
    db.execute_sql("INSERT INTO t VALUES (1), (2), (3), (4)", ReoptMode::Off)
        .unwrap();
    db.execute_sql("ANALYZE t", ReoptMode::Off).unwrap();
    assert_eq!(
        db.engine().catalog().table("t").unwrap().update_activity(),
        0.0
    );
    db.execute_sql("INSERT INTO t VALUES (5), (6)", ReoptMode::Off)
        .unwrap();
    let act = db.engine().catalog().table("t").unwrap().update_activity();
    assert!((act - 0.5).abs() < 1e-9, "activity {act}");
}

/// IN / NOT IN desugar to (negated) disjunctions and execute correctly.
#[test]
fn in_list_end_to_end() {
    let db = sample_db();
    let out = db
        .query("SELECT count(*) AS n FROM emp WHERE dept IN ('eng', 'hr')")
        .mode(ReoptMode::Full)
        .run()
        .unwrap();
    assert_eq!(out.rows[0].get(0), &Value::Int(600));
    let out = db
        .query("SELECT count(*) AS n FROM emp WHERE dept NOT IN ('eng', 'hr')")
        .mode(ReoptMode::Full)
        .run()
        .unwrap();
    assert_eq!(out.rows[0].get(0), &Value::Int(300));
    let out = db
        .query("SELECT count(*) AS n FROM emp WHERE id IN (0, 1, 2, 899, 9999)")
        .mode(ReoptMode::Off)
        .run()
        .unwrap();
    assert_eq!(out.rows[0].get(0), &Value::Int(4));
}
