//! Operator- and substrate-level microbenchmarks.
//!
//! The `figures` benches track end-to-end query behaviour; these track
//! the building blocks — B+-tree operations, heap scans with and
//! without a filter, hash join build/probe, external sort, histogram
//! construction (including the O(D²B) V-optimal dynamic program), and
//! expression evaluation — so a regression can be localized before it
//! shows up as a smeared Fig. 10.
//!
//! ```text
//! cargo bench -p mq-bench --bench micro            # every benchmark
//! cargo bench -p mq-bench --bench micro -- btree   # names containing "btree"
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use midq::common::value::{civil_to_days, date};
use midq::common::{DataType, DetRng, EngineConfig, Field, Row, Schema, SimClock, Value};
use midq::exec::context::ExecContext;
use midq::exec::scan::SeqScanExec;
use midq::exec::Operator;
use midq::expr::{and, between, cmp, col, lit, CmpOp};
use midq::plan::ScanSpec;
use midq::stats::{Histogram, HistogramKind, Reservoir};
use midq::storage::Storage;
use midq::{Database, ReoptMode};

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    group.sample_size(20);
    for n in [1_000u64, 10_000] {
        group.bench_with_input(BenchmarkId::new("insert", n), &n, |b, &n| {
            b.iter(|| {
                let cfg = EngineConfig::default();
                let st = Storage::new(&cfg, SimClock::new());
                let idx = st.create_index().unwrap();
                let mut rng = DetRng::new(7);
                for i in 0..n {
                    let k = rng.gen_range(n * 4) as i64;
                    st.index_insert(idx, &Value::Int(k), mq_common_rid(i))
                        .unwrap();
                }
                black_box(idx)
            })
        });
    }
    // Probes are microseconds each: take many samples per case.
    group.sample_size(500);
    let default_pool = EngineConfig::default();
    // The benchmark workloads' regime: a 64-frame pool the index does
    // not fit in, so probes evict and re-read index pages.
    let small_pool = EngineConfig {
        buffer_pool_pages: 64,
        ..EngineConfig::default()
    };
    for (case, cfg, n) in [
        ("lookup", &default_pool, 1_000u64),
        ("lookup", &default_pool, 10_000),
        ("lookup_pool64", &small_pool, 100_000),
    ] {
        group.bench_with_input(BenchmarkId::new(case, n), &n, |b, &n| {
            let (st, idx) = int_index(cfg, n);
            let mut rng = DetRng::new(11);
            b.iter(|| {
                let k = rng.gen_range(n) as i64;
                black_box(st.index_lookup(idx, &Value::Int(k)).unwrap())
            })
        });
    }
    // 100 consecutive keys: one or two leaves past the descent.
    let n = 10_000u64;
    group.bench_with_input(BenchmarkId::new("range", n), &n, |b, &n| {
        let (st, idx) = int_index(&default_pool, n);
        let mut rng = DetRng::new(17);
        b.iter(|| {
            let lo = rng.gen_range(n - 100) as i64;
            let hi = lo + 99;
            black_box(
                st.index_range(idx, Some(&Value::Int(lo)), Some(&Value::Int(hi)))
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// An index over the integer keys `0..n`, each pointing at its own rid.
fn int_index(cfg: &EngineConfig, n: u64) -> (Storage, midq::common::IndexId) {
    let st = Storage::new(cfg, SimClock::new());
    let idx = st.create_index().unwrap();
    for i in 0..n {
        st.index_insert(idx, &Value::Int(i as i64), mq_common_rid(i))
            .unwrap();
    }
    (st, idx)
}

/// RIDs for index benches: fabricate distinct page/slot pairs.
fn mq_common_rid(i: u64) -> midq::common::Rid {
    midq::common::Rid {
        page: midq::common::PageId(i / 64),
        slot: (i % 64) as u16,
    }
}

/// A 20k-row heap shaped like TPC-D `lineitem` (12 columns, two short
/// strings), scanned by `SeqScanExec` with no filter, with Q6's
/// ~2%-selective filter, with Q1's date filter (~95% pass) and with
/// Q10's string filter `l_returnflag = 'R'` (~1/3 pass).
fn bench_seq_scan(c: &mut Criterion) {
    const ROWS: i64 = 20_000;
    let cfg = EngineConfig::default();
    let clock = SimClock::new();
    let st = Storage::new(&cfg, clock.clone());
    let file = st.create_file();
    let mut rng = DetRng::new(13);
    let day0 = civil_to_days(1992, 1, 1);
    for i in 0..ROWS {
        let ship = day0 + rng.gen_range(7 * 365) as i64;
        let row = Row::new(vec![
            Value::Int(i / 4),
            Value::Int(rng.gen_range(2_000) as i64),
            Value::Int(rng.gen_range(100) as i64),
            Value::Int(1 + rng.gen_range(50) as i64),
            Value::Float(rng.gen_range(100_000) as f64 / 10.0),
            Value::Float(rng.gen_range(11) as f64 / 100.0),
            Value::Float(rng.gen_range(9) as f64 / 100.0),
            Value::str(["A", "N", "R"][rng.gen_range(3) as usize]),
            Value::str(["F", "O"][rng.gen_range(2) as usize]),
            Value::Date(ship),
            Value::Date(ship + 30),
            Value::Date(ship + rng.gen_range(30) as i64),
        ]);
        st.append_row(file, &row).unwrap();
    }
    let column = |name: &str, ty| Field::qualified("lineitem", name, ty);
    let schema = Schema::new(vec![
        column("l_orderkey", DataType::Int),
        column("l_partkey", DataType::Int),
        column("l_suppkey", DataType::Int),
        column("l_quantity", DataType::Int),
        column("l_extendedprice", DataType::Float),
        column("l_discount", DataType::Float),
        column("l_tax", DataType::Float),
        column("l_returnflag", DataType::Str),
        column("l_linestatus", DataType::Str),
        column("l_shipdate", DataType::Date),
        column("l_commitdate", DataType::Date),
        column("l_receiptdate", DataType::Date),
    ])
    .unwrap();
    let q6 = and(vec![
        cmp(CmpOp::Ge, col("l_shipdate"), lit(date(1994, 1, 1))),
        cmp(CmpOp::Lt, col("l_shipdate"), lit(date(1995, 1, 1))),
        between(col("l_discount"), 0.05, 0.07),
        cmp(CmpOp::Lt, col("l_quantity"), lit(24i64)),
    ])
    .bind(&schema)
    .unwrap();
    let q1 = cmp(CmpOp::Le, col("l_shipdate"), lit(date(1998, 9, 2)))
        .bind(&schema)
        .unwrap();
    let q10 = cmp(CmpOp::Eq, col("l_returnflag"), lit("R"))
        .bind(&schema)
        .unwrap();
    let spec = ScanSpec {
        table: "lineitem".into(),
        file,
        pages: st.file_pages(file).unwrap() as u64,
        rows: ROWS as u64,
    };
    let ctx = ExecContext::new(st, clock, cfg);
    let scan = |filter: Option<&midq::expr::Expr>| {
        let mut op = SeqScanExec::new(spec.clone(), filter.cloned());
        op.open(&ctx).unwrap();
        let mut n = 0usize;
        while let Some(row) = op.next(&ctx).unwrap() {
            n += black_box(row).len();
        }
        op.close(&ctx).unwrap();
        n
    };
    let kept = scan(Some(&q6)) / 12;
    assert!(
        (100..800).contains(&kept),
        "Q6 filter should keep ~2% of {ROWS} rows, kept {kept}"
    );
    let kept = scan(Some(&q1)) / 12;
    assert!(
        (18_000..20_000).contains(&kept),
        "Q1 filter should keep ~95% of {ROWS} rows, kept {kept}"
    );
    let kept = scan(Some(&q10)) / 12;
    assert!(
        (6_000..7_400).contains(&kept),
        "Q10 filter should keep ~1/3 of {ROWS} rows, kept {kept}"
    );

    let mut group = c.benchmark_group("seq_scan");
    group.sample_size(20);
    group.bench_function("unfiltered_20k", |b| b.iter(|| black_box(scan(None))));
    group.bench_function("q6_filter_20k", |b| b.iter(|| black_box(scan(Some(&q6)))));
    group.bench_function("q1_filter_20k", |b| b.iter(|| black_box(scan(Some(&q1)))));
    group.bench_function("q10_filter_20k", |b| b.iter(|| black_box(scan(Some(&q10)))));
    group.finish();
}

fn join_db(rows: i64) -> (Database, midq::LogicalPlan) {
    let db = Database::new(EngineConfig::default()).unwrap();
    db.create_table("r", vec![("k", DataType::Int), ("v", DataType::Int)])
        .unwrap();
    db.create_table("s", vec![("k", DataType::Int), ("w", DataType::Int)])
        .unwrap();
    for i in 0..rows {
        db.insert(
            "r",
            Row::new(vec![Value::Int(i % (rows / 4)), Value::Int(i)]),
        )
        .unwrap();
    }
    for i in 0..rows / 4 {
        db.insert("s", Row::new(vec![Value::Int(i), Value::Int(i * 2)]))
            .unwrap();
    }
    for t in ["r", "s"] {
        db.analyze(t).unwrap();
    }
    let q = midq::LogicalPlan::scan("s").join(midq::LogicalPlan::scan("r"), vec![("s.k", "r.k")]);
    (db, q)
}

fn bench_hash_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_join");
    group.sample_size(10);
    for rows in [4_000i64, 16_000] {
        let (db, q) = join_db(rows);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| {
                black_box(
                    db.query_plan(&q)
                        .mode(ReoptMode::Off)
                        .run()
                        .unwrap()
                        .rows
                        .len(),
                )
            })
        });
    }
    group.finish();
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("external_sort");
    group.sample_size(10);
    for rows in [5_000i64, 20_000] {
        let db = Database::new(EngineConfig {
            query_memory_bytes: 128 * 1024, // force multi-run merging at 20k
            ..EngineConfig::default()
        })
        .unwrap();
        db.create_table("t", vec![("a", DataType::Int), ("b", DataType::Int)])
            .unwrap();
        let mut rng = DetRng::new(3);
        for _ in 0..rows {
            db.insert(
                "t",
                Row::new(vec![
                    Value::Int(rng.gen_range(1 << 30) as i64),
                    Value::Int(1),
                ]),
            )
            .unwrap();
        }
        db.analyze("t").unwrap();
        let q = midq::LogicalPlan::scan("t").sort(vec![("t.a", true)]);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| {
                black_box(
                    db.query_plan(&q)
                        .mode(ReoptMode::Off)
                        .run()
                        .unwrap()
                        .rows
                        .len(),
                )
            })
        });
    }
    group.finish();
}

fn bench_histograms(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_build");
    // A realistic ANALYZE input: one reservoir's worth of skewed ranks.
    let mut rng = DetRng::new(5);
    let sample: Vec<f64> = (0..1024)
        .map(|_| (rng.gen_range(10_000) as f64).sqrt().floor())
        .collect();
    for kind in [
        HistogramKind::EquiWidth,
        HistogramKind::EquiDepth,
        HistogramKind::MaxDiff,
        HistogramKind::EndBiased,
        HistogramKind::VOptimal,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind}")),
            &kind,
            |b, &kind| b.iter(|| black_box(Histogram::build(kind, &sample, 32, 0.0, 100.0))),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("reservoir");
    group.bench_function("observe_100k", |b| {
        b.iter(|| {
            let mut r: Reservoir<i64> = Reservoir::new(1024, 9);
            for i in 0..100_000i64 {
                r.observe(i);
            }
            black_box(r.items().len())
        })
    });
    group.finish();
}

fn bench_expr_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("expr_eval");
    let schema = midq::common::Schema::new(vec![
        midq::common::Field::qualified("t", "a", DataType::Int),
        midq::common::Field::qualified("t", "b", DataType::Int),
        midq::common::Field::qualified("t", "c", DataType::Float),
    ])
    .unwrap();
    let pred = and(vec![
        cmp(CmpOp::Lt, col("t.a"), lit(500i64)),
        cmp(CmpOp::Ge, col("t.b"), lit(10i64)),
        cmp(CmpOp::Lt, col("t.c"), lit(0.75)),
    ]);
    let bound = pred.bind(&schema).unwrap();
    let rows: Vec<Row> = (0..1000)
        .map(|i| {
            Row::new(vec![
                Value::Int(i % 1000),
                Value::Int(i % 37),
                Value::Float((i % 100) as f64 / 100.0),
            ])
        })
        .collect();
    group.bench_function("conjunction_1k_rows", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for r in &rows {
                if bound.eval_predicate(r).unwrap_or(false) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

criterion_group!(
    micro,
    bench_btree,
    bench_seq_scan,
    bench_hash_join,
    bench_sort,
    bench_histograms,
    bench_expr_eval
);
criterion_main!(micro);
