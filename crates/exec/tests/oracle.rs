//! Property tests: every physical operator against an in-memory
//! oracle, across random data and random memory grants (so both the
//! in-memory and the spilling code paths are exercised).

use mq_catalog::Catalog;
use mq_common::{DataType, EngineConfig, Row, SimClock, Value};
use mq_exec::{run_to_vec, ExecContext};
use mq_plan::{AggExpr, AggFunc, PhysOp, PhysPlan, ScanSpec};
use mq_storage::Storage;
use proptest::prelude::*;

struct Fx {
    catalog: Catalog,
    storage: Storage,
    cfg: EngineConfig,
}

impl Fx {
    fn new() -> Fx {
        let cfg = EngineConfig {
            buffer_pool_pages: 16,
            ..EngineConfig::default()
        };
        let storage = Storage::new(&cfg, SimClock::new());
        Fx {
            catalog: Catalog::new(),
            storage,
            cfg: cfg.clone(),
        }
    }

    fn ctx(&self) -> ExecContext {
        ExecContext::new(self.storage.clone(), SimClock::new(), self.cfg.clone())
    }

    fn table(&self, name: &str, rows: &[(i64, i64)]) -> PhysPlan {
        let rows: Vec<Row> = rows
            .iter()
            .map(|&(k, v)| Row::new(vec![Value::Int(k), Value::Int(v)]))
            .collect();
        self.table_of(
            name,
            vec![("k", DataType::Int), ("v", DataType::Int)],
            &rows,
        )
    }

    /// A scan over a new table with the given columns and rows.
    fn table_of(&self, name: &str, columns: Vec<(&str, DataType)>, rows: &[Row]) -> PhysPlan {
        self.catalog
            .create_table(&self.storage, name, columns)
            .unwrap();
        for row in rows {
            self.catalog
                .insert_row(&self.storage, name, row.clone())
                .unwrap();
        }
        let entry = self.catalog.table(name).unwrap();
        let mut p = PhysPlan::new(
            PhysOp::SeqScan {
                spec: ScanSpec {
                    table: name.into(),
                    file: entry.file,
                    pages: self.storage.file_pages(entry.file).unwrap() as u64,
                    rows: rows.len() as u64,
                },
                filter: None,
            },
            vec![],
            entry.schema,
        );
        p.annot.est_rows = rows.len() as f64;
        p.annot.est_row_bytes = 20.0;
        p
    }
}

fn canon(rows: &[Row]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
    v.sort();
    v
}

/// Rows `(k Int, s Str, v Int)` whose `k` and `s` come from small
/// domains that include NULL, so composite keys collide and NULL keys
/// occur.
fn arb_keyed_rows() -> impl Strategy<Value = Vec<Row>> {
    let k = (0i64..5).prop_map(|k| if k == 4 { Value::Null } else { Value::Int(k) });
    let s = (0usize..4).prop_map(|i| match i {
        0 => Value::Null,
        1 => Value::str(""),
        2 => Value::str("ab"),
        _ => Value::str("abcdefgh"),
    });
    prop::collection::vec((k, s, any::<i64>()), 0..300).prop_map(|rows| {
        rows.into_iter()
            .map(|(k, s, v)| Row::new(vec![k, s, Value::Int(v)]))
            .collect()
    })
}

const KEYED: [(&str, DataType); 3] = [
    ("k", DataType::Int),
    ("s", DataType::Str),
    ("v", DataType::Int),
];

/// Grants for each operator test: one that holds any input in memory,
/// and one small enough that larger inputs spill.
const GRANTS: [(usize, bool); 2] = [(1 << 20, false), (512, true)];

/// Run `plan` under a trace and report its rows and whether any
/// operator spilled.
fn run_traced(plan: &PhysPlan, fx: &Fx) -> (Vec<Row>, bool) {
    let sink = std::sync::Arc::new(mq_obs::JsonlSink::new());
    let obs = mq_obs::Obs::none().with_sink(sink.clone());
    let rows = {
        let _scope = obs.enter_scope();
        run_to_vec(plan, &fx.ctx()).unwrap()
    };
    let spilled = sink
        .lines()
        .iter()
        .any(|l| l.contains("\"event\":\"spill\""));
    (rows, spilled)
}

/// A hash join whose key column lies past the end of one short record
/// returns a typed error, never a panic: on the build side, and on the
/// probe side both in memory and partitioned after a spill. The short
/// record comes last, so under the small grant the build has already
/// spilled when it is read.
#[test]
fn hash_join_short_key_record_is_a_typed_error() {
    for short_side in ["build", "probe"] {
        for (grant, spills) in GRANTS {
            let fx = Fx::new();
            let rows: Vec<(i64, i64)> = (0..300).map(|i| (i, i % 20)).collect();
            let a = fx.table("a", &rows);
            let b = fx.table("b", &rows);
            let short = if short_side == "build" { &a } else { &b };
            let PhysOp::SeqScan { spec, .. } = &short.op else {
                unreachable!("Fx::table builds a SeqScan")
            };
            fx.storage
                .append_row(spec.file, &Row::new(vec![Value::Int(7)]))
                .unwrap();
            let schema = a.schema.join(&b.schema);
            let mut plan = PhysPlan::new(
                PhysOp::HashJoin {
                    build_keys: vec![1],
                    probe_keys: vec![1],
                },
                vec![a, b],
                schema,
            );
            plan.annot.mem_grant_bytes = grant;
            plan.assign_ids();

            let sink = std::sync::Arc::new(mq_obs::JsonlSink::new());
            let obs = mq_obs::Obs::none().with_sink(sink.clone());
            let got = {
                let _scope = obs.enter_scope();
                run_to_vec(&plan, &fx.ctx())
            };
            let err = got.expect_err("a short key record must fail the join");
            assert!(
                err.to_string().contains("out of range for a 1-column row"),
                "{short_side} side, grant {grant}: {err}"
            );
            let spilled = sink
                .lines()
                .iter()
                .any(|l| l.contains("\"event\":\"spill\""));
            assert_eq!(spilled, spills, "{short_side} side, grant {grant}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hybrid hash join (any grant) equals the nested-loop oracle.
    #[test]
    fn hash_join_oracle(
        left in prop::collection::vec((0i64..20, any::<i64>()), 0..200),
        right in prop::collection::vec((0i64..20, any::<i64>()), 0..200),
        grant_pages in 2usize..64,
    ) {
        let fx = Fx::new();
        let a = fx.table("a", &left);
        let b = fx.table("b", &right);
        let schema = a.schema.join(&b.schema);
        let mut plan = PhysPlan::new(
            PhysOp::HashJoin { build_keys: vec![0], probe_keys: vec![0] },
            vec![a, b],
            schema,
        );
        plan.annot.mem_grant_bytes = grant_pages * fx.cfg.page_size;
        plan.assign_ids();
        let got = run_to_vec(&plan, &fx.ctx()).unwrap();

        let mut oracle = Vec::new();
        for &(lk, lv) in &left {
            for &(rk, rv) in &right {
                if lk == rk {
                    oracle.push(Row::new(vec![
                        Value::Int(lk), Value::Int(lv), Value::Int(rk), Value::Int(rv),
                    ]));
                }
            }
        }
        prop_assert_eq!(canon(&got), canon(&oracle));
    }

    /// External sort (any grant) equals `sort_by` on the oracle.
    #[test]
    fn sort_oracle(
        rows in prop::collection::vec((-50i64..50, -50i64..50), 0..400),
        grant_pages in 1usize..32,
        desc in any::<bool>(),
    ) {
        let fx = Fx::new();
        let input = fx.table("t", &rows);
        let schema = input.schema.clone();
        let mut plan = PhysPlan::new(
            PhysOp::Sort { keys: vec![(0, !desc), (1, true)] },
            vec![input],
            schema,
        );
        plan.annot.mem_grant_bytes = grant_pages * fx.cfg.page_size;
        plan.assign_ids();
        let got: Vec<(i64, i64)> = run_to_vec(&plan, &fx.ctx())
            .unwrap()
            .iter()
            .map(|r| (r.get(0).as_i64().unwrap(), r.get(1).as_i64().unwrap()))
            .collect();
        let mut oracle = rows.clone();
        oracle.sort_by(|x, y| {
            let k = if desc { y.0.cmp(&x.0) } else { x.0.cmp(&y.0) };
            k.then(x.1.cmp(&y.1))
        });
        prop_assert_eq!(got, oracle);
    }

    /// Hash aggregation (any grant) equals a HashMap oracle.
    #[test]
    fn aggregate_oracle(
        rows in prop::collection::vec((0i64..30, -100i64..100), 0..400),
        grant_pages in 2usize..32,
    ) {
        let fx = Fx::new();
        let input = fx.table("t", &rows);
        let in_schema = input.schema.clone();
        let out_schema = mq_common::Schema::new(vec![
            mq_common::Field::qualified("t", "k", DataType::Int),
            mq_common::Field::new("n", DataType::Int),
            mq_common::Field::new("s", DataType::Int),
            mq_common::Field::new("mx", DataType::Int),
        ]).unwrap();
        let arg = mq_expr::col("t.v").bind(&in_schema).unwrap();
        let mut plan = PhysPlan::new(
            PhysOp::HashAggregate {
                group: vec![0],
                aggs: vec![
                    AggExpr { func: AggFunc::Count, arg: None, name: "n".into() },
                    AggExpr { func: AggFunc::Sum, arg: Some(arg.clone()), name: "s".into() },
                    AggExpr { func: AggFunc::Max, arg: Some(arg), name: "mx".into() },
                ],
            },
            vec![input],
            out_schema,
        );
        plan.annot.mem_grant_bytes = grant_pages * fx.cfg.page_size;
        plan.assign_ids();
        let got = run_to_vec(&plan, &fx.ctx()).unwrap();

        use std::collections::HashMap;
        let mut model: HashMap<i64, (i64, i64, i64)> = HashMap::new();
        for &(k, v) in &rows {
            let e = model.entry(k).or_insert((0, 0, i64::MIN));
            e.0 += 1;
            e.1 += v;
            e.2 = e.2.max(v);
        }
        prop_assert_eq!(got.len(), model.len());
        for r in &got {
            let k = r.get(0).as_i64().unwrap();
            let (n, s, mx) = model[&k];
            prop_assert_eq!(r.get(1).as_i64(), Some(n), "count for {}", k);
            prop_assert_eq!(r.get(2).as_i64(), Some(s), "sum for {}", k);
            prop_assert_eq!(r.get(3).as_i64(), Some(mx), "max for {}", k);
        }
    }

    /// Index nested-loops join equals the hash join on the same input.
    #[test]
    fn inl_join_matches_hash(
        outer in prop::collection::vec((0i64..25, any::<i64>()), 0..150),
        inner in prop::collection::vec((0i64..25, any::<i64>()), 0..150),
    ) {
        let fx = Fx::new();
        let a = fx.table("a", &outer);
        let _b = fx.table("b", &inner);
        fx.catalog.create_index(&fx.storage, "b", "k").unwrap();
        let entry_b = fx.catalog.table("b").unwrap();

        let schema = a.schema.join(&entry_b.schema);
        let mut inl = PhysPlan::new(
            PhysOp::IndexNLJoin {
                outer_key: 0,
                inner: ScanSpec {
                    table: "b".into(),
                    file: entry_b.file,
                    pages: fx.storage.file_pages(entry_b.file).unwrap() as u64,
                    rows: inner.len() as u64,
                },
                index: entry_b.indexes["k"],
                inner_column: "k".into(),
                index_height: fx.storage.index_height(entry_b.indexes["k"]).unwrap(),
                clustering: 0.0,
                residual: None,
            },
            vec![a],
            schema.clone(),
        );
        inl.assign_ids();
        let got = run_to_vec(&inl, &fx.ctx()).unwrap();

        let a2 = fx.table("a2", &outer);
        let b2 = fx.table("b2", &inner);
        let schema2 = a2.schema.join(&b2.schema);
        let mut hj = PhysPlan::new(
            PhysOp::HashJoin { build_keys: vec![0], probe_keys: vec![0] },
            vec![a2, b2],
            schema2,
        );
        hj.assign_ids();
        let expect = run_to_vec(&hj, &fx.ctx()).unwrap();
        prop_assert_eq!(canon(&got), canon(&expect));
    }

    /// Hybrid hash join on the composite key `(k, s)`, with NULLs in
    /// both key columns, equals the nested-loop oracle in memory and
    /// spilled.
    #[test]
    fn hash_join_composite_null_keys(left in arb_keyed_rows(), right in arb_keyed_rows()) {
        let mut oracle = Vec::new();
        for l in &left {
            for r in &right {
                let keys_match = (0..2).all(|i| {
                    !l.get(i).is_null() && !r.get(i).is_null() && l.get(i) == r.get(i)
                });
                if keys_match {
                    oracle.push(l.concat(r));
                }
            }
        }
        for (grant, may_spill) in GRANTS {
            let fx = Fx::new();
            let a = fx.table_of("a", KEYED.to_vec(), &left);
            let b = fx.table_of("b", KEYED.to_vec(), &right);
            let schema = a.schema.join(&b.schema);
            let mut plan = PhysPlan::new(
                PhysOp::HashJoin { build_keys: vec![0, 1], probe_keys: vec![0, 1] },
                vec![a, b],
                schema,
            );
            plan.annot.mem_grant_bytes = grant;
            plan.assign_ids();
            let (got, spilled) = run_traced(&plan, &fx);
            prop_assert_eq!(canon(&got), canon(&oracle));
            prop_assert!(may_spill || !spilled, "a {} B grant spilled", grant);
            prop_assert!(!may_spill || spilled || left.len() < 100, "{} build rows fit {} B", left.len(), grant);
        }
    }

    /// Hash aggregation grouped by `(k, s)`, a string column with NULLs
    /// among the keys, equals a map oracle in memory and spilled.
    #[test]
    fn aggregate_two_column_groups(rows in arb_keyed_rows()) {
        use std::collections::BTreeMap;
        let mut model: BTreeMap<(Value, Value), (i64, i128)> = BTreeMap::new();
        for r in &rows {
            let e = model.entry((r.get(0).clone(), r.get(1).clone())).or_insert((0, 0));
            e.0 += 1;
            e.1 += r.get(2).as_i64().unwrap() as i128;
        }
        for (grant, may_spill) in GRANTS {
            let fx = Fx::new();
            let input = fx.table_of("t", KEYED.to_vec(), &rows);
            let in_schema = input.schema.clone();
            let out_schema = mq_common::Schema::new(vec![
                mq_common::Field::qualified("t", "k", DataType::Int),
                mq_common::Field::qualified("t", "s", DataType::Str),
                mq_common::Field::new("n", DataType::Int),
                mq_common::Field::new("mn", DataType::Int),
            ]).unwrap();
            let arg = mq_expr::col("t.v").bind(&in_schema).unwrap();
            let mut plan = PhysPlan::new(
                PhysOp::HashAggregate {
                    group: vec![0, 1],
                    aggs: vec![
                        AggExpr { func: AggFunc::Count, arg: None, name: "n".into() },
                        AggExpr { func: AggFunc::Min, arg: Some(arg), name: "mn".into() },
                    ],
                },
                vec![input],
                out_schema,
            );
            plan.annot.mem_grant_bytes = grant;
            plan.assign_ids();
            let (got, spilled) = run_traced(&plan, &fx);
            prop_assert!(may_spill || !spilled, "a {} B grant spilled", grant);
            prop_assert!(!may_spill || spilled || model.len() < 10, "{} groups fit {} B", model.len(), grant);
            prop_assert_eq!(got.len(), model.len());
            for r in &got {
                let (count, _) = model[&(r.get(0).clone(), r.get(1).clone())];
                let min = rows
                    .iter()
                    .filter(|x| x.get(0) == r.get(0) && x.get(1) == r.get(1))
                    .map(|x| x.get(2).as_i64().unwrap())
                    .min();
                prop_assert_eq!(r.get(2).as_i64(), Some(count));
                prop_assert_eq!(r.get(3).as_i64(), min);
            }
        }
    }

    /// Limit returns a prefix of the unlimited stream.
    #[test]
    fn limit_is_prefix(rows in prop::collection::vec((0i64..10, 0i64..10), 0..100), n in 0u64..120) {
        let fx = Fx::new();
        let base = fx.table("t", &rows);
        let schema = base.schema.clone();
        let mut plan = PhysPlan::new(PhysOp::Limit { n }, vec![base], schema);
        plan.assign_ids();
        let got = run_to_vec(&plan, &fx.ctx()).unwrap();
        prop_assert_eq!(got.len() as u64, (rows.len() as u64).min(n));
    }
}

/// Rows `(i Int, x, s)` for the scan oracle: `x` mixes `Int` and
/// `Float` values that tie (`Int(1)` and `Float(1.0)`) with NULL, and
/// `s` is a short string or NULL.
fn arb_scan_rows() -> impl Strategy<Value = Vec<Row>> {
    let x = (0usize..3, -2i64..3).prop_map(|(kind, n)| match kind {
        0 => Value::Null,
        1 => Value::Int(n),
        _ => Value::Float(n as f64 / 2.0),
    });
    let s = (0usize..4).prop_map(|i| match i {
        0 => Value::Null,
        1 => Value::str(""),
        2 => Value::str("ab"),
        _ => Value::str("b"),
    });
    prop::collection::vec((x, s), 1..300).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (x, s))| Row::new(vec![Value::Int(i as i64), x, s]))
            .collect()
    })
}

/// A scan filter over [`arb_scan_rows`]: comparisons of a column (or
/// of the column one past the row's end) with a literal of any type
/// or NULL, under AND, OR and NOT; sometimes no filter at all.
fn arb_scan_filter() -> impl Strategy<Value = Option<mq_expr::Expr>> {
    use mq_expr::{cmp, lit, CmpOp, Expr};
    let column = (0usize..4).prop_map(|index| Expr::BoundColumn {
        index,
        name: format!("c{index}").into(),
    });
    let literal = prop_oneof![
        (-2i64..3).prop_map(lit),
        (-4i64..6).prop_map(|h| lit(h as f64 / 2.0)),
        "[ab]{0,2}".prop_map(lit),
        Just(Expr::Literal(Value::Null)),
    ];
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Ge),
    ];
    let leaf = (op, column, literal, any::<bool>()).prop_map(|(op, c, l, flip)| {
        if flip {
            cmp(op, l, c)
        } else {
            cmp(op, c, l)
        }
    });
    let pred = leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Expr::And),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Expr::Or),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    });
    (0usize..7, pred).prop_map(|(pick, p)| (pick > 0).then_some(p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A filtered `SeqScan` over a heap with one damaged record returns
    /// the rows of `filter(Row::decode(rec))` in file order, then the
    /// error the first failing decode or filter gives, and books
    /// `1 + filter_ops` CPU ops for every record decoded before it
    /// (`1` without a filter) and nothing else.
    #[test]
    fn filtered_scan_oracle(
        rows in arb_scan_rows(),
        filter in arb_scan_filter(),
        damaged in any::<u16>(),
        bad_tag in any::<bool>(),
    ) {
        use mq_exec::scan::SeqScanExec;
        use mq_exec::Operator;

        let fx = Fx::new();
        let file = fx.storage.create_file();
        let rids: Vec<_> = rows
            .iter()
            .map(|r| fx.storage.append_row(file, r).unwrap())
            .collect();
        // Damage one record in place: an unknown tag on its first
        // column, or a header claiming one column more than it holds.
        let rid = rids[damaged as usize % rids.len()];
        fx.storage
            .pool()
            .with_page_mut(rid.page, |data| {
                let at = mq_storage::page::locate(data, rid.slot).unwrap().start;
                if bad_tag {
                    data[at + 2] = 9;
                } else {
                    data[at] += 1;
                }
            })
            .unwrap();

        // The model: decode every record, then filter the built row.
        let filter_ops = filter.as_ref().map_or(0, |f| f.eval_cost_ops());
        let mut want_rows = Vec::new();
        let mut want_ops = 0;
        let mut want_end = Ok(());
        let mut records = fx.storage.scan_file(file).unwrap();
        while let Some(item) = records.next_record() {
            let (_, rec) = item.unwrap();
            let row = match Row::decode(rec) {
                Ok((row, _)) => row,
                Err(e) => {
                    want_end = Err(e);
                    break;
                }
            };
            want_ops += 1 + filter_ops;
            match filter.as_ref().map_or(Ok(true), |f| f.eval_predicate(&row)) {
                Ok(true) => want_rows.push(row),
                Ok(false) => {}
                Err(e) => {
                    want_end = Err(e);
                    break;
                }
            }
        }
        prop_assert!(want_end.is_err(), "the damaged record must fail");

        let spec = ScanSpec {
            table: "t".into(),
            file,
            pages: fx.storage.file_pages(file).unwrap() as u64,
            rows: rows.len() as u64,
        };
        let ctx = fx.ctx();
        let before = ctx.clock.snapshot();
        let mut scan = SeqScanExec::new(spec, filter);
        scan.open(&ctx).unwrap();
        let mut got_rows = Vec::new();
        let got_end = loop {
            match scan.next(&ctx) {
                Ok(Some(row)) => got_rows.push(row),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        let cost = ctx.clock.snapshot().since(&before);
        prop_assert_eq!(got_rows, want_rows);
        prop_assert_eq!(got_end, want_end);
        prop_assert_eq!(cost, mq_common::CostSnapshot { cpu_ops: want_ops, ..Default::default() });
    }
}
