//! Operator-level tests: correctness against in-memory oracles, spill
//! behaviour under small grants, artifact reuse, and monitor hooks.

use std::cell::RefCell;
use std::rc::Rc;

use mq_catalog::Catalog;
use mq_common::{DataType, EngineConfig, Field, MqError, Result, Row, Schema, SimClock, Value};
use mq_expr::{cmp, col, eq, lit, CmpOp};
use mq_plan::{AggExpr, AggFunc, CollectorSpec, NodeId, PhysOp, PhysPlan, ScanSpec};
use mq_storage::Storage;

use crate::collector::ObservedStats;
use crate::context::{ExecContext, ExecMonitor};
use crate::{run_to_vec, sink};

struct Fixture {
    catalog: Catalog,
    storage: Storage,
    clock: SimClock,
    cfg: EngineConfig,
}

impl Fixture {
    fn new() -> Fixture {
        Self::with_cfg(EngineConfig::default())
    }

    fn with_cfg(cfg: EngineConfig) -> Fixture {
        let clock = SimClock::new();
        let storage = Storage::new(&cfg, clock.clone());
        Fixture {
            catalog: Catalog::new(),
            storage,
            clock,
            cfg,
        }
    }

    fn ctx(&self) -> ExecContext {
        ExecContext::new(self.storage.clone(), self.clock.clone(), self.cfg.clone())
    }

    /// Table r(k INT, v INT, s VARCHAR) with n rows: k = i, v = i % m.
    fn load_r(&self, name: &str, n: i64, m: i64) {
        self.catalog
            .create_table(
                &self.storage,
                name,
                vec![
                    ("k", DataType::Int),
                    ("v", DataType::Int),
                    ("s", DataType::Str),
                ],
            )
            .unwrap();
        for i in 0..n {
            self.catalog
                .insert_row(
                    &self.storage,
                    name,
                    Row::new(vec![
                        Value::Int(i),
                        Value::Int(i % m),
                        Value::str(format!("row-{i}")),
                    ]),
                )
                .unwrap();
        }
    }

    fn scan_plan(&self, table: &str, filter: Option<mq_expr::Expr>) -> PhysPlan {
        let entry = self.catalog.table(table).unwrap();
        let bound = filter.map(|f| f.bind(&entry.schema).unwrap());
        let mut p = PhysPlan::new(
            PhysOp::SeqScan {
                spec: ScanSpec {
                    table: table.into(),
                    file: entry.file,
                    pages: self.storage.file_pages(entry.file).unwrap() as u64,
                    rows: self.storage.file_rows(entry.file).unwrap(),
                },
                filter: bound,
            },
            vec![],
            entry.schema,
        );
        p.annot.est_rows = self.storage.file_rows(entry.file).unwrap() as f64;
        p.annot.est_row_bytes = 30.0;
        p
    }
}

fn hash_join_plan(build: PhysPlan, probe: PhysPlan, bk: &str, pk: &str, grant: usize) -> PhysPlan {
    let build_keys = vec![build.schema.index_of(bk).unwrap()];
    let probe_keys = vec![probe.schema.index_of(pk).unwrap()];
    let schema = build.schema.join(&probe.schema);
    let mut p = PhysPlan::new(
        PhysOp::HashJoin {
            build_keys,
            probe_keys,
        },
        vec![build, probe],
        schema,
    );
    p.annot.mem_grant_bytes = grant;
    p
}

#[test]
fn seq_scan_with_filter() {
    let fx = Fixture::new();
    fx.load_r("r", 100, 10);
    let plan = {
        let mut p = fx.scan_plan("r", Some(eq(col("r.v"), lit(3i64))));
        p.assign_ids();
        p
    };
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows.len(), 10);
    assert!(rows.iter().all(|r| r.get(1) == &Value::Int(3)));
}

#[test]
fn hash_join_in_memory_matches_oracle() {
    let fx = Fixture::new();
    fx.load_r("a", 50, 5);
    fx.load_r("b", 200, 5);
    let mut plan = hash_join_plan(
        fx.scan_plan("a", None),
        fx.scan_plan("b", None),
        "a.v",
        "b.v",
        1 << 20,
    );
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    // Each a-row (v = i%5) matches 40 b-rows with the same v.
    assert_eq!(rows.len(), 50 * 40);
    // Output schema: a columns then b columns.
    assert_eq!(rows[0].len(), 6);
    for r in rows.iter().take(20) {
        assert_eq!(r.get(1), r.get(4), "join keys must match");
    }
}

#[test]
fn hash_join_spilled_same_result_more_io() {
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        ..EngineConfig::default()
    };
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("a", 2000, 50);
    fx.load_r("b", 2000, 50);

    // Oracle: generous grant.
    let mut big = hash_join_plan(
        fx.scan_plan("a", None),
        fx.scan_plan("b", None),
        "a.v",
        "b.v",
        8 << 20,
    );
    big.assign_ids();
    let ctx = fx.ctx();
    let before = fx.clock.snapshot();
    let mut expect = run_to_vec(&big, &ctx).unwrap();
    let io_big = fx.clock.snapshot().since(&before).io_total();

    // Tiny grant: must spill, same multiset of rows.
    let mut small = hash_join_plan(
        fx.scan_plan("a", None),
        fx.scan_plan("b", None),
        "a.v",
        "b.v",
        8 * cfg.page_size,
    );
    small.assign_ids();
    let ctx2 = fx.ctx();
    let before = fx.clock.snapshot();
    let mut got = run_to_vec(&small, &ctx2).unwrap();
    let io_small = fx.clock.snapshot().since(&before).io_total();

    assert_eq!(expect.len(), 2000 * 40);
    let keyfn = |r: &Row| format!("{r}");
    expect.sort_by_key(keyfn);
    got.sort_by_key(keyfn);
    assert_eq!(expect, got, "spilled join must produce identical rows");
    assert!(
        io_small > io_big + 50,
        "spill must cost extra I/O: {io_small} vs {io_big}"
    );
}

#[test]
fn hash_join_null_keys_never_match() {
    let fx = Fixture::new();
    fx.catalog
        .create_table(&fx.storage, "n", vec![("k", DataType::Int)])
        .unwrap();
    for v in [Value::Null, Value::Int(1), Value::Null, Value::Int(2)] {
        fx.catalog
            .insert_row(&fx.storage, "n", Row::new(vec![v]))
            .unwrap();
    }
    let mut plan = hash_join_plan(fx.scan_plan_n(), fx.scan_plan_n(), "n.k", "n.k", 1 << 20);
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows.len(), 2, "only non-null keys join");
}

impl Fixture {
    fn scan_plan_n(&self) -> PhysPlan {
        self.scan_plan("n", None)
    }
}

#[test]
fn sort_orders_and_spills() {
    // Small pool so spilled runs actually reach the simulated disk.
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        ..EngineConfig::default()
    };
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("r", 3000, 17);
    let input = fx.scan_plan("r", None);
    let schema = input.schema.clone();
    // Sort by v desc, k asc with a grant forcing external runs.
    let mut plan = PhysPlan::new(
        PhysOp::Sort {
            keys: vec![(1, false), (0, true)],
        },
        vec![input],
        schema,
    );
    plan.annot.mem_grant_bytes = 8 * cfg.page_size;
    plan.assign_ids();
    let before = fx.clock.snapshot();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    let io = fx.clock.snapshot().since(&before).io_total();
    assert_eq!(rows.len(), 3000);
    for w in rows.windows(2) {
        let (v0, v1) = (w[0].get(1), w[1].get(1));
        assert!(v0 >= v1, "v must be descending");
        if v0 == v1 {
            assert!(w[0].get(0) <= w[1].get(0), "k ties ascending");
        }
    }
    assert!(io > 0, "external sort must do I/O");
}

#[test]
fn sort_in_memory_when_fits() {
    let fx = Fixture::new();
    fx.load_r("r", 100, 7);
    let input = fx.scan_plan("r", None);
    let schema = input.schema.clone();
    let mut plan = PhysPlan::new(
        PhysOp::Sort {
            keys: vec![(0, true)],
        },
        vec![input],
        schema,
    );
    plan.annot.mem_grant_bytes = 1 << 20;
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows.len(), 100);
    assert_eq!(rows[0].get(0), &Value::Int(0));
    assert_eq!(rows[99].get(0), &Value::Int(99));
}

#[test]
fn aggregate_grouped_matches_oracle() {
    let fx = Fixture::new();
    fx.load_r("r", 1000, 10);
    let input = fx.scan_plan("r", None);
    let schema_in = input.schema.clone();
    let out_schema = Schema::new(vec![
        Field::qualified("r", "v", DataType::Int),
        Field::new("cnt", DataType::Int),
        Field::new("avg_k", DataType::Float),
        Field::new("max_k", DataType::Int),
    ])
    .unwrap();
    let mut plan = PhysPlan::new(
        PhysOp::HashAggregate {
            group: vec![1],
            aggs: vec![
                AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    name: "cnt".into(),
                },
                AggExpr {
                    func: AggFunc::Avg,
                    arg: Some(col("r.k").bind(&schema_in).unwrap()),
                    name: "avg_k".into(),
                },
                AggExpr {
                    func: AggFunc::Max,
                    arg: Some(col("r.k").bind(&schema_in).unwrap()),
                    name: "max_k".into(),
                },
            ],
        },
        vec![input],
        out_schema,
    );
    plan.annot.mem_grant_bytes = 1 << 20;
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows.len(), 10);
    // Group v=3: rows 3, 13, ..., 993 → count 100, max 993.
    let g3 = rows
        .iter()
        .find(|r| r.get(0) == &Value::Int(3))
        .expect("group 3");
    assert_eq!(g3.get(1), &Value::Int(100));
    assert_eq!(g3.get(3), &Value::Int(993));
    let avg = match g3.get(2) {
        Value::Float(f) => *f,
        other => panic!("avg type {other:?}"),
    };
    assert!((avg - 498.0).abs() < 1e-9, "avg {avg}");
}

#[test]
fn aggregate_scalar_on_empty_input() {
    let fx = Fixture::new();
    fx.load_r("r", 10, 2);
    let input = fx.scan_plan("r", Some(eq(col("r.k"), lit(10_000i64))));
    let out_schema = Schema::new(vec![Field::new("cnt", DataType::Int)]).unwrap();
    let mut plan = PhysPlan::new(
        PhysOp::HashAggregate {
            group: vec![],
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                name: "cnt".into(),
            }],
        },
        vec![input],
        out_schema,
    );
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(0), &Value::Int(0));
}

#[test]
fn aggregate_spills_with_many_groups() {
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        ..EngineConfig::default()
    };
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("r", 5000, 5000); // all distinct groups
    let input = fx.scan_plan("r", None);
    let out_schema = Schema::new(vec![
        Field::qualified("r", "v", DataType::Int),
        Field::new("cnt", DataType::Int),
    ])
    .unwrap();
    let mut plan = PhysPlan::new(
        PhysOp::HashAggregate {
            group: vec![1],
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                name: "cnt".into(),
            }],
        },
        vec![input],
        out_schema,
    );
    plan.annot.mem_grant_bytes = 8 * cfg.page_size;
    plan.assign_ids();
    let before = fx.clock.snapshot();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    let delta = fx.clock.snapshot().since(&before);
    assert_eq!(rows.len(), 5000);
    assert!(rows.iter().all(|r| r.get(1) == &Value::Int(1)));
    assert!(delta.pages_written > 0, "should have spilled");
}

#[test]
fn index_nl_join_matches_hash_join() {
    let fx = Fixture::new();
    fx.load_r("a", 200, 20);
    fx.load_r("b", 500, 20);
    fx.catalog.create_index(&fx.storage, "b", "v").unwrap();
    let entry_b = fx.catalog.table("b").unwrap();

    let outer = fx.scan_plan("a", None);
    let schema = outer.schema.join(&entry_b.schema);
    let mut inl = PhysPlan::new(
        PhysOp::IndexNLJoin {
            outer_key: 1,
            inner: ScanSpec {
                table: "b".into(),
                file: entry_b.file,
                pages: fx.storage.file_pages(entry_b.file).unwrap() as u64,
                rows: 500,
            },
            index: entry_b.indexes["v"],
            inner_column: "v".into(),
            index_height: fx.storage.index_height(entry_b.indexes["v"]).unwrap(),
            clustering: 0.0,
            residual: None,
        },
        vec![outer],
        schema,
    );
    inl.assign_ids();
    let mut got = run_to_vec(&inl, &fx.ctx()).unwrap();

    let mut hj = hash_join_plan(
        fx.scan_plan("b", None),
        fx.scan_plan("a", None),
        "b.v",
        "a.v",
        1 << 20,
    );
    hj.assign_ids();
    let expect = run_to_vec(&hj, &fx.ctx()).unwrap();
    assert_eq!(got.len(), expect.len());
    // Sanity: INL output has matching keys.
    got.truncate(50);
    for r in &got {
        assert_eq!(r.get(1), r.get(4));
    }
}

#[test]
fn limit_stops_early() {
    let fx = Fixture::new();
    fx.load_r("r", 1000, 10);
    let input = fx.scan_plan("r", None);
    let schema = input.schema.clone();
    let mut plan = PhysPlan::new(PhysOp::Limit { n: 7 }, vec![input], schema);
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows.len(), 7);
}

#[test]
fn project_computes_expressions() {
    let fx = Fixture::new();
    fx.load_r("r", 10, 10);
    let input = fx.scan_plan("r", None);
    let in_schema = input.schema.clone();
    let out_schema = Schema::new(vec![
        Field::new("double_k", DataType::Int),
        Field::new("is_small", DataType::Bool),
    ])
    .unwrap();
    let exprs = vec![
        (
            mq_expr::Expr::Arith {
                op: mq_expr::ArithOp::Mul,
                left: Box::new(col("r.k")),
                right: Box::new(lit(2i64)),
            }
            .bind(&in_schema)
            .unwrap(),
            "double_k".to_string(),
        ),
        (
            cmp(CmpOp::Lt, col("r.k"), lit(5i64))
                .bind(&in_schema)
                .unwrap(),
            "is_small".to_string(),
        ),
    ];
    let mut plan = PhysPlan::new(PhysOp::Project { exprs }, vec![input], out_schema);
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows[3].get(0), &Value::Int(6));
    assert_eq!(rows[3].get(1), &Value::Bool(true));
    assert_eq!(rows[7].get(1), &Value::Bool(false));
}

/// Monitor that records events.
#[derive(Default)]
struct Recorder {
    collected: RefCell<Vec<ObservedStats>>,
    phases: RefCell<Vec<NodeId>>,
    switch_at: RefCell<Option<NodeId>>,
}

impl ExecMonitor for Recorder {
    fn on_collector(&self, stats: ObservedStats) -> Result<()> {
        self.collected.borrow_mut().push(stats);
        Ok(())
    }
    fn on_phase_complete(&self, node: NodeId) -> Result<()> {
        self.phases.borrow_mut().push(node);
        if *self.switch_at.borrow() == Some(node) {
            return Err(MqError::PlanSwitch(node.0));
        }
        Ok(())
    }
}

fn collector_over(input: PhysPlan, column: &str) -> PhysPlan {
    let schema = input.schema.clone();
    PhysPlan::new(
        PhysOp::StatsCollector {
            specs: vec![CollectorSpec {
                column: column.into(),
                histogram: true,
                distinct: true,
            }],
            site: "test".into(),
        },
        vec![input],
        schema,
    )
}

#[test]
fn collector_reports_exact_cardinality_and_histogram() {
    let fx = Fixture::new();
    fx.load_r("r", 400, 8);
    let scan = fx.scan_plan("r", Some(cmp(CmpOp::Lt, col("r.v"), lit(4i64))));
    let mut plan = collector_over(scan, "r.v");
    plan.assign_ids();

    let rec = Rc::new(Recorder::default());
    let ctx = fx.ctx().with_monitor(rec.clone());
    let rows = run_to_vec(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 200, "collector must pass rows through");

    let collected = rec.collected.borrow();
    assert_eq!(collected.len(), 1);
    let st = &collected[0];
    assert_eq!(st.rows, 200);
    assert!(st.avg_row_bytes > 10.0);
    let colstats = &st.columns["r.v"];
    assert!(
        (colstats.distinct - 4.0).abs() < 2.0,
        "distinct {}",
        colstats.distinct
    );
    let h = colstats.histogram.as_ref().unwrap();
    assert!(h.sel_eq(2.0) > 0.15, "v=2 is a quarter of rows");
}

#[test]
fn phase_hook_fires_on_build_completion_before_probe() {
    let fx = Fixture::new();
    fx.load_r("a", 50, 5);
    fx.load_r("b", 50, 5);
    let build = collector_over(fx.scan_plan("a", None), "a.v");
    let mut plan = hash_join_plan(build, fx.scan_plan("b", None), "a.v", "b.v", 1 << 20);
    plan.assign_ids();
    let join_id = plan.id;

    let rec = Rc::new(Recorder::default());
    let ctx = fx.ctx().with_monitor(rec.clone());
    let rows = run_to_vec(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 50 * 10);
    // Collector (inside the build) reported before the phase hook.
    assert_eq!(rec.collected.borrow().len(), 1);
    assert_eq!(rec.phases.borrow().as_slice(), &[join_id]);
}

#[test]
fn plan_switch_unwinds_and_artifact_survives() {
    let fx = Fixture::new();
    fx.load_r("a", 80, 4);
    fx.load_r("b", 80, 4);
    let build = collector_over(fx.scan_plan("a", None), "a.v");
    let mut plan = hash_join_plan(build, fx.scan_plan("b", None), "a.v", "b.v", 1 << 20);
    plan.assign_ids();
    let join_id = plan.id;

    let rec = Rc::new(Recorder::default());
    *rec.switch_at.borrow_mut() = Some(join_id);
    let ctx = fx.ctx().with_monitor(rec.clone());
    let err = run_to_vec(&plan, &ctx).unwrap_err();
    assert_eq!(err, MqError::PlanSwitch(join_id.0));
    // The build artifact survived the unwind.
    assert!(ctx.has_artifact(join_id));

    // Resume execution of the same plan WITHOUT the switch trigger: the
    // join must reuse the artifact and not re-run its build child (the
    // collector would have reported a second time otherwise).
    *rec.switch_at.borrow_mut() = None;
    let rows = run_to_vec(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 80 * 20);
    assert_eq!(
        rec.collected.borrow().len(),
        1,
        "build child must not re-run after resume"
    );
}

#[test]
fn materialize_writes_exact_stats() {
    let fx = Fixture::new();
    fx.load_r("r", 300, 6);
    let mut plan = fx.scan_plan("r", Some(cmp(CmpOp::Lt, col("r.v"), lit(3i64))));
    plan.assign_ids();
    let ctx = fx.ctx();
    let result = sink::materialize(&plan, &ctx).unwrap();
    assert_eq!(result.stats.rows, 150);
    assert!(result.stats.pages > 0);
    let vstats = &result.stats.columns["v"];
    assert_eq!(vstats.min, Some(Value::Int(0)));
    assert_eq!(vstats.max, Some(Value::Int(2)));
    // Reading the file back yields the same rows.
    let n = fx.storage.scan_file(result.file).unwrap().count();
    assert_eq!(n, 150);
}

#[test]
fn grant_update_takes_effect_for_unstarted_operator() {
    // Two-level plan: the upper join reads its grant at build start; a
    // grant update before open() must be honoured.
    let cfg = EngineConfig::default();
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("a", 1500, 30);
    fx.load_r("b", 1500, 30);
    let mut plan = hash_join_plan(
        fx.scan_plan("a", None),
        fx.scan_plan("b", None),
        "a.v",
        "b.v",
        2 * cfg.page_size, // would spill
    );
    plan.assign_ids();
    let ctx = fx.ctx();
    // Raise the grant before execution: no spill should occur.
    ctx.set_grant(plan.id, 4 << 20);
    let before = fx.clock.snapshot();
    let rows = run_to_vec(&plan, &ctx).unwrap();
    let delta = fx.clock.snapshot().since(&before);
    assert_eq!(rows.len(), 1500 * 50);
    assert_eq!(delta.pages_written, 0, "raised grant must avoid spilling");
}

/// §2.3 extension: a grant raised *during* a build (triggered by a
/// provisional collector-progress report) averts the spill when it
/// lands before the table overflows.
#[test]
fn mid_build_grant_raise_averts_spill() {
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        ..EngineConfig::default()
    };
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("big", 6000, 6000); // ~180 KB build side
    fx.load_r("probe", 100, 10);

    /// Raises the join's grant the moment the collector under its
    /// build reports progress — i.e. genuinely mid-build.
    struct ProgressRaiser {
        grants: std::sync::Arc<parking_lot::Mutex<std::collections::HashMap<NodeId, usize>>>,
        target: NodeId,
        fired: std::cell::Cell<u32>,
    }
    impl ExecMonitor for ProgressRaiser {
        fn on_collector(&self, _stats: ObservedStats) -> Result<()> {
            Ok(())
        }
        fn on_phase_complete(&self, _node: NodeId) -> Result<()> {
            Ok(())
        }
        fn on_collector_progress(&self, _node: NodeId, _rows: u64) -> Result<()> {
            self.fired.set(self.fired.get() + 1);
            self.grants.lock().insert(self.target, 8 << 20);
            Ok(())
        }
    }

    let build_scan = fx.scan_plan("big", None);
    let collected = collector_over(build_scan, "big.v");
    let mut plan = hash_join_plan(
        collected,
        fx.scan_plan("probe", None),
        "big.v",
        "probe.v",
        48 * cfg.page_size, // overflows around row ~3000 without the raise
    );
    plan.assign_ids();
    let join_id = plan.id;

    // Baseline: without the raise, the join must spill.
    {
        let ctx = fx.ctx();
        let before = fx.clock.snapshot();
        let rows = run_to_vec(&plan, &ctx).unwrap();
        let delta = fx.clock.snapshot().since(&before);
        assert!(!rows.is_empty());
        assert!(delta.pages_written > 0, "tiny grant must spill");
    }

    // With the progress-driven raise: no spill.
    let ctx = fx.ctx();
    let raiser = std::rc::Rc::new(ProgressRaiser {
        grants: std::sync::Arc::clone(&ctx.grants),
        target: join_id,
        fired: std::cell::Cell::new(0),
    });
    let ctx = ctx.with_monitor(raiser.clone());
    let before = fx.clock.snapshot();
    let rows = run_to_vec(&plan, &ctx).unwrap();
    let delta = fx.clock.snapshot().since(&before);
    assert!(!rows.is_empty());
    assert!(raiser.fired.get() >= 1, "progress hook must fire mid-build");
    assert_eq!(
        delta.pages_written, 0,
        "mid-build raise must avert the spill"
    );
}

/// A plan switch at a *sort* phase boundary: the sorted runs survive
/// the unwind and the resumed sort skips run generation entirely.
#[test]
fn sort_artifact_survives_plan_switch() {
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        ..EngineConfig::default()
    };
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("r", 2000, 13);

    let input = collector_over(fx.scan_plan("r", None), "r.v");
    let schema = input.schema.clone();
    let mut plan = PhysPlan::new(
        PhysOp::Sort {
            keys: vec![(0, true)],
        },
        vec![input],
        schema,
    );
    plan.annot.mem_grant_bytes = 4 * cfg.page_size; // external runs
    plan.assign_ids();
    let sort_id = plan.id;

    let rec = Rc::new(Recorder::default());
    *rec.switch_at.borrow_mut() = Some(sort_id);
    let ctx = fx.ctx().with_monitor(rec.clone());
    let err = run_to_vec(&plan, &ctx).unwrap_err();
    assert_eq!(err, MqError::PlanSwitch(sort_id.0));
    assert!(ctx.has_artifact(sort_id), "sorted runs must survive");

    // Resume: the collector under the sort must NOT re-run (its input
    // was already consumed into the runs).
    *rec.switch_at.borrow_mut() = None;
    let reports_before = rec.collected.borrow().len();
    let rows = run_to_vec(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 2000);
    assert_eq!(
        rec.collected.borrow().len(),
        reports_before,
        "run generation must not repeat"
    );
    // And the output is sorted.
    for w in rows.windows(2) {
        assert!(w[0].get(0) <= w[1].get(0));
    }
}

/// Aggregate output artifact survives a switch the same way.
#[test]
fn aggregate_artifact_survives_plan_switch() {
    let fx = Fixture::new();
    fx.load_r("r", 500, 7);
    let input = collector_over(fx.scan_plan("r", None), "r.v");
    let out_schema = Schema::new(vec![
        Field::qualified("r", "v", DataType::Int),
        Field::new("n", DataType::Int),
    ])
    .unwrap();
    let mut plan = PhysPlan::new(
        PhysOp::HashAggregate {
            group: vec![1],
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                name: "n".into(),
            }],
        },
        vec![input],
        out_schema,
    );
    plan.assign_ids();
    let agg_id = plan.id;

    let rec = Rc::new(Recorder::default());
    *rec.switch_at.borrow_mut() = Some(agg_id);
    let ctx = fx.ctx().with_monitor(rec.clone());
    assert_eq!(
        run_to_vec(&plan, &ctx).unwrap_err(),
        MqError::PlanSwitch(agg_id.0)
    );
    assert!(ctx.has_artifact(agg_id));

    *rec.switch_at.borrow_mut() = None;
    let rows = run_to_vec(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 7);
    assert_eq!(rec.collected.borrow().len(), 1, "input must not re-run");
}

/// A collector whose consumer stops early (LIMIT) still reports its
/// partial observations at close.
#[test]
fn collector_reports_partial_stats_on_early_stop() {
    let fx = Fixture::new();
    fx.load_r("r", 500, 5);
    let collected = collector_over(fx.scan_plan("r", None), "r.v");
    let schema = collected.schema.clone();
    let mut plan = PhysPlan::new(PhysOp::Limit { n: 10 }, vec![collected], schema);
    plan.assign_ids();

    let rec = Rc::new(Recorder::default());
    let ctx = fx.ctx().with_monitor(rec.clone());
    let rows = run_to_vec(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 10);
    let collected = rec.collected.borrow();
    assert_eq!(collected.len(), 1, "close must finalize");
    // Partial: at least the 10 limited rows were seen (the scan may
    // have been pulled slightly ahead).
    assert!(collected[0].rows >= 10);
    assert!(collected[0].rows < 500);
}

/// A scan filter evaluated inside `SeqScan` and the same predicate as
/// a separate `Filter` over an unfiltered scan return the same rows at
/// the same simulated cost: the scan charges `1 + filter_ops` per
/// record, the split plan `1` in the scan plus `filter_ops` in the
/// filter.
#[test]
fn filtered_scan_matches_scan_then_filter() {
    let fx = Fixture::new();
    fx.load_r("r", 3000, 50);
    let pred = mq_expr::and(vec![
        cmp(CmpOp::Lt, col("r.v"), lit(3i64)),
        cmp(CmpOp::Ge, col("r.k"), lit(100i64)),
    ]);

    let mut fused = fx.scan_plan("r", Some(pred.clone()));
    fused.assign_ids();
    let before = fx.clock.snapshot();
    let fused_rows = run_to_vec(&fused, &fx.ctx()).unwrap();
    let fused_cost = fx.clock.snapshot().since(&before);

    let scan = fx.scan_plan("r", None);
    let schema = scan.schema.clone();
    let predicate = pred.bind(&schema).unwrap();
    let mut split = PhysPlan::new(PhysOp::Filter { predicate }, vec![scan], schema);
    split.assign_ids();
    let before = fx.clock.snapshot();
    let split_rows = run_to_vec(&split, &fx.ctx()).unwrap();
    let split_cost = fx.clock.snapshot().since(&before);

    // v < 3 keeps 3 of every 50 keys (180 rows); k >= 100 drops 6.
    assert_eq!(fused_rows.len(), 174);
    assert_eq!(fused_rows, split_rows);
    assert_eq!(fused_cost, split_cost);
}

/// A filtered scan still validates every column of every record it
/// steps over: invalid UTF-8 in a column the filter never reads, in a
/// row the filter rejects, fails the scan with a storage error.
#[test]
fn filtered_scan_rejects_corrupt_unreferenced_column() {
    let fx = Fixture::new();
    fx.load_r("r", 200, 10);
    let entry = fx.catalog.table("r").unwrap();
    // Row 117 carries "row-117"; turn its '7' into a byte that can
    // never appear in UTF-8.
    let pages = fx.storage.file_page_list(entry.file).unwrap();
    let mut corrupted = 0;
    for pid in pages {
        fx.storage
            .pool()
            .with_page_mut(pid, |data| {
                if let Some(at) = data.windows(7).position(|w| w == b"row-117") {
                    data[at + 6] = 0xFF;
                    corrupted += 1;
                }
            })
            .unwrap();
    }
    assert_eq!(corrupted, 1);

    // v is never negative, so the filter rejects every row.
    let mut plan = fx.scan_plan("r", Some(cmp(CmpOp::Lt, col("r.v"), lit(0i64))));
    plan.assign_ids();
    let err = run_to_vec(&plan, &fx.ctx()).unwrap_err();
    assert_eq!(err.kind(), "storage", "{err}");
}

/// A spilled hash join whose build partitions each exceed the grant
/// runs several build chunks per partition, re-scanning the probe
/// partition per chunk. Rows match the in-memory oracle, and the
/// simulated cost is pinned exactly.
#[test]
fn chunked_spill_hash_join_matches_oracle_at_pinned_cost() {
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        ..EngineConfig::default()
    };
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("a", 2000, 50);
    fx.load_r("b", 1500, 50);

    let mut oracle = hash_join_plan(
        fx.scan_plan("a", None),
        fx.scan_plan("b", None),
        "a.v",
        "b.v",
        8 << 20,
    );
    oracle.assign_ids();
    let mut expect = run_to_vec(&oracle, &fx.ctx()).unwrap();

    // A two-page grant spills into two partitions (the fan-out floor).
    let grant = 2 * cfg.page_size;
    let usable = (grant as f64 / mq_memory::HASH_OVERHEAD) as usize;
    let mut part_bytes = [0usize; 2];
    for i in 0..2000i64 {
        let row = Row::new(vec![
            Value::Int(i),
            Value::Int(i % 50),
            Value::str(format!("row-{i}")),
        ]);
        let p = (crate::context::hash_key(&[Value::Int(i % 50)], 1) % 2) as usize;
        part_bytes[p] += row.encoded_len() + 16;
    }
    assert!(
        part_bytes.iter().all(|&b| b > 2 * usable),
        "every build partition must need several chunks: {part_bytes:?} vs {usable}"
    );

    let mut spilled = hash_join_plan(
        fx.scan_plan("a", None),
        fx.scan_plan("b", None),
        "a.v",
        "b.v",
        grant,
    );
    spilled.assign_ids();
    let before = fx.clock.snapshot();
    let mut got = run_to_vec(&spilled, &fx.ctx()).unwrap();
    let cost = fx.clock.snapshot().since(&before);

    assert_eq!(expect.len(), 2000 * 30);
    let keyfn = |r: &Row| format!("{r}");
    expect.sort_by_key(keyfn);
    got.sort_by_key(keyfn);
    assert_eq!(expect, got, "chunked spill must produce the oracle's rows");
    assert_eq!(
        (cost.cpu_ops, cost.pages_read, cost.pages_written),
        (103_995, 88, 34),
        "simulated cost of the chunked spill join"
    );
}

/// Table p(id INT, n INT, z INT, s VARCHAR) with 3000 rows: `id` is
/// laid down in order (clustered), `n` is NULL on every 7th row and
/// `z` is skewed (half the rows are 0, a sixth are 1).
fn load_pinned_table(fx: &Fixture) {
    fx.catalog
        .create_table(
            &fx.storage,
            "p",
            vec![
                ("id", DataType::Int),
                ("n", DataType::Int),
                ("z", DataType::Int),
                ("s", DataType::Str),
            ],
        )
        .unwrap();
    for i in 0..3000i64 {
        let n = if i % 7 == 0 {
            Value::Null
        } else {
            Value::Int((i * 37) % 101)
        };
        let z = if i % 2 == 0 {
            0
        } else if i % 3 == 0 {
            1
        } else {
            (i * 13) % 200
        };
        let row = Row::new(vec![
            Value::Int(i),
            n,
            Value::Int(z),
            Value::str(format!("s{}", i % 50)),
        ]);
        fx.catalog.insert_row(&fx.storage, "p", row).unwrap();
    }
}

/// One line per column statistic, with every float in its exact
/// (round-trip) form.
fn column_line(
    name: &str,
    distinct: f64,
    null_frac: f64,
    clustering: f64,
    h: Option<&mq_stats::Histogram>,
) -> String {
    let (buckets, first) = match h {
        Some(h) => (h.buckets().len(), format!("{:?}", h.buckets().first())),
        None => (0, "-".to_string()),
    };
    format!(
        "{name}: distinct={distinct:?} null_frac={null_frac:?} \
         clustering={clustering:?} buckets={buckets} first={first}"
    )
}

fn table_lines(stats: &mq_catalog::TableStats) -> Vec<String> {
    let mut lines: Vec<String> = stats
        .columns
        .iter()
        .map(|(name, c)| {
            column_line(
                name,
                c.distinct,
                c.null_frac,
                c.clustering,
                c.histogram.as_ref(),
            )
        })
        .collect();
    lines.sort();
    lines.insert(
        0,
        format!(
            "rows={} avg_row_bytes={:?}",
            stats.rows, stats.avg_row_bytes
        ),
    );
    lines
}

/// The one-pass statistics of ANALYZE, single-column ANALYZE,
/// materialization and a collector, pinned to exact values (seeds,
/// CPU charges and histograms included), so a refactor of the shared
/// recipe cannot drift any of them.
#[test]
fn statistics_passes_are_pinned() {
    use mq_stats::{HistogramKind, HISTOGRAM_BUCKETS, RESERVOIR_SIZE};

    let fx = Fixture::new();
    load_pinned_table(&fx);
    let stats_of = |fx: &Fixture| fx.catalog.table("p").unwrap().stats.unwrap();

    fx.catalog
        .analyze(
            &fx.storage,
            "p",
            HistogramKind::MaxDiff,
            HISTOGRAM_BUCKETS,
            RESERVOIR_SIZE,
            7,
        )
        .unwrap();
    assert_eq!(table_lines(&stats_of(&fx)), ANALYZE_PIN);

    fx.catalog
        .analyze_column(
            &fx.storage,
            "p",
            "z",
            HistogramKind::EquiDepth,
            16,
            256,
            0xA11A,
        )
        .unwrap();
    let z = &stats_of(&fx).columns["z"];
    let line = column_line(
        "z",
        z.distinct,
        z.null_frac,
        z.clustering,
        z.histogram.as_ref(),
    );
    assert_eq!(line, ANALYZE_COLUMN_PIN);

    let mut plan = fx.scan_plan("p", None);
    plan.assign_ids();
    let before = fx.clock.snapshot();
    let result = sink::materialize(&plan, &fx.ctx()).unwrap();
    let ops = fx.clock.snapshot().since(&before).cpu_ops;
    assert_eq!(table_lines(&result.stats), MATERIALIZE_PIN);
    assert_eq!(ops, 38142, "materialize CPU ops");

    let schema = plan.schema.clone();
    let spec = |column: &str, histogram: bool| CollectorSpec {
        column: column.into(),
        histogram,
        distinct: true,
    };
    let mut plan = PhysPlan::new(
        PhysOp::StatsCollector {
            specs: vec![spec("p.n", true), spec("p.z", true), spec("p.id", false)],
            site: "test".into(),
        },
        vec![fx.scan_plan("p", None)],
        schema,
    );
    plan.assign_ids();
    let rec = Rc::new(Recorder::default());
    let before = fx.clock.snapshot();
    run_to_vec(&plan, &fx.ctx().with_monitor(rec.clone())).unwrap();
    let ops = fx.clock.snapshot().since(&before).cpu_ops;
    let collected = rec.collected.borrow();
    let st = &collected[0];
    let mut lines: Vec<String> = st
        .columns
        .iter()
        .map(|(name, c)| {
            column_line(
                name,
                c.distinct,
                c.null_frac,
                c.clustering,
                c.histogram.as_ref(),
            )
        })
        .collect();
    lines.sort();
    lines.insert(
        0,
        format!(
            "rows={} avg_row_bytes={:?} complete={}",
            st.rows, st.avg_row_bytes, st.complete
        ),
    );
    assert_eq!(lines, COLLECTOR_PIN);
    assert_eq!(ops, 32142, "collector CPU ops");
}

const ANALYZE_PIN: &[&str] = &[
    "rows=3000 avg_row_bytes=35.656",
    "id: distinct=3000.0 null_frac=0.0 clustering=1.0 buckets=32 first=Some(Bucket { lo: 0.0, hi: 5.0, frac: 0.0029296875, distinct: 8.7890625 })",
    "n: distinct=112.70321987592328 null_frac=0.143 clustering=0.1455252918287937 buckets=32 first=Some(Bucket { lo: 0.0, hi: 7.0, frac: 0.068626953125, distinct: 8.926987712944419 })",
    "s: distinct=62.773072192750476 null_frac=0.0 clustering=0.9206402134044682 buckets=32 first=Some(Bucket { lo: 8.300134113243824e18, hi: 8.300134113243824e18, frac: 0.017578125, distinct: 1.0 })",
    "z: distinct=102.01175845748065 null_frac=0.0 clustering=0.00033344448149374983 buckets=32 first=Some(Bucket { lo: 0.0, hi: 0.0, frac: 0.5185546875, distinct: 1.0 })",
];
const ANALYZE_COLUMN_PIN: &str = "z: distinct=102.01175845748065 null_frac=0.0 clustering=0.00033344448149374983 buckets=7 first=Some(Bucket { lo: 0.0, hi: 0.0, frac: 0.53515625, distinct: 1.0 })";
const MATERIALIZE_PIN: &[&str] = &[
    "rows=3000 avg_row_bytes=35.656",
    "id: distinct=3000.0 null_frac=0.0 clustering=1.0 buckets=32 first=Some(Bucket { lo: 4.0, hi: 271.0, frac: 0.0927734375, distinct: 278.3203125 })",
    "n: distinct=112.70321987592328 null_frac=0.143 clustering=0.1455252918287937 buckets=32 first=Some(Bucket { lo: 0.0, hi: 3.0, frac: 0.028455078124999998, distinct: 4.463493856472209 })",
    "s: distinct=62.773072192750476 null_frac=0.0 clustering=0.9206402134044682 buckets=32 first=Some(Bucket { lo: 8.300134113243824e18, hi: 8.300134113243824e18, frac: 0.021484375, distinct: 1.0 })",
    "z: distinct=102.01175845748065 null_frac=0.0 clustering=0.00033344448149374983 buckets=32 first=Some(Bucket { lo: 0.0, hi: 0.0, frac: 0.5166015625, distinct: 1.0 })",
];
const COLLECTOR_PIN: &[&str] = &[
    "rows=3000 avg_row_bytes=35.656 complete=true",
    "p.id: distinct=3000.0 null_frac=0.0 clustering=1.0 buckets=0 first=-",
    "p.n: distinct=112.70321987592328 null_frac=0.143 clustering=0.1455252918287937 buckets=32 first=Some(Bucket { lo: 0.0, hi: 1.0, frac: 0.015064453125, distinct: 2.2317469282361047 })",
    "p.z: distinct=102.01175845748065 null_frac=0.0 clustering=0.00033344448149374983 buckets=32 first=Some(Bucket { lo: 0.0, hi: 0.0, frac: 0.4833984375, distinct: 1.0 })",
];
