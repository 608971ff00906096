//! The traced run: per-layer metrics.
//!
//! Batches of the workload alternate untraced and traced (an `mq_obs`
//! sink attached). The traced outcomes give per-operator rows, cpu and
//! io; the pair gives the tracing overhead. Then each layer's public
//! entry point is timed from here, on the workload's own statements
//! where it has them and on a fixed probe where it does not: the
//! TPC-D workloads parse the TPC-D SQL texts, and every workload
//! probes the orders key index and a lineitem scan.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use midq::common::{DetRng, Value};
use midq::exec::{run_to_vec, ExecContext};
use midq::memory::{MemoryBroker, MemoryManager};
use midq::obs::{Obs, ObsEvent, ObsSink, SpanInfo};
use midq::optimizer::{recost, Optimizer};
use midq::plan::PhysOp;
use midq::reopt::insert_collectors;
use midq::tpcd::queries;
use midq::{Database, LogicalPlan, QueryOutcome, ReoptMode, Session};

use crate::workload::{family_sql, Batch, Bench, Kind, SetupTimes, FAMILIES};
use crate::{median, Metrics, Report, Res};

/// Operator kinds with per-kind counters, and their metric names.
const OP_KINDS: [(&str, &str); 10] = [
    ("SeqScan", "seq_scan"),
    ("IndexScan", "index_scan"),
    ("Filter", "filter"),
    ("Project", "project"),
    ("HashJoin", "hash_join"),
    ("IndexNLJoin", "index_nl_join"),
    ("Sort", "sort"),
    ("HashAggregate", "hash_aggregate"),
    ("Limit", "limit"),
    ("StatsCollector", "stats_collector"),
];

/// Sessions' shared memory budget in full per-query grants, as
/// `Database::session` sizes its broker.
const SESSION_CONCURRENCY: usize = 4;

/// Counts the spill events of traced statements.
#[derive(Default)]
struct SpillSink {
    spills: AtomicU64,
}

impl ObsSink for SpillSink {
    fn emit(&self, _span: &SpanInfo, event: &ObsEvent) {
        if matches!(event, ObsEvent::Spill { .. }) {
            self.spills.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Statements the layer probes run.
struct Probe {
    /// SQL texts for the parser and the normalizer.
    sql: Vec<String>,
    /// Plans for optimizer, SCIA, memory and executor, with their SQL
    /// text when the workload sends SQL.
    plans: Vec<(Option<String>, LogicalPlan)>,
    /// Repetitions of each plan-level probe.
    reps: usize,
}

impl Probe {
    fn new(bench: &Bench) -> Res<Probe> {
        if bench.kind == Kind::SqlPointWrite {
            let sql: Vec<String> = (0..FAMILIES).map(|f| family_sql(f, 1 + f as i64)).collect();
            let plans = sql
                .iter()
                .map(|t| Ok((Some(t.clone()), bench.db.plan_sql(t)?)))
                .collect::<Res<_>>()?;
            return Ok(Probe {
                sql,
                plans,
                reps: 200,
            });
        }
        Ok(Probe {
            sql: [
                queries::q1_sql(),
                queries::q3_sql(),
                queries::q5_sql(),
                queries::q6_sql(),
                queries::q10_sql(),
            ]
            .map(str::to_string)
            .to_vec(),
            plans: bench.plans.iter().map(|(_, p)| (None, p.clone())).collect(),
            reps: 1,
        })
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Mean of a stream of samples.
#[derive(Default)]
struct Mean(f64, u64);

impl Mean {
    fn add(&mut self, x: f64) {
        self.0 += x;
        self.1 += 1;
    }

    fn get(&self) -> f64 {
        self.0 / self.1.max(1) as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

pub fn traced(bench: &mut Bench, setups: &[SetupTimes], seconds: f64, dir: &Path) -> Res<Report> {
    bench.warm_up();
    let sink = Arc::new(SpillSink::default());
    let obs = Obs::none().with_sink(sink.clone());
    let pool = Arc::clone(bench.db.engine().storage().pool());
    let (hits0, misses0) = pool.hit_stats();
    let pc0 = bench.db.plan_cache_stats();
    let attempted0 = bench.tally.attempted;
    let (mut plain, mut traced) = (Batch::default(), Batch::default());
    let mut first = None;
    let t0 = Instant::now();
    while first.is_none() || t0.elapsed().as_secs_f64() < seconds {
        let b = bench.batch(false, None);
        first.get_or_insert(b.sim);
        plain.absorb(b);
        traced.absorb(bench.batch(true, Some(&obs)));
    }
    let exact = first.expect("one batch ran");
    let (hits1, misses1) = pool.hit_stats();
    let pc1 = bench.db.plan_cache_stats();
    let stmts = bench.tally.attempted - attempted0;
    bench.check()?;

    let db = &bench.db;
    let probe = Probe::new(bench)?;
    let mut m = Metrics::default();
    let mut notes = vec![format!(
        "traced run: {} statements untraced, {} traced; exact counts over the first untraced batch ({} statements)",
        plain.lat_ms.len(),
        traced.lat_ms.len(),
        exact.stmts
    )];

    // sql, plancache
    let (mut parse, mut norm) = (Mean::default(), Mean::default());
    for _ in 0..200 {
        for text in &probe.sql {
            let (plan, s) = time(|| midq::sql::plan_sql(text, db.engine().catalog()));
            plan?;
            parse.add(s * 1e6);
            let (n, s) = time(|| midq::normalize(text));
            std::hint::black_box(n);
            norm.add(s * 1e6);
        }
    }
    m.push("sql.parse_bind_us", parse.get(), "us");
    m.push("plancache.normalize_us", norm.get(), "us");
    // A stale probe drops the entry and re-enumerates: not a hit.
    let (hits, misses, stale) = (
        pc1.hits - pc0.hits,
        pc1.misses - pc0.misses,
        pc1.stale_reopts - pc0.stale_reopts,
    );
    m.push(
        "plancache.hit_rate",
        ratio(hits, hits + misses + stale),
        "ratio",
    );
    m.push("plancache.stale_reenum", ratio(stale, stmts), "1/stmt");

    // optimizer, reopt (SCIA), memory, exec: the pipeline the engine
    // runs per query, called stage by stage.
    let engine = db.engine();
    let (catalog, storage) = (engine.catalog(), engine.storage());
    let cfg = engine.config().clone();
    let optimizer = Optimizer::new(cfg.clone());
    let mm = MemoryManager::new(&cfg);
    let (mut opt_us, mut scia_us, mut alloc_us, mut run_ms) = (
        Mean::default(),
        Mean::default(),
        Mean::default(),
        Mean::default(),
    );
    let mut collectors = Mean::default();
    for (_, plan) in &probe.plans {
        for _ in 0..probe.reps {
            let (opt, s) = time(|| optimizer.optimize(plan, catalog, storage));
            let opt = opt?;
            opt_us.add(s * 1e6);
            let mut with = opt.plan.clone();
            let (r, s) = time(|| insert_collectors(&mut with, catalog, &cfg));
            r?;
            scia_us.add(s * 1e6);
            let mut n = 0u32;
            with.walk(&mut |node| n += matches!(node.op, PhysOp::StatsCollector { .. }) as u32);
            collectors.add(n as f64);
            let (r, s) = time(|| mm.allocate(&mut with, &cfg));
            r?;
            alloc_us.add(s * 1e6);

            // The Off plan, executed directly.
            let mut off = opt.plan;
            mm.allocate(&mut off, &cfg)?;
            recost(&mut off, &cfg);
            let ctx = ExecContext::new(storage.clone(), engine.clock().clone(), cfg.clone());
            let (rows, s) = time(|| run_to_vec(&off, &ctx));
            ctx.clear_artifacts();
            ctx.release_temp_files();
            rows?;
            run_ms.add(s * 1e3);
        }
    }
    m.push("optimizer.optimize_us", opt_us.get(), "us");
    m.push(
        "optimizer.opt_work",
        exact.per_stmt(exact.opt_work),
        "work/stmt",
    );

    let outcomes = &traced.outcomes;
    let per_outcome = |f: fn(&QueryOutcome) -> u32| {
        ratio(
            outcomes.iter().map(|o| f(o) as u64).sum(),
            outcomes.len() as u64,
        )
    };
    m.push("reopt.scia_us", scia_us.get(), "us");
    m.push("reopt.collectors", collectors.get(), "count");
    m.push(
        "reopt.collector_reports",
        per_outcome(|o| o.collector_reports),
        "1/stmt",
    );
    m.push("reopt.switches", per_outcome(|o| o.plan_switches), "1/stmt");
    let (overhead_us, full_over_off) = full_vs_off(db, &probe)?;
    m.push("reopt.fixed_overhead_us", overhead_us, "us");
    m.push("reopt.full_over_off_wall", full_over_off, "ratio");
    m.push("memory.allocate_us", alloc_us.get(), "us");
    m.push(
        "memory.reallocs",
        per_outcome(|o| o.memory_reallocs),
        "1/stmt",
    );
    let (contention, high_water) = contention(db, &probe)?;
    m.push("memory.broker_high_water", high_water as f64, "B");

    m.push("exec.run_ms", run_ms.get(), "ms");
    m.push(
        "exec.spills",
        ratio(sink.spills.load(Ordering::Relaxed), outcomes.len() as u64),
        "1/stmt",
    );
    let ops = op_counters(outcomes);
    for (kind, name) in OP_KINDS {
        let c = ops.get(kind).copied().unwrap_or_default();
        let n = outcomes.len() as u64;
        m.push(format!("exec.{name}.rows"), ratio(c[0], n), "rows/stmt");
        m.push(format!("exec.{name}.cpu_ops"), ratio(c[1], n), "ops/stmt");
        m.push(
            format!("exec.{name}.io_pages"),
            ratio(c[2], n),
            "pages/stmt",
        );
    }

    // storage, catalog
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    m.push("storage.pool_hit_rate", ratio(hits, hits + misses), "ratio");
    m.push(
        "storage.pages_read_per_stmt",
        exact.per_stmt(exact.pages_read),
        "pages",
    );
    m.push(
        "storage.pages_written_per_stmt",
        exact.per_stmt(exact.pages_written),
        "pages",
    );
    let lineitem = catalog.table("lineitem")?;
    let mut scanned = 0u64;
    let (r, s) = time(|| -> Res<()> {
        for _ in 0..2 {
            for row in storage.scan_file(lineitem.file)? {
                row?;
                scanned += 1;
            }
        }
        Ok(())
    });
    r?;
    m.push(
        "storage.scan_ns_per_row",
        s * 1e9 / scanned.max(1) as f64,
        "ns",
    );
    let orders = catalog.table("orders")?;
    let index = *orders
        .indexes
        .get("o_orderkey")
        .ok_or("orders has no o_orderkey index")?;
    let n_orders = storage.file_rows(orders.file)? as i64;
    let mut rng = DetRng::new(0xB7EE);
    let keys: Vec<Value> = (0..2000)
        .map(|_| Value::Int(rng.gen_i64(0, n_orders - 1)))
        .collect();
    let (r, s) = time(|| -> Res<()> {
        for k in &keys {
            std::hint::black_box(storage.index_lookup(index, k)?);
        }
        Ok(())
    });
    r?;
    m.push("storage.btree_lookup_us", s * 1e6 / keys.len() as f64, "us");
    let mut insert_us = Mean::default();
    for i in 0..50 {
        let k = n_orders + 2 * i;
        let text = format!(
            "INSERT INTO orders VALUES ({k}, 0, 'O', 1000.00, DATE '1998-08-01', 0), \
             ({}, 1, 'O', 2000.00, DATE '1998-08-02', 0)",
            k + 1
        );
        let (r, s) = time(|| db.execute_sql(&text, ReoptMode::Full));
        r?;
        insert_us.add(s * 1e6);
    }
    m.push("catalog.insert_us", insert_us.get(), "us");
    m.push(
        "catalog.load_s",
        median(setups.iter().map(|s| s.load_s).collect()),
        "s",
    );

    // persist
    let path = dir.join("probe.mqsnap");
    let (r, save_s) = time(|| db.save_as(&path));
    r?;
    let bytes = std::fs::metadata(&path)?.len();
    let (reopened, open_s) = time(|| Database::open_with(cfg.clone(), &path));
    drop(reopened?);
    std::fs::remove_file(&path)?;
    m.push("persist.save_s", save_s, "s");
    m.push("persist.open_s", open_s, "s");
    m.push("persist.snapshot_bytes", bytes as f64, "B");

    // runtime, obs
    m.push("runtime.contention_ratio", contention, "ratio");
    m.push(
        "obs.trace_overhead_ratio",
        traced.wall_s / plain.wall_s,
        "ratio",
    );
    let t = &bench.tally;
    m.push(
        "error_rate",
        ratio(t.failed + t.mismatches, t.attempted),
        "ratio",
    );
    notes.push(format!(
        "probes: {} SQL texts x 200, {} plans x {}",
        probe.sql.len(),
        probe.plans.len(),
        probe.reps
    ));
    Ok(Report {
        metrics: m,
        notes,
        attempted: 0,
        failed: 0,
        mismatches: 0,
    })
}

/// Self rows, cpu ops and io pages per operator kind: inclusive
/// actuals minus those of the children.
fn op_counters(outcomes: &[QueryOutcome]) -> HashMap<&'static str, [u64; 3]> {
    let mut per: HashMap<&'static str, [u64; 3]> = HashMap::new();
    for out in outcomes {
        out.final_plan.walk(&mut |node| {
            let Some(a) = out.actuals.get(&node.id) else {
                return;
            };
            let (mut cpu, mut io) = (a.cpu_ops, a.io_pages);
            for child in &node.children {
                if let Some(ca) = out.actuals.get(&child.id) {
                    cpu = cpu.saturating_sub(ca.cpu_ops);
                    io = io.saturating_sub(ca.io_pages);
                }
            }
            let e = per.entry(node.op.name()).or_default();
            e[0] += a.rows;
            e[1] += cpu;
            e[2] += io;
        });
    }
    per
}

/// Full against Off: the fixed per-query overhead on an orders point
/// lookup (median Full minus median Off wall time), and the summed
/// wall time of the probe plans in Full over that in Off.
fn full_vs_off(db: &Database, probe: &Probe) -> Res<(f64, f64)> {
    let run = |plan: &LogicalPlan, mode| -> Res<f64> {
        let (r, s) = time(|| db.query_plan(plan).mode(mode).run());
        r?;
        Ok(s)
    };
    let mut rng = DetRng::new(0x0FF5);
    let orders = db
        .engine()
        .storage()
        .file_rows(db.engine().catalog().table("orders")?.file)?;
    let (mut off, mut full) = (Vec::new(), Vec::new());
    for _ in 0..300 {
        let plan = db.plan_sql(&family_sql(0, rng.gen_i64(0, orders as i64 - 1)))?;
        off.push(run(&plan, ReoptMode::Off)? * 1e6);
        full.push(run(&plan, ReoptMode::Full)? * 1e6);
    }
    let overhead = median(full) - median(off);
    let (mut off_s, mut full_s) = (0.0, 0.0);
    for (_, plan) in &probe.plans {
        for _ in 0..probe.reps {
            off_s += run(plan, ReoptMode::Off)?;
            full_s += run(plan, ReoptMode::Full)?;
        }
    }
    Ok((overhead, full_s / off_s))
}

/// Per-statement wall time of the probe plans in Full mode with two
/// sessions at once over that with one, and the high water of the
/// sessions' shared broker.
fn contention(db: &Database, probe: &Probe) -> Res<(f64, usize)> {
    let broker = Arc::new(MemoryBroker::new(
        SESSION_CONCURRENCY * db.engine().config().query_memory_bytes,
    ));
    let n = probe.plans.len();
    let run_all = |offset: usize, barrier: Option<&Barrier>| -> Result<Vec<f64>, String> {
        let session = Session::new(db.engine_arc(), Arc::clone(&broker));
        if let Some(b) = barrier {
            b.wait();
        }
        let mut walls = Vec::with_capacity(n * probe.reps);
        for i in 0..n * probe.reps {
            let (sql, plan) = &probe.plans[(i + offset) % n];
            let (r, s) = time(|| match sql {
                Some(text) => session.run_sql(text, ReoptMode::Full),
                None => session.run(plan, ReoptMode::Full),
            });
            r.map_err(|e| e.to_string())?;
            walls.push(s);
        }
        Ok(walls)
    };
    let serial = run_all(0, None)?;
    let barrier = Barrier::new(2);
    let both: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = [0, n / 2]
            .into_iter()
            .map(|offset| {
                let (run_all, barrier) = (&run_all, &barrier);
                s.spawn(move || run_all(offset, Some(barrier)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let mut concurrent = Vec::new();
    for walls in both {
        concurrent.extend(walls?);
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    Ok((mean(&concurrent) / mean(&serial), broker.high_water()))
}
