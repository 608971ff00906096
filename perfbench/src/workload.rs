//! Workload set-up, the statement loops and their row checks.

use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

use midq::common::{CostSnapshot, DetRng, EngineConfig, Row, Value};
use midq::exec::rows_fingerprint;
use midq::obs::Obs;
use midq::tpcd::{queries, TpcdConfig};
use midq::{Database, LogicalPlan, Prepared, QueryOutcome, ReoptMode};
use mq_bench::BenchSetup;

use crate::Res;

/// The four re-optimization modes of the paper's Figures 10–11.
const MODES: [ReoptMode; 4] = [
    ReoptMode::Off,
    ReoptMode::MemoryOnly,
    ReoptMode::PlanOnly,
    ReoptMode::Full,
];

/// Statements per `sql-point-write` batch; the warm-up is one batch.
const SQL_BATCH: usize = 2000;
/// Share of `sql-point-write` statements that are inserts, in percent.
const INSERT_PERCENT: u64 = 10;
/// Rows per INSERT statement.
const INSERT_ROWS: i64 = 2;
/// One SELECT in this many keeps its rows for the after-run check.
const SAMPLE_EVERY: u64 = 16;
/// Point-query families of `sql-point-write`.
pub const FAMILIES: usize = 3;

/// SQL text of one point-query family for one key: orders and customer
/// lookups by primary key, and the orders→lineitem join by order key.
pub fn family_sql(family: usize, key: i64) -> String {
    match family {
        0 => format!(
            "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice \
             FROM orders WHERE o_orderkey = {key}"
        ),
        1 => format!(
            "SELECT c_custkey, c_nationkey, c_mktsegment, c_acctbal \
             FROM customer WHERE c_custkey = {key}"
        ),
        _ => format!(
            "SELECT o_orderkey, o_orderdate, l_partkey, l_quantity, l_extendedprice \
             FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_orderkey = {key}"
        ),
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    TpcdModes,
    SqlPointWrite,
    TpcdTwoClients,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "tpcd-modes" => Some(Kind::TpcdModes),
            "sql-point-write" => Some(Kind::SqlPointWrite),
            "tpcd-two-clients" => Some(Kind::TpcdTwoClients),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::TpcdModes => "tpcd-modes",
            Kind::SqlPointWrite => "sql-point-write",
            Kind::TpcdTwoClients => "tpcd-two-clients",
        }
    }

    /// Fewest timed statements a run makes, whatever `--seconds` says:
    /// enough for ten samples beyond p90 (beyond p99 on the point
    /// stream).
    fn min_samples(self) -> u64 {
        match self {
            Kind::SqlPointWrite => 1000,
            _ => 100,
        }
    }
}

/// Statements attempted and failed, and rows that failed their check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

impl Tally {
    fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// Simulated cost summed over statements.
#[derive(Default, Clone, Copy)]
pub struct Sim {
    pub stmts: u64,
    pub sim_ms: f64,
    pub opt_work: u64,
    pub pages_read: u64,
    pub pages_written: u64,
}

impl Sim {
    fn add(&mut self, cost: &CostSnapshot, sim_ms: f64) {
        self.stmts += 1;
        self.sim_ms += sim_ms;
        self.opt_work += cost.opt_work;
        self.pages_read += cost.pages_read;
        self.pages_written += cost.pages_written;
    }

    fn absorb(&mut self, other: &Sim) {
        self.stmts += other.stmts;
        self.sim_ms += other.sim_ms;
        self.opt_work += other.opt_work;
        self.pages_read += other.pages_read;
        self.pages_written += other.pages_written;
    }

    pub fn sim_ms_per_stmt(&self) -> f64 {
        self.sim_ms / self.stmts.max(1) as f64
    }

    pub fn per_stmt(&self, count: u64) -> f64 {
        count as f64 / self.stmts.max(1) as f64
    }
}

/// What one batch, or a whole timed phase, measured.
#[derive(Default)]
pub struct Batch {
    /// Wall time of each successful statement.
    pub lat_ms: Vec<f64>,
    pub wall_s: f64,
    pub sim: Sim,
    /// Successful SELECT outcomes (rows taken), kept only when asked.
    pub outcomes: Vec<QueryOutcome>,
}

impl Batch {
    /// Append a batch that ran after this one.
    pub fn absorb(&mut self, other: Batch) {
        self.lat_ms.extend(other.lat_ms);
        self.wall_s += other.wall_s;
        self.sim.absorb(&other.sim);
        self.outcomes.extend(other.outcomes);
    }
}

/// The timed phase of an untraced run.
pub struct Timed {
    pub batch: Batch,
    /// The statements `sim_ms_per_stmt` is taken over: the first batch
    /// of a serial workload (exact for a seed), every timed statement
    /// of the two-client one.
    pub sim: Sim,
}

pub struct SetupTimes {
    /// Load, plus save and reopen for `sql-point-write`.
    pub total_s: f64,
    /// `Database::load_tpcd` alone: generate, insert, ANALYZE, index.
    pub load_s: f64,
}

/// Result rows awaiting their check.
type Pending = Vec<(usize, ReoptMode, Vec<Row>)>;

/// A loaded workload and its running tallies.
pub struct Bench {
    pub kind: Kind,
    pub db: Database,
    pub plans: Vec<(&'static str, LogicalPlan)>,
    pub tally: Tally,
    seed: u64,
    /// Draws the statement order of the TPC-D workloads.
    order: DetRng,
    /// Off-mode fingerprint per query of `plans`.
    reference: Vec<Option<u64>>,
    pending: Pending,
    sql: Option<SqlStream>,
}

impl Bench {
    /// Load the TPC-D data in the `BenchSetup::default` regime: SF
    /// 0.008, ANALYZE after half the load, 64-page pool. The data comes
    /// from the generator's own fixed seed, as in every figure of the
    /// paper's evaluation: different data means different plans and
    /// re-optimization decisions, which would swamp the wall-clock
    /// differences the benchmark exists to compare. `seed` draws the
    /// statements instead.
    pub fn setup(kind: Kind, seed: u64, scale: f64, dir: &Path) -> Res<(Bench, SetupTimes)> {
        let regime = BenchSetup {
            scale,
            ..BenchSetup::default()
        };
        let t0 = Instant::now();
        let db = Database::new(regime.cfg.clone())?;
        db.load_tpcd(&TpcdConfig {
            scale,
            zipf_z: regime.zipf_z,
            analyze_after_fraction: regime.analyze_after_fraction,
            ..TpcdConfig::default()
        })?;
        let load_s = t0.elapsed().as_secs_f64();
        let (db, sql) = if kind == Kind::SqlPointWrite {
            let path = dir.join("sql-point-write.mqsnap");
            db.save_as(&path)?;
            drop(db);
            let cfg = EngineConfig {
                plan_cache_enabled: true,
                ..regime.cfg
            };
            let db = Database::open_with(cfg, &path)?;
            let sql = SqlStream::new(&db, seed)?;
            (db, Some(sql))
        } else {
            (db, None)
        };
        let total_s = t0.elapsed().as_secs_f64();
        let plans = queries::all();
        let bench = Bench {
            kind,
            db,
            reference: vec![None; plans.len()],
            plans,
            tally: Tally::default(),
            seed,
            order: DetRng::new(seed),
            pending: Vec::new(),
            sql,
        };
        Ok((bench, SetupTimes { total_s, load_s }))
    }

    /// One line on the data and pool sizes.
    pub fn sizes(&self) -> String {
        let engine = self.db.engine();
        let (catalog, storage, cfg) = (engine.catalog(), engine.storage(), engine.config());
        let pages: usize = catalog
            .table_names()
            .iter()
            .filter_map(|t| storage.file_pages(catalog.table(t).ok()?.file).ok())
            .sum();
        let mib = |p: usize| (p * cfg.page_size) as f64 / (1024.0 * 1024.0);
        format!(
            "{} seed {}: data {pages} heap pages ({:.1} MiB), buffer pool {} pages ({:.2} MiB), query memory {} KiB",
            self.kind.name(),
            self.seed,
            mib(pages),
            cfg.buffer_pool_pages,
            mib(cfg.buffer_pool_pages),
            cfg.query_memory_bytes / 1024
        )
    }

    /// Untimed warm-up. `tpcd-modes` runs one discarded pass whose Off
    /// rows become the reference; `tpcd-two-clients` takes its
    /// reference from a serial Off pass (the `tpcd-modes` answer), then
    /// runs one discarded two-client pass; `sql-point-write` runs one
    /// discarded batch.
    pub fn warm_up(&mut self) {
        let mut discard = Batch::default();
        match self.kind {
            Kind::TpcdModes => {
                self.modes_pass(&mut discard, false);
                for (qi, mode, rows) in &self.pending {
                    if *mode == ReoptMode::Off && self.reference[*qi].is_none() {
                        self.reference[*qi] = Some(fingerprint(rows));
                    }
                }
            }
            Kind::TpcdTwoClients => {
                let Bench {
                    db,
                    plans,
                    tally,
                    reference,
                    ..
                } = self;
                for (qi, (_, plan)) in plans.iter().enumerate() {
                    let off = serial(db, tally, &mut discard, || {
                        db.query_plan(plan).mode(ReoptMode::Off).run()
                    });
                    reference[qi] = off.map(|out| fingerprint(&out.rows));
                }
                self.clients(Stop::Passes(1), false, None);
            }
            Kind::SqlPointWrite => self.sql_batch(&mut discard, false),
        }
    }

    /// The timed phase: batches until `seconds` have passed and the
    /// workload's minimum sample count is reached.
    pub fn timed(&mut self, seconds: f64) -> Timed {
        if self.kind == Kind::TpcdTwoClients {
            let batch = self.clients(Stop::After(seconds), false, None);
            let sim = batch.sim;
            return Timed { batch, sim };
        }
        let mut total = Batch::default();
        let mut first = None;
        let attempted0 = self.tally.attempted;
        let t0 = Instant::now();
        while first.is_none()
            || t0.elapsed().as_secs_f64() < seconds
            || self.tally.attempted - attempted0 < self.kind.min_samples()
        {
            let b = self.batch(false, None);
            first.get_or_insert(b.sim);
            total.absorb(b);
        }
        total.wall_s = t0.elapsed().as_secs_f64();
        Timed {
            batch: total,
            sim: first.expect("at least one batch ran"),
        }
    }

    /// One batch: a 28-statement pass of `tpcd-modes`, one pass per
    /// client of `tpcd-two-clients`, or `SQL_BATCH` statements
    /// of the point stream. With `obs`, every statement runs under its
    /// scope, so outcomes carry per-operator cpu/io.
    pub fn batch(&mut self, keep: bool, obs: Option<&Obs>) -> Batch {
        if self.kind == Kind::TpcdTwoClients {
            return self.clients(Stop::Passes(1), keep, obs);
        }
        let _scope = obs.map(Obs::enter_scope);
        let mut b = Batch::default();
        let t0 = Instant::now();
        match self.kind {
            Kind::TpcdModes => self.modes_pass(&mut b, keep),
            _ => self.sql_batch(&mut b, keep),
        }
        b.wall_s = t0.elapsed().as_secs_f64();
        b
    }

    /// Check every row set gathered so far; mismatches go to the tally.
    pub fn check(&mut self) -> Res<()> {
        if let Some(sql) = &mut self.sql {
            return sql.check(&self.db, &mut self.tally);
        }
        for (qi, mode, rows) in self.pending.drain(..) {
            let got = fingerprint(&rows);
            if self.reference[qi] != Some(got) {
                self.tally.mismatches += 1;
                eprintln!(
                    "row mismatch: {} under {mode:?} gave fingerprint {got:016x}, Off gave {:?}",
                    self.plans[qi].0, self.reference[qi]
                );
            }
        }
        Ok(())
    }

    /// Every query under every mode, in a seeded order.
    fn modes_pass(&mut self, batch: &mut Batch, keep: bool) {
        let Bench {
            db,
            plans,
            tally,
            order,
            pending,
            ..
        } = self;
        let mut stmts: Vec<(usize, ReoptMode)> = (0..plans.len())
            .flat_map(|qi| MODES.map(|mode| (qi, mode)))
            .collect();
        order.shuffle(&mut stmts);
        for (qi, mode) in stmts {
            let plan = &plans[qi].1;
            if let Some(mut out) = serial(db, tally, batch, || db.query_plan(plan).mode(mode).run())
            {
                pending.push((qi, mode, std::mem::take(&mut out.rows)));
                if keep {
                    batch.outcomes.push(out);
                }
            }
        }
    }

    /// Both clients of `tpcd-two-clients`, started together.
    fn clients(&mut self, stop: Stop, keep: bool, obs: Option<&Obs>) -> Batch {
        let barrier = Barrier::new(2);
        let (db, plans) = (&self.db, &self.plans);
        let orders = [self.order.fork(0), self.order.fork(1)];
        let runs: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = orders
                .into_iter()
                .enumerate()
                .map(|(c, order)| {
                    let barrier = &barrier;
                    s.spawn(move || client(db, plans, order, c, stop, keep, obs, barrier))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut batch = Batch::default();
        for run in runs {
            self.tally.absorb(&run.tally);
            self.pending.extend(run.pending);
            // Both clients start at the barrier: the batch lasts as
            // long as the slower one.
            let wall_s = batch.wall_s.max(run.batch.wall_s);
            batch.absorb(run.batch);
            batch.wall_s = wall_s;
        }
        batch
    }

    fn sql_batch(&mut self, batch: &mut Batch, keep: bool) {
        let Bench { db, tally, sql, .. } = self;
        let s = sql
            .as_mut()
            .expect("sql-point-write has a statement stream");
        for _ in 0..SQL_BATCH {
            if s.rng.gen_range(100) < INSERT_PERCENT {
                let text = s.next_insert();
                if serial(db, tally, batch, || db.execute_sql(&text, ReoptMode::Full)).is_some() {
                    s.inserted_rows += INSERT_ROWS as u64;
                }
                continue;
            }
            let family = s.rng.gen_range(FAMILIES as u64) as usize;
            let key = match family {
                0 => s.rng.gen_i64(0, s.next_orderkey - 1),
                1 => s.rng.gen_i64(0, s.customers - 1),
                _ => s.rng.gen_i64(0, s.loaded_orders - 1),
            };
            let prepared = s.rng.gen_bool(0.5);
            let sampled = s.rng.gen_range(SAMPLE_EVERY) == 0;
            let out = if prepared {
                let stmt = &s.prepared[family];
                serial(db, tally, batch, || stmt.run(&[Value::Int(key)]))
            } else {
                let text = family_sql(family, key);
                serial(db, tally, batch, || db.query(&text).run())
            };
            if let Some(mut out) = out {
                if sampled {
                    s.samples
                        .push((family_sql(family, key), std::mem::take(&mut out.rows)));
                }
                if keep {
                    batch.outcomes.push(out);
                }
            }
        }
    }
}

/// `rows_fingerprint` over rows whose floats are rounded to six
/// significant digits, so plans that sum in different orders agree.
pub fn fingerprint(rows: &[Row]) -> u64 {
    let canonical: Vec<Row> = rows
        .iter()
        .map(|r| {
            Row::new(
                r.values()
                    .iter()
                    .map(|v| match v {
                        Value::Float(f) => Value::Float(format!("{f:.5e}").parse().unwrap_or(*f)),
                        other => other.clone(),
                    })
                    .collect(),
            )
        })
        .collect();
    rows_fingerprint(canonical.iter())
}

/// Run one statement of a serial workload: wall time around the call,
/// simulated cost from the engine clock (which also prices inserts).
fn serial<T>(
    db: &Database,
    tally: &mut Tally,
    batch: &mut Batch,
    f: impl FnOnce() -> midq::Result<T>,
) -> Option<T> {
    let engine = db.engine();
    let c0 = engine.clock().snapshot();
    let t0 = Instant::now();
    let result = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tally.attempted += 1;
    match result {
        Ok(v) => {
            let cost = engine.clock().snapshot().since(&c0);
            batch.lat_ms.push(ms);
            batch.sim.add(&cost, cost.time_ms(engine.config()));
            Some(v)
        }
        Err(e) => {
            tally.failed += 1;
            eprintln!("statement failed: {e}");
            None
        }
    }
}

#[derive(Clone, Copy)]
enum Stop {
    /// Stop after this many seconds (and at least half the workload's
    /// minimum sample count per client).
    After(f64),
    /// Stop after this many passes over the queries.
    Passes(usize),
}

#[derive(Default)]
struct ClientRun {
    tally: Tally,
    batch: Batch,
    pending: Pending,
}

/// One client of `tpcd-two-clients`: passes over the seven queries in
/// Full mode through its own session, each pass in a fresh order drawn
/// from `order`. Drawing per pass and per client varies which queries
/// overlap, so no one seed fixes the pairs that contend.
#[allow(clippy::too_many_arguments)]
fn client(
    db: &Database,
    plans: &[(&'static str, LogicalPlan)],
    mut order: DetRng,
    c: usize,
    stop: Stop,
    keep: bool,
    obs: Option<&Obs>,
    barrier: &Barrier,
) -> ClientRun {
    let session = db.session();
    let _scope = obs.map(Obs::enter_scope);
    let mut run = ClientRun::default();
    let n = plans.len();
    let mut pass: Vec<usize> = (0..n).collect();
    barrier.wait();
    let t0 = Instant::now();
    for i in 0.. {
        let done = match stop {
            Stop::After(s) => {
                t0.elapsed().as_secs_f64() >= s
                    && run.tally.attempted >= Kind::TpcdTwoClients.min_samples() / 2
            }
            Stop::Passes(p) => i >= p * n,
        };
        if done {
            break;
        }
        if i % n == 0 {
            order.shuffle(&mut pass);
        }
        let qi = pass[i % n];
        let t = Instant::now();
        let result = session.run(&plans[qi].1, ReoptMode::Full);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        run.tally.attempted += 1;
        match result {
            Ok(mut out) => {
                run.batch.lat_ms.push(ms);
                run.batch.sim.add(&out.cost, out.time_ms);
                run.pending
                    .push((qi, ReoptMode::Full, std::mem::take(&mut out.rows)));
                if keep {
                    run.batch.outcomes.push(out);
                }
            }
            Err(e) => {
                run.tally.failed += 1;
                eprintln!("client {c}: {} failed: {e}", plans[qi].0);
            }
        }
    }
    run.batch.wall_s = t0.elapsed().as_secs_f64();
    run
}

/// The seeded statement stream of `sql-point-write`.
struct SqlStream {
    rng: DetRng,
    /// One prepared statement per family.
    prepared: Vec<Prepared>,
    /// Orders loaded at set-up (only these have lineitems).
    loaded_orders: i64,
    customers: i64,
    /// Next unused order key; inserts take keys from here, and order
    /// lookups draw from every key below it.
    next_orderkey: i64,
    inserted_rows: u64,
    /// Sampled SELECTs and their rows.
    samples: Vec<(String, Vec<Row>)>,
}

impl SqlStream {
    fn new(db: &Database, seed: u64) -> Res<SqlStream> {
        let engine = db.engine();
        let rows = |t: &str| -> Res<i64> {
            let file = engine.catalog().table(t)?.file;
            Ok(engine.storage().file_rows(file)? as i64)
        };
        let loaded_orders = rows("orders")?;
        let prepared = (0..FAMILIES)
            .map(|f| db.prepare(&family_sql(f, 0)))
            .collect::<midq::Result<Vec<_>>>()?;
        Ok(SqlStream {
            rng: DetRng::new(seed ^ 0x5A11_5EED),
            prepared,
            loaded_orders,
            customers: rows("customer")?,
            next_orderkey: loaded_orders,
            inserted_rows: 0,
            samples: Vec::new(),
        })
    }

    /// A multi-row INSERT of new orders. Keys advance even if the
    /// statement then fails, so no key is ever used twice.
    fn next_insert(&mut self) -> String {
        let rows: Vec<String> = (0..INSERT_ROWS)
            .map(|i| {
                format!(
                    "({}, {}, 'O', {}.{:02}, DATE '1998-08-{:02}', 0)",
                    self.next_orderkey + i,
                    self.rng.gen_i64(0, self.customers - 1),
                    self.rng.gen_i64(1_000, 400_000),
                    self.rng.gen_i64(0, 99),
                    self.rng.gen_i64(1, 28)
                )
            })
            .collect();
        self.next_orderkey += INSERT_ROWS;
        format!("INSERT INTO orders VALUES {}", rows.join(", "))
    }

    /// Re-run each sampled SELECT through `query_plan`, which bypasses
    /// the plan cache, and compare. Lookups only ever target keys that
    /// existed when they ran, and nothing is updated or deleted, so
    /// their answers cannot change by the time of the check. Then check
    /// that every acknowledged insert is visible.
    fn check(&mut self, db: &Database, tally: &mut Tally) -> Res<()> {
        for (text, rows) in self.samples.drain(..) {
            let plan = db.plan_sql(&text)?;
            let reference = db.query_plan(&plan).run()?;
            if fingerprint(&rows) != fingerprint(&reference.rows) {
                tally.mismatches += 1;
                eprintln!(
                    "row mismatch: {text}: {} rows through the plan cache, {} through query_plan",
                    rows.len(),
                    reference.rows.len()
                );
            }
        }
        let plan = db.plan_sql("SELECT count(*) AS n FROM orders")?;
        let out = db.query_plan(&plan).run()?;
        let expected = self.loaded_orders + self.inserted_rows as i64;
        let counted = out.rows.first().map(|r| r.values().to_vec());
        if counted != Some(vec![Value::Int(expected)]) {
            tally.mismatches += 1;
            eprintln!("orders holds {counted:?} rows, expected {expected}");
        }
        Ok(())
    }
}
