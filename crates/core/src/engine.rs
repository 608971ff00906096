//! The top-level query engine with Dynamic Re-Optimization.
//!
//! [`Engine::execute`] is the whole §2.6 summary in code: optimize →
//! statistics-collectors insertion → memory allocation → execute with
//! the controller attached; when the controller unwinds with a plan
//! switch, materialize the cut subtree (reusing its surviving build
//! artifacts), register the temp table with the *exact* statistics
//! observed while writing it, re-optimize the remainder, and continue —
//! "this process continues until the query completes execution" (§3.1).

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mq_cache::{CacheEntry, CacheStats, FeedbackStore, PinGuard, SubPlanCache};
use mq_catalog::{Catalog, TableStats};
use mq_common::{
    CancelToken, CostSnapshot, EngineConfig, FaultInjector, MqError, Result, Row, Schema, SimClock,
};
use mq_exec::{materialize, run_to_vec, ExecContext, OpActuals};
use mq_memory::MemoryManager;
use mq_obs::{ObsEvent, SegmentOutcome};
use mq_optimizer::{
    apply_feedback, recost, CardFeedback, GraphFeedbackHit, OptCalibration, Optimized, Optimizer,
};
use mq_par::{parallelize, run_partitioned, ParReport, ParSpec};
use mq_plan::{base_tables, subplan_fingerprint, LogicalPlan, NodeId, PhysOp, PhysPlan, ScanSpec};
use mq_plancache::{normalize, CachedPlan, Freshness, NormalizedQuery, PlanCache, PlanCacheStats};
use mq_stats::{HistogramKind, HISTOGRAM_BUCKETS, RESERVOIR_SIZE};
use mq_storage::Storage;
use parking_lot::Mutex;

use crate::controller::ReoptController;
use crate::manifest::{plan_hash, CheckpointRecord, ManifestStore, QueryManifest};
use crate::scia::insert_collectors;
use crate::ReoptMode;

/// Maximum segment retries after a *transient* storage fault (see
/// `MqError::is_transient`). Each retry re-runs the current segment
/// from its already-materialized inputs.
pub const TRANSIENT_RETRY_LIMIT: u32 = 2;
/// Simulated-clock backoff before the first segment retry, in
/// milliseconds; doubles on each further retry.
pub const TRANSIENT_RETRY_BACKOFF_MS: f64 = 5.0;
/// Number of independently-locked shards the sub-plan cache is split
/// into (hash-routed by fingerprint), so the probe path does not
/// serialize concurrent workers.
pub const CACHE_SHARDS: usize = 8;
/// Staleness threshold for cached plans: once this many feedback
/// corrections have been applied against a cached plan's sub-plan
/// fingerprints *since it was entered*, the entry is re-enumerated on
/// its next probe (`plan_cache_reoptimized`).
pub const PLAN_CACHE_STALENESS: u64 = 5;
/// Adaptive histogram refresh trigger: a graph-level feedback hit
/// whose `max(obs/est, est/obs)` error reaches this factor counts as a
/// large error for its base-table column.
pub const HIST_REFRESH_ERROR_FACTOR: f64 = 4.0;

/// Everything a finished query reports.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Result rows.
    pub rows: Vec<Row>,
    /// Physical-cost delta for this query alone.
    pub cost: CostSnapshot,
    /// Simulated execution time in milliseconds.
    pub time_ms: f64,
    /// The mode the query ran under.
    pub mode: ReoptMode,
    /// Accepted plan switches.
    pub plan_switches: u32,
    /// Segments re-run after a transient fault (injected or real).
    pub segment_retries: u32,
    /// Memory re-allocations that changed at least one grant.
    pub memory_reallocs: u32,
    /// Statistics-collector reports received.
    pub collector_reports: u32,
    /// The query's re-optimization decisions and the evidence behind
    /// them, in order: collector checkpoints, grant changes, re-plan
    /// verdicts, plan-cache, cache and feedback decisions, segment
    /// retries. Each renders as one report line via `Display`.
    pub events: Vec<ObsEvent>,
    /// The plan that produced the final rows (last attempt).
    pub final_plan: PhysPlan,
    /// Per-operator observed execution counters of the final attempt,
    /// keyed by node id of [`QueryOutcome::final_plan`]. Row counts are
    /// always collected; cpu/io deltas only when an observability sink
    /// was active during the run.
    pub actuals: HashMap<NodeId, OpActuals>,
    /// Partitioned-execution report (exchange routing, skew verdicts,
    /// parallel time saved) when the job ran with a [`ParSpec`];
    /// `None` for serial execution.
    pub par: Option<ParReport>,
}

impl QueryOutcome {
    /// Render a post-execution report in the spirit of
    /// `EXPLAIN ANALYZE`: the headline counters, the query's events
    /// (every collector report, grant change and switch decision), and
    /// the annotated plan that produced the final rows. This is the
    /// first thing to read when asking *why* a query did or did not
    /// re-optimize.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== query report ({:?} mode) ==", self.mode);
        let _ = writeln!(
            out,
            "rows: {}   simulated time: {:.1} ms",
            self.rows.len(),
            self.time_ms
        );
        let _ = writeln!(
            out,
            "I/O: {} page reads, {} page writes   cpu ops: {}   optimizer work: {}",
            self.cost.pages_read, self.cost.pages_written, self.cost.cpu_ops, self.cost.opt_work
        );
        let _ = writeln!(
            out,
            "plan switches: {}   memory re-allocations: {}   collector reports: {}   segment retries: {}",
            self.plan_switches, self.memory_reallocs, self.collector_reports, self.segment_retries
        );
        if self.events.is_empty() {
            let _ = writeln!(out, "\n-- controller events: none --");
        } else {
            let _ = writeln!(out, "\n-- controller events --");
            for (i, e) in self.events.iter().enumerate() {
                let _ = writeln!(out, "{:>3}. {e}", i + 1);
            }
        }
        let _ = writeln!(out, "\n-- final plan (of the last attempt) --");
        let _ = write!(out, "{}", self.final_plan);
        out
    }

    /// Render the EXPLAIN ANALYZE view of this outcome: the final plan
    /// annotated with estimated vs actual per-operator rows, re-opt
    /// point markers, and the query's decision events.
    pub fn explain_analyze(&self) -> String {
        crate::explain::explain_analyze(self)
    }
}

/// Per-job execution environment: which clock to charge, which memory
/// manager to allocate from (under the concurrent runtime this is
/// lease-backed by the global broker), and how the job can be
/// interrupted. Every [`Engine::execute`] call carries one:
/// [`Engine::default_env`] gives the engine-wide clock and memory
/// manager with no interrupts, and the runtime builds a per-query one.
pub struct JobEnv {
    /// Engine query id: keys the checkpoint manifest, so a crashed
    /// query can be recovered by id. Must agree with `temp_prefix`
    /// (both come from [`Engine::next_query_id`]).
    pub query_id: u64,
    /// Clock all of this job's work is charged to (a
    /// [`SimClock::child`] of the engine clock under the runtime, so
    /// the global aggregate still sees every charge).
    pub clock: SimClock,
    /// Memory manager for this job's grants.
    pub mm: MemoryManager,
    /// Cooperative cancellation token, if the job is cancellable.
    pub cancel: Option<CancelToken>,
    /// Deadline in simulated milliseconds on `clock`.
    pub deadline_ms: Option<f64>,
    /// Temp-table prefix; must be unique across concurrently running
    /// queries (the shared catalog rejects duplicate names).
    pub temp_prefix: String,
    /// Deterministic fault schedule scoped onto the job's thread for
    /// the duration of the query (chaos testing). `None` = no faults.
    pub fault: Option<FaultInjector>,
    /// Observability handle scoped onto the job's thread for the
    /// duration of the query. `None` (or an inactive handle) keeps
    /// whatever scope the caller already installed — the engine only
    /// *adds* a scope when the handle actually carries a sink or a
    /// metrics registry.
    pub obs: Option<mq_obs::Obs>,
    /// Intra-query partitioned execution: when set, the optimized plan
    /// is parallelized with exchange operators and run by the
    /// partitioned driver (`mq-par`). `None` = serial execution.
    pub par: Option<ParSpec>,
}

/// Resource-leak audit over the engine's shared state. Only valid at
/// quiescence (no query in flight): every counter below is *expected*
/// to be transiently non-zero while queries run.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Re-optimizer temp tables still registered in the catalog.
    pub leaked_temp_tables: Vec<String>,
    /// `cache_*` catalog tables no cache entry (live or pinned-dead)
    /// knows about — debris of a crash mid-promotion. Reclaimable via
    /// [`Engine::sweep_cache_orphans`].
    pub orphan_cache_tables: Vec<String>,
    /// Disk pages owned by no heap file and no index.
    pub orphan_pages: usize,
    /// Buffer-pool accesses that never un-pinned (a closure unwound).
    pub pinned_frames: u64,
    /// Cleanup operations that failed since engine start (the temp
    /// table or its file survived a drop attempt; see
    /// [`Engine::cleanup_failure_count`]). Informational — failures
    /// leave survivors that the leak counters above already flag.
    pub cleanup_failures: u64,
    /// Stale `tmp_reopt_*` leftovers (tables + scratch files) swept
    /// since engine start by [`Engine::sweep_stale_temps`] — crashed
    /// queries nobody recovered. Informational: swept means reclaimed,
    /// not leaked, so this does not affect [`AuditReport::is_clean`].
    pub stale_swept: u64,
}

impl AuditReport {
    /// No leaked temp tables, no orphan cache tables, no orphan pages,
    /// no stuck pins.
    pub fn is_clean(&self) -> bool {
        self.leaked_temp_tables.is_empty()
            && self.orphan_cache_tables.is_empty()
            && self.orphan_pages == 0
            && self.pinned_frames == 0
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit: {} leaked temp table(s) {:?}, {} orphan cache table(s) {:?}, {} orphan page(s), {} stuck pin(s), {} cleanup failure(s), {} stale object(s) swept",
            self.leaked_temp_tables.len(),
            self.leaked_temp_tables,
            self.orphan_cache_tables.len(),
            self.orphan_cache_tables,
            self.orphan_pages,
            self.pinned_frames,
            self.cleanup_failures,
            self.stale_swept
        )
    }
}

/// What [`Engine::recover`] did for one crashed query.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Outcome of the resumed execution (rows are the full query
    /// result — salvaged segments feed the remainder plan).
    pub outcome: QueryOutcome,
    /// Recovery generation the resume ran as (1 = first recovery).
    pub generation: u32,
    /// Checkpointed segments whose temp tables validated and were
    /// reused instead of being recomputed.
    pub segments_salvaged: u32,
    /// Rows re-scanned while validating checkpoint fingerprints.
    pub validated_rows: u64,
    /// Unrecorded / partial temp tables swept during recovery.
    pub swept_tables: u64,
    /// Orphaned scratch files swept during recovery.
    pub swept_files: u64,
    /// Total simulated milliseconds recovery cost on the job clock:
    /// validation re-scans + sweep + the resumed execution itself.
    pub recovery_ms: f64,
}

/// Internal result of manifest validation + orphan sweep.
struct Salvage {
    salvaged: u32,
    validated_rows: u64,
    swept_tables: u64,
    swept_files: u64,
    resume_plan: LogicalPlan,
    salvaged_tables: Vec<String>,
}

/// For each field of `want`, its position in `have` — `Some` only when
/// the two schemas hold exactly the same qualified, typed fields (a
/// column permutation, as produced by the two orientations of a
/// fingerprint-equivalent join). `Some(identity)` when they are equal.
fn schema_permutation(have: &Schema, want: &Schema) -> Option<Vec<usize>> {
    if have.fields().len() != want.fields().len() {
        return None;
    }
    let mut used = vec![false; have.fields().len()];
    let mut map = Vec::with_capacity(want.fields().len());
    for f in want.fields() {
        let (idx, _) = have.fields().iter().enumerate().find(|(i, g)| {
            !used[*i] && g.dtype == f.dtype && g.qualified_name() == f.qualified_name()
        })?;
        used[idx] = true;
        map.push(idx);
    }
    Some(map)
}

/// Which query owns a `tmp_reopt_*` object: parses the query id out of
/// a temp-table name or scratch tag (`tmp_reopt_q<id>_…` for the
/// original run, `tmp_reopt_q<id>r<gen>_…` for recovery generations).
fn temp_owner(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("tmp_reopt_q")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// RAII unwinding for one query execution: whatever happens — success,
/// error, cancellation, plan switch, transient-fault retry — dropping
/// the guard clears the attempt's artifacts, reclaims every registered
/// temp file, and drops the temp tables this query materialized. This
/// replaces the old best-effort `cleanup_temps` call, which only ran on
/// the paths that remembered to call it.
struct CleanupGuard<'a> {
    engine: &'a Engine,
    ctx: &'a ExecContext,
    temps: Vec<String>,
}

impl<'a> CleanupGuard<'a> {
    fn new(engine: &'a Engine, ctx: &'a ExecContext) -> CleanupGuard<'a> {
        CleanupGuard {
            engine,
            ctx,
            temps: Vec::new(),
        }
    }

    /// Register a materialized temp table for end-of-query cleanup.
    fn track(&mut self, name: String) {
        self.temps.push(name);
    }

    /// Temp tables materialized so far (stats feedback skips them).
    fn temps(&self) -> &[String] {
        &self.temps
    }

    /// Drop one tracked-or-pending temp table immediately (used when a
    /// placeholder must not survive a failed materialization).
    fn drop_now(&mut self, name: &str) {
        self.temps.retain(|t| t != name);
        self.engine.drop_temp(name);
    }

    /// Stop tracking a temp table without dropping it — its file and
    /// rows changed owner (cache promotion).
    fn untrack(&mut self, name: &str) {
        self.temps.retain(|t| t != name);
    }
}

impl Drop for CleanupGuard<'_> {
    fn drop(&mut self) {
        self.ctx.clear_artifacts();
        let released = self.ctx.release_temp_files();
        let failures_before = self.engine.cleanup_failure_count();
        let temps = std::mem::take(&mut self.temps);
        let temp_tables = temps.len() as u64;
        for name in temps {
            self.engine.drop_temp(&name);
        }
        mq_obs::emit(|| ObsEvent::Cleanup {
            temp_tables,
            temp_files: released as u64,
            failures: self.engine.cleanup_failure_count() - failures_before,
        });
    }
}

/// A plan-switch temp table staged for cross-query promotion. Admitted
/// into the cache only after the whole query succeeds — a failed
/// query's temps die with its [`CleanupGuard`] as before.
struct PendingPromotion {
    /// Canonical fingerprint of the materialized cut subtree.
    fingerprint: u64,
    /// The `tmp_reopt_*` table holding the rows right now.
    temp_name: String,
    /// Output schema of the cut (probe-time splices require equality).
    schema: Schema,
    /// Exact counts observed while writing the temp.
    rows: u64,
    pages: u64,
    bytes: u64,
    /// Estimated producer cost — the per-hit saving the entry earns.
    build_cost_ms: f64,
    /// Base tables read by the cut, at their promotion-time versions.
    deps: Vec<(String, u64)>,
}

/// Outcome of the plan-cache probe [`Engine::execute`] performs
/// before entering the execution loop. Consumed by the loop's first
/// attempt only: a plan switch re-optimizes the remainder normally.
enum PlanCacheAction {
    /// Fresh template rebound with this query's literals: execute it
    /// directly, skipping optimization (and its work charge) entirely.
    Hit {
        plan: Box<PhysPlan>,
        /// Optimizer work units the cold run paid — the saving.
        saved_work: u64,
    },
    /// No servable template (miss, or stale-and-dropped): optimize in
    /// full, then enter the fresh plan under this normalized key.
    Enter {
        norm: NormalizedQuery,
        /// The query's SQL text, kept on the entry as the family's
        /// representative member — snapshots rebuild the template from
        /// it instead of serializing the physical plan.
        sql: String,
        /// `Some(reason)` when a stale entry was dropped — the re-run
        /// of the optimizer is the `plan_cache_reoptimized` event.
        stale: Option<&'static str>,
    },
}

/// Where [`Engine::execute`] gets the first attempt's physical plan.
#[derive(Clone, Copy)]
pub enum PlanSource<'a> {
    /// Optimize the logical plan. Plan-built queries skip the plan
    /// cache: there is no SQL text to normalize into a family key.
    Plan,
    /// The query arrived as this SQL text. With
    /// [`EngineConfig::plan_cache_enabled`] its normalized family key
    /// probes the plan cache before the optimizer runs, so a warm
    /// family skips join enumeration entirely (the rebound template
    /// executes with zero optimizer work charged). Text that does not
    /// normalize takes the ordinary path.
    Sql(&'a str),
    /// A statement bound by the prepared-statement layer, which already
    /// holds its normalized form: the probe skips the normalizer — the
    /// hot path a repeated `Prepared::run` takes.
    Prepared {
        /// The bound SQL text, kept on a newly entered template.
        sql: &'a str,
        /// Its normalized form.
        norm: &'a NormalizedQuery,
    },
}

/// One query for [`Engine::execute`].
pub struct ExecRequest<'a> {
    /// The bound logical plan.
    pub logical: &'a LogicalPlan,
    /// Which re-optimization mechanisms are active.
    pub mode: ReoptMode,
    /// Clock, memory, interrupts, faults, tracing and partitioning of
    /// the job.
    pub env: JobEnv,
    /// Where the first attempt's physical plan comes from.
    pub source: PlanSource<'a>,
}

/// Where a query's cost accounting starts.
struct Meter {
    /// Clock reading at query start.
    t0: CostSnapshot,
    /// Parallel savings already credited to the (shared) clock by
    /// earlier jobs, which must not be attributed to this query.
    saved0: f64,
}

impl Meter {
    fn start(clock: &SimClock) -> Meter {
        Meter {
            t0: clock.snapshot(),
            saved0: clock.parallel_saved_ms(),
        }
    }

    /// The cost charged since the start, and the elapsed simulated
    /// time: serial cost minus what overlapping partitions absorbed
    /// (zero when serial).
    fn elapsed(&self, clock: &SimClock, cfg: &EngineConfig) -> (CostSnapshot, f64) {
        let cost = clock.snapshot().since(&self.t0);
        let saved = (clock.parallel_saved_ms() - self.saved0).max(0.0);
        let time_ms = (cost.time_ms(cfg) - saved).max(0.0);
        (cost, time_ms)
    }
}

/// The state of one [`Engine::execute`] call that outlives a single
/// attempt, shared by the plan passes and the segment-outcome handler.
struct QueryRun<'a> {
    mode: ReoptMode,
    env: JobEnv,
    ctx: &'a ExecContext,
    controller: Rc<ReoptController>,
    /// Owns unwinding: artifacts, temp files and materialized temp
    /// tables are reclaimed on *every* exit path — success, error,
    /// cancellation, plan switch — except a crash.
    guard: CleanupGuard<'a>,
    /// Pins on spliced cache entries: held for the whole query (all
    /// attempts), so eviction/invalidation can never drop a table a
    /// remainder plan still references.
    cache_pins: Vec<PinGuard>,
    /// Plan-switch temps staged for cross-query promotion; finalized
    /// only if the query succeeds.
    promotions: Vec<PendingPromotion>,
    meter: Meter,
    attempt: u32,
    segment_retries: u32,
    completed_segments: u32,
}

/// What the §2.6 loop does after a segment ends.
enum Step {
    /// The query finished.
    Done(Box<QueryOutcome>),
    /// A plan switch materialized the cut: run this remainder next.
    Replan(LogicalPlan),
    /// A transient fault was absorbed: re-run the same remainder.
    Retry,
}

/// [`CardFeedback`] over the engine's feedback store: an observation
/// counts only while every base table it was derived from is still at
/// its recorded data version.
struct EngineFeedback<'a>(&'a Engine);

impl CardFeedback for EngineFeedback<'_> {
    fn observed_rows(&self, fingerprint: u64) -> Option<f64> {
        let e = self.0.feedback.get(fingerprint)?;
        e.deps
            .iter()
            .all(|(t, v)| self.0.catalog.data_version(t) == Some(*v))
            .then_some(e.rows)
    }
}

/// The engine: shared storage/catalog plus the re-optimization stack.
pub struct Engine {
    cfg: EngineConfig,
    clock: SimClock,
    storage: Storage,
    catalog: Catalog,
    optimizer: Optimizer,
    mm: MemoryManager,
    calibration: Arc<OptCalibration>,
    query_seq: AtomicU64,
    cleanup_failures: AtomicU64,
    manifests: ManifestStore,
    stale_swept: AtomicU64,
    /// Cross-query sub-plan materialization cache (probe/splice is
    /// gated on [`EngineConfig::cache_enabled`]).
    cache: SubPlanCache,
    /// Cross-query observed-cardinality store, consulted by the
    /// optimizer post-pass before trusting catalog estimates.
    feedback: FeedbackStore,
    /// Normalized-SQL plan cache: optimized plan templates keyed by
    /// query family (probing is gated on
    /// [`EngineConfig::plan_cache_enabled`]).
    plancache: PlanCache,
    /// Large-estimation-error counters per (table, column), driving
    /// the adaptive histogram refresh.
    hist_errors: Mutex<HashMap<(String, String), u32>>,
}

impl Engine {
    /// Build an engine (calibrating the optimizer for Equation 1).
    pub fn new(cfg: EngineConfig) -> Result<Engine> {
        cfg.validate()?;
        let clock = SimClock::new();
        let storage = Storage::new(&cfg, clock.clone());
        let catalog = Catalog::new();
        let optimizer = Optimizer::new(cfg.clone());
        let mm = MemoryManager::new(&cfg);
        let calibration = Arc::new(OptCalibration::run(&cfg, 6)?);
        let cache = SubPlanCache::with_shards(cfg.cache_budget_bytes as u64, CACHE_SHARDS);
        let plancache = PlanCache::new(cfg.plan_cache_entries);
        let engine = Engine {
            cfg,
            clock,
            storage,
            catalog,
            optimizer,
            mm,
            calibration,
            query_seq: AtomicU64::new(0),
            cleanup_failures: AtomicU64::new(0),
            manifests: ManifestStore::new(),
            stale_swept: AtomicU64::new(0),
            cache,
            feedback: FeedbackStore::new(),
            plancache,
            hist_errors: Mutex::new(HashMap::new()),
        };
        // Startup invariant: no stale re-optimizer leftovers survive an
        // engine (re)start. Vacuous on a fresh catalog, but loaders that
        // restore a snapshot with crash debris start clean.
        engine.sweep_stale_temps();
        Ok(engine)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Override the configuration (e.g. per-experiment knobs). Takes
    /// effect for subsequent queries.
    pub fn set_config(&mut self, cfg: EngineConfig) -> Result<()> {
        cfg.validate()?;
        self.optimizer = Optimizer::new(cfg.clone());
        self.mm = MemoryManager::new(&cfg);
        // A shrunk cache budget evicts immediately; entries survive a
        // disable (probing just stops) so a re-enable starts warm.
        for e in self.cache.set_budget(cfg.cache_budget_bytes as u64) {
            self.retire_cache_entry(e);
        }
        // Same policy for the plan cache: a shrunk capacity evicts
        // immediately, a disable keeps entries for a warm re-enable.
        for key in self.plancache.set_capacity(cfg.plan_cache_entries) {
            mq_obs::emit(|| ObsEvent::PlanCacheEvict { key: key.clone() });
        }
        self.cfg = cfg;
        Ok(())
    }

    /// Shared storage handle (loaders use this).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Shared catalog handle.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Fresh query id (used to keep temp-table names unique across
    /// concurrently running queries).
    pub fn next_query_id(&self) -> u64 {
        self.query_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The default per-job environment: the engine-wide clock and
    /// memory manager, no interrupts, and a unique temp prefix.
    pub fn default_env(&self) -> JobEnv {
        let query_id = self.next_query_id();
        JobEnv {
            query_id,
            clock: self.clock.clone(),
            mm: self.mm.clone(),
            cancel: None,
            deadline_ms: None,
            temp_prefix: format!("tmp_reopt_q{query_id}_"),
            fault: None,
            obs: None,
            par: None,
        }
    }

    /// The engine's checkpoint-manifest store. A query id listed in
    /// [`ManifestStore::open_queries`] after its job returned
    /// [`MqError::Crash`] is recoverable via [`Engine::recover`].
    pub fn manifests(&self) -> &ManifestStore {
        &self.manifests
    }

    /// Audit the engine's shared state for resource leaks. Only
    /// meaningful at quiescence — while queries run, pins, temp tables
    /// and not-yet-reclaimed pages are all legitimately non-zero.
    pub fn audit(&self) -> AuditReport {
        let known_cache = self.cache.known_tables();
        AuditReport {
            leaked_temp_tables: self
                .catalog
                .table_names()
                .into_iter()
                .filter(|n| n.starts_with("tmp_reopt_"))
                .collect(),
            orphan_cache_tables: self
                .catalog
                .table_names()
                .into_iter()
                .filter(|n| n.starts_with("cache_") && !known_cache.contains(n))
                .collect(),
            orphan_pages: self.storage.orphan_pages(),
            pinned_frames: self.storage.pool().pinned(),
            cleanup_failures: self.cleanup_failures.load(Ordering::Relaxed),
            stale_swept: self.stale_swept.load(Ordering::Relaxed),
        }
    }

    /// Cleanup operations that failed since engine start.
    pub fn cleanup_failure_count(&self) -> u64 {
        self.cleanup_failures.load(Ordering::Relaxed)
    }

    /// The cross-query sub-plan materialization cache.
    pub fn cache(&self) -> &SubPlanCache {
        &self.cache
    }

    /// The cross-query cardinality feedback store.
    pub fn feedback(&self) -> &FeedbackStore {
        &self.feedback
    }

    /// Snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The normalized-SQL plan cache.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plancache
    }

    /// Snapshot of the plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plancache.stats()
    }

    /// Drop every cached plan template (counters survive) and reset
    /// the adaptive histogram-refresh error counters.
    pub fn clear_plan_cache(&self) {
        self.plancache.clear();
        self.hist_errors.lock().clear();
    }

    /// Drop every cache entry (and its backing table and file) and
    /// forget all cardinality feedback. Entries pinned by in-flight
    /// queries are marked dead and reclaimed when those queries finish;
    /// at quiescence the catalog holds no `cache_*` table afterwards.
    pub fn clear_cache(&self) {
        for e in self.cache.clear() {
            self.retire_cache_entry(e);
        }
        self.reclaim_dead_cache();
        self.feedback.clear();
    }

    /// Invalidate cache entries and feedback derived from `table` at an
    /// older data version. Probe-time validation already guarantees no
    /// stale entry is ever served; this eagerly reclaims the space.
    /// Call after writing to a base table.
    pub fn invalidate_cache_for(&self, table: &str) {
        let Some(version) = self.catalog.data_version(table) else {
            return;
        };
        for e in self.cache.invalidate_table(table, version) {
            self.retire_cache_entry(e);
        }
        self.feedback.invalidate_table(table, version);
    }

    /// Drop `cache_*` catalog tables no cache entry knows about —
    /// debris of a crash between cache-table registration and cache
    /// admission. Like the audit, only meaningful at quiescence.
    /// Returns the number of tables swept.
    pub fn sweep_cache_orphans(&self) -> u64 {
        let known = self.cache.known_tables();
        let mut swept = 0u64;
        for name in self.catalog.table_names() {
            if name.starts_with("cache_") && !known.contains(&name) {
                self.drop_temp(&name);
                swept += 1;
            }
        }
        self.stale_swept.fetch_add(swept, Ordering::Relaxed);
        swept
    }

    /// Retire dead (invalidated-while-pinned) entries whose last pin
    /// has dropped, reclaiming their tables and files.
    fn reclaim_dead_cache(&self) {
        for e in self.cache.drain_dead() {
            self.retire_cache_entry(e);
        }
    }

    /// Drop a retired cache entry's table and file and trace the
    /// retirement.
    fn retire_cache_entry(&self, e: CacheEntry) {
        mq_obs::emit(|| ObsEvent::CacheEvict {
            fingerprint: e.fingerprint,
            table: e.table.clone(),
            bytes: e.bytes,
        });
        self.drop_temp(&e.table);
    }

    /// Run one query — the §2.6 loop. Each attempt runs the ordered
    /// plan passes and executes the plan; the segment-outcome handler
    /// then finishes the query, re-plans the remainder after a plan
    /// switch, or re-runs the segment after a transient fault.
    ///
    /// `req.env` decides where the work is charged and how the job can
    /// be interrupted: under the concurrent runtime `env.clock` is a
    /// child of the engine clock (scoped onto this thread so
    /// shared-component charges are attributed to the job), `env.mm`
    /// is lease-backed by the global memory broker, and cancel/deadline
    /// make the job interruptible at segment boundaries.
    pub fn execute(&self, req: ExecRequest<'_>) -> Result<QueryOutcome> {
        let ExecRequest {
            logical,
            mode,
            env,
            source,
        } = req;
        let mut plan_cache = self.consult_plan_cache(source);
        // While this job runs on this thread, charges made against the
        // engine-wide clock (by shared Storage / the buffer pool) are
        // also attributed to the job clock — exactly once each.
        let _scope = env.clock.enter_scope();
        // Likewise the fault schedule: scoped onto this thread so the
        // storage/memory layers consult it without plumbing. Counters
        // live in the injector (shared across scopes), so a segment
        // retry continues the schedule past the fault it just absorbed.
        let _fault_scope = env.fault.as_ref().map(FaultInjector::enter_scope);
        // Observability scope: events emitted anywhere below (broker
        // grants, executor spills, controller decisions) flow to this
        // job's sink and metrics registry. Inactive handles are skipped
        // so an outer scope the caller installed keeps receiving the
        // events instead of being shadowed by a no-op.
        let _obs_scope = env
            .obs
            .as_ref()
            .filter(|o| o.is_active())
            .map(mq_obs::Obs::enter_scope);
        mq_obs::emit(|| ObsEvent::QueryStart { mode: mode.name() });
        let meter = Meter::start(&env.clock);
        let mut ctx = ExecContext::new(self.storage.clone(), env.clock.clone(), self.cfg.clone())
            .with_interrupts(env.cancel.clone(), env.deadline_ms);
        // Per-operator cpu/io profiling costs two clock snapshots per
        // operator call; only pay it when a sink is listening.
        ctx.profile_detail = mq_obs::sink_active();
        // Tag every temp file this job creates with its temp prefix —
        // the simulated per-query scratch directory. After a crash,
        // recovery finds the abandoned partial outputs by this tag.
        ctx.scratch_tag = Some(env.temp_prefix.clone());
        let controller = Rc::new(ReoptController::new(
            mode,
            self.cfg.clone(),
            self.catalog.clone(),
            self.storage.clone(),
            self.optimizer.clone(),
            Arc::clone(&self.calibration),
            env.mm.clone(),
            env.clock.clone(),
            ctx.share_grants(),
            env.temp_prefix.clone(),
        ));
        let ctx = if mode.collects() {
            ctx.with_monitor(controller.clone())
        } else {
            ctx
        };
        // Open the checkpoint manifest before any segment can complete.
        // On a recovery resume this rolls the generation over instead
        // (the salvaged temp tables become the protected set).
        self.manifests
            .begin(env.query_id, logical.clone(), mode, env.temp_prefix.clone());
        let mut q = QueryRun {
            mode,
            env,
            ctx: &ctx,
            controller,
            guard: CleanupGuard::new(self, &ctx),
            cache_pins: Vec::new(),
            promotions: Vec::new(),
            meter,
            attempt: 0,
            segment_retries: 0,
            completed_segments: 0,
        };
        let mut current = logical.clone();
        let result = loop {
            // The probe verdict applies to the first attempt only: a
            // plan-switch remainder is a different logical query.
            let plan = match self.plan_attempt(&mut q, &current, plan_cache.take()) {
                Ok(plan) => plan,
                Err(e) => break Err(e),
            };
            let run = self.run_segment(&mut q, &plan);
            match self.on_segment_outcome(&mut q, plan, run) {
                Ok(Step::Done(outcome)) => break Ok(*outcome),
                Ok(Step::Replan(remainder)) => current = remainder,
                Ok(Step::Retry) => {}
                Err(e) => break Err(e),
            }
        };
        self.finish_query(q, result)
    }

    /// Probe the plan cache for the request's family. The freshness
    /// closure encodes the staleness policy: a dependency table whose
    /// data version moved, or feedback corrections against the
    /// template's fingerprints accumulating past
    /// [`PLAN_CACHE_STALENESS`], drop the entry so the caller's full
    /// re-optimization re-enters it. `None` when the cache is off, the
    /// query came as a plan, or its text does not normalize.
    fn consult_plan_cache(&self, source: PlanSource<'_>) -> Option<PlanCacheAction> {
        if !self.cfg.plan_cache_enabled {
            return None;
        }
        let (norm, sql) = match source {
            PlanSource::Plan => return None,
            PlanSource::Sql(sql) => (normalize(sql)?, sql),
            PlanSource::Prepared { sql, norm } => (norm.clone(), sql),
        };
        let probe = self.plancache.probe(&norm, |e| {
            if !e
                .deps
                .iter()
                .all(|(t, v)| self.catalog.data_version(t) == Some(*v))
            {
                Freshness::StaleWrite
            } else if self
                .feedback
                .applied_sum(&e.fingerprints)
                .saturating_sub(e.applied_at)
                >= PLAN_CACHE_STALENESS
            {
                Freshness::StaleFeedback
            } else {
                Freshness::Fresh
            }
        });
        let stale = match probe {
            mq_plancache::PlanProbe::Hit(plan, saved_work) => {
                return Some(PlanCacheAction::Hit { plan, saved_work })
            }
            mq_plancache::PlanProbe::Stale(Freshness::StaleWrite) => Some("write"),
            mq_plancache::PlanProbe::Stale(_) => Some("feedback"),
            mq_plancache::PlanProbe::Miss => None,
        };
        Some(PlanCacheAction::Enter {
            norm,
            sql: sql.to_string(),
            stale,
        })
    }

    /// The ordered plan passes of one attempt: plan-cache hit or
    /// optimization (with the feedback post-pass and template entry),
    /// materialization-cache splice, collector insertion,
    /// parallelization, memory allocation and recosting.
    fn plan_attempt(
        &self,
        q: &mut QueryRun<'_>,
        logical: &LogicalPlan,
        plan_cache: Option<PlanCacheAction>,
    ) -> Result<PhysPlan> {
        let mut plan = match plan_cache {
            Some(PlanCacheAction::Hit { plan, saved_work }) => {
                // Warm family: the rebound template replaces the whole
                // optimize step. No optimizer work is charged —
                // skipping enumeration is the point.
                q.controller.record(ObsEvent::PlanCacheHit { saved_work });
                *plan
            }
            action => {
                let opt = self.optimize(logical)?;
                q.env.clock.add_opt_work(opt.work_units);
                let mut plan = opt.plan;
                if self.cfg.cache_enabled {
                    for h in &opt.feedback_hits {
                        self.note_feedback_applied(
                            &q.controller,
                            Some(&h.table),
                            h.fingerprint,
                            h.estimated_rows,
                            h.observed_rows,
                        );
                    }
                    // Repeated large errors against one base-table
                    // column mean the histogram itself is wrong —
                    // rebuild just that column instead of patching
                    // around it per fingerprint forever.
                    self.maybe_refresh_histograms(&opt.feedback_hits, &q.controller);
                    // Post-pass for sub-trees the graph override
                    // cannot reach (joins observed by collectors),
                    // before collectors, which would otherwise
                    // decorate sub-trees a later splice removes.
                    self.consult_feedback(&mut plan, &q.controller);
                }
                // Capture the template *after* the feedback post-pass
                // (so the cached estimates start from truth) but
                // *before* the materialization-cache splice and
                // collector insertion, which decorate the plan with
                // query-local state.
                if let Some(PlanCacheAction::Enter { norm, sql, stale }) = action {
                    self.enter_plan_cache(&plan, &norm, &sql, stale, opt.work_units, &q.controller);
                }
                plan
            }
        };
        if self.cfg.cache_enabled {
            self.probe_cache(&mut plan, &mut q.cache_pins, &q.controller);
        }
        if q.mode.collects() {
            insert_collectors(&mut plan, &self.catalog, &self.cfg)?;
        }
        // Parallelize after collector insertion (exchanges go above
        // collectors, which then run per bucket in capture mode) and
        // before allocation/recost, so grants and costs see the final
        // node ids.
        if let Some(par) = &q.env.par {
            parallelize(&mut plan, par)?;
        }
        q.env.mm.allocate(&mut plan, &self.cfg)?;
        recost(&mut plan, &self.cfg);
        Ok(plan)
    }

    /// Optimize `logical`. With the cache on, the feedback store steers
    /// planning itself: observed base-relation cardinalities enter the
    /// join enumeration, so a repeated query family gets the join order
    /// the first run had to discover mid-query.
    fn optimize(&self, logical: &LogicalPlan) -> Result<Optimized> {
        let use_feedback = self.cfg.cache_enabled && !self.feedback.is_empty();
        self.optimizer.optimize_with_feedback(
            logical,
            &self.catalog,
            &self.storage,
            use_feedback.then_some(&EngineFeedback(self) as &dyn CardFeedback),
        )
    }

    /// Start one attempt of `plan` and execute it until the segment
    /// ends: with the final rows, a plan switch, or an error.
    fn run_segment(
        &self,
        q: &mut QueryRun<'_>,
        plan: &PhysPlan,
    ) -> Result<(Vec<Row>, Option<ParReport>)> {
        q.controller.begin_attempt(plan.clone());
        q.attempt += 1;
        let attempt = q.attempt;
        mq_obs::emit(|| {
            let mut nodes = 0u64;
            plan.walk(&mut |_| nodes += 1);
            ObsEvent::SegmentStart {
                attempt,
                plan_nodes: nodes,
            }
        });
        // The actuals of an abandoned attempt describe nodes of an
        // abandoned plan; the final attempt starts from scratch.
        q.ctx.reset_actuals();
        match &q.env.par {
            Some(par) => run_partitioned(plan, q.ctx, par, &self.cfg)
                .map(|(rows, report)| (rows, Some(report))),
            None => run_to_vec(plan, q.ctx).map(|rows| (rows, None)),
        }
    }

    /// The segment-outcome handler. Finished rows become the query's
    /// outcome; a plan switch materializes the cut and hands back the
    /// remainder; an error — a failed switch included — re-runs the
    /// segment when it is a transient fault with retry budget left, and
    /// ends the query otherwise.
    fn on_segment_outcome(
        &self,
        q: &mut QueryRun<'_>,
        plan: PhysPlan,
        run: Result<(Vec<Row>, Option<ParReport>)>,
    ) -> Result<Step> {
        let attempt = q.attempt;
        let segment_end = |outcome| mq_obs::emit(|| ObsEvent::SegmentEnd { attempt, outcome });
        let err = match run {
            Ok((rows, par)) => {
                segment_end(SegmentOutcome::Done);
                let (cost, time_ms) = q.meter.elapsed(&q.env.clock, &self.cfg);
                let (memory_reallocs, collector_reports) = q.controller.counters();
                return Ok(Step::Done(Box::new(QueryOutcome {
                    rows,
                    cost,
                    time_ms,
                    mode: q.mode,
                    plan_switches: q.controller.switches(),
                    segment_retries: q.segment_retries,
                    memory_reallocs,
                    collector_reports,
                    events: q.controller.take_events(),
                    final_plan: plan,
                    actuals: q.ctx.take_actuals(),
                    par,
                })));
            }
            Err(MqError::PlanSwitch(raw)) => {
                segment_end(SegmentOutcome::PlanSwitch);
                match self.switch_plan(q, &plan, NodeId(raw)) {
                    Ok(remainder) => return Ok(Step::Replan(remainder)),
                    Err(e) => e,
                }
            }
            Err(e) => {
                segment_end(SegmentOutcome::Error);
                e
            }
        };
        if !err.is_transient() || q.segment_retries >= TRANSIENT_RETRY_LIMIT {
            return Err(err);
        }
        self.prepare_segment_retry(q, &err);
        // The remainder is unchanged: the segment re-runs from its
        // already-materialized inputs (the temp tables the guard still
        // holds).
        Ok(Step::Retry)
    }

    /// The plan-switch half of the segment-outcome handler: finish the
    /// cut subtree into its temp table, swap the controller's
    /// placeholder for it (with the exact statistics observed while
    /// writing it), checkpoint the segment and return the remainder.
    /// The build artifact survived the unwind, so only the probe phase
    /// (plus the write) is paid here — the paper's "finish execution of
    /// the last operator and write the result to a temporary file".
    fn switch_plan(
        &self,
        q: &mut QueryRun<'_>,
        plan: &PhysPlan,
        cut: NodeId,
    ) -> Result<LogicalPlan> {
        let Some(pending) = q.controller.take_pending() else {
            return Err(MqError::Internal(
                "plan switch without pending decision".into(),
            ));
        };
        debug_assert_eq!(pending.cut, cut);
        q.controller.set_suppressed(true);
        let sub = plan.find(pending.cut);
        let mat = match sub {
            Some(sub) => materialize(sub, q.ctx),
            None => Err(MqError::Internal("cut not in plan".into())),
        };
        q.controller.set_suppressed(false);
        let mat = match mat {
            Ok(mat) => mat,
            // Killed mid-materialization: the placeholder table and the
            // partial (still scratch-tagged) output stay behind for
            // recovery to sweep — a real kill cleans up nothing either.
            Err(e @ MqError::Crash(_)) => return Err(e),
            Err(e) => {
                // The controller registered a placeholder for the temp
                // table; it must not survive a failed materialization.
                q.guard.drop_now(&pending.temp_name);
                return Err(e);
            }
        };

        // Swap the placeholder for the real file + stats.
        let (rows, pages, bytes) = (mat.stats.rows, mat.stats.pages, mat.stats.bytes() as u64);
        let schema = mat.schema.clone();
        let placeholder = self.catalog.drop_table(&pending.temp_name)?;
        let _ = self.storage.drop_file(placeholder.file);
        self.catalog
            .register_materialized(&pending.temp_name, mat.file, mat.schema, mat.stats)?;
        q.guard.track(pending.temp_name.clone());
        // The catalog owns the materialized file now.
        q.ctx.forget_temp_file(mat.file);

        // Data before manifest: only now that the temp table is fully
        // written *and* registered does the segment get its completion
        // record. A crash between the two leaves at worst an
        // unrecorded, sweepable table.
        q.completed_segments += 1;
        self.manifests.append(
            q.env.query_id,
            CheckpointRecord {
                segment: q.completed_segments,
                temp_table: pending.temp_name.clone(),
                rows,
                fingerprint: mat.fingerprint,
                remainder_hash: plan_hash(&pending.remainder),
            },
            pending.remainder.clone(),
        );

        // Stage the fully-written temp for cross-query promotion (and
        // feed its exact cardinality back).
        if self.cfg.cache_enabled {
            if let Some(sub) = sub {
                self.stage_promotion(
                    &mut q.promotions,
                    sub,
                    &pending.temp_name,
                    schema,
                    rows,
                    pages,
                    bytes,
                );
            }
            // The abandoned attempt's completed collectors observed
            // true cardinalities *below* the cut (e.g. the mis-estimated
            // leaf that triggered the switch); harvest them before the
            // next attempt resets the controller's observations, or the
            // next planning of this family repeats the same leaf
            // mistake in a new join order.
            self.record_collector_feedback(plan, &q.controller, q.guard.temps());
        }

        // Stale per-attempt state.
        q.ctx.clear_artifacts();
        q.ctx.clear_grants();
        Ok(pending.remainder)
    }

    /// End of the §2.6 loop: promote the staged plan-switch temps,
    /// close the manifest, feed statistics back, clean up and emit the
    /// query-end event. A crash — in the loop or at the promotion kill
    /// point — is the one exit that cleans up nothing.
    fn finish_query(
        &self,
        q: QueryRun<'_>,
        mut result: Result<QueryOutcome>,
    ) -> Result<QueryOutcome> {
        let QueryRun {
            mode,
            env,
            controller,
            mut guard,
            cache_pins,
            promotions,
            meter,
            segment_retries,
            ..
        } = q;
        // Promote the staged plan-switch temps before closing the
        // manifest: a crash at the promotion kill point leaves the
        // manifest open (recoverable) plus at worst one orphan cache
        // table for [`Engine::sweep_cache_orphans`] — never a cache
        // entry without its table.
        if result.is_ok() && self.cfg.cache_enabled {
            if let Err(e @ MqError::Crash(_)) =
                self.finalize_promotions(env.query_id, promotions, &mut guard)
            {
                result = Err(e);
            }
        }
        if let Err(MqError::Crash(cause)) = &result {
            // Simulated `kill -9`: abandon all in-flight state exactly
            // as a dying process would. The guard is *forgotten*, not
            // dropped — artifacts, scratch files and materialized temp
            // tables stay behind — and the manifest stays open so
            // [`Engine::recover`] can salvage the completed segments.
            mq_obs::emit(|| ObsEvent::CrashInjected {
                query_id: env.query_id,
                cause: cause.clone(),
            });
            std::mem::forget(guard);
            return result;
        }
        self.manifests.remove(env.query_id);
        if let Ok(outcome) = &result {
            if self.cfg.stats_feedback && mode.collects() {
                self.apply_stats_feedback(&outcome.final_plan, &controller, guard.temps());
            }
            if self.cfg.cache_enabled && mode.collects() {
                self.record_collector_feedback(&outcome.final_plan, &controller, guard.temps());
            }
        }
        // Cleanup runs (and emits its event) before the query-end
        // marker so a trace reads in causal order.
        drop(guard);
        // Pins released only now that the final attempt is done; then
        // retire anything invalidated while we held it alive.
        drop(cache_pins);
        self.reclaim_dead_cache();
        self.emit_query_end(&result, &env, &meter, &controller, segment_retries);
        result
    }

    /// Emit the end-of-query trace event and fold the final attempt's
    /// per-operator actuals into the scoped metrics registry. No-op
    /// when no observability scope is active.
    fn emit_query_end(
        &self,
        result: &Result<QueryOutcome>,
        env: &JobEnv,
        meter: &Meter,
        controller: &ReoptController,
        segment_retries: u32,
    ) {
        if !mq_obs::active() {
            return;
        }
        let (cost, sim_ms) = meter.elapsed(&env.clock, &self.cfg);
        let (memory_reallocs, collector_reports) = controller.counters();
        let (outcome_str, rows) = match result {
            Ok(o) => ("ok".to_string(), o.rows.len() as u64),
            Err(e) => (e.kind().to_string(), 0),
        };
        mq_obs::emit(|| ObsEvent::QueryEnd {
            outcome: outcome_str,
            rows,
            sim_ms,
            pages_read: cost.pages_read,
            pages_written: cost.pages_written,
            cpu_ops: cost.cpu_ops,
            opt_work: cost.opt_work,
            plan_switches: u64::from(controller.switches()),
            segment_retries: u64::from(segment_retries),
            memory_reallocs: u64::from(memory_reallocs),
            collector_reports: u64::from(collector_reports),
        });
        if let Ok(o) = result {
            mq_obs::with_metrics(|m| {
                o.final_plan.walk(&mut |n| {
                    let Some(a) = o.actuals.get(&n.id) else {
                        return;
                    };
                    let op = n.op.name();
                    let labels = [("op", op)];
                    m.inc(
                        "midq_operator_rows_total",
                        &labels,
                        mq_obs::Stability::Stable,
                        a.rows,
                    );
                    // cpu/io deltas depend on physical shared state
                    // (buffer-pool hits vary with interleaving).
                    m.inc(
                        "midq_operator_cpu_ops_total",
                        &labels,
                        mq_obs::Stability::Volatile,
                        a.cpu_ops,
                    );
                    m.inc(
                        "midq_operator_io_pages_total",
                        &labels,
                        mq_obs::Stability::Volatile,
                        a.io_pages,
                    );
                });
            });
        }
    }

    /// Reset per-attempt state for a segment retry and charge the
    /// exponential backoff (simulated) for it. Materialized temp tables
    /// survive — they are the restart point.
    fn prepare_segment_retry(&self, q: &mut QueryRun<'_>, cause: &MqError) {
        q.segment_retries += 1;
        let retry = q.segment_retries;
        q.controller.record(ObsEvent::SegmentRetry {
            retry,
            limit: TRANSIENT_RETRY_LIMIT,
            cause: cause.to_string(),
        });
        q.ctx.clear_artifacts();
        let _ = q.ctx.release_temp_files();
        q.ctx.clear_grants();
        q.env
            .clock
            .charge_backoff(&self.cfg, TRANSIENT_RETRY_BACKOFF_MS, retry);
    }

    /// Optimizer post-pass over the feedback store: re-stamp `est_rows`
    /// wherever a previous query observed this exact sub-plan's true
    /// cardinality, so the controller's divergence baseline starts from
    /// truth and repeated query families re-optimize less.
    fn consult_feedback(&self, plan: &mut PhysPlan, controller: &ReoptController) {
        if self.feedback.is_empty() {
            return;
        }
        for h in apply_feedback(plan, &EngineFeedback(self), &self.cfg) {
            self.note_feedback_applied(
                controller,
                None,
                h.fingerprint,
                h.estimated_rows,
                h.observed_rows,
            );
        }
    }

    /// Count one applied feedback correction toward the staleness of
    /// the templates that depend on it, and trace it. `table` names
    /// the base relation of a graph-level (pre-enumeration) override.
    fn note_feedback_applied(
        &self,
        controller: &ReoptController,
        table: Option<&str>,
        fingerprint: u64,
        estimated_rows: f64,
        observed_rows: f64,
    ) {
        self.feedback.note_applied_for(fingerprint);
        controller.record(ObsEvent::FeedbackApplied {
            fingerprint,
            estimated_rows,
            observed_rows,
            table: table.map(str::to_string),
        });
    }

    /// Enter a freshly optimized plan into the plan cache as the
    /// template for `norm`'s family, recording the dependencies and
    /// feedback baseline the staleness policy judges it by. Plans
    /// reading another query's temp or cache tables are not a pure
    /// function of base data and are skipped.
    fn enter_plan_cache(
        &self,
        plan: &PhysPlan,
        norm: &NormalizedQuery,
        sql: &str,
        stale: Option<&'static str>,
        work_units: u64,
        controller: &ReoptController,
    ) {
        // The probe already counted this run as a miss or stale drop;
        // emit the matching event before any early return below so the
        // event stream stays consistent with the probe-side counters
        // even when the plan turns out to be uncacheable.
        controller.record(match stale {
            Some(reason) => ObsEvent::PlanCacheStale { reason },
            None => ObsEvent::PlanCacheMiss,
        });
        controller.record(ObsEvent::PlanCacheAdmit {
            refused: self.admit_template(plan, norm, sql, work_units).err(),
        });
    }

    /// Capture `plan` as the template for `norm`'s family and admit it,
    /// recording dependencies, the feedback baseline and the
    /// representative SQL. `Err(reason)` when the plan is not a pure
    /// function of base data (reads temp or cache tables). Shared by
    /// the execution path ([`Engine::enter_plan_cache`]) and the warm-up
    /// paths (snapshot restore, [`Engine::prime_template`]).
    fn admit_template(
        &self,
        plan: &PhysPlan,
        norm: &NormalizedQuery,
        sql: &str,
        work_units: u64,
    ) -> std::result::Result<(), String> {
        let tables = base_tables(plan);
        let mut deps = Vec::with_capacity(tables.len());
        for t in tables {
            if t.starts_with("tmp_reopt_") || t.starts_with("cache_") {
                return Err(format!(
                    "{t} is query-local, plan is not a pure function of base data"
                ));
            }
            let Some(v) = self.catalog.data_version(&t) else {
                return Err(format!("{t} has no data version"));
            };
            deps.push((t, v));
        }
        let mut entry = CachedPlan::capture(plan, norm, work_units, deps, 0);
        entry.applied_at = self.feedback.applied_sum(&entry.fingerprints);
        entry.sql = Some(sql.to_string());
        for key in self.plancache.insert(&norm.key, entry) {
            mq_obs::emit(|| ObsEvent::PlanCacheEvict { key: key.clone() });
        }
        Ok(())
    }

    /// Pin a template for `sql`'s family without executing the query:
    /// parse, bind and optimize once (off any job clock — no query is
    /// charged) and admit the captured template. Returns `true` when a
    /// template was admitted, `false` when the statement is not
    /// normalizable, the cache is disabled, or a template is already
    /// present. `Database::prepare` pins templates through this, and
    /// snapshot restore replays persisted families through it — both
    /// make the *next* run of the family a hit with zero optimizer
    /// work.
    pub fn prime_template(&self, sql: &str) -> Result<bool> {
        if !self.cfg.plan_cache_enabled {
            return Ok(false);
        }
        let Some(norm) = normalize(sql) else {
            return Ok(false);
        };
        if self.plancache.contains(&norm.key) {
            return Ok(false);
        }
        let opt = self.optimize(&mq_sql::plan_sql(sql, &self.catalog)?)?;
        Ok(self
            .admit_template(&opt.plan, &norm, sql, opt.work_units)
            .is_ok())
    }

    /// Adaptive histogram refresh: when graph-level feedback hits keep
    /// showing large errors ([`HIST_REFRESH_ERROR_FACTOR`]) attributable
    /// to exactly one base-table predicate column, rebuild just that
    /// column's histogram (incremental MaxDiff) from live data and
    /// drop the per-fingerprint corrections it makes redundant.
    fn maybe_refresh_histograms(&self, hits: &[GraphFeedbackHit], controller: &ReoptController) {
        if !self.cfg.plan_cache_enabled || self.cfg.hist_refresh_hits == 0 {
            return;
        }
        for h in hits {
            // Only errors attributable to one column are actionable;
            // multi-column (or join-level) errors name no histogram.
            let [column] = h.columns.as_slice() else {
                continue;
            };
            let est = h.estimated_rows.max(1.0);
            let obs = h.observed_rows.max(1.0);
            let err = (obs / est).max(est / obs);
            if err < HIST_REFRESH_ERROR_FACTOR {
                continue;
            }
            let key = (h.table.clone(), column.clone());
            let count = {
                let mut m = self.hist_errors.lock();
                let c = m.entry(key.clone()).or_insert(0);
                *c += 1;
                *c
            };
            if count < self.cfg.hist_refresh_hits {
                continue;
            }
            self.hist_errors.lock().remove(&key);
            if self
                .catalog
                .analyze_column(
                    &self.storage,
                    &h.table,
                    column,
                    HistogramKind::MaxDiff,
                    HISTOGRAM_BUCKETS,
                    RESERVOIR_SIZE,
                    0xA11A,
                )
                .is_ok()
            {
                // The rebuilt histogram supersedes the stored
                // corrections for this table; keeping them would
                // double-apply the same evidence.
                self.feedback.remove_for_table(&h.table);
                controller.record(ObsEvent::HistogramRefresh {
                    table: h.table.clone(),
                    column: column.clone(),
                    error_factor: err,
                });
            }
        }
    }

    /// Probe the optimized plan top-down against the materialization
    /// cache and splice a [`PhysOp::CachedScan`] over every largest
    /// matching sub-tree. Pins pushed onto `pins` must outlive the
    /// execution of the (possibly re-optimized) plan.
    fn probe_cache(
        &self,
        plan: &mut PhysPlan,
        pins: &mut Vec<PinGuard>,
        controller: &ReoptController,
    ) {
        let mut probed = 0u64;
        let spliced = self.probe_rec(plan, pins, &mut probed, controller);
        if spliced > 0 {
            plan.assign_ids();
        } else if probed > 0 {
            self.cache.record_miss();
            controller.record(ObsEvent::CacheMiss { probed });
        }
    }

    fn probe_rec(
        &self,
        plan: &mut PhysPlan,
        pins: &mut Vec<PinGuard>,
        probed: &mut u64,
        controller: &ReoptController,
    ) -> u32 {
        // Every node is probe-worthy — a cut can sit directly above a
        // scan, so even leaf fingerprints may be cached. Spliced nodes
        // themselves are the one exception.
        if !matches!(plan.op, PhysOp::CachedScan { .. }) {
            *probed += 1;
            let fp = subplan_fingerprint(plan);
            if let Some(hit) = self.cache.lookup(fp) {
                let fresh = hit
                    .entry
                    .deps
                    .iter()
                    .all(|(t, v)| self.catalog.data_version(t) == Some(*v));
                if !fresh {
                    // A dep was written since promotion: retire the
                    // entry now (dead-until-unpinned if shared).
                    drop(hit.guard);
                    if let Some(e) = self.cache.invalidate(fp) {
                        self.retire_cache_entry(e);
                    }
                } else if let Some(mapping) = schema_permutation(&hit.entry.schema, &plan.schema) {
                    let e = &hit.entry;
                    controller.record(ObsEvent::CacheHit {
                        fingerprint: fp,
                        table: e.table.clone(),
                        rows: e.rows,
                        saved_ms: e.build_cost_ms,
                        saved_bytes: e.bytes,
                    });
                    let mut node = PhysPlan::new(
                        PhysOp::CachedScan {
                            spec: ScanSpec {
                                table: e.table.clone(),
                                file: e.file,
                                pages: e.pages,
                                rows: e.rows,
                            },
                            fingerprint: fp,
                        },
                        vec![],
                        e.schema.clone(),
                    );
                    node.annot.est_rows = e.rows as f64;
                    node.annot.est_row_bytes = if e.rows > 0 {
                        e.bytes as f64 / e.rows as f64
                    } else {
                        0.0
                    };
                    // The entry stores rows in *its* column order; a
                    // probed sub-tree produced by the opposite join
                    // orientation wants a permutation of it, which a
                    // projection restores.
                    if mapping.iter().enumerate().any(|(i, &s)| i != s) {
                        let exprs = plan
                            .schema
                            .fields()
                            .iter()
                            .zip(&mapping)
                            .map(|(f, &src)| {
                                (
                                    mq_expr::Expr::BoundColumn {
                                        index: src,
                                        name: f.qualified_name().into(),
                                    },
                                    f.qualified_name(),
                                )
                            })
                            .collect();
                        let mut proj = PhysPlan::new(
                            PhysOp::Project { exprs },
                            vec![node],
                            plan.schema.clone(),
                        );
                        proj.annot.est_rows = e.rows as f64;
                        proj.annot.est_row_bytes = proj.children[0].annot.est_row_bytes;
                        node = proj;
                    }
                    *plan = node;
                    pins.push(hit.guard);
                    return 1;
                }
                // Schema mismatch (fingerprint collision across
                // projections): treat as a plain miss.
            }
        }
        let mut spliced = 0;
        for c in &mut plan.children {
            spliced += self.probe_rec(c, pins, probed, controller);
        }
        spliced
    }

    /// Stage a fully-materialized plan-switch temp for promotion, and
    /// feed the cut's exact cardinality into the feedback store. Cuts
    /// reading another query's temp or cache table are not a pure
    /// function of base data and are skipped.
    #[allow(clippy::too_many_arguments)]
    fn stage_promotion(
        &self,
        promotions: &mut Vec<PendingPromotion>,
        sub: &PhysPlan,
        temp_name: &str,
        schema: Schema,
        rows: u64,
        pages: u64,
        bytes: u64,
    ) {
        let tables = base_tables(sub);
        if tables
            .iter()
            .any(|t| t.starts_with("tmp_reopt_") || t.starts_with("cache_"))
        {
            return;
        }
        let mut deps = Vec::with_capacity(tables.len());
        for t in tables {
            let Some(v) = self.catalog.data_version(&t) else {
                return;
            };
            deps.push((t, v));
        }
        let fp = subplan_fingerprint(sub);
        // Feedback rides along regardless of cache admission:
        // materializing the cut observed its exact output cardinality.
        self.feedback.record(fp, rows as f64, deps.clone());
        promotions.push(PendingPromotion {
            fingerprint: fp,
            temp_name: temp_name.to_string(),
            schema,
            rows,
            pages,
            bytes,
            build_cost_ms: sub.annot.est_total_time_ms,
            deps,
        });
    }

    /// Promote this query's staged temps into the cache: re-validate
    /// deps, re-register the temp's file under a `cache_*` name, then
    /// admit the entry. The catalog rename happens *before* admission
    /// (data before metadata): the only crash-window debris is an
    /// orphan cache table, which [`Engine::sweep_cache_orphans`]
    /// reclaims. Only [`MqError::Crash`] escapes; per-entry failures
    /// skip that entry.
    fn finalize_promotions(
        &self,
        query_id: u64,
        promotions: Vec<PendingPromotion>,
        guard: &mut CleanupGuard<'_>,
    ) -> Result<()> {
        for p in promotions {
            // A dep written mid-query makes the result already stale;
            // leave the temp to die with the guard.
            if p.deps
                .iter()
                .any(|(t, v)| self.catalog.data_version(t) != Some(*v))
            {
                continue;
            }
            let cache_name = format!("cache_q{query_id}_{:016x}", p.fingerprint);
            let Ok(entry) = self.catalog.drop_table(&p.temp_name) else {
                continue;
            };
            guard.untrack(&p.temp_name);
            let stats = entry.stats.unwrap_or_else(|| TableStats {
                rows: p.rows,
                pages: p.pages,
                avg_row_bytes: if p.rows > 0 {
                    p.bytes as f64 / p.rows as f64
                } else {
                    0.0
                },
                columns: HashMap::new(),
            });
            if self
                .catalog
                .register_materialized(&cache_name, entry.file, entry.schema, stats)
                .is_err()
            {
                // Unregistered file: reclaim it rather than leak it.
                let _ = self.storage.drop_file(entry.file);
                continue;
            }
            // Chaos kill point: table registered, entry not yet
            // admitted — the promotion either completes or leaves a
            // sweepable orphan, never a dangling cache entry.
            mq_common::fault::on_segment_boundary()?;
            let bytes = p.bytes.max(1);
            let cache_entry = CacheEntry {
                fingerprint: p.fingerprint,
                table: cache_name.clone(),
                file: entry.file,
                schema: p.schema,
                rows: p.rows,
                pages: p.pages,
                bytes,
                build_cost_ms: p.build_cost_ms,
                deps: p.deps,
            };
            let build_cost_ms = cache_entry.build_cost_ms;
            let rows = p.rows;
            let fingerprint = p.fingerprint;
            let retired = self.cache.insert(cache_entry);
            if !retired.iter().any(|e| e.table == cache_name) {
                mq_obs::emit(|| ObsEvent::CachePromote {
                    fingerprint,
                    table: cache_name.clone(),
                    rows,
                    bytes,
                    build_cost_ms,
                });
            }
            for e in retired {
                self.retire_cache_entry(e);
            }
        }
        Ok(())
    }

    /// Cross-query cardinality feedback: every collector that drained
    /// its input to exhaustion observed the exact output cardinality of
    /// the sub-plan below it. Key it by canonical fingerprint so the
    /// *next* query containing that sub-plan plans with truth. Sub-
    /// plans touching temp or cache tables are skipped (not pure
    /// functions of base data).
    fn record_collector_feedback(
        &self,
        plan: &PhysPlan,
        controller: &ReoptController,
        temp_tables: &[String],
    ) {
        let observations = controller.complete_observations();
        if observations.is_empty() {
            return;
        }
        plan.walk(&mut |node| {
            if !matches!(node.op, PhysOp::StatsCollector { .. }) {
                return;
            }
            let Some(child) = node.children.first() else {
                return;
            };
            let Some(obs) = observations.iter().find(|o| o.node == node.id) else {
                return;
            };
            let tables = base_tables(child);
            if tables.iter().any(|t| {
                t.starts_with("tmp_reopt_")
                    || t.starts_with("cache_")
                    || temp_tables.iter().any(|tt| tt == t)
            }) {
                return;
            }
            let mut deps = Vec::with_capacity(tables.len());
            for t in tables {
                let Some(v) = self.catalog.data_version(&t) else {
                    return;
                };
                deps.push((t, v));
            }
            self.feedback
                .record(subplan_fingerprint(child), obs.rows as f64, deps);
        });
    }

    /// §2.2 statistics feedback: a collector that drained the complete,
    /// unfiltered output of a base-table scan observed that table's
    /// true row count and column distributions — write them back so the
    /// next query plans against healed statistics. Filtered scans and
    /// early-stopped collectors are skipped (their observations describe
    /// a subset), as are the re-optimizer's own temp tables (about to be
    /// dropped).
    fn apply_stats_feedback(
        &self,
        plan: &PhysPlan,
        controller: &ReoptController,
        temp_tables: &[String],
    ) {
        let observations = controller.complete_observations();
        if observations.is_empty() {
            return;
        }
        plan.walk(&mut |node| {
            if !matches!(node.op, mq_plan::PhysOp::StatsCollector { .. }) {
                return;
            }
            let Some(child) = node.children.first() else {
                return;
            };
            let mq_plan::PhysOp::SeqScan { spec, filter: None } = &child.op else {
                return;
            };
            if temp_tables.iter().any(|t| t == &spec.table) {
                return;
            }
            let Some(obs) = observations.iter().find(|o| o.node == node.id) else {
                return;
            };
            // Collector specs use qualified names; catalog column stats
            // are keyed by bare name.
            let columns = obs
                .columns
                .iter()
                .map(|(k, v)| {
                    let bare = k.rsplit('.').next().unwrap_or(k).to_string();
                    (bare, v.clone())
                })
                .collect();
            let pages = self
                .storage
                .file_pages(spec.file)
                .unwrap_or(spec.pages as usize) as u64;
            let _ = self.catalog.apply_observed(
                &spec.table,
                obs.rows,
                pages,
                obs.avg_row_bytes,
                &columns,
            );
        });
    }

    /// Recover a crashed query by id: validate its checkpoint manifest
    /// against the surviving artifacts, sweep what did not survive
    /// intact, rebuild the remainder query over the salvaged temp
    /// tables (re-entering the optimizer with their exact checkpoint
    /// statistics) and resume execution to completion.
    ///
    /// Uses a default environment (engine clock, no interrupts); the
    /// runtime supplies its own via [`Engine::recover_with`].
    pub fn recover(&self, query_id: u64) -> Result<RecoveryReport> {
        let mut env = self.default_env();
        env.query_id = query_id;
        self.recover_with(query_id, env)
    }

    /// [`Engine::recover`] under an explicit job environment. The
    /// env's `temp_prefix` is overwritten with the recovery
    /// generation's prefix (`tmp_reopt_q<id>r<gen>_`), which can never
    /// collide with the crashed generation's names.
    ///
    /// Validation and sweep are charged to `env.clock` and run under
    /// the env's fault scope, so an injected crash *during recovery*
    /// propagates out with the manifest intact — the caller simply
    /// calls recover again. A crash during the resumed execution rolls
    /// the manifest generation instead; already-salvaged tables join
    /// the protected set and survive the next recovery's sweep.
    pub fn recover_with(&self, query_id: u64, mut env: JobEnv) -> Result<RecoveryReport> {
        let manifest = self.manifests.get(query_id).ok_or_else(|| {
            MqError::NotFound(format!("no open checkpoint manifest for query {query_id}"))
        })?;
        let generation = manifest.generation + 1;
        env.query_id = query_id;
        env.temp_prefix = format!("tmp_reopt_q{query_id}r{generation}_");
        let clock = env.clock.clone();
        let t0 = clock.snapshot();

        let salvage = {
            let _scope = env.clock.enter_scope();
            let _fault_scope = env.fault.as_ref().map(FaultInjector::enter_scope);
            let _obs_scope = env
                .obs
                .as_ref()
                .filter(|o| o.is_active())
                .map(mq_obs::Obs::enter_scope);
            mq_obs::emit(|| ObsEvent::RecoveryStarted {
                query_id,
                generation,
                manifest_records: manifest.records.len() as u64,
            });
            self.salvage_and_sweep(&manifest)
        };
        let salvage = salvage?;

        // Resume: re-enter the normal execution path with the last
        // valid remainder plan. `execute` rolls the manifest over to
        // the new generation and keeps checkpointing, so recovery is
        // itself crash-safe.
        let result = self.execute(ExecRequest {
            logical: &salvage.resume_plan,
            mode: manifest.mode,
            env,
            source: PlanSource::Plan,
        });
        match result {
            Ok(outcome) => {
                // The salvaged inputs (this and earlier generations)
                // are consumed; the resume's own temps and manifest
                // were already handled by `execute`.
                for name in salvage.salvaged_tables.iter().chain(&manifest.protected) {
                    self.drop_temp(name);
                }
                Ok(RecoveryReport {
                    outcome,
                    generation,
                    segments_salvaged: salvage.salvaged,
                    validated_rows: salvage.validated_rows,
                    swept_tables: salvage.swept_tables,
                    swept_files: salvage.swept_files,
                    recovery_ms: clock.snapshot().since(&t0).time_ms(&self.cfg),
                })
            }
            // Crashed again: everything stays for the next recovery.
            Err(e @ MqError::Crash(_)) => Err(e),
            Err(e) => {
                // Permanent failure: the query is dead, so the salvaged
                // capital is reclaimed too (the resume's guard cleaned
                // its own state and removed the manifest).
                for name in salvage.salvaged_tables.iter().chain(&manifest.protected) {
                    self.drop_temp(name);
                }
                Err(e)
            }
        }
    }

    /// Validate a crashed generation's checkpoint records in order and
    /// sweep everything of that generation that did not validate.
    ///
    /// A record is valid iff its temp table is still catalog-registered,
    /// the heap file holds exactly the recorded row count, a charged
    /// re-scan reproduces the recorded content fingerprint, and the
    /// stored remainder plan matches its recorded hash. Validation
    /// stops at the first failure — later segments' remainder plans
    /// reference the failed table, so only the longest valid prefix is
    /// salvageable.
    fn salvage_and_sweep(&self, manifest: &QueryManifest) -> Result<Salvage> {
        let mut salvaged = 0usize;
        let mut validated_rows = 0u64;
        'validate: for (i, rec) in manifest.records.iter().enumerate() {
            if plan_hash(&manifest.remainders[i]) != rec.remainder_hash {
                break;
            }
            let Ok(entry) = self.catalog.table(&rec.temp_table) else {
                break;
            };
            match self.storage.file_rows(entry.file) {
                Ok(rows) if rows == rec.rows => {}
                _ => break,
            }
            let mut fingerprint = 0u64;
            match self.storage.scan_file(entry.file) {
                Ok(scan) => {
                    for item in scan {
                        let Ok((_, row)) = item else { break 'validate };
                        fingerprint = fingerprint.wrapping_add(mq_exec::row_fingerprint(&row));
                        validated_rows += 1;
                    }
                }
                Err(_) => break,
            }
            if fingerprint != rec.fingerprint {
                break;
            }
            salvaged = i + 1;
        }
        let salvaged_tables: Vec<String> = manifest.records[..salvaged]
            .iter()
            .map(|r| r.temp_table.clone())
            .collect();
        mq_obs::emit(|| ObsEvent::SegmentsSalvaged {
            query_id: manifest.query_id,
            salvaged: salvaged as u64,
            validated_rows,
        });

        // Sweep the crashed generation's leftovers: every catalog
        // entry under its temp prefix that is not a salvaged record
        // (placeholders, invalidated checkpoints), then every scratch
        // file still carrying its tag (partial materializations,
        // abandoned spills). Protected tables belong to *earlier*
        // generations — different prefix — and are untouched by
        // construction.
        let mut swept_tables = 0u64;
        for name in self.catalog.table_names() {
            if !name.starts_with(&manifest.temp_prefix) {
                continue;
            }
            if salvaged_tables.iter().any(|t| t == &name) {
                continue;
            }
            self.drop_temp(&name);
            swept_tables += 1;
        }
        let mut swept_files = 0u64;
        for file in self.storage.files_with_tag(&manifest.temp_prefix) {
            if self.storage.drop_file(file).is_ok() {
                swept_files += 1;
            }
        }
        mq_obs::emit(|| ObsEvent::OrphansSwept {
            query_id: manifest.query_id,
            tables: swept_tables,
            files: swept_files,
        });

        let resume_plan = if salvaged > 0 {
            manifest.remainders[salvaged - 1].clone()
        } else {
            manifest.original.clone()
        };
        Ok(Salvage {
            salvaged: salvaged as u32,
            validated_rows,
            swept_tables,
            swept_files,
            resume_plan,
            salvaged_tables,
        })
    }

    /// Reclaim stale `tmp_reopt_*` leftovers: temp tables and tagged
    /// scratch files whose owning query has no open manifest — crash
    /// debris nobody will ever recover. Queries in flight or awaiting
    /// recovery keep an open manifest, so their state is never touched.
    /// Runs at engine startup and on demand; swept objects are counted
    /// on [`AuditReport::stale_swept`]. Returns (tables, files) swept.
    pub fn sweep_stale_temps(&self) -> (u64, u64) {
        let open: std::collections::HashSet<u64> =
            self.manifests.open_queries().into_iter().collect();
        let mut tables = 0u64;
        for name in self.catalog.table_names() {
            let Some(owner) = temp_owner(&name) else {
                continue;
            };
            if open.contains(&owner) {
                continue;
            }
            self.drop_temp(&name);
            tables += 1;
        }
        let mut files = 0u64;
        for (file, tag) in self.storage.tagged_files("tmp_reopt_") {
            let Some(owner) = temp_owner(&tag) else {
                continue;
            };
            if open.contains(&owner) {
                continue;
            }
            if self.storage.drop_file(file).is_ok() {
                files += 1;
            }
        }
        self.stale_swept
            .fetch_add(tables + files, Ordering::Relaxed);
        (tables, files)
    }

    /// Drop one re-optimizer temp table and its heap file. Failures are
    /// *counted and logged*, never swallowed: a survivor shows up in
    /// [`Engine::audit`] (as a leaked temp table or orphan pages) and
    /// in [`Engine::cleanup_failure_count`].
    fn drop_temp(&self, name: &str) {
        match self.catalog.drop_table(name) {
            Ok(entry) => {
                if let Err(e) = self.storage.drop_file(entry.file) {
                    self.cleanup_failures.fetch_add(1, Ordering::Relaxed);
                    eprintln!("cleanup: failed to drop file of temp table {name}: {e}");
                }
            }
            Err(e) => {
                self.cleanup_failures.fetch_add(1, Ordering::Relaxed);
                eprintln!("cleanup: failed to drop temp table {name}: {e}");
            }
        }
    }
}
