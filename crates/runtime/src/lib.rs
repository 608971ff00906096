//! # mq-runtime — concurrent multi-query runtime
//!
//! The paper studies one query re-optimizing itself; this crate puts
//! many such queries on one engine at once and extends the §2.3 memory
//! story across them:
//!
//! * **Worker pool** — [`Runtime::run_workload`] executes a
//!   [`Workload`] on N OS threads over the *shared* storage, buffer
//!   pool and catalog of one [`Engine`]. Dispatch is FIFO; each worker
//!   pulls the next query when free.
//! * **Global memory broker** — per-query [`MemoryManager`] budgets
//!   stop being constants and become *leases* from a
//!   [`MemoryBroker`] with one global budget. Admission control is the
//!   broker's FIFO queue: a query whose minimum demand cannot be
//!   granted waits until running queries release memory. Mid-query
//!   re-allocation (including the §2.3 provisional-progress raises)
//!   asks the lease to grow, so cross-query memory movement is always
//!   brokered.
//! * **Interruption** — every job carries an optional
//!   [`CancelToken`] and simulated-ms deadline, checked at segment
//!   boundaries (completed blocking phases) and periodically during
//!   root-level drains, so even phase-less scan pipelines stop.
//! * **Cost attribution** — each job runs on a [`SimClock::child`] of
//!   the engine clock, scoped onto the worker thread for the duration
//!   of the job: charges made by shared components (the buffer pool
//!   charges the engine clock) are attributed to the running job *and*
//!   the global aggregate, each exactly once.
//!
//! [`Session`] is the interactive counterpart: a handle over the same
//! engine + broker that runs one query at a time with session-level
//! cost accounting and cancellation.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mq_common::{CancelToken, CostSnapshot, FaultInjector, MqError, Result, SimClock};
use mq_memory::{MemoryBroker, MemoryManager};
use mq_par::ParSpec;
use mq_plan::LogicalPlan;
use mq_reopt::{Engine, ExecRequest, JobEnv, PlanSource, QueryOutcome, ReoptMode};

mod report;
mod workload;

pub use report::{JobResult, WorkloadReport};
pub use workload::{QuerySpec, Workload, WorkloadQuery};

/// Maximum recovery attempts the runtime makes after an injected crash
/// (simulated process kill) before reporting the query as failed.
pub const RECOVERY_ATTEMPT_LIMIT: u32 = 3;

/// Simulated-clock backoff before the first recovery attempt, in
/// milliseconds; doubles on each further attempt. It models a process
/// restart, not an I/O hiccup, hence larger than the engine's
/// segment-retry backoff.
pub const RECOVERY_BACKOFF_MS: f64 = 50.0;

/// The minimum admission demand: the smallest budget
/// [`mq_common::EngineConfig::validate`] accepts (4 pages), so an
/// admitted query can always run, if slowly.
fn min_admission_bytes(cfg: &mq_common::EngineConfig) -> usize {
    4 * cfg.page_size
}

/// A concurrent multi-query runtime over one shared [`Engine`].
pub struct Runtime {
    engine: Arc<Engine>,
    broker: Arc<MemoryBroker>,
}

impl Runtime {
    /// A runtime with an explicit global memory budget.
    pub fn new(engine: Arc<Engine>, global_memory_bytes: usize) -> Runtime {
        Runtime {
            engine,
            broker: Arc::new(MemoryBroker::new(global_memory_bytes)),
        }
    }

    /// A runtime whose budget lets `workers` queries each hold a full
    /// per-query budget (admission never throttles).
    pub fn with_default_budget(engine: Arc<Engine>, workers: usize) -> Runtime {
        let budget = workers.max(1) * engine.config().query_memory_bytes;
        Runtime::new(engine, budget)
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The global memory broker.
    pub fn broker(&self) -> &MemoryBroker {
        &self.broker
    }

    /// Open an interactive session leasing from this runtime's broker.
    pub fn session(&self) -> Session {
        Session::new(Arc::clone(&self.engine), Arc::clone(&self.broker))
    }

    /// Run a workload on `workload.workers` threads.
    ///
    /// `workload.global_memory_bytes` — when set — overrides this
    /// runtime's broker for the duration of the run (a fresh broker
    /// with that budget); otherwise the runtime's broker is used, and
    /// its high-water mark carries across runs.
    pub fn run_workload(&self, workload: &Workload) -> WorkloadReport {
        let broker = match workload.global_memory_bytes {
            Some(bytes) => Arc::new(MemoryBroker::new(bytes)),
            None => Arc::clone(&self.broker),
        };
        let workers = workload.workers.max(1);
        let wall = Instant::now();

        let queue: parking_lot::Mutex<VecDeque<usize>> =
            parking_lot::Mutex::new((0..workload.queries.len()).collect());
        let results: parking_lot::Mutex<Vec<Option<JobResult>>> =
            parking_lot::Mutex::new((0..workload.queries.len()).map(|_| None).collect());
        let worker_sim_ms: parking_lot::Mutex<Vec<f64>> =
            parking_lot::Mutex::new(vec![0.0; workers]);
        let in_flight = AtomicUsize::new(0);
        let max_in_flight = AtomicUsize::new(0);

        std::thread::scope(|s| {
            for w in 0..workers {
                let queue = &queue;
                let results = &results;
                let worker_sim_ms = &worker_sim_ms;
                let in_flight = &in_flight;
                let max_in_flight = &max_in_flight;
                let broker = &broker;
                s.spawn(move || loop {
                    let Some(index) = queue.lock().pop_front() else {
                        break;
                    };
                    let q = &workload.queries[index];
                    let r = run_one(
                        &self.engine,
                        broker,
                        q,
                        workload.obs.as_ref(),
                        workload.partitions,
                        index,
                        w,
                        in_flight,
                        max_in_flight,
                    );
                    worker_sim_ms.lock()[w] += r.sim_ms;
                    results.lock()[index] = Some(r);
                });
            }
        });

        let results: Vec<JobResult> = results
            .into_inner()
            .into_iter()
            .map(|r| r.expect("every queued job produces a result"))
            .collect();
        let per_worker = worker_sim_ms.into_inner();
        let serial_sim_ms: f64 = per_worker.iter().sum();
        let makespan_sim_ms = per_worker.iter().cloned().fold(0.0, f64::max);
        WorkloadReport {
            results,
            workers,
            global_budget_bytes: broker.budget(),
            broker_high_water: broker.high_water(),
            max_in_flight: max_in_flight.load(Ordering::SeqCst),
            makespan_sim_ms,
            serial_sim_ms,
            wall_ms: wall.elapsed().as_secs_f64() * 1000.0,
        }
    }
}

/// In-flight gauges updated while a query holds its lease.
struct Gauges<'a> {
    in_flight: &'a AtomicUsize,
    max_in_flight: &'a AtomicUsize,
}

/// Per-job attribution and interruption: the job's child clock plus
/// its optional cancellation token and absolute simulated deadline.
struct JobCtl<'a> {
    clock: &'a SimClock,
    cancel: Option<&'a CancelToken>,
    deadline_ms: Option<f64>,
    /// Deterministic fault schedule for chaos testing; also active
    /// during admission (grant denials apply to the initial lease).
    fault: Option<&'a FaultInjector>,
    /// Observability handle, scoped over admission (so lease events
    /// are traced) and passed into the engine for the query body.
    obs: Option<&'a mq_obs::Obs>,
    /// Intra-query partition count; `None` = serial execution. With
    /// `Some(p)` admission atomically acquires one lease per simulated
    /// worker and the engine runs the partitioned driver.
    partitions: Option<usize>,
}

/// What [`run_admitted`] returns: the outcome plus admission and
/// crash-recovery accounting.
struct AdmittedRun {
    outcome: Result<QueryOutcome>,
    /// Bytes the broker had granted at (final) admission.
    granted: usize,
    /// Crash-recovery attempts made (crashed → recovering → done).
    recoveries: u32,
    /// Checkpointed segments salvaged across those attempts.
    segments_salvaged: u32,
}

/// Admit and run one query: acquire a lease (blocking FIFO admission),
/// run under a lease-backed memory manager, and — if the plan's
/// minimum demands exceed what a contended pool could grant — retry
/// once under a *full* per-query lease (waiting in the admission queue
/// until one is free). A second OOM is genuine: the plan needs more
/// than the per-query or global budget allows.
///
/// A job that dies of an injected crash ([`MqError::Crash`]) moves
/// through the crashed → recovering → done state machine: the runtime
/// charges a doubling simulated backoff, then asks the engine to
/// recover the query from its checkpoint manifest (salvaging completed
/// segments, sweeping orphans, resuming the remainder). The budget is
/// bounded by [`RECOVERY_ATTEMPT_LIMIT`]; a query still crashed after
/// the last attempt is reaped — manifest closed, debris swept — and
/// fails with the final crash error.
fn run_admitted(
    engine: &Engine,
    broker: &MemoryBroker,
    plan: &LogicalPlan,
    sql: Option<&str>,
    mode: ReoptMode,
    ctl: &JobCtl<'_>,
    gauges: Option<&Gauges<'_>>,
) -> AdmittedRun {
    let cfg = engine.config();
    let desired = cfg.query_memory_bytes;
    let mut min = min_admission_bytes(cfg);
    // Scope the fault schedule over admission too: injected grant
    // denials clamp the initial lease exactly like a mid-query denial.
    // (The engine re-enters the same injector for the query body —
    // nested scopes over shared counters compose.)
    let _fault_scope = ctl.fault.map(FaultInjector::enter_scope);
    // Scope observability over admission too: the broker's lease
    // acquire/deny events fire while this job waits in the queue. The
    // engine re-enters the same handle for the query body (nested
    // scopes over a shared sequence counter compose).
    let _obs_scope = ctl
        .obs
        .filter(|o| o.is_active())
        .map(mq_obs::Obs::enter_scope);
    let mut recoveries = 0u32;
    let mut segments_salvaged = 0u32;
    loop {
        // Partitioned jobs admit all-or-nothing: one lease per
        // simulated worker, granted atomically so two partitioned jobs
        // cannot deadlock each other holding half their workers. The
        // job's memory manager draws from the first lease (buckets are
        // time-multiplexed on the job thread); the rest model the
        // other workers' memory and are held for the query's duration.
        let (lease, _worker_leases) = match ctl.partitions {
            Some(p) if p > 1 => {
                let mut group = broker.acquire_group(p, min, desired);
                let first = group.remove(0);
                (first, group)
            }
            _ => (broker.acquire(min, desired), Vec::new()),
        };
        let granted = lease.granted();
        if let Some(g) = gauges {
            let cur = g.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            g.max_in_flight.fetch_max(cur, Ordering::SeqCst);
        }
        let query_id = engine.next_query_id();
        let mm = MemoryManager::with_lease(lease);
        let make_env = || JobEnv {
            query_id,
            clock: ctl.clock.clone(),
            mm: mm.clone(),
            cancel: ctl.cancel.cloned(),
            deadline_ms: ctl.deadline_ms,
            fault: ctl.fault.cloned(),
            obs: ctl.obs.cloned(),
            par: ctl.partitions.map(ParSpec::new),
        };
        // A query that arrived as SQL text probes the plan cache with
        // its normalized family key (plan-only queries have no text to
        // normalize and always take the ordinary path).
        let mut outcome = engine.execute(ExecRequest {
            logical: plan,
            mode,
            env: make_env(),
            source: sql.map_or(PlanSource::Plan, PlanSource::Sql),
        });
        // crashed → recovering → done. The job keeps its memory lease
        // across attempts (a recovering query does not re-queue for
        // admission), and each attempt charges a doubling simulated
        // backoff before the engine salvages and resumes.
        while matches!(outcome, Err(MqError::Crash(_))) && recoveries < RECOVERY_ATTEMPT_LIMIT {
            recoveries += 1;
            // The simulated analogue of waiting out a restart.
            ctl.clock
                .charge_backoff(cfg, RECOVERY_BACKOFF_MS, recoveries);
            match engine.recover_with(query_id, make_env()) {
                Ok(recovery) => {
                    segments_salvaged += recovery.segments_salvaged;
                    outcome = Ok(recovery.outcome);
                }
                Err(e) => outcome = Err(e),
            }
        }
        if matches!(outcome, Err(MqError::Crash(_))) {
            // Recovery budget exhausted: the query is dead. Reap its
            // manifest and sweep the debris so the engine stays clean —
            // the salvageable capital is lost, the leak is not.
            engine.manifests().remove(query_id);
            engine.sweep_stale_temps();
        }
        if let Some(g) = gauges {
            g.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        let full = desired.min(broker.budget());
        if matches!(outcome, Err(MqError::OutOfMemory(_))) && granted < full {
            min = desired;
            continue;
        }
        return AdmittedRun {
            outcome,
            granted,
            recoveries,
            segments_salvaged,
        };
    }
}

/// Execute one workload query on the calling thread.
#[allow(clippy::too_many_arguments)]
fn run_one(
    engine: &Engine,
    broker: &Arc<MemoryBroker>,
    q: &WorkloadQuery,
    base_obs: Option<&mq_obs::Obs>,
    default_partitions: Option<usize>,
    index: usize,
    worker: usize,
    in_flight: &AtomicUsize,
    max_in_flight: &AtomicUsize,
) -> JobResult {
    let cfg = engine.config();
    // A cancelled query should not occupy the admission queue.
    if let Some(token) = &q.cancel {
        if token.is_cancelled() {
            return JobResult {
                index,
                label: q.label.clone(),
                worker,
                sim_ms: 0.0,
                granted_bytes: 0,
                outcome: Err(MqError::Cancelled("cancelled before admission".into())),
                recoveries: 0,
                segments_salvaged: 0,
                metrics: mq_obs::MetricsSnapshot::default(),
            };
        }
    }
    // Per-job observability: same sink, span identity restamped to
    // this job, and a *fresh* metrics registry so the job's snapshot
    // is independent of scheduling (the chaos tests compare these
    // byte-for-byte across worker counts).
    let job_obs = base_obs.map(|o| {
        o.for_job(index as u64 + 1, &q.label)
            .with_metrics(mq_obs::MetricsRegistry::new())
    });
    let job_clock = engine.clock().child();
    let plan = match &q.spec {
        QuerySpec::Plan(plan) => Ok(plan.clone()),
        QuerySpec::Sql(sql) => mq_sql::plan_sql(sql, engine.catalog()),
    };
    let sql = match &q.spec {
        QuerySpec::Sql(sql) => Some(sql.as_str()),
        QuerySpec::Plan(_) => None,
    };
    let run = match plan {
        Ok(plan) => run_admitted(
            engine,
            broker,
            &plan,
            sql,
            q.mode,
            &JobCtl {
                clock: &job_clock,
                cancel: q.cancel.as_ref(),
                deadline_ms: q.deadline_ms,
                fault: q.fault.as_ref(),
                obs: job_obs.as_ref(),
                partitions: q.partitions.or(default_partitions),
            },
            Some(&Gauges {
                in_flight,
                max_in_flight,
            }),
        ),
        Err(e) => AdmittedRun {
            outcome: Err(e),
            granted: 0,
            recoveries: 0,
            segments_salvaged: 0,
        },
    };
    let metrics = match &job_obs {
        Some(o) => {
            let snap = o
                .metrics_registry()
                .expect("per-job registry attached above")
                .snapshot();
            // Merge into the workload-level registry, if the base
            // handle carries one.
            if let Some(base) = base_obs.and_then(mq_obs::Obs::metrics_registry) {
                base.absorb(&snap);
            }
            snap
        }
        None => mq_obs::MetricsSnapshot::default(),
    };
    JobResult {
        index,
        label: q.label.clone(),
        worker,
        sim_ms: job_clock.elapsed_ms(cfg),
        granted_bytes: run.granted,
        outcome: run.outcome,
        recoveries: run.recoveries,
        segments_salvaged: run.segments_salvaged,
        metrics,
    }
}

/// An interactive session: one query at a time over the shared engine,
/// leasing memory from the global broker per query, with session-level
/// cost accounting and cooperative cancellation.
pub struct Session {
    engine: Arc<Engine>,
    broker: Arc<MemoryBroker>,
    /// Child of the engine clock, accumulating across the session.
    clock: SimClock,
    cancel: CancelToken,
    /// Per-query deadline in simulated milliseconds, if set.
    deadline_ms: Option<f64>,
}

impl Session {
    /// Open a session over an engine and broker.
    pub fn new(engine: Arc<Engine>, broker: Arc<MemoryBroker>) -> Session {
        let clock = engine.clock().child();
        Session {
            engine,
            broker,
            clock,
            cancel: CancelToken::new(),
            deadline_ms: None,
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Set (or clear) a per-query deadline in simulated milliseconds.
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<f64>) {
        self.deadline_ms = deadline_ms;
    }

    /// Request cancellation of the in-flight (and any future) query.
    /// [`Session::reset_cancel`] re-arms the session afterwards.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Replace a fired cancellation token with a fresh one.
    pub fn reset_cancel(&mut self) {
        self.cancel = CancelToken::new();
    }

    /// Total simulated cost attributed to this session so far.
    pub fn cost(&self) -> CostSnapshot {
        self.clock.snapshot()
    }

    /// Total simulated milliseconds attributed to this session so far.
    pub fn sim_ms(&self) -> f64 {
        self.clock.elapsed_ms(self.engine.config())
    }

    /// Run a logical plan under the given mode.
    pub fn run(&self, plan: &LogicalPlan, mode: ReoptMode) -> Result<QueryOutcome> {
        self.run_inner(plan, None, mode)
    }

    /// Parse and run a SQL query under the given mode. The SQL text is
    /// threaded through to the engine so the plan cache can probe its
    /// normalized family key.
    pub fn run_sql(&self, sql: &str, mode: ReoptMode) -> Result<QueryOutcome> {
        let plan = mq_sql::plan_sql(sql, self.engine.catalog())?;
        self.run_inner(&plan, Some(sql), mode)
    }

    fn run_inner(
        &self,
        plan: &LogicalPlan,
        sql: Option<&str>,
        mode: ReoptMode,
    ) -> Result<QueryOutcome> {
        if self.cancel.is_cancelled() {
            return Err(MqError::Cancelled("session cancelled".into()));
        }
        let cfg = self.engine.config();
        // The session clock accumulates across queries, so a per-query
        // deadline becomes absolute against the current session time.
        let deadline_ms = self.deadline_ms.map(|d| self.clock.elapsed_ms(cfg) + d);
        run_admitted(
            &self.engine,
            &self.broker,
            plan,
            sql,
            mode,
            &JobCtl {
                clock: &self.clock,
                cancel: Some(&self.cancel),
                deadline_ms,
                fault: None,
                obs: None,
                partitions: None,
            },
            None,
        )
        .outcome
    }
}

#[cfg(test)]
mod tests;
