//! Workload specification: a batch of queries to run concurrently.

use mq_common::{CancelToken, FaultInjector};
use mq_plan::LogicalPlan;
use mq_reopt::ReoptMode;

/// How a workload query is specified: SQL text (parsed against the
/// shared catalog at dispatch time) or an already-bound logical plan.
#[derive(Debug, Clone)]
pub enum QuerySpec {
    /// SQL text, parsed when the query is dispatched.
    Sql(String),
    /// A pre-bound logical plan (e.g. from `mq_tpcd::queries`).
    Plan(LogicalPlan),
}

/// One query of a concurrent workload.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    /// Display label (query name, file line, ...).
    pub label: String,
    /// The query itself.
    pub spec: QuerySpec,
    /// Re-optimization mode to run under.
    pub mode: ReoptMode,
    /// Optional deadline in simulated milliseconds on the job's own
    /// clock (i.e. relative to query start).
    pub deadline_ms: Option<f64>,
    /// Optional cancellation token; cancel it from any thread to abort
    /// the query at its next segment boundary (or before admission).
    pub cancel: Option<CancelToken>,
    /// Optional deterministic fault schedule (chaos testing): scoped
    /// over admission and the whole query execution.
    pub fault: Option<FaultInjector>,
    /// Intra-query partition count: `Some(p)` runs the query through
    /// the partitioned driver with `p` simulated workers (admission
    /// then acquires `p` leases atomically). `None` falls back to the
    /// workload-level default, and serial execution if that is unset.
    pub partitions: Option<usize>,
}

impl WorkloadQuery {
    /// A SQL query.
    pub fn sql(label: impl Into<String>, sql: impl Into<String>) -> WorkloadQuery {
        WorkloadQuery {
            label: label.into(),
            spec: QuerySpec::Sql(sql.into()),
            mode: ReoptMode::Full,
            deadline_ms: None,
            cancel: None,
            fault: None,
            partitions: None,
        }
    }

    /// A pre-bound logical plan.
    pub fn plan(label: impl Into<String>, plan: LogicalPlan) -> WorkloadQuery {
        WorkloadQuery {
            label: label.into(),
            spec: QuerySpec::Plan(plan),
            mode: ReoptMode::Full,
            deadline_ms: None,
            cancel: None,
            fault: None,
            partitions: None,
        }
    }

    /// Set the re-optimization mode.
    pub fn with_mode(mut self, mode: ReoptMode) -> WorkloadQuery {
        self.mode = mode;
        self
    }

    /// Attach a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> WorkloadQuery {
        self.cancel = Some(token);
        self
    }

    /// Attach a deterministic fault schedule.
    pub fn with_faults(mut self, fault: FaultInjector) -> WorkloadQuery {
        self.fault = Some(fault);
        self
    }

    /// Run through the partitioned driver with `p` simulated workers.
    pub fn with_partitions(mut self, p: usize) -> WorkloadQuery {
        self.partitions = Some(p.max(1));
        self
    }
}

/// A batch of queries plus the degree of parallelism to run them with.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The queries, dispatched FIFO.
    pub queries: Vec<WorkloadQuery>,
    /// Worker threads (1 = serial execution through the same path).
    pub workers: usize,
    /// Global memory budget for the broker; `None` means
    /// `workers × query_memory_bytes` (every worker can hold a full
    /// per-query budget, so admission never throttles).
    pub global_memory_bytes: Option<usize>,
    /// Base observability handle for the run: each job gets a
    /// [`mq_obs::Obs::for_job`] restamp of it (shared sink, fresh
    /// per-job metrics registry; per-job snapshots are merged back into
    /// this handle's registry, when it carries one).
    pub obs: Option<mq_obs::Obs>,
    /// Default intra-query partition count applied to every query that
    /// does not set its own. `None` = serial execution.
    pub partitions: Option<usize>,
}

impl Workload {
    /// An empty workload with the given worker count.
    pub fn new(workers: usize) -> Workload {
        Workload {
            queries: Vec::new(),
            workers: workers.max(1),
            global_memory_bytes: None,
            obs: None,
            partitions: None,
        }
    }

    /// Append a query (builder style).
    pub fn query(mut self, q: WorkloadQuery) -> Workload {
        self.queries.push(q);
        self
    }

    /// Set an explicit global memory budget (builder style).
    pub fn with_global_memory(mut self, bytes: usize) -> Workload {
        self.global_memory_bytes = Some(bytes);
        self
    }

    /// Set the default intra-query partition count (builder style).
    pub fn with_partitions(mut self, p: usize) -> Workload {
        self.partitions = Some(p.max(1));
        self
    }
}
