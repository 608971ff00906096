//! mq-obs: the observability spine of the engine.
//!
//! The paper's re-optimization machinery is driven entirely by runtime
//! evidence — collector operators observing statistics that contradict
//! the optimizer's estimates. This crate makes that evidence (and the
//! decisions taken on it) visible without perturbing execution:
//!
//! * a typed **event bus** ([`ObsEvent`], [`ObsSink`]) with a JSONL
//!   sink and thread-local span scoping in the style of
//!   `mq_common::fault`;
//! * a **metrics registry** ([`MetricsRegistry`]) with a deterministic
//!   snapshot, stable/volatile metric classes and Prometheus-text
//!   exposition;
//! * the JSON helpers trace consumers (tests, trace tooling) parse the
//!   JSONL trace with.
//!
//! # Scoping
//!
//! Instrumented code never holds a handle to a sink: it calls the free
//! functions ([`emit`], [`active`], [`sink_active`], [`with_metrics`])
//! which consult the innermost thread-local [`Obs`] scope — or no-op
//! when no scope is active, so an untraced query pays one thread-local
//! read per emission site. Crucially, nothing in this crate charges
//! the simulated clock: tracing cannot change a query's simulated
//! cost, which the overhead test asserts exactly (0% < the 2% budget).

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;

pub use event::{ObsEvent, ReoptVerdict, SegmentOutcome};
pub use json::{json_f64, json_raw, json_str, json_u64};
pub use metrics::{MetricsRegistry, MetricsSnapshot, Stability, INACCURACY_BUCKETS};
pub use sink::{JsonlSink, ObsSink, SpanInfo};

/// One observability context: an optional sink, an optional metrics
/// registry, and the span identity (job id + label) stamped on every
/// record. Cheap to clone; clones share the sink, registry and
/// sequence counter.
#[derive(Clone, Default)]
pub struct Obs {
    sink: Option<Arc<dyn ObsSink>>,
    metrics: Option<MetricsRegistry>,
    job: u64,
    label: Arc<str>,
    seq: Arc<AtomicU64>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("sink", &self.sink.is_some())
            .field("metrics", &self.metrics.is_some())
            .field("job", &self.job)
            .field("label", &self.label)
            .finish()
    }
}

impl Obs {
    /// An inactive context: emissions under its scope are dropped.
    pub fn none() -> Obs {
        Obs::default()
    }

    /// Attach an event sink.
    pub fn with_sink(mut self, sink: Arc<dyn ObsSink>) -> Obs {
        self.sink = Some(sink);
        self
    }

    /// Attach a metrics registry (events fold into it as they are
    /// emitted; see [`fold_event`]).
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Obs {
        self.metrics = Some(metrics);
        self
    }

    /// Re-stamp the span identity for one workload job. Resets the
    /// sequence counter: per-job sequences order records within a job.
    pub fn for_job(&self, job: u64, label: &str) -> Obs {
        Obs {
            sink: self.sink.clone(),
            metrics: self.metrics.clone(),
            job,
            label: Arc::from(label),
            seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Does emitting under this context do anything at all?
    pub fn is_active(&self) -> bool {
        self.sink.is_some() || self.metrics.is_some()
    }

    /// The attached metrics registry, if any.
    pub fn metrics_registry(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Emit one event through this context (regardless of scoping).
    pub fn emit(&self, ev: &ObsEvent) {
        if let Some(m) = &self.metrics {
            fold_event(m, ev);
        }
        if let Some(s) = &self.sink {
            let span = SpanInfo {
                job: self.job,
                label: self.label.clone(),
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
            };
            s.emit(&span, ev);
        }
    }

    /// Enter a scope: until the returned guard drops, the free
    /// functions on this thread route to this context.
    pub fn enter_scope(&self) -> ObsScope {
        OBS_SCOPE.with(|stack| stack.borrow_mut().push(self.clone()));
        ObsScope {
            _not_send: PhantomData,
        }
    }
}

thread_local! {
    static OBS_SCOPE: RefCell<Vec<Obs>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an observability scope (see [`Obs::enter_scope`]).
/// Deliberately `!Send`: a scope must pop on the thread it was pushed.
#[must_use = "the observability scope ends when this guard is dropped"]
pub struct ObsScope {
    _not_send: PhantomData<*const ()>,
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        OBS_SCOPE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

fn with_scoped<T>(default: T, f: impl FnOnce(&Obs) -> T) -> T {
    OBS_SCOPE.with(|stack| match stack.borrow().last() {
        Some(obs) => f(obs),
        None => default,
    })
}

/// Emit an event through the innermost scope. No-op without a scope.
/// Takes a closure so callers do not even build the event (or format
/// its strings) when nothing is listening.
pub fn emit(ev: impl FnOnce() -> ObsEvent) {
    with_scoped((), |obs| {
        if obs.is_active() {
            obs.emit(&ev());
        }
    });
}

/// Is an active (sink or metrics) scope installed on this thread?
pub fn active() -> bool {
    with_scoped(false, Obs::is_active)
}

/// Is a scope with an event *sink* installed? Used to gate detailed
/// per-operator profiling that is pointless without a trace consumer.
pub fn sink_active() -> bool {
    with_scoped(false, |obs| obs.sink.is_some())
}

/// Run `f` against the scoped metrics registry, if one is installed.
pub fn with_metrics(f: impl FnOnce(&MetricsRegistry)) {
    with_scoped((), |obs| {
        if let Some(m) = &obs.metrics {
            f(m);
        }
    });
}

/// Fold one event into the registry. Stability classes follow the
/// module docs of [`metrics`]: anything derived from logical execution
/// (rows, checkpoints, verdicts, retries, spills) is `Stable`;
/// anything touching shared physical state (page I/O, pool occupancy,
/// simulated timings) is `Volatile`.
pub fn fold_event(m: &MetricsRegistry, ev: &ObsEvent) {
    use Stability::{Stable, Volatile};
    match ev {
        ObsEvent::QueryStart { .. } => {}
        ObsEvent::SegmentStart { .. } => {
            m.inc("midq_segments_total", &[], Stable, 1);
        }
        ObsEvent::SegmentEnd { .. } => {}
        ObsEvent::Collector {
            inaccuracy,
            complete,
            ..
        } => {
            let c = if *complete { "true" } else { "false" };
            m.inc(
                "midq_collector_reports_total",
                &[("complete", c)],
                Stable,
                1,
            );
            if *complete {
                m.observe(
                    "midq_estimation_inaccuracy",
                    &[],
                    Stable,
                    &INACCURACY_BUCKETS,
                    *inaccuracy,
                );
            }
        }
        ObsEvent::Reopt { verdict, .. } => {
            m.inc(
                "midq_reopt_decisions_total",
                &[("verdict", verdict.as_str())],
                Stable,
                1,
            );
        }
        ObsEvent::GrantChange { .. } => {
            m.inc("midq_grant_changes_total", &[], Stable, 1);
        }
        ObsEvent::LeaseAcquire { granted_bytes, .. } => {
            m.inc("midq_lease_acquires_total", &[], Volatile, 1);
            m.gauge_max(
                "midq_lease_granted_bytes",
                &[],
                Volatile,
                *granted_bytes as f64,
            );
        }
        ObsEvent::LeaseGrow { granted_bytes, .. } => {
            m.inc("midq_lease_grows_total", &[], Volatile, 1);
            m.inc(
                "midq_lease_grow_granted_bytes_total",
                &[],
                Volatile,
                *granted_bytes,
            );
        }
        ObsEvent::LeaseDeny { site } => {
            m.inc("midq_lease_denials_total", &[("site", site)], Stable, 1);
        }
        ObsEvent::Spill {
            operator, bytes, ..
        } => {
            m.inc(
                "midq_spill_events_total",
                &[("operator", operator)],
                Stable,
                1,
            );
            m.inc("midq_spill_bytes_total", &[], Stable, *bytes);
        }
        ObsEvent::SegmentRetry { .. } => {
            m.inc("midq_segment_retries_total", &[], Stable, 1);
        }
        ObsEvent::Cleanup {
            temp_tables,
            temp_files,
            failures,
        } => {
            m.inc("midq_cleanup_temp_tables_total", &[], Stable, *temp_tables);
            m.inc("midq_cleanup_temp_files_total", &[], Stable, *temp_files);
            m.inc("midq_cleanup_failures_total", &[], Stable, *failures);
        }
        ObsEvent::Exchange { mode, rows, .. } => {
            // Rows through an exchange are a logical property of the
            // plan (the child's output), identical for any partition
            // count — stable. The stage count per mode is too, because
            // exchanges are inserted even at partitions=1.
            m.inc("midq_exchange_stages_total", &[("mode", mode)], Stable, 1);
            m.inc("midq_exchange_rows_total", &[("mode", mode)], Stable, *rows);
        }
        ObsEvent::SkewVerdict { action, .. } => {
            // Whether skew trips depends on the partition count, so
            // this cannot be part of the partition-invariant surface.
            m.inc(
                "midq_skew_verdicts_total",
                &[("action", action)],
                Volatile,
                1,
            );
        }
        ObsEvent::CrashInjected { .. } => {
            m.inc("midq_crashes_injected_total", &[], Stable, 1);
        }
        ObsEvent::RecoveryStarted { .. } => {
            m.inc("midq_recoveries_total", &[], Stable, 1);
        }
        ObsEvent::SegmentsSalvaged { salvaged, .. } => {
            m.inc("midq_segments_salvaged_total", &[], Stable, *salvaged);
        }
        ObsEvent::OrphansSwept { tables, files, .. } => {
            m.inc("midq_orphans_swept_tables_total", &[], Stable, *tables);
            m.inc("midq_orphans_swept_files_total", &[], Stable, *files);
        }
        // Cache traffic is a function of the workload's logical query
        // sequence (the cache is probed/promoted per query, not per
        // worker), so hits/misses/promotions and the bytes they save
        // are stable. Evictions depend on the byte budget the runtime
        // happened to lease — volatile.
        ObsEvent::CacheHit {
            saved_bytes, rows, ..
        } => {
            m.inc("midq_cache_hits_total", &[], Stable, 1);
            m.inc("midq_cache_rows_reused_total", &[], Stable, *rows);
            m.inc("midq_cache_bytes_saved_total", &[], Stable, *saved_bytes);
        }
        ObsEvent::CacheMiss { .. } => {
            m.inc("midq_cache_misses_total", &[], Stable, 1);
        }
        ObsEvent::CachePromote { bytes, .. } => {
            m.inc("midq_cache_promotions_total", &[], Stable, 1);
            m.inc("midq_cache_promoted_bytes_total", &[], Stable, *bytes);
        }
        ObsEvent::CacheEvict { bytes, .. } => {
            m.inc("midq_cache_evictions_total", &[], Volatile, 1);
            m.inc("midq_cache_evicted_bytes_total", &[], Volatile, *bytes);
        }
        ObsEvent::FeedbackApplied { .. } => {
            m.inc("midq_feedback_applied_total", &[], Stable, 1);
        }
        // Plan-cache traffic follows the logical query sequence (one
        // probe per SQL text, before any worker-dependent machinery),
        // so hits/misses/stale re-optimizations are stable. Evictions
        // depend on interleaving under capacity pressure, and the
        // histogram-refresh trigger counts feedback hits whose arrival
        // order is timing-dependent under concurrency — volatile.
        ObsEvent::PlanCacheHit { saved_work } => {
            m.inc("midq_plancache_hits_total", &[], Stable, 1);
            m.inc("midq_plancache_saved_work_total", &[], Stable, *saved_work);
        }
        ObsEvent::PlanCacheMiss => {
            m.inc("midq_plancache_misses_total", &[], Stable, 1);
        }
        ObsEvent::PlanCacheAdmit { .. } => {}
        ObsEvent::PlanCacheStale { reason } => {
            m.inc(
                "midq_plancache_reopts_total",
                &[("reason", reason)],
                Stable,
                1,
            );
        }
        ObsEvent::PlanCacheEvict { .. } => {
            m.inc("midq_plancache_evictions_total", &[], Volatile, 1);
        }
        ObsEvent::HistogramRefresh { .. } => {
            m.inc("midq_histogram_refresh_total", &[], Volatile, 1);
        }
        ObsEvent::QueryEnd {
            outcome,
            rows,
            sim_ms,
            pages_read,
            pages_written,
            cpu_ops,
            opt_work,
            plan_switches,
            memory_reallocs,
            ..
        } => {
            m.inc("midq_queries_total", &[("outcome", outcome)], Stable, 1);
            m.inc("midq_rows_out_total", &[], Stable, *rows);
            m.inc("midq_plan_switches_total", &[], Stable, *plan_switches);
            m.inc("midq_memory_reallocs_total", &[], Stable, *memory_reallocs);
            m.inc("midq_pages_read_total", &[], Volatile, *pages_read);
            m.inc("midq_pages_written_total", &[], Volatile, *pages_written);
            m.inc("midq_cpu_ops_total", &[], Volatile, *cpu_ops);
            m.inc("midq_opt_work_total", &[], Volatile, *opt_work);
            m.gauge_max("midq_query_sim_ms_max", &[], Volatile, *sim_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_scope_is_a_noop() {
        assert!(!active());
        assert!(!sink_active());
        emit(|| unreachable!("closure must not run without a scope"));
        let mut ran = false;
        with_metrics(|_| ran = true);
        assert!(!ran);
    }

    #[test]
    fn inactive_scope_never_builds_the_event() {
        let obs = Obs::none();
        let _scope = obs.enter_scope();
        assert!(!active());
        emit(|| unreachable!("closure must not run under an inactive scope"));
    }

    #[test]
    fn scopes_nest_and_unwind() {
        let sink = Arc::new(JsonlSink::new());
        let outer = Obs::none().with_sink(sink.clone());
        let _a = outer.enter_scope();
        assert!(sink_active());
        {
            let _b = Obs::none().enter_scope();
            assert!(!sink_active(), "inner scope wins");
            emit(|| ObsEvent::QueryStart { mode: "full" });
        }
        assert!(sink_active(), "outer scope restored");
        emit(|| ObsEvent::QueryStart { mode: "full" });
        assert_eq!(sink.len(), 1, "only the outer-scope emission");
    }

    #[test]
    fn events_fold_into_scoped_metrics() {
        let reg = MetricsRegistry::new();
        let obs = Obs::none().with_metrics(reg.clone());
        let _scope = obs.enter_scope();
        assert!(active());
        emit(|| ObsEvent::Collector {
            node: 3,
            observed_rows: 500,
            estimated_rows: 50.0,
            inaccuracy: 10.0,
            complete: true,
            progress: false,
        });
        emit(|| ObsEvent::Reopt {
            node: 3,
            verdict: ReoptVerdict::Accept,
            t_new_ms: 10.0,
            t_mat_ms: 2.0,
            t_cur_ms: 30.0,
            t_cur_improved_ms: 30.0,
            t_cur_planned_ms: 10.0,
            degradation: 3.0,
            divergence: 9.0,
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("midq_collector_reports_total"), 1);
        assert_eq!(
            snap.counter_with("midq_reopt_decisions_total", ("verdict", "accept")),
            1
        );
        assert!(snap.stable_text().contains("midq_estimation_inaccuracy"));
    }

    #[test]
    fn for_job_stamps_span_identity() {
        let sink = Arc::new(JsonlSink::new());
        let obs = Obs::none().with_sink(sink.clone()).for_job(7, "Q3");
        obs.emit(&ObsEvent::QueryStart { mode: "off" });
        obs.emit(&ObsEvent::QueryEnd {
            outcome: "ok".into(),
            rows: 1,
            sim_ms: 0.5,
            pages_read: 0,
            pages_written: 0,
            cpu_ops: 10,
            opt_work: 0,
            plan_switches: 0,
            segment_retries: 0,
            memory_reallocs: 0,
            collector_reports: 0,
        });
        let lines = sink.lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(json_u64(&lines[0], "job"), Some(7));
        assert_eq!(json_str(&lines[0], "label").as_deref(), Some("Q3"));
        assert_eq!(json_u64(&lines[0], "seq"), Some(0));
        assert_eq!(json_u64(&lines[1], "seq"), Some(1));
    }
}
