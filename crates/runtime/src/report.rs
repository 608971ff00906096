//! Per-job and per-workload results.

use mq_common::Result;
use mq_obs::{MetricsSnapshot, ObsEvent};
use mq_reopt::QueryOutcome;

/// The result of one workload query.
#[derive(Debug)]
pub struct JobResult {
    /// Position in the workload's submission order.
    pub index: usize,
    /// The query's label.
    pub label: String,
    /// Which worker executed it.
    pub worker: usize,
    /// Simulated milliseconds attributed to this job alone (its child
    /// clock: execution, optimizer work, and its share of shared
    /// buffer-pool traffic while it ran on the worker thread).
    pub sim_ms: f64,
    /// Bytes the broker had granted this job at admission.
    pub granted_bytes: usize,
    /// The outcome — or the error (cancellation, deadline, OOM, ...).
    pub outcome: Result<QueryOutcome>,
    /// Crash-recovery attempts the runtime made for this job (a
    /// simulated kill leaves a checkpoint manifest; each attempt
    /// salvages completed segments and resumes).
    pub recoveries: u32,
    /// Checkpointed segments salvaged across all recovery attempts —
    /// work that survived the crash instead of being recomputed.
    pub segments_salvaged: u32,
    /// Per-job metrics snapshot (empty when the workload ran without
    /// an observability handle). Unlike `outcome`, this is populated
    /// even for failed queries — the events up to the failure folded
    /// into the job's registry before it unwound.
    pub metrics: MetricsSnapshot,
}

impl JobResult {
    /// Did the query complete?
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// Result cardinality (0 for failed queries).
    pub fn rows(&self) -> usize {
        self.outcome.as_ref().map(|o| o.rows.len()).unwrap_or(0)
    }

    /// `ok` or the error kind (`oom`, `cancelled`, ...).
    pub fn outcome_str(&self) -> &'static str {
        match &self.outcome {
            Ok(_) => "ok",
            Err(e) => e.kind(),
        }
    }

    /// Segments re-run after a transient fault.
    pub fn segment_retries(&self) -> u64 {
        self.tally(&["midq_segment_retries_total"], |e| {
            matches!(e, ObsEvent::SegmentRetry { .. }).into()
        })
    }

    /// Re-optimization decisions the controller weighed (all verdicts).
    pub fn reopt_decisions(&self) -> u64 {
        self.tally(&["midq_reopt_decisions_total"], |e| {
            matches!(e, ObsEvent::Reopt { .. }).into()
        })
    }

    /// Cross-query cache hits this job benefited from (sub-trees
    /// replaced by `CachedScan`s).
    pub fn cache_hits(&self) -> u64 {
        self.tally(&["midq_cache_hits_total"], |e| {
            matches!(e, ObsEvent::CacheHit { .. }).into()
        })
    }

    /// Cache probes of this job that found no usable entry.
    pub fn cache_misses(&self) -> u64 {
        self.tally(&["midq_cache_misses_total"], |e| {
            matches!(e, ObsEvent::CacheMiss { .. }).into()
        })
    }

    /// Bytes of intermediate results this job read from the cache
    /// instead of recomputing.
    pub fn cache_bytes_saved(&self) -> u64 {
        self.tally(&["midq_cache_bytes_saved_total"], |e| match e {
            ObsEvent::CacheHit { saved_bytes, .. } => *saved_bytes,
            _ => 0,
        })
    }

    /// Plan-cache hits: runs of this job served by a rebound plan
    /// template (join enumeration skipped).
    pub fn plan_cache_hits(&self) -> u64 {
        self.tally(&["midq_plancache_hits_total"], |e| {
            matches!(e, ObsEvent::PlanCacheHit { .. }).into()
        })
    }

    /// Plan-cache probes that fell through to full optimization
    /// (misses plus stale re-optimizations).
    pub fn plan_cache_misses(&self) -> u64 {
        self.tally(
            &["midq_plancache_misses_total", "midq_plancache_reopts_total"],
            |e| matches!(e, ObsEvent::PlanCacheMiss | ObsEvent::PlanCacheStale { .. }).into(),
        )
    }

    /// The sum of `counters` from the metrics snapshot when one was
    /// collected, else `f` summed over the outcome's events (0 for a
    /// failed query). Both count the same events: every counter here
    /// is folded from exactly the events `f` matches.
    fn tally(&self, counters: &[&str], f: impl Fn(&ObsEvent) -> u64) -> u64 {
        if self.metrics.is_empty() {
            self.outcome
                .as_ref()
                .map(|o| o.events.iter().map(f).sum())
                .unwrap_or(0)
        } else {
            counters.iter().map(|c| self.metrics.counter(c)).sum()
        }
    }
}

/// Aggregate report for a concurrent workload run.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Per-query results, in submission order.
    pub results: Vec<JobResult>,
    /// Worker threads used.
    pub workers: usize,
    /// The broker's global budget in bytes.
    pub global_budget_bytes: usize,
    /// Peak bytes the broker ever had outstanding — never exceeds the
    /// global budget (asserted in tests).
    pub broker_high_water: usize,
    /// Peak number of queries simultaneously admitted (in flight).
    pub max_in_flight: usize,
    /// Simulated makespan: the largest per-worker sum of job times —
    /// the workload's end-to-end simulated duration with workers
    /// running in parallel.
    pub makespan_sim_ms: f64,
    /// Sum of all job times (what a single worker would have taken).
    pub serial_sim_ms: f64,
    /// Real (host) milliseconds the run took.
    pub wall_ms: f64,
}

impl WorkloadReport {
    /// Queries that completed.
    pub fn succeeded(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Queries that failed (cancelled, deadline, error).
    pub fn failed(&self) -> usize {
        self.results.len() - self.succeeded()
    }

    /// Total crash-recovery attempts across the workload.
    pub fn recoveries(&self) -> u32 {
        self.results.iter().map(|r| r.recoveries).sum()
    }

    /// Total checkpointed segments salvaged across the workload.
    pub fn segments_salvaged(&self) -> u32 {
        self.results.iter().map(|r| r.segments_salvaged).sum()
    }

    /// Total cross-query cache hits across the workload.
    pub fn cache_hits(&self) -> u64 {
        self.results.iter().map(JobResult::cache_hits).sum()
    }

    /// Total cache probes that found no usable entry.
    pub fn cache_misses(&self) -> u64 {
        self.results.iter().map(JobResult::cache_misses).sum()
    }

    /// Total bytes read from the cache instead of recomputed.
    pub fn cache_bytes_saved(&self) -> u64 {
        self.results.iter().map(JobResult::cache_bytes_saved).sum()
    }

    /// Total plan-cache hits across the workload.
    pub fn plan_cache_hits(&self) -> u64 {
        self.results.iter().map(JobResult::plan_cache_hits).sum()
    }

    /// Total plan-cache fall-throughs (misses + stale) across the
    /// workload.
    pub fn plan_cache_misses(&self) -> u64 {
        self.results.iter().map(JobResult::plan_cache_misses).sum()
    }

    /// Queries per simulated second, against the parallel makespan.
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan_sim_ms <= 0.0 {
            return 0.0;
        }
        self.results.len() as f64 / (self.makespan_sim_ms / 1000.0)
    }

    /// Simulated speedup over serial execution of the same jobs.
    pub fn speedup(&self) -> f64 {
        if self.makespan_sim_ms <= 0.0 {
            return 1.0;
        }
        self.serial_sim_ms / self.makespan_sim_ms
    }

    /// Human-readable multi-line summary (CLI, experiments).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== workload: {} queries on {} workers ==",
            self.results.len(),
            self.workers
        );
        for r in &self.results {
            let _ = write!(
                out,
                "{:>3}. {:<16} worker {} {:>10.1} ms  {:<9} {:>7} rows  retries={}  reopts={}",
                r.index + 1,
                r.label,
                r.worker,
                r.sim_ms,
                r.outcome_str(),
                r.rows(),
                r.segment_retries(),
                r.reopt_decisions()
            );
            if r.recoveries > 0 {
                let _ = write!(
                    out,
                    "  recoveries={} salvaged={}",
                    r.recoveries, r.segments_salvaged
                );
            }
            if r.cache_hits() + r.cache_misses() > 0 {
                let _ = write!(out, "  cache={}h/{}m", r.cache_hits(), r.cache_misses());
            }
            if r.plan_cache_hits() + r.plan_cache_misses() > 0 {
                let _ = write!(
                    out,
                    "  plancache={}h/{}m",
                    r.plan_cache_hits(),
                    r.plan_cache_misses()
                );
            }
            match &r.outcome {
                Ok(o) => {
                    let _ = writeln!(
                        out,
                        "  {} switches  {} reallocs",
                        o.plan_switches, o.memory_reallocs
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "  ({e})");
                }
            }
        }
        let _ = writeln!(
            out,
            "ok {}/{}   makespan {:.1} sim-ms (serial {:.1}, speedup {:.2}x)   {:.2} q/sim-s",
            self.succeeded(),
            self.results.len(),
            self.makespan_sim_ms,
            self.serial_sim_ms,
            self.speedup(),
            self.throughput_qps()
        );
        if self.recoveries() > 0 {
            let _ = writeln!(
                out,
                "crash recovery: {} attempt(s), {} segment(s) salvaged",
                self.recoveries(),
                self.segments_salvaged()
            );
        }
        if self.cache_hits() + self.cache_misses() > 0 {
            let _ = writeln!(
                out,
                "cache: {} hit(s), {} miss(es), {} KiB saved",
                self.cache_hits(),
                self.cache_misses(),
                self.cache_bytes_saved() / 1024
            );
        }
        if self.plan_cache_hits() + self.plan_cache_misses() > 0 {
            let _ = writeln!(
                out,
                "plan cache: {} hit(s), {} fall-through(s) to full optimization",
                self.plan_cache_hits(),
                self.plan_cache_misses()
            );
        }
        let _ = writeln!(
            out,
            "memory: budget {} KiB, high water {} KiB   max in flight {}   wall {:.0} ms",
            self.global_budget_bytes / 1024,
            self.broker_high_water / 1024,
            self.max_in_flight,
            self.wall_ms
        );
        out
    }
}
