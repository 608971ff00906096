//! The typed event taxonomy of the observability bus.
//!
//! Every event names one decision or state transition of the
//! re-optimization machinery (KabraD98 §3–§4): collector checkpoints
//! carry the estimated-vs-observed cardinality and the resulting
//! inaccuracy factor, re-optimization triggers carry the SCIA decision
//! together with both cost estimates, and the segment/lease/fault
//! events frame them with the execution context they fired in.
//!
//! Events serialize to a flat, hand-rolled JSON object (the build has
//! no serde); [`ObsEvent::write_json_fields`] appends the event's
//! `"event":"<kind>"` discriminator and payload fields to an envelope
//! the sink owns (sequence number, job id, label). The `Display`
//! rendering is the one-line human form a query report lists.

use std::fmt::{self, Write as _};

/// How a segment attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentOutcome {
    /// Ran to completion; the query is done.
    Done,
    /// Unwound on a plan-switch point; the remainder is re-planned.
    PlanSwitch,
    /// Failed with an error (possibly retried as a fresh attempt).
    Error,
}

impl SegmentOutcome {
    pub fn as_str(self) -> &'static str {
        match self {
            SegmentOutcome::Done => "done",
            SegmentOutcome::PlanSwitch => "plan_switch",
            SegmentOutcome::Error => "error",
        }
    }
}

/// The SCIA verdict at a potential re-optimization point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReoptVerdict {
    /// Divergence stayed below the re-optimization threshold (θ2).
    BelowThreshold,
    /// Equation 1 skipped re-optimization: the optimizer call itself
    /// would cost too much relative to the remaining work (θ1).
    Eq1Skip,
    /// The re-planned remainder plus materialization does not beat
    /// finishing the current plan.
    RejectCost,
    /// The switch is taken; the remainder is re-planned.
    Accept,
}

impl ReoptVerdict {
    pub fn as_str(self) -> &'static str {
        match self {
            ReoptVerdict::BelowThreshold => "below_threshold",
            ReoptVerdict::Eq1Skip => "eq1_skip",
            ReoptVerdict::RejectCost => "reject_cost",
            ReoptVerdict::Accept => "accept",
        }
    }
}

/// One typed observability event. Numeric fields are plain integers /
/// floats so the JSONL rendering is deterministic.
#[derive(Debug, Clone)]
pub enum ObsEvent {
    /// A query entered the engine.
    QueryStart {
        /// Re-optimization mode (`off`, `memory`, `plan`, `full`).
        mode: &'static str,
    },
    /// One segment attempt started.
    SegmentStart {
        /// 1-based attempt number within the query.
        attempt: u32,
        /// Number of operators in the (current) physical plan.
        plan_nodes: u64,
    },
    /// One segment attempt ended.
    SegmentEnd {
        attempt: u32,
        outcome: SegmentOutcome,
    },
    /// A statistics collector checkpointed: observed cardinality
    /// against the optimizer's estimate.
    Collector {
        /// Plan node id of the collector site.
        node: u64,
        observed_rows: u64,
        estimated_rows: f64,
        /// Inaccuracy factor `max(obs/est, est/obs)` (≥ 1; 1 = exact).
        inaccuracy: f64,
        /// True when the collector saw its whole input; false for a
        /// provisional report or a final one cut short by the consumer.
        complete: bool,
        /// True for a provisional mid-stream report (the count is a
        /// lower bound), false for the collector's one final report.
        progress: bool,
    },
    /// The SCIA weighed re-planning at a collector checkpoint.
    Reopt {
        /// Plan node the remainder would be cut at.
        node: u64,
        verdict: ReoptVerdict,
        /// Estimated cost (ms) of the re-planned remainder, including
        /// materialization of the cut subtree (`t_mat_ms`). Under
        /// `Eq1Skip` it holds the estimated optimizer cost `T_opt`
        /// instead; 0 under `BelowThreshold`, where nothing was planned.
        t_new_ms: f64,
        /// Estimated cost (ms) of materializing the cut subtree; the
        /// part of `t_new_ms` that is not the new plan. 0 unless the
        /// verdict is `Accept` or `RejectCost`.
        t_mat_ms: f64,
        /// Estimated cost (ms) of finishing the current plan: the
        /// re-priced current shape under `Accept`/`RejectCost`, the
        /// improved remaining time otherwise.
        t_cur_ms: f64,
        /// Remaining time of the current plan under the improved
        /// (observed) estimates — Eq. 2's `T_cur,improved`.
        t_cur_improved_ms: f64,
        /// Remaining time of the current plan as the optimizer planned
        /// it — Eq. 2's `T_cur,optimizer`.
        t_cur_planned_ms: f64,
        /// Observed degradation factor of the running estimate.
        degradation: f64,
        /// Statistics divergence that triggered the consideration.
        divergence: f64,
    },
    /// The memory manager changed an operator's grant mid-query.
    GrantChange {
        node: u64,
        old_bytes: u64,
        new_bytes: u64,
    },
    /// A query was admitted by the global broker.
    LeaseAcquire {
        min_bytes: u64,
        desired_bytes: u64,
        granted_bytes: u64,
    },
    /// A running query asked its lease to grow.
    LeaseGrow {
        asked_bytes: u64,
        granted_bytes: u64,
    },
    /// A grant decision was denied (fault injection or contention).
    LeaseDeny {
        /// `acquire` or `grow`.
        site: &'static str,
    },
    /// An operator ran out of memory and spilled to disk.
    Spill {
        node: u64,
        operator: &'static str,
        bytes: u64,
    },
    /// A transient fault was absorbed; the segment re-runs.
    SegmentRetry {
        /// 1-based retry number.
        retry: u32,
        limit: u32,
        cause: String,
    },
    /// End-of-query cleanup (temp tables, artifacts, spill files).
    Cleanup {
        temp_tables: u64,
        temp_files: u64,
        failures: u64,
    },
    /// An exchange stage finished routing/merging its input.
    Exchange {
        /// Plan node id of the exchange.
        node: u64,
        /// `repartition`, `merge` or `broadcast`.
        mode: &'static str,
        /// Partition count the stage ran with.
        partitions: u64,
        /// Logical bucket count rows were routed into.
        buckets: u64,
        /// Total rows through the exchange.
        rows: u64,
        /// Rows landing on each partition under the final bucket →
        /// partition assignment (a broadcast delivers every row to
        /// every partition).
        per_partition_rows: Vec<u64>,
    },
    /// Per-partition loads at an exchange exceeded the skew threshold.
    SkewVerdict {
        /// Plan node id of the exchange.
        node: u64,
        /// Observed max/mean per-partition cardinality ratio.
        ratio: f64,
        /// Configured threshold θ the ratio was compared against.
        theta: f64,
        /// `rebalance` (buckets reassigned) or `none` (kept static).
        action: &'static str,
        /// The max/mean ratio under the new assignment (bounded below
        /// by the heaviest single bucket — a bucket is never split).
        after_ratio: f64,
    },
    /// An injected crash (simulated process kill) abandoned the
    /// query's in-flight state without cleanup.
    CrashInjected {
        /// Engine query id the crash hit (recovery is keyed by it).
        query_id: u64,
        /// Where the kill landed (the error message of the crash).
        cause: String,
    },
    /// Recovery of a crashed query began.
    RecoveryStarted {
        query_id: u64,
        /// 1-based recovery generation (2 = recovering a crash that
        /// itself happened during recovery).
        generation: u32,
        /// Checkpoint records found in the manifest.
        manifest_records: u64,
    },
    /// Manifest validation finished: how much completed work survived.
    SegmentsSalvaged {
        query_id: u64,
        /// Checkpointed segments that validated (rows + fingerprint).
        salvaged: u64,
        /// Rows re-scanned by the charged validation pass.
        validated_rows: u64,
    },
    /// Recovery swept the crashed generation's unusable leftovers.
    OrphansSwept {
        query_id: u64,
        /// Catalog temp-table entries dropped (placeholders, invalid
        /// checkpoints).
        tables: u64,
        /// Anonymous scratch files dropped (partial materializations,
        /// spill files).
        files: u64,
    },
    /// A cache probe spliced a `CachedScan` over a matching sub-tree.
    CacheHit {
        /// Fingerprint of the matched sub-plan.
        fingerprint: u64,
        /// Cache table spliced in.
        table: String,
        /// Exact rows of the cached result.
        rows: u64,
        /// Simulated ms the producing sub-plan cost (the saving).
        saved_ms: f64,
        /// Bytes not re-materialized.
        saved_bytes: u64,
    },
    /// A cache probe found no usable entry for the whole plan.
    CacheMiss {
        /// Sub-tree fingerprints probed (root-first count).
        probed: u64,
    },
    /// A plan-switch materialization was promoted into the cache.
    CachePromote {
        fingerprint: u64,
        /// Cache table the temp was renamed to.
        table: String,
        rows: u64,
        bytes: u64,
        /// Producer cost recorded as the entry's benefit.
        build_cost_ms: f64,
    },
    /// Budget pressure retired a cache entry.
    CacheEvict {
        fingerprint: u64,
        table: String,
        bytes: u64,
    },
    /// The optimizer overrode a cardinality estimate with an observed
    /// value from the feedback store.
    FeedbackApplied {
        /// Fingerprint of the sub-plan whose estimate was overridden.
        fingerprint: u64,
        /// The optimizer's catalog-derived estimate.
        estimated_rows: f64,
        /// The observed row count that replaced it.
        observed_rows: f64,
        /// Base tables of the overridden sub-plan, sorted and
        /// comma-joined (one name for a base-relation override).
        table: String,
    },
    /// The plan cache served a rebound template; enumeration skipped.
    PlanCacheHit {
        /// Optimizer work units the cold optimization paid (skipped).
        saved_work: u64,
    },
    /// The plan cache had no usable template; full optimization ran
    /// and a fresh template was entered.
    PlanCacheMiss,
    /// A freshly optimized plan was offered to the plan cache as its
    /// family's template.
    PlanCacheAdmit {
        /// `None` when the template entered the cache; otherwise why it
        /// was refused (the plan is not a pure function of base data).
        refused: Option<String>,
    },
    /// A cached plan went stale (dependency write or accumulated
    /// feedback) and was re-enumerated from scratch.
    PlanCacheStale {
        /// `write` or `feedback`.
        reason: &'static str,
    },
    /// Capacity pressure retired a plan-cache entry.
    PlanCacheEvict {
        /// Normalized key of the evicted family.
        key: String,
    },
    /// Repeated large estimation errors on one base-table column
    /// triggered an incremental histogram rebuild.
    HistogramRefresh {
        table: String,
        column: String,
        /// Inaccuracy factor of the hit that crossed the threshold.
        error_factor: f64,
    },
    /// The query left the engine.
    QueryEnd {
        /// `ok` or the error kind (`storage`, `cancelled`, `oom`, …).
        outcome: String,
        rows: u64,
        sim_ms: f64,
        pages_read: u64,
        pages_written: u64,
        cpu_ops: u64,
        opt_work: u64,
        plan_switches: u64,
        segment_retries: u64,
        memory_reallocs: u64,
        collector_reports: u64,
    },
}

impl ObsEvent {
    /// The `"event"` discriminator used in the JSONL rendering.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::QueryStart { .. } => "query_start",
            ObsEvent::SegmentStart { .. } => "segment_start",
            ObsEvent::SegmentEnd { .. } => "segment_end",
            ObsEvent::Collector { .. } => "collector",
            ObsEvent::Reopt { .. } => "reopt",
            ObsEvent::GrantChange { .. } => "grant_change",
            ObsEvent::LeaseAcquire { .. } => "lease_acquire",
            ObsEvent::LeaseGrow { .. } => "lease_grow",
            ObsEvent::LeaseDeny { .. } => "lease_deny",
            ObsEvent::Spill { .. } => "spill",
            ObsEvent::SegmentRetry { .. } => "segment_retry",
            ObsEvent::Cleanup { .. } => "cleanup",
            ObsEvent::Exchange { .. } => "exchange",
            ObsEvent::SkewVerdict { .. } => "skew_verdict",
            ObsEvent::CrashInjected { .. } => "crash_injected",
            ObsEvent::RecoveryStarted { .. } => "recovery_started",
            ObsEvent::SegmentsSalvaged { .. } => "segments_salvaged",
            ObsEvent::OrphansSwept { .. } => "orphans_swept",
            ObsEvent::CacheHit { .. } => "cache_hit",
            ObsEvent::CacheMiss { .. } => "cache_miss",
            ObsEvent::CachePromote { .. } => "cache_promote",
            ObsEvent::CacheEvict { .. } => "cache_evict",
            ObsEvent::FeedbackApplied { .. } => "feedback_applied",
            ObsEvent::PlanCacheHit { .. } => "plan_cache_hit",
            ObsEvent::PlanCacheMiss => "plan_cache_miss",
            ObsEvent::PlanCacheAdmit { .. } => "plan_cache_admit",
            ObsEvent::PlanCacheStale { .. } => "plan_cache_reoptimized",
            ObsEvent::PlanCacheEvict { .. } => "plan_cache_evict",
            ObsEvent::HistogramRefresh { .. } => "histogram_refresh",
            ObsEvent::QueryEnd { .. } => "query_end",
        }
    }

    /// Append `"event":"<kind>"` plus the payload fields (each
    /// preceded by a comma) to a JSON object under construction.
    pub fn write_json_fields(&self, out: &mut String) {
        let _ = write!(out, "\"event\":\"{}\"", self.kind());
        match self {
            ObsEvent::QueryStart { mode } => {
                let _ = write!(out, ",\"mode\":\"{mode}\"");
            }
            ObsEvent::SegmentStart {
                attempt,
                plan_nodes,
            } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"plan_nodes\":{plan_nodes}");
            }
            ObsEvent::SegmentEnd { attempt, outcome } => {
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"outcome\":\"{}\"",
                    outcome.as_str()
                );
            }
            ObsEvent::Collector {
                node,
                observed_rows,
                estimated_rows,
                inaccuracy,
                complete,
                progress,
            } => {
                let _ = write!(
                    out,
                    ",\"node\":{node},\"observed_rows\":{observed_rows},\
                     \"estimated_rows\":{estimated_rows},\"inaccuracy\":{inaccuracy},\
                     \"complete\":{complete},\"progress\":{progress}"
                );
            }
            ObsEvent::Reopt {
                node,
                verdict,
                t_new_ms,
                t_mat_ms,
                t_cur_ms,
                t_cur_improved_ms,
                t_cur_planned_ms,
                degradation,
                divergence,
            } => {
                let _ = write!(
                    out,
                    ",\"node\":{node},\"verdict\":\"{}\",\"t_new_ms\":{t_new_ms},\
                     \"t_mat_ms\":{t_mat_ms},\"t_cur_ms\":{t_cur_ms},\
                     \"t_cur_improved_ms\":{t_cur_improved_ms},\
                     \"t_cur_planned_ms\":{t_cur_planned_ms},\"degradation\":{degradation},\
                     \"divergence\":{divergence}",
                    verdict.as_str()
                );
            }
            ObsEvent::GrantChange {
                node,
                old_bytes,
                new_bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"node\":{node},\"old_bytes\":{old_bytes},\"new_bytes\":{new_bytes}"
                );
            }
            ObsEvent::LeaseAcquire {
                min_bytes,
                desired_bytes,
                granted_bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"min_bytes\":{min_bytes},\"desired_bytes\":{desired_bytes},\
                     \"granted_bytes\":{granted_bytes}"
                );
            }
            ObsEvent::LeaseGrow {
                asked_bytes,
                granted_bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"asked_bytes\":{asked_bytes},\"granted_bytes\":{granted_bytes}"
                );
            }
            ObsEvent::LeaseDeny { site } => {
                let _ = write!(out, ",\"site\":\"{site}\"");
            }
            ObsEvent::Spill {
                node,
                operator,
                bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"node\":{node},\"operator\":\"{operator}\",\"bytes\":{bytes}"
                );
            }
            ObsEvent::SegmentRetry {
                retry,
                limit,
                cause,
            } => {
                let _ = write!(out, ",\"retry\":{retry},\"limit\":{limit},\"cause\":");
                crate::json::write_json_string(out, cause);
            }
            ObsEvent::Cleanup {
                temp_tables,
                temp_files,
                failures,
            } => {
                let _ = write!(
                    out,
                    ",\"temp_tables\":{temp_tables},\"temp_files\":{temp_files},\
                     \"failures\":{failures}"
                );
            }
            ObsEvent::Exchange {
                node,
                mode,
                partitions,
                buckets,
                rows,
                per_partition_rows,
            } => {
                let _ = write!(
                    out,
                    ",\"node\":{node},\"mode\":\"{mode}\",\"partitions\":{partitions},\
                     \"buckets\":{buckets},\"rows\":{rows},\"per_partition_rows\":["
                );
                for (i, n) in per_partition_rows.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{sep}{n}");
                }
                out.push(']');
            }
            ObsEvent::SkewVerdict {
                node,
                ratio,
                theta,
                action,
                after_ratio,
            } => {
                let _ = write!(
                    out,
                    ",\"node\":{node},\"ratio\":{ratio},\"theta\":{theta},\
                     \"action\":\"{action}\",\"after_ratio\":{after_ratio}"
                );
            }
            ObsEvent::CrashInjected { query_id, cause } => {
                let _ = write!(out, ",\"query_id\":{query_id},\"cause\":");
                crate::json::write_json_string(out, cause);
            }
            ObsEvent::RecoveryStarted {
                query_id,
                generation,
                manifest_records,
            } => {
                let _ = write!(
                    out,
                    ",\"query_id\":{query_id},\"generation\":{generation},\
                     \"manifest_records\":{manifest_records}"
                );
            }
            ObsEvent::SegmentsSalvaged {
                query_id,
                salvaged,
                validated_rows,
            } => {
                let _ = write!(
                    out,
                    ",\"query_id\":{query_id},\"salvaged\":{salvaged},\
                     \"validated_rows\":{validated_rows}"
                );
            }
            ObsEvent::OrphansSwept {
                query_id,
                tables,
                files,
            } => {
                let _ = write!(
                    out,
                    ",\"query_id\":{query_id},\"tables\":{tables},\"files\":{files}"
                );
            }
            ObsEvent::CacheHit {
                fingerprint,
                table,
                rows,
                saved_ms,
                saved_bytes,
            } => {
                let _ = write!(out, ",\"fingerprint\":\"{fingerprint:016x}\",\"table\":");
                crate::json::write_json_string(out, table);
                let _ = write!(
                    out,
                    ",\"rows\":{rows},\"saved_ms\":{saved_ms},\"saved_bytes\":{saved_bytes}"
                );
            }
            ObsEvent::CacheMiss { probed } => {
                let _ = write!(out, ",\"probed\":{probed}");
            }
            ObsEvent::CachePromote {
                fingerprint,
                table,
                rows,
                bytes,
                build_cost_ms,
            } => {
                let _ = write!(out, ",\"fingerprint\":\"{fingerprint:016x}\",\"table\":");
                crate::json::write_json_string(out, table);
                let _ = write!(
                    out,
                    ",\"rows\":{rows},\"bytes\":{bytes},\"build_cost_ms\":{build_cost_ms}"
                );
            }
            ObsEvent::CacheEvict {
                fingerprint,
                table,
                bytes,
            } => {
                let _ = write!(out, ",\"fingerprint\":\"{fingerprint:016x}\",\"table\":");
                crate::json::write_json_string(out, table);
                let _ = write!(out, ",\"bytes\":{bytes}");
            }
            ObsEvent::FeedbackApplied {
                fingerprint,
                estimated_rows,
                observed_rows,
                table,
            } => {
                let _ = write!(
                    out,
                    ",\"fingerprint\":\"{fingerprint:016x}\",\
                     \"estimated_rows\":{estimated_rows},\"observed_rows\":{observed_rows},\
                     \"table\":"
                );
                crate::json::write_json_string(out, table);
            }
            ObsEvent::PlanCacheHit { saved_work } => {
                let _ = write!(out, ",\"saved_work\":{saved_work}");
            }
            ObsEvent::PlanCacheMiss => {}
            ObsEvent::PlanCacheAdmit { refused } => {
                let _ = write!(out, ",\"entered\":{}", refused.is_none());
                if let Some(reason) = refused {
                    out.push_str(",\"reason\":");
                    crate::json::write_json_string(out, reason);
                }
            }
            ObsEvent::PlanCacheStale { reason } => {
                let _ = write!(out, ",\"reason\":\"{reason}\"");
            }
            ObsEvent::PlanCacheEvict { key } => {
                let _ = write!(out, ",\"key\":");
                crate::json::write_json_string(out, key);
            }
            ObsEvent::HistogramRefresh {
                table,
                column,
                error_factor,
            } => {
                let _ = write!(out, ",\"table\":");
                crate::json::write_json_string(out, table);
                let _ = write!(out, ",\"column\":");
                crate::json::write_json_string(out, column);
                let _ = write!(out, ",\"error_factor\":{error_factor}");
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
                segment_retries,
                memory_reallocs,
                collector_reports,
            } => {
                let _ = write!(out, ",\"outcome\":");
                crate::json::write_json_string(out, outcome);
                let _ = write!(
                    out,
                    ",\"rows\":{rows},\"sim_ms\":{sim_ms},\"pages_read\":{pages_read},\
                     \"pages_written\":{pages_written},\"cpu_ops\":{cpu_ops},\
                     \"opt_work\":{opt_work},\"plan_switches\":{plan_switches},\
                     \"segment_retries\":{segment_retries},\"memory_reallocs\":{memory_reallocs},\
                     \"collector_reports\":{collector_reports}"
                );
            }
        }
    }
}

/// The one-line report form. Each kind a query report lists keeps a
/// fixed prefix (`memory:`, `replan@op#N:`, `collector op#N:`,
/// `progress op#N:`, `plancache:`, `cache:`, `feedback:`, `stats:`,
/// `cleanup:`, `segment retry`, `exchange op#N:`, `skew verdict:`) that
/// scripts grep for; any other kind renders as its JSON fields.
impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsEvent::GrantChange {
                node,
                old_bytes,
                new_bytes,
            } => write!(
                f,
                "memory: op#{node} grant {old_bytes} -> {new_bytes} bytes"
            ),
            ObsEvent::Collector {
                node,
                observed_rows: rows,
                estimated_rows: est,
                progress,
                ..
            } if *progress => write!(
                f,
                "progress op#{node}: ≥{rows} rows vs estimate {est:.0} — provisional re-allocation"
            ),
            ObsEvent::Collector {
                node,
                observed_rows: rows,
                estimated_rows: est,
                ..
            } => write!(
                f,
                "collector op#{node}: observed {rows} rows (optimizer estimated {est:.0})"
            ),
            ObsEvent::Reopt {
                node,
                verdict,
                t_new_ms,
                t_mat_ms,
                t_cur_ms,
                t_cur_improved_ms,
                t_cur_planned_ms,
                degradation,
                divergence,
            } => {
                write!(f, "replan@op#{node}: ")?;
                let t_plan_ms = t_new_ms - t_mat_ms;
                match verdict {
                    ReoptVerdict::BelowThreshold => write!(
                        f,
                        "below θ2 (time degradation {degradation:.2}, \
                         stat divergence {divergence:.2})"
                    ),
                    ReoptVerdict::Eq1Skip => write!(
                        f,
                        "skipped by Eq.1 (T_opt {t_new_ms:.1}ms vs remaining {t_cur_ms:.1}ms)"
                    ),
                    ReoptVerdict::Accept => write!(
                        f,
                        "ACCEPT (new {t_plan_ms:.1}ms + mat {t_mat_ms:.1}ms < continue \
                         {t_cur_ms:.1}ms; trigger improved {t_cur_improved_ms:.1}ms vs \
                         planned {t_cur_planned_ms:.1}ms)"
                    ),
                    ReoptVerdict::RejectCost => write!(
                        f,
                        "rejected (new {t_plan_ms:.1}ms + mat {t_mat_ms:.1}ms ≥ continue \
                         {t_cur_ms:.1}ms)"
                    ),
                }
            }
            ObsEvent::SegmentRetry {
                retry,
                limit,
                cause,
            } => write!(
                f,
                "segment retry {retry}/{limit}: transient fault absorbed ({cause})"
            ),
            ObsEvent::Cleanup {
                temp_tables,
                temp_files,
                failures,
            } => write!(
                f,
                "cleanup: dropped {temp_tables} temp tables and {temp_files} temp files, \
                 {failures} drops failed"
            ),
            ObsEvent::CacheHit {
                fingerprint,
                table,
                rows,
                saved_ms,
                ..
            } => write!(
                f,
                "cache: hit {table} ({rows} rows, ~{saved_ms:.1} ms saved, fp {fingerprint:016x})"
            ),
            ObsEvent::CacheMiss { probed } => {
                write!(f, "cache: miss ({probed} sub-trees probed)")
            }
            ObsEvent::FeedbackApplied {
                fingerprint: fp,
                estimated_rows: est,
                observed_rows: obs,
                table,
            } => write!(
                f,
                "feedback: planned {table} with observed {obs:.0} rows (est {est:.0}, fp {fp:016x})"
            ),
            ObsEvent::PlanCacheHit { saved_work } => write!(
                f,
                "plancache: hit (skipped {saved_work} optimizer work units)"
            ),
            ObsEvent::PlanCacheMiss => f.write_str("plancache: miss"),
            ObsEvent::PlanCacheAdmit { refused } => match refused {
                None => f.write_str("plancache: template entered"),
                Some(reason) => write!(f, "plancache: not entered ({reason})"),
            },
            ObsEvent::PlanCacheStale { reason } => {
                write!(f, "plancache: stale ({reason}), re-enumerated")
            }
            ObsEvent::HistogramRefresh {
                table,
                column,
                error_factor,
            } => write!(
                f,
                "stats: refreshed histogram {table}.{column} (error factor {error_factor:.1})"
            ),
            ObsEvent::Exchange {
                node,
                mode,
                rows,
                per_partition_rows,
                ..
            } => write!(
                f,
                "exchange op#{node}: {mode} of {rows} rows, per-partition rows {per_partition_rows:?}"
            ),
            // Recorded right before the exchange event of its stage, and
            // rendered under that exchange by EXPLAIN ANALYZE, so the
            // line names no node of its own.
            ObsEvent::SkewVerdict {
                ratio,
                theta,
                action,
                after_ratio,
                ..
            } => write!(
                f,
                "skew verdict: max/mean {ratio:.2} > θ {theta:.2} → {action} (now {after_ratio:.2})"
            ),
            _ => {
                let mut out = String::new();
                self.write_json_fields(&mut out);
                f.write_str(&out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_event_renders_flat_json_fields() {
        let ev = ObsEvent::Collector {
            node: 4,
            observed_rows: 1200,
            estimated_rows: 100.0,
            inaccuracy: 12.0,
            complete: true,
            progress: false,
        };
        let mut out = String::new();
        ev.write_json_fields(&mut out);
        assert_eq!(
            out,
            "\"event\":\"collector\",\"node\":4,\"observed_rows\":1200,\
             \"estimated_rows\":100,\"inaccuracy\":12,\"complete\":true,\
             \"progress\":false"
        );
    }

    #[test]
    fn recovery_events_render_flat_json_fields() {
        let ev = ObsEvent::SegmentsSalvaged {
            query_id: 7,
            salvaged: 2,
            validated_rows: 1500,
        };
        let mut out = String::new();
        ev.write_json_fields(&mut out);
        assert_eq!(
            out,
            "\"event\":\"segments_salvaged\",\"query_id\":7,\"salvaged\":2,\
             \"validated_rows\":1500"
        );
        let ev = ObsEvent::CrashInjected {
            query_id: 7,
            cause: "kill at boundary #2".into(),
        };
        let mut out = String::new();
        ev.write_json_fields(&mut out);
        assert!(out.starts_with("\"event\":\"crash_injected\",\"query_id\":7"));
        assert!(out.contains("\"cause\":\"kill at boundary #2\""));
    }

    #[test]
    fn report_lines_keep_their_prefixes() {
        let reopt = |verdict| ObsEvent::Reopt {
            node: 3,
            verdict,
            t_new_ms: 120.0,
            t_mat_ms: 20.0,
            t_cur_ms: 400.0,
            t_cur_improved_ms: 410.0,
            t_cur_planned_ms: 90.0,
            degradation: 3.5,
            divergence: 7.25,
        };
        let collector = |progress| ObsEvent::Collector {
            node: 4,
            observed_rows: 2048,
            estimated_rows: 100.4,
            inaccuracy: 20.4,
            complete: false,
            progress,
        };
        let feedback = |table: &str| ObsEvent::FeedbackApplied {
            fingerprint: 0xab,
            estimated_rows: 10.0,
            observed_rows: 500.0,
            table: table.to_string(),
        };
        let lines: Vec<String> = [
            reopt(ReoptVerdict::Accept),
            reopt(ReoptVerdict::RejectCost),
            reopt(ReoptVerdict::BelowThreshold),
            collector(true),
            collector(false),
            feedback("orders"),
            feedback("customer,orders"),
            ObsEvent::PlanCacheAdmit { refused: None },
            ObsEvent::PlanCacheAdmit {
                refused: Some("t has no data version".into()),
            },
            ObsEvent::LeaseDeny { site: "grow" },
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(
            lines,
            [
                "replan@op#3: ACCEPT (new 100.0ms + mat 20.0ms < continue 400.0ms; \
                 trigger improved 410.0ms vs planned 90.0ms)",
                "replan@op#3: rejected (new 100.0ms + mat 20.0ms ≥ continue 400.0ms)",
                "replan@op#3: below θ2 (time degradation 3.50, stat divergence 7.25)",
                "progress op#4: ≥2048 rows vs estimate 100 — provisional re-allocation",
                "collector op#4: observed 2048 rows (optimizer estimated 100)",
                "feedback: planned orders with observed 500 rows (est 10, fp 00000000000000ab)",
                "feedback: planned customer,orders with observed 500 rows (est 10, fp 00000000000000ab)",
                "plancache: template entered",
                "plancache: not entered (t has no data version)",
                "\"event\":\"lease_deny\",\"site\":\"grow\"",
            ]
        );
    }

    #[test]
    fn exchange_and_skew_events_render_their_stage() {
        let exchange = ObsEvent::Exchange {
            node: 6,
            mode: "repartition",
            partitions: 4,
            buckets: 64,
            rows: 516,
            per_partition_rows: vec![81, 75, 69, 33],
        };
        let skew = ObsEvent::SkewVerdict {
            node: 6,
            ratio: 1.72,
            theta: 1.15,
            action: "rebalance",
            after_ratio: 1.19,
        };
        assert_eq!(
            exchange.to_string(),
            "exchange op#6: repartition of 516 rows, per-partition rows [81, 75, 69, 33]"
        );
        assert_eq!(
            skew.to_string(),
            "skew verdict: max/mean 1.72 > θ 1.15 → rebalance (now 1.19)"
        );
        let mut line = String::from("{");
        exchange.write_json_fields(&mut line);
        line.push('}');
        assert_eq!(
            crate::json::json_raw(&line, "per_partition_rows"),
            Some("[81,75,69,33]")
        );
        assert_eq!(crate::json::json_u64(&line, "rows"), Some(516));
        let mut line = String::from("{");
        skew.write_json_fields(&mut line);
        line.push('}');
        assert_eq!(crate::json::json_f64(&line, "after_ratio"), Some(1.19));
    }

    #[test]
    fn retry_cause_is_escaped() {
        let ev = ObsEvent::SegmentRetry {
            retry: 1,
            limit: 3,
            cause: "fault \"quoted\"\nline".into(),
        };
        let mut out = String::new();
        ev.write_json_fields(&mut out);
        assert!(
            out.contains("\"cause\":\"fault \\\"quoted\\\"\\nline\""),
            "{out}"
        );
    }
}
