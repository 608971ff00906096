//! The Dynamic Re-Optimization controller (§2.4, §3.1).
//!
//! Plugged into the executor as an [`ExecMonitor`], the controller is
//! the paper's modified scheduler/dispatcher. Collectors report
//! observed statistics as their pipelines finish; at every completed
//! blocking phase the controller:
//!
//! 1. folds the observations into **improved estimates** for the
//!    remainder of the plan;
//! 2. re-invokes the **memory manager** for operators that have not
//!    started (§2.3, Figure 3) — when the mode allows;
//! 3. applies the paper's two heuristics — Equation 1
//!    (`T_opt,estimated / T_cur,improved > θ1` ⇒ do not re-optimize)
//!    and Equation 2
//!    (`(T_cur,improved − T_cur,optimizer)/T_cur,optimizer > θ2`
//!    ⇒ plan is suspected sub-optimal) — and, when both pass,
//!    re-invokes the optimizer on the **remainder query** over a
//!    placeholder temp table carrying the improved statistics;
//! 4. accepts the new plan only if
//!    `T_new + T_materialize < T_cur,improved`, in which case it
//!    requests a plan switch by unwinding execution with
//!    [`MqError::PlanSwitch`] — the engine then materializes the cut
//!    subtree (whose build artifacts survived) and runs the new plan.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mq_catalog::{Catalog, ColumnStats, TableStats};
use mq_common::{EngineConfig, MqError, Result, SimClock};
use mq_exec::{ExecMonitor, ObservedStats};
use mq_memory::MemoryManager;
use mq_optimizer::{materialize_cost, recost, OptCalibration, Optimizer};
use mq_plan::{LogicalPlan, NodeId, PhysOp, PhysPlan};
use mq_storage::Storage;
use parking_lot::Mutex;

use mq_obs::{ObsEvent, ReoptVerdict};

use crate::improve::ImprovedEstimates;
use crate::remainder::{remainder_join_count, remainder_query};
use crate::ReoptMode;

/// Inaccuracy factor of an observation: `max(obs/est, est/obs)` (≥ 1;
/// 1 = the estimate was exact). Degenerate estimates clamp to ≥ ~0.
fn inaccuracy_factor(observed: u64, estimated: f64) -> f64 {
    let r = (observed as f64 / estimated.max(1e-9)).max(1e-9);
    r.max(1.0 / r)
}

/// A decided-but-not-yet-executed plan switch.
#[derive(Debug, Clone)]
pub struct PendingSwitch {
    /// Plan node whose output will be materialized.
    pub cut: NodeId,
    /// Temp-table name registered for the materialized result.
    pub temp_name: String,
    /// The remainder query over the temp table.
    pub remainder: LogicalPlan,
}

/// Controller state for one execution attempt.
#[derive(Default)]
struct CtrlState {
    plan: Option<PhysPlan>,
    /// Per-collector provisional-report throttles: the observed/
    /// estimated ratio at which we last re-allocated.
    progress_ratio: HashMap<NodeId, f64>,
    improved: ImprovedEstimates,
    completed: HashSet<NodeId>,
    started: HashSet<NodeId>,
    finished_consumers: HashSet<NodeId>,
    pending: Option<PendingSwitch>,
    suppressed: bool,
    events: Vec<ObsEvent>,
    reallocs: u32,
    collector_reports: u32,
    temp_counter: u32,
    switches_done: u32,
}

impl CtrlState {
    /// Buffer `ev` for the query's outcome and emit it to any scoped
    /// observability sink.
    fn record(&mut self, ev: ObsEvent) {
        mq_obs::emit(|| ev.clone());
        self.events.push(ev);
    }
}

/// The runtime controller; shared (`Rc`) between the engine and the
/// execution context — both on the query's own thread. The grants
/// table it updates is `Arc<Mutex<…>>` because the *executor* side is
/// shared with the concurrent runtime.
pub struct ReoptController {
    mode: ReoptMode,
    cfg: EngineConfig,
    catalog: Catalog,
    storage: Storage,
    optimizer: Optimizer,
    calibration: Arc<OptCalibration>,
    mm: MemoryManager,
    clock: SimClock,
    grants: Arc<Mutex<HashMap<NodeId, usize>>>,
    state: RefCell<CtrlState>,
    /// Temp-table name prefix, unique per query execution so
    /// concurrent Full-mode queries never collide in the shared
    /// catalog.
    temp_prefix: String,
    /// Safety valve: maximum plan switches per query.
    max_switches: u32,
}

impl ReoptController {
    /// Create a controller wired to the engine's shared components.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mode: ReoptMode,
        cfg: EngineConfig,
        catalog: Catalog,
        storage: Storage,
        optimizer: Optimizer,
        calibration: Arc<OptCalibration>,
        mm: MemoryManager,
        clock: SimClock,
        grants: Arc<Mutex<HashMap<NodeId, usize>>>,
        temp_prefix: String,
    ) -> ReoptController {
        ReoptController {
            mode,
            cfg,
            catalog,
            storage,
            optimizer,
            calibration,
            mm,
            clock,
            grants,
            state: RefCell::new(CtrlState::default()),
            temp_prefix,
            max_switches: 2,
        }
    }

    /// Reset per-attempt state and install the plan about to execute.
    /// Query-lifetime counters (switches, reallocs, reports, events,
    /// temp numbering) survive across attempts.
    pub fn begin_attempt(&self, plan: PhysPlan) {
        let mut st = self.state.borrow_mut();
        let temp_counter = st.temp_counter;
        let switches_done = st.switches_done;
        let reallocs = st.reallocs;
        let collector_reports = st.collector_reports;
        let events = std::mem::take(&mut st.events);
        *st = CtrlState {
            plan: Some(plan),
            temp_counter,
            switches_done,
            reallocs,
            collector_reports,
            events,
            ..CtrlState::default()
        };
    }

    /// Take the decided switch (engine side, after the unwind).
    pub fn take_pending(&self) -> Option<PendingSwitch> {
        let mut st = self.state.borrow_mut();
        st.switches_done += 1;
        st.pending.take()
    }

    /// Suppress decisions (used while draining the cut subtree).
    pub fn set_suppressed(&self, v: bool) {
        self.state.borrow_mut().suppressed = v;
    }

    /// The query's recorded events (drained by the engine into the
    /// outcome).
    pub fn take_events(&self) -> Vec<ObsEvent> {
        std::mem::take(&mut self.state.borrow_mut().events)
    }

    /// Record an engine-side decision (plan-cache, cache, feedback,
    /// segment retry) in the query's event buffer and emit it.
    pub fn record(&self, ev: ObsEvent) {
        self.state.borrow_mut().record(ev);
    }

    /// (memory re-allocations, collector reports) so far.
    pub fn counters(&self) -> (u32, u32) {
        let st = self.state.borrow();
        (st.reallocs, st.collector_reports)
    }

    /// Number of accepted plan switches so far.
    pub fn switches(&self) -> u32 {
        self.state.borrow().switches_done
    }

    /// Complete collector observations of the current (final) attempt,
    /// for statistics feedback. Node ids refer to that attempt's plan.
    pub fn complete_observations(&self) -> Vec<ObservedStats> {
        self.state
            .borrow()
            .improved
            .observations()
            .values()
            .filter(|o| o.complete)
            .cloned()
            .collect()
    }

    /// Mark the blocking child subtree of `node` as completed and the
    /// relevant consumers as started/finished.
    fn mark_progress(&self, st: &mut CtrlState, node: NodeId) {
        let Some(plan) = &st.plan else { return };
        let Some(n) = plan.find(node) else { return };
        let mut newly_completed = Vec::new();
        if let Some(build) = n.children.first() {
            build.walk(&mut |c| {
                newly_completed.push(c.id);
            });
        }
        let mut finished_consumers = Vec::new();
        for id in &newly_completed {
            if let Some(c) = plan.find(*id) {
                if c.op.is_memory_consumer() {
                    finished_consumers.push(*id);
                }
            }
        }
        st.completed.extend(newly_completed);
        st.finished_consumers.extend(finished_consumers);
        // Only this node's grant is committed: operators read their
        // grant when their own build/input phase starts, which for
        // every ancestor is still in the future (segment semantics).
        st.started.insert(node);
    }

    /// §2.3: re-run the memory manager with improved estimates for the
    /// operators that have not begun executing.
    fn reallocate_memory(&self, st: &mut CtrlState, improved: &PhysPlan) {
        let Some(plan) = st.plan.clone() else { return };
        let mut work = improved.clone();
        // Headroom: improved estimates correct the observed error but
        // inherit the join-selectivity bias of everything still
        // unobserved, which historically under-corrects. Memory is
        // cheap insurance when the budget allows it, so demands are
        // derived from 1.5× the improved cardinalities; the allocator
        // still squeezes fairly when the budget does not stretch.
        let headroom = self.cfg.realloc_headroom;
        work.walk_mut(&mut |n| n.annot.est_rows *= headroom);
        let report =
            match self
                .mm
                .reallocate(&mut work, &self.cfg, &st.started, &st.finished_consumers)
            {
                Ok(r) => r,
                Err(_) => return, // cannot satisfy minimums: keep old grants
            };
        let mut changed = false;
        for g in &report.grants {
            if st.started.contains(&g.node) {
                continue;
            }
            let old = plan
                .find(g.node)
                .map(|n| n.annot.mem_grant_bytes)
                .unwrap_or(0);
            // Monotone grants: an operator's grant is never revoked
            // once assigned — every raise was budget-checked when it
            // was made, and clawing memory back on the strength of a
            // *still-estimated* demand has repeatedly proven to induce
            // spills worth far more than the memory recycled. (The sum
            // of grants can transiently exceed the budget when a later
            // re-allocation shifts shares; Paradise's own allocator had
            // the same slack between allocation rounds.)
            let granted = g.granted.max(old);
            let g = mq_memory::Grant { granted, ..*g };
            if g.granted != old {
                changed = true;
                self.grants.lock().insert(g.node, g.granted);
                if let Some(p) = st.plan.as_mut().and_then(|p| p.find_mut(g.node)) {
                    p.annot.mem_grant_bytes = g.granted;
                }
                st.record(ObsEvent::GrantChange {
                    node: g.node.0 as u64,
                    old_bytes: old as u64,
                    new_bytes: g.granted as u64,
                });
            }
        }
        if changed {
            st.reallocs += 1;
        }
    }

    /// §2.4: the re-optimization decision. Returns the accepted switch.
    fn consider_replan(
        &self,
        st: &mut CtrlState,
        node: NodeId,
        improved: &PhysPlan,
    ) -> Result<Option<PendingSwitch>> {
        let plan = st.plan.clone().expect("plan installed");
        if plan.id == node {
            return Ok(None); // nothing above the cut
        }
        if st.switches_done >= self.max_switches {
            return Ok(None);
        }
        // Remaining-time estimates, excluding completed work.
        let t_cur_improved = ImprovedEstimates::remaining_ms(improved, &st.completed);
        let t_cur_optimizer = ImprovedEstimates::remaining_ms(&plan, &st.completed);
        if t_cur_optimizer <= 0.0 || t_cur_improved <= 0.0 {
            return Ok(None);
        }

        // Equation 2: re-optimize only when observation and estimate
        // genuinely diverge. Two signals, either passing θ2 suffices:
        // the paper's time formulation ((T_improved − T_opt)/T_opt),
        // and the raw statistics divergence at any completed collector
        // ("the difference [between observed and estimated statistics]
        // is taken as an indicator of whether the query-execution plan
        // is sub-optimal", §1) — the time signal alone is blind when
        // the mis-allocation was already priced into the plan.
        let degradation = (t_cur_improved - t_cur_optimizer) / t_cur_optimizer;
        let stat_divergence = st
            .improved
            .observations()
            .values()
            .filter_map(|obs| {
                let est = plan.find(obs.node)?.annot.est_rows;
                if est <= 0.0 {
                    return None;
                }
                let r = obs.rows as f64 / est;
                Some((r.max(1.0 / r.max(1e-9)) - 1.0).abs())
            })
            .fold(0.0f64, f64::max);
        let reopt = |verdict, t_new_ms, t_mat_ms, t_cur_ms| ObsEvent::Reopt {
            node: node.0 as u64,
            verdict,
            t_new_ms,
            t_mat_ms,
            t_cur_ms,
            t_cur_improved_ms: t_cur_improved,
            t_cur_planned_ms: t_cur_optimizer,
            degradation,
            divergence: stat_divergence,
        };
        if degradation <= self.cfg.theta2 && stat_divergence <= self.cfg.theta2 {
            st.record(reopt(
                ReoptVerdict::BelowThreshold,
                0.0,
                0.0,
                t_cur_improved,
            ));
            return Ok(None);
        }

        // Re-optimization is about join orders and join methods; a
        // remainder without joins (a lone aggregate or sort) has no
        // alternatives worth the materialization (§2.4's "simple
        // queries will never get re-optimized").
        let joins = remainder_join_count(&plan, node);
        if joins == 0 {
            return Ok(None);
        }
        // Equation 1: optimization must be cheap relative to what is
        // left of the query.
        let t_opt_est = self.calibration.estimate_ms(joins, &self.cfg);
        if t_opt_est / t_cur_improved > self.cfg.theta1 {
            st.record(reopt(ReoptVerdict::Eq1Skip, t_opt_est, 0.0, t_cur_improved));
            return Ok(None);
        }

        // Build the placeholder temp table carrying improved stats.
        st.temp_counter += 1;
        let temp_name = format!("{}{}", self.temp_prefix, st.temp_counter);
        let cut_node = improved.find(node).expect("cut in improved plan");
        let placeholder_file = self.storage.create_file();
        let stats = self.placeholder_stats(st, cut_node);
        let temp_rows = stats.rows;
        let temp_pages = stats.pages;
        self.catalog.register_materialized(
            &temp_name,
            placeholder_file,
            cut_node.schema.clone(),
            stats,
        )?;

        let mut decide = || -> Result<Option<PendingSwitch>> {
            let remainder = remainder_query(&plan, node, &temp_name)?;

            // Symmetric basis: price *continuing with the current plan
            // shape* from the same statistics the optimizer will use —
            // the temp table's improved statistics plus the catalog.
            // (Comparing runtime-inflated "improved" numbers for the
            // current plan against fresh optimizer numbers for the new
            // plan would bias every decision toward switching, because
            // both plans share whatever estimation errors remain in
            // the catalog.)
            let mut cur_shape = plan.clone();
            let temp_scan = PhysPlan::new(
                PhysOp::SeqScan {
                    spec: mq_plan::ScanSpec {
                        table: temp_name.clone(),
                        file: placeholder_file,
                        pages: temp_pages.max(1),
                        rows: temp_rows,
                    },
                    filter: None,
                },
                vec![],
                cut_node.schema.clone(),
            );
            let mut replaced = false;
            cur_shape.walk_mut(&mut |n| {
                if n.id == node && !replaced {
                    *n = temp_scan.clone();
                    replaced = true;
                }
            });
            mq_optimizer::annotate_physical(
                &mut cur_shape,
                &self.catalog,
                &self.storage,
                &self.cfg,
            )?;
            // Price "continue" with the grants execution would really
            // have: committed grants for started operators plus — only
            // when this mode performs memory re-allocation — a
            // re-allocation pass for the rest (annotate_physical kept
            // the current grant annotations; the clone shares node ids
            // with the running plan). In PlanOnly mode the current
            // grants are what the rest of the query will actually run
            // with, spills and all.
            if self.mode.reallocates_memory() {
                let _ = self.mm.reallocate(
                    &mut cur_shape,
                    &self.cfg,
                    &st.started,
                    &st.finished_consumers,
                );
            }
            recost(&mut cur_shape, &self.cfg);
            let t_cur_basis = cur_shape.annot.est_total_time_ms;

            // Re-invoke the optimizer; charge its work as T_opt.
            let mut opt = self
                .optimizer
                .optimize(&remainder, &self.catalog, &self.storage)?;
            self.clock.add_opt_work(opt.work_units);
            // Price the new plan with a realistic memory allocation —
            // sized with the same 1.5× demand headroom the runtime
            // re-allocator uses, so an optimistically-undersized new
            // plan shows its spill risk in `t_new` instead of hiding it.
            let mut sized = opt.plan.clone();
            let headroom = self.cfg.realloc_headroom;
            sized.walk_mut(&mut |n| n.annot.est_rows *= headroom);
            if self.mm.allocate(&mut sized, &self.cfg).is_ok() {
                let mut grants: HashMap<NodeId, usize> = HashMap::new();
                sized.walk(&mut |n| {
                    grants.insert(n.id, n.annot.mem_grant_bytes);
                });
                opt.plan.walk_mut(&mut |n| {
                    if let Some(&g) = grants.get(&n.id) {
                        n.annot.mem_grant_bytes = g;
                    }
                });
                recost(&mut opt.plan, &self.cfg);
            }
            let t_new = opt.plan.annot.est_total_time_ms;
            let t_mat = materialize_cost(
                cut_node.annot.est_rows * cut_node.annot.est_row_bytes,
                &self.cfg,
            )
            .time_ms(&self.cfg);
            // Accept only with a safety margin: both sides are
            // estimates, so a bare `<` (the paper's formulation) flips
            // coins near break-even; the margin keeps only switches
            // whose predicted win survives estimate noise.
            if (t_new + t_mat) * self.cfg.switch_margin < t_cur_basis {
                st.record(reopt(
                    ReoptVerdict::Accept,
                    t_new + t_mat,
                    t_mat,
                    t_cur_basis,
                ));
                Ok(Some(PendingSwitch {
                    cut: node,
                    temp_name: temp_name.clone(),
                    remainder,
                }))
            } else {
                st.record(reopt(
                    ReoptVerdict::RejectCost,
                    t_new + t_mat,
                    t_mat,
                    t_cur_basis,
                ));
                Ok(None)
            }
        };
        let accepted = decide();
        match &accepted {
            Ok(Some(_)) => {}
            _ => {
                // A failed placeholder drop must not fail the query (it
                // was running fine); record it — the engine audit flags
                // any survivor.
                if self.catalog.drop_table(&temp_name).is_err() {
                    st.record(ObsEvent::Cleanup {
                        temp_tables: 0,
                        temp_files: 0,
                        failures: 1,
                    });
                }
                let _ = self.storage.drop_file(placeholder_file);
            }
        }
        accepted
    }

    /// Statistics for the placeholder temp table: improved cardinality
    /// plus every observed column distribution from the cut's subtree.
    fn placeholder_stats(&self, st: &CtrlState, cut: &PhysPlan) -> TableStats {
        let mut columns = HashMap::new();
        let rows = cut.annot.est_rows.max(0.0) as u64;
        // Baseline: every column inherits its base table's statistics
        // (the temp's columns keep their original qualifiers), with the
        // distinct count capped at the temp's cardinality. Without this
        // the remainder optimizer falls back to blind default
        // selectivities for any column no collector happened to watch.
        for field in cut.schema.fields() {
            let Some(q) = &field.qualifier else { continue };
            let Ok(entry) = self.catalog.table(q) else {
                continue;
            };
            let Some(stats) = &entry.stats else { continue };
            if let Some(cs) = stats.columns.get(field.name.as_ref()) {
                let mut cs = cs.clone();
                cs.distinct = cs.distinct.min(rows.max(1) as f64);
                columns.insert(field.name.to_string(), cs);
            }
        }
        cut.walk(&mut |n| {
            if let Some(obs) = st.improved.at(n.id) {
                for (qualified, oc) in &obs.columns {
                    let bare = qualified
                        .rsplit_once('.')
                        .map(|(_, b)| b)
                        .unwrap_or(qualified);
                    columns.insert(
                        bare.to_string(),
                        ColumnStats {
                            min: oc.min.clone(),
                            max: oc.max.clone(),
                            distinct: oc.distinct,
                            null_frac: oc.null_frac,
                            histogram: oc.histogram.clone(),
                            histogram_kind: oc.histogram.as_ref().map(|h| h.kind()),
                            clustering: oc.clustering,
                        },
                    );
                }
            }
        });
        let avg = cut.annot.est_row_bytes.max(1.0);
        TableStats {
            rows,
            pages: ((rows as f64 * avg) / self.cfg.page_size as f64).ceil() as u64,
            avg_row_bytes: avg,
            columns,
        }
    }
}

impl ExecMonitor for ReoptController {
    fn on_collector_progress(&self, node: NodeId, rows: u64) -> Result<()> {
        let mut st = self.state.borrow_mut();
        if st.suppressed || st.plan.is_none() || !self.mode.reallocates_memory() {
            return Ok(());
        }
        let Some(est) = st
            .plan
            .as_ref()
            .and_then(|p| p.find(node))
            .map(|n| n.annot.est_rows)
        else {
            return Ok(());
        };
        let ratio = rows as f64 / est.max(1.0);
        let last = st.progress_ratio.get(&node).copied().unwrap_or(1.0);
        // React at each doubling past the estimate: the count is a
        // lower bound, so raising on it is always safe, and the
        // throttle keeps the overhead negligible.
        if ratio < 2.0 || ratio < last * 2.0 {
            return Ok(());
        }
        st.progress_ratio.insert(node, ratio);
        st.record(ObsEvent::Collector {
            node: node.0 as u64,
            observed_rows: rows,
            estimated_rows: est,
            inaccuracy: inaccuracy_factor(rows, est),
            complete: false,
            progress: true,
        });
        st.improved.record(ObservedStats {
            node,
            rows,
            avg_row_bytes: 0.0,
            columns: HashMap::new(),
            complete: false,
        });
        let plan = st.plan.clone().expect("plan installed");
        let improved = st.improved.improved_plan(&plan, &self.cfg);
        self.reallocate_memory(&mut st, &improved);
        Ok(())
    }

    fn on_collector(&self, stats: ObservedStats) -> Result<()> {
        let mut st = self.state.borrow_mut();
        if st.suppressed {
            return Ok(());
        }
        st.collector_reports += 1;
        let est = st
            .plan
            .as_ref()
            .and_then(|p| p.find(stats.node))
            .map(|n| n.annot.est_rows)
            .unwrap_or(0.0);
        st.record(ObsEvent::Collector {
            node: stats.node.0 as u64,
            observed_rows: stats.rows,
            estimated_rows: est,
            inaccuracy: inaccuracy_factor(stats.rows, est),
            complete: stats.complete,
            progress: false,
        });
        st.improved.record(stats);
        Ok(())
    }

    fn on_phase_complete(&self, node: NodeId) -> Result<()> {
        let mut st = self.state.borrow_mut();
        if st.suppressed || st.plan.is_none() {
            return Ok(());
        }
        self.mark_progress(&mut st, node);

        // Improved view of the whole plan with current grants.
        let plan = st.plan.clone().expect("plan installed");
        let improved = st.improved.improved_plan(&plan, &self.cfg);

        if self.mode.reallocates_memory() {
            self.reallocate_memory(&mut st, &improved);
        }
        if self.mode.modifies_plans() {
            if let Some(pending) = self.consider_replan(&mut st, node, &improved)? {
                let cut = pending.cut;
                st.pending = Some(pending);
                return Err(MqError::PlanSwitch(cut.0));
            }
        }
        Ok(())
    }
}
