//! Cardinality feedback: observed sub-plan row counts override the
//! optimizer's catalog-derived estimates.
//!
//! §2.2 notes that collected statistics "can also be used to update the
//! statistics stored in the database catalogs"; the cross-query cache
//! subsystem goes one step further and remembers the *exact* observed
//! cardinality of every checkpointed sub-plan, keyed by its canonical
//! fingerprint. This module is the optimizer-side consumer, and
//! `consult` is its one read of the store. Planning consults it at
//! three points: each base relation before join enumeration
//! ([`apply_to_graph`]), each DP candidate, and each post-join operator
//! (residual filter, aggregate, sort, limit, projection) as it is
//! built (`apply_to_plan`). A correction lands before anything is
//! built on top of the corrected node, so it steers the join order and
//! operator choice above it and the estimates of every node above it.
//!
//! Truthful annotations also fix the *baseline* the runtime controller
//! compares observations against: the divergence `max(obs/est,
//! est/obs)` of a repeated query family stays under θ2 and the
//! controller stops proposing mid-query switches the first run already
//! paid for.

use mq_common::EngineConfig;
use mq_plan::{base_tables, subplan_fingerprint, PhysOp, PhysPlan, ScanSpec};

use crate::cost::recost;
use crate::enumerate::QueryGraph;
use crate::props::RelProps;

/// Source of observed sub-plan cardinalities. Implemented by the
/// engine over its feedback store; a trait so the optimizer stays
/// independent of the cache crate (and tests can use a closure-like
/// stub).
pub trait CardFeedback {
    /// Observed (still-valid) row count for a canonical sub-plan
    /// fingerprint, or `None`.
    fn observed_rows(&self, fingerprint: u64) -> Option<f64>;
}

/// One estimate override performed while planning.
#[derive(Debug, Clone)]
pub struct FeedbackHit {
    /// Base tables of the overridden sub-plan, sorted and
    /// comma-joined (one name for a base-relation override).
    pub table: String,
    /// Canonical fingerprint of the overridden sub-plan.
    pub fingerprint: u64,
    /// The catalog-derived estimate that was replaced.
    pub estimated_rows: f64,
    /// The observed row count stamped in.
    pub observed_rows: f64,
    /// Bare column names the relation's local predicate references —
    /// the candidates for adaptive histogram refresh when this hit's
    /// error keeps recurring. Empty for every override but a
    /// base-relation one: a join or post-join error is never
    /// attributable to one base-table column.
    pub columns: Vec<String>,
}

/// The one consult of the feedback store: the observed row count for
/// `fingerprint` when it is valid (finite, ≥ 0) and differs from
/// `estimated_rows`. A new fingerprint is recorded in `hits`, named by
/// `describe` (base tables, refresh columns); a repeated one is applied
/// again but recorded once.
pub(crate) fn consult(
    feedback: &dyn CardFeedback,
    fingerprint: u64,
    estimated_rows: f64,
    hits: &mut Vec<FeedbackHit>,
    describe: impl FnOnce() -> (String, Vec<String>),
) -> Option<f64> {
    let observed = feedback.observed_rows(fingerprint)?;
    if !observed.is_finite() || observed < 0.0 || observed == estimated_rows {
        return None;
    }
    if !hits.iter().any(|h| h.fingerprint == fingerprint) {
        let (table, columns) = describe();
        hits.push(FeedbackHit {
            table,
            fingerprint,
            estimated_rows,
            observed_rows: observed,
            columns,
        });
    }
    Some(observed)
}

/// Steer the *join enumeration* with observed cardinalities: override
/// each base relation's post-predicate row estimate when the feedback
/// store has seen that exact filtered scan before (keyed by the
/// canonical fingerprint of the relation's filtered sequential scan —
/// the form a promoted plan-switch cut records). Corrections applied
/// here propagate through the DP's join-selectivity arithmetic, so a
/// repeated query family gets the join order and operators the first
/// run had to discover mid-query — not just truthful annotations on
/// the same mis-chosen shape.
///
/// The DP's own consult does not make this step redundant, for two
/// reasons. A relation joined as the inner input is rebuilt from its
/// [`RelProps`] for every join candidate, never taken from a consulted
/// singleton, so only this override reaches it. And only this step
/// knows the predicate columns that adaptive histogram refresh keys on.
pub fn apply_to_graph(
    graph: &mut QueryGraph,
    feedback: &dyn CardFeedback,
    hits: &mut Vec<FeedbackHit>,
) {
    for rel in &mut graph.relations {
        // Mirror the seq-scan alternative `best_access_path` builds;
        // only the table name and (canonically sorted) conjuncts feed
        // the fingerprint, so pages/rows placeholders are irrelevant.
        let filter = match &rel.local {
            Some(p) => match p.bind(&rel.entry.schema) {
                Ok(b) => Some(b),
                Err(_) => continue,
            },
            None => None,
        };
        let probe = PhysPlan::new(
            PhysOp::SeqScan {
                spec: ScanSpec {
                    table: rel.entry.name.clone(),
                    file: rel.entry.file,
                    pages: 1,
                    rows: 0,
                },
                filter,
            },
            vec![],
            rel.entry.schema.clone(),
        );
        let fp = subplan_fingerprint(&probe);
        let describe = || {
            // Bare (unqualified, deduped) predicate columns: the
            // refresh machinery attributes the error to a column
            // only when exactly one is involved.
            let mut columns: Vec<String> = rel
                .local
                .as_ref()
                .map(|p| {
                    p.referenced_columns()
                        .iter()
                        .map(|c| c.rsplit('.').next().unwrap_or(c).to_string())
                        .collect()
                })
                .unwrap_or_default();
            columns.sort();
            columns.dedup();
            (rel.entry.name.clone(), columns)
        };
        if let Some(observed) = consult(feedback, fp, rel.props.rows, hits, describe) {
            rel.props.rows = observed;
        }
    }
}

/// Override a freshly built node's output-row estimate — a DP
/// candidate or a post-join operator — when the feedback store has
/// observed this exact sub-plan's true cardinality, then recost it. The
/// correction lands on `props.rows` *before* the candidate competes
/// and before anything is built on top of it, so one observed sub-plan
/// steers the operator choice, join order and estimates of the whole
/// tree above it.
///
/// Fingerprints are physical-operator-sensitive (`hj(…)` ≠ `inlj(…)`),
/// so an observation made under one join operator does not transfer to
/// an alternative operator for the same logical join — the alternative
/// keeps its catalog estimate. That bias is harmless in practice: the
/// corrected candidate carries the truth upward once it wins, and it
/// wins exactly when the truth makes it cheapest.
pub(crate) fn apply_to_plan(
    plan: &mut PhysPlan,
    props: &mut RelProps,
    feedback: Option<&dyn CardFeedback>,
    cfg: &EngineConfig,
    hits: &mut Vec<FeedbackHit>,
) {
    let Some(fb) = feedback else { return };
    let fp = subplan_fingerprint(plan);
    let describe = || (base_tables(plan).join(","), Vec::new());
    let Some(observed) = consult(fb, fp, plan.annot.est_rows, hits, describe) else {
        return;
    };
    plan.annot.est_rows = observed;
    props.rows = observed;
    recost(plan, cfg);
}
