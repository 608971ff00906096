//! Query-graph decomposition and System-R dynamic-programming join
//! enumeration (left-deep, as in Selinger et al. \[22\], which the
//! Paradise optimizer follows).

use std::collections::HashMap;

use mq_catalog::{Catalog, TableEntry};
use mq_common::{EngineConfig, MqError, Result, Value};
use mq_expr::{estimate_selectivity, CmpOp, Expr};
use mq_plan::{subplan_fingerprint, LogicalPlan, PhysOp, PhysPlan, ScanSpec};
use mq_storage::Storage;

use crate::cost::recost;
use crate::feedback::{CardFeedback, GraphFeedbackHit};
use crate::props::RelProps;

/// One base relation of the join region, with its pushed-down local
/// predicate and post-predicate statistics.
#[derive(Debug, Clone)]
pub struct BaseRel {
    /// Catalog entry snapshot.
    pub entry: TableEntry,
    /// Conjunction of local predicates (unbound).
    pub local: Option<Expr>,
    /// Statistics after local predicates.
    pub props: RelProps,
    /// Statistics before local predicates.
    pub raw_props: RelProps,
    /// Live row count from storage metadata.
    pub live_rows: u64,
    /// Live page count from storage metadata.
    pub live_pages: u64,
}

/// An equi-join edge between two relations (qualified column names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    /// Index of the relation owning `left_col`.
    pub left_rel: usize,
    /// Column on the left relation.
    pub left_col: String,
    /// Index of the relation owning `right_col`.
    pub right_rel: usize,
    /// Column on the right relation.
    pub right_col: String,
}

/// The flattened join region of a query plus everything above it.
#[derive(Debug, Clone)]
pub struct QueryGraph {
    /// Base relations.
    pub relations: Vec<BaseRel>,
    /// Equi-join edges.
    pub edges: Vec<JoinEdge>,
    /// Conjuncts not pushable anywhere (applied after the last join).
    pub residual: Vec<Expr>,
}

/// Decompose the join region of `logical` (scans, filters, joins) into
/// a [`QueryGraph`]. `post` receives the operators above the join
/// region, outermost first.
pub fn decompose(
    logical: &LogicalPlan,
    catalog: &Catalog,
    storage: &Storage,
    cfg: &EngineConfig,
    post: &mut Vec<LogicalPlan>,
) -> Result<QueryGraph> {
    // Peel post-join operators.
    let mut cur = logical;
    while let LogicalPlan::Project { input, .. }
    | LogicalPlan::Aggregate { input, .. }
    | LogicalPlan::Sort { input, .. }
    | LogicalPlan::Limit { input, .. } = cur
    {
        post.push(shallow(cur));
        cur = input;
    }

    // Collect scans and predicates from the join region.
    let mut rels: Vec<(String, Vec<Expr>)> = Vec::new();
    let mut preds: Vec<Expr> = Vec::new();
    collect_region(cur, &mut rels, &mut preds)?;
    if rels.is_empty() {
        return Err(MqError::Plan("query has no base relations".into()));
    }

    // Build entries first so predicates can be attributed.
    let mut entries = Vec::with_capacity(rels.len());
    for (name, _) in &rels {
        entries.push(catalog.table(name)?);
    }

    // Classify the floating predicates.
    let mut local_extra: Vec<Vec<Expr>> = vec![Vec::new(); rels.len()];
    let mut edges = Vec::new();
    let mut residual = Vec::new();
    for p in preds {
        match classify(&p, &entries) {
            Class::Local(i) => local_extra[i].push(p),
            Class::Join(e) => edges.push(e),
            Class::Residual => residual.push(p),
        }
    }

    // Implied-predicate derivation from disjunctions: for a residual
    // like `(n1.name='FRANCE' AND n2.name='GERMANY') OR (n1.name=
    // 'GERMANY' AND n2.name='FRANCE')` (TPC-D Q7), every disjunct
    // constrains n1, so `n1.name='FRANCE' OR n1.name='GERMANY'` is
    // implied and can be pushed to n1's scan (and likewise n2). The
    // original residual stays for exactness.
    for r in &residual {
        let Expr::Or(disjuncts) = r else { continue };
        if disjuncts.is_empty() {
            continue;
        }
        for (i, _) in entries.iter().enumerate() {
            let mut per_disjunct: Vec<Expr> = Vec::with_capacity(disjuncts.len());
            let mut all_covered = true;
            for d in disjuncts {
                let parts: Vec<Expr> = d
                    .conjuncts()
                    .into_iter()
                    .filter(|c| matches!(classify(c, &entries), Class::Local(j) if j == i))
                    .collect();
                if parts.is_empty() {
                    all_covered = false;
                    break;
                }
                per_disjunct.push(mq_expr::and(parts));
            }
            if all_covered {
                local_extra[i].push(Expr::Or(per_disjunct));
            }
        }
    }

    let mut relations = Vec::with_capacity(rels.len());
    for (i, ((_, mut local), entry)) in rels.into_iter().zip(entries).enumerate() {
        local.append(&mut local_extra[i]);
        let local = if local.is_empty() {
            None
        } else {
            Some(mq_expr::and(local))
        };
        let live_rows = storage.file_rows(entry.file)?;
        let live_pages = storage.file_pages(entry.file)? as u64;
        let raw_props = RelProps::from_table(&entry, live_rows, live_pages, cfg);
        let props = match &local {
            Some(p) => raw_props.filtered(p).0,
            None => raw_props.clone(),
        };
        relations.push(BaseRel {
            entry,
            local,
            props,
            raw_props,
            live_rows,
            live_pages,
        });
    }
    Ok(QueryGraph {
        relations,
        edges,
        residual,
    })
}

fn shallow(p: &LogicalPlan) -> LogicalPlan {
    // Clone the node but truncate its input (placeholder scan); only the
    // node's own payload is used when re-assembling.
    p.clone()
}

fn collect_region(
    plan: &LogicalPlan,
    rels: &mut Vec<(String, Vec<Expr>)>,
    preds: &mut Vec<Expr>,
) -> Result<()> {
    match plan {
        LogicalPlan::Scan { table, filter } => {
            let fs = filter.as_ref().map(|f| f.conjuncts()).unwrap_or_default();
            rels.push((table.clone(), fs));
            Ok(())
        }
        LogicalPlan::Filter { input, predicate } => {
            preds.extend(predicate.conjuncts());
            collect_region(input, rels, preds)
        }
        LogicalPlan::Join { left, right, on } => {
            collect_region(left, rels, preds)?;
            collect_region(right, rels, preds)?;
            for (l, r) in on {
                preds.push(mq_expr::eq(mq_expr::col(l), mq_expr::col(r)));
            }
            Ok(())
        }
        other => Err(MqError::Plan(format!(
            "operator {:?} not supported inside a join region",
            std::mem::discriminant(other)
        ))),
    }
}

enum Class {
    Local(usize),
    Join(JoinEdge),
    Residual,
}

fn owner(entries: &[TableEntry], colname: &str) -> Option<usize> {
    let mut found = None;
    for (i, e) in entries.iter().enumerate() {
        if e.schema.index_of(colname).is_ok() {
            if found.is_some() {
                return None; // ambiguous
            }
            found = Some(i);
        }
    }
    found
}

fn classify(p: &Expr, entries: &[TableEntry]) -> Class {
    let cols = p.referenced_columns();
    let mut owners: Vec<usize> = Vec::new();
    for c in &cols {
        match owner(entries, c) {
            Some(i) => owners.push(i),
            None => return Class::Residual,
        }
    }
    owners.sort_unstable();
    owners.dedup();
    match owners.len() {
        0 => Class::Residual, // constant predicate
        1 => Class::Local(owners[0]),
        2 => {
            // A two-table equality between bare columns is a join edge.
            if let Expr::Cmp {
                op: CmpOp::Eq,
                left,
                right,
            } = p
            {
                if let (Expr::Column(l), Expr::Column(r)) = (left.as_ref(), right.as_ref()) {
                    let lo = owner(entries, l);
                    let ro = owner(entries, r);
                    if let (Some(lo), Some(ro)) = (lo, ro) {
                        if lo != ro {
                            return Class::Join(JoinEdge {
                                left_rel: lo,
                                left_col: l.to_string(),
                                right_rel: ro,
                                right_col: r.to_string(),
                            });
                        }
                    }
                }
            }
            Class::Residual
        }
        _ => Class::Residual,
    }
}

/// One DP table entry.
#[derive(Debug, Clone)]
struct Candidate {
    plan: PhysPlan,
    props: RelProps,
    cost_ms: f64,
}

/// Result of enumeration: cheapest join tree plus its properties and
/// the number of candidate plans costed (the optimizer "work units"
/// used to calibrate `T_opt`).
#[derive(Debug, Clone)]
pub struct Enumerated {
    /// Cheapest physical join tree (annotated, un-idented).
    pub plan: PhysPlan,
    /// Statistics of its output.
    pub props: RelProps,
    /// Candidate plans costed during the search.
    pub work_units: u64,
    /// Estimate overrides taken from the cardinality feedback store
    /// during the search, deduplicated by fingerprint (empty without
    /// feedback).
    pub feedback_hits: Vec<GraphFeedbackHit>,
}

/// Override a DP candidate's output-row estimate when the feedback
/// store has observed this exact sub-plan's true cardinality. The
/// correction lands on `props.rows` *before* the candidate competes and
/// before anything joins on top of it, so one observed sub-plan steers
/// the operator choice and join order of the whole tree above it.
///
/// Fingerprints are physical-operator-sensitive (`hj(…)` ≠ `inlj(…)`),
/// so an observation made under one join operator does not transfer to
/// an alternative operator for the same logical join — the alternative
/// keeps its catalog estimate. That bias is harmless in practice: the
/// corrected candidate carries the truth upward once it wins, and it
/// wins exactly when the truth makes it cheapest.
fn consult_feedback(
    plan: &mut PhysPlan,
    props: &mut RelProps,
    feedback: Option<&dyn CardFeedback>,
    cfg: &EngineConfig,
    hits: &mut Vec<GraphFeedbackHit>,
) {
    let Some(fb) = feedback else { return };
    let fp = subplan_fingerprint(plan);
    let Some(observed) = fb.observed_rows(fp) else {
        return;
    };
    if !observed.is_finite() || observed < 0.0 || observed == plan.annot.est_rows {
        return;
    }
    if !hits.iter().any(|h| h.fingerprint == fp) {
        hits.push(GraphFeedbackHit {
            table: mq_plan::base_tables(plan).join(","),
            fingerprint: fp,
            estimated_rows: plan.annot.est_rows,
            observed_rows: observed,
            // Join-level hits are never attributable to one base-table
            // column; only graph-level (single-relation) hits drive the
            // adaptive histogram refresh.
            columns: Vec::new(),
        });
    }
    plan.annot.est_rows = observed;
    props.rows = observed;
    recost(plan, cfg);
}

/// Enumerate left-deep join orders over the query graph and return the
/// cheapest plan under the cost model (optimistic full-budget memory).
/// With `feedback`, every candidate sub-plan's cardinality is checked
/// against previously observed truths through [`CardFeedback`].
pub fn enumerate(
    graph: &QueryGraph,
    storage: &Storage,
    cfg: &EngineConfig,
    feedback: Option<&dyn CardFeedback>,
) -> Result<Enumerated> {
    let n = graph.relations.len();
    if n > 12 {
        return Err(MqError::Plan(format!(
            "too many relations to enumerate: {n}"
        )));
    }
    let mut work: u64 = 0;
    let mut best: HashMap<u64, Candidate> = HashMap::new();
    let mut feedback_hits: Vec<GraphFeedbackHit> = Vec::new();

    // Singletons: best access path per relation.
    for (i, rel) in graph.relations.iter().enumerate() {
        let (plan, extra_work) = best_access_path(rel, storage, cfg)?;
        work += extra_work;
        let mut plan = plan;
        recost(&mut plan, cfg);
        let mut props = rel.props.clone();
        consult_feedback(&mut plan, &mut props, feedback, cfg, &mut feedback_hits);
        best.insert(
            1 << i,
            Candidate {
                cost_ms: plan.annot.est_total_time_ms,
                props,
                plan,
            },
        );
    }

    for size in 2..=n {
        let mut masks: Vec<u64> = best
            .keys()
            .copied()
            .filter(|m| m.count_ones() as usize == size - 1)
            .collect();
        masks.sort_unstable(); // determinism: HashMap order is arbitrary
        let mut found_connected = vec![false; 0];
        let _ = &mut found_connected;
        for mask in masks {
            let left = best.get(&mask).cloned().expect("present");
            // Prefer connected extensions; fall back to cross products
            // only when nothing connects (star queries stay connected).
            let mut connected_any = false;
            for rel_idx in 0..n {
                if mask & (1 << rel_idx) != 0 {
                    continue;
                }
                let pairs = connecting_pairs(graph, mask, rel_idx);
                if !pairs.is_empty() {
                    connected_any = true;
                }
            }
            for rel_idx in 0..n {
                if mask & (1 << rel_idx) != 0 {
                    continue;
                }
                let pairs = connecting_pairs(graph, mask, rel_idx);
                if pairs.is_empty() && connected_any {
                    continue;
                }
                let new_mask = mask | (1 << rel_idx);
                for mut cand in
                    join_candidates(&left, &graph.relations[rel_idx], &pairs, storage, cfg)?
                {
                    work += 1;
                    consult_feedback(
                        &mut cand.plan,
                        &mut cand.props,
                        feedback,
                        cfg,
                        &mut feedback_hits,
                    );
                    cand.cost_ms = cand.plan.annot.est_total_time_ms;
                    let entry = best.get(&new_mask);
                    if entry.is_none_or(|e| cand.cost_ms < e.cost_ms) {
                        best.insert(new_mask, cand);
                    }
                }
            }
        }
    }

    let full = (1u64 << n) - 1;
    let winner = best
        .remove(&full)
        .ok_or_else(|| MqError::Plan("join enumeration found no complete plan".into()))?;
    Ok(Enumerated {
        plan: winner.plan,
        props: winner.props,
        work_units: work,
        feedback_hits,
    })
}

/// Join-column pairs (left qualified col, right qualified col) between
/// the subset `mask` and relation `rel_idx`.
fn connecting_pairs(graph: &QueryGraph, mask: u64, rel_idx: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for e in &graph.edges {
        if e.left_rel == rel_idx && mask & (1 << e.right_rel) != 0 {
            out.push((e.right_col.clone(), e.left_col.clone()));
        } else if e.right_rel == rel_idx && mask & (1 << e.left_rel) != 0 {
            out.push((e.left_col.clone(), e.right_col.clone()));
        }
    }
    out
}

/// Best access path for one base relation: sequential scan versus index
/// scan on any indexed, range/eq-constrained column.
fn best_access_path(
    rel: &BaseRel,
    storage: &Storage,
    cfg: &EngineConfig,
) -> Result<(PhysPlan, u64)> {
    let spec = ScanSpec {
        table: rel.entry.name.clone(),
        file: rel.entry.file,
        pages: rel.live_pages.max(1),
        rows: rel.live_rows,
    };
    let mut work = 1u64;

    let bound_local = match &rel.local {
        Some(p) => Some(p.bind(&rel.entry.schema)?),
        None => None,
    };
    let mut seq = PhysPlan::new(
        PhysOp::SeqScan {
            spec: spec.clone(),
            filter: bound_local.clone(),
        },
        vec![],
        rel.entry.schema.clone(),
    );
    seq.annot.est_rows = rel.props.rows;
    seq.annot.est_row_bytes = rel.props.row_bytes;
    recost(&mut seq, cfg);
    let mut best_plan = seq;

    // Try each index whose column has a sargable conjunct.
    if let Some(local) = &rel.local {
        let conjs = local.conjuncts();
        for (colname, index) in &rel.entry.indexes {
            let mut lo: Option<Value> = None;
            let mut hi: Option<Value> = None;
            let mut residual: Vec<Expr> = Vec::new();
            let mut index_sel_pred: Vec<Expr> = Vec::new();
            for c in &conjs {
                match sargable(c, colname) {
                    Some((op, v)) => {
                        match op {
                            CmpOp::Eq => {
                                lo = Some(v.clone());
                                hi = Some(v.clone());
                            }
                            CmpOp::Ge | CmpOp::Gt => {
                                lo = Some(bound_max(lo.take(), v.clone(), true))
                            }
                            CmpOp::Le | CmpOp::Lt => {
                                hi = Some(bound_max(hi.take(), v.clone(), false))
                            }
                            _ => {
                                residual.push(c.clone());
                                continue;
                            }
                        }
                        index_sel_pred.push(c.clone());
                    }
                    None => residual.push(c.clone()),
                }
            }
            if lo.is_none() && hi.is_none() {
                continue;
            }
            work += 1;
            // Rows matched by the index predicate alone (drives I/O).
            let idx_pred = mq_expr::and(index_sel_pred.clone());
            let idx_sel = estimate_selectivity(&idx_pred, &rel.raw_props).selectivity;
            let match_rows = rel.raw_props.rows * idx_sel;
            let residual_expr = if residual.is_empty() {
                None
            } else {
                Some(mq_expr::and(residual.clone()).bind(&rel.entry.schema)?)
            };
            let clustering = column_clustering(&rel.entry, colname);
            let mut plan = PhysPlan::new(
                PhysOp::IndexScan {
                    spec: spec.clone(),
                    index: *index,
                    column: colname.clone(),
                    lo,
                    hi,
                    residual: residual_expr,
                    index_height: storage.index_height(*index)?,
                    clustering,
                },
                vec![],
                rel.entry.schema.clone(),
            );
            plan.annot.est_rows = rel.props.rows;
            plan.annot.est_row_bytes = rel.props.row_bytes;
            // Cost from the index-matched row count, not the final rows.
            plan.annot.est_rows = plan.annot.est_rows.max(0.0);
            recost(&mut plan, cfg);
            // recost uses est_rows for match volume; adjust: the I/O is
            // driven by match_rows, so re-derive with that and keep the
            // larger of the two estimates for safety.
            let adjusted = crate::cost::index_scan_cost(
                match_rows.max(1.0),
                plan_index_height(&plan) as f64,
                column_clustering(&rel.entry, colname),
                1.0,
            );
            plan.annot.est_cost = adjusted;
            plan.annot.est_time_ms = adjusted.time_ms(cfg);
            plan.annot.est_total_time_ms = plan.annot.est_time_ms;
            if plan.annot.est_total_time_ms < best_plan.annot.est_total_time_ms {
                best_plan = plan;
            }
        }
    }
    Ok((best_plan, work))
}

fn plan_index_height(p: &PhysPlan) -> usize {
    match &p.op {
        PhysOp::IndexScan { index_height, .. } => *index_height,
        _ => 1,
    }
}

fn sargable<'a>(conj: &'a Expr, colname: &str) -> Option<(CmpOp, &'a Value)> {
    if let Expr::Cmp { op, left, right } = conj {
        match (left.as_ref(), right.as_ref()) {
            (Expr::Column(n), Expr::Literal(v)) if bare(n) == colname => Some((*op, v)),
            (Expr::Literal(v), Expr::Column(n)) if bare(n) == colname => Some((op.flip(), v)),
            _ => None,
        }
    } else {
        None
    }
}

/// Stored physical clustering of a column (0 when unanalyzed).
fn column_clustering(entry: &TableEntry, column: &str) -> f64 {
    entry
        .stats
        .as_ref()
        .and_then(|s| s.columns.get(bare(column)))
        .map(|c| c.clustering)
        .unwrap_or(0.0)
}

fn bare(name: &str) -> &str {
    name.rsplit_once('.').map(|(_, b)| b).unwrap_or(name)
}

fn bound_max(cur: Option<Value>, new: Value, lower: bool) -> Value {
    match cur {
        None => new,
        Some(c) => {
            if lower {
                if new > c {
                    new
                } else {
                    c
                }
            } else if new < c {
                new
            } else {
                c
            }
        }
    }
}

/// All physical join alternatives for `left ⋈ rel` and their costs.
fn join_candidates(
    left: &Candidate,
    rel: &BaseRel,
    pairs: &[(String, String)],
    storage: &Storage,
    cfg: &EngineConfig,
) -> Result<Vec<Candidate>> {
    let mut out = Vec::new();
    let (right_plan, _) = best_access_path(rel, storage, cfg)?;
    let on: Vec<(String, String)> = pairs.to_vec();
    let (props, _sel) = left.props.joined(&rel.props, &on);

    // Hash join, build = left (the accumulated side). Paradise-style:
    // the intermediate result feeds the *build* of the next join, so
    // execution proceeds in segments with a decision point after every
    // build (the paper's Figures 1–7 all assume this shape, and the
    // memory-demand arithmetic of Figure 3 — "size of left input plus
    // overhead" — only works this way). Join *order* remains fully
    // cost-driven.
    {
        let build_keys = key_positions(&left.plan.schema, pairs.iter().map(|(l, _)| l.as_str()))?;
        let probe_keys = key_positions(&rel.entry.schema, pairs.iter().map(|(_, r)| r.as_str()))?;
        let schema = left.plan.schema.join(&right_plan.schema);
        let mut plan = PhysPlan::new(
            PhysOp::HashJoin {
                build_keys,
                probe_keys,
            },
            vec![left.plan.clone(), right_plan.clone()],
            schema,
        );
        plan.annot.est_rows = props.rows;
        plan.annot.est_row_bytes = props.row_bytes;
        recost(&mut plan, cfg);
        out.push(Candidate {
            cost_ms: plan.annot.est_total_time_ms,
            props: reorder_props(&props, &plan.schema),
            plan,
        });
    }

    // Indexed nested-loops: outer = left, inner = rel via index on its
    // join column (single-pair joins only).
    if pairs.len() == 1 {
        let (lcol, rcol) = &pairs[0];
        let rbare = bare(rcol);
        if let Some(index) = rel.entry.indexes.get(rbare) {
            let outer_key = left.plan.schema.index_of(lcol)?;
            let residual = match &rel.local {
                Some(p) => {
                    let joined_schema = left.plan.schema.join(&rel.entry.schema);
                    Some(p.bind(&joined_schema)?)
                }
                None => None,
            };
            let schema = left.plan.schema.join(&rel.entry.schema);
            let mut plan = PhysPlan::new(
                PhysOp::IndexNLJoin {
                    outer_key,
                    inner: ScanSpec {
                        table: rel.entry.name.clone(),
                        file: rel.entry.file,
                        pages: rel.live_pages.max(1),
                        rows: rel.live_rows,
                    },
                    index: *index,
                    inner_column: rbare.to_string(),
                    index_height: storage.index_height(*index)?,
                    clustering: column_clustering(&rel.entry, rbare),
                    residual,
                },
                vec![left.plan.clone()],
                schema,
            );
            plan.annot.est_rows = props.rows;
            plan.annot.est_row_bytes = props.row_bytes;
            recost(&mut plan, cfg);
            out.push(Candidate {
                cost_ms: plan.annot.est_total_time_ms,
                props: reorder_props(&props, &plan.schema),
                plan,
            });
        }
    }
    Ok(out)
}

fn key_positions<'a>(
    schema: &mq_common::Schema,
    names: impl Iterator<Item = &'a str>,
) -> Result<Vec<usize>> {
    names.map(|n| schema.index_of(n)).collect()
}

/// Re-align a props' schema to the actual plan output schema (column
/// stats are name-keyed, so only the schema field needs replacing).
fn reorder_props(props: &RelProps, schema: &mq_common::Schema) -> RelProps {
    let mut p = props.clone();
    p.schema = schema.clone();
    p
}

#[cfg(test)]
mod implied_tests {
    use super::*;
    use mq_common::{DataType, Row, SimClock, Value};
    use mq_expr::{col, eq, lit};

    #[test]
    fn disjunction_pushes_implied_per_table_predicates() {
        let cfg = EngineConfig::default();
        let storage = Storage::new(&cfg, SimClock::new());
        let catalog = Catalog::new();
        catalog
            .create_table(
                &storage,
                "n1",
                vec![("name", DataType::Str), ("k", DataType::Int)],
            )
            .unwrap();
        catalog
            .create_table(
                &storage,
                "n2",
                vec![("name", DataType::Str), ("k", DataType::Int)],
            )
            .unwrap();
        for t in ["n1", "n2"] {
            for i in 0..10i64 {
                catalog
                    .insert_row(
                        &storage,
                        t,
                        Row::new(vec![Value::str(format!("c{i}")), Value::Int(i)]),
                    )
                    .unwrap();
            }
        }
        let q = LogicalPlan::scan("n1")
            .join(LogicalPlan::scan("n2"), vec![("n1.k", "n2.k")])
            .filter(Expr::Or(vec![
                mq_expr::and(vec![
                    eq(col("n1.name"), lit("c1")),
                    eq(col("n2.name"), lit("c2")),
                ]),
                mq_expr::and(vec![
                    eq(col("n1.name"), lit("c2")),
                    eq(col("n2.name"), lit("c1")),
                ]),
            ]));
        let mut post = Vec::new();
        let graph = decompose(&q, &catalog, &storage, &cfg, &mut post).unwrap();
        // Both relations get an implied OR on their own name column…
        for rel in &graph.relations {
            let local = rel.local.as_ref().expect("implied predicate").to_string();
            assert!(local.contains("OR"), "{local}");
            assert!(local.contains("name"), "{local}");
        }
        // …and the exact residual survives.
        assert_eq!(graph.residual.len(), 1);
    }
}
