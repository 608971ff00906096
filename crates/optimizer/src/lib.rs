//! # mq-optimizer — a System-R style query optimizer
//!
//! The conventional optimizer the paper assumes (§2.1): dynamic-
//! programming join enumeration over left-deep trees with hash-join /
//! indexed-nested-loops alternatives and access-path selection, costed
//! by a memory-aware model, producing an **annotated** physical plan
//! whose every node records the optimizer's cardinality and time
//! estimates.
//!
//! Two paper-specific entry points matter beyond ordinary planning:
//!
//! * re-optimizing the **remainder** of a query is just a fresh
//!   [`Optimizer::optimize`] call over a logical plan in which the
//!   finished part has been replaced by a scan of the materialized
//!   temp table (whose statistics are *observed*, hence exact) — §2.4;
//! * [`calibrate::OptCalibration`] measures optimizer work on star
//!   joins of increasing size, providing the `T_opt,estimated` used in
//!   the re-optimization heuristic of Equation 1 (§2.4: "an optimizer
//!   for a particular database system can be calibrated to obtain
//!   these estimates").

pub mod calibrate;
pub mod cost;
pub mod enumerate;
pub mod feedback;
pub mod props;

use mq_catalog::Catalog;
use mq_common::{DataType, EngineConfig, Field, MqError, Result, Schema};
use mq_expr::Expr;
use mq_plan::{AggFunc, LogicalPlan, PhysOp, PhysPlan};
use mq_storage::Storage;

pub use calibrate::OptCalibration;
pub use cost::{materialize_cost, recost};
pub use enumerate::{decompose, enumerate, QueryGraph};
pub use feedback::{CardFeedback, FeedbackHit};
pub use props::RelProps;

/// Result of optimization.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The annotated physical plan (ids assigned, costs rolled up with
    /// optimistic memory; run the memory manager and [`recost`] for
    /// grant-aware times).
    pub plan: PhysPlan,
    /// Candidate plans costed — the optimizer work charged as `T_opt`
    /// when re-optimizing mid-query.
    pub work_units: u64,
    /// Output statistics of the plan root.
    pub props: RelProps,
    /// Estimate overrides taken from a cardinality feedback store, one
    /// per fingerprint in planning order: base relations, then DP
    /// candidates, then post-join operators (empty without feedback).
    pub feedback_hits: Vec<FeedbackHit>,
}

/// The query optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    cfg: EngineConfig,
}

impl Optimizer {
    /// Optimizer with the given engine configuration.
    pub fn new(cfg: EngineConfig) -> Optimizer {
        Optimizer { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Produce the cheapest annotated physical plan for `logical`.
    pub fn optimize(
        &self,
        logical: &LogicalPlan,
        catalog: &Catalog,
        storage: &Storage,
    ) -> Result<Optimized> {
        self.optimize_with_feedback(logical, catalog, storage, None)
    }

    /// [`Optimizer::optimize`] with an optional cardinality feedback
    /// source: observed row counts for previously-executed sub-plans
    /// override the catalog-derived estimates of base relations before
    /// join enumeration, of DP candidates during it and of post-join
    /// operators after it, steering join order, operator choice and
    /// every estimate above a corrected node (see [`feedback`]).
    pub fn optimize_with_feedback(
        &self,
        logical: &LogicalPlan,
        catalog: &Catalog,
        storage: &Storage,
        card_feedback: Option<&dyn CardFeedback>,
    ) -> Result<Optimized> {
        let cfg = &self.cfg;
        let mut post = Vec::new();
        let mut graph = decompose(logical, catalog, storage, cfg, &mut post)?;
        let mut feedback_hits = Vec::new();
        if let Some(fb) = card_feedback {
            feedback::apply_to_graph(&mut graph, fb, &mut feedback_hits);
        }
        let enumerated = enumerate(&graph, storage, cfg, card_feedback, &mut feedback_hits)?;
        let mut plan = enumerated.plan;
        let mut props = enumerated.props;
        let mut work = enumerated.work_units;

        // Residual predicates (correlated / multi-table non-equi).
        if !graph.residual.is_empty() {
            let pred = mq_expr::and(graph.residual.clone());
            let bound = pred.bind(&plan.schema)?;
            let (new_props, _est) = props.filtered(&pred);
            let schema = plan.schema.clone();
            let mut node = PhysPlan::new(PhysOp::Filter { predicate: bound }, vec![plan], schema);
            node.annot.est_rows = new_props.rows;
            node.annot.est_row_bytes = new_props.row_bytes;
            props = new_props;
            feedback::apply_to_plan(
                &mut node,
                &mut props,
                card_feedback,
                cfg,
                &mut feedback_hits,
            );
            plan = node;
            work += 1;
        }

        // Re-apply the peeled post-join operators, innermost first.
        for op in post.iter().rev() {
            plan = apply_post(op, plan, &mut props)?;
            feedback::apply_to_plan(
                &mut plan,
                &mut props,
                card_feedback,
                cfg,
                &mut feedback_hits,
            );
            work += 1;
        }

        plan.assign_ids();
        cost::recost(&mut plan, cfg);
        Ok(Optimized {
            plan,
            work_units: work,
            props,
            feedback_hits,
        })
    }
}

/// Build the physical operator for the post-join operator `op` over
/// `input`, updating `props` to describe its output.
fn apply_post(op: &LogicalPlan, input: PhysPlan, props: &mut RelProps) -> Result<PhysPlan> {
    match op {
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            let group: Vec<usize> = group_by
                .iter()
                .map(|g| input.schema.index_of(g))
                .collect::<Result<_>>()?;
            let bound_aggs: Vec<mq_plan::AggExpr> = aggs
                .iter()
                .map(|a| {
                    Ok(mq_plan::AggExpr {
                        func: a.func,
                        arg: match &a.arg {
                            Some(e) => Some(e.bind(&input.schema)?),
                            None => None,
                        },
                        name: a.name.clone(),
                    })
                })
                .collect::<Result<_>>()?;
            let mut fields: Vec<Field> = group
                .iter()
                .map(|&i| input.schema.field(i).clone())
                .collect();
            for a in aggs {
                let dtype = match (a.func, &a.arg) {
                    (AggFunc::Count, _) => DataType::Int,
                    (AggFunc::Avg, _) => DataType::Float,
                    (_, Some(e)) => infer_type(e, &input.schema)?,
                    (f, None) => return Err(MqError::Plan(format!("{f} requires an argument"))),
                };
                fields.push(Field::new(a.name.as_str(), dtype));
            }
            let schema = Schema::new(fields)?;
            let groups = props.group_count(group_by);
            let row_bytes = width_guess(&schema);
            let mut node = PhysPlan::new(
                PhysOp::HashAggregate {
                    group,
                    aggs: bound_aggs,
                },
                vec![input],
                schema.clone(),
            );
            node.annot.est_rows = groups;
            node.annot.est_row_bytes = row_bytes;
            props.rows = groups;
            props.row_bytes = row_bytes;
            props.schema = schema;
            props.columns.retain(|k, _| {
                group_by.iter().any(|g| {
                    k == g
                        || k.ends_with(&format!(".{g}"))
                        || g.ends_with(&format!(".{}", k.rsplit('.').next().unwrap_or(k)))
                })
            });
            Ok(node)
        }
        LogicalPlan::Sort { keys, .. } => {
            let positions: Vec<(usize, bool)> = keys
                .iter()
                .map(|(k, asc)| Ok((input.schema.index_of(k)?, *asc)))
                .collect::<Result<_>>()?;
            let schema = input.schema.clone();
            let mut node = PhysPlan::new(PhysOp::Sort { keys: positions }, vec![input], schema);
            node.annot.est_rows = props.rows;
            node.annot.est_row_bytes = props.row_bytes;
            Ok(node)
        }
        LogicalPlan::Limit { n, .. } => {
            let schema = input.schema.clone();
            let mut node = PhysPlan::new(PhysOp::Limit { n: *n }, vec![input], schema);
            node.annot.est_rows = props.rows.min(*n as f64);
            node.annot.est_row_bytes = props.row_bytes;
            props.rows = node.annot.est_rows;
            Ok(node)
        }
        LogicalPlan::Project { exprs, .. } => {
            let mut bound = Vec::with_capacity(exprs.len());
            let mut fields = Vec::with_capacity(exprs.len());
            for (e, name) in exprs {
                bound.push((e.bind(&input.schema)?, name.clone()));
                fields.push(Field::new(name.as_str(), infer_type(e, &input.schema)?));
            }
            let schema = Schema::new(fields)?;
            let mut node = PhysPlan::new(
                PhysOp::Project { exprs: bound },
                vec![input],
                schema.clone(),
            );
            node.annot.est_rows = props.rows;
            node.annot.est_row_bytes = width_guess(&schema);
            props.row_bytes = node.annot.est_row_bytes;
            props.schema = schema;
            Ok(node)
        }
        other => Err(MqError::Plan(format!(
            "unsupported post-join operator {:?}",
            std::mem::discriminant(other)
        ))),
    }
}

/// Re-derive every annotation of an existing physical plan from
/// *current* catalog statistics (bottom-up cardinality derivation via
/// [`RelProps`], then costs/times). This prices a fixed plan shape on
/// the same statistical basis a fresh [`Optimizer::optimize`] call
/// uses — the symmetric comparison the mid-query re-optimization
/// decision needs (pricing "continue" with inflated runtime-scaled
/// numbers while "switch" gets fresh optimistic ones would bias every
/// decision toward switching).
pub fn annotate_physical(
    plan: &mut PhysPlan,
    catalog: &Catalog,
    storage: &Storage,
    cfg: &EngineConfig,
) -> Result<()> {
    derive_props(plan, catalog, storage, cfg)?;
    cost::recost(plan, cfg);
    Ok(())
}

fn derive_props(
    plan: &mut PhysPlan,
    catalog: &Catalog,
    storage: &Storage,
    cfg: &EngineConfig,
) -> Result<RelProps> {
    use mq_plan::ScanSpec;
    fn scan_props(
        spec: &ScanSpec,
        filter: Option<&Expr>,
        catalog: &Catalog,
        storage: &Storage,
        cfg: &EngineConfig,
    ) -> Result<RelProps> {
        let entry = catalog.table(&spec.table)?;
        let live_rows = storage.file_rows(entry.file).unwrap_or(spec.rows);
        let live_pages = storage
            .file_pages(entry.file)
            .unwrap_or(spec.pages as usize) as u64;
        let raw = RelProps::from_table(&entry, live_rows, live_pages, cfg);
        Ok(match filter {
            Some(f) => raw.filtered(f).0,
            None => raw,
        })
    }

    let nchildren = plan.children.len();
    let mut child_props = Vec::with_capacity(nchildren);
    for c in &mut plan.children {
        child_props.push(derive_props(c, catalog, storage, cfg)?);
    }

    let props = match &plan.op {
        PhysOp::SeqScan { spec, filter } => {
            scan_props(spec, filter.as_ref(), catalog, storage, cfg)?
        }
        // A cached materialization is catalog-registered with exact
        // statistics, so it derives like an unfiltered base-table scan.
        PhysOp::CachedScan { spec, .. } => scan_props(spec, None, catalog, storage, cfg)?,
        PhysOp::IndexScan {
            spec,
            column,
            lo,
            hi,
            residual,
            ..
        } => {
            // Reconstruct the absorbed sargable predicate.
            let colref = mq_expr::col(&format!("{}.{}", spec.table, column));
            let mut conjs: Vec<Expr> = Vec::new();
            if let Some(lo) = lo {
                conjs.push(mq_expr::cmp(
                    mq_expr::CmpOp::Ge,
                    colref.clone(),
                    Expr::Literal(lo.clone()),
                ));
            }
            if let Some(hi) = hi {
                conjs.push(mq_expr::cmp(
                    mq_expr::CmpOp::Le,
                    colref,
                    Expr::Literal(hi.clone()),
                ));
            }
            if let Some(r) = residual {
                conjs.push(r.clone());
            }
            let pred = if conjs.is_empty() {
                None
            } else {
                Some(mq_expr::and(conjs))
            };
            scan_props(spec, pred.as_ref(), catalog, storage, cfg)?
        }
        PhysOp::Filter { predicate } => child_props[0].filtered(predicate).0,
        PhysOp::Project { .. } => {
            let mut p = child_props[0].clone();
            p.schema = plan.schema.clone();
            p.row_bytes = width_guess(&plan.schema);
            p
        }
        PhysOp::HashJoin {
            build_keys,
            probe_keys,
        } => {
            let on: Vec<(String, String)> = build_keys
                .iter()
                .zip(probe_keys)
                .map(|(&b, &p)| {
                    (
                        plan.children[0].schema.field(b).qualified_name(),
                        plan.children[1].schema.field(p).qualified_name(),
                    )
                })
                .collect();
            child_props[0].joined(&child_props[1], &on).0
        }
        PhysOp::IndexNLJoin {
            outer_key,
            inner,
            inner_column,
            ..
        } => {
            let inner_props = scan_props(inner, None, catalog, storage, cfg)?;
            let on = vec![(
                plan.children[0].schema.field(*outer_key).qualified_name(),
                format!("{}.{}", inner.table, inner_column),
            )];
            child_props[0].joined(&inner_props, &on).0
        }
        PhysOp::Sort { .. } | PhysOp::StatsCollector { .. } | PhysOp::Exchange { .. } => {
            child_props[0].clone()
        }
        PhysOp::Limit { n } => {
            let mut p = child_props[0].clone();
            p.rows = p.rows.min(*n as f64);
            p
        }
        PhysOp::HashAggregate { group, .. } => {
            let group_names: Vec<String> = group
                .iter()
                .map(|&g| plan.children[0].schema.field(g).qualified_name())
                .collect();
            let mut p = child_props[0].clone();
            p.rows = child_props[0].group_count(&group_names);
            p.schema = plan.schema.clone();
            p.row_bytes = width_guess(&plan.schema);
            p
        }
    };
    plan.annot.est_rows = props.rows;
    plan.annot.est_row_bytes = props.row_bytes;
    Ok(props)
}

/// Encoded-width guess for a derived schema (no per-column width
/// statistics exist for computed outputs): numeric family 9 bytes,
/// strings a typical 24.
fn width_guess(schema: &Schema) -> f64 {
    2.0 + schema
        .fields()
        .iter()
        .map(|f| match f.dtype {
            DataType::Bool => 2.0,
            DataType::Str => 24.0,
            _ => 9.0,
        })
        .sum::<f64>()
}

fn infer_type(e: &Expr, schema: &Schema) -> Result<DataType> {
    Ok(match e {
        Expr::Column(name) => schema.field(schema.index_of(name)?).dtype,
        Expr::BoundColumn { index, .. } => schema.field(*index).dtype,
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Int),
        Expr::Cmp { .. } | Expr::And(_) | Expr::Or(_) | Expr::Not(_) | Expr::UdfPred { .. } => {
            DataType::Bool
        }
        Expr::Arith { left, right, .. } => {
            let l = infer_type(left, schema)?;
            let r = infer_type(right, schema)?;
            if l == DataType::Int && r == DataType::Int {
                DataType::Int
            } else {
                DataType::Float
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_common::{Row, SimClock, Value};
    use mq_expr::{cmp, col, lit, CmpOp};
    use mq_stats::HistogramKind;

    /// Build a small star schema: fact(fk1, fk2, v), dim1(pk, a), dim2(pk, b).
    fn setup() -> (Catalog, Storage, EngineConfig) {
        let cfg = EngineConfig::default();
        let storage = Storage::new(&cfg, SimClock::new());
        let cat = Catalog::new();
        cat.create_table(
            &storage,
            "fact",
            vec![
                ("fk1", DataType::Int),
                ("fk2", DataType::Int),
                ("v", DataType::Int),
            ],
        )
        .unwrap();
        cat.create_table(
            &storage,
            "dim1",
            vec![("pk", DataType::Int), ("a", DataType::Int)],
        )
        .unwrap();
        cat.create_table(
            &storage,
            "dim2",
            vec![("pk", DataType::Int), ("b", DataType::Int)],
        )
        .unwrap();
        for i in 0..4000i64 {
            cat.insert_row(
                &storage,
                "fact",
                Row::new(vec![
                    Value::Int(i % 50),
                    Value::Int(i % 20),
                    Value::Int(i % 7),
                ]),
            )
            .unwrap();
        }
        for i in 0..50i64 {
            cat.insert_row(
                &storage,
                "dim1",
                Row::new(vec![Value::Int(i), Value::Int(i * 2)]),
            )
            .unwrap();
        }
        for i in 0..20i64 {
            cat.insert_row(
                &storage,
                "dim2",
                Row::new(vec![Value::Int(i), Value::Int(i * 3)]),
            )
            .unwrap();
        }
        for t in ["fact", "dim1", "dim2"] {
            cat.analyze(&storage, t, HistogramKind::MaxDiff, 16, 512, 7)
                .unwrap();
        }
        (cat, storage, cfg)
    }

    fn star_query() -> LogicalPlan {
        LogicalPlan::scan("fact")
            .join(LogicalPlan::scan("dim1"), vec![("fact.fk1", "dim1.pk")])
            .join(LogicalPlan::scan("dim2"), vec![("fact.fk2", "dim2.pk")])
    }

    #[test]
    fn optimizes_two_join_star() {
        let (cat, st, cfg) = setup();
        let opt = Optimizer::new(cfg);
        let result = opt.optimize(&star_query(), &cat, &st).unwrap();
        assert_eq!(result.plan.join_count(), 2);
        assert!(result.work_units > 3);
        // Cardinality estimate should be near 4000 (every fact row
        // matches one dim row on each key).
        assert!(
            (result.props.rows - 4000.0).abs() / 4000.0 < 0.6,
            "est rows {}",
            result.props.rows
        );
        // All seven columns present.
        assert_eq!(result.plan.schema.len(), 7);
        // Annotations populated.
        assert!(result.plan.annot.est_total_time_ms > 0.0);
    }

    #[test]
    fn builds_on_accumulated_side() {
        let (cat, st, cfg) = setup();
        let opt = Optimizer::new(cfg);
        let result = opt.optimize(&star_query(), &cat, &st).unwrap();
        // Paradise-style plans: the root hash join's build child is the
        // accumulated subtree (it contains the other join), so each
        // intermediate result feeds a build phase — the segmented
        // execution shape the paper's machinery relies on.
        match &result.plan.op {
            PhysOp::HashJoin { .. } => {
                assert!(
                    result.plan.children[0].join_count() >= 1,
                    "build side should be the accumulated subtree:\n{}",
                    result.plan
                );
            }
            PhysOp::IndexNLJoin { .. } => {}
            other => panic!("unexpected root {other:?}"),
        }
    }

    #[test]
    fn selection_reduces_estimates() {
        let (cat, st, cfg) = setup();
        let opt = Optimizer::new(cfg);
        let q = LogicalPlan::scan_filtered("fact", cmp(CmpOp::Lt, col("fact.v"), lit(1i64)))
            .join(LogicalPlan::scan("dim1"), vec![("fact.fk1", "dim1.pk")]);
        let result = opt.optimize(&q, &cat, &st).unwrap();
        assert!(
            result.props.rows < 1500.0,
            "filtered est {}",
            result.props.rows
        );
    }

    #[test]
    fn aggregate_on_top() {
        let (cat, st, cfg) = setup();
        let opt = Optimizer::new(cfg);
        let q = star_query().aggregate(
            vec!["dim1.a"],
            vec![mq_plan::AggExpr {
                func: AggFunc::Avg,
                arg: Some(col("fact.v")),
                name: "avg_v".into(),
            }],
        );
        let result = opt.optimize(&q, &cat, &st).unwrap();
        assert!(matches!(result.plan.op, PhysOp::HashAggregate { .. }));
        assert_eq!(result.plan.schema.len(), 2);
        // ≈ 50 groups.
        assert!(
            result.plan.annot.est_rows <= 60.0 && result.plan.annot.est_rows >= 10.0,
            "groups {}",
            result.plan.annot.est_rows
        );
    }

    #[test]
    fn index_nl_join_chosen_for_selective_outer() {
        let (cat, st, cfg) = setup();
        // A big indexed dimension: scanning it for a hash join costs
        // hundreds of pages, while a tiny outer probes it a few dozen
        // times through the index.
        cat.create_table(
            &st,
            "bigdim",
            vec![("pk", DataType::Int), ("payload", DataType::Int)],
        )
        .unwrap();
        for i in 0..30_000i64 {
            cat.insert_row(
                &st,
                "bigdim",
                Row::new(vec![Value::Int(i), Value::Int(i % 100)]),
            )
            .unwrap();
        }
        cat.analyze(&st, "bigdim", HistogramKind::MaxDiff, 16, 512, 9)
            .unwrap();
        cat.create_index(&st, "bigdim", "pk").unwrap();
        let opt = Optimizer::new(cfg);
        // Highly selective filter on fact → tiny outer.
        let q = LogicalPlan::scan_filtered(
            "fact",
            mq_expr::and(vec![
                mq_expr::eq(col("fact.v"), lit(3i64)),
                mq_expr::eq(col("fact.fk2"), lit(5i64)),
            ]),
        )
        .join(LogicalPlan::scan("bigdim"), vec![("fact.fk1", "bigdim.pk")]);
        let result = opt.optimize(&q, &cat, &st).unwrap();
        let mut has_inl = false;
        result.plan.walk(&mut |n| {
            if matches!(n.op, PhysOp::IndexNLJoin { .. }) {
                has_inl = true;
            }
        });
        assert!(has_inl, "expected IndexNLJoin:\n{}", result.plan);
    }

    #[test]
    fn index_scan_chosen_for_narrow_range() {
        let (cat, st, cfg) = setup();
        cat.create_index(&st, "fact", "v").unwrap();
        let opt = Optimizer::new(cfg);
        let q = LogicalPlan::scan_filtered("fact", mq_expr::eq(col("fact.v"), lit(3i64)));
        let result = opt.optimize(&q, &cat, &st).unwrap();
        // v=3 matches 1/7 of rows — a seq scan of 4000 rows vs ~570
        // random fetches; with our cost constants the index may or may
        // not win, but the plan must at least be valid and costed.
        assert!(result.plan.annot.est_total_time_ms > 0.0);
    }

    #[test]
    fn cross_product_fallback() {
        let (cat, st, cfg) = setup();
        let opt = Optimizer::new(cfg);
        let q = LogicalPlan::scan("dim1").join(LogicalPlan::scan("dim2"), vec![]);
        let result = opt.optimize(&q, &cat, &st).unwrap();
        assert_eq!(result.plan.join_count(), 1);
        assert!(
            (result.props.rows - 1000.0).abs() < 400.0,
            "cross product rows {}",
            result.props.rows
        );
    }

    #[test]
    fn feedback_stamps_post_join_operators() {
        use mq_plan::subplan_fingerprint;
        use std::collections::HashMap;

        struct MapFeedback(HashMap<u64, f64>);
        impl CardFeedback for MapFeedback {
            fn observed_rows(&self, fingerprint: u64) -> Option<f64> {
                self.0.get(&fingerprint).copied()
            }
        }

        let (cat, st, cfg) = setup();
        let opt = Optimizer::new(cfg);
        let q = star_query()
            .aggregate(
                vec!["dim1.a"],
                vec![mq_plan::AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    name: "n".into(),
                }],
            )
            .sort(vec![("dim1.a", true)]);
        let plain = opt.optimize(&q, &cat, &st).unwrap();
        assert!(matches!(plain.plan.op, PhysOp::Sort { .. }));
        let agg = &plain.plan.children[0];
        assert!(matches!(agg.op, PhysOp::HashAggregate { .. }));
        let fp = subplan_fingerprint(agg);
        let est = agg.annot.est_rows;
        assert_ne!(est, 7.0);
        let annotations = |p: &PhysPlan| {
            let mut out = Vec::new();
            p.walk(&mut |n| out.push((n.annot.est_rows, n.annot.est_total_time_ms)));
            out
        };

        // Unknown fingerprints leave every estimate and cost untouched.
        let unknown = MapFeedback(HashMap::from([(fp ^ 1, 7.0)]));
        let same = opt
            .optimize_with_feedback(&q, &cat, &st, Some(&unknown))
            .unwrap();
        assert!(same.feedback_hits.is_empty());
        assert_eq!(annotations(&same.plan), annotations(&plain.plan));

        // An observation of the aggregate stamps it and, through the
        // output statistics, the sort built on top of it.
        let known = MapFeedback(HashMap::from([(fp, 7.0)]));
        let fed = opt
            .optimize_with_feedback(&q, &cat, &st, Some(&known))
            .unwrap();
        assert_eq!(fed.feedback_hits.len(), 1);
        let hit = &fed.feedback_hits[0];
        assert_eq!(hit.fingerprint, fp);
        assert_eq!((hit.estimated_rows, hit.observed_rows), (est, 7.0));
        assert_eq!(hit.table, "dim1,dim2,fact");
        assert!(hit.columns.is_empty());
        assert_eq!(fed.plan.children[0].annot.est_rows, 7.0);
        assert_eq!(fed.plan.annot.est_rows, 7.0);
        assert_eq!(fed.props.rows, 7.0);
        assert!(fed.plan.annot.est_total_time_ms < plain.plan.annot.est_total_time_ms);
    }

    #[test]
    fn residual_predicate_applied_after_joins() {
        let (cat, st, cfg) = setup();
        let opt = Optimizer::new(cfg);
        // Non-equi cross-table predicate → residual filter node.
        let q = star_query().filter(cmp(CmpOp::Lt, col("dim1.a"), col("dim2.b")));
        let result = opt.optimize(&q, &cat, &st).unwrap();
        let mut filters = 0;
        result.plan.walk(&mut |n| {
            if matches!(n.op, PhysOp::Filter { .. }) {
                filters += 1;
            }
        });
        assert!(filters >= 1, "plan:\n{}", result.plan);
    }
}
