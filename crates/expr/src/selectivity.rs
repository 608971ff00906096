//! Histogram-based selectivity estimation.
//!
//! This module is the optimizer's (and only the optimizer's) view of
//! predicates. Its limitations are faithful to the paper:
//!
//! * conjuncts are assumed **independent** — correlated multi-attribute
//!   filters (footnote 2: `R1.a = 10 and R1.b = 20`) mis-estimate;
//! * **UDF predicates** get a fixed default guess;
//! * histogram quality matters: a *serial* (end-biased) histogram
//!   answers equality almost exactly, bucket histograms approximate,
//!   and absent histograms degrade to distinct counts or pure defaults.
//!
//! Every estimate reports the [`Basis`] it rests on; the SCIA (in
//! `mq-reopt`) maps bases to the paper's inaccuracy-potential levels.

use mq_catalog::ColumnStats;
use mq_common::Value;
use mq_stats::HistogramKind;

use crate::{CmpOp, Expr};

/// Read-only statistics lookup used during estimation. The optimizer
/// implements this for base tables and for derived intermediate
/// results.
pub trait StatsView {
    /// Stats for a (possibly qualified) column name, if known.
    fn column(&self, name: &str) -> Option<&ColumnStats>;
    /// Row count of the relation the columns belong to.
    fn rows(&self) -> f64;
}

/// Empty stats: everything estimated from defaults.
pub struct NoStats;

impl StatsView for NoStats {
    fn column(&self, _: &str) -> Option<&ColumnStats> {
        None
    }
    fn rows(&self) -> f64 {
        0.0
    }
}

/// What an estimate was computed from, ordered from most to least
/// trustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Basis {
    /// Serial (end-biased) histogram answered an equality — near exact.
    SerialHistogram,
    /// A bucket histogram (equi-width/depth, MaxDiff) answered.
    BucketHistogram,
    /// Only min/max interpolation was available.
    Bounds,
    /// Only a distinct count was available.
    DistinctOnly,
    /// Column-to-column predicate within one relation.
    ColumnColumn,
    /// Pure default constant.
    DefaultGuess,
    /// User-defined predicate — the optimizer is blind.
    Udf,
}

impl Basis {
    fn weaker(self, other: Basis) -> Basis {
        self.max(other)
    }
}

/// A selectivity estimate with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct SelEstimate {
    /// Estimated fraction of rows satisfying the predicate, in [0, 1].
    pub selectivity: f64,
    /// Weakest information source used anywhere in the expression.
    pub basis: Basis,
    /// Whether the predicate references two or more distinct columns —
    /// the §2.5 correlation rule raises inaccuracy a level for these.
    pub multi_column: bool,
}

impl SelEstimate {
    fn new(selectivity: f64, basis: Basis) -> SelEstimate {
        SelEstimate {
            selectivity: selectivity.clamp(0.0, 1.0),
            basis,
            multi_column: false,
        }
    }
}

/// Default selectivity guess for predicates the optimizer cannot
/// estimate (user-defined functions; §2.5 "always high" inaccuracy).
pub const UDF_SELECTIVITY: f64 = 0.1;
/// Default equality selectivity when no statistics exist.
pub const DEFAULT_EQ_SELECTIVITY: f64 = 0.005;
/// Default range selectivity when no statistics exist.
pub const DEFAULT_RANGE_SELECTIVITY: f64 = 0.3;

/// Estimate the selectivity of `expr` against `stats`.
pub fn estimate_selectivity(expr: &Expr, stats: &dyn StatsView) -> SelEstimate {
    let mut est = estimate_inner(expr, stats);
    let mut cols: Vec<std::sync::Arc<str>> = expr.referenced_columns();
    cols.sort();
    cols.dedup();
    est.multi_column = cols.len() >= 2;
    est
}

fn estimate_inner(expr: &Expr, stats: &dyn StatsView) -> SelEstimate {
    match expr {
        Expr::And(es) => {
            let mut sel = 1.0;
            let mut basis = Basis::SerialHistogram;
            for e in es {
                let part = estimate_inner(e, stats);
                sel *= part.selectivity;
                basis = basis.weaker(part.basis);
            }
            SelEstimate::new(sel, basis)
        }
        Expr::Or(es) => {
            let mut keep_none = 1.0;
            let mut basis = Basis::SerialHistogram;
            for e in es {
                let part = estimate_inner(e, stats);
                keep_none *= 1.0 - part.selectivity;
                basis = basis.weaker(part.basis);
            }
            SelEstimate::new(1.0 - keep_none, basis)
        }
        Expr::Not(e) => {
            let part = estimate_inner(e, stats);
            SelEstimate::new(1.0 - part.selectivity, part.basis)
        }
        Expr::UdfPred { .. } => SelEstimate::new(UDF_SELECTIVITY, Basis::Udf),
        Expr::Cmp { op, left, right } => estimate_cmp(*op, left, right, stats),
        Expr::Literal(Value::Bool(b)) => {
            SelEstimate::new(if *b { 1.0 } else { 0.0 }, Basis::SerialHistogram)
        }
        _ => SelEstimate::new(DEFAULT_RANGE_SELECTIVITY, Basis::DefaultGuess),
    }
}

fn estimate_cmp(op: CmpOp, left: &Expr, right: &Expr, stats: &dyn StatsView) -> SelEstimate {
    // Normalize to column-op-literal when possible.
    match (
        column_name(left),
        literal_value(right),
        column_name(right),
        literal_value(left),
    ) {
        (Some(colname), Some(v), _, _) => estimate_col_lit(op, colname, v, stats),
        (_, _, Some(colname), Some(v)) => estimate_col_lit(op.flip(), colname, v, stats),
        _ => {
            // Column-to-column within one relation (rare in the
            // workload; joins are handled by the optimizer directly).
            if column_name(left).is_some() && column_name(right).is_some() {
                let sel = match op {
                    CmpOp::Eq => {
                        let d1 = column_name(left)
                            .and_then(|c| stats.column(c))
                            .map(|s| s.distinct)
                            .unwrap_or(0.0);
                        let d2 = column_name(right)
                            .and_then(|c| stats.column(c))
                            .map(|s| s.distinct)
                            .unwrap_or(0.0);
                        let d = d1.max(d2);
                        if d > 1.0 {
                            1.0 / d
                        } else {
                            DEFAULT_EQ_SELECTIVITY
                        }
                    }
                    CmpOp::Ne => 1.0 - DEFAULT_EQ_SELECTIVITY,
                    _ => DEFAULT_RANGE_SELECTIVITY,
                };
                SelEstimate::new(sel, Basis::ColumnColumn)
            } else {
                SelEstimate::new(DEFAULT_RANGE_SELECTIVITY, Basis::DefaultGuess)
            }
        }
    }
}

fn estimate_col_lit(op: CmpOp, colname: &str, v: &Value, stats: &dyn StatsView) -> SelEstimate {
    let col = stats.column(colname);
    let rank = v.as_f64();
    match op {
        CmpOp::Eq => {
            if let (Some(c), Some(r)) = (col, rank) {
                if let Some(h) = &c.histogram {
                    let basis = if c.histogram_kind == Some(HistogramKind::EndBiased) {
                        Basis::SerialHistogram
                    } else {
                        Basis::BucketHistogram
                    };
                    return SelEstimate::new(h.sel_eq(r), basis);
                }
                if c.distinct > 1.0 {
                    return SelEstimate::new((1.0 - c.null_frac) / c.distinct, Basis::DistinctOnly);
                }
            }
            SelEstimate::new(DEFAULT_EQ_SELECTIVITY, Basis::DefaultGuess)
        }
        CmpOp::Ne => {
            let eq = estimate_col_lit(CmpOp::Eq, colname, v, stats);
            SelEstimate::new(1.0 - eq.selectivity, eq.basis)
        }
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            if let (Some(c), Some(r)) = (col, rank) {
                if let Some(h) = &c.histogram {
                    let sel = match op {
                        CmpOp::Lt | CmpOp::Le => h.sel_range(None, Some(r)),
                        _ => h.sel_range(Some(r), None),
                    };
                    return SelEstimate::new(sel, Basis::BucketHistogram);
                }
                if let (Some(lo), Some(hi)) = (
                    c.min.as_ref().and_then(Value::as_f64),
                    c.max.as_ref().and_then(Value::as_f64),
                ) {
                    if hi > lo {
                        let frac = ((r - lo) / (hi - lo)).clamp(0.0, 1.0);
                        let sel = match op {
                            CmpOp::Lt | CmpOp::Le => frac,
                            _ => 1.0 - frac,
                        };
                        return SelEstimate::new(sel * (1.0 - c.null_frac), Basis::Bounds);
                    }
                }
            }
            SelEstimate::new(DEFAULT_RANGE_SELECTIVITY, Basis::DefaultGuess)
        }
    }
}

fn column_name(e: &Expr) -> Option<&str> {
    match e {
        Expr::Column(n) => Some(n),
        Expr::BoundColumn { name, .. } => Some(name),
        _ => None,
    }
}

fn literal_value(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Literal(v) => Some(v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{and, between, cmp, col, eq, lit, Udf};
    use mq_catalog::ColumnStats;
    use mq_stats::Histogram;
    use std::collections::HashMap;

    struct Fake {
        cols: HashMap<String, ColumnStats>,
        rows: f64,
    }

    impl StatsView for Fake {
        fn column(&self, name: &str) -> Option<&ColumnStats> {
            // Accept both bare and qualified lookups.
            self.cols
                .get(name)
                .or_else(|| name.split_once('.').and_then(|(_, n)| self.cols.get(n)))
        }
        fn rows(&self) -> f64 {
            self.rows
        }
    }

    fn uniform_stats(kind: HistogramKind) -> Fake {
        let sample: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64).collect();
        let h = Histogram::build(kind, &sample, 16, 0.0, 100.0);
        let mut cols = HashMap::new();
        cols.insert(
            "a".to_string(),
            ColumnStats {
                min: Some(Value::Int(0)),
                max: Some(Value::Int(99)),
                distinct: 100.0,
                null_frac: 0.0,
                histogram: Some(h),
                histogram_kind: Some(kind),
                clustering: 0.0,
            },
        );
        cols.insert(
            "b".to_string(),
            ColumnStats {
                min: Some(Value::Int(0)),
                max: Some(Value::Int(999)),
                distinct: 1000.0,
                null_frac: 0.0,
                histogram: None,
                histogram_kind: None,
                clustering: 0.0,
            },
        );
        Fake {
            cols,
            rows: 10_000.0,
        }
    }

    #[test]
    fn equality_with_histogram() {
        let st = uniform_stats(HistogramKind::MaxDiff);
        let e = eq(col("t.a"), lit(7i64));
        let est = estimate_selectivity(&e, &st);
        assert!((est.selectivity - 0.01).abs() < 0.01, "{}", est.selectivity);
        assert_eq!(est.basis, Basis::BucketHistogram);
        assert!(!est.multi_column);
    }

    #[test]
    fn serial_histogram_basis() {
        let st = uniform_stats(HistogramKind::EndBiased);
        let est = estimate_selectivity(&eq(col("a"), lit(7i64)), &st);
        assert_eq!(est.basis, Basis::SerialHistogram);
    }

    #[test]
    fn range_with_histogram() {
        let st = uniform_stats(HistogramKind::EquiDepth);
        let e = cmp(CmpOp::Le, col("a"), lit(24i64));
        let est = estimate_selectivity(&e, &st);
        assert!((est.selectivity - 0.25).abs() < 0.08, "{}", est.selectivity);
    }

    #[test]
    fn range_falls_back_to_bounds() {
        let st = uniform_stats(HistogramKind::MaxDiff);
        let e = cmp(CmpOp::Lt, col("b"), lit(500i64));
        let est = estimate_selectivity(&e, &st);
        assert!((est.selectivity - 0.5).abs() < 0.01);
        assert_eq!(est.basis, Basis::Bounds);
    }

    #[test]
    fn eq_falls_back_to_distinct_then_default() {
        let st = uniform_stats(HistogramKind::MaxDiff);
        let est = estimate_selectivity(&eq(col("b"), lit(3i64)), &st);
        assert!((est.selectivity - 0.001).abs() < 1e-9);
        assert_eq!(est.basis, Basis::DistinctOnly);
        let est = estimate_selectivity(&eq(col("zzz"), lit(3i64)), &st);
        assert_eq!(est.basis, Basis::DefaultGuess);
        assert!((est.selectivity - DEFAULT_EQ_SELECTIVITY).abs() < 1e-12);
    }

    #[test]
    fn conjunction_multiplies_and_flags_multi_column() {
        let st = uniform_stats(HistogramKind::MaxDiff);
        let e = and(vec![
            cmp(CmpOp::Le, col("a"), lit(49i64)),
            cmp(CmpOp::Le, col("b"), lit(499i64)),
        ]);
        let est = estimate_selectivity(&e, &st);
        assert!((est.selectivity - 0.25).abs() < 0.05, "{}", est.selectivity);
        assert!(est.multi_column);
        assert_eq!(est.basis, Basis::Bounds, "weakest basis wins");
    }

    #[test]
    fn udf_is_blind_guess() {
        let st = uniform_stats(HistogramKind::MaxDiff);
        let e = Expr::UdfPred {
            name: "f".into(),
            arg: Box::new(col("a")),
            udf: Udf::HashFraction {
                keep_fraction: 0.9,
                salt: 0,
            },
        };
        let est = estimate_selectivity(&e, &st);
        assert_eq!(est.basis, Basis::Udf);
        assert!((est.selectivity - UDF_SELECTIVITY).abs() < 1e-12);
    }

    #[test]
    fn between_is_product_of_halves() {
        let st = uniform_stats(HistogramKind::EquiDepth);
        let e = between(col("a"), 25i64, 74i64);
        let est = estimate_selectivity(&e, &st);
        // ≥25 (0.75) × ≤74 (0.75) ≈ 0.56 under independence — the known
        // over/under-estimation of conjunctive ranges.
        assert!(
            est.selectivity > 0.4 && est.selectivity < 0.7,
            "{}",
            est.selectivity
        );
    }

    #[test]
    fn flipped_literal_side() {
        let st = uniform_stats(HistogramKind::EquiDepth);
        let e = cmp(CmpOp::Ge, lit(24i64), col("a")); // 24 >= a ⇔ a <= 24
        let est = estimate_selectivity(&e, &st);
        assert!((est.selectivity - 0.25).abs() < 0.08, "{}", est.selectivity);
    }

    #[test]
    fn not_and_or() {
        let st = uniform_stats(HistogramKind::EquiDepth);
        let half = cmp(CmpOp::Lt, col("a"), lit(50i64));
        let est = estimate_selectivity(&Expr::Not(Box::new(half.clone())), &st);
        assert!((est.selectivity - 0.5).abs() < 0.05);
        let est = estimate_selectivity(&Expr::Or(vec![half.clone(), half]), &st);
        assert!((est.selectivity - 0.75).abs() < 0.05);
    }
}
