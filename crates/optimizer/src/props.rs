//! Statistical properties of (intermediate) relations.
//!
//! [`RelProps`] is what the dynamic-programming enumerator carries for
//! every sub-plan: estimated cardinality, row width and per-column
//! statistics *derived* from the catalog through filters and joins.
//! Deriving (rather than re-reading) statistics is where estimation
//! error compounds — the paper's citation \[9\] ("errors multiply and
//! grow exponentially" with join count) is reproduced by construction.

use std::collections::HashMap;

use mq_catalog::{ColumnStats, TableEntry};
#[cfg(test)]
use mq_common::Value;
use mq_common::{EngineConfig, Schema};
use mq_expr::{estimate_selectivity, Basis, Expr, SelEstimate, StatsView, DEFAULT_EQ_SELECTIVITY};

/// Statistics of a (possibly intermediate) relation.
#[derive(Debug, Clone)]
pub struct RelProps {
    /// Estimated row count.
    pub rows: f64,
    /// Estimated encoded row width in bytes.
    pub row_bytes: f64,
    /// Output schema.
    pub schema: Schema,
    /// Per-column statistics, keyed by *qualified* name.
    pub columns: HashMap<String, ColumnStats>,
    /// Weakest estimation basis that produced `rows` (provenance for
    /// the SCIA's inaccuracy-potential rules).
    pub basis: Basis,
}

impl StatsView for RelProps {
    fn column(&self, name: &str) -> Option<&ColumnStats> {
        if let Some(c) = self.columns.get(name) {
            return Some(c);
        }
        // Bare-name lookup: accept when unambiguous.
        let mut found = None;
        for (k, v) in &self.columns {
            let bare = k.rsplit_once('.').map(|(_, b)| b).unwrap_or(k);
            if bare == name {
                if found.is_some() {
                    return None;
                }
                found = Some(v);
            }
        }
        found
    }

    fn rows(&self) -> f64 {
        self.rows
    }
}

impl RelProps {
    /// Base-table properties from a catalog entry. Falls back to the
    /// physical file metadata when the table was never analyzed.
    pub fn from_table(
        entry: &TableEntry,
        live_rows: u64,
        live_pages: u64,
        cfg: &EngineConfig,
    ) -> RelProps {
        let mut columns = HashMap::new();
        let (rows, row_bytes, basis) = match &entry.stats {
            Some(s) => {
                // Key by the *schema's* qualified names: base tables
                // qualify with the table name, materialized temp tables
                // keep the original qualifiers of the columns they hold
                // (so remainder-query predicates still resolve).
                for field in entry.schema.fields() {
                    if let Some(cs) = s.columns.get(field.name.as_ref()) {
                        columns.insert(field.qualified_name(), cs.clone());
                    }
                }
                // Live page counts come from the storage layer for
                // free; scaling the analyzed row count by the growth
                // since ANALYZE (System-R read relation sizes the same
                // way) removes the gross staleness error while the
                // *distribution* statistics stay stale.
                let growth = if s.pages > 0 && live_pages > 0 {
                    (live_pages as f64 / s.pages as f64).max(1.0)
                } else {
                    1.0
                };
                (
                    s.rows as f64 * growth,
                    s.avg_row_bytes.max(1.0),
                    Basis::BucketHistogram,
                )
            }
            None => {
                // Unanalyzed: the engine still knows the file's physical
                // size; column distributions are unknown.
                let rows = live_rows as f64;
                let bytes = live_pages as f64 * cfg.page_size as f64;
                let row_bytes = if rows > 0.0 {
                    (bytes / rows).max(1.0)
                } else {
                    32.0
                };
                (rows, row_bytes, Basis::DefaultGuess)
            }
        };
        RelProps {
            rows,
            row_bytes,
            schema: entry.schema.clone(),
            columns,
            basis,
        }
    }

    /// Apply a filter predicate: scales cardinality, caps distinct
    /// counts, weakens the basis.
    pub fn filtered(&self, predicate: &Expr) -> (RelProps, SelEstimate) {
        let est = estimate_selectivity(predicate, self);
        // Never estimate zero from a non-empty input: downstream cost
        // ratios and the re-optimization decision divide by estimates.
        let floor = if self.rows >= 1.0 { 1.0 } else { 0.0 };
        let rows = (self.rows * est.selectivity).max(floor);
        let mut columns = self.columns.clone();
        for cs in columns.values_mut() {
            if cs.distinct > rows {
                cs.distinct = rows.max(1.0);
            }
        }
        // Equality conjuncts pin their column to one value.
        for conj in predicate.conjuncts() {
            if let Expr::Cmp {
                op: mq_expr::CmpOp::Eq,
                left,
                right,
            } = &conj
            {
                let name = match (left.as_ref(), right.as_ref()) {
                    (Expr::Column(n), Expr::Literal(_)) => Some(n.to_string()),
                    (Expr::Literal(_), Expr::Column(n)) => Some(n.to_string()),
                    _ => None,
                };
                if let Some(n) = name {
                    if let Some(cs) = lookup_mut(&mut columns, &n) {
                        cs.distinct = 1.0;
                    }
                }
            }
        }
        let props = RelProps {
            rows,
            row_bytes: self.row_bytes,
            schema: self.schema.clone(),
            columns,
            basis: self.basis.max(est.basis),
        };
        (props, est)
    }

    /// Join with another relation on equi-pairs of qualified columns.
    /// Returns the joined properties and the estimated join selectivity.
    pub fn joined(&self, other: &RelProps, on: &[(String, String)]) -> (RelProps, f64) {
        let mut sel = 1.0;
        let mut basis = self.basis.max(other.basis);
        for (lc, rc) in on {
            let (l, r) = (self.column(lc), other.column(rc));
            let pair_sel = match (l, r) {
                (Some(a), Some(b)) => match (&a.histogram, &b.histogram) {
                    (Some(ha), Some(hb)) => {
                        basis = basis.max(Basis::BucketHistogram);
                        ha.sel_join(hb)
                    }
                    _ => {
                        let d = a.distinct.max(b.distinct);
                        if d > 1.0 {
                            basis = basis.max(Basis::DistinctOnly);
                            1.0 / d
                        } else {
                            basis = basis.max(Basis::DefaultGuess);
                            DEFAULT_EQ_SELECTIVITY
                        }
                    }
                },
                _ => {
                    basis = basis.max(Basis::DefaultGuess);
                    DEFAULT_EQ_SELECTIVITY
                }
            };
            sel *= pair_sel;
        }
        let floor = if self.rows >= 1.0 && other.rows >= 1.0 {
            1.0
        } else {
            0.0
        };
        let rows = (self.rows * other.rows * sel).max(floor);
        let mut columns = self.columns.clone();
        for (k, v) in &other.columns {
            columns.insert(k.clone(), v.clone());
        }
        // Join keys end up with the smaller distinct count.
        for (lc, rc) in on {
            let dl = self.column(lc).map(|c| c.distinct).unwrap_or(0.0);
            let dr = other.column(rc).map(|c| c.distinct).unwrap_or(0.0);
            let d = if dl > 0.0 && dr > 0.0 {
                dl.min(dr)
            } else {
                dl.max(dr)
            };
            for name in [lc, rc] {
                if let Some(cs) = lookup_mut(&mut columns, name) {
                    cs.distinct = d.max(1.0).min(rows.max(1.0));
                }
            }
        }
        for cs in columns.values_mut() {
            if cs.distinct > rows {
                cs.distinct = rows.max(1.0);
            }
        }
        let props = RelProps {
            rows,
            row_bytes: self.row_bytes + other.row_bytes,
            schema: self.schema.join(&other.schema),
            columns,
            basis,
        };
        (props, sel)
    }

    /// Estimated group count for a GROUP BY over `group_cols`
    /// (product of distinct counts, capped by input cardinality).
    pub fn group_count(&self, group_cols: &[String]) -> f64 {
        if group_cols.is_empty() {
            return 1.0;
        }
        let mut groups = 1.0f64;
        for g in group_cols {
            let d = self.column(g).map(|c| c.distinct).unwrap_or(0.0);
            groups *= if d > 0.0 {
                d
            } else {
                (self.rows / 10.0).max(1.0)
            };
        }
        groups.min(self.rows.max(1.0))
    }

    /// Estimated size in bytes.
    pub fn bytes(&self) -> f64 {
        self.rows * self.row_bytes
    }

    /// Estimated size in pages.
    pub fn pages(&self, cfg: &EngineConfig) -> f64 {
        (self.bytes() / cfg.page_size as f64).max(1.0)
    }
}

fn lookup_mut<'a>(
    columns: &'a mut HashMap<String, ColumnStats>,
    name: &str,
) -> Option<&'a mut ColumnStats> {
    if columns.contains_key(name) {
        return columns.get_mut(name);
    }
    let key = columns
        .keys()
        .find(|k| {
            let bare = k.rsplit_once('.').map(|(_, b)| b).unwrap_or(k);
            bare == name
        })?
        .clone();
    columns.get_mut(&key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_expr::{cmp, col, lit, CmpOp};
    use mq_stats::{Histogram, HistogramKind};

    fn props_with(name: &str, rows: f64, distinct: f64) -> RelProps {
        let sample: Vec<f64> = (0..1000).map(|i| (i % distinct as i64) as f64).collect();
        let h = Histogram::build(HistogramKind::MaxDiff, &sample, 16, 0.0, distinct);
        let mut columns = HashMap::new();
        columns.insert(
            format!("{name}.k"),
            ColumnStats {
                min: Some(Value::Int(0)),
                max: Some(Value::Int(distinct as i64 - 1)),
                distinct,
                null_frac: 0.0,
                histogram: Some(h),
                histogram_kind: Some(HistogramKind::MaxDiff),
                clustering: 0.0,
            },
        );
        RelProps {
            rows,
            row_bytes: 50.0,
            schema: Schema::new(vec![mq_common::Field::qualified(
                name,
                "k",
                mq_common::DataType::Int,
            )])
            .unwrap(),
            columns,
            basis: Basis::BucketHistogram,
        }
    }

    #[test]
    fn filter_scales_rows() {
        let p = props_with("r", 10_000.0, 100.0);
        let (f, est) = p.filtered(&cmp(CmpOp::Lt, col("r.k"), lit(25i64)));
        assert!((est.selectivity - 0.25).abs() < 0.1);
        assert!((f.rows - 2500.0).abs() < 1000.0, "rows {}", f.rows);
    }

    #[test]
    fn eq_filter_pins_distinct() {
        let p = props_with("r", 10_000.0, 100.0);
        let (f, _) = p.filtered(&mq_expr::eq(col("r.k"), lit(5i64)));
        assert_eq!(f.columns["r.k"].distinct, 1.0);
    }

    #[test]
    fn join_key_fk_cardinality() {
        // r: 100 rows pk 0..99; s: 10000 rows fk 0..99.
        let r = props_with("r", 1000.0, 100.0);
        let s = props_with("s", 10_000.0, 100.0);
        let on = vec![("r.k".to_string(), "s.k".to_string())];
        let (j, sel) = r.joined(&s, &on);
        assert!((sel - 0.01).abs() < 0.005, "sel {sel}");
        // ≈ 1000 × 10000 / 100 = 100k rows.
        assert!(
            (j.rows - 100_000.0).abs() / 100_000.0 < 0.5,
            "rows {}",
            j.rows
        );
        assert_eq!(j.schema.len(), 2);
        assert!((j.row_bytes - 100.0).abs() < 1e-9);
    }

    #[test]
    fn group_count_capped_by_rows() {
        let p = props_with("r", 50.0, 100.0);
        let g = p.group_count(&["r.k".to_string()]);
        assert!(g <= 50.0);
        assert_eq!(p.group_count(&[]), 1.0);
    }

    #[test]
    fn bare_name_lookup() {
        let p = props_with("r", 10.0, 5.0);
        assert!(p.column("k").is_some());
        assert!(p.column("r.k").is_some());
        assert!(p.column("zzz").is_none());
    }
}
