//! Stored statistics structures.

use std::collections::HashMap;

use mq_common::Value;
use mq_stats::{Histogram, HistogramKind, ObservedColumn, StreamStats};

/// Table-level statistics from ANALYZE (or observed at run time for a
/// materialized intermediate result, where they are *exact*).
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Row count.
    pub rows: u64,
    /// Page count of the backing heap file.
    pub pages: u64,
    /// Average encoded row width in bytes.
    pub avg_row_bytes: f64,
    /// Per-column statistics, keyed by bare column name.
    pub columns: HashMap<String, ColumnStats>,
}

impl TableStats {
    /// Table statistics from one pass over every column of a table or
    /// result: `names` are the column names in the order `stream`
    /// watches them, and each column gets a `kind` histogram of
    /// `buckets` buckets.
    pub fn observed(
        stream: &StreamStats,
        pages: u64,
        names: impl IntoIterator<Item = String>,
        kind: HistogramKind,
        buckets: usize,
    ) -> TableStats {
        let columns = names
            .into_iter()
            .zip(stream.finish(kind, buckets))
            .map(|(name, obs)| (name, ColumnStats::observed(obs, Some(kind))))
            .collect();
        TableStats {
            rows: stream.rows(),
            pages,
            avg_row_bytes: stream.avg_row_bytes(),
            columns,
        }
    }

    /// Stats for one column, if gathered.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// Estimated total size in bytes.
    pub fn bytes(&self) -> f64 {
        self.rows as f64 * self.avg_row_bytes
    }
}

/// Column-level statistics.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    /// Minimum non-null value.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Estimated distinct values.
    pub distinct: f64,
    /// Fraction of nulls.
    pub null_frac: f64,
    /// Histogram, if one was built.
    pub histogram: Option<Histogram>,
    /// The histogram class (drives §2.5 inaccuracy-potential rules).
    pub histogram_kind: Option<HistogramKind>,
    /// Physical clustering of the column in [0, 1] (1 = table laid out
    /// in this column's order). Drives the index cost model's
    /// sequential-vs-random blend.
    pub clustering: f64,
}

impl ColumnStats {
    /// Column statistics from a one-pass observation, recording
    /// `histogram_kind` as the histogram's class.
    pub fn observed(obs: ObservedColumn, histogram_kind: Option<HistogramKind>) -> ColumnStats {
        ColumnStats {
            min: obs.min,
            max: obs.max,
            distinct: obs.distinct,
            null_frac: obs.null_frac,
            histogram: obs.histogram,
            histogram_kind,
            clustering: obs.clustering,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_product() {
        let s = TableStats {
            rows: 100,
            pages: 10,
            avg_row_bytes: 42.0,
            columns: HashMap::new(),
        };
        assert!((s.bytes() - 4200.0).abs() < 1e-9);
        assert!(s.column("x").is_none());
    }
}
