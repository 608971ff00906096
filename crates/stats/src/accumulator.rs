//! The one-pass per-column statistics accumulator.
//!
//! Both ANALYZE (catalog statistics) and the runtime
//! statistics-collector operator (§2.2) observe a stream of values and
//! must produce, in a single pass with bounded memory: row count,
//! average size, min/max, a histogram (from a reservoir sample) and a
//! distinct-count estimate (FM sketch). [`ColumnAccumulator`] packages
//! that recipe for one column; [`StreamStats`] runs it over whole rows,
//! adding the row count and encoded width.

use mq_common::{Row, Value};

use crate::distinct::FmSketch;
use crate::histogram::{Histogram, HistogramKind};
use crate::reservoir::Reservoir;

/// Reservoir-sample size used by ANALYZE, by runtime statistics
/// collectors and by the adaptive histogram refresh.
pub const RESERVOIR_SIZE: usize = 1024;
/// Bucket count for histograms built by ANALYZE, by runtime statistics
/// collectors and by the adaptive histogram refresh.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Accumulates statistics for one column of a tuple stream.
#[derive(Debug, Clone)]
pub struct ColumnAccumulator {
    rows: u64,
    nulls: u64,
    min: Option<Value>,
    max: Option<Value>,
    reservoir: Reservoir<f64>,
    sketch: FmSketch,
    prev_rank: Option<f64>,
    pairs: u64,
    nondecreasing: u64,
}

impl ColumnAccumulator {
    /// Create an accumulator with the given reservoir capacity.
    pub fn new(reservoir_capacity: usize, seed: u64) -> ColumnAccumulator {
        ColumnAccumulator {
            rows: 0,
            nulls: 0,
            min: None,
            max: None,
            reservoir: Reservoir::new(reservoir_capacity.max(1), seed),
            sketch: FmSketch::default(),
            prev_rank: None,
            pairs: 0,
            nondecreasing: 0,
        }
    }

    /// Observe one value. Returns the (approximate) number of CPU
    /// operations this cost, so the caller can charge the simulated
    /// clock — statistics collection is CPU overhead, never I/O (§2.2).
    pub fn observe(&mut self, v: &Value) -> u64 {
        self.rows += 1;
        if v.is_null() {
            self.nulls += 1;
            return 1;
        }
        match &self.min {
            Some(m) if v >= m => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if v <= m => {}
            _ => self.max = Some(v.clone()),
        }
        if let Some(rank) = v.as_f64() {
            self.reservoir.observe(rank);
            // Physical-order correlation: fraction of consecutive pairs
            // that are non-decreasing. A column laid down in key order
            // (TPC-D lineitem.l_orderkey) scores 1.0; a shuffled column
            // ~0.5. Index probes into clustered columns are
            // near-sequential I/O, which the cost model must know.
            if let Some(prev) = self.prev_rank {
                self.pairs += 1;
                if rank >= prev {
                    self.nondecreasing += 1;
                }
            }
            self.prev_rank = Some(rank);
        }
        self.sketch.observe(v);
        // min/max update + reservoir + sketch ≈ 3 tuple-level ops.
        3
    }

    /// Merge another accumulator into this one, as if this accumulator
    /// had observed `self`'s stream followed by `other`'s. Counts,
    /// nulls, min/max and the FM sketch merge exactly; the reservoir
    /// merges exactly while unsaturated (see [`Reservoir::merge`]); the
    /// clustering pair counts add, losing only the single unobservable
    /// pair that straddles the split boundary (bounded error of one
    /// pair per merge).
    pub fn merge(&mut self, other: &ColumnAccumulator) {
        self.rows += other.rows;
        self.nulls += other.nulls;
        if let Some(b) = &other.min {
            match &self.min {
                Some(a) if a <= b => {}
                _ => self.min = Some(b.clone()),
            }
        }
        if let Some(b) = &other.max {
            match &self.max {
                Some(a) if a >= b => {}
                _ => self.max = Some(b.clone()),
            }
        }
        self.reservoir.merge(&other.reservoir);
        self.sketch.merge(&other.sketch);
        self.pairs += other.pairs;
        self.nondecreasing += other.nondecreasing;
        if other.prev_rank.is_some() {
            self.prev_rank = other.prev_rank;
        }
    }

    /// Rows observed.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Null fraction so far.
    pub fn null_frac(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nulls as f64 / self.rows as f64
        }
    }

    /// Finalize into an [`ObservedColumn`], building a histogram of the
    /// requested kind and bucket count from the reservoir.
    pub fn finish(&self, kind: HistogramKind, buckets: usize) -> ObservedColumn {
        let distinct = self.sketch.estimate();
        let histogram = if self.reservoir.items().is_empty() {
            None
        } else {
            let mut h = Histogram::build(
                kind,
                self.reservoir.items(),
                buckets,
                self.null_frac(),
                distinct,
            );
            // The accumulator knows the true stream length; record it
            // as the histogram's weight.
            h.set_weight(self.rows as f64);
            Some(h)
        };
        ObservedColumn {
            rows: self.rows,
            null_frac: self.null_frac(),
            min: self.min.clone(),
            max: self.max.clone(),
            distinct,
            histogram,
            clustering: self.clustering(),
        }
    }

    /// Physical clustering estimate in [0, 1]: |2·m − 1| where `m` is
    /// the fraction of consecutive non-decreasing pairs (1 = perfectly
    /// clustered ascending or descending, 0 = random order).
    pub fn clustering(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            (2.0 * self.nondecreasing as f64 / self.pairs as f64 - 1.0).abs()
        }
    }
}

/// One-pass statistics over a row stream: row count, encoded bytes and
/// one [`ColumnAccumulator`] per watched column. ANALYZE,
/// materialization and the statistics collector all observe through
/// this type; each picks its own column positions and seeds.
#[derive(Debug, Clone)]
pub struct StreamStats {
    rows: u64,
    bytes: u64,
    cols: Vec<(usize, ColumnAccumulator)>,
}

impl StreamStats {
    /// Watch the columns at the given `(position, seed)` pairs, each
    /// sampled into a reservoir of `reservoir` items.
    pub fn new(cols: impl IntoIterator<Item = (usize, u64)>, reservoir: usize) -> StreamStats {
        StreamStats {
            rows: 0,
            bytes: 0,
            cols: cols
                .into_iter()
                .map(|(pos, seed)| (pos, ColumnAccumulator::new(reservoir, seed)))
                .collect(),
        }
    }

    /// Observe one row. Returns the CPU operations the watched columns
    /// cost (see [`ColumnAccumulator::observe`]).
    pub fn observe(&mut self, row: &Row) -> u64 {
        self.rows += 1;
        self.bytes += row.encoded_len() as u64;
        self.cols
            .iter_mut()
            .map(|(pos, acc)| acc.observe(row.get(*pos)))
            .sum()
    }

    /// Merge another stream over the same columns into this one, as if
    /// this stream had observed `self`'s rows followed by `other`'s
    /// (see [`ColumnAccumulator::merge`]).
    pub fn merge(&mut self, other: &StreamStats) {
        debug_assert_eq!(self.cols.len(), other.cols.len());
        self.rows += other.rows;
        self.bytes += other.bytes;
        for ((_, a), (_, b)) in self.cols.iter_mut().zip(&other.cols) {
            a.merge(b);
        }
    }

    /// Rows observed.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Average encoded row width in bytes (0 for an empty stream).
    pub fn avg_row_bytes(&self) -> f64 {
        if self.rows > 0 {
            self.bytes as f64 / self.rows as f64
        } else {
            0.0
        }
    }

    /// Finalize every watched column, in the order given to
    /// [`StreamStats::new`].
    pub fn finish(&self, kind: HistogramKind, buckets: usize) -> Vec<ObservedColumn> {
        self.cols
            .iter()
            .map(|(_, acc)| acc.finish(kind, buckets))
            .collect()
    }
}

/// Final single-pass statistics for one column.
#[derive(Debug, Clone)]
pub struct ObservedColumn {
    /// Total rows observed (including nulls).
    pub rows: u64,
    /// Fraction of nulls.
    pub null_frac: f64,
    /// Minimum non-null value.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Estimated distinct non-null values.
    pub distinct: f64,
    /// Histogram built from the reservoir sample (absent for an empty
    /// stream).
    pub histogram: Option<Histogram>,
    /// Physical clustering in [0, 1]; see
    /// [`ColumnAccumulator::clustering`].
    pub clustering: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_min_max_nulls() {
        let mut acc = ColumnAccumulator::new(64, 1);
        for v in [
            Value::Int(5),
            Value::Null,
            Value::Int(-3),
            Value::Int(12),
            Value::Null,
        ] {
            acc.observe(&v);
        }
        let obs = acc.finish(HistogramKind::MaxDiff, 8);
        assert_eq!(obs.rows, 5);
        assert!((obs.null_frac - 0.4).abs() < 1e-12);
        assert_eq!(obs.min, Some(Value::Int(-3)));
        assert_eq!(obs.max, Some(Value::Int(12)));
    }

    #[test]
    fn distinct_estimate_tracks_truth() {
        let mut acc = ColumnAccumulator::new(256, 2);
        for i in 0..5000 {
            acc.observe(&Value::Int(i % 500));
        }
        let obs = acc.finish(HistogramKind::EquiDepth, 16);
        assert!(
            (obs.distinct - 500.0).abs() / 500.0 < 0.35,
            "distinct {}",
            obs.distinct
        );
    }

    #[test]
    fn histogram_reflects_distribution() {
        let mut acc = ColumnAccumulator::new(512, 3);
        for i in 0..10_000i64 {
            acc.observe(&Value::Int(i % 100));
        }
        let obs = acc.finish(HistogramKind::EquiDepth, 10);
        let h = obs.histogram.unwrap();
        let sel = h.sel_range(Some(0.0), Some(24.0));
        assert!((sel - 0.25).abs() < 0.08, "sel {sel}");
    }

    #[test]
    fn empty_stream() {
        let acc = ColumnAccumulator::new(16, 4);
        let obs = acc.finish(HistogramKind::MaxDiff, 4);
        assert_eq!(obs.rows, 0);
        assert!(obs.histogram.is_none());
        assert!(obs.min.is_none());
    }

    #[test]
    fn observe_reports_cpu_cost() {
        let mut acc = ColumnAccumulator::new(16, 5);
        assert_eq!(acc.observe(&Value::Null), 1);
        assert_eq!(acc.observe(&Value::Int(1)), 3);
    }

    /// Merge-of-splits equals whole-input statistics: exact for row and
    /// null counts, min/max and histogram buckets (unsaturated
    /// reservoirs over a small domain); distinct within the sketch's
    /// bounded error of the whole-input estimate.
    #[test]
    fn merge_of_splits_matches_whole_input() {
        let values: Vec<Value> = (0..4000i64)
            .map(|i| {
                if i % 10 == 3 {
                    Value::Null
                } else {
                    Value::Int(i % 7)
                }
            })
            .collect();
        let mut whole = ColumnAccumulator::new(8192, 42);
        for v in &values {
            whole.observe(v);
        }
        let (a, b) = values.split_at(1234);
        let mut left = ColumnAccumulator::new(8192, 42);
        let mut right = ColumnAccumulator::new(8192, 43);
        for v in a {
            left.observe(v);
        }
        for v in b {
            right.observe(v);
        }
        left.merge(&right);

        assert_eq!(left.rows(), whole.rows());
        assert!((left.null_frac() - whole.null_frac()).abs() < 1e-12);
        let om = left.finish(HistogramKind::MaxDiff, 16);
        let ow = whole.finish(HistogramKind::MaxDiff, 16);
        assert_eq!(om.min, ow.min);
        assert_eq!(om.max, ow.max);
        // Sketch merge is a bitmap union: the distinct estimate of the
        // merged splits equals the whole-input estimate exactly.
        assert!(
            (om.distinct - ow.distinct).abs() < 1e-9,
            "distinct {} vs {}",
            om.distinct,
            ow.distinct
        );
        // Same multiset in both reservoirs (unsaturated) ⇒ identical
        // singleton histogram buckets.
        let (hm, hw) = (om.histogram.unwrap(), ow.histogram.unwrap());
        assert_eq!(hm.buckets().len(), hw.buckets().len());
        for (bm, bw) in hm.buckets().iter().zip(hw.buckets()) {
            assert_eq!(bm.lo, bw.lo);
            assert!((bm.frac - bw.frac).abs() < 1e-9);
        }
    }

    /// Clustering survives merging up to the one unobservable
    /// boundary pair.
    #[test]
    fn merge_clustering_bounded_error() {
        let mut whole = ColumnAccumulator::new(64, 1);
        let mut left = ColumnAccumulator::new(64, 1);
        let mut right = ColumnAccumulator::new(64, 2);
        for i in 0..1000i64 {
            whole.observe(&Value::Int(i));
            if i < 500 {
                left.observe(&Value::Int(i));
            } else {
                right.observe(&Value::Int(i));
            }
        }
        left.merge(&right);
        assert!((whole.clustering() - 1.0).abs() < 1e-12);
        assert!(
            (left.clustering() - whole.clustering()).abs() < 0.01,
            "clustering {} vs {}",
            left.clustering(),
            whole.clustering()
        );
    }
}
