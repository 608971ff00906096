//! Property tests for the statistics substrate: histogram invariants,
//! reservoir bounds, sketch bounds, Zipf normalization, and the
//! split-and-merge law of the one-pass stream statistics.

use mq_common::{Row, Value};
use mq_stats::{FmSketch, Histogram, HistogramKind, Reservoir, StreamStats, Zipf};
use proptest::prelude::*;

fn kinds() -> impl Strategy<Value = HistogramKind> {
    prop_oneof![
        Just(HistogramKind::EquiWidth),
        Just(HistogramKind::EquiDepth),
        Just(HistogramKind::MaxDiff),
        Just(HistogramKind::EndBiased),
        Just(HistogramKind::VOptimal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bucket mass sums to 1 − null_frac (within float slack); every
    /// selectivity is in [0, 1]; full-range selectivity covers the mass.
    #[test]
    fn histogram_invariants(
        kind in kinds(),
        sample in prop::collection::vec(-1000i64..1000, 1..500),
        nbuckets in 1usize..40,
        null_frac in 0.0f64..0.9,
    ) {
        let ranks: Vec<f64> = sample.iter().map(|&v| v as f64).collect();
        let h = Histogram::build(kind, &ranks, nbuckets, null_frac, 0.0);
        let mass: f64 = h.buckets().iter().map(|b| b.frac).sum();
        prop_assert!((mass - (1.0 - null_frac)).abs() < 1e-6, "mass {mass}");
        for b in h.buckets() {
            prop_assert!(b.lo <= b.hi);
            prop_assert!(b.frac >= 0.0 && b.frac <= 1.0);
            prop_assert!(b.distinct >= 0.0);
        }
        let full = h.sel_range(None, None);
        prop_assert!(full <= 1.0 + 1e-9);
        prop_assert!(full >= (1.0 - null_frac) - 1e-6);
        for &probe in sample.iter().take(10) {
            let s = h.sel_eq(probe as f64);
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }

    /// Range selectivity is monotone in the bounds.
    #[test]
    fn range_monotone(
        kind in kinds(),
        sample in prop::collection::vec(0i64..500, 2..300),
        a in 0f64..500.0,
        b in 0f64..500.0,
        c in 0f64..500.0,
    ) {
        let ranks: Vec<f64> = sample.iter().map(|&v| v as f64).collect();
        let h = Histogram::build(kind, &ranks, 16, 0.0, 0.0);
        let mut xs = [a, b, c];
        xs.sort_by(f64::total_cmp);
        let narrow = h.sel_range(Some(xs[1]), Some(xs[1]));
        let mid = h.sel_range(Some(xs[0]), Some(xs[1]));
        let wide = h.sel_range(Some(xs[0]), Some(xs[2]));
        prop_assert!(narrow <= mid + 1e-9);
        prop_assert!(mid <= wide + 1e-9);
    }

    /// Join selectivity is symmetric-ish and bounded.
    #[test]
    fn join_selectivity_bounded(
        xs in prop::collection::vec(0i64..100, 2..200),
        ys in prop::collection::vec(0i64..100, 2..200),
    ) {
        let hx = Histogram::build(
            HistogramKind::MaxDiff,
            &xs.iter().map(|&v| v as f64).collect::<Vec<_>>(),
            16, 0.0, 0.0,
        );
        let hy = Histogram::build(
            HistogramKind::MaxDiff,
            &ys.iter().map(|&v| v as f64).collect::<Vec<_>>(),
            16, 0.0, 0.0,
        );
        let s1 = hx.sel_join(&hy);
        let s2 = hy.sel_join(&hx);
        prop_assert!((0.0..=1.0).contains(&s1));
        prop_assert!((0.0..=1.0).contains(&s2));
        // Not exactly symmetric (bucket asymmetry) but same magnitude.
        if s1 > 1e-9 && s2 > 1e-9 {
            prop_assert!(s1 / s2 < 25.0 && s2 / s1 < 25.0, "{s1} vs {s2}");
        }
    }

    /// The reservoir never exceeds capacity and keeps short streams
    /// exactly.
    #[test]
    fn reservoir_bounds(cap in 1usize..64, n in 0usize..500, seed in any::<u64>()) {
        let mut r = Reservoir::new(cap, seed);
        for i in 0..n {
            r.observe(i);
        }
        prop_assert_eq!(r.seen(), n as u64);
        prop_assert_eq!(r.items().len(), n.min(cap));
        if n <= cap {
            prop_assert_eq!(r.items(), &(0..n).collect::<Vec<_>>()[..]);
        }
        // Sampled items must come from the stream.
        for &x in r.items() {
            prop_assert!(x < n);
        }
    }

    /// The FM estimate is within a loose factor of the truth and never
    /// exceeds the observed stream length.
    #[test]
    fn fm_sketch_bounds(distinct in 1u64..3000, dups in 1u64..4) {
        let mut s = FmSketch::new(64);
        for i in 0..distinct {
            for _ in 0..dups {
                s.observe(&(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            }
        }
        let est = s.estimate();
        prop_assert!(est <= (distinct * dups) as f64 + 1.0);
        prop_assert!(est >= distinct as f64 / 5.0, "est {est} truth {distinct}");
        prop_assert!(est <= distinct as f64 * 5.0, "est {est} truth {distinct}");
    }

    /// Zipf probabilities are normalized and non-increasing in rank.
    #[test]
    fn zipf_normalized(n in 1usize..500, z in 0.0f64..2.0) {
        let zipf = Zipf::new(n, z);
        let total: f64 = (0..n).map(|k| zipf.prob_of_rank(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for k in 1..n {
            prop_assert!(zipf.prob_of_rank(k) <= zipf.prob_of_rank(k - 1) + 1e-12);
        }
    }

    /// Zipf samples always land in the domain.
    #[test]
    fn zipf_in_domain(n in 1usize..100, z in 0.0f64..1.5, seed in any::<u64>()) {
        let zipf = Zipf::new(n, z).scrambled(seed);
        let mut rng = mq_common::DetRng::new(seed ^ 1);
        for _ in 0..200 {
            prop_assert!(zipf.sample(&mut rng) < n);
        }
    }

    /// Splitting a row stream at any point and merging the two halves
    /// gives the single pass's row count and average width and, while
    /// the reservoirs hold every value, the same finished columns. The
    /// one exception is clustering, which loses the one pair that
    /// straddles the split.
    #[test]
    fn stream_stats_merge_of_splits_matches_single_pass(
        cells in prop::collection::vec((0i64..60, 0u8..20), 0..300),
        split in 0usize..300,
        reservoir in 1usize..400,
    ) {
        // Ints of 50 and above stand for NULL.
        let rows: Vec<Row> = cells
            .iter()
            .map(|&(n, w)| {
                let n = if n >= 50 { Value::Null } else { Value::Int(n) };
                Row::new(vec![n, Value::str("x".repeat(w as usize))])
            })
            .collect();
        let cols = [(0, 11), (1, 12)];
        let mut whole = StreamStats::new(cols, reservoir);
        let mut ops = 0;
        for r in &rows {
            ops += whole.observe(r);
        }
        let (a, b) = rows.split_at(split.min(rows.len()));
        let mut left = StreamStats::new(cols, reservoir);
        let mut right = StreamStats::new([(0, 21), (1, 22)], reservoir);
        let mut split_ops = 0;
        for r in a {
            split_ops += left.observe(r);
        }
        for r in b {
            split_ops += right.observe(r);
        }
        left.merge(&right);

        prop_assert_eq!(split_ops, ops);
        prop_assert_eq!(left.rows(), whole.rows());
        prop_assert_eq!(left.rows(), rows.len() as u64);
        prop_assert!((left.avg_row_bytes() - whole.avg_row_bytes()).abs() < 1e-9);
        if rows.len() > reservoir {
            return Ok(());
        }
        let merged = left.finish(HistogramKind::MaxDiff, 8);
        let single = whole.finish(HistogramKind::MaxDiff, 8);
        prop_assert_eq!(merged.len(), 2);
        for (m, w) in merged.iter().zip(&single) {
            prop_assert_eq!(m.rows, w.rows);
            prop_assert_eq!(m.null_frac, w.null_frac);
            prop_assert_eq!(&m.min, &w.min);
            prop_assert_eq!(&m.max, &w.max);
            prop_assert_eq!(m.distinct, w.distinct);
            prop_assert_eq!(&m.histogram, &w.histogram);
        }
        // The clustering score moves by at most 2/(pairs − 1) when one
        // of the single pass's consecutive non-null pairs is dropped.
        let ranked = [
            rows.iter().filter(|r| !r.get(0).is_null()).count(),
            rows.len(),
        ];
        for ((m, w), k) in merged.iter().zip(&single).zip(ranked) {
            let tol = 2.0 / k.saturating_sub(2).max(1) as f64;
            prop_assert!(
                (m.clustering - w.clustering).abs() <= tol + 1e-12,
                "clustering {} vs {}",
                m.clustering,
                w.clustering
            );
        }
    }
}
