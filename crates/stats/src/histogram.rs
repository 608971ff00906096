//! Histograms for selectivity estimation.
//!
//! Five classes are implemented, mirroring the families the paper's
//! statistics-collectors insertion algorithm reasons about (§2.5):
//!
//! * **equi-width** — fixed-width buckets; *medium* inaccuracy potential;
//! * **equi-depth** — quantile buckets; *medium* inaccuracy potential;
//! * **MaxDiff(V,A)** — boundaries at the largest area differences
//!   (Poosala & Ioannidis \[19\]); what Paradise stores in its catalogs;
//! * **end-biased** — exact frequencies for the most frequent values,
//!   one uniform bucket for the rest; our stand-in for the paper's
//!   *serial* histograms, which earn *low* inaccuracy potential;
//! * **V-optimal(V,F)** — the dynamic-programming partition minimizing
//!   within-bucket frequency variance (\[19\]'s optimal class): the
//!   most accurate, and the most expensive to construct.
//!
//! Histograms operate over the numeric rank of a value
//! ([`mq_common::Value::as_f64`]); bucket fractions are relative to the
//! total row count (nulls tracked separately and never matching).

use std::fmt;

/// The histogram construction algorithm used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistogramKind {
    /// Fixed-width buckets over `[min, max]`.
    EquiWidth,
    /// Buckets holding (approximately) equal row counts.
    EquiDepth,
    /// MaxDiff(V,A): split where frequency×spread changes most.
    MaxDiff,
    /// Exact singleton buckets for frequent values ("serial" class).
    EndBiased,
    /// V-optimal(V,F): dynamic-programming partition minimizing the
    /// total within-bucket frequency variance (Poosala et al. \[19\]'s
    /// optimal class; the most accurate and the most expensive to build).
    VOptimal,
}

impl fmt::Display for HistogramKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HistogramKind::EquiWidth => "equi-width",
            HistogramKind::EquiDepth => "equi-depth",
            HistogramKind::MaxDiff => "maxdiff",
            HistogramKind::EndBiased => "end-biased",
            HistogramKind::VOptimal => "v-optimal",
        };
        f.write_str(s)
    }
}

/// One histogram bucket over the closed interval `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Inclusive lower bound (value rank).
    pub lo: f64,
    /// Inclusive upper bound (value rank).
    pub hi: f64,
    /// Fraction of all rows falling in this bucket.
    pub frac: f64,
    /// Estimated distinct values in this bucket (≥ 1 when `frac > 0`).
    pub distinct: f64,
}

impl Bucket {
    fn is_singleton(&self) -> bool {
        self.lo == self.hi
    }
}

/// A one-dimensional histogram with selectivity estimators.
///
/// ```
/// use mq_stats::{Histogram, HistogramKind};
/// // 1000 values uniform over 0..100.
/// let sample: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
/// let h = Histogram::build(HistogramKind::MaxDiff, &sample, 16, 0.0, 100.0);
/// let quarter = h.sel_range(Some(0.0), Some(24.0));
/// assert!((quarter - 0.25).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    kind: HistogramKind,
    buckets: Vec<Bucket>,
    min: f64,
    max: f64,
    null_frac: f64,
    distinct: f64,
    /// Number of rows (including nulls) this histogram summarizes, so
    /// `frac × weight` recovers a bucket's row count. Estimated from
    /// the sample by [`Histogram::build`]; callers that know the true
    /// stream length should override via [`Histogram::set_weight`].
    /// Carried in snapshots.
    weight: f64,
}

impl Histogram {
    /// Build a histogram of `kind` with (at most) `nbuckets` buckets
    /// from the numeric ranks of a sample, where `null_frac` is the
    /// fraction of NULLs in the full stream and `total_distinct` the
    /// (estimated) distinct count of the full stream.
    pub fn build(
        kind: HistogramKind,
        sample: &[f64],
        nbuckets: usize,
        null_frac: f64,
        total_distinct: f64,
    ) -> Histogram {
        let mut vals: Vec<f64> = sample.iter().copied().filter(|v| v.is_finite()).collect();
        vals.sort_by(f64::total_cmp);
        if vals.is_empty() || nbuckets == 0 {
            return Histogram {
                kind,
                buckets: Vec::new(),
                min: 0.0,
                max: 0.0,
                null_frac: null_frac.clamp(0.0, 1.0),
                distinct: total_distinct.max(0.0),
                weight: 0.0,
            };
        }
        let nonnull_frac = (1.0 - null_frac).clamp(0.0, 1.0);
        // Collapse to (value, frequency) pairs.
        let mut freq: Vec<(f64, u64)> = Vec::new();
        for &v in &vals {
            match freq.last_mut() {
                Some((last, c)) if *last == v => *c += 1,
                _ => freq.push((v, 1)),
            }
        }
        let n = vals.len() as f64;
        let sample_distinct = freq.len() as f64;
        let distinct = if total_distinct > 0.0 {
            total_distinct
        } else {
            sample_distinct
        };
        // Scale per-bucket sample distinct counts up to the full stream.
        let distinct_scale = (distinct / sample_distinct).max(1.0);

        let mut buckets = match kind {
            HistogramKind::EquiWidth => build_equi_width(&freq, n, nbuckets),
            HistogramKind::EquiDepth => build_equi_depth(&freq, n, nbuckets),
            HistogramKind::MaxDiff => build_maxdiff(&freq, n, nbuckets),
            HistogramKind::EndBiased => build_end_biased(&freq, n, nbuckets),
            HistogramKind::VOptimal => build_voptimal(&freq, n, nbuckets),
        };
        for b in &mut buckets {
            b.frac *= nonnull_frac;
            if !b.is_singleton() {
                b.distinct = (b.distinct * distinct_scale).max(1.0);
            }
        }
        // Mass basis: total rows (incl. nulls) the sample stands for —
        // `frac × weight` recovers a bucket's row count.
        let weight = if nonnull_frac > 0.0 {
            n / nonnull_frac
        } else {
            n
        };
        Histogram {
            kind,
            buckets,
            min: *vals.first().unwrap(),
            max: *vals.last().unwrap(),
            null_frac: null_frac.clamp(0.0, 1.0),
            distinct,
            weight,
        }
    }

    /// Reassemble a histogram from previously captured parts (the
    /// getters' view) — the snapshot restore path. No re-derivation
    /// happens: the caller is trusted to hand back exactly what
    /// [`Histogram::kind`], [`Histogram::buckets`] and friends produced.
    pub fn from_parts(
        kind: HistogramKind,
        buckets: Vec<Bucket>,
        min: f64,
        max: f64,
        null_frac: f64,
        distinct: f64,
        weight: f64,
    ) -> Histogram {
        Histogram {
            kind,
            buckets,
            min,
            max,
            null_frac: null_frac.clamp(0.0, 1.0),
            distinct: distinct.max(0.0),
            weight: weight.max(0.0),
        }
    }

    /// The construction algorithm.
    pub fn kind(&self) -> HistogramKind {
        self.kind
    }

    /// The buckets (read-only view, mostly for tests and EXPLAIN).
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Minimum observed rank.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed rank.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Fraction of NULL rows.
    pub fn null_frac(&self) -> f64 {
        self.null_frac
    }

    /// Estimated distinct values (non-null).
    pub fn distinct(&self) -> f64 {
        self.distinct
    }

    /// Whether the histogram carries any distribution information.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The number of rows this histogram summarizes (the mass basis:
    /// `frac × weight` is a bucket's row count).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Override the row weight with the true stream length (builders
    /// only see the reservoir sample; the accumulator knows the exact
    /// count).
    pub fn set_weight(&mut self, rows: f64) {
        if rows.is_finite() && rows >= 0.0 {
            self.weight = rows;
        }
    }

    /// Selectivity of `col = rank` as a fraction of all rows.
    pub fn sel_eq(&self, rank: f64) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        if rank < self.min || rank > self.max {
            return 0.0;
        }
        // Singleton buckets (end-biased) answer exactly.
        for b in &self.buckets {
            if b.is_singleton() && b.lo == rank {
                return b.frac;
            }
        }
        for b in &self.buckets {
            if rank >= b.lo && rank <= b.hi && !b.is_singleton() {
                return b.frac / b.distinct.max(1.0);
            }
        }
        // Fell between buckets (end-biased pooled region exhausted).
        0.0
    }

    /// Selectivity of `lo ≤ col ≤ hi` (either bound optional) as a
    /// fraction of all rows, using the continuous-uniform assumption
    /// within buckets.
    pub fn sel_range(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        let lo = lo.unwrap_or(f64::NEG_INFINITY);
        let hi = hi.unwrap_or(f64::INFINITY);
        if lo > hi {
            return 0.0;
        }
        let mut total = 0.0;
        for b in &self.buckets {
            total += bucket_overlap(b, lo, hi);
        }
        total.clamp(0.0, 1.0)
    }

    /// Join selectivity of `R.a = S.b` estimated from the two
    /// histograms: fraction of the cross product that matches. Buckets
    /// are intersected; within each intersection the standard
    /// `f_R · f_S / max(d_R, d_S)` formula applies.
    pub fn sel_join(&self, other: &Histogram) -> f64 {
        if self.buckets.is_empty() || other.buckets.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for a in &self.buckets {
            for b in &other.buckets {
                let lo = a.lo.max(b.lo);
                let hi = a.hi.min(b.hi);
                if lo > hi {
                    continue;
                }
                let fa = fraction_of_bucket_in(a, lo, hi);
                let fb = fraction_of_bucket_in(b, lo, hi);
                let da = (a.distinct * bucket_span_frac(a, lo, hi)).max(1.0);
                let db = (b.distinct * bucket_span_frac(b, lo, hi)).max(1.0);
                total += fa * fb / da.max(db);
            }
        }
        total.clamp(0.0, 1.0)
    }
}

fn bucket_overlap(b: &Bucket, lo: f64, hi: f64) -> f64 {
    b.frac * bucket_span_frac(b, lo, hi)
}

/// Fraction of the bucket's span covered by `[lo, hi]`, with a
/// discrete correction: values are modelled as `distinct` points spaced
/// one "gap" apart, so a single-point overlap yields ≈ 1/distinct
/// rather than zero (important on small integer domains).
fn bucket_span_frac(b: &Bucket, lo: f64, hi: f64) -> f64 {
    if hi < b.lo || lo > b.hi {
        return 0.0;
    }
    if b.is_singleton() {
        return 1.0; // fully inside (we checked overlap above)
    }
    let gap = (b.hi - b.lo) / (b.distinct - 1.0).max(1.0);
    let clip_lo = lo.max(b.lo);
    let clip_hi = hi.min(b.hi);
    (((clip_hi - clip_lo) + gap) / ((b.hi - b.lo) + gap)).clamp(0.0, 1.0)
}

fn fraction_of_bucket_in(b: &Bucket, lo: f64, hi: f64) -> f64 {
    b.frac * bucket_span_frac(b, lo, hi)
}

fn build_equi_width(freq: &[(f64, u64)], n: f64, nbuckets: usize) -> Vec<Bucket> {
    let lo = freq.first().unwrap().0;
    let hi = freq.last().unwrap().0;
    if lo == hi {
        return vec![Bucket {
            lo,
            hi,
            frac: 1.0,
            distinct: 1.0,
        }];
    }
    let width = (hi - lo) / nbuckets as f64;
    let mut buckets: Vec<Bucket> = (0..nbuckets)
        .map(|i| Bucket {
            lo: lo + width * i as f64,
            hi: if i + 1 == nbuckets {
                hi
            } else {
                lo + width * (i + 1) as f64
            },
            frac: 0.0,
            distinct: 0.0,
        })
        .collect();
    for &(v, c) in freq {
        let idx = (((v - lo) / width) as usize).min(nbuckets - 1);
        buckets[idx].frac += c as f64 / n;
        buckets[idx].distinct += 1.0;
    }
    buckets.retain(|b| b.frac > 0.0);
    buckets
}

fn build_equi_depth(freq: &[(f64, u64)], n: f64, nbuckets: usize) -> Vec<Bucket> {
    let target = (n / nbuckets as f64).max(1.0);
    let mut buckets = Vec::with_capacity(nbuckets);
    let mut cur_lo = freq[0].0;
    let mut cur_count = 0.0;
    let mut cur_distinct = 0.0;
    for (i, &(v, c)) in freq.iter().enumerate() {
        cur_count += c as f64;
        cur_distinct += 1.0;
        let last = i + 1 == freq.len();
        if (cur_count >= target && buckets.len() + 1 < nbuckets) || last {
            buckets.push(Bucket {
                lo: cur_lo,
                hi: v,
                frac: cur_count / n,
                distinct: cur_distinct,
            });
            if let Some(&(next, _)) = freq.get(i + 1) {
                cur_lo = next;
            }
            cur_count = 0.0;
            cur_distinct = 0.0;
        }
    }
    buckets
}

fn build_maxdiff(freq: &[(f64, u64)], n: f64, nbuckets: usize) -> Vec<Bucket> {
    if freq.len() <= nbuckets {
        // Every distinct value gets its own exact singleton bucket.
        return freq
            .iter()
            .map(|&(v, c)| Bucket {
                lo: v,
                hi: v,
                frac: c as f64 / n,
                distinct: 1.0,
            })
            .collect();
    }
    // Area of value i = freq_i × spread_i (spread = gap to next value).
    let mut areas = Vec::with_capacity(freq.len());
    for (i, &(v, c)) in freq.iter().enumerate() {
        let spread = if i + 1 < freq.len() {
            freq[i + 1].0 - v
        } else {
            // Last value: reuse the previous spread as an approximation.
            freq[i - 1].0 - if i >= 2 { freq[i - 2].0 } else { v - 1.0 }
        };
        areas.push(c as f64 * spread.max(f64::EPSILON));
    }
    // Split after position i where |area[i+1] - area[i]| is largest.
    let mut diffs: Vec<(f64, usize)> = areas
        .windows(2)
        .enumerate()
        .map(|(i, w)| ((w[1] - w[0]).abs(), i))
        .collect();
    diffs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut splits: Vec<usize> = diffs
        .into_iter()
        .take(nbuckets.saturating_sub(1))
        .map(|(_, i)| i)
        .collect();
    splits.sort_unstable();

    let mut buckets = Vec::with_capacity(nbuckets);
    let mut start = 0usize;
    for &s in splits.iter().chain(std::iter::once(&(freq.len() - 1))) {
        let end = s; // inclusive index of last value in bucket
        let slice = &freq[start..=end];
        let count: u64 = slice.iter().map(|&(_, c)| c).sum();
        buckets.push(Bucket {
            lo: slice[0].0,
            hi: slice[slice.len() - 1].0,
            frac: count as f64 / n,
            distinct: slice.len() as f64,
        });
        start = end + 1;
        if start >= freq.len() {
            break;
        }
    }
    buckets
}

/// V-optimal(V,F): choose bucket boundaries minimizing the summed
/// within-bucket variance of value frequencies (the SSE of
/// approximating each bucket's frequencies by their mean). Exact
/// dynamic program, O(D² × B) over D distinct values; inputs with more
/// than `VOPT_MAX_DISTINCT` distinct values are first coarsened into
/// contiguous segments so construction stays bounded.
fn build_voptimal(freq: &[(f64, u64)], n: f64, nbuckets: usize) -> Vec<Bucket> {
    const VOPT_MAX_DISTINCT: usize = 256;
    if freq.len() <= nbuckets {
        return freq
            .iter()
            .map(|&(v, c)| Bucket {
                lo: v,
                hi: v,
                frac: c as f64 / n,
                distinct: 1.0,
            })
            .collect();
    }
    // Segments of contiguous distinct values: (lo, hi, count, distinct).
    let segments: Vec<(f64, f64, f64, f64)> = if freq.len() <= VOPT_MAX_DISTINCT {
        freq.iter().map(|&(v, c)| (v, v, c as f64, 1.0)).collect()
    } else {
        let group = freq.len().div_ceil(VOPT_MAX_DISTINCT);
        freq.chunks(group)
            .map(|chunk| {
                (
                    chunk[0].0,
                    chunk[chunk.len() - 1].0,
                    chunk.iter().map(|&(_, c)| c as f64).sum(),
                    chunk.len() as f64,
                )
            })
            .collect()
    };
    let d = segments.len();
    let b = nbuckets.min(d);

    // Prefix sums of counts and squared counts over segments.
    let mut sum = vec![0.0f64; d + 1];
    let mut sq = vec![0.0f64; d + 1];
    for (i, s) in segments.iter().enumerate() {
        sum[i + 1] = sum[i] + s.2;
        sq[i + 1] = sq[i] + s.2 * s.2;
    }
    // SSE of segments i..=j approximated by their mean frequency.
    let sse = |i: usize, j: usize| -> f64 {
        let cnt = (j - i + 1) as f64;
        let s = sum[j + 1] - sum[i];
        let s2 = sq[j + 1] - sq[i];
        (s2 - s * s / cnt).max(0.0)
    };

    // dp[k][j] = min error covering segments 0..=j with k+1 buckets.
    let mut dp = vec![vec![f64::INFINITY; d]; b];
    let mut cut = vec![vec![0usize; d]; b];
    for (j, slot) in dp[0].iter_mut().enumerate() {
        *slot = sse(0, j);
    }
    for k in 1..b {
        for j in k..d {
            for i in k..=j {
                let cost = dp[k - 1][i - 1] + sse(i, j);
                if cost < dp[k][j] {
                    dp[k][j] = cost;
                    cut[k][j] = i;
                }
            }
        }
    }

    // Backtrack boundaries from dp[b-1][d-1].
    let mut bounds = Vec::with_capacity(b);
    let mut j = d - 1;
    let mut k = b - 1;
    loop {
        let i = if k == 0 { 0 } else { cut[k][j] };
        bounds.push((i, j));
        if k == 0 {
            break;
        }
        j = i - 1;
        k -= 1;
    }
    bounds.reverse();

    bounds
        .into_iter()
        .map(|(i, j)| {
            let count: f64 = segments[i..=j].iter().map(|s| s.2).sum();
            let distinct: f64 = segments[i..=j].iter().map(|s| s.3).sum();
            Bucket {
                lo: segments[i].0,
                hi: segments[j].1,
                frac: count / n,
                distinct,
            }
        })
        .collect()
}

fn build_end_biased(freq: &[(f64, u64)], n: f64, nbuckets: usize) -> Vec<Bucket> {
    let singles = nbuckets.saturating_sub(1).min(freq.len());
    // Pick the most frequent values for exact singleton buckets.
    let mut by_freq: Vec<usize> = (0..freq.len()).collect();
    by_freq.sort_by(|&a, &b| freq[b].1.cmp(&freq[a].1).then(a.cmp(&b)));
    let top: Vec<usize> = {
        let mut t = by_freq[..singles].to_vec();
        t.sort_unstable();
        t
    };
    let mut buckets: Vec<Bucket> = top
        .iter()
        .map(|&i| Bucket {
            lo: freq[i].0,
            hi: freq[i].0,
            frac: freq[i].1 as f64 / n,
            distinct: 1.0,
        })
        .collect();
    // The remainder pools into a single spanning bucket.
    let rest: Vec<&(f64, u64)> = freq
        .iter()
        .enumerate()
        .filter(|(i, _)| !top.contains(i))
        .map(|(_, f)| f)
        .collect();
    if !rest.is_empty() {
        let count: u64 = rest.iter().map(|(_, c)| *c).sum();
        buckets.push(Bucket {
            lo: rest.first().unwrap().0,
            hi: rest.last().unwrap().0,
            frac: count as f64 / n,
            distinct: rest.len() as f64,
        });
    }
    buckets.sort_by(|a, b| a.lo.total_cmp(&b.lo));
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean relative error of `h`'s point estimates against an exact
    /// frequency table.
    fn eq_error_against(h: &Histogram, exact: &[(f64, f64)]) -> f64 {
        if exact.is_empty() {
            return 0.0;
        }
        let mut err = 0.0;
        for &(rank, frac) in exact {
            err += (h.sel_eq(rank) - frac).abs() / frac.max(1e-9);
        }
        err / exact.len() as f64
    }

    fn uniform_sample(n: usize, lo: i64, hi: i64) -> Vec<f64> {
        // Deterministic striped coverage of [lo, hi].
        (0..n)
            .map(|i| (lo + (i as i64 * 7919) % (hi - lo + 1)) as f64)
            .collect()
    }

    #[test]
    fn equi_width_range_estimates_uniform() {
        let sample = uniform_sample(10_000, 0, 999);
        let h = Histogram::build(HistogramKind::EquiWidth, &sample, 20, 0.0, 1000.0);
        // Range covering 25% of the domain.
        let sel = h.sel_range(Some(0.0), Some(249.0));
        assert!((sel - 0.25).abs() < 0.05, "sel {sel}");
        // Full domain.
        let all = h.sel_range(None, None);
        assert!((all - 1.0).abs() < 1e-6, "all {all}");
    }

    #[test]
    fn equi_depth_buckets_have_similar_mass() {
        let sample = uniform_sample(8000, 0, 99);
        let h = Histogram::build(HistogramKind::EquiDepth, &sample, 10, 0.0, 100.0);
        for b in h.buckets() {
            assert!(b.frac < 0.25, "bucket too heavy: {b:?}");
        }
    }

    #[test]
    fn maxdiff_exact_when_few_distinct() {
        let mut sample = Vec::new();
        for (v, c) in [(1.0, 50), (2.0, 30), (10.0, 20)] {
            sample.extend(std::iter::repeat_n(v, c));
        }
        let h = Histogram::build(HistogramKind::MaxDiff, &sample, 8, 0.0, 3.0);
        assert!((h.sel_eq(1.0) - 0.5).abs() < 1e-9);
        assert!((h.sel_eq(2.0) - 0.3).abs() < 1e-9);
        assert!((h.sel_eq(10.0) - 0.2).abs() < 1e-9);
        assert_eq!(h.sel_eq(5.0), 0.0);
    }

    #[test]
    fn voptimal_exact_when_few_distinct() {
        let mut sample = Vec::new();
        for (v, c) in [(1.0, 50), (2.0, 30), (10.0, 20)] {
            sample.extend(std::iter::repeat_n(v, c));
        }
        let h = Histogram::build(HistogramKind::VOptimal, &sample, 8, 0.0, 3.0);
        assert!((h.sel_eq(1.0) - 0.5).abs() < 1e-9);
        assert!((h.sel_eq(10.0) - 0.2).abs() < 1e-9);
        assert_eq!(h.sel_eq(5.0), 0.0);
    }

    /// V-optimal puts boundaries where frequencies jump: a step
    /// distribution with two plateaus and enough buckets recovers both
    /// plateaus exactly.
    #[test]
    fn voptimal_isolates_frequency_steps() {
        let mut sample = Vec::new();
        // Values 0..50 occur once; values 50..60 occur 20× each.
        for v in 0..50 {
            sample.push(v as f64);
        }
        for v in 50..60 {
            sample.extend(std::iter::repeat_n(v as f64, 20));
        }
        let h = Histogram::build(HistogramKind::VOptimal, &sample, 4, 0.0, 60.0);
        let n = sample.len() as f64;
        // Heavy values answered near their true frequency (20/n),
        // light values near 1/n — the boundary between the plateaus
        // must not smear them together.
        assert!(
            (h.sel_eq(55.0) - 20.0 / n).abs() < 5.0 / n,
            "heavy {} vs {}",
            h.sel_eq(55.0),
            20.0 / n
        );
        assert!(
            h.sel_eq(25.0) < 4.0 / n,
            "light {} should be ≈ {}",
            h.sel_eq(25.0),
            1.0 / n
        );
    }

    /// The DP is optimal: on skewed data its point-query error is never
    /// worse than equi-width's with the same bucket budget.
    #[test]
    fn voptimal_no_worse_than_equiwidth_on_skew() {
        // Zipf-ish frequencies over 100 values.
        let mut sample = Vec::new();
        let mut exact = Vec::new();
        let mut total = 0usize;
        for v in 0..100usize {
            let c = (400.0 / (v as f64 + 1.0)).ceil() as usize;
            sample.extend(std::iter::repeat_n(v as f64, c));
            total += c;
        }
        for v in 0..100usize {
            let c = (400.0 / (v as f64 + 1.0)).ceil();
            exact.push((v as f64, c / total as f64));
        }
        let vopt = Histogram::build(HistogramKind::VOptimal, &sample, 12, 0.0, 100.0);
        let ew = Histogram::build(HistogramKind::EquiWidth, &sample, 12, 0.0, 100.0);
        let (e_vopt, e_ew) = (
            eq_error_against(&vopt, &exact),
            eq_error_against(&ew, &exact),
        );
        assert!(
            e_vopt <= e_ew + 1e-9,
            "v-optimal {e_vopt} vs equi-width {e_ew}"
        );
    }

    /// Large distinct counts go through the coarsening path and still
    /// satisfy the mass/bounds invariants.
    #[test]
    fn voptimal_coarsens_large_domains() {
        let sample: Vec<f64> = (0..4000).map(|i| (i % 1000) as f64).collect();
        let h = Histogram::build(HistogramKind::VOptimal, &sample, 16, 0.0, 1000.0);
        assert!(h.buckets().len() <= 16);
        let mass: f64 = h.buckets().iter().map(|b| b.frac).sum();
        assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
        assert!((h.sel_range(None, None) - 1.0).abs() < 1e-6);
        // Uniform data: any quarter-range is about a quarter.
        let q = h.sel_range(Some(0.0), Some(249.0));
        assert!((q - 0.25).abs() < 0.05, "quarter {q}");
    }

    #[test]
    fn end_biased_exact_for_heavy_hitters() {
        let mut sample = Vec::new();
        sample.extend(std::iter::repeat_n(7.0, 600));
        sample.extend(std::iter::repeat_n(3.0, 250));
        for i in 0..150 {
            sample.push(100.0 + i as f64);
        }
        let h = Histogram::build(HistogramKind::EndBiased, &sample, 3, 0.0, 152.0);
        assert!((h.sel_eq(7.0) - 0.6).abs() < 1e-9);
        assert!((h.sel_eq(3.0) - 0.25).abs() < 1e-9);
        // Tail values estimated via the pooled bucket.
        let tail = h.sel_eq(120.0);
        assert!(tail > 0.0 && tail < 0.01, "tail {tail}");
    }

    #[test]
    fn null_fraction_scales_everything() {
        let sample = uniform_sample(1000, 0, 9);
        let h = Histogram::build(HistogramKind::EquiDepth, &sample, 4, 0.5, 10.0);
        let all = h.sel_range(None, None);
        assert!((all - 0.5).abs() < 0.01, "all {all}");
        assert!((h.null_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_domain_is_zero() {
        let sample = uniform_sample(100, 10, 20);
        let h = Histogram::build(HistogramKind::MaxDiff, &sample, 4, 0.0, 11.0);
        assert_eq!(h.sel_eq(9.0), 0.0);
        assert_eq!(h.sel_eq(25.0), 0.0);
        assert_eq!(h.sel_range(Some(30.0), Some(40.0)), 0.0);
        assert_eq!(h.sel_range(Some(5.0), Some(2.0)), 0.0);
    }

    #[test]
    fn empty_sample_is_harmless() {
        let h = Histogram::build(HistogramKind::MaxDiff, &[], 8, 0.0, 0.0);
        assert!(h.is_empty());
        assert_eq!(h.sel_eq(1.0), 0.0);
        assert_eq!(h.sel_range(None, None), 0.0);
    }

    #[test]
    fn join_selectivity_key_fk() {
        // R.key uniform 0..99 (distinct 100), S.fk uniform 0..99.
        let r = uniform_sample(100, 0, 99);
        let s = uniform_sample(5000, 0, 99);
        let hr = Histogram::build(HistogramKind::EquiDepth, &r, 10, 0.0, 100.0);
        let hs = Histogram::build(HistogramKind::EquiDepth, &s, 10, 0.0, 100.0);
        let sel = hr.sel_join(&hs);
        // True join selectivity = 1/100 = 0.01.
        assert!((sel - 0.01).abs() < 0.005, "sel {sel}");
    }

    #[test]
    fn join_disjoint_domains_is_zero() {
        let r = uniform_sample(100, 0, 49);
        let s = uniform_sample(100, 100, 149);
        let hr = Histogram::build(HistogramKind::MaxDiff, &r, 8, 0.0, 50.0);
        let hs = Histogram::build(HistogramKind::MaxDiff, &s, 8, 0.0, 50.0);
        assert_eq!(hr.sel_join(&hs), 0.0);
    }

    #[test]
    fn skew_hurts_equi_width_less_than_endbiased() {
        // Heavy skew: value 0 appears 90% of the time.
        let mut sample = vec![0.0; 9000];
        for i in 0..1000 {
            sample.push(1.0 + (i % 100) as f64);
        }
        let exact: Vec<(f64, f64)> = vec![(0.0, 0.9), (50.0, 0.001)];
        let ew = Histogram::build(HistogramKind::EquiWidth, &sample, 8, 0.0, 101.0);
        let eb = Histogram::build(HistogramKind::EndBiased, &sample, 8, 0.0, 101.0);
        let err_ew = eq_error_against(&ew, &exact);
        let err_eb = eq_error_against(&eb, &exact);
        assert!(
            err_eb < err_ew,
            "end-biased {err_eb} should beat equi-width {err_ew} under skew"
        );
    }

    #[test]
    fn all_kinds_mass_sums_to_one() {
        let sample = uniform_sample(5000, 0, 499);
        for kind in [
            HistogramKind::EquiWidth,
            HistogramKind::EquiDepth,
            HistogramKind::MaxDiff,
            HistogramKind::EndBiased,
        ] {
            let h = Histogram::build(kind, &sample, 16, 0.0, 500.0);
            let mass: f64 = h.buckets().iter().map(|b| b.frac).sum();
            assert!((mass - 1.0).abs() < 1e-9, "{kind}: mass {mass}");
        }
    }
}
