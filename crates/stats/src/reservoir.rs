//! Reservoir sampling (Vitter's Algorithm R, \[24\] in the paper).
//!
//! The statistics-collector operator must observe a tuple stream in a
//! single pass with bounded memory (§2.2: "one database page is
//! allocated to hold a reservoir sample"). Algorithm R keeps a uniform
//! random sample of fixed capacity regardless of stream length.

use mq_common::DetRng;

/// A fixed-capacity uniform sample over a stream.
///
/// ```
/// use mq_stats::Reservoir;
/// let mut r = Reservoir::new(8, 42);
/// for i in 0..1000 {
///     r.observe(i);
/// }
/// assert_eq!(r.items().len(), 8);
/// assert_eq!(r.seen(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
    rng: DetRng,
}

impl<T> Reservoir<T> {
    /// Create a reservoir holding at most `capacity` items.
    pub fn new(capacity: usize, seed: u64) -> Reservoir<T> {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
            rng: DetRng::new(seed),
        }
    }

    /// Observe one stream element.
    pub fn observe(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            // Replace a random slot with probability capacity/seen.
            let j = self.rng.gen_range(self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// Merge another reservoir into this one, as if this reservoir had
    /// observed both streams. When the union of the kept items fits the
    /// capacity (neither side overflowed) the merge is **exact** — the
    /// result holds every item of both streams. Otherwise each side
    /// contributes a deterministic without-replacement draw sized
    /// proportionally to the stream length it represents (the standard
    /// weighted reservoir-merge; this reservoir's own [`DetRng`] drives
    /// the draw, so merging is reproducible).
    pub fn merge(&mut self, other: &Reservoir<T>)
    where
        T: Clone,
    {
        if other.seen == 0 {
            return;
        }
        let total = self.seen + other.seen;
        if self.items.len() + other.items.len() <= self.capacity {
            self.items.extend(other.items.iter().cloned());
            self.seen = total;
            return;
        }
        let k = self.capacity;
        let mut ka = ((k as u128 * self.seen as u128) / total as u128) as usize;
        ka = ka.clamp(k.saturating_sub(other.items.len()), self.items.len().min(k));
        let kb = (k - ka).min(other.items.len());
        let mut merged = Vec::with_capacity(ka + kb);
        sample_into(&mut merged, &mut self.rng, &self.items, ka);
        sample_into(&mut merged, &mut self.rng, &other.items, kb);
        self.items = merged;
        self.seen = total;
    }

    /// Number of elements observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The sample capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current sample (order unspecified).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The fraction of the stream captured (1.0 while the stream is
    /// shorter than the capacity).
    pub fn sampling_fraction(&self) -> f64 {
        if self.seen == 0 {
            1.0
        } else {
            (self.items.len() as f64 / self.seen as f64).min(1.0)
        }
    }
}

/// Append a uniform without-replacement draw of `k` items (partial
/// Fisher–Yates over indices; deterministic given the rng state).
fn sample_into<T: Clone>(out: &mut Vec<T>, rng: &mut DetRng, items: &[T], k: usize) {
    if k >= items.len() {
        out.extend(items.iter().cloned());
        return;
    }
    let mut idx: Vec<usize> = (0..items.len()).collect();
    for i in 0..k {
        let j = i + rng.gen_range((idx.len() - i) as u64) as usize;
        idx.swap(i, j);
        out.push(items[idx[i]].clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_stream_is_kept_entirely() {
        let mut r = Reservoir::new(100, 1);
        for i in 0..50 {
            r.observe(i);
        }
        assert_eq!(r.items().len(), 50);
        assert_eq!(r.seen(), 50);
        assert!((r.sampling_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn long_stream_caps_at_capacity() {
        let mut r = Reservoir::new(64, 2);
        for i in 0..10_000 {
            r.observe(i);
        }
        assert_eq!(r.items().len(), 64);
        assert_eq!(r.seen(), 10_000);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Mean of a uniform sample over 0..n should be near n/2.
        let n = 100_000u64;
        let mut r = Reservoir::new(1000, 3);
        for i in 0..n {
            r.observe(i);
        }
        let mean: f64 = r.items().iter().map(|&x| x as f64).sum::<f64>() / 1000.0;
        let expected = (n as f64 - 1.0) / 2.0;
        // Standard error ≈ n/sqrt(12*1000) ≈ 913; allow 4 sigma.
        assert!(
            (mean - expected).abs() < 4000.0,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn every_element_can_appear() {
        // Over many trials with a tiny reservoir, both early and late
        // elements should be retained sometimes.
        let mut kept_first = 0;
        let mut kept_last = 0;
        for seed in 0..200 {
            let mut r = Reservoir::new(4, seed);
            for i in 0..40 {
                r.observe(i);
            }
            if r.items().contains(&0) {
                kept_first += 1;
            }
            if r.items().contains(&39) {
                kept_last += 1;
            }
        }
        assert!(kept_first > 5, "first element kept {kept_first}/200");
        assert!(kept_last > 5, "last element kept {kept_last}/200");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Reservoir::<u32>::new(0, 0);
    }

    #[test]
    fn merge_of_unsaturated_splits_is_exact() {
        let mut a = Reservoir::new(100, 7);
        let mut b = Reservoir::new(100, 8);
        for i in 0..30 {
            a.observe(i);
        }
        for i in 30..70 {
            b.observe(i);
        }
        a.merge(&b);
        assert_eq!(a.seen(), 70);
        let mut items = a.items().to_vec();
        items.sort_unstable();
        assert_eq!(items, (0..70).collect::<Vec<_>>());
    }

    #[test]
    fn merge_of_saturated_sides_caps_and_weights() {
        let mut a = Reservoir::new(64, 9);
        let mut b = Reservoir::new(64, 10);
        for i in 0..9000u64 {
            a.observe(i);
        }
        for i in 9000..12000u64 {
            b.observe(i);
        }
        a.merge(&b);
        assert_eq!(a.seen(), 12_000);
        assert_eq!(a.items().len(), 64);
        // Contribution proportional to stream length: 9000/12000 → 48.
        let from_a = a.items().iter().filter(|&&x| x < 9000).count();
        assert_eq!(from_a, 48, "weighted split {from_a}/64");
    }

    #[test]
    fn merge_is_deterministic() {
        let run = || {
            let mut a = Reservoir::new(32, 11);
            let mut b = Reservoir::new(32, 12);
            for i in 0..500u64 {
                a.observe(i);
            }
            for i in 500..900u64 {
                b.observe(i);
            }
            a.merge(&b);
            a.items().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Reservoir::new(16, 13);
        for i in 0..10 {
            a.observe(i);
        }
        let before = a.items().to_vec();
        let b: Reservoir<i32> = Reservoir::new(16, 14);
        a.merge(&b);
        assert_eq!(a.items(), &before[..]);
        assert_eq!(a.seen(), 10);
    }
}
