//! The metrics registry: counters, gauges and histograms with a
//! deterministic snapshot and Prometheus-text exposition.
//!
//! Every metric carries a [`Stability`] class. `Stable` metrics are
//! functions of a query's *logical* execution only (rows, collector
//! checkpoints, SCIA verdicts, segment retries) and must be
//! byte-identical across worker counts and reruns — the chaos harness
//! asserts exactly that over [`MetricsSnapshot::stable_text`].
//! `Volatile` metrics depend on shared physical state (buffer-pool
//! warmth, broker pool occupancy, simulated timings) and are excluded
//! from determinism checks while still appearing in the full
//! exposition.
//!
//! Snapshots are deterministic by construction: metrics live in a
//! `BTreeMap` keyed by `(name, labels)`, floats render through Rust's
//! shortest-roundtrip `Display`, and histogram buckets are fixed at
//! registration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

/// Determinism class of a metric (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// A function of logical execution only: byte-identical across
    /// worker counts for a deterministic workload.
    Stable,
    /// Depends on physical shared state; excluded from determinism
    /// comparisons.
    Volatile,
}

/// Histogram buckets for the estimation-inaccuracy distribution:
/// powers of two over the inaccuracy factor (which is ≥ 1).
pub const INACCURACY_BUCKETS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram {
        /// Upper bounds, parallel to `counts`; an implicit `+Inf`
        /// bucket is `count - counts.sum()`.
        bounds: Vec<f64>,
        counts: Vec<u64>,
        sum: f64,
        count: u64,
    },
}

impl Value {
    fn type_str(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram { .. } => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    /// Pre-rendered `{k="v",…}` label suffix (empty for no labels).
    labels: String,
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

/// A shared metrics registry. Cloning shares the underlying map; the
/// runtime gives each job its own registry and merges snapshots into
/// the workload-level view.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<Key, (Stability, Value)>>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn with_entry(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        stability: Stability,
        default: Value,
        f: impl FnOnce(&mut Value),
    ) {
        let key = Key {
            name: name.to_string(),
            labels: render_labels(labels),
        };
        let mut map = self.inner.lock();
        let entry = map.entry(key).or_insert((stability, default));
        f(&mut entry.1);
    }

    /// Add `delta` to a counter (creating it at zero).
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], stability: Stability, delta: u64) {
        self.with_entry(name, labels, stability, Value::Counter(0), |v| {
            if let Value::Counter(c) = v {
                *c += delta;
            }
        });
    }

    /// Raise a gauge to `value` if it is higher (high-water marks).
    pub fn gauge_max(&self, name: &str, labels: &[(&str, &str)], stability: Stability, value: f64) {
        self.with_entry(name, labels, stability, Value::Gauge(value), |v| {
            if let Value::Gauge(g) = v {
                *g = g.max(value);
            }
        });
    }

    /// Record an observation into a histogram with the given bucket
    /// upper bounds (fixed on first observation).
    pub fn observe(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        stability: Stability,
        bounds: &[f64],
        value: f64,
    ) {
        let fresh = Value::Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            sum: 0.0,
            count: 0,
        };
        self.with_entry(name, labels, stability, fresh, |v| {
            if let Value::Histogram {
                bounds,
                counts,
                sum,
                count,
            } = v
            {
                for (b, c) in bounds.iter().zip(counts.iter_mut()) {
                    if value <= *b {
                        *c += 1;
                    }
                }
                *sum += value;
                *count += 1;
            }
        });
    }

    /// Merge a snapshot into this registry: counters and histograms
    /// add, gauges take the maximum (gauges here are high-water style).
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        let mut map = self.inner.lock();
        for e in &snap.entries {
            let key = Key {
                name: e.name.clone(),
                labels: e.labels.clone(),
            };
            match map.entry(key) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert((e.stability, e.value.clone()));
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    match (&mut o.get_mut().1, &e.value) {
                        (Value::Counter(a), Value::Counter(b)) => *a += b,
                        (Value::Gauge(a), Value::Gauge(b)) => *a = a.max(*b),
                        (
                            Value::Histogram {
                                counts: ac,
                                sum: asum,
                                count: an,
                                ..
                            },
                            Value::Histogram {
                                counts: bc,
                                sum: bsum,
                                count: bn,
                                ..
                            },
                        ) => {
                            for (a, b) in ac.iter_mut().zip(bc) {
                                *a += b;
                            }
                            *asum += bsum;
                            *an += bn;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// A deterministic point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.lock();
        MetricsSnapshot {
            entries: map
                .iter()
                .map(|(k, (stability, value))| MetricEntry {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    stability: *stability,
                    value: value.clone(),
                })
                .collect(),
        }
    }
}

/// One metric in a snapshot.
#[derive(Debug, Clone)]
pub struct MetricEntry {
    name: String,
    labels: String,
    stability: Stability,
    value: Value,
}

/// An immutable, deterministically ordered copy of a registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// True if no metric was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of a counter across all label sets (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match e.value {
                Value::Counter(c) => c,
                _ => 0,
            })
            .sum()
    }

    /// A counter narrowed to one label pair (0 if absent).
    pub fn counter_with(&self, name: &str, label: (&str, &str)) -> u64 {
        let needle = format!("{}=\"{}\"", label.0, label.1);
        self.entries
            .iter()
            .filter(|e| e.name == name && e.labels.contains(&needle))
            .map(|e| match e.value {
                Value::Counter(c) => c,
                _ => 0,
            })
            .sum()
    }

    /// A gauge's value (None if absent).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.entries.iter().find_map(|e| match e.value {
            Value::Gauge(g) if e.name == name => Some(g),
            _ => None,
        })
    }

    /// Full Prometheus-text exposition.
    pub fn prometheus_text(&self) -> String {
        self.render(|_| true)
    }

    /// Exposition restricted to [`Stability::Stable`] metrics — the
    /// byte-identical-across-worker-counts subset.
    pub fn stable_text(&self) -> String {
        self.render(|e| e.stability == Stability::Stable)
    }

    fn render(&self, keep: impl Fn(&MetricEntry) -> bool) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for e in self.entries.iter().filter(|e| keep(e)) {
            if last_name != Some(e.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} {}", e.name, e.value.type_str());
                last_name = Some(e.name.as_str());
            }
            match &e.value {
                Value::Counter(c) => {
                    let _ = writeln!(out, "{}{} {c}", e.name, e.labels);
                }
                Value::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {g}", e.name, e.labels);
                }
                Value::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    let base = e.labels.trim_end_matches('}').trim_start_matches('{');
                    let sep = if base.is_empty() { "" } else { "," };
                    for (b, c) in bounds.iter().zip(counts) {
                        let _ = writeln!(out, "{}_bucket{{{base}{sep}le=\"{b}\"}} {c}", e.name);
                    }
                    let _ = writeln!(out, "{}_bucket{{{base}{sep}le=\"+Inf\"}} {count}", e.name);
                    let _ = writeln!(out, "{}_sum{} {sum}", e.name, e.labels);
                    let _ = writeln!(out, "{}_count{} {count}", e.name, e.labels);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_order_is_deterministic() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        // Insert in different orders; snapshots must render identically.
        a.inc("z_total", &[], Stability::Stable, 1);
        a.inc("a_total", &[("op", "scan")], Stability::Stable, 2);
        a.inc("a_total", &[("op", "join")], Stability::Stable, 3);
        b.inc("a_total", &[("op", "join")], Stability::Stable, 3);
        b.inc("z_total", &[], Stability::Stable, 1);
        b.inc("a_total", &[("op", "scan")], Stability::Stable, 2);
        assert_eq!(
            a.snapshot().prometheus_text(),
            b.snapshot().prometheus_text()
        );
    }

    #[test]
    fn stable_text_excludes_volatile_metrics() {
        let r = MetricsRegistry::new();
        r.inc("midq_rows_out_total", &[], Stability::Stable, 7);
        r.gauge_max(
            "midq_broker_high_water_bytes",
            &[],
            Stability::Volatile,
            4096.0,
        );
        let snap = r.snapshot();
        assert!(snap.prometheus_text().contains("high_water"));
        assert!(!snap.stable_text().contains("high_water"));
        assert!(snap.stable_text().contains("midq_rows_out_total 7"));
    }

    #[test]
    fn histogram_buckets_and_exposition() {
        let r = MetricsRegistry::new();
        for v in [1.0, 3.0, 12.0, 200.0] {
            r.observe(
                "midq_estimation_inaccuracy",
                &[],
                Stability::Stable,
                &INACCURACY_BUCKETS,
                v,
            );
        }
        let text = r.snapshot().prometheus_text();
        assert!(text.contains("# TYPE midq_estimation_inaccuracy histogram"));
        assert!(text.contains("midq_estimation_inaccuracy_bucket{le=\"1\"} 1"));
        assert!(text.contains("midq_estimation_inaccuracy_bucket{le=\"4\"} 2"));
        assert!(text.contains("midq_estimation_inaccuracy_bucket{le=\"128\"} 3"));
        assert!(text.contains("midq_estimation_inaccuracy_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("midq_estimation_inaccuracy_sum 216"));
        assert!(text.contains("midq_estimation_inaccuracy_count 4"));
    }

    #[test]
    fn absorb_adds_counters_and_maxes_gauges() {
        let a = MetricsRegistry::new();
        a.inc("c_total", &[], Stability::Stable, 2);
        a.gauge_max("g", &[], Stability::Volatile, 10.0);
        a.observe("h", &[], Stability::Stable, &[1.0, 2.0], 1.5);
        let b = MetricsRegistry::new();
        b.inc("c_total", &[], Stability::Stable, 3);
        b.gauge_max("g", &[], Stability::Volatile, 4.0);
        b.observe("h", &[], Stability::Stable, &[1.0, 2.0], 0.5);
        a.absorb(&b.snapshot());
        let snap = a.snapshot();
        assert_eq!(snap.counter("c_total"), 5);
        assert_eq!(snap.gauge("g"), Some(10.0));
        assert!(snap.prometheus_text().contains("h_count 2"));
    }
}
