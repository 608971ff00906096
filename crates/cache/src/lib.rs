//! # mq-cache — cross-query sub-plan materialization cache + feedback store
//!
//! The mid-query re-optimization machinery already pays to materialize
//! sub-plan results (the paper's §2.4 temp tables) and to observe true
//! cardinalities (the §2.2 collectors). Both artifacts die with the
//! query that produced them. This crate keeps them alive across
//! queries, per engine:
//!
//! * [`SubPlanCache`] — promoted materializations keyed by a canonical
//!   sub-plan fingerprint (`mq_plan::subplan_fingerprint`). An entry
//!   records the cache table the engine registered in the catalog, its
//!   exact size, the simulated cost its producer paid, and the base
//!   tables (with data versions) it was derived from. The engine probes
//!   the cache bottom-up before executing an optimized plan and splices
//!   `PhysOp::CachedScan` over the largest matching sub-trees.
//!   Entries are **pin-counted**: a probe that splices an entry holds a
//!   [`PinGuard`] for the duration of the query, so eviction and
//!   invalidation can never drop a table a running query is scanning.
//!   Eviction is cost-benefit under a byte budget: lowest
//!   `build_cost_ms × (hits + 1) / bytes` goes first, and entries that
//!   have never been hit are always evicted before entries with hit
//!   history (one-off queries cannot churn hot residents out).
//!   Admission is filtered: a fingerprint evicted twice under budget
//!   pressure is refused re-admission, so a family that keeps losing
//!   the cost-benefit race stops wasting promotion work.
//!   One lock guards the whole cache: probes and promotions are short
//!   metadata updates next to the queries that make them.
//! * [`FeedbackStore`] — a map from sub-plan fingerprint to the row
//!   count actually observed for that sub-plan (by a collector
//!   checkpoint or an EXPLAIN ANALYZE actual). The optimizer consults
//!   it before trusting catalog-derived estimates, so the second run of
//!   a query family starts from truth and crosses the controller's
//!   divergence thresholds far less often.
//!
//! The cache stores *metadata only* — the engine owns the catalog and
//! storage, so every mutating call that retires entries returns them to
//! the caller, which drops the backing tables and files. That split
//! keeps this crate dependency-light and makes the crash story simple:
//! a cache entry exists only after its table is durably registered
//! (data-before-metadata, same discipline as the checkpoint manifests).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mq_common::{FileId, Schema};
use parking_lot::Mutex;

/// One promoted materialization: everything the engine needs to splice
/// a `CachedScan` (table/file/size/schema), to cost the reuse
/// (`build_cost_ms` saved per hit), and to invalidate on writes
/// (`deps`).
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Canonical fingerprint of the producing sub-plan.
    pub fingerprint: u64,
    /// Catalog name of the cache table (`cache_*`).
    pub table: String,
    /// Backing heap file.
    pub file: FileId,
    /// Output schema of the cached sub-plan (splice requires equality).
    pub schema: Schema,
    /// Exact row count.
    pub rows: u64,
    /// Exact page count.
    pub pages: u64,
    /// Approximate bytes charged against the budget.
    pub bytes: u64,
    /// Simulated ms the producing sub-plan cost — the saving per hit.
    pub build_cost_ms: f64,
    /// Base tables the result was derived from, with the data version
    /// observed at promotion. Any version bump invalidates the entry.
    pub deps: Vec<(String, u64)>,
}

/// Cumulative counters, for `\cache stats` and the workload report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Live (non-dead) entries.
    pub entries: usize,
    /// Bytes held by live entries.
    pub bytes: u64,
    /// Current byte budget.
    pub budget_bytes: u64,
    /// Lifetime probe hits.
    pub hits: u64,
    /// Lifetime probe misses (enabled, probed, no usable entry).
    pub misses: u64,
    /// Lifetime promotions accepted.
    pub promotions: u64,
    /// Lifetime evictions (budget pressure only, not invalidation).
    pub evictions: u64,
    /// Lifetime invalidations (data-version bumps + explicit clears).
    pub invalidations: u64,
    /// Lifetime simulated ms saved by hits (Σ build_cost_ms).
    pub saved_ms: f64,
    /// Lifetime bytes not re-materialized thanks to hits.
    pub saved_bytes: u64,
    /// Lifetime promotions refused by the admission filter (fingerprint
    /// already evicted twice under budget pressure).
    pub admission_rejects: u64,
}

struct Slot {
    entry: CacheEntry,
    hits: u64,
    last_hit_seq: u64,
    pins: usize,
    /// Invalidated/evicted while pinned: hidden from lookups, retired
    /// (and handed back for table drop) once the last pin drops.
    dead: bool,
}

impl Slot {
    /// Cost-benefit eviction score: simulated ms of producer work saved
    /// per byte held, weighted by hit recency count. Lowest goes first.
    fn score(&self) -> f64 {
        self.entry.build_cost_ms * (self.hits + 1) as f64 / self.entry.bytes.max(1) as f64
    }
}

struct Inner {
    slots: HashMap<u64, Slot>,
    /// Counters, plus the byte budget eviction enforces.
    stats: CacheStats,
    /// Budget-pressure evictions per fingerprint, kept after removal:
    /// the admission filter refuses fingerprints evicted twice.
    evicted_counts: HashMap<u64, u32>,
    /// Probe sequence number, for least-recently-hit tie-breaking.
    seq: u64,
}

impl Inner {
    fn live_bytes(&self) -> u64 {
        self.slots
            .values()
            .filter(|s| !s.dead)
            .map(|s| s.entry.bytes)
            .sum()
    }

    /// Evict live, unpinned entries until live bytes fit the budget.
    /// Pinned entries are untouchable, so the cache can sit
    /// soft-over-budget while queries hold pins. Victim order: entries
    /// that have never been hit go first (one-off promotions cannot
    /// churn out a hot resident), then lowest score, then least
    /// recently hit.
    fn enforce_budget(&mut self, retired: &mut Vec<CacheEntry>) {
        while self.live_bytes() > self.stats.budget_bytes {
            let victim = self
                .slots
                .values()
                .filter(|s| !s.dead && s.pins == 0)
                .min_by(|a, b| {
                    (a.hits > 0)
                        .cmp(&(b.hits > 0))
                        .then(a.score().total_cmp(&b.score()))
                        .then(a.last_hit_seq.cmp(&b.last_hit_seq))
                })
                .map(|s| s.entry.fingerprint);
            let Some(fp) = victim else { break };
            let slot = self.slots.remove(&fp).expect("victim slot present");
            self.stats.evictions += 1;
            *self.evicted_counts.entry(fp).or_insert(0) += 1;
            retired.push(slot.entry);
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Mark a slot dead; if unpinned, remove and return it for drop.
    fn kill(&mut self, fp: u64) -> Option<CacheEntry> {
        let slot = self.slots.get_mut(&fp)?;
        slot.dead = true;
        if slot.pins == 0 {
            return self.slots.remove(&fp).map(|s| s.entry);
        }
        None
    }
}

/// A pinned cache hit: the entry's metadata plus the guard keeping it
/// alive. Hold the guard for as long as the spliced plan may run.
pub struct PinnedEntry {
    /// Snapshot of the entry at lookup time.
    pub entry: CacheEntry,
    /// Keep-alive guard; drop when the query is done with the table.
    pub guard: PinGuard,
}

/// RAII pin on a cache entry. While any pin is held the entry is never
/// evicted and its table is never dropped; invalidation marks it dead
/// and retirement waits for the last pin.
pub struct PinGuard {
    inner: Arc<Mutex<Inner>>,
    fingerprint: u64,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.slots.get_mut(&self.fingerprint) {
            slot.pins = slot.pins.saturating_sub(1);
        }
    }
}

/// The materialization cache. Cheap to clone (shared interior); one per
/// engine.
#[derive(Clone)]
pub struct SubPlanCache {
    inner: Arc<Mutex<Inner>>,
}

impl SubPlanCache {
    /// Create a cache with the given byte budget.
    pub fn new(budget_bytes: u64) -> SubPlanCache {
        SubPlanCache {
            inner: Arc::new(Mutex::new(Inner {
                slots: HashMap::new(),
                stats: CacheStats {
                    budget_bytes,
                    ..CacheStats::default()
                },
                evicted_counts: HashMap::new(),
                seq: 0,
            })),
        }
    }

    /// Replace the byte budget (e.g. when a runtime leases memory for
    /// the cache). Returns entries evicted to fit the new budget; the
    /// caller must drop their tables.
    #[must_use = "retired entries' tables must be dropped by the caller"]
    pub fn set_budget(&self, budget_bytes: u64) -> Vec<CacheEntry> {
        let mut inner = self.inner.lock();
        inner.stats.budget_bytes = budget_bytes;
        let mut retired = Vec::new();
        inner.enforce_budget(&mut retired);
        retired
    }

    /// Admit a promoted materialization. Returns entries retired to
    /// make room (possibly including a previous entry under the same
    /// fingerprint); the caller must drop their tables. An entry larger
    /// than the whole budget is refused and handed straight back, as
    /// is a fingerprint the admission filter has seen evicted twice.
    #[must_use = "retired entries' tables must be dropped by the caller"]
    pub fn insert(&self, entry: CacheEntry) -> Vec<CacheEntry> {
        let mut inner = self.inner.lock();
        let mut retired = Vec::new();
        if entry.bytes > inner.stats.budget_bytes {
            retired.push(entry);
            return retired;
        }
        if inner
            .evicted_counts
            .get(&entry.fingerprint)
            .is_some_and(|&n| n >= 2)
        {
            inner.stats.admission_rejects += 1;
            retired.push(entry);
            return retired;
        }
        if let Some(old) = inner.kill(entry.fingerprint) {
            retired.push(old);
        }
        inner.stats.promotions += 1;
        let fp = entry.fingerprint;
        let last_hit_seq = inner.next_seq();
        inner.slots.insert(
            fp,
            Slot {
                entry,
                hits: 0,
                last_hit_seq,
                pins: 1, // pinned by the inserting query until its guard drops
                dead: false,
            },
        );
        inner.enforce_budget(&mut retired);
        // The fresh entry is pinned, so enforce_budget never picks it.
        if let Some(slot) = inner.slots.get_mut(&fp) {
            slot.pins -= 1;
        }
        retired
    }

    /// Probe for a live entry. On hit, bumps the hit counters and
    /// returns the entry pinned; the caller validates `deps` against
    /// the catalog's current data versions *while holding the pin* and
    /// calls [`SubPlanCache::invalidate`] if stale.
    pub fn lookup(&self, fingerprint: u64) -> Option<PinnedEntry> {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq();
        let slot = inner.slots.get_mut(&fingerprint).filter(|s| !s.dead)?;
        slot.pins += 1;
        slot.hits += 1;
        slot.last_hit_seq = seq;
        let entry = slot.entry.clone();
        inner.stats.hits += 1;
        inner.stats.saved_ms += entry.build_cost_ms;
        inner.stats.saved_bytes += entry.bytes;
        Some(PinnedEntry {
            entry,
            guard: PinGuard {
                inner: Arc::clone(&self.inner),
                fingerprint,
            },
        })
    }

    /// Record that an enabled probe found no usable entry.
    pub fn record_miss(&self) {
        self.inner.lock().stats.misses += 1;
    }

    /// Invalidate one entry (stale deps discovered at probe time, or a
    /// promotion superseding it). Returns the entry for table drop if
    /// it was unpinned; a pinned entry is marked dead and comes back
    /// from a later [`SubPlanCache::drain_dead`].
    #[must_use = "retired entries' tables must be dropped by the caller"]
    pub fn invalidate(&self, fingerprint: u64) -> Option<CacheEntry> {
        let mut inner = self.inner.lock();
        let killed = inner.kill(fingerprint);
        if killed.is_some() || inner.slots.get(&fingerprint).is_some_and(|s| s.dead) {
            inner.stats.invalidations += 1;
        }
        killed
    }

    /// Invalidate every entry depending on `table` with a recorded
    /// version older than `current_version`. Returns retired entries
    /// for table drop (pinned ones surface later via `drain_dead`).
    #[must_use = "retired entries' tables must be dropped by the caller"]
    pub fn invalidate_table(&self, table: &str, current_version: u64) -> Vec<CacheEntry> {
        let mut inner = self.inner.lock();
        let stale: Vec<u64> = inner
            .slots
            .values()
            .filter(|s| {
                !s.dead
                    && s.entry
                        .deps
                        .iter()
                        .any(|(t, v)| t == table && *v < current_version)
            })
            .map(|s| s.entry.fingerprint)
            .collect();
        let mut retired = Vec::new();
        for fp in stale {
            inner.stats.invalidations += 1;
            if let Some(e) = inner.kill(fp) {
                retired.push(e);
            }
        }
        retired
    }

    /// Remove every entry. Unpinned entries come back for table drop;
    /// pinned ones are marked dead and surface via `drain_dead` once
    /// their queries finish. Also resets the admission filter.
    #[must_use = "retired entries' tables must be dropped by the caller"]
    pub fn clear(&self) -> Vec<CacheEntry> {
        let mut inner = self.inner.lock();
        let fps: Vec<u64> = inner.slots.keys().copied().collect();
        let mut retired = Vec::new();
        for fp in fps {
            if inner.slots.get(&fp).is_some_and(|s| !s.dead) {
                inner.stats.invalidations += 1;
            }
            if let Some(e) = inner.kill(fp) {
                retired.push(e);
            }
        }
        inner.evicted_counts.clear();
        retired
    }

    /// Collect dead entries whose last pin has dropped, for table drop.
    #[must_use = "retired entries' tables must be dropped by the caller"]
    pub fn drain_dead(&self) -> Vec<CacheEntry> {
        let mut inner = self.inner.lock();
        let done: Vec<u64> = inner
            .slots
            .values()
            .filter(|s| s.dead && s.pins == 0)
            .map(|s| s.entry.fingerprint)
            .collect();
        done.into_iter()
            .filter_map(|fp| inner.slots.remove(&fp).map(|s| s.entry))
            .collect()
    }

    /// Cache table names of all live entries (for the engine's audit:
    /// a `cache_*` catalog table with no live entry is an orphan).
    pub fn live_tables(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let mut out: Vec<String> = inner
            .slots
            .values()
            .filter(|s| !s.dead)
            .map(|s| s.entry.table.clone())
            .collect();
        out.sort();
        out
    }

    /// Cache table names of *all* entries, dead ones included. The
    /// engine's orphan sweep must not touch a dead-but-pinned entry's
    /// table — a query may still be scanning it.
    pub fn known_tables(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let mut out: Vec<String> = inner
            .slots
            .values()
            .map(|s| s.entry.table.clone())
            .collect();
        out.sort();
        out
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            entries: inner.slots.values().filter(|sl| !sl.dead).count(),
            bytes: inner.live_bytes(),
            ..inner.stats
        }
    }
}

/// A [`FeedbackStore`]'s full serializable state, in deterministic
/// (fingerprint-sorted) order — the unit `mq-persist` snapshots.
#[derive(Debug, Clone, Default)]
pub struct FeedbackExport {
    /// Observations, sorted by fingerprint.
    pub entries: Vec<(u64, FeedbackEntry)>,
    /// Lifetime applied total.
    pub applied: u64,
    /// Per-fingerprint application counts, sorted by fingerprint.
    pub applied_by_fp: Vec<(u64, u64)>,
}

/// Observed cardinality for one sub-plan fingerprint.
#[derive(Debug, Clone)]
pub struct FeedbackEntry {
    /// Rows actually produced by the sub-plan.
    pub rows: f64,
    /// Base tables (with data versions) the observation depends on.
    pub deps: Vec<(String, u64)>,
}

/// Per-engine map from sub-plan fingerprint to observed cardinality.
/// Consulted by the optimizer ahead of catalog estimates; populated
/// from collector checkpoints and EXPLAIN ANALYZE actuals.
#[derive(Clone, Default)]
pub struct FeedbackStore {
    inner: Arc<Mutex<HashMap<u64, FeedbackEntry>>>,
    applied: Arc<AtomicU64>,
    /// Lifetime applications per fingerprint — the plan cache's
    /// staleness signal: corrections accumulating against a cached
    /// plan's fingerprints mean its shape was picked from estimates
    /// the store keeps having to fix.
    applied_by_fp: Arc<Mutex<HashMap<u64, u64>>>,
}

impl FeedbackStore {
    /// Create an empty store.
    pub fn new() -> FeedbackStore {
        FeedbackStore::default()
    }

    /// Record (or overwrite: newest observation wins) the observed row
    /// count for a sub-plan.
    pub fn record(&self, fingerprint: u64, rows: f64, deps: Vec<(String, u64)>) {
        self.inner
            .lock()
            .insert(fingerprint, FeedbackEntry { rows, deps });
    }

    /// Look up the observation for a fingerprint, if any.
    pub fn get(&self, fingerprint: u64) -> Option<FeedbackEntry> {
        self.inner.lock().get(&fingerprint).cloned()
    }

    /// Drop observations depending on `table` with a version older than
    /// `current_version` (table written since the observation).
    pub fn invalidate_table(&self, table: &str, current_version: u64) {
        self.inner.lock().retain(|_, e| {
            !e.deps
                .iter()
                .any(|(t, v)| t == table && *v < current_version)
        });
    }

    /// Count one successful application of feedback to an estimate.
    pub fn note_applied(&self) {
        self.applied.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one application of feedback against a specific sub-plan
    /// fingerprint (bumps the lifetime total too).
    pub fn note_applied_for(&self, fingerprint: u64) {
        self.applied.fetch_add(1, Ordering::Relaxed);
        *self.applied_by_fp.lock().entry(fingerprint).or_insert(0) += 1;
    }

    /// Lifetime number of estimates overridden by feedback.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Sum of per-fingerprint application counts over `fingerprints`
    /// (the plan cache compares this against the count captured when an
    /// entry was admitted).
    pub fn applied_sum(&self, fingerprints: &[u64]) -> u64 {
        let m = self.applied_by_fp.lock();
        fingerprints
            .iter()
            .map(|fp| m.get(fp).copied().unwrap_or(0))
            .sum()
    }

    /// Drop every observation depending on `table`, regardless of
    /// version — used after the table's statistics were rebuilt from
    /// live data, making stored corrections redundant.
    pub fn remove_for_table(&self, table: &str) {
        self.inner
            .lock()
            .retain(|_, e| !e.deps.iter().any(|(t, _)| t == table));
    }

    /// Export the store for a snapshot: observations sorted by
    /// fingerprint, the lifetime applied total, and the per-fingerprint
    /// application counters (sorted too — snapshots must be
    /// byte-deterministic).
    pub fn export(&self) -> FeedbackExport {
        let mut entries: Vec<(u64, FeedbackEntry)> = self
            .inner
            .lock()
            .iter()
            .map(|(fp, e)| (*fp, e.clone()))
            .collect();
        entries.sort_by_key(|(fp, _)| *fp);
        let mut applied_by_fp: Vec<(u64, u64)> = self
            .applied_by_fp
            .lock()
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        applied_by_fp.sort_by_key(|(fp, _)| *fp);
        FeedbackExport {
            entries,
            applied: self.applied.load(Ordering::Relaxed),
            applied_by_fp,
        }
    }

    /// Rebuild the store from an export, replacing current contents.
    /// Restoring the applied counters exactly keeps the plan cache's
    /// staleness arithmetic (`applied_sum - applied_at`) meaningful
    /// across a restart.
    pub fn restore(&self, export: FeedbackExport) {
        *self.inner.lock() = export.entries.into_iter().collect();
        self.applied.store(export.applied, Ordering::Relaxed);
        *self.applied_by_fp.lock() = export.applied_by_fp.into_iter().collect();
    }

    /// Number of stored observations.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Forget everything.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_common::{DataType, Field};

    fn entry(fp: u64, bytes: u64, cost: f64, deps: Vec<(&str, u64)>) -> CacheEntry {
        CacheEntry {
            fingerprint: fp,
            table: format!("cache_{fp:x}"),
            file: FileId(fp as u32),
            schema: Schema::new(vec![Field::qualified("t", "a", DataType::Int)]).unwrap(),
            rows: bytes / 8,
            pages: bytes / 4096 + 1,
            bytes,
            build_cost_ms: cost,
            deps: deps.into_iter().map(|(t, v)| (t.to_string(), v)).collect(),
        }
    }

    #[test]
    fn insert_lookup_and_stats() {
        let cache = SubPlanCache::new(1 << 20);
        assert!(cache.insert(entry(1, 100, 5.0, vec![("t", 1)])).is_empty());
        let hit = cache.lookup(1).expect("hit");
        assert_eq!(hit.entry.table, "cache_1");
        assert!(cache.lookup(2).is_none());
        cache.record_miss();
        let s = cache.stats();
        assert_eq!((s.entries, s.hits, s.misses, s.promotions), (1, 1, 1, 1));
        assert_eq!(s.bytes, 100);
        assert!((s.saved_ms - 5.0).abs() < 1e-9);
        assert_eq!(s.saved_bytes, 100);
    }

    #[test]
    fn eviction_prefers_lowest_benefit_per_byte() {
        let cache = SubPlanCache::new(300);
        // High benefit density (10.0/100) vs low (0.1/100).
        assert!(cache.insert(entry(1, 100, 10.0, vec![])).is_empty());
        assert!(cache.insert(entry(2, 100, 0.1, vec![])).is_empty());
        assert!(cache.insert(entry(3, 100, 5.0, vec![])).is_empty());
        // A fourth 100-byte entry forces one eviction: entry 2.
        let retired = cache.insert(entry(4, 100, 5.0, vec![]));
        assert_eq!(retired.len(), 1, "{retired:?}");
        assert_eq!(retired[0].fingerprint, 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn hits_protect_entries_from_eviction() {
        let cache = SubPlanCache::new(200);
        assert!(cache.insert(entry(1, 100, 1.0, vec![])).is_empty());
        assert!(cache.insert(entry(2, 100, 1.0, vec![])).is_empty());
        // Three hits on entry 1 quadruple its score.
        for _ in 0..3 {
            drop(cache.lookup(1));
        }
        let retired = cache.insert(entry(3, 100, 1.0, vec![]));
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].fingerprint, 2);
    }

    #[test]
    fn pinned_entries_survive_eviction_and_clear() {
        let cache = SubPlanCache::new(100);
        assert!(cache.insert(entry(1, 100, 1.0, vec![])).is_empty());
        let pin = cache.lookup(1).expect("hit");
        // Budget pressure cannot evict the pinned entry (soft overflow).
        let retired = cache.insert(entry(2, 100, 100.0, vec![]));
        assert!(retired.is_empty(), "{retired:?}");
        assert!(cache.stats().bytes > 100);
        // Clear marks the pinned entry dead but does not hand it back.
        let cleared = cache.clear();
        assert_eq!(cleared.len(), 1); // entry 2 only
        assert_eq!(cleared[0].fingerprint, 2);
        assert!(cache.lookup(1).is_none(), "dead entry must not hit");
        assert!(cache.drain_dead().is_empty(), "still pinned");
        drop(pin);
        let dead = cache.drain_dead();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].fingerprint, 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn invalidate_table_respects_versions() {
        let cache = SubPlanCache::new(1 << 20);
        assert!(cache.insert(entry(1, 10, 1.0, vec![("a", 3)])).is_empty());
        assert!(cache.insert(entry(2, 10, 1.0, vec![("b", 3)])).is_empty());
        // Version 3 is current: nothing stale.
        assert!(cache.invalidate_table("a", 3).is_empty());
        // Version bump retires only the dependent entry.
        let retired = cache.invalidate_table("a", 4);
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].fingerprint, 1);
        assert!(cache.lookup(1).is_none());
        assert!(cache.lookup(2).is_some());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn oversized_entry_is_refused() {
        let cache = SubPlanCache::new(50);
        let retired = cache.insert(entry(1, 100, 1.0, vec![]));
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].fingerprint, 1);
        assert!(cache.lookup(1).is_none());
    }

    #[test]
    fn shrinking_budget_evicts() {
        let cache = SubPlanCache::new(300);
        for fp in 1..=3 {
            assert!(cache.insert(entry(fp, 100, fp as f64, vec![])).is_empty());
        }
        let retired = cache.set_budget(150);
        assert_eq!(retired.len(), 2, "{retired:?}");
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().budget_bytes, 150);
    }

    #[test]
    fn live_tables_lists_non_dead() {
        let cache = SubPlanCache::new(1 << 20);
        assert!(cache.insert(entry(2, 10, 1.0, vec![])).is_empty());
        assert!(cache.insert(entry(1, 10, 1.0, vec![])).is_empty());
        assert_eq!(cache.live_tables(), vec!["cache_1", "cache_2"]);
        let _ = cache.invalidate(1);
        assert_eq!(cache.live_tables(), vec!["cache_2"]);
    }

    #[test]
    fn twice_evicted_fingerprint_is_refused_admission() {
        let cache = SubPlanCache::new(100);
        // Evict fp 1 twice via budget pressure from higher-value entries.
        for round in 0..2 {
            assert!(cache.insert(entry(1, 100, 1.0, vec![])).is_empty());
            let retired = cache.insert(entry(10 + round, 100, 50.0, vec![]));
            assert_eq!(retired.len(), 1, "round {round}: {retired:?}");
            assert_eq!(retired[0].fingerprint, 1);
            let _ = cache.invalidate(10 + round); // make room for the next round
        }
        // Third promotion of fp 1 is refused outright.
        let refused = cache.insert(entry(1, 100, 1.0, vec![]));
        assert_eq!(refused.len(), 1);
        assert_eq!(refused[0].fingerprint, 1);
        assert!(cache.lookup(1).is_none());
        assert_eq!(cache.stats().admission_rejects, 1);
        // clear() resets the filter: fp 1 is admissible again.
        assert!(cache.clear().is_empty());
        assert!(cache.insert(entry(1, 100, 1.0, vec![])).is_empty());
        assert!(cache.lookup(1).is_some());
    }

    #[test]
    fn churn_workload_keeps_hot_entry_resident() {
        let cache = SubPlanCache::new(200);
        // A modest-value entry that keeps getting hit...
        assert!(cache.insert(entry(1, 100, 1.0, vec![])).is_empty());
        drop(cache.lookup(1));
        // ...survives a churn of one-off promotions with far better
        // cost-benefit scores: never-hit entries are evicted first.
        for fp in 100..110 {
            let retired = cache.insert(entry(fp, 100, 1000.0, vec![]));
            for e in &retired {
                assert_ne!(e.fingerprint, 1, "hot entry churned out by fp {fp}");
            }
            drop(cache.lookup(1)); // stays hot throughout
        }
        assert!(cache.lookup(1).is_some(), "hot entry must remain resident");
    }

    #[test]
    fn feedback_store_roundtrip_and_invalidation() {
        let fb = FeedbackStore::new();
        assert!(fb.is_empty());
        fb.record(7, 123.0, vec![("a".to_string(), 2)]);
        fb.record(8, 456.0, vec![("b".to_string(), 2)]);
        assert_eq!(fb.get(7).unwrap().rows, 123.0);
        // Newest observation wins.
        fb.record(7, 321.0, vec![("a".to_string(), 2)]);
        assert_eq!(fb.get(7).unwrap().rows, 321.0);
        fb.invalidate_table("a", 3);
        assert!(fb.get(7).is_none());
        assert!(fb.get(8).is_some());
        fb.note_applied();
        assert_eq!(fb.applied(), 1);
        fb.clear();
        assert_eq!(fb.len(), 0);
    }

    #[test]
    fn feedback_per_fingerprint_counters_and_table_removal() {
        let fb = FeedbackStore::new();
        fb.note_applied_for(7);
        fb.note_applied_for(7);
        fb.note_applied_for(9);
        assert_eq!(fb.applied(), 3, "per-fp notes bump the lifetime total");
        assert_eq!(fb.applied_sum(&[7]), 2);
        assert_eq!(fb.applied_sum(&[7, 9]), 3);
        assert_eq!(fb.applied_sum(&[8]), 0);

        fb.record(1, 10.0, vec![("a".to_string(), 1), ("b".to_string(), 1)]);
        fb.record(2, 20.0, vec![("b".to_string(), 5)]);
        // remove_for_table ignores versions: any dependence drops it.
        fb.remove_for_table("b");
        assert!(fb.get(1).is_none());
        assert!(fb.get(2).is_none());
    }
}
