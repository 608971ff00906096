//! Checkpoint manifests: the durable record of a query's completed
//! segments.
//!
//! Kabra & DeWitt's plan-switch protocol is a checkpoint/restart
//! protocol in disguise: every accepted switch materializes the cut
//! subtree into a temp table with *exact* statistics and re-plans the
//! remainder query over it. The manifest makes that durable capital
//! recoverable after a crash: after each segment's temp table is
//! materialized **and registered in the catalog**, the engine appends
//! a completion record (segment id, temp-table name, row count,
//! content fingerprint, remainder-plan hash). The ordering rule is the
//! classic one — *data before manifest record* — so manifest state
//! always trails durable data: a record present implies the temp
//! table it names was fully written and registered; a crash between
//! the two leaves at worst an unrecorded (sweepable) table, never a
//! recorded-but-missing one.
//!
//! In a production system the manifest would be a write-ahead log next
//! to the catalog; here it is an engine-owned in-memory store (the
//! simulated "disk" dies with the process anyway, so a simulated kill
//! abandons the query's in-flight state but keeps the store — exactly
//! the durability split a real WAL would give). The remainder plan is
//! kept verbatim alongside its hash; a real WAL would serialize the
//! plan into the record and the hash would guard the bytes.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use mq_plan::LogicalPlan;
use parking_lot::Mutex;

use crate::ReoptMode;

/// One completed-segment record. Appended only after the temp table it
/// names is fully materialized and catalog-registered.
#[derive(Debug, Clone)]
pub struct CheckpointRecord {
    /// 1-based completion index within the query.
    pub segment: u32,
    /// Catalog name of the materialized temp table.
    pub temp_table: String,
    /// Exact row count written.
    pub rows: u64,
    /// Order-insensitive content fingerprint of the written rows
    /// (see `mq_exec::rows_fingerprint`).
    pub fingerprint: u64,
    /// Hash of the remainder plan to resume from if this is the last
    /// valid record (guards the stored plan against tampering the way
    /// a WAL record checksum would guard its bytes).
    pub remainder_hash: u64,
}

/// The per-query manifest: header plus append-only completion records.
#[derive(Debug, Clone)]
pub struct QueryManifest {
    /// Engine query id (the recovery key).
    pub query_id: u64,
    /// Re-optimization mode the query ran under (resume uses it too).
    pub mode: ReoptMode,
    /// The plan to resume from when no checkpoint validates.
    pub original: LogicalPlan,
    /// Completed-segment records, in completion order.
    pub records: Vec<CheckpointRecord>,
    /// Remainder plans, parallel to `records` (`remainders[i]` is what
    /// resumes execution after `records[..=i]` are salvaged).
    pub remainders: Vec<LogicalPlan>,
    /// Temp tables salvaged from *earlier* generations that the
    /// `original` plan above references. They are live inputs — a
    /// sweep must never reclaim them, and they are only dropped once
    /// the query finally completes.
    pub protected: Vec<String>,
    /// 0 for the original run; n for the n-th recovery resume.
    pub generation: u32,
}

impl QueryManifest {
    /// The temp prefix of this manifest's generation: the name prefix
    /// of every temp table and scratch file the run creates, so the
    /// sweep after a crash reclaims *this* prefix's unrecorded
    /// leftovers and nothing else. Generation 0 is `tmp_reopt_q<id>_`;
    /// recovery generation `g` is `tmp_reopt_q<id>r<g>_`, which can
    /// never collide with an earlier generation's names.
    pub fn temp_prefix(&self) -> String {
        match self.generation {
            0 => format!("tmp_reopt_q{}_", self.query_id),
            g => format!("tmp_reopt_q{}r{g}_", self.query_id),
        }
    }

    /// Append one completion record with its remainder plan.
    pub fn append(&mut self, record: CheckpointRecord, remainder: LogicalPlan) {
        debug_assert_eq!(record.segment as usize, self.records.len() + 1);
        debug_assert_eq!(record.remainder_hash, plan_hash(&remainder));
        self.records.push(record);
        self.remainders.push(remainder);
    }
}

/// Which query owns a `tmp_reopt_*` object: parses the query id out of
/// a temp-table name or scratch tag carrying any generation's
/// [`QueryManifest::temp_prefix`].
pub(crate) fn temp_owner(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("tmp_reopt_q")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Deterministic structural hash of a logical plan (FNV-1a over its
/// debug rendering — plans derive a canonical `Debug`).
pub fn plan_hash(plan: &LogicalPlan) -> u64 {
    let repr = format!("{plan:?}");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in repr.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Engine-owned store of in-flight query manifests, keyed by query id.
/// Cheap to clone (shared handle).
#[derive(Debug, Clone, Default)]
pub struct ManifestStore {
    inner: Arc<Mutex<HashMap<u64, QueryManifest>>>,
}

impl ManifestStore {
    pub fn new() -> ManifestStore {
        ManifestStore::default()
    }

    /// Open a manifest for a (re)starting query and return the temp
    /// prefix of the generation it opened
    /// ([`QueryManifest::temp_prefix`]). A fresh query gets an empty
    /// generation-0 manifest. When a manifest for `query_id` already
    /// exists (a recovery resume), the new generation rolls over: the
    /// old generation's *recorded* temp tables join the protected set —
    /// they are inputs of `original` now — and its records are cleared
    /// so new checkpoints accumulate from scratch.
    pub fn begin(&self, query_id: u64, original: LogicalPlan, mode: ReoptMode) -> String {
        let mut map = self.inner.lock();
        let m = match map.entry(query_id) {
            Entry::Occupied(e) => {
                let m = e.into_mut();
                m.protected
                    .extend(m.records.drain(..).map(|r| r.temp_table));
                m.remainders.clear();
                m.original = original;
                m.mode = mode;
                m.generation += 1;
                m
            }
            Entry::Vacant(e) => e.insert(QueryManifest {
                query_id,
                mode,
                original,
                records: Vec::new(),
                remainders: Vec::new(),
                protected: Vec::new(),
                generation: 0,
            }),
        };
        m.temp_prefix()
    }

    /// Append a completion record to a query's manifest (no-op if the
    /// manifest is gone — e.g. appended after the query was reaped).
    pub fn append(&self, query_id: u64, record: CheckpointRecord, remainder: LogicalPlan) {
        if let Some(m) = self.inner.lock().get_mut(&query_id) {
            m.append(record, remainder);
        }
    }

    /// Snapshot a query's manifest (recovery reads this).
    pub fn get(&self, query_id: u64) -> Option<QueryManifest> {
        self.inner.lock().get(&query_id).cloned()
    }

    /// Remove a finished query's manifest, returning it. Called on
    /// every *non-crash* exit; a crash deliberately leaves the
    /// manifest in place for [`crate::Engine::recover`].
    pub fn remove(&self, query_id: u64) -> Option<QueryManifest> {
        self.inner.lock().remove(&query_id)
    }

    /// Query ids with a manifest still open (crashed or in flight).
    pub fn open_queries(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.inner.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> LogicalPlan {
        LogicalPlan::scan("t")
    }

    #[test]
    fn begin_append_remove_lifecycle() {
        let store = ManifestStore::new();
        assert_eq!(store.begin(7, plan(), ReoptMode::Full), "tmp_reopt_q7_");
        let remainder = LogicalPlan::scan("tmp_reopt_q7_1");
        store.append(
            7,
            CheckpointRecord {
                segment: 1,
                temp_table: "tmp_reopt_q7_1".into(),
                rows: 10,
                fingerprint: 42,
                remainder_hash: plan_hash(&remainder),
            },
            remainder,
        );
        let m = store.get(7).expect("manifest open");
        assert_eq!(m.generation, 0);
        assert_eq!(m.records.len(), 1);
        assert_eq!(m.remainders.len(), 1);
        assert!(m.protected.is_empty());
        assert_eq!(store.open_queries(), vec![7]);
        assert!(store.remove(7).is_some());
        assert!(store.get(7).is_none());
    }

    #[test]
    fn resume_generation_protects_prior_records() {
        let store = ManifestStore::new();
        assert_eq!(store.begin(3, plan(), ReoptMode::Full), "tmp_reopt_q3_");
        let remainder = LogicalPlan::scan("tmp_reopt_q3_1");
        store.append(
            3,
            CheckpointRecord {
                segment: 1,
                temp_table: "tmp_reopt_q3_1".into(),
                rows: 5,
                fingerprint: 1,
                remainder_hash: plan_hash(&remainder),
            },
            remainder.clone(),
        );
        // Crash; recovery resumes with a new generation.
        assert_eq!(
            store.begin(3, remainder, ReoptMode::Full),
            "tmp_reopt_q3r1_"
        );
        let m = store.get(3).expect("manifest survives the crash");
        assert_eq!(m.generation, 1);
        assert_eq!(m.temp_prefix(), "tmp_reopt_q3r1_");
        assert!(m.records.is_empty(), "new generation checkpoints afresh");
        assert_eq!(m.protected, vec!["tmp_reopt_q3_1".to_string()]);
    }

    #[test]
    fn plan_hash_distinguishes_plans() {
        let a = plan_hash(&LogicalPlan::scan("a"));
        let b = plan_hash(&LogicalPlan::scan("b"));
        assert_ne!(a, b);
        assert_eq!(a, plan_hash(&LogicalPlan::scan("a")));
    }
}
