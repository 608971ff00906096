//! Shared execution context: storage, clock, grants, artifacts, and
//! the monitor hook the re-optimization controller plugs into.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::rc::Rc;
use std::sync::Arc;

use mq_common::{CancelToken, EngineConfig, FileId, MqError, Result, Row, SimClock, Value};
use mq_plan::NodeId;
use mq_storage::Storage;
use parking_lot::Mutex;

use crate::collector::{CollectorParts, ObservedStats};

/// Observer the Dynamic Re-Optimization controller implements.
///
/// Returning an `Err` — specifically
/// [`mq_common::MqError::PlanSwitch`] — from `on_phase_complete`
/// unwinds execution; operator state survives in the artifact store.
pub trait ExecMonitor {
    /// A statistics collector exhausted its input and reports.
    fn on_collector(&self, stats: ObservedStats) -> Result<()>;
    /// A blocking phase (hash-join build, sort run generation,
    /// aggregate input) finished at `node`, before its output phase.
    fn on_phase_complete(&self, node: NodeId) -> Result<()>;
    /// Provisional progress from a still-running collector: `rows` is
    /// a *lower bound* on the final cardinality, so memory decisions
    /// based on it are always safe. Default: ignored. (This powers the
    /// §2.3 extension — operators responding to grant changes in
    /// mid-execution.)
    fn on_collector_progress(&self, node: NodeId, rows: u64) -> Result<()> {
        let _ = (node, rows);
        Ok(())
    }
}

/// Observed per-operator execution totals, recorded by the profiling
/// wrapper every operator runs inside (see `build_executor`). Row
/// counts are always collected (one counter increment per row);
/// inclusive cpu/io deltas are collected only when an event sink is
/// scoped (`profile_detail`), since they cost two clock snapshots per
/// pull.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpActuals {
    /// Rows this operator produced.
    pub rows: u64,
    /// Inclusive CPU ops charged while this operator (and its subtree)
    /// ran. Zero unless detailed profiling was on.
    pub cpu_ops: u64,
    /// Inclusive logical page I/O (reads + writes), same caveat.
    pub io_pages: u64,
}

/// State a blocking operator externalizes between phases (and across a
/// plan switch).
#[derive(Debug)]
pub enum Artifact {
    /// A hash-join build: in-memory table or spilled partitions.
    HashBuild(HashBuild),
    /// Sorted output, fully in memory (fits the grant).
    SortedRows(Vec<Row>),
    /// Sorted runs spilled to temp files (each file is sorted).
    SortedRuns(Vec<FileId>),
    /// A finished aggregation's output rows.
    AggOutput(Vec<Row>),
}

/// A `HashMap` whose hasher has fixed keys. Operators that iterate a
/// hash table into a spill file (or into output rows) use it, so row
/// order, page packing and every page count after it are the same in
/// every process instead of following a per-process random seed. The
/// keys are column values that spill partitioning already routes with
/// the unkeyed [`hash_key`], so fixed keys open no new way to force
/// collisions.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// Hash-join build state.
#[derive(Debug)]
pub struct HashBuild {
    /// In-memory table (when the build fit its grant).
    pub in_mem: Option<DetHashMap<Vec<Value>, Vec<Row>>>,
    /// Spilled build partitions (when it did not).
    pub parts: Option<Vec<FileId>>,
    /// Build rows observed.
    pub rows: u64,
}

/// Everything operators need at run time. Each query runs on one
/// thread (interior mutability via `RefCell` for operator state), but
/// many queries run concurrently against shared storage, so the
/// cross-thread-visible pieces — the grants table the runtime's memory
/// broker can touch — live behind `Arc<Mutex<…>>`.
pub struct ExecContext {
    /// Storage (buffer pool, heap files, indexes, temp files).
    pub storage: Storage,
    /// The simulated-cost clock.
    pub clock: SimClock,
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// Blocking-operator state, keyed by plan-node id.
    pub artifacts: RefCell<HashMap<NodeId, Artifact>>,
    /// Memory grants, updatable mid-query for unstarted operators
    /// (§2.3). Operators read their grant when their phase *starts*.
    /// Shared so the re-optimization controller can update it from
    /// inside monitor callbacks.
    pub grants: Arc<Mutex<HashMap<NodeId, usize>>>,
    /// Optional observer (the re-optimization controller).
    pub monitor: Option<Rc<dyn ExecMonitor>>,
    /// Cooperative cancellation, polled at segment boundaries.
    pub cancel: Option<CancelToken>,
    /// Deadline in simulated milliseconds on `clock`; exceeding it
    /// cancels the query at the next segment boundary.
    pub deadline_ms: Option<f64>,
    /// Every temp file created for this query that has not yet been
    /// freed or handed to a durable owner (the catalog). Whatever is
    /// still registered when the query unwinds is reclaimed by
    /// [`ExecContext::release_temp_files`] — the leak-proofing
    /// backstop for spill files dropped mid-flight.
    temp_files: RefCell<HashSet<FileId>>,
    /// Scratch-ownership label stamped on every temp file this context
    /// creates (the query's temp prefix under the engine). A crash
    /// abandons the registry above without running it; the storage-
    /// level tag is what lets recovery find the partial files anyway.
    /// `None` = untagged (standalone executor tests).
    pub scratch_tag: Option<String>,
    /// Per-operator observed totals for the *current* segment attempt
    /// (EXPLAIN ANALYZE's actual side). Reset at attempt start.
    pub actuals: RefCell<HashMap<NodeId, OpActuals>>,
    /// Collect inclusive cpu/io deltas per operator (set by the engine
    /// when an event sink is scoped; row counts are collected always).
    pub profile_detail: bool,
    /// When set, statistics collectors deposit their *raw* accumulator
    /// state here at finalize instead of reporting to the monitor. The
    /// partitioned driver runs a segment once per bucket with capture
    /// on, merges the per-bucket parts at the exchange barrier, and
    /// reports the merged statistics once (§2.2 in a partitioned
    /// setting: local collection, merge at the exchange).
    pub collector_capture: Option<Rc<RefCell<Vec<CollectorParts>>>>,
}

impl ExecContext {
    /// Context without a monitor (plain execution).
    pub fn new(storage: Storage, clock: SimClock, cfg: EngineConfig) -> ExecContext {
        ExecContext {
            storage,
            clock,
            cfg,
            artifacts: RefCell::new(HashMap::new()),
            grants: Arc::new(Mutex::new(HashMap::new())),
            monitor: None,
            cancel: None,
            deadline_ms: None,
            temp_files: RefCell::new(HashSet::new()),
            scratch_tag: None,
            actuals: RefCell::new(HashMap::new()),
            profile_detail: false,
            collector_capture: None,
        }
    }

    /// A fresh context for one bucket run of the partitioned driver:
    /// same storage, clock, config, cancellation, deadline and grants
    /// table (so per-node grants agree with the serial plan), but its
    /// own artifact store, temp-file registry and actuals — and no
    /// monitor, since collector reports are merged and delivered at
    /// exchange barriers by the driver itself.
    pub fn bucket_context(&self) -> ExecContext {
        ExecContext {
            storage: self.storage.clone(),
            clock: self.clock.clone(),
            cfg: self.cfg.clone(),
            artifacts: RefCell::new(HashMap::new()),
            grants: Arc::clone(&self.grants),
            monitor: None,
            cancel: self.cancel.clone(),
            deadline_ms: self.deadline_ms,
            temp_files: RefCell::new(HashSet::new()),
            scratch_tag: self.scratch_tag.clone(),
            actuals: RefCell::new(HashMap::new()),
            profile_detail: self.profile_detail,
            collector_capture: None,
        }
    }

    /// Record (overwrite) the observed totals for one operator.
    pub fn record_actuals(&self, node: NodeId, a: OpActuals) {
        self.actuals.borrow_mut().insert(node, a);
    }

    /// Clear per-operator actuals (a fresh segment attempt starts).
    pub fn reset_actuals(&self) {
        self.actuals.borrow_mut().clear();
    }

    /// Take the per-operator actuals of the attempt that just ran.
    pub fn take_actuals(&self) -> HashMap<NodeId, OpActuals> {
        std::mem::take(&mut self.actuals.borrow_mut())
    }

    /// Create a temp file registered for unwind-time reclamation.
    /// Operators must use this (not `storage.create_file`) for spill
    /// and materialization files.
    pub fn create_temp_file(&self) -> FileId {
        let f = self.storage.create_file();
        self.temp_files.borrow_mut().insert(f);
        if let Some(tag) = &self.scratch_tag {
            self.storage.tag_file(f, tag);
        }
        f
    }

    /// Free a temp file now (normal operator cleanup).
    pub fn free_temp_file(&self, f: FileId) {
        self.temp_files.borrow_mut().remove(&f);
        let _ = self.storage.drop_file(f);
    }

    /// Unregister a temp file whose ownership moved to a durable owner
    /// (a catalog-registered materialized table). The scratch tag
    /// moves with it: the file is no longer anonymous scratch, so a
    /// recovery sweep must not reclaim it out from under the catalog.
    pub fn forget_temp_file(&self, f: FileId) {
        self.temp_files.borrow_mut().remove(&f);
        self.storage.untag_file(f);
    }

    /// Drop every still-registered temp file; returns how many were
    /// reclaimed. Called when the query unwinds (error, cancellation,
    /// segment retry) — on a clean exit the registry is already empty.
    pub fn release_temp_files(&self) -> usize {
        let drained: Vec<FileId> = self.temp_files.borrow_mut().drain().collect();
        let mut reclaimed = 0;
        for f in drained {
            if self.storage.drop_file(f).is_ok() {
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// A shared handle to the grants table (for the controller).
    pub fn share_grants(&self) -> Arc<Mutex<HashMap<NodeId, usize>>> {
        Arc::clone(&self.grants)
    }

    /// Drop all grant overrides (after a plan switch re-numbers nodes).
    pub fn clear_grants(&self) {
        self.grants.lock().clear();
    }

    /// Attach a monitor.
    pub fn with_monitor(mut self, monitor: Rc<dyn ExecMonitor>) -> ExecContext {
        self.monitor = Some(monitor);
        self
    }

    /// Attach a cancellation token and optional simulated-ms deadline.
    pub fn with_interrupts(
        mut self,
        cancel: Option<CancelToken>,
        deadline_ms: Option<f64>,
    ) -> ExecContext {
        self.cancel = cancel;
        self.deadline_ms = deadline_ms;
        self
    }

    /// Cooperative interrupt check: fails with
    /// [`MqError::Cancelled`] once cancellation was requested or the
    /// simulated deadline passed. Called at segment boundaries (and at
    /// executor start), so cancellation latency is bounded by one
    /// pipeline phase.
    pub fn check_interrupt(&self) -> Result<()> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(MqError::Cancelled("query cancelled".into()));
            }
        }
        if mq_common::fault::cancel_requested() {
            return Err(MqError::Cancelled("injected cancellation trigger".into()));
        }
        if let Some(deadline) = self.deadline_ms {
            let now = self.clock.elapsed_ms(&self.cfg);
            if now > deadline {
                return Err(MqError::Cancelled(format!(
                    "deadline {deadline:.1} ms exceeded (simulated clock at {now:.1} ms)"
                )));
            }
        }
        Ok(())
    }

    /// The memory grant for `node`: the grants table if set, otherwise
    /// `fallback` (the grant baked into the plan annotation), otherwise
    /// the whole budget.
    pub fn grant_for(&self, node: NodeId, fallback: usize) -> usize {
        if let Some(&g) = self.grants.lock().get(&node) {
            return g;
        }
        if fallback > 0 {
            fallback
        } else {
            self.cfg.query_memory_bytes
        }
    }

    /// Update the grant of a (not yet started) operator.
    pub fn set_grant(&self, node: NodeId, bytes: usize) {
        self.grants.lock().insert(node, bytes);
    }

    /// Fire the collector hook.
    pub fn notify_collector(&self, stats: ObservedStats) -> Result<()> {
        match &self.monitor {
            Some(m) => m.on_collector(stats),
            None => Ok(()),
        }
    }

    /// Fire the provisional-progress hook.
    pub fn notify_progress(&self, node: NodeId, rows: u64) -> Result<()> {
        match &self.monitor {
            Some(m) => m.on_collector_progress(node, rows),
            None => Ok(()),
        }
    }

    /// Fire the phase-complete hook. A segment boundary is also where
    /// cancellation and deadlines are honoured — before the monitor
    /// runs, so a cancelled query never triggers a re-optimization.
    /// Injected crashes fire here too (before the interrupt check):
    /// the boundary count is a logical property of the query, so a
    /// scheduled kill lands at the same point at any worker count.
    pub fn notify_phase(&self, node: NodeId) -> Result<()> {
        mq_common::fault::on_segment_boundary()?;
        self.check_interrupt()?;
        match &self.monitor {
            Some(m) => m.on_phase_complete(node),
            None => Ok(()),
        }
    }

    /// Take an artifact (consuming it).
    pub fn take_artifact(&self, node: NodeId) -> Option<Artifact> {
        self.artifacts.borrow_mut().remove(&node)
    }

    /// Store an artifact.
    pub fn put_artifact(&self, node: NodeId, artifact: Artifact) {
        self.artifacts.borrow_mut().insert(node, artifact);
    }

    /// Whether an artifact exists for `node`.
    pub fn has_artifact(&self, node: NodeId) -> bool {
        self.artifacts.borrow().contains_key(&node)
    }

    /// Drop all artifacts, freeing any spilled temp files.
    pub fn clear_artifacts(&self) {
        let drained: Vec<Artifact> = {
            let mut map = self.artifacts.borrow_mut();
            map.drain().map(|(_, a)| a).collect()
        };
        for a in drained {
            self.free_artifact_files(&a);
        }
    }

    fn free_artifact_files(&self, a: &Artifact) {
        let files: Vec<FileId> = match a {
            Artifact::HashBuild(h) => h.parts.clone().unwrap_or_default(),
            Artifact::SortedRuns(fs) => fs.clone(),
            _ => Vec::new(),
        };
        for f in files {
            self.free_temp_file(f);
        }
    }
}

/// Deterministic hash for partitioning and hash tables, salted by
/// recursion level so sub-partitioning re-distributes.
pub fn hash_key(key: &[Value], salt: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for v in key {
        v.hash(&mut h);
    }
    let mut z = std::hash::Hasher::finish(&h);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_common::Value;

    #[test]
    fn grant_fallback_chain() {
        let cfg = EngineConfig::default();
        let storage = Storage::new(&cfg, SimClock::new());
        let ctx = ExecContext::new(storage, SimClock::new(), cfg.clone());
        let n = NodeId(3);
        assert_eq!(ctx.grant_for(n, 0), cfg.query_memory_bytes);
        assert_eq!(ctx.grant_for(n, 1234), 1234);
        ctx.set_grant(n, 777);
        assert_eq!(ctx.grant_for(n, 1234), 777);
    }

    #[test]
    fn artifact_lifecycle() {
        let cfg = EngineConfig::default();
        let storage = Storage::new(&cfg, SimClock::new());
        let ctx = ExecContext::new(storage, SimClock::new(), cfg);
        let n = NodeId(1);
        assert!(!ctx.has_artifact(n));
        ctx.put_artifact(n, Artifact::AggOutput(vec![]));
        assert!(ctx.has_artifact(n));
        assert!(ctx.take_artifact(n).is_some());
        assert!(!ctx.has_artifact(n));
    }

    #[test]
    fn hash_key_salt_changes_distribution() {
        let key = vec![Value::Int(42), Value::str("x")];
        let a = hash_key(&key, 0);
        let b = hash_key(&key, 1);
        assert_ne!(a, b);
        assert_eq!(a, hash_key(&key, 0), "deterministic");
    }

    #[test]
    fn numeric_family_hashes_equal() {
        // hash_key must agree with Value's Eq across Int/Float.
        let a = hash_key(&[Value::Int(5)], 7);
        let b = hash_key(&[Value::Float(5.0)], 7);
        assert_eq!(a, b);
    }
}
