//! # mq-storage — the storage substrate
//!
//! A single-node paged storage engine with *honest I/O accounting*: the
//! paper's experiments are driven by physical I/O (hash-join spill
//! passes, external-sort merge passes, materialization of intermediate
//! results), so this crate routes every page touch through a real LRU
//! buffer pool over a simulated disk, charging the shared
//! [`mq_common::SimClock`] on every physical read and write.
//!
//! Components:
//!
//! * [`disk::SimDisk`] — the simulated disk: stable page storage with
//!   alloc/free and per-access cost charging;
//! * [`page`] — slotted-page layout helpers (variable-length records);
//! * [`buffer::BufferPool`] — fixed-capacity LRU page cache with pin
//!   counts and dirty tracking;
//! * [`heap`] — append-oriented heap files holding encoded rows;
//! * [`btree::BTree`] — a paged B+-tree (non-unique, variable-length
//!   keys) powering index scans and indexed nested-loops joins;
//! * [`Storage`] — the facade the rest of the engine uses: files,
//!   indexes and temp files behind one handle.

pub mod btree;
pub mod buffer;
pub mod disk;
pub mod heap;
pub mod page;
pub mod persist;

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use mq_common::{
    EngineConfig, FileId, IndexId, MqError, PageId, Result, Rid, Row, SimClock, Value,
};

use btree::BTree;
use buffer::BufferPool;
use disk::SimDisk;
use heap::HeapFile;

/// The storage facade: owns the disk, the buffer pool, every heap file
/// and every B+-tree index. Cloning is cheap (shared handle).
#[derive(Debug, Clone)]
pub struct Storage {
    inner: Arc<StorageInner>,
}

#[derive(Debug)]
struct StorageInner {
    pool: Arc<BufferPool>,
    files: Mutex<HashMap<FileId, HeapFile>>,
    indexes: Mutex<HashMap<IndexId, BTree>>,
    /// Scratch tags: per-query ownership labels on in-flight temp
    /// files — the simulated equivalent of a per-query scratch
    /// directory. A crashed query's partial outputs are findable by
    /// tag even though nothing else references them; recovery sweeps
    /// exactly its own query's tag, so concurrent queries are safe.
    tags: Mutex<HashMap<FileId, String>>,
    next_file: Mutex<u32>,
    next_index: Mutex<u32>,
    page_size: usize,
}

impl Storage {
    /// Create a storage instance with the configured page size and
    /// buffer-pool capacity, charging `clock` for physical I/O.
    pub fn new(cfg: &EngineConfig, clock: SimClock) -> Storage {
        let disk = Arc::new(SimDisk::new(cfg.page_size, clock));
        let pool = Arc::new(BufferPool::new(disk, cfg.buffer_pool_pages));
        Storage {
            inner: Arc::new(StorageInner {
                pool,
                files: Mutex::new(HashMap::new()),
                indexes: Mutex::new(HashMap::new()),
                tags: Mutex::new(HashMap::new()),
                next_file: Mutex::new(0),
                next_index: Mutex::new(0),
                page_size: cfg.page_size,
            }),
        }
    }

    /// The buffer pool (exposed for diagnostics and tests).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.inner.pool
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// Create an empty heap file (table data or temp file).
    pub fn create_file(&self) -> FileId {
        let mut next = self.inner.next_file.lock();
        let id = FileId(*next);
        *next += 1;
        self.inner.files.lock().insert(id, HeapFile::new());
        id
    }

    /// Append a row to a heap file, returning its record id.
    pub fn append_row(&self, file: FileId, row: &Row) -> Result<Rid> {
        let mut files = self.inner.files.lock();
        let hf = files
            .get_mut(&file)
            .ok_or_else(|| MqError::NotFound(format!("{file}")))?;
        hf.append(&self.inner.pool, row)
    }

    /// Number of pages a file occupies.
    pub fn file_pages(&self, file: FileId) -> Result<usize> {
        let files = self.inner.files.lock();
        files
            .get(&file)
            .map(|hf| hf.pages().len())
            .ok_or_else(|| MqError::NotFound(format!("{file}")))
    }

    /// Number of rows in a file (tracked metadata, no I/O).
    pub fn file_rows(&self, file: FileId) -> Result<u64> {
        let files = self.inner.files.lock();
        files
            .get(&file)
            .map(HeapFile::rows)
            .ok_or_else(|| MqError::NotFound(format!("{file}")))
    }

    /// The page ids of a file, in order (for scans).
    pub fn file_page_list(&self, file: FileId) -> Result<Vec<PageId>> {
        let files = self.inner.files.lock();
        files
            .get(&file)
            .map(|hf| hf.pages().to_vec())
            .ok_or_else(|| MqError::NotFound(format!("{file}")))
    }

    /// Sequentially scan a heap file, one page read per page. The
    /// returned [`RowScan`] yields decoded rows as an iterator, or raw
    /// records through [`RowScan::next_record`].
    pub fn scan_file(&self, file: FileId) -> Result<RowScan> {
        Ok(RowScan::new(self, self.file_page_list(file)?))
    }

    /// Scan a contiguous slice of a heap file's pages: positions
    /// `page_lo..page_hi` of the file's page list (half-open, clamped
    /// to the file length). The partitioned driver carves a table scan
    /// into disjoint chunks with this; chunks concatenated in order
    /// replay exactly the rows of [`Storage::scan_file`].
    pub fn scan_file_range(&self, file: FileId, page_lo: usize, page_hi: usize) -> Result<RowScan> {
        let mut pages = self.file_page_list(file)?;
        let hi = page_hi.min(pages.len());
        let lo = page_lo.min(hi);
        pages.truncate(hi);
        pages.drain(..lo);
        Ok(RowScan::new(self, pages))
    }

    /// Fetch a single row by record id (used by index scans).
    pub fn fetch(&self, rid: Rid) -> Result<Row> {
        self.inner.pool.with_page(rid.page, |data| {
            let rec = page::get(data, rid.slot)
                .ok_or_else(|| MqError::Storage(format!("no record at {rid}")))?;
            Ok(Row::decode(rec)?.0)
        })?
    }

    /// Drop a heap file, returning its pages to the disk free list.
    pub fn drop_file(&self, file: FileId) -> Result<()> {
        let hf = self
            .inner
            .files
            .lock()
            .remove(&file)
            .ok_or_else(|| MqError::NotFound(format!("{file}")))?;
        self.inner.tags.lock().remove(&file);
        for pid in hf.pages() {
            self.inner.pool.discard(*pid);
        }
        Ok(())
    }

    /// Label a file with a scratch tag (per-query scratch ownership).
    /// Overwrites any previous tag. No-op if the file does not exist.
    pub fn tag_file(&self, file: FileId, tag: &str) {
        if self.inner.files.lock().contains_key(&file) {
            self.inner.tags.lock().insert(file, tag.to_string());
        }
    }

    /// Remove a file's scratch tag — called when ownership moves
    /// elsewhere (e.g. the file became a catalog-registered temp
    /// table, so it is no longer anonymous scratch).
    pub fn untag_file(&self, file: FileId) {
        self.inner.tags.lock().remove(&file);
    }

    /// Live files whose scratch tag starts with `prefix`, sorted by
    /// file id. Recovery uses this to find the partial outputs a
    /// crashed query abandoned mid-materialization.
    pub fn files_with_tag(&self, prefix: &str) -> Vec<FileId> {
        let tags = self.inner.tags.lock();
        let mut out: Vec<FileId> = tags
            .iter()
            .filter(|(_, t)| t.starts_with(prefix))
            .map(|(f, _)| *f)
            .collect();
        out.sort_by_key(|f| f.0);
        out
    }

    /// Live files whose scratch tag starts with `prefix`, with their
    /// tags, sorted by file id. The startup stale sweep uses the tag
    /// value to decide which query a leftover belongs to.
    pub fn tagged_files(&self, prefix: &str) -> Vec<(FileId, String)> {
        let tags = self.inner.tags.lock();
        let mut out: Vec<(FileId, String)> = tags
            .iter()
            .filter(|(_, t)| t.starts_with(prefix))
            .map(|(f, t)| (*f, t.clone()))
            .collect();
        out.sort_by_key(|(f, _)| f.0);
        out
    }

    /// Create an empty B+-tree index.
    pub fn create_index(&self) -> Result<IndexId> {
        let mut next = self.inner.next_index.lock();
        let id = IndexId(*next);
        *next += 1;
        let tree = BTree::create(&self.inner.pool)?;
        self.inner.indexes.lock().insert(id, tree);
        Ok(id)
    }

    /// Insert a key → rid pair into an index (duplicates allowed).
    pub fn index_insert(&self, index: IndexId, key: &Value, rid: Rid) -> Result<()> {
        let mut indexes = self.inner.indexes.lock();
        let tree = indexes
            .get_mut(&index)
            .ok_or_else(|| MqError::NotFound(format!("{index}")))?;
        tree.insert(&self.inner.pool, key, rid)
    }

    /// All rids whose key equals `key`.
    pub fn index_lookup(&self, index: IndexId, key: &Value) -> Result<Vec<Rid>> {
        let indexes = self.inner.indexes.lock();
        let tree = indexes
            .get(&index)
            .ok_or_else(|| MqError::NotFound(format!("{index}")))?;
        tree.lookup(&self.inner.pool, key)
    }

    /// All rids with `lo ≤ key ≤ hi` (either bound optional).
    pub fn index_range(
        &self,
        index: IndexId,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<Vec<Rid>> {
        let indexes = self.inner.indexes.lock();
        let tree = indexes
            .get(&index)
            .ok_or_else(|| MqError::NotFound(format!("{index}")))?;
        tree.range(&self.inner.pool, lo, hi)
    }

    /// Height of an index (root-to-leaf node count), for cost models.
    pub fn index_height(&self, index: IndexId) -> Result<usize> {
        let indexes = self.inner.indexes.lock();
        indexes
            .get(&index)
            .map(BTree::height)
            .ok_or_else(|| MqError::NotFound(format!("{index}")))
    }

    /// Disk pages not owned by any live heap file or index. Metadata
    /// only — no I/O. At quiescence this must be zero: every allocated
    /// page is reachable from a file's page list or a B+-tree's page
    /// set, otherwise something leaked pages on an unwind path.
    pub fn orphan_pages(&self) -> usize {
        let owned_by_files: usize = {
            let files = self.inner.files.lock();
            files.values().map(|hf| hf.pages().len()).sum()
        };
        let owned_by_indexes: usize = {
            let indexes = self.inner.indexes.lock();
            indexes.values().map(BTree::page_count).sum()
        };
        self.inner
            .pool
            .disk()
            .allocated_pages()
            .saturating_sub(owned_by_files + owned_by_indexes)
    }
}

/// Sequential reader over a heap file's records.
///
/// Each page is read through the buffer pool exactly once, when the
/// previous page's records are used up, and copied out so no page
/// borrow escapes the pool. [`RowScan::next_record`] hands out the
/// encoded records of that copy; the [`Iterator`] impl decodes each one
/// into a [`Row`]. Callers that only need some columns, or only some
/// records, decode just those from the bytes.
pub struct RowScan {
    storage: Storage,
    pages: Vec<PageId>,
    page_idx: usize,
    /// Copy of the current page; empty before the first page is read.
    page: Vec<u8>,
    pid: PageId,
    /// Next slot of `page` to look at.
    slot: u16,
}

impl RowScan {
    fn new(storage: &Storage, pages: Vec<PageId>) -> RowScan {
        RowScan {
            storage: storage.clone(),
            pages,
            page_idx: 0,
            page: Vec::new(),
            pid: PageId::INVALID,
            slot: 0,
        }
    }

    /// The next live record's id and encoded bytes (see
    /// [`Row::decode`]), or `None` at the end of the file. The bytes
    /// are not checked here. An error reading a page ends that page.
    pub fn next_record(&mut self) -> Option<Result<(Rid, &[u8])>> {
        let slot = loop {
            if let Some(slot) = self.next_live_slot() {
                break slot;
            }
            let pid = *self.pages.get(self.page_idx)?;
            self.page_idx += 1;
            let page = &mut self.page;
            page.clear();
            if let Err(e) = self
                .storage
                .inner
                .pool
                .with_page(pid, |data| page.extend_from_slice(data))
            {
                return Some(Err(e));
            }
            self.pid = pid;
            self.slot = 0;
        };
        let rec = page::get(&self.page, slot).expect("next_live_slot found a live record");
        Some(Ok((Rid::new(self.pid, slot), rec)))
    }

    /// Advance past the current page's next live slot and return it.
    fn next_live_slot(&mut self) -> Option<u16> {
        if self.page.is_empty() {
            return None;
        }
        while self.slot < page::slot_count(&self.page) {
            let slot = self.slot;
            self.slot += 1;
            if page::get(&self.page, slot).is_some() {
                return Some(slot);
            }
        }
        None
    }
}

impl Iterator for RowScan {
    type Item = Result<(Rid, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(
            self.next_record()?
                .and_then(|(rid, rec)| Ok((rid, Row::decode(rec)?.0))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage() -> (Storage, SimClock, EngineConfig) {
        let cfg = EngineConfig::default();
        let clock = SimClock::new();
        (Storage::new(&cfg, clock.clone()), clock, cfg)
    }

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::str(format!("payload-{i}"))])
    }

    #[test]
    fn append_and_scan_roundtrip() {
        let (s, _, _) = storage();
        let f = s.create_file();
        for i in 0..1000 {
            s.append_row(f, &row(i)).unwrap();
        }
        assert_eq!(s.file_rows(f).unwrap(), 1000);
        let rows: Vec<_> = s.scan_file(f).unwrap().map(|r| r.unwrap().1).collect();
        assert_eq!(rows.len(), 1000);
        assert_eq!(rows[0].get(0), &Value::Int(0));
        assert_eq!(rows[999].get(0), &Value::Int(999));
    }

    #[test]
    fn fetch_by_rid() {
        let (s, _, _) = storage();
        let f = s.create_file();
        let mut rids = Vec::new();
        for i in 0..100 {
            rids.push(s.append_row(f, &row(i)).unwrap());
        }
        let r = s.fetch(rids[42]).unwrap();
        assert_eq!(r.get(0), &Value::Int(42));
    }

    #[test]
    fn io_charged_on_cold_scan() {
        let cfg = EngineConfig {
            buffer_pool_pages: 8,
            ..EngineConfig::default()
        };
        let clock = SimClock::new();
        let s = Storage::new(&cfg, clock.clone());
        let f = s.create_file();
        for i in 0..5000 {
            s.append_row(f, &row(i)).unwrap();
        }
        let pages = s.file_pages(f).unwrap();
        assert!(pages > 8, "need more pages than the pool: {pages}");
        // Writing overflowed the pool, so evictions already wrote pages.
        let before = clock.snapshot();
        let n = s.scan_file(f).unwrap().count();
        assert_eq!(n, 5000);
        let delta = clock.snapshot().since(&before);
        // A cold scan must read nearly every page.
        assert!(
            delta.pages_read as usize >= pages - cfg.buffer_pool_pages,
            "reads {} vs pages {pages}",
            delta.pages_read
        );
    }

    #[test]
    fn hot_scan_is_free() {
        let (s, clock, _) = storage();
        let f = s.create_file();
        for i in 0..50 {
            s.append_row(f, &row(i)).unwrap();
        }
        let _ = s.scan_file(f).unwrap().count(); // warm the pool
        let before = clock.snapshot();
        let _ = s.scan_file(f).unwrap().count();
        let delta = clock.snapshot().since(&before);
        assert_eq!(delta.pages_read, 0, "hot scan should not touch disk");
    }

    #[test]
    fn drop_file_frees_pages() {
        let (s, _, _) = storage();
        let f = s.create_file();
        for i in 0..500 {
            s.append_row(f, &row(i)).unwrap();
        }
        s.drop_file(f).unwrap();
        assert!(s.scan_file(f).is_err());
        assert!(s.file_rows(f).is_err());
    }

    #[test]
    fn index_insert_lookup_range() {
        let (s, _, _) = storage();
        let f = s.create_file();
        let idx = s.create_index().unwrap();
        for i in 0..2000i64 {
            let rid = s.append_row(f, &row(i)).unwrap();
            s.index_insert(idx, &Value::Int(i % 100), rid).unwrap();
        }
        let hits = s.index_lookup(idx, &Value::Int(7)).unwrap();
        assert_eq!(hits.len(), 20);
        for rid in &hits {
            let r = s.fetch(*rid).unwrap();
            assert_eq!(r.get(0).as_i64().unwrap() % 100, 7);
        }
        let range = s
            .index_range(idx, Some(&Value::Int(10)), Some(&Value::Int(19)))
            .unwrap();
        assert_eq!(range.len(), 200);
        assert!(s.index_height(idx).unwrap() >= 1);
    }

    #[test]
    fn page_accounting_has_no_orphans() {
        let (s, _, _) = storage();
        let f = s.create_file();
        let idx = s.create_index().unwrap();
        for i in 0..2000i64 {
            let rid = s.append_row(f, &row(i)).unwrap();
            s.index_insert(idx, &Value::Int(i), rid).unwrap();
        }
        assert_eq!(s.orphan_pages(), 0);
        let g = s.create_file();
        for i in 0..500 {
            s.append_row(g, &row(i)).unwrap();
        }
        s.drop_file(g).unwrap();
        assert_eq!(s.orphan_pages(), 0, "dropping a file frees its pages");
    }

    #[test]
    fn failed_append_to_fresh_page_leaves_no_orphan() {
        use mq_common::fault::{FaultInjector, FaultKind, FaultSite, FaultSpec};
        let (s, _, _) = storage();
        let f = s.create_file();
        // Fault every write: the very first append allocates a page,
        // fails to write it, and must give the page back.
        let inj = FaultInjector::new(
            vec![FaultSpec {
                site: FaultSite::PageWrite,
                kind: FaultKind::Permanent,
                at: 1,
            }],
            None,
        );
        {
            let _scope = inj.enter_scope();
            assert!(s.append_row(f, &row(1)).is_err());
        }
        assert_eq!(s.orphan_pages(), 0);
        assert_eq!(s.file_pages(f).unwrap(), 0);
        // The schedule fired; the file works again afterwards.
        s.append_row(f, &row(2)).unwrap();
    }

    #[test]
    fn scratch_tags_track_ownership() {
        let (s, _, _) = storage();
        let a = s.create_file();
        let b = s.create_file();
        let c = s.create_file();
        s.tag_file(a, "tmp_reopt_q1_");
        s.tag_file(b, "tmp_reopt_q1_");
        s.tag_file(c, "tmp_reopt_q2_");
        assert_eq!(s.files_with_tag("tmp_reopt_q1_"), vec![a, b]);
        // Ownership handoff clears the tag.
        s.untag_file(a);
        assert_eq!(s.files_with_tag("tmp_reopt_q1_"), vec![b]);
        // Dropping a tagged file forgets the tag too.
        s.drop_file(b).unwrap();
        assert_eq!(s.files_with_tag("tmp_reopt_q1_"), Vec::<FileId>::new());
        assert_eq!(s.files_with_tag("tmp_reopt_q2_"), vec![c]);
        // Tagging a nonexistent file is a no-op.
        s.tag_file(FileId(999), "tmp_reopt_q9_");
        assert!(s.files_with_tag("tmp_reopt_q9_").is_empty());
    }

    #[test]
    fn missing_objects_error() {
        let (s, _, _) = storage();
        assert!(s.append_row(FileId(99), &row(1)).is_err());
        assert!(s.index_lookup(IndexId(99), &Value::Int(1)).is_err());
        assert!(s.drop_file(FileId(99)).is_err());
    }
}
