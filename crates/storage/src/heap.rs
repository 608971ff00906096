//! Heap files: ordered lists of slotted pages holding encoded rows.
//!
//! Append-oriented, matching the workload (bulk load, scans, temp
//! spills). The page list and row count live in memory as file
//! metadata; page contents go through the buffer pool.

use mq_common::{MqError, PageId, Result, Rid, Row};

use crate::buffer::BufferPool;
use crate::page;

/// Metadata for one heap file.
#[derive(Debug, Clone, Default)]
pub struct HeapFile {
    pages: Vec<PageId>,
    rows: u64,
    /// Encoding of the row being appended; its allocation is reused
    /// from append to append.
    encode_buf: Vec<u8>,
}

impl HeapFile {
    /// An empty heap file.
    pub fn new() -> HeapFile {
        HeapFile::default()
    }

    /// Pages in file order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Total rows appended.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Append a row, allocating a fresh page when the last one is full.
    pub fn append(&mut self, pool: &BufferPool, row: &Row) -> Result<Rid> {
        self.encode_buf.clear();
        row.encode(&mut self.encode_buf);
        let bytes = &self.encode_buf;
        if bytes.len() + 8 > pool.disk().page_size() {
            return Err(MqError::Storage(format!(
                "row of {} bytes exceeds page size {}",
                bytes.len(),
                pool.disk().page_size()
            )));
        }
        if let Some(&last) = self.pages.last() {
            let slot = pool.with_page_mut(last, |data| page::insert(data, bytes))?;
            if let Some(slot) = slot {
                self.rows += 1;
                return Ok(Rid::new(last, slot));
            }
        }
        let pid = pool.alloc_page()?;
        let slot = match pool.with_page_mut(pid, |data| {
            page::init(data);
            page::insert(data, bytes)
        }) {
            Ok(slot) => slot,
            Err(e) => {
                // The fresh page has no owner yet; return it to the
                // disk rather than orphaning it.
                pool.discard(pid);
                return Err(e);
            }
        };
        self.pages.push(pid);
        match slot {
            Some(slot) => {
                self.rows += 1;
                Ok(Rid::new(pid, slot))
            }
            None => Err(MqError::Storage(
                "row does not fit in a fresh page (bug)".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimDisk;
    use mq_common::{SimClock, Value};
    use std::sync::Arc;

    fn pool() -> Arc<BufferPool> {
        let disk = Arc::new(SimDisk::new(512, SimClock::new()));
        Arc::new(BufferPool::new(disk, 16))
    }

    #[test]
    fn append_many_pages() {
        let pool = pool();
        let mut hf = HeapFile::new();
        for i in 0..200i64 {
            hf.append(
                &pool,
                &Row::new(vec![Value::Int(i), Value::str("xxxxxxxxxx")]),
            )
            .unwrap();
        }
        assert_eq!(hf.rows(), 200);
        assert!(hf.pages().len() > 1, "should have spilled to more pages");
    }

    #[test]
    fn oversized_row_rejected() {
        let pool = pool();
        let mut hf = HeapFile::new();
        let big = "x".repeat(600);
        let err = hf
            .append(&pool, &Row::new(vec![Value::str(big)]))
            .unwrap_err();
        assert_eq!(err.kind(), "storage");
    }

    #[test]
    fn rids_are_dense_per_page() {
        let pool = pool();
        let mut hf = HeapFile::new();
        let r0 = hf.append(&pool, &Row::new(vec![Value::Int(0)])).unwrap();
        let r1 = hf.append(&pool, &Row::new(vec![Value::Int(1)])).unwrap();
        assert_eq!(r0.page, r1.page);
        assert_eq!(r0.slot + 1, r1.slot);
    }
}
