//! The simulated disk.
//!
//! Pages live in host memory, but every read and write charges the
//! shared [`SimClock`] — this is the root of the deterministic cost
//! accounting described in DESIGN.md. Freed pages go on a free list and
//! are reused, so temp-file churn (hash-join spills, sort runs,
//! materialized intermediates) does not grow the "disk" unboundedly.

use parking_lot::Mutex;

use mq_common::{MqError, PageId, Result, SimClock};

/// A growable array of fixed-size pages with I/O cost accounting.
#[derive(Debug)]
pub struct SimDisk {
    page_size: usize,
    clock: SimClock,
    state: Mutex<DiskState>,
}

#[derive(Debug, Default)]
struct DiskState {
    pages: Vec<Option<Box<[u8]>>>,
    free: Vec<u64>,
}

impl SimDisk {
    /// Create an empty disk with the given page size.
    pub fn new(page_size: usize, clock: SimClock) -> SimDisk {
        SimDisk {
            page_size,
            clock,
            state: Mutex::new(DiskState::default()),
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Allocate a zeroed page. Allocation itself is not an I/O; the
    /// first write charges.
    pub fn alloc(&self) -> PageId {
        let mut st = self.state.lock();
        if let Some(idx) = st.free.pop() {
            st.pages[idx as usize] = Some(vec![0u8; self.page_size].into_boxed_slice());
            PageId(idx)
        } else {
            st.pages
                .push(Some(vec![0u8; self.page_size].into_boxed_slice()));
            PageId(st.pages.len() as u64 - 1)
        }
    }

    /// Return a page to the free list.
    pub fn free(&self, pid: PageId) -> Result<()> {
        let mut st = self.state.lock();
        let slot = st
            .pages
            .get_mut(pid.0 as usize)
            .ok_or_else(|| MqError::Storage(format!("free of unknown {pid}")))?;
        if slot.take().is_none() {
            return Err(MqError::Storage(format!("double free of {pid}")));
        }
        st.free.push(pid.0);
        Ok(())
    }

    /// Read a page into a fresh buffer, charging one physical read.
    pub fn read(&self, pid: PageId) -> Result<Box<[u8]>> {
        let st = self.state.lock();
        let data = st
            .pages
            .get(pid.0 as usize)
            .and_then(|p| p.as_ref())
            .ok_or_else(|| MqError::Storage(format!("read of unallocated {pid}")))?
            .clone();
        drop(st);
        self.clock.add_reads(1);
        Ok(data)
    }

    /// Write a page, charging one physical write.
    pub fn write(&self, pid: PageId, data: &[u8]) -> Result<()> {
        if data.len() != self.page_size {
            return Err(MqError::Storage(format!(
                "write of {} bytes to {pid} (page size {})",
                data.len(),
                self.page_size
            )));
        }
        let mut st = self.state.lock();
        let slot = st
            .pages
            .get_mut(pid.0 as usize)
            .ok_or_else(|| MqError::Storage(format!("write to unknown {pid}")))?;
        match slot {
            Some(p) => p.copy_from_slice(data),
            None => return Err(MqError::Storage(format!("write to freed {pid}"))),
        }
        drop(st);
        self.clock.add_writes(1);
        Ok(())
    }

    /// Number of currently allocated pages.
    pub fn allocated_pages(&self) -> usize {
        let st = self.state.lock();
        st.pages.iter().filter(|p| p.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> (SimDisk, SimClock) {
        let clock = SimClock::new();
        (SimDisk::new(512, clock.clone()), clock)
    }

    #[test]
    fn write_read_roundtrip() {
        let (d, clock) = disk();
        let pid = d.alloc();
        let mut data = vec![0u8; 512];
        data[0] = 0xAB;
        data[511] = 0xCD;
        d.write(pid, &data).unwrap();
        let back = d.read(pid).unwrap();
        assert_eq!(&back[..], &data[..]);
        let snap = clock.snapshot();
        assert_eq!((snap.pages_read, snap.pages_written), (1, 1));
    }

    #[test]
    fn free_and_reuse() {
        let (d, _) = disk();
        let a = d.alloc();
        let b = d.alloc();
        assert_ne!(a, b);
        d.free(a).unwrap();
        assert_eq!(d.allocated_pages(), 1);
        let c = d.alloc();
        assert_eq!(c, a, "freed page id should be reused");
        // Reused page must be zeroed.
        d.write(c, &vec![7u8; 512]).unwrap();
        d.free(c).unwrap();
        let c2 = d.alloc();
        let back = d.read(c2).unwrap();
        assert!(back.iter().all(|&b| b == 0));
    }

    #[test]
    fn errors_on_bad_access() {
        let (d, _) = disk();
        assert!(d.read(PageId(5)).is_err());
        assert!(d.write(PageId(5), &vec![0; 512]).is_err());
        let p = d.alloc();
        assert!(d.write(p, &[0; 100]).is_err(), "short write");
        d.free(p).unwrap();
        assert!(d.free(p).is_err(), "double free");
        assert!(d.read(p).is_err(), "read after free");
    }

    #[test]
    fn alloc_is_free_of_charge() {
        let (d, clock) = disk();
        for _ in 0..100 {
            d.alloc();
        }
        let snap = clock.snapshot();
        assert_eq!(snap.io_total(), 0);
    }
}
