//! Slotted-page layout.
//!
//! ```text
//! ┌──────────┬──────────┬───────────────┬───────┬──────────────┐
//! │ nslots u16│ rec_start u16│ slot array → │ free  │ ← records    │
//! └──────────┴──────────┴───────────────┴───────┴──────────────┘
//! ```
//!
//! Records are appended from the page end backwards; the slot array
//! (offset, length pairs) grows forward after the 4-byte header. A zero
//! length marks a dead slot. These are free functions over `&[u8]` /
//! `&mut [u8]` so the buffer pool can apply them to frames in place.

use std::ops::Range;

const HEADER: usize = 4;
const SLOT: usize = 4;

fn nslots(data: &[u8]) -> u16 {
    u16::from_le_bytes([data[0], data[1]])
}

fn rec_start(data: &[u8]) -> u16 {
    u16::from_le_bytes([data[2], data[3]])
}

fn set_nslots(data: &mut [u8], n: u16) {
    data[0..2].copy_from_slice(&n.to_le_bytes());
}

fn set_rec_start(data: &mut [u8], off: u16) {
    data[2..4].copy_from_slice(&off.to_le_bytes());
}

fn slot_at(data: &[u8], slot: u16) -> (u16, u16) {
    let base = HEADER + slot as usize * SLOT;
    (
        u16::from_le_bytes([data[base], data[base + 1]]),
        u16::from_le_bytes([data[base + 2], data[base + 3]]),
    )
}

/// Initialize an empty page. A freshly allocated (zeroed) page is
/// *almost* valid — `rec_start` must point at the page end.
pub fn init(data: &mut [u8]) {
    assert!(data.len() >= HEADER + SLOT && data.len() <= u16::MAX as usize);
    set_nslots(data, 0);
    set_rec_start(data, data.len() as u16);
}

/// Whether the page has been initialized (zeroed pages have
/// `rec_start == 0`, which is never valid).
pub fn is_initialized(data: &[u8]) -> bool {
    rec_start(data) as usize >= HEADER
}

/// Number of slots (including dead ones).
pub fn slot_count(data: &[u8]) -> u16 {
    nslots(data)
}

/// Free bytes available for one more record (accounting for its slot).
pub fn free_space(data: &[u8]) -> usize {
    let slots_end = HEADER + nslots(data) as usize * SLOT;
    (rec_start(data) as usize)
        .saturating_sub(slots_end)
        .saturating_sub(SLOT)
}

/// Insert a record; returns its slot or `None` when the page is full.
pub fn insert(data: &mut [u8], record: &[u8]) -> Option<u16> {
    if record.len() > free_space(data) {
        return None;
    }
    let n = nslots(data);
    let new_start = rec_start(data) as usize - record.len();
    data[new_start..new_start + record.len()].copy_from_slice(record);
    let base = HEADER + n as usize * SLOT;
    data[base..base + 2].copy_from_slice(&(new_start as u16).to_le_bytes());
    data[base + 2..base + 4].copy_from_slice(&(record.len() as u16).to_le_bytes());
    set_nslots(data, n + 1);
    set_rec_start(data, new_start as u16);
    Some(n)
}

/// Read the record in `slot`, or `None` for out-of-range/dead slots.
pub fn get(data: &[u8], slot: u16) -> Option<&[u8]> {
    locate(data, slot).map(|r| &data[r])
}

/// The byte range of the record in `slot` (what [`get`] returns), or
/// `None` for out-of-range/dead slots.
pub fn locate(data: &[u8], slot: u16) -> Option<Range<usize>> {
    if slot >= nslots(data) {
        return None;
    }
    let (off, len) = slot_at(data, slot);
    if len == 0 {
        return None;
    }
    let range = off as usize..off as usize + len as usize;
    (range.end <= data.len()).then_some(range)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(size: usize) -> Vec<u8> {
        let mut p = vec![0u8; size];
        init(&mut p);
        p
    }

    #[test]
    fn insert_and_get() {
        let mut p = fresh(256);
        let s0 = insert(&mut p, b"hello").unwrap();
        let s1 = insert(&mut p, b"world!").unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(get(&p, 0), Some(&b"hello"[..]));
        assert_eq!(get(&p, 1), Some(&b"world!"[..]));
        assert_eq!(get(&p, 2), None);
        assert_eq!(slot_count(&p), 2);
    }

    #[test]
    fn fills_until_full() {
        let mut p = fresh(128);
        let rec = [0xAAu8; 10];
        let mut inserted = 0;
        while insert(&mut p, &rec).is_some() {
            inserted += 1;
        }
        // 124 usable bytes, 14 per record (10 + 4 slot) → 8 records.
        assert_eq!(inserted, 8);
        for s in 0..inserted {
            assert_eq!(get(&p, s).unwrap(), &rec);
        }
    }

    #[test]
    fn rejects_oversized() {
        let mut p = fresh(64);
        assert!(insert(&mut p, &[0u8; 100]).is_none());
        assert!(insert(&mut p, &[0u8; 57]).is_none()); // 60 usable - 4 slot = 56 max
        assert!(insert(&mut p, &[0u8; 56]).is_some());
    }

    #[test]
    fn zeroed_page_is_uninitialized() {
        let z = vec![0u8; 128];
        assert!(!is_initialized(&z));
        let p = fresh(128);
        assert!(is_initialized(&p));
    }

    #[test]
    fn empty_record_allowed() {
        let mut p = fresh(64);
        let s = insert(&mut p, b"").unwrap();
        // Empty records read back as dead (len 0) — callers never store
        // empty rows (row encoding is ≥ 2 bytes).
        assert_eq!(get(&p, s), None);
    }
}
