//! A paged B+-tree with variable-length keys and duplicate support.
//!
//! Backs index scans and the indexed nested-loops join the paper's
//! example plans use (Figure 1's `Indexed-Join`). Nodes are serialized
//! into buffer-pool pages, so every traversal pays honest I/O: a probe
//! costs `height` page touches, cached or not depending on pool state —
//! exactly the trade-off the optimizer's cost model must weigh against
//! hash joins.
//!
//! Implementation style: nodes are searched and modified in their page
//! bytes. A node is a header (leaf tag, key count, next link or
//! leftmost child) followed by `(key, pointer)` entries with
//! variable-length keys, so a search walks the entries in order,
//! comparing each encoded key with [`Value::cmp_encoded`]; no key is
//! built. The walk always covers the whole node, so it rejects exactly
//! the pages a full decode would. An insert that fits splices its
//! entry into the page (shifting the tail right), leaving exactly the
//! bytes re-encoding the grown node would. Only a split decodes the
//! node, once, inside the same page access that found the insert
//! position. A node costs one `with_page` per visit and one
//! `with_page_mut` per write, so simulated I/O, pool recency and fault
//! schedules depend on the tree's shape, not on how a node is searched.

use std::cmp::Ordering;

use mq_common::{MqError, PageId, Result, Rid, Value};

use crate::buffer::BufferPool;

/// Node header: leaf tag byte (1 = leaf), key count (u16), then a
/// leaf's next link or an internal node's leftmost child (u64).
const HEADER: usize = 11;
/// Bytes after each leaf key: the rid's page (u64) and slot (u16).
const RID_BYTES: usize = 10;
/// Bytes after each internal key: the child to its right (u64).
const CHILD_BYTES: usize = 8;

/// B+-tree handle: root page and height. The tree's nodes live in the
/// buffer pool / disk.
#[derive(Debug, Clone)]
pub struct BTree {
    root: PageId,
    height: usize,
    /// Every page the tree has allocated, in allocation order. Lets
    /// owners account for (and reclaim) index pages — `Engine::audit`
    /// uses this to prove no disk page is orphaned.
    pages: Vec<PageId>,
    /// Longest key encoding ever inserted. Every separator is a copy
    /// of an inserted key, so this bounds how much a child split can
    /// grow an internal node.
    max_key_len: usize,
}

/// A node decoded whole: built only to split it or to check the tree.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        keys: Vec<Value>,
        rids: Vec<Rid>,
        next: PageId,
    },
    Internal {
        keys: Vec<Value>,
        children: Vec<PageId>,
    },
}

impl Node {
    fn encoded_size(&self) -> usize {
        let (keys, ptr) = match self {
            Node::Leaf { keys, .. } => (keys, RID_BYTES),
            Node::Internal { keys, .. } => (keys, CHILD_BYTES),
        };
        HEADER + keys.iter().map(|k| k.encoded_len() + ptr).sum::<usize>()
    }

    fn encode(&self, out: &mut [u8]) {
        let mut buf = Vec::with_capacity(self.encoded_size());
        match self {
            Node::Leaf { keys, rids, next } => {
                buf.push(1);
                buf.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                buf.extend_from_slice(&next.0.to_le_bytes());
                for (k, r) in keys.iter().zip(rids) {
                    k.encode(&mut buf);
                    buf.extend_from_slice(&r.page.0.to_le_bytes());
                    buf.extend_from_slice(&r.slot.to_le_bytes());
                }
            }
            Node::Internal { keys, children } => {
                buf.push(0);
                buf.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                buf.extend_from_slice(&children[0].0.to_le_bytes());
                for (k, c) in keys.iter().zip(&children[1..]) {
                    k.encode(&mut buf);
                    buf.extend_from_slice(&c.0.to_le_bytes());
                }
            }
        }
        debug_assert!(buf.len() <= out.len(), "node overflows page");
        out[..buf.len()].copy_from_slice(&buf);
    }

    fn decode(data: &[u8]) -> Result<Node> {
        let view = NodeView::parse(data)?;
        let mut keys = Vec::with_capacity(view.nkeys);
        let mut ptrs = Vec::with_capacity(view.nkeys);
        view.walk(None, |e| {
            keys.push(Value::decode(e.key)?.0);
            ptrs.push(e.rid());
            Ok(())
        })?;
        Ok(if view.leaf {
            Node::Leaf {
                keys,
                rids: ptrs,
                next: view.first,
            }
        } else {
            let children = std::iter::once(view.first)
                .chain(ptrs.iter().map(|r| r.page))
                .collect();
            Node::Internal { keys, children }
        })
    }
}

/// A node read in place from its page bytes: the header, and a walk
/// over the encoded entries that builds no keys.
struct NodeView<'a> {
    data: &'a [u8],
    leaf: bool,
    nkeys: usize,
    /// A leaf's next link, or an internal node's leftmost child.
    first: PageId,
}

/// One entry met on a [`NodeView::walk`].
struct Entry<'a> {
    /// The probe compared with this key (`probe.cmp(key)`); `Equal`
    /// on a walk without a probe.
    ord: Ordering,
    /// The key's encoding.
    key: &'a [u8],
    /// A leaf's rid page, or an internal node's child.
    page: PageId,
    /// A leaf's rid slot; 0 in an internal node.
    slot: u16,
    /// Offset just past the entry.
    end: usize,
}

impl Entry<'_> {
    fn rid(&self) -> Rid {
        Rid::new(self.page, self.slot)
    }
}

impl<'a> NodeView<'a> {
    fn parse(data: &'a [u8]) -> Result<NodeView<'a>> {
        let tag = need(data, 0, 1)?.first().copied().ok_or_else(|| {
            MqError::Storage("btree node truncated: missing leaf tag byte".to_string())
        })?;
        let nk = need(data, 1, 2)?;
        Ok(NodeView {
            data,
            leaf: tag == 1,
            nkeys: u16::from_le_bytes([nk[0], nk[1]]) as usize,
            first: PageId(read_u64(data, 3)?),
        })
    }

    /// Visit every entry in key order, comparing each key with `probe`
    /// and checking it exactly as [`Value::decode`] would. Returns the
    /// offset just past the last entry: the node's encoded size.
    fn walk(
        &self,
        probe: Option<&Value>,
        mut visit: impl FnMut(&Entry<'a>) -> Result<()>,
    ) -> Result<usize> {
        let data = self.data;
        let mut off = HEADER;
        for _ in 0..self.nkeys {
            let rest = &data[off..];
            let (ord, used) = match probe {
                Some(p) => p.cmp_encoded(rest)?,
                None => (Ordering::Equal, Value::skip(rest)?),
            };
            let key = &rest[..used];
            off += used;
            let page = PageId(read_u64(data, off)?);
            let slot = if self.leaf {
                let slot = read_u16(data, off + 8)?;
                off += RID_BYTES;
                slot
            } else {
                off += CHILD_BYTES;
                0
            };
            visit(&Entry {
                ord,
                key,
                page,
                slot,
                end: off,
            })?;
        }
        Ok(off)
    }
}

/// What one read of a node on an insert path found.
struct InsertPoint {
    leaf: bool,
    /// Byte offset where the new entry goes: past every key ≤ the
    /// inserted key.
    at: usize,
    /// Offset just past the node's last entry.
    end: usize,
    /// An internal node's child to descend into.
    child: PageId,
    /// The node decoded whole, when the insert may split it.
    whole: Option<Node>,
}

/// `data[off..off+len]`, or a context-carrying storage error when the
/// page is shorter than the node header claims (torn or corrupt page).
fn need(data: &[u8], off: usize, len: usize) -> Result<&[u8]> {
    data.get(off..off + len).ok_or_else(|| {
        MqError::Storage(format!(
            "btree node truncated: need {len} bytes at offset {off} of a {}-byte page",
            data.len()
        ))
    })
}

fn read_u64(data: &[u8], off: usize) -> Result<u64> {
    let bytes: [u8; 8] = need(data, off, 8)?
        .try_into()
        .map_err(|_| MqError::Storage(format!("btree node: bad u64 slice at offset {off}")))?;
    Ok(u64::from_le_bytes(bytes))
}

fn read_u16(data: &[u8], off: usize) -> Result<u16> {
    let bytes: [u8; 2] = need(data, off, 2)?
        .try_into()
        .map_err(|_| MqError::Storage(format!("btree node: bad u16 slice at offset {off}")))?;
    Ok(u16::from_le_bytes(bytes))
}

fn not_a_leaf() -> MqError {
    MqError::Internal("find_leaf returned internal".into())
}

impl BTree {
    /// Create an empty tree (a single empty leaf).
    pub fn create(pool: &BufferPool) -> Result<BTree> {
        let root = pool.alloc_page()?;
        let leaf = Node::Leaf {
            keys: Vec::new(),
            rids: Vec::new(),
            next: PageId::INVALID,
        };
        pool.with_page_mut(root, |d| leaf.encode(d))?;
        Ok(BTree {
            root,
            height: 1,
            pages: vec![root],
            max_key_len: 0,
        })
    }

    /// Tree height (number of node levels).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Every page the tree occupies, in allocation order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Number of pages the tree occupies.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn write_node(&self, pool: &BufferPool, pid: PageId, node: &Node) -> Result<()> {
        if node.encoded_size() > pool.disk().page_size() {
            return Err(MqError::Internal(format!(
                "btree node of {} bytes exceeds page size (unsplit?)",
                node.encoded_size()
            )));
        }
        pool.with_page_mut(pid, |d| node.encode(d))
    }

    /// Insert `entry` at byte offset `at` of the node on `pid`, whose
    /// entries end at `end`: shift the tail right, write the entry and
    /// bump the key count. This leaves the bytes [`Node::encode`] would
    /// leave for the grown node, in one page access.
    fn splice(pool: &BufferPool, pid: PageId, at: usize, end: usize, entry: &[u8]) -> Result<()> {
        pool.with_page_mut(pid, |d| {
            d.copy_within(at..end, at + entry.len());
            d[at..at + entry.len()].copy_from_slice(entry);
            let nkeys = u16::from_le_bytes([d[1], d[2]]).wrapping_add(1);
            d[1..3].copy_from_slice(&nkeys.to_le_bytes());
        })
    }

    /// Insert `key → rid`. Duplicate keys are allowed.
    pub fn insert(&mut self, pool: &BufferPool, key: &Value, rid: Rid) -> Result<()> {
        if key.encoded_len() + 32 > pool.disk().page_size() / 4 {
            return Err(MqError::Storage(format!(
                "index key of {} bytes too large for page size {}",
                key.encoded_len(),
                pool.disk().page_size()
            )));
        }
        self.max_key_len = self.max_key_len.max(key.encoded_len());
        if let Some((sep, right)) = self.insert_rec(pool, self.root, key, rid)? {
            // Root split: grow the tree by one level.
            let new_root = pool.alloc_page()?;
            self.pages.push(new_root);
            let node = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.write_node(pool, new_root, &node)?;
            self.root = new_root;
            self.height += 1;
        }
        Ok(())
    }

    /// Read the node on `pid` for an insert of `key`: the insert
    /// position, the child to descend into, and — only when the node
    /// may have to split — the whole decoded node.
    fn insert_point(&self, pool: &BufferPool, pid: PageId, key: &Value) -> Result<InsertPoint> {
        let page_size = pool.disk().page_size();
        pool.with_page(pid, |data| {
            let node = NodeView::parse(data)?;
            let (mut at, mut child) = (HEADER, node.first);
            let end = node.walk(Some(key), |e| {
                if e.ord != Ordering::Less {
                    at = e.end;
                    child = e.page;
                }
                Ok(())
            })?;
            // A leaf grows by this entry; an internal node by the
            // separator a child split would hand up.
            let growth = if node.leaf {
                key.encoded_len() + RID_BYTES
            } else {
                self.max_key_len + CHILD_BYTES
            };
            let whole = if end + growth > page_size {
                Some(Node::decode(data)?)
            } else {
                None
            };
            Ok(InsertPoint {
                leaf: node.leaf,
                at,
                end,
                child,
                whole,
            })
        })?
    }

    fn insert_rec(
        &mut self,
        pool: &BufferPool,
        pid: PageId,
        key: &Value,
        rid: Rid,
    ) -> Result<Option<(Value, PageId)>> {
        let page_size = pool.disk().page_size();
        let point = self.insert_point(pool, pid, key)?;
        if point.leaf {
            let Some(mut node) = point.whole else {
                let mut entry = Vec::with_capacity(key.encoded_len() + RID_BYTES);
                key.encode(&mut entry);
                entry.extend_from_slice(&rid.page.0.to_le_bytes());
                entry.extend_from_slice(&rid.slot.to_le_bytes());
                Self::splice(pool, pid, point.at, point.end, &entry)?;
                return Ok(None);
            };
            let Node::Leaf { keys, rids, next } = &mut node else {
                return Err(MqError::Storage(
                    "btree leaf changed variant during split".into(),
                ));
            };
            let pos = keys.partition_point(|k| k <= key);
            keys.insert(pos, key.clone());
            rids.insert(pos, rid);
            // Split the leaf in half.
            let mid = keys.len() / 2;
            let right_keys = keys[mid..].to_vec();
            let right_rids = rids[mid..].to_vec();
            let right_pid = pool.alloc_page()?;
            self.pages.push(right_pid);
            let sep = right_keys[0].clone();
            let right = Node::Leaf {
                keys: right_keys,
                rids: right_rids,
                next: *next,
            };
            let left = Node::Leaf {
                keys: keys[..mid].to_vec(),
                rids: rids[..mid].to_vec(),
                next: right_pid,
            };
            self.write_node(pool, right_pid, &right)?;
            self.write_node(pool, pid, &left)?;
            return Ok(Some((sep, right_pid)));
        }
        let Some((sep, new_child)) = self.insert_rec(pool, point.child, key, rid)? else {
            return Ok(None);
        };
        if point.end + sep.encoded_len() + CHILD_BYTES <= page_size {
            let mut entry = Vec::with_capacity(sep.encoded_len() + CHILD_BYTES);
            sep.encode(&mut entry);
            entry.extend_from_slice(&new_child.0.to_le_bytes());
            Self::splice(pool, pid, point.at, point.end, &entry)?;
            return Ok(None);
        }
        let Some(Node::Internal {
            mut keys,
            mut children,
        }) = point.whole
        else {
            return Err(MqError::Internal(
                "btree internal node must split but was not read whole".into(),
            ));
        };
        let idx = keys.partition_point(|k| k <= key);
        keys.insert(idx, sep);
        children.insert(idx + 1, new_child);
        // Split the internal node; the median key moves up.
        let mid = keys.len() / 2;
        let promote = keys[mid].clone();
        let right = Node::Internal {
            keys: keys[mid + 1..].to_vec(),
            children: children[mid + 1..].to_vec(),
        };
        let left = Node::Internal {
            keys: keys[..mid].to_vec(),
            children: children[..=mid].to_vec(),
        };
        let right_pid = pool.alloc_page()?;
        self.pages.push(right_pid);
        self.write_node(pool, right_pid, &right)?;
        self.write_node(pool, pid, &left)?;
        Ok(Some((promote, right_pid)))
    }

    fn find_leaf(&self, pool: &BufferPool, key: Option<&Value>) -> Result<PageId> {
        let mut pid = self.root;
        loop {
            let child = pool.with_page(pid, |data| {
                let node = NodeView::parse(data)?;
                // For lookups we must reach the *first* leaf that could
                // contain the key, so descend left of equal separators
                // (duplicates may span nodes): follow the child right
                // of the last separator strictly below the key.
                let mut child = node.first;
                node.walk(key, |e| {
                    if e.ord == Ordering::Greater {
                        child = e.page;
                    }
                    Ok(())
                })?;
                Ok::<_, MqError>((!node.leaf).then_some(child))
            })??;
            match child {
                Some(c) => pid = c,
                None => return Ok(pid),
            }
        }
    }

    /// All rids with key exactly equal to `key`.
    pub fn lookup(&self, pool: &BufferPool, key: &Value) -> Result<Vec<Rid>> {
        let mut out = Vec::new();
        let mut pid = self.find_leaf(pool, Some(key))?;
        loop {
            // The leaf's next link, how its last key compares with the
            // probe, and whether it holds a key above the probe.
            let (next, last, past) = pool.with_page(pid, |data| {
                let node = NodeView::parse(data)?;
                let (mut last, mut past) = (None, false);
                node.walk(Some(key), |e| {
                    match e.ord {
                        Ordering::Equal => out.push(e.rid()),
                        Ordering::Less => past = true,
                        Ordering::Greater => {}
                    }
                    last = Some(e.ord);
                    Ok(())
                })?;
                if !node.leaf {
                    return Err(not_a_leaf());
                }
                Ok((node.first, last, past))
            })??;
            if !next.is_valid() || past {
                break; // ran past the key within this leaf
            }
            // We consumed the leaf to its end. Continue right when the
            // run may extend (last key == key), or when `find_leaf`
            // descended left of an equal separator and the key actually
            // starts in a following leaf (every key here < key).
            let may_continue = match last {
                None | Some(Ordering::Equal) => true,
                Some(Ordering::Greater) => out.is_empty(),
                Some(Ordering::Less) => false,
            };
            if !may_continue {
                break;
            }
            pid = next;
        }
        Ok(out)
    }

    /// All rids with `lo ≤ key ≤ hi` (bounds optional), in key order.
    pub fn range(
        &self,
        pool: &BufferPool,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<Vec<Rid>> {
        let mut out = Vec::new();
        let mut pid = self.find_leaf(pool, lo)?;
        loop {
            let (next, done) = pool.with_page(pid, |data| {
                let node = NodeView::parse(data)?;
                let mut done = false;
                node.walk(lo, |e| {
                    // Skip keys below `lo`; stop at the first above `hi`.
                    if done || e.ord == Ordering::Greater {
                        return Ok(());
                    }
                    if let Some(hi) = hi {
                        if hi.cmp_encoded(e.key)?.0 == Ordering::Less {
                            done = true;
                            return Ok(());
                        }
                    }
                    out.push(e.rid());
                    Ok(())
                })?;
                if !node.leaf {
                    return Err(not_a_leaf());
                }
                Ok((node.first, done))
            })??;
            if done || !next.is_valid() {
                return Ok(out);
            }
            pid = next;
        }
    }

    /// Walk the whole tree checking structural invariants; returns the
    /// total key count. Test/diagnostic helper.
    pub fn check_invariants(&self, pool: &BufferPool) -> Result<usize> {
        fn walk(
            pool: &BufferPool,
            pid: PageId,
            depth: usize,
            lo: Option<&Value>,
            hi: Option<&Value>,
        ) -> Result<(usize, usize)> {
            match pool.with_page(pid, Node::decode)?? {
                Node::Leaf { keys, rids, .. } => {
                    if keys.len() != rids.len() {
                        return Err(MqError::Internal("leaf arity mismatch".into()));
                    }
                    for w in keys.windows(2) {
                        if w[0] > w[1] {
                            return Err(MqError::Internal("leaf keys unsorted".into()));
                        }
                    }
                    for k in &keys {
                        if let Some(lo) = lo {
                            if k < lo {
                                return Err(MqError::Internal("key below subtree bound".into()));
                            }
                        }
                        if let Some(hi) = hi {
                            if k > hi {
                                return Err(MqError::Internal("key above subtree bound".into()));
                            }
                        }
                    }
                    Ok((keys.len(), depth))
                }
                Node::Internal { keys, children } => {
                    if children.len() != keys.len() + 1 {
                        return Err(MqError::Internal("internal arity mismatch".into()));
                    }
                    let mut count = 0;
                    let mut leaf_depth = None;
                    for (i, child) in children.iter().enumerate() {
                        let child_lo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                        let child_hi = if i == keys.len() { hi } else { Some(&keys[i]) };
                        let (c, d) = walk(pool, *child, depth + 1, child_lo, child_hi)?;
                        count += c;
                        match leaf_depth {
                            None => leaf_depth = Some(d),
                            Some(ld) if ld != d => {
                                return Err(MqError::Internal("leaves at unequal depth".into()))
                            }
                            _ => {}
                        }
                    }
                    Ok((count, leaf_depth.unwrap_or(depth)))
                }
            }
        }
        let (count, _) = walk(pool, self.root, 1, None, None)?;
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimDisk;
    use mq_common::{DetRng, SimClock};
    use std::sync::Arc;

    fn pool() -> Arc<BufferPool> {
        let disk = Arc::new(SimDisk::new(512, SimClock::new()));
        Arc::new(BufferPool::new(disk, 64))
    }

    fn rid(i: u64) -> Rid {
        Rid::new(PageId(i), (i % 7) as u16)
    }

    #[test]
    fn sequential_inserts_and_lookups() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        for i in 0..2000i64 {
            t.insert(&pool, &Value::Int(i), rid(i as u64)).unwrap();
        }
        assert!(t.height() > 1, "tree should have split");
        assert_eq!(t.check_invariants(&pool).unwrap(), 2000);
        for i in [0i64, 1, 999, 1999] {
            let hits = t.lookup(&pool, &Value::Int(i)).unwrap();
            assert_eq!(hits, vec![rid(i as u64)], "key {i}");
        }
        assert!(t.lookup(&pool, &Value::Int(5000)).unwrap().is_empty());
    }

    #[test]
    fn random_inserts_stay_sorted() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        let mut rng = DetRng::new(99);
        let mut keys: Vec<i64> = (0..3000).collect();
        rng.shuffle(&mut keys);
        for &k in &keys {
            t.insert(&pool, &Value::Int(k), rid(k as u64)).unwrap();
        }
        assert_eq!(t.check_invariants(&pool).unwrap(), 3000);
        let all = t.range(&pool, None, None).unwrap();
        assert_eq!(all.len(), 3000);
    }

    #[test]
    fn duplicates_across_leaves() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        // 500 copies of one key forces the run across several leaves.
        for i in 0..500u64 {
            t.insert(&pool, &Value::Int(42), rid(i)).unwrap();
        }
        for i in 0..100u64 {
            t.insert(&pool, &Value::Int(41), rid(1000 + i)).unwrap();
            t.insert(&pool, &Value::Int(43), rid(2000 + i)).unwrap();
        }
        let hits = t.lookup(&pool, &Value::Int(42)).unwrap();
        assert_eq!(hits.len(), 500);
        assert_eq!(t.lookup(&pool, &Value::Int(41)).unwrap().len(), 100);
        t.check_invariants(&pool).unwrap();
    }

    #[test]
    fn range_scans() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        for i in 0..1000i64 {
            t.insert(&pool, &Value::Int(i * 2), rid(i as u64)).unwrap();
        }
        // [100, 200] inclusive over even keys → 51 hits.
        let hits = t
            .range(&pool, Some(&Value::Int(100)), Some(&Value::Int(200)))
            .unwrap();
        assert_eq!(hits.len(), 51);
        // Open-ended ranges.
        assert_eq!(
            t.range(&pool, Some(&Value::Int(1900)), None).unwrap().len(),
            50
        );
        assert_eq!(
            t.range(&pool, None, Some(&Value::Int(99))).unwrap().len(),
            50
        );
        // Empty range.
        assert!(t
            .range(&pool, Some(&Value::Int(2001)), Some(&Value::Int(3000)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn string_keys() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        let words = ["mexico", "brazil", "japan", "france", "india", "canada"];
        for (i, w) in words.iter().enumerate() {
            for j in 0..50u64 {
                t.insert(&pool, &Value::str(*w), rid(i as u64 * 100 + j))
                    .unwrap();
            }
        }
        assert_eq!(t.lookup(&pool, &Value::str("japan")).unwrap().len(), 50);
        assert!(t.lookup(&pool, &Value::str("peru")).unwrap().is_empty());
        t.check_invariants(&pool).unwrap();
    }

    #[test]
    fn empty_tree() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        assert!(t.lookup(&pool, &Value::Int(1)).unwrap().is_empty());
        assert!(t.range(&pool, None, None).unwrap().is_empty());
        assert_eq!(t.check_invariants(&pool).unwrap(), 0);
    }

    #[test]
    fn every_unique_key_findable() {
        // Regression: keys equal to internal separators live in the
        // *right* leaf; lookup must not lose them.
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        let n = 5000i64;
        for i in 0..n {
            t.insert(&pool, &Value::Int(i), rid(i as u64)).unwrap();
        }
        for i in 0..n {
            let hits = t.lookup(&pool, &Value::Int(i)).unwrap();
            assert_eq!(hits, vec![rid(i as u64)], "key {i} lost");
        }
    }

    #[test]
    fn truncated_node_is_an_error_not_a_panic() {
        assert_eq!(Node::decode(&[]).unwrap_err().kind(), "storage");
        // Header claims 5 keys but the body is missing.
        assert_eq!(Node::decode(&[1, 5, 0]).unwrap_err().kind(), "storage");
    }

    /// A probing walk — what lookups, range scans and inserts run —
    /// fails on exactly the damaged pages a whole-node decode fails
    /// on, with the same error, for leaves and internal nodes alike.
    #[test]
    fn probing_walk_rejects_what_decode_rejects() {
        let keys = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(2.5),
            Value::Date(9),
            Value::str("née"),
        ];
        let nodes = [
            Node::Leaf {
                rids: (0..keys.len() as u64).map(rid).collect(),
                keys: keys.clone(),
                next: PageId(77),
            },
            Node::Internal {
                children: (0..=keys.len() as u64).map(PageId).collect(),
                keys,
            },
        ];
        let probe = Value::Int(1);
        let walk = |d: &[u8]| NodeView::parse(d)?.walk(Some(&probe), |_| Ok(()));
        for node in &nodes {
            let mut page = vec![0u8; node.encoded_size()];
            node.encode(&mut page);
            assert_eq!(walk(&page), Ok(page.len()));
            for cut in 0..page.len() {
                let d = &page[..cut];
                assert_eq!(walk(d).err(), Node::decode(d).err(), "cut at {cut}");
            }
            for i in 0..page.len() {
                for flip in [0x01, 0x80, 0xff] {
                    let mut d = page.clone();
                    d[i] ^= flip;
                    let ok = Node::decode(&d).map(|_| ());
                    assert_eq!(walk(&d).map(|_| ()), ok, "byte {i} ^ {flip:#x}");
                }
            }
        }
    }

    #[test]
    fn tracks_every_allocated_page() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        for i in 0..2000i64 {
            t.insert(&pool, &Value::Int(i), rid(i as u64)).unwrap();
        }
        assert!(t.page_count() > 1, "tree split across pages");
        // The tree is the only allocator on this disk, so its page
        // list must account for every allocated page.
        assert_eq!(t.page_count(), pool.disk().allocated_pages());
    }

    #[test]
    fn oversized_key_rejected() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        let huge = Value::str("k".repeat(400));
        assert!(t.insert(&pool, &huge, rid(0)).is_err());
    }

    /// Freezes the tree's physical behaviour: a seeded 3000-insert run
    /// of mixed keys (every value type, numerically equal `Int`/`Float`
    /// pairs, duplicate runs) through an 8-frame pool, then lookups and
    /// range scans, then a flush. The page bytes, the disk I/O and the
    /// pool's hit/miss counts are pinned, so any change to how nodes
    /// are read or written — their bytes, or the number and order of
    /// buffer-pool accesses — shows here.
    #[test]
    fn page_bytes_and_pool_traffic_are_pinned() {
        let clock = SimClock::new();
        let pool = BufferPool::new(Arc::new(SimDisk::new(512, clock.clone())), 8);
        let mut t = BTree::create(&pool).unwrap();
        let mut rng = DetRng::new(20);
        let key = |rng: &mut DetRng| match rng.gen_range(6) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Int(rng.gen_i64(-40, 40)),
            3 => Value::Float(rng.gen_i64(-80, 80) as f64 / 2.0),
            4 => Value::Date(rng.gen_i64(0, 60)),
            _ => Value::str(format!("key{}", rng.gen_range(90))),
        };
        for i in 0..3000u64 {
            let k = key(&mut rng);
            t.insert(&pool, &k, rid(i)).unwrap();
        }
        assert!(t.height() >= 3, "an internal node must have split");
        assert!(
            clock.snapshot().pages_written > 0,
            "evictions must have written dirty pages back"
        );
        assert_eq!(t.check_invariants(&pool).unwrap(), 3000);
        let mut found = 0;
        for _ in 0..300 {
            found += t.lookup(&pool, &key(&mut rng)).unwrap().len();
        }
        for _ in 0..30 {
            let (a, b) = (key(&mut rng), key(&mut rng));
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            found += t.range(&pool, Some(&lo), Some(&hi)).unwrap().len();
            found += t.range(&pool, Some(&lo), None).unwrap().len();
            found += t.range(&pool, None, Some(&hi)).unwrap().len();
        }
        pool.flush_all().unwrap();
        let io = clock.snapshot();
        let (hits, misses) = pool.hit_stats();
        // FNV-1a over every tree page, in allocation order.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &pid in t.pages() {
            for &b in pool.disk().read(pid).unwrap().iter() {
                hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(
            (t.page_count(), t.height(), found),
            (162, 3, 205_094),
            "tree shape or query results changed"
        );
        assert_eq!(
            (io.pages_read, io.pages_written, hits, misses),
            (14_173, 2_425, 9_371, 14_173),
            "disk I/O or buffer-pool traffic changed"
        );
        assert_eq!(hash, 0x764b_3f57_b6a6_9e10, "index page bytes changed");
    }
}
