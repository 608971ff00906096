//! Property tests: the B+-tree against `BTreeMap` and sorted-`Vec`
//! models, heap files against a `Vec` model, and the buffer pool
//! against direct storage.

use std::collections::BTreeMap;
use std::sync::Arc;

use mq_common::{EngineConfig, PageId, Rid, Row, SimClock, Value};
use mq_storage::btree::BTree;
use mq_storage::buffer::BufferPool;
use mq_storage::disk::SimDisk;
use mq_storage::Storage;
use proptest::prelude::*;

fn storage() -> Storage {
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        page_size: 512,
        ..EngineConfig::default()
    };
    Storage::new(&cfg, SimClock::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A heap file returns exactly the rows appended, in order.
    #[test]
    fn heap_file_is_a_log(values in prop::collection::vec(any::<i64>(), 0..300)) {
        let st = storage();
        let f = st.create_file();
        for &v in &values {
            st.append_row(f, &Row::new(vec![Value::Int(v)])).unwrap();
        }
        let back: Vec<i64> = st
            .scan_file(f)
            .unwrap()
            .map(|r| r.unwrap().1.get(0).as_i64().unwrap())
            .collect();
        prop_assert_eq!(back, values);
    }

    /// B+-tree lookups and range scans agree with a BTreeMap model,
    /// including duplicate keys.
    #[test]
    fn btree_matches_model(
        keys in prop::collection::vec(-200i64..200, 1..400),
        probes in prop::collection::vec(-250i64..250, 1..30),
        ranges in prop::collection::vec((-250i64..250, -250i64..250), 1..10),
    ) {
        let st = storage();
        let f = st.create_file();
        let idx = st.create_index().unwrap();
        let mut model: BTreeMap<i64, Vec<mq_common::Rid>> = BTreeMap::new();
        for &k in &keys {
            let rid = st.append_row(f, &Row::new(vec![Value::Int(k)])).unwrap();
            st.index_insert(idx, &Value::Int(k), rid).unwrap();
            model.entry(k).or_default().push(rid);
        }
        for &p in &probes {
            let mut got = st.index_lookup(idx, &Value::Int(p)).unwrap();
            let mut expect = model.get(&p).cloned().unwrap_or_default();
            got.sort();
            expect.sort();
            prop_assert_eq!(got, expect, "lookup {}", p);
        }
        for &(a, b) in &ranges {
            let (lo, hi) = (a.min(b), a.max(b));
            let mut got = st
                .index_range(idx, Some(&Value::Int(lo)), Some(&Value::Int(hi)))
                .unwrap();
            let mut expect: Vec<_> = model
                .range(lo..=hi)
                .flat_map(|(_, rids)| rids.iter().copied())
                .collect();
            got.sort();
            expect.sort();
            prop_assert_eq!(got, expect, "range {}..={}", lo, hi);
        }
    }

    /// Every appended row is fetchable by rid even after heavy buffer
    /// pool churn from scanning other files.
    #[test]
    fn fetch_survives_pool_churn(n in 1usize..200) {
        let st = storage();
        let f = st.create_file();
        let mut rids = Vec::new();
        for i in 0..n {
            rids.push(
                st.append_row(f, &Row::new(vec![Value::Int(i as i64)])).unwrap(),
            );
        }
        // Churn: a second file big enough to evict everything.
        let g = st.create_file();
        for i in 0..500i64 {
            st.append_row(g, &Row::new(vec![Value::Int(i), Value::str("churnchurn")]))
                .unwrap();
        }
        let _ = st.scan_file(g).unwrap().count();
        for (i, rid) in rids.iter().enumerate() {
            let row = st.fetch(*rid).unwrap();
            prop_assert_eq!(row.get(0).as_i64(), Some(i as i64));
        }
    }

    /// String keys work in the tree and preserve lexicographic ranges.
    #[test]
    fn btree_string_ranges(words in prop::collection::vec("[a-z]{1,8}", 1..150)) {
        let st = storage();
        let f = st.create_file();
        let idx = st.create_index().unwrap();
        let mut sorted = words.clone();
        sorted.sort();
        for w in &words {
            let rid = st.append_row(f, &Row::new(vec![Value::str(w.as_str())])).unwrap();
            st.index_insert(idx, &Value::str(w.as_str()), rid).unwrap();
        }
        let all = st.index_range(idx, None, None).unwrap();
        prop_assert_eq!(all.len(), words.len());
        // Keys come back in sorted order.
        let keys: Vec<String> = all
            .iter()
            .map(|r| st.fetch(*r).unwrap().get(0).as_str().unwrap().to_string())
            .collect();
        prop_assert_eq!(keys, sorted);
    }
}

/// Index keys of every type, drawn from small domains so they tie
/// often: `Int`, `Float` and `Date` share numbers (`Int(2)` equals
/// `Float(2.0)`), and strings come from three letters.
fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-12i64..12).prop_map(Value::Int),
        (-24i64..24).prop_map(|h| Value::Float(h as f64 / 2.0)),
        (-12i64..12).prop_map(Value::Date),
        "[a-c]{0,5}".prop_map(Value::str),
    ]
}

/// A model of the tree: every `(key, rid)` in key order, equal keys in
/// insertion order (the tree inserts after every equal key).
fn model_range(model: &[(Value, Rid)], lo: Option<&Value>, hi: Option<&Value>) -> Vec<Rid> {
    model
        .iter()
        .filter(|(k, _)| lo.is_none_or(|lo| k >= lo) && hi.is_none_or(|hi| k <= hi))
        .map(|(_, r)| *r)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On 512-byte pages through a 16-frame pool, with mixed-type keys
    /// inserted in duplicate runs long enough to span several leaves,
    /// `lookup` and `range` (both bounds, one, or none) return exactly
    /// what a sorted `Vec` holds, and the tree's invariants hold.
    #[test]
    fn btree_matches_sorted_vec_on_mixed_keys(
        runs in prop::collection::vec((arb_key(), 1usize..60), 1..40),
        probes in prop::collection::vec(arb_key(), 1..20),
        bounds in prop::collection::vec((arb_key(), arb_key()), 1..12),
    ) {
        let pool = BufferPool::new(Arc::new(SimDisk::new(512, SimClock::new())), 16);
        let mut tree = BTree::create(&pool).unwrap();
        let mut model: Vec<(Value, Rid)> = Vec::new();
        for (key, len) in &runs {
            for _ in 0..*len {
                let n = model.len() as u64;
                let rid = Rid::new(PageId(n / 8), (n % 8) as u16);
                tree.insert(&pool, key, rid).unwrap();
                model.push((key.clone(), rid));
            }
        }
        // Stable: equal keys keep their insertion order.
        model.sort_by(|a, b| a.0.cmp(&b.0));
        prop_assert_eq!(tree.check_invariants(&pool).unwrap(), model.len());
        prop_assert_eq!(tree.range(&pool, None, None).unwrap(), model_range(&model, None, None));
        for key in probes.iter().chain(runs.iter().map(|(k, _)| k)) {
            let expect = model_range(&model, Some(key), Some(key));
            prop_assert_eq!(tree.lookup(&pool, key).unwrap(), expect, "lookup {}", key);
        }
        for (lo, hi) in &bounds {
            for (lo, hi) in [(Some(lo), Some(hi)), (Some(lo), None), (None, Some(hi))] {
                prop_assert_eq!(
                    tree.range(&pool, lo, hi).unwrap(),
                    model_range(&model, lo, hi),
                    "range {:?}..={:?}", lo, hi
                );
            }
        }
    }
}
