//! Property-based tests for the core value types.

use std::cmp::Ordering;

use mq_common::value::{civil_to_days, days_to_civil};
use mq_common::{Columns, RecordWalk, Row, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks equality on purpose elsewhere.
        (-1e12f64..1e12).prop_map(Value::Float),
        (-1_000_000i64..1_000_000).prop_map(Value::Date),
        "[a-zA-Z0-9 _-]{0,40}".prop_map(Value::str),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), 0..12).prop_map(Row::new)
}

/// Rows whose strings mix 1- to 4-byte UTF-8 sequences, so byte flips
/// and truncations land inside multi-byte characters too.
fn arb_wide_row() -> impl Strategy<Value = Row> {
    let value = prop_oneof![
        arb_value(),
        "[a-zé-ÿα-ω€-₿😀-😊]{0,12}".prop_map(Value::str),
    ];
    prop::collection::vec(value, 0..8).prop_map(Row::new)
}

/// The row decoders must agree on `bytes`: `validate` succeeds with
/// `decode`'s length or fails with its exact error, and the borrowed
/// walk (`RecordWalk::read`) fails exactly when `decode` fails, with the
/// same error, and otherwise yields `decode`'s value in every column
/// and `try_get`'s error past the last one.
fn decoders_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let full = Row::decode(bytes);
    let used = full.as_ref().map(|(_, n)| *n).map_err(Clone::clone);
    prop_assert_eq!(&Row::validate(bytes), &used);
    let walked = RecordWalk::default().read(bytes, |cols| {
        Ok((Row::from_raw(cols), cols.column(cols.len()).unwrap_err()))
    });
    let want = full.map(|(row, _)| {
        let past = row.try_get(row.len()).unwrap_err();
        (row, past)
    });
    prop_assert_eq!(walked, want);
    Ok(())
}

/// Keys that often tie: small numbers shared by `Int`, `Float` and
/// `Date` (so `Int(2)` meets `Float(2.0)`), both booleans, short
/// strings over two letters, and NULL — plus every shape of
/// [`arb_value`].
fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_value(),
        (-3i64..3).prop_map(Value::Int),
        (-6i64..6).prop_map(|h| Value::Float(h as f64 / 2.0)),
        (-3i64..3).prop_map(Value::Date),
        "[ab]{0,3}".prop_map(Value::str),
        "[aé😀]{0,3}".prop_map(Value::str),
    ]
}

/// `cmp_encoded` must agree with decoding then comparing: on `bytes`
/// it yields `probe.cmp(&decoded)` and the decoded length, or
/// `decode`'s exact error.
fn cmp_encoded_agrees(probe: &Value, bytes: &[u8]) -> Result<(), TestCaseError> {
    let expect = Value::decode(bytes).map(|(v, used)| (probe.cmp(&v), used));
    prop_assert_eq!(probe.cmp_encoded(bytes), expect);
    Ok(())
}

proptest! {
    /// Every value round-trips through the binary encoding.
    #[test]
    fn value_encode_roundtrip(v in arb_value()) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        prop_assert_eq!(buf.len(), v.encoded_len());
        let (back, used) = Value::decode(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(used, buf.len());
    }

    /// Rows round-trip, including empty rows and NULL-heavy rows.
    #[test]
    fn row_encode_roundtrip(r in arb_row()) {
        let bytes = r.to_bytes();
        prop_assert_eq!(bytes.len(), r.encoded_len());
        let (back, used) = Row::decode(&bytes).unwrap();
        prop_assert_eq!(back, r);
        prop_assert_eq!(used, bytes.len());
    }

    /// `Value::skip` steps over exactly what `Value::decode` reads, and
    /// fails with its error on every truncation.
    #[test]
    fn value_skip_matches_decode(v in arb_value()) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        for cut in 0..=buf.len() {
            let b = &buf[..cut];
            let decoded = Value::decode(b).map(|(_, n)| n);
            prop_assert_eq!(Value::skip(b), decoded);
        }
    }

    /// On valid encodings, the borrowed walk yields `decode`'s values
    /// in every column and `validate` its length.
    #[test]
    fn row_decoders_agree_on_valid_rows(r in arb_wide_row()) {
        let bytes = r.to_bytes();
        prop_assert_eq!(Row::validate(&bytes), Ok(bytes.len()));
        decoders_agree(&bytes)?;
    }

    /// Under every truncation and every single-byte flip of a valid
    /// encoding, `validate` and the borrowed walk fail exactly when
    /// `decode` does, with the same error.
    #[test]
    fn row_decoders_agree_on_damaged_rows(r in arb_wide_row(), flip in 1u32..256) {
        let bytes = r.to_bytes();
        for cut in 0..bytes.len() {
            decoders_agree(&bytes[..cut])?;
        }
        let mut damaged = bytes.clone();
        for i in 0..damaged.len() {
            damaged[i] ^= flip as u8;
            decoders_agree(&damaged)?;
            damaged[i] = bytes[i];
        }
    }

    /// On a valid encoding, followed by the bytes of whatever comes
    /// next in a page, `cmp_encoded` orders the probe exactly as `Ord`
    /// orders it against the decoded value and reports the value's
    /// length.
    #[test]
    fn cmp_encoded_orders_like_decode(
        probe in arb_key(),
        v in arb_key(),
        tail in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        buf.extend_from_slice(&tail);
        prop_assert_eq!(
            probe.cmp_encoded(&buf),
            Ok((probe.cmp(&v), v.encoded_len()))
        );
        cmp_encoded_agrees(&probe, &buf)?;
        prop_assert_eq!(v.cmp_encoded(&buf).map(|(o, _)| o), Ok(Ordering::Equal));
    }

    /// Under every truncation and every single-byte flip of a valid
    /// encoding, `cmp_encoded` fails exactly when `decode` does, with
    /// the same error, and otherwise agrees with it.
    #[test]
    fn cmp_encoded_fails_like_decode(
        probe in arb_key(),
        v in arb_key(),
        flip in 1u32..256,
    ) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        for cut in 0..buf.len() {
            cmp_encoded_agrees(&probe, &buf[..cut])?;
        }
        let mut damaged = buf.clone();
        for i in 0..damaged.len() {
            damaged[i] ^= flip as u8;
            cmp_encoded_agrees(&probe, &damaged)?;
            damaged[i] = buf[i];
        }
    }

    /// Decoding arbitrary garbage never panics (errors are fine).
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Value::decode(&bytes);
        let _ = Value::skip(&bytes);
        let _ = Value::Int(0).cmp_encoded(&bytes);
        let _ = Row::decode(&bytes);
        let _ = Row::validate(&bytes);
        let _ = RecordWalk::default().read(&bytes, |cols| Ok(Row::from_raw(cols)));
    }

    /// The total order is consistent: sorting twice gives the same
    /// result, equal values compare equal after a roundtrip, and the
    /// order is antisymmetric.
    #[test]
    fn value_order_is_total(mut vs in prop::collection::vec(arb_value(), 0..30)) {
        let mut once = vs.clone();
        once.sort();
        vs.sort();
        vs.sort();
        prop_assert_eq!(once, vs.clone());
        for w in vs.windows(2) {
            prop_assert!(w[0] <= w[1]);
            if w[0] == w[1] {
                prop_assert!((w[0] >= w[1]));
            }
        }
    }

    /// Hash agrees with equality (the hash-join contract).
    #[test]
    fn hash_agrees_with_eq(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    /// Civil-date conversion round-trips for every day in ±1 My range.
    #[test]
    fn civil_roundtrip(z in -1_000_000i64..1_000_000) {
        let (y, m, d) = days_to_civil(z);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
        prop_assert_eq!(civil_to_days(y, m, d), z);
    }

    /// SQL comparison is antisymmetric when defined.
    #[test]
    fn sql_cmp_antisymmetric(a in arb_value(), b in arb_value()) {
        if let (Some(x), Some(y)) = (a.sql_cmp(&b), b.sql_cmp(&a)) {
            prop_assert_eq!(x, y.reverse());
        }
    }

    /// Arithmetic with NULL yields NULL; with finite floats it matches
    /// f64 semantics.
    #[test]
    fn null_propagates(v in arb_value()) {
        prop_assert!(Value::Null.add(&v).unwrap().is_null());
        prop_assert!(v.mul(&Value::Null).unwrap().is_null());
    }

    /// Projection preserves the selected values.
    #[test]
    fn row_project(r in arb_row()) {
        if r.is_empty() { return Ok(()); }
        let idx: Vec<usize> = (0..r.len()).rev().collect();
        let p = r.project(&idx);
        for (out_pos, &src) in idx.iter().enumerate() {
            prop_assert_eq!(p.get(out_pos), r.get(src));
        }
    }
}
