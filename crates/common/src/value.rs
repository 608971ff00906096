//! Runtime values and their data types.
//!
//! [`Value`] is the single dynamic value representation used by the
//! executor, the statistics subsystem and the optimizer's constant
//! folding. It supports a *total* ordering (floats compare with
//! `total_cmp`, `Null` sorts first) so values can key B+-trees and
//! external sorts without panics, SQL-style numeric comparison across
//! `Int`/`Float`, stable hashing for hash joins, and a compact binary
//! encoding for slotted pages.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{MqError, Result};

/// The logical type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Calendar date, stored as days since 1970-01-01 (can be negative).
    Date,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Date => "DATE",
            DataType::Str => "VARCHAR",
        };
        f.write_str(s)
    }
}

/// A dynamically-typed runtime value.
///
/// Strings are reference-counted so copying rows through operator
/// pipelines does not reallocate.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Sorts before every non-null value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Days since the Unix epoch.
    Date(i64),
    /// UTF-8 string.
    Str(Arc<str>),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// The value's data type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Date(_) => Some(DataType::Date),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Whether this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, used by histograms and the Zipf
    /// generator. Strings map through a stable 8-byte prefix so ordered
    /// operations over them remain monotone.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(*d as f64),
            Value::Str(s) => Some(str_rank(s)),
        }
    }

    /// Integer view, for key columns.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Date(d) => Some(*d),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view (used by predicate evaluation; NULL is not true).
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// SQL three-valued comparison. Returns `None` when either side is
    /// NULL or the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(a.total_cmp(b)),
            (Int(a), Float(b)) => Some((*a as f64).total_cmp(b)),
            (Float(a), Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Date(a), Int(b)) | (Int(a), Date(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => None,
        }
    }

    /// Arithmetic addition with SQL NULL propagation.
    pub fn add(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Arithmetic subtraction with SQL NULL propagation.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Arithmetic multiplication with SQL NULL propagation.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Arithmetic division; integer division by zero is an error, float
    /// division by zero yields IEEE infinities.
    pub fn div(&self, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(_), Int(0)) => Err(MqError::Execution("integer division by zero".into())),
            (Int(a), Int(b)) => Ok(Int(a / b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Ok(Float(x / y)),
                _ => Err(MqError::TypeMismatch(format!("{a} / {b}"))),
            },
        }
    }

    /// Size of the encoded form in bytes; used for tuple-size statistics
    /// and page space accounting.
    pub fn encoded_len(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) | Value::Date(_) => 9,
            Value::Str(s) => 1 + 4 + s.len(),
        }
    }

    /// Append the binary encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Date(d) => {
                out.push(4);
                out.extend_from_slice(&d.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(5);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// Decode one value from `buf`, returning it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Value, usize)> {
        let (raw, used) = RawValue::read(buf)?;
        Ok((raw.into_value(), used))
    }

    /// Step over one encoded value without building it, returning the
    /// bytes it occupies. Applies exactly the checks of
    /// [`Value::decode`] (tag, bounds, UTF-8) and fails exactly when
    /// it does, but allocates nothing.
    pub fn skip(buf: &[u8]) -> Result<usize> {
        RawValue::read(buf).map(|(_, used)| used)
    }
}

/// One checked value read in place: strings borrow the encoding.
/// [`Value::decode`], [`Value::skip`] and the row decoders all walk the
/// encoding through [`RawValue::read`], so they accept and reject the
/// same bytes with the same errors.
pub(crate) enum RawValue<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Date(i64),
    Str(&'a str),
}

impl<'a> RawValue<'a> {
    /// Read and check one value, returning it and the bytes consumed.
    #[inline(always)]
    pub(crate) fn read(buf: &'a [u8]) -> Result<(RawValue<'a>, usize)> {
        let tag = *buf
            .first()
            .ok_or_else(|| MqError::Storage("empty value encoding".into()))?;
        let need = |n: usize| -> Result<&'a [u8]> {
            buf.get(1..1 + n)
                .ok_or_else(|| MqError::Storage("truncated value encoding".into()))
        };
        let word = |b: &[u8]| -> [u8; 8] { b.try_into().expect("need(8) yields 8 bytes") };
        match tag {
            0 => Ok((RawValue::Null, 1)),
            1 => Ok((RawValue::Bool(need(1)?[0] != 0), 2)),
            2 => Ok((RawValue::Int(i64::from_le_bytes(word(need(8)?))), 9)),
            3 => Ok((RawValue::Float(f64::from_le_bytes(word(need(8)?))), 9)),
            4 => Ok((RawValue::Date(i64::from_le_bytes(word(need(8)?))), 9)),
            5 => {
                let len_bytes: [u8; 4] = need(4)?.try_into().expect("need(4) yields 4 bytes");
                let len = u32::from_le_bytes(len_bytes) as usize;
                let bytes = buf
                    .get(5..5 + len)
                    .ok_or_else(|| MqError::Storage("truncated string encoding".into()))?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| MqError::Storage("invalid utf-8 in string value".into()))?;
                Ok((RawValue::Str(s), 5 + len))
            }
            t => Err(MqError::Storage(format!("unknown value tag {t}"))),
        }
    }

    /// Build the owned value (allocates only for strings).
    #[inline(always)]
    pub(crate) fn into_value(self) -> Value {
        match self {
            RawValue::Null => Value::Null,
            RawValue::Bool(b) => Value::Bool(b),
            RawValue::Int(i) => Value::Int(i),
            RawValue::Float(f) => Value::Float(f),
            RawValue::Date(d) => Value::Date(d),
            RawValue::Str(s) => Value::str(s),
        }
    }
}

/// A stable, order-preserving numeric rank for strings: the first eight
/// bytes interpreted big-endian. Monotone in the lexicographic order,
/// which is all histograms need.
fn str_rank(s: &str) -> f64 {
    let mut bytes = [0u8; 8];
    for (i, b) in s.as_bytes().iter().take(8).enumerate() {
        bytes[i] = *b;
    }
    u64::from_be_bytes(bytes) as f64
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    op: &str,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> Result<Value> {
    use Value::*;
    match (a, b) {
        (Null, _) | (_, Null) => Ok(Null),
        (Int(x), Int(y)) => int_op(*x, *y)
            .map(Int)
            .ok_or_else(|| MqError::Execution(format!("integer overflow in {x} {op} {y}"))),
        (Date(x), Int(y)) => int_op(*x, *y)
            .map(Date)
            .ok_or_else(|| MqError::Execution(format!("date overflow in {x} {op} {y}"))),
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => Ok(Float(float_op(x, y))),
            _ => Err(MqError::TypeMismatch(format!("{a} {op} {b}"))),
        },
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Total order used by sorts and B+-trees: NULL first, then by type
/// rank, then by value (floats via `total_cmp`, `Int`/`Float`/`Date`
/// compare numerically within the shared numeric rank).
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) | Value::Date(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                // Numeric family: compare exactly when both are integral.
                match (a, b) {
                    (Value::Int(x) | Value::Date(x), Value::Int(y) | Value::Date(y)) => x.cmp(y),
                    _ => a
                        .as_f64()
                        .unwrap_or(f64::NEG_INFINITY)
                        .total_cmp(&b.as_f64().unwrap_or(f64::NEG_INFINITY)),
                }
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// Hashing must agree with `Eq`: numeric-family values hash through a
/// canonical form so `Int(2)`, `Date(2)` and `Float(2.0)` collide with
/// the values they equal.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            Value::Int(i) | Value::Date(i) => {
                // Canonical numeric hashing: integral floats hash like ints.
                state.write_u8(2);
                state.write_i64(*i);
            }
            Value::Float(f) => {
                state.write_u8(2);
                if f.fract() == 0.0
                    && f.is_finite()
                    && *f >= i64::MIN as f64
                    && *f <= i64::MAX as f64
                {
                    state.write_i64(*f as i64);
                } else {
                    state.write_u64(f.to_bits());
                }
            }
            Value::Str(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Date(d) => {
                let (y, m, day) = days_to_civil(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

/// Convert a civil date to days since 1970-01-01 (Howard Hinnant's
/// `days_from_civil` algorithm).
pub fn civil_to_days(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64;
    let mp = ((m + 9) % 12) as u64;
    let doy = (153 * mp + 2) / 5 + d as u64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe as i64 - 719_468
}

/// Inverse of [`civil_to_days`].
pub fn days_to_civil(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Construct a `Value::Date` from a civil date.
pub fn date(y: i64, m: u32, d: u32) -> Value {
    Value::Date(civil_to_days(y, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn sql_cmp_basics() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(
            Value::str("abc").sql_cmp(&Value::str("abd")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_null_first() {
        let mut vals = [
            Value::str("z"),
            Value::Int(5),
            Value::Null,
            Value::Float(1.5),
            Value::Bool(true),
        ];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(true));
    }

    #[test]
    fn numeric_family_orders_consistently() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert_eq!(Value::Int(3), Value::Float(3.0));
    }

    #[test]
    fn hash_agrees_with_eq_for_numeric_family() {
        assert_eq!(h(&Value::Int(42)), h(&Value::Float(42.0)));
        assert_eq!(h(&Value::Int(42)), h(&Value::Date(42)));
        assert_ne!(h(&Value::Int(42)), h(&Value::Int(43)));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).mul(&Value::Float(1.5)).unwrap(),
            Value::Float(3.0)
        );
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-77),
            Value::Float(2.75),
            Value::Date(9000),
            Value::str("hello world"),
        ];
        for v in &vals {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(buf.len(), v.encoded_len());
            let (back, used) = Value::decode(&buf).unwrap();
            assert_eq!(&back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Value::decode(&[]).is_err());
        assert!(Value::decode(&[9]).is_err());
        assert!(Value::decode(&[2, 1, 2]).is_err()); // truncated int
        assert!(Value::decode(&[5, 4, 0, 0, 0, 0xff, 0xfe, 0x01, 0x02]).is_err());
        // bad utf8
    }

    #[test]
    fn civil_date_roundtrip() {
        assert_eq!(civil_to_days(1970, 1, 1), 0);
        assert_eq!(civil_to_days(1970, 1, 2), 1);
        for &(y, m, d) in &[
            (1992i64, 1u32, 1u32),
            (1998, 12, 31),
            (2000, 2, 29),
            (1995, 6, 17),
        ] {
            let days = civil_to_days(y, m, d);
            assert_eq!(days_to_civil(days), (y, m, d));
        }
    }

    #[test]
    fn date_display() {
        assert_eq!(date(1995, 3, 15).to_string(), "1995-03-15");
    }

    #[test]
    fn str_rank_is_monotone() {
        let words = ["", "a", "ab", "abc", "b", "ba", "zz"];
        for w in words.windows(2) {
            assert!(str_rank(w[0]) <= str_rank(w[1]), "{} vs {}", w[0], w[1]);
        }
    }
}
