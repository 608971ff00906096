//! Rows: the unit of data flowing between operators.

use std::fmt;

use crate::error::{MqError, Result};
use crate::value::{RawValue, Value};

/// A tuple of values. Operators pass rows by value; string payloads are
/// `Arc`-shared so cloning is cheap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Construct a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Column accessor.
    ///
    /// # Panics
    /// On an out-of-range index. Executor paths that consume plan- or
    /// catalog-derived indices should prefer [`Row::try_get`], which
    /// surfaces the mismatch as a typed error instead of unwinding
    /// mid-pipeline.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Column accessor returning a typed error when the row is
    /// narrower than the requested index (a malformed plan binding,
    /// never a user error — but one the engine should report, not
    /// panic over).
    #[inline]
    pub fn try_get(&self, idx: usize) -> Result<&Value> {
        self.values
            .get(idx)
            .ok_or_else(|| out_of_range(idx, self.values.len()))
    }

    /// Build a row from borrowed columns (see [`RecordWalk`]).
    pub fn from_raw(cols: &[RawValue<'_>]) -> Row {
        Row {
            values: cols.iter().map(|raw| raw.into_value()).collect(),
        }
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row { values }
    }

    /// Project columns by index.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Encoded size in bytes (matches [`Row::encode`] exactly).
    pub fn encoded_len(&self) -> usize {
        2 + self.values.iter().map(Value::encoded_len).sum::<usize>()
    }

    /// Append the binary encoding (column count then each value).
    pub fn encode(&self, out: &mut Vec<u8>) {
        debug_assert!(self.values.len() <= u16::MAX as usize);
        out.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            v.encode(out);
        }
    }

    /// Encode into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// Decode a row from `buf`, returning it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Row, usize)> {
        let n = arity(buf)?;
        let mut values = Vec::with_capacity(n);
        let used = walk(buf, n, |raw| values.push(raw.into_value()))?;
        Ok((Row { values }, used))
    }

    /// Check an encoded row without building it, returning the bytes it
    /// occupies. Fails exactly when [`Row::decode`] fails, with the same
    /// error, and allocates nothing.
    pub fn validate(buf: &[u8]) -> Result<usize> {
        walk(buf, arity(buf)?, |_| {})
    }
}

/// The error for reading column `idx` of a `len`-column row.
#[cold]
fn out_of_range(idx: usize, len: usize) -> MqError {
    MqError::Execution(format!(
        "column index {idx} out of range for a {len}-column row"
    ))
}

/// A row shape that expressions read columns from, borrowed: a built
/// [`Row`], or the columns of an encoded record read in place by
/// [`RecordWalk`]. Both give the same value for the same column and
/// the same error past the end.
pub trait Columns {
    /// Column `idx`, or [`Row::try_get`]'s error when the row is
    /// narrower.
    fn column(&self, idx: usize) -> Result<RawValue<'_>>;
}

impl Columns for Row {
    #[inline]
    fn column(&self, idx: usize) -> Result<RawValue<'_>> {
        self.try_get(idx).map(Value::raw)
    }
}

impl Columns for [RawValue<'_>] {
    #[inline]
    fn column(&self, idx: usize) -> Result<RawValue<'_>> {
        self.get(idx)
            .copied()
            .ok_or_else(|| out_of_range(idx, self.len()))
    }
}

/// Reads encoded records one at a time as borrowed columns, in one
/// checked walk each, reusing its column buffer from record to record.
/// A caller tests a record on the columns and builds its [`Row`] from
/// the same columns ([`Row::from_raw`]) only if it keeps it.
#[derive(Debug, Default)]
pub struct RecordWalk {
    /// Spare capacity only: empty between calls.
    cols: Vec<RawValue<'static>>,
}

impl RecordWalk {
    /// Read and check every column of the encoded row `rec`, then hand
    /// them to `f` and return its result. Fails exactly when
    /// [`Row::decode`] fails, with the same error, and then does not
    /// call `f`.
    pub fn read<'a, T>(
        &mut self,
        rec: &'a [u8],
        f: impl FnOnce(&[RawValue<'a>]) -> Result<T>,
    ) -> Result<T> {
        let mut cols = recycle(std::mem::take(&mut self.cols));
        let out = arity(rec)
            .and_then(|n| {
                cols.reserve(n);
                walk(rec, n, |raw| cols.push(raw))
            })
            .and_then(|_| f(&cols));
        self.cols = recycle(cols);
        out
    }
}

/// Empty `v` and retype it for borrows of another lifetime, keeping its
/// allocation (an in-place collect of an empty vector of a same-layout
/// type).
fn recycle<'b>(mut v: Vec<RawValue<'_>>) -> Vec<RawValue<'b>> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

/// The column count from a row encoding's header.
fn arity(buf: &[u8]) -> Result<usize> {
    buf.get(..2)
        .map(|b| u16::from_le_bytes([b[0], b[1]]) as usize)
        .ok_or_else(|| MqError::Storage("truncated row header".into()))
}

/// The one walker behind [`Row::decode`], [`Row::validate`] and
/// [`RecordWalk::read`]: reads and checks the `n` values after the
/// header in turn, handing each to `column`. Returns the bytes
/// consumed.
#[inline]
fn walk<'a>(buf: &'a [u8], n: usize, mut column: impl FnMut(RawValue<'a>)) -> Result<usize> {
    let mut off = 2;
    for _ in 0..n {
        let (raw, used) = RawValue::read(&buf[off..])?;
        column(raw);
        off += used;
    }
    Ok(off)
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Row {
        Row::new(vec![
            Value::Int(7),
            Value::str("x"),
            Value::Null,
            Value::Float(0.5),
        ])
    }

    #[test]
    fn roundtrip() {
        let r = sample();
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), r.encoded_len());
        let (back, used) = Row::decode(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn concat_and_project() {
        let a = Row::new(vec![Value::Int(1), Value::Int(2)]);
        let b = Row::new(vec![Value::Int(3)]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        let p = c.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn walk_reads_decoded_values_and_keeps_its_buffer() {
        let r = sample();
        let bytes = r.to_bytes();
        let mut walk = RecordWalk::default();
        let back = walk.read(&bytes, |cols| Ok(Row::from_raw(cols))).unwrap();
        assert_eq!(back, r);
        let cap = walk.cols.capacity();
        assert!(cap >= r.len());
        walk.read(&bytes, |cols| {
            assert_eq!(cols.column(4).unwrap_err(), r.try_get(4).unwrap_err());
            Ok(())
        })
        .unwrap();
        assert_eq!(walk.cols.capacity(), cap);
        assert!(walk.read(&bytes[..3], |_| Ok(())).is_err());
        assert!(walk.cols.is_empty());
    }

    #[test]
    fn decode_truncated_fails() {
        let r = sample();
        let bytes = r.to_bytes();
        assert!(Row::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(Row::decode(&[]).is_err());
    }
}
