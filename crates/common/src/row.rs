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
    pub fn try_get(&self, idx: usize) -> Result<&Value> {
        self.values.get(idx).ok_or_else(|| {
            crate::error::MqError::Execution(format!(
                "column index {idx} out of range for a {}-column row",
                self.values.len()
            ))
        })
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
        let used = walk(buf, n, |_, raw| values.push(raw.into_value()))?;
        Ok((Row { values }, used))
    }

    /// Check an encoded row without building it, returning the bytes it
    /// occupies. Fails exactly when [`Row::decode`] fails, with the same
    /// error, and allocates nothing.
    pub fn validate(buf: &[u8]) -> Result<usize> {
        walk(buf, arity(buf)?, |_, _| {})
    }

    /// Decode only the columns `i` with `wanted[i]` set (a column past
    /// the end of `wanted` is not wanted) into `scratch`, returning the
    /// bytes consumed. Every other column is checked as [`Row::decode`]
    /// would check it but not built; its slot in `scratch` holds
    /// `Null`. `scratch` ends up with exactly the record's arity, so an
    /// out-of-range column access on it fails as it would on the fully
    /// decoded row. Reusing one `scratch` across records reuses its
    /// allocation. On error `scratch` holds a partial row.
    pub fn decode_cols(buf: &[u8], wanted: &[bool], scratch: &mut Row) -> Result<usize> {
        let n = arity(buf)?;
        let values = &mut scratch.values;
        values.clear();
        values.reserve(n);
        walk(buf, n, |i, raw| {
            values.push(if wanted.get(i).copied().unwrap_or(false) {
                raw.into_value()
            } else {
                Value::Null
            })
        })
    }
}

/// The column count from a row encoding's header.
fn arity(buf: &[u8]) -> Result<usize> {
    buf.get(..2)
        .map(|b| u16::from_le_bytes([b[0], b[1]]) as usize)
        .ok_or_else(|| MqError::Storage("truncated row header".into()))
}

/// The one walker behind [`Row::decode`], [`Row::validate`] and
/// [`Row::decode_cols`]: reads and checks the `n` values after the
/// header in turn, handing each to `column`. Returns the bytes
/// consumed.
#[inline]
fn walk<'a>(buf: &'a [u8], n: usize, mut column: impl FnMut(usize, RawValue<'a>)) -> Result<usize> {
    let mut off = 2;
    for i in 0..n {
        let (raw, used) = RawValue::read(&buf[off..])?;
        column(i, raw);
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
    fn decode_truncated_fails() {
        let r = sample();
        let bytes = r.to_bytes();
        assert!(Row::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(Row::decode(&[]).is_err());
    }
}
