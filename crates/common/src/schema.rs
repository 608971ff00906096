//! Schemas: named, typed column lists.
//!
//! Columns carry an optional table qualifier so joins can produce
//! unambiguous output schemas (`lineitem.l_orderkey`). Lookup works on
//! both qualified and bare names as long as the bare name is unique.

use std::fmt;
use std::sync::Arc;

use crate::error::{MqError, Result};
use crate::value::DataType;

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Optional table qualifier.
    pub qualifier: Option<Arc<str>>,
    /// Column name.
    pub name: Arc<str>,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// An unqualified field.
    pub fn new(name: impl Into<Arc<str>>, dtype: DataType) -> Field {
        Field {
            qualifier: None,
            name: name.into(),
            dtype,
        }
    }

    /// A table-qualified field.
    pub fn qualified(
        qualifier: impl Into<Arc<str>>,
        name: impl Into<Arc<str>>,
        dtype: DataType,
    ) -> Field {
        Field {
            qualifier: Some(qualifier.into()),
            name: name.into(),
            dtype,
        }
    }

    /// `qualifier.name`, or just `name` when unqualified.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.to_string(),
        }
    }

    /// Whether `pattern` (either `name` or `qualifier.name`) refers to
    /// this field.
    pub fn matches(&self, pattern: &str) -> bool {
        match pattern.split_once('.') {
            Some((q, n)) => self.name.as_ref() == n && self.qualifier.as_deref() == Some(q),
            None => self.name.as_ref() == pattern,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.qualified_name(), self.dtype)
    }
}

/// An ordered list of fields. Cheap to clone (fields share `Arc<str>`s).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields, rejecting duplicate qualified names.
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        for (i, a) in fields.iter().enumerate() {
            for b in fields.iter().skip(i + 1) {
                if a.name == b.name && a.qualifier == b.qualifier {
                    return Err(MqError::SchemaError(format!(
                        "duplicate column {}",
                        a.qualified_name()
                    )));
                }
            }
        }
        Ok(Schema { fields })
    }

    /// Build a schema without duplicate checking (internal fast path
    /// for schemas derived from already-valid ones).
    pub fn new_unchecked(fields: Vec<Field>) -> Schema {
        Schema { fields }
    }

    /// An empty schema.
    pub fn empty() -> Schema {
        Schema { fields: Vec::new() }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The fields, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Field at `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Resolve a (possibly qualified) column name to its index.
    /// A bare name must be unambiguous.
    pub fn index_of(&self, pattern: &str) -> Result<usize> {
        let mut found = None;
        for (i, f) in self.fields.iter().enumerate() {
            if f.matches(pattern) {
                if found.is_some() {
                    return Err(MqError::SchemaError(format!(
                        "ambiguous column reference '{pattern}'"
                    )));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| MqError::NotFound(format!("column '{pattern}'")))
    }

    /// Concatenate two schemas (e.g. for a join output).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(right.fields.iter().cloned());
        Schema { fields }
    }

    /// Project a subset of columns by index.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            fields: indices.iter().map(|&i| self.fields[i].clone()).collect(),
        }
    }

    /// Re-qualify every field with a new table alias (e.g. after
    /// materializing an intermediate result into a temp table).
    pub fn requalify(&self, qualifier: &str) -> Schema {
        let q: Arc<str> = qualifier.into();
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| Field {
                    qualifier: Some(q.clone()),
                    name: f.name.clone(),
                    dtype: f.dtype,
                })
                .collect(),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.qualified_name(), field.dtype)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::qualified("t", "a", DataType::Int),
            Field::qualified("t", "b", DataType::Str),
            Field::qualified("u", "a", DataType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn qualified_lookup() {
        let s = sample();
        assert_eq!(s.index_of("t.a").unwrap(), 0);
        assert_eq!(s.index_of("u.a").unwrap(), 2);
        assert_eq!(s.index_of("b").unwrap(), 1);
    }

    #[test]
    fn bare_ambiguous_is_error() {
        let s = sample();
        let err = s.index_of("a").unwrap_err();
        assert_eq!(err.kind(), "schema");
    }

    #[test]
    fn missing_column() {
        let s = sample();
        assert_eq!(s.index_of("zzz").unwrap_err().kind(), "not_found");
    }

    #[test]
    fn duplicates_rejected() {
        let r = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("x", DataType::Int),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn join_and_project() {
        let s = sample();
        let t = Schema::new(vec![Field::qualified("v", "c", DataType::Date)]).unwrap();
        let j = s.join(&t);
        assert_eq!(j.len(), 4);
        let p = j.project(&[3, 0]);
        assert_eq!(p.field(0).name.as_ref(), "c");
        assert_eq!(p.field(1).name.as_ref(), "a");
    }

    #[test]
    fn requalify() {
        let s = sample().requalify("tmp1");
        assert_eq!(s.index_of("tmp1.a").unwrap_err().kind(), "schema"); // still ambiguous
        assert_eq!(s.index_of("tmp1.b").unwrap(), 1);
    }
}
