//! Prepared statements: normalize once, rebind positional parameters.
//!
//! [`PreparedSql::new`] runs the normalizer exactly once over a
//! template statement written with exemplar literals (`... WHERE a = 5
//! AND s = 'x'`). Each WHERE-clause literal becomes a positional
//! parameter, numbered in *textual* order — the order a user reading
//! the statement would count them in — even though the normalized
//! slot vector follows the sorted-conjunct canonical order.
//!
//! [`PreparedSql::bind`] then splices a parameter vector into both
//! representations in O(tokens): the member SQL text (literal tokens
//! replaced, statement re-rendered) and the member [`NormalizedQuery`]
//! (canonical slots with the new values). Neither the tokenizer state
//! machine nor the conjunct sorter runs again — binding is the hot
//! path the plan cache's probe consumes directly.

use mq_common::value::days_to_civil;
use mq_common::{MqError, Result, Value};
use mq_sql::{tokenize, Token};

use crate::normalize::{normalize_tokens, render};
use crate::{coerce_like, rebindable, NormalizedQuery};

/// A normalized statement template with positional-parameter metadata.
#[derive(Debug, Clone)]
pub struct PreparedSql {
    /// The template's token stream (exemplar literals in place).
    tokens: Vec<Token>,
    /// Canonical normalization of the template.
    norm: NormalizedQuery,
    /// Canonical slot `i` was lifted from `tokens[positions[i]]`.
    positions: Vec<usize>,
    /// Textual parameter rank `r` → canonical slot index.
    text_order: Vec<usize>,
}

/// A statement with parameters bound: the member SQL text (for the
/// parser — recovery manifests need a faithful logical plan) and the
/// member normalization (for the plan-cache probe).
#[derive(Debug, Clone)]
pub struct BoundSql {
    /// Re-rendered member SQL with the parameters spliced in.
    pub sql: String,
    /// The member's normalized form — same key as the template,
    /// parameter values in the canonical slots.
    pub norm: NormalizedQuery,
}

impl PreparedSql {
    /// Normalize a template statement. `None` when the text is not a
    /// normalizable SELECT — only statements the plan cache can key are
    /// preparable (everything else gains nothing from preparation).
    pub fn new(sql: &str) -> Option<PreparedSql> {
        let tokens = tokenize(sql).ok()?;
        let (norm, positions) = normalize_tokens(&tokens)?;
        let mut text_order: Vec<usize> = (0..positions.len()).collect();
        text_order.sort_by_key(|&i| positions[i]);
        Some(PreparedSql {
            tokens,
            norm,
            positions,
            text_order,
        })
    }

    /// Number of positional parameters (WHERE-clause literals).
    pub fn param_count(&self) -> usize {
        self.norm.slots.len()
    }

    /// The template's plan-cache family key.
    pub fn key(&self) -> &str {
        &self.norm.key
    }

    /// Splice `params` (in textual order) into the template. Refuses
    /// arity mismatches and type drift — an Int may stand in for a
    /// Float exemplar (promoted), but a Str can never replace a Date:
    /// the template plan compared dtypes the optimizer chose indexes
    /// by.
    pub fn bind(&self, params: &[Value]) -> Result<BoundSql> {
        if params.len() != self.norm.slots.len() {
            return Err(MqError::Plan(format!(
                "prepared statement expects {} parameters, got {}",
                self.norm.slots.len(),
                params.len()
            )));
        }
        let mut slots = self.norm.slots.clone();
        let mut tokens = self.tokens.clone();
        for (r, p) in params.iter().enumerate() {
            let si = self.text_order[r];
            let old = &self.norm.slots[si].value;
            if !rebindable(old, p) {
                return Err(MqError::TypeMismatch(format!(
                    "prepared-statement parameter {} expects a value compatible with {old}, got {p}",
                    r + 1
                )));
            }
            let v = coerce_like(p, old);
            tokens[self.positions[si]] = value_token(&v)?;
            slots[si].value = v;
        }
        Ok(BoundSql {
            sql: render(&tokens),
            norm: NormalizedQuery {
                key: self.norm.key.clone(),
                slots,
            },
        })
    }
}

/// The token a bound parameter renders as. Dates render back to their
/// `yyyy-mm-dd` string — the template keeps the `date` keyword token in
/// front of the slot, so the member text parses as a DATE literal again.
fn value_token(v: &Value) -> Result<Token> {
    match v {
        Value::Int(n) => Ok(Token::Int(*n)),
        Value::Float(f) => Ok(Token::Float(*f)),
        Value::Str(s) => Ok(Token::Str(s.to_string())),
        Value::Date(d) => {
            let (y, m, day) = days_to_civil(*d);
            Ok(Token::Str(format!("{y:04}-{m:02}-{day:02}")))
        }
        other => Err(MqError::TypeMismatch(format!(
            "cannot bind {other} as a prepared-statement parameter"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;

    #[test]
    fn params_are_textual_order_even_when_conjuncts_sort() {
        // Canonical key sorts `s = ?` before `t.a >= ?`, but positional
        // parameters follow the text: param 1 is the `a` bound.
        let p = PreparedSql::new("select a from t where t.a >= 10 and s = 'x'").unwrap();
        assert_eq!(p.param_count(), 2);
        let b = p.bind(&[Value::Int(42), Value::str("y")]).unwrap();
        assert!(b.sql.contains("42"), "{}", b.sql);
        assert!(b.sql.contains("'y'"), "{}", b.sql);
        // The member normalizes onto the template's key with the new
        // values in the canonical slots.
        let renorm = normalize(&b.sql).unwrap();
        assert_eq!(renorm.key, p.key());
        assert_eq!(renorm.slots, b.norm.slots);
    }

    #[test]
    fn bind_refuses_arity_and_type_drift() {
        let p = PreparedSql::new("select a from t where a = 5").unwrap();
        assert!(p.bind(&[]).is_err());
        assert!(p.bind(&[Value::Int(1), Value::Int(2)]).is_err());
        assert!(p.bind(&[Value::str("no")]).is_err());
        assert!(p.bind(&[Value::Int(7)]).is_ok());
    }

    #[test]
    fn date_params_roundtrip_through_text() {
        let p = PreparedSql::new("select a from t where d <= date '1998-09-02'").unwrap();
        let b = p.bind(&[mq_common::value::date(1995, 6, 17)]).unwrap();
        assert!(b.sql.contains("date '1995-06-17'"), "{}", b.sql);
        let renorm = normalize(&b.sql).unwrap();
        assert_eq!(renorm.key, p.key());
        assert_eq!(renorm.slots[0].value, mq_common::value::date(1995, 6, 17));
    }

    #[test]
    fn non_select_is_not_preparable() {
        assert!(PreparedSql::new("insert into t values (1)").is_none());
        assert!(PreparedSql::new("").is_none());
    }

    #[test]
    fn int_promotes_into_float_slot() {
        let p = PreparedSql::new("select a from t where v > 2.5").unwrap();
        let b = p.bind(&[Value::Int(3)]).unwrap();
        // Promoted to the template's Float dtype in both text and slots.
        assert_eq!(b.norm.slots[0].value, Value::Float(3.0));
        assert!(b.sql.contains("3.0"), "{}", b.sql);
    }
}
