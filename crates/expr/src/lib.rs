//! # mq-expr — scalar expressions
//!
//! Expression trees used in filters, join predicates, projections and
//! aggregations. An expression is *built* against column names
//! (`"lineitem.l_quantity"`), *bound* against a concrete [`Schema`]
//! (resolving names to positions) and then *evaluated* against rows.
//!
//! The crate also houses [`selectivity`] — histogram-based selectivity
//! estimation. Its conjunct-independence assumption and its blindness
//! to user-defined predicates are *deliberate*: they are the estimation
//! error sources the paper identifies (§1, §2.4 footnote 2), and the
//! Dynamic Re-Optimization experiments rely on them arising naturally.

pub mod selectivity;

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use mq_common::{Columns, MqError, RawValue, Result, Row, Schema, Value};

pub use selectivity::{
    estimate_selectivity, Basis, NoStats, SelEstimate, StatsView, DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY, UDF_SELECTIVITY,
};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to an ordering result.
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }

    /// The operator with sides swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// Built-in "user-defined functions": opaque predicates whose
/// selectivity the optimizer cannot estimate (§2.5: UDF predicates have
/// *high* inaccuracy potential; footnote 2: "there is no way for the
/// database system to estimate the selectivity of the filter").
#[derive(Debug, Clone, PartialEq)]
pub enum Udf {
    /// Keeps rows where a stable hash of the value lands below
    /// `keep_fraction` — true selectivity is `keep_fraction`, but the
    /// optimizer only sees an opaque function.
    HashFraction {
        /// Fraction of the domain kept.
        keep_fraction: f64,
        /// Salt so different predicates decorrelate.
        salt: u64,
    },
    /// A "spatial-style" band predicate: `sin(x · freq)` above a
    /// threshold. Smoothly value-correlated, hard to histogram.
    SineBand {
        /// Frequency multiplier.
        freq: f64,
        /// Keep rows with `sin(x·freq) ≥ threshold`.
        threshold: f64,
    },
}

impl Udf {
    /// Evaluate against a value; NULL input yields false.
    pub fn apply(&self, v: RawValue<'_>) -> bool {
        match self {
            Udf::HashFraction {
                keep_fraction,
                salt,
            } => match v.as_f64() {
                Some(x) => {
                    let h = splitmix(x.to_bits() ^ salt);
                    (h as f64 / u64::MAX as f64) < *keep_fraction
                }
                None => false,
            },
            Udf::SineBand { freq, threshold } => match v.as_f64() {
                Some(x) => (x * freq).sin() >= *threshold,
                None => false,
            },
        }
    }

    /// The *true* selectivity over a uniform domain, for test oracles.
    pub fn true_selectivity(&self) -> f64 {
        match self {
            Udf::HashFraction { keep_fraction, .. } => *keep_fraction,
            Udf::SineBand { threshold, .. } => {
                // Fraction of a sine period at or above the threshold.
                (1.0 - (threshold.clamp(-1.0, 1.0)).asin() * 2.0 / std::f64::consts::PI) / 2.0
            }
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A scalar expression tree.
///
/// ```
/// use mq_common::{DataType, Field, Row, Schema, Value};
/// use mq_expr::{and, between, col, eq, lit};
///
/// let schema = Schema::new(vec![
///     Field::qualified("t", "a", DataType::Int),
///     Field::qualified("t", "s", DataType::Str),
/// ]).unwrap();
/// let pred = and(vec![between(col("t.a"), 10, 20), eq(col("t.s"), lit("x"))])
///     .bind(&schema)
///     .unwrap();
/// let row = Row::new(vec![Value::Int(15), Value::str("x")]);
/// assert!(pred.eval_predicate(&row).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Unresolved column reference (name or `table.name`).
    Column(Arc<str>),
    /// Resolved column reference: position plus the display name.
    BoundColumn {
        /// Position in the input row.
        index: usize,
        /// Original name, kept for display.
        name: Arc<str>,
    },
    /// Constant.
    Literal(Value),
    /// Comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left side.
        left: Box<Expr>,
        /// Right side.
        right: Box<Expr>,
    },
    /// Conjunction (empty = TRUE).
    And(Vec<Expr>),
    /// Disjunction (empty = FALSE).
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left side.
        left: Box<Expr>,
        /// Right side.
        right: Box<Expr>,
    },
    /// Opaque user-defined predicate over one argument.
    UdfPred {
        /// Display name.
        name: Arc<str>,
        /// Argument.
        arg: Box<Expr>,
        /// The function.
        udf: Udf,
    },
}

/// Construct a column reference.
pub fn col(name: &str) -> Expr {
    Expr::Column(name.into())
}

/// Construct a literal.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

/// `left = right`
pub fn eq(left: Expr, right: Expr) -> Expr {
    cmp(CmpOp::Eq, left, right)
}

/// Comparison helper.
pub fn cmp(op: CmpOp, left: Expr, right: Expr) -> Expr {
    Expr::Cmp {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// Conjunction helper (flattens nested ANDs).
pub fn and(exprs: Vec<Expr>) -> Expr {
    let mut flat = Vec::new();
    for e in exprs {
        match e {
            Expr::And(inner) => flat.extend(inner),
            other => flat.push(other),
        }
    }
    if flat.len() == 1 {
        flat.pop().unwrap()
    } else {
        Expr::And(flat)
    }
}

/// `lo ≤ col ≤ hi` as two conjuncts.
pub fn between(e: Expr, lo: impl Into<Value>, hi: impl Into<Value>) -> Expr {
    and(vec![
        cmp(CmpOp::Ge, e.clone(), lit(lo)),
        cmp(CmpOp::Le, e, lit(hi)),
    ])
}

impl Expr {
    /// Resolve every column name against `schema`, producing a bound
    /// expression ready for evaluation.
    pub fn bind(&self, schema: &Schema) -> Result<Expr> {
        Ok(match self {
            Expr::Column(name) => Expr::BoundColumn {
                index: schema.index_of(name)?,
                name: name.clone(),
            },
            Expr::BoundColumn { .. } | Expr::Literal(_) => self.clone(),
            Expr::Cmp { op, left, right } => Expr::Cmp {
                op: *op,
                left: Box::new(left.bind(schema)?),
                right: Box::new(right.bind(schema)?),
            },
            Expr::And(es) => Expr::And(es.iter().map(|e| e.bind(schema)).collect::<Result<_>>()?),
            Expr::Or(es) => Expr::Or(es.iter().map(|e| e.bind(schema)).collect::<Result<_>>()?),
            Expr::Not(e) => Expr::Not(Box::new(e.bind(schema)?)),
            Expr::Arith { op, left, right } => Expr::Arith {
                op: *op,
                left: Box::new(left.bind(schema)?),
                right: Box::new(right.bind(schema)?),
            },
            Expr::UdfPred { name, arg, udf } => Expr::UdfPred {
                name: name.clone(),
                arg: Box::new(arg.bind(schema)?),
                udf: udf.clone(),
            },
        })
    }

    /// Evaluate a bound expression against a row. Column references
    /// and literals are borrowed, from `row` and from the expression;
    /// only computed values (comparisons, arithmetic, UDF results) are
    /// owned. Call `into_owned` to keep the result past `row`.
    #[inline]
    pub fn eval<'a>(&'a self, row: &'a Row) -> Result<Cow<'a, Value>> {
        match self {
            Expr::BoundColumn { index, .. } => Ok(Cow::Borrowed(row.try_get(*index)?)),
            Expr::Literal(v) => Ok(Cow::Borrowed(v)),
            _ => Ok(Cow::Owned(self.computed(row)?.into_value())),
        }
    }

    /// Evaluate as a predicate: true only when the result is TRUE
    /// (SQL semantics — NULL filters out). `row` is a built [`Row`] or
    /// the borrowed columns of an encoded record; both give the same
    /// answer and the same error.
    #[inline]
    pub fn eval_predicate<R: Columns + ?Sized>(&self, row: &R) -> Result<bool> {
        Ok(self.truth(row)? == Some(true))
    }

    /// An operand as predicates read it: a column or literal borrowed
    /// from `row` or the expression, or a computed value.
    #[inline]
    fn operand<'a, R: Columns + ?Sized>(&'a self, row: &'a R) -> Result<RawValue<'a>> {
        match self {
            Expr::BoundColumn { index, .. } => row.column(*index),
            Expr::Literal(v) => Ok(v.raw()),
            _ => self.computed(row),
        }
    }

    /// The value of an expression that computes it: arithmetic, a
    /// comparison or a UDF result. None of them builds a string, so the
    /// value borrows nothing and needs no drop.
    fn computed<R: Columns + ?Sized>(&self, row: &R) -> Result<RawValue<'static>> {
        match self {
            Expr::Arith { op, left, right } => {
                let l = left.operand(row)?;
                let r = right.operand(row)?;
                match op {
                    ArithOp::Add => l.add(&r),
                    ArithOp::Sub => l.sub(&r),
                    ArithOp::Mul => l.mul(&r),
                    ArithOp::Div => l.div(&r),
                }
            }
            _ => Ok(match self.truth(row)? {
                Some(b) => RawValue::Bool(b),
                None => RawValue::Null,
            }),
        }
    }

    /// Three-valued truth of a bound expression: `None` is SQL NULL
    /// (UNKNOWN). A value that is not a boolean is UNKNOWN too.
    /// Connectives short-circuit left to right, so errors arrive in
    /// operand order.
    fn truth<R: Columns + ?Sized>(&self, row: &R) -> Result<Option<bool>> {
        match self {
            Expr::Column(name) => Err(MqError::Internal(format!(
                "evaluating unbound column '{name}' (call bind first)"
            ))),
            Expr::Cmp { op, left, right } => {
                let l = left.operand(row)?;
                let r = right.operand(row)?;
                Ok(l.sql_cmp(&r).map(|ord| op.matches(ord)))
            }
            Expr::And(es) => {
                let mut saw_null = false;
                for e in es {
                    match e.truth(row)? {
                        Some(false) => return Ok(Some(false)),
                        Some(true) => {}
                        None => saw_null = true,
                    }
                }
                Ok((!saw_null).then_some(true))
            }
            Expr::Or(es) => {
                let mut saw_null = false;
                for e in es {
                    match e.truth(row)? {
                        Some(true) => return Ok(Some(true)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok((!saw_null).then_some(false))
            }
            Expr::Not(e) => Ok(e.truth(row)?.map(|b| !b)),
            Expr::UdfPred { arg, udf, .. } => Ok(Some(udf.apply(arg.operand(row)?))),
            Expr::BoundColumn { .. } | Expr::Literal(_) | Expr::Arith { .. } => {
                Ok(match self.operand(row)? {
                    RawValue::Bool(b) => Some(b),
                    _ => None,
                })
            }
        }
    }

    /// Reverse [`Expr::bind`]: turn bound column positions back into
    /// name references. Used when the re-optimizer reconstructs the
    /// *remainder query* of a partially-executed physical plan (§2.4).
    pub fn unbind(&self) -> Expr {
        match self {
            Expr::BoundColumn { name, .. } => Expr::Column(name.clone()),
            Expr::Column(_) | Expr::Literal(_) => self.clone(),
            Expr::Cmp { op, left, right } => Expr::Cmp {
                op: *op,
                left: Box::new(left.unbind()),
                right: Box::new(right.unbind()),
            },
            Expr::And(es) => Expr::And(es.iter().map(Expr::unbind).collect()),
            Expr::Or(es) => Expr::Or(es.iter().map(Expr::unbind).collect()),
            Expr::Not(e) => Expr::Not(Box::new(e.unbind())),
            Expr::Arith { op, left, right } => Expr::Arith {
                op: *op,
                left: Box::new(left.unbind()),
                right: Box::new(right.unbind()),
            },
            Expr::UdfPred { name, arg, udf } => Expr::UdfPred {
                name: name.clone(),
                arg: Box::new(arg.unbind()),
                udf: udf.clone(),
            },
        }
    }

    /// Collect every column name referenced (unbound or bound).
    pub fn referenced_columns(&self) -> Vec<Arc<str>> {
        let mut out = Vec::new();
        self.walk(&mut |e| match e {
            Expr::Column(n) => out.push(n.clone()),
            Expr::BoundColumn { name, .. } => out.push(name.clone()),
            _ => {}
        });
        out
    }

    /// Split a conjunction into its conjuncts (a non-AND expression is
    /// a single conjunct).
    pub fn conjuncts(&self) -> Vec<Expr> {
        match self {
            Expr::And(es) => es.iter().flat_map(|e| e.conjuncts()).collect(),
            other => vec![other.clone()],
        }
    }

    /// Whether any sub-expression is a UDF predicate.
    pub fn contains_udf(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::UdfPred { .. }) {
                found = true;
            }
        });
        found
    }

    /// Approximate per-row CPU operations to evaluate this expression
    /// (used to charge the simulated clock).
    pub fn eval_cost_ops(&self) -> u64 {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.walk(f);
                }
            }
            Expr::Not(e) => e.walk(f),
            Expr::UdfPred { arg, .. } => arg.walk(f),
            Expr::Column(_) | Expr::BoundColumn { .. } | Expr::Literal(_) => {}
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(n) => write!(f, "{n}"),
            Expr::BoundColumn { name, .. } => write!(f, "{name}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Cmp { op, left, right } => write!(f, "{left} {op} {right}"),
            Expr::And(es) => {
                if es.is_empty() {
                    return write!(f, "TRUE");
                }
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            Expr::Or(es) => {
                if es.is_empty() {
                    return write!(f, "FALSE");
                }
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::Arith { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::UdfPred { name, arg, .. } => write!(f, "{name}({arg})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_common::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::qualified("t", "a", DataType::Int),
            Field::qualified("t", "b", DataType::Float),
            Field::qualified("t", "s", DataType::Str),
        ])
        .unwrap()
    }

    fn row(a: i64, b: f64, s: &str) -> Row {
        Row::new(vec![Value::Int(a), Value::Float(b), Value::str(s)])
    }

    #[test]
    fn bind_and_eval_comparison() {
        let e = cmp(CmpOp::Lt, col("t.a"), lit(10i64))
            .bind(&schema())
            .unwrap();
        assert!(e.eval_predicate(&row(5, 0.0, "")).unwrap());
        assert!(!e.eval_predicate(&row(10, 0.0, "")).unwrap());
    }

    #[test]
    fn unbound_eval_errors() {
        let e = col("t.a");
        assert!(e.eval(&row(1, 0.0, "")).is_err());
    }

    #[test]
    fn missing_column_bind_errors() {
        assert!(col("t.zzz").bind(&schema()).is_err());
    }

    #[test]
    fn and_or_null_semantics() {
        let null_cmp = cmp(CmpOp::Eq, lit(Value::Null), lit(1i64));
        let t = cmp(CmpOp::Eq, lit(1i64), lit(1i64));
        let f_ = cmp(CmpOp::Eq, lit(1i64), lit(2i64));
        let r = row(0, 0.0, "");
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
        assert_eq!(
            *and(vec![null_cmp.clone(), f_.clone()]).eval(&r).unwrap(),
            Value::Bool(false)
        );
        assert!(Expr::And(vec![null_cmp.clone(), t.clone()])
            .eval(&r)
            .unwrap()
            .is_null());
        // NULL OR TRUE = TRUE; NULL OR FALSE = NULL.
        assert_eq!(
            *Expr::Or(vec![null_cmp.clone(), t]).eval(&r).unwrap(),
            Value::Bool(true)
        );
        assert!(Expr::Or(vec![null_cmp, f_]).eval(&r).unwrap().is_null());
    }

    #[test]
    fn between_helper() {
        let e = between(col("t.b"), 1.0, 2.0).bind(&schema()).unwrap();
        assert!(e.eval_predicate(&row(0, 1.5, "")).unwrap());
        assert!(e.eval_predicate(&row(0, 1.0, "")).unwrap());
        assert!(!e.eval_predicate(&row(0, 2.5, "")).unwrap());
    }

    #[test]
    fn arithmetic_eval() {
        let e = Expr::Arith {
            op: ArithOp::Mul,
            left: Box::new(col("t.a")),
            right: Box::new(lit(3i64)),
        }
        .bind(&schema())
        .unwrap();
        assert_eq!(*e.eval(&row(7, 0.0, "")).unwrap(), Value::Int(21));
    }

    #[test]
    fn udf_hash_fraction_selectivity() {
        let udf = Udf::HashFraction {
            keep_fraction: 0.25,
            salt: 7,
        };
        let kept = (0..10_000)
            .filter(|&i| udf.apply(Value::Int(i).raw()))
            .count();
        let frac = kept as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.03, "frac {frac}");
        assert!((udf.true_selectivity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn udf_sine_band() {
        let udf = Udf::SineBand {
            freq: 0.37,
            threshold: 0.0,
        };
        let kept = (0..10_000)
            .filter(|&i| udf.apply(Value::Int(i).raw()))
            .count();
        let frac = kept as f64 / 10_000.0;
        assert!((frac - udf.true_selectivity()).abs() < 0.05, "frac {frac}");
        assert!(!udf.apply(RawValue::Null));
    }

    #[test]
    fn conjunct_splitting_and_columns() {
        let e = and(vec![
            eq(col("t.a"), lit(1i64)),
            and(vec![
                cmp(CmpOp::Gt, col("t.b"), lit(0.5)),
                eq(col("t.s"), lit("x")),
            ]),
        ]);
        assert_eq!(e.conjuncts().len(), 3);
        let cols = e.referenced_columns();
        assert_eq!(cols.len(), 3);
        assert!(cols.iter().any(|c| c.as_ref() == "t.b"));
    }

    #[test]
    fn display_reads_like_sql() {
        let e = and(vec![
            cmp(CmpOp::Le, col("t.a"), lit(9i64)),
            Expr::UdfPred {
                name: "inside_region".into(),
                arg: Box::new(col("t.b")),
                udf: Udf::SineBand {
                    freq: 1.0,
                    threshold: 0.5,
                },
            },
        ]);
        assert_eq!(e.to_string(), "t.a <= 9 AND inside_region(t.b)");
    }

    #[test]
    fn cost_counts_nodes() {
        let e = eq(col("a"), lit(1i64));
        assert_eq!(e.eval_cost_ops(), 3);
    }
}
