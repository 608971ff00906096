//! Expression evaluation and selectivity properties.

use std::borrow::Cow;

use mq_common::{DataType, Field, RecordWalk, Result, Row, Schema, Value};
use mq_expr::{and, cmp, estimate_selectivity, lit, ArithOp, CmpOp, Expr, NoStats, Udf};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![
        Field::qualified("t", "a", DataType::Int),
        Field::qualified("t", "b", DataType::Float),
        Field::qualified("t", "c", DataType::Str),
    ])
    .unwrap()
}

fn arb_leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(mq_expr::col("t.a")),
        Just(mq_expr::col("t.b")),
        Just(mq_expr::col("t.c")),
        any::<i64>().prop_map(lit),
        (-1e9f64..1e9).prop_map(lit),
        "[a-z]{0,8}".prop_map(lit),
        Just(Expr::Literal(Value::Null)),
    ]
}

fn arb_pred() -> impl Strategy<Value = Expr> {
    let cmpop = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    let leaf_cmp = (cmpop, arb_leaf(), arb_leaf()).prop_map(|(op, l, r)| cmp(op, l, r));
    leaf_cmp.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(and),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Expr::Or),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

fn arb_row() -> impl Strategy<Value = Row> {
    (any::<i64>(), -1e9f64..1e9, "[a-z]{0,8}")
        .prop_map(|(a, b, c)| Row::new(vec![Value::Int(a), Value::Float(b), Value::str(c)]))
}

/// Columns of the rows [`arb_mixed_row`] draws: Int, Float, Date, Str
/// and Bool, each possibly NULL. Index `MIXED_COLS` is out of range.
const MIXED_COLS: usize = 5;

fn arb_mixed_row() -> impl Strategy<Value = Row> {
    let nullable = |v: Value, null: bool| if null { Value::Null } else { v };
    (
        (-3i64..4, any::<bool>()),
        (-2f64..2.0, any::<bool>()),
        (-3i64..4, any::<bool>()),
        ("[ab]{0,1}", any::<bool>()),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(move |(i, f, d, s, b)| {
            Row::new(vec![
                nullable(Value::Int(i.0), i.1),
                nullable(Value::Float(f.0), f.1),
                nullable(Value::Date(d.0), d.1),
                nullable(Value::str(s.0), s.1),
                nullable(Value::Bool(b.0), b.1),
            ])
        })
}

/// A bound column (one index past the row's end) or a literal of any
/// type, or NULL.
fn arb_mixed_leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0usize..MIXED_COLS + 1).prop_map(|index| Expr::BoundColumn {
            index,
            name: format!("c{index}").into(),
        }),
        (-3i64..4).prop_map(lit),
        (-2f64..2.0).prop_map(lit),
        (-3i64..4).prop_map(|d| Expr::Literal(Value::Date(d))),
        "[ab]{0,1}".prop_map(lit),
        any::<bool>().prop_map(lit),
        Just(Expr::Literal(Value::Null)),
    ]
}

/// A bound operand: a leaf, or arithmetic over two leaves.
fn arb_operand() -> impl Strategy<Value = Expr> {
    let arith_op = prop_oneof![
        Just(ArithOp::Add),
        Just(ArithOp::Sub),
        Just(ArithOp::Mul),
        Just(ArithOp::Div),
    ];
    prop_oneof![
        arb_mixed_leaf(),
        (arith_op, arb_mixed_leaf(), arb_mixed_leaf()).prop_map(|(op, l, r)| Expr::Arith {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }),
    ]
}

/// A bound predicate over [`arb_mixed_row`]: comparisons, a UDF and
/// bare operands (a non-boolean operand is UNKNOWN), under AND, OR and
/// NOT.
fn arb_mixed_pred() -> impl Strategy<Value = Expr> {
    let cmpop = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    let udf = arb_operand().prop_map(|arg| Expr::UdfPred {
        name: "half".into(),
        arg: Box::new(arg),
        udf: Udf::HashFraction {
            keep_fraction: 0.5,
            salt: 3,
        },
    });
    let leaf = prop_oneof![
        (cmpop, arb_operand(), arb_operand()).prop_map(|(op, l, r)| cmp(op, l, r)),
        udf,
        arb_operand(),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Expr::And),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Expr::Or),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

/// Reference evaluator over owned values: SQL three-valued logic with
/// left-to-right short-circuit AND and OR, written out independently of
/// the crate's evaluator.
fn reference(e: &Expr, row: &Row) -> Result<Value> {
    let truth = |v: Value| match v {
        Value::Bool(b) => Some(b),
        _ => None,
    };
    let three = |t: Option<bool>| t.map_or(Value::Null, Value::Bool);
    Ok(match e {
        Expr::Column(name) => panic!("the generator binds every column, not {name}"),
        Expr::BoundColumn { index, .. } => row.try_get(*index)?.clone(),
        Expr::Literal(v) => v.clone(),
        Expr::Cmp { op, left, right } => {
            let l = reference(left, row)?;
            let r = reference(right, row)?;
            three(l.sql_cmp(&r).map(|ord| op.matches(ord)))
        }
        Expr::And(es) => {
            let mut all = Some(true);
            for e in es {
                match truth(reference(e, row)?) {
                    Some(false) => return Ok(Value::Bool(false)),
                    Some(true) => {}
                    None => all = None,
                }
            }
            three(all)
        }
        Expr::Or(es) => {
            let mut any = Some(false);
            for e in es {
                match truth(reference(e, row)?) {
                    Some(true) => return Ok(Value::Bool(true)),
                    Some(false) => {}
                    None => any = None,
                }
            }
            three(any)
        }
        Expr::Not(e) => three(truth(reference(e, row)?).map(|b| !b)),
        Expr::Arith { op, left, right } => {
            let l = reference(left, row)?;
            let r = reference(right, row)?;
            match op {
                ArithOp::Add => l.add(&r)?,
                ArithOp::Sub => l.sub(&r)?,
                ArithOp::Mul => l.mul(&r)?,
                ArithOp::Div => l.div(&r)?,
            }
        }
        Expr::UdfPred { arg, udf, .. } => Value::Bool(udf.apply(reference(arg, row)?.raw())),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `eval` and `eval_predicate` agree with the reference evaluator:
    /// the same value, or the same error from the same operand, over
    /// NULLs, mixed Int/Float/Date, arithmetic, a UDF and an
    /// out-of-range column. `eval_predicate` gives the same answer on
    /// both row shapes: the built row, and the row's encoding walked
    /// into borrowed columns.
    #[test]
    fn borrowed_eval_matches_reference(p in arb_mixed_pred(), row in arb_mixed_row()) {
        let want = reference(&p, &row);
        prop_assert_eq!(p.eval(&row).map(Cow::into_owned), want.clone());
        let want = want.map(|v| v.is_true());
        prop_assert_eq!(p.eval_predicate(&row), want.clone());
        let walked = RecordWalk::default().read(&row.to_bytes(), |cols| p.eval_predicate(cols));
        prop_assert_eq!(walked, want);
    }

    /// Bound predicates always evaluate without panicking, to a Bool or
    /// Null.
    #[test]
    fn eval_total(p in arb_pred(), row in arb_row()) {
        let bound = p.bind(&schema()).unwrap();
        let v = bound.eval(&row).unwrap();
        prop_assert!(
            matches!(*v, Value::Bool(_) | Value::Null),
            "predicate produced {v:?}"
        );
    }

    /// NOT is an involution under three-valued logic.
    #[test]
    fn double_negation(p in arb_pred(), row in arb_row()) {
        let bound = p.bind(&schema()).unwrap();
        let nn = Expr::Not(Box::new(Expr::Not(Box::new(bound.clone()))));
        prop_assert_eq!(nn.eval(&row).unwrap(), bound.eval(&row).unwrap());
    }

    /// `unbind` then `bind` is the identity on evaluation.
    #[test]
    fn unbind_bind_roundtrip(p in arb_pred(), row in arb_row()) {
        let bound = p.bind(&schema()).unwrap();
        let rebound = bound.unbind().bind(&schema()).unwrap();
        prop_assert_eq!(rebound.eval(&row).unwrap(), bound.eval(&row).unwrap());
    }

    /// Selectivity is always a probability, even with no statistics.
    #[test]
    fn selectivity_bounded(p in arb_pred()) {
        let est = estimate_selectivity(&p, &NoStats);
        prop_assert!((0.0..=1.0).contains(&est.selectivity), "{}", est.selectivity);
    }

    /// Conjunction never has higher estimated selectivity than its
    /// parts.
    #[test]
    fn conjunction_shrinks(p in arb_pred(), q in arb_pred()) {
        let sp = estimate_selectivity(&p, &NoStats).selectivity;
        let spq = estimate_selectivity(&and(vec![p, q]), &NoStats).selectivity;
        prop_assert!(spq <= sp + 1e-9);
    }

    /// BETWEEN desugars into bounds that actually bracket.
    #[test]
    fn between_brackets(x in -1000i64..1000, lo in -1000i64..1000, hi in -1000i64..1000) {
        let e = mq_expr::between(mq_expr::col("t.a"), lo, hi)
            .bind(&schema())
            .unwrap();
        let row = Row::new(vec![Value::Int(x), Value::Float(0.0), Value::str("")]);
        prop_assert_eq!(e.eval_predicate(&row).unwrap(), x >= lo && x <= hi);
    }
}
