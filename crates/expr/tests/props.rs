//! Expression evaluation and selectivity properties.

use mq_common::{DataType, Field, Row, Schema, Value};
use mq_expr::{and, cmp, estimate_selectivity, lit, CmpOp, Expr, NoStats};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bound predicates always evaluate without panicking, to a Bool or
    /// Null.
    #[test]
    fn eval_total(p in arb_pred(), row in arb_row()) {
        let bound = p.bind(&schema()).unwrap();
        let v = bound.eval(&row).unwrap();
        prop_assert!(
            matches!(v, Value::Bool(_) | Value::Null),
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
