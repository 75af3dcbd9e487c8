//! Indexed selection against a reference scan: on random relations,
//! `Relation::select` and `Relation::count` must give exactly the
//! indices, in exactly the order, that filtering every tuple with
//! `Predicate::matches` gives — for every operator, for attributes of
//! all four types with heavy duplication or all-distinct values, for
//! awkward floats (`NaN`s, signed zeros), for probe values absent from
//! the relation or of another type, across `insert`s that must drop the
//! equality index, and on clones taken before and after it was built.

use ctxpref_relation::{AttrId, AttrType, CompareOp, Predicate, Relation, Schema, Value};
use proptest::prelude::*;

const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Relation>();
};

const OPS: [CompareOp; 6] = [
    CompareOp::Eq,
    CompareOp::Ne,
    CompareOp::Lt,
    CompareOp::Le,
    CompareOp::Gt,
    CompareOp::Ge,
];

/// A SplitMix64 step: the relation's contents come from the case seed.
fn next(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Floats whose total order is easy to get wrong: both `NaN` signs and
/// both zeros compare unequal to each other under `total_cmp`.
fn awkward_floats() -> [f64; 7] {
    [f64::NAN, -f64::NAN, 0.0, -0.0, 1.5, -2.25, f64::INFINITY]
}

fn schema() -> Schema {
    Schema::new(&[
        ("i", AttrType::Int),
        ("f", AttrType::Float),
        ("s", AttrType::Str),
        ("b", AttrType::Bool),
    ])
    .unwrap()
}

/// Row `i` of a relation: drawn from a three- to seven-value pool per
/// attribute when `distinct` is false, unique per row (but for the
/// boolean) when it is true.
fn row(i: usize, distinct: bool, x: &mut u64) -> Vec<Value> {
    let r = next(x);
    if distinct {
        vec![
            Value::Int(i as i64 * 7 - 100),
            Value::Float(i as f64 * 0.5 - 3.0),
            Value::from(format!("s{i}")),
            Value::Bool(r & 1 == 1),
        ]
    } else {
        let floats = awkward_floats();
        vec![
            Value::Int((r % 3) as i64),
            Value::Float(floats[(r >> 8) as usize % floats.len()]),
            Value::from(["a", "b", "c"][(r >> 16) as usize % 3]),
            Value::Bool(r >> 24 & 1 == 1),
        ]
    }
}

/// Probe values for every attribute: each type's in-pool and absent
/// values, so every attribute also meets probes of the three other types.
fn probes() -> Vec<Value> {
    let mut v: Vec<Value> = awkward_floats().into_iter().map(Value::Float).collect();
    v.extend([7.75, -3.0, 0.5].map(Value::Float));
    v.extend([0, 1, 2, 999, -100, -93].map(Value::Int));
    v.extend(["a", "c", "zz", "s0", "s3", ""].map(Value::from));
    v.extend([true, false].map(Value::Bool));
    v
}

fn scan(rel: &Relation, pred: &Predicate) -> Vec<usize> {
    rel.tuples()
        .iter()
        .enumerate()
        .filter(|(_, t)| pred.matches(t))
        .map(|(i, _)| i)
        .collect()
}

/// Every (attribute, operator, probe) selection agrees with the scan.
fn assert_agrees(rel: &Relation, what: &str) {
    for a in 0..rel.schema().len() {
        for op in OPS {
            for value in probes() {
                let pred = Predicate::new(AttrId(a as u16), op, value);
                let expect = scan(rel, &pred);
                assert_eq!(
                    rel.select(&pred).collect::<Vec<_>>(),
                    expect,
                    "{what}: select {pred:?}"
                );
                assert_eq!(rel.count(&pred), expect.len(), "{what}: count {pred:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_select_equals_scan(
        seed in any::<u64>(),
        rows in 0usize..60,
        extra in 1usize..8,
        distinct in any::<bool>(),
    ) {
        let mut x = seed;
        let mut rel = Relation::new("r", schema());
        for i in 0..rows {
            rel.insert(row(i, distinct, &mut x)).unwrap();
        }
        let before = rel.clone();
        assert_agrees(&rel, "fresh");
        let after = rel.clone();

        // Inserts mix new rows with copies of existing ones, so equal
        // runs both grow and appear; a stale index would miss them.
        for i in rows..rows + extra {
            let values = match rows {
                0 => row(i, distinct, &mut x),
                _ if next(&mut x) & 1 == 0 => rel.tuple(i % rows).values().to_vec(),
                _ => row(i, distinct, &mut x),
            };
            rel.insert(values).unwrap();
        }
        prop_assert_eq!(rel.len(), rows + extra);
        assert_agrees(&rel, "after insert");

        assert_agrees(&before, "clone before index");
        assert_agrees(&after, "clone after index");
        let mut after = after;
        after.insert(row(rows, distinct, &mut x)).unwrap();
        assert_agrees(&after, "clone after index, then insert");
    }
}
