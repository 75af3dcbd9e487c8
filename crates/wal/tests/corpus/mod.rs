//! One of every logged op shape, over a small environment and relation
//! whose ids the ops name: shared by the record golden and fuzz suites.

use ctxpref_context::{ContextDescriptor, ContextEnvironment, ParameterDescriptor};
use ctxpref_hierarchy::Hierarchy;
use ctxpref_profile::{AttributeClause, ContextualPreference};
use ctxpref_relation::{AttrType, CompareOp, Relation, Schema, Value};
use ctxpref_wal::WalOp;

/// Two flat parameters: `mood` (low, high) and `weather` (cold, mild,
/// warm).
pub(crate) fn env() -> ContextEnvironment {
    ContextEnvironment::new(vec![
        Hierarchy::flat("mood", &["low", "high"]).unwrap(),
        Hierarchy::flat("weather", &["cold", "mild", "warm"]).unwrap(),
    ])
    .unwrap()
}

/// One attribute of each type: `name` (str), `rank` (int), `price`
/// (float), `open` (bool).
pub(crate) fn relation() -> Relation {
    let schema = Schema::new(&[
        ("name", AttrType::Str),
        ("rank", AttrType::Int),
        ("price", AttrType::Float),
        ("open", AttrType::Bool),
    ])
    .unwrap();
    Relation::new("items", schema)
}

/// One descriptor clause: a parameter's name and how to build its
/// descriptor from the parameter's hierarchy.
type Clause = (&'static str, fn(&Hierarchy) -> ParameterDescriptor);

/// A preference on `attr op value`, scoped by `clauses`.
fn pref(
    clauses: &[Clause],
    attr: &str,
    op: CompareOp,
    value: Value,
    score: f64,
) -> ContextualPreference {
    let env = env();
    let mut descriptor = ContextDescriptor::empty();
    for (param, clause) in clauses {
        let p = env.param(param).unwrap();
        descriptor = descriptor.with(p, clause(env.hierarchy(p)));
    }
    let attr = relation().schema().require_attr(attr).unwrap();
    ContextualPreference::new(descriptor, AttributeClause::new(attr, op, value), score).unwrap()
}

/// Every op variant: inserts cover `Eq`, `In` and `Range` clauses, the
/// empty descriptor and each value type; names hold spaces, newlines,
/// non-ASCII and nothing at all.
pub(crate) fn every_op() -> Vec<WalOp> {
    let insert = |user: &str, pref| WalOp::InsertPreference {
        user: user.into(),
        pref,
    };
    vec![
        WalOp::AddUser { user: "ada".into() },
        WalOp::RemoveUser {
            user: "new\nline and space".into(),
        },
        insert(
            "ada",
            pref(
                &[("mood", |h| {
                    ParameterDescriptor::Eq(h.lookup("high").unwrap())
                })],
                "name",
                CompareOp::Eq,
                Value::str("café"),
                0.75,
            ),
        ),
        insert(
            "ada",
            pref(
                &[
                    ("mood", |h| {
                        ParameterDescriptor::In(vec![h.lookup("low").unwrap(), h.all_value()])
                    }),
                    ("weather", |h| {
                        ParameterDescriptor::Range(
                            h.lookup("cold").unwrap(),
                            h.lookup("warm").unwrap(),
                        )
                    }),
                ],
                "rank",
                CompareOp::Le,
                Value::Int(-3),
                1.0,
            ),
        ),
        insert(
            "",
            pref(&[], "price", CompareOp::Gt, Value::Float(2.5), 0.0),
        ),
        insert(
            "bob",
            pref(
                &[("weather", |h| {
                    ParameterDescriptor::Eq(h.lookup("mild").unwrap())
                })],
                "open",
                CompareOp::Ne,
                Value::Bool(true),
                0.125,
            ),
        ),
        WalOp::RemovePreference {
            user: "ada".into(),
            index: 300,
        },
        WalOp::UpdateScore {
            user: "ada".into(),
            index: 1,
            score: 0.5,
        },
    ]
}
