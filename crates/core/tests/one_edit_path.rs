//! `ContextualDb` and the multi-user core edit a profile the same way,
//! and every answer is a function of the profile alone: after a removal
//! both agree with a database built afresh from the edited profile,
//! even under `TieBreak::First`, whose pick must not depend on the
//! order the tree happens to store its paths in.

use ctxpref_context::{ContextEnvironment, ContextState};
use ctxpref_core::{ContextualDb, MultiUserDb, QueryAnswer, QueryOptions};
use ctxpref_hierarchy::Hierarchy;
use ctxpref_relation::{AttrType, Relation, Schema};
use ctxpref_resolve::TieBreak;

fn env() -> ContextEnvironment {
    ContextEnvironment::new(vec![
        Hierarchy::flat("A", &["a1", "a2"]).unwrap(),
        Hierarchy::flat("B", &["b1", "b2", "b3"]).unwrap(),
    ])
    .unwrap()
}

fn relation() -> Relation {
    let schema = Schema::new(&[("name", AttrType::Str)]).unwrap();
    let mut rel = Relation::new("r", schema);
    for name in ["t0", "t1", "t2"] {
        rel.insert(vec![name.into()]).unwrap();
    }
    rel
}

fn first() -> QueryOptions {
    QueryOptions {
        tie: TieBreak::First,
        ..QueryOptions::default()
    }
}

fn contextual_db() -> ContextualDb {
    ContextualDb::builder()
        .env(env())
        .relation(relation())
        .defaults(first())
        .build()
        .unwrap()
}

fn rows(answer: &QueryAnswer) -> Vec<(usize, u64)> {
    let entries = answer.results.entries();
    entries
        .iter()
        .map(|e| (e.tuple_index, e.score.to_bits()))
        .collect()
}

#[test]
fn first_tie_break_answers_alike_after_a_removal() {
    let prefs = [
        ("A = a2", "t0", 0.5),
        ("A = a1", "t1", 0.9),
        ("B = b1", "t2", 0.8),
    ];
    let mut single = contextual_db();
    let mut multi = MultiUserDb::new(env(), relation(), 0);
    multi.set_query_defaults(first());
    multi.add_user("u").unwrap();
    for (descriptor, name, score) in prefs {
        single
            .insert_preference_eq(descriptor, "name", name.into(), score)
            .unwrap();
        multi
            .insert_preference_eq("u", descriptor, "name", name.into(), score)
            .unwrap();
    }
    // (a1, all) and (all, b1) both cover (a1, b1) at distance 1.
    let state = ContextState::parse(&env(), &["a1", "b1"]).unwrap();
    let before = rows(&single.query_state(&state).unwrap());
    assert_eq!(before.len(), 1);
    assert_eq!(before, rows(&multi.query_state("u", &state).unwrap()));

    single.remove_preference(0).unwrap();
    multi.remove_preference("u", 0).unwrap();
    let mut rebuilt = contextual_db();
    for pref in single.profile().iter() {
        rebuilt.insert_preference(pref.clone()).unwrap();
    }
    assert_eq!(
        single.profile().preferences(),
        multi.profile("u").unwrap().preferences()
    );

    let want = rows(&rebuilt.query_state(&state).unwrap());
    assert_eq!(
        want, before,
        "removing an unrelated preference moved the pick"
    );
    assert_eq!(rows(&single.query_state(&state).unwrap()), want);
    assert_eq!(rows(&multi.query_state("u", &state).unwrap()), want);
}
