//! `ContextDescriptor::for_each_state` walks `Context(cod)` in place.
//! Over random descriptors — empty, `Eq`, `In` with repeated values,
//! `Range` (reversed and across levels too) and values foreign to
//! their hierarchy — it must visit exactly the states `states()` lists,
//! in the same order, or be refused with the same `ContextError`, and
//! both must agree with Definition 4 worked out here from the
//! hierarchies alone. A walk that breaks stops where it broke.

use std::ops::ControlFlow;

use ctxpref_context::{
    ContextDescriptor, ContextEnvironment, ContextError, CtxValue, ParamId, ParameterDescriptor,
    STACK_PARAMS,
};
use ctxpref_hierarchy::{Hierarchy, LevelId, ValueId};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn env4() -> ContextEnvironment {
    ContextEnvironment::new(vec![
        Hierarchy::balanced("a", &[6, 3]).unwrap(),
        Hierarchy::flat("b", &["x", "y", "z"]).unwrap(),
        Hierarchy::balanced("c", &[4, 2]).unwrap(),
        Hierarchy::flat("d", &["p", "q"]).unwrap(),
    ])
    .unwrap()
}

/// An environment of `n` two-value parameters.
fn wide(n: usize) -> ContextEnvironment {
    let names: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
    ContextEnvironment::new(
        names
            .iter()
            .map(|name| Hierarchy::flat(name, &["u", "v"]).unwrap())
            .collect(),
    )
    .unwrap()
}

/// A clause for parameter `param % n`, of a kind and values picked by
/// `seed`: now and then empty, foreign to the hierarchy, repeated,
/// reversed or across levels.
fn clause(env: &ContextEnvironment, param: usize, seed: u64) -> (ParamId, ParameterDescriptor) {
    let p = ParamId((param % env.len()) as u16);
    let h = env.hierarchy(p);
    let mut rng = TestRng::from_seed(seed);
    // Past the hierarchy's last value, an id is foreign to it.
    let foreign = 1 + h.value_count() / 8;
    let any = |rng: &mut TestRng| ValueId(rng.below(h.value_count() + foreign) as u32);
    let level = |rng: &mut TestRng| h.domain(LevelId(rng.below(h.level_count()) as u8));
    let pd = match rng.below(4) {
        0 => ParameterDescriptor::Eq(any(&mut rng)),
        1 => ParameterDescriptor::In((0..rng.below(5)).map(|_| any(&mut rng)).collect()),
        2 => {
            // Repeats of a few values of one level.
            let level = level(&mut rng);
            let picks = (0..1 + rng.below(6)).map(|_| level[rng.below(level.len())]);
            ParameterDescriptor::In(picks.collect())
        }
        _ => {
            let (a, b) = (level(&mut rng), level(&mut rng));
            ParameterDescriptor::Range(a[rng.below(a.len())], b[rng.below(b.len())])
        }
    };
    (p, pd)
}

/// Definition 2 for one clause, from the hierarchy alone.
fn reference_values(
    p: ParamId,
    h: &Hierarchy,
    pd: Option<&ParameterDescriptor>,
) -> Result<Vec<CtxValue>, ContextError> {
    let check = |v: CtxValue| match v.index() < h.value_count() {
        true => Ok(v),
        false => Err(ContextError::ForeignValue { param: p }),
    };
    match pd {
        None => Ok(vec![h.all_value()]),
        Some(ParameterDescriptor::Eq(v)) => Ok(vec![check(*v)?]),
        Some(ParameterDescriptor::In(vs)) => {
            if vs.is_empty() {
                return Err(ContextError::EmptyValueSet { param: p });
            }
            let mut out = Vec::new();
            for &v in vs {
                if !out.contains(&check(v)?) {
                    out.push(v);
                }
            }
            Ok(out)
        }
        Some(ParameterDescriptor::Range(from, to)) => {
            let (from, to) = (check(*from)?, check(*to)?);
            h.range_values(from, to)
                .ok_or(ContextError::RangeLevelMismatch { param: p })
        }
    }
}

/// Definition 4 from the clauses: every parameter's set checked in
/// parameter order, then their product, the last parameter turning
/// fastest.
fn reference_states(
    env: &ContextEnvironment,
    cod: &ContextDescriptor,
) -> Result<Vec<Vec<CtxValue>>, ContextError> {
    let mut sets = Vec::new();
    for (p, h) in env.iter() {
        let pd = cod.clause(p).map(ParameterDescriptor::from);
        sets.push(reference_values(p, h, pd.as_ref())?);
    }
    let mut states = vec![Vec::new()];
    for set in &sets {
        states = states
            .into_iter()
            .flat_map(|prefix| {
                set.iter().map(move |&v| {
                    let mut s = prefix.clone();
                    s.push(v);
                    s
                })
            })
            .collect();
    }
    Ok(states)
}

/// Every state the walk visits, or its error.
fn walked(
    env: &ContextEnvironment,
    cod: &ContextDescriptor,
) -> Result<Vec<Vec<CtxValue>>, ContextError> {
    let mut seen = Vec::new();
    let end = cod.for_each_state(env, |state| {
        seen.push(state.to_vec());
        ControlFlow::<()>::Continue(())
    })?;
    assert_eq!(end, ControlFlow::Continue(()));
    Ok(seen)
}

fn check_walk(env: &ContextEnvironment, cod: &ContextDescriptor) {
    let walk = walked(env, cod);
    let listed = cod
        .states(env)
        .map(|states| states.iter().map(|s| s.values().to_vec()).collect());
    assert_eq!(&walk, &listed);
    assert_eq!(&walk, &reference_states(env, cod));
    match &walk {
        Ok(states) => assert_eq!(cod.state_count(env), Ok(states.len() as u128)),
        Err(e) => assert_eq!(cod.state_count(env), Err(e.clone())),
    }
    // A break stops the walk at the state it broke on, and the walk
    // answers with what the visitor broke with.
    if let Ok(states) = &walk {
        for (stop, expected) in states.iter().enumerate() {
            let mut visited = 0;
            let end = cod
                .for_each_state(env, |state| {
                    visited += 1;
                    match visited == stop + 1 {
                        true => ControlFlow::Break(state.to_vec()),
                        false => ControlFlow::Continue(()),
                    }
                })
                .unwrap();
            assert_eq!(end, ControlFlow::Break(expected.clone()));
            assert_eq!(visited, stop + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_walk_visits_what_states_lists(
        picks in proptest::collection::vec((0usize..8, any::<u64>()), 0..6),
    ) {
        let env = env4();
        let clauses: Vec<_> = picks.iter().map(|&(p, seed)| clause(&env, p, seed)).collect();
        check_walk(&env, &ContextDescriptor::from_clauses(clauses));
    }

    #[test]
    fn a_wide_environment_walks_the_same(
        n in (STACK_PARAMS - 1)..(STACK_PARAMS + 3),
        picks in proptest::collection::vec((0usize..16, any::<u64>()), 0..6),
    ) {
        let env = wide(n);
        let clauses: Vec<_> = picks.iter().map(|&(p, seed)| clause(&env, p, seed)).collect();
        check_walk(&env, &ContextDescriptor::from_clauses(clauses));
    }
}

#[test]
fn an_empty_product_visits_nothing_and_an_error_visits_nothing() {
    let env = env4();
    let a = ParamId(0);
    let h = env.hierarchy(a);
    let level = h.domain(LevelId::DETAILED);
    // A reversed range is an empty set: no state, no error.
    let reversed =
        ContextDescriptor::empty().with(a, ParameterDescriptor::Range(level[3], level[1]));
    assert_eq!(walked(&env, &reversed), Ok(vec![]));
    assert_eq!(reversed.state_count(&env), Ok(0));
    // A later parameter's error is found before any state is visited,
    // even behind an empty set.
    let refused = reversed.with(ParamId(3), ParameterDescriptor::In(vec![]));
    let mut visited = 0;
    let walk = refused.for_each_state(&env, |_| {
        visited += 1;
        ControlFlow::<()>::Continue(())
    });
    assert_eq!(walk, Err(ContextError::EmptyValueSet { param: ParamId(3) }));
    assert_eq!(visited, 0);
    assert_eq!(
        refused.states(&env),
        Err(ContextError::EmptyValueSet { param: ParamId(3) })
    );
}
