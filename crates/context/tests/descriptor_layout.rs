//! A descriptor keeps its clauses in one sorted slice. Whatever order
//! clauses arrive in, and however often a parameter's clause is
//! replaced, it must mean what a map from parameter to clause means:
//! equal descriptors for equal final clause sets, clauses listed in
//! ascending parameter order with one per parameter, and the states of
//! Definition 4 computed from that map.

use std::collections::BTreeMap;

use ctxpref_context::{
    ContextDescriptor, ContextEnvironment, ContextState, CtxValue, ParamId, ParameterDescriptor,
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

/// A valid clause for parameter `param % n`, of a kind and values
/// picked by `seed`.
fn clause(env: &ContextEnvironment, param: usize, seed: u64) -> (ParamId, ParameterDescriptor) {
    let p = ParamId((param % env.len()) as u16);
    let h = env.hierarchy(p);
    let mut rng = TestRng::from_seed(seed);
    let any = |rng: &mut TestRng| ValueId(rng.below(h.value_count()) as u32);
    let pd = match rng.below(3) {
        0 => ParameterDescriptor::Eq(any(&mut rng)),
        1 => ParameterDescriptor::In((0..=rng.below(3)).map(|_| any(&mut rng)).collect()),
        _ => {
            let level = h.domain(LevelId(rng.below(h.level_count()) as u8));
            let (i, j) = (rng.below(level.len()), rng.below(level.len()));
            ParameterDescriptor::Range(level[i.min(j)], level[i.max(j)])
        }
    };
    (p, pd)
}

/// `xs` in an order drawn from `rng`.
fn shuffled<T: Clone>(xs: &[T], rng: &mut TestRng) -> Vec<T> {
    let mut out = xs.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// Definition 4 over the map: the Cartesian product, in parameter
/// order, of each parameter's values (`{all}` when unconstrained).
fn reference_states(
    env: &ContextEnvironment,
    map: &BTreeMap<ParamId, ParameterDescriptor>,
) -> Vec<ContextState> {
    let mut states: Vec<Vec<CtxValue>> = vec![Vec::new()];
    for (p, h) in env.iter() {
        let values = match map.get(&p) {
            Some(pd) => pd.values(p, h).unwrap(),
            None => vec![h.all_value()],
        };
        states = states
            .into_iter()
            .flat_map(|prefix| {
                values.iter().map(move |&v| {
                    let mut s = prefix.clone();
                    s.push(v);
                    s
                })
            })
            .collect();
    }
    states
        .into_iter()
        .map(|values| ContextState::new(env, values).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_descriptor_means_its_clause_map(
        picks in proptest::collection::vec((0usize..8, any::<u64>()), 0..10),
        order_seed in any::<u64>(),
    ) {
        let env = env4();
        let mut rng = TestRng::from_seed(order_seed);
        // Parameters repeat, so later clauses replace earlier ones.
        let clauses: Vec<_> = picks.iter().map(|&(p, seed)| clause(&env, p, seed)).collect();
        let mut map = BTreeMap::new();
        let mut built = ContextDescriptor::empty();
        for (p, pd) in &clauses {
            map.insert(*p, pd.clone());
            built = built.with(*p, pd.clone());
        }
        let expected: Vec<_> = map.iter().map(|(&p, pd)| (p, pd.clone())).collect();

        // One constructor call, with the same replacements.
        prop_assert_eq!(&ContextDescriptor::from_clauses(clauses.clone()), &built);
        // The final clause set in any order, by `with` or at once.
        let mut reordered = ContextDescriptor::empty();
        for (p, pd) in shuffled(&expected, &mut rng) {
            reordered = reordered.with(p, pd);
        }
        prop_assert_eq!(&reordered, &built);
        prop_assert_eq!(
            &ContextDescriptor::from_clauses(shuffled(&expected, &mut rng)),
            &built
        );

        // Ascending parameters, one clause each, exactly the map's.
        let listed: Vec<_> = built
            .clauses()
            .map(|(p, pd)| (p, ParameterDescriptor::from(pd)))
            .collect();
        prop_assert!(listed.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert_eq!(&listed, &expected);
        prop_assert_eq!(built.clause_count(), map.len());
        prop_assert_eq!(built.is_empty(), map.is_empty());
        for (p, _) in env.iter() {
            prop_assert_eq!(
                built.clause(p).map(ParameterDescriptor::from).as_ref(),
                map.get(&p)
            );
        }

        // Definition 4, state for state and in the same order.
        let states = reference_states(&env, &map);
        prop_assert_eq!(built.states(&env).unwrap(), states.clone());
        prop_assert_eq!(built.state_count(&env).unwrap(), states.len() as u128);
    }
}
