//! Property test for the early-terminating top-k ranker: on random
//! profiles, relations, query states, and `k`, `rank_cs_topk` must
//! produce exactly `rank_cs` + `top_k_with_ties(k)` — the bounded
//! min-heap threshold may never cut off a tuple a full ranking would
//! have kept (the PR 2 hot-path bugfix regression test).

use ctxpref_context::{
    ContextDescriptor, ContextEnvironment, ContextState, DistanceKind, ExtendedContextDescriptor,
    ParamId, ParameterDescriptor,
};
use ctxpref_hierarchy::Hierarchy;
use ctxpref_profile::{AttributeClause, ContextualPreference, ParamOrder, Profile, ProfileTree};
use ctxpref_relation::{AttrId, AttrType, Relation, Schema, ScoreCombiner};
use ctxpref_resolve::{rank_cs, rank_cs_topk, TieBreak};
use proptest::prelude::*;

fn env() -> ContextEnvironment {
    ContextEnvironment::new(vec![
        Hierarchy::balanced("a", &[6, 2]).unwrap(),
        Hierarchy::balanced("b", &[5]).unwrap(),
    ])
    .unwrap()
}

fn relation(n: usize) -> Relation {
    let schema = Schema::new(&[("v", AttrType::Str)]).unwrap();
    let mut rel = Relation::new("r", schema);
    for i in 0..n {
        rel.insert(vec![format!("v{}", i % 12).into()]).unwrap();
    }
    rel
}

/// A seeded random profile: equality preferences over random detailed
/// states with scores drawn so duplicates and exact score ties occur.
fn profile(env: &ContextEnvironment, seed: u64, prefs: usize) -> Profile {
    let mut p = Profile::new(env.clone());
    let ha = env.hierarchy(ParamId(0));
    let hb = env.hierarchy(ParamId(1));
    let da = ha.domain(ha.detailed_level());
    let db = hb.domain(hb.detailed_level());
    let mut x = seed;
    for i in 0..prefs as u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let va = da[(x >> 8) as usize % da.len()];
        let vb = db[(x >> 20) as usize % db.len()];
        let clause_v = (x >> 32) % 12;
        // Coarse score grid → frequent ties at the k-th position.
        let score = 0.1 + ((x >> 40).wrapping_add(i) % 9) as f64 / 10.0;
        let cod = ContextDescriptor::empty()
            .with(ParamId(0), ParameterDescriptor::Eq(va))
            .with(ParamId(1), ParameterDescriptor::Eq(vb));
        let clause = AttributeClause::eq(AttrId(0), format!("v{clause_v}").into());
        // Conflicting (state, clause) pairs are skipped, like a user
        // whose duplicate insertion was rejected.
        let _ = p.insert(ContextualPreference::new(cod, clause, score).unwrap());
    }
    p
}

fn query_descriptor(env: &ContextEnvironment, state: &ContextState) -> ExtendedContextDescriptor {
    let mut cod = ContextDescriptor::empty();
    for (pid, h) in env.iter() {
        let v = state.value(pid);
        if v != h.all_value() {
            cod = cod.with(pid, ParameterDescriptor::Eq(v));
        }
    }
    cod.into()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn topk_equals_full_rank_plus_topk_with_ties(
        seed in any::<u64>(),
        prefs in 5usize..80,
        tuples in 10usize..150,
        k in 1usize..30,
        state_ix in 0usize..30,
    ) {
        let env = env();
        let rel = relation(tuples);
        let p = profile(&env, seed, prefs);
        let tree = ProfileTree::from_profile(&p, ParamOrder::by_ascending_domain(&env)).unwrap();
        let ha = env.hierarchy(ParamId(0));
        let hb = env.hierarchy(ParamId(1));
        let da = ha.domain(ha.detailed_level());
        let db = hb.domain(hb.detailed_level());
        let state = ContextState::from_values_unchecked(vec![
            da[state_ix % da.len()],
            db[(state_ix / da.len()) % db.len()],
        ]);
        let ecod = query_descriptor(&env, &state);

        let full = rank_cs(
            &tree, &rel, &ecod, DistanceKind::Hierarchy, TieBreak::All, ScoreCombiner::Max,
        ).unwrap();
        let fast = rank_cs_topk(
            &tree, &rel, &ecod, DistanceKind::Hierarchy, TieBreak::All, ScoreCombiner::Max, k,
        ).unwrap();
        prop_assert_eq!(
            full.results.top_k_with_ties(k),
            fast.results.entries(),
            "seed {} prefs {} tuples {} k {}", seed, prefs, tuples, k
        );
        // The resolution trace is shared machinery; it must agree too.
        prop_assert_eq!(full.resolutions.len(), fast.resolutions.len());
    }
}
