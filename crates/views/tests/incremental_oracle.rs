//! The tentpole property: a materialized view maintained
//! *incrementally* across an arbitrary mutation sequence must answer
//! bit-identically to full recomputation. Every `serve` hit is checked
//! against a fresh `rank_cs` + `top_k_with_ties(k)` oracle — same
//! rows, same scores, same order — for k ∈ {1, 3, 10}, under
//! exact, coarser and two-state preference descriptors, across
//! inserts, removals, and score updates in both directions, in every
//! arm of {Hierarchy, Jaccard} × {TieBreak::All, TieBreak::First}.
//! After every step `ViewCatalog::verify` must find each materialized
//! view equal to a fresh build, so a stale view is caught the moment
//! it goes stale, not only when a query happens to hit it.

use ctxpref_context::{
    ContextDescriptor, ContextEnvironment, ContextState, DistanceKind, ExtendedContextDescriptor,
    ParamId, ParameterDescriptor,
};
use ctxpref_hierarchy::Hierarchy;
use ctxpref_profile::{AttributeClause, ContextualPreference, ParamOrder, Profile, ProfileTree};
use ctxpref_relation::{AttrId, AttrType, Relation, Schema, ScoreCombiner};
use ctxpref_resolve::{rank_cs, TieBreak};
use ctxpref_views::{Change, ViewCatalog, ViewOpts, MATERIALIZE_AFTER};
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

/// The four option arms: {Hierarchy, Jaccard} × {All, First}.
fn opts(arm: u8) -> ViewOpts {
    ViewOpts {
        distance: if arm & 1 == 0 {
            DistanceKind::Hierarchy
        } else {
            DistanceKind::Jaccard
        },
        tie: if arm & 2 == 0 {
            TieBreak::All
        } else {
            TieBreak::First
        },
        combiner: ScoreCombiner::Max,
    }
}

/// A random preference. `wide` drops one parameter from the
/// descriptor, making it cover every state of that parameter; the
/// first parameter is sometimes named at its middle level (a coarser
/// covering state) or as a two-value set (a two-state descriptor).
fn random_pref(env: &ContextEnvironment, x: u64) -> ContextualPreference {
    let ha = env.hierarchy(ParamId(0));
    let hb = env.hierarchy(ParamId(1));
    let da = ha.domain(ha.detailed_level());
    let db = hb.domain(hb.detailed_level());
    let va = da[(x >> 8) as usize % da.len()];
    let vb = db[(x >> 20) as usize % db.len()];
    let pa = match (x >> 48) % 4 {
        0 => ParameterDescriptor::Eq(ha.parent(va).expect("detailed value has a parent")),
        1 => ParameterDescriptor::In(vec![va, da[(x >> 52) as usize % da.len()]]),
        _ => ParameterDescriptor::Eq(va),
    };
    let mut cod = ContextDescriptor::empty();
    let wide = (x >> 30) % 4;
    if wide != 0 {
        cod = cod.with(ParamId(0), pa);
    }
    if wide != 1 {
        cod = cod.with(ParamId(1), ParameterDescriptor::Eq(vb));
    }
    let clause = AttributeClause::eq(AttrId(0), format!("v{}", (x >> 32) % 12).into());
    // Coarse score grid → frequent exact ties, the hard case for the
    // floor/dominates rules.
    let score = 0.1 + ((x >> 40) % 9) as f64 / 10.0;
    ContextualPreference::new(cod, clause, score).unwrap()
}

fn state_at(env: &ContextEnvironment, ix: usize) -> ContextState {
    let ha = env.hierarchy(ParamId(0));
    let hb = env.hierarchy(ParamId(1));
    let da = ha.domain(ha.detailed_level());
    let db = hb.domain(hb.detailed_level());
    ContextState::from_values_unchecked(vec![da[ix % da.len()], db[(ix / da.len()) % db.len()]])
}

fn descriptor_of(env: &ContextEnvironment, state: &ContextState) -> ExtendedContextDescriptor {
    let mut cod = ContextDescriptor::empty();
    for (pid, h) in env.iter() {
        let v = state.value(pid);
        if v != h.all_value() {
            cod = cod.with(pid, ParameterDescriptor::Eq(v));
        }
    }
    cod.into()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64),
    Remove(usize),
    Rescore(usize, u8),
    Query(usize, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<u64>().prop_map(Op::Insert),
        1 => (0usize..64).prop_map(Op::Remove),
        2 => ((0usize..64), any::<u8>()).prop_map(|(i, s)| Op::Rescore(i, s)),
        4 => ((0usize..12), any::<u8>()).prop_map(|(s, k)| Op::Query(s, k)),
    ]
}

/// The full-recompute oracle: fresh resolution of `state` over the
/// current tree, cut to `top_k_with_ties(k)`.
fn oracle(
    env: &ContextEnvironment,
    tree: &ProfileTree,
    rel: &Relation,
    opts: &ViewOpts,
    state: &ContextState,
    k: usize,
) -> Vec<ctxpref_relation::ScoredTuple> {
    let ecod = descriptor_of(env, state);
    let q = rank_cs(tree, rel, &ecod, opts.distance, opts.tie, opts.combiner).unwrap();
    q.results.top_k_with_ties(k).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn incremental_views_match_full_recompute(
        seed in any::<u64>(),
        arm in 0u8..4,
        tuples in 10usize..80,
        ops in proptest::collection::vec(op_strategy(), 20..120),
    ) {
        let env = env();
        let rel = relation(tuples);
        let order = ParamOrder::by_ascending_domain(&env);
        let mut profile = Profile::new(env.clone());
        // Seed profile so early queries have something to rank.
        let mut x = seed;
        for _ in 0..6 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let _ = profile.insert(random_pref(&env, x));
        }
        let mut tree = ProfileTree::from_profile(&profile, order.clone()).unwrap();
        let catalog = ViewCatalog::new(8);
        let opts = opts(arm);
        let mut served = 0u64;
        let mut queried = false;

        for op in ops {
            match op {
                Op::Insert(r) => {
                    let pref = random_pref(&env, r);
                    if tree.insert(&pref).is_err() {
                        continue; // duplicate (state, clause): rejected upstream
                    }
                    profile.insert_unchecked(pref);
                    let pref = profile.preferences().last().unwrap();
                    catalog.on_mutation(&tree, &rel, &opts, Change::Insert(pref));
                }
                Op::Remove(i) => {
                    if profile.len() <= 1 {
                        continue;
                    }
                    let removed = profile.remove(i % profile.len());
                    tree = ProfileTree::from_profile(&profile, order.clone()).unwrap();
                    catalog.on_mutation(&tree, &rel, &opts, Change::Remove(&removed));
                }
                Op::Rescore(i, s) => {
                    if profile.is_empty() {
                        continue;
                    }
                    let i = i % profile.len();
                    let old_score = profile.preferences()[i].score();
                    let score = 0.1 + (s % 9) as f64 / 10.0;
                    // Overlapping descriptors can make the new score
                    // conflict at the tree level: probe on a clone, as
                    // the real store rejects such updates up front.
                    let mut candidate = profile.clone();
                    if candidate.update_score(i, score).is_err() {
                        continue;
                    }
                    let Ok(t) = ProfileTree::from_profile(&candidate, order.clone()) else {
                        continue;
                    };
                    profile = candidate;
                    tree = t;
                    let pref = &profile.preferences()[i];
                    catalog.on_mutation(&tree, &rel, &opts, Change::Rescore { pref, old_score });
                }
                Op::Query(s, kpick) => {
                    queried = true;
                    let state = state_at(&env, s);
                    let k = [1usize, 3, 10][kpick as usize % 3];
                    // Drive the state past the materialization
                    // threshold so the view path actually serves.
                    for _ in 0..=MATERIALIZE_AFTER {
                        if let Some(got) = catalog.serve(&tree, &rel, &opts, &state, k) {
                            let want = oracle(&env, &tree, &rel, &opts, &state, k);
                            prop_assert_eq!(
                                got.entries(), want.as_slice(),
                                "view diverged from recompute: state {} k {} opts {:?}", s, k, opts
                            );
                            served += 1;
                        }
                    }
                }
            }
            let stale = catalog.verify(&tree, &rel);
            prop_assert!(stale.is_empty(), "views disagree with a fresh build: {:?} opts {:?}", stale, opts);
        }
        // Each query op repeats past the materialization threshold, so
        // any query at all must have been served from a view at least
        // once — the equality above cannot pass vacuously.
        prop_assert!(served > 0 || !queried, "no view ever served");
    }
}
