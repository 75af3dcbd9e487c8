//! Property test for `Rank_CS`'s ranking walk: on random relations,
//! profiles and queries, `rank_cs`, `rank_cs_topk` and the one-state
//! ranking a view build makes (`rank_selected` over a single
//! resolution) must equal, bit for bit, a reference that scans
//! the relation for every selected entry and merges the scored tuples
//! with `RankedResults::from_scores`.
//!
//! The generator aims at the walk's edges: a coarse score grid holding
//! both `-0.0` and `0.0`, so runs of equal-scored entries are common;
//! `=` clauses on a low-cardinality attribute and range/`≠` clauses on
//! another, so selections overlap within and across runs and both the
//! index and the scan path of `Relation::select` are taken; clause
//! values absent from the relation, and empty relations, so selections
//! can be empty; descriptors at every hierarchy level, so resolution
//! selects several leaves.

use ctxpref_context::{
    ContextDescriptor, ContextEnvironment, DistanceKind, ExtendedContextDescriptor,
    ParameterDescriptor,
};
use ctxpref_hierarchy::Hierarchy;
use ctxpref_profile::{
    AttributeClause, ContextualPreference, ParamOrder, Profile, ProfileTree, SerialStore,
};
use ctxpref_relation::{
    AttrId, AttrType, CompareOp, RankedResults, Relation, Schema, ScoreCombiner, ScoredTuple, Value,
};
use ctxpref_resolve::{
    rank_cs, rank_cs_topk, rank_selected, PreferenceStore, StateResolution, TieBreak,
};
use proptest::prelude::*;

/// Scores drawn from a grid with both zeros, so equal-score runs and
/// `±0.0` ties are frequent.
const SCORES: [f64; 6] = [-0.0, 0.0, 0.25, 0.5, 0.75, 1.0];
const RANGE_OPS: [CompareOp; 5] = [
    CompareOp::Ne,
    CompareOp::Lt,
    CompareOp::Le,
    CompareOp::Gt,
    CompareOp::Ge,
];

fn env() -> ContextEnvironment {
    ContextEnvironment::new(vec![
        Hierarchy::balanced("a", &[6, 2]).unwrap(),
        Hierarchy::balanced("b", &[4]).unwrap(),
    ])
    .unwrap()
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }
}

/// `v` repeats 8 values, `n` 20, in a seeded order.
fn relation(rng: &mut Lcg, tuples: usize) -> Relation {
    let schema = Schema::new(&[("v", AttrType::Str), ("n", AttrType::Int)]).unwrap();
    let mut rel = Relation::new("r", schema);
    for _ in 0..tuples {
        let v = format!("v{}", rng.below(8));
        let n = rng.below(20) as i64;
        rel.insert(vec![v.into(), n.into()]).unwrap();
    }
    rel
}

/// Preferences at any level of either hierarchy: three in four are
/// `v = vX` (`v8`, `v9` select nothing), the rest compare `n`.
fn profile(env: &ContextEnvironment, rng: &mut Lcg, prefs: usize) -> Profile {
    let mut p = Profile::new(env.clone());
    for _ in 0..prefs {
        let mut cod = ContextDescriptor::empty();
        for (pid, h) in env.iter() {
            let values: Vec<_> = h.edom().collect();
            let v = values[rng.below(values.len())];
            if v != h.all_value() {
                cod = cod.with(pid, ParameterDescriptor::Eq(v));
            }
        }
        let clause = if rng.below(4) < 3 {
            AttributeClause::eq(AttrId(0), format!("v{}", rng.below(10)).into())
        } else {
            let op = RANGE_OPS[rng.below(RANGE_OPS.len())];
            AttributeClause::new(AttrId(1), op, Value::Int(rng.below(20) as i64))
        };
        let score = SCORES[rng.below(SCORES.len())];
        // A conflicting (state, clause) pair is refused, as it would be
        // for a user.
        let _ = p.insert(ContextualPreference::new(cod, clause, score).unwrap());
    }
    p
}

/// A disjunction of `states` detailed context states.
fn query(env: &ContextEnvironment, rng: &mut Lcg, states: usize) -> ExtendedContextDescriptor {
    let disjuncts = (0..states)
        .map(|_| {
            let mut cod = ContextDescriptor::empty();
            for (pid, h) in env.iter() {
                let domain = h.domain(h.detailed_level());
                cod = cod.with(
                    pid,
                    ParameterDescriptor::Eq(domain[rng.below(domain.len())]),
                );
            }
            cod
        })
        .collect();
    ExtendedContextDescriptor::from_disjuncts(disjuncts)
}

/// The reference ranking: each selected entry's selection found by
/// scanning every tuple, all merged by `from_scores`.
fn reference<S: PreferenceStore>(
    store: &S,
    rel: &Relation,
    resolutions: &[StateResolution],
    combiner: ScoreCombiner,
) -> RankedResults {
    let mut raw = Vec::new();
    for cand in resolutions.iter().flat_map(|res| &res.selected) {
        for entry in store.entries(cand.leaf) {
            let pred = entry.clause.predicate();
            for (tuple_index, tuple) in rel.tuples().iter().enumerate() {
                if pred.matches(tuple) {
                    raw.push(ScoredTuple {
                        tuple_index,
                        score: entry.score,
                    });
                }
            }
        }
    }
    RankedResults::from_scores(raw, combiner)
}

/// Entries with their scores' bit patterns: `==` would equate `-0.0`
/// and `0.0`.
fn bits(entries: &[ScoredTuple]) -> Vec<(usize, u64)> {
    entries
        .iter()
        .map(|e| (e.tuple_index, e.score.to_bits()))
        .collect()
}

fn check<S: PreferenceStore>(
    store: &S,
    rel: &Relation,
    ecod: &ExtendedContextDescriptor,
    k: usize,
) {
    let (kind, tie) = (DistanceKind::Hierarchy, TieBreak::All);
    for combiner in [ScoreCombiner::Max, ScoreCombiner::Min, ScoreCombiner::Avg] {
        let full = rank_cs(store, rel, ecod, kind, tie, combiner).unwrap();
        let want = reference(store, rel, &full.resolutions, combiner);
        prop_assert_eq!(
            bits(full.results.entries()),
            bits(want.entries()),
            "{}",
            combiner
        );

        let topk = rank_cs_topk(store, rel, ecod, kind, tie, combiner, k).unwrap();
        let want_topk = match combiner {
            ScoreCombiner::Max => want.top_k_with_ties(k),
            _ => want.entries(),
        };
        prop_assert_eq!(
            bits(topk.results.entries()),
            bits(want_topk),
            "{} k {}",
            combiner,
            k
        );
        let unbounded = rank_cs_topk(store, rel, ecod, kind, tie, combiner, 0).unwrap();
        prop_assert_eq!(bits(unbounded.results.entries()), bits(want.entries()));

        // A view build ranks one state's resolution on its own.
        for res in &full.resolutions {
            let one = std::slice::from_ref(res);
            let view = rank_selected(store, rel, one, combiner, None);
            let want_view = reference(store, rel, one, combiner);
            prop_assert_eq!(bits(view.entries()), bits(want_view.entries()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn walk_equals_merged_reference(
        seed in any::<u64>(),
        tuples in 0usize..120,
        prefs in 0usize..60,
        states in 1usize..4,
        k in 1usize..=30,
    ) {
        let env = env();
        let mut rng = Lcg(seed);
        let rel = relation(&mut rng, tuples);
        let p = profile(&env, &mut rng, prefs);
        let ecod = query(&env, &mut rng, states);
        let tree = ProfileTree::from_profile(&p, ParamOrder::by_ascending_domain(&env)).unwrap();
        check(&tree, &rel, &ecod, k);
        let serial = SerialStore::from_profile(&p).unwrap();
        check(&serial, &rel, &ecod, k);
    }
}

/// Two entries of one score select overlapping tuples (`v = v1` and
/// `n ≤ 3`), a `-0.0` and a `0.0` entry tie, and a clause selects
/// nothing: the walk must merge the run into one ascending,
/// duplicate-free block, and a limit inside the first run must keep
/// the whole run.
#[test]
fn equal_score_run_with_overlapping_selections() {
    let env = env();
    let schema = Schema::new(&[("v", AttrType::Str), ("n", AttrType::Int)]).unwrap();
    let mut rel = Relation::new("r", schema);
    for (v, n) in [
        ("v1", 9),
        ("v2", 2),
        ("v1", 3),
        ("v3", 7),
        ("v1", 0),
        ("v4", 8),
    ] {
        rel.insert(vec![v.into(), Value::Int(n)]).unwrap();
    }
    let mut p = Profile::new(env.clone());
    for (clause, score) in [
        (AttributeClause::eq(AttrId(0), "v1".into()), 0.5),
        (
            AttributeClause::new(AttrId(1), CompareOp::Le, Value::Int(3)),
            0.5,
        ),
        (AttributeClause::eq(AttrId(0), "v9".into()), 0.75),
        (AttributeClause::eq(AttrId(0), "v3".into()), -0.0),
        (AttributeClause::eq(AttrId(0), "v4".into()), 0.0),
    ] {
        let pref = ContextualPreference::new(ContextDescriptor::empty(), clause, score).unwrap();
        p.insert(pref).unwrap();
    }
    let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
    let ecod: ExtendedContextDescriptor = ContextDescriptor::empty().into();
    let (kind, tie, max) = (DistanceKind::Hierarchy, TieBreak::All, ScoreCombiner::Max);
    let full = rank_cs(&tree, &rel, &ecod, kind, tie, max).unwrap();
    assert_eq!(
        bits(full.results.entries()),
        vec![
            (0, 0.5f64.to_bits()),
            (1, 0.5f64.to_bits()),
            (2, 0.5f64.to_bits()),
            (4, 0.5f64.to_bits()),
            (3, 0.0f64.to_bits()),
            (5, 0.0f64.to_bits()),
        ]
    );
    let top1 = rank_cs_topk(&tree, &rel, &ecod, kind, tie, max, 1).unwrap();
    assert_eq!(top1.results.entries(), &full.results.entries()[..4]);
    check(&tree, &rel, &ecod, 5);
}
