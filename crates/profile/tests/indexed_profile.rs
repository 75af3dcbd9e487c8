//! `IndexedProfile` keeps its tree equal to a rebuild of its profile.
//!
//! Random insert / remove / re-score histories — with exact duplicates,
//! equal `(state, clause, score)` triples reached through overlapping
//! descriptors, and refused (conflicting or out-of-range) edits — are
//! checked after every step: the tree's paths and `TreeStats` must equal
//! `ProfileTree::from_profile` of the profile, and a refused edit must
//! change neither the profile nor the tree. Every re-score verdict is
//! also held to Definition 6 over the whole profile. Clones taken along
//! the way share the profile, so later re-scores are kept beside it:
//! each clone must keep what it held, and the edited index must list the
//! same preferences through `preference` as through `profile`.

use ctxpref_context::{parse_descriptor, ContextEnvironment};
use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder};
use ctxpref_profile::{
    AttributeClause, ContextualPreference, IndexedProfile, ParamOrder, Profile, ProfileError,
    ProfileTree, TreeStats,
};
use ctxpref_relation::AttrId;
use proptest::test_runner::TestRng;

fn env() -> ContextEnvironment {
    let mut w = HierarchyBuilder::new("weather", &["Conditions", "Char"]);
    w.add("Char", "bad", None).unwrap();
    w.add("Char", "good", None).unwrap();
    w.add_leaves("bad", &["cold"]).unwrap();
    w.add_leaves("good", &["warm", "hot"]).unwrap();
    ContextEnvironment::new(vec![
        w.build().unwrap(),
        Hierarchy::flat("company", &["friends", "family"]).unwrap(),
    ])
    .unwrap()
}

/// Descriptors whose contexts overlap in many ways, so equal triples
/// arise from different preferences.
const DESCRIPTORS: [&str; 8] = [
    "weather = warm",
    "weather in {warm, hot}",
    "weather in {cold, warm}",
    "weather = good",
    "company = friends",
    "weather in {warm, hot} and company in {friends, family}",
    "weather = warm and company = friends",
    "*",
];
const VALUES: [&str; 3] = ["a", "b", "c"];
/// Few scores, so conflicts are frequent.
const SCORES: [f64; 3] = [0.3, 0.6, 0.9];

/// The tree's stored paths with their entries, order-free.
fn fingerprint(tree: &ProfileTree) -> Vec<String> {
    let mut out: Vec<String> = tree
        .paths()
        .iter()
        .map(|(state, entries)| {
            let mut es: Vec<String> = entries
                .iter()
                .map(|e| format!("{:?}@{}", e.clause, e.score))
                .collect();
            es.sort();
            format!("{state:?}::{}", es.join("|"))
        })
        .collect();
    out.sort();
    out
}

/// The preferences as `preference` lists them, which builds no
/// re-scored profile.
fn listed(indexed: &IndexedProfile) -> Vec<ContextualPreference> {
    (0..)
        .map_while(|i| indexed.preference(i).cloned())
        .collect()
}

fn snapshot(indexed: &IndexedProfile) -> (Vec<ContextualPreference>, Vec<String>, TreeStats) {
    let tree = indexed.tree();
    (listed(indexed), fingerprint(tree), tree.stats())
}

/// What the histories exercised, so the checks cannot pass vacuously.
/// The verdict Definition 6 gives re-scoring `prefs[index]` to
/// `score`, checked against the whole profile: refused exactly when some
/// other preference conflicts with the re-scored one, naming a state
/// both of their contexts hold and that preference's score.
fn check_rescore_verdict(
    env: &ContextEnvironment,
    prefs: &[ContextualPreference],
    index: usize,
    score: f64,
    verdict: &Result<Option<f64>, ProfileError>,
) {
    let Some(old) = prefs.get(index) else {
        assert!(
            matches!(verdict, Err(ProfileError::NoSuchPreference(i)) if *i == index),
            "re-score past the end: {verdict:?}"
        );
        return;
    };
    if old.score() == score {
        assert!(matches!(verdict, Ok(None)), "same score: {verdict:?}");
        return;
    }
    let updated = old.with_score(score).unwrap();
    let conflicting: Vec<&ContextualPreference> = prefs
        .iter()
        .enumerate()
        .filter(|&(i, other)| i != index && other.conflicts_with(&updated, env).unwrap())
        .map(|(_, other)| other)
        .collect();
    match verdict {
        Ok(Some(was)) => {
            assert!(
                conflicting.is_empty(),
                "re-scored {old:?} to {score} past a conflict with {conflicting:?}"
            );
            assert_eq!(*was, old.score());
        }
        Err(ProfileError::Conflict {
            state,
            existing_score,
            new_score,
        }) => {
            assert_eq!(*new_score, score);
            assert!(
                updated.descriptor().states(env).unwrap().contains(state),
                "witness {state:?} is not a state of {old:?}"
            );
            assert!(
                conflicting
                    .iter()
                    .any(|other| other.score() == *existing_score
                        && other.descriptor().states(env).unwrap().contains(state)),
                "no conflict with {old:?} at {state:?} scored {existing_score}"
            );
        }
        other => panic!("re-score of {old:?} to {score}: {other:?}"),
    }
}

#[derive(Debug, Default)]
struct Seen {
    duplicates: usize,
    shared_removals: usize,
    refused_inserts: usize,
    refused_rescores: usize,
    rescores: usize,
    /// Re-scores made while a clone shared the profile.
    shared_rescores: usize,
}

#[test]
fn edits_keep_the_tree_equal_to_a_rebuild() {
    let env = env();
    let order = ParamOrder::by_ascending_domain(&env);
    let mut seen = Seen::default();
    for seed in 0..64u64 {
        let mut rng = TestRng::from_seed(seed);
        let mut indexed = IndexedProfile::new(Profile::new(env.clone()), order.clone()).unwrap();
        let mut kept = Vec::new();
        let mut shared = false;
        for step in 0..150 {
            let before = snapshot(&indexed);
            if step % 25 == 10 {
                kept.push((indexed.clone(), before.clone()));
                shared = true;
            }
            let len = before.0.len();
            let pick = |rng: &mut TestRng, n: usize| rng.below(n);
            let result = match pick(&mut rng, 10) {
                0..4 => {
                    let pref = ContextualPreference::new(
                        parse_descriptor(&env, DESCRIPTORS[pick(&mut rng, 8)]).unwrap(),
                        AttributeClause::eq(AttrId(0), VALUES[pick(&mut rng, 3)].into()),
                        SCORES[pick(&mut rng, 3)],
                    )
                    .unwrap();
                    let duplicate = before.0.contains(&pref);
                    let r = indexed.insert(pref);
                    seen.duplicates += usize::from(duplicate && r.is_ok());
                    seen.refused_inserts += usize::from(r.is_err());
                    shared &= r.is_err();
                    r
                }
                4 if len > 0 => {
                    // An exact duplicate of a stored preference.
                    let r = indexed.insert(before.0[pick(&mut rng, len)].clone());
                    seen.duplicates += usize::from(r.is_ok());
                    shared &= r.is_err();
                    r
                }
                4..7 => {
                    // One past the end now and then: refused.
                    let index = pick(&mut rng, len + 1);
                    if let Some(gone) = before.0.get(index) {
                        let shared = before.0.iter().enumerate().any(|(i, other)| {
                            i != index
                                && other.clause() == gone.clause()
                                && other.score() == gone.score()
                                && other
                                    .descriptor()
                                    .overlaps(gone.descriptor(), &env)
                                    .unwrap()
                        });
                        seen.shared_removals += usize::from(shared);
                    }
                    let r = indexed.remove(index).map(|_| ());
                    shared &= r.is_err();
                    r
                }
                _ => {
                    let index = pick(&mut rng, len + 1);
                    let score = SCORES[pick(&mut rng, 3)];
                    let r = indexed.rescore(index, score);
                    check_rescore_verdict(&env, &before.0, index, score, &r);
                    seen.rescores += usize::from(matches!(r, Ok(Some(_))));
                    seen.shared_rescores += usize::from(shared && matches!(r, Ok(Some(_))));
                    seen.refused_rescores += usize::from(r.is_err());
                    r.map(|_| ())
                }
            };
            let after = snapshot(&indexed);
            if result.is_err() {
                assert_eq!(
                    after, before,
                    "a refused edit changed something (seed {seed}, step {step})"
                );
            }
            let mut profile = Profile::new(env.clone());
            for pref in &after.0 {
                profile.insert_unchecked(pref.clone());
            }
            let rebuilt = ProfileTree::from_profile(&profile, order.clone())
                .expect("an indexed profile never holds a conflict");
            assert_eq!(
                (&after.1, after.2),
                (&fingerprint(&rebuilt), rebuilt.stats()),
                "tree drifted from its profile (seed {seed}, step {step}): {result:?}"
            );
            // Now and then the profile itself, which applies what a
            // shared profile keeps beside it.
            if step % 3 == 0 {
                assert_eq!(
                    indexed.profile().preferences(),
                    &after.0[..],
                    "seed {seed}, step {step}"
                );
            }
        }
        for (clone, held) in &kept {
            assert_eq!(
                &snapshot(clone),
                held,
                "seed {seed}: an edit reached a clone"
            );
            assert_eq!(clone.profile().preferences(), &held.0[..], "seed {seed}");
        }
        let last = listed(&indexed);
        assert_eq!(
            indexed.into_profile().preferences(),
            &last[..],
            "seed {seed}"
        );
    }
    assert!(
        seen.duplicates > 0
            && seen.shared_removals > 0
            && seen.refused_inserts > 0
            && seen.refused_rescores > 0
            && seen.rescores > 0
            && seen.shared_rescores > 0,
        "the histories missed a case: {seen:?}"
    );
}

#[test]
fn a_duplicate_is_appended_without_a_tree_entry() {
    let env = env();
    let pref = ContextualPreference::new(
        parse_descriptor(&env, "weather in {warm, hot}").unwrap(),
        AttributeClause::eq(AttrId(0), "a".into()),
        0.5,
    )
    .unwrap();
    let order = ParamOrder::by_ascending_domain(&env);
    let mut indexed = IndexedProfile::new(Profile::new(env.clone()), order).unwrap();
    indexed.insert(pref.clone()).unwrap();
    let stats = indexed.tree().stats();
    indexed.insert(pref.clone()).unwrap();
    assert_eq!(indexed.profile().len(), 2);
    assert_eq!(indexed.tree().stats(), stats);
    // Either copy keeps the entries alive for the other; re-scoring one
    // would leave the pair conflicting, so it is refused.
    assert!(indexed.rescore(1, 0.7).is_err());
    assert_eq!(indexed.remove(0).unwrap(), pref);
    assert_eq!(indexed.tree().stats(), stats);
    indexed.remove(0).unwrap();
    assert_eq!(indexed.tree().stats().leaf_entries, 0);
}

#[test]
fn a_triple_shared_three_ways_lives_until_its_last_contributor() {
    let env = env();
    let order = ParamOrder::by_ascending_domain(&env);
    let mut indexed = IndexedProfile::new(Profile::new(env.clone()), order).unwrap();
    // All three contribute `(weather = warm, a, 0.5)`.
    for descriptor in [
        "weather = warm",
        "weather in {warm, hot}",
        "weather in {cold, warm}",
    ] {
        let pref = ContextualPreference::new(
            parse_descriptor(&env, descriptor).unwrap(),
            AttributeClause::eq(AttrId(0), "a".into()),
            0.5,
        )
        .unwrap();
        indexed.insert(pref).unwrap();
    }
    let warm = parse_descriptor(&env, "weather = warm")
        .unwrap()
        .states(&env)
        .unwrap()
        .remove(0);
    let warm_entries = |indexed: &IndexedProfile| {
        indexed
            .tree()
            .paths()
            .into_iter()
            .find(|(state, _)| *state == warm)
            .map_or(0, |(_, entries)| entries.len())
    };
    let refused_at_warm = |r: Result<Option<f64>, ProfileError>| {
        matches!(r, Err(ProfileError::Conflict { state, existing_score, .. })
            if state == warm && existing_score == 0.5)
    };
    assert_eq!(warm_entries(&indexed), 1);
    // Two sharers, then one: the re-score is refused at the shared state.
    assert!(refused_at_warm(indexed.rescore(2, 0.8)));
    indexed.remove(0).unwrap();
    assert_eq!(warm_entries(&indexed), 1);
    assert!(refused_at_warm(indexed.rescore(1, 0.8)));
    indexed.remove(0).unwrap();
    // Two removed, the last contributor keeps the entry, and may now
    // re-score it.
    assert_eq!(warm_entries(&indexed), 1);
    assert_eq!(indexed.rescore(0, 0.8).unwrap(), Some(0.5));
    let rebuilt =
        ProfileTree::from_profile(indexed.profile(), indexed.tree().order().clone()).unwrap();
    assert_eq!(fingerprint(indexed.tree()), fingerprint(&rebuilt));
    assert!(fingerprint(indexed.tree())
        .iter()
        .all(|path| path.ends_with("@0.8")));
}
