//! Incremental profile-tree maintenance (`IndexedProfile`'s remove /
//! re-score without rebuilding) must be indistinguishable from
//! rebuilding the tree from the edited profile.

use ctxpref::context::{ContextState, DistanceKind};
use ctxpref::core::ContextualDb;
use ctxpref::profile::{IndexedProfile, ParamOrder, Profile, ProfileTree};
use ctxpref::relation::{AttrType, Relation, Schema};
use ctxpref::resolve::{ContextResolver, TieBreak};
use ctxpref::workload::synthetic::{random_query_states, SyntheticSpec, ValueDist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tree_fingerprint(tree: &ProfileTree) -> Vec<String> {
    let env = tree.env();
    let mut out: Vec<String> = tree
        .paths()
        .iter()
        .map(|(s, entries)| {
            let mut es: Vec<String> = entries
                .iter()
                .map(|e| format!("{:?}@{}", e.clause, e.score))
                .collect();
            es.sort();
            format!("{}::{}", s.display(env), es.join("|"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn random_edit_sequences_match_rebuild() {
    for seed in 0..6u64 {
        let spec = SyntheticSpec {
            domains: vec![vec![8, 4], vec![6], vec![10, 5]],
            dists: vec![ValueDist::Zipf(1.0); 3],
            num_prefs: 120,
            clause_values: 6,
            seed,
        };
        let env = spec.build_env();
        let order = ParamOrder::by_ascending_domain(&env);
        let mut indexed = IndexedProfile::new(spec.build_profile(&env), order.clone()).unwrap();

        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        for _ in 0..60 {
            if indexed.profile().is_empty() {
                break;
            }
            let idx = rng.random_range(0..indexed.profile().len());
            indexed.remove(idx).unwrap();
            let (profile, tree) = (indexed.profile(), indexed.tree());
            let rebuilt = ProfileTree::from_profile(profile, order.clone()).unwrap();
            assert_eq!(
                tree_fingerprint(tree),
                tree_fingerprint(&rebuilt),
                "divergence after removal (seed {seed})"
            );
            assert_eq!(tree.state_count(), rebuilt.state_count());
            assert_eq!(tree.stats().leaf_entries, rebuilt.stats().leaf_entries);
        }
    }
}

#[test]
fn removal_prunes_and_slots_are_reused() {
    let spec = SyntheticSpec {
        domains: vec![vec![10], vec![10]],
        dists: vec![ValueDist::Uniform; 2],
        num_prefs: 50,
        clause_values: 5,
        seed: 3,
    };
    let env = spec.build_env();
    let profile = spec.build_profile(&env);
    let order = ParamOrder::identity(&env);
    let mut indexed = IndexedProfile::new(profile.clone(), order).unwrap();
    let full = indexed.tree().stats();

    // Remove everything…
    while !indexed.profile().is_empty() {
        indexed.remove(0).unwrap();
    }
    let empty = indexed.tree().stats();
    assert_eq!(empty.leaf_entries, 0);
    assert_eq!(empty.internal_cells, 0, "all paths pruned");
    assert_eq!(indexed.tree().state_count(), 0);

    // …and re-insert: slots are recycled, sizes match the original.
    for pref in profile.iter() {
        indexed.insert(pref.clone()).unwrap();
    }
    let tree = indexed.tree();
    let again = tree.stats();
    assert_eq!(again.total_cells(), full.total_cells());
    assert_eq!(tree_fingerprint(tree).len(), tree.state_count());

    // Resolution still behaves after heavy churn.
    let q = random_query_states(&env, 10, 0.4, 9);
    for state in &q {
        let r =
            ContextResolver::new(tree, DistanceKind::Hierarchy, TieBreak::All).resolve_state(state);
        for c in &r.selected {
            assert!(c.state.covers(state, &env));
        }
    }
}

#[test]
fn update_state_entry_changes_scores_in_place() {
    let spec = SyntheticSpec {
        domains: vec![vec![4], vec![4]],
        dists: vec![ValueDist::Uniform; 2],
        num_prefs: 10,
        clause_values: 3,
        seed: 5,
    };
    let env = spec.build_env();
    let profile = spec.build_profile(&env);
    let mut tree = ProfileTree::from_profile(&profile, ParamOrder::identity(&env)).unwrap();
    let pref = &profile.preferences()[0];
    let state = &pref.descriptor().states(&env).unwrap()[0];
    assert!(tree.update_state_entry(state, pref.clause(), 0.42));
    let mut counter = ctxpref::profile::AccessCounter::new();
    let (_, entries) = tree.exact_lookup(state, &mut counter).unwrap();
    assert!(entries.iter().any(|e| e.score == 0.42));
    // Unknown state or clause → false.
    let missing = ContextState::all(&env);
    assert!(!tree.update_state_entry(&missing, pref.clause(), 0.1));
}

#[test]
fn facade_update_detects_conflicts_and_preserves_shared_entries() {
    let env = ctxpref::context::ContextEnvironment::new(vec![ctxpref::hierarchy::Hierarchy::flat(
        "weather",
        &["cold", "warm", "hot"],
    )
    .unwrap()])
    .unwrap();
    let schema = Schema::new(&[("name", AttrType::Str)]).unwrap();
    let mut rel = Relation::new("r", schema);
    rel.insert(vec!["a".into()]).unwrap();
    let mut db = ContextualDb::builder()
        .env(env.clone())
        .relation(rel)
        .build()
        .unwrap();

    // Two preferences sharing the (warm) state with the same clause and
    // score via different descriptors.
    db.insert_preference_eq("weather in {warm, hot}", "name", "a".into(), 0.5)
        .unwrap();
    db.insert_preference_eq("weather in {cold, warm}", "name", "a".into(), 0.5)
        .unwrap();

    // Updating either one would leave (warm) scored twice → conflict.
    let err = db.update_preference_score(0, 0.9).unwrap_err();
    assert!(err.to_string().contains("conflict"), "{err}");

    // Removing preference 0 must keep the shared (warm) entry alive for
    // preference 1.
    db.remove_preference(0).unwrap();
    let warm = ContextState::parse(&env, &["warm"]).unwrap();
    let a = db.query_state(&warm).unwrap();
    assert_eq!(a.results.entries()[0].score, 0.5);
    // And (hot), contributed only by preference 0, is gone.
    let hot = ContextState::parse(&env, &["hot"]).unwrap();
    let a = db.query_state(&hot).unwrap();
    assert!(a.results.is_empty());

    // Now the update succeeds and is observable.
    db.update_preference_score(0, 0.9).unwrap();
    let a = db.query_state(&warm).unwrap();
    assert_eq!(a.results.entries()[0].score, 0.9);
}

/// `Profile` edits mirrored through the façade equal a from-scratch DB.
#[test]
fn facade_edits_match_fresh_database() {
    let spec = SyntheticSpec {
        domains: vec![vec![6], vec![8, 2]],
        dists: vec![ValueDist::Uniform; 2],
        num_prefs: 40,
        clause_values: 4,
        seed: 8,
    };
    let env = spec.build_env();
    let profile = spec.build_profile(&env);
    let schema = Schema::new(&[("a1", AttrType::Str)]).unwrap();
    let mut rel = Relation::new("r", schema);
    for i in 0..4 {
        rel.insert(vec![format!("v{i}").into()]).unwrap();
    }

    let mut db = ContextualDb::builder()
        .env(env.clone())
        .relation(rel.clone())
        .build()
        .unwrap();
    for pref in profile.iter() {
        db.insert_preference(pref.clone()).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..15 {
        let idx = rng.random_range(0..db.profile().len());
        db.remove_preference(idx).unwrap();
    }

    // Fresh DB from the edited logical profile.
    let mut fresh = ContextualDb::builder()
        .env(env.clone())
        .relation(rel)
        .build()
        .unwrap();
    let edited: Profile = db.profile().clone();
    for pref in edited.iter() {
        fresh.insert_preference(pref.clone()).unwrap();
    }

    for q in random_query_states(&env, 25, 0.4, 13) {
        let a = db.query_state(&q).unwrap();
        let b = fresh.query_state(&q).unwrap();
        assert_eq!(
            a.results.entries(),
            b.results.entries(),
            "q = {}",
            q.display(&env)
        );
    }
    assert_eq!(db.tree_stats(), fresh.tree_stats());
}
