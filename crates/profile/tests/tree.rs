//! The profile tree of Section 3.3: Figure 4's shape, exact lookup,
//! `Search_CS`, conflict detection on insert, reordering and size
//! statistics.

use ctxpref_context::{
    parse_descriptor, ContextDescriptor, ContextEnvironment, ContextState, DistanceKind,
};
use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder};
use ctxpref_profile::{
    AccessCounter, AttributeClause, ContextualPreference, LeafEntry, ParamOrder, Profile,
    ProfileError, ProfileTree,
};
use ctxpref_relation::AttrId;

/// The paper's Figure 4 environment, with parameters ordered
/// (accompanying_people, temperature, location) as in the figure.
fn fig4_env() -> ContextEnvironment {
    let people = Hierarchy::flat("accompanying_people", &["friends", "family", "alone"]).unwrap();
    let mut temp = HierarchyBuilder::new("temperature", &["Conditions", "Characterization"]);
    temp.add("Characterization", "bad", None).unwrap();
    temp.add("Characterization", "good", None).unwrap();
    temp.add_leaves("bad", &["freezing", "cold"]).unwrap();
    temp.add_leaves("good", &["mild", "warm", "hot"]).unwrap();
    let mut loc = HierarchyBuilder::new("location", &["Region", "City", "Country"]);
    loc.add("Country", "Greece", None).unwrap();
    loc.add("City", "Athens", Some("Greece")).unwrap();
    loc.add("City", "Ioannina", Some("Greece")).unwrap();
    loc.add_leaves("Athens", &["Plaka", "Kifisia"]).unwrap();
    loc.add_leaves("Ioannina", &["Perama"]).unwrap();
    ContextEnvironment::new(vec![people, temp.build().unwrap(), loc.build().unwrap()]).unwrap()
}

fn pref(
    env: &ContextEnvironment,
    descriptor: &str,
    attr: u16,
    value: &str,
    score: f64,
) -> ContextualPreference {
    let cod = parse_descriptor(env, descriptor).unwrap();
    ContextualPreference::new(cod, AttributeClause::eq(AttrId(attr), value.into()), score).unwrap()
}

/// Figure 4's three preferences.
fn fig4_tree() -> (ContextEnvironment, ProfileTree) {
    let env = fig4_env();
    let mut tree = ProfileTree::new(env.clone(), ParamOrder::identity(&env)).unwrap();
    tree.insert(&pref(
        &env,
        "location = Kifisia and temperature = warm and accompanying_people = friends",
        1,
        "cafeteria",
        0.9,
    ))
    .unwrap();
    tree.insert(&pref(
        &env,
        "accompanying_people = friends",
        1,
        "brewery",
        0.9,
    ))
    .unwrap();
    tree.insert(&pref(
        &env,
        "location = Plaka and temperature in {warm, hot}",
        0,
        "Acropolis",
        0.8,
    ))
    .unwrap();
    (env, tree)
}

#[test]
fn figure_4_shape() {
    let (env, tree) = fig4_tree();
    // Stored states: (friends, warm, Kifisia), (friends, all, all),
    // (all, warm, Plaka), (all, hot, Plaka) — 4 paths.
    assert_eq!(tree.state_count(), 4);
    let stats = tree.stats();
    assert_eq!(stats.leaf_entries, 4);
    // Root: {friends, all} = 2 cells; level 2: friends→{warm, all},
    // all→{warm, hot}; level 3: 4 nodes with 1 cell each
    // (Kifisia / all / Plaka / Plaka).
    assert_eq!(stats.internal_cells, 2 + 2 + 2 + 4);
    assert_eq!(stats.total_cells(), 10 + 4);
    let paths = tree.paths();
    let rendered: Vec<String> = paths
        .iter()
        .map(|(s, _)| s.display(&env).to_string())
        .collect();
    assert!(rendered.contains(&"(friends, warm, Kifisia)".to_string()));
    assert!(rendered.contains(&"(friends, all, all)".to_string()));
    assert!(rendered.contains(&"(all, warm, Plaka)".to_string()));
    assert!(rendered.contains(&"(all, hot, Plaka)".to_string()));
}

#[test]
fn exact_lookup_hits_and_misses() {
    let (env, tree) = fig4_tree();
    let mut counter = AccessCounter::new();
    let s = ContextState::parse(&env, &["friends", "warm", "Kifisia"]).unwrap();
    let (_, entries) = tree.exact_lookup(&s, &mut counter).unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].score, 0.9);
    assert!(counter.cells() >= 3, "must examine ≥ one cell per level");
    // Exact states that are not stored miss.
    let miss = ContextState::parse(&env, &["family", "warm", "Kifisia"]).unwrap();
    assert!(tree.exact_lookup(&miss, &mut counter).is_none());
    let near = ContextState::parse(&env, &["friends", "hot", "Kifisia"]).unwrap();
    assert!(tree.exact_lookup(&near, &mut counter).is_none());
}

#[test]
fn search_cs_returns_all_covering_paths() {
    let (env, tree) = fig4_tree();
    let mut counter = AccessCounter::new();
    // Query the paper's running state (friends, warm, Kifisia):
    // covered by itself and by (friends, all, all).
    let q = ContextState::parse(&env, &["friends", "warm", "Kifisia"]).unwrap();
    let mut cands = tree.search_cs(&q, DistanceKind::Hierarchy, &mut counter);
    cands.sort_by(|a, b| a.distance.partial_cmp(&b.distance).unwrap());
    assert_eq!(cands.len(), 2);
    assert_eq!(cands[0].distance, 0.0);
    assert_eq!(cands[0].state, q);
    // (friends, all, all): levels (0, 2, 3) vs (0, 0, 0) → dist 2 + 3.
    assert_eq!(cands[1].distance, 5.0);
    assert_eq!(
        cands[1].state.display(&env).to_string(),
        "(friends, all, all)"
    );
    // Every candidate must cover the query (Algorithm 1's contract).
    for c in &cands {
        assert!(c.state.covers(&q, &env));
    }
    assert!(counter.cells() > 0);
}

#[test]
fn search_cs_with_extended_query_state() {
    let (env, tree) = fig4_tree();
    let mut counter = AccessCounter::new();
    // A rough query state at city level: (all, warm, Athens). Plaka
    // is *below* Athens, so (all, warm, Plaka) must NOT match.
    let q = ContextState::parse(&env, &["all", "warm", "Athens"]).unwrap();
    let cands = tree.search_cs(&q, DistanceKind::Hierarchy, &mut counter);
    assert!(cands.iter().all(|c| c.state.covers(&q, &env)));
    assert!(cands
        .iter()
        .all(|c| !c.state.display(&env).to_string().contains("Plaka")));
}

#[test]
fn search_cs_jaccard_orders_candidates() {
    let (env, tree) = fig4_tree();
    let mut counter = AccessCounter::new();
    let q = ContextState::parse(&env, &["friends", "warm", "Kifisia"]).unwrap();
    let cands = tree.search_cs(&q, DistanceKind::Jaccard, &mut counter);
    let exact = cands.iter().find(|c| c.state == q).unwrap();
    let cover = cands.iter().find(|c| c.state != q).unwrap();
    assert_eq!(exact.distance, 0.0);
    assert!(cover.distance > 0.0);
}

#[test]
fn conflicts_detected_on_insert() {
    let env = fig4_env();
    let mut tree = ProfileTree::new(env.clone(), ParamOrder::identity(&env)).unwrap();
    tree.insert(&pref(
        &env,
        "accompanying_people = friends",
        1,
        "brewery",
        0.9,
    ))
    .unwrap();
    // Same state & clause, different score → conflict.
    let err = tree
        .insert(&pref(
            &env,
            "accompanying_people = friends",
            1,
            "brewery",
            0.5,
        ))
        .unwrap_err();
    assert!(matches!(err, ProfileError::Conflict { .. }));
    // Identical preference → no-op, no duplicate entries.
    tree.insert(&pref(
        &env,
        "accompanying_people = friends",
        1,
        "brewery",
        0.9,
    ))
    .unwrap();
    assert_eq!(tree.stats().leaf_entries, 1);
    // Same state, different clause → fine, same leaf.
    tree.insert(&pref(
        &env,
        "accompanying_people = friends",
        1,
        "cafeteria",
        0.4,
    ))
    .unwrap();
    assert_eq!(tree.state_count(), 1);
    assert_eq!(tree.stats().leaf_entries, 2);
}

#[test]
fn conflicting_multi_state_insert_is_atomic() {
    let env = fig4_env();
    let mut tree = ProfileTree::new(env.clone(), ParamOrder::identity(&env)).unwrap();
    tree.insert(&pref(&env, "temperature = warm", 0, "Acropolis", 0.8))
        .unwrap();
    let before = tree.stats();
    // Descriptor expanding to {warm, hot}: warm conflicts, so even
    // the hot path must not be created.
    let err = tree
        .insert(&pref(
            &env,
            "temperature in {warm, hot}",
            0,
            "Acropolis",
            0.2,
        ))
        .unwrap_err();
    assert!(matches!(err, ProfileError::Conflict { .. }));
    assert_eq!(tree.stats(), before);
}

#[test]
fn reorder_preserves_contents() {
    let (env, tree) = fig4_tree();
    let reordered = tree
        .reorder(
            ParamOrder::by_names(&env, &["location", "temperature", "accompanying_people"])
                .unwrap(),
        )
        .unwrap();
    assert_eq!(reordered.state_count(), tree.state_count());
    assert_eq!(reordered.stats().leaf_entries, tree.stats().leaf_entries);
    let mut a: Vec<String> = tree
        .paths()
        .iter()
        .map(|(s, _)| s.display(&env).to_string())
        .collect();
    let mut b: Vec<String> = reordered
        .paths()
        .iter()
        .map(|(s, _)| s.display(&env).to_string())
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    // Exact lookups behave identically.
    let q = ContextState::parse(&env, &["friends", "warm", "Kifisia"]).unwrap();
    let mut c1 = AccessCounter::new();
    let mut c2 = AccessCounter::new();
    assert_eq!(
        tree.exact_lookup(&q, &mut c1).map(|(_, e)| e.len()),
        reordered.exact_lookup(&q, &mut c2).map(|(_, e)| e.len())
    );
}

#[test]
fn from_profile_builds_everything() {
    let env = fig4_env();
    let mut profile = Profile::new(env.clone());
    profile
        .insert(pref(
            &env,
            "accompanying_people = friends",
            1,
            "brewery",
            0.9,
        ))
        .unwrap();
    profile
        .insert(pref(
            &env,
            "location = Plaka and temperature in {warm, hot}",
            0,
            "Acropolis",
            0.8,
        ))
        .unwrap();
    let tree = ProfileTree::from_profile(&profile, ParamOrder::identity(&env)).unwrap();
    assert_eq!(tree.state_count(), 3);
    assert!(tree.to_string().contains("states"));
}

#[test]
fn empty_descriptor_stores_all_path() {
    let env = fig4_env();
    let mut tree = ProfileTree::new(env.clone(), ParamOrder::identity(&env)).unwrap();
    let p = ContextualPreference::new(
        ContextDescriptor::empty(),
        AttributeClause::eq(AttrId(0), "Acropolis".into()),
        0.6,
    )
    .unwrap();
    tree.insert(&p).unwrap();
    let all = ContextState::all(&env);
    let mut counter = AccessCounter::new();
    assert!(tree.exact_lookup(&all, &mut counter).is_some());
    // The (all, all, all) path covers every detailed query state.
    let q = ContextState::parse(&env, &["friends", "warm", "Kifisia"]).unwrap();
    let cands = tree.search_cs(&q, DistanceKind::Hierarchy, &mut counter);
    assert_eq!(cands.len(), 1);
    assert_eq!(cands[0].state, all);
}

#[test]
fn order_length_is_validated() {
    let env = fig4_env();
    let env2 = ContextEnvironment::new(vec![Hierarchy::flat("x", &["a"]).unwrap()]).unwrap();
    let bad = ParamOrder::identity(&env2);
    assert!(matches!(
        ProfileTree::new(env, bad).unwrap_err(),
        ProfileError::InvalidOrder(_)
    ));
}

/// A leaf entry is a clause and a score and nothing more: how many
/// preferences contribute it is kept beside the leaves, so the common
/// single-contributor entry pays nothing for the count.
#[test]
fn a_leaf_entry_stays_forty_bytes() {
    assert_eq!(std::mem::size_of::<LeafEntry>(), 40);
}
