use super::*;
use ctxpref_context::{parse_descriptor, ParamId};
use ctxpref_hierarchy::Hierarchy;
use ctxpref_profile::AttributeClause;
use ctxpref_relation::{AttrType, Schema};

fn setup() -> MultiUserDb {
    let env = ContextEnvironment::new(vec![Hierarchy::flat("weather", &["cold", "warm"]).unwrap()])
        .unwrap();
    let schema = Schema::new(&[("type", AttrType::Str)]).unwrap();
    let mut rel = Relation::new("poi", schema);
    for t in ["museum", "brewery", "zoo"] {
        rel.insert(vec![t.into()]).unwrap();
    }
    MultiUserDb::new(env, rel, 8)
}

/// `user`'s top-`k` rows under `state` when a current view holds them.
fn view_hit(
    db: &MultiUserDb,
    user: &str,
    state: &ContextState,
    k: usize,
) -> Option<Vec<ScoredTuple>> {
    db.view_hit_with(user, state, k, |_, rows| rows.to_vec())
}

fn pref(db: &MultiUserDb, cod: &str, ty: &str, score: f64) -> ContextualPreference {
    ContextualPreference::new(
        parse_descriptor(db.env(), cod).unwrap(),
        AttributeClause::eq(db.relation().schema().attr("type").unwrap(), ty.into()),
        score,
    )
    .unwrap()
}

#[test]
fn users_are_isolated() {
    let mut db = setup();
    db.add_user("alice").unwrap();
    db.add_user("bob").unwrap();
    assert_eq!(db.user_count(), 2);
    let a = pref(&db, "weather = warm", "brewery", 0.9);
    let b = pref(&db, "weather = warm", "museum", 0.8);
    db.insert_preference("alice", a).unwrap();
    db.insert_preference("bob", b).unwrap();

    let warm = ContextState::parse(db.env(), &["warm"]).unwrap();
    let alice = db.query_state("alice", &warm).unwrap();
    let bob = db.query_state("bob", &warm).unwrap();
    assert_eq!(alice.results.entries()[0].tuple_index, 1); // brewery
    assert_eq!(bob.results.entries()[0].tuple_index, 0); // museum

    // Conflicts are per-user: bob can score the same state/clause
    // differently from alice, but not from himself.
    db.insert_preference("bob", pref(&db, "weather = warm", "brewery", 0.2))
        .unwrap();
    assert!(db
        .insert_preference("bob", pref(&db, "weather = warm", "brewery", 0.7))
        .is_err());
}

#[test]
fn user_management_errors() {
    let mut db = setup();
    db.add_user("alice").unwrap();
    assert!(matches!(
        db.add_user("alice").unwrap_err(),
        CoreError::DuplicateUser(_)
    ));
    assert!(matches!(
        db.query_state("ghost", &ContextState::all(db.env()))
            .unwrap_err(),
        CoreError::NoSuchUser(_)
    ));
    let profile = db.remove_user("alice").unwrap();
    assert!(profile.is_empty());
    assert!(matches!(
        db.remove_user("alice").unwrap_err(),
        CoreError::NoSuchUser(_)
    ));
}

#[test]
fn caches_are_per_user() {
    let mut db = setup();
    db.add_user("alice").unwrap();
    db.add_user("bob").unwrap();
    db.insert_preference("alice", pref(&db, "weather = warm", "zoo", 0.5))
        .unwrap();
    db.insert_preference("bob", pref(&db, "weather = warm", "zoo", 0.6))
        .unwrap();
    let warm = ContextState::parse(db.env(), &["warm"]).unwrap();
    let _ = db.query_state("alice", &warm).unwrap();
    let again = db.query_state("alice", &warm).unwrap();
    assert!(again.from_cache);
    // Bob's first query is not served from Alice's cache.
    let bob = db.query_state("bob", &warm).unwrap();
    assert!(!bob.from_cache);
    assert_eq!(bob.results.entries()[0].score, 0.6);
}

/// Whether alice's tree is the one a user registered with her
/// current profile gets.
fn alice_tree_is_rebuilt_alike(db: &mut MultiUserDb) -> bool {
    let _ = db.remove_user("rebuilt");
    let profile = db.profile("alice").unwrap().clone();
    db.add_user_with_profile("rebuilt", profile).unwrap();
    let (live, rebuilt) = (db.tree("alice").unwrap(), db.tree("rebuilt").unwrap());
    live.paths() == rebuilt.paths() && live.stats() == rebuilt.stats()
}

#[test]
fn a_rescore_in_place_leaves_the_tree_a_rebuild_would() {
    let mut db = setup();
    db.add_user("alice").unwrap();
    for p in [
        pref(&db, "weather in {cold, warm}", "zoo", 0.5),
        pref(&db, "weather = warm", "museum", 0.8),
        pref(&db, "weather = cold", "brewery", 0.3),
    ] {
        db.insert_preference("alice", p).unwrap();
    }
    db.update_preference_score("alice", 0, 0.9).unwrap();
    assert!(alice_tree_is_rebuilt_alike(&mut db));
    let warm = ContextState::parse(db.env(), &["warm"]).unwrap();
    let top = db.query_state("alice", &warm).unwrap();
    assert_eq!(top.results.entries()[0].tuple_index, 2); // zoo, now 0.9

    // A re-score that would contradict another preference on a
    // shared state is refused and changes nothing.
    db.insert_preference("alice", pref(&db, "weather = warm", "zoo", 0.9))
        .unwrap();
    let before = db.profile("alice").unwrap().preferences().to_vec();
    assert!(db.update_preference_score("alice", 0, 0.4).is_err());
    assert_eq!(db.profile("alice").unwrap().preferences(), before);
    assert!(alice_tree_is_rebuilt_alike(&mut db));
}

/// A database of `users` sharing one profile over `a × 8` detailed
/// states, and those states.
fn hot_db(a: usize, users: &[&str]) -> (MultiUserDb, Vec<ContextState>) {
    let env = ContextEnvironment::new(vec![
        Hierarchy::balanced("a", &[a]).unwrap(),
        Hierarchy::balanced("b", &[8]).unwrap(),
    ])
    .unwrap();
    let schema = Schema::new(&[("type", AttrType::Str)]).unwrap();
    let mut rel = Relation::new("poi", schema);
    rel.insert(vec!["museum".into()]).unwrap();
    let mut profile = Profile::new(env.clone());
    let museum = "museum".into();
    let pref = preference_from_parts(&env, &rel, "*", "type", CompareOp::Eq, museum, 0.5);
    profile.insert(pref.unwrap()).unwrap();
    let mut db = MultiUserDb::new(env.clone(), rel, 0);
    for user in users {
        db.add_user_with_profile(user, profile.clone()).unwrap();
    }
    let detailed = |p: u16| {
        let h = env.hierarchy(ParamId(p));
        h.domain(h.detailed_level()).to_vec()
    };
    let mut states = Vec::new();
    for &va in &detailed(0) {
        for &vb in &detailed(1) {
            states.push(ContextState::from_values_unchecked(vec![va, vb]));
        }
    }
    (db, states)
}

#[test]
fn hot_views_are_evicted_lru_and_never_pinned_on_their_own() {
    let (db, states) = hot_db(16, &["alice"]);
    // 2 × VIEW_CAPACITY states, each made hot: two misses
    // materialize it, then 64 hits. The first state is hit again after
    // each of the others.
    assert_eq!(states.len(), 2 * VIEW_CAPACITY);
    for state in &states {
        for _ in 0..2 + 64 {
            db.query_state_topk("alice", state, 1).unwrap();
        }
        db.query_state_topk("alice", &states[0], 1).unwrap();
    }
    let stats = db.view_stats("alice").unwrap();
    assert!(
        stats.view_hits >= 64 * 2 * VIEW_CAPACITY as u64,
        "{stats:?}"
    );
    assert_eq!(stats.view_misses, 2 * states.len() as u64, "{stats:?}");
    let catalog = db.view_catalog("alice").unwrap();
    let stats = catalog.stats();
    assert_eq!(catalog.len(), VIEW_CAPACITY, "{stats:?}");
    assert_eq!(stats.materialized_views, VIEW_CAPACITY as u64, "{stats:?}");
    assert_eq!(stats.pinned_views, 0, "{stats:?}");
    // The first state, still being hit, and the states asked last are
    // the ones kept.
    let (old, recent) = states[1..].split_at(VIEW_CAPACITY);
    assert!(view_hit(&db, "alice", &states[0], 1).is_some());
    assert!(recent
        .iter()
        .all(|s| view_hit(&db, "alice", s, 1).is_some()));
    assert!(old.iter().all(|s| view_hit(&db, "alice", s, 1).is_none()));
}

#[test]
fn a_shared_catalog_holds_view_capacity_per_sharer_and_every_pin() {
    let (mut db, states) = hot_db(24, &["alice", "bob"]);
    assert_eq!(states.len(), 3 * VIEW_CAPACITY);
    let (a, b) = (db.view_catalog("alice"), db.view_catalog("bob"));
    assert!(std::ptr::eq(a.unwrap(), b.unwrap()));
    // Bob pins the state alice asks first; alice alone makes every
    // state hot, and bob's seat still widens the catalog.
    db.pin_view("bob", &states[0]).unwrap();
    for state in &states {
        for _ in 0..3 {
            db.query_state_topk("alice", state, 1).unwrap();
        }
    }
    let shared = db.view_catalog("alice").unwrap();
    let stats = shared.stats();
    assert_eq!(shared.len(), 2 * VIEW_CAPACITY + 1, "{stats:?}");
    assert_eq!(stats.materialized_views, 2 * VIEW_CAPACITY as u64 + 1);
    assert_eq!(stats.pinned_views, 1, "{stats:?}");
    assert!(view_hit(&db, "alice", &states[0], 1).is_some());
    assert!(view_hit(&db, "alice", &states[1], 1).is_none());
    // Bob goes with his pin and his share: the next materialization
    // evicts down to one share.
    db.remove_user("bob").unwrap();
    for _ in 0..2 {
        db.query_state_topk("alice", &states[1], 1).unwrap();
    }
    let shared = db.view_catalog("alice").unwrap();
    assert_eq!(shared.len(), VIEW_CAPACITY, "{:?}", shared.stats());
    assert_eq!(shared.stats().pinned_views, 0);
}

#[test]
fn a_sole_holders_first_edit_keeps_their_catalog() {
    let (mut db, states) = hot_db(2, &["alice"]);
    for _ in 0..2 {
        db.query_state_topk("alice", &states[0], 1).unwrap();
    }
    let before: *const ViewCatalog = db.view_catalog("alice").unwrap();
    assert_eq!(db.sharing.filed.lock().pairs.len(), 1);
    // Only the sharing entry names the pair: the edit takes it back
    // from the entry instead of forking the catalog.
    db.update_preference_score("alice", 0, 0.7).unwrap();
    assert!(std::ptr::eq(before, db.view_catalog("alice").unwrap()));
    assert!(db.sharing.filed.lock().pairs.is_empty());
    assert!(view_hit(&db, "alice", &states[0], 1).is_some());
    assert_eq!(db.views_totals().view_misses, 2);
}

#[test]
fn users_that_go_leave_no_sharing_entries_behind() {
    let mut db = setup();
    for u in 0..1_000u32 {
        let mut profile = Profile::new(db.env().clone());
        let score = f64::from(u) / 1_000.0;
        profile
            .insert(pref(&db, "weather = warm", "zoo", score))
            .unwrap();
        let name = format!("u{u}");
        db.add_user_with_profile(&name, profile).unwrap();
        // A sole holder's first edit takes its pair back from the
        // entry; every user but each hundredth then goes.
        if u % 10 == 0 {
            db.insert_preference(&name, pref(&db, "weather = cold", "museum", 0.5))
                .unwrap();
        }
        if u % 100 != 0 {
            db.remove_user(&name).unwrap();
        }
        let live: HashSet<*const IndexedProfile> =
            db.indexes().map(|(_, i)| Arc::as_ptr(i)).collect();
        assert!(
            db.sharing.filed.lock().pairs.len() <= live.len(),
            "after u{u}: {} sharing entries for {} live indexes",
            db.sharing.filed.lock().pairs.len(),
            live.len()
        );
    }
    assert_eq!(db.user_count(), 10);
}

#[test]
fn initial_profiles_and_stats() {
    let mut db = setup();
    let mut profile = Profile::new(db.env().clone());
    profile
        .insert(pref(&db, "weather = cold", "museum", 0.8))
        .unwrap();
    db.add_user_with_profile("carol", profile).unwrap();
    assert_eq!(db.profile("carol").unwrap().len(), 1);
    assert!(db.tree_stats("carol").unwrap().leaf_entries == 1);
    let names: Vec<&str> = db.users().collect();
    assert_eq!(names, vec!["carol"]);
}
