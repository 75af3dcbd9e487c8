//! Users share one copy-on-write index and one view catalog, and an
//! edit copies only its own.
//!
//! Twelve users start from three profiles, so each index is shared four
//! ways; seeded histories of inserts, re-scores and removals — refused
//! ones included — then run on a sharded database, with a snapshot
//! taken between steps. After every step each user's answers, profile,
//! tree paths, `TreeStats` and contributor counts must equal a rebuild
//! from a per-user model, users who have not edited must still share,
//! and every snapshot must still hold the profiles of its cut.
//!
//! The catalog beside each index is shared the same way: an edit forks
//! exactly one catalog, carrying only the views its user asked about,
//! and readers on other stripes keep serving from the shared catalog
//! while a writer forks it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use ctxpref_context::{ContextEnvironment, ContextState};
use ctxpref_core::{preference_from_parts, MultiUserDb, QueryOptions, ShardedMultiUserDb};
use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder};
use ctxpref_profile::{ContextualPreference, IndexedProfile, ParamOrder, Profile, ProfileTree};
use ctxpref_relation::{AttrType, CompareOp, Relation, Schema, ScoredTuple};
use ctxpref_resolve::{rank_cs_state, PreferenceStore};
use ctxpref_views::{ViewCatalog, ViewStats};
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

fn relation() -> Relation {
    let schema = Schema::new(&[("name", AttrType::Str), ("type", AttrType::Str)]).unwrap();
    let mut rel = Relation::new("poi", schema);
    for (name, ty) in [
        ("Acropolis", "monument"),
        ("Benaki", "museum"),
        ("Plaka Taverna", "restaurant"),
        ("Lycabettus", "monument"),
    ] {
        rel.insert(vec![name.into(), ty.into()]).unwrap();
    }
    rel
}

/// Overlapping descriptors, so edits share entries and conflict often.
const DESCRIPTORS: [&str; 6] = [
    "weather = warm",
    "weather in {warm, hot}",
    "weather = good",
    "company = friends",
    "weather = cold and company = family",
    "*",
];
const TYPES: [&str; 3] = ["monument", "museum", "restaurant"];
const SCORES: [f64; 3] = [0.3, 0.6, 0.9];

fn pref(
    env: &ContextEnvironment,
    rel: &Relation,
    d: &str,
    ty: &str,
    s: f64,
) -> ContextualPreference {
    preference_from_parts(env, rel, d, "type", CompareOp::Eq, ty.into(), s).unwrap()
}

fn random_pref(
    env: &ContextEnvironment,
    rel: &Relation,
    rng: &mut TestRng,
) -> ContextualPreference {
    let d = DESCRIPTORS[rng.below(DESCRIPTORS.len())];
    let ty = TYPES[rng.below(TYPES.len())];
    pref(env, rel, d, ty, SCORES[rng.below(SCORES.len())])
}

/// The three profiles the users start from.
fn base_profiles(env: &ContextEnvironment, rel: &Relation) -> Vec<Profile> {
    let specs: [&[(&str, &str, f64)]; 3] = [
        &[("weather = warm", "museum", 0.9), ("*", "monument", 0.3)],
        &[
            ("company = friends", "restaurant", 0.6),
            ("weather = good", "monument", 0.9),
            ("weather = cold and company = family", "museum", 0.6),
        ],
        &[],
    ];
    specs
        .iter()
        .map(|prefs| {
            let mut profile = Profile::new(env.clone());
            for &(d, ty, s) in *prefs {
                profile.insert(pref(env, rel, d, ty, s)).unwrap();
            }
            profile
        })
        .collect()
}

fn states(env: &ContextEnvironment) -> Vec<ContextState> {
    [
        ["warm", "friends"],
        ["cold", "family"],
        ["hot", "all"],
        ["all", "all"],
    ]
    .iter()
    .map(|s| ContextState::parse(env, s).unwrap())
    .collect()
}

/// The tree's stored paths with their entries, in an order no edit
/// history can change.
fn paths(tree: &ProfileTree) -> Vec<(ContextState, Vec<String>)> {
    let mut out: Vec<_> = tree
        .paths()
        .into_iter()
        .map(|(state, entries)| {
            let mut es: Vec<String> = entries
                .iter()
                .map(|e| format!("{:?}@{}", e.clause, e.score.to_bits()))
                .collect();
            es.sort();
            (state, es)
        })
        .collect();
    out.sort();
    out
}

fn key(p: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// `user`'s tree in `db` and in `rebuilt` (where `user` is alone) are
/// alike, and so are their answers under every test state.
fn assert_like_rebuild(
    db: &MultiUserDb,
    user: &str,
    rebuilt: &MultiUserDb,
    states: &[ContextState],
    at: &str,
) {
    let (live, fresh) = (db.tree(user).unwrap(), rebuilt.tree(user).unwrap());
    assert_eq!(paths(live), paths(fresh), "{at}: paths of {user}");
    assert_eq!(live.stats(), fresh.stats(), "{at}: stats of {user}");
    assert_eq!(
        live.contributor_counts().unwrap(),
        fresh.contributor_counts().unwrap(),
        "{at}: contributor counts of {user}"
    );
    for state in states {
        let (got, want) = (
            db.query_state(user, state).unwrap(),
            rebuilt.query_state(user, state).unwrap(),
        );
        assert_eq!(
            got.results.entries(),
            want.results.entries(),
            "{at}: {user} {state:?}"
        );
        for k in [1, 3] {
            let (got, _) = db.query_state_topk(user, state, k).unwrap();
            let (want, _) = rebuilt.query_state_topk(user, state, k).unwrap();
            let (got, want) = (got.results.entries(), want.results.entries());
            assert_eq!(got, want, "{at}: {user} {state:?} top-{k}");
        }
    }
}

/// A database holding only `user`, built afresh from `profile`.
fn rebuild(user: &str, profile: Profile, env: &ContextEnvironment, rel: &Relation) -> MultiUserDb {
    let mut db = MultiUserDb::new(env.clone(), rel.clone(), 0);
    db.add_user_with_profile(user, profile).unwrap();
    let order = ParamOrder::by_ascending_domain(env);
    let tree = ProfileTree::from_profile(db.profile(user).unwrap(), order).unwrap();
    assert_eq!(paths(db.tree(user).unwrap()), paths(&tree));
    db
}

#[test]
fn equal_profiles_share_one_index_until_an_edit() {
    let (env, rel) = (env(), relation());
    let bases = base_profiles(&env, &rel);
    let mut db = MultiUserDb::new(env.clone(), rel.clone(), 8);
    for u in 0..12 {
        db.add_user_with_profile(&format!("u{u}"), bases[u % 3].clone())
            .unwrap();
    }
    let shares =
        |db: &MultiUserDb, a: &str, b: &str| std::ptr::eq(db.tree(a).unwrap(), db.tree(b).unwrap());
    for u in 0..12 {
        for v in 0..12 {
            let (a, b) = (format!("u{u}"), format!("u{v}"));
            assert_eq!(shares(&db, &a, &b), u % 3 == v % 3, "u{u} and u{v}");
        }
    }
    // Every empty profile shares one index, `add_user`'s included.
    db.add_user("empty").unwrap();
    assert!(shares(&db, "empty", "u2"));

    // The same preferences in another order make another profile.
    let mut reversed = Profile::new(env.clone());
    for p in bases[1].preferences().iter().rev() {
        reversed.insert(p.clone()).unwrap();
    }
    db.add_user_with_profile("reversed", reversed).unwrap();
    assert!(!shares(&db, "reversed", "u1"));
    assert_eq!(
        db.tree("reversed").unwrap().stats(),
        db.tree("u1").unwrap().stats()
    );

    // An edit copies the editor's index only.
    let warm = ContextState::parse(&env, &["warm", "friends"]).unwrap();
    let before = db.query_state("u4", &warm).unwrap();
    db.insert_preference("u1", pref(&env, &rel, "*", "restaurant", 0.3))
        .unwrap();
    assert!(!shares(&db, "u1", "u4"));
    assert!(shares(&db, "u4", "u7") && shares(&db, "u7", "u10"));
    assert_eq!(db.profile("u1").unwrap().len(), 4);
    assert_eq!(db.profile("u4").unwrap().len(), 3);
    let after = db.query_state("u4", &warm).unwrap();
    assert_eq!(before.results.entries(), after.results.entries());

    // Removing a sharer hands back the profile and leaves the others.
    let profile = db.remove_user("u4").unwrap();
    assert_eq!(profile.preferences(), bases[1].preferences());
    assert!(shares(&db, "u7", "u10"));

    // Once every holder is gone, the profile is indexed afresh.
    for u in [0, 3, 6, 9] {
        db.remove_user(&format!("u{u}")).unwrap();
    }
    db.add_user_with_profile("again", bases[0].clone()).unwrap();
    assert_eq!(
        paths(db.tree("again").unwrap()),
        paths(
            &ProfileTree::from_profile(&bases[0], ParamOrder::by_ascending_domain(&env)).unwrap()
        )
    );
}

#[test]
fn equal_preferences_hash_equal() {
    let (env, rel) = (env(), relation());
    let zero = pref(&env, &rel, "weather = warm", "museum", 0.0);
    let negative_zero = pref(&env, &rel, "weather = warm", "museum", -0.0);
    assert_eq!(zero, negative_zero);
    assert_eq!(key(&zero), key(&negative_zero));
    // Clauses are stored by parameter, whatever order they were written in.
    let (a, b) = (
        pref(
            &env,
            &rel,
            "weather = warm and company = friends",
            "monument",
            0.6,
        ),
        pref(
            &env,
            &rel,
            "company = friends and weather = warm",
            "monument",
            0.6,
        ),
    );
    assert_eq!(a, b);
    assert_eq!(key(&a), key(&b));
    assert_ne!(
        key(&zero),
        key(&pref(&env, &rel, "weather = warm", "museum", 0.3))
    );

    // Profiles built from either zero are one profile, and share.
    let mut db = MultiUserDb::new(env.clone(), rel.clone(), 0);
    for (name, p) in [("a", zero), ("b", negative_zero)] {
        let mut profile = Profile::new(env.clone());
        profile.insert(p).unwrap();
        db.add_user_with_profile(name, profile).unwrap();
    }
    assert!(std::ptr::eq(db.tree("a").unwrap(), db.tree("b").unwrap()));
}

#[test]
fn seeded_histories_keep_users_and_snapshots_apart() {
    let (env, rel) = (env(), relation());
    let bases = base_profiles(&env, &rel);
    let states = states(&env);
    let order = ParamOrder::by_ascending_domain(&env);
    let users: Vec<String> = (0..12).map(|u| format!("u{u}")).collect();
    let (mut refused, mut snapshots_checked) = (0, 0);
    for seed in 0..8u64 {
        let mut rng = TestRng::from_seed(seed);
        let mut plain = MultiUserDb::new(env.clone(), rel.clone(), 8);
        let mut models = Vec::new();
        for (u, name) in users.iter().enumerate() {
            plain
                .add_user_with_profile(name, bases[u % 3].clone())
                .unwrap();
            models.push(IndexedProfile::new(bases[u % 3].clone(), order.clone()).unwrap());
        }
        let db = ShardedMultiUserDb::from_db(plain, 4);
        let mut edited = [false; 12];
        let mut snapshots: Vec<(MultiUserDb, Vec<Profile>)> = Vec::new();
        for step in 0..60 {
            let at = format!("seed {seed}, step {step}");
            if step % 7 == 0 {
                let snap = db.snapshot();
                for name in &users {
                    let live = db.read_user_shard(name);
                    let (a, b) = (snap.tree(name).unwrap(), live.tree(name).unwrap());
                    assert!(std::ptr::eq(a, b), "{at}: the snapshot copied {name}");
                }
                let cut = models.iter().map(|m| m.profile().clone()).collect();
                snapshots.push((snap, cut));
            }
            let u = rng.below(users.len());
            let (name, model) = (&users[u], &mut models[u]);
            let len = model.profile().len();
            let (got, want) = match rng.below(3) {
                0 => {
                    let p = random_pref(&env, &rel, &mut rng);
                    (
                        db.insert_preference(name, p.clone()).is_ok(),
                        model.insert(p).is_ok(),
                    )
                }
                1 => {
                    let (i, s) = (rng.below(len + 1), SCORES[rng.below(SCORES.len())]);
                    let got = db.update_preference_score(name, i, s).is_ok();
                    (got, model.rescore(i, s).is_ok())
                }
                _ => {
                    let i = rng.below(len + 1);
                    (
                        db.remove_preference(name, i).is_ok(),
                        model.remove(i).is_ok(),
                    )
                }
            };
            assert_eq!(got, want, "{at}: verdict for {name}");
            refused += usize::from(!got);
            edited[u] = true;

            let plain = db.snapshot();
            for (v, other) in users.iter().enumerate() {
                assert_eq!(
                    db.profile(other).unwrap().preferences(),
                    models[v].profile().preferences(),
                    "{at}: profile of {other}"
                );
                let rebuilt = rebuild(other, models[v].profile().clone(), &env, &rel);
                assert_like_rebuild(&plain, other, &rebuilt, &states, &at);
            }
            // Users who never edited still share their base's index.
            for a in 0..12 {
                for b in (a + 1..12).filter(|b| b % 3 == a % 3) {
                    if !edited[a] && !edited[b] {
                        let (x, y) = (&users[a], &users[b]);
                        assert!(
                            std::ptr::eq(plain.tree(x).unwrap(), plain.tree(y).unwrap()),
                            "{at}: {x} and {y} stopped sharing"
                        );
                    }
                }
            }
        }
        for (snap, cut) in &snapshots {
            for (name, profile) in users.iter().zip(cut) {
                assert_eq!(
                    snap.profile(name).unwrap().preferences(),
                    profile.preferences(),
                    "seed {seed}: a snapshot lost the profile of {name} at its cut"
                );
                let rebuilt = rebuild(name, profile.clone(), &env, &rel);
                assert_like_rebuild(snap, name, &rebuilt, &states, &format!("seed {seed}"));
                snapshots_checked += 1;
            }
        }
    }
    assert!(refused > 0, "no history refused an edit");
    assert!(snapshots_checked > 0);
}

/// `top_k_with_ties(k)` of a fresh `Rank_CS` of `state` over `store`,
/// under the default query options.
fn fresh_topk<S: PreferenceStore>(
    store: &S,
    rel: &Relation,
    state: &ContextState,
    k: usize,
) -> Vec<ScoredTuple> {
    let d = QueryOptions::default();
    let q = rank_cs_state(store, rel, state, d.distance, d.tie, d.combiner, Some(k));
    q.results.entries().to_vec()
}

/// The number of distinct catalogs `users` serve from.
fn catalogs(db: &MultiUserDb, users: &[String]) -> usize {
    let addr = |u: &String| db.view_catalog(u).unwrap() as *const ViewCatalog;
    users.iter().map(addr).collect::<HashSet<_>>().len()
}

/// Whether every field of `now` is at least `then`'s.
fn no_total_fell(then: &ViewStats, now: &ViewStats) -> bool {
    let fields = |s: &ViewStats| {
        [
            s.view_hits,
            s.view_misses,
            s.view_patches,
            s.view_rebuilds,
            s.materialized_views,
            s.pinned_views,
        ]
    };
    fields(then).iter().zip(fields(now)).all(|(a, b)| *a <= b)
}

#[test]
fn equal_profiles_share_one_catalog_and_an_edit_forks_one() {
    let (env, rel) = (env(), relation());
    let bases = base_profiles(&env, &rel);
    let states = states(&env);
    let users: Vec<String> = (0..12).map(|u| format!("u{u}")).collect();
    let mut db = MultiUserDb::new(env.clone(), rel.clone(), 0);
    for (u, name) in users.iter().enumerate() {
        db.add_user_with_profile(name, bases[u % 3].clone())
            .unwrap();
    }
    assert_eq!(catalogs(&db, &users), 3);
    for (a, b) in [("u1", "u4"), ("u4", "u10"), ("u0", "u9")] {
        let (x, y) = (db.view_catalog(a).unwrap(), db.view_catalog(b).unwrap());
        assert!(std::ptr::eq(x, y), "{a} and {b} hold one catalog");
    }

    // Profile 0's users ask two states, profile 1's four, except u1,
    // who asks only the first two; each ask twice materializes it.
    let asks = |u: usize| match (u % 3, u) {
        (_, 1) | (0, _) => 2,
        (1, _) => 4,
        _ => 0,
    };
    for (u, name) in users.iter().enumerate() {
        for state in &states[..asks(u)] {
            for _ in 0..2 {
                db.query_state_topk(name, state, 3).unwrap();
            }
        }
    }
    // A shared catalog's views are counted once: 2 + 4, not 22.
    let totals = db.views_totals();
    assert_eq!(totals.materialized_views, 6, "{totals:?}");
    assert_eq!(db.view_catalog("u4").unwrap().len(), 4);
    let others = ["u4", "u7", "u10"];
    let before: Vec<Vec<ScoredTuple>> = states
        .iter()
        .map(|s| {
            let (answer, hit) = db.query_state_topk("u4", s, 3).unwrap();
            assert!(hit, "u4 is served from the shared catalog");
            answer.results.entries().to_vec()
        })
        .collect();

    // One edit forks exactly one catalog.
    let asked = db.view_stats("u1").unwrap();
    assert_eq!(asked.materialized_views, 2, "{asked:?}");
    db.insert_preference("u1", pref(&env, &rel, "*", "restaurant", 0.3))
        .unwrap();
    assert_eq!(catalogs(&db, &users), 4);
    let forked = db.view_catalog("u1").unwrap();
    assert!(!std::ptr::eq(forked, db.view_catalog("u4").unwrap()));
    assert_eq!(forked.len(), 2, "only the states u1 asked are carried");
    assert!(forked
        .verify(db.tree("u1").unwrap(), db.relation())
        .is_empty());

    // The editor's next read of each state it asked is a hit, and
    // answers like a fresh `Rank_CS`.
    for state in &states[..2] {
        let then = db.view_stats("u1").unwrap();
        let (answer, hit) = db.query_state_topk("u1", state, 3).unwrap();
        let now = db.view_stats("u1").unwrap();
        assert!(hit, "u1's carried view of {state:?} answers");
        assert_eq!(now.view_hits, then.view_hits + 1);
        assert_eq!(now.view_misses, then.view_misses);
        let want = fresh_topk(db.tree("u1").unwrap(), db.relation(), state, 3);
        assert_eq!(answer.results.entries(), want.as_slice(), "{state:?}");
    }
    // A state u1 never asked was not carried: its first read misses.
    let (_, hit) = db.query_state_topk("u1", &states[2], 3).unwrap();
    assert!(!hit, "u1 never asked {:?}", states[2]);

    // The other sharers still share, and answer as before.
    for name in others {
        let shared = db.view_catalog(name).unwrap();
        assert!(std::ptr::eq(shared, db.view_catalog("u4").unwrap()));
        for (state, want) in states.iter().zip(&before) {
            let (answer, hit) = db.query_state_topk(name, state, 3).unwrap();
            assert!(hit, "{name} {state:?}");
            assert_eq!(answer.results.entries(), want.as_slice());
        }
    }

    // Profile 0's users fork one by one; the last fork retires their
    // shared catalog, and no total falls on the way.
    let mut totals = db.views_totals();
    for name in ["u0", "u3", "u6", "u9"] {
        db.insert_preference(name, pref(&env, &rel, "*", "restaurant", 0.3))
            .unwrap();
        let now = db.views_totals();
        assert!(no_total_fell(&totals, &now), "{name}: {totals:?} → {now:?}");
        totals = now;
    }
    assert_eq!(catalogs(&db, &users), 7);
    for name in &users {
        let catalog = db.view_catalog(name).unwrap();
        assert!(catalog
            .verify(db.tree(name).unwrap(), db.relation())
            .is_empty());
    }
}

/// An edit that changes nothing forks nothing: a refused conflicting
/// insert, a removal at a bad index and a re-score to the score already
/// held leave both sharers on one index and one catalog, and the view
/// totals where they were.
#[test]
fn edits_that_change_nothing_fork_nothing() {
    let (env, rel) = (env(), relation());
    let base = &base_profiles(&env, &rel)[0];
    let mut db = MultiUserDb::new(env.clone(), rel.clone(), 0);
    for name in ["a", "b"] {
        db.add_user_with_profile(name, base.clone()).unwrap();
    }
    // `a` materializes a view, so a fork would carry one.
    let warm = &states(&env)[0];
    for _ in 0..2 {
        db.query_state_topk("a", warm, 3).unwrap();
    }
    let held = |db: &MultiUserDb, user| {
        let catalog = db.view_catalog(user).unwrap() as *const ViewCatalog;
        (catalog, db.tree(user).unwrap() as *const ProfileTree)
    };
    let pair = held(&db, "a");
    assert_eq!(held(&db, "b"), pair);
    let totals = db.views_totals();
    let unchanged = |db: &MultiUserDb, edit: &str| {
        assert_eq!(held(db, "a"), pair, "{edit} moved a");
        assert_eq!(held(db, "b"), pair, "{edit} moved b");
        assert_eq!(db.views_totals(), totals, "{edit}");
    };

    // Profile 0 already scores museums 0.9 when the weather is warm.
    let conflicting = pref(&env, &rel, "weather = warm", "museum", 0.3);
    assert!(db.insert_preference("a", conflicting.clone()).is_err());
    unchanged(&db, "a refused insert");
    assert!(db.remove_preference("a", base.len()).is_err());
    unchanged(&db, "a removal at a bad index");
    db.update_preference_score("a", 0, 0.9).unwrap();
    unchanged(&db, "a re-score to the same score");

    // A pair `a` holds alone stays filed through each no-op edit: a user
    // registered afterwards with `a`'s profile shares `a`'s index.
    let edits = ["a refused insert", "a removal at a bad index", "a re-score"];
    for (i, edit) in edits.into_iter().enumerate() {
        let mut db = MultiUserDb::new(env.clone(), rel.clone(), 0);
        db.add_user_with_profile("a", base.clone()).unwrap();
        match i {
            0 => assert!(db.insert_preference("a", conflicting.clone()).is_err()),
            1 => assert!(db.remove_preference("a", base.len()).is_err()),
            _ => db.update_preference_score("a", 0, 0.9).unwrap(),
        }
        db.add_user_with_profile("later", base.clone()).unwrap();
        assert_eq!(held(&db, "later").1, held(&db, "a").1, "{edit} unfiled a");
    }
}

/// Users registered one by one on a sharded database share as they
/// would in one database, whichever stripes they land on: every answer,
/// every view flag and the view totals agree, through an edit and a
/// removal too.
#[test]
fn stripes_share_catalogs_like_one_database() {
    let (env, rel) = (env(), relation());
    let bases = base_profiles(&env, &rel);
    let states = states(&env);
    let users: Vec<String> = (0..12).map(|u| format!("u{u}")).collect();
    let mut plain = MultiUserDb::new(env.clone(), rel.clone(), 0);
    let sharded = ShardedMultiUserDb::new(env.clone(), rel.clone(), 0, 5);
    for (u, name) in users.iter().enumerate() {
        plain
            .add_user_with_profile(name, bases[u % 3].clone())
            .unwrap();
        sharded
            .add_user_with_profile(name, bases[u % 3].clone())
            .unwrap();
    }
    let stripes: HashSet<usize> = users.iter().map(|u| sharded.shard_of(u)).collect();
    assert!(stripes.len() > 1, "twelve names land on several stripes");
    let addr = |u: &str| {
        let shard = sharded.read_user_shard(u);
        shard.view_catalog(u).unwrap() as *const ViewCatalog as usize
    };
    assert_eq!(
        users.iter().map(|u| addr(u)).collect::<HashSet<_>>().len(),
        3
    );
    let same_answers = |plain: &MultiUserDb, at: &str| {
        // Each user asks each state once, so a state turns hot only
        // when a second user of its catalog asks it.
        for name in plain.users_sorted() {
            for state in &states {
                let (a, a_hit) = plain.query_state_topk(name, state, 3).unwrap();
                let (b, b_hit) = sharded.query_state_topk(name, state, 3).unwrap();
                assert_eq!(a.results.entries(), b.results.entries(), "{at}: {name}");
                assert_eq!(a_hit, b_hit, "{at}: {name} {state:?}");
            }
        }
        assert_eq!(plain.views_totals(), sharded.views_totals(), "{at}");
    };
    same_answers(&plain, "shared");
    let edited = plain.update_preference_score("u0", 0, 0.42).is_ok();
    assert_eq!(
        sharded.update_preference_score("u0", 0, 0.42).is_ok(),
        edited
    );
    plain.remove_user("u1").unwrap();
    sharded.remove_user("u1").unwrap();
    same_answers(&plain, "after an edit and a removal");
}

/// Four users holding one profile on four stripes: three readers keep
/// hitting their shared catalog while the fourth forks it and edits.
#[test]
fn readers_keep_the_shared_catalog_while_a_writer_forks_it() {
    let (env, rel) = (env(), relation());
    let base = base_profiles(&env, &rel).swap_remove(1);
    let states = states(&env);
    let stripes = 4;
    let probe = ShardedMultiUserDb::new(env.clone(), rel.clone(), 0, stripes);
    let mut users: Vec<String> = Vec::new();
    for name in (0..64).map(|i| format!("c{i}")) {
        if users
            .iter()
            .all(|u| probe.shard_of(u) != probe.shard_of(&name))
        {
            users.push(name);
        }
    }
    assert_eq!(users.len(), stripes, "64 names cover 4 stripes");
    let mut plain = MultiUserDb::new(env.clone(), rel.clone(), 8);
    for name in &users {
        plain.add_user_with_profile(name, base.clone()).unwrap();
    }
    let db = ShardedMultiUserDb::from_db(plain, stripes);
    let addr = |u: &str| db.read_user_shard(u).view_catalog(u).unwrap() as *const ViewCatalog;
    assert!(users.iter().all(|u| addr(u) == addr(&users[0])));

    // Every user materializes every state in the shared catalog.
    for name in &users {
        for state in &states {
            for k in [1, 3] {
                db.query_state_topk(name, state, k).unwrap();
                db.query_state_topk(name, state, k).unwrap();
            }
        }
    }
    let order = ParamOrder::by_ascending_domain(&env);
    let base_index = IndexedProfile::new(base.clone(), order.clone()).unwrap();
    let want = |index: &IndexedProfile, state: &ContextState, k: usize| {
        fresh_topk(index.tree(), &rel, state, k)
    };
    let (writer, readers) = users.split_first().unwrap();
    let done = AtomicBool::new(false);
    let passes = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for name in readers {
            let (db, done, passes, states, base_index) =
                (&db, &done, &passes, &states, &base_index);
            scope.spawn(move || {
                let mut hits = 0;
                loop {
                    for state in states {
                        for k in [1, 3] {
                            let (answer, hit) = db.query_state_topk(name, state, k).unwrap();
                            let want = want(base_index, state, k);
                            assert_eq!(answer.results.entries(), want.as_slice(), "{name}");
                            hits += usize::from(hit);
                        }
                    }
                    passes.fetch_add(1, Ordering::Release);
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                }
                assert!(hits > 0, "{name} never hit the shared catalog");
            });
        }
        let (db, done) = (&db, &done);
        let mut model = base_index.clone();
        // Start editing once every reader is under way.
        while passes.load(Ordering::Acquire) < readers.len() {
            std::thread::yield_now();
        }
        let mut rng = TestRng::from_seed(7);
        for step in 0..40 {
            let len = model.profile().len();
            let (got, expected) = match rng.below(3) {
                0 => {
                    let p = random_pref(&env, &rel, &mut rng);
                    let got = db.insert_preference(writer, p.clone()).is_ok();
                    (got, model.insert(p).is_ok())
                }
                1 => {
                    let (i, s) = (rng.below(len + 1), SCORES[rng.below(SCORES.len())]);
                    let got = db.update_preference_score(writer, i, s).is_ok();
                    (got, model.rescore(i, s).is_ok())
                }
                _ => {
                    let i = rng.below(len + 1);
                    let got = db.remove_preference(writer, i).is_ok();
                    (got, model.remove(i).is_ok())
                }
            };
            assert_eq!(got, expected, "step {step}: verdict");
            for state in &states {
                for k in [1, 3] {
                    let (answer, _) = db.query_state_topk(writer, state, k).unwrap();
                    let want = want(&model, state, k);
                    assert_eq!(answer.results.entries(), want.as_slice(), "step {step}");
                }
            }
        }
        done.store(true, Ordering::Release);
    });
    assert_ne!(addr(writer), addr(&readers[0]), "the writer forked");
    assert!(readers.iter().all(|u| addr(u) == addr(&readers[0])));
    for name in &users {
        let shard = db.read_user_shard(name);
        let catalog = shard.view_catalog(name).unwrap();
        let stale = catalog.verify(shard.tree(name).unwrap(), shard.relation());
        assert!(stale.is_empty(), "{name}: stale views {stale:?}");
    }
}
