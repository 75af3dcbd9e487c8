//! What a stored preference costs in live heap, pinned so it cannot
//! creep back.
//!
//! A counting global allocator measures an `IndexedProfile` (the logical
//! profile plus its profile tree) on the paper's §5.2 synthetic shape,
//! the allocations it takes to build one context descriptor through
//! each production constructor, and what a user of the §5.1 study costs
//! a `MultiUserDb` when users start from shared default profiles, before
//! and after they warm their top-k views (which users with equal
//! profiles share). The paper's own byte model (`TreeStats::total_bytes`)
//! is about 23 B per preference; this counts what the structs really
//! hold. `--nocapture` prints the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use ctxpref::context::{descriptor_of_state, parse_descriptor, ContextState, ParamId};
use ctxpref::core::MultiUserDb;
use ctxpref::profile::{IndexedProfile, ParamOrder, Profile};
use ctxpref::workload::reference::{poi_env, poi_relation};
use ctxpref::workload::synthetic::{SyntheticSpec, ValueDist};
use ctxpref::workload::user_study::{all_demographics, default_profile};

/// Counts every allocation and reallocation, and the bytes live.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters are plain atomics and allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `f`'s result, the allocations it made and the bytes it left live.
fn measured<R>(f: impl FnOnce() -> R) -> (R, usize, isize) {
    let (allocs, live) = (ALLOCS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    let r = f();
    (
        r,
        ALLOCS.load(Ordering::Relaxed) - allocs,
        LIVE.load(Ordering::Relaxed) - live,
    )
}

/// Live bytes per preference the profile and its tree may hold.
const MAX_BYTES_PER_PREF: f64 = 200.0;

/// Live bytes a user registered with a default profile may hold: their
/// slot, cache and view seat, with the profile's index and views shared.
const MAX_BYTES_PER_USER: f64 = 2048.0;

/// Live view bytes a user may hold once their eight states are warm:
/// their seat, and their share of the catalogs of the default profiles.
const MAX_VIEW_BYTES_PER_USER: f64 = 1536.0;

/// The states each `hot_topk` user keeps asking about.
const STATES_PER_USER: usize = 8;

// One test, so nothing else allocates while it measures.
#[test]
fn a_preference_costs_what_it_stores() {
    // (a) The benchmark's `cold_resolve` users: the §5.2 shape, 2,000
    // Zipf(1.0) preferences each, lifted with probability 0.3.
    let spec = |seed| SyntheticSpec::paper_standard(2_000, ValueDist::Zipf(1.0), seed);
    let env = spec(2007).build_env();
    let (mut bytes, mut prefs) = (0isize, 0usize);
    for seed in 2007..2015 {
        let (indexed, _, live) = measured(|| {
            let profile = spec(seed).build_profile_with_lift(&env, 0.3);
            IndexedProfile::new(profile, ParamOrder::by_ascending_domain(&env))
                .expect("synthetic profiles are conflict-free")
        });
        bytes += live;
        prefs += indexed.profile().len();
    }
    let per_pref = bytes as f64 / prefs as f64;
    println!("live heap per preference: {per_pref:.1} B over {prefs} preferences");
    assert!(
        per_pref <= MAX_BYTES_PER_PREF,
        "an indexed preference holds {per_pref:.1} B, over {MAX_BYTES_PER_PREF} B"
    );

    // (b) A 3-clause all-`Eq` descriptor takes one allocation of exactly
    // its packed clauses, 8 B each, through the parser and from a state.
    let env = poi_env();
    let exact = 24;
    let state = ContextState::parse(&env, &["Plaka", "warm", "friends"]).unwrap();
    let text = "location = Plaka and temperature = warm and accompanying_people = friends";
    let (parsed, allocs, live) = measured(|| parse_descriptor(&env, text).unwrap());
    println!("parse_descriptor: {allocs} allocation(s), {live} B");
    assert_eq!(allocs, 1, "parse_descriptor made {allocs} allocations");
    assert_eq!(live, exact, "parse_descriptor's clauses are exactly sized");
    let (of_state, allocs, live) = measured(|| descriptor_of_state(&env, &state));
    println!("descriptor_of_state: {allocs} allocation(s), {live} B");
    assert_eq!(allocs, 1, "descriptor_of_state made {allocs} allocations");
    assert_eq!(
        live, exact,
        "descriptor_of_state's clauses are exactly sized"
    );
    assert_eq!(parsed, of_state);
    assert_eq!(parsed.clause_count(), 3);

    // (c) The benchmark's `hot_topk` users: 2,000 users over the twelve
    // default profiles of the §5.1 study, with a query cache of 16.
    let relation = poi_relation(&env, 2007, 8);
    let defaults: Vec<Profile> = all_demographics()
        .into_iter()
        .map(|d| default_profile(&env, &relation, d))
        .collect();
    let users = 2_000;
    let (db, _, live) = measured(|| {
        let mut db = MultiUserDb::new(env.clone(), relation, 16);
        for u in 0..users {
            let profile = defaults[u % defaults.len()].clone();
            db.add_user_with_profile(&format!("user{u}"), profile)
                .expect("default profiles are conflict-free");
        }
        db
    });
    assert_eq!(db.user_count(), users);
    let per_user = live as f64 / users as f64;
    println!("live heap per user: {per_user:.1} B over {users} users");
    assert!(
        per_user <= MAX_BYTES_PER_USER,
        "a user holds {per_user:.1} B, over {MAX_BYTES_PER_USER} B"
    );

    // (d) Their views: each user asks top-10 twice for each of its eight
    // states, `(u·7 + j·31) % 240` of the 240 detailed states, as
    // `hot_topk`'s warm-up does.
    let mut db = db;
    let detailed = |p: u16| {
        let h = env.hierarchy(ParamId(p));
        h.domain(h.detailed_level()).to_vec()
    };
    let mut states = Vec::new();
    for &l in &detailed(0) {
        for &t in &detailed(1) {
            for &c in &detailed(2) {
                states.push(ContextState::from_values_unchecked(vec![l, t, c]));
            }
        }
    }
    assert_eq!(states.len(), 240);
    let state_of = |u: usize, j: usize| &states[(u * 7 + j * 31) % states.len()];
    let ((), _, warm) = measured(|| {
        for _ in 0..2 {
            for u in 0..users {
                for j in 0..STATES_PER_USER {
                    let name = format!("user{u}");
                    db.query_state_topk(&name, state_of(u, j), 10).unwrap();
                }
            }
        }
    });
    let views = db.views_totals();
    let per_user = warm as f64 / users as f64;
    println!(
        "live view heap per user: {per_user:.1} B over {users} users, {} views",
        views.materialized_views
    );
    assert!(
        per_user <= MAX_VIEW_BYTES_PER_USER,
        "a warm user's views hold {per_user:.1} B, over {MAX_VIEW_BYTES_PER_USER} B"
    );

    // Every other user re-scores a preference once, forking their views;
    // the copies of their indexes are not view heap and are taken out.
    let order = ParamOrder::by_ascending_domain(&env);
    let index_bytes: Vec<isize> = defaults
        .iter()
        .map(|p| {
            let indexed = IndexedProfile::new(p.clone(), order.clone()).unwrap();
            measured(|| indexed.clone()).2
        })
        .collect();
    let (copied, _, edits) = measured(|| {
        let mut copied = 0;
        for u in (0..users).step_by(2) {
            let profile = &defaults[u % defaults.len()];
            let rescored = (0..profile.len()).find(|&i| {
                let score = profile.preferences()[i].score() * 0.9;
                db.update_preference_score(&format!("user{u}"), i, score)
                    .is_ok()
            });
            assert!(rescored.is_some(), "user{u} re-scored nothing");
            copied += index_bytes[u % defaults.len()];
        }
        copied
    });
    let per_user = (warm + edits - copied) as f64 / users as f64;
    println!(
        "live view heap per user after every other user re-scores once: {per_user:.1} B, {} views",
        db.views_totals().materialized_views
    );
}
