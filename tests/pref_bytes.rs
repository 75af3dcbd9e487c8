//! What a stored preference costs in live heap, pinned so it cannot
//! creep back.
//!
//! A counting global allocator measures an `IndexedProfile` (the logical
//! profile plus its profile tree) on the paper's §5.2 synthetic shape,
//! the allocations it takes to build one context descriptor through
//! each production constructor, and what a user of the §5.1 study costs
//! a `MultiUserDb` when users start from shared default profiles. The
//! paper's own byte model (`TreeStats::total_bytes`) is about 23 B per
//! preference; this counts what the structs really hold. `--nocapture`
//! prints the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use ctxpref::context::{
    descriptor_of_state, parse_descriptor, ContextState, ParamId, ParameterDescriptor,
};
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
const MAX_BYTES_PER_PREF: f64 = 300.0;

/// Live bytes a user registered with a default profile may hold: their
/// slot, cache and view catalog, with the profile's index shared.
const MAX_BYTES_PER_USER: f64 = 2048.0;

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
    // its clauses, through the parser and from a state.
    let env = poi_env();
    let exact = 3 * std::mem::size_of::<(ParamId, ParameterDescriptor)>() as isize;
    let state = ContextState::parse(&env, &["Plaka", "warm", "friends"]).unwrap();
    let text = "location = Plaka and temperature = warm and accompanying_people = friends";
    let (parsed, allocs, live) = measured(|| parse_descriptor(&env, text).unwrap());
    println!("parse_descriptor: {allocs} allocation(s), {live} B");
    assert!(allocs <= 1, "parse_descriptor made {allocs} allocations");
    assert_eq!(live, exact, "parse_descriptor's clauses are exactly sized");
    let (of_state, allocs, live) = measured(|| descriptor_of_state(&env, &state));
    println!("descriptor_of_state: {allocs} allocation(s), {live} B");
    assert!(allocs <= 1, "descriptor_of_state made {allocs} allocations");
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
}
