//! The chaos suite: thousands of randomized queries against the service
//! under a seeded plan of mixed faults (I/O errors, forced panics,
//! injected delays, partial writes), asserting the tentpole guarantees:
//!
//! 1. no panic escapes the service boundary,
//! 2. every request terminates with an answer or a typed error within
//!    its deadline (plus scheduling grace),
//! 3. cache statistics stay internally consistent,
//! 4. a profile saved under injected partial-write faults either loads
//!    intact or fails cleanly — never panics, never half-loads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::MultiUserDb;
use ctxpref_faults::FaultPlan;
use ctxpref_hierarchy::LevelId;
use ctxpref_service::{CtxPrefService, LadderStep, ServiceConfig, ServiceError};
use ctxpref_workload::reference::{poi_env, poi_relation};
use ctxpref_workload::user_study::{all_demographics, default_profile};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn study_db(users: usize, cache: usize) -> MultiUserDb {
    let env = poi_env();
    let rel = poi_relation(&env, 9, 5);
    let mut db = MultiUserDb::new(env.clone(), rel, cache);
    for (i, demo) in all_demographics().into_iter().take(users).enumerate() {
        let profile = default_profile(&env, db.relation(), demo);
        db.add_user_with_profile(&format!("user{i}"), profile)
            .unwrap();
    }
    db
}

/// A random context state: leaf values mostly, an interior value now
/// and then (queries at coarser granularity are legal).
fn random_state(db: &ctxpref_core::ShardedMultiUserDb, rng: &mut StdRng) -> ContextState {
    let env = db.env();
    let mut state = ContextState::all(env);
    for (p, h) in env.iter() {
        let level = if rng.random_bool(0.85) {
            0
        } else {
            rng.random_range(0..h.level_count().saturating_sub(1).max(1))
        };
        let domain = h.domain(LevelId(level as u8));
        if !domain.is_empty() {
            state = state.with_value(p, domain[rng.random_range(0..domain.len())]);
        }
    }
    state
}

const USERS: usize = 4;
const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 300; // 1200 total — over the ≥1000 bar

#[test]
fn storm_of_mixed_faults_upholds_the_service_guarantees() {
    let _serial = ctxpref_faults::exclusive();
    // Injected panics unwind through `catch_unwind` hundreds of times;
    // silence the default per-panic backtrace spew for this test.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let deadline = Duration::from_millis(500);
    let grace = Duration::from_millis(300);
    let cfg = ServiceConfig {
        workers: 4,
        max_in_flight: 64,
        default_deadline: deadline,
        ..ServiceConfig::default()
    };
    let service = CtxPrefService::new(study_db(USERS, 16), cfg);
    let save_path = std::env::temp_dir().join(format!("ctxpref-chaos-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&save_path);

    // The seeded plan: every class of fault, at every instrumented
    // layer. Same seed → same storm, run after run.
    let plan = FaultPlan::builder(0x00C0_FFEE)
        .fail("service.query.primary", 0.08)
        .panic("service.query.primary", 0.04)
        .delay("service.query.primary", 0.04, Duration::from_millis(2))
        .fail("service.query.nearest", 0.10)
        .panic("service.query.nearest", 0.03)
        .fail("qcache.get", 0.06)
        .fail("qcache.insert", 0.06)
        .fail("storage.save.open", 0.25)
        .truncate("storage.save.write", 0.25, 0.6)
        .build();

    let ok_count = AtomicU64::new(0);
    let err_count = AtomicU64::new(0);
    let degraded_count = AtomicU64::new(0);
    let saves_succeeded = AtomicU64::new(0);
    let saves_failed = AtomicU64::new(0);

    plan.run(|| {
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let service = &service;
                let ok_count = &ok_count;
                let err_count = &err_count;
                let degraded_count = &degraded_count;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(1000 + client as u64);
                    let states: Vec<ContextState> = (0..32)
                        .map(|_| service.with_db(|db| random_state(db, &mut rng)))
                        .collect();
                    for i in 0..QUERIES_PER_CLIENT {
                        let user = if rng.random_bool(0.05) {
                            "ghost".to_string() // unknown user: typed error
                        } else {
                            format!("user{}", rng.random_range(0..USERS))
                        };
                        let state = &states[rng.random_range(0..states.len())];
                        let started = Instant::now();
                        let result = service.query_state(&user, state);
                        let elapsed = started.elapsed();
                        assert!(
                            elapsed <= deadline + grace,
                            "client {client} query {i} took {elapsed:?} (deadline {deadline:?})"
                        );
                        match result {
                            Ok(answer) => {
                                ok_count.fetch_add(1, Ordering::Relaxed);
                                if answer.is_degraded() {
                                    degraded_count.fetch_add(1, Ordering::Relaxed);
                                    assert!(
                                        !answer.fallbacks.is_empty(),
                                        "degraded answers record their fallbacks"
                                    );
                                }
                                if answer.step == LadderStep::DefaultAnswer {
                                    assert!(answer
                                        .answer
                                        .results
                                        .entries()
                                        .iter()
                                        .all(|e| e.score == 0.0));
                                }
                            }
                            Err(
                                ServiceError::Overloaded { .. }
                                | ServiceError::DeadlineExceeded { .. }
                                | ServiceError::QueryPanicked { .. }
                                | ServiceError::Core(_)
                                | ServiceError::Storage(_)
                                | ServiceError::Wal(_)
                                | ServiceError::NotDurable
                                | ServiceError::ShuttingDown,
                            ) => {
                                err_count.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(
                                e @ (ServiceError::NotReplicated | ServiceError::Replication(_)),
                            ) => {
                                panic!("replication error on the query path: {e}");
                            }
                            Err(
                                e @ (ServiceError::Migrating { .. }
                                | ServiceError::StaleMigration { .. }),
                            ) => {
                                panic!("migration error without any migration: {e}");
                            }
                        }
                    }
                });
            }

            // A mutator thread: profile updates race the query storm and
            // exercise cache invalidation under load.
            let service = &service;
            scope.spawn(move || {
                for round in 0..40u64 {
                    let score = if round % 2 == 0 { 0.31 } else { 0.62 };
                    let _ = service.update_preference_score("user0", 0, score);
                    std::thread::sleep(Duration::from_millis(2));
                }
            });

            // A saver thread: snapshots race the storm while storage
            // faults (including partial writes) fire.
            let saves_succeeded = &saves_succeeded;
            let saves_failed = &saves_failed;
            let save_path = &save_path;
            scope.spawn(move || {
                for _ in 0..30 {
                    match service.save(save_path) {
                        Ok(()) => saves_succeeded.fetch_add(1, Ordering::Relaxed),
                        Err(
                            ServiceError::Storage(_)
                            | ServiceError::Overloaded { .. }
                            | ServiceError::DeadlineExceeded { .. },
                        ) => saves_failed.fetch_add(1, Ordering::Relaxed),
                        Err(other) => panic!("unexpected save error: {other:?}"),
                    };
                    std::thread::sleep(Duration::from_millis(3));
                }
            });
        });
    });
    std::panic::set_hook(prev_hook);

    // Guarantee 2 accounting: every one of the 1200 requests resolved.
    let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    let (ok, err) = (
        ok_count.load(Ordering::Relaxed),
        err_count.load(Ordering::Relaxed),
    );
    assert_eq!(
        ok + err,
        total,
        "every request terminates with an answer or a typed error"
    );

    // The storm actually stormed: faults fired, rungs were exercised.
    let injected = plan.stats();
    assert!(
        injected.total() > 100,
        "only {} faults injected",
        injected.total()
    );
    assert!(!injected.panics.is_empty(), "no panics were forced");
    let stats = service.stats();
    assert_eq!(
        stats.served(),
        ok,
        "service accounting matches client accounting"
    );
    assert!(stats.degraded() > 0, "degradation ladder never engaged");
    assert_eq!(stats.degraded(), degraded_count.load(Ordering::Relaxed));
    assert!(
        stats.panics_contained > 0,
        "panic containment never engaged"
    );

    // Guarantee 3: per-user cache statistics remain consistent.
    for i in 0..USERS {
        let user = format!("user{i}");
        let cache = service
            .cache_stats(&user)
            .unwrap()
            .expect("caching enabled");
        assert!(
            cache.evictions <= cache.insertions,
            "{user}: evicted {} > inserted {}",
            cache.evictions,
            cache.insertions
        );
        assert!(
            cache.hits + cache.misses > 0,
            "{user}: the storm never touched this cache"
        );
    }

    // Guarantee 4: whatever the partial-write faults did, the snapshot
    // file either loads intact or fails cleanly — never a panic.
    let load = catch_unwind(AssertUnwindSafe(|| {
        ctxpref_wal::snapshot::load_multi_user(&save_path)
    }));
    let load = load.expect("loading a chaos-era snapshot must not panic");
    if saves_succeeded.load(Ordering::Relaxed) > 0 {
        // Atomic renames only publish complete files, so the newest
        // successful snapshot must load.
        let db = load.expect("a successfully saved snapshot loads intact");
        assert_eq!(db.user_count(), USERS);
    } else if let Err(e) = load {
        // No save survived: any residue must fail with a typed error.
        let _typed: ctxpref_wal::WalError = e;
    }
    assert!(
        saves_succeeded.load(Ordering::Relaxed) + saves_failed.load(Ordering::Relaxed) == 30,
        "every save attempt resolved"
    );

    // And after the storm, with no plan installed, the service is
    // healthy again: a clean query and a clean save.
    let state = service.with_db(|db| ContextState::all(db.env()));
    let answer = service.query_state("user1", &state).unwrap();
    assert!(matches!(
        answer.step,
        LadderStep::Cached | LadderStep::Exact
    ));
    service.save(&save_path).unwrap();
    assert_eq!(
        ctxpref_wal::snapshot::load_multi_user(&save_path)
            .unwrap()
            .user_count(),
        USERS
    );
    let _ = std::fs::remove_file(&save_path);
}

/// Determinism of the storm itself: the same seed injects the same
/// faults in the same order at each site, independent of thread timing.
#[test]
fn fault_plans_are_deterministic_across_runs() {
    let _serial = ctxpref_faults::exclusive();
    let run = |seed: u64| {
        let plan = FaultPlan::builder(seed)
            .fail("service.query.primary", 0.2)
            .fail("qcache.get", 0.1)
            .build();
        let service = CtxPrefService::new(study_db(2, 8), ServiceConfig::default());
        let state = service.with_db(|db| ContextState::all(db.env()));
        plan.run(|| {
            // Single-threaded driving → per-site hit order is fixed.
            let steps: Vec<LadderStep> = (0..100)
                .map(|_| service.query_state("user0", &state).unwrap().step)
                .collect();
            steps
        })
    };
    assert_eq!(run(42), run(42), "same seed, same degradations");
    assert_ne!(run(42), run(43), "different seed, different storm");
}
