//! Overload-behavior tests: a stalled worker pool must never execute
//! work whose deadline has passed (every caller gets the typed
//! deadline error on time), and the sojourn controller must shed the
//! lowest tiers first while Interactive is never sojourn-shed.

use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::MultiUserDb;
use ctxpref_faults::{sites, FaultPlan};
use ctxpref_service::{CtxPrefService, Priority, ServiceConfig, ServiceError};
use ctxpref_workload::reference::{poi_env, poi_relation};
use ctxpref_workload::user_study::{all_demographics, default_profile};

fn study_db(users: usize, cache: usize) -> MultiUserDb {
    let env = poi_env();
    let rel = poi_relation(&env, 7, 4);
    let mut db = MultiUserDb::new(env.clone(), rel, cache);
    for (i, demo) in all_demographics().into_iter().take(users).enumerate() {
        let profile = default_profile(&env, db.relation(), demo);
        db.add_user_with_profile(&format!("user{i}"), profile)
            .unwrap();
    }
    db
}

fn state(db: &CtxPrefService, names: &[&str]) -> ContextState {
    db.with_db(|db| ContextState::parse(db.env(), names).unwrap())
}

/// A pool stalled by an injected dequeue delay, fed jobs whose
/// deadlines are far shorter than the stall: every caller must get
/// the typed `DeadlineExceeded` at its own deadline (not after the
/// stall), and NO job may execute — expired work is dropped, never
/// run.
#[test]
fn stalled_pool_executes_nothing_past_the_deadline() {
    let _serial = ctxpref_faults::exclusive();
    const CALLERS: usize = 8;
    let stall = Duration::from_millis(150);
    let deadline = Duration::from_millis(30);

    let service = CtxPrefService::new(
        study_db(1, 8),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let s = state(&service, &["Plaka", "warm", "friends"]);

    let _stalled = ctxpref_faults::install(
        FaultPlan::builder(17)
            .delay(sites::SVC_WORKER_DEQUEUE, 1.0, stall)
            .build(),
    );

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let service = &service;
                let s = &s;
                scope.spawn(move || {
                    let started = Instant::now();
                    let result = service.query_state_deadline("user0", s, deadline);
                    (result, started.elapsed())
                })
            })
            .collect();
        for h in handles {
            let (result, waited) = h.join().expect("caller thread");
            // Typed, and on time: the caller waits its own remaining
            // budget, not the worker's stall.
            match result {
                Err(ServiceError::DeadlineExceeded { .. }) => {}
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
            assert!(
                waited < stall,
                "caller waited {waited:?} — past its {deadline:?} budget and \
                 into the {stall:?} stall"
            );
        }
    });

    // Let the stalled worker chew through the queue, then check the
    // ledger: every job was dropped by one of the no-execution paths
    // (cancelled by its caller, expired at dequeue, or expired by the
    // post-lock re-check) and nothing was ever served.
    let drained = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = service.stats();
        let dropped = stats.cancelled + stats.shed_expired + stats.deadline_after_lock;
        if dropped >= CALLERS as u64 {
            break;
        }
        assert!(
            Instant::now() < drained,
            "queue not drained: {} of {CALLERS} jobs accounted for ({stats:?})",
            dropped
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = service.stats();
    assert_eq!(stats.served(), 0, "an expired job was executed: {stats:?}");
    assert!(
        stats.deadline_exceeded >= CALLERS as u64,
        "every caller's miss is counted: {stats:?}"
    );
}

/// An in-process read its caller gives up on, which the worker then
/// catches past its deadline after the shard lock, is one deadline
/// miss, not two: whichever side settles the job's cancel flag first
/// counts it.
#[test]
fn an_in_process_deadline_miss_is_counted_once() {
    let _serial = ctxpref_faults::exclusive();
    let service = CtxPrefService::new(study_db(1, 8), ServiceConfig::default());
    let s = state(&service, &["Plaka", "warm", "friends"]);
    let _stalled = ctxpref_faults::install(
        FaultPlan::builder(23)
            .delay(sites::SVC_WORKER_DEQUEUE, 1.0, Duration::from_millis(200))
            .build(),
    );
    match service.query_state_deadline("user0", &s, Duration::from_millis(20)) {
        Err(ServiceError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // The worker is still stalled; wait until it has caught the miss
    // after the lock and let go of the read's in-flight slot.
    let drained = Instant::now() + Duration::from_secs(5);
    while service.stats().deadline_after_lock < 1 || service.in_flight() > 0 {
        assert!(
            Instant::now() < drained,
            "the worker never finished the read"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = service.stats();
    assert_eq!(stats.deadline_after_lock, 1, "{stats:?}");
    assert_eq!(
        stats.deadline_exceeded, 1,
        "one miss, counted once: {stats:?}"
    );
}

/// Under a standing queue the sojourn controller sheds Maintenance
/// and Bulk with the typed retryable `Overloaded` — and never
/// Interactive, which only the hard in-flight backstop may refuse.
#[test]
fn sojourn_pressure_sheds_lowest_tiers_first_never_interactive() {
    let _serial = ctxpref_faults::exclusive();
    let stall = Duration::from_millis(50);

    let service = CtxPrefService::new(
        study_db(1, 8),
        ServiceConfig {
            workers: 1,
            // A tight target and an interval shorter than the standing
            // queue we build, so pressure reaches the bulk-shedding
            // level during the test window.
            codel_target: Duration::from_millis(1),
            codel_interval: Duration::from_millis(100),
            ..ServiceConfig::default()
        },
    );
    let s = state(&service, &["Plaka", "warm", "friends"]);

    let _stalled = ctxpref_faults::install(
        FaultPlan::builder(19)
            .delay(sites::SVC_WORKER_DEQUEUE, 1.0, stall)
            .build(),
    );

    std::thread::scope(|scope| {
        // Ten interactive jobs with generous deadlines keep the queue
        // standing (each pays the stall) while the probes run.
        let preload: Vec<_> = (0..10)
            .map(|_| {
                let service = &service;
                let s = &s;
                scope.spawn(move || {
                    service.query_tiered("user0", s, Duration::from_secs(5), Priority::Interactive)
                })
            })
            .collect();

        // Sojourn crosses the target from the second dequeue on and
        // pressure latches after the interval; probe mid-queue.
        std::thread::sleep(Duration::from_millis(250));

        match service.query_tiered(
            "user0",
            &s,
            Duration::from_millis(100),
            Priority::Maintenance,
        ) {
            Err(ServiceError::Overloaded { retry_after, .. }) => {
                assert!(
                    retry_after > Duration::ZERO,
                    "sojourn shed carries the queue-derived retry hint"
                );
            }
            other => panic!("maintenance not sojourn-shed: {other:?}"),
        }
        match service.query_tiered("user0", &s, Duration::from_millis(100), Priority::Bulk) {
            Err(ServiceError::Overloaded { .. }) => {}
            other => panic!("bulk not shed at sustained pressure: {other:?}"),
        }
        // Interactive is admitted even at full pressure: it may miss
        // its (deliberately short) deadline behind the standing queue,
        // but it must never be sojourn-shed.
        match service.query_tiered(
            "user0",
            &s,
            Duration::from_millis(20),
            Priority::Interactive,
        ) {
            Err(ServiceError::DeadlineExceeded { .. }) => {}
            Ok(_) => {}
            other => panic!("interactive must not be sojourn-shed: {other:?}"),
        }

        for h in preload {
            h.join()
                .expect("preload thread")
                .expect("preload queries finish inside their generous deadline");
        }
    });

    let stats = service.stats();
    assert!(stats.shed_sojourn >= 2, "{stats:?}");
    assert!(stats.shed_maintenance >= 1, "{stats:?}");
    assert!(stats.shed_bulk >= 1, "{stats:?}");
    assert_eq!(stats.shed_interactive, 0, "{stats:?}");
}
