//! Regression tests for the sharded serving core (PR 2):
//!
//! 1. **Shard isolation** — a write-locked (quiesced) shard must not
//!    block queries for users on other shards: no cross-user blocking
//!    beyond genuine shard collisions.
//! 2. **Post-lock deadline re-check** — a request whose deadline
//!    expires *while waiting for its shard lock* must be answered
//!    `DeadlineExceeded` by the re-check after acquisition (counted in
//!    `deadline_after_lock`), not run a pointless query.
//! 3. **Deadline-capped storage backoff** — a persistently failing
//!    save must give up when the next backoff sleep would cross the
//!    storage deadline, instead of sleeping the full exponential
//!    schedule.

use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::MultiUserDb;
use ctxpref_faults::FaultPlan;
use ctxpref_service::{CtxPrefService, RetryPolicy, ServiceConfig, ServiceError};
use ctxpref_workload::reference::{poi_env, poi_relation};

fn db_with_users(n: usize) -> MultiUserDb {
    let env = poi_env();
    let rel = poi_relation(&env, 9, 5);
    let mut db = MultiUserDb::new(env, rel, 16);
    for i in 0..n {
        db.add_user(&format!("user{i}")).unwrap();
    }
    db
}

/// Two users on provably different shards of the service's core.
fn cross_shard_pair(service: &CtxPrefService, n: usize) -> (String, String) {
    service.with_db(|db| {
        let a = "user0".to_string();
        let b = (1..n)
            .map(|i| format!("user{i}"))
            .find(|u| db.shard_of(u) != db.shard_of(&a))
            .expect("enough users to span two shards");
        (a, b)
    })
}

#[test]
fn quiesced_shard_does_not_block_other_shards() {
    let _serial = ctxpref_faults::exclusive();
    let n = 32;
    let cfg = ServiceConfig {
        workers: 4,
        default_deadline: Duration::from_millis(500),
        ..ServiceConfig::default()
    };
    let service = CtxPrefService::new(db_with_users(n), cfg);
    let (blocked_user, free_user) = cross_shard_pair(&service, n);
    let state = service.with_db(|db| ContextState::all(db.env()));

    service.with_db(|db| {
        let _quiesce = db.quiesce_user(&blocked_user);
        // Users on every *other* shard keep answering well inside the
        // deadline while one shard is held for writing.
        for _ in 0..20 {
            let started = Instant::now();
            service
                .query_state(&free_user, &state)
                .expect("other-shard query must succeed during quiesce");
            assert!(
                started.elapsed() < Duration::from_millis(500),
                "other-shard query must not wait on the quiesced shard"
            );
        }
        // The quiesced user's own shard is genuinely blocked: a short
        // deadline expires while the worker waits on the shard lock.
        let err = service
            .query_state_deadline(&blocked_user, &state, Duration::from_millis(50))
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::DeadlineExceeded { .. }),
            "got {err:?}"
        );
    });

    // Released: the blocked user's shard serves again.
    let answer = service.query_state(&blocked_user, &state).unwrap();
    assert!(!answer.is_degraded());

    // The blocked worker observed lock contention; once the shard was
    // released it re-checked the deadline after acquisition.
    let deadline = Duration::from_millis(250);
    let wait_for = Instant::now() + Duration::from_secs(5);
    loop {
        let s = service.stats();
        if s.deadline_after_lock >= 1 && s.lock_wait_micros > 0 {
            break;
        }
        assert!(
            Instant::now() < wait_for,
            "post-lock deadline re-check never fired: {s:?}"
        );
        std::thread::sleep(deadline / 10);
    }
}

#[test]
fn deadline_expiring_during_lock_wait_is_counted_post_lock() {
    let _serial = ctxpref_faults::exclusive();
    let n = 8;
    let cfg = ServiceConfig {
        workers: 2,
        default_deadline: Duration::from_millis(200),
        ..ServiceConfig::default()
    };
    let service = CtxPrefService::new(db_with_users(n), cfg);
    let state = service.with_db(|db| ContextState::all(db.env()));
    let user = "user0".to_string();

    let before = service.stats();
    service.with_db(|db| {
        let quiesce = db.quiesce_user(&user);
        // The caller gives up at 40ms; the worker is still parked on
        // the shard lock at that point.
        let err = service
            .query_state_deadline(&user, &state, Duration::from_millis(40))
            .unwrap_err();
        assert!(matches!(err, ServiceError::DeadlineExceeded { .. }));
        // Hold the shard a little longer so the deadline is long past
        // when the worker finally acquires it.
        std::thread::sleep(Duration::from_millis(60));
        drop(quiesce);
    });

    // The worker wakes, acquires the shard, re-checks the deadline, and
    // books the miss as post-lock — without running the ladder.
    let wait_for = Instant::now() + Duration::from_secs(5);
    loop {
        let s = service.stats();
        if s.deadline_after_lock > before.deadline_after_lock {
            assert!(s.lock_wait_micros > before.lock_wait_micros);
            // No rung was run for the doomed request: it produced no
            // served answer.
            assert_eq!(s.served(), before.served());
            break;
        }
        assert!(
            Instant::now() < wait_for,
            "deadline_after_lock never incremented: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn storage_backoff_is_capped_by_the_storage_deadline() {
    let _serial = ctxpref_faults::exclusive();
    let cfg = ServiceConfig {
        workers: 1,
        // Without the cap this schedule sleeps 50 + 100 + ... + 3200 ms
        // ≈ 6.3 s; the deadline cuts it off after the first sleep.
        retry: RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(50),
        },
        storage_deadline: Duration::from_millis(120),
        ..ServiceConfig::default()
    };
    let service = CtxPrefService::new(db_with_users(2), cfg);
    let path = std::env::temp_dir().join(format!("ctxpref-shard-retry-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Every save attempt fails with a (retryable) injected I/O error.
    let plan = FaultPlan::builder(7).fail("storage.save.open", 1.0).build();
    let started = Instant::now();
    let result = plan.run(|| service.save(&path));
    let elapsed = started.elapsed();

    let err = result.unwrap_err();
    assert!(
        matches!(err, ServiceError::DeadlineExceeded { deadline } if deadline == Duration::from_millis(120)),
        "expected the capped retry to surface DeadlineExceeded, got {err:?}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "retry loop slept past the storage deadline: {elapsed:?}"
    );
    // It did retry before giving up (the first backoff fits the cap).
    assert!(service.stats().storage_retries >= 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn saves_do_not_block_queries() {
    let _serial = ctxpref_faults::exclusive();
    let n = 16;
    let cfg = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let service = CtxPrefService::new(db_with_users(n), cfg);
    let state = service.with_db(|db| ContextState::all(db.env()));
    let path = std::env::temp_dir().join(format!("ctxpref-shard-save-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // A save that retries with real sleeps (fault fails the first two
    // openings) while queries keep flowing: the snapshot is taken up
    // front, so no shard lock is held across the I/O and retries.
    let plan = FaultPlan::builder(11)
        .fail_at("storage.save.open", &[0, 1])
        .build();
    plan.run(|| {
        std::thread::scope(|scope| {
            let service = &service;
            let save_path = &path;
            let saver = scope.spawn(move || service.save(save_path));
            for i in 0..50 {
                let user = format!("user{}", i % n);
                service
                    .query_state(&user, &state)
                    .expect("queries proceed during save");
            }
            saver.join().unwrap().expect("save succeeds after retries");
        });
    });
    assert!(path.exists());
    let reopened = ctxpref_wal::snapshot::load_multi_user(&path).unwrap();
    assert_eq!(reopened.user_count(), n);
    let _ = std::fs::remove_file(&path);
}
