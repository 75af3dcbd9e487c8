//! Functional tests of the serving layer: ladder rungs, deadlines,
//! admission control, retries — each failure mode driven by a seeded
//! fault plan.
//!
//! A fault plan is process-global, so one installed by a test would hit
//! the workers of any test running beside it: every test takes
//! `fault_lock`, including those that install no plan but expect an
//! undegraded answer.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::MultiUserDb;
use ctxpref_faults::FaultPlan;
use ctxpref_service::{CtxPrefService, LadderStep, ServiceConfig, ServiceError};
use ctxpref_workload::reference::{poi_env, poi_relation};
use ctxpref_workload::user_study::{all_demographics, default_profile};

fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

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

#[test]
fn healthy_path_cached_and_exact() {
    let _serial = fault_lock();
    let service = CtxPrefService::new(study_db(2, 8), ServiceConfig::default());
    let s = state(&service, &["Plaka", "warm", "friends"]);
    let first = service.query_state("user0", &s).unwrap();
    assert_eq!(first.step, LadderStep::Exact);
    assert!(first.fallbacks.is_empty());
    assert!(!first.is_degraded());
    let second = service.query_state("user0", &s).unwrap();
    assert_eq!(second.step, LadderStep::Cached);
    assert_eq!(
        first.answer.results.entries(),
        second.answer.results.entries()
    );
    let stats = service.stats();
    assert_eq!((stats.served_exact, stats.served_cached), (1, 1));
    assert_eq!(stats.degraded(), 0);
}

#[test]
fn unknown_user_is_a_typed_error_not_a_degradation() {
    let _serial = fault_lock();
    let service = CtxPrefService::new(study_db(1, 8), ServiceConfig::default());
    let s = state(&service, &["Plaka", "warm", "friends"]);
    match service.query_state("ghost", &s) {
        Err(ServiceError::Core(e)) => assert!(e.to_string().contains("ghost")),
        other => panic!("expected Core(NoSuchUser), got {other:?}"),
    }
    assert_eq!(service.stats().errors, 1);
}

#[test]
fn primary_failure_degrades_to_nearest_state() {
    let _serial = fault_lock();
    let service = CtxPrefService::new(study_db(1, 8), ServiceConfig::default());
    let s = state(&service, &["Plaka", "warm", "friends"]);
    let plan = FaultPlan::builder(3)
        .fail("service.query.primary", 1.0)
        .build();
    let answer = plan.run(|| service.query_state("user0", &s).unwrap());
    assert_eq!(answer.step, LadderStep::NearestState);
    assert!(answer.is_degraded());
    assert_eq!(answer.fallbacks.len(), 1);
    assert_eq!(answer.fallbacks[0].step, LadderStep::Exact);
    let resolved = answer.resolved_state.expect("lifted state recorded");
    assert_ne!(&resolved, &s);
    assert_eq!(service.stats().served_nearest, 1);
}

#[test]
fn total_failure_degrades_to_default_answer() {
    let _serial = fault_lock();
    let service = CtxPrefService::new(study_db(1, 8), ServiceConfig::default());
    let s = state(&service, &["Plaka", "warm", "friends"]);
    let plan = FaultPlan::builder(4)
        .fail("service.query.primary", 1.0)
        .fail("service.query.nearest", 1.0)
        .build();
    let answer = plan.run(|| service.query_state("user0", &s).unwrap());
    assert_eq!(answer.step, LadderStep::DefaultAnswer);
    // Ladder trace: one exact failure plus one per lifted state.
    assert!(answer.fallbacks.len() >= 2, "{:?}", answer.fallbacks);
    // The default answer is the whole relation, unranked.
    let n = service.with_db(|db| db.relation().len());
    assert_eq!(answer.answer.results.len(), n);
    assert!(answer
        .answer
        .results
        .entries()
        .iter()
        .all(|e| e.score == 0.0));
}

#[test]
fn injected_panics_are_contained_and_recorded() {
    let _serial = fault_lock();
    let service = CtxPrefService::new(study_db(1, 8), ServiceConfig::default());
    let s = state(&service, &["Plaka", "warm", "friends"]);
    let plan = FaultPlan::builder(5)
        .panic_at("service.query.primary", &[1])
        .build();
    let answer = plan.run(|| service.query_state("user0", &s).unwrap());
    assert_eq!(answer.step, LadderStep::NearestState);
    assert!(
        answer.fallbacks[0].reason.starts_with("panic:"),
        "{}",
        answer.fallbacks[0].reason
    );
    assert_eq!(service.stats().panics_contained, 1);
    // The service keeps serving normally afterwards.
    let healthy = service.query_state("user0", &s).unwrap();
    assert!(!healthy.is_degraded());
}

#[test]
fn deadlines_are_enforced_under_injected_delay() {
    let _serial = fault_lock();
    let service = CtxPrefService::new(study_db(1, 8), ServiceConfig::default());
    let s = state(&service, &["Plaka", "warm", "friends"]);
    let plan = FaultPlan::builder(6)
        .delay("service.query.primary", 1.0, Duration::from_millis(200))
        .build();
    let deadline = Duration::from_millis(20);
    let started = Instant::now();
    let result = plan.run(|| service.query_state_deadline("user0", &s, deadline));
    let elapsed = started.elapsed();
    match result {
        Err(ServiceError::DeadlineExceeded { deadline: d }) => assert_eq!(d, deadline),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_millis(150),
        "returned in {elapsed:?}, well before the delay"
    );
    assert_eq!(service.stats().deadline_exceeded, 1);
}

#[test]
fn admission_control_sheds_excess_load() {
    let _serial = fault_lock();
    let cfg = ServiceConfig {
        workers: 1,
        max_in_flight: 1,
        default_deadline: Duration::from_millis(300),
        ..ServiceConfig::default()
    };
    let service = CtxPrefService::new(study_db(1, 8), cfg);
    let s = state(&service, &["Plaka", "warm", "friends"]);
    let plan = FaultPlan::builder(8)
        .delay("service.query.primary", 1.0, Duration::from_millis(100))
        .build();
    plan.run(|| {
        std::thread::scope(|scope| {
            let slow = scope.spawn(|| service.query_state("user0", &s));
            // Let the slow request occupy the only slot.
            std::thread::sleep(Duration::from_millis(20));
            match service.query_state("user0", &s) {
                Err(ServiceError::Overloaded { limit, .. }) => assert_eq!(limit, 1),
                other => panic!("expected Overloaded, got {other:?}"),
            }
            assert!(slow.join().unwrap().is_ok());
        });
    });
    assert_eq!(service.stats().shed, 1);
    // The worker frees the in-flight slot just after replying; give it
    // a moment to drain.
    for _ in 0..200 {
        if service.in_flight() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(service.in_flight(), 0);
}

#[test]
fn storage_retry_recovers_from_transient_faults() {
    let _serial = fault_lock();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ctxpref-service-retry-{}.db", std::process::id()));
    let service = CtxPrefService::new(study_db(2, 8), ServiceConfig::default());
    // First two write attempts fail; the third (default max_attempts=3)
    // succeeds.
    let plan = FaultPlan::builder(9)
        .fail_at("storage.save.open", &[1, 2])
        .build();
    plan.run(|| service.save(&path).unwrap());
    assert_eq!(service.stats().storage_retries, 2);

    // Reopen through the service (also with a transient read fault).
    let plan = FaultPlan::builder(10)
        .fail_at("storage.load.open", &[1])
        .build();
    let reopened = plan
        .run(|| CtxPrefService::open(&path, ServiceConfig::default()))
        .unwrap();
    assert_eq!(reopened.with_db(|db| db.user_count()), 2);
    assert_eq!(reopened.stats().storage_retries, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_files_are_not_retried() {
    let _serial = fault_lock();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ctxpref-service-corrupt-{}.db", std::process::id()));
    let service = CtxPrefService::new(study_db(1, 8), ServiceConfig::default());
    service.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let target = bytes.len() - 5;
    bytes[target] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    match CtxPrefService::open(&path, ServiceConfig::default()) {
        Err(ServiceError::Storage(e)) => {
            assert!(e.to_string().contains("corrupt"), "{e}")
        }
        other => panic!("expected Storage(Corrupt), got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mutations_flow_through_the_service() {
    let _serial = fault_lock();
    let service = CtxPrefService::new(study_db(1, 8), ServiceConfig::default());
    service.add_user("zoe").unwrap();
    let (pref, s) = service.with_db(|db| {
        let pref = db.profile("user0").unwrap().preferences()[0].clone();
        let s = ContextState::all(db.env());
        (pref, s)
    });
    service.insert_preference("zoe", pref).unwrap();
    assert_eq!(service.with_db(|db| db.profile("zoe").unwrap().len()), 1);
    service.update_preference_score("zoe", 0, 0.33).unwrap();
    assert_eq!(
        service.with_db(|db| db.profile("zoe").unwrap().preferences()[0].score()),
        0.33
    );
    let removed = service.remove_preference("zoe", 0).unwrap();
    assert_eq!(removed.score(), 0.33);
    assert_eq!(service.with_db(|db| db.profile("zoe").unwrap().len()), 0);
    let _ = service.query_state("zoe", &s).unwrap();
    let profile = service.remove_user("zoe").unwrap();
    assert!(profile.is_empty());

    let db = service.shutdown();
    assert_eq!(db.user_count(), 1);
}

#[test]
fn edits_that_never_wait_hand_back_what_they_cannot_apply_now() {
    let _serial = fault_lock();
    let service = CtxPrefService::new(study_db(1, 8), ServiceConfig::default());
    let scores = || {
        service.with_db(|db| {
            let profile = db.profile("user0").unwrap();
            profile
                .preferences()
                .iter()
                .map(|p| p.score())
                .collect::<Vec<_>>()
        })
    };
    // A free stripe on the direct path: applied now, answered as the
    // blocking verb answers.
    assert!(matches!(
        service.try_update_preference_score("user0", 0, 0.5),
        Some(Ok(()))
    ));
    let removed = service.try_remove_preference("user0", 0).unwrap().unwrap();
    assert_eq!(removed.score(), 0.5);
    assert!(matches!(
        service.try_remove_preference("ghost", 0),
        Some(Err(ServiceError::Core(_)))
    ));
    let before = scores();

    // A stripe someone is reading, or an installed fault plan: handed
    // back, and nothing applied.
    service.with_db(|db| {
        let _reading = db.read_user_shard("user0");
        assert!(service
            .try_update_preference_score("user0", 0, 0.4)
            .is_none());
        assert!(service
            .try_insert_preference_eq("user0", "location = Plaka", "type", "zoo", 0.3)
            .is_none());
    });
    FaultPlan::builder(5).build().run(|| {
        assert!(service.try_remove_preference("user0", 0).is_none());
    });
    assert_eq!(scores(), before);
}

#[test]
fn shutdown_rejects_new_requests() {
    let _serial = fault_lock();
    let service = CtxPrefService::new(study_db(1, 8), ServiceConfig::default());
    let s = state(&service, &["Plaka", "warm", "friends"]);
    let db = service.shutdown();
    assert_eq!(db.user_count(), 1);
    // A fresh service over the returned database still works.
    let service = CtxPrefService::new(db, ServiceConfig::default());
    assert!(service.query_state("user0", &s).is_ok());
}
