//! Functional tests of the serving layer: ladder rungs, deadlines,
//! admission control, retries — each failure mode driven by a seeded
//! fault plan.
//!
//! A fault plan is process-global, so one installed by a test would hit
//! the workers of any test running beside it: every test takes
//! `ctxpref_faults::exclusive()`, including those that install no plan
//! but expect an undegraded answer.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::{MultiUserDb, QueryAnswer};
use ctxpref_faults::FaultPlan;
use ctxpref_relation::RankedResults;
use ctxpref_service::{
    CtxPrefService, Edit, LadderStep, Priority, ServiceAnswer, ServiceConfig, ServiceError,
    TryRead, ViewHit,
};
use ctxpref_wal::WalError;
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

#[test]
fn healthy_path_cached_and_exact() {
    let _serial = ctxpref_faults::exclusive();
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
    let _serial = ctxpref_faults::exclusive();
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
    let _serial = ctxpref_faults::exclusive();
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
    let _serial = ctxpref_faults::exclusive();
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
    let _serial = ctxpref_faults::exclusive();
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
    let _serial = ctxpref_faults::exclusive();
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
    let _serial = ctxpref_faults::exclusive();
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
    let _serial = ctxpref_faults::exclusive();
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
    let _serial = ctxpref_faults::exclusive();
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
fn v1_text_files_are_refused_by_version_without_retry() {
    let _serial = ctxpref_faults::exclusive();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ctxpref-service-v1-{}.db", std::process::id()));
    std::fs::write(
        &path,
        "ctxpref v1\nchecksum 0123456789abcdef\nhierarchy w\n",
    )
    .unwrap();
    // An empty plan injects nothing and counts every pass of a site.
    let plan = FaultPlan::builder(1).build();
    match plan.run(|| CtxPrefService::open(&path, ServiceConfig::default())) {
        Err(ServiceError::Storage(WalError::Version { found, .. })) => {
            assert_eq!(found, "ctxpref v1")
        }
        other => panic!("expected Storage(Version), got {:?}", other.map(|_| ())),
    }
    assert_eq!(plan.hit_count("storage.load.open"), 1, "loaded once");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mutations_flow_through_the_service() {
    let _serial = ctxpref_faults::exclusive();
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
    let _serial = ctxpref_faults::exclusive();
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
    let rescore = |score| Edit::Rescore { index: 0, score };
    const REMOVE: Edit = Edit::Remove { index: 0 };
    // A free stripe on the direct path: applied now, answered as the
    // blocking verb answers.
    assert!(matches!(
        service
            .try_edit("user0", rescore(0.5))
            .map(|done| done.map(drop)),
        Some(Ok(()))
    ));
    let removed = service.try_edit("user0", REMOVE).unwrap().unwrap().unwrap();
    assert_eq!(removed.score(), 0.5);
    assert!(matches!(
        service.try_edit("ghost", REMOVE),
        Some(Err(ServiceError::Core(_)))
    ));
    let before = scores();

    // A stripe someone is reading, or an installed fault plan: handed
    // back, and nothing applied.
    service.with_db(|db| {
        let _reading = db.read_user_shard("user0");
        assert!(service.try_edit("user0", rescore(0.4)).is_none());
        assert!(service
            .try_edit(
                "user0",
                Edit::Insert {
                    descriptor: "location = Plaka",
                    attr: "type",
                    value: "zoo",
                    score: 0.3
                }
            )
            .is_none());
    });
    FaultPlan::builder(5).build().run(|| {
        assert!(service.try_edit("user0", REMOVE).is_none());
    });
    assert_eq!(scores(), before);
}

#[test]
fn a_batch_of_one_users_edits_stops_at_the_first_failure() {
    let service = CtxPrefService::new(study_db(1, 8), ServiceConfig::default());
    let profile = || service.with_db(|db| db.profile("user0").unwrap());
    let (before, second) = (profile().len(), profile().preferences()[1].clone());
    let edits = [
        Edit::Rescore {
            index: 0,
            score: 0.25,
        },
        Edit::Remove { index: 0 },
        Edit::Remove { index: before },
        Edit::Rescore {
            index: 0,
            score: 0.5,
        },
    ];
    let mut landed = Vec::new();
    let failed = service.edit_batch("user0", edits, |removed| {
        landed.push(removed.map(|p| p.score()));
    });
    // The prefix that landed, in order, with what the removal took out;
    // the out-of-range removal stops the batch before the last edit.
    assert!(matches!(failed, Err(ServiceError::Core(_))), "{failed:?}");
    assert_eq!(landed, [None, Some(0.25)]);
    let after = profile();
    assert_eq!(after.len(), before - 1);
    assert_eq!(
        after.preferences()[0],
        second,
        "the edit after the failure ran"
    );
}

/// `try_read_with` with a fresh interactive ticket and a 2 s deadline,
/// a view hit answered as an owned answer: the answer, or `None` if it
/// handed the ticket back.
fn try_read(
    service: &CtxPrefService,
    user: &str,
    s: &ContextState,
    topk: Option<usize>,
) -> Option<Result<ServiceAnswer, ServiceError>> {
    let ticket = service.admit(Priority::Interactive).unwrap();
    let owned = |hit: ViewHit<'_>| ServiceAnswer {
        answer: QueryAnswer {
            results: Arc::new(RankedResults::from_sorted(hit.rows.to_vec())),
            resolutions: Vec::new(),
            from_cache: false,
        },
        step: LadderStep::View,
        fallbacks: Vec::new(),
        resolved_state: None,
        elapsed: hit.elapsed,
    };
    match service.try_read_with(ticket, user, s, topk, Duration::from_secs(2), owned) {
        TryRead::View(answer) => Some(Ok(answer)),
        TryRead::Ran(result) => Some(result),
        TryRead::Queue(_) => None,
    }
}

#[test]
fn a_read_that_never_waits_answers_as_a_worker_would() {
    let _serial = ctxpref_faults::exclusive();
    let now = CtxPrefService::new(study_db(2, 8), ServiceConfig::default());
    let queued = CtxPrefService::new(study_db(2, 8), ServiceConfig::default());
    let s = state(&now, &["Plaka", "warm", "friends"]);
    // The same history on both services: full rankings (exact, then
    // cached) and top-k reads (exact until a view materializes), plus
    // a refusal.
    let reads = [None, None, Some(3), Some(3), Some(3), Some(3)];
    let mut steps = Vec::new();
    for (i, topk) in reads.into_iter().enumerate() {
        let before = now.stats().served_exact;
        let inline = try_read(&now, "user0", &s, topk)
            .expect("nothing queued, nothing held")
            .unwrap();
        let worker = queued
            .query_admitted(
                None,
                Priority::Interactive,
                "user0",
                &s,
                topk,
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(inline.step, worker.step, "read {i}");
        assert_eq!(
            inline.answer.results.entries(),
            worker.answer.results.entries(),
            "read {i}"
        );
        let exact = u64::from(inline.step == LadderStep::Exact);
        assert_eq!(now.stats().served_exact - before, exact, "read {i}");
        assert_eq!(now.in_flight(), 0);
        steps.push(inline.step);
    }
    for step in [LadderStep::Exact, LadderStep::Cached, LadderStep::View] {
        assert!(steps.contains(&step), "{step} never answered: {steps:?}");
    }
    assert!(matches!(
        try_read(&now, "ghost", &s, None),
        Some(Err(ServiceError::Core(_)))
    ));
    assert_eq!(now.in_flight(), 0);
}

#[test]
fn a_read_that_never_waits_hands_back_what_it_cannot_run_now() {
    let _serial = ctxpref_faults::exclusive();
    let cfg = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let service = CtxPrefService::new(study_db(2, 8), cfg);
    let s = state(&service, &["Plaka", "warm", "friends"]);
    let counted = |service: &CtxPrefService| {
        let stats = service.stats();
        (stats.served_exact, stats.served_cached, stats.errors)
    };
    let before = counted(&service);

    // Under an installed fault plan: every read runs on a worker.
    let plan = FaultPlan::builder(11).build();
    assert!(plan.run(|| try_read(&service, "user0", &s, None)).is_none());

    // With the user's stripe held.
    service.with_db(|db| {
        let _held = db.quiesce_user("user0");
        assert!(try_read(&service, "user0", &s, Some(3)).is_none());
    });

    // With a job queued behind the parked worker — but not while the
    // worker is merely busy.
    let (started_tx, started) = mpsc::channel();
    let (release, parked) = mpsc::channel::<()>();
    service
        .spawn(None, move |_| {
            started_tx.send(()).unwrap();
            parked.recv().unwrap();
        })
        .unwrap();
    started.recv().unwrap();
    assert!(try_read(&service, "user1", &s, None).is_some());
    let (ran_tx, ran) = mpsc::channel();
    service
        .spawn(None, move |_| ran_tx.send(()).unwrap())
        .unwrap();
    assert!(try_read(&service, "user0", &s, None).is_none());
    release.send(()).unwrap();
    ran.recv().unwrap();

    // Handed back means unrun: only the busy-worker read counted.
    assert_eq!(counted(&service).0 - before.0, 1);
    assert_eq!(
        (counted(&service).1, counted(&service).2),
        (before.1, before.2)
    );
    assert_eq!(service.in_flight(), 0);
}

#[test]
fn a_current_view_answers_a_read_that_never_waits_behind_a_queued_job() {
    let _serial = ctxpref_faults::exclusive();
    let cfg = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let service = CtxPrefService::new(study_db(1, 8), cfg);
    let s = state(&service, &["Plaka", "warm", "friends"]);
    let warm = (0..8).any(|_| service.query_topk("user0", &s, 3).unwrap().step == LadderStep::View);
    assert!(warm, "no view materialized");

    // The only worker parked, and a job queued behind it.
    let (started_tx, started) = mpsc::channel();
    let (release, parked) = mpsc::channel::<()>();
    service
        .spawn(None, move |_| {
            started_tx.send(()).unwrap();
            parked.recv().unwrap();
        })
        .unwrap();
    started.recv().unwrap();
    let (ran_tx, ran) = mpsc::channel();
    service
        .spawn(None, move |_| ran_tx.send(()).unwrap())
        .unwrap();

    // A top-k read the view holds answers whatever the queue holds; a
    // full ranking waits its turn.
    let hit = try_read(&service, "user0", &s, Some(3)).expect("a view hit needs no worker");
    assert_eq!(hit.unwrap().step, LadderStep::View);
    assert!(try_read(&service, "user0", &s, None).is_none());
    release.send(()).unwrap();
    ran.recv().unwrap();
    assert_eq!(service.in_flight(), 0);
}

#[test]
fn shutdown_rejects_new_requests() {
    let _serial = ctxpref_faults::exclusive();
    let service = CtxPrefService::new(study_db(1, 8), ServiceConfig::default());
    let s = state(&service, &["Plaka", "warm", "friends"]);
    let db = service.shutdown();
    assert_eq!(db.user_count(), 1);
    // A fresh service over the returned database still works.
    let service = CtxPrefService::new(db, ServiceConfig::default());
    assert!(service.query_state("user0", &s).is_ok());
}
