//! The service's timing on a manual clock: the background checkpointer
//! beats on its interval and a request deadline expires when the
//! clock's time passes it, never the wall's, and a service stops with
//! its clock standing still. No verdict here waits on real time.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use ctxpref_context::ContextState;
use ctxpref_core::MultiUserDb;
use ctxpref_faults::{clock, exclusive, install, sites, FaultPlan};
use ctxpref_service::{CtxPrefService, DurabilityConfig, ServiceConfig, ServiceError};
use ctxpref_testkit::TempDir;
use ctxpref_workload::reference::{poi_env, poi_relation};
use ctxpref_workload::user_study::{all_demographics, default_profile};

fn study_db() -> MultiUserDb {
    let env = poi_env();
    let rel = poi_relation(&env, 7, 3);
    let mut db = MultiUserDb::new(env.clone(), rel, 8);
    let demo = all_demographics()
        .into_iter()
        .next()
        .expect("a demographic");
    let profile = default_profile(&env, db.relation(), demo);
    db.add_user_with_profile("user0", profile).unwrap();
    db
}

fn one_worker() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        shards: 4,
        ..ServiceConfig::default()
    }
}

/// Runs the manual clock out when a test fails while threads still wait
/// on it, so that they finish and the scope and the service can end.
struct RunOut<'a>(&'a FaultPlan);

impl Drop for RunOut<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.advance(Duration::from_secs(3_600));
        }
    }
}

#[test]
fn the_checkpointer_beats_once_its_interval_of_manual_time_has_passed() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(1).manual_clock().build();
    let _installed = install(Arc::clone(&plan));
    let tmp = TempDir::new("manual-checkpointer");
    let dcfg = DurabilityConfig {
        checkpoint_interval: Some(Duration::from_secs(60)),
        ..DurabilityConfig::new(tmp.path()).scrub_every(None)
    };
    let service = CtxPrefService::new_durable(study_db(), one_worker(), dcfg).unwrap();
    service.add_user("alice").unwrap();

    // The checkpointer is the clock's one waiter.
    plan.settle(1);
    plan.advance(Duration::from_secs(59));
    assert_eq!(service.stats().checkpoints, 0, "a beat 1 s early");
    plan.advance(Duration::from_secs(1));
    // It left its wait; once it waits again, its beat is done.
    plan.settle(1);
    assert_eq!(service.stats().checkpoints, 1);
    drop(service);

    let recover = DurabilityConfig {
        checkpoint_interval: None,
        ..DurabilityConfig::new(tmp.path()).scrub_every(None)
    };
    let (_, report) = CtxPrefService::recover(one_worker(), recover).unwrap();
    assert_eq!(report.generation, 1, "node 0's checkpoint generation");
}

#[test]
fn a_read_queued_behind_a_stalled_worker_misses_its_deadline_on_manual_time() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(2)
        .manual_clock()
        .delay_at(sites::SVC_WORKER_DEQUEUE, &[1], Duration::from_secs(1))
        .build();
    let _installed = install(Arc::clone(&plan));
    let service = CtxPrefService::new(study_db(), one_worker());
    let s = service
        .with_db(|db| ContextState::parse(db.env(), &["Plaka", "warm", "friends"]))
        .unwrap();
    let read =
        |deadline_ms| service.query_state_deadline("user0", &s, Duration::from_millis(deadline_ms));

    std::thread::scope(|scope| {
        let _run_out = RunOut(&plan);
        // The first read takes the only worker, which stalls 1 s on
        // the dequeue site; its caller waits too.
        let first = scope.spawn(|| read(10_000));
        plan.settle(2);
        let queued = scope.spawn(|| read(250));
        plan.settle(3);

        plan.advance(Duration::from_millis(249));
        assert!(!queued.is_finished(), "answered before its deadline");
        assert_eq!(service.stats().deadline_exceeded, 0);
        plan.advance(Duration::from_millis(1));
        match queued.join().unwrap() {
            Err(ServiceError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(service.stats().deadline_exceeded, 1);

        // The stall ends: the first read is answered, and the worker
        // drops the queued one unexecuted.
        plan.advance(Duration::from_secs(1));
        assert!(first.join().unwrap().is_ok());
    });
    // The worker takes jobs in order: once a later read is answered,
    // the dropped one is accounted for.
    assert!(read(10_000).is_ok());
    let stats = service.stats();
    assert_eq!(
        stats.deadline_exceeded, 1,
        "one miss, counted once: {stats:?}"
    );
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(
        stats.shed_expired + stats.deadline_after_lock,
        0,
        "{stats:?}"
    );
}

#[test]
fn a_service_stops_with_its_manual_clock_standing_still() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(3).manual_clock().build();
    let _installed = install(Arc::clone(&plan));
    let tmp = TempDir::new("manual-stop");
    // A checkpointer, a scrubber and a group-commit flusher.
    let dcfg = DurabilityConfig::new(tmp.path()).group_commit(Duration::from_secs(3_600));
    let service = CtxPrefService::new_durable(study_db(), one_worker(), dcfg).unwrap();
    plan.settle(3);
    let start = clock::now();

    let (stopped, joined) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        drop(service);
        let _ = stopped.send(());
    });
    // A watchdog in real time: only a hang fails here.
    joined
        .recv_timeout(Duration::from_secs(60))
        .expect("the service stopped without the clock moving");
    stopper.join().expect("the service stopped cleanly");
    assert_eq!(
        plan.clock_waiters(),
        0,
        "an upkeep thread outlived the service"
    );
    assert_eq!(clock::now(), start);
}
