//! End-to-end durability through the service API: mutate a durable
//! service, kill it without a checkpoint, recover, and find every
//! acknowledged write — plus the `NotDurable` contract on plain
//! services and the background maintenance threads.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ctxpref_core::MultiUserDb;
use ctxpref_service::{CtxPrefService, DurabilityConfig, ServiceConfig, ServiceError, SyncPolicy};
use ctxpref_testkit::TempDir;
use ctxpref_workload::reference::{poi_env, poi_relation};

fn study_db() -> MultiUserDb {
    let env = poi_env();
    let rel = poi_relation(&env, 7, 3);
    MultiUserDb::new(env, rel, 8)
}

fn small_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        shards: 4,
        ..ServiceConfig::default()
    }
}

/// Manual checkpointing only: the background checkpointer would make
/// the WAL/checkpoint split nondeterministic.
fn manual_dcfg(dir: &std::path::Path) -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_interval: None,
        ..DurabilityConfig::new(dir)
    }
}

/// A logged service's answer to a per-node verb: node 0's, alone.
fn node0<T>(mut nodes: Vec<(usize, T)>) -> T {
    assert_eq!(nodes.len(), 1, "a logged service has one node");
    let (id, answer) = nodes.remove(0);
    assert_eq!(id, 0, "a logged service is node 0");
    answer
}

#[test]
fn durable_service_survives_a_kill_without_checkpoint() {
    let tmp = TempDir::new("kill");
    let service = CtxPrefService::new_durable(study_db(), small_cfg(), manual_dcfg(tmp.path()))
        .expect("creating the durable service");
    assert!(service.is_durable());

    service.add_user("alice").unwrap();
    service
        .insert_preference_eq(
            "alice",
            "accompanying_people = friends",
            "type",
            "museum".into(),
            0.8,
        )
        .unwrap();
    service.add_user("bob").unwrap();
    service
        .insert_preference_eq(
            "bob",
            "accompanying_people = alone",
            "type",
            "cinema".into(),
            0.5,
        )
        .unwrap();
    service.update_preference_score("alice", 0, 0.3).unwrap();
    let removed = service.remove_preference("bob", 0).unwrap();
    assert_eq!(removed.score(), 0.5);

    let stats = service.stats();
    assert_eq!(stats.wal.appends, 6, "six mutations, six log records");
    assert_eq!(stats.recovered_lsn, 0, "fresh directory: nothing recovered");
    let status = node0(service.wal_status().unwrap());
    assert_eq!(status.totals.appends, 6);
    drop(service); // Kill: no checkpoint was ever taken.

    let (recovered, report) = CtxPrefService::recover(small_cfg(), manual_dcfg(tmp.path()))
        .expect("recovering the service");
    assert_eq!(
        report.generation, 0,
        "recovered from the bootstrap checkpoint"
    );
    assert_eq!(report.replayed, 6);
    assert_eq!(recovered.stats().recovered_lsn, 6);
    let (users, alice_score, bob_prefs) = recovered.with_db(|db| {
        let snap = db.snapshot();
        (
            db.users_sorted(),
            snap.profile("alice").unwrap().preferences()[0].score(),
            snap.profile("bob").unwrap().preferences().len(),
        )
    });
    assert_eq!(users, vec!["alice".to_string(), "bob".to_string()]);
    assert_eq!(alice_score, 0.3, "replayed re-score");
    assert_eq!(bob_prefs, 0, "replayed removal");

    // The recovered service keeps logging: a write after recovery is a
    // fresh append on top of the recovered positions.
    recovered.add_user("carol").unwrap();
    assert_eq!(
        recovered.stats().wal.appends,
        1,
        "appends count since this start"
    );
}

#[test]
fn manual_checkpoint_truncates_replay() {
    let tmp = TempDir::new("ckpt");
    let service = CtxPrefService::new_durable(study_db(), small_cfg(), manual_dcfg(tmp.path()))
        .expect("creating the durable service");
    service.add_user("alice").unwrap();
    service.add_user("bob").unwrap();
    let report = node0(service.checkpoint().unwrap());
    assert_eq!(report.generation, 1);
    assert_eq!(service.stats().checkpoints, 1);
    service.add_user("carol").unwrap();
    drop(service);

    let (recovered, report) =
        CtxPrefService::recover(small_cfg(), manual_dcfg(tmp.path())).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.replayed, 1, "only the post-checkpoint write replays");
    assert!(recovered
        .with_db(|db| db.users_sorted())
        .contains(&"carol".to_string()));
}

#[test]
fn group_commit_flush_is_reported() {
    let tmp = TempDir::new("group");
    let dcfg = manual_dcfg(tmp.path()).group_commit(Duration::from_secs(3600));
    // An interval this long never fires during the test: the only
    // flushes are the explicit ones, so the counts are deterministic.
    let service = CtxPrefService::new_durable(study_db(), small_cfg(), dcfg).unwrap();
    service.add_user("alice").unwrap();
    service.add_user("bob").unwrap();
    assert_eq!(
        node0(service.flush_wal().unwrap()),
        2,
        "both pending records flushed"
    );
    assert_eq!(
        node0(service.flush_wal().unwrap()),
        0,
        "nothing left to flush"
    );
    assert!(service.stats().wal.batches >= 1);
}

#[test]
fn background_checkpointer_runs() {
    let tmp = TempDir::new("bg");
    let dcfg = DurabilityConfig {
        checkpoint_interval: Some(Duration::from_millis(10)),
        ..DurabilityConfig::new(tmp.path())
    };
    let service = CtxPrefService::new_durable(study_db(), small_cfg(), dcfg).unwrap();
    service.add_user("alice").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().checkpoints == 0 {
        assert!(
            Instant::now() < deadline,
            "background checkpointer never ran"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(service); // Joins the checkpointer; must not hang or panic.

    let (_, report) = CtxPrefService::recover(small_cfg(), manual_dcfg(tmp.path())).unwrap();
    assert!(
        report.generation >= 1,
        "background checkpoint not published"
    );
}

#[test]
fn plain_service_rejects_durability_operations() {
    let service = CtxPrefService::new(study_db(), small_cfg());
    assert!(!service.is_durable());
    assert!(matches!(
        service.checkpoint(),
        Err(ServiceError::NotDurable)
    ));
    assert!(matches!(service.flush_wal(), Err(ServiceError::NotDurable)));
    assert!(matches!(
        service.wal_status(),
        Err(ServiceError::NotDurable)
    ));
    assert_eq!(service.stats().wal.appends, 0);
}

#[test]
fn durable_shutdown_returns_the_database() {
    let tmp = TempDir::new("shutdown");
    let service =
        CtxPrefService::new_durable(study_db(), small_cfg(), manual_dcfg(tmp.path())).unwrap();
    service.add_user("alice").unwrap();
    // shutdown() must reclaim the core even though the durable layer
    // held a reference to it until stop().
    let db = service.shutdown();
    assert!(db.users().any(|u| u == "alice"));
}

#[test]
fn sync_policy_is_observable_in_acks() {
    // Per-record: the WAL syncs inside every append, so a clean kill
    // right after the last mutation loses nothing even without the
    // stop()-time flush.
    let tmp = TempDir::new("policy");
    let dcfg = DurabilityConfig {
        sync: SyncPolicy::PerRecord,
        ..manual_dcfg(tmp.path())
    };
    let service = CtxPrefService::new_durable(study_db(), small_cfg(), dcfg).unwrap();
    service.add_user("alice").unwrap();
    let status = node0(service.wal_status().unwrap());
    assert!(
        status.shards.iter().all(|s| s.pending == 0),
        "per-record leaves nothing pending"
    );
}

/// A shard directory holding at least two segments, and the path of
/// its lowest-numbered (sealed) segment.
fn a_sealed_segment(dir: &std::path::Path) -> PathBuf {
    for entry in std::fs::read_dir(dir).unwrap() {
        let shard_dir = entry.unwrap().path();
        if !shard_dir.is_dir()
            || !shard_dir
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("shard-"))
        {
            continue;
        }
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&shard_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "wal"))
            .collect();
        if segs.len() >= 2 {
            // Zero-padded names: lexicographic min == oldest == sealed.
            segs.sort();
            return segs.remove(0);
        }
    }
    panic!("no shard sealed a segment; grow the workload");
}

#[test]
fn manual_scrub_quarantines_and_heals_through_the_service() {
    let tmp = TempDir::new("scrub");
    let dcfg = DurabilityConfig {
        segment_max_bytes: 256, // Seal segments quickly.
        scrub_interval: None,
        ..manual_dcfg(tmp.path())
    };
    let service = CtxPrefService::new_durable(study_db(), small_cfg(), dcfg).unwrap();
    for i in 0..40 {
        let user = format!("user-{i:03}");
        service.add_user(&user).unwrap();
        service
            .insert_preference_eq(
                &user,
                "accompanying_people = friends",
                "type",
                "museum".into(),
                0.8,
            )
            .unwrap();
    }

    let clean = service.scrub().unwrap();
    assert!(!clean.found_damage(), "fresh log must scrub clean");
    assert!(clean.segments_verified > 0, "workload sealed no segments");
    let status = service.scrub_status().unwrap();
    assert_eq!((status.passes, status.quarantined, status.heals), (1, 0, 0));

    // Rot one sealed segment at rest, past its 24-byte header.
    let victim = a_sealed_segment(tmp.path());
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[30] ^= 0x40;
    std::fs::write(&victim, bytes).unwrap();

    let report = service.scrub().unwrap();
    assert_eq!(
        report.quarantined.len(),
        1,
        "one rotten segment: {report:?}"
    );
    assert!(report.healed, "scrub must checkpoint over the loss");
    assert!(!victim.exists(), "quarantine moves the file aside");
    let status = service.scrub_status().unwrap();
    assert_eq!((status.passes, status.quarantined, status.heals), (2, 1, 1));
    let stats = service.stats();
    assert_eq!((stats.scrub_passes, stats.scrub_quarantined), (2, 1));

    // The healed service still serves, and so does its next recovery.
    assert!(service.with_db(|db| db.users_sorted().len()) == 40);
    drop(service);
    let (recovered, report) =
        CtxPrefService::recover(small_cfg(), manual_dcfg(tmp.path())).expect("healed dir recovers");
    assert_eq!(report.rescued_shards, 0, "heal made quarantine moot");
    assert_eq!(recovered.with_db(|db| db.users_sorted().len()), 40);
}

#[test]
fn background_scrubber_runs_and_stays_quiet_on_a_clean_db() {
    let tmp = TempDir::new("bg-scrub");
    let dcfg = DurabilityConfig {
        checkpoint_interval: None,
        scrub_interval: Some(Duration::from_millis(10)),
        ..DurabilityConfig::new(tmp.path())
    };
    let service = CtxPrefService::new_durable(study_db(), small_cfg(), dcfg).unwrap();
    service.add_user("alice").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().scrub_passes < 2 {
        assert!(Instant::now() < deadline, "background scrubber never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = service.stats();
    assert_eq!(stats.scrub_quarantined, 0, "clean db: nothing quarantined");
    assert_eq!(stats.scrub_heals, 0, "clean db: nothing to heal");
    drop(service); // Joins the scrubber; must not hang or panic.
}

#[test]
fn plain_service_rejects_scrub_operations() {
    let service = CtxPrefService::new(study_db(), small_cfg());
    assert!(matches!(service.scrub(), Err(ServiceError::NotDurable)));
    assert!(matches!(
        service.scrub_status(),
        Err(ServiceError::NotDurable)
    ));
}
