//! The crash-recovery fuzz matrix plus end-to-end durability tests.
//!
//! The fuzz walks every registered durability fault site (WAL append
//! write/sync, rotation, manifest swap, and the checkpoint's
//! `storage.save.*` path) for a fixed matrix of seeds: even seeds run
//! per-record fsync, odd seeds group commit, and every other
//! group-commit seed also loses the unsynced page-cache tail (a power
//! cut, not just a process kill). Any violation aborts with the
//! reproducing seed and site in the panic message.
//!
//! Override the matrix with `CTXPREF_FUZZ_SEEDS=start..end` (e.g.
//! `CTXPREF_FUZZ_SEEDS=7..8` to replay one seed).

pub mod harness;

use std::time::Duration;

use ctxpref_core::{MultiUserDb, ShardedMultiUserDb};
use ctxpref_testkit::{seeds, TempDir};
use ctxpref_wal::{DurableDb, SyncPolicy, WalOptions};
use ctxpref_workload::reference::{poi_env, poi_relation};
use ctxpref_workload::user_study::{all_demographics, default_profile};
use harness::{run_seed, FuzzConfig};

fn study_db(users: usize) -> ShardedMultiUserDb {
    let env = poi_env();
    let rel = poi_relation(&env, 7, 4);
    let mut db = MultiUserDb::new(env.clone(), rel, 8);
    for (i, demo) in all_demographics().into_iter().take(users).enumerate() {
        let profile = default_profile(&env, db.relation(), demo);
        db.add_user_with_profile(&format!("user{i}"), profile)
            .unwrap();
    }
    ShardedMultiUserDb::from_db(db, 4)
}

#[test]
fn durable_round_trip_with_checkpoint_and_replay() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("roundtrip");
    let db = std::sync::Arc::new(study_db(3));
    let durable = DurableDb::create(tmp.path(), db, WalOptions::default()).unwrap();

    // Mutations before the checkpoint land in the snapshot…
    durable.add_user("walter").unwrap();
    let pref = {
        let db = durable.db();
        let attr = db.relation().schema().require_attr("name").unwrap();
        ctxpref_profile::ContextualPreference::new(
            ctxpref_context::ContextDescriptor::empty(),
            ctxpref_profile::AttributeClause::eq(attr, "poi0".into()),
            0.9,
        )
        .unwrap()
    };
    durable.insert_preference("walter", pref.clone()).unwrap();
    let ckpt = durable.checkpoint().unwrap();
    assert_eq!(ckpt.generation, 1);

    // …and mutations after it must come back via replay.
    durable.add_user("wendy").unwrap();
    durable.insert_preference("wendy", pref).unwrap();
    durable.update_preference_score("walter", 0, 0.4).unwrap();
    let status = durable.wal_status();
    assert!(
        status.totals.appends >= 5,
        "appends: {}",
        status.totals.appends
    );
    drop(durable); // Crash: no flush, no checkpoint.

    let (recovered, report) = DurableDb::recover(tmp.path(), WalOptions::default()).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.replayed, 3);
    assert_eq!(report.rejected, 0);
    let db = recovered.db();
    assert!(db.users_sorted().contains(&"wendy".to_string()));
    let snap = db.snapshot();
    assert_eq!(
        snap.profile("walter").unwrap().preferences()[0].score(),
        0.4
    );
}

#[test]
fn checkpoint_garbage_collects_old_generations() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("gc");
    let db = std::sync::Arc::new(study_db(2));
    let durable = DurableDb::create(tmp.path(), db, WalOptions::default()).unwrap();
    for i in 0..3 {
        durable.add_user(&format!("extra{i}")).unwrap();
        durable.checkpoint().unwrap();
    }
    let files: Vec<String> = std::fs::read_dir(tmp.path())
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("checkpoint-"))
        .collect();
    assert_eq!(
        files,
        vec!["checkpoint-3.db".to_string()],
        "old generations not collected"
    );
    // Old segments are gone too: each shard keeps only its live tail.
    for shard in 0..durable.db().num_shards() {
        let manifest = durable.manifest();
        let segs: Vec<_> = std::fs::read_dir(tmp.path().join(format!("shard-{shard}")))
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .collect();
        for seg in &segs {
            let n: u64 = seg
                .strip_prefix("seg-")
                .unwrap()
                .strip_suffix(".wal")
                .unwrap()
                .parse()
                .unwrap();
            assert!(
                n >= manifest.shards[shard].first_live_segment,
                "stale segment {seg} on shard {shard}"
            );
        }
    }
}

#[test]
fn group_commit_recovery_after_power_cut_keeps_flushed_prefix() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("power-cut");
    let opts = WalOptions {
        sync: SyncPolicy::GroupCommit {
            flush_interval: Duration::from_millis(5),
        },
        ..WalOptions::default()
    };
    let db = std::sync::Arc::new(study_db(1));
    let durable = DurableDb::create(tmp.path(), db, opts).unwrap();
    durable.add_user("kept").unwrap();
    durable.flush().unwrap();
    let ack = durable.add_user("lost").unwrap();
    assert!(
        !ack.durable,
        "group-commit acks are not durable until flushed"
    );
    durable.drop_unsynced_tails().unwrap(); // The power cut.
    drop(durable);

    let (recovered, _) = DurableDb::recover(tmp.path(), opts).unwrap();
    let users = recovered.db().users_sorted();
    assert!(users.contains(&"kept".to_string()));
    assert!(
        !users.contains(&"lost".to_string()),
        "unflushed, unacked-durable write surfaced"
    );
}

#[test]
fn crash_recovery_fuzz_matrix() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("fuzz");
    let mut sites_covered = std::collections::BTreeSet::new();
    let mut total_replayed = 0;
    for seed in seeds(0..32) {
        let cfg = FuzzConfig::for_seed(seed);
        match run_seed(&tmp.path().join(format!("seed-{seed}")), &cfg) {
            Ok(report) => {
                assert!(
                    report.sites_missed.is_empty(),
                    "seed={seed}: workload never reached sites {:?} — \
                     grow the workload so every site is crash-tested",
                    report.sites_missed
                );
                sites_covered.extend(report.sites_tested);
                total_replayed += report.total_replayed;
            }
            Err(violation) => panic!(
                "DURABILITY VIOLATION (reproduce with CTXPREF_FUZZ_SEEDS={seed}..{}):\n{violation}",
                seed + 1
            ),
        }
    }
    assert_eq!(
        sites_covered.len(),
        ctxpref_faults::sites::DURABILITY_SITES.len(),
        "site coverage drifted: {sites_covered:?}"
    );
    assert!(total_replayed > 0, "the fuzz never exercised replay");
}
