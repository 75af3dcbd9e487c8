//! Disk-fault chaos for the storage layer: ENOSPC windows, read I/O
//! errors, and at-rest corruption (bit flips / truncation of sealed
//! segments), with the background scrubber and quarantine-aware
//! recovery asserting the self-healing invariants:
//!
//! * no panic under any injected disk fault;
//! * a disk-full window sheds writes with a typed retryable error and
//!   writes resume on their own when the window closes;
//! * at-rest damage is quarantined (never silently replayed) and the
//!   healing checkpoint keeps every durably-acked write recoverable;
//! * recovery consults quarantine: a scrub that crashed before its
//!   heal landed still restarts clean.
//!
//! Override the 32-seed matrix with `CTXPREF_FUZZ_SEEDS=a..b`.

use std::sync::Arc;
use std::time::Duration;

use ctxpref_core::{MultiUserDb, ShardedMultiUserDb};
use ctxpref_faults::{at_rest, sites, FaultPlan};
use ctxpref_testkit::{seeds, TempDir};
use ctxpref_wal::segment::SEGMENT_HEADER;
use ctxpref_wal::{DurableDb, SyncPolicy, WalError, WalOptions};
use ctxpref_workload::reference::{poi_env, poi_relation};

fn empty_db(shards: usize) -> Arc<ShardedMultiUserDb> {
    let env = poi_env();
    let rel = poi_relation(&env, 7, 4);
    let db = MultiUserDb::new(env, rel, 8);
    Arc::new(ShardedMultiUserDb::from_db(db, shards))
}

fn small_segments(sync: SyncPolicy) -> WalOptions {
    WalOptions {
        sync,
        // Small segments so a modest workload seals several of them —
        // the scrubber only ever looks at sealed files.
        segment_max_bytes: 256,
    }
}

fn a_pref(db: &ShardedMultiUserDb) -> ctxpref_profile::ContextualPreference {
    let attr = db.relation().schema().require_attr("name").unwrap();
    ctxpref_profile::ContextualPreference::new(
        ctxpref_context::ContextDescriptor::empty(),
        ctxpref_profile::AttributeClause::eq(attr, "poi0".into()),
        0.9,
    )
    .unwrap()
}

/// Sealed segment numbers of `shard` (everything but the append
/// target).
fn sealed_segments(durable: &DurableDb, shard: usize) -> Vec<u64> {
    let status = durable.wal_status();
    let current = status.shards[shard].seg_no;
    let first_live = durable.manifest().shards[shard].first_live_segment;
    ctxpref_wal::segment::list_segments(durable.dir(), shard)
        .unwrap()
        .into_iter()
        .filter(|&s| s >= first_live && s < current)
        .collect()
}

#[test]
fn disk_full_window_sheds_typed_and_resumes() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("enospc");
    let durable = DurableDb::create(tmp.path(), empty_db(2), WalOptions::default()).unwrap();
    durable.add_user("before").unwrap();

    // Appends 2..=4 land inside the full-disk window.
    let plan = FaultPlan::builder(11)
        .fail_between(sites::DISK_FULL, 2, 4)
        .build();
    plan.run(|| {
        durable.add_user("first fits").unwrap();
        for i in 0..3 {
            let err = durable.add_user(&format!("shed{i}")).unwrap_err();
            match err {
                ctxpref_wal::DurableError::Wal(e) => {
                    assert!(e.is_disk_full(), "expected DiskFull, got {e}")
                }
                other => panic!("expected DiskFull, got {other}"),
            }
        }
        // Reads keep serving mid-window.
        assert!(durable.db().users_sorted().contains(&"before".to_string()));
        // The window closed: writes resume with no operator action.
        durable.add_user("after the window").unwrap();
    });

    let users = durable.db().users_sorted();
    assert!(users.contains(&"after the window".to_string()));
    assert!(
        !users.iter().any(|u| u.starts_with("shed")),
        "a shed write must not be applied: {users:?}"
    );
    assert_eq!(durable.wal_totals().disk_full_sheds, 3);

    // Shed writes were never logged: recovery sees none of them.
    drop(durable);
    let (recovered, _) = DurableDb::recover(tmp.path(), WalOptions::default()).unwrap();
    assert!(
        !recovered
            .db()
            .users_sorted()
            .iter()
            .any(|u| u.starts_with("shed")),
        "a shed write surfaced from the log"
    );
}

#[test]
fn scrub_quarantines_bit_rot_and_heals() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("bitrot");
    let durable = DurableDb::create(
        tmp.path(),
        empty_db(2),
        small_segments(SyncPolicy::PerRecord),
    )
    .unwrap();
    let pref = a_pref(durable.db());
    for i in 0..30 {
        durable.add_user(&format!("user{i}")).unwrap();
        durable
            .insert_preference(&format!("user{i}"), pref.clone())
            .unwrap();
    }
    let users_before = durable.db().users_sorted();

    // A clean pass verifies and quarantines nothing.
    let clean = durable.scrub().unwrap();
    assert!(clean.segments_verified > 0, "workload sealed no segments");
    assert_eq!(clean.checkpoints_verified, 1);
    assert!(!clean.found_damage());
    assert!(!clean.healed);

    // Rot one sealed segment at rest.
    let shard = (0..2)
        .find(|&s| !sealed_segments(&durable, s).is_empty())
        .expect("no shard has sealed segments");
    let seg_no = sealed_segments(&durable, shard)[0];
    let path = ctxpref_wal::segment::segment_path(durable.dir(), shard, seg_no);
    at_rest::flip_bit(&path, 99, SEGMENT_HEADER as u64)
        .unwrap()
        .expect("segment has no payload to damage");

    let report = durable.scrub().unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report:?}");
    assert_eq!(report.quarantined[0].shard, Some(shard));
    assert!(report.healed, "healing checkpoint failed: {report:?}");
    assert!(!path.exists(), "corrupt segment left in service");
    assert!(report.quarantined[0].quarantined.exists());

    // The live state never flinched, and — because the heal cut a new
    // checkpoint — a crash right now recovers everything.
    assert_eq!(durable.db().users_sorted(), users_before);
    drop(durable);
    let (recovered, report) =
        DurableDb::recover(tmp.path(), small_segments(SyncPolicy::PerRecord)).unwrap();
    assert_eq!(recovered.db().users_sorted(), users_before);
    assert_eq!(report.rescued_shards, 0, "clean recovery needed a rescue");
}

#[test]
fn scrub_catches_a_sealed_segment_cut_at_a_frame_boundary_before_an_empty_append_segment() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("cut-at-boundary");
    let opts = small_segments(SyncPolicy::PerRecord);
    let durable = DurableDb::create(tmp.path(), empty_db(1), opts).unwrap();
    // Append until a rotation leaves the append segment empty.
    let mut i = 0;
    while sealed_segments(&durable, 0).is_empty()
        || durable.wal_status().shards[0].seg_bytes != SEGMENT_HEADER as u64
    {
        durable.add_user(&format!("user{i}")).unwrap();
        i += 1;
    }
    let seg_no = *sealed_segments(&durable, 0).last().unwrap();
    let path = ctxpref_wal::segment::segment_path(durable.dir(), 0, seg_no);
    let records = |len: u64| {
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len)
            .unwrap();
        ctxpref_wal::segment::scan_segment(&path, 0, seg_no, false).map(|s| s.records.len())
    };
    // Cut the last record off whole: every frame left checks out.
    let whole = std::fs::metadata(&path).unwrap().len();
    let kept = records(whole).unwrap();
    let cut = (SEGMENT_HEADER as u64..whole)
        .rev()
        .find(|&len| records(len).is_ok_and(|n| n == kept - 1))
        .unwrap();
    records(cut).unwrap();

    let report = durable.scrub().unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report:?}");
    assert!(report.healed, "{report:?}");
}

#[test]
fn scrub_treats_read_errors_as_transient() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("read-err");
    let durable = DurableDb::create(
        tmp.path(),
        empty_db(2),
        small_segments(SyncPolicy::PerRecord),
    )
    .unwrap();
    for i in 0..30 {
        durable.add_user(&format!("user{i}")).unwrap();
    }
    let sealed: usize = (0..2).map(|s| sealed_segments(&durable, s).len()).sum();
    assert!(sealed > 0);

    // Every scrub read fails; nothing may be quarantined for it.
    let plan = FaultPlan::builder(5)
        .fail(sites::WAL_SCRUB, 1.0)
        .fail(sites::CHECKPOINT_READ, 1.0)
        .build();
    let report = plan.run(|| durable.scrub().unwrap());
    assert_eq!(report.segments_verified, 0);
    assert_eq!(report.checkpoints_verified, 0);
    assert_eq!(report.read_errors as usize, sealed + 1);
    assert!(!report.found_damage(), "a flaky read is not corruption");

    // The next (clean) pass verifies everything.
    let report = durable.scrub().unwrap();
    assert_eq!(report.segments_verified as usize, sealed);
    assert_eq!(report.read_errors, 0);
}

#[test]
fn recovery_consults_quarantine_after_crashed_heal() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("rescue");
    let opts = small_segments(SyncPolicy::PerRecord);
    let durable = DurableDb::create(tmp.path(), empty_db(2), opts).unwrap();
    for i in 0..30 {
        durable.add_user(&format!("user{i}")).unwrap();
    }
    let shard = (0..2)
        .find(|&s| !sealed_segments(&durable, s).is_empty())
        .unwrap();
    let seg_no = sealed_segments(&durable, shard)[0];
    drop(durable); // Crash.

    // Simulate a scrub that quarantined a segment and died before its
    // healing checkpoint: move the file by hand, leave no new manifest.
    let src = ctxpref_wal::segment::segment_path(tmp.path(), shard, seg_no);
    let qdir = ctxpref_wal::scrub::quarantine_shard_dir(tmp.path(), shard);
    std::fs::create_dir_all(&qdir).unwrap();
    std::fs::rename(&src, qdir.join(src.file_name().unwrap())).unwrap();

    // Without quarantine this directory shape is a hard error; with it
    // the node restarts clean (but behind on that shard).
    let (recovered, report) = DurableDb::recover(tmp.path(), opts).unwrap();
    assert_eq!(report.rescued_shards, 1, "{report:?}");
    // The records of the quarantined segment (and everything after it
    // on that shard) are honestly gone — this is the single-node story;
    // the replication variant asserts a healthy peer repairs them.
    let lost = 30 - recovered.db().users_sorted().len();
    assert!(lost > 0, "quarantining a live segment must cost something");

    // The rescue checkpointed, so a second recovery is clean and
    // identical — the node does not keep re-rescuing.
    let after_rescue = recovered.db().users_sorted();
    drop(recovered);
    let (again, report2) = DurableDb::recover(tmp.path(), opts).unwrap();
    assert_eq!(report2.rescued_shards, 0, "{report2:?}");
    assert_eq!(again.db().users_sorted(), after_rescue);
}

#[test]
fn unexplained_corruption_still_refuses_to_start() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("no-rescue");
    let opts = small_segments(SyncPolicy::PerRecord);
    let durable = DurableDb::create(tmp.path(), empty_db(2), opts).unwrap();
    for i in 0..30 {
        durable.add_user(&format!("user{i}")).unwrap();
    }
    let shard = (0..2)
        .find(|&s| !sealed_segments(&durable, s).is_empty())
        .unwrap();
    let seg_no = sealed_segments(&durable, shard)[0];
    drop(durable);

    // Same missing-segment shape as the rescue test, but with no
    // quarantine to explain it: recovery must refuse to guess.
    std::fs::remove_file(ctxpref_wal::segment::segment_path(
        tmp.path(),
        shard,
        seg_no,
    ))
    .unwrap();
    let err = DurableDb::recover(tmp.path(), opts).unwrap_err();
    assert!(
        matches!(err, WalError::LsnGap { .. } | WalError::Manifest { .. }),
        "unexplained damage must not be rescued: {err}"
    );
}

#[test]
fn group_commit_flush_failure_then_retry_accounts_once() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("flush-retry");
    let opts = WalOptions {
        sync: SyncPolicy::GroupCommit {
            flush_interval: Duration::from_millis(5),
        },
        ..WalOptions::default()
    };
    let durable = DurableDb::create(tmp.path(), empty_db(1), opts).unwrap();
    for i in 0..3 {
        durable.add_user(&format!("user{i}")).unwrap();
    }
    let before = durable.wal_status();
    assert_eq!(before.shards[0].pending, 3);
    assert_eq!(before.shards[0].synced_lsn, 0);

    // The fsync fails: nothing may be marked durable.
    let plan = FaultPlan::builder(3)
        .fail_at(sites::WAL_APPEND_SYNC, &[1])
        .build();
    let err = plan.run(|| durable.flush()).unwrap_err();
    assert!(matches!(err, WalError::Io(_)), "{err}");
    let mid = durable.wal_status();
    assert_eq!(
        mid.shards[0].pending, 3,
        "failed flush must not consume pending"
    );
    assert_eq!(
        mid.shards[0].synced_lsn, 0,
        "failed flush must not advance synced_lsn"
    );
    assert_eq!(mid.totals.batches, 0);

    // The retry syncs exactly the once-pending records: no double count.
    assert_eq!(durable.flush().unwrap(), 3);
    let after = durable.wal_status();
    assert_eq!(after.shards[0].pending, 0);
    assert_eq!(after.shards[0].synced_lsn, 3);
    assert_eq!(after.totals.batches, 1);
    assert_eq!(
        durable.flush().unwrap(),
        0,
        "second retry re-synced records"
    );
    assert_eq!(durable.wal_status().totals.batches, 1);
}

#[test]
fn per_record_sync_failure_never_acks_what_the_disk_refused() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("sync-refuse");
    let durable = DurableDb::create(tmp.path(), empty_db(1), WalOptions::default()).unwrap();
    durable.add_user("kept").unwrap();
    let appends_before = durable.wal_appends();

    let plan = FaultPlan::builder(3)
        .fail_at(sites::WAL_APPEND_SYNC, &[1])
        .build();
    plan.run(|| durable.add_user("refused")).unwrap_err();
    assert_eq!(
        durable.wal_appends(),
        appends_before,
        "a refused record must not count as appended"
    );
    assert!(!durable.db().users_sorted().contains(&"refused".to_string()));

    // The retry gets the same LSN the refused attempt would have had.
    let ack = durable.add_user("retried").unwrap();
    assert!(ack.durable);
    assert_eq!(durable.wal_status().shards[0].synced_lsn, 2);
    assert_eq!(durable.wal_appends(), appends_before + 1);
}

#[test]
fn rotate_failures_are_counted_and_surfaced() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("rotate-fail");
    let durable = DurableDb::create(
        tmp.path(),
        empty_db(1),
        small_segments(SyncPolicy::PerRecord),
    )
    .unwrap();

    let plan = FaultPlan::builder(3)
        .fail_every(sites::WAL_ROTATE, 1)
        .build();
    plan.run(|| {
        for i in 0..20 {
            durable.add_user(&format!("user{i}")).unwrap();
        }
    });
    let status = durable.wal_status();
    assert!(
        status.totals.rotate_failures > 0,
        "no rotation failure recorded: {status:?}"
    );
    assert_eq!(
        durable.wal_totals().rotate_failures,
        status.totals.rotate_failures
    );

    // With the plan gone the stuck segment rotates on the next append
    // past the cap; the failure count stays as history.
    durable.add_user("unstick").unwrap();
    assert!(durable.wal_status().totals.rotations > 0);
}

/// The 32-seed disk-chaos matrix. Per seed: a workload runs through an
/// ENOSPC window and scrub passes under injected read errors (no
/// panic, typed sheds only); then a seed-chosen sealed segment takes
/// at-rest damage (bit flip on even seeds, truncation on odd), the
/// scrubber quarantines and heals, the process "crashes", and recovery
/// must come back with every durably-acked write intact.
#[test]
fn disk_chaos_matrix() {
    let _serial = ctxpref_faults::exclusive();
    for seed in seeds(0..32) {
        let result = std::panic::catch_unwind(|| run_disk_chaos_seed(seed));
        if let Err(p) = result {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            panic!("disk-chaos seed {seed} failed: {msg}");
        }
    }
}

fn run_disk_chaos_seed(seed: u64) {
    let tmp = TempDir::new(&format!("matrix-{seed}"));
    let sync = if seed.is_multiple_of(2) {
        SyncPolicy::PerRecord
    } else {
        SyncPolicy::GroupCommit {
            flush_interval: Duration::from_millis(5),
        }
    };
    let opts = small_segments(sync);
    let durable = DurableDb::create(tmp.path(), empty_db(4), opts).unwrap();

    // Live phase under chaos: an ENOSPC window opens partway in, scrub
    // runs concurrently with injected read errors, and nothing may
    // panic. Acked writes are tracked; shed writes must shed typed.
    let window = (5 + seed % 7, 15 + seed % 11);
    let plan = FaultPlan::builder(seed)
        .fail_between(sites::DISK_FULL, window.0, window.1)
        .fail(sites::WAL_SCRUB, 0.3)
        .fail(sites::CHECKPOINT_READ, 0.3)
        .build();
    let mut acked: Vec<String> = Vec::new();
    plan.run(|| {
        for i in 0..60 {
            let user = format!("user{i}");
            match durable.add_user(&user) {
                Ok(_) => acked.push(user),
                Err(ctxpref_wal::DurableError::Wal(e)) if e.is_disk_full() => {}
                Err(e) => panic!("seed {seed}: unexpected append error: {e}"),
            }
            if i % 20 == 10 {
                // Scrub mid-workload: read errors are transient, no
                // quarantine without real damage, appends unblocked.
                let report = durable.scrub().unwrap();
                assert!(
                    !report.found_damage(),
                    "seed {seed}: phantom quarantine: {report:?}"
                );
            }
        }
    });
    assert!(
        acked.len() < 60 && acked.len() > 30,
        "seed {seed}: window {window:?} acked {}",
        acked.len()
    );
    durable.flush().unwrap();
    // Under group commit only flushed records are durably acked — and
    // the flush above made all of them so.

    // At-rest damage on a seed-chosen sealed segment (if any shard has
    // one), then scrub: quarantine + heal.
    let mut damaged = false;
    for probe in 0..4usize {
        let shard = ((seed as usize) + probe) % 4;
        let sealed = sealed_segments(&durable, shard);
        if let Some(&seg_no) = sealed.first() {
            let path = ctxpref_wal::segment::segment_path(durable.dir(), shard, seg_no);
            let hurt = if seed.is_multiple_of(2) {
                at_rest::flip_bit(&path, seed, SEGMENT_HEADER as u64).unwrap()
            } else {
                at_rest::truncate(&path, seed, SEGMENT_HEADER as u64).unwrap()
            };
            if hurt.is_some() {
                damaged = true;
                break;
            }
        }
    }
    let report = durable.scrub().unwrap();
    if damaged {
        // Truncation can mimic a torn tail *only* on a last segment;
        // sealed segments always promote damage to quarantine.
        assert_eq!(
            report.quarantined.len(),
            1,
            "seed {seed}: damage not quarantined: {report:?}"
        );
        assert!(report.healed, "seed {seed}: heal failed: {report:?}");
    }

    // Crash + recover: no panic, and every acked write survives (the
    // healing checkpoint covers the quarantined range).
    let before = durable.db().users_sorted();
    drop(durable);
    let (recovered, rec_report) = DurableDb::recover(tmp.path(), opts).unwrap();
    assert_eq!(
        rec_report.rescued_shards, 0,
        "seed {seed}: healed directory still needed a rescue: {rec_report:?}"
    );
    let after = recovered.db().users_sorted();
    assert_eq!(after, before, "seed {seed}: recovery changed the state");
    for user in &acked {
        assert!(
            after.contains(user),
            "seed {seed}: durably-acked {user} lost after damage + scrub + recovery"
        );
    }
}
