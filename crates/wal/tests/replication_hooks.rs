//! Tests for the durable layer's replication hooks and the
//! exclusive-directory lock that keeps checkpoint GC from racing a
//! concurrent recovery.

use std::path::PathBuf;
use std::sync::Arc;

use ctxpref_core::ShardedMultiUserDb;
use ctxpref_wal::{DurableDb, ReplApply, WalError, WalOp, WalOptions};
use ctxpref_workload::reference::{tiny_env, tiny_relation};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ctxpref-wal-repl-hooks-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fresh_db(shards: usize) -> Arc<ShardedMultiUserDb> {
    Arc::new(ShardedMultiUserDb::new(
        tiny_env(),
        tiny_relation(),
        2,
        shards,
    ))
}

fn create(dir: &std::path::Path, shards: usize) -> DurableDb {
    DurableDb::create(dir, fresh_db(shards), WalOptions::default()).unwrap()
}

#[test]
fn directory_lock_refuses_a_second_owner() {
    let dir = tempdir("lock");
    let primary = create(&dir, 2);
    primary.add_user("alice").unwrap();

    // While `primary` is alive (and may checkpoint-GC at any moment),
    // a concurrent recover of the same directory must fail fast with a
    // clear error, not read files being deleted out from under it.
    let err = DurableDb::recover(&dir, WalOptions::default()).unwrap_err();
    assert!(matches!(err, WalError::Locked { .. }), "{err}");

    // A concurrent checkpoint on the owner is unaffected.
    primary.checkpoint().unwrap();

    // Dropping the owner releases the lock; recovery then succeeds.
    drop(primary);
    let (recovered, _) = DurableDb::recover(&dir, WalOptions::default()).unwrap();
    assert_eq!(recovered.db().user_count(), 1);
}

#[test]
fn create_refuses_a_locked_fresh_directory() {
    let dir = tempdir("lock-create");
    let a = create(&dir.join("node"), 2);
    let err = DurableDb::create(&dir.join("node"), fresh_db(2), WalOptions::default()).unwrap_err();
    // The manifest already exists, so AlreadyExists fires first — the
    // lock protects the recover path; create is guarded by both.
    assert!(
        matches!(
            err,
            WalError::AlreadyExists { .. } | WalError::Locked { .. }
        ),
        "{err}"
    );
    drop(a);
}

#[test]
fn apply_replicated_applies_duplicates_and_gaps() {
    let dir = tempdir("apply");
    let primary = create(&dir.join("p"), 2);
    let replica = create(&dir.join("r"), 2);

    let op = WalOp::AddUser {
        user: "alice".to_string(),
    };
    let shard = primary.db().shard_of("alice");
    let ack = primary.apply(op.clone()).unwrap();
    let payload = op.encode();

    // First delivery applies.
    let r = replica.apply_replicated(shard, ack.lsn, &payload).unwrap();
    assert!(matches!(r, ReplApply::Applied { .. }), "{r:?}");
    assert_eq!(replica.db().user_count(), 1);

    // A duplicated delivery is dropped by the LSN cursor.
    let r = replica.apply_replicated(shard, ack.lsn, &payload).unwrap();
    assert_eq!(r, ReplApply::Duplicate);
    assert_eq!(replica.db().user_count(), 1);

    // Skipping ahead reports the LSN the shard actually needs.
    let r = replica
        .apply_replicated(shard, ack.lsn + 5, &payload)
        .unwrap();
    assert_eq!(
        r,
        ReplApply::Gap {
            expected: ack.lsn + 1
        }
    );
}

#[test]
fn read_shard_from_ships_records_in_lsn_order() {
    let dir = tempdir("read");
    let primary = create(&dir, 1);
    for i in 0..6 {
        primary.add_user(&format!("u{i}")).unwrap();
    }
    let recs = primary.read_shard_from(0, 1, 100).unwrap().unwrap();
    assert_eq!(recs.len(), 6);
    assert_eq!(
        recs.iter().map(|r| r.lsn).collect::<Vec<_>>(),
        (1..=6).collect::<Vec<_>>()
    );

    // Resuming mid-stream and bounding the batch both work.
    let recs = primary.read_shard_from(0, 4, 2).unwrap().unwrap();
    assert_eq!(recs.iter().map(|r| r.lsn).collect::<Vec<_>>(), vec![4, 5]);

    // Fully caught up: an empty batch, not a gap.
    let recs = primary.read_shard_from(0, 7, 100).unwrap().unwrap();
    assert!(recs.is_empty());
}

#[test]
fn read_shard_from_reports_gc_of_the_requested_tail() {
    let dir = tempdir("read-gc");
    let primary = create(&dir, 1);
    for i in 0..4 {
        primary.add_user(&format!("u{i}")).unwrap();
    }
    // The checkpoint rotates and GCs segments holding LSNs 1..=4.
    primary.checkpoint().unwrap();
    primary.add_user("u4").unwrap();

    // A cursor below the checkpoint can no longer be served from the
    // live log: the caller must fall back to a snapshot.
    assert!(primary.read_shard_from(0, 2, 100).unwrap().is_none());
    // A cursor at the live tail still works.
    let recs = primary.read_shard_from(0, 5, 100).unwrap().unwrap();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].lsn, 5);
}

#[test]
fn resync_shard_discards_a_divergent_suffix() {
    let dir = tempdir("resync");
    let a = create(&dir.join("a"), 3);
    let b = create(&dir.join("b"), 3);
    for i in 0..10 {
        let op = WalOp::AddUser {
            user: format!("u{i}"),
        };
        let ack = a.apply(op.clone()).unwrap();
        b.apply_replicated(ack.shard, ack.lsn, &op.encode())
            .unwrap();
    }
    // `b` diverges: two extra users the (new) primary never saw.
    b.add_user("deposed-1").unwrap();
    b.add_user("deposed-2").unwrap();
    assert_eq!(b.db().user_count(), 12);
    let diverged = b.db().shard_of("deposed-1");

    // Every shard of `b` is re-seated at `a`'s cut: contents and
    // watermark. The diverged shard's sequence moves backward.
    let mut lsns = Vec::new();
    for shard in 0..3 {
        let (users, lsn) = a.shard_cut(shard);
        let names = |users: &[(String, _)]| users.iter().map(|u| u.0.clone()).collect::<Vec<_>>();
        assert_eq!(names(&users), names(&a.db().stripe_users(shard)));
        if shard == diverged {
            assert!(b.wal_status().shards[shard].last_lsn > lsn);
        }
        b.resync_shard(shard, users, lsn, vec![(1, 1), (2, lsn + 1)])
            .unwrap();
        lsns.push(lsn);
    }
    assert_eq!(b.db().user_count(), 10);
    assert!(b.db().profile("deposed-1").is_err());
    let probe = WalOp::AddUser {
        user: "probe".to_string(),
    }
    .encode();
    for (shard, &lsn) in lsns.iter().enumerate() {
        let got = b.apply_replicated(shard, lsn + 7, &probe).unwrap();
        assert_eq!(got, ReplApply::Gap { expected: lsn + 1 });
    }

    // The diverged shard accepts the primary's next LSN again, and the
    // resync survives a crash (drop) and recovery.
    let user = (10..)
        .map(|i| format!("u{i}"))
        .find(|u| a.db().shard_of(u) == diverged)
        .unwrap();
    let op = WalOp::AddUser { user: user.clone() };
    let ack = a.apply(op.clone()).unwrap();
    assert_eq!(ack.lsn, lsns[diverged] + 1);
    assert!(matches!(
        b.apply_replicated(diverged, ack.lsn, &op.encode()).unwrap(),
        ReplApply::Applied { .. }
    ));
    let b_dir = dir.join("b");
    drop(b);
    let (recovered, _) = DurableDb::recover(&b_dir, WalOptions::default()).unwrap();
    assert_eq!(recovered.db().user_count(), 11);
    assert!(recovered.db().profile("u3").is_ok());
    assert!(recovered.db().profile(&user).is_ok());
    assert!(recovered.db().profile("deposed-2").is_err());
    for (shard, &lsn) in lsns.iter().enumerate() {
        let pairs = &recovered.manifest().shards[shard].epochs;
        assert_eq!(pairs, &[(1, 1), (2, lsn + 1)], "shard {shard}");
    }
}
