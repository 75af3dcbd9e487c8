use std::sync::Arc;

use super::*;
use crate::segment::{list_segments, scan_segment};
use ctxpref_faults::FaultPlan;
use ctxpref_testkit::TempDir;

#[test]
fn per_record_appends_are_durable_and_replayable() {
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("wal-per-record");
    let wal = Wal::create(&dir, 2, WalOptions::default()).unwrap();
    let a1 = wal.shard(0).append(b"add u1").unwrap();
    let a2 = wal.shard(0).append(b"ins u1 x").unwrap();
    let b1 = wal.shard(1).append(b"add u2").unwrap();
    assert!(a1.durable && a2.durable && b1.durable);
    assert_eq!((a1.lsn, a2.lsn, b1.lsn), (1, 2, 1));
    assert_eq!(wal.totals().appends, 3);

    let scan = scan_segment(&segment_path(&dir, 0, 1), 0, 1, true).unwrap();
    assert_eq!(scan.records.len(), 2);
    assert_eq!(scan.records[1].payload, b"ins u1 x");
}

#[test]
fn group_commit_buffers_until_flush() {
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("wal-group-commit");
    let opts = WalOptions {
        sync: SyncPolicy::GroupCommit {
            flush_interval: Duration::from_millis(5),
        },
        ..WalOptions::default()
    };
    let wal = Wal::create(&dir, 1, opts).unwrap();
    // An empty plan counts the fsyncs: the appends take none, the
    // flush one for all four.
    let plan = FaultPlan::builder(0).build();
    let _plan = ctxpref_faults::install(Arc::clone(&plan));
    for i in 0..4 {
        let ack = wal.shard(0).append(format!("op {i}").as_bytes()).unwrap();
        assert!(!ack.durable);
    }
    assert_eq!(plan.hit_count(sites::WAL_APPEND_SYNC), 0);
    assert_eq!(wal.status().shards[0].pending, 4);
    assert_eq!(wal.status().shards[0].synced_lsn, 0);
    assert_eq!(wal.shard(0).flush().unwrap(), 4);
    assert_eq!(plan.hit_count(sites::WAL_APPEND_SYNC), 1);
    assert_eq!(wal.totals().batches, 1);
    assert_eq!(wal.status().shards[0].synced_lsn, 4);
    // A second flush with nothing pending is a free no-op.
    assert_eq!(wal.shard(0).flush().unwrap(), 0);
    assert_eq!(plan.hit_count(sites::WAL_APPEND_SYNC), 1);
    assert_eq!(wal.totals().batches, 1);
}

/// The per-record twin of `group_commit_buffers_until_flush`: every
/// append fsyncs before it returns, so each ack is durable and no
/// batch is left for a flush.
#[test]
fn per_record_syncs_inside_every_append() {
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("wal-per-record-sync");
    let wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
    let plan = FaultPlan::builder(0).build();
    let _plan = ctxpref_faults::install(Arc::clone(&plan));
    for i in 1..=4 {
        let ack = wal.shard(0).append(format!("op {i}").as_bytes()).unwrap();
        assert!(ack.durable);
        assert_eq!(plan.hit_count(sites::WAL_APPEND_SYNC), i);
    }
    assert_eq!(wal.status().shards[0].pending, 0);
    assert_eq!(wal.status().shards[0].synced_lsn, 4);
    assert_eq!(wal.shard(0).flush().unwrap(), 0);
    assert_eq!(plan.hit_count(sites::WAL_APPEND_SYNC), 4);
    assert_eq!(wal.totals().batches, 0);
}

#[test]
fn segments_rotate_at_the_size_cap() {
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("wal-rotate");
    let opts = WalOptions {
        segment_max_bytes: 128,
        ..WalOptions::default()
    };
    let wal = Wal::create(&dir, 1, opts).unwrap();
    for i in 0..12 {
        wal.shard(0)
            .append(format!("record number {i}").as_bytes())
            .unwrap();
    }
    let segs = list_segments(&dir, 0).unwrap();
    assert!(segs.len() > 1, "expected rotations, got {segs:?}");
    assert_eq!(wal.status().totals.rotations, segs.len() as u64 - 1);
    // Every record is still there, in LSN order across segments.
    let mut lsns = Vec::new();
    for (i, &seg) in segs.iter().enumerate() {
        let scan = scan_segment(&segment_path(&dir, 0, seg), 0, seg, i == segs.len() - 1).unwrap();
        lsns.extend(scan.records.iter().map(|r| r.lsn));
    }
    assert_eq!(lsns, (1..=12).collect::<Vec<_>>());
}

#[test]
fn injected_sync_failure_rolls_the_record_back() {
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("wal-sync-fail");
    let wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
    wal.shard(0).append(b"keep me").unwrap();
    let len_before = std::fs::metadata(segment_path(&dir, 0, 1)).unwrap().len();

    let plan = FaultPlan::builder(1)
        .fail_at(sites::WAL_APPEND_SYNC, &[1])
        .build();
    let err = plan.run(|| wal.shard(0).append(b"lose me")).unwrap_err();
    assert!(matches!(err, WalError::Io(_)), "{err}");

    // Rolled back on disk and in memory: same length, same next LSN.
    assert_eq!(
        std::fs::metadata(segment_path(&dir, 0, 1)).unwrap().len(),
        len_before
    );
    let ack = wal.shard(0).append(b"second").unwrap();
    assert_eq!(ack.lsn, 2);
    let scan = scan_segment(&segment_path(&dir, 0, 1), 0, 1, true).unwrap();
    assert_eq!(
        scan.records
            .iter()
            .map(|r| r.payload.as_slice())
            .collect::<Vec<_>>(),
        vec![b"keep me".as_slice(), b"second".as_slice()]
    );
}

#[test]
fn injected_torn_write_leaves_a_recoverable_tail() {
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("wal-torn");
    let wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
    wal.shard(0).append(b"keep me").unwrap();

    // Hit #2 of the site is the append's truncation decision (hit
    // #1 is its error/panic check).
    let plan = FaultPlan::builder(1)
        .truncate_at(sites::WAL_APPEND_WRITE, &[2], 0.5)
        .build();
    let err = plan
        .run(|| wal.shard(0).append(b"torn record payload"))
        .unwrap_err();
    assert!(matches!(err, WalError::Io(_)), "{err}");

    // The torn bytes are really on disk…
    let path = segment_path(&dir, 0, 1);
    let scan = scan_segment(&path, 0, 1, true).unwrap();
    assert!(scan.torn);
    assert_eq!(scan.records.len(), 1);

    // …and the next append reclaims the tail with the same LSN.
    let ack = wal.shard(0).append(b"after the tear").unwrap();
    assert_eq!(ack.lsn, 2);
    let scan = scan_segment(&path, 0, 1, true).unwrap();
    assert!(!scan.torn);
    assert_eq!(scan.records.len(), 2);
    assert_eq!(scan.records[1].payload, b"after the tear");
}

#[test]
fn drop_unsynced_tail_loses_only_unflushed_records() {
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("wal-power-cut");
    let opts = WalOptions {
        sync: SyncPolicy::GroupCommit {
            flush_interval: Duration::from_millis(5),
        },
        ..WalOptions::default()
    };
    let wal = Wal::create(&dir, 1, opts).unwrap();
    wal.shard(0).append(b"flushed").unwrap();
    wal.shard(0).flush().unwrap();
    wal.shard(0).append(b"in the page cache").unwrap();
    wal.shard(0).drop_unsynced_tail().unwrap();
    let scan = scan_segment(&segment_path(&dir, 0, 1), 0, 1, true).unwrap();
    assert_eq!(scan.records.len(), 1);
    assert_eq!(scan.records[0].payload, b"flushed");
}

#[test]
fn reopen_continues_the_lsn_sequence() {
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("wal-reopen");
    let opts = WalOptions::default();
    let wal = Wal::create(&dir, 1, opts).unwrap();
    wal.shard(0).append(b"one").unwrap();
    wal.shard(0).append(b"two").unwrap();
    let pos = wal.status().shards[0].seg_bytes;
    drop(wal);

    let positions = [ShardPosition {
        seg_no: 1,
        pos,
        next_lsn: 3,
    }];
    let wal = Wal::open(&dir, opts, &positions).unwrap();
    let ack = wal.shard(0).append(b"three").unwrap();
    assert_eq!(ack.lsn, 3);
    let scan = scan_segment(&segment_path(&dir, 0, 1), 0, 1, true).unwrap();
    assert_eq!(scan.records.len(), 3);
    assert_eq!(scan.records[2].lsn, 3);
}

/// The `wal-status` text, pinned: every field holds a distinct
/// value, so a figure printed in the wrong slot changes the body.
#[test]
#[rustfmt::skip]
fn status_display_prints_every_line_exactly() {
    let shard = |n: u64, poisoned| ShardWalStatus {
        seg_no: n, seg_bytes: n + 1, last_lsn: n + 2, synced_lsn: n + 3, pending: n + 4, poisoned,
    };
    let status = WalStatus {
        shards: vec![shard(1, false), shard(6, true)],
        totals: WalTotals { appends: 11, batches: 12, rotations: 13, rotate_failures: 14,
                            disk_full_sheds: 15 },
    };
    assert_eq!(status.to_string(), "\
appends 11, group-commit batches 12, rotations 13
shard 0: segment 1 (2 bytes), last lsn 3, synced lsn 4, pending 5
shard 1: segment 6 (7 bytes), last lsn 8, synced lsn 9, pending 10 POISONED");
}
