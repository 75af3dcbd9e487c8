//! The WAL's bytes, pinned: every op variant, a whole segment and a
//! manifest, so the format cannot drift silently — a change here is a
//! format version change. Files of the previous version are refused
//! typed.

mod corpus;

use std::sync::Arc;

use ctxpref_core::ShardedMultiUserDb;
use ctxpref_testkit::TempDir;
use ctxpref_wal::{DurableDb, Manifest, ShardManifest, Wal, WalError, WalOp, WalOptions};

fn hex(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn every_op_encodes_to_its_golden_bytes() {
    // Tag, then fields: a user is its length and bytes; an insert's
    // preference is its clause count, each clause's param id, kind
    // (1 eq, 2 in, 3 range) and value ids, then its attribute id,
    // operator index, tagged value (1 int, 2 float, 3 str, 4 bool) and
    // the score's 8 little-endian bytes.
    let golden = [
        "01 03 61 64 61",
        "02 12 6e 65 77 0a 6c 69 6e 65 20 61 6e 64 20 73 70 61 63 65",
        "03 03 61 64 61 01 00 01 02 00 00 03 05 63 61 66 c3 a9 00 00 00 00 00 00 e8 3f",
        "03 03 61 64 61 02 00 02 02 01 00 01 03 01 03 01 03 01 fd ff ff ff ff ff ff ff \
         00 00 00 00 00 00 f0 3f",
        "03 00 00 02 04 02 00 00 00 00 00 00 04 40 00 00 00 00 00 00 00 00",
        "03 03 62 6f 62 01 01 01 02 03 01 04 01 00 00 00 00 00 00 c0 3f",
        "04 03 61 64 61 ac 02",
        "05 03 61 64 61 01 00 00 00 00 00 00 e0 3f",
    ];
    let (env, rel) = (corpus::env(), corpus::relation());
    let ops = corpus::every_op();
    assert_eq!(ops.len(), golden.len());
    for (op, want) in ops.iter().zip(golden) {
        let bytes = op.encode();
        assert_eq!(hex(&bytes), want, "{op:?}");
        assert_eq!(&WalOp::decode(&bytes, &env, &rel).unwrap(), op);
        if let WalOp::InsertPreference { user, pref } = op {
            assert_eq!(WalOp::encode_insert(user, pref), bytes, "{op:?}");
        }
    }
}

#[test]
fn a_segment_is_its_header_then_one_frame_per_record() {
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("wal-format-segment");
    let wal = Wal::create(dir.path(), 1, WalOptions::default()).unwrap();
    wal.shard(0)
        .append(&WalOp::AddUser { user: "ada".into() }.encode())
        .unwrap();
    let segment = std::fs::read(dir.path().join("shard-0/seg-000001.wal")).unwrap();
    // `CTXWAL02`, shard 0, segment 1, reserved; then the record's frame:
    // length 6, checksum, LSN 1 and the op.
    assert_eq!(
        hex(&segment),
        "43 54 58 57 41 4c 30 32 00 00 00 00 01 00 00 00 00 00 00 00 00 00 00 00 \
         06 00 00 00 b5 f9 23 de 64 84 33 e8 01 01 03 61 64 61"
    );
}

#[test]
fn a_manifest_is_its_header_line_then_one_frame() {
    let dir = TempDir::new("wal-format-manifest");
    let manifest = Manifest {
        generation: 4,
        checkpoint: "checkpoint-4.db".into(),
        epoch: 5,
        shards: vec![
            ShardManifest {
                last_lsn: 17,
                first_live_segment: 3,
                epochs: vec![(1, 1), (3, 11), (5, 15)],
            },
            ShardManifest {
                last_lsn: 300,
                first_live_segment: 1,
                epochs: Vec::new(),
            },
        ],
    };
    manifest.save(dir.path()).unwrap();
    let bytes = std::fs::read(dir.path().join("MANIFEST")).unwrap();
    // `ctxwal manifest v3\n`, then one frame: length 32, checksum,
    // generation 4, the checkpoint's name, epoch 5, 2 shards of (last
    // LSN, first live segment, (epoch, first LSN) pairs).
    assert_eq!(
        hex(&bytes),
        "63 74 78 77 61 6c 20 6d 61 6e 69 66 65 73 74 20 76 33 0a \
         20 00 00 00 3b 87 b5 73 10 ab 55 c0 \
         04 0f 63 68 65 63 6b 70 6f 69 6e 74 2d 34 2e 64 62 05 02 \
         11 03 03 01 01 03 0b 05 0f ac 02 01 00"
    );
    assert_eq!(Manifest::load(dir.path()).unwrap(), manifest);
}

/// A durable directory of one shard holding user `ada`.
fn durable_dir(tag: &str) -> TempDir {
    let dir = TempDir::new(tag);
    let core = Arc::new(ShardedMultiUserDb::new(
        corpus::env(),
        corpus::relation(),
        2,
        1,
    ));
    let db = DurableDb::create(dir.path(), core, WalOptions::default()).unwrap();
    db.add_user("ada").unwrap();
    dir
}

#[test]
fn a_version_1_manifest_is_refused_typed() {
    let _serial = ctxpref_faults::exclusive();
    let dir = durable_dir("wal-format-v1-manifest");
    let v1 = b"ctxwal manifest v1\nchecksum 9d8ee5d7a4ed3a65\ngeneration 0\n\
               checkpoint checkpoint-0.db\nshards 1\nshard 0 0 1\n"
        .to_vec();
    // Version 2: the same frame as version 3 but with no epoch and no
    // epoch pairs (generation 0, `checkpoint-0.db`, one shard at (0, 1)).
    let mut v2 = b"ctxwal manifest v2\n".to_vec();
    let at = ctxpref_bytes::open_frame(&mut v2);
    v2.extend_from_slice(b"\x00\x0fcheckpoint-0.db\x01\x00\x01");
    ctxpref_bytes::seal_frame(&mut v2, at).unwrap();
    for (version, bytes) in [("v1", v1), ("v2", v2)] {
        std::fs::write(dir.path().join("MANIFEST"), bytes).unwrap();
        for err in [
            Manifest::load(dir.path()).unwrap_err(),
            DurableDb::recover(dir.path(), WalOptions::default()).unwrap_err(),
        ] {
            let want = format!("ctxwal manifest {version}");
            assert!(
                matches!(&err, WalError::Version { found, .. } if *found == want),
                "{err}"
            );
        }
    }
}

#[test]
fn a_ctxwal01_segment_is_refused_typed_and_left_as_it_was() {
    let _serial = ctxpref_faults::exclusive();
    let dir = durable_dir("wal-format-v1-segment");
    // The version-1 layout: magic, shard, segment number, reserved,
    // then `[u32 len | u64 lsn | u64 fnv | text]` records.
    let mut v1 = b"CTXWAL01".to_vec();
    v1.extend_from_slice(&0u32.to_le_bytes());
    v1.extend_from_slice(&1u64.to_le_bytes());
    v1.extend_from_slice(&0u32.to_le_bytes());
    v1.extend_from_slice(&7u32.to_le_bytes());
    v1.extend_from_slice(&1u64.to_le_bytes());
    v1.extend_from_slice(&0x1234_5678_9abc_def0u64.to_le_bytes());
    v1.extend_from_slice(b"add ada");
    let segment = dir.path().join("shard-0/seg-000001.wal");
    std::fs::write(&segment, &v1).unwrap();
    let err = DurableDb::recover(dir.path(), WalOptions::default()).unwrap_err();
    assert!(
        matches!(&err, WalError::Version { path, found } if path == &segment && found == "CTXWAL01"),
        "{err}"
    );
    // Refused, not repaired: a final segment with a foreign header is
    // not mistaken for a crash mid-rotation and rebuilt empty.
    assert_eq!(std::fs::read(&segment).unwrap(), v1);
}
