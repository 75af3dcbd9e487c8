//! Crash safety of the file-level save/load path: atomic writes,
//! checksum verification, fault injection, and a truncation fuzz
//! proving the reader fails cleanly — never panics — on any prefix.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ctxpref_core::MultiUserDb;
use ctxpref_faults::FaultPlan;
use ctxpref_storage::{
    load_multi_user, read_multi_user, save_multi_user, write_multi_user, StorageError,
};
use ctxpref_workload::reference::{poi_env, poi_relation};
use ctxpref_workload::user_study::{all_demographics, default_profile};

/// A fresh path under the system temp dir; removed on drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> Self {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        Self(
            std::env::temp_dir().join(format!("ctxpref-crash-{}-{tag}-{n}.db", std::process::id())),
        )
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Three users with a handful of hand-built preferences each (distinct
/// scores, one multi-parameter descriptor) over a tiny relation: a
/// genuinely multi-user checksummed file that stays small enough for
/// the O(file²) byte fuzzes.
fn tiny_multi_user_db() -> MultiUserDb {
    let env = poi_env();
    let rel = poi_relation(&env, 3, 1);
    let mut db = MultiUserDb::new(env.clone(), rel, 4);
    for (i, name) in ["user0", "user1", "user2"].into_iter().enumerate() {
        db.add_user(name).unwrap();
        db.insert_preference_eq(
            name,
            "accompanying_people = friends",
            "type",
            "museum".into(),
            0.2 + i as f64 / 10.0,
        )
        .unwrap();
        db.insert_preference_eq(name, "temperature = warm", "type", "park".into(), 0.9)
            .unwrap();
    }
    db.insert_preference_eq(
        "user1",
        "location = Plaka and temperature = hot",
        "type",
        "bar".into(),
        0.55,
    )
    .unwrap();
    db
}

fn study_db(users: usize) -> MultiUserDb {
    let env = poi_env();
    let rel = poi_relation(&env, 7, 4);
    let mut db = MultiUserDb::new(env.clone(), rel, 8);
    for (i, demo) in all_demographics().into_iter().take(users).enumerate() {
        let profile = default_profile(&env, db.relation(), demo);
        db.add_user_with_profile(&format!("user{i}"), profile)
            .unwrap();
    }
    db
}

#[test]
fn save_load_roundtrip_with_checksum() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("roundtrip");
    let db = study_db(3);
    save_multi_user(&path.0, &db).unwrap();

    let text = std::fs::read_to_string(&path.0).unwrap();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("ctxpref v1"));
    let checksum = lines.next().unwrap();
    assert!(checksum.starts_with("checksum "), "{checksum}");
    assert_eq!(checksum.len(), "checksum ".len() + 16, "16 hex digits");

    let restored = load_multi_user(&path.0).unwrap();
    assert_eq!(restored.users_sorted(), db.users_sorted());
    assert_eq!(
        restored.profile("user0").unwrap().len(),
        db.profile("user0").unwrap().len()
    );
}

#[test]
fn flipped_byte_is_detected_as_corrupt() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("bitrot");
    save_multi_user(&path.0, &study_db(2)).unwrap();
    let mut bytes = std::fs::read(&path.0).unwrap();
    // Flip a byte deep in the body (past header + checksum lines).
    let target = bytes.len() - 10;
    bytes[target] ^= 0x20;
    std::fs::write(&path.0, &bytes).unwrap();
    match load_multi_user(&path.0) {
        Err(StorageError::Corrupt { expected, actual }) => assert_ne!(expected, actual),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn files_without_checksum_still_load() {
    let _serial = ctxpref_faults::exclusive();
    // Streaming output (and pre-checksum files) has no checksum line.
    let path = TempPath::new("legacy");
    let db = study_db(2);
    let mut buf = Vec::new();
    write_multi_user(&mut buf, &db).unwrap();
    std::fs::write(&path.0, &buf).unwrap();
    let restored = load_multi_user(&path.0).unwrap();
    assert_eq!(restored.users_sorted(), db.users_sorted());
}

/// The truncation fuzz of the satellite task, on a genuinely
/// multi-user checksummed file (three users with distinct demographic
/// profiles, so the cut can land inside any user section, between two
/// `user` headers, or mid-preference): for EVERY prefix of the saved
/// file, the reader returns a `StorageError` (or, for the rare prefix
/// that happens to be well-formed, a database) — it never panics. And
/// the checksum rejects every strict prefix at load time.
#[test]
fn reader_never_panics_on_any_prefix() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("fuzz");
    // Small relation, three small hand-built profiles: the fuzz is
    // O(file²) since every prefix is parsed, so the file must stay a
    // few KB (the demographic default profiles would be ~60
    // preferences each and blow the runtime up ~10×).
    let db = tiny_multi_user_db();
    save_multi_user(&path.0, &db).unwrap();
    let bytes = std::fs::read(&path.0).unwrap();
    // The cut points genuinely span all three user sections.
    let body = String::from_utf8(bytes.clone()).unwrap();
    assert_eq!(
        body.matches("\nuser ").count(),
        3,
        "expected a three-user file:\n{body}"
    );

    let truncated = TempPath::new("fuzz-prefix");
    for len in 0..bytes.len() {
        let prefix = &bytes[..len];
        let parsed = catch_unwind(AssertUnwindSafe(|| read_multi_user(prefix).map(drop)));
        assert!(parsed.is_ok(), "reader panicked on prefix of {len} bytes");
        // The load path must *reject* every strict prefix: either the
        // checksum line is damaged/absent-with-bad-header, or the body
        // hash no longer matches. File I/O dominates the runtime, so
        // stride-sample it; the in-memory no-panic check stays
        // exhaustive.
        if len % 13 == 0 || len + 64 > bytes.len() {
            std::fs::write(&truncated.0, prefix).unwrap();
            assert!(
                load_multi_user(&truncated.0).is_err(),
                "strict prefix of {len} bytes loaded successfully"
            );
        }
    }
    // Sanity: the untruncated file does load, with all three profiles.
    let restored = load_multi_user(&path.0).unwrap();
    assert_eq!(restored.user_count(), 3);
    for i in 0..3 {
        let user = format!("user{i}");
        assert_eq!(
            restored.profile(&user).unwrap().len(),
            db.profile(&user).unwrap().len(),
            "{user} profile shrank"
        );
    }
}

/// Same property under in-body corruption instead of truncation: flip
/// one byte at a stride of positions across the whole multi-user file —
/// the reader never panics, and the checksummed load path never
/// accepts the damaged bytes as the saved database.
#[test]
fn reader_never_panics_on_flipped_bytes() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("flip");
    let db = tiny_multi_user_db();
    save_multi_user(&path.0, &db).unwrap();
    let bytes = std::fs::read(&path.0).unwrap();
    let users = db.users_sorted();

    let damaged_path = TempPath::new("flip-out");
    for pos in (0..bytes.len()).step_by(7) {
        for flip in [0x01u8, 0x20] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= flip;
            let parsed = catch_unwind(AssertUnwindSafe(|| read_multi_user(&damaged[..]).map(drop)));
            assert!(
                parsed.is_ok(),
                "reader panicked on byte {pos} flipped by {flip:#04x}"
            );
            std::fs::write(&damaged_path.0, &damaged).unwrap();
            // Either the checksum rejects the damage, or the flip
            // landed somewhere semantically inert (e.g. inside a user
            // name, which the checksum DOES catch, or produced an
            // equivalent parse) — but a *successful* load may never
            // misattribute profiles.
            if let Ok(loaded) = load_multi_user(&damaged_path.0) {
                assert_eq!(
                    loaded.users_sorted(),
                    users,
                    "flip at {pos} (by {flip:#04x}) changed the user set but still loaded"
                );
            }
        }
    }
}

/// Kill-during-save: an injected partial write fails the save and
/// leaves the previous file intact and loadable.
#[test]
fn partial_write_leaves_previous_file_loadable() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("partial");
    let old = study_db(2);
    save_multi_user(&path.0, &old).unwrap();

    let new = study_db(4);
    let plan = FaultPlan::builder(99)
        .truncate_at("storage.save.write", &[1], 0.5)
        .build();
    plan.run(|| {
        let err = save_multi_user(&path.0, &new).expect_err("truncated save must fail");
        assert!(matches!(err, StorageError::Io(_)), "{err:?}");
    });
    assert_eq!(plan.stats().truncations.get("storage.save.write"), Some(&1));

    let loaded = load_multi_user(&path.0).expect("old file intact after failed save");
    assert_eq!(loaded.user_count(), old.user_count());

    // Without the fault the new snapshot replaces the old atomically.
    save_multi_user(&path.0, &new).unwrap();
    assert_eq!(
        load_multi_user(&path.0).unwrap().user_count(),
        new.user_count()
    );
}

#[test]
fn injected_io_errors_surface_as_storage_errors() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("io-faults");
    let db = study_db(2);
    for site in [
        "storage.save.open",
        "storage.save.sync",
        "storage.save.rename",
    ] {
        let plan = FaultPlan::builder(7).fail_at(site, &[1]).build();
        plan.run(|| {
            let err = save_multi_user(&path.0, &db).expect_err(site);
            assert!(matches!(err, StorageError::Io(_)), "{site}: {err:?}");
        });
    }
    // After three failed saves, a clean one succeeds and loads.
    save_multi_user(&path.0, &db).unwrap();
    for site in ["storage.load.open", "storage.load.read"] {
        let plan = FaultPlan::builder(7).fail_at(site, &[1]).build();
        plan.run(|| {
            let err = load_multi_user(&path.0).expect_err(site);
            assert!(matches!(err, StorageError::Io(_)), "{site}: {err:?}");
        });
    }
    assert!(load_multi_user(&path.0).is_ok());
}

/// Saves racing on the same destination never interleave bytes: each
/// temp file is private, the rename is atomic, and the survivor is one
/// of the complete snapshots.
#[test]
fn concurrent_saves_yield_a_complete_snapshot() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("race");
    let dbs: Vec<MultiUserDb> = (1..=4).map(study_db).collect();
    std::thread::scope(|s| {
        for db in &dbs {
            s.spawn(|| save_multi_user(&path.0, db).unwrap());
        }
    });
    let winner = load_multi_user(&path.0).expect("some complete snapshot");
    assert!((1..=4).contains(&winner.user_count()));
}
