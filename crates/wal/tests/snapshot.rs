//! Snapshots at rest: whole-database round trips, the bytes a user
//! frame holds, index sharing after a load, crash safety of the save
//! path (atomic writes, every frame checksummed, injected faults, a
//! fuzz over every prefix and over flipped bytes), and the refusal of
//! `ctxpref v1` text files. Every test holds `ctxpref_faults::exclusive()`:
//! saves and loads pass fault sites, and some tests install plans.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ctxpref_bytes::{open_frame, seal_frame, split_frame, FRAME_HEADER};
use ctxpref_context::{ContextDescriptor, ContextEnvironment, ContextState, ParameterDescriptor};
use ctxpref_core::{ContextualDb, MultiUserDb, ShardedMultiUserDb};
use ctxpref_faults::FaultPlan;
use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder};
use ctxpref_profile::{AttributeClause, ContextualPreference, ParamOrder, Profile};
use ctxpref_relation::{AttrType, CompareOp, Relation, Schema, Value};
use ctxpref_testkit::TempDir;
use ctxpref_wal::snapshot::{
    load_database, load_multi_user, save_database, save_multi_user, snapshot_ops, MAGIC,
};
use ctxpref_wal::{DurableDb, WalError, WalOptions};
use ctxpref_workload::reference::{poi_env, poi_relation, reference_env};
use ctxpref_workload::synthetic::{random_query_states, SyntheticSpec, ValueDist};
use ctxpref_workload::user_study::{all_demographics, default_profile};
use proptest::prelude::*;

/// A snapshot path inside a fresh directory, removed on drop.
struct TempPath {
    _dir: TempDir,
    path: PathBuf,
}

impl TempPath {
    fn new(tag: &str) -> Self {
        let dir = TempDir::new(&format!("snapshot-{tag}"));
        let path = dir.join("db.snap");
        Self { _dir: dir, path }
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

/// The payloads of a snapshot's frames, the header's first.
fn frames(bytes: &[u8]) -> Vec<&[u8]> {
    let mut rest = bytes.strip_prefix(MAGIC).expect("the snapshot magic");
    let mut out = Vec::new();
    while !rest.is_empty() {
        let (payload, len) = split_frame(rest).unwrap().expect("a whole frame");
        out.push(payload);
        rest = &rest[len..];
    }
    out
}

/// Three users with a handful of hand-built preferences each (distinct
/// scores, one multi-parameter descriptor) over a tiny relation: a
/// genuinely multi-user file that stays small enough for the O(file²)
/// byte fuzzes.
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

/// A database whose preferences use `In` and `Range` clauses and a `≤`
/// clause, over every attribute type, with a cache.
fn demo_db() -> ContextualDb {
    let env = reference_env();
    let schema = Schema::new(&[
        ("name", AttrType::Str),
        ("type", AttrType::Str),
        ("open_air", AttrType::Bool),
        ("cost", AttrType::Float),
        ("pid", AttrType::Int),
    ])
    .unwrap();
    let mut rel = Relation::new("Points of Interest", schema);
    rel.insert(vec![
        "Acropolis".into(),
        "monument".into(),
        true.into(),
        12.5.into(),
        1.into(),
    ])
    .unwrap();
    rel.insert(vec![
        "Mikro Brewery".into(),
        "brewery".into(),
        false.into(),
        0.0.into(),
        2.into(),
    ])
    .unwrap();
    let mut db = ContextualDb::builder()
        .env(env)
        .relation(rel)
        .cache_capacity(17)
        .build()
        .unwrap();
    db.insert_preference_eq(
        "location = Plaka and temperature in {warm, hot}",
        "name",
        "Acropolis".into(),
        0.8,
    )
    .unwrap();
    db.insert_preference_eq(
        "accompanying_people = friends",
        "type",
        "brewery".into(),
        0.9,
    )
    .unwrap();
    db.insert_preference_cmp(
        "temperature in [mild, hot]",
        "cost",
        CompareOp::Le,
        10.0.into(),
        0.45,
    )
    .unwrap();
    db
}

/// Every value of every hierarchy keeps its id, name and level, so the
/// ids a logged op carries mean the same values after a load.
fn assert_same_env(a: &ContextEnvironment, b: &ContextEnvironment) {
    assert_eq!(a.len(), b.len());
    for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
        assert_eq!(x.name(), y.name());
        assert_eq!(x.level_count(), y.level_count());
        assert_eq!(x.value_count(), y.value_count());
        for v in x.edom() {
            assert_eq!(x.value_name(v), y.value_name(v), "{}: {v:?}", x.name());
            assert_eq!(x.level_of(v), y.level_of(v));
            assert_eq!(x.parent(v), y.parent(v));
            assert_eq!(x.leaf_range(v), y.leaf_range(v));
        }
        y.validate().unwrap();
    }
}

#[test]
fn database_roundtrip_preserves_everything() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("database");
    let db = demo_db();
    save_database(&path, &db).unwrap();
    assert!(std::fs::read(&path).unwrap().starts_with(MAGIC));
    let restored = load_database(&path).unwrap();

    assert_same_env(db.env(), restored.env());
    assert_eq!(restored.profile().preferences(), db.profile().preferences());
    assert_eq!(restored.relation().tuples(), db.relation().tuples());
    assert_eq!(restored.relation().name(), "Points of Interest");
    assert_eq!(restored.cache_capacity(), 17);
    assert_eq!(
        restored.tree().order().params(),
        db.tree().order().params(),
        "tree ordering survives"
    );
    assert_eq!(restored.tree_stats(), db.tree_stats());

    for names in [["Plaka", "warm", "friends"], ["Perama", "cold", "family"]] {
        let q = ContextState::parse(db.env(), &names).unwrap();
        let a = db.query_state(&q).unwrap();
        let b = restored.query_state(&q).unwrap();
        assert_eq!(a.results.entries(), b.results.entries());
    }
}

#[test]
fn a_tree_order_and_cache_capacity_survive() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("order");
    let env = poi_env();
    let default = ParamOrder::by_ascending_domain(&env);
    let reversed = ParamOrder::new(&env, default.params().iter().rev().copied().collect()).unwrap();
    assert_ne!(reversed.params(), default.params());
    let mut db = ContextualDb::builder()
        .env(env.clone())
        .relation(poi_relation(&env, 5, 2))
        .order(reversed.clone())
        .cache_capacity(3)
        .build()
        .unwrap();
    db.insert_preference_eq("temperature = good", "type", "monument".into(), 0.8)
        .unwrap();
    save_database(&path, &db).unwrap();

    let restored = load_database(&path).unwrap();
    assert_eq!(restored.tree().order().params(), reversed.params());
    assert_eq!(restored.cache_capacity(), 3);
    // A multi-user load of the same file serves the profile as `me`,
    // under the same order.
    let multi = load_multi_user(&path).unwrap();
    assert_eq!(multi.users_sorted(), ["me"]);
    assert_eq!(multi.order().params(), reversed.params());
    assert_eq!(
        multi.tree("me").unwrap().order().params(),
        reversed.params()
    );
    assert_eq!(multi.cache_capacity(), 3);
}

#[test]
fn second_roundtrip_is_a_fixed_point() {
    let _serial = ctxpref_faults::exclusive();
    let first = TempPath::new("fixed-1");
    let second = TempPath::new("fixed-2");
    save_database(&first, &demo_db()).unwrap();
    save_database(&second, &load_database(&first).unwrap()).unwrap();
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap()
    );

    save_multi_user(&first, &study_db(4)).unwrap();
    save_multi_user(&second, &load_multi_user(&first).unwrap()).unwrap();
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap()
    );
}

#[test]
fn awkward_strings_roundtrip() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("awkward");
    let awkward = [
        "",
        "spa ces",
        "tab\tand\nnewline",
        "back\\slash",
        "ünïcode πλάκα",
    ];
    let mut b = HierarchyBuilder::new("weird name\twith tab", &["lev el", "top\nlevel"]);
    b.add("top\nlevel", "up per", None).unwrap();
    for v in &awkward[1..] {
        b.add("lev el", v, Some("up per")).unwrap();
    }
    let env = ContextEnvironment::new(vec![
        b.build().unwrap(),
        Hierarchy::flat("flat one", &["a b", "c\td"]).unwrap(),
    ])
    .unwrap();
    let schema = Schema::new(&[("s s", AttrType::Str), ("f\n", AttrType::Float)]).unwrap();
    let mut rel = Relation::new("weird name\twith tab", schema);
    for s in awkward {
        rel.insert(vec![s.into(), 0.1.into()]).unwrap();
    }
    rel.insert(vec!["neg".into(), (-1.5e-9).into()]).unwrap();
    let mut db = MultiUserDb::new(env.clone(), rel, 0);
    let flat = env.require_param("flat one").unwrap();
    let value = env.hierarchy(flat).lookup("c\td").unwrap();
    let descriptor = ContextDescriptor::from_clauses(vec![(flat, ParameterDescriptor::Eq(value))]);
    let attr = db.relation().schema().require_attr("s s").unwrap();
    let clause = AttributeClause::eq(attr, "tab\tand\nnewline".into());
    let pref = ContextualPreference::new(descriptor, clause, 0.5).unwrap();
    for user in awkward {
        db.add_user(user).unwrap();
        db.insert_preference(user, pref.clone()).unwrap();
    }
    save_multi_user(&path, &db).unwrap();

    let restored = load_multi_user(&path).unwrap();
    assert_same_env(db.env(), restored.env());
    assert_eq!(restored.relation().name(), db.relation().name());
    assert_eq!(restored.relation().tuples(), db.relation().tuples());
    assert_eq!(restored.users_sorted(), db.users_sorted());
    for user in awkward {
        assert_eq!(
            restored.profile(user).unwrap().preferences(),
            db.profile(user).unwrap().preferences()
        );
    }
}

#[test]
fn float_scores_roundtrip_exactly() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("floats");
    let env = reference_env();
    let rel = Relation::new("r", Schema::new(&[("x", AttrType::Str)]).unwrap());
    let mut db = ContextualDb::builder()
        .env(env.clone())
        .relation(rel)
        .build()
        .unwrap();
    let scores = [
        0.1,
        1.0 / 3.0,
        std::f64::consts::FRAC_1_SQRT_2,
        f64::MIN_POSITIVE,
        1.0,
    ];
    for (i, score) in scores.iter().enumerate() {
        let temperature = ["freezing", "cold", "mild", "warm", "hot"][i];
        db.insert_preference_eq(
            &format!("temperature = {temperature}"),
            "x",
            Value::str(&format!("v{i}")),
            *score,
        )
        .unwrap();
    }
    save_database(&path, &db).unwrap();
    let restored = load_database(&path).unwrap();
    assert_eq!(restored.profile().len(), scores.len());
    for (a, b) in db.profile().iter().zip(restored.profile().iter()) {
        assert_eq!(a.score().to_bits(), b.score().to_bits());
    }
}

#[test]
fn multi_user_roundtrip_preserves_users_and_answers() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("multi");
    let db = study_db(4);
    save_multi_user(&path, &db).unwrap();
    let restored = load_multi_user(&path).unwrap();

    assert_eq!(restored.user_count(), db.user_count());
    assert_eq!(restored.cache_capacity(), db.cache_capacity());
    assert_eq!(restored.users_sorted(), db.users_sorted());
    for user in db.users_sorted() {
        assert_eq!(
            restored.profile(user).unwrap().preferences(),
            db.profile(user).unwrap().preferences(),
            "profile of {user}"
        );
        assert_eq!(
            restored.tree_stats(user).unwrap(),
            db.tree_stats(user).unwrap(),
            "tree stats for {user}"
        );
    }
    let env = db.env().clone();
    for names in [["Plaka", "warm", "friends"], ["Ladadika", "cold", "family"]] {
        let state = ContextState::parse(&env, &names).unwrap();
        for user in db.users_sorted() {
            let a = db.query_state(user, &state).unwrap();
            let b = restored.query_state(user, &state).unwrap();
            assert_eq!(
                a.results.entries(),
                b.results.entries(),
                "{user} @ {names:?}"
            );
        }
    }
}

#[test]
fn an_empty_database_roundtrips() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("empty");
    let db = MultiUserDb::new(poi_env(), poi_relation(&poi_env(), 1, 1), 0);
    save_multi_user(&path, &db).unwrap();
    assert_eq!(frames(&std::fs::read(&path).unwrap()).len(), 1);
    assert_eq!(load_multi_user(&path).unwrap().user_count(), 0);
}

#[test]
fn full_poi_database_roundtrip_resolves_identically() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("poi");
    let env = poi_env();
    let mut db = ContextualDb::builder()
        .env(env.clone())
        .relation(poi_relation(&env, 11, 4))
        .build()
        .unwrap();
    for (cod, ty, score) in [
        ("temperature = good", "monument", 0.8),
        (
            "temperature = bad and accompanying_people = alone",
            "museum",
            0.85,
        ),
        ("location = Thessaloniki", "market", 0.75),
    ] {
        db.insert_preference_eq(cod, "type", ty.into(), score)
            .unwrap();
    }
    save_database(&path, &db).unwrap();
    let restored = load_database(&path).unwrap();
    for q in random_query_states(&env, 30, 0.4, 3) {
        let a = db.query_state(&q).unwrap();
        let b = restored.query_state(&q).unwrap();
        assert_eq!(
            a.results.entries(),
            b.results.entries(),
            "q = {}",
            q.display(&env)
        );
    }
}

#[test]
fn a_user_frame_holds_the_users_snapshot_ops() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("ops");
    let db = study_db(3);
    save_multi_user(&path, &db).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let frames = frames(&bytes);
    let users = db.users_sorted();
    assert_eq!(
        frames.len(),
        1 + users.len(),
        "a header, then a frame per user"
    );
    for (user, payload) in users.iter().zip(&frames[1..]) {
        let ops = snapshot_ops(user, db.profile(user).unwrap());
        assert_eq!(*payload, ops.concat(), "{user}");
    }
}

#[test]
fn equal_profiles_share_indexes_after_a_load() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("shared");
    let env = poi_env();
    let mut db = MultiUserDb::new(env.clone(), poi_relation(&env, 7, 4), 8);
    let profiles: Vec<Profile> = all_demographics()
        .into_iter()
        .take(3)
        .map(|demo| default_profile(&env, db.relation(), demo))
        .collect();
    for i in 0..12 {
        db.add_user_with_profile(&format!("user{i:02}"), profiles[i % 3].clone())
            .unwrap();
    }
    save_multi_user(&path, &db).unwrap();

    let core = ShardedMultiUserDb::from_db(load_multi_user(&path).unwrap(), 4);
    let indexes: Vec<_> = (0..core.num_shards())
        .flat_map(|ix| core.stripe_indexes(ix))
        .collect();
    assert_eq!(indexes.len(), 12);
    let mut distinct: Vec<_> = Vec::new();
    for (_, index) in &indexes {
        if !distinct.iter().any(|d| Arc::ptr_eq(d, index)) {
            distinct.push(Arc::clone(index));
        }
    }
    assert_eq!(distinct.len(), 3, "12 users over 3 profiles hold 3 indexes");
}

/// The text a `ctxpref v1` build saved, checksum line included.
const V1_FILE: &str =
    "ctxpref v1\nchecksum 0123456789abcdef\nhierarchy w\nlevels L\nv L a -\nend\n";

#[test]
fn a_v1_file_is_refused_by_version() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("v1");
    std::fs::write(&path, V1_FILE).unwrap();
    match load_multi_user(&path) {
        Err(WalError::Version { found, .. }) => assert_eq!(found, "ctxpref v1"),
        other => panic!("expected Version, got {:?}", other.map(|_| ())),
    }
    assert!(matches!(
        load_database(&path),
        Err(WalError::Version { .. })
    ));
}

#[test]
fn recovery_refuses_a_v1_checkpoint_by_version() {
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("snapshot-v1-recover");
    let core = Arc::new(ShardedMultiUserDb::from_db(tiny_multi_user_db(), 2));
    let db = DurableDb::create(&dir, core, WalOptions::default()).unwrap();
    let checkpoint = db.manifest().checkpoint_path(&dir);
    drop(db);
    std::fs::write(&checkpoint, V1_FILE).unwrap();
    match DurableDb::recover(&dir, WalOptions::default()) {
        Err(WalError::Version { path, found }) => {
            assert_eq!(path, checkpoint);
            assert_eq!(found, "ctxpref v1");
        }
        other => panic!("expected Version, got {:?}", other.map(|_| ())),
    }
}

// ---------------------------------------------------------------------------
// Crash safety
// ---------------------------------------------------------------------------

#[test]
fn save_load_roundtrip_with_checksums() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("roundtrip");
    let db = study_db(3);
    save_multi_user(&path, &db).unwrap();

    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(MAGIC));
    assert_eq!(
        frames(&bytes).len(),
        4,
        "every byte after the magic is framed"
    );

    let restored = load_multi_user(&path).unwrap();
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
    save_multi_user(&path, &study_db(2)).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let target = bytes.len() - 10;
    bytes[target] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();
    match load_multi_user(&path) {
        Err(WalError::Corrupt { reason, .. }) => assert!(reason.contains("checksum"), "{reason}"),
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn a_file_cut_at_a_frame_boundary_is_refused() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("boundary");
    save_multi_user(&path, &tiny_multi_user_db()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let last = frames(&bytes).last().unwrap().len() + FRAME_HEADER;
    std::fs::write(&path, &bytes[..bytes.len() - last]).unwrap();
    match load_multi_user(&path) {
        Err(WalError::Corrupt { reason, .. }) => {
            assert_eq!(reason, "header frame: counts 3 users, the file holds 2")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
}

/// The truncation fuzz, on a genuinely multi-user file (three users,
/// so the cut can land in the header, inside any user frame, or between
/// two frames): every strict prefix of the saved file is refused, and
/// no prefix makes the loader panic.
#[test]
fn reader_never_panics_on_any_prefix() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("fuzz");
    let db = tiny_multi_user_db();
    save_multi_user(&path, &db).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(frames(&bytes).len(), 4, "expected a three-user file");

    let truncated = TempPath::new("fuzz-prefix");
    for len in 0..bytes.len() {
        std::fs::write(&truncated, &bytes[..len]).unwrap();
        let loaded = catch_unwind(AssertUnwindSafe(|| load_multi_user(&truncated).map(drop)));
        let loaded =
            loaded.unwrap_or_else(|_| panic!("loader panicked on a prefix of {len} bytes"));
        assert!(loaded.is_err(), "strict prefix of {len} bytes loaded");
    }
    let restored = load_multi_user(&path).unwrap();
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

/// The same under damage instead of truncation: one byte flipped at a
/// stride of positions across the whole file. The loader never panics
/// and never accepts the damaged bytes.
#[test]
fn reader_never_panics_on_flipped_bytes() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("flip");
    save_multi_user(&path, &tiny_multi_user_db()).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    let damaged_path = TempPath::new("flip-out");
    for pos in (0..bytes.len()).step_by(7) {
        for flip in [0x01u8, 0x20] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= flip;
            std::fs::write(&damaged_path, &damaged).unwrap();
            let loaded = catch_unwind(AssertUnwindSafe(|| {
                load_multi_user(&damaged_path).map(drop)
            }));
            let loaded = loaded
                .unwrap_or_else(|_| panic!("loader panicked on byte {pos} flipped by {flip:#04x}"));
            assert!(loaded.is_err(), "byte {pos} flipped by {flip:#04x} loaded");
        }
    }
}

/// Damage the checksums cannot see: each byte of every frame's payload
/// with one bit flipped (bit `byte % 8`) and the frame resealed, as a
/// hostile writer would.
/// The loader decodes it against the header and refuses it typed or
/// loads it, and never panics.
#[test]
fn resealed_damage_never_panics() {
    let _serial = ctxpref_faults::exclusive();
    let path = TempPath::new("reseal");
    save_multi_user(&path, &tiny_multi_user_db()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let payloads = frames(&bytes);

    let damaged_path = TempPath::new("reseal-out");
    for (frame, payload) in payloads.iter().enumerate() {
        for byte in 0..payload.len() {
            let mut damaged = MAGIC.to_vec();
            for (i, p) in payloads.iter().enumerate() {
                let at = open_frame(&mut damaged);
                damaged.extend_from_slice(p);
                if i == frame {
                    damaged[at + FRAME_HEADER + byte] ^= 1 << (byte % 8);
                }
                seal_frame(&mut damaged, at).unwrap();
            }
            std::fs::write(&damaged_path, &damaged).unwrap();
            let loaded = catch_unwind(AssertUnwindSafe(|| {
                load_multi_user(&damaged_path).map(drop)
            }));
            assert!(
                loaded.is_ok(),
                "loader panicked on frame {frame} byte {byte}"
            );
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
    save_multi_user(&path, &old).unwrap();

    let new = study_db(4);
    let plan = FaultPlan::builder(99)
        .truncate_at("storage.save.write", &[1], 0.5)
        .build();
    plan.run(|| {
        let err = save_multi_user(&path, &new).expect_err("truncated save must fail");
        assert!(matches!(err, WalError::Io(_)), "{err:?}");
    });
    assert_eq!(plan.stats().truncations.get("storage.save.write"), Some(&1));

    let loaded = load_multi_user(&path).expect("old file intact after failed save");
    assert_eq!(loaded.user_count(), old.user_count());

    save_multi_user(&path, &new).unwrap();
    assert_eq!(
        load_multi_user(&path).unwrap().user_count(),
        new.user_count()
    );
}

#[test]
fn injected_io_errors_surface_as_io_errors() {
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
            let err = save_multi_user(&path, &db).expect_err(site);
            assert!(matches!(err, WalError::Io(_)), "{site}: {err:?}");
        });
    }
    save_multi_user(&path, &db).unwrap();
    for site in ["storage.load.open", "storage.load.read"] {
        let plan = FaultPlan::builder(7).fail_at(site, &[1]).build();
        plan.run(|| {
            let err = load_multi_user(&path).expect_err(site);
            assert!(matches!(err, WalError::Io(_)), "{site}: {err:?}");
        });
    }
    assert!(load_multi_user(&path).is_ok());
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
            s.spawn(|| save_multi_user(&path, db).unwrap());
        }
    });
    let winner = load_multi_user(&path).expect("some complete snapshot");
    assert!((1..=4).contains(&winner.user_count()));
}

// ---------------------------------------------------------------------------
// Generated round trips
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Relations with arbitrary values round-trip exactly.
    #[test]
    fn relation_roundtrip(
        name in ".{1,20}",
        rows in proptest::collection::vec(
            (any::<i64>(), any::<bool>(), ".{0,24}", any::<f64>()),
            0..20,
        ),
    ) {
        let _serial = ctxpref_faults::exclusive();
        let schema = Schema::new(&[
            ("k", AttrType::Int),
            ("flag", AttrType::Bool),
            ("label", AttrType::Str),
            ("weight", AttrType::Float),
        ])
        .unwrap();
        let mut rel = Relation::new(&name, schema);
        for (k, flag, label, weight) in rows {
            let weight = if weight.is_nan() { 0.0 } else { weight };
            rel.insert(vec![k.into(), flag.into(), Value::str(&label), weight.into()]).unwrap();
        }
        let path = TempPath::new("prop-relation");
        save_multi_user(&path, &MultiUserDb::new(reference_env(), rel.clone(), 0)).unwrap();
        let restored = load_multi_user(&path).unwrap();
        prop_assert_eq!(restored.relation().name(), rel.name());
        prop_assert_eq!(restored.relation().tuples(), rel.tuples());
    }

    /// Synthetic profiles of every shape round-trip preference by
    /// preference.
    #[test]
    fn profile_roundtrip(seed in 0u64..500, n in 1usize..80) {
        let _serial = ctxpref_faults::exclusive();
        let spec = SyntheticSpec {
            domains: vec![vec![8, 4], vec![6], vec![10, 5, 2]],
            dists: vec![ValueDist::Zipf(1.0); 3],
            num_prefs: n,
            clause_values: 6,
            seed,
        };
        let env = spec.build_env();
        let profile: Profile = spec.build_profile(&env);
        let rel = Relation::new("r", Schema::new(&[("a1", AttrType::Str)]).unwrap());
        let mut db = MultiUserDb::new(env.clone(), rel, 0);
        db.add_user_with_profile("u", profile.clone()).unwrap();
        let path = TempPath::new("prop-profile");
        save_multi_user(&path, &db).unwrap();
        let restored = load_multi_user(&path).unwrap();
        prop_assert_eq!(restored.profile("u").unwrap().preferences(), profile.preferences());
    }
}
