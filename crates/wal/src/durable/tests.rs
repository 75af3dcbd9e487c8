//! [`DurableDb::try_apply`]: when it hands an op back, and that what it
//! does take is logged and applied exactly as [`DurableDb::apply`]
//! would. And [`DurableDb::scrub`] never holds up an append.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctxpref_context::ContextDescriptor;
use ctxpref_core::ShardedMultiUserDb;
use ctxpref_faults::{sites, FaultPlan};
use ctxpref_profile::{AttributeClause, ContextualPreference};
use ctxpref_testkit::TempDir;
use ctxpref_workload::reference::{tiny_env, tiny_relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;
use crate::segment::segment_path;
use crate::wal::SyncPolicy;

const USERS: &[&str] = &["ann", "bob", "cat", "dan"];

fn group_commit(segment_max_bytes: u64) -> WalOptions {
    WalOptions {
        sync: SyncPolicy::GroupCommit {
            flush_interval: Duration::from_secs(3600),
        },
        segment_max_bytes,
    }
}

/// A fresh durable database of `shards` stripes with every user of
/// [`USERS`] registered.
fn durable(dir: &Path, shards: usize, opts: WalOptions) -> DurableDb {
    let db = Arc::new(ShardedMultiUserDb::new(
        tiny_env(),
        tiny_relation(),
        2,
        shards,
    ));
    let durable = DurableDb::create(dir, db, opts).expect("create");
    for user in USERS {
        durable.add_user(user).expect("add user");
    }
    durable
}

fn insert(user: &str, value: &str, score: f64) -> WalOp {
    let attr = tiny_relation().schema().require_attr("name").expect("name");
    let pref = ContextualPreference::new(
        ContextDescriptor::empty(),
        AttributeClause::eq(attr, value.into()),
        score,
    )
    .expect("valid score");
    WalOp::InsertPreference {
        user: user.into(),
        pref,
    }
}

/// Where `user`'s WAL shard stands: its next LSN and its segment's
/// length on disk.
fn position(db: &DurableDb, user: &str) -> (u64, u64) {
    let guard = db.wal.shard(db.db().shard_of(user));
    let path = segment_path(db.dir(), guard.shard(), guard.seg_no());
    let len = std::fs::metadata(path).expect("segment").len();
    (guard.next_lsn(), len)
}

/// `op` is handed back by `try_apply`, while `hold` holds what it
/// returns, with the op's shard unmoved.
fn handed_back<G>(db: &DurableDb, op: WalOp, hold: impl FnOnce() -> G) {
    let user = op.user().to_string();
    let before = position(db, &user);
    let held = hold();
    assert!(
        db.try_apply(op).is_none(),
        "try_apply took an op it must hand back"
    );
    drop(held);
    assert_eq!(
        position(db, &user),
        before,
        "a handed-back op moved its shard"
    );
}

#[test]
fn try_apply_hands_back_with_nothing_appended() {
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("try-apply-hand-back");
    let db = durable(&dir, 2, group_commit(1 << 20));
    let shard = db.db().shard_of("ann");

    // The WAL shard's mutex is held.
    handed_back(&db, insert("ann", "alpha", 0.5), || db.wal.shard(shard));
    // The user's stripe is read-locked.
    handed_back(&db, insert("ann", "alpha", 0.5), || {
        db.db().read_user_shard("ann")
    });
    // Both free: taken.
    let ack = db.try_apply(insert("ann", "alpha", 0.5)).expect("taken");
    assert!(!ack.expect("applied").durable);

    // Per-record sync: a fsync per append never runs on the caller.
    let dir = TempDir::new("try-apply-per-record");
    let db = durable(&dir, 2, WalOptions::default());
    handed_back(&db, insert("ann", "alpha", 0.5), || ());
}

#[test]
fn try_apply_hands_back_exactly_the_append_that_would_rotate() {
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("try-apply-rotate");
    let db = durable(&dir, 1, group_commit(256));
    let rotations = db.wal_totals().rotations;
    // A record is under 40 bytes, so a 256-byte segment holds a few.
    let taken = (0..256)
        .take_while(|_| db.try_apply(insert("ann", "alpha", 0.5)).is_some())
        .count();
    assert!((1..256).contains(&taken), "try_apply took {taken} records");
    assert_eq!(db.wal_totals().rotations, rotations, "try_apply rotated");
    handed_back(&db, insert("ann", "alpha", 0.5), || ());
    // The op it handed back is the one whose append rotates.
    db.apply(insert("ann", "alpha", 0.5)).expect("apply");
    assert_eq!(db.wal_totals().rotations, rotations + 1);
}

#[test]
fn a_rejected_op_is_logged_as_apply_logs_it() {
    let _serial = ctxpref_faults::exclusive();
    let op = WalOp::RemovePreference {
        user: "ann".into(),
        index: 7,
    };
    let (a, b) = (TempDir::new("reject-apply"), TempDir::new("reject-try"));
    let (by_apply, by_try) = (
        durable(&a, 1, group_commit(1 << 20)),
        durable(&b, 1, group_commit(1 << 20)),
    );
    let applied = by_apply.apply(op.clone()).expect_err("bad index");
    let tried = by_try.try_apply(op).expect("taken").expect_err("bad index");
    assert_eq!(tried.to_string(), applied.to_string());
    assert_eq!(position(&by_try, "ann"), position(&by_apply, "ann"));
    let segment = |db: &DurableDb| std::fs::read(segment_path(db.dir(), 0, 1)).expect("segment");
    assert_eq!(segment(&by_try), segment(&by_apply));
}

/// A seeded op over [`USERS`]: mostly inserts, re-scores and removals
/// of preferences (some at indexes the profile lacks), now and then a
/// user removal or re-add.
fn random_op(rng: &mut StdRng) -> WalOp {
    let user = USERS[rng.random_range(0..USERS.len())].to_string();
    let score = f64::from(rng.random_range(1..=10u32)) / 10.0;
    let index = rng.random_range(0..6);
    match rng.random_range(0..100) {
        0..40 => insert(&user, ["alpha", "beta"][rng.random_range(0..2usize)], score),
        40..65 => WalOp::UpdateScore { user, index, score },
        65..90 => WalOp::RemovePreference { user, index },
        90..95 => WalOp::RemoveUser { user },
        _ => WalOp::AddUser { user },
    }
}

/// The bytes of `db`'s whole state, in the save format.
fn state(db: &ShardedMultiUserDb) -> Vec<u8> {
    crate::snapshot::encode_multi_user(&db.snapshot()).expect("serialize")
}

/// An ack as the caller sees it: result, shard, LSN and what it
/// displaced.
fn seen(ack: Result<Ack, DurableError>) -> String {
    match ack {
        Ok(ack) => {
            // A profile's `Debug` shows its environment's hash maps, in
            // no fixed order; its preferences are what it holds.
            let displaced = match ack.displaced {
                Displaced::Profile(p) => format!("{:?}", p.preferences()),
                other => format!("{other:?}"),
            };
            format!("{} {} {displaced}", ack.shard, ack.lsn)
        }
        Err(e) => format!("refused: {e}"),
    }
}

#[test]
fn a_seeded_mix_of_try_apply_and_apply_acks_and_recovers_as_apply_alone() {
    let _serial = ctxpref_faults::exclusive();
    for seed in 0..4 {
        let ops: Vec<WalOp> = {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..300).map(|_| random_op(&mut rng)).collect()
        };
        let (a, b) = (TempDir::new("mix-apply"), TempDir::new("mix-try"));
        let opts = group_commit(1024);
        let (by_apply, mixed) = (durable(&a, 3, opts), durable(&b, 3, opts));
        let mut pick = StdRng::seed_from_u64(seed + 1000);
        let (mut tried, mut returned) = (0, 0);
        for (at, op) in ops.into_iter().enumerate() {
            let want = seen(by_apply.apply(op.clone()));
            let got = if pick.random_bool(0.5) {
                tried += 1;
                mixed.try_apply(op.clone()).unwrap_or_else(|| {
                    returned += 1;
                    mixed.apply(op)
                })
            } else {
                mixed.apply(op)
            };
            assert_eq!(seen(got), want, "seed {seed}, op {at}");
        }
        assert!(
            tried > returned && returned > 0,
            "seed {seed}: {returned} of {tried} handed back"
        );
        let live = state(mixed.db());
        assert_eq!(live, state(by_apply.db()), "seed {seed}");
        drop(mixed);
        let (recovered, _) = DurableDb::recover(&b, opts).expect("recover");
        assert_eq!(state(recovered.db()), live, "seed {seed}: recovery");
    }
}

/// A scrub pass takes no shard lock: with its first segment check
/// stalled for two seconds, an append to the same shard returns inside
/// the stall, and the pass still verifies the sealed segments clean.
#[test]
fn an_append_returns_while_a_scrub_pass_is_stalled() {
    const STALL: Duration = Duration::from_secs(2);
    let _serial = ctxpref_faults::exclusive();
    let dir = TempDir::new("scrub-stall");
    let db = durable(&dir, 1, group_commit(256));
    while db.wal_totals().rotations < 2 {
        db.apply(insert("ann", "alpha", 0.5)).expect("apply");
    }
    let plan = FaultPlan::builder(0)
        .delay_at(sites::WAL_SCRUB, &[1], STALL)
        .build();
    let _plan = ctxpref_faults::install(Arc::clone(&plan));
    let started = Instant::now();
    std::thread::scope(|scope| {
        let pass = scope.spawn(|| db.scrub().expect("scrub"));
        while plan.hit_count(sites::WAL_SCRUB) == 0 {
            assert!(
                started.elapsed() < STALL,
                "the pass never reached a segment"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        db.apply(insert("ann", "beta", 0.5)).expect("append");
        let appended = started.elapsed();
        assert!(
            appended < STALL,
            "the append waited {appended:?} for the scrub"
        );
        let report = pass.join().expect("scrub thread");
        assert!(report.segments_verified > 0, "{report:?}");
        assert!(report.quarantined.is_empty(), "{report:?}");
    });
}
