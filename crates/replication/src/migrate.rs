//! Per-user snapshot and catch-up surface for live migration.
//!
//! A migration moves exactly one user between two *clusters* (not two
//! nodes of one cluster — that is replication's job). The primitives
//! here are deliberately tiny and composable, because the migration
//! *driver* lives in the routing tier and must be able to retry every
//! step idempotently:
//!
//! * [`user_cut`] — a consistent `(profile, shard, last_lsn)` triple
//!   taken under the user's WAL-shard mutex, so the WAL suffix
//!   strictly after `last_lsn` is exactly what the snapshot misses.
//! * `ctxpref_wal::snapshot::snapshot_ops` — the profile rendered as
//!   ordinary WAL-op bytes (`AddUser` + one `InsertPreference` per
//!   preference), as a checkpoint's user frame holds them. The
//!   destination applies them through its own normal write path and
//!   its own LSN space; nothing about the source's LSNs leaks into it.
//! * [`user_suffix`] — the catch-up cursor: the shard's records after
//!   a cut, filtered down to the migrating user, plus the highest LSN
//!   *scanned* (so the cursor advances past other users' records).
//!   Because replicas mirror the primary's per-shard LSN sequence
//!   exactly, this cursor stays valid across a failover of the source
//!   cluster mid-migration.
//! * [`user_digest`] — the digest of one user's profile, computed as
//!   the anti-entropy stripe digests are, compared source↔destination
//!   at cut-over.

use ctxpref_profile::Profile;
use ctxpref_wal::{DurableDb, UserCut, WalOp};

use crate::digest::stripe_digest;
use crate::error::ReplicationError;

/// A page of the per-user WAL suffix.
#[derive(Debug, Clone, Default)]
pub struct UserSuffix {
    /// The highest LSN scanned (including other users' records); the
    /// next pull should start at `through + 1`. Equal to `from_lsn -
    /// 1` when nothing new was scanned.
    pub through: u64,
    /// `(lsn, payload)` of every scanned record that targets the
    /// migrating user, in LSN order.
    pub records: Vec<(u64, Vec<u8>)>,
}

/// A consistent per-user cut of `db` (see [`DurableDb::user_cut`]).
pub fn user_cut(db: &DurableDb, user: &str) -> UserCut {
    db.user_cut(user)
}

/// Read one page of `user`'s WAL suffix: up to `max` records of
/// `shard` with LSN ≥ `from_lsn`, filtered to the records that target
/// `user`. `Ok(None)` means the suffix below `from_lsn` has been
/// garbage-collected into a checkpoint — the caller must restart from
/// a fresh [`user_cut`].
pub fn user_suffix(
    db: &DurableDb,
    user: &str,
    shard: usize,
    from_lsn: u64,
    max: usize,
) -> Result<Option<UserSuffix>, ReplicationError> {
    let Some(records) = db
        .read_shard_from(shard, from_lsn, max)
        .map_err(ReplicationError::Wal)?
    else {
        return Ok(None);
    };
    let core = db.db();
    let mut page = UserSuffix {
        through: from_lsn.saturating_sub(1),
        records: Vec::new(),
    };
    for rec in records {
        page.through = rec.lsn;
        let op = WalOp::decode(&rec.payload, core.env(), core.relation())
            .map_err(ReplicationError::Wal)?;
        if op.user() == user {
            page.records.push((rec.lsn, rec.payload));
        }
    }
    Ok(Some(page))
}

/// The digest of one user's profile, as the anti-entropy stripe
/// digest of that user alone.
pub fn user_digest(user: &str, profile: &Profile) -> u64 {
    stripe_digest([(user, profile)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_core::ShardedMultiUserDb;
    use ctxpref_testkit::TempDir;
    use ctxpref_wal::snapshot::snapshot_ops;
    use ctxpref_wal::WalOptions;
    use ctxpref_workload::reference::{tiny_env, tiny_relation};
    use std::sync::Arc;

    #[test]
    fn cut_plus_suffix_reconstructs_user() {
        let dir = TempDir::new("repl-migrate");
        let env = tiny_env();
        let rel = tiny_relation();
        let core = Arc::new(ShardedMultiUserDb::new(env.clone(), rel.clone(), 2, 2));
        let db = DurableDb::create(&dir, core, WalOptions::default()).unwrap();
        db.add_user("ada").unwrap();
        db.add_user("bob").unwrap();

        let cut = user_cut(&db, "ada");
        let before = cut.profile.clone().unwrap();

        // Mutations after the cut: some for ada, some for bob.
        db.remove_user("bob").unwrap();
        db.add_user("bob").unwrap();

        let page = user_suffix(&db, "ada", cut.shard, cut.last_lsn + 1, 64)
            .unwrap()
            .unwrap();
        // Interleaved bob traffic on the same shard advances the
        // cursor without shipping bob's records.
        assert!(page
            .records
            .iter()
            .all(|(_, p)| { WalOp::decode(p, &env, &rel).unwrap().user() == "ada" }));

        let ops = snapshot_ops("ada", &before);
        assert!(!ops.is_empty());
        let d1 = user_digest("ada", &before);
        let d2 = user_digest("ada", &db.user_cut("ada").profile.unwrap());
        assert_eq!(d1, d2, "no ada mutations since the cut");
    }

    #[test]
    fn suffix_reports_gc_as_none() {
        let dir = TempDir::new("repl-migrate");
        let core = Arc::new(ShardedMultiUserDb::new(tiny_env(), tiny_relation(), 2, 1));
        let db = DurableDb::create(&dir, core, WalOptions::default()).unwrap();
        db.add_user("ada").unwrap();
        db.checkpoint().unwrap();
        db.add_user("bob").unwrap();
        // LSN 1 (ada) was checkpointed away; a cursor below the
        // checkpoint boundary must demand a fresh snapshot.
        assert!(user_suffix(&db, "ada", 0, 1, 8).unwrap().is_none());
    }
}
