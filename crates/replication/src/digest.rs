//! Anti-entropy digests.
//!
//! A digest is the frame checksum over the op bytes that rebuild the
//! users it covers (`ctxpref_wal::snapshot::snapshot_ops`: each user's
//! `AddUser`, then one `InsertPreference` per preference), users in
//! sorted order. Those are the bytes the WAL logs, migration ships and
//! a checkpoint's user frames hold, so anything
//! that round-trips identically digests identically: two nodes whose
//! shard digests match hold equal shard contents, and a mismatch marks
//! the shard for resync.

use ctxpref_bytes::frame_checksum;
use ctxpref_profile::Profile;
use ctxpref_wal::snapshot::snapshot_ops;
use ctxpref_wal::DurableDb;

/// Digest users given as borrowed `(name, profile)` pairs, already
/// sorted by name (as `ShardedMultiUserDb::stripe_indexes` returns them).
pub fn stripe_digest<'a>(users: impl IntoIterator<Item = (&'a str, &'a Profile)>) -> u64 {
    let mut bytes = Vec::new();
    for (name, profile) in users {
        for op in snapshot_ops(name, profile) {
            bytes.extend_from_slice(&op);
        }
    }
    frame_checksum(&bytes)
}

/// Every shard's digest for one node, in shard order.
pub fn node_digests(db: &DurableDb) -> Vec<u64> {
    let core = db.db();
    (0..db.num_shards())
        .map(|ix| {
            let users = core.stripe_indexes(ix);
            stripe_digest(
                users
                    .iter()
                    .map(|(name, idx)| (name.as_str(), idx.profile())),
            )
        })
        .collect()
}
