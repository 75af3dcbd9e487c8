//! The replication wire vocabulary.
//!
//! Every message travels in an [`Envelope`] stamped with the sender's
//! node id and **epoch**. The epoch is the fencing token: a receiver
//! whose own epoch is higher rejects the message with [`Reply::Fenced`]
//! (the sender was deposed and must demote), and a receiver seeing a
//! *higher* epoch adopts it first — so a single stale primary can never
//! overwrite state the new epoch's primary is responsible for.

use ctxpref_profile::Profile;

/// A node's identity within one replication cluster (its index).
pub type NodeId = usize;

/// One shipped log record: the primary-assigned LSN and the record's
/// op bytes (the same `WalOp` encoding the WAL itself stores).
pub type ShippedRecord = (u64, Vec<u8>);

/// What a replication message asks the receiver to do.
#[derive(Debug, Clone)]
pub enum Message {
    /// Apply these records to one shard, in LSN order.
    Records {
        /// The WAL shard (== core stripe) the records belong to.
        shard: usize,
        /// The records, contiguous and ascending by LSN.
        records: Vec<ShippedRecord>,
    },
    /// Install a full snapshot: per-stripe users plus the LSN watermark
    /// each stripe was cut at (bootstrap / lagging-replica catch-up).
    Snapshot {
        /// Users per stripe, indexed like the receiver's shards.
        stripes: Vec<Vec<(String, Profile)>>,
        /// Per-shard watermark LSNs.
        lsns: Vec<u64>,
    },
    /// Liveness probe; the reply carries the receiver's applied LSNs.
    Heartbeat,
    /// Ask for the receiver's per-shard anti-entropy digests.
    DigestRequest,
    /// Replace one divergent shard outright (anti-entropy repair).
    Resync {
        /// The shard to replace.
        shard: usize,
        /// The shard's authoritative contents.
        users: Vec<(String, Profile)>,
        /// The LSN the shard's sequence continues after.
        last_lsn: u64,
    },
}

impl Message {
    /// Whether this is a heartbeat (they pass through their own
    /// fault site so the failure detector can be exercised without
    /// touching data traffic).
    pub fn is_heartbeat(&self) -> bool {
        matches!(self, Self::Heartbeat)
    }
}

/// A message plus its routing and fencing metadata.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// The sending node.
    pub from: NodeId,
    /// The sender's epoch at send time.
    pub epoch: u64,
    /// The request itself.
    pub msg: Message,
}

/// What the receiver did with a message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Records were applied (duplicates skipped); the shard now needs
    /// `next_lsn` next. A `next_lsn` at or below the batch's first LSN
    /// means nothing applied — the sender's cursor must move there
    /// (or fall back to a snapshot if its log no longer has it).
    Progress {
        /// The LSN the receiving shard needs next.
        next_lsn: u64,
    },
    /// The snapshot was installed and checkpointed.
    SnapshotInstalled,
    /// Heartbeat acknowledgement.
    Beat {
        /// The receiver's epoch.
        epoch: u64,
        /// The receiver's last applied LSN per shard.
        applied: Vec<u64>,
    },
    /// Per-shard anti-entropy digests.
    Digests {
        /// The digest per shard ([`crate::stripe_digest`]), canonical
        /// across nodes.
        digests: Vec<u64>,
    },
    /// The divergent shard was replaced and checkpointed.
    Resynced,
    /// The sender's epoch is stale: it was deposed. The sender must
    /// adopt `current` and demote itself.
    Fenced {
        /// The receiver's (higher) epoch.
        current: u64,
    },
    /// The receiver failed to process the message (durable-layer
    /// error); the sender should retry later.
    Failed {
        /// Human-readable cause.
        reason: String,
    },
}
