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

/// A position in one shard's log: a record's LSN and the epoch that
/// wrote it (`(0, 0)` for an empty log). Ordered by epoch first, the
/// order promotion ranks logs by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogPos {
    /// The epoch that wrote the record at `lsn`.
    pub epoch: u64,
    /// The LSN.
    pub lsn: u64,
}

/// What a replication message asks the receiver to do.
#[derive(Debug, Clone)]
pub enum Message {
    /// Apply these records to one shard. The receiver refuses the
    /// batch unless its own last position on the shard is `prev`.
    Records {
        /// The WAL shard (== core stripe) the records belong to.
        shard: usize,
        /// The position the batch follows.
        prev: LogPos,
        /// The records, contiguous and ascending from `prev.lsn + 1`.
        records: Vec<ShippedRecord>,
        /// The sender's epoch pairs for the shard, up to the last record.
        epochs: Vec<(u64, u64)>,
    },
    /// Liveness probe; the reply carries the receiver's log positions.
    Heartbeat,
    /// Ask for the receiver's per-shard anti-entropy digests.
    DigestRequest,
    /// Replace one shard outright: the catch-up for a diverged or
    /// checkpointed-away tail.
    Resync {
        /// The shard to replace.
        shard: usize,
        /// The shard's authoritative contents.
        users: Vec<(String, Profile)>,
        /// The LSN the shard's sequence continues after.
        last_lsn: u64,
        /// The sender's epoch pairs for the shard up to `last_lsn`.
        epochs: Vec<(u64, u64)>,
    },
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

impl Envelope {
    /// `msg` from node `from`, stamped with `epoch`.
    pub fn new(from: NodeId, epoch: u64, msg: Message) -> Self {
        Self { from, epoch, msg }
    }
}

/// What the receiver did with a message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Records or a resync were handled; the shard's log now ends at
    /// `last`. A refused batch reports the position it did not follow.
    Progress {
        /// The receiving shard's last position.
        last: LogPos,
    },
    /// Heartbeat acknowledgement.
    Beat {
        /// The receiver's epoch.
        epoch: u64,
        /// The receiver's last position per shard.
        positions: Vec<LogPos>,
    },
    /// Per-shard anti-entropy digests.
    Digests {
        /// The digest per shard ([`crate::stripe_digest`]), canonical
        /// across nodes.
        digests: Vec<u64>,
    },
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
