//! One replication participant: a [`DurableDb`] plus its role.
//!
//! A node is symmetric — the same `handle` services a replica applying
//! shipped records, a new primary pulling catch-up records from a peer
//! during promotion, and resyncs in either direction. Role only
//! gates the *client* write path (the cluster routes writes to the
//! node it believes is primary; a deposed primary's shipments are
//! fenced by epoch, not by role). A batch applies only on top of the
//! [`LogPos`] it names. The fencing epoch and each shard's epoch pairs
//! live in the durable directory's manifest, which the [`DurableDb`]
//! alone writes: a batch's pairs are on disk before its records, and a
//! resync's pairs land in the same manifest swap as its contents.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ctxpref_profile::Profile;
use ctxpref_wal::{DurableDb, ReplApply, WalOptions};
use parking_lot::Mutex;

use crate::digest::node_digests;
use crate::epoch::{log_pos, prefix};
use crate::error::ReplicationError;
use crate::message::{Envelope, LogPos, Message, NodeId, Reply, ShippedRecord};

/// One cluster participant.
#[derive(Debug)]
pub struct ReplNode {
    id: NodeId,
    db: Arc<DurableDb>,
    /// Held while a batch, a resync or a promotion changes a shard's
    /// records and pairs, and while positions are read, so no reader
    /// pairs one moment's LSN with another moment's pairs.
    log_lock: Mutex<()>,
    /// Whether this node currently believes it is the primary.
    primary: AtomicBool,
    /// WAL shards this node's recovery rescued via quarantine (a scrub
    /// — or a crash mid-heal — had pulled segments out of service, so
    /// the node restarted clean-but-behind instead of refusing; the
    /// missing suffix re-ships from a healthy peer).
    rescued_shards: u64,
}

impl ReplNode {
    /// Wrap a freshly created durable db as node `id` at `epoch`; a
    /// primary's epoch starts at every shard's next LSN. Fails if the
    /// epoch state cannot be persisted.
    pub fn new(
        id: NodeId,
        db: Arc<DurableDb>,
        epoch: u64,
        primary: bool,
    ) -> Result<Self, ReplicationError> {
        db.set_epoch(epoch)?;
        let node = Self {
            id,
            db,
            log_lock: Mutex::new(()),
            primary: AtomicBool::new(false),
            rescued_shards: 0,
        };
        if primary {
            node.promote(epoch)?;
        }
        Ok(node)
    }

    /// Recover node `id` from its durable directory; the epoch and the
    /// epoch pairs come back with its manifest, so a deposed primary
    /// restarts already knowing it was deposed. Restarts always come
    /// back as replicas — a node must be re-promoted (with a fresh
    /// epoch) to serve writes.
    pub fn recover(id: NodeId, dir: &Path, opts: WalOptions) -> Result<Self, ReplicationError> {
        let (db, report) = DurableDb::recover(dir, opts)?;
        Ok(Self {
            id,
            db: Arc::new(db),
            log_lock: Mutex::new(()),
            primary: AtomicBool::new(false),
            rescued_shards: report.rescued_shards,
        })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's durable database.
    pub fn db(&self) -> &Arc<DurableDb> {
        &self.db
    }

    /// The node's current epoch.
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// Whether the node currently believes it is primary.
    pub fn is_primary(&self) -> bool {
        self.primary.load(Ordering::Acquire)
    }

    /// WAL shards this node's recovery rescued via quarantine (0 on a
    /// clean restart). A non-zero count means the node came back
    /// missing a log suffix and relies on shipping/anti-entropy to
    /// re-fetch it from a healthy peer.
    pub fn rescued_shards(&self) -> u64 {
        self.rescued_shards
    }

    /// Promote at `epoch`: persist the epoch, start it at every
    /// shard's next LSN in the shard's pairs, then accept writes.
    /// Refuses, and stays a replica, if either cannot be persisted.
    pub fn promote(&self, epoch: u64) -> Result<(), ReplicationError> {
        self.adopt_epoch(epoch)?;
        let _log = self.log_lock.lock();
        for (shard, lsn) in self.applied_lsns().into_iter().enumerate() {
            let mut pairs = prefix(&self.db.epoch_pairs(shard), lsn);
            pairs.push((epoch, lsn + 1));
            self.db.set_epoch_pairs(shard, pairs)?;
        }
        self.primary.store(true, Ordering::Release);
        Ok(())
    }

    /// Demote to replica (deposed, or administratively).
    pub fn demote(&self) {
        self.primary.store(false, Ordering::Release);
    }

    /// Adopt a higher epoch: persist first, then publish. A failed
    /// persist publishes nothing.
    pub fn adopt_epoch(&self, epoch: u64) -> Result<(), ReplicationError> {
        Ok(self.db.set_epoch(epoch)?)
    }

    /// Last applied LSN per shard.
    pub fn applied_lsns(&self) -> Vec<u64> {
        self.db
            .wal_status()
            .shards
            .iter()
            .map(|s| s.last_lsn)
            .collect()
    }

    /// Each shard's last position (what the heartbeat reply carries).
    pub(crate) fn positions(&self) -> Vec<LogPos> {
        let _log = self.log_lock.lock();
        let shards = self.db.manifest().shards;
        let lsns = self.applied_lsns().into_iter().zip(shards);
        lsns.map(|(lsn, s)| log_pos(&s.epochs, lsn)).collect()
    }

    /// `shard`'s position at `lsn`: the record there and the epoch
    /// that wrote it, which only the same log holds (Raft's
    /// log-matching property).
    pub(crate) fn position_at(&self, shard: usize, lsn: u64) -> LogPos {
        let _log = self.log_lock.lock();
        log_pos(&self.db.epoch_pairs(shard), lsn)
    }

    /// `shard`'s epoch pairs up to `last_lsn`: what a batch or a resync
    /// ending there carries.
    pub(crate) fn epoch_pairs(&self, shard: usize, last_lsn: u64) -> Vec<(u64, u64)> {
        let _log = self.log_lock.lock();
        prefix(&self.db.epoch_pairs(shard), last_lsn)
    }

    /// `shard`'s last position; the caller holds `log_lock`.
    fn last_position(&self, shard: usize) -> LogPos {
        log_pos(&self.db.epoch_pairs(shard), self.applied_lsns()[shard])
    }

    /// Service one incoming message, applying the epoch fence first:
    /// a stale sender is rejected outright; a newer epoch is adopted
    /// (demoting this node if it thought it was primary) before the
    /// message is honoured.
    pub fn handle(&self, env: &Envelope) -> Reply {
        let current = self.epoch();
        if env.epoch < current {
            return Reply::Fenced { current };
        }
        if env.epoch > current {
            if let Err(e) = self.adopt_epoch(env.epoch) {
                return Reply::Failed {
                    reason: e.to_string(),
                };
            }
            self.demote();
        }
        let shipped = match &env.msg {
            Message::Heartbeat => {
                let (epoch, positions) = (self.epoch(), self.positions());
                return Reply::Beat { epoch, positions };
            }
            Message::DigestRequest => {
                let digests = node_digests(&self.db);
                return Reply::Digests { digests };
            }
            Message::Records {
                shard,
                prev,
                records,
                epochs,
            } => self.apply_records(*shard, *prev, records, epochs),
            Message::Resync {
                shard,
                users,
                last_lsn,
                epochs,
            } => self.resync(*shard, users, *last_lsn, epochs),
        };
        match shipped {
            Ok(last) => Reply::Progress { last },
            Err(e) => Reply::Failed {
                reason: e.to_string(),
            },
        }
    }

    fn apply_records(
        &self,
        shard: usize,
        prev: LogPos,
        records: &[ShippedRecord],
        epochs: &[(u64, u64)],
    ) -> Result<LogPos, ReplicationError> {
        let _log = self.log_lock.lock();
        let last = self.last_position(shard);
        if last != prev {
            // Not a continuation of this log (a stale cursor, or a
            // duplicate delivery): apply nothing, say where it ends.
            return Ok(last);
        }
        self.db.set_epoch_pairs(shard, epochs.to_vec())?;
        let mut needs_flush = false;
        for (lsn, payload) in records {
            match self.db.apply_replicated(shard, *lsn, payload)? {
                ReplApply::Applied { durable } => needs_flush |= !durable,
                ReplApply::Duplicate | ReplApply::Gap { .. } => break,
            }
        }
        if needs_flush {
            // Group-commit replicas fsync per shipped batch, so a
            // Progress reply always means "durably holds `last`" — the
            // property quorum acks count on.
            self.db.flush()?;
        }
        Ok(self.last_position(shard))
    }

    fn resync(
        &self,
        shard: usize,
        users: &[(String, Profile)],
        last_lsn: u64,
        epochs: &[(u64, u64)],
    ) -> Result<LogPos, ReplicationError> {
        let _log = self.log_lock.lock();
        self.db
            .resync_shard(shard, users.to_vec(), last_lsn, epochs.to_vec())?;
        Ok(log_pos(&self.db.epoch_pairs(shard), last_lsn))
    }
}
