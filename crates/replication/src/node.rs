//! One replication participant: a [`DurableDb`] plus its fencing
//! epoch, its per-shard epoch table, and its role.
//!
//! A node is symmetric — the same `handle` services a replica applying
//! shipped records, a new primary pulling catch-up records from a peer
//! during promotion, and resyncs in either direction. Role only
//! gates the *client* write path (the cluster routes writes to the
//! node it believes is primary; a deposed primary's shipments are
//! fenced by epoch, not by role). A batch applies only on top of the
//! [`LogPos`] it names; the epoch table changes in memory only once it
//! is on disk, before a batch's records and after a resync's checkpoint.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ctxpref_profile::Profile;
use ctxpref_wal::{DurableDb, ReplApply, WalOptions};
use parking_lot::Mutex;

use crate::digest::node_digests;
use crate::epoch::{load_epoch, load_table, log_pos, prefix, save_epoch, save_table, EpochTable};
use crate::error::ReplicationError;
use crate::message::{Envelope, LogPos, Message, NodeId, Reply, ShippedRecord};

/// One cluster participant.
#[derive(Debug)]
pub struct ReplNode {
    id: NodeId,
    dir: PathBuf,
    db: Arc<DurableDb>,
    /// Highest epoch this node has seen (persisted in `EPOCH`).
    epoch: AtomicU64,
    /// Which epoch wrote which LSNs, per shard (persisted in `EPOCHS`).
    epochs: Mutex<EpochTable>,
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
        dir: &Path,
        db: Arc<DurableDb>,
        epoch: u64,
        primary: bool,
    ) -> Result<Self, ReplicationError> {
        save_epoch(dir, epoch)?;
        let node = Self {
            id,
            dir: dir.to_path_buf(),
            epoch: AtomicU64::new(epoch),
            epochs: Mutex::new(vec![Vec::new(); db.num_shards()]),
            db,
            primary: AtomicBool::new(false),
            rescued_shards: 0,
        };
        if primary {
            node.promote(epoch)?;
        }
        Ok(node)
    }

    /// Recover node `id` from its durable directory; the persisted
    /// epoch and epoch table come back with it, so a deposed primary
    /// restarts already knowing it was deposed. A garbled epoch file
    /// is an error. Restarts always come back as replicas — a node
    /// must be re-promoted (with a fresh epoch) to serve writes.
    pub fn recover(id: NodeId, dir: &Path, opts: WalOptions) -> Result<Self, ReplicationError> {
        let (db, report) = DurableDb::recover(dir, opts)?;
        Ok(Self {
            id,
            dir: dir.to_path_buf(),
            epoch: AtomicU64::new(load_epoch(dir)?),
            epochs: Mutex::new(load_table(dir, db.num_shards())?),
            db: Arc::new(db),
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
        self.epoch.load(Ordering::Acquire)
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
    /// shard's next LSN in the epoch table, then accept writes. Refuses,
    /// and stays a replica, if either cannot be persisted.
    pub fn promote(&self, epoch: u64) -> Result<(), ReplicationError> {
        self.adopt_epoch(epoch)?;
        let mut table = self.epochs.lock();
        for (shard, lsn) in self.applied_lsns().into_iter().enumerate() {
            let mut pairs = prefix(&table[shard], lsn);
            pairs.push((epoch, lsn + 1));
            self.set_epochs(&mut table, shard, pairs)?;
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
        if epoch > self.epoch.load(Ordering::Acquire) {
            save_epoch(&self.dir, epoch)?;
            self.epoch.store(epoch, Ordering::Release);
        }
        Ok(())
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
        let table = self.epochs.lock();
        let lsns = self.applied_lsns().into_iter().zip(table.iter());
        lsns.map(|(lsn, pairs)| log_pos(pairs, lsn)).collect()
    }

    /// `shard`'s position at `lsn`: the record there and the epoch
    /// that wrote it, which only the same log holds (Raft's
    /// log-matching property).
    pub(crate) fn position_at(&self, shard: usize, lsn: u64) -> LogPos {
        log_pos(&self.epochs.lock()[shard], lsn)
    }

    /// `shard`'s epoch pairs up to `last_lsn`: what a batch or a resync
    /// ending there carries.
    pub(crate) fn epoch_pairs(&self, shard: usize, last_lsn: u64) -> Vec<(u64, u64)> {
        prefix(&self.epochs.lock()[shard], last_lsn)
    }

    /// Set `shard`'s epoch pairs, on disk first.
    fn set_epochs(
        &self,
        table: &mut EpochTable,
        shard: usize,
        pairs: Vec<(u64, u64)>,
    ) -> Result<(), ReplicationError> {
        if table[shard] != pairs {
            let mut next = table.clone();
            next[shard] = pairs;
            save_table(&self.dir, &next)?;
            *table = next;
        }
        Ok(())
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
        let mut table = self.epochs.lock();
        let last = log_pos(&table[shard], self.applied_lsns()[shard]);
        if last != prev {
            // Not a continuation of this log (a stale cursor, or a
            // duplicate delivery): apply nothing, say where it ends.
            return Ok(last);
        }
        self.set_epochs(&mut table, shard, epochs.to_vec())?;
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
        Ok(log_pos(&table[shard], self.applied_lsns()[shard]))
    }

    fn resync(
        &self,
        shard: usize,
        users: &[(String, Profile)],
        last_lsn: u64,
        epochs: &[(u64, u64)],
    ) -> Result<LogPos, ReplicationError> {
        let mut table = self.epochs.lock();
        self.db.resync_shard(shard, users.to_vec(), last_lsn)?;
        self.set_epochs(&mut table, shard, epochs.to_vec())?;
        Ok(log_pos(&table[shard], last_lsn))
    }
}
