//! The replication control plane: one primary, N−1 replicas, WAL
//! shipping, failure detection, failover, and anti-entropy.
//!
//! A [`Cluster`] owns the full membership view (which nodes exist,
//! which are live, who is primary) plus the sender-side replication
//! cursors — per replica, per shard, the `(epoch, lsn)` [`LogPos`] its
//! log ends at. Shipping, quorum acks, promotion and anti-entropy all
//! bring a shard up to date through one function, `catch_up`.
//! Everything a node learns from a peer travels in process, through
//! the transport's `repl.*` fault gauntlet, so the chaos suite's
//! injected partitions, drops, delays, and duplicates reach every peer
//! interaction. The failure-handling half (tick, promotion,
//! anti-entropy) lives in the child module `failover`.
//!
//! Safety properties (asserted by the chaos matrix):
//!
//! * **Quorum acks survive failover.** A [`AckMode::Quorum`] write is
//!   acknowledged only once a majority of the *configured* cluster
//!   holds it durably. Promotion refuses to proceed without reaching a
//!   majority, and the candidate pulls each shard from the reachable
//!   log with the highest last `(epoch, lsn)` before serving — the two
//!   majorities intersect, so every acked write reaches the new primary.
//! * **Epochs are fenced and monotonic.** Every promotion mints
//!   `max(reachable epochs) + 1`, persisted on the candidate before it
//!   serves. A deposed primary's shipments are rejected by any peer
//!   that saw the newer epoch, and the rejection demotes it.
//! * **Divergent suffixes are discarded.** A deposed primary's unacked
//!   records sit at `(epoch, lsn)` positions no later log holds, so
//!   catch-up resyncs the shard instead of shipping on top of them.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ctxpref_core::ShardedMultiUserDb;
use ctxpref_wal::{Ack, DurableDb, LoggedOp, ScrubReport, WalError};
use parking_lot::Mutex;

use crate::error::{ReplicationError, TransportError};
use crate::message::{Envelope, LogPos, Message, NodeId, Reply};
use crate::node::ReplNode;
use crate::status::{AckMode, ClusterConfig, ClusterStatus, NodeStatus};
use crate::transport::InProcessTransport;

mod failover;

/// Hook invoked on role changes: `(node, epoch)`.
pub type RoleHook = Box<dyn Fn(NodeId, u64) + Send + Sync>;

struct ClusterState {
    nodes: Vec<Option<Arc<ReplNode>>>,
    primary: Option<NodeId>,
    /// Per receiving node: where each shard's log ends (sender-side
    /// view); absent entries are re-learned by heartbeat before shipping.
    cursors: HashMap<NodeId, Vec<LogPos>>,
    /// Consecutive ticks each replica failed to reach the primary.
    missed: Vec<u32>,
    promotions: Vec<(u64, NodeId)>,
    /// Scrub passes completed through [`Cluster::scrub_node`].
    scrub_passes: u64,
    /// Files those passes quarantined, cluster-wide.
    scrub_quarantined: u64,
}

/// A primary/replica group whose nodes all live in this process and
/// talk through one in-process transport.
pub struct Cluster {
    config: ClusterConfig,
    dirs: Vec<PathBuf>,
    transport: InProcessTransport,
    state: Mutex<ClusterState>,
    on_promotion: Mutex<Option<RoleHook>>,
    on_demotion: Mutex<Option<RoleHook>>,
}

impl Cluster {
    /// Bootstrap a fresh cluster under `root`: node `i` gets durable
    /// directory `root/node-<i>`, node 0 starts as primary at epoch 1.
    /// `make_core` builds one empty serving core per node (they must be
    /// configured identically — same environment, relation, ordering).
    pub fn new(
        root: &Path,
        config: ClusterConfig,
        make_core: impl Fn() -> Arc<ShardedMultiUserDb>,
    ) -> Result<Self, ReplicationError> {
        assert!(config.nodes >= 1, "a cluster needs at least one node");
        let transport = InProcessTransport::default();
        let mut nodes = Vec::with_capacity(config.nodes);
        let mut dirs = Vec::with_capacity(config.nodes);
        for id in 0..config.nodes {
            let dir = root.join(format!("node-{id}"));
            let db = Arc::new(DurableDb::create(&dir, make_core(), config.wal)?);
            let node = Arc::new(ReplNode::new(id, db, 1, id == 0)?);
            transport.register(Arc::clone(&node));
            dirs.push(dir);
            nodes.push(Some(node));
        }
        Ok(Self {
            config,
            dirs,
            transport,
            state: Mutex::new(ClusterState {
                nodes,
                primary: Some(0),
                cursors: HashMap::new(),
                missed: vec![0; config.nodes],
                promotions: vec![(1, 0)],
                scrub_passes: 0,
                scrub_quarantined: 0,
            }),
            on_promotion: Mutex::new(None),
            on_demotion: Mutex::new(None),
        })
    }

    /// The configured knobs.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Install the promotion hook (fired with the promoted node and
    /// its new epoch, while cluster state is held — keep it quick).
    pub fn set_promotion_hook(&self, hook: RoleHook) {
        *self.on_promotion.lock() = Some(hook);
    }

    /// Install the demotion hook (fired when an acting primary is
    /// fenced or deposed).
    pub fn set_demotion_hook(&self, hook: RoleHook) {
        *self.on_demotion.lock() = Some(hook);
    }

    /// The node currently routed writes, if any.
    pub fn primary(&self) -> Option<NodeId> {
        self.state.lock().primary
    }

    /// Node `id`'s handle, if live.
    pub fn node(&self, id: NodeId) -> Option<Arc<ReplNode>> {
        self.state.lock().nodes.get(id)?.clone()
    }

    /// Node `id`'s durable database, if live (for serving reads).
    pub fn db_of(&self, id: NodeId) -> Option<Arc<DurableDb>> {
        self.node(id).map(|n| Arc::clone(n.db()))
    }

    /// The primary's durable database, if a primary is live.
    pub fn primary_db(&self) -> Option<Arc<DurableDb>> {
        let st = self.state.lock();
        let p = st.primary?;
        st.nodes[p].as_ref().map(|n| Arc::clone(n.db()))
    }

    /// Sever the link between two nodes (both directions).
    pub fn partition(&self, a: NodeId, b: NodeId) {
        self.transport.partition(a, b);
    }

    /// Restore the link between two nodes.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        self.transport.heal(a, b);
    }

    /// Restore every link.
    pub fn heal_all(&self) {
        self.transport.heal_all();
    }

    /// Crash node `id`: it vanishes from the transport and its durable
    /// directory lock is released (once no reader still holds its db).
    pub fn crash_node(&self, id: NodeId) {
        let mut st = self.state.lock();
        self.transport.deregister(id);
        st.nodes[id] = None;
        st.cursors.remove(&id);
        st.missed[id] = 0;
        if st.primary == Some(id) {
            st.primary = None;
        }
    }

    /// Crash whichever node is currently primary (no-op without one).
    pub fn crash_primary(&self) {
        let p = self.state.lock().primary;
        if let Some(p) = p {
            self.crash_node(p);
        }
    }

    /// Restart a crashed node from its durable directory. It recovers
    /// its log, rejoins as a **replica** (whatever it was before), and
    /// catches up through normal shipping. Retries briefly if a reader
    /// still holds the old incarnation's directory lock.
    pub fn restart_node(&self, id: NodeId) -> Result<(), ReplicationError> {
        let mut st = self.state.lock();
        assert!(st.nodes[id].is_none(), "node {id} is already live");
        let mut attempt = 0;
        let node = loop {
            match ReplNode::recover(id, &self.dirs[id], self.config.wal) {
                Ok(node) => break node,
                Err(ReplicationError::Wal(WalError::Locked { .. })) if attempt < 50 => {
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        };
        let node = Arc::new(node);
        self.transport.register(Arc::clone(&node));
        st.nodes[id] = Some(node);
        st.missed[id] = 0;
        Ok(())
    }

    /// Run one scrub pass on node `id`'s durable directory. The
    /// cluster lock is **not** held during the scan — scrubbing a
    /// replica never stalls writes or shipping; only the counter
    /// update re-takes it. A quarantined-and-healed node keeps
    /// serving; a quarantine whose heal failed is repaired on the next
    /// restart (recovery consults quarantine, then shipping and
    /// anti-entropy re-fetch the lost suffix from a healthy peer).
    pub fn scrub_node(&self, id: NodeId) -> Result<ScrubReport, ReplicationError> {
        let node = {
            let st = self.state.lock();
            st.nodes
                .get(id)
                .and_then(|n| n.clone())
                .ok_or(ReplicationError::NodeDown { node: id })?
        };
        let report = node.db().scrub()?;
        let mut st = self.state.lock();
        st.scrub_passes += 1;
        st.scrub_quarantined += report.quarantined.len() as u64;
        Ok(report)
    }

    /// Apply one logged operation through the current primary,
    /// honouring the configured [`AckMode`]. The ack carries what the
    /// primary's log displaced when it applied the op.
    pub fn write(&self, op: impl LoggedOp) -> Result<Ack, ReplicationError> {
        let mut st = self.state.lock();
        let Some(p) = st.primary else {
            return Err(ReplicationError::NoPrimary);
        };
        self.write_via_locked(&mut st, p, op)
    }

    /// Apply one logged operation through a **specific** node — the
    /// split-brain probe. A node that no longer believes it is primary
    /// refuses; a deposed one that still believes is fenced by the
    /// first peer it ships to (under quorum acks) and demotes.
    pub fn write_via(&self, id: NodeId, op: impl LoggedOp) -> Result<Ack, ReplicationError> {
        let mut st = self.state.lock();
        self.write_via_locked(&mut st, id, op)
    }

    fn write_via_locked(
        &self,
        st: &mut ClusterState,
        id: NodeId,
        op: impl LoggedOp,
    ) -> Result<Ack, ReplicationError> {
        let node = st.nodes[id]
            .clone()
            .ok_or(ReplicationError::NodeDown { node: id })?;
        if !node.is_primary() {
            return Err(ReplicationError::NotPrimary { node: id });
        }
        let ack = node.db().apply(op)?;
        // The write moved this node's log: a cached position is stale.
        st.cursors.remove(&id);
        if self.config.ack_mode == AckMode::Async {
            return Ok(ack);
        }
        // Quorum: the write must be durable here and on enough peers
        // that any majority — in particular any future promotion
        // majority — contains it.
        if !ack.durable {
            node.db().flush().map_err(ReplicationError::Wal)?;
        }
        let mut acked = 1;
        let needed = self.config.nodes / 2 + 1;
        for other in 0..self.config.nodes {
            if other == id || st.nodes[other].is_none() {
                continue;
            }
            // Under the cluster lock the write is the shard's last
            // record, so a replica caught up on the shard holds it.
            match self.catch_up(st, &node, other, ack.shard, node.epoch()) {
                Ok(true) => acked += 1,
                Ok(false) => {}
                Err(ReplicationError::Fenced { epoch }) => {
                    self.fence_primary(st, &node, epoch);
                    return Err(ReplicationError::Fenced { epoch });
                }
                Err(_) => {}
            }
        }
        if acked < needed {
            return Err(ReplicationError::QuorumFailed { acked, needed });
        }
        Ok(ack)
    }

    /// Bring node `to`'s `shard` up to `from`'s, in envelopes stamped
    /// `stamp`; `Ok(true)` once `to` durably ends where `from` does. The
    /// only code that reads a shard's log to ship it. Each of at most
    /// 64 steps (lost messages are retried; a down link ends the call)
    /// takes `to`'s last `(epoch, lsn)`, cached or learned by heartbeat.
    /// If it lies on `from`'s log (Raft's log-matching check), the
    /// records after it ship, naming the position they follow. If not —
    /// a deposed primary's unacked suffix, or records `from` has
    /// checkpointed away — the whole shard ships as a
    /// [`Message::Resync`], which re-seats it, backward if need be.
    fn catch_up(
        &self,
        st: &mut ClusterState,
        from: &ReplNode,
        to: NodeId,
        shard: usize,
        stamp: u64,
    ) -> Result<bool, ReplicationError> {
        let head = from.positions()[shard];
        let envelope = |msg| Envelope::new(from.id(), stamp, msg);
        for _ in 0..64 {
            let Some(pos) = st.cursors.get(&to).map(|cursor| cursor[shard]) else {
                if let Some(Reply::Beat { positions, .. }) =
                    delivered(self.beat(from.id(), stamp, to))?
                {
                    st.cursors.insert(to, positions);
                }
                continue;
            };
            if pos == head {
                return Ok(true);
            }
            let mut records = None;
            if pos.lsn <= head.lsn && from.position_at(shard, pos.lsn) == pos {
                let db = from.db();
                records = db.read_shard_from(shard, pos.lsn + 1, self.config.batch_max)?;
            }
            let msg = match records {
                // The tail is still being appended: not visible yet.
                Some(records) if records.is_empty() => return Ok(false),
                Some(records) => Message::Records {
                    shard,
                    prev: pos,
                    epochs: from.epoch_pairs(shard, records.last().map_or(0, |r| r.lsn)),
                    records: records.into_iter().map(|r| (r.lsn, r.payload)).collect(),
                },
                None => {
                    let (users, last_lsn) = from.db().shard_cut(shard);
                    let epochs = from.epoch_pairs(shard, last_lsn);
                    Message::Resync {
                        shard,
                        users,
                        last_lsn,
                        epochs,
                    }
                }
            };
            if let Some(Reply::Progress { last }) =
                delivered(self.transport.send(to, envelope(msg)))?
            {
                if let Some(cursor) = st.cursors.get_mut(&to) {
                    cursor[shard] = last;
                }
            }
        }
        Ok(false)
    }

    /// A heartbeat from `from`, stamped `epoch`, to `to`.
    fn beat(&self, from: NodeId, epoch: u64, to: NodeId) -> Result<Reply, TransportError> {
        self.transport
            .send(to, Envelope::new(from, epoch, Message::Heartbeat))
    }

    /// A peer with a higher epoch rejected `node`'s traffic: adopt the
    /// epoch, demote, and stop routing writes to it.
    fn fence_primary(&self, st: &mut ClusterState, node: &Arc<ReplNode>, epoch: u64) {
        // Demote even if the epoch cannot be persisted (then unpublished).
        let _ = node.adopt_epoch(epoch);
        node.demote();
        if st.primary == Some(node.id()) {
            st.primary = None;
        }
        if let Some(hook) = self.on_demotion.lock().as_ref() {
            hook(node.id(), epoch);
        }
    }

    /// Ship every live replica as far as the primary's logs currently
    /// reach. Returns whether a fence demoted the primary mid-pump.
    pub fn pump(&self) -> Result<bool, ReplicationError> {
        let mut st = self.state.lock();
        self.pump_locked(&mut st)
    }

    fn pump_locked(&self, st: &mut ClusterState) -> Result<bool, ReplicationError> {
        let Some(p) = st.primary else {
            return Ok(false);
        };
        let Some(node) = st.nodes[p].clone() else {
            return Ok(false);
        };
        for other in 0..self.config.nodes {
            if other == p || st.nodes[other].is_none() {
                continue;
            }
            for shard in 0..self.config.shards {
                if let Err(ReplicationError::Fenced { epoch }) =
                    self.catch_up(st, &node, other, shard, node.epoch())
                {
                    self.fence_primary(st, &node, epoch);
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// A point-in-time view: roles, epochs, lag, promotion history.
    pub fn status(&self) -> ClusterStatus {
        let st = self.state.lock();
        let lsns: Vec<Vec<u64>> = st
            .nodes
            .iter()
            .map(|n| n.as_ref().map_or(Vec::new(), |n| n.applied_lsns()))
            .collect();
        let nodes: Vec<NodeStatus> = (0..self.config.nodes)
            .map(|id| match &st.nodes[id] {
                Some(node) => NodeStatus {
                    id,
                    live: true,
                    is_primary: node.is_primary(),
                    epoch: node.epoch(),
                    applied: lsns[id].iter().sum(),
                    rescued_shards: node.rescued_shards(),
                },
                None => NodeStatus {
                    id,
                    ..NodeStatus::default()
                },
            })
            .collect();
        let epoch = nodes
            .iter()
            .filter(|n| n.live)
            .map(|n| n.epoch)
            .max()
            .unwrap_or(0);
        // Per shard: being ahead on one shard hides no lag on another.
        let head = st.primary.map_or(&[][..], |p| &lsns[p]);
        let lag = |l: &Vec<u64>| head.iter().zip(l).map(|(h, r)| h.saturating_sub(*r)).max();
        let max_lag = lsns.iter().filter_map(lag).max().unwrap_or(0);
        ClusterStatus {
            primary: st.primary,
            epoch,
            promotions: st.promotions.clone(),
            nodes,
            max_lag,
            scrub_passes: st.scrub_passes,
            scrub_quarantined: st.scrub_quarantined,
        }
    }
}

/// A catch-up send's reply, `None` for a lost message (retried), or
/// what ends the catch-up: a fence, or a link that is down.
fn delivered(sent: Result<Reply, TransportError>) -> Result<Option<Reply>, ReplicationError> {
    match sent {
        Ok(Reply::Fenced { current }) => Err(ReplicationError::Fenced { epoch: current }),
        Ok(reply) => Ok(Some(reply)),
        Err(TransportError::Dropped) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("config", &self.config)
            .field("status", &self.status())
            .finish()
    }
}
