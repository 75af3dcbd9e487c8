//! The replication control plane: one primary, N−1 replicas, WAL
//! shipping, failure detection, failover, and anti-entropy.
//!
//! A [`Cluster`] owns the full membership view (which nodes exist,
//! which are live, who is primary) plus the sender-side replication
//! cursors — per replica, per shard, the next LSN that replica needs.
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
//!   majority, and the candidate pulls every reachable peer's log
//!   suffix before serving — the two majorities intersect, so every
//!   acked write reaches the new primary.
//! * **Epochs are fenced and monotonic.** Every promotion mints
//!   `max(reachable epochs) + 1`, persisted on the candidate before it
//!   serves. A deposed primary's shipments are rejected by any peer
//!   that saw the newer epoch, and the rejection demotes it.
//! * **Anti-entropy converges.** Divergent suffixes a deposed primary
//!   applied but never replicated are detected by per-shard digest
//!   comparison and discarded by shard resync.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ctxpref_core::ShardedMultiUserDb;
use ctxpref_wal::{Ack, DurableDb, ScrubReport, WalError, WalOp};
use parking_lot::Mutex;

use crate::error::ReplicationError;
use crate::message::{Envelope, Message, NodeId, Reply};
use crate::node::ReplNode;
use crate::status::{AckMode, ClusterConfig, ClusterStatus, NodeStatus};
use crate::transport::InProcessTransport;

mod failover;

/// Hook invoked on role changes: `(node, epoch)`.
pub type RoleHook = Box<dyn Fn(NodeId, u64) + Send + Sync>;

enum Ship {
    /// The replica accepted records (or a snapshot); cursor updated.
    Advanced,
    /// The replica already has everything the sender's log holds.
    CaughtUp,
}

struct ClusterState {
    nodes: Vec<Option<Arc<ReplNode>>>,
    primary: Option<NodeId>,
    /// Per replica: the next LSN each shard needs (sender-side view);
    /// absent entries are re-learned by heartbeat before shipping.
    cursors: HashMap<NodeId, Vec<u64>>,
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
            let node = Arc::new(ReplNode::new(id, &dir, db, 1, id == 0));
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
                Err(WalError::Locked { .. }) if attempt < 50 => {
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                Err(e) => return Err(e.into()),
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
        let report = node.scrub()?;
        let mut st = self.state.lock();
        st.scrub_passes += 1;
        st.scrub_quarantined += report.quarantined.len() as u64;
        Ok(report)
    }

    /// Apply one logged operation through the current primary,
    /// honouring the configured [`AckMode`]. The ack carries what the
    /// primary's log displaced when it applied the op.
    pub fn write(&self, op: WalOp) -> Result<Ack, ReplicationError> {
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
    pub fn write_via(&self, id: NodeId, op: WalOp) -> Result<Ack, ReplicationError> {
        let mut st = self.state.lock();
        self.write_via_locked(&mut st, id, op)
    }

    fn write_via_locked(
        &self,
        st: &mut ClusterState,
        id: NodeId,
        op: WalOp,
    ) -> Result<Ack, ReplicationError> {
        let node = st.nodes[id]
            .clone()
            .ok_or(ReplicationError::NodeDown { node: id })?;
        if !node.is_primary() {
            return Err(ReplicationError::NotPrimary { node: id });
        }
        let ack = node.db().apply(op)?;
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
            match self.ship_until(st, &node, other, ack.shard, ack.lsn) {
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

    /// Ship `shard` from `from` to replica `to` until the replica's
    /// cursor passes `lsn`, with bounded retries against injected
    /// drops. `Ok(true)` means the replica durably holds `lsn`.
    fn ship_until(
        &self,
        st: &mut ClusterState,
        from: &Arc<ReplNode>,
        to: NodeId,
        shard: usize,
        lsn: u64,
    ) -> Result<bool, ReplicationError> {
        for _ in 0..16 {
            match self.ensure_cursor(st, from, to) {
                Ok(true) => {}
                Ok(false) => continue,
                Err(e) => return Err(e),
            }
            let cursor = st.cursors.get(&to).map(|c| c[shard]).unwrap_or(1);
            if cursor > lsn {
                return Ok(true);
            }
            match self.ship_once(st, from, to, shard) {
                Ok(Ship::Advanced) => {}
                Ok(Ship::CaughtUp) => {}
                Err(e @ ReplicationError::Fenced { .. }) => return Err(e),
                Err(_) => {}
            }
        }
        Ok(st.cursors.get(&to).map(|c| c[shard] > lsn).unwrap_or(false))
    }

    /// Learn replica `to`'s per-shard positions by heartbeat if no
    /// cursor vector is cached. `Ok` reports whether a cursor now
    /// exists; a [`Reply::Fenced`] probe answer surfaces as an error —
    /// the sender was deposed and must not keep shipping.
    fn ensure_cursor(
        &self,
        st: &mut ClusterState,
        from: &Arc<ReplNode>,
        to: NodeId,
    ) -> Result<bool, ReplicationError> {
        if st.cursors.contains_key(&to) {
            return Ok(true);
        }
        let env = Envelope {
            from: from.id(),
            epoch: from.epoch(),
            msg: Message::Heartbeat,
        };
        match self.transport.send(to, env) {
            Ok(Reply::Beat { applied, .. }) => {
                st.cursors
                    .insert(to, applied.iter().map(|l| l + 1).collect());
                Ok(true)
            }
            Ok(Reply::Fenced { current }) => Err(ReplicationError::Fenced { epoch: current }),
            _ => Ok(false),
        }
    }

    /// One shipping step for `(to, shard)`: read a batch at the cursor
    /// from `from`'s log and push it; fall back to a full snapshot when
    /// the cursor's continuation has been checkpointed away.
    fn ship_once(
        &self,
        st: &mut ClusterState,
        from: &Arc<ReplNode>,
        to: NodeId,
        shard: usize,
    ) -> Result<Ship, ReplicationError> {
        let cursor = st.cursors.get(&to).map(|c| c[shard]).unwrap_or(1);
        let batch = from
            .db()
            .read_shard_from(shard, cursor, self.config.batch_max)?;
        let msg = match batch {
            None => {
                // The tail below `cursor` was garbage-collected into a
                // checkpoint: ship the whole snapshot instead.
                let (stripes, lsns) = from.db().snapshot_with_lsns();
                let env = Envelope {
                    from: from.id(),
                    epoch: from.epoch(),
                    msg: Message::Snapshot {
                        stripes,
                        lsns: lsns.clone(),
                    },
                };
                return match self.transport.send(to, env)? {
                    Reply::SnapshotInstalled => {
                        st.cursors.insert(to, lsns.iter().map(|l| l + 1).collect());
                        Ok(Ship::Advanced)
                    }
                    Reply::Fenced { current } => Err(ReplicationError::Fenced { epoch: current }),
                    Reply::Failed { reason } => Err(ReplicationError::Peer { reason }),
                    other => Err(ReplicationError::Peer {
                        reason: format!("unexpected snapshot reply {other:?}"),
                    }),
                };
            }
            Some(records) if records.is_empty() => return Ok(Ship::CaughtUp),
            Some(records) => Message::Records {
                shard,
                records: records.into_iter().map(|r| (r.lsn, r.payload)).collect(),
            },
        };
        let env = Envelope {
            from: from.id(),
            epoch: from.epoch(),
            msg,
        };
        match self.transport.send(to, env)? {
            Reply::Progress { next_lsn } => {
                if let Some(c) = st.cursors.get_mut(&to) {
                    c[shard] = next_lsn;
                }
                Ok(Ship::Advanced)
            }
            Reply::Fenced { current } => Err(ReplicationError::Fenced { epoch: current }),
            Reply::Failed { reason } => Err(ReplicationError::Peer { reason }),
            other => Err(ReplicationError::Peer {
                reason: format!("unexpected records reply {other:?}"),
            }),
        }
    }

    /// A peer with a higher epoch rejected `node`'s traffic: adopt the
    /// epoch, demote, and stop routing writes to it.
    fn fence_primary(&self, st: &mut ClusterState, node: &Arc<ReplNode>, epoch: u64) {
        node.adopt_epoch(epoch);
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
            match self.ensure_cursor(st, &node, other) {
                Ok(true) => {}
                Ok(false) => continue,
                Err(ReplicationError::Fenced { epoch }) => {
                    self.fence_primary(st, &node, epoch);
                    return Ok(true);
                }
                Err(_) => continue,
            }
            for shard in 0..self.config.shards {
                // Bounded: a replica being written to concurrently
                // would otherwise chase the tail forever.
                for _ in 0..64 {
                    match self.ship_once(st, &node, other, shard) {
                        Ok(Ship::Advanced) => {}
                        Ok(Ship::CaughtUp) => break,
                        Err(ReplicationError::Fenced { epoch }) => {
                            self.fence_primary(st, &node, epoch);
                            return Ok(true);
                        }
                        Err(_) => break,
                    }
                }
            }
        }
        Ok(false)
    }

    /// A point-in-time view: roles, epochs, lag, promotion history.
    pub fn status(&self) -> ClusterStatus {
        let st = self.state.lock();
        let nodes: Vec<NodeStatus> = (0..self.config.nodes)
            .map(|id| match &st.nodes[id] {
                Some(node) => NodeStatus {
                    id,
                    live: true,
                    is_primary: node.is_primary(),
                    epoch: node.epoch(),
                    applied: node.applied_lsns().iter().sum(),
                    rescued_shards: node.rescued_shards(),
                },
                None => NodeStatus {
                    id,
                    live: false,
                    is_primary: false,
                    epoch: 0,
                    applied: 0,
                    rescued_shards: 0,
                },
            })
            .collect();
        let epoch = nodes
            .iter()
            .filter(|n| n.live)
            .map(|n| n.epoch)
            .max()
            .unwrap_or(0);
        let max_lag = match st.primary {
            Some(p) if st.nodes[p].is_some() => {
                let head = nodes[p].applied;
                nodes
                    .iter()
                    .filter(|n| n.live && n.id != p)
                    .map(|n| head.saturating_sub(n.applied))
                    .max()
                    .unwrap_or(0)
            }
            _ => 0,
        };
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

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("config", &self.config)
            .field("status", &self.status())
            .finish()
    }
}
