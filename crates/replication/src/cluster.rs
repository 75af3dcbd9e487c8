//! The replication control plane: one primary, N−1 replicas, WAL
//! shipping, failure detection, failover, and anti-entropy.
//!
//! A [`Cluster`] owns the full membership view (which nodes exist,
//! which are live, who is primary) plus the sender-side replication
//! cursors — per replica, per shard, the next LSN that replica needs.
//! Everything a node learns from a peer travels through the
//! [`Transport`], so the chaos suite's injected partitions, drops,
//! delays, and duplicates exercise exactly the paths a socket
//! transport would.
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
use ctxpref_wal::{Ack, DurableDb, ScrubReport, WalError, WalOp, WalOptions};
use parking_lot::Mutex;

use crate::digest::node_digests;
use crate::error::ReplicationError;
use crate::message::{Envelope, Message, NodeId, Reply};
use crate::node::ReplNode;
use crate::transport::{InProcessTransport, NodeTransport};

/// When a write is acknowledged to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Ack once the primary holds the write; replicas catch up in the
    /// background. Fast, but a primary failure can lose acked writes.
    Async,
    /// Ack only once a majority of the configured cluster holds the
    /// write durably. Failover then provably preserves it.
    Quorum,
}

/// Cluster tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Total configured nodes (majorities are computed against this,
    /// so crashed nodes still count in the denominator).
    pub nodes: usize,
    /// WAL shards per node (must match the serving core's stripes).
    pub shards: usize,
    /// When writes are acknowledged.
    pub ack_mode: AckMode,
    /// Durability options for every node's WAL.
    pub wal: WalOptions,
    /// Records per shipped batch.
    pub batch_max: usize,
    /// Consecutive missed heartbeats (ticks) before the primary is
    /// declared dead.
    pub heartbeat_threshold: u32,
    /// Whether [`Cluster::tick`] promotes automatically on primary
    /// failure; off, failover is [`Cluster::promote`]-only.
    pub auto_failover: bool,
}

impl ClusterConfig {
    /// A sensible starting config for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            shards: 4,
            ack_mode: AckMode::Quorum,
            wal: WalOptions::default(),
            batch_max: 64,
            heartbeat_threshold: 3,
            auto_failover: true,
        }
    }
}

/// A role/liveness snapshot of one node.
#[derive(Debug, Clone, Copy)]
pub struct NodeStatus {
    /// The node.
    pub id: NodeId,
    /// Whether the node is currently live (registered, not crashed).
    pub live: bool,
    /// Whether the node believes it is primary.
    pub is_primary: bool,
    /// The node's current epoch.
    pub epoch: u64,
    /// Total applied LSNs across shards (its replication position).
    pub applied: u64,
    /// Shards the node's last recovery rescued via quarantine (it came
    /// back clean-but-behind and repairs through shipping).
    pub rescued_shards: u64,
}

/// A point-in-time view of the cluster.
#[derive(Debug, Clone)]
pub struct ClusterStatus {
    /// The node the cluster routes writes to, if any.
    pub primary: Option<NodeId>,
    /// The highest epoch any live node holds.
    pub epoch: u64,
    /// Every promotion so far as `(epoch, node)`, in order. Strictly
    /// ascending epochs — the chaos suite asserts it.
    pub promotions: Vec<(u64, NodeId)>,
    /// Per-node status.
    pub nodes: Vec<NodeStatus>,
    /// How far the laggiest live replica trails the primary, in
    /// applied records (0 with no primary or no live replica).
    pub max_lag: u64,
    /// Scrub passes completed through [`Cluster::scrub_node`].
    pub scrub_passes: u64,
    /// Files those passes quarantined, cluster-wide.
    pub scrub_quarantined: u64,
}

/// The operator's rendering (`repl-status`, local and remote): the
/// primary and lag, one line per node, then the promotion history.
impl std::fmt::Display for ClusterStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.primary {
            Some(p) => write!(f, "primary node {p}")?,
            None => write!(f, "primary none (failover pending)")?,
        }
        writeln!(
            f,
            ", epoch {}, max lag {} record(s)",
            self.epoch, self.max_lag
        )?;
        for n in &self.nodes {
            writeln!(
                f,
                "node {}: {}{}, epoch {}, {} record(s) applied",
                n.id,
                if n.live { "live" } else { "down" },
                if n.is_primary { " PRIMARY" } else { "" },
                n.epoch,
                n.applied
            )?;
        }
        write!(f, "promotions: ")?;
        for (i, (epoch, node)) in self.promotions.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}epoch {epoch} → node {node}")?;
        }
        Ok(())
    }
}

/// What one [`Cluster::tick`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickReport {
    /// A failover promoted this node at this epoch.
    pub promoted: Option<(u64, NodeId)>,
    /// The acting primary was fenced by a peer this tick (it demoted).
    pub fenced: bool,
}

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

/// A primary/replica group over one [`NodeTransport`] — in-process by
/// default, or any pluggable implementation (e.g. a socket transport)
/// via [`Cluster::new_with_transport`].
pub struct Cluster {
    config: ClusterConfig,
    dirs: Vec<PathBuf>,
    transport: Arc<dyn NodeTransport>,
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
        Self::new_with_transport(root, config, make_core, Arc::new(InProcessTransport::new()))
    }

    /// [`Cluster::new`] over an explicit transport, so nodes can talk
    /// through real sockets (`ctxpref-net`'s `TcpTransport`) instead of
    /// the in-process registry. The control plane is identical either
    /// way: every peer interaction goes through [`NodeTransport::send`].
    pub fn new_with_transport(
        root: &Path,
        config: ClusterConfig,
        make_core: impl Fn() -> Arc<ShardedMultiUserDb>,
        transport: Arc<dyn NodeTransport>,
    ) -> Result<Self, ReplicationError> {
        assert!(config.nodes >= 1, "a cluster needs at least one node");
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

    /// The transport (for direct partition scripting in tests).
    pub fn transport(&self) -> &Arc<dyn NodeTransport> {
        &self.transport
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

    /// One control-plane beat: pump replication, probe the primary
    /// from every replica, and — with auto-failover on — promote once
    /// every live replica has missed [`ClusterConfig::heartbeat_threshold`]
    /// consecutive probes.
    pub fn tick(&self) -> TickReport {
        let mut report = TickReport::default();
        let mut st = self.state.lock();
        if let Ok(true) = self.pump_locked(&mut st) {
            report.fenced = true;
        }
        let primary = st.primary;
        let mut any_replica = false;
        let mut all_past_threshold = true;
        for id in 0..self.config.nodes {
            if Some(id) == primary {
                continue;
            }
            let Some(node) = st.nodes[id].clone() else {
                continue;
            };
            any_replica = true;
            let reachable = match primary {
                Some(p) => {
                    let env = Envelope {
                        from: id,
                        epoch: node.epoch(),
                        msg: Message::Heartbeat,
                    };
                    matches!(
                        self.transport.send(p, env),
                        Ok(Reply::Beat { .. }) | Ok(Reply::Fenced { .. })
                    )
                }
                None => false,
            };
            if reachable {
                st.missed[id] = 0;
            } else {
                st.missed[id] = st.missed[id].saturating_add(1);
            }
            if st.missed[id] < self.config.heartbeat_threshold {
                all_past_threshold = false;
            }
        }
        if any_replica && all_past_threshold && self.config.auto_failover {
            if let Ok(promoted) = self.failover_locked(&mut st) {
                report.promoted = Some(promoted);
            }
        }
        report
    }

    /// Manually promote node `id` (same safety rules as auto-failover:
    /// a reachability majority is required, and the candidate pulls
    /// every reachable peer's suffix before serving).
    pub fn promote(&self, id: NodeId) -> Result<u64, ReplicationError> {
        let mut st = self.state.lock();
        self.promote_locked(&mut st, id)
    }

    /// Pick the best live candidate (highest applied LSN total, ties to
    /// the lowest id) and promote the first that can reach a majority.
    fn failover_locked(&self, st: &mut ClusterState) -> Result<(u64, NodeId), ReplicationError> {
        let mut candidates: Vec<(NodeId, u64)> = (0..self.config.nodes)
            .filter_map(|id| {
                let node = st.nodes[id].as_ref()?;
                Some((id, node.applied_lsns().iter().sum::<u64>()))
            })
            .collect();
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut last = ReplicationError::NoPrimary;
        for (id, _) in candidates {
            match self.promote_locked(st, id) {
                Ok(epoch) => return Ok((epoch, id)),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// The promotion protocol:
    ///
    /// 1. Probe every other configured node from the candidate; a
    ///    majority of the cluster (counting the candidate) must answer,
    ///    else refuse — promoting on a minority island could strand
    ///    quorum-acked writes on the other side.
    /// 2. Pull each reachable peer's log suffix into the candidate,
    ///    shard by shard (peers ahead on a shard resync it wholesale if
    ///    their suffix was already checkpointed away). Any quorum-acked
    ///    write lives on a majority, every majority intersects the
    ///    reachable set, so the candidate ends up holding them all.
    /// 3. Mint `max(seen epochs) + 1`, persist it on the candidate,
    ///    flip it to primary, and broadcast the new epoch so reachable
    ///    stale primaries demote immediately.
    fn promote_locked(&self, st: &mut ClusterState, id: NodeId) -> Result<u64, ReplicationError> {
        let candidate = st.nodes[id]
            .clone()
            .ok_or(ReplicationError::NodeDown { node: id })?;
        // 1. Reachability quorum.
        let mut reached = 1;
        let mut peers: Vec<NodeId> = Vec::new();
        for other in 0..self.config.nodes {
            if other == id {
                continue;
            }
            for _ in 0..2 {
                let env = Envelope {
                    from: id,
                    epoch: candidate.epoch(),
                    msg: Message::Heartbeat,
                };
                match self.transport.send(other, env) {
                    Ok(Reply::Beat { epoch, .. }) => {
                        candidate.adopt_epoch(epoch);
                        reached += 1;
                        peers.push(other);
                        break;
                    }
                    Ok(Reply::Fenced { current }) => {
                        // Reachable, but our epoch was stale: adopt
                        // theirs and re-probe for their positions.
                        candidate.adopt_epoch(current);
                    }
                    _ => break,
                }
            }
        }
        let needed = self.config.nodes / 2 + 1;
        if reached < needed {
            return Err(ReplicationError::NoQuorumForPromotion { reached, needed });
        }
        // 2. Pull every reachable peer's suffix into the candidate.
        for &peer_id in &peers {
            let Some(peer) = st.nodes[peer_id].clone() else {
                continue;
            };
            for shard in 0..self.config.shards {
                self.pull_shard(&candidate, &peer, shard);
            }
        }
        // 3. Mint, persist, serve, broadcast.
        let epoch = candidate.epoch() + 1;
        candidate.promote(epoch);
        let old = st.primary.take();
        st.primary = Some(id);
        st.promotions.push((epoch, id));
        st.cursors.clear();
        st.missed.iter_mut().for_each(|m| *m = 0);
        for &peer_id in &peers {
            let env = Envelope {
                from: id,
                epoch,
                msg: Message::Heartbeat,
            };
            let _ = self.transport.send(peer_id, env);
        }
        if let Some(old_id) = old {
            if old_id != id {
                if let Some(hook) = self.on_demotion.lock().as_ref() {
                    hook(old_id, epoch);
                }
            }
        }
        if let Some(hook) = self.on_promotion.lock().as_ref() {
            hook(id, epoch);
        }
        Ok(epoch)
    }

    /// Pull `shard`'s suffix from `peer` into `candidate` during
    /// promotion. Messages travel peer → candidate through the
    /// transport (under the candidate's adopted epoch, so they are not
    /// self-fenced), with bounded retries against injected faults.
    fn pull_shard(&self, candidate: &Arc<ReplNode>, peer: &Arc<ReplNode>, shard: usize) {
        for _ in 0..25 {
            let cursor = candidate.applied_lsns()[shard] + 1;
            let batch = match peer
                .db()
                .read_shard_from(shard, cursor, self.config.batch_max)
            {
                Ok(b) => b,
                Err(_) => return,
            };
            let msg = match batch {
                None => {
                    // The peer checkpointed the suffix away; if it is
                    // genuinely ahead on this shard, resync wholesale.
                    let (stripes, lsns) = peer.db().snapshot_with_lsns();
                    if lsns[shard] < cursor {
                        return;
                    }
                    Message::Resync {
                        shard,
                        users: stripes.into_iter().nth(shard).unwrap_or_default(),
                        last_lsn: lsns[shard],
                    }
                }
                Some(records) if records.is_empty() => return,
                Some(records) => Message::Records {
                    shard,
                    records: records.into_iter().map(|r| (r.lsn, r.payload)).collect(),
                },
            };
            let env = Envelope {
                from: peer.id(),
                epoch: candidate.epoch(),
                msg,
            };
            match self.transport.send(candidate.id(), env) {
                Ok(Reply::Progress { .. }) | Ok(Reply::Resynced) => {}
                _ => continue,
            }
        }
    }

    /// Compare per-shard digests between the primary and every live
    /// replica; resync each divergent shard from the primary's copy.
    /// Returns how many shard resyncs were performed. Run this against
    /// a quiescent (or briefly paused) cluster — concurrent writes make
    /// digests transiently diverge by design.
    pub fn anti_entropy(&self) -> Result<usize, ReplicationError> {
        let mut st = self.state.lock();
        let Some(p) = st.primary else {
            return Err(ReplicationError::NoPrimary);
        };
        let node = st.nodes[p].clone().ok_or(ReplicationError::NoPrimary)?;
        let local = node_digests(node.db());
        let mut resyncs = 0;
        for other in 0..self.config.nodes {
            if other == p || st.nodes[other].is_none() {
                continue;
            }
            let env = Envelope {
                from: p,
                epoch: node.epoch(),
                msg: Message::DigestRequest,
            };
            let theirs = match self.transport.send(other, env) {
                Ok(Reply::Digests { digests }) => digests,
                Ok(Reply::Fenced { current }) => {
                    self.fence_primary(&mut st, &node, current);
                    return Err(ReplicationError::Fenced { epoch: current });
                }
                _ => continue,
            };
            for shard in 0..self.config.shards {
                if theirs.get(shard) == Some(&local[shard]) {
                    continue;
                }
                // Divergent: replace the replica's shard with the
                // primary's authoritative copy and watermark.
                let (stripes, lsns) = node.db().snapshot_with_lsns();
                let msg = Message::Resync {
                    shard,
                    users: stripes.into_iter().nth(shard).unwrap_or_default(),
                    last_lsn: lsns[shard],
                };
                let env = Envelope {
                    from: p,
                    epoch: node.epoch(),
                    msg,
                };
                match self.transport.send(other, env) {
                    Ok(Reply::Resynced) => {
                        resyncs += 1;
                        if let Some(c) = st.cursors.get_mut(&other) {
                            c[shard] = lsns[shard] + 1;
                        }
                    }
                    Ok(Reply::Fenced { current }) => {
                        self.fence_primary(&mut st, &node, current);
                        return Err(ReplicationError::Fenced { epoch: current });
                    }
                    _ => {}
                }
            }
        }
        Ok(resyncs)
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
