//! The cluster's configuration and reporting vocabulary: how writes
//! are acknowledged, the tuning knobs, and the status snapshots the
//! operator (`repl-status`) and the control loop (`tick`) read back.

use ctxpref_wal::WalOptions;

use crate::message::NodeId;

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
    /// Whether [`Cluster::tick`](crate::Cluster::tick) promotes
    /// automatically on primary failure; off, failover is
    /// [`Cluster::promote`](crate::Cluster::promote)-only.
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
#[derive(Debug, Clone, Copy, Default)]
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
    /// How far the laggiest live replica trails the primary on its
    /// laggiest shard, in records (0 with no primary or no live
    /// replica).
    pub max_lag: u64,
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

/// What one [`Cluster::tick`](crate::Cluster::tick) did.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickReport {
    /// A failover promoted this node at this epoch.
    pub promoted: Option<(u64, NodeId)>,
    /// The acting primary was fenced by a peer this tick (it demoted).
    pub fenced: bool,
}
