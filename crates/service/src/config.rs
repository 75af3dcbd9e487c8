use std::path::PathBuf;
use std::time::Duration;

use ctxpref_replication::{AckMode, ClusterConfig};
use ctxpref_wal::{SyncPolicy, WalOptions};

/// Bounded retry with exponential backoff for storage I/O.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub max_attempts: u32,
    /// Sleep before attempt `n+1` is `base_backoff · 2ⁿ⁻¹`.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
        }
    }
}

/// Configuration of [`crate::CtxPrefService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads that run every request: in-process queries, and
    /// every request a network server queues with
    /// [`crate::CtxPrefService::spawn`] — reads, writes and status
    /// verbs alike.
    pub workers: usize,
    /// Admission-control limit on queued + executing ranked reads;
    /// further reads are shed with [`crate::ServiceError::Overloaded`].
    pub max_in_flight: usize,
    /// Deadline applied by [`crate::CtxPrefService::query_state`].
    pub default_deadline: Duration,
    /// Retry policy for storage I/O.
    pub retry: RetryPolicy,
    /// Stripes of the sharded serving core (users are hashed onto
    /// shards; mutations lock only their shard).
    pub shards: usize,
    /// Cap on a whole storage operation including retry backoff: when
    /// the *next* backoff sleep would cross this deadline, the retry
    /// loop gives up with [`crate::ServiceError::DeadlineExceeded`] instead of
    /// sleeping past it.
    pub storage_deadline: Duration,
    /// Target queue sojourn time of the CoDel-style admission
    /// controller: dwell above this is treated as standing queue.
    pub codel_target: Duration,
    /// How long sojourn must stay above the target before the
    /// controller starts shedding (lowest tier first).
    pub codel_interval: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_in_flight: 64,
            default_deadline: Duration::from_millis(250),
            retry: RetryPolicy::default(),
            shards: ctxpref_core::DEFAULT_SHARDS,
            storage_deadline: Duration::from_secs(2),
            codel_target: Duration::from_millis(25),
            codel_interval: Duration::from_millis(100),
        }
    }
}

/// Configuration of the service's durability layer (separate from
/// [`ServiceConfig`], which stays `Copy`): where the write-ahead log
/// and checkpoints live, and how eagerly they reach the disk. A
/// replicated service runs every node by one of these
/// ([`ReplicatedConfig::durability`]), and its background checkpoints,
/// flushes and scrubs then cover every live node.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The durable directory (manifest, checkpoints, per-shard logs).
    pub dir: PathBuf,
    /// Fsync policy: per-record (durable acks) or group commit
    /// (batched fsync on the background flusher's interval).
    pub sync: SyncPolicy,
    /// Rotate a shard's WAL segment past this many bytes.
    pub segment_max_bytes: u64,
    /// Take a background checkpoint this often (`None` = only when
    /// [`crate::CtxPrefService::checkpoint`] is called).
    pub checkpoint_interval: Option<Duration>,
    /// Run a background scrub pass this often — verify sealed WAL
    /// segments and the checkpoint snapshot at rest, quarantine and
    /// heal what fails (`None` = only when [`crate::CtxPrefService::scrub`]
    /// is called).
    pub scrub_interval: Option<Duration>,
}

impl DurabilityConfig {
    /// Durability under `dir` with the conservative defaults: fsync
    /// per record, 1 MiB segments, a background checkpoint every 60 s,
    /// a background scrub every 5 min.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync: SyncPolicy::PerRecord,
            segment_max_bytes: 1 << 20,
            checkpoint_interval: Some(Duration::from_secs(60)),
            scrub_interval: Some(Duration::from_secs(300)),
        }
    }

    /// Switch to group commit with the given flush interval.
    pub fn group_commit(mut self, flush_interval: Duration) -> Self {
        self.sync = SyncPolicy::GroupCommit { flush_interval };
        self
    }

    /// Set (or disable, with `None`) the background scrub interval.
    pub fn scrub_every(mut self, interval: Option<Duration>) -> Self {
        self.scrub_interval = interval;
        self
    }

    pub(crate) fn wal_options(&self) -> WalOptions {
        WalOptions {
            sync: self.sync,
            segment_max_bytes: self.segment_max_bytes,
        }
    }
}

/// Configuration of the service's replication layer: how many nodes,
/// when writes are acknowledged, and how eagerly the control plane
/// ticks. Every node is a full durable database run by the one
/// [`DurabilityConfig`]: its WAL options, and the background
/// checkpointer, flusher and scrubber each live node gets.
#[derive(Debug, Clone)]
pub struct ReplicatedConfig {
    /// Every node's durability. Its `dir` is the cluster's root: node
    /// `i` gets the durable directory `<dir>/node-<i>`.
    pub durability: DurabilityConfig,
    /// Total nodes in the cluster (one primary, the rest replicas).
    /// Majorities for quorum acks and promotion are computed against
    /// this, so 3 tolerates one failure, 5 tolerates two.
    pub nodes: usize,
    /// When writes are acknowledged: [`AckMode::Async`] (primary-only,
    /// fast, may lose acked writes on failover) or [`AckMode::Quorum`]
    /// (majority-durable, failover-safe).
    pub ack_mode: AckMode,
    /// Whether the background tick promotes a replica automatically
    /// once the primary misses enough heartbeats.
    pub auto_failover: bool,
    /// Consecutive missed heartbeats (ticks) before the primary is
    /// declared dead.
    pub heartbeat_threshold: u32,
    /// Interval of the background control-plane tick (ship pending
    /// records, probe the primary, fail over). `None` = no background
    /// thread; drive [`crate::CtxPrefService::tick_replication`] manually.
    pub tick_interval: Option<Duration>,
}

impl ReplicatedConfig {
    /// A quorum-acked `nodes`-node cluster, each node durable per
    /// `durability`, with auto-failover after 3 missed beats and a
    /// 25 ms background tick.
    pub fn new(durability: DurabilityConfig, nodes: usize) -> Self {
        Self {
            durability,
            nodes,
            ack_mode: AckMode::Quorum,
            auto_failover: true,
            heartbeat_threshold: 3,
            tick_interval: Some(Duration::from_millis(25)),
        }
    }

    /// Switch to async acks (primary-only durability before the ack).
    pub fn async_acks(mut self) -> Self {
        self.ack_mode = AckMode::Async;
        self
    }

    pub(crate) fn cluster_config(&self, shards: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: self.nodes,
            shards,
            ack_mode: self.ack_mode,
            wal: self.durability.wal_options(),
            batch_max: 64,
            heartbeat_threshold: self.heartbeat_threshold,
            auto_failover: self.auto_failover,
        }
    }
}
