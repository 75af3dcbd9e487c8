#![warn(missing_docs)]
//! WAL-shipping replication for the durable serving core.
//!
//! One primary [`DurableDb`](ctxpref_wal::DurableDb) accepts writes;
//! replicas mirror its per-shard LSN sequence by appending the shipped
//! payloads to their **own** write-ahead logs (both sides use the same
//! user→shard fold, so shard `i` here is shard `i` there). That makes
//! every replica a complete durable node in its own right: it
//! checkpoints, recovers, and — after a failover — serves as the next
//! primary with no format conversion.
//!
//! The layers, bottom to top:
//!
//! * `message` — the wire vocabulary: epoch-stamped [`Envelope`]s
//!   carrying record batches, heartbeats, digests, and one-shard
//!   resyncs; [`Reply`] closes the loop with the receiver's [`LogPos`],
//!   the `(epoch, lsn)` its shard's log ends at.
//! * `epoch` — which epoch wrote which LSNs: lookups in the pairs
//!   each node's checkpoint manifest persists beside its fencing term,
//!   so deposed primaries stay deposed across crashes.
//! * `node` — [`ReplNode`]: one participant; symmetric `handle`
//!   services shipping, catch-up pulls, and resyncs alike, with the
//!   epoch fence applied before anything else.
//! * `digest` — canonical per-shard digests for anti-entropy: the
//!   frame checksum over the shard's snapshot-op bytes.
//! * `migrate` — the per-user snapshot + catch-up primitives that
//!   the routing tier composes into live migration between clusters.
//! * `transport` — in-process delivery between nodes, threaded through
//!   the `repl.*` fault sites so a seeded
//!   [`FaultPlan`](ctxpref_faults::FaultPlan) can partition, drop,
//!   delay, and duplicate deterministically. Every node of a cluster
//!   lives in one address space; there is no socket transport.
//! * `cluster` — [`Cluster`]: membership, cursors, quorum writes,
//!   heartbeat failure detection, majority-guarded promotion, and
//!   anti-entropy, all over one catch-up path; its config and
//!   reporting types ([`ClusterConfig`], [`ClusterStatus`], …) live in
//!   the private `status` module.
//!
//! The replication chaos suite (`tests/chaos.rs`) drives all of it
//! across a seed matrix and asserts: acked quorum writes survive
//! partitions and primary kills, promotions carry strictly ascending
//! epochs, and healed clusters converge to byte-equal digests.

mod cluster;
mod digest;
mod epoch;
mod error;
mod message;
mod migrate;
mod node;
mod status;
mod transport;

pub use cluster::Cluster;
pub use digest::{node_digests, stripe_digest};
pub use error::{ReplicationError, TransportError};
pub use message::{Envelope, LogPos, Message, NodeId, Reply, ShippedRecord};
pub use migrate::{user_cut, user_digest, user_suffix, UserSuffix};
pub use node::ReplNode;
pub use status::{AckMode, ClusterConfig, ClusterStatus, NodeStatus, TickReport};
