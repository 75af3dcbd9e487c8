//! Typed errors of the replication layer.

use std::error::Error;
use std::fmt;

use ctxpref_wal::{DurableError, WalError};

use crate::message::NodeId;

/// Why a message could not be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The destination node is not registered (crashed or removed).
    Unreachable(NodeId),
    /// A partition (static or injected) separates the two nodes.
    Partitioned,
    /// The network dropped this message (injected loss).
    Dropped,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unreachable(id) => write!(f, "node {id} is unreachable"),
            Self::Partitioned => write!(f, "link is partitioned"),
            Self::Dropped => write!(f, "message dropped"),
        }
    }
}

impl Error for TransportError {}

/// Errors of cluster-level replication operations.
#[derive(Debug)]
pub enum ReplicationError {
    /// No live primary exists right now (between a crash and the
    /// failover that repairs it).
    NoPrimary,
    /// The addressed node is not the primary (it was deposed, or never
    /// was) — writes must go to the current primary.
    NotPrimary {
        /// The node that refused the write.
        node: NodeId,
    },
    /// The addressed node does not exist or is crashed.
    NodeDown {
        /// The missing node.
        node: NodeId,
    },
    /// A quorum write could not reach a majority before acking. The
    /// write is in the primary's log and may still replicate later,
    /// but it was **not** acknowledged.
    QuorumFailed {
        /// Nodes (including the primary) that durably hold the write.
        acked: usize,
        /// The majority that was required.
        needed: usize,
    },
    /// A receiver with a higher epoch fenced this node's traffic: the
    /// sender was deposed and must demote.
    Fenced {
        /// The fencing (current) epoch.
        epoch: u64,
    },
    /// A promotion could not reach a majority of the cluster, so it
    /// was refused (promoting on a minority island could lose
    /// quorum-acked writes).
    NoQuorumForPromotion {
        /// Nodes the candidate could reach, including itself.
        reached: usize,
        /// The majority that was required.
        needed: usize,
    },
    /// A peer received a message but failed to process it (its durable
    /// layer errored); the operation should be retried later.
    Peer {
        /// The peer's reported cause.
        reason: String,
    },
    /// The durable layer failed beneath replication.
    Durable(DurableError),
    /// The log/manifest layer failed beneath replication.
    Wal(WalError),
    /// Delivery failed.
    Transport(TransportError),
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoPrimary => write!(f, "no live primary (failover pending)"),
            Self::NotPrimary { node } => write!(f, "node {node} is not the primary"),
            Self::NodeDown { node } => write!(f, "node {node} is down"),
            Self::QuorumFailed { acked, needed } => {
                write!(
                    f,
                    "quorum write reached {acked} of the {needed} nodes required"
                )
            }
            Self::Fenced { epoch } => {
                write!(f, "fenced by epoch {epoch}: this node was deposed")
            }
            Self::NoQuorumForPromotion { reached, needed } => {
                write!(
                    f,
                    "promotion refused: reached {reached} nodes, majority is {needed}"
                )
            }
            Self::Peer { reason } => write!(f, "peer failed: {reason}"),
            Self::Durable(e) => write!(f, "{e}"),
            Self::Wal(e) => write!(f, "{e}"),
            Self::Transport(e) => write!(f, "transport: {e}"),
        }
    }
}

impl Error for ReplicationError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Durable(e) => Some(e),
            Self::Wal(e) => Some(e),
            Self::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DurableError> for ReplicationError {
    fn from(e: DurableError) -> Self {
        Self::Durable(e)
    }
}

impl From<WalError> for ReplicationError {
    fn from(e: WalError) -> Self {
        Self::Wal(e)
    }
}

impl From<TransportError> for ReplicationError {
    fn from(e: TransportError) -> Self {
        Self::Transport(e)
    }
}
