//! Message delivery between nodes.
//!
//! [`InProcessTransport`] routes an [`Envelope`] straight into the
//! destination node's `handle`, but every send first walks the
//! network fault sites (`repl.partition`, `repl.send.drop` /
//! `repl.heartbeat.drop`, `repl.send.delay`, `repl.send.duplicate`),
//! so a deterministic [`FaultPlan`](ctxpref_faults::FaultPlan) can
//! partition links, lose or delay batches, and redeliver duplicates
//! without any real network in the loop.

use std::collections::HashMap;
use std::sync::Arc;

use ctxpref_faults::hit;
use ctxpref_faults::sites::{
    REPL_HEARTBEAT_DROP, REPL_PARTITION, REPL_SEND_DELAY, REPL_SEND_DROP, REPL_SEND_DUPLICATE,
};
use parking_lot::{Mutex, RwLock};

use crate::error::TransportError;
use crate::message::{Envelope, Message, NodeId, Reply};
use crate::node::ReplNode;

/// In-process transport: a registry of live nodes plus an explicit
/// partition set. Deregistered nodes model crashes (Unreachable);
/// partitions are symmetric per unordered node pair.
#[derive(Default)]
pub(crate) struct InProcessTransport {
    nodes: RwLock<HashMap<NodeId, Arc<ReplNode>>>,
    /// Severed links, stored with the smaller id first.
    partitions: Mutex<Vec<(NodeId, NodeId)>>,
}

impl InProcessTransport {
    /// Make `node` reachable.
    pub(crate) fn register(&self, node: Arc<ReplNode>) {
        self.nodes.write().insert(node.id(), node);
    }

    /// Crash `id`: every future send to it fails Unreachable.
    pub(crate) fn deregister(&self, id: NodeId) {
        self.nodes.write().remove(&id);
    }

    /// Sever the link between `a` and `b` (both directions).
    pub(crate) fn partition(&self, a: NodeId, b: NodeId) {
        let link = (a.min(b), a.max(b));
        let mut parts = self.partitions.lock();
        if !parts.contains(&link) {
            parts.push(link);
        }
    }

    /// Restore the link between `a` and `b`.
    pub(crate) fn heal(&self, a: NodeId, b: NodeId) {
        let link = (a.min(b), a.max(b));
        self.partitions.lock().retain(|l| *l != link);
    }

    /// Restore every link.
    pub(crate) fn heal_all(&self) {
        self.partitions.lock().clear();
    }

    fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        let link = (a.min(b), a.max(b));
        self.partitions.lock().contains(&link)
    }

    /// Deliver `env` to node `to` and return its reply.
    pub(crate) fn send(&self, to: NodeId, env: Envelope) -> Result<Reply, TransportError> {
        // 1. Partitions cut the link before anything else: an explicit
        //    partition or an injected one at `repl.partition`.
        if self.is_partitioned(env.from, to) || hit(REPL_PARTITION).is_err() {
            return Err(TransportError::Partitioned);
        }
        // 2. Loss, on a site split by traffic class so plans can starve
        //    the failure detector without losing data (or vice versa).
        let drop_site = if matches!(env.msg, Message::Heartbeat) {
            REPL_HEARTBEAT_DROP
        } else {
            REPL_SEND_DROP
        };
        if hit(drop_site).is_err() {
            return Err(TransportError::Dropped);
        }
        // 3. Latency: a Delay fault sleeps inside `hit` and returns Ok.
        let _ = hit(REPL_SEND_DELAY);
        let node = self
            .nodes
            .read()
            .get(&to)
            .cloned()
            .ok_or(TransportError::Unreachable(to))?;
        let reply = node.handle(&env);
        // 4. Duplicate delivery: the receiver sees the same envelope
        //    twice; LSN cursors make the replay a no-op, and the chaos
        //    suite asserts exactly that.
        if hit(REPL_SEND_DUPLICATE).is_err() {
            let _ = node.handle(&env);
        }
        Ok(reply)
    }
}
