//! The failure-handling half of [`Cluster`]: the heartbeat tick,
//! majority-guarded promotion with pre-serve catch-up, and
//! digest-driven anti-entropy. A child module, so it reads the
//! cluster's private state without widening any field.

use std::sync::Arc;

use super::{Cluster, ClusterState};
use crate::digest::node_digests;
use crate::error::ReplicationError;
use crate::message::{Envelope, Message, NodeId, Reply};
use crate::node::ReplNode;
use crate::status::TickReport;

impl Cluster {
    /// One control-plane beat: pump replication, probe the primary
    /// from every replica, and — with auto-failover on — promote once
    /// every live replica has missed
    /// [`ClusterConfig::heartbeat_threshold`](crate::ClusterConfig::heartbeat_threshold)
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
}
