//! The failure-handling half of [`Cluster`]: the heartbeat tick,
//! majority-guarded promotion with pre-serve catch-up, and
//! anti-entropy. A child module, so it reads the cluster's private
//! state without widening any field.

use super::{Cluster, ClusterState};
use crate::digest::node_digests;
use crate::error::ReplicationError;
use crate::message::{Envelope, LogPos, Message, NodeId, Reply};
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
        // A primary that adopted a higher epoch has demoted itself: as
        // good as gone (a failed promotion can leave that epoch behind).
        let serving = |p: &NodeId| st.nodes[*p].as_ref().is_some_and(|n| n.is_primary());
        let primary = st.primary.filter(serving);
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
                    let beat = self.beat(id, node.epoch(), p);
                    matches!(beat, Ok(Reply::Beat { .. }) | Ok(Reply::Fenced { .. }))
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
    /// each shard from the best reachable log before serving).
    pub fn promote(&self, id: NodeId) -> Result<u64, ReplicationError> {
        let mut st = self.state.lock();
        self.promote_locked(&mut st, id)
    }

    /// Promote the first live node, by id, that can. Every candidate
    /// pulls each shard from the best reachable log before serving, so
    /// which one wins does not decide what survives.
    fn failover_locked(&self, st: &mut ClusterState) -> Result<(u64, NodeId), ReplicationError> {
        let mut last = ReplicationError::NoPrimary;
        for id in 0..self.config.nodes {
            if st.nodes[id].is_none() {
                continue;
            }
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
    /// 2. Per shard, catch the candidate up from the reachable log with
    ///    the highest last `(epoch, lsn)`, or refuse. A quorum-acked
    ///    write lives on a majority, which meets the reachable set, and
    ///    a log ranked at least as high holds it too (Raft's
    ///    up-to-date rule), so the candidate ends up with them all.
    /// 3. Mint `max(seen epochs) + 1` and claim it: a majority must
    ///    adopt it, durably, or the promotion is refused. The next
    ///    promotion's majority meets this one, so it mints a higher
    ///    epoch, and a stale primary outside it cannot gather acks.
    /// 4. Persist the candidate's epoch pairs (or refuse) and flip it
    ///    to primary.
    fn promote_locked(&self, st: &mut ClusterState, id: NodeId) -> Result<u64, ReplicationError> {
        let candidate = st.nodes[id]
            .clone()
            .ok_or(ReplicationError::NodeDown { node: id })?;
        // 1. Reachability quorum.
        let mut peers: Vec<(NodeId, Vec<LogPos>)> = Vec::new();
        for other in 0..self.config.nodes {
            if other == id {
                continue;
            }
            for _ in 0..2 {
                match self.beat(id, candidate.epoch(), other) {
                    Ok(Reply::Beat { epoch, positions }) => {
                        candidate.adopt_epoch(epoch)?;
                        peers.push((other, positions));
                        break;
                    }
                    Ok(Reply::Fenced { current }) => {
                        // Reachable, but our epoch was stale: adopt
                        // theirs and re-probe for their positions.
                        candidate.adopt_epoch(current)?;
                    }
                    _ => break,
                }
            }
        }
        let needed = self.config.nodes / 2 + 1;
        let reached = 1 + peers.len();
        if reached < needed {
            return Err(ReplicationError::NoQuorumForPromotion { reached, needed });
        }
        // 2. Pull each shard from the best reachable log (a tie keeps
        //    the candidate's own).
        let own = candidate.positions();
        st.cursors.clear();
        st.cursors.insert(id, own.clone());
        for (shard, own) in own.into_iter().enumerate() {
            let logs = peers
                .iter()
                .map(|(peer, positions)| (positions[shard], *peer));
            let Some((_, peer_id)) = logs.filter(|l| l.0 > own).max_by_key(|l| l.0) else {
                continue;
            };
            let peer = st.nodes[peer_id]
                .clone()
                .ok_or(ReplicationError::NodeDown { node: peer_id })?;
            if !self.catch_up(st, &peer, id, shard, candidate.epoch())? {
                return Err(ReplicationError::Peer {
                    reason: format!("shard {shard} did not catch up from node {peer_id}"),
                });
            }
        }
        // 3. Mint and claim.
        let epoch = candidate.epoch() + 1;
        candidate.adopt_epoch(epoch)?;
        let adopts =
            |peer| (0..2).any(|_| matches!(self.beat(id, epoch, peer), Ok(Reply::Beat { .. })));
        let reached = 1 + peers.iter().filter(|(peer, _)| adopts(*peer)).count();
        if reached < needed {
            return Err(ReplicationError::NoQuorumForPromotion { reached, needed });
        }
        // 4. Serve.
        candidate.promote(epoch)?;
        st.primary = Some(id);
        st.promotions.push((epoch, id));
        st.cursors.clear();
        st.missed.iter_mut().for_each(|m| *m = 0);
        Ok(epoch)
    }

    /// Catch every live replica up with the primary, then compare
    /// per-shard digests and resync, through catch-up, each shard that
    /// still differs. Returns how many such resyncs were performed. Run
    /// this against a quiescent (or briefly paused) cluster —
    /// concurrent writes make digests transiently diverge by design.
    pub fn anti_entropy(&self) -> Result<usize, ReplicationError> {
        let mut st = self.state.lock();
        let Some(p) = st.primary else {
            return Err(ReplicationError::NoPrimary);
        };
        let node = st.nodes[p].clone().ok_or(ReplicationError::NoPrimary)?;
        if self.pump_locked(&mut st)? {
            return Err(ReplicationError::Fenced {
                epoch: node.epoch(),
            });
        }
        let local = node_digests(node.db());
        let unknown = LogPos {
            epoch: u64::MAX,
            lsn: 0,
        };
        let mut resyncs = 0;
        for other in 0..self.config.nodes {
            if other == p || st.nodes[other].is_none() {
                continue;
            }
            let env = Envelope::new(p, node.epoch(), Message::DigestRequest);
            let theirs = match self.transport.send(other, env) {
                Ok(Reply::Digests { digests }) => digests,
                Ok(Reply::Fenced { current }) => {
                    self.fence_primary(&mut st, &node, current);
                    return Err(ReplicationError::Fenced { epoch: current });
                }
                _ => continue,
            };
            for (shard, digest) in local.iter().enumerate() {
                if theirs.get(shard) == Some(digest) {
                    continue;
                }
                // The contents still differ: a position no log holds
                // makes catch-up resync the shard.
                let cursor = st
                    .cursors
                    .entry(other)
                    .or_insert_with(|| vec![unknown; local.len()]);
                cursor[shard] = unknown;
                match self.catch_up(&mut st, &node, other, shard, node.epoch()) {
                    Ok(true) => resyncs += 1,
                    Err(ReplicationError::Fenced { epoch }) => {
                        self.fence_primary(&mut st, &node, epoch);
                        return Err(ReplicationError::Fenced { epoch });
                    }
                    _ => {}
                }
            }
        }
        Ok(resyncs)
    }
}
