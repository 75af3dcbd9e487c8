//! The routing table: a consistent-hash ring over clusters, per-user
//! ownership overrides, and the routing epoch.
//!
//! Every user has a **home** cluster given by consistent hashing over
//! the ring; a completed migration records an **override** that wins
//! over the home. The table's **epoch** advances on every committed
//! migration, and each override remembers the epoch that installed it,
//! so a commit from a deposed (older-epoch) migration driver is
//! refused instead of clobbering newer ownership. At any epoch each
//! user maps to exactly one cluster — the single-owner invariant the
//! chaos suite asserts.

use std::collections::HashMap;

/// A ring point for `bytes`: FNV-1a (deterministic across runs and
/// platforms, so the ring never moves between restarts) pushed through
/// a 64-bit avalanche finalizer. Raw FNV of short keys that differ
/// only in their last characters clusters into narrow bands (the
/// trailing bytes see too few multiplies), which makes a
/// consistent-hash ring wildly unbalanced; the finalizer spreads those
/// bands over the full space.
fn ring_point(bytes: &[u8]) -> u64 {
    let mut x = ctxpref_bytes::fnv1a64(bytes);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// A consistent-hash routing table over `clusters` clusters.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// `(point, cluster)` sorted by point: the ring.
    ring: Vec<(u64, usize)>,
    clusters: usize,
    /// Per-user ownership overrides: `user -> (cluster, epoch)`.
    overrides: HashMap<String, (usize, u64)>,
    epoch: u64,
    next_epoch: u64,
}

impl RoutingTable {
    /// A ring over `clusters` clusters with `vnodes` virtual points
    /// each (more points → smoother balance, larger binary searches).
    pub fn new(clusters: usize, vnodes: usize) -> Self {
        assert!(clusters > 0, "a routing table needs at least one cluster");
        let vnodes = vnodes.max(1);
        let mut ring = Vec::with_capacity(clusters * vnodes);
        for cluster in 0..clusters {
            for v in 0..vnodes {
                let point = ring_point(format!("cluster-{cluster}-vnode-{v}").as_bytes());
                ring.push((point, cluster));
            }
        }
        ring.sort_unstable();
        Self {
            ring,
            clusters,
            overrides: HashMap::new(),
            epoch: 0,
            next_epoch: 0,
        }
    }

    /// Number of clusters behind the ring.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// The current routing epoch (advances on every committed
    /// migration).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `user`'s home cluster from the ring alone, ignoring overrides.
    pub fn home_of(&self, user: &str) -> usize {
        let point = ring_point(user.as_bytes());
        let idx = self.ring.partition_point(|&(p, _)| p < point);
        self.ring[idx % self.ring.len()].1
    }

    /// The cluster that currently owns `user`: the migration override
    /// if one exists, the ring's home otherwise.
    pub fn cluster_of(&self, user: &str) -> usize {
        match self.overrides.get(user) {
            Some(&(cluster, _)) => cluster,
            None => self.home_of(user),
        }
    }

    /// Mint a fresh routing epoch for a migration about to start. The
    /// epoch travels with every protocol step so the serving side can
    /// refuse a deposed driver's stale actions.
    pub fn mint_epoch(&mut self) -> u64 {
        self.next_epoch = self.next_epoch.max(self.epoch) + 1;
        self.next_epoch
    }

    /// Commit a migration: `user` now lives on `dest`, owned by
    /// `epoch`. Refused (returns `false`) when a newer migration
    /// already owns the user's override — the deposed driver must not
    /// clobber it. On success the table epoch advances to at least
    /// `epoch`.
    pub fn commit(&mut self, user: &str, dest: usize, epoch: u64) -> bool {
        if let Some(&(_, owner)) = self.overrides.get(user) {
            if owner >= epoch {
                return false;
            }
        }
        self.overrides.insert(user.to_string(), (dest, epoch));
        self.epoch = self.epoch.max(epoch);
        true
    }

    /// Every override, sorted by user (for status rendering).
    pub fn overrides(&self) -> Vec<(String, usize, u64)> {
        let mut v: Vec<_> = self
            .overrides
            .iter()
            .map(|(u, &(c, e))| (u.clone(), c, e))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_total() {
        let a = RoutingTable::new(3, 16);
        let b = RoutingTable::new(3, 16);
        for i in 0..200 {
            let user = format!("user-{i}");
            let c = a.cluster_of(&user);
            assert_eq!(c, b.cluster_of(&user), "ring moved between builds");
            assert!(c < 3);
        }
    }

    #[test]
    fn ring_spreads_users_across_clusters() {
        let table = RoutingTable::new(4, 32);
        let mut counts = [0usize; 4];
        for i in 0..400 {
            counts[table.cluster_of(&format!("user-{i}"))] += 1;
        }
        for (cluster, &n) in counts.iter().enumerate() {
            assert!(n > 0, "cluster {cluster} received no users: {counts:?}");
        }
    }

    #[test]
    fn override_wins_over_home_and_stale_commit_is_refused() {
        let mut table = RoutingTable::new(2, 8);
        let home = table.home_of("alice");
        let dest = 1 - home;

        let e1 = table.mint_epoch();
        let e2 = table.mint_epoch();
        assert!(e2 > e1);

        assert!(table.commit("alice", dest, e2));
        assert_eq!(table.cluster_of("alice"), dest);
        assert_eq!(table.epoch(), e2);

        // The deposed driver's older-epoch commit must not clobber.
        assert!(!table.commit("alice", home, e1));
        assert_eq!(table.cluster_of("alice"), dest);

        // A newer migration moves the user again.
        let e3 = table.mint_epoch();
        assert!(table.commit("alice", home, e3));
        assert_eq!(table.cluster_of("alice"), home);
    }
}
