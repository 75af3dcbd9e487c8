//! Deterministic log-divergence cases: logs are matched by
//! `(epoch, lsn)`, never by LSN alone.
//!
//! Both build the same history on a one-shard cluster, so LSNs collide:
//! the primary (node 0) writes `a` everywhere, is cut off and logs two
//! unacked writes at LSNs 2 and 3, node 1 is promoted at epoch 2 and
//! logs the acked write `b` at LSN 2. Node 0's log is now longer, from
//! an older epoch.
//!
//! * When node 0 rejoins, shipping alone must replace its suffix with
//!   the new primary's, not skip `b` as a duplicate of its own LSN 2.
//! * When node 1 dies before node 0 hears of `b`, the next promotion
//!   must rank node 0's log `(1, 3)` below node 2's `(2, 2)`, not above
//!   it by LSN, and so keep `b`.
//!
//! A last case checks that a primary demoted by a higher epoch, as a
//! failed promotion can leave behind, is replaced rather than kept.

use std::sync::Arc;

use ctxpref_core::ShardedMultiUserDb;
use ctxpref_replication::{node_digests, Cluster, ClusterConfig, ReplicationError};
use ctxpref_testkit::TempDir;
use ctxpref_wal::WalOp;
use ctxpref_workload::reference::{tiny_env, tiny_relation};

const NODES: usize = 3;

fn add(user: &str) -> WalOp {
    WalOp::AddUser { user: user.into() }
}

/// The shared history above; returns the cluster with node 0 still
/// partitioned from both peers and node 1 primary at epoch 2.
fn diverged_cluster(tmp: &TempDir) -> Cluster {
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = 1;
    cfg.heartbeat_threshold = 2;
    let make_core = || Arc::new(ShardedMultiUserDb::new(tiny_env(), tiny_relation(), 2, 1));
    let cluster = Cluster::new(tmp.path(), cfg, make_core).unwrap();
    cluster.write(add("a")).unwrap();
    cluster.pump().unwrap();

    cluster.partition(0, 1);
    cluster.partition(0, 2);
    for user in ["x1", "x2"] {
        match cluster.write_via(0, add(user)) {
            Err(ReplicationError::QuorumFailed { acked: 1, .. }) => {}
            other => panic!("{user} on the cut-off primary: {other:?}"),
        }
    }
    assert_eq!(cluster.promote(1).unwrap(), 2);
    cluster.write(add("b")).unwrap();
    let lsns = |id| cluster.node(id).unwrap().applied_lsns();
    assert_eq!((lsns(0), lsns(1), lsns(2)), (vec![3], vec![2], vec![2]));
    cluster
}

fn assert_converged_with_b(cluster: &Cluster) {
    let reference = node_digests(&cluster.primary_db().unwrap());
    for id in 0..NODES {
        let db = cluster.db_of(id).unwrap();
        let users = db.db().users_sorted();
        assert_eq!(users, ["a", "b"], "node {id} holds {users:?}");
        assert_eq!(node_digests(&db), reference, "node {id} diverged");
    }
}

#[test]
fn a_rejoining_deposed_primary_takes_the_successors_records() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("diverge-rejoin");
    let cluster = diverged_cluster(&tmp);
    cluster.heal_all();
    cluster.pump().unwrap();
    assert!(
        !cluster.node(0).unwrap().is_primary(),
        "the deposed primary demotes"
    );
    assert_converged_with_b(&cluster);
}

#[test]
fn promotion_ranks_logs_by_epoch_before_lsn() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("diverge-promote");
    let cluster = diverged_cluster(&tmp);
    cluster.heal(0, 2);
    cluster.crash_node(1);
    let mut promoted = None;
    for _ in 0..10 {
        if let Some(p) = cluster.tick().promoted {
            promoted = Some(p);
            break;
        }
    }
    let (epoch, _) = promoted.expect("auto-failover never promoted");
    assert_eq!(epoch, 3);
    cluster.restart_node(1).unwrap();
    cluster.anti_entropy().unwrap();
    assert_converged_with_b(&cluster);
}

/// A failed promotion can leave a minted epoch on some nodes. When one
/// of them reaches the primary, the primary adopts the epoch and
/// demotes; the failure detector must then treat it as gone and
/// promote, or the cluster keeps routing writes to a non-primary.
#[test]
fn a_primary_demoted_by_a_higher_epoch_is_replaced() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("diverge-demoted");
    let mut cfg = ClusterConfig::new(NODES);
    cfg.heartbeat_threshold = 2;
    let make_core = || Arc::new(ShardedMultiUserDb::new(tiny_env(), tiny_relation(), 2, 4));
    let cluster = Cluster::new(tmp.path(), cfg, make_core).unwrap();
    cluster.write(add("a")).unwrap();
    cluster.node(1).unwrap().adopt_epoch(5).unwrap();
    let mut promoted = None;
    for _ in 0..10 {
        if let Some(p) = cluster.tick().promoted {
            promoted = Some(p);
            break;
        }
    }
    let (epoch, _) = promoted.expect("the demoted primary was never replaced");
    assert!(epoch > 5, "promoted at epoch {epoch}");
    cluster.write(add("b")).unwrap();
}
