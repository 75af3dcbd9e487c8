//! The replication chaos matrix plus targeted failover tests.
//!
//! Each chaos seed boots a three-node cluster, then races a mutate
//! load (with a concurrent reader thread) against seeded network
//! faults — drops, delays, duplicates, injected partitions — and
//! scripted control-plane violence: explicit partitions, primary
//! kills, replica crashes and restarts, checkpoints that force the
//! per-shard resync (`Cluster::catch_up`). When the dust settles the
//! network heals, crashed nodes restart, and the suite asserts:
//!
//! 1. **Zero acked-write loss** (quorum seeds): every op the cluster
//!    acknowledged is present in the final primary's state.
//! 2. **Epoch-monotonic promotions** (all seeds): the promotion
//!    history carries strictly ascending epochs.
//! 3. **Digest convergence** (all seeds): after healing, pumping, and
//!    anti-entropy, every live node holds byte-equal shard digests.
//! 4. **Liveness**: the healed cluster accepts and replicates a fresh
//!    write.
//!
//! On seeds where no failover ever happened the suite also
//! byte-compares the primary against a model that applied exactly the
//! locally-applied ops, via the storage serialization.
//!
//! Override the matrix with `CTXPREF_FUZZ_SEEDS=start..end` (e.g.
//! `CTXPREF_FUZZ_SEEDS=7..8` to replay one seed).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ctxpref_context::ContextDescriptor;
use ctxpref_core::ShardedMultiUserDb;
use ctxpref_faults::sites::{
    REPL_HEARTBEAT_DROP, REPL_PARTITION, REPL_SEND_DELAY, REPL_SEND_DROP, REPL_SEND_DUPLICATE,
};
use ctxpref_faults::FaultPlan;
use ctxpref_profile::{AttributeClause, ContextualPreference};
use ctxpref_replication::{node_digests, AckMode, Cluster, ClusterConfig, ReplicationError};
use ctxpref_testkit::{effect_visible, seeds, Model, TempDir};
use ctxpref_wal::{SyncPolicy, WalOp, WalOptions};
use ctxpref_workload::reference::{tiny_env, tiny_relation};
use rand::{rngs::StdRng, Rng, SeedableRng};

const NODES: usize = 3;
const SHARDS: usize = 4;

fn make_core() -> Arc<ShardedMultiUserDb> {
    Arc::new(ShardedMultiUserDb::new(
        tiny_env(),
        tiny_relation(),
        2,
        SHARDS,
    ))
}

fn config_for_seed(seed: u64) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        shards: SHARDS,
        ack_mode: if seed.is_multiple_of(2) {
            AckMode::Quorum
        } else {
            AckMode::Async
        },
        wal: WalOptions {
            sync: if (seed / 2).is_multiple_of(2) {
                SyncPolicy::PerRecord
            } else {
                SyncPolicy::GroupCommit {
                    flush_interval: Duration::from_millis(5),
                }
            },
            segment_max_bytes: 512,
        },
        batch_max: 16,
        heartbeat_threshold: 2,
        auto_failover: true,
    }
}

/// Monotone-effect workload: users and clause values are globally
/// unique and never removed, so "this acked op's effect is visible"
/// is a well-defined final-state predicate even across failovers.
struct MonotoneWorkload {
    rng: StdRng,
    users: Vec<String>,
    next_user: u64,
    next_value: u64,
}

impl MonotoneWorkload {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0xc4a0_5011),
            users: Vec::new(),
            next_user: 0,
            next_value: 0,
        }
    }

    fn next_op(&mut self) -> WalOp {
        let roll = self.rng.random_range(0..100u32);
        if self.users.is_empty() || roll < 20 {
            let user = format!("u{}", self.next_user);
            self.next_user += 1;
            self.users.push(user.clone());
            WalOp::AddUser { user }
        } else {
            let user = self.users[self.rng.random_range(0..self.users.len())].clone();
            let rel = tiny_relation();
            let attr = rel.schema().require_attr("name").unwrap();
            let value = format!("v{}", self.next_value);
            self.next_value += 1;
            let score = self.rng.random_range(0..=1000) as f64 / 1000.0;
            let pref = ContextualPreference::new(
                ContextDescriptor::empty(),
                AttributeClause::eq(attr, value.into()),
                score,
            )
            .unwrap();
            WalOp::InsertPreference { user, pref }
        }
    }
}

/// One chaos seed: boot, rampage, heal, assert.
fn run_chaos_seed(seed: u64) -> Result<(), String> {
    let ctx = |what: &str| format!("seed={seed}: {what}");
    let tmp = TempDir::new(&format!("seed{seed}"));
    let cfg = config_for_seed(seed);
    let quorum = cfg.ack_mode == AckMode::Quorum;
    let cluster =
        Arc::new(Cluster::new(tmp.path(), cfg, make_core).map_err(|e| ctx(&format!("boot: {e}")))?);

    // The reader thread races queries against every live node while
    // mutations, partitions, and crashes fly.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for id in 0..NODES {
                    if let Some(db) = cluster.db_of(id) {
                        let users = db.db().users_sorted();
                        for user in users.iter().take(3) {
                            let _ = db.db().profile(user);
                        }
                        reads += 1;
                    }
                }
                std::thread::yield_now();
            }
            reads
        })
    };

    let plan = FaultPlan::builder(seed)
        .fail(REPL_SEND_DROP, 0.05)
        .fail(REPL_HEARTBEAT_DROP, 0.05)
        .fail(REPL_SEND_DUPLICATE, 0.10)
        .fail(REPL_PARTITION, 0.02)
        .delay(REPL_SEND_DELAY, 0.05, Duration::from_micros(50))
        .build();
    let guard = ctxpref_faults::install(Arc::clone(&plan));

    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bad_cafe);
    let mut workload = MonotoneWorkload::new(seed);
    let mut acked: Vec<WalOp> = Vec::new();
    let mut applied: Vec<WalOp> = Vec::new();
    let mut crashed: Vec<usize> = Vec::new();

    for i in 0..120 {
        let op = workload.next_op();
        match cluster.write(op.clone()) {
            Ok(_) => {
                acked.push(op.clone());
                applied.push(op);
            }
            Err(ReplicationError::QuorumFailed { .. }) => {
                // Applied on the primary, never acknowledged: allowed
                // to survive, not required to.
                applied.push(op);
            }
            Err(_) => {}
        }
        if i % 3 == 0 {
            cluster.tick();
        }
        // Scripted violence, seeded per iteration.
        let roll = rng.random_range(0..1000u32);
        if roll < 30 {
            let a = rng.random_range(0..NODES);
            let b = rng.random_range(0..NODES);
            if a != b {
                cluster.partition(a, b);
            }
        } else if roll < 55 {
            cluster.heal_all();
        } else if roll < 70 && crashed.is_empty() {
            // At most one node down at a time keeps a majority alive.
            cluster.crash_primary();
            let down: Vec<usize> = (0..NODES)
                .filter(|&id| cluster.node(id).is_none())
                .collect();
            crashed = down;
        } else if roll < 90 && crashed.is_empty() {
            let id = rng.random_range(0..NODES);
            if cluster.node(id).is_some() && cluster.primary() != Some(id) {
                cluster.crash_node(id);
                crashed.push(id);
            }
        } else if roll < 130 {
            if let Some(id) = crashed.pop() {
                if cluster.restart_node(id).is_err() {
                    crashed.push(id);
                }
            }
        } else if roll < 160 {
            // Checkpoint the primary so lagging cursors fall off the
            // live log and shipping must take the snapshot path.
            if let Some(db) = cluster.primary_db() {
                let _ = db.checkpoint();
            }
        }
    }

    // The storm passes: faults off, links healed, everyone restarts.
    drop(guard);
    cluster.heal_all();
    for id in 0..NODES {
        if cluster.node(id).is_none() {
            cluster
                .restart_node(id)
                .map_err(|e| ctx(&format!("restart node {id}: {e}")))?;
        }
    }
    let mut settled = false;
    for _ in 0..100 {
        cluster.tick();
        let status = cluster.status();
        if status.primary.is_some() && status.max_lag == 0 {
            settled = true;
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let reads = reader.join().expect("reader thread");
    if reads == 0 {
        return Err(ctx("the reader thread never completed a read"));
    }
    if !settled {
        return Err(ctx(&format!(
            "LIVENESS: cluster never settled after healing: {:?}",
            cluster.status()
        )));
    }
    for _ in 0..10 {
        if cluster.anti_entropy().is_ok() {
            break;
        }
        cluster.tick();
    }
    let _ = cluster.pump();

    // 1. Zero acked-write loss (the quorum guarantee).
    if quorum {
        let final_db = cluster
            .primary_db()
            .ok_or_else(|| ctx("no primary after settling"))?;
        for (i, op) in acked.iter().enumerate() {
            if !effect_visible(final_db.db(), op) {
                return Err(ctx(&format!(
                    "LOST ACKED WRITE: acked op #{i} {op:?} is missing from the \
                     final primary"
                )));
            }
        }
    }

    // 2. Promotions carry strictly ascending epochs.
    let status = cluster.status();
    for pair in status.promotions.windows(2) {
        if pair[1].0 <= pair[0].0 {
            return Err(ctx(&format!(
                "EPOCH REGRESSION: promotion history {:?} is not strictly ascending",
                status.promotions
            )));
        }
    }

    // 3. Anti-entropy converged: every node holds identical digests.
    let reference = node_digests(&cluster.db_of(0).expect("node 0 is live"));
    for id in 1..NODES {
        let theirs = node_digests(&cluster.db_of(id).expect("node is live"));
        if theirs != reference {
            return Err(ctx(&format!(
                "DIGEST DIVERGENCE after healing: node 0 {reference:?} vs node {id} \
                 {theirs:?} (status {:?})",
                cluster.status()
            )));
        }
    }

    // 4. The healed cluster still takes and replicates writes. On no-
    //    failover seeds, first byte-compare the primary against the
    //    model of locally-applied ops.
    if status.promotions.len() == 1 {
        let model = Model::new();
        for op in &applied {
            model
                .apply(op)
                .map_err(|e| ctx(&format!("model apply: {e}")))?;
        }
        let final_db = cluster.primary_db().expect("primary is live");
        model
            .matches(final_db.db())
            .map_err(|e| ctx(&format!("STATE DIVERGENCE without failover: {e}")))?;
    }
    cluster
        .write(WalOp::AddUser {
            user: "post-chaos-probe".into(),
        })
        .map_err(|e| ctx(&format!("healed cluster refused a write: {e}")))?;
    let _ = cluster.pump();
    for id in 0..NODES {
        let db = cluster.db_of(id).expect("node is live");
        if !db
            .db()
            .users_sorted()
            .contains(&"post-chaos-probe".to_string())
        {
            return Err(ctx(&format!("probe write did not replicate to node {id}")));
        }
    }
    Ok(())
}

#[test]
fn replication_chaos_matrix() {
    let _serial = ctxpref_faults::exclusive();
    for seed in seeds(0..32) {
        if let Err(violation) = run_chaos_seed(seed) {
            panic!(
                "REPLICATION VIOLATION (reproduce with CTXPREF_FUZZ_SEEDS={seed}..{}):\n\
                 {violation}",
                seed + 1
            );
        }
    }
}

#[test]
fn quorum_write_requires_a_majority() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("quorum");
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = SHARDS;
    let cluster = Cluster::new(tmp.path(), cfg, make_core).unwrap();

    // Every node healthy: the ack waits for a ship to each replica (an
    // empty plan counts the sends), and leaves none of them behind.
    let plan = FaultPlan::builder(0).build();
    plan.run(|| {
        cluster.write(WalOp::AddUser {
            user: "alice".into(),
        })
    })
    .unwrap();
    let sends = plan.hit_count(REPL_SEND_DELAY);
    assert!(sends >= 2, "{sends} send(s) for two replicas");
    assert_eq!(cluster.status().max_lag, 0);
    // One replica down: 2 of 3 still ack.
    cluster.crash_node(2);
    cluster
        .write(WalOp::AddUser { user: "bob".into() })
        .unwrap();
    // Both replicas down: the primary refuses to acknowledge.
    cluster.crash_node(1);
    match cluster.write(WalOp::AddUser {
        user: "carol".into(),
    }) {
        Err(ReplicationError::QuorumFailed {
            acked: 1,
            needed: 2,
        }) => {}
        other => panic!("expected QuorumFailed, got {other:?}"),
    }
    // The write stayed on the primary's log (it may replicate later) —
    // it just was not acknowledged.
    assert!(cluster
        .primary_db()
        .unwrap()
        .db()
        .users_sorted()
        .contains(&"carol".to_string()));

    // A replica returns: quorum (and acks) resume, and the unacked
    // write replicates with everything else.
    cluster.restart_node(1).unwrap();
    cluster
        .write(WalOp::AddUser {
            user: "dave".into(),
        })
        .unwrap();
    // "dave"'s quorum ship only covers his own shard; pump the rest.
    cluster.pump().unwrap();
    let replica = cluster.db_of(1).unwrap();
    for user in ["alice", "bob", "carol", "dave"] {
        assert!(
            replica.db().users_sorted().contains(&user.to_string()),
            "{user} missing on the replica"
        );
    }
}

#[test]
fn failover_fences_the_deposed_primary() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("fence");
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = SHARDS;
    cfg.heartbeat_threshold = 2;
    let cluster = Cluster::new(tmp.path(), cfg, make_core).unwrap();
    cluster
        .write(WalOp::AddUser {
            user: "alice".into(),
        })
        .unwrap();
    cluster.pump().unwrap();

    // Isolate the primary; replicas miss heartbeats and fail over.
    cluster.partition(0, 1);
    cluster.partition(0, 2);
    let mut promoted = None;
    for _ in 0..10 {
        if let Some(p) = cluster.tick().promoted {
            promoted = Some(p);
            break;
        }
    }
    let (epoch, new_primary) = promoted.expect("auto-failover never promoted");
    assert_ne!(new_primary, 0, "the isolated primary cannot be re-promoted");
    assert!(epoch > 1, "promotion must mint a fresh epoch, got {epoch}");

    // The old primary still *believes* — until the partition heals and
    // the first peer it ships to fences it.
    let old = cluster.node(0).unwrap();
    assert!(
        old.is_primary(),
        "the isolated node cannot know it was deposed yet"
    );
    cluster.heal_all();
    match cluster.write_via(
        0,
        WalOp::AddUser {
            user: "split-brain".into(),
        },
    ) {
        Err(ReplicationError::Fenced { epoch: fenced_by }) => {
            assert!(
                fenced_by >= epoch,
                "fenced by {fenced_by}, promotion was {epoch}"
            )
        }
        other => panic!("expected the deposed primary to be fenced, got {other:?}"),
    }
    assert!(!old.is_primary(), "a fenced primary must demote");
    assert_eq!(cluster.primary(), Some(new_primary));

    // Its divergent write is discarded by anti-entropy; the cluster
    // converges on the new primary's history.
    for _ in 0..5 {
        cluster.tick();
    }
    cluster.anti_entropy().unwrap();
    cluster.pump().unwrap();
    let reference = node_digests(&cluster.db_of(new_primary).unwrap());
    for id in 0..NODES {
        assert_eq!(
            node_digests(&cluster.db_of(id).unwrap()),
            reference,
            "node {id} diverged after anti-entropy"
        );
    }
    assert!(
        !cluster
            .db_of(0)
            .unwrap()
            .db()
            .users_sorted()
            .contains(&"split-brain".to_string()),
        "the unacked split-brain write must not survive anti-entropy"
    );
}

/// The crash half of failover, without faults: a killed primary is
/// replaced by auto-failover, and when it restarts it rejoins as a
/// replica and converges through shipping alone — no anti-entropy.
#[test]
fn crashed_primary_rejoins_and_converges_by_shipping() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("rejoin");
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = SHARDS;
    cfg.heartbeat_threshold = 2;
    let cluster = Cluster::new(tmp.path(), cfg, make_core).unwrap();
    cluster
        .write(WalOp::AddUser {
            user: "alice".into(),
        })
        .unwrap();
    cluster.pump().unwrap();
    for id in 0..NODES {
        assert!(
            cluster
                .db_of(id)
                .unwrap()
                .db()
                .users_sorted()
                .contains(&"alice".to_string()),
            "alice did not replicate to node {id}"
        );
    }

    cluster.crash_primary();
    let mut promoted = None;
    for _ in 0..10 {
        if let Some(p) = cluster.tick().promoted {
            promoted = Some(p);
            break;
        }
    }
    let (epoch, new_primary) = promoted.expect("auto-failover never promoted");
    assert!(epoch > 1);

    cluster
        .write(WalOp::AddUser { user: "bob".into() })
        .unwrap();
    cluster.restart_node(0).unwrap();
    cluster.pump().unwrap();
    assert_eq!(cluster.primary(), Some(new_primary));
    assert_eq!(
        node_digests(&cluster.db_of(0).unwrap()),
        node_digests(&cluster.db_of(new_primary).unwrap()),
        "restarted node did not converge by shipping"
    );
}

#[test]
fn promotion_refuses_without_a_majority() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("noquorum");
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = SHARDS;
    let cluster = Cluster::new(tmp.path(), cfg, make_core).unwrap();
    cluster.crash_primary();
    cluster.crash_node(1);
    match cluster.promote(2) {
        Err(ReplicationError::NoQuorumForPromotion {
            reached: 1,
            needed: 2,
        }) => {}
        other => panic!("expected NoQuorumForPromotion, got {other:?}"),
    }
    assert_eq!(cluster.primary(), None);
    // Once a peer returns the same promotion succeeds.
    cluster.restart_node(1).unwrap();
    let epoch = cluster.promote(2).unwrap();
    assert!(epoch > 1);
    assert_eq!(cluster.primary(), Some(2));
}

/// Satellite: a replica that crashes mid-catch-up resumes from its
/// recovered position without double-applying records it already had.
#[test]
fn replica_crash_mid_catchup_does_not_double_apply() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("idem");
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = SHARDS;
    cfg.ack_mode = AckMode::Async;
    // Group commit: the crash loses the replica's unsynced tail, so
    // restart genuinely re-receives records it applied before.
    cfg.wal = WalOptions {
        sync: SyncPolicy::GroupCommit {
            flush_interval: Duration::from_millis(5),
        },
        segment_max_bytes: 512,
    };
    let cluster = Cluster::new(tmp.path(), cfg, make_core).unwrap();

    // One user, many inserts: a double-apply would inflate the count.
    // Async acks wait for no ship: under an empty plan, which counts the
    // sends, the writes make none and the replicas trail until the pump.
    let plan = FaultPlan::builder(0).build();
    let counting = ctxpref_faults::install(Arc::clone(&plan));
    cluster
        .write(WalOp::AddUser {
            user: "counted".into(),
        })
        .unwrap();
    let mut workload = MonotoneWorkload::new(99);
    for _ in 0..40 {
        cluster.write(workload.next_op()).unwrap();
    }
    drop(counting);
    assert_eq!(plan.hit_count(REPL_SEND_DELAY), 0);
    assert!(cluster.status().max_lag > 0);
    cluster.pump().unwrap();

    // Mid-catch-up crash: the replica drops with unsynced state, then
    // recovers and re-enters shipping at whatever LSN survived.
    cluster.crash_node(1);
    for _ in 0..20 {
        cluster.write(workload.next_op()).unwrap();
    }
    cluster.restart_node(1).unwrap();
    cluster.pump().unwrap();

    let primary = cluster.primary_db().unwrap().db().snapshot();
    let replica = cluster.db_of(1).unwrap().db().snapshot();
    for user in cluster.primary_db().unwrap().db().users_sorted() {
        let want = primary.profile(&user).unwrap().preferences().len();
        let got = replica.profile(&user).unwrap().preferences().len();
        assert_eq!(
            got, want,
            "{user}: replica has {got} preferences, primary {want}"
        );
    }
    assert_eq!(
        node_digests(&cluster.primary_db().unwrap()),
        node_digests(&cluster.db_of(1).unwrap()),
        "replica must converge exactly, no duplicates, no holes"
    );
}

/// A replica that falls behind the primary's checkpoint GC catches up
/// through a per-shard resync instead of record shipping.
#[test]
fn gc_lagged_replica_catches_up_by_snapshot() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("snapcatch");
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = SHARDS;
    cfg.ack_mode = AckMode::Async;
    let cluster = Cluster::new(tmp.path(), cfg, make_core).unwrap();

    cluster.crash_node(2);
    let mut workload = MonotoneWorkload::new(7);
    for _ in 0..60 {
        cluster.write(workload.next_op()).unwrap();
    }
    // Checkpoint twice: the first GCs segments into the snapshot, the
    // second advances first_live_segment past everything node 2 needs.
    cluster.primary_db().unwrap().checkpoint().unwrap();
    cluster.write(workload.next_op()).unwrap();
    cluster.primary_db().unwrap().checkpoint().unwrap();

    cluster.restart_node(2).unwrap();
    cluster.pump().unwrap();
    assert_eq!(
        node_digests(&cluster.primary_db().unwrap()),
        node_digests(&cluster.db_of(2).unwrap()),
        "the per-shard resync must reproduce the primary exactly"
    );
    // And the replica keeps taking normal record shipping afterwards.
    cluster
        .write(WalOp::AddUser {
            user: "after-snapshot".into(),
        })
        .unwrap();
    cluster.pump().unwrap();
    assert!(cluster
        .db_of(2)
        .unwrap()
        .db()
        .users_sorted()
        .contains(&"after-snapshot".to_string()));
}
