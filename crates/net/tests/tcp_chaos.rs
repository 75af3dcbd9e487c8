//! The replication chaos matrix over **real loopback sockets**: the
//! same three-node cluster, the same seeded violence, the same
//! invariants as `ctxpref-replication`'s chaos suite — but every
//! envelope crosses a TCP connection through `TcpTransport` instead
//! of a function call, with socket-level faults (torn frames, dead
//! connections) layered on top of the replication-level ones.
//!
//! Invariants (unchanged from the in-process suite):
//!
//! 1. **Zero acked-write loss** (quorum seeds).
//! 2. **Epoch-monotonic promotions** (all seeds).
//! 3. **Digest convergence** after healing (all seeds).
//! 4. **Liveness**: the healed cluster accepts and replicates a fresh
//!    write.
//!
//! Override the matrix with `CTXPREF_FUZZ_SEEDS=start..end`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use ctxpref_context::ContextDescriptor;
use ctxpref_core::{MultiUserDb, ShardedMultiUserDb};
use ctxpref_faults::sites::{
    NET_CONN_DROP, NET_FRAME_READ, NET_FRAME_WRITE, REPL_HEARTBEAT_DROP, REPL_PARTITION,
    REPL_SEND_DELAY, REPL_SEND_DROP, REPL_SEND_DUPLICATE,
};
use ctxpref_faults::FaultPlan;
use ctxpref_net::TcpTransport;
use ctxpref_profile::{AttributeClause, ContextualPreference};
use ctxpref_replication::{
    node_digests, AckMode, Cluster, ClusterConfig, NodeTransport, ReplicationError,
};
use ctxpref_storage::pref_tokens;
use ctxpref_wal::{tiny_env, tiny_relation, SyncPolicy, WalOp, WalOptions};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Fault plans are process-global: serialize every test that installs
/// one (or sends through a transport while another's plan is in).
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "ctxpref-tcp-chaos-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

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

fn make_transport() -> Arc<dyn NodeTransport> {
    Arc::new(TcpTransport::new(tiny_relation()))
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
            rng: StdRng::seed_from_u64(seed ^ 0x7c9_0ff5),
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

fn effect_visible(db: &MultiUserDb, op: &WalOp) -> bool {
    match op {
        WalOp::AddUser { user } => db.profile(user).is_ok(),
        WalOp::InsertPreference { user, pref } => {
            let Ok(profile) = db.profile(user) else {
                return false;
            };
            let want = pref_tokens(pref, db.env(), db.relation());
            profile
                .preferences()
                .iter()
                .any(|p| pref_tokens(p, db.env(), db.relation()) == want)
        }
        _ => unreachable!("monotone workload only adds"),
    }
}

/// One chaos seed over loopback TCP: boot, rampage, heal, assert.
fn run_tcp_chaos_seed(seed: u64) -> Result<(), String> {
    let ctx = |what: &str| format!("seed={seed}: {what}");
    let tmp = TempDir::new(&format!("seed{seed}"));
    let cfg = config_for_seed(seed);
    let quorum = cfg.ack_mode == AckMode::Quorum;
    let cluster = Arc::new(
        Cluster::new_with_transport(&tmp.0, cfg, make_core, make_transport())
            .map_err(|e| ctx(&format!("boot: {e}")))?,
    );

    // A reader thread races queries against every live node while
    // mutations, partitions, and crashes fly over the sockets.
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

    // Replication-level faults at the in-process suite's rates, plus
    // socket-level ones: torn frames and dead connections.
    let plan = FaultPlan::builder(seed)
        .fail(REPL_SEND_DROP, 0.05)
        .fail(REPL_HEARTBEAT_DROP, 0.05)
        .fail(REPL_SEND_DUPLICATE, 0.10)
        .fail(REPL_PARTITION, 0.02)
        .delay(REPL_SEND_DELAY, 0.05, Duration::from_micros(50))
        .fail(NET_FRAME_READ, 0.01)
        .fail(NET_FRAME_WRITE, 0.01)
        .fail(NET_CONN_DROP, 0.02)
        .build();
    let guard = ctxpref_faults::install(Arc::clone(&plan));

    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bad_cafe);
    let mut workload = MonotoneWorkload::new(seed);
    let mut acked: Vec<WalOp> = Vec::new();
    let mut crashed: Vec<usize> = Vec::new();

    for i in 0..80 {
        let op = workload.next_op();
        match cluster.write(op.clone()) {
            Ok(_) => acked.push(op),
            // Applied on the primary, never acknowledged: allowed to
            // survive, not required to.
            Err(ReplicationError::QuorumFailed { .. }) => {}
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
            // live log and shipping must take the snapshot path (a
            // full snapshot install over the wire).
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

    // 1. Zero acked-write loss (the quorum guarantee) — over sockets.
    if quorum {
        let final_db = cluster
            .primary_db()
            .ok_or_else(|| ctx("no primary after settling"))?;
        let snapshot = final_db.db().snapshot();
        for (i, op) in acked.iter().enumerate() {
            if !effect_visible(&snapshot, op) {
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

    // 4. The healed cluster still takes and replicates writes.
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

/// The matrix: `CTXPREF_FUZZ_SEEDS=a..b` overrides the default 0..32.
fn seed_range() -> std::ops::Range<u64> {
    let Ok(spec) = std::env::var("CTXPREF_FUZZ_SEEDS") else {
        return 0..32;
    };
    let parse = |s: &str| s.trim().parse::<u64>().ok();
    match spec.split_once("..").map(|(a, b)| (parse(a), parse(b))) {
        Some((Some(a), Some(b))) if a < b => a..b,
        _ => panic!("CTXPREF_FUZZ_SEEDS must look like '0..32', got {spec:?}"),
    }
}

#[test]
fn tcp_replication_chaos_matrix() {
    let _serial = fault_lock();
    for seed in seed_range() {
        if let Err(violation) = run_tcp_chaos_seed(seed) {
            panic!(
                "TCP REPLICATION VIOLATION (reproduce with CTXPREF_FUZZ_SEEDS={seed}..{}):\n\
                 {violation}",
                seed + 1
            );
        }
    }
}

/// Deterministic sanity check without any injected faults: a cluster
/// over loopback sockets replicates writes, survives a primary crash
/// with failover, and converges — the basic lifecycle every chaos
/// seed exercises at random, pinned down as a fast test.
#[test]
fn tcp_cluster_replicates_and_fails_over() {
    let _serial = fault_lock();
    let tmp = TempDir::new("basic");
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = SHARDS;
    cfg.heartbeat_threshold = 2;
    let cluster = Cluster::new_with_transport(&tmp.0, cfg, make_core, make_transport()).unwrap();

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
            "alice did not replicate to node {id} over TCP"
        );
    }

    // Kill the primary: heartbeats over the sockets stop answering,
    // the failure detector notices, a replica is promoted.
    cluster.crash_primary();
    let mut promoted = None;
    for _ in 0..10 {
        if let Some(p) = cluster.tick().promoted {
            promoted = Some(p);
            break;
        }
    }
    let (epoch, new_primary) = promoted.expect("auto-failover never promoted over TCP");
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
        "restarted node did not converge over TCP"
    );
}
