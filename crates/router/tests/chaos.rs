//! The migration chaos matrix: live migrations racing mixed traffic
//! across two replicated clusters over real loopback sockets, with
//! injected transport, replication, and migration-step faults plus
//! forced primary kills — 32 seeds by default.
//!
//! Invariants:
//!
//! 1. **Zero acked-write loss** (quorum seeds): every write the router
//!    acked is visible on the cluster the routing table names as the
//!    user's owner, after the storm settles — migrations included.
//! 2. **Single writable owner** (all seeds): a user's profile may
//!    linger on a deposed cluster only under a migration entry (fence,
//!    import, or tombstone) that refuses client writes — no silent
//!    fork, ever.
//! 3. **Epoch monotonicity** (all seeds): committed migrations carry
//!    strictly ascending routing epochs. (Each completed migration also
//!    proved src/dst digest equality before its cut-over — the driver
//!    refuses to flip otherwise.)
//! 4. **Liveness**: once faults lift, every user accepts a write and
//!    answers a query through the router, migrating fence leftovers
//!    out of the way if an aborted move left one behind.
//!
//! Override the matrix with `CTXPREF_FUZZ_SEEDS=start..end`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctxpref_context::ContextDescriptor;
use ctxpref_core::MultiUserDb;
use ctxpref_faults::sites::{
    NET_CONN_DROP, NET_FRAME_READ, NET_FRAME_WRITE, REPL_HEARTBEAT_DROP, REPL_SEND_DELAY,
    REPL_SEND_DROP, REPL_SEND_DUPLICATE, ROUTER_MIGRATE_CATCHUP, ROUTER_MIGRATE_COPY,
    ROUTER_MIGRATE_CUTOVER,
};
use ctxpref_faults::FaultPlan;
use ctxpref_net::{NetClientConfig, NetServer, NetServerConfig};
use ctxpref_profile::{AttributeClause, ContextualPreference};
use ctxpref_router::{Router, RouterConfig, RouterError};
use ctxpref_service::{CtxPrefService, DurabilityConfig, ReplicatedConfig, ServiceConfig};
use ctxpref_testkit::{effect_visible, seeds, TempDir};
use ctxpref_wal::WalOp;
use ctxpref_workload::reference::{tiny_env, tiny_relation};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CLUSTERS: usize = 2;
const NODES: usize = 3;
/// Every preference in the storm carries this score: 0.5 round-trips
/// exactly through the wire's decimal encoding, so the token-level
/// effect check never trips over float formatting.
const SCORE: f64 = 0.5;

/// One replicated cluster under `dir`, fronted by a socket server.
/// Quorum acks iff the seed is even (only those seeds assert acked
/// durability); fsync policy varies with `seed / 2` — the same matrix
/// discipline as the replication chaos suites.
fn chaos_cluster(dir: &std::path::Path, seed: u64) -> (Arc<CtxPrefService>, NetServer) {
    let db = MultiUserDb::new(tiny_env(), tiny_relation(), 4);
    let cfg = ServiceConfig {
        workers: 1,
        shards: 4,
        ..ServiceConfig::default()
    };
    let mut rcfg = ReplicatedConfig::new(DurabilityConfig::new(dir), NODES);
    rcfg.durability.segment_max_bytes = 512;
    rcfg.heartbeat_threshold = 2;
    if !seed.is_multiple_of(2) {
        rcfg = rcfg.async_acks();
    }
    if !(seed / 2).is_multiple_of(2) {
        rcfg.durability = rcfg.durability.group_commit(Duration::from_millis(5));
    }
    let service =
        Arc::new(CtxPrefService::new_replicated(db, cfg, rcfg).expect("replicated service"));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .expect("bind loopback");
    (service, server)
}

fn chaos_router(endpoints: Vec<Vec<String>>) -> Router {
    Router::new(
        endpoints,
        RouterConfig {
            client: NetClientConfig {
                connect_timeout: Duration::from_millis(250),
                attempts: 2,
                backoff: Duration::from_millis(5),
                jitter: Duration::from_millis(2),
                ..NetClientConfig::default()
            },
            transient_retries: 30,
            transient_backoff: Duration::from_millis(10),
            ..RouterConfig::default()
        },
    )
}

/// One write the router acknowledged. Users and clause values are
/// globally unique and never removed, so "this op's effect is visible"
/// is a well-defined final-state predicate across failovers *and*
/// migrations.
#[derive(Debug, Clone)]
enum AckedOp {
    User(String),
    Pref { user: String, value: String },
}

impl AckedOp {
    fn user(&self) -> &str {
        match self {
            AckedOp::User(u) => u,
            AckedOp::Pref { user, .. } => user,
        }
    }

    /// The logged op this write amounts to, for [`effect_visible`].
    fn wal_op(&self) -> WalOp {
        match self {
            AckedOp::User(user) => WalOp::AddUser { user: user.clone() },
            AckedOp::Pref { user, value } => {
                let rel = tiny_relation();
                let attr = rel.schema().require_attr("name").unwrap();
                let pref = ContextualPreference::new(
                    ContextDescriptor::empty(),
                    AttributeClause::eq(attr, value.clone().into()),
                    SCORE,
                )
                .unwrap();
                WalOp::InsertPreference {
                    user: user.clone(),
                    pref,
                }
            }
        }
    }
}

/// A post-storm liveness call. The faults are uninstalled and the
/// clusters healed, but the chaos can leave transport debris behind —
/// pooled connections the storm half-closed, a breaker still in its
/// cooldown — so transport-level failures get a bounded retry before
/// they count as a liveness violation. That includes `AmbiguousWrite`
/// (a mutation on a dead pooled connection): the probes use globally
/// unique values checked by presence, so re-issuing one here is safe
/// even if the first attempt landed. Typed refusals (`Remote`,
/// `UserMigrating`) surface immediately: those are answers.
fn eventually<T>(mut call: impl FnMut() -> Result<T, RouterError>) -> Result<T, RouterError> {
    let mut last = call();
    for _ in 0..20 {
        match &last {
            Err(RouterError::ClusterUnavailable { .. })
            | Err(RouterError::CircuitOpen { .. })
            | Err(RouterError::NoPrimary { .. })
            | Err(RouterError::AmbiguousWrite { .. }) => {
                std::thread::sleep(Duration::from_millis(50));
                last = call();
            }
            _ => break,
        }
    }
    last
}

/// Mixed traffic hammered through a cloned router (same routing table,
/// its own connections) while the main thread migrates users and kills
/// primaries. Every op uses a globally unique user or clause value.
/// Errors are tolerated — an op counts only when the router acked it.
fn writer_storm(
    mut router: Router,
    migration_users: Vec<String>,
    seed: u64,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<(Vec<AckedOp>, Vec<String>)> {
    std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00de_ad00);
        let mut acked: Vec<AckedOp> = Vec::new();
        let mut own_users: Vec<String> = Vec::new();
        let mut n = 0u64;
        while !stop.load(Ordering::Relaxed) {
            n += 1;
            let roll = rng.random_range(0..100u32);
            if own_users.is_empty() || roll < 20 {
                let user = format!("w{n}");
                if router.add_user(&user).is_ok() {
                    own_users.push(user.clone());
                    acked.push(AckedOp::User(user));
                }
            } else {
                // Half the preference traffic targets the users being
                // migrated, so writes genuinely race fences, imports,
                // and cut-overs.
                let user = if roll < 60 {
                    migration_users[rng.random_range(0..migration_users.len())].clone()
                } else {
                    own_users[rng.random_range(0..own_users.len())].clone()
                };
                let value = format!("v{n}");
                if router
                    .insert_preference(&user, "*", "name", &value, SCORE)
                    .is_ok()
                {
                    acked.push(AckedOp::Pref { user, value });
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        (acked, own_users)
    })
}

/// Heal a cluster after the storm: restart every crashed node, then
/// wait for a primary with zero lag (the background tick does the
/// promotion and shipping).
fn settle(service: &CtxPrefService, cluster_idx: usize) -> Result<(), String> {
    let cluster = service.cluster().expect("replicated");
    cluster.heal_all();
    for id in 0..NODES {
        if cluster.node(id).is_none() {
            cluster
                .restart_node(id)
                .map_err(|e| format!("cluster {cluster_idx}: restart node {id}: {e}"))?;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let _ = service.pump_replication();
        let status = cluster.status();
        if status.primary.is_some() && status.max_lag == 0 {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "LIVENESS: cluster {cluster_idx} never settled after healing: {status:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for _ in 0..10 {
        if service.anti_entropy().is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = service.pump_replication();
    Ok(())
}

/// One chaos seed: boot two clusters, storm, heal, assert.
fn run_migration_chaos_seed(seed: u64) -> Result<(), String> {
    let ctx = |what: &str| format!("seed={seed}: {what}");
    let quorum = seed.is_multiple_of(2);
    let tmp_a = TempDir::new(&format!("seed{seed}-a"));
    let tmp_b = TempDir::new(&format!("seed{seed}-b"));
    let (service_a, server_a) = chaos_cluster(tmp_a.path(), seed);
    let (service_b, server_b) = chaos_cluster(tmp_b.path(), seed);
    let services = [&service_a, &service_b];
    let mut router = chaos_router(vec![
        vec![server_a.local_addr().to_string()],
        vec![server_b.local_addr().to_string()],
    ]);

    // Users the main thread will migrate back and forth, created before
    // the violence starts.
    let migration_users: Vec<String> = (0..3).map(|i| format!("m{i}")).collect();
    for user in &migration_users {
        router
            .add_user(user)
            .map_err(|e| ctx(&format!("seeding {user}: {e}")))?;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let writer = writer_storm(
        router.clone(),
        migration_users.clone(),
        seed,
        Arc::clone(&stop),
    );

    // The storm: transport faults (torn frames, dead connections),
    // replication faults (dropped sends and heartbeats), and failures
    // injected into the migration driver's own steps.
    let plan = FaultPlan::builder(seed)
        .fail(REPL_SEND_DROP, 0.03)
        .fail(REPL_HEARTBEAT_DROP, 0.03)
        .fail(REPL_SEND_DUPLICATE, 0.05)
        .delay(REPL_SEND_DELAY, 0.05, Duration::from_micros(50))
        .fail(NET_FRAME_READ, 0.005)
        .fail(NET_FRAME_WRITE, 0.005)
        .fail(NET_CONN_DROP, 0.01)
        .fail(ROUTER_MIGRATE_COPY, 0.02)
        .fail(ROUTER_MIGRATE_CATCHUP, 0.02)
        .fail(ROUTER_MIGRATE_CUTOVER, 0.02)
        .build();
    let guard = ctxpref_faults::install(Arc::clone(&plan));

    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bad_cafe);
    let mut epochs: Vec<u64> = Vec::new();
    let mut migrations_ok = 0u32;
    let mut migrations_failed = 0u32;
    for i in 0..24 {
        let roll = rng.random_range(0..100u32);
        if i % 8 == 3 || roll < 10 {
            // Migrate a random user to a random side (possibly a no-op)
            // while the writer hammers it. A failed migration is
            // tolerated — the abort path must leave the user writable,
            // which invariant 4 checks after the storm.
            let user = &migration_users[rng.random_range(0..migration_users.len())];
            let dest = rng.random_range(0..CLUSTERS);
            match router.migrate_user(user, dest) {
                Ok(report) => {
                    if report.moved {
                        epochs.push(report.epoch);
                        migrations_ok += 1;
                    }
                }
                Err(_) => migrations_failed += 1,
            }
        } else if roll < 40 {
            // Kill a primary mid-traffic (and mid-migration): the
            // router and the migration driver must both ride through
            // the failover. A majority stays up, so the background
            // tick promotes a replica.
            let c = rng.random_range(0..CLUSTERS);
            let cluster = services[c].cluster().expect("replicated");
            let down = (0..NODES).filter(|&id| cluster.node(id).is_none()).count();
            if down == 0 {
                cluster.crash_primary();
            }
        } else if roll < 60 {
            let c = rng.random_range(0..CLUSTERS);
            let cluster = services[c].cluster().expect("replicated");
            for id in 0..NODES {
                if cluster.node(id).is_none() {
                    let _ = cluster.restart_node(id);
                }
            }
        } else if roll < 70 {
            let c = rng.random_range(0..CLUSTERS);
            let a = rng.random_range(0..NODES);
            let b = rng.random_range(0..NODES);
            if a != b {
                services[c].cluster().expect("replicated").partition(a, b);
            }
        } else if roll < 85 {
            let c = rng.random_range(0..CLUSTERS);
            services[c].cluster().expect("replicated").heal_all();
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // The storm passes: faults off, writer stopped, clusters healed.
    drop(guard);
    stop.store(true, Ordering::Relaxed);
    let (mut acked, own_users) = writer.join().expect("writer thread");
    for (idx, service) in services.iter().enumerate() {
        settle(service, idx).map_err(|e| ctx(&e))?;
    }

    // 4. Liveness, plus rescue: every user takes a write through the
    // router. An aborted migration may have left a fence behind (its
    // abort message can be a fault casualty) — a fresh migration mints
    // a newer epoch, supersedes the stale entry, and frees the user.
    let all_users: Vec<String> = migration_users.iter().cloned().chain(own_users).collect();
    for (i, user) in all_users.iter().enumerate() {
        let value = format!("probe-{i}");
        let mut outcome = eventually(|| router.insert_preference(user, "*", "name", &value, SCORE));
        if matches!(outcome, Err(RouterError::UserMigrating { .. })) {
            let dest = 1 - router.cluster_of(user);
            let report = eventually(|| router.migrate_user(user, dest))
                .map_err(|e| ctx(&format!("rescue migration of fenced {user}: {e}")))?;
            if report.moved {
                epochs.push(report.epoch);
            }
            outcome = eventually(|| router.insert_preference(user, "*", "name", &value, SCORE));
        }
        if !quorum {
            if let Err(RouterError::Remote { ref kind, .. }) = outcome {
                if kind == "core" {
                    // Async acks may drop an acked user on a primary
                    // crash — replication's documented contract, not a
                    // migration fork. Re-create and keep probing the
                    // write path.
                    let _ = router.add_user(user);
                    outcome =
                        eventually(|| router.insert_preference(user, "*", "name", &value, SCORE));
                }
            }
        }
        outcome.map_err(|e| ctx(&format!("LIVENESS: {user} refused a post-storm write: {e}")))?;
        acked.push(AckedOp::Pref {
            user: user.clone(),
            value,
        });
    }
    // Ship the probe writes everywhere before reading: queries serve
    // the local node's view, which follows the primary with a small
    // shipping lag by design.
    for (idx, service) in services.iter().enumerate() {
        settle(service, idx).map_err(|e| ctx(&e))?;
    }
    for user in &all_users {
        eventually(|| router.query(user, "name", 3, Duration::from_millis(500), &["low"]))
            .map_err(|e| {
                let presence: Vec<bool> = services
                    .iter()
                    .map(|s| s.with_db(|db| db.profile(user).is_ok()))
                    .collect();
                let entries: Vec<_> = services.iter().map(|s| s.migration_entries()).collect();
                ctx(&format!(
                    "LIVENESS: {user} refused a post-storm query: {e}\n\
                     owner={} overrides={:?} present={presence:?} entries={entries:?}",
                    router.cluster_of(user),
                    router.overrides(),
                ))
            })?;
    }

    // 1. Zero acked-write loss: every acked op is visible on the
    // cluster the routing table names as the user's owner.
    if quorum {
        for (i, op) in acked.iter().enumerate() {
            let owner = router.cluster_of(op.user());
            if !services[owner].with_db(|db| effect_visible(db, &op.wal_op())) {
                return Err(ctx(&format!(
                    "LOST ACKED WRITE: acked op #{i} {op:?} is missing from owning \
                     cluster {owner} ({migrations_ok} migrations, {migrations_failed} \
                     aborted)"
                )));
            }
        }
    }

    // 2. Single writable owner: a profile lingering on the non-owning
    // cluster is only legal under a migration entry that refuses
    // client writes (lost `finish`/`abort` messages leave exactly
    // that). Anything else is a fork.
    for user in &all_users {
        let owner = router.cluster_of(user);
        let other = 1 - owner;
        let lingering = services[other].with_db(|db| db.profile(user).is_ok());
        if lingering {
            let fenced = services[other]
                .migration_entries()
                .iter()
                .any(|(u, _)| u == user);
            if !fenced {
                return Err(ctx(&format!(
                    "DUAL OWNER: {user} is owned by cluster {owner} but cluster \
                     {other} holds a writable copy"
                )));
            }
        }
    }

    // 3. Committed migrations carry strictly ascending epochs.
    for pair in epochs.windows(2) {
        if pair[1] <= pair[0] {
            return Err(ctx(&format!(
                "EPOCH REGRESSION: committed migration epochs {epochs:?} are not \
                 strictly ascending"
            )));
        }
    }

    server_a.shutdown();
    server_b.shutdown();
    Ok(())
}

#[test]
fn migration_chaos_matrix() {
    let _serial = ctxpref_faults::exclusive();
    for seed in seeds(0..32) {
        if let Err(violation) = run_migration_chaos_seed(seed) {
            panic!(
                "MIGRATION VIOLATION (reproduce with CTXPREF_FUZZ_SEEDS={seed}..{}):\n\
                 {violation}",
                seed + 1
            );
        }
    }
}
