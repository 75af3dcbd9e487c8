//! Router integration: forwarding, endpoint failover, the circuit
//! breaker, and the live-migration happy path over real sockets.

use std::sync::Arc;
use std::time::Duration;

use ctxpref_core::MultiUserDb;
use ctxpref_net::{NetServer, NetServerConfig};
use ctxpref_router::{BreakerConfig, BreakerState, Router, RouterConfig, RouterError};
use ctxpref_service::{CtxPrefService, DurabilityConfig, ServiceConfig};
use ctxpref_testkit::TempDir;
use ctxpref_workload::reference::{tiny_env, tiny_relation};

/// One durable single-node "cluster" under `dir`, fronted by a socket
/// server.
fn durable_cluster(dir: &std::path::Path) -> (Arc<CtxPrefService>, NetServer) {
    let db = MultiUserDb::new(tiny_env(), tiny_relation(), 4);
    let mut dcfg = DurabilityConfig::new(dir);
    dcfg.checkpoint_interval = None;
    let service = Arc::new(
        CtxPrefService::new_durable(db, ServiceConfig::default(), dcfg).expect("durable service"),
    );
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .expect("bind loopback");
    (service, server)
}

fn quick_router(endpoints: Vec<Vec<String>>) -> Router {
    Router::new(
        endpoints,
        RouterConfig {
            transient_retries: 20,
            transient_backoff: Duration::from_millis(10),
            ..RouterConfig::default()
        },
    )
}

#[test]
fn router_forwards_to_the_owning_cluster() {
    let tmp_a = TempDir::new("fwd-a");
    let tmp_b = TempDir::new("fwd-b");
    let (service_a, server_a) = durable_cluster(tmp_a.path());
    let (service_b, server_b) = durable_cluster(tmp_b.path());
    let mut router = quick_router(vec![
        vec![server_a.local_addr().to_string()],
        vec![server_b.local_addr().to_string()],
    ]);

    // A spread of users: each lands on exactly the cluster the table
    // names, and nowhere else.
    for i in 0..20 {
        let user = format!("user-{i}");
        router.add_user(&user).expect("routed add_user");
        router
            .insert_preference(&user, "*", "name", "a", 0.5)
            .expect("routed insert");
    }
    let services = [&service_a, &service_b];
    for i in 0..20 {
        let user = format!("user-{i}");
        let owner = router.cluster_of(&user);
        assert!(
            services[owner].with_db(|db| db.profile(&user).is_ok()),
            "{user} missing from its owning cluster {owner}"
        );
        assert!(
            !services[1 - owner].with_db(|db| db.profile(&user).is_ok()),
            "{user} leaked onto the non-owning cluster"
        );
        let answer = router
            .query(&user, "name", 3, Duration::from_millis(250), &["low"])
            .expect("routed query");
        assert!(!answer.step.is_empty());
    }

    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn breaker_opens_against_a_dead_cluster_and_recovers() {
    let tmp = TempDir::new("breaker");
    let (_service, server) = durable_cluster(tmp.path());
    let live = server.local_addr().to_string();
    // Cluster 0 points at a port nobody listens on.
    let dead = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
        // the listener drops here, freeing the port
    };
    let mut router = Router::new(
        vec![vec![dead], vec![live]],
        RouterConfig {
            client: ctxpref_net::NetClientConfig {
                connect_timeout: Duration::from_millis(200),
                attempts: 1,
                ..ctxpref_net::NetClientConfig::default()
            },
            breaker: BreakerConfig {
                threshold: 2,
                cooldown: Duration::from_millis(100),
            },
            ..RouterConfig::default()
        },
    );

    // Drive requests at the dead cluster until the breaker trips.
    let mut open = false;
    for _ in 0..5 {
        match router.route_status(0) {
            Err(RouterError::CircuitOpen { cluster: 0 }) => {
                open = true;
                break;
            }
            Err(RouterError::ClusterUnavailable { .. }) => {}
            other => panic!("dead cluster answered: {other:?}"),
        }
    }
    assert!(open, "breaker never opened against the dead cluster");
    assert_eq!(router.breaker_state(0), BreakerState::Open);

    // While open: fail fast, no connect timeout burned.
    let started = std::time::Instant::now();
    assert!(matches!(
        router.route_status(0),
        Err(RouterError::CircuitOpen { cluster: 0 })
    ));
    assert!(
        started.elapsed() < Duration::from_millis(50),
        "open circuit still dialed: {:?}",
        started.elapsed()
    );

    // The live cluster is unaffected.
    let info = router.route_status(1).expect("live cluster probes fine");
    assert!(info.has_primary);

    // After the cooldown the half-open probe goes through — still to a
    // dead address, so it re-opens; health is per cluster and the
    // router keeps serving cluster 1 throughout.
    std::thread::sleep(Duration::from_millis(120));
    assert!(matches!(
        router.route_status(0),
        Err(RouterError::ClusterUnavailable { .. })
    ));
    assert_eq!(router.breaker_state(0), BreakerState::Open);

    server.shutdown();
}

#[test]
fn live_migration_moves_a_user_without_losing_writes() {
    let tmp_a = TempDir::new("mig-a");
    let tmp_b = TempDir::new("mig-b");
    let (service_a, server_a) = durable_cluster(tmp_a.path());
    let (service_b, server_b) = durable_cluster(tmp_b.path());
    let mut router = quick_router(vec![
        vec![server_a.local_addr().to_string()],
        vec![server_b.local_addr().to_string()],
    ]);
    let services = [&service_a, &service_b];

    let user = "wanderer";
    router.add_user(user).expect("create");
    for i in 0..10 {
        router
            .insert_preference(user, "*", "name", &format!("v-{i}"), 0.1 * i as f64)
            .expect("seed preference");
    }
    let src = router.cluster_of(user);
    let dst = 1 - src;
    let epoch_before = router.epoch();

    let report = router.migrate_user(user, dst).expect("migration completes");
    assert!(report.moved);
    assert_eq!(report.from, src);
    assert_eq!(report.to, dst);
    assert!(report.epoch > epoch_before);
    assert_eq!(router.epoch(), report.epoch);
    assert_eq!(router.cluster_of(user), dst);

    // The user now lives on the destination — and only there.
    assert!(services[dst].with_db(|db| db.profile(user).is_ok()));
    assert!(
        !services[src].with_db(|db| db.profile(user).is_ok()),
        "source kept a copy after cut-over"
    );

    // Writes keep working through the router (they land on dst)...
    router
        .insert_preference(user, "*", "name", "post-move", 0.9)
        .expect("post-migration write");
    assert_eq!(
        services[dst].with_db(|db| db.profile(user).map(|p| p.preferences().len()).unwrap_or(0)),
        11
    );

    // ...while a stale client writing straight to the source gets the
    // typed migration refusal from the tombstone, not a silent fork.
    let err = services[src].add_user(user).unwrap_err();
    assert!(
        matches!(err, ctxpref_service::ServiceError::Migrating { .. }),
        "stale source write got {err:?}"
    );

    // Migrating back also works (a second epoch).
    let back = router.migrate_user(user, src).expect("migrate back");
    assert!(back.epoch > report.epoch);
    assert_eq!(router.cluster_of(user), src);
    assert!(services[src].with_db(|db| db.profile(user).is_ok()));
    assert!(!services[dst].with_db(|db| db.profile(user).is_ok()));

    // A no-op migration (already home) reports moved = false.
    let noop = router.migrate_user(user, src).expect("no-op migration");
    assert!(!noop.moved);

    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn writes_during_migration_are_never_dropped() {
    // Writes race the migration from another thread (through a cloned
    // router sharing the table): every write that was acked must be on
    // the destination afterwards, exactly once.
    let tmp_a = TempDir::new("race-a");
    let tmp_b = TempDir::new("race-b");
    let (service_a, server_a) = durable_cluster(tmp_a.path());
    let (service_b, server_b) = durable_cluster(tmp_b.path());
    let mut router = quick_router(vec![
        vec![server_a.local_addr().to_string()],
        vec![server_b.local_addr().to_string()],
    ]);
    let services = [&service_a, &service_b];

    let user = "racer";
    router.add_user(user).expect("create");
    for i in 0..5 {
        router
            .insert_preference(user, "*", "name", &format!("seed-{i}"), 0.5)
            .expect("seed");
    }
    let dst = 1 - router.cluster_of(user);

    let writer = {
        let mut router = router.clone();
        std::thread::spawn(move || {
            let mut acked = 0usize;
            for i in 0..40 {
                match router.insert_preference("racer", "*", "name", &format!("race-{i}"), 0.25) {
                    Ok(()) => acked += 1,
                    // A refusal past the retry budget is allowed —
                    // the write was never applied, so it is simply
                    // not counted as acked.
                    Err(RouterError::UserMigrating { .. }) => {}
                    Err(e) => panic!("writer hit a non-migration error: {e}"),
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            acked
        })
    };

    std::thread::sleep(Duration::from_millis(10));
    let report = router
        .migrate_user(user, dst)
        .expect("migration under load");
    assert!(report.moved);
    assert!(
        report.fence < Duration::from_millis(250),
        "cut-over fence stays under 250 ms: fence window {} µs",
        report.fence.as_micros()
    );
    let acked = writer.join().expect("writer thread");

    // Every acked write (5 seeded + the racers) is on the destination.
    let final_prefs =
        services[dst].with_db(|db| db.profile(user).map(|p| p.preferences().len()).unwrap_or(0));
    assert_eq!(
        final_prefs,
        5 + acked,
        "acked writes lost or duplicated across the migration"
    );
    assert!(!services[1 - dst].with_db(|db| db.profile(user).is_ok()));

    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn ambiguous_mutation_is_not_replayed_on_the_next_endpoint() {
    // An endpoint that accepts connections and immediately closes them
    // produces transport failures of unknown outcome: the request may
    // have been read and applied before the connection died. A
    // mutation must stop there with `AmbiguousWrite` — replaying it on
    // the next endpoint could double-apply — while an idempotent probe
    // keeps walking and reaches the live endpoint.
    let tmp = TempDir::new("ambig");
    let (service, server) = durable_cluster(tmp.path());
    let live = server.local_addr().to_string();
    let closer = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let closer_addr = closer.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for conn in closer.incoming() {
            drop(conn);
        }
    });

    // One cluster, two endpoints: the connection-closer is preferred.
    let mut router = quick_router(vec![vec![closer_addr, live]]);

    match router.add_user("ann") {
        Err(RouterError::AmbiguousWrite { cluster: 0, .. }) => {}
        other => panic!("mutation through a dying connection got {other:?}"),
    }
    assert!(
        !service.with_db(|db| db.profile("ann").is_ok()),
        "the mutation reached the live endpoint despite the ambiguous failure"
    );

    // The idempotent probe walks past the dead endpoint and marks the
    // live one preferred; mutations flow again.
    router
        .route_status(0)
        .expect("probe walks to the live endpoint");
    router
        .add_user("ann")
        .expect("mutation against the preferred live endpoint");
    assert!(service.with_db(|db| db.profile("ann").is_ok()));

    server.shutdown();
}
