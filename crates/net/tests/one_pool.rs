//! One pool: network requests run on the service's own workers, so
//! the hazards of sharing them are pinned here. A read inside a batch
//! runs inline on the worker that holds the batch (queueing it behind
//! itself would wait out its deadline); admission runs on the reactor,
//! before anything is queued, so a shed is answered while the only
//! worker is stalled; and shutdown waits for every request it queued,
//! so no worker ends up holding the last handle on the service.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ctxpref_core::MultiUserDb;
use ctxpref_faults::sites::{NET_CONN_DELAY, SVC_WORKER_DEQUEUE};
use ctxpref_faults::FaultPlan;
use ctxpref_net::{
    NetClient, NetClientConfig, NetError, NetServer, NetServerConfig, Request, Response,
};
use ctxpref_service::{CtxPrefService, ServiceConfig};
use ctxpref_workload::reference::{tiny_env, tiny_relation};

fn service(workers: usize, max_in_flight: usize) -> Arc<CtxPrefService> {
    let db = MultiUserDb::new(tiny_env(), tiny_relation(), 4);
    Arc::new(CtxPrefService::new(
        db,
        ServiceConfig {
            workers,
            max_in_flight,
            ..ServiceConfig::default()
        },
    ))
}

fn client(server: &NetServer, busy_attempts: u32) -> NetClient {
    NetClient::connect(
        server.local_addr().to_string(),
        NetClientConfig {
            busy_attempts,
            ..NetClientConfig::default()
        },
    )
}

fn seed(client: &mut NetClient) {
    client.add_user("alice").expect("seed user");
    client
        .insert_preference("alice", "*", "name", "alpha", 0.8)
        .expect("seed preference");
}

fn query(deadline_ms: u64) -> Request {
    Request::Query {
        user: "alice".to_string(),
        attr: "name".to_string(),
        k: 3,
        deadline_ms,
        state: vec!["low".to_string()],
    }
}

/// Wait until `site` has been hit under `plan` — the request that hits
/// it is then parked inside the injected delay.
fn wait_for_hit(plan: &FaultPlan, site: &str) {
    let until = Instant::now() + Duration::from_secs(5);
    while plan.hit_count(site) == 0 {
        assert!(Instant::now() < until, "no request reached {site}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_read_inside_a_batch_runs_inline_on_the_only_worker() {
    let _serial = ctxpref_faults::exclusive();
    let server = NetServer::bind("127.0.0.1:0", service(1, 64), NetServerConfig::default())
        .expect("bind loopback");
    let mut client = client(&server, 3);
    seed(&mut client);

    let deadline = Duration::from_millis(1500);
    let started = Instant::now();
    let responses = client
        .batch(vec![
            Request::Ping,
            query(deadline.as_millis() as u64),
            Request::Ping,
        ])
        .expect("batch");
    let took = started.elapsed();
    assert!(
        matches!(
            responses.as_slice(),
            [Response::Pong, Response::Answer(_), Response::Pong]
        ),
        "every item answered, the read included: {responses:?}"
    );
    // A read that queued behind the batch holding the only worker
    // would have waited out its whole deadline.
    assert!(
        took < deadline / 3,
        "the batch took {took:?}: its read waited on the pool"
    );
    server.shutdown();
}

#[test]
fn a_read_is_shed_on_the_reactor_while_the_only_worker_is_stalled() {
    let _serial = ctxpref_faults::exclusive();
    let service = service(1, 1);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .expect("bind loopback");
    let mut shed = client(&server, 1);
    seed(&mut shed);

    let stall = Duration::from_millis(500);
    let plan = FaultPlan::builder(24)
        .delay(SVC_WORKER_DEQUEUE, 1.0, stall)
        .build();
    let _plan = ctxpref_faults::install(Arc::clone(&plan));
    // The first read takes the one in-flight slot and parks the only
    // worker at the dequeue site.
    let mut first = client(&server, 1);
    let first = std::thread::spawn(move || first.request(&query(2000)));
    wait_for_hit(&plan, SVC_WORKER_DEQUEUE);

    // The second is refused by the backstop before it is queued; no
    // worker is free to answer it, so only the reactor can.
    let started = Instant::now();
    match shed.request(&query(2000)) {
        Err(NetError::ServerBusy { limit, .. }) => assert_eq!(limit, 1),
        other => panic!("expected a busy refusal, got {other:?}"),
    }
    let took = started.elapsed();
    assert!(
        took < stall / 5,
        "the refusal took {took:?}: it waited for the stalled worker"
    );
    match first.join().expect("first reader") {
        Ok(Response::Answer(_)) => {}
        other => panic!("the admitted read should answer after the stall: {other:?}"),
    }
    assert_eq!(service.stats().shed_admission, 1);
    server.shutdown();
}

#[test]
fn shutdown_waits_for_every_request_it_queued() {
    let _serial = ctxpref_faults::exclusive();
    let service = service(2, 64);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetServerConfig {
            // Cut the connection long before the stalled request
            // finishes: shutdown must still wait for the request.
            drain_timeout: Duration::from_millis(20),
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");

    let stall = Duration::from_millis(400);
    let plan = FaultPlan::builder(24)
        .delay_at(NET_CONN_DELAY, &[1], stall)
        .build();
    let _plan = ctxpref_faults::install(Arc::clone(&plan));
    let mut pinger = client(&server, 1);
    let pinger = std::thread::spawn(move || pinger.ping());
    wait_for_hit(&plan, NET_CONN_DELAY);

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took >= stall / 2,
        "shutdown returned after {took:?}, while its request was still stalled"
    );
    // Every job the server queued has run and let go of the service:
    // this handle is the last one.
    let service = Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("a queued request still holds the service"));
    drop(service.shutdown());
    // The ping's connection was cut at the drain deadline; only that it
    // returns matters.
    let _ = pinger.join().expect("pinger");
}
