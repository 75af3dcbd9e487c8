//! End-to-end budget propagation: the budget in the wire envelope —
//! not the (larger) deadline inside the request payload — is what the
//! server enforces, and a client whose budget is already gone fails
//! typed without touching the wire.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ctxpref_core::MultiUserDb;
use ctxpref_faults::{sites, FaultPlan};
use ctxpref_net::{
    NetClient, NetClientConfig, NetError, NetServer, NetServerConfig, Priority, Request, Response,
};
use ctxpref_service::{CtxPrefService, ServiceConfig};
use ctxpref_workload::reference::{tiny_env, tiny_relation};

fn query_request(deadline_ms: u64) -> Request {
    Request::Query {
        user: "alice".to_string(),
        attr: "name".to_string(),
        k: 3,
        deadline_ms,
        state: vec!["low".to_string()],
    }
}

#[test]
fn server_enforces_the_enveloped_budget_not_the_payload_deadline() {
    let _serial = ctxpref_faults::exclusive();
    let db = MultiUserDb::new(tiny_env(), tiny_relation(), 4);
    let service = Arc::new(CtxPrefService::new(
        db,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        service,
        NetServerConfig {
            max_deadline: Duration::from_secs(2),
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client =
        NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());
    client.add_user("alice").expect("seed user");
    client
        .insert_preference("alice", "*", "name", "alpha", 0.8)
        .expect("seed preference");

    // Control: with a generous budget the same query answers — so the
    // failure below is attributable to the budget, not the query.
    match client.request_enveloped(
        &query_request(1500),
        Some(Duration::from_secs(2)),
        Priority::Interactive,
    ) {
        Ok(Response::Answer(_)) => {}
        other => panic!("healthy query should answer: {other:?}"),
    }

    // Stall the worker pool well past the enveloped budget. The
    // payload still asks for 1.5 s — a server honoring the payload
    // deadline instead of the (hop-decremented) envelope budget would
    // keep the caller waiting right up to it.
    let _stalled = ctxpref_faults::install(
        FaultPlan::builder(23)
            .delay(sites::SVC_WORKER_DEQUEUE, 1.0, Duration::from_millis(400))
            .build(),
    );
    let started = Instant::now();
    let result = client.request_enveloped(
        &query_request(1500),
        Some(Duration::from_millis(100)),
        Priority::Interactive,
    );
    let elapsed = started.elapsed();
    match result {
        Err(NetError::Remote { kind, .. }) => assert_eq!(
            kind, "deadline",
            "budget expiry surfaces as the typed deadline error"
        ),
        other => panic!("expected a remote deadline error, got {other:?}"),
    }
    // The server clamped to the ~100 ms envelope budget: the answer
    // came back long before the 1.5 s payload deadline (and before the
    // 400 ms stall released the worker).
    assert!(
        elapsed < Duration::from_millis(1000),
        "took {elapsed:?} — the payload deadline governed, not the budget"
    );

    drop(client);
    server.shutdown();
}

#[test]
fn exhausted_budget_fails_typed_without_a_wire_attempt() {
    let _serial = ctxpref_faults::exclusive();
    let db = MultiUserDb::new(tiny_env(), tiny_relation(), 4);
    let service = Arc::new(CtxPrefService::new(db, ServiceConfig::default()));
    let server =
        NetServer::bind("127.0.0.1:0", service, NetServerConfig::default()).expect("bind loopback");
    let mut client =
        NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());
    match client.request_enveloped(&query_request(100), Some(Duration::ZERO), Priority::Bulk) {
        Err(NetError::BudgetExhausted { .. }) => {}
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    drop(client);
    server.shutdown();
}
