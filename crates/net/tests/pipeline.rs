//! Pipelining: many requests in flight on one connection, responses
//! completing **out of order** and matched back by request id.
//!
//! The out-of-order interleave is forced, not hoped for: a
//! deterministic fault plan (`delay_at`) stalls exactly the first
//! request's worker, so its response *must* arrive after its
//! successors'. The raw-socket test asserts the wire really does
//! reorder; the client test asserts `NetClient::pipeline` un-reorders
//! by id.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ctxpref_core::MultiUserDb;
use ctxpref_faults::sites::NET_CONN_DELAY;
use ctxpref_faults::FaultPlan;
use ctxpref_net::frame::{encode_frame, read_frame, write_frame};
use ctxpref_net::proto::{Request, Response};
use ctxpref_net::{
    decode_response, encode_request, NetClient, NetClientConfig, NetError, NetServer,
    NetServerConfig,
};
use ctxpref_service::{CtxPrefService, ServiceConfig};
use ctxpref_workload::reference::{poi_env, poi_relation};

/// Fault plans are process-global; serialize the tests that install
/// one so hit ordinals stay deterministic.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn plan_lock() -> MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn spawn_server() -> NetServer {
    let env = poi_env();
    let db = MultiUserDb::new(env.clone(), poi_relation(&env, 3, 1), 4);
    let service = Arc::new(CtxPrefService::new(db, ServiceConfig::default()));
    NetServer::bind("127.0.0.1:0", service, NetServerConfig::default()).expect("bind loopback")
}

#[test]
fn wire_responses_arrive_out_of_order_and_carry_their_ids() {
    let _guard = plan_lock();
    let server = spawn_server();

    // Stall exactly the first dispatched job: its response must then
    // trail every other in-flight response onto the wire.
    let plan = FaultPlan::builder(0)
        .delay_at(NET_CONN_DELAY, &[1], Duration::from_millis(400))
        .build();
    let _plan = ctxpref_faults::install(plan);

    let mut stream = TcpStream::connect(server.local_addr()).expect("dial");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let ids = [10u64, 11, 12, 13];
    for id in ids {
        write_frame(&mut stream, &encode_request(id, &Request::Ping)).expect("write frame");
    }

    let mut arrival = Vec::new();
    let started = Instant::now();
    for _ in 0..ids.len() {
        let payload = read_frame(&mut stream)
            .expect("read frame")
            .expect("a response frame");
        let wire = decode_response(&payload).expect("binary response");
        assert_eq!(wire.resp, Response::Pong, "id {}: wrong body", wire.id);
        arrival.push(wire.id);
    }

    let mut sorted = arrival.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, ids, "every request answered exactly once");
    assert_eq!(
        *arrival.last().expect("nonempty"),
        10,
        "the delayed first request must answer last — got arrival order {arrival:?}"
    );
    assert_ne!(
        arrival, ids,
        "responses arrived in request order; the pipeline never interleaved"
    );
    // The three undelayed responses must not have waited behind the
    // stalled one — that would be head-of-line blocking.
    assert!(
        started.elapsed() >= Duration::from_millis(300),
        "the delayed response cannot beat its own stall"
    );
    drop(stream);
    server.shutdown();
}

#[test]
fn pipeline_client_reorders_responses_back_to_request_order() {
    let _guard = plan_lock();
    let server = spawn_server();
    let mut client =
        NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());
    client.add_user("alice").expect("add user");

    // Install *after* the setup mutation so hit #1 is the first
    // pipelined job.
    let plan = FaultPlan::builder(0)
        .delay_at(NET_CONN_DELAY, &[1], Duration::from_millis(300))
        .build();
    let _plan = ctxpref_faults::install(plan);

    let reqs = vec![
        Request::Query {
            user: "alice".to_string(),
            attr: "name".to_string(),
            k: 3,
            deadline_ms: 1000,
            state: vec![
                "Plaka".to_string(),
                "warm".to_string(),
                "friends".to_string(),
            ],
        },
        Request::Ping,
        Request::Stats,
        Request::Ping,
    ];
    let resps = client.pipeline(&reqs).expect("pipelined burst");
    assert_eq!(resps.len(), reqs.len());
    // Position 0 was delayed on the server — it still comes back
    // first, matched by id, not by arrival.
    assert!(
        matches!(&resps[0], Response::Answer(_)),
        "slot 0 must hold the query's answer, got {:?}",
        resps[0]
    );
    assert_eq!(resps[1], Response::Pong);
    assert!(
        matches!(&resps[2], Response::Text { .. }),
        "slot 2 must hold the stats text, got {:?}",
        resps[2]
    );
    assert_eq!(resps[3], Response::Pong);
    server.shutdown();
}

#[test]
fn batched_mutations_travel_as_one_frame_and_answer_per_item() {
    let _guard = plan_lock();
    let server = spawn_server();
    let mut client =
        NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());

    let responses = client
        .batch(vec![
            Request::AddUser {
                user: "bob".to_string(),
            },
            Request::InsertPref {
                user: "bob".to_string(),
                descriptor: "accompanying_people = friends".to_string(),
                attr: "type".to_string(),
                value: "museum".to_string(),
                score: 0.8,
            },
            Request::Ping,
        ])
        .expect("batch");
    assert_eq!(
        responses,
        vec![Response::Ok, Response::Ok, Response::Pong],
        "every item answered in order"
    );

    // The bulk-insert convenience verb reports how many applied.
    let applied = client
        .insert_preferences(
            "bob",
            &[
                ("temperature = good", "type", "open-air", 0.9),
                ("accompanying_people = family", "type", "museum", 0.7),
            ],
        )
        .expect("bulk insert");
    assert_eq!(applied, 2);

    // A failing item stops the batch: the applied prefix stays, the
    // failure surfaces typed.
    let err = client
        .insert_preferences(
            "no-such-user",
            &[("temperature = good", "type", "zoo", 0.5)],
        )
        .expect_err("unknown user must fail");
    assert!(
        matches!(err, NetError::Remote { .. }),
        "expected a typed remote failure, got {err:?}"
    );
    server.shutdown();
}

#[test]
fn nested_batches_are_refused_typed() {
    let _guard = plan_lock();
    let server = spawn_server();
    let mut client =
        NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());
    let nested = Request::Batch {
        requests: vec![Request::Batch {
            requests: vec![Request::Ping],
        }],
    };
    match client.request(&nested) {
        Err(NetError::Remote { kind, .. }) => assert_eq!(kind, "proto"),
        other => panic!("nested batch must be refused typed, got {other:?}"),
    }
    // The refusal did not poison the connection's protocol state.
    client.ping().expect("connection still serviceable");
    server.shutdown();
}

#[test]
fn unservable_streams_are_refused_under_id_zero_and_the_connection_closed() {
    // ctxpref2 is the only dialect. A peer that opens with anything
    // else — here the retired text protocol's ping — or whose framing
    // is torn gets exactly one typed answer under the reserved
    // connection id, then EOF; the server never tries to serve it,
    // and nobody else is disturbed.
    let _guard = plan_lock();
    let server = spawn_server();
    let foreign = encode_frame(b"ctxpref1 ping").expect("frame");
    let mut torn = encode_frame(&encode_request(1, &Request::Ping)).expect("frame");
    *torn.last_mut().expect("nonempty") ^= 0x40;
    for (bytes, expected_kind) in [(foreign, "proto"), (torn, "frame")] {
        let mut stream = TcpStream::connect(server.local_addr()).expect("dial");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        stream.write_all(&bytes).expect("write raw bytes");
        let payload = read_frame(&mut stream)
            .expect("read frame")
            .expect("one refusal frame");
        let wire = decode_response(&payload).expect("the refusal is a ctxpref2 response");
        assert_eq!(wire.id, 0, "a connection-level reply carries id 0");
        match wire.resp {
            Response::Err { kind, .. } => assert_eq!(kind, expected_kind),
            other => panic!("expected a typed {expected_kind} refusal, got {other:?}"),
        }
        assert!(
            read_frame(&mut stream).expect("clean close").is_none(),
            "the server must close after the {expected_kind} refusal"
        );
    }

    let mut client =
        NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());
    client.ping().expect("a ctxpref2 client is still served");
    server.shutdown();
}
