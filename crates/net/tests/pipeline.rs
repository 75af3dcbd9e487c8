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
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctxpref_core::MultiUserDb;
use ctxpref_faults::sites::NET_CONN_DELAY;
use ctxpref_faults::FaultPlan;
use ctxpref_net::frame::{encode_frame, read_frame, write_frame};
use ctxpref_net::proto::{Request, Response};
use ctxpref_net::{
    decode_request, decode_response, encode_request, encode_response, FrameError, NetClient,
    NetClientConfig, NetError, NetServer, NetServerConfig,
};
use ctxpref_service::{CtxPrefService, ServiceConfig};
use ctxpref_workload::reference::{poi_env, poi_relation};

fn spawn_server() -> NetServer {
    let env = poi_env();
    let db = MultiUserDb::new(env.clone(), poi_relation(&env, 3, 1), 4);
    let service = Arc::new(CtxPrefService::new(db, ServiceConfig::default()));
    NetServer::bind("127.0.0.1:0", service, NetServerConfig::default()).expect("bind loopback")
}

#[test]
fn wire_responses_arrive_out_of_order_and_carry_their_ids() {
    let _guard = ctxpref_faults::exclusive();
    let server = spawn_server();

    // Stall request 10's job: it is sent alone, and the others follow
    // only once its job has reached the stall site (hit 1), so no other
    // job can take the stall whichever worker runs it. Its response
    // must then trail every other in-flight response onto the wire.
    let plan = FaultPlan::builder(0)
        .delay_at(NET_CONN_DELAY, &[1], Duration::from_millis(400))
        .build();
    let _plan = ctxpref_faults::install(Arc::clone(&plan));

    let mut stream = TcpStream::connect(server.local_addr()).expect("dial");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let ids = [10u64, 11, 12, 13];
    let started = Instant::now();
    for (i, id) in ids.into_iter().enumerate() {
        write_frame(&mut stream, &encode_request(id, &Request::Ping)).expect("write frame");
        while i == 0 && plan.hit_count(NET_CONN_DELAY) == 0 {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "request 10 never dispatched"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let mut arrival = Vec::new();
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
    let _guard = ctxpref_faults::exclusive();
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
    let _guard = ctxpref_faults::exclusive();
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
    let _guard = ctxpref_faults::exclusive();
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
    let _guard = ctxpref_faults::exclusive();
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

/// A frame as a version-3 peer seals it: the same header, checksummed
/// with FNV-1a 64 over length and payload.
fn v3_frame(payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() as u32).to_le_bytes();
    let mut sum = 0xcbf2_9ce4_8422_2325u64;
    for &b in len.iter().chain(payload) {
        sum ^= u64::from(b);
        sum = sum.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut frame = len.to_vec();
    frame.extend_from_slice(&sum.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// `payload` as a version-3 peer writes it: the version byte says 0x03.
fn as_v3(mut payload: Vec<u8>) -> Vec<u8> {
    payload[1] = 0x03;
    payload
}

/// Read one reply off a raw socket: its id and its typed refusal.
fn refusal(stream: &mut TcpStream) -> (u64, String, String) {
    let payload = read_frame(stream)
        .expect("read frame")
        .expect("one refusal frame");
    let wire = decode_response(&payload).expect("the refusal is a ctxpref2 response");
    match wire.resp {
        Response::Err { kind, message } => (wire.id, kind, message),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
}

#[test]
fn a_v3_peer_is_refused_typed_never_misparsed() {
    let _guard = ctxpref_faults::exclusive();
    let server = spawn_server();
    let dial = || {
        let stream = TcpStream::connect(server.local_addr()).expect("dial");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        stream
    };

    // A version-3 frame fails the version-4 checksum: the stream is
    // refused as torn, under id 0, and closed.
    let mut stream = dial();
    let request = as_v3(encode_request(1, &Request::Ping));
    stream
        .write_all(&v3_frame(&request))
        .expect("write v3 frame");
    let (id, kind, message) = refusal(&mut stream);
    assert_eq!((id, kind.as_str()), (0, "frame"), "{message}");
    assert!(message.contains("checksum"), "{message}");
    assert!(
        read_frame(&mut stream).expect("clean close").is_none(),
        "the server must close after the frame refusal"
    );

    // A version-3 payload in a well-sealed frame reaches the codec,
    // which refuses its version typed rather than read it as version 4.
    let mut stream = dial();
    write_frame(&mut stream, &request).expect("write v4 frame");
    let (id, kind, message) = refusal(&mut stream);
    assert_eq!((id, kind.as_str()), (0, "proto"), "{message}");
    assert!(message.contains("codec version"), "{message}");
    drop(stream);

    // And a version-4 client reading a version-3 reply: a typed
    // checksum failure, never a misread answer.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind v3 peer");
    let addr = listener.local_addr().expect("v3 peer address");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let request = read_frame(&mut stream)
            .expect("read request")
            .expect("one request");
        let id = decode_request(&request).expect("v4 request").id;
        let reply = as_v3(encode_response(id, &Response::Pong));
        stream.write_all(&v3_frame(&reply)).expect("write v3 reply");
    });
    let cfg = NetClientConfig {
        attempts: 1,
        ..NetClientConfig::default()
    };
    match NetClient::connect(addr.to_string(), cfg).ping() {
        Err(NetError::Frame(FrameError::Checksum { .. })) => {}
        other => panic!("expected a typed checksum error, got {other:?}"),
    }
    peer.join().expect("v3 peer");
    server.shutdown();
}
