//! View hits on the reactor: a `TopK` whose answer a current
//! materialized view holds is answered on the thread that decoded it,
//! so it needs no free worker, while a read whose shard is busy still
//! waits for one. Under an installed fault plan the reactor answers
//! nothing itself, so every read passes the worker's fault sites. And
//! answers the reactor queues count against the pipeline cap: a peer
//! that sends without reading is stopped by TCP, whoever answers.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ctxpref_core::MultiUserDb;
use ctxpref_faults::sites::SVC_WORKER_DEQUEUE;
use ctxpref_faults::FaultPlan;
use ctxpref_net::{
    encode_frame, encode_request, NetClient, NetClientConfig, NetServer, NetServerConfig,
    RemoteAnswer, Request,
};
use ctxpref_service::{CtxPrefService, ServiceConfig};
use ctxpref_workload::reference::{poi_env, poi_relation};

const DEADLINE: Duration = Duration::from_secs(2);
const STATE: [&str; 3] = ["Plaka", "warm", "friends"];
const K: usize = 3;

/// Fault plans are process-global, and under one the reactor answers
/// nothing itself: serialize every test here.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn plan_lock() -> MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn server(workers: usize, cfg: NetServerConfig) -> (Arc<CtxPrefService>, NetServer) {
    let env = poi_env();
    let db = MultiUserDb::new(env.clone(), poi_relation(&env, 2007, 5), 8);
    let service = Arc::new(CtxPrefService::new(
        db,
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
    ));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), cfg).expect("bind loopback");
    (service, server)
}

fn client(server: &NetServer) -> NetClient {
    NetClient::connect(server.local_addr().to_string(), NetClientConfig::default())
}

/// Register `user` with a small profile that matches [`STATE`].
fn seed(client: &mut NetClient, user: &str) {
    client.add_user(user).expect("add user");
    for (desc, value, score) in [
        ("accompanying_people = friends", "museum", 0.9),
        ("location = Plaka", "cafeteria", 0.8),
        ("temperature = warm", "zoo", 0.6),
    ] {
        client
            .insert_preference(user, desc, "type", value, score)
            .expect("insert preference");
    }
}

fn topk(client: &mut NetClient, user: &str) -> RemoteAnswer {
    client
        .query_topk(user, "name", K, DEADLINE, &STATE)
        .expect("topk")
}

/// Ask until a view answers, so the next read is a view hit.
fn warm_view(client: &mut NetClient, user: &str) {
    for _ in 0..8 {
        if topk(client, user).step == "view" {
            return;
        }
    }
    panic!("no view materialized for {user}");
}

#[test]
fn a_view_hit_needs_no_worker_and_a_busy_shard_waits_for_one() {
    let _serial = plan_lock();
    let (service, server) = server(1, NetServerConfig::default());
    let mut c = client(&server);
    // Two users on different shards.
    let held = "held".to_string();
    let free = (0..64)
        .map(|i| format!("free{i}"))
        .find(|u| service.with_db(|db| db.shard_of(u) != db.shard_of(&held)))
        .expect("64 users span more than one shard");
    for user in [&held, &free] {
        seed(&mut c, user);
        warm_view(&mut c, user);
    }
    let expected = |c: &mut NetClient, user: &str| {
        c.query(user, "name", K, DEADLINE, &STATE)
            .expect("query")
            .rows
    };
    let (held_rows, free_rows) = (expected(&mut c, &held), expected(&mut c, &free));

    // A hit, counted once: as the `view` rung and as a catalog hit.
    let before = service.stats();
    let hit = topk(&mut c, &free);
    assert_eq!((hit.step.as_str(), &hit.rows), ("view", &free_rows));
    let after = service.stats();
    assert_eq!(after.served_view - before.served_view, 1);
    assert_eq!(after.view_hits - before.view_hits, 1);
    assert_eq!(after.view_misses, before.view_misses);

    // Hold `held`'s shard, and park the only worker on it.
    let before = after;
    let (locked_tx, locked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let holder = {
        let (service, held) = (Arc::clone(&service), held.clone());
        std::thread::spawn(move || {
            service.with_db(|db| {
                let _shard = db.quiesce_user(&held);
                locked_tx.send(()).expect("signal locked");
                release_rx.recv().expect("release");
            });
        })
    };
    locked.recv().expect("shard held");
    let waiter = {
        let mut c = client(&server);
        let held = held.clone();
        std::thread::spawn(move || {
            let started = Instant::now();
            (topk(&mut c, &held), started.elapsed())
        })
    };
    let until = Instant::now() + Duration::from_secs(5);
    while service.in_flight() == 0 {
        assert!(
            Instant::now() < until,
            "the held read never reached a worker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The worker is parked, yet a hit on another shard answers. (Stats
    // sum over every shard, so they wait for the release.)
    let hit = topk(&mut c, &free);
    assert_eq!((hit.step.as_str(), &hit.rows), ("view", &free_rows));
    std::thread::sleep(Duration::from_millis(100));
    assert!(!waiter.is_finished(), "a read on a held shard answered");

    // Released, the worker answers the held read — from the view.
    release.send(()).expect("release the shard");
    holder.join().expect("holder");
    let (answer, waited) = waiter.join().expect("waiter");
    assert_eq!((answer.step.as_str(), &answer.rows), ("view", &held_rows));
    assert!(
        waited >= Duration::from_millis(100),
        "answered in {waited:?}"
    );
    assert_eq!(service.in_flight(), 0);
    // Two reads, two hits: the reactor's and the worker's.
    let after = service.stats();
    assert_eq!(after.served_view - before.served_view, 2);
    assert_eq!(after.view_hits - before.view_hits, 2);
    assert_eq!(after.view_misses, before.view_misses);
    drop(c);
    server.shutdown();
}

#[test]
fn under_a_fault_plan_a_hit_passes_the_worker_fault_sites() {
    let _serial = plan_lock();
    let (service, server) = server(2, NetServerConfig::default());
    let mut c = client(&server);
    seed(&mut c, "viewer");
    warm_view(&mut c, "viewer");

    let plan = FaultPlan::builder(27).build();
    let _plan = ctxpref_faults::install(Arc::clone(&plan));
    let before = service.stats().served_view;
    for n in 1..=3 {
        assert_eq!(topk(&mut c, "viewer").step, "view");
        assert_eq!(plan.hit_count(SVC_WORKER_DEQUEUE), n);
    }
    assert_eq!(service.stats().served_view - before, 3);
    assert_eq!(service.in_flight(), 0);
    drop(c);
    server.shutdown();
}

/// Send `frame` over and over on a raw socket that never reads, and
/// return once a write blocks. Panics if the server decodes far more
/// frames than the socket buffers between it and the peer can hold
/// answers for (under 100k on Linux loopback at default limits): it
/// never stopped reading. Counted in frames decoded rather than bytes
/// sent, since the kernel may grow the server's receive buffer to tens
/// of MiB before the peer's writes block.
fn flood_until_blocked(server: &NetServer, frame: impl Fn(u64) -> Vec<u8>) {
    const FRAMES: usize = 500_000;
    let base = server.net_stats().frames_in;
    let mut stream = TcpStream::connect(server.local_addr()).expect("dial");
    stream
        .set_write_timeout(Some(Duration::from_secs(1)))
        .expect("write timeout");
    for burst in 0u64.. {
        let decoded = server.net_stats().frames_in - base;
        assert!(
            decoded < FRAMES,
            "the server decoded {decoded} frames from a peer that never read an answer"
        );
        let mut bytes = Vec::new();
        for id in burst * 64 + 1..=burst * 64 + 64 {
            bytes.extend(encode_frame(&frame(id)).expect("frame"));
        }
        match stream.write_all(&bytes) {
            Ok(()) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => return,
            Err(e) => panic!("flood write failed: {e}"),
        }
    }
}

fn flood_server() -> (Arc<CtxPrefService>, NetServer) {
    server(
        2,
        NetServerConfig {
            drain_timeout: Duration::from_millis(100),
            ..NetServerConfig::default()
        },
    )
}

#[test]
fn a_peer_flooding_bad_bodies_without_reading_is_stopped_by_tcp() {
    let _serial = plan_lock();
    let (_service, server) = flood_server();
    // A well-formed header, a body with trailing bytes: the reactor
    // answers each one itself, typed, under its id.
    flood_until_blocked(&server, |id| {
        let mut payload = encode_request(id, &Request::Ping);
        payload.extend([0u8; 256]);
        payload
    });
    server.shutdown();
}

#[test]
fn a_peer_flooding_view_hits_without_reading_is_stopped_by_tcp() {
    let _serial = plan_lock();
    let (_service, server) = flood_server();
    let mut c = client(&server);
    seed(&mut c, "viewer");
    warm_view(&mut c, "viewer");
    let read = Request::ranked(true, "viewer", "name", K, DEADLINE, &STATE);
    flood_until_blocked(&server, |id| encode_request(id, &read));
    drop(c);
    server.shutdown();
}
