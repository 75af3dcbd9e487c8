//! What the reactor answers on its own thread, and what it leaves to
//! the workers. A `TopK` whose answer a current materialized view holds
//! is answered on the thread that decoded it, so it needs no free
//! worker, while a read whose shard is busy still waits for one. So is
//! a direct-path preference edit whose stripe is free; an edit on a
//! held stripe, a logged or replicated write, a user removal and a
//! batch frame wait for a worker. Under an installed fault plan the
//! reactor answers nothing itself, so every request passes the
//! workers' fault sites. And answers the reactor queues count against
//! the pipeline cap: a peer that sends without reading is stopped by
//! TCP, whoever answers.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ctxpref_core::MultiUserDb;
use ctxpref_faults::sites::{NET_CONN_DELAY, SVC_WORKER_DEQUEUE};
use ctxpref_faults::FaultPlan;
use ctxpref_net::{
    encode_frame, encode_request, NetClient, NetClientConfig, NetError, NetServer, NetServerConfig,
    RemoteAnswer, Request, Response,
};
use ctxpref_service::{CtxPrefService, DurabilityConfig, ReplicatedConfig, ServiceConfig};
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

fn poi_db() -> MultiUserDb {
    let env = poi_env();
    MultiUserDb::new(env.clone(), poi_relation(&env, 2007, 5), 8)
}

fn service_cfg(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        ..ServiceConfig::default()
    }
}

fn server(workers: usize, cfg: NetServerConfig) -> (Arc<CtxPrefService>, NetServer) {
    serve(CtxPrefService::new(poi_db(), service_cfg(workers)), cfg)
}

fn serve(service: CtxPrefService, cfg: NetServerConfig) -> (Arc<CtxPrefService>, NetServer) {
    let service = Arc::new(service);
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
    let (held, free) = two_shards(&service);
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
    assert_eq!(after.views.view_hits - before.views.view_hits, 1);
    assert_eq!(after.views.view_misses, before.views.view_misses);

    // Hold `held`'s shard, and park the only worker on a read of it.
    let before = after;
    let parked = park_the_worker(&service, &server, &held);

    // The worker is parked, yet a hit on another shard answers. (Stats
    // sum over every shard, so they wait for the release.)
    let hit = topk(&mut c, &free);
    assert_eq!((hit.step.as_str(), &hit.rows), ("view", &free_rows));
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !parked.waiter.is_finished(),
        "a read on a held shard answered"
    );

    // Released, the worker answers the held read — from the view.
    let ((answer, arrived), released) = parked.release();
    let Ok(Response::Answer(answer)) = answer else {
        panic!("the held read answered {answer:?}");
    };
    assert_eq!((answer.step.as_str(), &answer.rows), ("view", &held_rows));
    assert!(
        arrived > released,
        "the held read answered before the release"
    );
    assert_eq!(service.in_flight(), 0);
    // Two reads, two hits: the reactor's and the worker's.
    let after = service.stats();
    assert_eq!(after.served_view - before.served_view, 2);
    assert_eq!(after.views.view_hits - before.views.view_hits, 2);
    assert_eq!(after.views.view_misses, before.views.view_misses);
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

/// Two users on different shards: the one a test holds, and a free one.
fn two_shards(service: &CtxPrefService) -> (String, String) {
    let held = "held".to_string();
    let free = (0..64)
        .map(|i| format!("free{i}"))
        .find(|u| service.with_db(|db| db.shard_of(u) != db.shard_of(&held)))
        .expect("64 users span more than one shard");
    (held, free)
}

fn rescore(user: &str, score: f64) -> Request {
    Request::UpdateScore {
        user: user.to_string(),
        index: 0,
        score,
    }
}

fn first_score(service: &CtxPrefService, user: &str) -> f64 {
    service.with_db(|db| db.profile(user).expect("profile").preferences()[0].score())
}

/// An answer and the instant it arrived.
type Arrival = (Result<Response, NetError>, Instant);

/// The service's only worker, parked: `held`'s shard is write-locked
/// by a holder thread, and a `TopK` for `held` went to the worker,
/// which waits on that lock until [`Parked::release`].
struct Parked {
    release: mpsc::Sender<()>,
    holder: JoinHandle<()>,
    waiter: JoinHandle<Arrival>,
}

fn park_the_worker(service: &Arc<CtxPrefService>, server: &NetServer, held: &str) -> Parked {
    let (locked_tx, locked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let holder = {
        let (service, held) = (Arc::clone(service), held.to_string());
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
        let mut c = client(server);
        let read = Request::ranked(true, held, "name", K, DEADLINE, &STATE);
        std::thread::spawn(move || (c.request(&read), Instant::now()))
    };
    let until = Instant::now() + Duration::from_secs(5);
    while service.in_flight() == 0 {
        assert!(
            Instant::now() < until,
            "the held read never reached a worker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    Parked {
        release,
        holder,
        waiter,
    }
}

impl Parked {
    /// Release the shard, and with it the worker; returns the parked
    /// read's answer and the instant the release was sent.
    fn release(self) -> (Arrival, Instant) {
        let released = Instant::now();
        self.release.send(()).expect("release the shard");
        self.holder.join().expect("holder");
        (self.waiter.join().expect("parked read"), released)
    }
}

/// A request sent on a connection of its own while the only worker is
/// parked, and not yet answered.
struct Pending {
    req: Request,
    sender: JoinHandle<Arrival>,
}

/// Send `req` while the only worker is parked, and check that it is
/// still unanswered 100 ms later.
fn send_while_parked(server: &NetServer, req: Request) -> Pending {
    let sender = {
        let mut c = client(server);
        let req = req.clone();
        std::thread::spawn(move || (c.request(&req), Instant::now()))
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !sender.is_finished(),
        "{req:?} was answered while the only worker was parked"
    );
    Pending { req, sender }
}

impl Pending {
    /// Release the worker and return the answer, which came only after
    /// the release — so nothing of the request ran on the reactor.
    fn answer_after(self, parked: Parked) -> Response {
        // The parked read's own outcome is not under test here.
        let (_, released) = parked.release();
        let (answer, arrived) = self.sender.join().expect("sender");
        assert!(
            arrived > released,
            "{:?} answered before the release",
            self.req
        );
        answer.expect("answered")
    }
}

#[test]
fn a_direct_rescore_on_a_free_stripe_needs_no_worker_and_a_held_one_waits() {
    let _serial = plan_lock();
    let (service, server) = server(1, NetServerConfig::default());
    let mut c = client(&server);
    let (held, free) = two_shards(&service);
    for user in [&held, &free] {
        seed(&mut c, user);
    }
    let parked = park_the_worker(&service, &server, &held);

    // A re-score on the held stripe waits for the worker...
    let pending = send_while_parked(&server, rescore(&held, 0.45));
    // ...while the reactor, waiting on no stripe, answers a re-score on
    // a free one, applied by the time the answer arrives.
    assert_eq!(
        c.request(&rescore(&free, 0.55)).expect("rescore"),
        Response::Ok
    );
    assert_eq!(first_score(&service, &free), 0.55);
    assert_eq!(pending.answer_after(parked), Response::Ok);
    assert_eq!(first_score(&service, &held), 0.45);
    assert_eq!(service.in_flight(), 0);
    drop(c);
    server.shutdown();
}

#[test]
fn under_a_fault_plan_a_write_passes_the_worker_fault_sites() {
    let _serial = plan_lock();
    let (service, server) = server(1, NetServerConfig::default());
    let mut c = client(&server);
    let (held, free) = two_shards(&service);
    for user in [&held, &free] {
        seed(&mut c, user);
    }
    let plan = FaultPlan::builder(31).build();
    let _plan = ctxpref_faults::install(Arc::clone(&plan));
    let before = plan.hit_count(NET_CONN_DELAY);
    let parked = park_the_worker(&service, &server, &held);
    let answer = send_while_parked(&server, rescore(&free, 0.35)).answer_after(parked);
    assert_eq!(answer, Response::Ok);
    assert_eq!(first_score(&service, &free), 0.35);
    // The parked read and the write each passed the worker's delay site.
    assert_eq!(plan.hit_count(NET_CONN_DELAY) - before, 2);
    drop(c);
    server.shutdown();
}

/// A fresh directory under the system temp dir; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "ctxpref-net-reactor-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seed `held` and `free` on `service`, park its only worker, and
/// check that a re-score on the free stripe still waits for it.
fn a_rescore_waits_for_the_worker(service: CtxPrefService) {
    let (service, server) = serve(service, NetServerConfig::default());
    let mut c = client(&server);
    let (held, free) = two_shards(&service);
    for user in [&held, &free] {
        seed(&mut c, user);
    }
    let parked = park_the_worker(&service, &server, &held);
    let answer = send_while_parked(&server, rescore(&free, 0.25)).answer_after(parked);
    assert_eq!(answer, Response::Ok);
    assert_eq!(first_score(&service, &free), 0.25);
    drop(c);
    server.shutdown();
}

#[test]
fn a_logged_write_runs_on_a_worker() {
    let _serial = plan_lock();
    let tmp = TempDir::new("logged");
    let dcfg = DurabilityConfig::new(&tmp.0)
        .group_commit(Duration::from_secs(3600))
        .scrub_every(None);
    let service = CtxPrefService::new_durable(poi_db(), service_cfg(1), dcfg).expect("durable");
    a_rescore_waits_for_the_worker(service);
}

#[test]
fn a_replicated_write_runs_on_a_worker() {
    let _serial = plan_lock();
    let tmp = TempDir::new("replicated");
    let rcfg = ReplicatedConfig::new(&tmp.0, 3)
        .group_commit(Duration::from_secs(3600))
        .scrub_every(None);
    let service =
        CtxPrefService::new_replicated(poi_db(), service_cfg(1), rcfg).expect("replicated");
    a_rescore_waits_for_the_worker(service);
}

#[test]
fn a_user_removal_and_a_batch_run_on_a_worker() {
    let _serial = plan_lock();
    let (service, server) = server(1, NetServerConfig::default());
    let mut c = client(&server);
    let (held, free) = two_shards(&service);
    for user in [&held, &free] {
        seed(&mut c, user);
    }

    let batch = Request::Batch {
        requests: vec![rescore(&free, 0.15)],
    };
    let parked = park_the_worker(&service, &server, &held);
    let answer = send_while_parked(&server, batch).answer_after(parked);
    assert_eq!(
        answer,
        Response::Batch {
            responses: vec![Response::Ok]
        }
    );
    assert_eq!(first_score(&service, &free), 0.15);

    let removal = Request::RemoveUser { user: free.clone() };
    let parked = park_the_worker(&service, &server, &held);
    let answer = send_while_parked(&server, removal).answer_after(parked);
    assert_eq!(answer, Response::Ok);
    assert!(service.with_db(|db| db.profile(&free).is_err()));
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
