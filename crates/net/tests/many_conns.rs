//! Scale check: the event-driven server sustains **ten thousand
//! concurrent connections** on one reactor thread — every one
//! admitted, served, and held open at once — and still answers new
//! requests promptly while saturated.
//!
//! This binary is its own harness (`harness = false` in Cargo.toml):
//! the process fd limit (20k here) cannot hold the server's 10k
//! accepted sockets *and* 10k client sockets, so the test re-execs
//! itself as child processes that each hold a slice of the
//! connections. Children pace themselves naturally: each connection
//! is pinged before the next is opened, so a child never outruns the
//! server's accept loop by more than one pending connection.
//!
//! Knobs: `CTXPREF_MANY_CONNS` (total connections, default 10400),
//! `CTXPREF_MANY_CONNS_CHILDREN` (child processes, default 4).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctxpref_core::MultiUserDb;
use ctxpref_net::frame::{read_frame, write_frame};
use ctxpref_net::proto::Response;
use ctxpref_net::{
    decode_response, encode_request, NetClient, NetClientConfig, NetServer, NetServerConfig,
    Request,
};
use ctxpref_service::{CtxPrefService, ServiceConfig};
use ctxpref_workload::reference::{poi_env, poi_relation};

const CHILD_ENV: &str = "CTXPREF_MANY_CONNS_CHILD";

fn main() {
    if let Ok(spec) = std::env::var(CHILD_ENV) {
        child(&spec);
        return;
    }
    parent();
    println!("many_conns: ok");
}

/// Child mode: `<addr> <count>` — open and hold `count` pinged
/// connections, report, then hold until the parent closes stdin.
fn child(spec: &str) {
    let (addr, count) = spec.split_once(' ').expect("spec is `<addr> <count>`");
    let count: usize = count.parse().expect("count");
    let mut held = Vec::with_capacity(count);
    for i in 0..count {
        let stream = connect_with_retry(addr);
        ping(&stream, i as u64 + 1);
        held.push(stream);
    }
    println!("held {count}");
    std::io::stdout().flush().expect("report to parent");
    // Hold every socket open until the parent closes our stdin.
    let mut sink = String::new();
    let _ = std::io::stdin().read_to_string(&mut sink);
    drop(held);
}

fn connect_with_retry(addr: &str) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                return s;
            }
            Err(e) if Instant::now() < deadline => {
                // Transient refusal under the connect burst (backlog
                // full, ephemeral port pressure): back off and retry.
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("connect to {addr} failed past the deadline: {e}"),
        }
    }
}

fn ping(mut stream: &TcpStream, id: u64) {
    write_frame(&mut stream, &encode_request(id, &Request::Ping)).expect("write ping");
    let payload = read_frame(&mut stream)
        .expect("read pong frame")
        .expect("a pong frame");
    let wire = decode_response(&payload).expect("binary pong");
    assert_eq!(wire.id, id);
    assert_eq!(wire.resp, Response::Pong);
}

fn parent() {
    let total: usize = std::env::var("CTXPREF_MANY_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_400);
    let children: usize = std::env::var("CTXPREF_MANY_CONNS_CHILDREN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(1);
    let per_child = total.div_ceil(children);

    let env = poi_env();
    let db = MultiUserDb::new(env.clone(), poi_relation(&env, 3, 1), 4);
    let service = Arc::new(CtxPrefService::new(db, ServiceConfig::default()));
    let server = NetServer::bind(
        "127.0.0.1:0",
        service,
        NetServerConfig {
            max_connections: total + 256,
            // Idle is the *point* here — don't reap held connections.
            read_timeout: Duration::from_secs(600),
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let exe = std::env::current_exe().expect("own path");
    let started = Instant::now();
    let mut procs: Vec<Child> = (0..children)
        .map(|_| {
            Command::new(&exe)
                .env(CHILD_ENV, format!("{addr} {per_child}"))
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn connection-holder child")
        })
        .collect();

    // Every child reports once all its connections are open and pinged.
    let mut held_total = 0usize;
    let mut readers: Vec<BufReader<std::process::ChildStdout>> = procs
        .iter_mut()
        .map(|p| BufReader::new(p.stdout.take().expect("child stdout")))
        .collect();
    for reader in &mut readers {
        let mut line = String::new();
        reader.read_line(&mut line).expect("child report");
        let held: usize = line
            .trim()
            .strip_prefix("held ")
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unexpected child report: {line:?}"));
        held_total += held;
    }

    assert!(
        held_total >= 10_000,
        "only {held_total} connections held — the scale claim needs ≥10k"
    );
    assert!(
        server.active_connections() >= 10_000,
        "server gauge says {} active while children hold {held_total}",
        server.active_connections()
    );
    let stats = server.net_stats();
    assert!(
        stats.accepted as usize >= held_total,
        "accepted {} < held {held_total}",
        stats.accepted
    );
    assert_eq!(
        stats.refused_busy, 0,
        "no connection should have been refused below the limit"
    );
    eprintln!(
        "many_conns: {held_total} connections held after {:?} ({} accepted)",
        started.elapsed(),
        stats.accepted
    );

    // Saturated but not starved: a fresh client still gets served
    // promptly.
    let mut probe = NetClient::connect(addr, NetClientConfig::default());
    let t = Instant::now();
    probe.ping().expect("ping through a 10k-connection server");
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "ping under load took {:?}",
        t.elapsed()
    );

    // Release the children (closing stdin is the signal), then wait.
    for p in &mut procs {
        drop(p.stdin.take());
    }
    for mut p in procs {
        let status = p.wait().expect("child exit");
        assert!(status.success(), "child failed: {status:?}");
    }
    server.shutdown();
}
