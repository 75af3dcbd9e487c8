//! What one view hit the reactor answers costs the allocator, counted
//! over the whole process: the request is lent from the payload it was
//! decoded from and the rows are rendered from the view straight into
//! the response frame, so a hit allocates its parsed `ContextState` and
//! its frame, and nothing else.
//!
//! The client is a raw socket that sends a pre-encoded `TopK` frame and
//! reads the answer into a buffer allocated up front, so it allocates
//! nothing itself; the server's reactor and workers run in this
//! process, and the counting allocator sees every thread. The count is
//! the minimum over many hits, so a hit that happens to share its
//! window with something else (a vector growing once, a runtime's
//! lazy setup) does not count against it. With `--nocapture` the test
//! also prints the same count for a reactor `Query` read and a reactor
//! re-score, whose costs it does not bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ctxpref_core::MultiUserDb;
use ctxpref_net::{
    decode_response, encode_frame, encode_request, NetClient, NetClientConfig, NetServer,
    NetServerConfig, Request, Response, FRAME_HEADER,
};
use ctxpref_service::{CtxPrefService, ServiceConfig};
use ctxpref_workload::reference::{poi_env, poi_relation};

/// Heap allocations of the whole process: every `alloc`,
/// `alloc_zeroed` and `realloc`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const DEADLINE: Duration = Duration::from_secs(2);
const STATE: [&str; 3] = ["Plaka", "warm", "friends"];
const K: usize = 3;
const HITS: usize = 1_000;

fn ranked(top_k: bool) -> Request {
    Request::ranked(top_k, "u", "name", K, DEADLINE, &STATE)
}

/// One request frame sent and its response frame read into `buf`, on a
/// socket the reactor serves: the process's allocations in between,
/// and the response.
fn exchange(stream: &mut TcpStream, frame: &[u8], buf: &mut [u8]) -> (u64, usize) {
    let before = ALLOCS.load(Ordering::SeqCst);
    stream.write_all(frame).unwrap();
    stream.read_exact(&mut buf[..FRAME_HEADER]).unwrap();
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    stream
        .read_exact(&mut buf[FRAME_HEADER..FRAME_HEADER + len])
        .unwrap();
    (ALLOCS.load(Ordering::SeqCst) - before, len)
}

/// The fewest allocations one exchange made over `rounds` rounds of
/// `reqs` sent in turn, after checking each one's first answer with
/// `check`.
fn fewest(
    stream: &mut TcpStream,
    reqs: &[Request],
    rounds: usize,
    check: impl Fn(&Response),
) -> u64 {
    let frames: Vec<Vec<u8>> = (reqs.iter())
        .map(|req| encode_frame(&encode_request(1, req)).unwrap())
        .collect();
    let mut buf = vec![0u8; 64 * 1024];
    for frame in &frames {
        let (_, len) = exchange(stream, frame, &mut buf);
        check(
            &decode_response(&buf[FRAME_HEADER..FRAME_HEADER + len])
                .unwrap()
                .resp,
        );
    }
    (0..rounds)
        .map(|i| exchange(stream, &frames[i % frames.len()], &mut buf).0)
        .min()
        .unwrap()
}

#[test]
fn a_reactor_view_hit_allocates_its_state_and_its_frame() {
    let env = poi_env();
    let db = MultiUserDb::new(env.clone(), poi_relation(&env, 2007, 5), 8);
    let service = Arc::new(CtxPrefService::new(db, ServiceConfig::default()));
    let server = NetServer::bind("127.0.0.1:0", service, NetServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr.to_string(), NetClientConfig::default());
    client.add_user("u").unwrap();
    for (desc, value, score) in [
        ("accompanying_people = friends", "museum", 0.9),
        ("location = Plaka", "cafeteria", 0.8),
        ("temperature = warm", "zoo", 0.6),
    ] {
        client
            .insert_preference("u", desc, "type", value, score)
            .unwrap();
    }
    let warm = (0..8).any(|_| {
        client
            .query_topk("u", "name", K, DEADLINE, &STATE)
            .unwrap()
            .step
            == "view"
    });
    assert!(warm, "no view materialized");

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let answered_by = |steps: &'static [&'static str]| {
        move |resp: &Response| match resp {
            Response::Answer(answer) => {
                assert!(steps.contains(&answer.step.as_str()), "{}", answer.step);
                assert!(!answer.rows.is_empty());
            }
            other => panic!("not an answer: {other:?}"),
        }
    };
    let hit = fewest(&mut stream, &[ranked(true)], HITS, answered_by(&["view"]));
    // A full ranking: exact once, then from the query cache.
    let read = fewest(&mut stream, &[ranked(false)], HITS, answered_by(&["exact"]));
    let rescore = |score| Request::UpdateScore {
        user: "u".into(),
        index: 0,
        score,
    };
    let edits = [rescore(0.85), rescore(0.9)];
    let edit = fewest(&mut stream, &edits, HITS, |resp| {
        assert_eq!(resp, &Response::Ok)
    });
    println!("allocations per reactor answer: view hit {hit}, Query read {read}, re-score {edit}");
    assert!(hit <= 2, "a view hit allocated {hit} times");
    drop(stream);
    drop(client);
    server.shutdown();
}
