//! What one view hit and one re-score the reactor answers cost the
//! allocator, counted over the whole process. A hit's request is lent
//! from the payload it was decoded from and its rows are rendered from
//! the view straight into the response frame, so it allocates its
//! parsed `ContextState` and its frame, and nothing else. A re-score's
//! record is lent from the payload too, its preference's states are
//! walked in place, once by the profile tree and once by the views, and
//! a logged one is encoded into a buffer its WAL shard keeps, so it
//! allocates little more than its frame, whether the service logs it
//! (group commit) or not.
//!
//! The client is a raw socket that sends pre-encoded frames and reads
//! the answer into a buffer allocated up front, so it allocates nothing
//! itself; the server's reactor and workers run in this process, and
//! the counting allocator sees every thread. Each count is the minimum
//! over many rounds, so a round that happens to share its window with
//! something else (a vector growing once, a runtime's lazy setup, the
//! flusher) does not count against it. With `--nocapture` the tests
//! print the counts: a `Query` read's beside the hit's, and a re-score's
//! stage by stage, each stage counted by calling its layer in process
//! on the test thread (see [`Stages`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ctxpref_bytes::{Dec, LentMessage};
use ctxpref_core::MultiUserDb;
use ctxpref_net::{
    decode_response, encode_frame, encode_request, NetClient, NetClientConfig, NetServer,
    NetServerConfig, Request, RequestRef, Response, FRAME_HEADER,
};
use ctxpref_service::{CtxPrefService, DurabilityConfig, Edit, ServiceConfig};
use ctxpref_testkit::TempDir;
use ctxpref_wal::{LoggedOp, WalOpRef};
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

/// Held by each test: the counter sees the whole process, so the tests
/// take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const DEADLINE: Duration = Duration::from_secs(2);
const STATE: [&str; 3] = ["Plaka", "warm", "friends"];
const K: usize = 3;
const ROUNDS: usize = 1_000;
/// The preferences both users hold; the re-scores move the first.
const PREFS: [(&str, &str, f64); 3] = [
    ("accompanying_people = friends", "museum", 0.9),
    ("location = Plaka", "cafeteria", 0.8),
    ("temperature = warm", "zoo", 0.6),
];
/// The scores a re-score alternates between, so that every one of
/// them changes the preference.
const SCORES: [f64; 2] = [0.85, 0.9];

fn ranked(top_k: bool) -> Request {
    Request::ranked(top_k, "u", "name", K, DEADLINE, &STATE)
}

fn rescore(user: &str, score: f64) -> Request {
    Request::UpdateScore {
        user: user.into(),
        index: 0,
        score,
    }
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

/// The fewest allocations each of `reqs` made over `rounds` rounds of
/// them sent in turn, after checking the first round's answers with
/// `check`.
fn fewest<const N: usize>(
    stream: &mut TcpStream,
    reqs: [Request; N],
    rounds: usize,
    check: impl Fn(&Response),
) -> [u64; N] {
    let frames = reqs.map(|req| encode_frame(&encode_request(1, &req)).unwrap());
    let mut buf = vec![0u8; 64 * 1024];
    let mut fewest = [u64::MAX; N];
    for round in 0..rounds {
        for (frame, fewest) in frames.iter().zip(&mut fewest) {
            let (allocs, len) = exchange(stream, frame, &mut buf);
            if round == 0 {
                check(
                    &decode_response(&buf[FRAME_HEADER..FRAME_HEADER + len])
                        .unwrap()
                        .resp,
                );
            }
            *fewest = allocs.min(*fewest);
        }
    }
    fewest
}

/// The fewest allocations the whole process made over `rounds` calls of
/// `f` on this thread, the `i`th call given `i`.
fn fewest_in_process(rounds: usize, mut f: impl FnMut(usize)) -> u64 {
    (0..rounds)
        .map(|i| {
            let before = ALLOCS.load(Ordering::SeqCst);
            f(i);
            ALLOCS.load(Ordering::SeqCst) - before
        })
        .min()
        .unwrap()
}

/// A server over `service` with user `u`, who holds [`PREFS`] and a
/// materialized view of [`STATE`], and user `w`, who holds the same
/// preferences and asks nothing, so that once `w`'s first edit gives
/// `w` an index of its own, `w`'s catalog holds no view.
fn serve(service: CtxPrefService) -> (Arc<CtxPrefService>, NetServer) {
    let service = Arc::new(service);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client =
        NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());
    for user in ["u", "w"] {
        client.add_user(user).unwrap();
        for (desc, value, score) in PREFS {
            client
                .insert_preference(user, desc, "type", value, score)
                .unwrap();
        }
    }
    let warm = (0..8).any(|_| {
        client
            .query_topk("u", "name", K, DEADLINE, &STATE)
            .unwrap()
            .step
            == "view"
    });
    assert!(warm, "no view materialized");
    (service, server)
}

fn db() -> MultiUserDb {
    let env = poi_env();
    MultiUserDb::new(env.clone(), poi_relation(&env, 2007, 5), 8)
}

fn connect(server: &NetServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

#[test]
fn a_reactor_view_hit_allocates_its_state_and_its_frame() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_service, server) = serve(CtxPrefService::new(db(), ServiceConfig::default()));
    let mut stream = connect(&server);
    let answered_by = |steps: &'static [&'static str]| {
        move |resp: &Response| match resp {
            Response::Answer(answer) => {
                assert!(steps.contains(&answer.step.as_str()), "{}", answer.step);
                assert!(!answer.rows.is_empty());
            }
            other => panic!("not an answer: {other:?}"),
        }
    };
    let [hit] = fewest(&mut stream, [ranked(true)], ROUNDS, answered_by(&["view"]));
    // A full ranking: exact once, then from the query cache.
    let [read] = fewest(
        &mut stream,
        [ranked(false)],
        ROUNDS,
        answered_by(&["exact"]),
    );
    println!("allocations per reactor answer: view hit {hit}, Query read {read}");
    assert!(hit <= 2, "a view hit allocated {hit} times");
    drop(stream);
    server.shutdown();
}

/// A reactor re-score's allocations, stage by stage. Every stage but
/// the last is its layer called in process on the test thread, as the
/// reactor calls it:
///
/// * **decode** — the request's body lent from its payload
///   (`RequestRef::get_lent`; the envelope before it is read in place);
/// * **op** — the record the edit logs, lent from the request
///   (`WalOpRef`);
/// * **guard**, with the op readied from the request — what
///   `CtxPrefService::try_edit` makes beyond its stripe apply and view
///   patch: the migration guard;
/// * **log** — what a logged `try_edit` makes beyond a direct one: the
///   record staged and appended;
/// * **stripe apply** — the op applied to the core for a user no view
///   of whose is materialized (`w`): the profile and its tree;
/// * **view patch** — what the same apply makes beyond that for a user
///   with a materialized view (`u`);
/// * **encode and frame** — the rest of the reactor's exchange: the
///   response framed in place and written.
#[derive(Debug, Default, Clone, Copy)]
struct Stages {
    decode: u64,
    op: u64,
    guard: u64,
    log: u64,
    stripe_apply: u64,
    view_patch: u64,
    encode_and_frame: u64,
    total: u64,
}

impl Stages {
    fn rows(&self) -> [(&'static str, u64); 8] {
        [
            ("decode", self.decode),
            ("op", self.op),
            ("guard", self.guard),
            ("log", self.log),
            ("stripe apply", self.stripe_apply),
            ("view patch", self.view_patch),
            ("encode and frame", self.encode_and_frame),
            ("total", self.total),
        ]
    }
}

/// The allocations of one re-score of `u`'s first preference through
/// `service.try_edit`, the fewest over [`ROUNDS`].
fn try_edit(service: &CtxPrefService) -> u64 {
    fewest_in_process(ROUNDS, |i| {
        let edit = Edit::Rescore {
            index: 0,
            score: SCORES[i % 2],
        };
        let done = service.try_edit("u", edit).expect("taken on a free stripe");
        assert!(done.expect("applied").is_none());
    })
}

/// The fewest allocations of `user`'s re-score applied to the core
/// alone, as the reactor's stripe apply runs it.
fn core_apply(service: &CtxPrefService, user: &str) -> u64 {
    fewest_in_process(ROUNDS, |i| {
        service.with_db(|core| {
            let op = WalOpRef::UpdateScore {
                user,
                index: 0,
                score: SCORES[i % 2],
            };
            op.apply(core).expect("re-scored");
        });
    })
}

/// The whole reactor exchange of `u`'s re-scores over `stream`.
fn exchanged(stream: &mut TcpStream) -> u64 {
    let edits = SCORES.map(|score| rescore("u", score));
    let each = fewest(stream, edits, ROUNDS, |resp| {
        assert_eq!(resp, &Response::Ok)
    });
    each.into_iter().min().unwrap()
}

#[test]
fn a_reactor_re_score_allocates_little_beyond_its_frame() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The direct arm: a memory-only service.
    let (service, server) = serve(CtxPrefService::new(db(), ServiceConfig::default()));
    let mut stream = connect(&server);
    let mut direct = Stages {
        total: exchanged(&mut stream),
        ..Stages::default()
    };
    let request = rescore("u", SCORES[0]);
    let payload = encode_request(1, &request);
    let lent = RequestRef::lend(&request).expect("a re-score is lent");
    let mut body = Vec::new();
    lent.put_body(&mut body);
    let (tag, body) = (lent.tag(), &payload[payload.len() - body.len()..]);
    direct.decode = fewest_in_process(ROUNDS, |_| {
        let read = RequestRef::get_lent(&mut Dec::new(body), tag).unwrap();
        assert_eq!(read, Some(lent));
    });
    direct.op = fewest_in_process(ROUNDS, |i| {
        let op = WalOpRef::UpdateScore {
            user: "u",
            index: 0,
            score: SCORES[i % 2],
        };
        assert_eq!(LoggedOp::user(&op), "u");
    });
    let edited = try_edit(&service);
    direct.stripe_apply = core_apply(&service, "w");
    // Differences of minima: a stage the noise would take below zero
    // reads zero.
    direct.view_patch = core_apply(&service, "u").saturating_sub(direct.stripe_apply);
    direct.guard = edited.saturating_sub(direct.op + direct.stripe_apply + direct.view_patch);
    direct.encode_and_frame = direct.total.saturating_sub(direct.decode + edited);
    // An insert and the removal of what it inserted, unbounded here.
    let insert = Request::InsertPref {
        user: "u".into(),
        descriptor: "location = Plaka".into(),
        attr: "type".into(),
        value: "museum".into(),
        score: 0.7,
    };
    let removal = Request::RemovePref {
        user: "u".into(),
        index: PREFS.len(),
    };
    let [inserted, removed] = fewest(&mut stream, [insert, removal], ROUNDS, |resp| {
        assert!(
            matches!(resp, Response::Ok | Response::Removed { .. }),
            "{resp:?}"
        )
    });
    drop(stream);
    server.shutdown();

    // The logged arm: group commit, no background checkpoint or scrub.
    // The stages it shares with the direct arm are the direct arm's.
    let tmp = TempDir::new("hit-allocs");
    let dcfg = DurabilityConfig {
        checkpoint_interval: None,
        ..DurabilityConfig::new(tmp.path()).group_commit(Duration::from_secs(3600))
    }
    .scrub_every(None);
    let durable = CtxPrefService::new_durable(db(), ServiceConfig::default(), dcfg).unwrap();
    let (service, server) = serve(durable);
    let mut stream = connect(&server);
    let mut logged = Stages {
        total: exchanged(&mut stream),
        ..direct
    };
    logged.log = try_edit(&service).saturating_sub(edited);
    logged.encode_and_frame = (logged.total).saturating_sub(logged.decode + edited + logged.log);
    drop(stream);
    server.shutdown();

    println!("allocations per reactor edit: insert {inserted}, removal {removed}");
    println!("allocations per reactor re-score, by stage:");
    println!("{:<18} {:>6} {:>6}", "stage", "direct", "logged");
    for ((stage, d), (_, l)) in direct.rows().into_iter().zip(logged.rows()) {
        println!("{stage:<18} {d:>6} {l:>6}");
    }
    assert!(
        direct.total <= 4,
        "a direct re-score allocated {} times",
        direct.total
    );
    assert!(
        logged.total <= 5,
        "a logged re-score allocated {} times",
        logged.total
    );
}
