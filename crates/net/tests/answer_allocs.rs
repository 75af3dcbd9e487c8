//! A server-side ranked read allocates the same whatever its row count:
//! the rows go from the relation straight into the response frame, so
//! a `Query` answering 1,000 rows costs the allocator no more calls than
//! one answering 10. The owned answer an in-process caller gets
//! (`serve_request`, the same frame decoded) is the contrast: a
//! `String` per row.
//!
//! The claim is counted, not assumed: the test binary installs a
//! counting global allocator, armed per thread, and both reads run on
//! the calling thread through dispatch (`serve_frame`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ctxpref_core::MultiUserDb;
use ctxpref_net::{decode_response, read_frame, serve_frame, serve_request, Request, Response};
use ctxpref_relation::{AttrType, Relation, Schema, Value};
use ctxpref_service::{CtxPrefService, ServiceConfig};
use ctxpref_workload::reference::poi_env;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Const-initialized TLS: no lazy allocation, safe to touch here.
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            }
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls `f` makes on this thread.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(|n| n.get()), out)
}

const TUPLES: usize = 1_000;
const STATE: [&str; 3] = ["Plaka", "warm", "friends"];

/// 1,000 tuples: ten ranked alone on distinct scores, the other 990
/// tied below them, so the top 10 is exactly 10 rows and the top 1,000
/// exactly 1,000.
fn service() -> CtxPrefService {
    let env = poi_env();
    let schema = Schema::new(&[("name", AttrType::Str), ("kind", AttrType::Str)]).unwrap();
    let mut rel = Relation::new("rows", schema);
    for i in 0..TUPLES {
        let kind = if i < 10 {
            format!("top{i}")
        } else {
            "common".to_string()
        };
        rel.insert(vec![format!("tuple {i}").into(), kind.into()])
            .unwrap();
    }
    let service = CtxPrefService::new(MultiUserDb::new(env, rel, 8), ServiceConfig::default());
    service.add_user("u").unwrap();
    let descriptor = "accompanying_people = friends";
    for i in 0..10 {
        let score = 0.9 - 0.01 * i as f64;
        service
            .insert_preference_eq(
                "u",
                descriptor,
                "kind",
                Value::str(&format!("top{i}")),
                score,
            )
            .unwrap();
    }
    service
        .insert_preference_eq("u", descriptor, "kind", Value::str("common"), 0.1)
        .unwrap();
    service
}

fn query(k: usize) -> Request {
    Request::Query {
        user: "u".to_string(),
        attr: "name".to_string(),
        k,
        deadline_ms: 5_000,
        state: STATE.iter().map(|s| s.to_string()).collect(),
    }
}

fn rows_of(resp: &Response) -> usize {
    match resp {
        Response::Answer(a) => a.rows.len(),
        other => panic!("expected an answer, got {other:?}"),
    }
}

#[test]
fn a_served_rankings_allocations_do_not_grow_with_its_rows() {
    let service = service();
    // Warm both reads up, so each measured one is the same cache hit.
    for k in [10, TUPLES] {
        serve_frame(&service, 1, &query(k)).unwrap();
    }
    let (small, small_frame) = allocs_during(|| serve_frame(&service, 1, &query(10)).unwrap());
    let (large, large_frame) = allocs_during(|| serve_frame(&service, 1, &query(TUPLES)).unwrap());
    for (frame, rows) in [(&small_frame, 10), (&large_frame, TUPLES)] {
        let payload = read_frame(&mut &frame[..]).unwrap().unwrap();
        assert_eq!(rows_of(&decode_response(&payload).unwrap().resp), rows);
    }
    assert!(
        large.abs_diff(small) <= 4,
        "{small} allocations for 10 rows, {large} for {TUPLES}"
    );

    // The owned answer pays per row: what the frame path saves.
    let (owned_small, resp) = allocs_during(|| serve_request(&service, &query(10)));
    assert_eq!(rows_of(&resp), 10);
    let (owned_large, resp) = allocs_during(|| serve_request(&service, &query(TUPLES)));
    assert_eq!(rows_of(&resp), TUPLES);
    assert!(
        owned_large >= owned_small + (TUPLES - 10) as u64,
        "owned: {owned_small} allocations for 10 rows, {owned_large} for {TUPLES}"
    );
}
