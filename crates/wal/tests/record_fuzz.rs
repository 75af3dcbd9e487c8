//! WAL op decode fuzz: every op shape is truncated at every byte,
//! flipped one bit at a time, given hostile counts and ids out of the
//! environment's and relation's range. Each must decode to an op or
//! fail with a typed error — never panic, and never allocate by a
//! length the input cannot back. An op that does decode is applied to
//! a database, which must refuse it typed or take it, never panic: no
//! record, however damaged, can make replay panic.
//!
//! The allocation claim is enforced: the binary installs a counting
//! global allocator.

mod corpus;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ctxpref_core::ShardedMultiUserDb;
use ctxpref_wal::{WalError, WalOp};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Const-initialized TLS: no lazy allocation, safe to touch here.
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
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

/// `f`'s result and the largest single allocation it made on this
/// thread.
fn largest_alloc_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (r, LARGEST.with(|l| l.get()))
}

/// Decode `bytes` under the counting allocator, asserting the bound.
fn decode(bytes: &[u8], what: &str) -> Result<WalOp, WalError> {
    let (env, rel) = (corpus::env(), corpus::relation());
    let (decoded, largest) = largest_alloc_during(|| WalOp::decode(bytes, &env, &rel));
    assert!(
        largest <= 2 * bytes.len() + 1024,
        "{what}: allocated {largest} bytes decoding {} bytes",
        bytes.len()
    );
    decoded
}

fn encoded_corpus() -> Vec<Vec<u8>> {
    corpus::every_op().iter().map(WalOp::encode).collect()
}

#[test]
fn truncation_at_every_offset_fails_typed() {
    for bytes in encoded_corpus() {
        decode(&bytes, "intact").expect("intact op decodes");
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut], "truncated").expect_err("a proper prefix decodes");
            assert!(matches!(err, WalError::Payload { .. }), "cut {cut}: {err}");
        }
    }
}

#[test]
fn every_single_bit_flip_decodes_or_fails_typed_and_never_panics_replay() {
    for bytes in encoded_corpus() {
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            match decode(&bad, &format!("bit {bit}")) {
                // A flip can land on another valid op: replaying it is
                // refused typed or taken, never a panic.
                Ok(op) => {
                    let db = ShardedMultiUserDb::new(corpus::env(), corpus::relation(), 2, 2);
                    db.add_user(op.user()).unwrap();
                    let _ = op.apply(&db);
                }
                Err(err) => assert!(matches!(err, WalError::Payload { .. }), "bit {bit}: {err}"),
            }
        }
    }
}

#[test]
fn hostile_counts_fail_on_the_claim_before_allocating() {
    // 2^40 as a varint.
    let claim = [0x80, 0x80, 0x80, 0x80, 0x80, 0x20];
    let hostile = |prefix: &[u8]| [prefix, &claim[..], &[0; 16]].concat();
    for (what, bytes) in [
        ("user length", hostile(&[1])),
        ("descriptor clause count", hostile(&[3, 1, b'a'])),
        ("value set count", hostile(&[3, 1, b'a', 1, 0, 2])),
        ("string value length", hostile(&[3, 1, b'a', 0, 0, 0, 3])),
    ] {
        let err = decode(&bytes, what).expect_err(what);
        let WalError::Payload { reason } = &err else {
            panic!("{what}: {err}");
        };
        assert!(
            reason.contains(&format!("declared length {}", 1u64 << 40)),
            "{what}: failed as {reason:?}, not on the claim"
        );
    }
}

#[test]
fn ids_outside_the_environment_or_relation_fail_typed() {
    // Insert for user "a": one clause (param, Eq value), attr 0, `=`,
    // string "x", score 0.5.
    let insert = |param: u8, value: u8, attr: u8| {
        let mut op = vec![3, 1, b'a', 1, param, 1, value, attr, 0, 3, 1, b'x'];
        op.extend_from_slice(&0.5f64.to_le_bytes());
        op
    };
    let (env, rel) = (corpus::env(), corpus::relation());
    let values = env.hierarchy(ctxpref_context::ParamId(1)).value_count() as u8;
    decode(&insert(1, values - 1, 3), "in range").expect("the last ids of each kind decode");
    for (what, bytes, names) in [
        ("param", insert(env.len() as u8, 0, 0), "param id"),
        ("value", insert(1, values, 0), "value id"),
        (
            "attribute",
            insert(0, 0, rel.schema().len() as u8),
            "attribute id",
        ),
    ] {
        let err = decode(&bytes, what).expect_err(what);
        assert!(
            matches!(&err, WalError::Payload { reason } if reason.contains(names)),
            "{what}: {err}"
        );
    }
    // Wider than the id type at all: refused while decoding.
    let mut wide = vec![3, 1, b'a', 1, 0x80, 0x80, 0x04];
    wide.extend_from_slice(&[1, 0, 0, 0, 3, 1, b'x']);
    wide.extend_from_slice(&0.5f64.to_le_bytes());
    assert!(matches!(
        decode(&wide, "u16 overflow"),
        Err(WalError::Payload { .. })
    ));
}
