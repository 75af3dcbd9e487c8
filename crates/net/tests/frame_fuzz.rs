//! Frame-decoder fuzz: a recorded request stream is truncated at
//! every byte offset and corrupted one flipped byte at a time, and the
//! decoder must answer every mutation with a clean typed error —
//! never a panic, and never an allocation sized by attacker-supplied
//! bytes.
//!
//! The allocation claim is enforced, not assumed: the test binary
//! installs a counting global allocator, and the hostile-header cases
//! assert that decoding allocated nothing anywhere near the declared
//! (multi-gigabyte) length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ctxpref_net::frame::{encode_frame, read_frame, FRAME_HEADER, MAX_FRAME_PAYLOAD};
use ctxpref_net::proto::{AnswerRow, MigrateAction, RemoteAnswer, Request, Response, WireFallback};
use ctxpref_net::{
    decode_request, decode_response, encode_request, encode_response, DecodeKind, FrameError,
    BINARY_MAGIC, BINARY_VERSION,
};

// ---------------------------------------------------------------------------
// A counting allocator: thread-local arming, so parallel tests in this
// binary don't see each other's allocations.
// ---------------------------------------------------------------------------

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

/// Largest single allocation made by `f` on this thread.
fn largest_alloc_during(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    LARGEST.with(|l| l.get())
}

// ---------------------------------------------------------------------------
// The recorded request stream
// ---------------------------------------------------------------------------

/// One of every request shape, with awkward field contents (spaces,
/// newlines, empty strings).
fn recorded_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Query {
            user: "alice".into(),
            attr: "name".into(),
            k: 5,
            deadline_ms: 250,
            state: vec!["Plaka".into(), "warm".into(), "friends".into()],
        },
        Request::TopK {
            user: "alice".into(),
            attr: "name".into(),
            k: 3,
            deadline_ms: 100,
            state: vec!["Plaka".into(), "warm".into(), "friends".into()],
        },
        Request::ViewsStatus,
        Request::QueryDescriptor {
            user: "bob with spaces".into(),
            attr: "type".into(),
            k: 3,
            descriptor: "location = Athens and temperature = good".into(),
        },
        Request::AddUser {
            user: "new\nline".into(),
        },
        Request::RemoveUser { user: "".into() },
        Request::InsertPref {
            user: "alice".into(),
            descriptor: "accompanying_people = friends".into(),
            attr: "type".into(),
            value: "museum".into(),
            score: 0.825,
        },
        Request::RemovePref {
            user: "alice".into(),
            index: 3,
        },
        Request::UpdateScore {
            user: "alice".into(),
            index: 0,
            score: 0.5,
        },
        Request::Checkpoint,
        Request::FlushWal,
        Request::WalStatus,
        Request::ReplStatus,
        Request::Scrub,
        Request::ScrubStatus,
        Request::Stats,
    ]
}

fn recorded_stream() -> Vec<u8> {
    let mut stream = Vec::new();
    for (i, req) in recorded_requests().iter().enumerate() {
        let payload = encode_request(i as u64 + 1, req);
        stream.extend_from_slice(&encode_frame(&payload).expect("encodable request"));
    }
    stream
}

/// Drain `bytes` as a frame stream: decode frames (and their payloads
/// as requests) until end-of-stream or the first typed error. Returns
/// frames decoded. Panics only if a layer below panics — which is
/// exactly what the fuzz asserts never happens.
fn drain(bytes: &[u8]) -> (usize, Option<FrameError>) {
    let mut cur = bytes;
    let mut frames = 0;
    loop {
        match read_frame(&mut cur) {
            Ok(Some(payload)) => {
                frames += 1;
                // Whatever survived the checksum must decode or fail
                // typed at the protocol layer — both are fine; a panic
                // is not.
                let _ = decode_request(&payload);
                let _ = decode_response(&payload);
            }
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

#[test]
fn truncation_at_every_offset_fails_clean() {
    let stream = recorded_stream();
    let total = recorded_requests().len();
    for cut in 0..stream.len() {
        let (frames, err) = drain(&stream[..cut]);
        assert!(
            frames < total,
            "cut at {cut}/{} decoded all {total} frames from a truncated stream",
            stream.len()
        );
        // A cut at a frame boundary is a clean end of stream; anywhere
        // else it must surface as Truncated — never Io, never a panic.
        if let Some(e) = err {
            assert!(
                matches!(e, FrameError::Truncated),
                "cut at {cut}: expected Truncated, got {e:?}"
            );
        }
    }
    // The untouched stream decodes fully.
    let (frames, err) = drain(&stream);
    assert_eq!(frames, total);
    assert!(err.is_none());
}

#[test]
fn flipped_bytes_fail_clean_at_every_offset() {
    let stream = recorded_stream();
    for i in 0..stream.len() {
        for bit in [0x01u8, 0x40, 0x80] {
            let mut bad = stream.clone();
            bad[i] ^= bit;
            // Every outcome is acceptable except a panic or an
            // attacker-sized allocation: a flip may truncate the tail
            // (length field), fail a checksum, claim an oversized
            // frame, or corrupt only the *content* of a field in ways
            // the codec tolerates (it still sees a well-formed
            // message). The frame layer's integrity promise is that
            // nothing blows up.
            let largest = largest_alloc_during(|| {
                let _ = drain(&bad);
            });
            // A flipped length byte may declare a frame far bigger
            // than the stream; the decoder must size its buffer by
            // bytes received, not bytes declared. 2× covers Vec
            // growth slack.
            assert!(
                largest <= 2 * stream.len() + 1024,
                "flip {bit:#04x} at {i}: allocation of {largest} bytes while decoding a \
                 {}-byte corrupted stream",
                stream.len()
            );
        }
    }
}

#[test]
fn oversized_claims_are_rejected_without_allocating() {
    // Hostile headers claiming up to u32::MAX bytes. The decoder must
    // reject on the declared length alone, allocating nothing bigger
    // than bookkeeping.
    for declared in [
        u64::from(MAX_FRAME_PAYLOAD) + 1,
        u64::from(MAX_FRAME_PAYLOAD) * 2,
        u64::from(u32::MAX),
    ] {
        let mut hostile = Vec::with_capacity(FRAME_HEADER);
        hostile.extend_from_slice(&(declared as u32).to_le_bytes());
        hostile.extend_from_slice(&0xdead_beef_u64.to_le_bytes());
        let largest = largest_alloc_during(|| {
            let mut cur = &hostile[..];
            match read_frame(&mut cur) {
                Err(FrameError::Oversized { declared: d, max }) => {
                    assert_eq!(d, declared);
                    assert_eq!(max, MAX_FRAME_PAYLOAD);
                }
                other => panic!("declared {declared}: expected Oversized, got {other:?}"),
            }
        });
        assert!(
            largest < 4096,
            "declared {declared}: rejected, but allocated {largest} bytes on the way"
        );
    }
}

#[test]
fn legitimate_max_frame_still_decodes() {
    // The cap is a ceiling, not a budget cut: a frame exactly at
    // MAX_FRAME_PAYLOAD round-trips.
    let payload = vec![0x5a_u8; MAX_FRAME_PAYLOAD as usize];
    let frame = encode_frame(&payload).expect("max-size payload encodes");
    let mut cur = &frame[..];
    let back = read_frame(&mut cur).expect("decodes").expect("one frame");
    assert_eq!(back.len(), payload.len());
    assert!(read_frame(&mut cur).expect("clean end").is_none());
}

// ---------------------------------------------------------------------------
// ctxpref2 binary-codec fuzz: the same discipline — truncation at
// every offset, flipped bytes, hostile length claims — applied to the
// varint codec, with the counting allocator proving the "no
// attacker-sized allocation" claim rather than assuming it.
// ---------------------------------------------------------------------------

/// Representative binary request payloads: every structural shape the
/// codec has (strings, varints, f64s, byte vectors, nested pairs, a
/// batch of sub-requests).
fn binary_request_corpus() -> Vec<Vec<u8>> {
    let requests = vec![
        Request::Ping,
        Request::Query {
            user: "alice".into(),
            attr: "name".into(),
            k: 5,
            deadline_ms: 250,
            state: vec!["Plaka".into(), "warm".into(), "friends".into()],
        },
        Request::TopK {
            user: "alice".into(),
            attr: "name".into(),
            k: 3,
            deadline_ms: 100,
            state: vec!["Plaka".into(), "warm".into(), "friends".into()],
        },
        Request::ViewsStatus,
        Request::InsertPref {
            user: "bob with spaces".into(),
            descriptor: "accompanying_people = friends".into(),
            attr: "type".into(),
            value: "museum".into(),
            score: 0.825,
        },
        Request::MigrateUser {
            user: "u".into(),
            epoch: 9,
            action: MigrateAction::Apply {
                through: 99,
                records: vec![(18, b"score user 0 0.5".to_vec()), (21, vec![0, 255, 7])],
            },
        },
        Request::Batch {
            requests: vec![
                Request::AddUser { user: "a".into() },
                Request::UpdateScore {
                    user: "a".into(),
                    index: 2,
                    score: 0.125,
                },
                Request::Ping,
            ],
        },
    ];
    requests
        .into_iter()
        .enumerate()
        .map(|(i, r)| encode_request(i as u64 + 1, &r))
        .collect()
}

/// Representative binary response payloads.
fn binary_response_corpus() -> Vec<Vec<u8>> {
    let responses = vec![
        Response::Answer(RemoteAnswer {
            step: "nearest-state".into(),
            elapsed_us: 1234,
            resolved_state: Some("(Athens, warm, all)".into()),
            fallbacks: vec![WireFallback {
                step: "exact".into(),
                reason: "panic: injected".into(),
            }],
            rows: vec![AnswerRow {
                name: "Acropolis Museum".into(),
                score: 0.9,
            }],
        }),
        Response::Records {
            through: 40,
            records: vec![(39, b"ins me pref".to_vec()), (40, vec![255])],
        },
        Response::Batch {
            responses: vec![
                Response::Ok,
                Response::Err {
                    kind: "core".into(),
                    message: "nope".into(),
                },
            ],
        },
        Response::Text {
            body: "appends 12\nshard 0: done\n".into(),
        },
    ];
    responses
        .into_iter()
        .map(|r| encode_response(7, &r))
        .collect()
}

#[test]
fn binary_truncation_at_every_offset_fails_typed() {
    for payload in binary_request_corpus() {
        // The untouched payload decodes.
        decode_request(&payload).expect("intact payload decodes");
        for cut in 0..payload.len() {
            let largest = largest_alloc_during(|| {
                decode_request(&payload[..cut])
                    .expect_err("every proper prefix must fail to decode");
            });
            assert!(
                largest <= 2 * payload.len() + 1024,
                "cut at {cut}: allocated {largest} bytes decoding a truncated payload"
            );
        }
    }
    for payload in binary_response_corpus() {
        decode_response(&payload).expect("intact payload decodes");
        for cut in 0..payload.len() {
            let largest = largest_alloc_during(|| {
                decode_response(&payload[..cut])
                    .expect_err("every proper prefix must fail to decode");
            });
            assert!(
                largest <= 2 * payload.len() + 1024,
                "cut at {cut}: allocated {largest} bytes decoding a truncated payload"
            );
        }
    }
}

#[test]
fn binary_flipped_bytes_never_panic_or_overallocate() {
    for payload in binary_request_corpus()
        .into_iter()
        .chain(binary_response_corpus())
    {
        for i in 0..payload.len() {
            for bit in [0x01u8, 0x40, 0x80] {
                let mut bad = payload.clone();
                bad[i] ^= bit;
                // A flip may produce a different valid message or a
                // typed error (a first-byte flip breaks the magic). It
                // must never panic and never allocate by a corrupted
                // length claim.
                let largest = largest_alloc_during(|| {
                    let _ = decode_request(&bad);
                    let _ = decode_response(&bad);
                });
                assert!(
                    largest <= 2 * payload.len() + 1024,
                    "flip {bit:#04x} at {i}: allocated {largest} bytes \
                     decoding a {}-byte corrupted payload",
                    payload.len()
                );
            }
        }
    }
}

#[test]
fn binary_hostile_length_claim_rejected_before_allocation() {
    // Hand-built requests under the current envelope — magic, version,
    // tag, id 1, budget 0, tier 0 — whose first length or count claims
    // 2^40 (the varint [0x80 ×5, 0x20]). Each must fail on *that claim*
    // (not earlier, on the header), before allocating for it.
    let claim_fails = |tag: u8, fields: &[u8], what: &str| {
        let mut hostile = vec![BINARY_MAGIC, BINARY_VERSION, tag, 1, 0, 0];
        hostile.extend_from_slice(fields);
        hostile.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x20]);
        let mut kind = None;
        let largest = largest_alloc_during(|| {
            kind = Some(decode_request(&hostile).expect_err(what).kind);
        });
        assert!(
            matches!(kind, Some(DecodeKind::LengthOverflow { declared, .. }) if declared == 1 << 40),
            "{what}: failed as {kind:?}, not on the length claim"
        );
        assert!(
            largest < 4096,
            "{what}: rejected, but allocated {largest} bytes on the way"
        );
    };
    // Tag 4 = add-user in the frozen ctxpref2 vocabulary: the claim is
    // the user string's length.
    claim_fails(4, &[], "terabyte string claim");
    // A hostile element *count*: a batch (tag 16) claiming 2^40
    // sub-requests in a 12-byte payload.
    claim_fails(16, &[], "terabyte batch claim");
    // The top-k verb (tag 19): user "a", attr "n", k 1, deadline 1,
    // then a state-value count claiming 2^40 strings.
    claim_fails(19, &[1, b'a', 1, b'n', 1, 1], "terabyte state-count claim");
}

#[test]
fn garbage_prefixes_never_panic() {
    // Raw garbage (not derived from a valid stream): every prefix of
    // a pseudo-random byte soup must fail typed.
    let mut soup = Vec::with_capacity(4096);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..4096 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        soup.push(x as u8);
    }
    for len in 0..soup.len().min(512) {
        let _ = drain(&soup[..len]);
    }
    let _ = drain(&soup);
}
