//! The `ctxpref2` binary codec: compact, length-delimited encodings of
//! the request/response vocabulary, with a per-message **request id**
//! for pipelining.
//!
//! A `ctxpref2` frame payload is:
//!
//! ```text
//! request:  [0xC2 | 0x04 | tag u8 | request-id varint | budget-ms varint | tier u8 | body…]
//! response: [0xC2 | 0x04 | tag u8 | request-id varint | body…]
//! ```
//!
//! Every request envelope carries the caller's **remaining deadline
//! budget** in milliseconds (0 = unconstrained) and a **priority
//! tier** (interactive / bulk / maintenance). Clients and routers
//! decrement the budget across hops and retries; the server clamps
//! its per-request deadline to it and sheds low tiers first under
//! overload — end-to-end deadline propagation lives in these two
//! envelope fields.
//!
//! This is the only dialect the serving port speaks, and this module
//! is the only place that knows how a [`Request`] or [`Response`]
//! becomes bytes: [`decode_request`] and [`decode_response`] are the
//! two functions that turn a payload back into a message. The leading
//! byte `0xC2` cannot begin well-formed UTF-8, so a peer speaking
//! anything else (a text protocol, a stray HTTP probe) is recognised
//! from one byte and refused typed instead of misparsed.
//!
//! **Request id 0 is reserved** ([`CONNECTION_ID`]): a response
//! carrying it is about the *connection*, not about any request — the
//! admission refusal sent before a single request was read, the
//! refusal of a torn or foreign frame, the answer to a request whose
//! header was too damaged to name an id. Clients number their requests
//! from 1 and treat an id-0 response as the server's last word on that
//! connection.
//!
//! **The vocabulary table.** Each message kind — [`Request`],
//! [`Response`] and [`MigrateAction`] — is declared once, further down
//! this file: one line per variant giving its tag byte and the order
//! its fields travel in. The tag, the body encoder and the body decoder
//! are generated from those lines, so adding a verb takes the enum
//! variant in [`crate::proto`], one table line here, a dispatch arm in
//! the server and a client method.
//!
//! The field encodings, the table macros and the frame are
//! `ctxpref_bytes`'s, shared with the WAL: LEB128 varints for integers
//! and lengths, length-delimited bytes for strings and record payloads,
//! IEEE-754 little-endian for scores, and 8 little-endian bytes for
//! `UserCut`'s digest. Every length and count is validated against the
//! bytes present **before** any allocation, so a hostile claim costs a
//! typed [`DecodeError`] carrying the exact byte offset, never memory.
//! The codec fuzz suite drives truncations, bit flips, and hostile
//! length claims through every variant under a counting allocator.

use ctxpref_bytes::{
    bad_tag, open_frame, put_uv, seal_frame, vocabulary, wire_struct, Dec, DecodeError, Le64,
    LentMessage, Message, FRAME_HEADER,
};
use ctxpref_service::Priority;

use crate::error::FrameError;
use crate::frame::Framed;
use crate::proto::{
    AnswerRow, MigrateAction, Outgoing, RemoteAnswer, Request, RequestRef, Response, WireFallback,
};

mod answer;
pub(crate) use answer::{answer_frame, Name};

/// First byte of every `ctxpref2` payload.
pub const BINARY_MAGIC: u8 = 0xC2;
/// Second byte: the binary codec version. 0x03 added the request
/// envelope's deadline budget and priority tier; 0x04 changed the frame
/// checksum from a byte-at-a-time FNV-1a 64 to the word-at-a-time hash
/// of [`crate::frame::frame_checksum`]. A peer on another version is
/// refused typed, never misparsed.
pub const BINARY_VERSION: u8 = 0x04;

/// The request id no request carries: a response with this id is
/// about the connection itself — the admission refusal and the refusal
/// of a torn or foreign frame, after which the server closes, and the
/// answer to a request whose header was too damaged to name an id.
/// Either way the client redials.
pub const CONNECTION_ID: u64 = 0;

/// Where every payload's message tag sits: right after the magic and
/// the version.
const TAG_AT: usize = 2;

/// Whether a frame payload leads with the `ctxpref2` magic. The server
/// refuses anything else at the connection level without decoding it.
pub fn is_binary(payload: &[u8]) -> bool {
    payload.first() == Some(&BINARY_MAGIC)
}

wire_struct! { AnswerRow { name: String, score: f64 } }
wire_struct! { WireFallback { step: String, reason: String } }
wire_struct! {
    RemoteAnswer {
        step: String,
        elapsed_us: u64,
        resolved_state: Option<String>,
        fallbacks: Vec<WireFallback>,
        rows: Vec<AnswerRow>
    }
}

// ---------------------------------------------------------------------------
// The vocabulary
// ---------------------------------------------------------------------------

vocabulary! {
    Request, tags RequestTag, "request", batch Batch, lends RequestRef;
    1 => Ping,
    // The two ranked verbs share one body; the tag alone says whether
    // the server pushes `k` down into evaluation. The verbs marked
    // `lent` are the ones a reactor may answer itself.
    2 => Query { user, attr, k, deadline_ms, state } lent,
    3 => QueryDescriptor { user, attr, k, descriptor },
    4 => AddUser { user },
    5 => RemoveUser { user },
    6 => InsertPref { user, descriptor, attr, value, score } lent,
    7 => RemovePref { user, index } lent,
    8 => UpdateScore { user, index, score } lent,
    9 => Checkpoint,
    10 => FlushWal,
    11 => WalStatus,
    12 => ReplStatus,
    13 => Stats,
    14 => RouteStatus,
    15 => MigrateUser { user, epoch, action },
    16 => Batch { requests },
    17 => Scrub,
    18 => ScrubStatus,
    19 => TopK { user, attr, k, deadline_ms, state } lent,
    20 => ViewsStatus,
}

vocabulary! {
    MigrateAction, tags MigrateTag, "migrate action";
    1 => Export,
    2 => Snapshot,
    3 => Pull { from_lsn, max },
    4 => Fence,
    5 => Import { src_lsn, ops },
    6 => Apply { through, records },
    7 => Activate,
    8 => Finish,
    9 => Abort,
}

vocabulary! {
    Response, tags ResponseTag, "response", batch Batch;
    1 => Pong,
    2 => Ok,
    3 => Removed { score },
    4 => Answer(answer),
    5 => Text { body },
    6 => Busy { limit, retry_after_ms },
    7 => Err { kind, message },
    8 => NotPrimary,
    9 => Migrating { user },
    10 => UserCut { present, shard, last_lsn, digest as Le64 },
    11 => Snapshot { src_lsn, ops },
    12 => Records { through, records },
    13 => Gone,
    14 => Applied { watermark },
    15 => RouteInfo { has_primary, epoch, users, migrations },
    16 => Batch { responses },
    17 => ScrubReport { segments_verified, checkpoints_verified, read_errors, quarantined, healed },
    18 => ScrubInfo {
        passes, quarantined, read_errors, heals, rescued_shards, disk_full_sheds, rotate_failures
    },
    19 => Checkpointed { nodes },
    20 => Flushed { nodes },
}

// ---------------------------------------------------------------------------
// Wire envelopes
// ---------------------------------------------------------------------------

/// One pipelined request frame: the id correlates the (possibly
/// out-of-order) response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Remaining deadline budget in milliseconds, decremented across
    /// hops and retries; 0 = unconstrained. The server clamps its
    /// per-request deadline to this.
    pub budget_ms: u64,
    /// The priority tier admission sheds by under overload.
    pub tier: Priority,
    /// The request itself.
    pub req: Request,
}

/// One pipelined response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The id of the request this answers.
    pub id: u64,
    /// The response itself.
    pub resp: Response,
}

/// Encode one request as a `ctxpref2` frame payload with an
/// unconstrained budget at the Interactive tier.
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    encode_request_enveloped(id, req, 0, Priority::Interactive)
}

/// Encode one request as a `ctxpref2` frame payload carrying the
/// remaining deadline budget (milliseconds, 0 = unconstrained) and the
/// priority tier in the envelope.
pub fn encode_request_enveloped(id: u64, req: &Request, budget_ms: u64, tier: Priority) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_request(&mut out, id, Outgoing::Owned(req), budget_ms, tier);
    out
}

/// Append one request to `out` as a whole frame, its payload encoded in
/// place behind the frame header (see [`encode_request_enveloped`]).
/// Requests framed back to back into one buffer leave in one write.
pub(crate) fn put_request_frame(
    out: &mut Vec<u8>,
    id: u64,
    req: Outgoing<'_>,
    budget_ms: u64,
    tier: Priority,
) -> Result<(), FrameError> {
    let at = open_frame(out);
    put_request(out, id, req, budget_ms, tier);
    seal_frame(out, at)
}

/// A payload's leading bytes: magic, version, message tag, request id.
fn put_head(out: &mut Vec<u8>, tag: u8, id: u64) {
    out.push(BINARY_MAGIC);
    out.push(BINARY_VERSION);
    out.push(tag);
    put_uv(out, id);
}

fn put_request(out: &mut Vec<u8>, id: u64, req: Outgoing<'_>, budget_ms: u64, tier: Priority) {
    let tag = match req {
        Outgoing::Owned(req) => Message::tag(req),
        Outgoing::Lent(req) => LentMessage::tag(&req),
    };
    put_head(out, tag, id);
    put_uv(out, budget_ms);
    out.push(tier.wire_tag());
    match req {
        Outgoing::Owned(req) => Message::put_body(req, out),
        Outgoing::Lent(req) => LentMessage::put_body(&req, out),
    }
}

fn header(payload: &[u8]) -> Result<(Dec<'_>, u8, u64), DecodeError> {
    let mut dec = Dec::new(payload);
    let magic = dec.u8()?;
    if magic != BINARY_MAGIC {
        return Err(bad_tag("codec magic", magic, 0));
    }
    let version = dec.u8()?;
    if version != BINARY_VERSION {
        return Err(bad_tag("codec version", version, 1));
    }
    let tag = dec.u8()?;
    let id = dec.uv()?;
    Ok((dec, tag, id))
}

/// A request's envelope: its id, the caller's remaining budget and its
/// tier.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Envelope {
    pub(crate) id: u64,
    pub(crate) budget_ms: u64,
    pub(crate) tier: Priority,
}

/// A request payload's header and envelope, and the reader at its body
/// with the body's tag.
fn envelope(payload: &[u8]) -> Result<(Dec<'_>, u8, Envelope), DecodeError> {
    let (mut dec, tag, id) = header(payload)?;
    let budget_ms = dec.uv()?;
    let tier_at = dec.pos();
    let tier_tag = dec.u8()?;
    let tier = Priority::from_wire_tag(tier_tag)
        .ok_or_else(|| bad_tag("priority tier", tier_tag, tier_at))?;
    let envelope = Envelope {
        id,
        budget_ms,
        tier,
    };
    Ok((dec, tag, envelope))
}

/// Decode a `ctxpref2` request frame payload (header, envelope budget
/// and tier, then the body).
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, DecodeError> {
    let (
        mut dec,
        tag,
        Envelope {
            id,
            budget_ms,
            tier,
        },
    ) = envelope(payload)?;
    let req = Request::get_body(&mut dec, tag, TAG_AT)?;
    dec.expect_end()?;
    Ok(WireRequest {
        id,
        budget_ms,
        tier,
        req,
    })
}

/// A request body as the reactor reads it.
#[derive(Debug)]
pub(crate) enum Body<'a> {
    /// A verb [`RequestRef`] has, lent from the payload.
    Lent(RequestRef<'a>),
    /// Any other verb.
    Owned(Request),
}

/// [`decode_request`] with the body of a verb [`RequestRef`] has lent
/// from the payload: the same checks, failing with the same errors.
pub(crate) fn decode_lent(payload: &[u8]) -> Result<(Envelope, Body<'_>), DecodeError> {
    let (mut dec, tag, envelope) = envelope(payload)?;
    let body = match RequestRef::get_lent(&mut dec, tag)? {
        Some(req) => Body::Lent(req),
        None => Body::Owned(Request::get_body(&mut dec, tag, TAG_AT)?),
    };
    dec.expect_end()?;
    Ok((envelope, body))
}

/// Extract just the correlation id of a `ctxpref2` request whose body
/// failed to decode, so the refusal can still be matched to the
/// request that caused it. `None` if even the header is unreadable.
pub(crate) fn request_id_of(payload: &[u8]) -> Option<u64> {
    let (_, _, id) = header(payload).ok()?;
    Some(id)
}

/// Encode one response as a `ctxpref2` frame payload.
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_head(&mut out, resp.tag(), id);
    resp.put_body(&mut out);
    out
}

/// One response as a whole frame: `encode_frame(&encode_response(id,
/// resp))`, with the payload encoded in place behind the frame header
/// instead of copied into it.
pub(crate) fn response_frame(id: u64, resp: &Response) -> Framed {
    framed_response(id, resp.tag(), 32, |out| resp.put_body(out))
}

/// A response frame built in place: header room, the payload's head,
/// the body `put_body` writes, then the header sealed.
fn framed_response(
    id: u64,
    tag: u8,
    capacity: usize,
    put_body: impl FnOnce(&mut Vec<u8>),
) -> Framed {
    let mut out = Vec::with_capacity(FRAME_HEADER + capacity);
    let at = open_frame(&mut out);
    put_head(&mut out, tag, id);
    put_body(&mut out);
    seal_frame(&mut out, at)?;
    Ok(out)
}

/// Decode a `ctxpref2` response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, DecodeError> {
    let (mut dec, tag, id) = header(payload)?;
    let resp = Response::get_body(&mut dec, tag, TAG_AT)?;
    dec.expect_end()?;
    Ok(WireResponse { id, resp })
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use ctxpref_bytes::DecodeKind;

    #[test]
    fn hostile_length_claims_fail_typed_before_allocation() {
        // A string claiming u64::MAX bytes in a tiny payload (the two
        // zero bytes after the id are the envelope's budget and tier).
        let mut payload = vec![BINARY_MAGIC, BINARY_VERSION, 4, 0, 0, 0];
        put_uv(&mut payload, u64::MAX);
        let err = decode_request(&payload).unwrap_err();
        assert!(
            matches!(err.kind, DecodeKind::LengthOverflow { declared, .. } if declared == u64::MAX)
        );
        assert_eq!(err.offset, 6);
    }

    /// A request of every lent verb, its texts empty, long, non-ASCII
    /// and of a state token count other than three; and two verbs that
    /// are not lent.
    fn samples() -> Vec<Request> {
        let long = "ü".repeat(100);
        let state = |n: usize| {
            (0..n)
                .map(|i| ["Plaka", "", &long][i % 3].to_string())
                .collect()
        };
        vec![
            Request::ranked(
                false,
                "alice",
                "name",
                3,
                Duration::from_millis(250),
                &["Plaka"],
            ),
            Request::TopK {
                user: long.clone(),
                attr: String::new(),
                k: usize::MAX,
                deadline_ms: u64::MAX,
                state: state(3),
            },
            Request::Query {
                user: "u".into(),
                attr: "n".into(),
                k: 0,
                deadline_ms: 0,
                state: state(0),
            },
            Request::InsertPref {
                user: "bob".into(),
                descriptor: "location = Plaka".into(),
                attr: "type".into(),
                value: long.clone(),
                score: -0.0,
            },
            Request::RemovePref {
                user: String::new(),
                index: 7,
            },
            Request::UpdateScore {
                user: "Πλάκα".into(),
                index: 1 << 40,
                score: 0.75,
            },
            Request::AddUser {
                user: "carol".into(),
            },
            Request::Batch {
                requests: vec![Request::ranked(true, "a", "name", 1, Duration::ZERO, &[])],
            },
        ]
    }

    /// The body [`decode_lent`] gave, made owned.
    fn owned(body: Body<'_>) -> Request {
        match body {
            Body::Lent(req) => req.owned(),
            Body::Owned(req) => req,
        }
    }

    #[test]
    fn a_lent_request_travels_as_its_owned_form() {
        for req in samples() {
            let owned_bytes = encode_request_enveloped(9, &req, 5, Priority::Bulk);
            let (envelope, body) = decode_lent(&owned_bytes).unwrap();
            assert_eq!((envelope.id, envelope.budget_ms), (9, 5));
            assert_eq!(envelope.tier, Priority::Bulk);
            let Some(lent) = RequestRef::lend(&req) else {
                assert!(
                    matches!(body, Body::Owned(ref got) if *got == req),
                    "{req:?}"
                );
                continue;
            };
            assert!(matches!(body, Body::Lent(got) if got == lent), "{req:?}");
            assert_eq!(lent.owned(), req);
            let mut lent_bytes = Vec::new();
            put_request(&mut lent_bytes, 9, Outgoing::Lent(lent), 5, Priority::Bulk);
            assert_eq!(lent_bytes, owned_bytes, "{req:?}");
        }
    }

    /// Both decoders on one payload: the same request, or the same
    /// error at the same offset.
    fn decode_alike(payload: &[u8]) {
        match (decode_request(payload), decode_lent(payload)) {
            (Ok(wire), Ok((envelope, body))) => {
                assert_eq!((wire.id, wire.budget_ms), (envelope.id, envelope.budget_ms));
                assert_eq!(wire.tier, envelope.tier);
                assert_eq!(wire.req, owned(body));
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{payload:?}"),
            (a, b) => panic!("the decoders disagree on {payload:?}: {a:?} against {b:?}"),
        }
    }

    #[test]
    fn a_lent_decode_fails_where_and_as_the_owned_one_does() {
        for req in samples() {
            let payload = encode_request_enveloped(3, &req, 1, Priority::Interactive);
            for end in 0..payload.len() {
                decode_alike(&payload[..end]);
            }
            let mut longer = payload.clone();
            longer.push(0);
            decode_alike(&longer);
            for bit in 0..payload.len() * 8 {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                decode_alike(&flipped);
            }
        }
    }
}
