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
//! Primitives: LEB128 varints for integers and lengths, raw
//! length-delimited bytes for strings and record payloads, IEEE-754
//! little-endian for scores, one byte for a bool (any non-zero byte
//! reads `true`). The one fixed-width integer is `UserCut`'s digest
//! (8 little-endian bytes). Every length and count is validated
//! against the bytes actually present **before** any allocation, so a
//! hostile claim costs a typed [`DecodeError`] — carrying the exact
//! byte offset — and never memory. The codec fuzz suite drives truncations, bit
//! flips, and hostile length claims through every variant under a
//! counting allocator.

use ctxpref_service::Priority;

use crate::error::{DecodeError, DecodeKind, FrameError};
use crate::frame::{open_frame, seal_frame, Framed, FRAME_HEADER};
use crate::proto::{AnswerRow, MigrateAction, RemoteAnswer, Request, Response, WireFallback};

mod answer;
pub(crate) use answer::{answer_frame, Put, Seq, Shown};

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

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_uv(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn bad_tag(what: &'static str, tag: u8, offset: usize) -> DecodeError {
    DecodeError {
        offset,
        kind: DecodeKind::BadTag {
            what,
            tag: u64::from(tag),
        },
    }
}

/// A bounds-checked binary reader over one payload. Every failure
/// carries the byte offset at which it occurred.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn err(&self, kind: DecodeKind) -> DecodeError {
        DecodeError {
            offset: self.pos,
            kind,
        }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.err(DecodeKind::Truncated))?;
        self.pos += 1;
        Ok(b)
    }

    fn uv(&mut self) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(DecodeError {
                    offset: start,
                    kind: DecodeKind::VarintOverflow,
                });
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError {
                    offset: start,
                    kind: DecodeKind::VarintOverflow,
                });
            }
        }
    }

    /// A declared length or element count, validated against the bytes
    /// that remain (each element occupies at least `min_elem_bytes`):
    /// the one place where a hostile claim is caught before any
    /// allocation is sized by it.
    fn checked_count(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let start = self.pos;
        let n = self.uv()?;
        let budget = self.remaining() as u64 / (min_elem_bytes.max(1) as u64);
        if n > budget {
            return Err(DecodeError {
                offset: start,
                kind: DecodeKind::LengthOverflow {
                    declared: n,
                    max: budget,
                },
            });
        }
        Ok(n as usize)
    }

    /// A length-delimited byte run, borrowed from the payload.
    fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.checked_count(1)?;
        let run = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(run)
    }

    fn expect_end(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(self.err(DecodeKind::TrailingBytes));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Field encodings
// ---------------------------------------------------------------------------

/// How one field type travels.
trait Wire: Sized {
    /// The fewest bytes one value occupies: the floor
    /// `Dec::checked_count` divides the remaining input by before a
    /// vector of these is allocated.
    const MIN_BYTES: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError>;
}

impl Wire for u64 {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_uv(out, *self);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        dec.uv()
    }
}

/// Counts, indices and limits: a varint that must fit a `usize`.
impl Wire for usize {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_uv(out, *self as u64);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let start = dec.pos;
        let v = dec.uv()?;
        usize::try_from(v).map_err(|_| DecodeError {
            offset: start,
            kind: DecodeKind::LengthOverflow {
                declared: v,
                max: usize::MAX as u64,
            },
        })
    }
}

impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        if dec.remaining() < 8 {
            return Err(dec.err(DecodeKind::Truncated));
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&dec.buf[dec.pos..dec.pos + 8]);
        dec.pos += 8;
        Ok(f64::from_le_bytes(raw))
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(dec.u8()? != 0)
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let start = dec.pos;
        let raw = dec.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError {
            offset: start,
            kind: DecodeKind::BadUtf8,
        })
    }
}

/// A record payload: raw length-delimited bytes.
impl Wire for Vec<u8> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(dec.bytes()?.to_vec())
    }
}

/// A count, then the elements — allocated only once the count is
/// known to fit the bytes that remain.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_uv(out, self.len() as u64);
        for item in self {
            item.put(out);
        }
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n = dec.checked_count(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(dec)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(dec)?, B::get(dec)?))
    }
}

/// `RemoteAnswer`'s resolved state: a presence flag that must be
/// exactly 0 or 1, then the rendered state.
impl Wire for Option<String> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.as_deref().put_into(out);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let at = dec.pos;
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some(String::get(dec)?)),
            flag => Err(bad_tag("resolved-state flag", flag, at)),
        }
    }
}

/// The one fixed-width integer: `UserCut`'s digest, 8 little-endian
/// bytes.
struct Le64(u64);

impl Wire for Le64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        // Byte by byte, so a truncated digest is reported at the first
        // missing byte.
        let mut raw = [0u8; 8];
        for b in &mut raw {
            *b = dec.u8()?;
        }
        Ok(Self(u64::from_le_bytes(raw)))
    }
}

/// A struct travels as its fields, in the order listed. The encoder is
/// `put_fields`, generated from the same list: it takes each field as
/// anything that writes it ([`Put`]), so the owned struct and a borrowed
/// stand-in for it (the server's answer rows) travel in one order.
macro_rules! wire_struct {
    ($name:ident { $($field:ident: $ty:ty),* }) => {
        impl $name {
            /// The fields, written in the order they travel.
            pub(crate) fn put_fields(out: &mut Vec<u8>, $($field: impl Put),*) {
                $($field.put_into(out);)*
            }
        }

        impl Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$ty as Wire>::MIN_BYTES)*;
            fn put(&self, out: &mut Vec<u8>) {
                Self::put_fields(out, $(&self.$field),*);
            }
            fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
                Ok(Self { $($field: <$ty as Wire>::get(dec)?),* })
            }
        }
    };
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

/// A message kind: a tag byte naming the variant, then its fields.
trait Message: Sized {
    /// What a `BadTag` error calls this kind's tag.
    const WHAT: &'static str;
    /// The batch variant's tag: a batch is legal only at top level.
    const BATCH: Option<u8> = None;
    fn tag(&self) -> u8;
    fn put_body(&self, out: &mut Vec<u8>);
    /// The body of the variant tagged `tag`, which was read at byte
    /// `at` (where an unknown tag is reported).
    fn get_body(dec: &mut Dec<'_>, tag: u8, at: usize) -> Result<Self, DecodeError>;
}

/// A message inside another one — a batch item, a migrate action —
/// travels as its tag and body.
impl<M: Message> Wire for M {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        self.put_body(out);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let at = dec.pos;
        let tag = dec.u8()?;
        // Batches do not nest: refused before the body is read, so
        // hostile nesting costs no recursion.
        if M::BATCH == Some(tag) {
            return Err(bad_tag(M::WHAT, tag, at));
        }
        M::get_body(dec, tag, at)
    }
}

/// Declares one message kind: a line per variant with its tag and the
/// order its fields travel in (a field written `f as W` travels as the
/// wire type `W`). The compiler holds each table to its enum: a missing
/// variant or field does not build, and neither does a tag used twice.
macro_rules! vocabulary {
    (
        $kind:ident, tags $tags:ident, $what:literal $(, batch $batch:ident)?;
        $($tag:literal => $variant:ident
            $({ $($field:ident $(as $via:ident)?),* })? $(($inner:ident))?,)*
    ) => {
        /// The tag byte of each variant.
        #[repr(u8)]
        enum $tags {
            $($variant = $tag,)*
        }

        impl Message for $kind {
            const WHAT: &'static str = $what;
            $(const BATCH: Option<u8> = Some($tags::$batch as u8);)?

            fn tag(&self) -> u8 {
                match self {
                    $(Self::$variant { .. } => $tags::$variant as u8,)*
                }
            }

            fn put_body(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$variant $({ $($field),* })? $(($inner))? => {
                        $($(field!(put out, $field $(as $via)?);)*)?
                        $(field!(put out, $inner);)?
                    })*
                }
            }

            fn get_body(dec: &mut Dec<'_>, tag: u8, at: usize) -> Result<Self, DecodeError> {
                Ok(match tag {
                    $($tag => Self::$variant
                        $({ $($field: field!(get dec, $field $(as $via)?)),* })?
                        $((field!(get dec, $inner)))?,)*
                    _ => return Err(bad_tag(Self::WHAT, tag, at)),
                })
            }
        }
    };
}

/// One field of a `vocabulary!` line, written or read as its own
/// type or `as` the named wire type.
macro_rules! field {
    (put $out:ident, $f:ident) => {
        $f.put($out)
    };
    (put $out:ident, $f:ident as $via:ident) => {
        $via(*$f).put($out)
    };
    (get $dec:ident, $f:ident) => {
        Wire::get($dec)?
    };
    (get $dec:ident, $f:ident as $via:ident) => {
        $via::get($dec)?.0
    };
}

vocabulary! {
    Request, tags RequestTag, "request", batch Batch;
    1 => Ping,
    // The two ranked verbs share one body; the tag alone says whether
    // the server pushes `k` down into evaluation.
    2 => Query { user, attr, k, deadline_ms, state },
    3 => QueryDescriptor { user, attr, k, descriptor },
    4 => AddUser { user },
    5 => RemoveUser { user },
    6 => InsertPref { user, descriptor, attr, value, score },
    7 => RemovePref { user, index },
    8 => UpdateScore { user, index, score },
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
    19 => TopK { user, attr, k, deadline_ms, state },
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
    put_request(&mut out, id, req, budget_ms, tier);
    out
}

/// Append one request to `out` as a whole frame, its payload encoded in
/// place behind the frame header (see [`encode_request_enveloped`]).
/// Requests framed back to back into one buffer leave in one write.
pub(crate) fn put_request_frame(
    out: &mut Vec<u8>,
    id: u64,
    req: &Request,
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

fn put_request(out: &mut Vec<u8>, id: u64, req: &Request, budget_ms: u64, tier: Priority) {
    put_head(out, req.tag(), id);
    put_uv(out, budget_ms);
    out.push(tier.wire_tag());
    req.put_body(out);
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

/// Decode a `ctxpref2` request frame payload (header, envelope budget
/// and tier, then the body).
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, DecodeError> {
    let (mut dec, tag, id) = header(payload)?;
    let budget_ms = dec.uv()?;
    let tier_at = dec.pos;
    let tier_tag = dec.u8()?;
    let tier = Priority::from_wire_tag(tier_tag)
        .ok_or_else(|| bad_tag("priority tier", tier_tag, tier_at))?;
    let req = Request::get_body(&mut dec, tag, TAG_AT)?;
    dec.expect_end()?;
    Ok(WireRequest {
        id,
        budget_ms,
        tier,
        req,
    })
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
    use super::*;
    use crate::error::DecodeKind;

    #[test]
    fn varints_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_uv(&mut out, v);
            let mut dec = Dec::new(&out);
            assert_eq!(dec.uv().unwrap(), v);
            dec.expect_end().unwrap();
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 10 continuation bytes overflow a u64.
        let overlong = [0xff; 11];
        let mut dec = Dec::new(&overlong);
        let err = dec.uv().unwrap_err();
        assert_eq!(err.kind, DecodeKind::VarintOverflow);
        assert_eq!(err.offset, 0);
    }

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
}
