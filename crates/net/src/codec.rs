//! The `ctxpref2` binary codec: compact, length-delimited encodings of
//! the request/response vocabulary, with a per-message **request id**
//! for pipelining.
//!
//! A `ctxpref2` frame payload is:
//!
//! ```text
//! request:  [0xC2 | 0x03 | tag u8 | request-id varint | budget-ms varint | tier u8 | body…]
//! response: [0xC2 | 0x03 | tag u8 | request-id varint | body…]
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

use crate::error::{DecodeError, DecodeKind};
use crate::proto::{AnswerRow, MigrateAction, RemoteAnswer, Request, Response, WireFallback};

/// First byte of every `ctxpref2` payload.
pub const BINARY_MAGIC: u8 = 0xC2;
/// Second byte: the binary codec version. Bumped to 0x03 when the
/// request envelope gained the deadline budget and priority tier.
pub const BINARY_VERSION: u8 = 0x03;

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
        match self {
            Some(state) => {
                out.push(1);
                state.put(out);
            }
            None => out.push(0),
        }
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

/// A struct travels as its fields, in the order listed.
macro_rules! wire_struct {
    ($name:ident { $($field:ident: $ty:ty),* }) => {
        impl Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$ty as Wire>::MIN_BYTES)*;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
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
        $kind:ident, $what:literal $(, batch $batch:ident)?;
        $($tag:literal => $variant:ident
            $({ $($field:ident $(as $via:ident)?),* })? $(($inner:ident))?,)*
    ) => {
        const _: () = {
            #[repr(u8)]
            enum Tag {
                $($variant = $tag,)*
            }

            impl Message for $kind {
                const WHAT: &'static str = $what;
                $(const BATCH: Option<u8> = Some(Tag::$batch as u8);)?

                fn tag(&self) -> u8 {
                    match self {
                        $(Self::$variant { .. } => Tag::$variant as u8,)*
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
    Request, "request", batch Batch;
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
    MigrateAction, "migrate action";
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
    Response, "response", batch Batch;
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
    out.push(BINARY_MAGIC);
    out.push(BINARY_VERSION);
    out.push(req.tag());
    put_uv(&mut out, id);
    put_uv(&mut out, budget_ms);
    out.push(tier.wire_tag());
    req.put_body(&mut out);
    out
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
pub fn request_id_of(payload: &[u8]) -> Option<u64> {
    let (_, _, id) = header(payload).ok()?;
    Some(id)
}

/// Encode one response as a `ctxpref2` frame payload.
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.push(BINARY_MAGIC);
    out.push(BINARY_VERSION);
    out.push(resp.tag());
    put_uv(&mut out, id);
    resp.put_body(&mut out);
    out
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `msg.pinned(golden)`: the payload is exactly `golden` (hex) and
    /// decodes back to `msg`. A change that encode and decode make
    /// symmetrically passes a round trip, but not this.
    trait Pinned {
        fn pinned(self, golden: &str);
    }

    impl Pinned for Request {
        fn pinned(self, golden: &str) {
            let payload = encode_request(0x1234_5678_9abc, &self);
            assert_eq!(hex(&payload), golden, "wire bytes of {self:?}");
            assert!(is_binary(&payload));
            let back = decode_request(&payload).expect("decode");
            assert_eq!(back.id, 0x1234_5678_9abc);
            assert_eq!(back.budget_ms, 0);
            assert_eq!(back.tier, Priority::Interactive);
            assert_eq!(back.req, self);
            // The enveloped form carries the budget and tier through.
            let payload = encode_request_enveloped(7, &self, 1500, Priority::Bulk);
            let back = decode_request(&payload).expect("decode enveloped");
            assert_eq!(back.budget_ms, 1500);
            assert_eq!(back.tier, Priority::Bulk);
            assert_eq!(back.req, self);
        }
    }

    impl Pinned for Response {
        fn pinned(self, golden: &str) {
            let payload = encode_response(7, &self);
            assert_eq!(hex(&payload), golden, "wire bytes of {self:?}");
            let back = decode_response(&payload).expect("decode");
            assert_eq!(back.id, 7);
            assert_eq!(back.resp, self);
        }
    }

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
    fn all_requests_roundtrip() {
        Request::Ping.pinned("c20301bcb5e2b3c5c6040000");
        Request::Query {
            user: "Ano Poli visitor".into(),
            attr: "name".into(),
            k: 10,
            deadline_ms: 250,
            state: vec!["Plaka".into(), "warm".into(), "friends".into()],
        }
        .pinned(
            "c20302bcb5e2b3c5c604000010416e6f20506f6c692076697369746f72046e616d650afa01030550\
             6c616b61047761726d07667269656e6473",
        );
        Request::TopK {
            user: "Ano Poli visitor".into(),
            attr: "name".into(),
            k: 3,
            deadline_ms: 100,
            state: vec!["Plaka".into(), "warm".into(), "friends".into()],
        }
        .pinned(
            "c20313bcb5e2b3c5c604000010416e6f20506f6c692076697369746f72046e616d6503640305506c\
             616b61047761726d07667269656e6473",
        );
        Request::ViewsStatus.pinned("c20314bcb5e2b3c5c6040000");
        Request::QueryDescriptor {
            user: "me".into(),
            attr: "name".into(),
            k: 3,
            descriptor: "location = Athens".into(),
        }
        .pinned("c20303bcb5e2b3c5c6040000026d65046e616d6503116c6f636174696f6e203d20417468656e73");
        Request::AddUser { user: "".into() }.pinned("c20304bcb5e2b3c5c604000000");
        Request::RemoveUser {
            user: "a\nb".into(),
        }
        .pinned("c20305bcb5e2b3c5c604000003610a62");
        Request::InsertPref {
            user: "me".into(),
            descriptor: "accompanying_people = family".into(),
            attr: "type".into(),
            value: "zoo".into(),
            score: 0.95,
        }
        .pinned(
            "c20306bcb5e2b3c5c6040000026d651c6163636f6d70616e79696e675f70656f706c65203d206661\
             6d696c790474797065037a6f6f666666666666ee3f",
        );
        Request::RemovePref {
            user: "me".into(),
            index: 7,
        }
        .pinned("c20307bcb5e2b3c5c6040000026d6507");
        Request::UpdateScore {
            user: "me".into(),
            index: 2,
            score: 0.125,
        }
        .pinned("c20308bcb5e2b3c5c6040000026d6502000000000000c03f");
        Request::Checkpoint.pinned("c20309bcb5e2b3c5c6040000");
        Request::FlushWal.pinned("c2030abcb5e2b3c5c6040000");
        Request::WalStatus.pinned("c2030bbcb5e2b3c5c6040000");
        Request::ReplStatus.pinned("c2030cbcb5e2b3c5c6040000");
        Request::Stats.pinned("c2030dbcb5e2b3c5c6040000");
        Request::RouteStatus.pinned("c2030ebcb5e2b3c5c6040000");
        Request::Scrub.pinned("c20311bcb5e2b3c5c6040000");
        Request::ScrubStatus.pinned("c20312bcb5e2b3c5c6040000");
        let migrate = |action| Request::MigrateUser {
            user: "u".into(),
            epoch: 9,
            action,
        };
        migrate(MigrateAction::Export).pinned("c2030fbcb5e2b3c5c604000001750901");
        migrate(MigrateAction::Snapshot).pinned("c2030fbcb5e2b3c5c604000001750902");
        migrate(MigrateAction::Pull {
            from_lsn: 42,
            max: 64,
        })
        .pinned("c2030fbcb5e2b3c5c6040000017509032a40");
        migrate(MigrateAction::Fence).pinned("c2030fbcb5e2b3c5c604000001750904");
        migrate(MigrateAction::Import {
            src_lsn: 17,
            ops: vec![b"add user\x01x".to_vec(), vec![]],
        })
        .pinned("c2030fbcb5e2b3c5c60400000175090511020a6164642075736572017800");
        migrate(MigrateAction::Apply {
            through: 99,
            records: vec![(18, b"score user 0 0.5".to_vec()), (21, vec![0, 255, 7])],
        })
        .pinned(
            "c2030fbcb5e2b3c5c6040000017509066302121073636f72652075736572203020302e35150300ff\
             07",
        );
        migrate(MigrateAction::Activate).pinned("c2030fbcb5e2b3c5c604000001750907");
        migrate(MigrateAction::Finish).pinned("c2030fbcb5e2b3c5c604000001750908");
        migrate(MigrateAction::Abort).pinned("c2030fbcb5e2b3c5c604000001750909");
        Request::Batch {
            requests: vec![
                Request::AddUser { user: "a".into() },
                Request::InsertPref {
                    user: "a".into(),
                    descriptor: "d = x".into(),
                    attr: "t".into(),
                    value: "v".into(),
                    score: 0.5,
                },
                Request::Ping,
            ],
        }
        .pinned("c20310bcb5e2b3c5c6040000030401610601610564203d207801740176000000000000e03f01");
    }

    #[test]
    fn all_responses_roundtrip() {
        Response::Pong.pinned("c2030107");
        Response::Ok.pinned("c2030207");
        Response::Removed { score: 0.5 }.pinned("c2030307000000000000e03f");
        Response::Answer(RemoteAnswer {
            step: "nearest-state".into(),
            elapsed_us: 1234,
            resolved_state: Some("(Athens, warm, all)".into()),
            fallbacks: vec![WireFallback {
                step: "exact".into(),
                reason: "panic: injected".into(),
            }],
            rows: vec![
                AnswerRow {
                    name: "Acropolis Museum".into(),
                    score: 0.9,
                },
                AnswerRow {
                    name: "Plaka walk".into(),
                    score: 0.25,
                },
            ],
        })
        .pinned(
            "c20304070d6e6561726573742d7374617465d209011328417468656e732c207761726d2c20616c6c\
             29010565786163740f70616e69633a20696e6a656374656402104163726f706f6c6973204d757365\
             756dcdccccccccccec3f0a506c616b612077616c6b000000000000d03f",
        );
        // The other resolved-state arm, with empty vectors.
        Response::Answer(RemoteAnswer {
            step: "exact".into(),
            elapsed_us: 0,
            resolved_state: None,
            fallbacks: vec![],
            rows: vec![],
        })
        .pinned("c203040705657861637400000000");
        Response::Text {
            body: "appends 12\nshard 0: …\n".into(),
        }
        .pinned("c203050718617070656e64732031320a736861726420303a20e280a60a");
        Response::Busy {
            limit: 4,
            retry_after_ms: 120,
        }
        .pinned("c20306070478");
        Response::Err {
            kind: "core".into(),
            message: "no such user \"ghost\"".into(),
        }
        .pinned("c203070704636f7265146e6f20737563682075736572202267686f737422");
        Response::NotPrimary.pinned("c2030807");
        Response::Migrating { user: "u".into() }.pinned("c20309070175");
        Response::UserCut {
            present: true,
            shard: 3,
            last_lsn: 117,
            digest: 0xDEAD_BEEF_DEAD_BEEF,
        }
        .pinned("c2030a07010375efbeaddeefbeadde");
        Response::Snapshot {
            src_lsn: 12,
            ops: vec![b"add me".to_vec(), vec![1, 2, 3]],
        }
        .pinned("c2030b070c0206616464206d6503010203");
        Response::Records {
            through: 40,
            records: vec![(39, b"ins me pref".to_vec()), (40, vec![255])],
        }
        .pinned("c2030c072802270b696e73206d6520707265662801ff");
        Response::Gone.pinned("c2030d07");
        Response::Applied { watermark: 88 }.pinned("c2030e0758");
        Response::RouteInfo {
            has_primary: true,
            epoch: 4,
            users: 1000,
            migrations: 2,
        }
        .pinned("c2030f070104e80702");
        Response::Batch {
            responses: vec![
                Response::Ok,
                Response::Err {
                    kind: "core".into(),
                    message: "nope".into(),
                },
            ],
        }
        .pinned("c203100702020704636f7265046e6f7065");
        Response::ScrubReport {
            segments_verified: 12,
            checkpoints_verified: 1,
            read_errors: 2,
            quarantined: 1,
            healed: true,
        }
        .pinned("c20311070c01020101");
        Response::ScrubInfo {
            passes: 9,
            quarantined: 1,
            read_errors: 3,
            heals: 1,
            rescued_shards: 2,
            disk_full_sheds: 4,
            rotate_failures: 0,
        }
        .pinned("c203120709010301020400");
    }

    #[test]
    fn nested_batches_are_rejected() {
        let nested = Request::Batch {
            requests: vec![Request::Batch {
                requests: vec![Request::Ping],
            }],
        };
        let payload = encode_request(1, &nested);
        let err = decode_request(&payload).unwrap_err();
        assert!(matches!(err.kind, DecodeKind::BadTag { .. }));
        // At the inner batch's own tag: header (6 bytes), item count.
        assert_eq!(err.offset, 7);
    }

    #[test]
    fn an_unknown_top_level_tag_is_reported_at_its_own_byte() {
        let payload = [BINARY_MAGIC, BINARY_VERSION, 99, 1, 0, 0];
        for err in [
            decode_request(&payload).unwrap_err(),
            decode_response(&payload).unwrap_err(),
        ] {
            assert!(
                matches!(err.kind, DecodeKind::BadTag { tag: 99, .. }),
                "got {err:?}"
            );
            assert_eq!(err.offset, 2, "{err}");
        }
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

    #[test]
    fn unknown_tier_tag_fails_typed() {
        let mut payload = vec![BINARY_MAGIC, BINARY_VERSION, 1, 0, 0, 3];
        let err = decode_request(&payload).unwrap_err();
        assert!(
            matches!(
                err.kind,
                DecodeKind::BadTag {
                    what: "priority tier",
                    tag: 3
                }
            ),
            "got {err:?}"
        );
        assert_eq!(err.offset, 5);
        // A valid tier decodes.
        payload[5] = 2;
        let back = decode_request(&payload).expect("maintenance ping");
        assert_eq!(back.tier, Priority::Maintenance);
    }

    #[test]
    fn truncation_at_every_offset_fails_typed() {
        let req = Request::Query {
            user: "alice".into(),
            attr: "name".into(),
            k: 5,
            deadline_ms: 250,
            state: vec!["Plaka".into(), "warm".into()],
        };
        let payload = encode_request(99, &req);
        for cut in 0..payload.len() {
            assert!(
                decode_request(&payload[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(1, &Request::Ping);
        payload.push(0);
        let err = decode_request(&payload).unwrap_err();
        assert_eq!(err.kind, DecodeKind::TrailingBytes);
    }
}
