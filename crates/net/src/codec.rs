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
//! Primitives: LEB128 varints for integers and lengths, raw
//! length-delimited bytes for strings and record payloads, IEEE-754
//! little-endian for scores. Every length and count is validated
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
/// about the connection itself. The server closes behind the ones it
/// originates in the reactor (admission refusal, torn or foreign
/// frame); a worker also falls back to it for a request whose header
/// was too damaged to name an id. Either way the client redials.
pub const CONNECTION_ID: u64 = 0;

/// Whether a frame payload leads with the `ctxpref2` magic. The server
/// refuses anything else at the connection level without decoding it.
pub fn is_binary(payload: &[u8]) -> bool {
    payload.first() == Some(&BINARY_MAGIC)
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

pub(crate) fn put_uv(out: &mut Vec<u8>, mut v: u64) {
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

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_uv(out, b.len() as u64);
    out.extend_from_slice(b);
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A bounds-checked binary reader over one payload. Every failure
/// carries the byte offset at which it occurred.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    fn err(&self, kind: DecodeKind) -> DecodeError {
        DecodeError {
            offset: self.pos,
            kind,
        }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.err(DecodeKind::Truncated))?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn uv(&mut self) -> Result<u64, DecodeError> {
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

    /// A usize-ranged varint (lengths, counts, indices).
    pub(crate) fn uv_len(&mut self) -> Result<usize, DecodeError> {
        let start = self.pos;
        let v = self.uv()?;
        usize::try_from(v).map_err(|_| DecodeError {
            offset: start,
            kind: DecodeKind::LengthOverflow {
                declared: v,
                max: usize::MAX as u64,
            },
        })
    }

    /// A declared length or element count, validated against the bytes
    /// that remain (each element occupies at least `min_elem_bytes`):
    /// the one place where a hostile claim is caught before any
    /// allocation is sized by it.
    pub(crate) fn checked_count(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let start = self.pos;
        let n = self.uv()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        let budget = remaining / (min_elem_bytes.max(1) as u64);
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

    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let start = self.pos;
        let len = self.uv()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if len > remaining {
            return Err(DecodeError {
                offset: start,
                kind: DecodeKind::LengthOverflow {
                    declared: len,
                    max: remaining,
                },
            });
        }
        let len = len as usize;
        let out = self.buf[self.pos..self.pos + len].to_vec();
        self.pos += len;
        Ok(out)
    }

    pub(crate) fn str_(&mut self) -> Result<String, DecodeError> {
        let start = self.pos;
        let raw = self.bytes()?;
        String::from_utf8(raw).map_err(|_| DecodeError {
            offset: start,
            kind: DecodeKind::BadUtf8,
        })
    }

    pub(crate) fn f64_(&mut self) -> Result<f64, DecodeError> {
        if self.buf.len() - self.pos < 8 {
            return Err(self.err(DecodeKind::Truncated));
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    pub(crate) fn expect_end(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(self.err(DecodeKind::TrailingBytes));
        }
        Ok(())
    }
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

// Request tags.
const RQ_PING: u8 = 1;
const RQ_QUERY: u8 = 2;
const RQ_QUERY_DESC: u8 = 3;
const RQ_ADD_USER: u8 = 4;
const RQ_RM_USER: u8 = 5;
const RQ_PREF: u8 = 6;
const RQ_DEL: u8 = 7;
const RQ_SCORE: u8 = 8;
const RQ_CHECKPOINT: u8 = 9;
const RQ_FLUSH: u8 = 10;
const RQ_WAL_STATUS: u8 = 11;
const RQ_REPL_STATUS: u8 = 12;
const RQ_STATS: u8 = 13;
const RQ_ROUTE_STATUS: u8 = 14;
const RQ_MIGRATE: u8 = 15;
const RQ_BATCH: u8 = 16;
const RQ_SCRUB: u8 = 17;
const RQ_SCRUB_STATUS: u8 = 18;
const RQ_TOPK: u8 = 19;
const RQ_VIEWS_STATUS: u8 = 20;

// Migrate action tags.
const MA_EXPORT: u8 = 1;
const MA_SNAPSHOT: u8 = 2;
const MA_PULL: u8 = 3;
const MA_FENCE: u8 = 4;
const MA_IMPORT: u8 = 5;
const MA_APPLY: u8 = 6;
const MA_ACTIVATE: u8 = 7;
const MA_FINISH: u8 = 8;
const MA_ABORT: u8 = 9;

// Response tags.
const RS_PONG: u8 = 1;
const RS_OK: u8 = 2;
const RS_REMOVED: u8 = 3;
const RS_ANSWER: u8 = 4;
const RS_TEXT: u8 = 5;
const RS_BUSY: u8 = 6;
const RS_ERR: u8 = 7;
const RS_NOT_PRIMARY: u8 = 8;
const RS_MIGRATING: u8 = 9;
const RS_USER_CUT: u8 = 10;
const RS_SNAPSHOT: u8 = 11;
const RS_RECORDS: u8 = 12;
const RS_GONE: u8 = 13;
const RS_APPLIED: u8 = 14;
const RS_ROUTE_INFO: u8 = 15;
const RS_BATCH: u8 = 16;
const RS_SCRUB_REPORT: u8 = 17;
const RS_SCRUB_INFO: u8 = 18;

fn req_tag(req: &Request) -> u8 {
    match req {
        Request::Ping => RQ_PING,
        Request::Query { .. } => RQ_QUERY,
        Request::QueryDescriptor { .. } => RQ_QUERY_DESC,
        Request::AddUser { .. } => RQ_ADD_USER,
        Request::RemoveUser { .. } => RQ_RM_USER,
        Request::InsertPref { .. } => RQ_PREF,
        Request::RemovePref { .. } => RQ_DEL,
        Request::UpdateScore { .. } => RQ_SCORE,
        Request::Checkpoint => RQ_CHECKPOINT,
        Request::FlushWal => RQ_FLUSH,
        Request::WalStatus => RQ_WAL_STATUS,
        Request::ReplStatus => RQ_REPL_STATUS,
        Request::Stats => RQ_STATS,
        Request::RouteStatus => RQ_ROUTE_STATUS,
        Request::MigrateUser { .. } => RQ_MIGRATE,
        Request::Batch { .. } => RQ_BATCH,
        Request::Scrub => RQ_SCRUB,
        Request::ScrubStatus => RQ_SCRUB_STATUS,
        Request::TopK { .. } => RQ_TOPK,
        Request::ViewsStatus => RQ_VIEWS_STATUS,
    }
}

fn put_request_body(out: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Ping
        | Request::Checkpoint
        | Request::FlushWal
        | Request::WalStatus
        | Request::ReplStatus
        | Request::Stats
        | Request::RouteStatus
        | Request::Scrub
        | Request::ScrubStatus
        | Request::ViewsStatus => {}
        Request::Query {
            user,
            attr,
            k,
            deadline_ms,
            state,
        }
        | Request::TopK {
            user,
            attr,
            k,
            deadline_ms,
            state,
        } => {
            put_str(out, user);
            put_str(out, attr);
            put_uv(out, *k as u64);
            put_uv(out, *deadline_ms);
            put_uv(out, state.len() as u64);
            for v in state {
                put_str(out, v);
            }
        }
        Request::QueryDescriptor {
            user,
            attr,
            k,
            descriptor,
        } => {
            put_str(out, user);
            put_str(out, attr);
            put_uv(out, *k as u64);
            put_str(out, descriptor);
        }
        Request::AddUser { user } | Request::RemoveUser { user } => put_str(out, user),
        Request::InsertPref {
            user,
            descriptor,
            attr,
            value,
            score,
        } => {
            put_str(out, user);
            put_str(out, descriptor);
            put_str(out, attr);
            put_str(out, value);
            put_f64(out, *score);
        }
        Request::RemovePref { user, index } => {
            put_str(out, user);
            put_uv(out, *index as u64);
        }
        Request::UpdateScore { user, index, score } => {
            put_str(out, user);
            put_uv(out, *index as u64);
            put_f64(out, *score);
        }
        Request::MigrateUser {
            user,
            epoch,
            action,
        } => {
            put_str(out, user);
            put_uv(out, *epoch);
            match action {
                MigrateAction::Export => out.push(MA_EXPORT),
                MigrateAction::Snapshot => out.push(MA_SNAPSHOT),
                MigrateAction::Pull { from_lsn, max } => {
                    out.push(MA_PULL);
                    put_uv(out, *from_lsn);
                    put_uv(out, *max);
                }
                MigrateAction::Fence => out.push(MA_FENCE),
                MigrateAction::Import { src_lsn, ops } => {
                    out.push(MA_IMPORT);
                    put_uv(out, *src_lsn);
                    put_uv(out, ops.len() as u64);
                    for op in ops {
                        put_bytes(out, op);
                    }
                }
                MigrateAction::Apply { through, records } => {
                    out.push(MA_APPLY);
                    put_uv(out, *through);
                    put_uv(out, records.len() as u64);
                    for (lsn, payload) in records {
                        put_uv(out, *lsn);
                        put_bytes(out, payload);
                    }
                }
                MigrateAction::Activate => out.push(MA_ACTIVATE),
                MigrateAction::Finish => out.push(MA_FINISH),
                MigrateAction::Abort => out.push(MA_ABORT),
            }
        }
        Request::Batch { requests } => {
            put_uv(out, requests.len() as u64);
            for sub in requests {
                out.push(req_tag(sub));
                put_request_body(out, sub);
            }
        }
    }
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
    out.push(req_tag(req));
    put_uv(&mut out, id);
    put_uv(&mut out, budget_ms);
    out.push(tier.wire_tag());
    put_request_body(&mut out, req);
    out
}

fn header(payload: &[u8]) -> Result<(Dec<'_>, u8, u64), DecodeError> {
    let mut dec = Dec::new(payload);
    let magic = dec.u8()?;
    if magic != BINARY_MAGIC {
        return Err(DecodeError {
            offset: 0,
            kind: DecodeKind::BadTag {
                what: "codec magic",
                tag: u64::from(magic),
            },
        });
    }
    let version = dec.u8()?;
    if version != BINARY_VERSION {
        return Err(DecodeError {
            offset: 1,
            kind: DecodeKind::BadTag {
                what: "codec version",
                tag: u64::from(version),
            },
        });
    }
    let tag = dec.u8()?;
    let id = dec.uv()?;
    Ok((dec, tag, id))
}

fn decode_request_body(
    dec: &mut Dec<'_>,
    tag: u8,
    allow_batch: bool,
) -> Result<Request, DecodeError> {
    let tag_err = |dec: &Dec<'_>| DecodeError {
        offset: dec.offset().saturating_sub(1),
        kind: DecodeKind::BadTag {
            what: "request",
            tag: u64::from(tag),
        },
    };
    Ok(match tag {
        RQ_PING => Request::Ping,
        RQ_CHECKPOINT => Request::Checkpoint,
        RQ_FLUSH => Request::FlushWal,
        RQ_WAL_STATUS => Request::WalStatus,
        RQ_REPL_STATUS => Request::ReplStatus,
        RQ_STATS => Request::Stats,
        RQ_ROUTE_STATUS => Request::RouteStatus,
        RQ_SCRUB => Request::Scrub,
        RQ_SCRUB_STATUS => Request::ScrubStatus,
        RQ_VIEWS_STATUS => Request::ViewsStatus,
        // The two ranked verbs share one body; the tag alone says
        // whether the server pushes `k` down into evaluation.
        RQ_QUERY | RQ_TOPK => {
            let user = dec.str_()?;
            let attr = dec.str_()?;
            let k = dec.uv_len()?;
            let deadline_ms = dec.uv()?;
            let n = dec.checked_count(1)?;
            let mut state = Vec::with_capacity(n);
            for _ in 0..n {
                state.push(dec.str_()?);
            }
            if tag == RQ_TOPK {
                Request::TopK {
                    user,
                    attr,
                    k,
                    deadline_ms,
                    state,
                }
            } else {
                Request::Query {
                    user,
                    attr,
                    k,
                    deadline_ms,
                    state,
                }
            }
        }
        RQ_QUERY_DESC => Request::QueryDescriptor {
            user: dec.str_()?,
            attr: dec.str_()?,
            k: dec.uv_len()?,
            descriptor: dec.str_()?,
        },
        RQ_ADD_USER => Request::AddUser { user: dec.str_()? },
        RQ_RM_USER => Request::RemoveUser { user: dec.str_()? },
        RQ_PREF => Request::InsertPref {
            user: dec.str_()?,
            descriptor: dec.str_()?,
            attr: dec.str_()?,
            value: dec.str_()?,
            score: dec.f64_()?,
        },
        RQ_DEL => Request::RemovePref {
            user: dec.str_()?,
            index: dec.uv_len()?,
        },
        RQ_SCORE => Request::UpdateScore {
            user: dec.str_()?,
            index: dec.uv_len()?,
            score: dec.f64_()?,
        },
        RQ_MIGRATE => {
            let user = dec.str_()?;
            let epoch = dec.uv()?;
            let action_tag = dec.u8()?;
            let action = match action_tag {
                MA_EXPORT => MigrateAction::Export,
                MA_SNAPSHOT => MigrateAction::Snapshot,
                MA_PULL => MigrateAction::Pull {
                    from_lsn: dec.uv()?,
                    max: dec.uv()?,
                },
                MA_FENCE => MigrateAction::Fence,
                MA_IMPORT => {
                    let src_lsn = dec.uv()?;
                    let n = dec.checked_count(1)?;
                    let mut ops = Vec::with_capacity(n);
                    for _ in 0..n {
                        ops.push(dec.bytes()?);
                    }
                    MigrateAction::Import { src_lsn, ops }
                }
                MA_APPLY => {
                    let through = dec.uv()?;
                    let n = dec.checked_count(2)?;
                    let mut records = Vec::with_capacity(n);
                    for _ in 0..n {
                        records.push((dec.uv()?, dec.bytes()?));
                    }
                    MigrateAction::Apply { through, records }
                }
                MA_ACTIVATE => MigrateAction::Activate,
                MA_FINISH => MigrateAction::Finish,
                MA_ABORT => MigrateAction::Abort,
                other => {
                    return Err(DecodeError {
                        offset: dec.offset().saturating_sub(1),
                        kind: DecodeKind::BadTag {
                            what: "migrate action",
                            tag: u64::from(other),
                        },
                    })
                }
            };
            Request::MigrateUser {
                user,
                epoch,
                action,
            }
        }
        RQ_BATCH => {
            if !allow_batch {
                return Err(tag_err(dec));
            }
            let n = dec.checked_count(1)?;
            let mut requests = Vec::with_capacity(n);
            for _ in 0..n {
                let sub_tag = dec.u8()?;
                // Batches do not nest.
                requests.push(decode_request_body(dec, sub_tag, false)?);
            }
            Request::Batch { requests }
        }
        _ => return Err(tag_err(dec)),
    })
}

/// Decode a `ctxpref2` request frame payload (header, envelope budget
/// and tier, then the body).
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, DecodeError> {
    let (mut dec, tag, id) = header(payload)?;
    let budget_ms = dec.uv()?;
    let tier_at = dec.offset();
    let tier_tag = dec.u8()?;
    let tier = Priority::from_wire_tag(tier_tag).ok_or(DecodeError {
        offset: tier_at,
        kind: DecodeKind::BadTag {
            what: "priority tier",
            tag: u64::from(tier_tag),
        },
    })?;
    let req = decode_request_body(&mut dec, tag, true)?;
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

fn resp_tag(resp: &Response) -> u8 {
    match resp {
        Response::Pong => RS_PONG,
        Response::Ok => RS_OK,
        Response::Removed { .. } => RS_REMOVED,
        Response::Answer(_) => RS_ANSWER,
        Response::Text { .. } => RS_TEXT,
        Response::Busy { .. } => RS_BUSY,
        Response::Err { .. } => RS_ERR,
        Response::NotPrimary => RS_NOT_PRIMARY,
        Response::Migrating { .. } => RS_MIGRATING,
        Response::UserCut { .. } => RS_USER_CUT,
        Response::Snapshot { .. } => RS_SNAPSHOT,
        Response::Records { .. } => RS_RECORDS,
        Response::Gone => RS_GONE,
        Response::Applied { .. } => RS_APPLIED,
        Response::RouteInfo { .. } => RS_ROUTE_INFO,
        Response::Batch { .. } => RS_BATCH,
        Response::ScrubReport { .. } => RS_SCRUB_REPORT,
        Response::ScrubInfo { .. } => RS_SCRUB_INFO,
    }
}

fn put_response_body(out: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Pong | Response::Ok | Response::NotPrimary | Response::Gone => {}
        Response::Removed { score } => put_f64(out, *score),
        Response::Answer(a) => {
            put_str(out, &a.step);
            put_uv(out, a.elapsed_us);
            match &a.resolved_state {
                Some(s) => {
                    out.push(1);
                    put_str(out, s);
                }
                None => out.push(0),
            }
            put_uv(out, a.fallbacks.len() as u64);
            for fb in &a.fallbacks {
                put_str(out, &fb.step);
                put_str(out, &fb.reason);
            }
            put_uv(out, a.rows.len() as u64);
            for row in &a.rows {
                put_str(out, &row.name);
                put_f64(out, row.score);
            }
        }
        Response::Text { body } => put_str(out, body),
        Response::Busy {
            limit,
            retry_after_ms,
        } => {
            put_uv(out, *limit as u64);
            put_uv(out, *retry_after_ms);
        }
        Response::Err { kind, message } => {
            put_str(out, kind);
            put_str(out, message);
        }
        Response::Migrating { user } => put_str(out, user),
        Response::UserCut {
            present,
            shard,
            last_lsn,
            digest,
        } => {
            out.push(u8::from(*present));
            put_uv(out, *shard);
            put_uv(out, *last_lsn);
            out.extend_from_slice(&digest.to_le_bytes());
        }
        Response::Snapshot { src_lsn, ops } => {
            put_uv(out, *src_lsn);
            put_uv(out, ops.len() as u64);
            for op in ops {
                put_bytes(out, op);
            }
        }
        Response::Records { through, records } => {
            put_uv(out, *through);
            put_uv(out, records.len() as u64);
            for (lsn, payload) in records {
                put_uv(out, *lsn);
                put_bytes(out, payload);
            }
        }
        Response::Applied { watermark } => put_uv(out, *watermark),
        Response::RouteInfo {
            has_primary,
            epoch,
            users,
            migrations,
        } => {
            out.push(u8::from(*has_primary));
            put_uv(out, *epoch);
            put_uv(out, *users);
            put_uv(out, *migrations);
        }
        Response::Batch { responses } => {
            put_uv(out, responses.len() as u64);
            for sub in responses {
                out.push(resp_tag(sub));
                put_response_body(out, sub);
            }
        }
        Response::ScrubReport {
            segments_verified,
            checkpoints_verified,
            read_errors,
            quarantined,
            healed,
        } => {
            put_uv(out, *segments_verified);
            put_uv(out, *checkpoints_verified);
            put_uv(out, *read_errors);
            put_uv(out, *quarantined);
            out.push(u8::from(*healed));
        }
        Response::ScrubInfo {
            passes,
            quarantined,
            read_errors,
            heals,
            rescued_shards,
            disk_full_sheds,
            rotate_failures,
        } => {
            put_uv(out, *passes);
            put_uv(out, *quarantined);
            put_uv(out, *read_errors);
            put_uv(out, *heals);
            put_uv(out, *rescued_shards);
            put_uv(out, *disk_full_sheds);
            put_uv(out, *rotate_failures);
        }
    }
}

/// Encode one response as a `ctxpref2` frame payload.
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.push(BINARY_MAGIC);
    out.push(BINARY_VERSION);
    out.push(resp_tag(resp));
    put_uv(&mut out, id);
    put_response_body(&mut out, resp);
    out
}

fn decode_response_body(
    dec: &mut Dec<'_>,
    tag: u8,
    allow_batch: bool,
) -> Result<Response, DecodeError> {
    let tag_err = |dec: &Dec<'_>| DecodeError {
        offset: dec.offset().saturating_sub(1),
        kind: DecodeKind::BadTag {
            what: "response",
            tag: u64::from(tag),
        },
    };
    Ok(match tag {
        RS_PONG => Response::Pong,
        RS_OK => Response::Ok,
        RS_NOT_PRIMARY => Response::NotPrimary,
        RS_GONE => Response::Gone,
        RS_REMOVED => Response::Removed { score: dec.f64_()? },
        RS_ANSWER => {
            let step = dec.str_()?;
            let elapsed_us = dec.uv()?;
            let resolved_state = match dec.u8()? {
                0 => None,
                1 => Some(dec.str_()?),
                other => {
                    return Err(DecodeError {
                        offset: dec.offset().saturating_sub(1),
                        kind: DecodeKind::BadTag {
                            what: "resolved-state flag",
                            tag: u64::from(other),
                        },
                    })
                }
            };
            let nf = dec.checked_count(2)?;
            let mut fallbacks = Vec::with_capacity(nf);
            for _ in 0..nf {
                fallbacks.push(WireFallback {
                    step: dec.str_()?,
                    reason: dec.str_()?,
                });
            }
            let nr = dec.checked_count(9)?;
            let mut rows = Vec::with_capacity(nr);
            for _ in 0..nr {
                rows.push(AnswerRow {
                    name: dec.str_()?,
                    score: dec.f64_()?,
                });
            }
            Response::Answer(RemoteAnswer {
                step,
                elapsed_us,
                resolved_state,
                fallbacks,
                rows,
            })
        }
        RS_TEXT => Response::Text { body: dec.str_()? },
        RS_BUSY => Response::Busy {
            limit: dec.uv_len()?,
            retry_after_ms: dec.uv()?,
        },
        RS_ERR => Response::Err {
            kind: dec.str_()?,
            message: dec.str_()?,
        },
        RS_MIGRATING => Response::Migrating { user: dec.str_()? },
        RS_USER_CUT => {
            let present = dec.u8()? != 0;
            let shard = dec.uv()?;
            let last_lsn = dec.uv()?;
            let mut raw = [0u8; 8];
            for b in &mut raw {
                *b = dec.u8()?;
            }
            Response::UserCut {
                present,
                shard,
                last_lsn,
                digest: u64::from_le_bytes(raw),
            }
        }
        RS_SNAPSHOT => {
            let src_lsn = dec.uv()?;
            let n = dec.checked_count(1)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(dec.bytes()?);
            }
            Response::Snapshot { src_lsn, ops }
        }
        RS_RECORDS => {
            let through = dec.uv()?;
            let n = dec.checked_count(2)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push((dec.uv()?, dec.bytes()?));
            }
            Response::Records { through, records }
        }
        RS_APPLIED => Response::Applied {
            watermark: dec.uv()?,
        },
        RS_SCRUB_REPORT => Response::ScrubReport {
            segments_verified: dec.uv()?,
            checkpoints_verified: dec.uv()?,
            read_errors: dec.uv()?,
            quarantined: dec.uv()?,
            healed: dec.u8()? != 0,
        },
        RS_SCRUB_INFO => Response::ScrubInfo {
            passes: dec.uv()?,
            quarantined: dec.uv()?,
            read_errors: dec.uv()?,
            heals: dec.uv()?,
            rescued_shards: dec.uv()?,
            disk_full_sheds: dec.uv()?,
            rotate_failures: dec.uv()?,
        },
        RS_ROUTE_INFO => Response::RouteInfo {
            has_primary: dec.u8()? != 0,
            epoch: dec.uv()?,
            users: dec.uv()?,
            migrations: dec.uv()?,
        },
        RS_BATCH => {
            if !allow_batch {
                return Err(tag_err(dec));
            }
            let n = dec.checked_count(1)?;
            let mut responses = Vec::with_capacity(n);
            for _ in 0..n {
                let sub_tag = dec.u8()?;
                responses.push(decode_response_body(dec, sub_tag, false)?);
            }
            Response::Batch { responses }
        }
        _ => return Err(tag_err(dec)),
    })
}

/// Decode a `ctxpref2` response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, DecodeError> {
    let (mut dec, tag, id) = header(payload)?;
    let resp = decode_response_body(&mut dec, tag, true)?;
    dec.expect_end()?;
    Ok(WireResponse { id, resp })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DecodeKind;

    fn roundtrip_req(req: Request) {
        let payload = encode_request(0x1234_5678_9abc, &req);
        assert!(is_binary(&payload));
        let back = decode_request(&payload).expect("decode");
        assert_eq!(back.id, 0x1234_5678_9abc);
        assert_eq!(back.budget_ms, 0);
        assert_eq!(back.tier, Priority::Interactive);
        assert_eq!(back.req, req);
        // The enveloped form carries the budget and tier through.
        let payload = encode_request_enveloped(7, &req, 1500, Priority::Bulk);
        let back = decode_request(&payload).expect("decode enveloped");
        assert_eq!(back.budget_ms, 1500);
        assert_eq!(back.tier, Priority::Bulk);
        assert_eq!(back.req, req);
    }

    fn roundtrip_resp(resp: Response) {
        let payload = encode_response(7, &resp);
        let back = decode_response(&payload).expect("decode");
        assert_eq!(back.id, 7);
        assert_eq!(back.resp, resp);
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
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Query {
            user: "Ano Poli visitor".into(),
            attr: "name".into(),
            k: 10,
            deadline_ms: 250,
            state: vec!["Plaka".into(), "warm".into(), "friends".into()],
        });
        roundtrip_req(Request::TopK {
            user: "Ano Poli visitor".into(),
            attr: "name".into(),
            k: 3,
            deadline_ms: 100,
            state: vec!["Plaka".into(), "warm".into(), "friends".into()],
        });
        roundtrip_req(Request::ViewsStatus);
        roundtrip_req(Request::QueryDescriptor {
            user: "me".into(),
            attr: "name".into(),
            k: 3,
            descriptor: "location = Athens".into(),
        });
        roundtrip_req(Request::AddUser { user: "".into() });
        roundtrip_req(Request::RemoveUser {
            user: "a\nb".into(),
        });
        roundtrip_req(Request::InsertPref {
            user: "me".into(),
            descriptor: "accompanying_people = family".into(),
            attr: "type".into(),
            value: "zoo".into(),
            score: 0.95,
        });
        roundtrip_req(Request::RemovePref {
            user: "me".into(),
            index: 7,
        });
        roundtrip_req(Request::UpdateScore {
            user: "me".into(),
            index: 2,
            score: 0.125,
        });
        roundtrip_req(Request::Checkpoint);
        roundtrip_req(Request::FlushWal);
        roundtrip_req(Request::WalStatus);
        roundtrip_req(Request::ReplStatus);
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::RouteStatus);
        roundtrip_req(Request::Scrub);
        roundtrip_req(Request::ScrubStatus);
        for action in [
            MigrateAction::Export,
            MigrateAction::Snapshot,
            MigrateAction::Pull {
                from_lsn: 42,
                max: 64,
            },
            MigrateAction::Fence,
            MigrateAction::Import {
                src_lsn: 17,
                ops: vec![b"add user\x01x".to_vec(), vec![]],
            },
            MigrateAction::Apply {
                through: 99,
                records: vec![(18, b"score user 0 0.5".to_vec()), (21, vec![0, 255, 7])],
            },
            MigrateAction::Activate,
            MigrateAction::Finish,
            MigrateAction::Abort,
        ] {
            roundtrip_req(Request::MigrateUser {
                user: "u".into(),
                epoch: 9,
                action,
            });
        }
        roundtrip_req(Request::Batch {
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
        });
    }

    #[test]
    fn all_responses_roundtrip() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Removed { score: 0.5 });
        roundtrip_resp(Response::Answer(RemoteAnswer {
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
        }));
        roundtrip_resp(Response::Text {
            body: "appends 12\nshard 0: …\n".into(),
        });
        roundtrip_resp(Response::Busy {
            limit: 4,
            retry_after_ms: 120,
        });
        roundtrip_resp(Response::Err {
            kind: "core".into(),
            message: "no such user \"ghost\"".into(),
        });
        roundtrip_resp(Response::NotPrimary);
        roundtrip_resp(Response::Migrating { user: "u".into() });
        roundtrip_resp(Response::UserCut {
            present: true,
            shard: 3,
            last_lsn: 117,
            digest: 0xDEAD_BEEF_DEAD_BEEF,
        });
        roundtrip_resp(Response::Snapshot {
            src_lsn: 12,
            ops: vec![b"add me".to_vec(), vec![1, 2, 3]],
        });
        roundtrip_resp(Response::Records {
            through: 40,
            records: vec![(39, b"ins me pref".to_vec()), (40, vec![255])],
        });
        roundtrip_resp(Response::Gone);
        roundtrip_resp(Response::Applied { watermark: 88 });
        roundtrip_resp(Response::RouteInfo {
            has_primary: true,
            epoch: 4,
            users: 1000,
            migrations: 2,
        });
        roundtrip_resp(Response::Batch {
            responses: vec![
                Response::Ok,
                Response::Err {
                    kind: "core".into(),
                    message: "nope".into(),
                },
            ],
        });
        roundtrip_resp(Response::ScrubReport {
            segments_verified: 12,
            checkpoints_verified: 1,
            read_errors: 2,
            quarantined: 1,
            healed: true,
        });
        roundtrip_resp(Response::ScrubInfo {
            passes: 9,
            quarantined: 1,
            read_errors: 3,
            heals: 1,
            rescued_shards: 2,
            disk_full_sheds: 4,
            rotate_failures: 0,
        });
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
    }

    #[test]
    fn hostile_length_claims_fail_typed_before_allocation() {
        // A string claiming u64::MAX bytes in a tiny payload (the two
        // zero bytes after the id are the envelope's budget and tier).
        let mut payload = vec![BINARY_MAGIC, BINARY_VERSION, RQ_ADD_USER, 0, 0, 0];
        put_uv(&mut payload, u64::MAX);
        let err = decode_request(&payload).unwrap_err();
        assert!(
            matches!(err.kind, DecodeKind::LengthOverflow { declared, .. } if declared == u64::MAX)
        );
        assert_eq!(err.offset, 6);
    }

    #[test]
    fn unknown_tier_tag_fails_typed() {
        let mut payload = vec![BINARY_MAGIC, BINARY_VERSION, RQ_PING, 0, 0, 3];
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
