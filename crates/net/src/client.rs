//! A blocking client for the `ctxpref` wire protocol, with reconnect,
//! bounded retry, and request pipelining.
//!
//! Requests travel in the compact `ctxpref2` binary codec
//! ([`crate::codec`]), each carrying a **request id** the server
//! echoes on the response. Serial calls ([`NetClient::request`]) use
//! the id as a sanity check; [`NetClient::pipeline`] ships many
//! requests before reading anything and then matches the possibly
//! **out-of-order** responses back to their requests by id — one
//! round-trip's latency amortized over the whole burst.
//! [`NetClient::batch`] goes further and packs N requests into a
//! single frame ([`Request::Batch`]).
//!
//! The client keeps one cached connection, and with it the
//! connection's frame decoder: every response is read through it, so
//! one that has arrived costs one `read`, and bytes beyond what was
//! awaited mean the stream is confused. When a request fails at the
//! socket or framing layer it drops the connection and — **only for
//! idempotent requests** ([`Request::is_idempotent`]) — redials and
//! retries with linear backoff, up to the configured attempt budget.
//! Mutations are never retried blind: a torn connection after a
//! mutation was sent leaves the outcome unknown, and replaying it
//! could double-apply.
//!
//! Every backoff sleep adds a small **deterministic jitter** drawn
//! from a seeded generator ([`NetClientConfig::jitter`],
//! [`NetClientConfig::jitter_seed`]), so a fleet of clients retrying
//! into the same recovering server fans out instead of stampeding in
//! lockstep — while a given seed still replays the exact same sleep
//! sequence in tests.
//!
//! [`Response::Busy`] is one step gentler than a transport failure:
//! the server answered, it just had no capacity. For **idempotent**
//! requests the client retries it under its own small cap
//! ([`NetClientConfig::busy_attempts`]) before surfacing the typed
//! [`NetError::ServerBusy`]; non-idempotent requests surface it
//! immediately (capacity may free mid-mutation, and a blind replay
//! could double-apply). When the busy frame carries a `retry_after`
//! hint the client sleeps **that** long instead of its own linear
//! backoff — the server knows its queue depth better than the client's
//! schedule does. Other typed refusals ([`NetError::Remote`]) are
//! never retried: the server made a decision, and the caller gets it
//! intact to apply its own policy.
//!
//! A refusal's **request id** says what it is about. Under the
//! reserved id 0 ([`codec::CONNECTION_ID`]) it is about the connection
//! — admission turned the socket away before reading a request, or the
//! server gave up on a torn stream — and the server closes after
//! sending it, so the client drops its cached connection. Under the
//! request's own id a busy is a **request-level** shed on a healthy
//! connection (admission control refused the request's tier), so the
//! connection is kept and reused.
//!
//! [`NetClient::request_enveloped`] threads an **end-to-end budget**
//! and a [`Priority`] tier through the `ctxpref2` envelope. The budget
//! is decremented across every attempt and backoff sleep, each retry
//! re-encodes the request with only what remains, and when it runs out
//! client-side the typed [`NetError::BudgetExhausted`] comes back
//! without another byte on the wire.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use ctxpref_faults::clock;
use ctxpref_service::{Priority, ScrubStatus};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::codec;
use crate::error::{NetError, ProtoError};
use crate::frame::{read_frame_buffered, write_frames, FrameDecoder};
use crate::proto::{
    not_the_reply, Checkpointed, Outgoing, RemoteAnswer, Request, RequestRef, Response,
};

/// Tuning knobs of [`NetClient`].
#[derive(Debug, Clone, Copy)]
pub struct NetClientConfig {
    /// Dial timeout per connection attempt.
    pub connect_timeout: Duration,
    /// Socket read timeout while waiting for a response frame.
    pub read_timeout: Duration,
    /// Socket write timeout for request frames.
    pub write_timeout: Duration,
    /// Total attempts per idempotent request (first try included).
    pub attempts: u32,
    /// Backoff between attempts, multiplied by the attempt number.
    pub backoff: Duration,
    /// Upper bound on the random extra delay added to every backoff
    /// sleep. Zero disables jitter entirely.
    pub jitter: Duration,
    /// Seed for the jitter generator: the sleep sequence is a pure
    /// function of this seed, so tests replay byte-identically.
    pub jitter_seed: u64,
    /// Total attempts for an idempotent request answered with a typed
    /// busy refusal (first try included); non-idempotent requests
    /// surface busy on the first refusal.
    pub busy_attempts: u32,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            attempts: 3,
            backoff: Duration::from_millis(50),
            jitter: Duration::from_millis(20),
            jitter_seed: 0,
            busy_attempts: 3,
        }
    }
}

/// A blocking `ctxpref` client over one cached TCP connection.
pub struct NetClient {
    addr: String,
    cfg: NetClientConfig,
    conn: Option<Conn>,
    next_id: u64,
    jitter_rng: StdRng,
}

/// One live connection, the decoder its responses are read through and
/// the buffer its requests are framed into: made and dropped together,
/// so no byte outlives its connection.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
}

/// A request buffer that one large request grew past this gives the
/// memory back before the next, like the decoder after a large frame.
const REQUEST_BUF_KEEP: usize = 16 * 1024;

impl Conn {
    /// The connection's request buffer, emptied for the next frames.
    fn request_buf(&mut self) -> &mut Vec<u8> {
        self.out.clear();
        self.out.shrink_to(REQUEST_BUF_KEEP);
        &mut self.out
    }

    /// Read the next response frame through the decoder; its payload is
    /// lent out of the decoder's buffer.
    fn read_frame(&mut self) -> Result<&[u8], NetError> {
        read_frame_buffered(&mut self.stream, &mut self.decoder)?.ok_or_else(|| {
            NetError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "server closed the connection before responding",
            ))
        })
    }

    /// Bytes still buffered once every awaited frame was read: the
    /// server said something nobody asked for, so the stream is not
    /// answering what was asked.
    fn expect_drained(&self, after: &str) -> Result<(), NetError> {
        match self.decoder.buffered() {
            0 => Ok(()),
            n => Err(NetError::UnexpectedResponse {
                got: format!("{n} unsolicited bytes after {after}"),
            }),
        }
    }
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .finish()
    }
}

impl NetClient {
    /// A client for the server at `addr` (e.g. `"127.0.0.1:7878"`).
    /// Does not dial until the first request.
    pub fn connect(addr: impl Into<String>, cfg: NetClientConfig) -> Self {
        Self {
            addr: addr.into(),
            cfg,
            conn: None,
            next_id: 1,
            jitter_rng: StdRng::seed_from_u64(cfg.jitter_seed),
        }
    }

    /// The address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn dial(&self) -> Result<TcpStream, NetError> {
        let mut last: Option<std::io::Error> = None;
        for resolved in self.addr.to_socket_addrs()? {
            match dial_one(&resolved, &self.cfg) {
                Ok(s) => return Ok(s),
                Err(e) => last = Some(e),
            }
        }
        Err(NetError::Io(last.unwrap_or_else(|| {
            std::io::Error::other(format!("address {} resolved to nothing", self.addr))
        })))
    }

    fn ensure_conn(&mut self) -> Result<(), NetError> {
        if self.conn.is_none() {
            self.conn = Some(Conn {
                stream: self.dial()?,
                decoder: FrameDecoder::new(),
                out: Vec::new(),
            });
        }
        Ok(())
    }

    /// The cached connection, or a typed [`NetError::NotConnected`].
    /// The previous implementation panicked on this path via
    /// `expect("connection just established")` when a connect raced a
    /// concurrent teardown; the caller can redial on the typed error.
    fn require_conn(&mut self) -> Result<&mut Conn, NetError> {
        self.conn.as_mut().ok_or(NetError::NotConnected)
    }

    /// One request/response exchange on the cached connection,
    /// establishing it if needed: the request framed in place into the
    /// connection's buffer and sent in one write, the response decoded
    /// where it landed in the connection's decoder. Any failure tears
    /// the connection down so the next attempt starts from a clean dial — and so does a
    /// connection-level (id 0) reply, which the server closes behind,
    /// or bytes buffered beyond the response; a reply under the
    /// request's own id, even a busy, leaves the connection cached.
    fn exchange(
        &mut self,
        req: Outgoing<'_>,
        budget_ms: u64,
        tier: Priority,
    ) -> Result<Response, NetError> {
        self.ensure_conn()?;
        let id = self.next_id;
        // Never 0, even on wrap: that id means "about the connection".
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let conn = self.require_conn()?;
        let result = (|| {
            codec::put_request_frame(conn.request_buf(), id, req, budget_ms, tier)?;
            write_frames(&mut conn.stream, &conn.out, 1)?;
            let wire = codec::decode_response(conn.read_frame()?);
            conn.expect_drained("the response")?;
            Ok(wire)
        })();
        let wire = match result {
            Ok(Ok(wire)) if wire.id == id => return Ok(wire.resp),
            Ok(decoded) => decoded,
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        // Anything but the awaited id ends this connection: the server
        // closes behind a connection-level (id 0) reply, and a frame
        // for some other id — or one that does not decode — means the
        // stream is desynchronized.
        self.conn = None;
        match wire {
            Ok(wire) if wire.id == codec::CONNECTION_ID => Ok(wire.resp),
            Ok(wire) => Err(NetError::UnexpectedResponse {
                got: format!("response for request id {} while awaiting {id}", wire.id),
            }),
            Err(e) => Err(NetError::Proto(ProtoError::from(e))),
        }
    }

    /// One backoff delay: linear in the attempt number, plus a
    /// deterministic random fan-out bounded by the configured jitter.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let mut delay = self.cfg.backoff * attempt;
        let ceiling = self.cfg.jitter.as_nanos().min(u128::from(u64::MAX)) as u64;
        if ceiling > 0 {
            delay += Duration::from_nanos(self.jitter_rng.random_range(0..=ceiling));
        }
        delay
    }

    /// Sleep before a retry: the server's hint when a busy refusal gave
    /// one, the linear backoff otherwise — clamped so the sleep never
    /// outlives the caller's remaining budget.
    fn retry_sleep(&mut self, attempt: u32, hint: Duration, deadline: Option<Instant>) {
        let delay = if hint.is_zero() {
            self.backoff_delay(attempt)
        } else {
            hint
        };
        clock::sleep_within(delay, deadline);
    }

    /// Send `req`, reconnecting and retrying (idempotent requests
    /// only) on transport failures, and retrying busy refusals under
    /// their own cap. No end-to-end budget: the server enforces only
    /// its own per-request deadline, and the request travels at
    /// interactive priority.
    pub fn request(&mut self, req: &Request) -> Result<Response, NetError> {
        self.request_enveloped(req, None, Priority::Interactive)
    }

    /// Send `req` with an end-to-end `budget` and a priority `tier`
    /// threaded through the wire envelope.
    ///
    /// The budget starts ticking **here**, on the caller's side of the
    /// wire: every attempt re-encodes the request with only the budget
    /// that remains, so the server never works past the point where the
    /// caller has stopped waiting — even after retries and backoff
    /// sleeps ate most of the allowance. When it runs out client-side
    /// the typed [`NetError::BudgetExhausted`] is returned without
    /// another attempt. `None` means unconstrained (the envelope
    /// carries budget 0, which the server reads as "no caller bound").
    pub fn request_enveloped(
        &mut self,
        req: &Request,
        budget: Option<Duration>,
        tier: Priority,
    ) -> Result<Response, NetError> {
        self.send(Outgoing::Owned(req), budget, tier)
    }

    /// [`Self::request_enveloped`] for a request owned or lent: an
    /// [`Outgoing::Lent`] request travels as the same bytes and is
    /// retried alike, with no owned [`Request`] built to send it.
    pub fn send(
        &mut self,
        req: Outgoing<'_>,
        budget: Option<Duration>,
        tier: Priority,
    ) -> Result<Response, NetError> {
        self.retrying(req.is_idempotent(), budget, |client, budget_ms| {
            match client.exchange(req, budget_ms, tier)? {
                // The server answered but had no capacity — for this
                // request or, at admission, for the connection.
                Response::Busy {
                    limit,
                    retry_after_ms,
                } => Err(NetError::ServerBusy {
                    limit,
                    retry_after: Duration::from_millis(retry_after_ms),
                }),
                // Any other decoded response is an answer, even a
                // refusal: the server made a decision, so no retry.
                Response::Err { kind, message } => Err(NetError::Remote { kind, message }),
                resp => Ok(resp),
            }
        })
    }

    /// Ship every request down the socket before reading a single
    /// response, then collect the (possibly out-of-order) responses
    /// and return them **in request order**. This is the pipelined
    /// path: one connection, many requests in flight, the round-trip
    /// latency paid once for the burst instead of once per request.
    ///
    /// Retry policy matches [`Self::request`], applied to the burst as
    /// a whole: transport failures and busy refusals are retried only
    /// if **every** request in the burst is idempotent.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, NetError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let idempotent = reqs.iter().all(Request::is_idempotent);
        self.retrying(idempotent, None, |client, _| client.pipeline_once(reqs))
    }

    /// The one retry loop of [`Self::request_enveloped`] and
    /// [`Self::pipeline`]: run `attempt` with the budget that remains
    /// (in the envelope's milliseconds, 0 when there is none) until it
    /// answers. A typed [`NetError::ServerBusy`] is retried under
    /// [`NetClientConfig::busy_attempts`], sleeping the server's hint;
    /// a transport failure under [`NetClientConfig::attempts`], sleeping
    /// the linear backoff. The two budgets are separate: a server that
    /// was briefly saturated and then lost the connection still gets
    /// its full transport retry allowance. Neither is spent unless
    /// `idempotent`, and every sleep ends where the budget does.
    fn retrying<T>(
        &mut self,
        idempotent: bool,
        budget: Option<Duration>,
        mut attempt: impl FnMut(&mut Self, u64) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let deadline = budget.map(|b| clock::now() + b);
        let (tries, busy_tries) = if idempotent {
            (self.cfg.attempts.max(1), self.cfg.busy_attempts.max(1))
        } else {
            (1, 1)
        };
        let (mut tried, mut busy_tried) = (0, 0);
        loop {
            let budget_ms = match deadline {
                None => 0,
                Some(d) => {
                    let remaining = clock::remaining(d);
                    if remaining.is_zero() {
                        return Err(NetError::BudgetExhausted {
                            budget: budget.unwrap_or_default(),
                        });
                    }
                    (remaining.as_millis() as u64).max(1)
                }
            };
            match attempt(self, budget_ms) {
                Err(NetError::ServerBusy { limit, retry_after }) => {
                    busy_tried += 1;
                    if busy_tried >= busy_tries {
                        return Err(NetError::ServerBusy { limit, retry_after });
                    }
                    self.retry_sleep(busy_tried, retry_after, deadline);
                }
                Err(e @ (NetError::Io(_) | NetError::Frame(_))) => {
                    tried += 1;
                    if tried >= tries {
                        return if tried == 1 {
                            Err(e)
                        } else {
                            Err(NetError::RetriesExhausted {
                                attempts: tried,
                                last: e.to_string(),
                            })
                        };
                    }
                    self.retry_sleep(tried, Duration::ZERO, deadline);
                }
                // An answer, a refusal, or protocol confusion, which is
                // not transient.
                done => return done,
            }
        }
    }

    fn pipeline_once(&mut self, reqs: &[Request]) -> Result<Vec<Response>, NetError> {
        self.ensure_conn()?;
        let base = self.next_id;
        self.next_id = self.next_id.wrapping_add(reqs.len() as u64).max(1);
        let conn = self.require_conn()?;
        let result = (|| {
            // The burst framed in place into the connection's buffer and
            // sent in one write, and bulk reads through its decoder on
            // the way back: the syscall count is per burst, not per
            // request.
            let burst = conn.request_buf();
            for (i, req) in reqs.iter().enumerate() {
                let id = base + i as u64;
                codec::put_request_frame(
                    burst,
                    id,
                    Outgoing::Owned(req),
                    0,
                    Priority::Interactive,
                )?;
            }
            write_frames(&mut conn.stream, &conn.out, reqs.len())?;
            let mut slots: Vec<Option<Response>> = Vec::new();
            slots.resize_with(reqs.len(), || None);
            let mut remaining = reqs.len();
            while remaining > 0 {
                let wire = codec::decode_response(conn.read_frame()?)
                    .map_err(|e| NetError::Proto(ProtoError::from(e)))?;
                if wire.id == codec::CONNECTION_ID {
                    // Connection-level mid-pipeline: a busy refusal at
                    // admission (typed for retry) or a framing refusal.
                    return Err(match wire.resp {
                        Response::Busy {
                            limit,
                            retry_after_ms,
                        } => NetError::ServerBusy {
                            limit,
                            retry_after: Duration::from_millis(retry_after_ms),
                        },
                        other => not_the_reply(other),
                    });
                }
                let slot = wire
                    .id
                    .checked_sub(base)
                    .and_then(|i| usize::try_from(i).ok())
                    .and_then(|i| slots.get_mut(i));
                match slot {
                    Some(slot @ None) => {
                        *slot = Some(wire.resp);
                        remaining -= 1;
                    }
                    // An unknown or duplicated id: the stream is
                    // not answering what was asked.
                    _ => {
                        return Err(NetError::UnexpectedResponse {
                            got: format!("response for unknown request id {}", wire.id),
                        })
                    }
                }
            }
            conn.expect_drained("the burst")?;
            Ok(slots.into_iter().flatten().collect())
        })();
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Ship several requests in one [`Request::Batch`] frame and
    /// return the per-item responses, in order. The server stops at
    /// the first failing item: the returned vector is then shorter
    /// than `requests`, ending with that item's typed failure.
    pub fn batch(&mut self, requests: Vec<Request>) -> Result<Vec<Response>, NetError> {
        self.call(&Request::Batch { requests })
    }

    /// Bulk-insert equality preferences for one user in a single
    /// frame: `(descriptor, attr, value, score)` per item. Returns how
    /// many applied; a failing item aborts the rest of the batch and
    /// surfaces typed (the applied prefix stays applied).
    pub fn insert_preferences(
        &mut self,
        user: &str,
        items: &[(&str, &str, &str, f64)],
    ) -> Result<usize, NetError> {
        let requests = items
            .iter()
            .map(|(descriptor, attr, value, score)| Request::InsertPref {
                user: user.to_string(),
                descriptor: descriptor.to_string(),
                attr: attr.to_string(),
                value: value.to_string(),
                score: *score,
            })
            .collect();
        let responses = self.batch(requests)?;
        let applied = responses.len();
        for resp in responses {
            <()>::try_from(resp)?;
        }
        Ok(applied)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        self.call(&Request::Ping)
    }

    /// Rank `user`'s tuples by `attr` under a context state given as
    /// hierarchy value names, returning the top `k` (with ties).
    ///
    /// `deadline` doubles as the end-to-end budget: it is carried in
    /// the wire envelope, decremented across retries, and the server
    /// clamps its own execution deadline to what remains.
    pub fn query(
        &mut self,
        user: &str,
        attr: &str,
        k: usize,
        deadline: Duration,
        state: &[&str],
    ) -> Result<RemoteAnswer, NetError> {
        self.query_tiered(user, attr, k, deadline, state, Priority::Interactive)
    }

    /// [`Self::query`] at an explicit priority tier. Under overload
    /// the server sheds [`Priority::Maintenance`] first, then
    /// [`Priority::Bulk`]; [`Priority::Interactive`] is shed only by
    /// the hard in-flight backstop.
    pub fn query_tiered(
        &mut self,
        user: &str,
        attr: &str,
        k: usize,
        deadline: Duration,
        state: &[&str],
        tier: Priority,
    ) -> Result<RemoteAnswer, NetError> {
        let req = RequestRef::ranked(false, user, attr, k, deadline, state);
        self.send(Outgoing::Lent(req), Some(deadline), tier)?
            .try_into()
    }

    /// Top-k query: the server evaluates only the best `k` rows —
    /// from a materialized view when one is current (the answer's
    /// `step` reads `view`), early-terminating ranking otherwise —
    /// and the wire carries only those rows. Same deadline/budget
    /// envelope as [`Self::query`].
    pub fn query_topk(
        &mut self,
        user: &str,
        attr: &str,
        k: usize,
        deadline: Duration,
        state: &[&str],
    ) -> Result<RemoteAnswer, NetError> {
        self.query_topk_tiered(user, attr, k, deadline, state, Priority::Interactive)
    }

    /// [`Self::query_topk`] at an explicit priority tier.
    pub fn query_topk_tiered(
        &mut self,
        user: &str,
        attr: &str,
        k: usize,
        deadline: Duration,
        state: &[&str],
        tier: Priority,
    ) -> Result<RemoteAnswer, NetError> {
        let req = RequestRef::ranked(true, user, attr, k, deadline, state);
        self.send(Outgoing::Lent(req), Some(deadline), tier)?
            .try_into()
    }

    /// The server's view-catalog status report, rendered.
    pub fn views_status(&mut self) -> Result<String, NetError> {
        self.call(&Request::ViewsStatus)
    }

    /// Rank `user`'s tuples under an extended context descriptor (the
    /// exploratory library path).
    pub fn query_descriptor(
        &mut self,
        user: &str,
        attr: &str,
        k: usize,
        descriptor: &str,
    ) -> Result<RemoteAnswer, NetError> {
        self.call(&Request::QueryDescriptor {
            user: user.to_string(),
            attr: attr.to_string(),
            k,
            descriptor: descriptor.to_string(),
        })
    }

    /// Create a user with an empty profile.
    pub fn add_user(&mut self, user: &str) -> Result<(), NetError> {
        self.call(&Request::AddUser {
            user: user.to_string(),
        })
    }

    /// Insert an equality preference from its textual parts.
    pub fn insert_preference(
        &mut self,
        user: &str,
        descriptor: &str,
        attr: &str,
        value: &str,
        score: f64,
    ) -> Result<(), NetError> {
        let req = RequestRef::InsertPref {
            user,
            descriptor,
            attr,
            value,
            score,
        };
        self.send(Outgoing::Lent(req), None, Priority::Interactive)?
            .try_into()
    }

    /// Force a checkpoint on every live node of the server; returns
    /// each node's new generation.
    pub fn checkpoint(&mut self) -> Result<Checkpointed, NetError> {
        self.call(&Request::Checkpoint)
    }

    /// The server's service counters, rendered. Includes one
    /// `fault <site> <hits>` line per fault-injection site of the
    /// currently installed plan, if any.
    pub fn stats(&mut self) -> Result<String, NetError> {
        self.call(&Request::Stats)
    }

    /// Run one scrub pass on the server now; the caller matches the
    /// pass's figures out of the [`Response::ScrubReport`].
    pub fn scrub(&mut self) -> Result<Response, NetError> {
        self.request(&Request::Scrub)
    }

    /// The server's self-healing counters, without running a pass.
    pub fn scrub_status(&mut self) -> Result<ScrubStatus, NetError> {
        self.call(&Request::ScrubStatus)
    }

    /// [`Self::request`], answered by the reply `T` it calls for.
    fn call<T: TryFrom<Response, Error = NetError>>(
        &mut self,
        req: &Request,
    ) -> Result<T, NetError> {
        self.request(req)?.try_into()
    }
}

fn dial_one(addr: &SocketAddr, cfg: &NetClientConfig) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(addr, cfg.connect_timeout)?;
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the `expect("connection just established")`
    /// panic: a client whose connection vanished between establishment
    /// and use must surface the typed [`NetError::NotConnected`], not
    /// abort the process.
    #[test]
    fn missing_connection_is_a_typed_error_not_a_panic() {
        let mut client = NetClient::connect("127.0.0.1:9", NetClientConfig::default());
        assert!(client.conn.is_none());
        match client.require_conn() {
            Err(NetError::NotConnected) => {}
            other => panic!("expected NotConnected, got {other:?}"),
        }
        // And the rendered form names the race for operators.
        assert!(NetError::NotConnected
            .to_string()
            .contains("no live connection"));
    }
}
