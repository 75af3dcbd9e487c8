//! The TCP front-end: an event-driven, pipelined [`NetServer`] in
//! front of a shared [`CtxPrefService`].
//!
//! One **reactor thread** owns every socket: a hand-rolled epoll loop
//! ([`crate::reactor`]) with nonblocking reads/writes and a
//! per-connection state machine (incremental frame decoder, pending
//! output queue, idle clock). No thread ever blocks on a peer, and
//! there is no second pool. Who answers what:
//!
//! * **The reactor** answers what it can without waiting: the
//!   connection-level refusals below, a body that fails to decode
//!   (typed, under its id), a `Query`/`TopK` that admission sheds (a
//!   typed [`Response::Busy`]), and what the service's two entries that
//!   never wait take on. [`CtxPrefService::try_read_with`] answers an
//!   admitted `TopK` whose user's shard is free and whose answer a
//!   current materialized view holds, and then any admitted
//!   `Query`/`TopK` while no job is queued for the workers and the
//!   user's shard is free, ranked through the same ladder a worker runs
//!   (with a job queued the read waits its turn, so it never jumps the
//!   queue). [`CtxPrefService::try_edit`] applies an `InsertPref`,
//!   `UpdateScore` or `RemovePref` on a service that writes directly to
//!   memory or logs under group commit, only if the user's stripe write
//!   lock — and a logged edit's WAL shard mutex — is free this instant.
//!   The reactor never waits on a lock and never fsyncs. It answers
//!   none of these under an installed fault plan.
//!   Admission runs on the reactor before anything is queued. A read
//!   the reactor ranks never queued, so it feeds the sojourn shedder
//!   no sample; and a pipelined burst of cold reads on an idle pool is
//!   ranked one after another on the reactor rather than spread over
//!   the workers.
//! * **The service's workers** run everything else
//!   ([`CtxPrefService::spawn`]) through dispatch (`dispatch.rs`) —
//!   replicated and per-record logged writes, user adds and removals,
//!   `QueryDescriptor` reads, batches, migration and admin verbs, and
//!   whatever the reactor handed back — and hand the reactor a
//!   finished frame over a queue and a waker; the reactor queues it
//!   for the socket as it is.
//!
//! The reactor reads a request without copying it: a verb it may
//! answer (`Query`, `TopK` and the three preference edits) is decoded as
//! a [`crate::RequestRef`] lent from the payload the frame decoder
//! lends, and only a request handed to a worker is made owned, then. A
//! view hit is answered in one pass: the service probes the view and
//! renders its rows straight into the response frame while the view is
//! read-locked, so the hit allocates the state it parsed and the frame,
//! and nothing else.
//!
//! Either way a response is framed once, where it is produced: the
//! payload is encoded in place behind the frame header, and a ranked
//! answer's rows go from the relation straight into it.
//!
//! Responsibilities, and where each is enforced:
//!
//! * **Connection admission** — a hard cap on concurrent connections.
//!   A connection over the cap receives one typed [`Response::Busy`]
//!   frame and is closed, never parked on an unbounded queue.
//! * **One dialect** — every frame is `ctxpref2` ([`crate::codec`]).
//!   What the server has to say about the *connection* rather than a
//!   request — the admission busy, the refusal of a torn frame or of
//!   a payload that is not `ctxpref2` at all — travels under the
//!   reserved request id 0 ([`codec::CONNECTION_ID`]), and the
//!   connection closes once that frame is flushed.
//! * **Pipelining** — a connection may hold up to
//!   [`NetServerConfig::max_pipeline`] requests on the workers plus
//!   answers queued for its socket; responses carry the request's id
//!   and may return **out of order**. Past the cap the reactor simply
//!   stops reading the socket — backpressure by TCP, not by queue
//!   growth, whoever answered.
//! * **Deadlines** — an idle connection (no bytes either way for
//!   [`NetServerConfig::read_timeout`], or output unwritable for
//!   [`NetServerConfig::write_timeout`]) is closed by the reactor's
//!   sweep; the client-requested query deadline is clamped to
//!   [`NetServerConfig::max_deadline`] before it reaches the service,
//!   on the reactor or on a worker.
//! * **Panic isolation** — dispatch runs under `catch_unwind` on the
//!   service's workers, and what the reactor answers contains its own
//!   (a panicking view probe hands its read to a worker, a panicking
//!   ranked read or edit answers typed); a panicking request answers
//!   with a typed error.
//! * **Graceful drain** — [`NetServer::shutdown`] stops accepting,
//!   lets in-flight requests finish (bounded by the drain timeout),
//!   waits until every request it queued on the service has run, and
//!   returns how many connections had to be cut.
//!
//! Socket-option failures on accept (`set_nonblocking`, `set_nodelay`)
//! close that connection and are counted in [`NetServer::net_stats`].

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ctxpref_bytes::LentMessage;
use ctxpref_faults::sites::{
    NET_ACCEPT, NET_CONN_DELAY, NET_CONN_DROP, NET_FRAME_READ, NET_FRAME_WRITE,
};
use ctxpref_faults::{clock, hit, hit_io};
use ctxpref_service::{Admitted, CtxPrefService};

use crate::codec::{self, Body, WireRequest};
use crate::dispatch::{answer_now, dispatch_frame, err_of};
use crate::frame::{FrameDecoder, Framed};
use crate::proto::Response;
use crate::reactor::{Epoll, Interest, Slab, Token, Waker};

mod config;
mod conn;
pub use config::NetServerConfig;
use config::{NetStats, StatsCells};
use conn::Conn;

/// A running TCP server in front of one shared service.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor_thread: Option<JoinHandle<()>>,
}

/// What the server, its reactor and every request the reactor queues
/// on the service share. Each queued job holds one handle, so the
/// server knows its jobs are gone when it holds the last.
#[derive(Debug)]
struct Shared {
    service: Arc<CtxPrefService>,
    cfg: NetServerConfig,
    /// Finished responses on their way back to the reactor, each a
    /// whole frame (or why none could be built) under its connection's
    /// token.
    completions: Mutex<Vec<(Token, Framed)>>,
    waker: Waker,
    shutdown: AtomicBool,
    /// Connections currently being served.
    active: AtomicUsize,
    /// Connections cut when the drain window closed.
    undrained: AtomicUsize,
    stats: StatsCells,
}

impl Shared {
    /// Run one decoded request on a service worker and post its
    /// response back to the reactor.
    fn run(&self, token: Token, wire: &WireRequest, admitted: Option<Admitted>) {
        // Injected stall: `hit` sleeps inside for Delay rules. Runs
        // here — on a service worker — so a scripted delay never
        // stalls the reactor thread itself.
        let _ = hit(NET_CONN_DELAY);
        let frame = dispatch_frame(
            &self.service,
            &self.cfg,
            wire.id,
            &wire.req,
            wire.budget_ms,
            wire.tier,
            admitted,
        );
        // Wake the reactor only on the empty→nonempty transition: it
        // drains the whole queue per wake, and the push shares the
        // mutex with the emptiness check, so a completion pushed behind
        // an undrained one is collected by the wake already pending.
        let needs_wake = match self.completions.lock() {
            Ok(mut queue) => {
                let was_empty = queue.is_empty();
                queue.push((token, frame));
                was_empty
            }
            Err(_) => true,
        };
        if needs_wake {
            self.waker.wake();
        }
    }
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving `service`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<CtxPrefService>,
        cfg: NetServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            service,
            cfg,
            completions: Mutex::default(),
            waker: Waker::new()?,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            undrained: AtomicUsize::new(0),
            stats: StatsCells::default(),
        });
        let reactor = Reactor {
            listener: Some(listener),
            epoll: Epoll::new()?,
            shared: Arc::clone(&shared),
            cfg,
            conns: Slab::new(),
            drain_deadline: None,
            spare: Vec::new(),
            touched: Vec::new(),
        };
        let reactor_thread = std::thread::Builder::new()
            .name(format!("ctxpref-net-reactor-{}", addr.port()))
            .spawn(move || reactor.run())?;
        Ok(Self {
            addr,
            shared,
            reactor_thread: Some(reactor_thread),
        })
    }

    /// The address the server is actually listening on (resolves an
    /// ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Front-end counters (accepts, busy refusals, socket-option
    /// failures, frames in/out).
    pub fn net_stats(&self) -> NetStats {
        self.shared.stats.snapshot()
    }

    /// Graceful drain: stop accepting, let in-flight requests finish
    /// (bounded by the configured drain timeout), wait until every
    /// request queued on the service has run, and return how many
    /// connections had to be cut un-drained (0 on a clean drain).
    pub fn shutdown(mut self) -> usize {
        self.begin_shutdown();
        self.shared.undrained.load(Ordering::Acquire)
    }

    fn begin_shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.waker.wake();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        // Every job still queued on (or running in) the service holds a
        // handle on `shared`, and through it on the service. Wait them
        // out: were a job to drop the last service handle, the service
        // would stop from inside its own worker and join itself.
        while Arc::strong_count(&self.shared) > 1 {
            clock::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::Acquire) {
            self.begin_shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

struct Reactor {
    listener: Option<TcpListener>,
    epoll: Epoll,
    shared: Arc<Shared>,
    cfg: NetServerConfig,
    conns: Slab<Conn>,
    drain_deadline: Option<Instant>,
    /// The completion queue's other half: swapped with it on each wake
    /// and drained, so neither vector is allocated per wake.
    spare: Vec<(Token, Framed)>,
    /// Connections a completion wake touched, reused across wakes.
    touched: Vec<Token>,
}

impl Reactor {
    fn run(mut self) {
        if let Some(listener) = &self.listener {
            if self
                .epoll
                .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)
                .is_err()
            {
                return;
            }
        }
        if self
            .epoll
            .register(
                self.shared.waker.reader_fd(),
                WAKER_TOKEN,
                Interest::READABLE,
            )
            .is_err()
        {
            return;
        }

        let mut events = Vec::with_capacity(1024);
        let mut last_sweep = clock::now();
        loop {
            events.clear();
            // A bounded tick so idle sweeps and the shutdown flag are
            // observed even on a silent socket set.
            let _ = self
                .epoll
                .wait(&mut events, Some(Duration::from_millis(100)));

            for ev in events.iter().copied() {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.shared.waker.drain(),
                    raw => {
                        let token = Token(raw);
                        if ev.hangup && !ev.readable {
                            self.close(token);
                            continue;
                        }
                        if ev.readable {
                            self.read_ready(token);
                        }
                        if ev.writable {
                            self.serve(token);
                        }
                        self.refresh_interest(token);
                    }
                }
            }

            self.drain_completions();

            let now = clock::now();
            if now.duration_since(last_sweep) >= Duration::from_millis(500) {
                last_sweep = now;
                self.sweep_idle(now);
            }

            if self.shared.shutdown.load(Ordering::Acquire) && self.step_shutdown(now) {
                return;
            }
        }
    }

    /// Progress the graceful drain; true when the reactor should exit.
    fn step_shutdown(&mut self, now: Instant) -> bool {
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.deregister(listener.as_raw_fd());
            drop(listener);
            self.drain_deadline = Some(now + self.cfg.drain_timeout);
        }
        // Close everything with no work in flight and nothing queued.
        for token in self.conns.tokens() {
            let idle = self
                .conns
                .get_mut(token)
                .map(|c| c.in_flight == 0 && c.out.is_empty())
                .unwrap_or(true);
            if idle {
                self.close(token);
            }
        }
        if self.conns.is_empty() {
            return true;
        }
        if self.drain_deadline.is_some_and(|d| now >= d) {
            // Drain window over: cut the stragglers and report them.
            let leftover = self.conns.len();
            self.shared.undrained.store(leftover, Ordering::Release);
            for token in self.conns.tokens() {
                self.close(token);
            }
            return true;
        }
        false
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            // `WouldBlock` (the backlog is empty) or a real failure.
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Injected accept failure: the connection is refused, the
            // listener stays up.
            if hit(NET_ACCEPT).is_err() {
                continue;
            }
            if self.conns.len() >= self.cfg.max_connections {
                self.shared
                    .stats
                    .refused_busy
                    .fetch_add(1, Ordering::AcqRel);
                // Best-effort typed refusal under the connection id
                // (no request has been read), then close. The socket
                // is fresh, so the small frame fits the send buffer.
                if let Ok(frame) = codec::response_frame(
                    codec::CONNECTION_ID,
                    &Response::Busy {
                        limit: self.cfg.max_connections,
                        retry_after_ms: self.cfg.busy_retry_after.as_millis() as u64,
                    },
                ) {
                    let mut stream = stream;
                    let _ = stream.write_all(&frame);
                }
                continue;
            }
            // Socket options are load-bearing (a blocking fd would
            // wedge the whole reactor): a failure closes the
            // connection and is counted, not ignored.
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                self.shared
                    .stats
                    .sockopt_failures
                    .fetch_add(1, Ordering::AcqRel);
                continue;
            }
            let fd = stream.as_raw_fd();
            let token = self.conns.insert(Conn {
                stream,
                decoder: FrameDecoder::new(),
                out: VecDeque::new(),
                out_pos: 0,
                in_flight: 0,
                last_activity: clock::now(),
                write_stalled_since: None,
                closing: false,
                registered: Interest::READABLE,
            });
            if self
                .epoll
                .register(fd, token.0, Interest::READABLE)
                .is_err()
            {
                self.conns.remove(token);
                continue;
            }
            self.shared.stats.accepted.fetch_add(1, Ordering::AcqRel);
            self.shared
                .active
                .store(self.conns.len(), Ordering::Release);
        }
    }

    fn read_ready(&mut self, token: Token) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.paused(&self.cfg) {
                break;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // Peer closed. Anything still in flight finishes
                    // into a dead socket; reclaim now.
                    self.close(token);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = clock::now();
                    conn.decoder.extend(&buf[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.serve(token);
    }

    /// Decode and answer what the connection has buffered, flushing as
    /// it goes: an answer the reactor gave itself holds a pipeline slot
    /// until written, so a flush can let decoding resume. Stops once
    /// the decoder runs dry, or the cap holds after the flush (a
    /// completion or a writable socket resumes it).
    fn serve(&mut self, token: Token) {
        loop {
            let at_cap = self.pump_frames(token);
            self.write_ready(token);
            let cfg = &self.cfg;
            if !at_cap || self.conns.get_mut(token).is_none_or(|c| c.paused(cfg)) {
                return;
            }
        }
    }

    /// Drain complete frames from the connection's decoder into the
    /// reactor's own answers or the workers, respecting the pipeline
    /// cap; each request is decoded from the payload the decoder lends
    /// where it landed. True iff it stopped at the cap with frames
    /// possibly left.
    fn pump_frames(&mut self, token: Token) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return false;
            };
            if conn.paused(&self.cfg) {
                return true;
            }
            let payload = match conn.decoder.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => return false,
                Err(e) => {
                    // Torn/hostile framing: the stream is misaligned
                    // beyond recovery.
                    self.refuse_connection(token, "frame", e.to_string());
                    return false;
                }
            };
            // The per-frame fault gauntlet the blocking server ran
            // inside `read_frame`: an injected read fault or
            // connection drop severs the conversation here too.
            if hit_io(NET_FRAME_READ).is_err() || hit(NET_CONN_DROP).is_err() {
                self.close(token);
                return false;
            }
            self.shared.stats.frames_in.fetch_add(1, Ordering::AcqRel);
            if !codec::is_binary(payload) {
                // A peer speaking something else (a text protocol, a
                // probe): nothing it sends next can be trusted to be
                // a request, so it gets one typed answer and no more.
                self.refuse_connection(
                    token,
                    "proto",
                    format!(
                        "payload does not start with the ctxpref2 magic {:#04x}",
                        codec::BINARY_MAGIC
                    ),
                );
                return false;
            }
            let (envelope, body) = match codec::decode_lent(payload) {
                Ok(decoded) => decoded,
                Err(e) => {
                    // The body was malformed but the header may still
                    // name the request — answer typed under its id so
                    // the pipelined client can match the refusal.
                    let id = codec::request_id_of(payload).unwrap_or(codec::CONNECTION_ID);
                    let refusal = Response::Err {
                        kind: "proto".to_string(),
                        message: e.to_string(),
                    };
                    self.enqueue_frame(token, codec::response_frame(id, &refusal));
                    continue;
                }
            };
            // A verb the reactor may answer is lent from the payload and
            // answered here if it can be without waiting — a shed, a
            // view hit, a ranked read while no job is queued, a
            // preference edit on a free stripe — so it takes no thread
            // hop and no copy; otherwise it is made owned only now, and
            // queues with its admission ticket.
            let (req, admitted) = match body {
                Body::Lent(req) => {
                    match answer_now(&self.shared.service, &self.shared.cfg, envelope, req) {
                        Ok(frame) => {
                            self.enqueue_frame(token, frame);
                            continue;
                        }
                        Err(admitted) => (req.owned(), admitted),
                    }
                }
                Body::Owned(req) => (req, None),
            };
            let wire = WireRequest {
                id: envelope.id,
                budget_ms: envelope.budget_ms,
                tier: envelope.tier,
                req,
            };
            let id = wire.id;
            let shared = Arc::clone(&self.shared);
            let job = move |admitted| shared.run(token, &wire, admitted);
            match self.shared.service.spawn(admitted, job) {
                Ok(()) => conn.in_flight += 1,
                Err(e) => self.enqueue_frame(token, codec::response_frame(id, &err_of(&e))),
            }
        }
    }

    /// Answer about the connection itself — one typed error under the
    /// reserved id — where the socket still works, then close once it
    /// (and any responses still in flight) has flushed.
    fn refuse_connection(&mut self, token: Token, kind: &str, message: String) {
        let refusal = Response::Err {
            kind: kind.to_string(),
            message,
        };
        self.enqueue_frame(token, codec::response_frame(codec::CONNECTION_ID, &refusal));
        if let Some(conn) = self.conns.get_mut(token) {
            conn.closing = true;
        }
        self.write_ready(token);
    }

    fn drain_completions(&mut self) {
        // Swap the queue with the reactor's spare, so the workers push
        // into an emptied vector that keeps its capacity: once both
        // have grown to a wake's worth, a wake allocates nothing.
        let Ok(mut queue) = self.shared.completions.lock() else {
            return;
        };
        if queue.is_empty() {
            return;
        }
        std::mem::swap(&mut *queue, &mut self.spare);
        drop(queue);
        let mut done = std::mem::take(&mut self.spare);
        let mut touched = std::mem::take(&mut self.touched);
        for (token, frame) in done.drain(..) {
            let Some(conn) = self.conns.get_mut(token) else {
                continue;
            };
            conn.in_flight = conn.in_flight.saturating_sub(1);
            self.enqueue_frame(token, frame);
            if !touched.contains(&token) {
                touched.push(token);
            }
        }
        // Flush once per connection rather than once per completion:
        // responses that completed together leave together, and the
        // pipeline budget they free lets waiting frames be decoded.
        for &token in &touched {
            self.serve(token);
            self.refresh_interest(token);
        }
        touched.clear();
        self.spare = done;
        self.touched = touched;
    }

    /// Queue one finished response frame as it is — no copy. The caller
    /// flushes (`write_ready`) once it has enqueued everything it has
    /// for the connection. A response too big to frame closes the
    /// connection.
    fn enqueue_frame(&mut self, token: Token, frame: Framed) {
        // The per-frame write fault site the blocking server ran
        // inside `write_frame`.
        if hit_io(NET_FRAME_WRITE).is_err() {
            self.close(token);
            return;
        }
        let Ok(frame) = frame else {
            self.close(token);
            return;
        };
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        conn.out.push_back(frame);
        self.shared.stats.frames_out.fetch_add(1, Ordering::AcqRel);
    }

    fn write_ready(&mut self, token: Token) {
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.out.is_empty() {
                conn.write_stalled_since = None;
                break;
            }
            // Coalesce up to 64 queued frames into one vectored write,
            // through slices on the stack: a pipelined burst's
            // responses leave as one syscall, not one each.
            let res = {
                let mut slices = [IoSlice::new(&[]); 64];
                let mut used = 0;
                for (slot, frame) in slices.iter_mut().zip(&conn.out) {
                    let from = if used == 0 { conn.out_pos } else { 0 };
                    *slot = IoSlice::new(&frame[from..]);
                    used += 1;
                }
                conn.stream.write_vectored(&slices[..used])
            };
            match res {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(mut n) => {
                    conn.last_activity = clock::now();
                    conn.write_stalled_since = None;
                    while n > 0 {
                        let Some(front) = conn.out.front() else { break };
                        let rem = front.len() - conn.out_pos;
                        if n >= rem {
                            n -= rem;
                            conn.out.pop_front();
                            conn.out_pos = 0;
                        } else {
                            conn.out_pos += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    conn.write_stalled_since.get_or_insert_with(clock::now);
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if conn.closing && conn.out.is_empty() && conn.in_flight == 0 {
            self.close(token);
        }
    }

    fn refresh_interest(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let desired = conn.desired_interest(&self.cfg);
        if desired != conn.registered
            && self
                .epoll
                .reregister(conn.stream.as_raw_fd(), token.0, desired)
                .is_ok()
        {
            conn.registered = desired;
        }
    }

    fn sweep_idle(&mut self, now: Instant) {
        for token in self.conns.tokens() {
            let Some(conn) = self.conns.get_mut(token) else {
                continue;
            };
            let idle_too_long = conn.in_flight == 0
                && conn.out.is_empty()
                && now.duration_since(conn.last_activity) >= self.cfg.read_timeout;
            let write_wedged = conn
                .write_stalled_since
                .is_some_and(|since| now.duration_since(since) >= self.cfg.write_timeout);
            if idle_too_long || write_wedged {
                self.close(token);
            }
        }
    }

    fn close(&mut self, token: Token) {
        if let Some(conn) = self.conns.remove(token) {
            let _ = self.epoll.deregister(conn.stream.as_raw_fd());
            // Dropping the stream closes the fd; in-flight worker
            // completions for this token die against the slab's
            // generation check instead of reaching a reused slot.
        }
        self.shared
            .active
            .store(self.conns.len(), Ordering::Release);
    }
}
