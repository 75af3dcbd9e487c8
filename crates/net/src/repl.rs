//! Socket-backed replication: [`TcpTransport`] implements the
//! cluster's [`Transport`]/[`NodeTransport`] seam over real TCP, so a
//! [`Cluster`](ctxpref_replication::Cluster) spans processes instead
//! of a `HashMap`.
//!
//! Each registered node gets a [`ReplServer`]: a loopback listener
//! whose connections run (read frame → decode [`Envelope`] →
//! `ReplNode::handle` → encode [`Reply`] → write frame). Sends dial
//! the peer fresh each time — replication traffic is batchy, and a
//! per-send dial keeps partition semantics exact (a healed link works
//! on the next send, with no stale pooled socket to drain).
//!
//! The fault discipline mirrors [`InProcessTransport`] exactly — the
//! same sites fire in the same order (`repl.partition`,
//! `repl.send.drop`/`repl.heartbeat.drop`, `repl.send.delay`,
//! `repl.send.duplicate`), plus the socket-level `net.conn.drop` site
//! — so every existing chaos plan drives this transport unchanged.
//!
//! [`InProcessTransport`]: ctxpref_replication::InProcessTransport
//!
//! ## Envelope wire form
//!
//! The hot path — `records` shipments, one per acked write under
//! pipelining — travels binary: a frame payload of
//! `[0xC3 | version | from | epoch | shard | n | (lsn, payload)×n]`
//! with LEB128 varints and raw length-delimited record bytes. `0xC3`
//! cannot begin UTF-8 text, so the receiver tells the two forms apart
//! by the first byte. Every other message is cold, and each has
//! exactly one encoding: one frame of text lines in the storage
//! dialect (whitespace-escaped tokens; profiles reuse
//! [`write_profile`]/[`read_profile`] verbatim — the same sections the
//! checkpoint files store), as do all replies:
//!
//! ```text
//! repl1 <from> <epoch> snapshot <stripes>       lsns …, stripe/user/profile…
//! repl1 <from> <epoch> heartbeat
//! repl1 <from> <epoch> digest-request
//! repl1 <from> <epoch> resync <shard> <lsn> <n> user/profile…
//! ```

use std::collections::HashMap;
use std::io::BufRead;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ctxpref_context::ContextEnvironment;
use ctxpref_faults::hit;
use ctxpref_faults::sites::{
    NET_ACCEPT, NET_CONN_DROP, REPL_HEARTBEAT_DROP, REPL_PARTITION, REPL_SEND_DELAY,
    REPL_SEND_DROP, REPL_SEND_DUPLICATE,
};
use ctxpref_relation::Relation;
use ctxpref_replication::{
    Envelope, Message, NodeId, NodeTransport, ReplNode, Reply, Transport, TransportError,
};
use ctxpref_storage::{escape, read_profile, unescape, write_profile};
use parking_lot::{Mutex, RwLock};

use crate::codec::{put_bytes, put_uv, Dec};
use crate::error::{DecodeError, DecodeKind, ProtoError};
use crate::frame::{read_frame, write_frame};

/// Version tag leading every text-form replication message.
pub const REPL_PROTO_VERSION: &str = "repl1";

/// First payload byte of a binary replication envelope. Like the
/// request codec's `0xC2`, `0xC3` can never begin well-formed UTF-8,
/// so one byte tells the binary `records` form from the text forms.
pub const REPL_BINARY_MAGIC: u8 = 0xC3;

/// Version byte following [`REPL_BINARY_MAGIC`].
pub const REPL_BINARY_VERSION: u8 = 0x02;

// ---------------------------------------------------------------------------
// Envelope / Reply codec
// ---------------------------------------------------------------------------

fn next_line(cur: &mut &[u8]) -> Result<String, ProtoError> {
    let mut s = String::new();
    cur.read_line(&mut s)
        .map_err(|e| ProtoError::new(format!("reading replication line: {e}")))?;
    if s.is_empty() {
        return Err(ProtoError::new("replication message ended early"));
    }
    while s.ends_with('\n') || s.ends_with('\r') {
        s.pop();
    }
    Ok(s)
}

fn num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, ProtoError> {
    tok.parse()
        .map_err(|_| ProtoError::new(format!("bad {what}: {tok:?}")))
}

fn write_users(
    out: &mut Vec<u8>,
    users: &[(String, ctxpref_profile::Profile)],
    rel: &Relation,
) -> Result<(), ProtoError> {
    for (name, profile) in users {
        out.extend_from_slice(format!("user {}\n", escape(name)).as_bytes());
        write_profile(out, profile, rel)
            .map_err(|e| ProtoError::new(format!("encoding profile for {name:?}: {e}")))?;
    }
    Ok(())
}

fn read_users(
    cur: &mut &[u8],
    count: usize,
    env: &ContextEnvironment,
    rel: &Relation,
) -> Result<Vec<(String, ctxpref_profile::Profile)>, ProtoError> {
    let mut users = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let line = next_line(cur)?;
        let name = match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["user", name] => unescape(name)
                .ok_or_else(|| ProtoError::new(format!("bad user token: {name:?}")))?,
            _ => return Err(ProtoError::new(format!("expected `user <name>`: {line:?}"))),
        };
        let profile = read_profile(&mut *cur, env, rel)
            .map_err(|e| ProtoError::new(format!("decoding profile for {name:?}: {e}")))?;
        users.push((name, profile));
    }
    Ok(users)
}

/// Encode `env` as one frame payload. The `records` hot path goes
/// binary (raw record bytes, varint framing); everything else stays
/// `repl1` text.
pub fn encode_envelope(env: &Envelope, rel: &Relation) -> Result<Vec<u8>, ProtoError> {
    let head = format!("{REPL_PROTO_VERSION} {} {}", env.from, env.epoch);
    let mut out = Vec::new();
    match &env.msg {
        Message::Records { shard, records } => {
            out.push(REPL_BINARY_MAGIC);
            out.push(REPL_BINARY_VERSION);
            put_uv(&mut out, env.from as u64);
            put_uv(&mut out, env.epoch);
            put_uv(&mut out, *shard as u64);
            put_uv(&mut out, records.len() as u64);
            for (lsn, payload) in records {
                put_uv(&mut out, *lsn);
                put_bytes(&mut out, payload);
            }
        }
        Message::Snapshot { stripes, lsns } => {
            out.extend_from_slice(format!("{head} snapshot {}\n", stripes.len()).as_bytes());
            let rendered: Vec<String> = lsns.iter().map(u64::to_string).collect();
            let line = format!("lsns {} {}", lsns.len(), rendered.join(" "));
            out.extend_from_slice(line.trim_end().as_bytes());
            out.push(b'\n');
            for (i, stripe) in stripes.iter().enumerate() {
                out.extend_from_slice(format!("stripe {i} {}\n", stripe.len()).as_bytes());
                write_users(&mut out, stripe, rel)?;
            }
        }
        Message::Heartbeat => out.extend_from_slice(format!("{head} heartbeat\n").as_bytes()),
        Message::DigestRequest => {
            out.extend_from_slice(format!("{head} digest-request\n").as_bytes())
        }
        Message::Resync {
            shard,
            users,
            last_lsn,
        } => {
            out.extend_from_slice(
                format!("{head} resync {shard} {last_lsn} {}\n", users.len()).as_bytes(),
            );
            write_users(&mut out, users, rel)?;
        }
    }
    Ok(out)
}

/// Decode one frame payload back into an [`Envelope`]: the binary
/// `records` form, or one of the `repl1` text forms.
pub fn decode_envelope(
    payload: &[u8],
    env: &ContextEnvironment,
    rel: &Relation,
) -> Result<Envelope, ProtoError> {
    if payload.first() == Some(&REPL_BINARY_MAGIC) {
        return decode_binary_records(payload).map_err(ProtoError::from);
    }
    let mut cur = payload;
    let header = next_line(&mut cur)?;
    let toks: Vec<&str> = header.split_whitespace().collect();
    let rest = match toks.as_slice() {
        [version, rest @ ..] if *version == REPL_PROTO_VERSION => rest,
        [version, ..] => {
            return Err(ProtoError::new(format!(
                "replication protocol version mismatch: peer speaks {version:?}, this side {REPL_PROTO_VERSION:?}"
            )))
        }
        [] => return Err(ProtoError::new("empty replication header")),
    };
    let (from, epoch, verb) = match rest {
        [from, epoch, verb @ ..] if !verb.is_empty() => (
            num::<NodeId>(from, "sender id")?,
            num::<u64>(epoch, "epoch")?,
            verb,
        ),
        _ => {
            return Err(ProtoError::new(format!(
                "bad replication header: {header:?}"
            )))
        }
    };
    let msg = match verb {
        ["snapshot", nstripes] => {
            let nstripes = num::<usize>(nstripes, "stripe count")?;
            let line = next_line(&mut cur)?;
            let toks: Vec<&str> = line.split_whitespace().collect();
            let lsns = match toks.as_slice() {
                ["lsns", n, vals @ ..] if num::<usize>(n, "lsn count")? == vals.len() => vals
                    .iter()
                    .map(|v| num::<u64>(v, "lsn"))
                    .collect::<Result<Vec<u64>, _>>()?,
                _ => return Err(ProtoError::new(format!("bad lsns line: {line:?}"))),
            };
            let mut stripes = Vec::with_capacity(nstripes.min(1024));
            for want in 0..nstripes {
                let line = next_line(&mut cur)?;
                let nusers = match line.split_whitespace().collect::<Vec<_>>()[..] {
                    ["stripe", i, n] if num::<usize>(i, "stripe index")? == want => {
                        num::<usize>(n, "user count")?
                    }
                    _ => return Err(ProtoError::new(format!("bad stripe line: {line:?}"))),
                };
                stripes.push(read_users(&mut cur, nusers, env, rel)?);
            }
            Message::Snapshot { stripes, lsns }
        }
        ["heartbeat"] => Message::Heartbeat,
        ["digest-request"] => Message::DigestRequest,
        ["resync", shard, last_lsn, n] => Message::Resync {
            shard: num(shard, "shard")?,
            last_lsn: num(last_lsn, "last lsn")?,
            users: {
                let n = num::<usize>(n, "user count")?;
                read_users(&mut cur, n, env, rel)?
            },
        },
        _ => {
            return Err(ProtoError::new(format!(
                "unknown replication verb: {:?}",
                verb.join(" ")
            )))
        }
    };
    Ok(Envelope { from, epoch, msg })
}

/// Decode the binary `records` envelope form. Lengths and counts are
/// validated against the remaining bytes before any allocation, so a
/// hostile claim fails typed instead of reserving gigabytes.
fn decode_binary_records(payload: &[u8]) -> Result<Envelope, DecodeError> {
    let mut d = Dec::new(payload);
    let magic = d.u8()?;
    if magic != REPL_BINARY_MAGIC {
        return Err(DecodeError {
            offset: 0,
            kind: DecodeKind::BadTag {
                what: "replication magic",
                tag: u64::from(magic),
            },
        });
    }
    let version = d.u8()?;
    if version != REPL_BINARY_VERSION {
        return Err(DecodeError {
            offset: 1,
            kind: DecodeKind::BadTag {
                what: "replication codec version",
                tag: u64::from(version),
            },
        });
    }
    let from = d.uv()? as NodeId;
    let epoch = d.uv()?;
    let shard = d.uv()? as usize;
    // Each record is at least 2 bytes (one-byte lsn + one-byte length).
    let n = d.checked_count(2)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let lsn = d.uv()?;
        records.push((lsn, d.bytes()?));
    }
    d.expect_end()?;
    Ok(Envelope {
        from,
        epoch,
        msg: Message::Records { shard, records },
    })
}

/// Encode a [`Reply`] as one frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let line = match reply {
        Reply::Progress { next_lsn } => format!("{REPL_PROTO_VERSION} progress {next_lsn}"),
        Reply::SnapshotInstalled => format!("{REPL_PROTO_VERSION} snapshot-installed"),
        Reply::Beat { epoch, applied } => {
            let vals: Vec<String> = applied.iter().map(u64::to_string).collect();
            format!(
                "{REPL_PROTO_VERSION} beat {epoch} {} {}",
                applied.len(),
                vals.join(" ")
            )
            .trim_end()
            .to_string()
        }
        Reply::Digests { digests } => {
            let vals: Vec<String> = digests.iter().map(u64::to_string).collect();
            format!(
                "{REPL_PROTO_VERSION} digests {} {}",
                digests.len(),
                vals.join(" ")
            )
            .trim_end()
            .to_string()
        }
        Reply::Resynced => format!("{REPL_PROTO_VERSION} resynced"),
        Reply::Fenced { current } => format!("{REPL_PROTO_VERSION} fenced {current}"),
        Reply::Failed { reason } => format!("{REPL_PROTO_VERSION} failed {}", escape(reason)),
    };
    line.into_bytes()
}

/// Decode one frame payload back into a [`Reply`].
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ProtoError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| ProtoError::new("reply payload is not UTF-8"))?;
    let toks: Vec<&str> = text.split_whitespace().collect();
    let rest = match toks.as_slice() {
        [version, rest @ ..] if *version == REPL_PROTO_VERSION => rest,
        _ => {
            return Err(ProtoError::new(format!(
                "bad reply header: {:?}",
                text.lines().next().unwrap_or("")
            )))
        }
    };
    match rest {
        ["progress", next_lsn] => Ok(Reply::Progress {
            next_lsn: num(next_lsn, "next lsn")?,
        }),
        ["snapshot-installed"] => Ok(Reply::SnapshotInstalled),
        ["beat", epoch, n, vals @ ..] if num::<usize>(n, "applied count")? == vals.len() => {
            Ok(Reply::Beat {
                epoch: num(epoch, "epoch")?,
                applied: vals
                    .iter()
                    .map(|v| num::<u64>(v, "applied lsn"))
                    .collect::<Result<Vec<u64>, _>>()?,
            })
        }
        ["digests", n, vals @ ..] if num::<usize>(n, "digest count")? == vals.len() => {
            Ok(Reply::Digests {
                digests: vals
                    .iter()
                    .map(|v| num::<u64>(v, "digest"))
                    .collect::<Result<Vec<u64>, _>>()?,
            })
        }
        ["resynced"] => Ok(Reply::Resynced),
        ["fenced", current] => Ok(Reply::Fenced {
            current: num(current, "epoch")?,
        }),
        ["failed", reason] => Ok(Reply::Failed {
            reason: unescape(reason)
                .ok_or_else(|| ProtoError::new(format!("bad reason token: {reason:?}")))?,
        }),
        _ => Err(ProtoError::new(format!("unknown reply: {text:?}"))),
    }
}

// ---------------------------------------------------------------------------
// ReplServer: one listener per registered node
// ---------------------------------------------------------------------------

/// A loopback listener serving one [`ReplNode`]'s replication
/// endpoint: each connection is a loop of (envelope in, reply out).
pub struct ReplServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ReplServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ReplServer {
    /// Bind an ephemeral loopback port and serve `node`'s replication
    /// endpoint on it.
    pub fn spawn(node: Arc<ReplNode>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name(format!("ctxpref-repl-accept-{}", node.id()))
                .spawn(move || repl_accept_loop(listener, node, shutdown))?
        };
        Ok(Self {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The endpoint's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. In-flight
    /// connections notice on their next read (the peer redials).
    pub fn shutdown(mut self) {
        self.begin_shutdown();
    }

    fn begin_shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReplServer {
    fn drop(&mut self) {
        if !self.shutdown.load(Ordering::Acquire) {
            self.begin_shutdown();
        }
    }
}

fn repl_accept_loop(listener: TcpListener, node: Arc<ReplNode>, shutdown: Arc<AtomicBool>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        if hit(NET_ACCEPT).is_err() {
            continue;
        }
        let node = Arc::clone(&node);
        let shutdown = Arc::clone(&shutdown);
        let _ = std::thread::Builder::new()
            .name("ctxpref-repl-conn".to_string())
            .spawn(move || serve_repl_connection(stream, &node, &shutdown));
    }
}

fn serve_repl_connection(stream: TcpStream, node: &ReplNode, shutdown: &AtomicBool) {
    // A socket whose timeouts could not be set would hang this thread
    // forever on a stalled peer; refuse to serve it (the peer redials).
    if stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(10))))
        .and_then(|()| stream.set_nodelay(true))
        .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = std::io::BufReader::new(stream);
    // The node's own environment and relation decode inbound profiles.
    let env = node.db().db().env().clone();
    let rel = node.db().db().relation().clone();
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            _ => return,
        };
        let reply = match decode_envelope(&payload, &env, &rel) {
            Ok(envelope) => node.handle(&envelope),
            Err(e) => Reply::Failed {
                reason: format!("undecodable envelope: {e}"),
            },
        };
        if write_frame(&mut writer, &encode_reply(&reply)).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

struct PeerEntry {
    addr: SocketAddr,
    server: ReplServer,
    /// One pooled connection per peer; sends to the same peer
    /// serialize on it (replication traffic is batchy, and one socket
    /// per link avoids burning an ephemeral port per send).
    conn: Arc<Mutex<Option<TcpStream>>>,
}

/// Socket-backed [`Transport`]: registered nodes get loopback
/// listeners, and sends dial the peer's endpoint over real TCP.
pub struct TcpTransport {
    rel: Relation,
    dial_timeout: Duration,
    peers: RwLock<HashMap<NodeId, PeerEntry>>,
    /// Severed links, smaller id first (mirrors the in-process set).
    partitions: Mutex<Vec<(NodeId, NodeId)>>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("peers", &self.peers.read().len())
            .finish()
    }
}

impl TcpTransport {
    /// A transport encoding outbound profiles against `rel` (clone it
    /// from the serving core: `db.relation()`). Inbound profiles are
    /// decoded by each receiving node against its own environment.
    pub fn new(rel: Relation) -> Self {
        Self {
            rel,
            dial_timeout: Duration::from_secs(1),
            peers: RwLock::new(HashMap::new()),
            partitions: Mutex::new(Vec::new()),
        }
    }

    /// The loopback address node `id` listens on, if registered.
    pub fn addr_of(&self, id: NodeId) -> Option<SocketAddr> {
        self.peers.read().get(&id).map(|p| p.addr)
    }

    fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        let link = (a.min(b), a.max(b));
        self.partitions.lock().contains(&link)
    }

    fn dial(&self, to: NodeId, addr: SocketAddr) -> Result<TcpStream, TransportError> {
        let stream = TcpStream::connect_timeout(&addr, self.dial_timeout).map_err(|e| {
            if e.kind() == std::io::ErrorKind::ConnectionRefused {
                TransportError::Unreachable(to)
            } else {
                TransportError::Dropped
            }
        })?;
        // An unconfigurable socket is as useless as an unreachable
        // peer: without timeouts a send could block forever.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(10))))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|_| TransportError::Dropped)?;
        Ok(stream)
    }

    /// Whether an exchange failure looks like a *stale pooled
    /// connection* (the peer restarted or reaped it between sends) as
    /// opposed to a genuine mid-flight failure. Only the former earns
    /// a silent redial — injected frame faults surface as
    /// `io::ErrorKind::Other` and must stay failures.
    fn is_stale_conn(e: &crate::error::FrameError) -> bool {
        use std::io::ErrorKind;
        match e {
            crate::error::FrameError::Io(io) => matches!(
                io.kind(),
                ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
            ),
            _ => false,
        }
    }

    /// One request/reply over the pooled connection: write the
    /// envelope frame, read the reply frame. Returns the reply, or
    /// whether the failure is retryable on a fresh connection.
    fn try_exchange(stream: &mut TcpStream, payload: &[u8]) -> Result<Reply, bool> {
        if let Err(e) = write_frame(stream, payload) {
            return Err(Self::is_stale_conn(&e));
        }
        match read_frame(stream) {
            Ok(Some(reply)) => decode_reply(&reply).map_err(|_| false),
            // Clean EOF: the peer closed the pooled connection while
            // it was parked — a fresh dial is the honest retry.
            Ok(None) => Err(true),
            Err(e) => Err(Self::is_stale_conn(&e)),
        }
    }

    /// One full exchange with node `to`: reuse the pooled connection,
    /// redialling once if it went stale. Any other socket or codec
    /// failure collapses to `Dropped`: on a real network that is all
    /// the sender learns. A refused dial is `Unreachable` — the
    /// endpoint is gone, not flaky.
    fn exchange(
        &self,
        to: NodeId,
        addr: SocketAddr,
        conn: &Mutex<Option<TcpStream>>,
        env: &Envelope,
    ) -> Result<Reply, TransportError> {
        let payload = encode_envelope(env, &self.rel).map_err(|_| TransportError::Dropped)?;
        let mut slot = conn.lock();
        let pooled = slot.is_some();
        if slot.is_none() {
            *slot = Some(self.dial(to, addr)?);
        }
        match Self::try_exchange(slot.as_mut().expect("connection present"), &payload) {
            Ok(reply) => Ok(reply),
            Err(retryable) => {
                *slot = None;
                if !(retryable && pooled) {
                    return Err(TransportError::Dropped);
                }
                let mut fresh = self.dial(to, addr)?;
                match Self::try_exchange(&mut fresh, &payload) {
                    Ok(reply) => {
                        *slot = Some(fresh);
                        Ok(reply)
                    }
                    Err(_) => Err(TransportError::Dropped),
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&self, to: NodeId, env: Envelope) -> Result<Reply, TransportError> {
        // Same gauntlet, same order as the in-process transport, so
        // chaos plans behave identically over sockets.
        if self.is_partitioned(env.from, to) || hit(REPL_PARTITION).is_err() {
            return Err(TransportError::Partitioned);
        }
        let drop_site = if env.msg.is_heartbeat() {
            REPL_HEARTBEAT_DROP
        } else {
            REPL_SEND_DROP
        };
        if hit(drop_site).is_err() {
            return Err(TransportError::Dropped);
        }
        let _ = hit(REPL_SEND_DELAY);
        // The socket-level site: the connection dies mid-exchange.
        if hit(NET_CONN_DROP).is_err() {
            return Err(TransportError::Dropped);
        }
        let (addr, conn) = self
            .peers
            .read()
            .get(&to)
            .map(|p| (p.addr, Arc::clone(&p.conn)))
            .ok_or(TransportError::Unreachable(to))?;
        let reply = self.exchange(to, addr, &conn, &env)?;
        if hit(REPL_SEND_DUPLICATE).is_err() {
            let _ = self.exchange(to, addr, &conn, &env);
        }
        Ok(reply)
    }
}

impl NodeTransport for TcpTransport {
    fn register(&self, node: Arc<ReplNode>) {
        let id = node.id();
        match ReplServer::spawn(node) {
            Ok(server) => {
                let entry = PeerEntry {
                    addr: server.addr(),
                    server,
                    conn: Arc::new(Mutex::new(None)),
                };
                // Replacing an entry drops (and shuts down) the old
                // listener — a restart gets a fresh port.
                self.peers.write().insert(id, entry);
            }
            Err(_) => {
                // Bind failure leaves the node unregistered; sends
                // fail Unreachable, which the cluster already handles
                // as a down node.
                self.peers.write().remove(&id);
            }
        }
    }

    fn deregister(&self, id: NodeId) {
        if let Some(entry) = self.peers.write().remove(&id) {
            entry.server.shutdown();
        }
    }

    fn is_registered(&self, id: NodeId) -> bool {
        self.peers.read().contains_key(&id)
    }

    fn partition(&self, a: NodeId, b: NodeId) {
        let link = (a.min(b), a.max(b));
        let mut parts = self.partitions.lock();
        if !parts.contains(&link) {
            parts.push(link);
        }
    }

    fn heal(&self, a: NodeId, b: NodeId) {
        let link = (a.min(b), a.max(b));
        self.partitions.lock().retain(|l| *l != link);
    }

    fn heal_all(&self) {
        self.partitions.lock().clear();
    }
}
