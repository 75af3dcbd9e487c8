//! The TCP front-end's knobs and counters.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Tuning knobs of the TCP front-end.
#[derive(Debug, Clone, Copy)]
pub struct NetServerConfig {
    /// Concurrent-connection cap. Connection `max_connections + 1`
    /// gets a typed busy frame and is closed.
    pub max_connections: usize,
    /// Idle timeout: how long a connection may sit with no traffic in
    /// either direction before the reactor reclaims it.
    pub read_timeout: Duration,
    /// Write-stall timeout: how long queued output may sit unwritable
    /// (peer not reading) before the connection is cut.
    pub write_timeout: Duration,
    /// Upper bound on the per-query deadline a client may request.
    pub max_deadline: Duration,
    /// How long [`NetServer::shutdown`](super::NetServer::shutdown)
    /// waits for in-flight connections to finish before cutting them.
    pub drain_timeout: Duration,
    /// Per-connection cap on pipelined requests in flight plus answers
    /// queued for the socket. Past it the reactor stops reading the
    /// socket until completions and writes drain — backpressure by TCP.
    pub max_pipeline: usize,
    /// The retry hint attached to a connection-admission busy frame
    /// (request-level sheds carry the service's live sojourn-derived
    /// hint instead).
    pub busy_retry_after: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_deadline: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(5),
            max_pipeline: 128,
            busy_retry_after: Duration::from_millis(100),
        }
    }
}

/// Counters of the serving front-end, exposed via
/// [`NetServer::net_stats`](super::NetServer::net_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted and admitted.
    pub accepted: usize,
    /// Connections refused with a typed busy frame.
    pub refused_busy: usize,
    /// Connections closed because a socket option failed to apply on
    /// accept (`set_nonblocking`/`set_nodelay`).
    pub sockopt_failures: usize,
    /// Request frames decoded off sockets.
    pub frames_in: usize,
    /// Response frames written.
    pub frames_out: usize,
}

/// The live cells behind [`NetStats`].
#[derive(Debug, Default)]
pub(super) struct StatsCells {
    pub(super) accepted: AtomicUsize,
    pub(super) refused_busy: AtomicUsize,
    pub(super) sockopt_failures: AtomicUsize,
    pub(super) frames_in: AtomicUsize,
    pub(super) frames_out: AtomicUsize,
}

impl StatsCells {
    pub(super) fn snapshot(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Acquire),
            refused_busy: self.refused_busy.load(Ordering::Acquire),
            sockopt_failures: self.sockopt_failures.load(Ordering::Acquire),
            frames_in: self.frames_in.load(Ordering::Acquire),
            frames_out: self.frames_out.load(Ordering::Acquire),
        }
    }
}
