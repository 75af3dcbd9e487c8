//! One connection's state on the reactor: its socket, the decoder its
//! requests are read through, and the frames queued for it.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::Instant;

use super::NetServerConfig;
use crate::frame::FrameDecoder;
use crate::reactor::Interest;

pub(super) struct Conn {
    pub(super) stream: TcpStream,
    pub(super) decoder: FrameDecoder,
    /// Encoded frames (header included) awaiting the socket, plus the
    /// write offset into the front one.
    pub(super) out: VecDeque<Vec<u8>>,
    pub(super) out_pos: usize,
    /// Dispatched-but-unanswered requests.
    pub(super) in_flight: usize,
    pub(super) last_activity: Instant,
    /// Output has been unwritable since this instant (write stall).
    pub(super) write_stalled_since: Option<Instant>,
    /// Close once the output queue drains.
    pub(super) closing: bool,
    pub(super) registered: Interest,
}

impl Conn {
    /// Whether the reactor reads and decodes nothing more for now:
    /// closing, or at the pipeline cap, which counts the frames queued
    /// for the socket as well as the requests on the workers, so a
    /// peer that sends without reading stalls its own writes.
    pub(super) fn paused(&self, cfg: &NetServerConfig) -> bool {
        self.closing || self.in_flight + self.out.len() >= cfg.max_pipeline
    }

    pub(super) fn desired_interest(&self, cfg: &NetServerConfig) -> Interest {
        let wants_read = !self.paused(cfg);
        let wants_write = !self.out.is_empty();
        match (wants_read, wants_write) {
            (true, true) => Interest::BOTH,
            (true, false) => Interest::READABLE,
            (false, true) => Interest::WRITABLE,
            // At the pipeline cap (or closing) with nothing queued:
            // wait for a completion, not the socket. The epoll is
            // level-triggered and an idle socket is always writable,
            // so `WRITABLE` here would spin the reactor against the
            // workers it is waiting for; `NONE` still surfaces
            // errors/hangups, and a peer's half-close is read once a
            // completion re-opens `READABLE`.
            (false, false) => Interest::NONE,
        }
    }
}
