//! A hand-rolled epoll reactor: the readiness machinery under the
//! event-driven server.
//!
//! No external crates — the four syscalls the reactor needs
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `close`) are declared
//! directly against the C library that `std` already links. The
//! surface is deliberately small:
//!
//! * [`Epoll`] — the readiness queue: register/modify/deregister file
//!   descriptors under a caller-chosen token, then [`Epoll::wait`]
//!   for [`Event`]s. Level-triggered, so a handler that drains only
//!   part of a socket's readable bytes is re-notified on the next
//!   wait — no starvation bookkeeping.
//! * [`Waker`] — a nonblocking socketpair that other threads write a
//!   byte into to pull the reactor out of `epoll_wait` (completion
//!   queues, shutdown).
//! * [`Slab`] — token ↔ connection-state storage whose tokens carry a
//!   **generation**: a token minted for a closed connection can never
//!   reach the slot's reused successor, so a stale readiness event —
//!   epoll can deliver events for an fd the reactor just closed — is
//!   ignored instead of corrupting an unrelated connection.

use std::io;
use std::os::unix::io::RawFd;
use std::os::unix::net::UnixStream;

// The reactor's syscall surface, declared against the platform C
// library std already links (no libc crate: the workspace vendors
// every dependency, and four symbols don't justify one).
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// The kernel's `struct epoll_event`. On x86_64 the kernel ABI packs
/// it (no padding between `events` and `data`); elsewhere it is a
/// normally-aligned pair.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// See the x86_64 variant; other architectures use natural alignment.
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// Which readiness directions a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Notify when the fd has bytes to read (or the peer hung up).
    pub(crate) const READABLE: Self = Self {
        readable: true,
        writable: false,
    };
    /// Notify when the fd can accept writes.
    pub(crate) const WRITABLE: Self = Self {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub(crate) const BOTH: Self = Self {
        readable: true,
        writable: true,
    };
    /// Neither direction: the fd stays registered and still reports
    /// error and hangup (`EPOLLERR`/`EPOLLHUP` are delivered whatever
    /// the mask), but neither an idle, writable socket nor a peer's
    /// half-close wakes a level-triggered wait. The half-close is seen
    /// by the first read once the fd is `READABLE` again.
    pub(crate) const NONE: Self = Self {
        readable: false,
        writable: false,
    };

    fn mask(self) -> u32 {
        let mut m = 0;
        // `EPOLLRDHUP` only alongside `EPOLLIN`: a half-closed peer is
        // level-triggered readable forever, so reporting it while the
        // owner declines to read would spin the wait.
        if self.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Bytes are readable (or the peer closed — read to find out).
    pub readable: bool,
    /// The socket can accept writes.
    pub writable: bool,
    /// Error or hangup: the connection is done for.
    pub hangup: bool,
}

/// A level-triggered epoll readiness queue.
#[derive(Debug)]
pub(crate) struct Epoll {
    epfd: RawFd,
}

impl Epoll {
    /// Create the epoll instance (close-on-exec).
    pub(crate) fn new() -> io::Result<Self> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let mut ev = event;
        let ptr = match ev.as_mut() {
            Some(e) => e as *mut EpollEvent,
            None => std::ptr::null_mut(),
        };
        if unsafe { epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` under `token` with the given interest.
    pub(crate) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Change an existing registration's interest (same token).
    pub(crate) fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Remove `fd` from the readiness queue.
    pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Block until readiness (or `timeout`), appending events to
    /// `out`. A `timeout` of `None` waits indefinitely. Returns the
    /// number of events delivered; `EINTR` is treated as zero events,
    /// not an error.
    pub(crate) fn wait(
        &self,
        out: &mut Vec<Event>,
        timeout: Option<std::time::Duration>,
    ) -> io::Result<usize> {
        const CAPACITY: usize = 1024;
        let mut raw = [EpollEvent { events: 0, data: 0 }; CAPACITY];
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs timeout doesn't spin at 0ms.
            Some(d) => {
                i32::try_from(d.as_millis().max(1).min(i32::MAX as u128)).unwrap_or(i32::MAX)
            }
        };
        let n = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), CAPACITY as i32, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for ev in raw.iter().take(n as usize) {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.epfd);
        }
    }
}

/// A cross-thread wake-up line for the reactor: worker threads call
/// [`Waker::wake`] after pushing a completion, pulling the reactor out
/// of `epoll_wait`; the reactor registers [`Waker::reader_fd`] and
/// calls [`Waker::drain`] when it fires. Built on a nonblocking
/// `socketpair` — `std` exposes one via [`UnixStream::pair`], which
/// keeps the whole mechanism inside the standard library.
#[derive(Debug)]
pub(crate) struct Waker {
    reader: UnixStream,
    writer: UnixStream,
}

impl Waker {
    /// Create the pair, both ends nonblocking.
    pub(crate) fn new() -> io::Result<Self> {
        let (reader, writer) = UnixStream::pair()?;
        reader.set_nonblocking(true)?;
        writer.set_nonblocking(true)?;
        Ok(Self { reader, writer })
    }

    /// The fd the reactor registers for readability.
    pub(crate) fn reader_fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.reader.as_raw_fd()
    }

    /// Nudge the reactor. A full pipe means a wake is already
    /// pending, which is all a wake means — not an error.
    pub(crate) fn wake(&self) {
        use std::io::Write;
        let _ = (&self.writer).write(&[1u8]);
    }

    /// Swallow pending wake bytes (the wake's meaning is "look at
    /// your queues", not a count).
    pub(crate) fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        while matches!((&self.reader).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// Generation-tagged slot storage: the reactor's token ↔ connection
/// map. Slots are reused, tokens are not — each reuse bumps the
/// slot's generation, and a lookup with a stale token misses.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    len: usize,
}

#[derive(Debug)]
struct Entry<T> {
    generation: u32,
    value: Option<T>,
}

/// A slab token: slot index in the low 32 bits, generation above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Token(pub u64);

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are live.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert, returning the slot's token.
    pub(crate) fn insert(&mut self, value: T) -> Token {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            let entry = &mut self.entries[idx as usize];
            entry.value = Some(value);
            return Token(u64::from(idx) | (u64::from(entry.generation) << 32));
        }
        let idx = self.entries.len() as u32;
        self.entries.push(Entry {
            generation: 0,
            value: Some(value),
        });
        Token(u64::from(idx))
    }

    fn slot(&self, token: Token) -> Option<usize> {
        let idx = (token.0 & 0xffff_ffff) as usize;
        let generation = (token.0 >> 32) as u32;
        let entry = self.entries.get(idx)?;
        (entry.generation == generation && entry.value.is_some()).then_some(idx)
    }

    /// Look up a live entry; a stale (removed-and-reused) token misses.
    pub(crate) fn get_mut(&mut self, token: Token) -> Option<&mut T> {
        let idx = self.slot(token)?;
        self.entries[idx].value.as_mut()
    }

    /// Remove and return the entry, retiring the token forever.
    pub(crate) fn remove(&mut self, token: Token) -> Option<T> {
        let idx = self.slot(token)?;
        let entry = &mut self.entries[idx];
        let value = entry.value.take();
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(idx as u32);
        self.len -= 1;
        value
    }

    /// Tokens of every live entry (drain/shutdown sweeps).
    pub(crate) fn tokens(&self) -> Vec<Token> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.value.is_some())
            .map(|(i, e)| Token(i as u64 | (u64::from(e.generation) << 32)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_sees_readable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll
            .register(rx.as_raw_fd(), 42, Interest::READABLE)
            .unwrap();

        // Nothing to read yet: a short wait delivers no events.
        let mut events = Vec::new();
        epoll
            .wait(&mut events, Some(std::time::Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 42 || !e.readable));

        tx.write_all(b"x").unwrap();
        let mut events = Vec::new();
        epoll
            .wait(&mut events, Some(std::time::Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable));

        epoll.deregister(rx.as_raw_fd()).unwrap();
    }

    #[test]
    fn interest_none_is_silent_until_the_peer_goes_away() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        let tick = Some(std::time::Duration::from_millis(30));

        // The control: an idle socket is always writable, so under a
        // level-triggered `WRITABLE` registration the wait delivers an
        // event instead of sleeping out the tick, every time — a
        // reactor parked on it spins.
        let epoll = Epoll::new().unwrap();
        epoll
            .register(rx.as_raw_fd(), 9, Interest::WRITABLE)
            .unwrap();
        let mut events = Vec::new();
        epoll.wait(&mut events, tick).unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.writable));

        // Registered `NONE`, the same socket is silent for the tick…
        epoll.reregister(rx.as_raw_fd(), 9, Interest::NONE).unwrap();
        let mut events = Vec::new();
        epoll.wait(&mut events, tick).unwrap();
        assert!(events.is_empty(), "NONE still woke the wait: {events:?}");

        // …including after the peer half-closes: a level-triggered
        // peer-closed report would wake every wait while the owner
        // declines to read (a connection at its pipeline cap)…
        tx.shutdown(std::net::Shutdown::Write).unwrap();
        let mut events = Vec::new();
        epoll.wait(&mut events, tick).unwrap();
        assert!(
            events.is_empty(),
            "NONE woke the wait on a half-closed peer: {events:?}"
        );

        // …and the half-close surfaces as soon as reading resumes.
        epoll
            .reregister(rx.as_raw_fd(), 9, Interest::READABLE)
            .unwrap();
        let mut events = Vec::new();
        epoll
            .wait(&mut events, Some(std::time::Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
    }

    #[test]
    fn waker_pulls_reactor_out_of_wait() {
        let epoll = Epoll::new().unwrap();
        let waker = Waker::new().unwrap();
        epoll
            .register(waker.reader_fd(), 7, Interest::READABLE)
            .unwrap();

        let handle = {
            let fd_waker = std::sync::Arc::new(waker);
            let remote = std::sync::Arc::clone(&fd_waker);
            let handle = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                remote.wake();
            });
            let mut events = Vec::new();
            epoll
                .wait(&mut events, Some(std::time::Duration::from_secs(10)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 7 && e.readable));
            fd_waker.drain();
            handle
        };
        handle.join().unwrap();
    }

    #[test]
    fn slab_generations_retire_stale_tokens() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.remove(a), Some("a"));
        // The slot is reused under a new generation…
        let c = slab.insert("c");
        assert_eq!(slab.get_mut(c), Some(&mut "c"));
        // …and the retired token cannot reach it.
        assert_eq!(slab.get_mut(a), None);
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.get_mut(b), Some(&mut "b"));
        assert_eq!(slab.tokens().len(), 2);
    }
}
