//! The machine-speed probe: a fixed piece of work, owned by the
//! benchmark and unrelated to the system under test, timed between
//! laps to tell how fast the machine is *right now*.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;

use crate::sys::now_ns;

/// What one probe takes on the sandbox at its undisturbed best, rounded
/// to a millisecond. Times are reported as if the probe took this long.
pub const PROBE_REF_NS: u64 = 1_000_000;

/// Round trips per probe.
const ROUND_TRIPS: usize = 100;
/// Words of the table the compute half walks (512 KiB: past L1, inside
/// L2, like the profile trees and rankings the system walks).
const TABLE_WORDS: usize = 64 * 1024;
/// Steps of the walk per probe.
const WALK_STEPS: usize = 60_000;

/// An echo thread behind a socket pair, and a table to walk.
pub struct Probe {
    near: UnixStream,
    echo: Option<JoinHandle<()>>,
    table: Vec<u32>,
}

impl Probe {
    pub fn start() -> std::io::Result<Self> {
        let (near, mut far) = UnixStream::pair()?;
        let echo = std::thread::Builder::new()
            .name("probe-echo".to_string())
            .spawn(move || {
                let mut buf = [0u8; 64];
                // Ends when the near side closes.
                while far.read_exact(&mut buf).is_ok() && far.write_all(&buf).is_ok() {}
            })?;
        // One fixed pseudo-random cycle through the whole table
        // (Sattolo), so each step depends on the one before it.
        let mut table: Vec<u32> = (0..TABLE_WORDS as u32).collect();
        let mut x = 0x9e37_79b9u32;
        for i in (1..TABLE_WORDS).rev() {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            table.swap(i, x as usize % i);
        }
        Ok(Self {
            near,
            echo: Some(echo),
            table,
        })
    }

    /// Run the probe once: nanoseconds for `ROUND_TRIPS` hand-offs to
    /// the echo thread and back (system calls and context switches on
    /// the pinned CPU, like the stack's own hand-offs) plus a
    /// `WALK_STEPS`-step dependent walk (memory latency and plain
    /// instructions, like resolution and ranking).
    pub fn run(&mut self) -> u64 {
        let mut buf = [7u8; 64];
        let t0 = now_ns();
        for _ in 0..ROUND_TRIPS {
            self.near
                .write_all(&buf)
                .and_then(|()| self.near.read_exact(&mut buf))
                .expect("the echo thread lives as long as the probe");
        }
        let mut at = 0u32;
        let mut sum = 0u64;
        for _ in 0..WALK_STEPS {
            at = self.table[at as usize];
            sum = sum.wrapping_mul(31).wrapping_add(u64::from(at));
        }
        std::hint::black_box(sum);
        now_ns() - t0
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = self.near.shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.echo.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_one_cycle_through_the_whole_table() {
        let probe = Probe::start().expect("socket pair");
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = probe.table[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, TABLE_WORDS);
    }

    #[test]
    fn a_probe_takes_about_its_reference_time() {
        let mut probe = Probe::start().expect("socket pair");
        let best = (0..20).map(|_| probe.run()).min().unwrap();
        // Unpinned and among other tests this is loose; it guards the
        // constant against being off by an order of magnitude.
        assert!(
            best > PROBE_REF_NS / 10 && best < PROBE_REF_NS * 10,
            "{best} ns"
        );
    }
}
