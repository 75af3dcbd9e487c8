//! What the benchmark asks of the operating system: a counting
//! allocator, CPU pinning, process CPU time, peak resident memory, a
//! nanosecond clock, and a scratch directory inside the checkout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Counts every heap allocation of the process (all threads: the
/// server's reactor and workers run in-process, so their allocations
/// are part of an operation's cost).
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations (including reallocations) since process start.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Nanoseconds since the first call. One monotonic clock for every
/// latency, lap and span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `cpu_set_t` of glibc: 1024 bits.
const CPU_SET_WORDS: usize = 16;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Pin the whole process to the highest-numbered CPU of the mask it
/// inherited and return that CPU. Called before any thread is spawned,
/// so every later thread inherits the one-CPU mask and every hand-off
/// is a same-core context switch.
pub fn pin_to_last_cpu() -> Result<usize, String> {
    let mask = affinity_mask()?;
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("empty inherited CPU mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Keep glibc's allocator to one arena. With the default (an arena per
/// thread, up to eight per CPU) the peak resident size of an identical
/// run depended on which worker thread happened to take each
/// checkpoint — 324 to 402 MiB on `durable_write` — and all threads
/// share the one pinned CPU anyway, so the arenas buy no parallelism.
/// Returns whether the allocator took the setting.
pub fn single_malloc_arena() -> bool {
    // SAFETY: `mallopt` only sets a tunable of the allocator; called
    // before any other thread exists.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// The calling thread's affinity mask.
fn affinity_mask() -> Result<[u64; CPU_SET_WORDS], String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(mask)
}

/// CPUs in the current affinity mask (0 if it cannot be read).
pub fn cpus_allowed() -> usize {
    affinity_mask().map_or(0, |mask| mask.iter().map(|w| w.count_ones() as usize).sum())
}

/// User + system CPU time of the whole process, microseconds.
pub fn cpu_time_us() -> u64 {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout
    // the 64-bit Linux ABI defines.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    us(&ru.ru_utime) + us(&ru.ru_stime)
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The benchmark's output directory, inside the checkout it runs from:
/// `benchmark/out` under the working directory when that is a checkout
/// root, else beside this package's manifest.
pub fn out_dir() -> PathBuf {
    let here = Path::new("benchmark");
    let base = if here.join("Cargo.toml").is_file() {
        here.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    base.join("out")
}

/// The file system type holding `dir`, from `/proc/self/mounts`
/// (longest mount-point prefix wins).
pub fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_count_of_a_known_loop_is_exact() {
        // Other test threads allocate too, so take the smallest delta
        // of several tries: it can only be exact or above.
        let best = (0..50)
            .map(|_| {
                let before = allocations();
                let boxes: Vec<Box<u64>> = {
                    let mut v = Vec::with_capacity(100);
                    (0..100u64).for_each(|i| v.push(Box::new(i)));
                    v
                };
                let delta = allocations() - before;
                std::hint::black_box(&boxes);
                delta
            })
            .min()
            .unwrap();
        assert_eq!(best, 101, "100 boxes and one vector");
    }

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        let cpu = pin_to_last_cpu().expect("pinning succeeds");
        assert_eq!(cpus_allowed(), 1);
        assert_eq!(pin_to_last_cpu().unwrap(), cpu, "pinning is idempotent");
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_time_us();
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = cpu_time_us() - before;
        assert!(spent >= 10_000, "30 ms of spinning cost {spent} µs of CPU");
    }

    #[test]
    fn peak_rss_is_sane() {
        let mib = peak_rss_mib();
        assert!(mib > 0.5 && mib < 65_536.0, "VmHWM {mib} MiB");
    }

    #[test]
    fn the_clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
