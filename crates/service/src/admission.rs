use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctxpref_faults::clock;

use crate::stats::Counters;
use crate::tier::Priority;

/// A ranked read that passed admission — the sojourn gate for its
/// tier, then the `max_in_flight` backstop. It holds one in-flight slot
/// until dropped, whatever the path out, and the read's queue sojourn
/// and deadline both count from the instant it was admitted.
#[derive(Debug)]
#[must_use = "dropping the ticket gives its in-flight slot back"]
pub struct Admitted {
    /// The counter the slot was taken from (and is given back to).
    pub(crate) in_flight: Arc<AtomicUsize>,
    pub(crate) tier: Priority,
    pub(crate) at: Instant,
}

impl Drop for Admitted {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// CoDel-style admission controller: workers feed it the queue sojourn
/// of every ranked read they dequeue; when sojourn stays above the
/// target for a sustained interval, admission sheds the lowest tiers
/// first. Maintenance yields at any standing queue, Bulk when
/// the queue is badly over target, and Interactive is never shed by
/// sojourn — only by the hard in-flight backstop.
///
/// All state is atomics (instants encoded as micros since `base`), so
/// the hot paths — one `observe` per dequeue, one `pressure` load per
/// admission — never take a lock.
pub(crate) struct Admission {
    target: Duration,
    interval: Duration,
    base: Instant,
    /// Micros-since-base when sojourn first went above target
    /// (0 = currently at or below target).
    above_since: AtomicU64,
    /// Micros-since-base of the most recent observation; pressure
    /// decays back to calm when observations stop (an idle queue
    /// cannot be overloaded).
    last_observe: AtomicU64,
    /// The most recently observed sojourn, in micros — the basis of
    /// the `retry_after` hint handed to shed callers.
    last_sojourn: AtomicU64,
    /// 0 = calm, 1 = shed Maintenance, 2 = shed Bulk too.
    pressure: AtomicU8,
}

impl Admission {
    pub(crate) fn new(target: Duration, interval: Duration) -> Self {
        Self {
            target: target.max(Duration::from_micros(1)),
            interval: interval.max(Duration::from_micros(1)),
            base: clock::now(),
            above_since: AtomicU64::new(0),
            last_observe: AtomicU64::new(0),
            last_sojourn: AtomicU64::new(0),
            pressure: AtomicU8::new(0),
        }
    }

    fn micros_now(&self) -> u64 {
        // Saturate at 1 so 0 stays the "not above target" sentinel.
        (clock::elapsed(self.base).as_micros() as u64).max(1)
    }

    /// Feed one dequeued job's queue dwell into the controller.
    pub(crate) fn observe(&self, sojourn: Duration) {
        let now = self.micros_now();
        self.last_observe.store(now, Ordering::Relaxed);
        self.last_sojourn
            .store(sojourn.as_micros() as u64, Ordering::Relaxed);
        if sojourn <= self.target {
            self.above_since.store(0, Ordering::Relaxed);
            self.pressure.store(0, Ordering::Relaxed);
            return;
        }
        let since = self.above_since.load(Ordering::Relaxed);
        let since = if since == 0 {
            self.above_since.store(now, Ordering::Relaxed);
            now
        } else {
            since
        };
        if now.saturating_sub(since) >= self.interval.as_micros() as u64 {
            let level = if sojourn >= self.target * 4 { 2 } else { 1 };
            self.pressure.store(level, Ordering::Relaxed);
        }
    }

    /// The current pressure level: 0 = admit everything, 1 = shed
    /// Maintenance, 2 = shed Bulk too. Stale pressure decays to calm
    /// when no job has been observed for two intervals.
    pub(crate) fn pressure(&self) -> u8 {
        let last = self.last_observe.load(Ordering::Relaxed);
        if last == 0 {
            return 0;
        }
        let now = self.micros_now();
        if now.saturating_sub(last) > 2 * self.interval.as_micros() as u64 {
            self.above_since.store(0, Ordering::Relaxed);
            self.pressure.store(0, Ordering::Relaxed);
            return 0;
        }
        self.pressure.load(Ordering::Relaxed)
    }

    /// Whether the sojourn controller sheds `tier` right now.
    pub(crate) fn sheds(&self, tier: Priority) -> bool {
        match tier {
            Priority::Interactive => false,
            Priority::Bulk => self.pressure() >= 2,
            Priority::Maintenance => self.pressure() >= 1,
        }
    }

    /// The backoff hint handed to shed callers: the last observed
    /// sojourn (how long the queue actually is), clamped between the
    /// target and one second.
    pub(crate) fn retry_after(&self) -> Duration {
        Duration::from_micros(self.last_sojourn.load(Ordering::Relaxed))
            .clamp(self.target, Duration::from_secs(1))
    }
}

/// Count one shed request: the combined counter, the reason breakdown
/// (`reason` is one of the `shed_*` reason atomics), and the tier
/// breakdown — operators telling overload shapes apart need all three.
pub(crate) fn record_shed(counters: &Counters, reason: &AtomicU64, tier: Priority) {
    counters.shed.fetch_add(1, Ordering::Relaxed);
    reason.fetch_add(1, Ordering::Relaxed);
    let by_tier = match tier {
        Priority::Interactive => &counters.shed_interactive,
        Priority::Bulk => &counters.shed_bulk,
        Priority::Maintenance => &counters.shed_maintenance,
    };
    by_tier.fetch_add(1, Ordering::Relaxed);
}
