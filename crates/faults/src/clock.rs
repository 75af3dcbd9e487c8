//! The one clock of the serving stack: every timestamp and every timed
//! wait reads it.
//!
//! It is the real clock unless the installed [`FaultPlan`] carries a
//! manual one ([`FaultPlanBuilder::manual_clock`](crate::FaultPlanBuilder::manual_clock)), which stands still
//! until the test advances it ([`FaultPlan::advance`]). A manual instant
//! is still an [`Instant`]: the plan's base instant plus the time
//! advanced so far. The manual clock is installed, scoped and
//! serialised with its plan ([`crate::install`], [`crate::exclusive`]).
//! With no manual clock installed, [`now`] costs one relaxed atomic load
//! on top of [`Instant::now`].
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! use ctxpref_faults::{clock, FaultPlan};
//!
//! let plan = FaultPlan::builder(7).manual_clock().build();
//! let _installed = ctxpref_faults::install(Arc::clone(&plan));
//! let start = clock::now();
//! plan.advance(Duration::from_secs(60));
//! assert_eq!(clock::elapsed(start), Duration::from_secs(60));
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::{current, FaultPlan};

/// Set exactly while the installed plan carries a manual clock: the one
/// load the real clock pays. `Relaxed`, because the flag publishes
/// nothing: the clock itself is read under the plan slot's lock.
pub(crate) static MANUAL: AtomicBool = AtomicBool::new(false);

/// How long, in real time, a wait blocks under a manual clock before it
/// looks at the manual time again.
const POLL: Duration = Duration::from_millis(1);

/// How long, in real time, [`FaultPlan::advance`] and
/// [`FaultPlan::settle`] wait for the clock's waiters before they fail:
/// only a test that waits for a thread that never comes gets this far.
const STUCK: Duration = Duration::from_secs(60);

#[inline]
fn manual() -> Option<Arc<ManualClock>> {
    if MANUAL.load(Ordering::Relaxed) {
        installed_clock()
    } else {
        None
    }
}

#[cold]
fn installed_clock() -> Option<Arc<ManualClock>> {
    current().and_then(|plan| plan.clock.clone())
}

/// The current instant.
#[inline]
pub fn now() -> Instant {
    manual().map_or_else(Instant::now, |clock| clock.now())
}

/// The time since `earlier`: zero if `earlier` has not come yet.
#[inline]
pub fn elapsed(earlier: Instant) -> Duration {
    now().saturating_duration_since(earlier)
}

/// What is left of `deadline`: zero once it has passed.
#[inline]
pub fn remaining(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(now())
}

/// Block the calling thread for `d`.
pub fn sleep(d: Duration) {
    match manual() {
        Some(clock) => {
            let deadline = clock.now() + d;
            clock.poll_until(deadline, |slice| {
                std::thread::sleep(slice);
                None::<()>
            });
        }
        None => std::thread::sleep(d),
    }
}

/// Sleep `d`, cut to what is left of `deadline` when there is one.
/// Returns `false`, without sleeping, once the deadline has passed.
pub fn sleep_within(d: Duration, deadline: Option<Instant>) -> bool {
    let d = match deadline.map(remaining) {
        Some(left) if left.is_zero() => return false,
        Some(left) => d.min(left),
        None => d,
    };
    sleep(d);
    true
}

/// Receive from `rx`, waiting until `deadline` at the latest: a message,
/// [`RecvTimeoutError::Disconnected`] as soon as every sender is gone,
/// or [`RecvTimeoutError::Timeout`] once the deadline has passed.
pub fn recv_until<T>(rx: &Receiver<T>, deadline: Instant) -> Result<T, RecvTimeoutError> {
    let Some(clock) = manual() else {
        return rx.recv_timeout(remaining(deadline));
    };
    clock
        .poll_until(deadline, |slice| match rx.recv_timeout(slice) {
            Err(RecvTimeoutError::Timeout) => None,
            answer => Some(answer),
        })
        .unwrap_or(Err(RecvTimeoutError::Timeout))
}

/// Wait on `cv` until it is notified or `deadline` passes, releasing
/// `guard` meanwhile. The guard comes back with whether the wait timed
/// out. Wake-ups may be spurious, as with [`Condvar::wait_timeout`], so
/// recheck the condition. A poisoned mutex is taken as it is, as the
/// workspace's `parking_lot` locks take it.
pub fn wait_until<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    deadline: Instant,
) -> (MutexGuard<'a, T>, bool) {
    let Some(clock) = manual() else {
        let (guard, result) = cv
            .wait_timeout(guard, remaining(deadline))
            .unwrap_or_else(PoisonError::into_inner);
        return (guard, result.timed_out());
    };
    let mut held = Some(guard);
    let woken = clock.poll_until(deadline, |slice| {
        let guard = held.take().expect("the guard is held between polls");
        let (guard, result) = cv
            .wait_timeout(guard, slice)
            .unwrap_or_else(PoisonError::into_inner);
        held = Some(guard);
        (!result.timed_out()).then_some(())
    });
    let guard = held.expect("the guard is held after the last poll");
    (guard, woken.is_none())
}

/// A clock that stands still until a test advances it.
#[derive(Debug)]
pub(crate) struct ManualClock {
    base: Instant,
    hands: Mutex<Hands>,
    /// Signalled when a waiter has looked at the time or left:
    /// [`FaultPlan::advance`] and [`FaultPlan::settle`] wait on it.
    looked: Condvar,
}

#[derive(Debug, Default)]
struct Hands {
    /// How far the clock has been advanced.
    offset: Duration,
    /// Bumped by every advance.
    epoch: u64,
    /// Threads inside a wait on this clock.
    waiting: usize,
    /// Of those, the ones that have looked at the time since the last
    /// advance and gone on waiting.
    looked: usize,
}

impl ManualClock {
    pub(crate) fn new() -> Self {
        Self {
            base: Instant::now(),
            hands: Mutex::default(),
            looked: Condvar::new(),
        }
    }

    /// Every update leaves the hands whole, so a poisoned lock is sound.
    fn hands(&self) -> MutexGuard<'_, Hands> {
        self.hands.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now(&self) -> Instant {
        self.base + self.hands().offset
    }

    /// Wait until at least `waiters` threads wait on this clock and
    /// every one of them has looked at its time.
    fn await_looks(&self, mut hands: MutexGuard<'_, Hands>, waiters: usize) {
        let give_up = Instant::now() + STUCK;
        while hands.waiting < waiters || hands.looked < hands.waiting {
            let left = give_up.saturating_duration_since(Instant::now());
            assert!(
                !left.is_zero(),
                "manual clock stuck for {STUCK:?}: {} thread(s) wait on it (at least \
                 {waiters} expected) and {} looked at its time",
                hands.waiting,
                hands.looked,
            );
            hands = self
                .looked
                .wait_timeout(hands, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Call `poll` with a slice of real time until it answers, or until
    /// this clock reaches `deadline`: then `None`, after one last poll
    /// that does not block.
    fn poll_until<R>(
        &self,
        deadline: Instant,
        mut poll: impl FnMut(Duration) -> Option<R>,
    ) -> Option<R> {
        let mut waiter = Waiter::enter(self);
        loop {
            let due = waiter.due(&mut self.hands(), deadline);
            let answer = poll(if due { Duration::ZERO } else { POLL });
            if answer.is_some() || due {
                return answer;
            }
        }
    }
}

/// One thread's wait on a manual clock, counted from `enter` until it
/// drops.
struct Waiter<'a> {
    clock: &'a ManualClock,
    /// The advance this waiter last looked at and went on waiting.
    looked_at: Option<u64>,
}

impl<'a> Waiter<'a> {
    fn enter(clock: &'a ManualClock) -> Self {
        clock.hands().waiting += 1;
        Self {
            clock,
            looked_at: None,
        }
    }

    /// Whether the clock has reached `deadline`. A waiter that goes on
    /// waiting counts as having looked at this advance, once.
    fn due(&mut self, hands: &mut Hands, deadline: Instant) -> bool {
        if self.clock.base + hands.offset >= deadline {
            return true;
        }
        if self.looked_at != Some(hands.epoch) {
            self.looked_at = Some(hands.epoch);
            hands.looked += 1;
            self.clock.looked.notify_all();
        }
        false
    }
}

impl Drop for Waiter<'_> {
    fn drop(&mut self) {
        let mut hands = self.clock.hands();
        hands.waiting -= 1;
        if self.looked_at == Some(hands.epoch) {
            hands.looked -= 1;
        }
        self.clock.looked.notify_all();
    }
}

impl FaultPlan {
    fn manual_clock(&self) -> &ManualClock {
        self.clock
            .as_deref()
            .expect("the plan was built without a manual clock")
    }

    /// Move the plan's manual clock forward by `by`, then wait until
    /// every thread waiting on it has either left its wait or looked at
    /// the new time and gone on waiting. A test that holds a lock a
    /// waiter needs must release it first.
    ///
    /// # Panics
    ///
    /// If a waiter has not looked after a minute of real time, or if
    /// the plan was built without [`FaultPlanBuilder::manual_clock`](crate::FaultPlanBuilder::manual_clock).
    pub fn advance(&self, by: Duration) {
        let clock = self.manual_clock();
        let mut hands = clock.hands();
        hands.offset += by;
        hands.epoch += 1;
        hands.looked = 0;
        clock.await_looks(hands, 0);
    }

    /// Wait until at least `waiters` threads wait on the plan's manual
    /// clock, each having looked at its current time: the point at which
    /// nothing more happens until the next [`Self::advance`].
    ///
    /// # Panics
    ///
    /// If that point has not come after a minute of real time, or if
    /// the plan was built without [`FaultPlanBuilder::manual_clock`](crate::FaultPlanBuilder::manual_clock).
    pub fn settle(&self, waiters: usize) {
        let clock = self.manual_clock();
        clock.await_looks(clock.hands(), waiters);
    }

    /// How many threads wait on the plan's manual clock now: sleeping,
    /// or in a timed receive or condition-variable wait.
    ///
    /// # Panics
    ///
    /// If the plan was built without [`FaultPlanBuilder::manual_clock`](crate::FaultPlanBuilder::manual_clock).
    pub fn clock_waiters(&self) -> usize {
        self.manual_clock().hands().waiting
    }
}
