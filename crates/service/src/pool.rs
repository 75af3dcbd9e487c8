//! The service's one worker pool: the job type it runs, the queue the
//! workers take jobs from, the loop each worker runs, and the body every
//! ranked read runs, on a worker or on a caller that never waits.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Duration;

use ctxpref_context::ContextState;
use ctxpref_core::ShardedMultiUserDb;
use ctxpref_faults::clock;
use parking_lot::RwLock;

use crate::admission::{record_shed, Admission, Admitted};
use crate::error::ServiceError;
use crate::ladder::{panic_text, run_ladder, ServiceAnswer};
use crate::stats::Counters;

/// The one kind of work the pool runs: an in-process caller's ranked
/// read, or whatever a front-end such as the network server hands to
/// [`crate::CtxPrefService::spawn`].
pub(crate) type Job = Box<dyn FnOnce() + Send>;

/// One ranked read as a worker executes it.
pub(crate) struct Read<'a> {
    pub(crate) user: &'a str,
    pub(crate) state: &'a ContextState,
    /// `Some(k)` routes the read down the top-k ladder (materialized
    /// view first, early-terminating evaluation otherwise); `None` is
    /// a full-ranking query.
    pub(crate) topk: Option<usize>,
    pub(crate) requested: Duration,
}

/// How a ranked read takes the core slot and its user's stripe.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Locking {
    /// A worker's read: it waits for both locks, and its queue dwell
    /// feeds the sojourn controller.
    Wait,
    /// A read on a thread that must never wait: a lock that is not
    /// free this instant hands the read back unrun. It never queued,
    /// so it feeds no sojourn sample.
    Try,
}

/// The jobs waiting for a worker, in arrival order, and whether the
/// service has closed the queue. One push wakes one waiting worker, so
/// a job costs one wake-up.
#[derive(Default)]
pub(crate) struct JobQueue {
    state: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    /// The queue's state. No code panics while holding the lock, and
    /// every update leaves the state whole, so a poisoned lock is
    /// still sound to use.
    fn lock(&self) -> MutexGuard<'_, (VecDeque<Job>, bool)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue `job` for one worker, or hand it back once the queue is
    /// closed.
    pub(crate) fn push(&self, job: Job) -> Result<(), Job> {
        let mut state = self.lock();
        if state.1 {
            return Err(job);
        }
        state.0.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Whether no job waits for a worker, judged without waiting: a
    /// queue whose lock is held this instant counts as busy.
    pub(crate) fn is_idle(&self) -> bool {
        match self.state.try_lock() {
            Ok(state) => state.0.is_empty(),
            Err(TryLockError::Poisoned(state)) => state.into_inner().0.is_empty(),
            Err(TryLockError::WouldBlock) => false,
        }
    }

    /// Close the queue: later pushes are refused, and each worker exits
    /// once the jobs already queued have run.
    pub(crate) fn close(&self) {
        self.lock().1 = true;
        self.ready.notify_all();
    }

    /// The next job, waiting for one; `None` once the queue is closed
    /// and empty.
    fn pop(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

pub(crate) fn worker_loop(queue: &JobQueue) {
    while let Some(job) = queue.pop() {
        // Outer containment: a panicking job never takes its worker
        // with it. (A ranked read contains its own panics and reports
        // them typed; this catches whatever else a job runs.)
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// The one body every ranked read runs, on a worker or inline: the
/// sojourn observed from admission (a worker's read only), the cancel
/// and expiry drops, the dequeue fault site, the shard lock, the
/// post-lock re-check and the ladder. Counts every deadline miss it
/// detects, unless an in-process caller already counted it. `None`
/// only under [`Locking::Try`], when the core slot or the user's stripe
/// is not free: nothing ran and nothing was counted.
pub(crate) fn execute_read(
    slot: &RwLock<Arc<ShardedMultiUserDb>>,
    counters: &Counters,
    admission: &Admission,
    admitted: &Admitted,
    read: &Read<'_>,
    cancelled: Option<&AtomicBool>,
    locking: Locking,
) -> Option<Result<ServiceAnswer, ServiceError>> {
    let missed = || ServiceError::DeadlineExceeded {
        deadline: read.requested,
    };
    // One miss, one count: whichever side settles the cancel flag first
    // counts it, so a caller that timed out first has already done so.
    let count_miss = || {
        if cancelled.is_none_or(|c| !c.swap(true, Ordering::AcqRel)) {
            counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        }
    };
    // Resolve the serving core per read: the slot is re-pointed when a
    // replicated service's local node recovers from a crash.
    let db = match locking {
        Locking::Wait => Arc::clone(&slot.read()),
        Locking::Try => Arc::clone(&*slot.try_read()?),
    };
    if locking == Locking::Wait {
        // Feed the admission controller the read's queue dwell — the
        // signal the sojourn shedder runs on.
        admission.observe(clock::elapsed(admitted.at));
    }
    if cancelled.is_some_and(|c| c.load(Ordering::Acquire)) {
        // The in-process caller already gave up and counted the miss.
        counters.cancelled.fetch_add(1, Ordering::Relaxed);
        return Some(Err(missed()));
    }
    let deadline = admitted.at + read.requested;
    if clock::now() >= deadline {
        // Expired before it ran: counted and dropped, never executed —
        // dead work would only deepen the overload.
        count_miss();
        record_shed(counters, &counters.shed_expired, admitted.tier);
        return Some(Err(missed()));
    }
    // Fault site: an injected delay stalls the worker here, growing
    // queue sojourn deterministically for the overload tests and
    // standing in for per-read service time in the storm bench.
    // Deliberately AFTER the cancel/expiry drops: dropping dead work is
    // free; only work that will execute pays.
    let _ = ctxpref_faults::hit(ctxpref_faults::sites::SVC_WORKER_DEQUEUE);
    // Nothing may unwind out of a read, even a bug outside the
    // per-rung guards.
    let result = catch_unwind(AssertUnwindSafe(|| {
        // Acquire only the user's shard, and account the wait: the time
        // to get the lock is the serving core's contention.
        let lock_started = clock::now();
        let shard = match locking {
            Locking::Wait => db.read_user_shard(read.user),
            Locking::Try => db.try_read_user_shard(read.user)?,
        };
        let waited = clock::elapsed(lock_started);
        counters
            .lock_wait_micros
            .fetch_add(waited.as_micros() as u64, Ordering::Relaxed);
        // Re-check the deadline now that the lock is held: a contended
        // acquisition may have consumed the whole budget, and running
        // the ladder for a caller that already timed out would only
        // waste the shard's read capacity.
        if clock::now() >= deadline {
            counters.deadline_after_lock.fetch_add(1, Ordering::Relaxed);
            return Some(Err(missed()));
        }
        Some(run_ladder(
            &shard,
            read.user,
            read.state,
            read.topk,
            deadline,
            read.requested,
        ))
    }))
    .unwrap_or_else(|payload| {
        Some(Err(ServiceError::QueryPanicked {
            message: panic_text(payload),
        }))
    });
    if let Some(Err(ServiceError::DeadlineExceeded { .. })) = result {
        count_miss();
    }
    result
}
