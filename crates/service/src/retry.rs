//! Retry-with-backoff around snapshot loads and saves.

use std::sync::atomic::Ordering;
use std::time::Duration;

use ctxpref_faults::clock;
use ctxpref_wal::WalError;

use crate::config::RetryPolicy;
use crate::error::ServiceError;
use crate::stats::Counters;

/// Run `op` up to `policy.max_attempts` times, sleeping
/// `base_backoff · 2ⁿ⁻¹` between attempts, but never sleeping past
/// `deadline` (measured from entry): when the next backoff would cross
/// it, give up with [`ServiceError::DeadlineExceeded`] instead. Only
/// I/O errors are considered transient; version and corruption errors
/// fail immediately.
pub(crate) fn retry_storage<T>(
    policy: &RetryPolicy,
    deadline: Duration,
    counters: &Counters,
    mut op: impl FnMut() -> Result<T, WalError>,
) -> Result<T, ServiceError> {
    let started = clock::now();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match op() {
            Ok(v) => return Ok(v),
            Err(WalError::Io(_)) if attempt < policy.max_attempts => {
                let backoff = policy.base_backoff * 2u32.pow(attempt - 1);
                if clock::elapsed(started) + backoff >= deadline {
                    counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                    return Err(ServiceError::DeadlineExceeded { deadline });
                }
                counters.storage_retries.fetch_add(1, Ordering::Relaxed);
                clock::sleep(backoff);
            }
            Err(e) => return Err(ServiceError::Storage(e)),
        }
    }
}
