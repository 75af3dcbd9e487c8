use std::error::Error;
use std::fmt;
use std::time::Duration;

use ctxpref_core::CoreError;
use ctxpref_replication::ReplicationError;
use ctxpref_wal::{DurableError, WalError};

/// Typed errors of the serving layer. Every request that does not
/// produce a [`crate::ServiceAnswer`] produces exactly one of these —
/// panics inside query execution are caught and reported as
/// [`ServiceError::QueryPanicked`], never propagated to the caller.
#[derive(Debug)]
pub enum ServiceError {
    /// Admission control shed the request: either the hard in-flight
    /// limit was reached, or the sojourn-time controller is shedding
    /// this request's tier. Retryable — wait `retry_after` first.
    Overloaded {
        /// The configured in-flight limit.
        limit: usize,
        /// How long the caller should wait before retrying; derived
        /// from the observed queue sojourn time, so it tracks how
        /// overloaded the service actually is.
        retry_after: Duration,
    },
    /// The request did not complete within its deadline.
    DeadlineExceeded {
        /// The deadline the request carried.
        deadline: Duration,
    },
    /// Query execution panicked; the panic was contained at the service
    /// boundary.
    QueryPanicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// A database-level error (unknown user, conflicting preference, …).
    Core(CoreError),
    /// A snapshot save or load error that survived the retry policy
    /// (see `ctxpref_wal::snapshot`).
    Storage(WalError),
    /// A write-ahead-log error: the mutation was rolled back and not
    /// applied (see `ctxpref-wal` for the rollback guarantees).
    Wal(WalError),
    /// A durability-only operation (checkpoint, WAL flush, WAL status)
    /// was called on a service running without a durable directory.
    NotDurable,
    /// A replication-only operation (promotion, anti-entropy, status)
    /// was called on a service running without a replicated cluster.
    NotReplicated,
    /// The replication layer refused or failed the operation (no
    /// primary, quorum not reached, fenced epoch, …). The write was
    /// **not** acknowledged.
    Replication(ReplicationError),
    /// The service is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The user is mid-migration (fenced at cut-over, importing on the
    /// destination, or already moved away): the write was refused and
    /// can be retried after the routing table refreshes. Typed and
    /// immediate — a migration never blocks a connection.
    Migrating {
        /// The user whose write was refused.
        user: String,
    },
    /// A migration action carried a routing epoch older than the one
    /// that owns the user's entry: the calling driver was deposed by a
    /// newer migration and must not touch this user again.
    StaleMigration {
        /// The routing epoch that owns the entry (0 = no entry).
        current: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded { limit, retry_after } => {
                write!(
                    f,
                    "overloaded: {limit} requests already in flight (retry after {retry_after:?})"
                )
            }
            Self::DeadlineExceeded { deadline } => {
                write!(f, "deadline of {deadline:?} exceeded")
            }
            Self::QueryPanicked { message } => {
                write!(f, "query execution panicked (contained): {message}")
            }
            Self::Core(e) => write!(f, "{e}"),
            Self::Storage(e) => write!(f, "{e}"),
            Self::Wal(e) => write!(f, "{e}"),
            Self::NotDurable => {
                write!(
                    f,
                    "service has no durable directory (start it with new_durable/recover)"
                )
            }
            Self::NotReplicated => {
                write!(
                    f,
                    "service has no replicated cluster (start it with new_replicated)"
                )
            }
            Self::Replication(e) => write!(f, "{e}"),
            Self::ShuttingDown => write!(f, "service is shutting down"),
            Self::Migrating { user } => {
                write!(f, "user {user:?} is migrating; retry after a route refresh")
            }
            Self::StaleMigration { current } => {
                write!(
                    f,
                    "migration epoch is stale (entry owned by epoch {current})"
                )
            }
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            Self::Storage(e) => Some(e),
            Self::Wal(e) => Some(e),
            Self::Replication(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

impl From<WalError> for ServiceError {
    fn from(e: WalError) -> Self {
        Self::Wal(e)
    }
}

impl From<DurableError> for ServiceError {
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Wal(e) => Self::Wal(e),
            DurableError::Core(e) => Self::Core(e),
        }
    }
}

impl From<ReplicationError> for ServiceError {
    fn from(e: ReplicationError) -> Self {
        // Unwrap the layers the service already has typed errors for;
        // everything control-plane stays a replication error.
        match e {
            ReplicationError::Durable(e) => e.into(),
            ReplicationError::Wal(e) => Self::Wal(e),
            other => Self::Replication(other),
        }
    }
}
