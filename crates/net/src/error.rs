//! Typed errors of the TCP serving layer.

use std::error::Error;
use std::fmt;
use std::io;

// The byte format's two failures — a frame that cannot be read whole
// and verified, a payload that does not decode — are the wire's too.
pub use ctxpref_bytes::{DecodeError, DecodeKind, FrameError};

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> Self {
        ProtoError::new(e.to_string())
    }
}

/// A frame decoded, but its payload is not a well-formed protocol
/// message (wrong version, unknown tag or verb, bad field).
#[derive(Debug)]
pub struct ProtoError {
    /// What was wrong.
    pub reason: String,
}

impl ProtoError {
    pub(crate) fn new(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed protocol message: {}", self.reason)
    }
}

impl Error for ProtoError {}

/// Errors of the client/server request path.
#[derive(Debug)]
pub enum NetError {
    /// The socket layer failed (connect, read, write).
    Io(io::Error),
    /// A frame could not be decoded.
    Frame(FrameError),
    /// A frame decoded but carried a malformed message.
    Proto(ProtoError),
    /// The server shed the request: its connection limit is saturated
    /// or admission control refused the request's tier. Typed so
    /// callers can back off instead of hanging, with the server's own
    /// hint for how long.
    ServerBusy {
        /// The saturated limit (connections or in-flight requests).
        limit: usize,
        /// The server's cooperative backoff hint (zero when the peer
        /// gave none).
        retry_after: std::time::Duration,
    },
    /// The server processed the request and returned a typed failure.
    Remote {
        /// The error kind token (mirrors `ServiceError` variants:
        /// `overloaded`, `deadline`, `core`, …).
        kind: String,
        /// The server-rendered message.
        message: String,
    },
    /// The client exhausted its reconnect/retry budget.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// The final attempt's failure, rendered.
        last: String,
    },
    /// The peer answered with a different message than the request
    /// calls for (protocol confusion — treated as fatal for the
    /// connection).
    UnexpectedResponse {
        /// What arrived, rendered.
        got: String,
    },
    /// The caller's end-to-end budget ran out on the client side —
    /// spent on earlier attempts and backoff sleeps — before another
    /// attempt could be sent. Nothing was put on the wire for the
    /// attempt that would have followed.
    BudgetExhausted {
        /// The budget the caller supplied for the whole request.
        budget: std::time::Duration,
    },
    /// The client has no live connection where one was required — for
    /// example, a connect raced a concurrent teardown. Typed so the
    /// caller can redial; the old code path panicked here.
    NotConnected,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "network i/o: {e}"),
            Self::Frame(e) => write!(f, "{e}"),
            Self::Proto(e) => write!(f, "{e}"),
            Self::ServerBusy { limit, retry_after } => {
                write!(
                    f,
                    "server busy: limit {limit} saturated (retry after {retry_after:?})"
                )
            }
            Self::Remote { kind, message } => write!(f, "server error [{kind}]: {message}"),
            Self::RetriesExhausted { attempts, last } => {
                write!(f, "request failed after {attempts} attempt(s): {last}")
            }
            Self::UnexpectedResponse { got } => {
                write!(f, "unexpected response: {got}")
            }
            Self::BudgetExhausted { budget } => {
                write!(
                    f,
                    "request budget {budget:?} exhausted before the next attempt"
                )
            }
            Self::NotConnected => {
                write!(f, "no live connection (connect raced a concurrent close)")
            }
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Frame(e) => Some(e),
            Self::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> Self {
        Self::Proto(e)
    }
}
