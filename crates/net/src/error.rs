//! Typed errors of the TCP serving layer.

use std::error::Error;
use std::fmt;
use std::io;

/// Why a wire frame could not be decoded. Every variant is a clean,
/// typed rejection: a malformed or hostile peer can make the decoder
/// *fail*, never panic or over-allocate.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended inside a frame (torn header or payload).
    Truncated,
    /// The declared payload length exceeds the hard cap; rejected
    /// before any buffer was allocated.
    Oversized {
        /// The length the header claimed.
        declared: u64,
        /// The configured cap ([`crate::frame::MAX_FRAME_PAYLOAD`]).
        max: u32,
    },
    /// The stored checksum does not match the payload (corruption in
    /// flight, or a length-field flip).
    Checksum {
        /// The checksum the frame carried.
        stored: u64,
        /// The checksum computed over the received payload.
        computed: u64,
    },
    /// The underlying socket failed.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "frame truncated mid-stream"),
            Self::Oversized { declared, max } => {
                write!(f, "declared frame length {declared} exceeds cap {max}")
            }
            Self::Checksum { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch (stored {stored:#x}, computed {computed:#x})"
                )
            }
            Self::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Why a byte sequence could not be decoded, with the **byte offset**
/// at which decoding failed. This is the one decode-failure currency
/// of the wire layer: the `ctxpref2` codec and the frame header
/// parser both report through it, so
/// every malformed input — an unknown tag, a truncated varint, a
/// hostile length claim — fails with the same shape and never loses
/// the offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset into the payload at which decoding failed.
    pub offset: usize,
    /// What was wrong at that offset.
    pub kind: DecodeKind,
}

/// The failure classes of [`DecodeError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeKind {
    /// The input ended before the value was complete.
    Truncated,
    /// A tag byte (message kind, action, response kind) is not in the
    /// vocabulary.
    BadTag {
        /// What kind of tag was being read.
        what: &'static str,
        /// The tag value found.
        tag: u64,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A declared length or count exceeds what the input (or a hard
    /// cap) can honour; rejected before any allocation of that size.
    LengthOverflow {
        /// The length the input claimed.
        declared: u64,
        /// The most that could be honoured.
        max: u64,
    },
    /// A varint ran over its maximum width.
    VarintOverflow,
    /// Input remained after the message was complete.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self { offset, kind } = self;
        match kind {
            DecodeKind::Truncated => write!(f, "input truncated at byte {offset}"),
            DecodeKind::BadTag { what, tag } => {
                write!(f, "unknown {what} tag {tag} at byte {offset}")
            }
            DecodeKind::BadUtf8 => write!(f, "invalid utf-8 at byte {offset}"),
            DecodeKind::LengthOverflow { declared, max } => write!(
                f,
                "declared length {declared} exceeds limit {max} at byte {offset}"
            ),
            DecodeKind::VarintOverflow => write!(f, "varint overflow at byte {offset}"),
            DecodeKind::TrailingBytes => write!(f, "trailing bytes at byte {offset}"),
        }
    }
}

impl Error for DecodeError {}

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
