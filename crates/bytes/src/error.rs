//! The two typed failures of the byte format: a frame that cannot be
//! read whole and verified, and a payload that does not decode.

use std::error::Error;
use std::fmt;
use std::io;

/// Why a frame could not be read or built. Every variant is a clean,
/// typed rejection: a malformed or hostile input can make the reader
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
        /// The configured cap ([`crate::MAX_FRAME_PAYLOAD`]).
        max: u32,
    },
    /// The stored checksum does not match the payload (corruption in
    /// flight or at rest, or a length-field flip).
    Checksum {
        /// The checksum the frame carried.
        stored: u64,
        /// The checksum computed over the received payload.
        computed: u64,
    },
    /// The underlying reader or writer failed.
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
/// of the byte format: the field codec and the frame header parser
/// both report through it, so every malformed input — an unknown tag,
/// a truncated varint, a hostile length claim — fails with the same
/// shape and never loses the offset.
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
    /// A field decoded, but the type it builds refused its value (a
    /// preference score outside `[0, 1]`).
    Invalid {
        /// What was being built.
        what: &'static str,
    },
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
            DecodeKind::Invalid { what } => write!(f, "invalid {what} at byte {offset}"),
        }
    }
}

impl Error for DecodeError {}
