#![warn(missing_docs)]
//! The one byte format below the API.
//!
//! Everything the system writes as bytes — a request on a socket, a WAL
//! record, a shipped or migrated record, the manifest, a digest — is
//! built from the three parts of this crate, so each exists once:
//!
//! * the field codec — varints, length-delimited strings, IEEE-754
//!   scores — with its two table macros, [`wire_struct!`] for structs
//!   and [`vocabulary!`] for tagged enums, each generating a type's
//!   encoder and its bounds-checked decoder from one list, and a
//!   table's lent kind ([`LentMessage`]), read from a payload without
//!   copying its texts;
//! * the frame — `[u32 len | u64 checksum | payload]` with its
//!   word-at-a-time checksum ([`frame_checksum`]), built in place
//!   ([`open_frame`]/[`seal_frame`]) and verified where it landed
//!   ([`split_frame`]);
//! * [`fnv1a64`], the byte-wise hash that seeds stripe choice, ring
//!   points, fault-plan draws and saved-file checksums.
//!
//! Decoding never panics and never allocates more than the input can
//! hold: a hostile or damaged input costs one typed [`DecodeError`] or
//! [`FrameError`].
//!
//! The crate has no dependencies; what a type of another crate looks
//! like as bytes is declared beside the table that carries it.

mod codec;
mod error;
mod frame;
mod lent;

pub use codec::{bad_tag, put_uv, Dec, Le64, Message, Put, Seq, Shown, Via, Wire};
pub use error::{DecodeError, DecodeKind, FrameError};
pub use frame::{
    decode_header, encode_frame, frame_checksum, frame_header, open_frame, seal_frame, split_frame,
    verify, FRAME_HEADER, MAX_FRAME_PAYLOAD,
};
pub use lent::{Lend, LentMessage, TokenIter, Tokens};

/// The FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64 prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over raw bytes: stable across processes and platforms, so
/// a value derived from it may be persisted or seed a run.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}
