//! The frame: one length-prefixed, checksummed unit of bytes.
//!
//! ```text
//! [u32 payload_len | u64 checksum | payload…]      (little endian)
//! ```
//!
//! A message on a socket, a WAL record and the manifest each travel as
//! one frame. The checksum covers `payload_len ‖ payload`, so a bit
//! flip anywhere in the frame — including the length field — fails
//! verification. It is read a word at a time ([`frame_checksum`]): four
//! independent multiply–rotate lanes over 32-byte blocks, so hashing a
//! ranked answer costs a fraction of producing it. The declared length
//! is validated against [`MAX_FRAME_PAYLOAD`] **before any
//! allocation**, so a hostile claim of a multi-gigabyte frame costs
//! twelve bytes of header and one typed error, never memory.
//!
//! A frame is built **in place**: [`open_frame`] reserves the twelve
//! header bytes, the caller appends the payload behind them, and
//! [`seal_frame`] patches in the length and checksum — so a payload is
//! never copied into its frame. A frame is read **where it landed**:
//! [`split_frame`] verifies the frame at the front of a buffer and
//! lends its payload.

use crate::error::{DecodeError, DecodeKind, FrameError};

/// Bytes of the per-frame header: `u32` payload length, `u64` checksum.
pub const FRAME_HEADER: usize = 4 + 8;

/// Hard cap on a single frame payload. A length field above this is
/// treated as a hostile or damaged frame and rejected before any
/// buffer is allocated.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 24;

// Odd 64-bit multipliers (the xxHash64 primes): multiplying by an odd
// constant is a bijection on `u64`, which the detection argument below
// rests on.
const K1: u64 = 0x9e37_79b1_85eb_ca87;
const K2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const K3: u64 = 0x1656_67b1_9e37_79f9;
const K4: u64 = 0x85eb_ca77_c2b2_ae63;
const K5: u64 = 0x27d4_eb2f_1656_67c5;

/// One lane step: a bijection in `acc` for a fixed `word`, and in
/// `word` for a fixed `acc`.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(K2))
        .rotate_left(31)
        .wrapping_mul(K1)
}

/// Fold one word into the running hash, a bijection in each argument
/// with the other fixed.
#[inline(always)]
fn fold(h: u64, word: u64) -> u64 {
    (h ^ round(0, word))
        .rotate_left(27)
        .wrapping_mul(K1)
        .wrapping_add(K4)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    let mut w = [0; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// The checksum of a frame whose length field reads `len`.
///
/// The length enters once, as the fold's starting value, and every
/// step after it is a bijection of the running hash. A payload word
/// enters once, through a bijective lane step or fold. So two frames
/// that differ in the length field alone, or in any one 8-byte word
/// of the payload alone, always hash apart; that covers every single
/// bit flip. Other damage is caught with the odds of a 64-bit hash.
fn checksum(len: u32, payload: &[u8]) -> u64 {
    let mut h = K5.wrapping_add(u64::from(len));
    let mut blocks = payload.chunks_exact(32);
    if payload.len() >= 32 {
        let mut lanes = [K1.wrapping_add(K2), K2, 0, K1.wrapping_neg()];
        for block in &mut blocks {
            lanes[0] = round(lanes[0], word(&block[0..8]));
            lanes[1] = round(lanes[1], word(&block[8..16]));
            lanes[2] = round(lanes[2], word(&block[16..24]));
            lanes[3] = round(lanes[3], word(&block[24..32]));
        }
        for lane in lanes {
            h = fold(h, lane);
        }
    }
    // The tail: whole words, then the last few bytes zero-padded into
    // one (the length tells the padding apart from payload zeros).
    for tail in blocks.remainder().chunks(8) {
        h = fold(h, word(tail));
    }
    // Avalanche, so every input bit reaches every checksum bit.
    h ^= h >> 33;
    h = h.wrapping_mul(K2);
    h ^= h >> 29;
    h = h.wrapping_mul(K3);
    h ^ (h >> 32)
}

/// The frame checksum over length and payload.
#[inline]
pub fn frame_checksum(payload: &[u8]) -> u64 {
    checksum(payload.len() as u32, payload)
}

/// Check a frame's stored checksum against the payload its length
/// field delimited.
#[inline]
pub fn verify(stored: u64, payload: &[u8]) -> Result<(), FrameError> {
    let computed = frame_checksum(payload);
    if computed != stored {
        return Err(FrameError::Checksum { stored, computed });
    }
    Ok(())
}

/// Parse a frame header: the declared payload length and stored
/// checksum. Fails through the one decode-error currency
/// ([`DecodeError`], offset included): a short header is `Truncated`
/// at the byte where input ran out, and a hostile length claim is
/// `LengthOverflow` at offset 0 — typed, before any payload buffer
/// could be sized by it.
#[inline]
pub fn decode_header(header: &[u8]) -> Result<(u32, u64), DecodeError> {
    if header.len() < FRAME_HEADER {
        return Err(DecodeError {
            offset: header.len(),
            kind: DecodeKind::Truncated,
        });
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let checksum = u64::from_le_bytes([
        header[4], header[5], header[6], header[7], header[8], header[9], header[10], header[11],
    ]);
    if len > MAX_FRAME_PAYLOAD {
        return Err(DecodeError {
            offset: 0,
            kind: DecodeKind::LengthOverflow {
                declared: u64::from(len),
                max: u64::from(MAX_FRAME_PAYLOAD),
            },
        });
    }
    Ok((len, checksum))
}

/// The header at the front of `buf` — declared payload length and
/// stored checksum — once all twelve bytes are there (`Ok(None)`
/// before). A hostile length is `Oversized` from the header alone.
#[inline]
pub fn frame_header(buf: &[u8]) -> Result<Option<(u32, u64)>, FrameError> {
    match decode_header(buf) {
        Ok(parsed) => Ok(Some(parsed)),
        Err(DecodeError {
            kind: DecodeKind::LengthOverflow { declared, .. },
            ..
        }) => Err(FrameError::Oversized {
            declared,
            max: MAX_FRAME_PAYLOAD,
        }),
        Err(_) => Ok(None),
    }
}

/// The whole frame at the front of `buf`, once all of it is there: its
/// verified payload, lent where it lies, and the frame's total length.
/// `Ok(None)` while the header or the payload is still short; a hostile
/// length is `Oversized` from the header alone, and damage is
/// `Checksum`.
#[inline]
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, FrameError> {
    let Some((len, stored)) = frame_header(buf)? else {
        return Ok(None);
    };
    let total = FRAME_HEADER + len as usize;
    let Some(payload) = buf.get(FRAME_HEADER..total) else {
        return Ok(None);
    };
    verify(stored, payload)?;
    Ok(Some((payload, total)))
}

/// The payload length a frame header can carry, or `Oversized`.
fn payload_len(len: usize) -> Result<u32, FrameError> {
    match u32::try_from(len) {
        Ok(len) if len <= MAX_FRAME_PAYLOAD => Ok(len),
        _ => Err(FrameError::Oversized {
            declared: len as u64,
            max: MAX_FRAME_PAYLOAD,
        }),
    }
}

/// Start a frame at the end of `out`: reserve its header, behind which
/// the caller appends the payload. Returns where the frame starts, for
/// [`seal_frame`].
#[inline]
pub fn open_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    at
}

/// Finish the frame opened at `at`, whose payload runs to the end of
/// `out`: patch in its length and checksum. A payload over
/// [`MAX_FRAME_PAYLOAD`] is `Oversized`.
#[inline]
pub fn seal_frame(out: &mut [u8], at: usize) -> Result<(), FrameError> {
    let (header, payload) = out[at..].split_at_mut(FRAME_HEADER);
    let len = payload_len(payload.len())?;
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&checksum(len, payload).to_le_bytes());
    Ok(())
}

/// Encode `payload` as one frame.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    payload_len(payload.len())?;
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    let at = open_frame(&mut out);
    out.extend_from_slice(payload);
    seal_frame(&mut out, at)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_length_field_never_verifies() {
        // The length enters the hash, so a payload delimited by a
        // damaged length field fails however many bytes follow it.
        for len in (0..=72u32).chain([3130]) {
            let payload = vec![0x5a; len as usize];
            for bit in 0..32 {
                assert_ne!(
                    checksum(len ^ (1 << bit), &payload),
                    checksum(len, &payload),
                    "{len} B, length bit {bit}"
                );
            }
        }
    }
}
