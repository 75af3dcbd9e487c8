//! Wire framing: length-prefixed, checksummed frames.
//!
//! Every message on a `ctxpref` socket travels as one frame:
//!
//! ```text
//! [u32 payload_len | u64 checksum | payload…]      (little endian)
//! ```
//!
//! The discipline is the WAL record framing's (`ctxpref-wal`), minus
//! the LSN: the checksum covers `payload_len ‖ payload`, so a bit flip
//! anywhere in the frame — including the length field — fails
//! verification. It is read a word at a time ([`frame_checksum`]): four
//! independent multiply–rotate lanes over 32-byte blocks, so hashing a
//! ranked answer costs a fraction of producing it. The declared length
//! is validated against [`MAX_FRAME_PAYLOAD`] **before any
//! allocation**, so a hostile peer claiming a multi-gigabyte frame costs
//! the server twelve bytes of header read and one typed error, never
//! memory.
//!
//! A frame the program sends is built **in place**: `open_frame`
//! reserves the twelve header bytes, the codec appends the payload
//! behind them, and `seal_frame` patches in the length and checksum —
//! so a payload is never copied into its frame. A frame it receives
//! through a [`FrameDecoder`] is verified and **lent** where it landed:
//! the payload is a slice of the decoder's buffer, decoded from there.

use std::io::{Read, Write};

use ctxpref_faults::hit_io;
use ctxpref_faults::sites::{NET_FRAME_READ, NET_FRAME_WRITE};

use crate::error::{DecodeError, DecodeKind, FrameError};

/// Bytes of the per-frame header: `u32` payload length, `u64` checksum.
pub const FRAME_HEADER: usize = 4 + 8;

/// Hard cap on a single frame payload. A length field above this is
/// treated as a hostile or damaged frame and rejected before any
/// buffer is allocated.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 24;

/// The most one socket read asks for: a reader never sizes a buffer
/// by a declared length beyond this before the bytes arrive.
const READ_WINDOW: usize = 16 * 1024;

/// A drained [`FrameDecoder`] whose buffer grew past this shrinks back
/// to one read window. Well above the window, so the partial frame a
/// read leaves behind does not make the buffer shrink and regrow.
const SHRINK_ABOVE: usize = 4 * READ_WINDOW;

/// A finished frame, or why it could not be built.
pub(crate) type Framed = Result<Vec<u8>, FrameError>;

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
pub fn frame_checksum(payload: &[u8]) -> u64 {
    checksum(payload.len() as u32, payload)
}

/// Check a frame's stored checksum against its length field and the
/// payload that field delimited.
fn verify(len: u32, stored: u64, payload: &[u8]) -> Result<(), FrameError> {
    let computed = checksum(len, payload);
    if computed != stored {
        return Err(FrameError::Checksum { stored, computed });
    }
    Ok(())
}

/// Parse a frame header: the declared payload length and stored
/// checksum. Fails through the wire layer's one decode-error currency
/// ([`DecodeError`], offset included): a short header is `Truncated`
/// at the byte where input ran out, and a hostile length claim is
/// `LengthOverflow` at offset 0 — typed, before any payload buffer
/// could be sized by it.
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
pub(crate) fn open_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    at
}

/// Finish the frame opened at `at`, whose payload runs to the end of
/// `out`: patch in its length and checksum. A payload over
/// [`MAX_FRAME_PAYLOAD`] is `Oversized`.
pub(crate) fn seal_frame(out: &mut [u8], at: usize) -> Result<(), FrameError> {
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

/// Write `payload` as one frame onto `w` (single `write_all`, so the
/// OS sees whole frames). Passes the `net.frame.write` fault site.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    write_frames(w, &encode_frame(payload)?, 1)
}

/// Write `count` finished frames, laid back to back in `frames`, in one
/// `write_all`: a pipelined burst costs one syscall instead of one per
/// frame. Each frame still passes the `net.frame.write` fault site, so
/// chaos plans that tear writes see the same hit ordinals as frames
/// written one at a time.
pub(crate) fn write_frames(
    w: &mut impl Write,
    frames: &[u8],
    count: usize,
) -> Result<(), FrameError> {
    for _ in 0..count {
        hit_io(NET_FRAME_WRITE)?;
    }
    w.write_all(frames)?;
    w.flush()?;
    Ok(())
}

/// Read one frame through a caller-held [`FrameDecoder`]: each socket
/// read pulls whatever the kernel has buffered (up to 16 KiB) straight
/// into the decoder, so a response that has arrived costs one read, and
/// draining a pipelined burst costs a handful. The payload is lent out
/// of the decoder's buffer ([`FrameDecoder::next_frame`]). Passes the
/// `net.frame.read` fault site once per frame.
///
/// Returns `Ok(None)` only on a clean close at a frame boundary with
/// nothing buffered; bytes left inside a torn frame are `Truncated`.
pub fn read_frame_buffered<'d>(
    r: &mut impl Read,
    dec: &'d mut FrameDecoder,
) -> Result<Option<&'d [u8]>, FrameError> {
    hit_io(NET_FRAME_READ)?;
    while dec.complete()?.is_none() {
        match dec.read_from(r) {
            Ok(0) if dec.buffered() == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    dec.next_frame()
}

/// Read one frame's payload from `r`. Passes the `net.frame.read`
/// fault site.
///
/// * `Ok(None)` — clean end of stream **at a frame boundary** (the
///   peer closed between frames).
/// * [`FrameError::Truncated`] — the stream ended inside a header or
///   payload (a torn frame).
/// * [`FrameError::Oversized`] — the declared length exceeds
///   [`MAX_FRAME_PAYLOAD`]; returned before any payload buffer is
///   allocated.
/// * [`FrameError::Checksum`] — the payload (or length) was corrupted
///   in flight.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    hit_io(NET_FRAME_READ)?;
    let mut header = [0u8; FRAME_HEADER];
    let mut filled = 0;
    while filled < FRAME_HEADER {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let (len, checksum) = match decode_header(&header) {
        Ok(parsed) => parsed,
        // Reject on the declared length alone: no buffer exists yet,
        // so a hostile 4 GiB claim cannot OOM the server.
        Err(DecodeError {
            kind: DecodeKind::LengthOverflow { declared, .. },
            ..
        }) => {
            return Err(FrameError::Oversized {
                declared,
                max: MAX_FRAME_PAYLOAD,
            })
        }
        Err(_) => return Err(FrameError::Truncated),
    };
    // Ask for up to 16 KiB of the declared payload per read, through a
    // window on the stack, and grow the buffer only with the bytes that
    // arrived: a payload that has arrived takes one read, and a torn or
    // lying frame costs what came over the wire, not what the header
    // claimed.
    let declared = len as usize;
    let mut payload = Vec::new();
    let mut window = [0u8; READ_WINDOW];
    while payload.len() < declared {
        let want = (declared - payload.len()).min(READ_WINDOW);
        match r.read(&mut window[..want]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => payload.extend_from_slice(&window[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    verify(len, checksum, &payload)?;
    Ok(Some(payload))
}

/// An incremental frame decoder for nonblocking reads: the reactor
/// feeds whatever bytes the socket had via [`FrameDecoder::extend`]
/// and drains complete frames with [`FrameDecoder::next_frame`]. Partial
/// frames simply wait for more input; the hostile-length check runs
/// as soon as twelve header bytes exist, so a lying peer is rejected
/// while the buffer still holds only what actually arrived.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Received bytes not yet consumed sit in `buf[pos..end]`; the rest
    /// of `buf` is room a socket read fills directly. The last frame
    /// lent out sits just before `pos`.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One read from `r` straight into the buffer, asking for up to
    /// 16 KiB; returns what it read (0 at end of stream). The room is
    /// kept between reads, so the buffer is zeroed only as it grows.
    pub(crate) fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        self.make_room(READ_WINDOW);
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Ensure `n` bytes of room after the buffered ones: move what is
    /// left of a partly consumed frame to the front first, and grow
    /// only if that is not enough.
    fn make_room(&mut self, n: usize) {
        self.settle();
        if self.end + n > self.buf.len() && self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.end + n > self.buf.len() {
            self.buf.resize(self.end + n, 0);
        }
    }

    /// Once every frame is consumed — and so any frame lent out is done
    /// with, since this runs only inside the decoder's next call — the
    /// next bytes start at the front again, and a buffer one large
    /// frame grew gives its memory back: a long-lived connection holds
    /// a read window, not its largest frame.
    fn settle(&mut self) {
        if self.pos == self.end && self.pos > 0 {
            self.pos = 0;
            self.end = 0;
            if self.buf.len() > SHRINK_ABOVE {
                self.buf.truncate(READ_WINDOW);
                self.buf.shrink_to(READ_WINDOW);
            }
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.end - self.pos
    }

    /// The whole frame at the front of the buffer — its length field,
    /// stored checksum and total size — once all of it has arrived.
    /// A hostile length is refused from the header alone.
    fn complete(&self) -> Result<Option<(u32, u64, usize)>, FrameError> {
        let avail = &self.buf[self.pos..self.end];
        let (len, checksum) = match decode_header(avail) {
            Ok(parsed) => parsed,
            Err(DecodeError {
                kind: DecodeKind::LengthOverflow { declared, .. },
                ..
            }) => {
                return Err(FrameError::Oversized {
                    declared,
                    max: MAX_FRAME_PAYLOAD,
                })
            }
            Err(_) => return Ok(None),
        };
        let total = FRAME_HEADER + len as usize;
        Ok((avail.len() >= total).then_some((len, checksum, total)))
    }

    /// Drain one complete frame, if the buffer holds one, and lend its
    /// payload where it landed: no copy. The slice stays valid until
    /// the decoder is next called.
    ///
    /// * `Ok(Some(payload))` — one whole, checksum-verified frame.
    /// * `Ok(None)` — no complete frame yet; feed more bytes.
    /// * `Err(_)` — the stream is poisoned (hostile length or failed
    ///   checksum); the connection should be closed.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        self.settle();
        let Some((len, checksum, total)) = self.complete()? else {
            return Ok(None);
        };
        let payload = self.pos + FRAME_HEADER..self.pos + total;
        verify(len, checksum, &self.buf[payload.clone()])?;
        self.pos += total;
        Ok(Some(&self.buf[payload]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let frame = encode_frame(b"hello wire").unwrap();
        let mut cur = &frame[..];
        assert_eq!(
            read_frame(&mut cur).unwrap().as_deref(),
            Some(&b"hello wire"[..])
        );
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let frame = encode_frame(b"").unwrap();
        let mut cur = &frame[..];
        assert_eq!(read_frame(&mut cur).unwrap().as_deref(), Some(&b""[..]));
    }

    #[test]
    fn oversized_length_is_rejected_from_header_alone() {
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.extend_from_slice(&0u64.to_le_bytes());
        let mut cur = &hostile[..];
        match read_frame(&mut cur) {
            Err(FrameError::Oversized { declared, max }) => {
                assert_eq!(declared, u64::from(u32::MAX));
                assert_eq!(max, MAX_FRAME_PAYLOAD);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn torn_header_and_payload_are_truncated() {
        let frame = encode_frame(b"payload").unwrap();
        for cut in 1..frame.len() {
            let mut cur = &frame[..cut];
            match read_frame(&mut cur) {
                Err(FrameError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_bytes_fail_checksum() {
        let frame = encode_frame(b"sensitive payload").unwrap();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            let mut cur = &bad[..];
            match read_frame(&mut cur) {
                Err(_) => {}
                Ok(p) => panic!("flip at {i} decoded as {p:?}"),
            }
        }
    }

    /// `len` bytes that repeat nowhere: swapping two words or blocks of
    /// it always changes it.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// One frame through a fresh decoder, the payload copied out.
    fn lent(stream: &[u8]) -> Result<Option<Vec<u8>>, FrameError> {
        let mut dec = FrameDecoder::new();
        dec.extend(stream);
        dec.next_frame().map(|p| p.map(<[u8]>::to_vec))
    }

    #[test]
    fn checksum_golden_values() {
        // Pinned, so the wire's checksum cannot drift silently: a
        // change here is a wire-version change.
        let golden: [(usize, u64); 6] = [
            (0, 0xef46_db37_51d8_e999),
            (1, 0xc0fb_63d1_1052_1919),
            (31, 0xb1b6_e33f_64fd_48b2),
            (32, 0x899c_3c87_2e52_44a4),
            (33, 0xbd0d_fd3b_c2b1_c312),
            (3130, 0x5e84_aea2_b3a8_f59a),
        ];
        for (len, sum) in golden {
            assert_eq!(frame_checksum(&noise(len)), sum, "{len} B");
        }
    }

    #[test]
    fn every_single_bit_flip_fails_checksum() {
        for len in (0..=72).chain([3130]) {
            let payload = noise(len);
            let frame = encode_frame(&payload).unwrap();
            // Anywhere in the payload.
            for bit in 0..len * 8 {
                let mut bad = frame.clone();
                bad[FRAME_HEADER + bit / 8] ^= 1 << (bit % 8);
                assert!(
                    matches!(lent(&bad), Err(FrameError::Checksum { .. })),
                    "{len} B, payload bit {bit}"
                );
            }
            // Anywhere in the length field: the checksum covers the
            // field itself, so a payload it would delimit wrongly never
            // verifies. Where the declared bytes are all there (the
            // frame runs on into more stream), the decoder says so;
            // past the cap it is refused from the header alone.
            let (_, stored) = decode_header(&frame).unwrap();
            let mut stream = frame.clone();
            stream.extend_from_slice(&noise(4096));
            for bit in 0..32 {
                let declared = len as u32 ^ (1 << bit);
                assert!(
                    matches!(
                        verify(declared, stored, &payload),
                        Err(FrameError::Checksum { .. })
                    ),
                    "{len} B, length bit {bit}"
                );
                let mut bad = stream.clone();
                bad[..4].copy_from_slice(&declared.to_le_bytes());
                let arrived = FRAME_HEADER + declared as usize <= bad.len();
                match lent(&bad) {
                    Err(FrameError::Checksum { .. }) if arrived => {}
                    Err(FrameError::Oversized { .. }) if declared > MAX_FRAME_PAYLOAD => {}
                    Ok(None) if !arrived && declared <= MAX_FRAME_PAYLOAD => {}
                    other => panic!("{len} B, length bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn swapped_words_and_blocks_are_detected() {
        let payload = noise(3130);
        let frame = encode_frame(&payload).unwrap();
        let check = |a: usize, b: usize, width: usize| {
            let mut bad = frame.clone();
            let (from, to) = (FRAME_HEADER + a * width, FRAME_HEADER + b * width);
            let (front, back) = bad.split_at_mut(to);
            front[from..from + width].swap_with_slice(&mut back[..width]);
            assert!(
                matches!(lent(&bad), Err(FrameError::Checksum { .. })),
                "{width} B units {a} and {b} swapped"
            );
        };
        // Every pair of 8-byte words: in one lane and in two, in one
        // block and across blocks, in the blocks and in the tail.
        let words = payload.len() / 8;
        for a in 0..words {
            for b in a + 1..words {
                check(a, b, 8);
            }
        }
        let blocks = payload.len() / 32;
        for a in 0..blocks {
            for b in a + 1..blocks {
                check(a, b, 32);
            }
        }
    }

    #[test]
    fn incremental_decoder_handles_any_chunking() {
        // Large frames grow the buffer past the shrink mark; each drain
        // behind them shrinks it on the decoder's next call, never
        // under a payload still lent.
        let payloads = [
            b"first".to_vec(),
            Vec::new(),
            b"third frame, longer".to_vec(),
            noise(100_000),
            noise(40),
            noise(3 * SHRINK_ABOVE),
            noise(3130),
        ];
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p).unwrap());
        }
        for chunk in [1, 2, 3, 7, 4096, READ_WINDOW + 5, stream.len()] {
            let mut dec = FrameDecoder::new();
            let mut next = 0;
            for piece in stream.chunks(chunk) {
                dec.extend(piece);
                while let Some(payload) = dec.next_frame().unwrap() {
                    assert_eq!(payload, &payloads[next][..], "chunk {chunk}, frame {next}");
                    next += 1;
                }
            }
            assert_eq!(next, payloads.len(), "chunk size {chunk}");
            assert_eq!(dec.buffered(), 0);
            assert_eq!(dec.next_frame().unwrap(), None);
            assert!(dec.buf.capacity() <= SHRINK_ABOVE, "chunk {chunk}");
        }
    }

    #[test]
    fn incremental_decoder_rejects_hostile_length_from_header() {
        let mut dec = FrameDecoder::new();
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.extend_from_slice(&0u64.to_le_bytes());
        dec.extend(&hostile);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn incremental_decoder_rejects_corruption() {
        let mut frame = encode_frame(b"payload").unwrap();
        frame[FRAME_HEADER] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        assert!(matches!(dec.next_frame(), Err(FrameError::Checksum { .. })));
    }

    /// A reader over a byte slice that counts its `read` calls.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    #[test]
    fn an_arrived_frame_takes_one_read_after_its_header() {
        let payload: Vec<u8> = (0..3130u32).map(|i| i as u8).collect();
        let frame = encode_frame(&payload).unwrap();
        let mut r = CountingReader {
            bytes: &frame,
            reads: 0,
        };
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload.clone()));
        assert!(r.reads <= 2, "{} reads for one 3,130 B frame", r.reads);

        // Through a connection's decoder, one read, and a second
        // response already buffered behind it costs none.
        let mut two = frame.clone();
        two.extend_from_slice(&encode_frame(b"next").unwrap());
        let mut r = CountingReader {
            bytes: &two,
            reads: 0,
        };
        let mut dec = FrameDecoder::new();
        assert_eq!(
            read_frame_buffered(&mut r, &mut dec).unwrap(),
            Some(&payload[..])
        );
        assert_eq!(
            read_frame_buffered(&mut r, &mut dec).unwrap(),
            Some(&b"next"[..])
        );
        assert_eq!((r.reads, dec.buffered()), (1, 0));
        assert_eq!(read_frame_buffered(&mut r, &mut dec).unwrap(), None);
    }

    #[test]
    fn a_drained_decoder_gives_a_large_frames_memory_back() {
        let payload = vec![0x5a; 1 << 20];
        let frame = encode_frame(&payload).unwrap();
        let mut r = &frame[..];
        let mut dec = FrameDecoder::new();
        assert_eq!(
            read_frame_buffered(&mut r, &mut dec).unwrap(),
            Some(&payload[..])
        );
        assert_eq!(dec.buffered(), 0);
        // The frame stays lent until the decoder's next call, which
        // finds nothing and gives the memory back.
        assert_eq!(dec.next_frame().unwrap(), None);
        assert!(
            dec.buf.capacity() <= READ_WINDOW,
            "{} bytes held after a 1 MiB frame",
            dec.buf.capacity()
        );

        // A buffer that stays within a few windows is kept, not churned.
        let small = encode_frame(&[1; 20_000]).unwrap();
        dec.extend(&small);
        let kept = dec.buf.capacity();
        assert!(dec.next_frame().unwrap().is_some());
        assert_eq!(dec.buf.capacity(), kept);
    }

    #[test]
    fn a_header_claiming_the_cap_over_ten_bytes_is_truncated() {
        let mut lying = Vec::new();
        lying.extend_from_slice(&MAX_FRAME_PAYLOAD.to_le_bytes());
        lying.extend_from_slice(&0u64.to_le_bytes());
        lying.extend_from_slice(&[7; 10]);
        let mut cur = &lying[..];
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Truncated)));
    }

    #[test]
    fn a_frame_built_in_place_equals_an_encoded_one() {
        let mut out = b"earlier frame bytes".to_vec();
        let at = open_frame(&mut out);
        out.extend_from_slice(b"payload");
        seal_frame(&mut out, at).unwrap();
        assert_eq!(out[at..], encode_frame(b"payload").unwrap()[..]);
    }

    #[test]
    fn decode_header_is_typed() {
        let err = decode_header(&[0u8; 4]).unwrap_err();
        assert_eq!(err.kind, crate::error::DecodeKind::Truncated);
        assert_eq!(err.offset, 4);
    }
}
