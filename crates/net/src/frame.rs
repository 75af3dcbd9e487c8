//! Wire framing: length-prefixed, FNV-1a-checksummed frames.
//!
//! Every message on a `ctxpref` socket travels as one frame:
//!
//! ```text
//! [u32 payload_len | u64 checksum | payload…]      (little endian)
//! ```
//!
//! The discipline is the WAL record framing's (`ctxpref-wal`), minus
//! the LSN: the checksum is FNV-1a 64 over `payload_len ‖ payload`, so
//! a bit flip anywhere in the frame — including the length field —
//! fails verification. The declared length is validated against
//! [`MAX_FRAME_PAYLOAD`] **before any allocation**, so a hostile peer
//! claiming a multi-gigabyte frame costs the server twelve bytes of
//! header read and one typed error, never memory.
//!
//! A frame the program sends is built **in place**: `open_frame`
//! reserves the twelve header bytes, the codec appends the payload
//! behind them, and `seal_frame` patches in the length and checksum —
//! so a payload is never copied into its frame.

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

fn fnv_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The frame checksum: FNV-1a 64 over length and payload.
pub fn frame_checksum(payload: &[u8]) -> u64 {
    let h = fnv_update(0xcbf2_9ce4_8422_2325, &(payload.len() as u32).to_le_bytes());
    fnv_update(h, payload)
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
    header[4..].copy_from_slice(&frame_checksum(payload).to_le_bytes());
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
/// draining a pipelined burst costs a handful. Passes the
/// `net.frame.read` fault site once per frame.
///
/// Returns `Ok(None)` only on a clean close at a frame boundary with
/// nothing buffered; bytes left inside a torn frame are `Truncated`.
pub fn read_frame_buffered(
    r: &mut impl Read,
    dec: &mut FrameDecoder,
) -> Result<Option<Vec<u8>>, FrameError> {
    hit_io(NET_FRAME_READ)?;
    loop {
        if let Some(payload) = dec.next_frame()? {
            return Ok(Some(payload));
        }
        match dec.read_from(r) {
            Ok(0) if dec.buffered() == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
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
    let len = len as usize;
    let mut payload = Vec::new();
    let mut window = [0u8; READ_WINDOW];
    while payload.len() < len {
        let want = (len - payload.len()).min(READ_WINDOW);
        match r.read(&mut window[..want]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => payload.extend_from_slice(&window[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let computed = frame_checksum(&payload);
    if computed != checksum {
        return Err(FrameError::Checksum {
            stored: checksum,
            computed,
        });
    }
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
    /// of `buf` is room a socket read fills directly.
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
        if self.end + n > self.buf.len() && self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.end + n > self.buf.len() {
            self.buf.resize(self.end + n, 0);
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.end - self.pos
    }

    /// Drain one complete frame's payload, if the buffer holds one.
    ///
    /// * `Ok(Some(payload))` — one whole, checksum-verified frame.
    /// * `Ok(None)` — no complete frame yet; feed more bytes.
    /// * `Err(_)` — the stream is poisoned (hostile length or failed
    ///   checksum); the connection should be closed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = &self.buf[self.pos..self.end];
        if avail.len() < FRAME_HEADER {
            return Ok(None);
        }
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
        if avail.len() < total {
            return Ok(None);
        }
        let payload = avail[FRAME_HEADER..total].to_vec();
        let computed = frame_checksum(&payload);
        if computed != checksum {
            return Err(FrameError::Checksum {
                stored: checksum,
                computed,
            });
        }
        self.pos += total;
        // Fully consumed: the next bytes start at the front again, and
        // a buffer one large frame grew gives its memory back, so a
        // long-lived connection holds a read window, not its largest
        // frame.
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
            if self.buf.len() > SHRINK_ABOVE {
                self.buf.truncate(READ_WINDOW);
                self.buf.shrink_to(READ_WINDOW);
            }
        }
        Ok(Some(payload))
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

    #[test]
    fn incremental_decoder_handles_any_chunking() {
        let mut stream = Vec::new();
        let payloads: &[&[u8]] = &[b"first", b"", b"third frame, longer"];
        for p in payloads {
            stream.extend_from_slice(&encode_frame(p).unwrap());
        }
        for chunk in [1, 2, 3, 7, stream.len()] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                dec.extend(piece);
                while let Some(payload) = dec.next_frame().unwrap() {
                    got.push(payload);
                }
            }
            assert_eq!(got.len(), payloads.len(), "chunk size {chunk}");
            for (g, p) in got.iter().zip(payloads) {
                assert_eq!(g.as_slice(), *p);
            }
            assert_eq!(dec.buffered(), 0);
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
            Some(payload)
        );
        assert_eq!(
            read_frame_buffered(&mut r, &mut dec).unwrap().as_deref(),
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
            Some(payload)
        );
        assert_eq!(dec.buffered(), 0);
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
