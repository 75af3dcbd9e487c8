//! Wire framing: length-prefixed, checksummed frames over sockets.
//!
//! Every message on a `ctxpref` socket travels as one frame:
//!
//! ```text
//! [u32 payload_len | u64 checksum | payload…]      (little endian)
//! ```
//!
//! The layout, its word-at-a-time checksum ([`frame_checksum`]) and
//! the in-place builders are `ctxpref_bytes`'s — the one frame every
//! WAL record and the manifest travel in too — and are re-exported
//! here. This module adds the socket side. The declared length is
//! validated against [`MAX_FRAME_PAYLOAD`] **before any allocation**,
//! so a hostile peer claiming a multi-gigabyte frame costs the server
//! twelve bytes of header read and one typed error, never memory. A
//! frame it receives through a [`FrameDecoder`] is verified and
//! **lent** where it landed: the payload is a slice of the decoder's
//! buffer, decoded from there.

use std::io::{Read, Write};

use ctxpref_faults::hit_io;
use ctxpref_faults::sites::{NET_FRAME_READ, NET_FRAME_WRITE};

pub use ctxpref_bytes::{
    decode_header, encode_frame, frame_checksum, FRAME_HEADER, MAX_FRAME_PAYLOAD,
};
use ctxpref_bytes::{frame_header, split_frame, verify};

use crate::error::FrameError;

/// The most one socket read asks for: a reader never sizes a buffer
/// by a declared length beyond this before the bytes arrive.
const READ_WINDOW: usize = 16 * 1024;

/// A drained [`FrameDecoder`] whose buffer grew past this shrinks back
/// to one read window. Well above the window, so the partial frame a
/// read leaves behind does not make the buffer shrink and regrow.
const SHRINK_ABOVE: usize = 4 * READ_WINDOW;

/// A finished frame, or why it could not be built.
pub(crate) type Framed = Result<Vec<u8>, FrameError>;

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
    loop {
        if let Some(payload) = dec.next_payload()? {
            return Ok(Some(&dec.buf[payload]));
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
    // Reject on the declared length alone: no buffer exists yet, so a
    // hostile 4 GiB claim cannot OOM the server.
    let (len, checksum) = frame_header(&header)?.ok_or(FrameError::Truncated)?;
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
    verify(checksum, &payload)?;
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

    /// Drain one complete frame, if the buffer holds one, and lend its
    /// payload where it landed: no copy. The slice stays valid until
    /// the decoder is next called.
    ///
    /// * `Ok(Some(payload))` — one whole, checksum-verified frame.
    /// * `Ok(None)` — no complete frame yet; feed more bytes.
    /// * `Err(_)` — the stream is poisoned (hostile length or failed
    ///   checksum); the connection should be closed.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        Ok(self.next_payload()?.map(|payload| &self.buf[payload]))
    }

    /// Drain one complete frame: where its verified payload lies in the
    /// buffer. A hostile length is refused from the header alone.
    fn next_payload(&mut self) -> Result<Option<std::ops::Range<usize>>, FrameError> {
        self.settle();
        let Some((_, total)) = split_frame(&self.buf[self.pos..self.end])? else {
            return Ok(None);
        };
        let payload = self.pos + FRAME_HEADER..self.pos + total;
        self.pos += total;
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
}
