//! The frame, pinned: checksum golden values, every single-bit flip of
//! frames up to 72 B and of a 3,130 B one, swapped words and blocks,
//! short and hostile headers, and frames built in place.

use ctxpref_bytes::{
    decode_header, encode_frame, frame_checksum, open_frame, seal_frame, split_frame, DecodeKind,
    FrameError, FRAME_HEADER, MAX_FRAME_PAYLOAD,
};
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

/// The frame at the front of `stream`, its payload copied out.
fn split(stream: &[u8]) -> Result<Option<Vec<u8>>, FrameError> {
    split_frame(stream).map(|f| f.map(|(p, _)| p.to_vec()))
}

#[test]
fn roundtrip_and_empty_payload() {
    for payload in [&b"hello wire"[..], b""] {
        let frame = encode_frame(payload).unwrap();
        let (got, total) = split_frame(&frame).unwrap().unwrap();
        assert_eq!((got, total), (payload, frame.len()));
    }
}

#[test]
fn checksum_golden_values() {
    // Pinned, so the checksum cannot drift silently: a change here
    // is a wire-version change and a WAL format change.
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
                matches!(split(&bad), Err(FrameError::Checksum { .. })),
                "{len} B, payload bit {bit}"
            );
        }
        // Anywhere in the length field: the checksum covers the
        // field itself, so a payload it would delimit wrongly never
        // verifies (the unit test pins the hash side of this). Where
        // the declared bytes are all there (the frame runs on into
        // more bytes), the split says so; past the cap it is refused
        // from the header alone.
        let mut stream = frame.clone();
        stream.extend_from_slice(&noise(4096));
        for bit in 0..32 {
            let declared = len as u32 ^ (1 << bit);
            let mut bad = stream.clone();
            bad[..4].copy_from_slice(&declared.to_le_bytes());
            let arrived = FRAME_HEADER + declared as usize <= bad.len();
            match split(&bad) {
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
            matches!(split(&bad), Err(FrameError::Checksum { .. })),
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
fn short_and_hostile_headers_are_typed() {
    let frame = encode_frame(b"payload").unwrap();
    for cut in 0..frame.len() {
        assert!(matches!(split(&frame[..cut]), Ok(None)), "cut at {cut}");
    }
    let mut hostile = u32::MAX.to_le_bytes().to_vec();
    hostile.extend_from_slice(&0u64.to_le_bytes());
    assert!(matches!(
        split(&hostile),
        Err(FrameError::Oversized { declared, max: MAX_FRAME_PAYLOAD })
            if declared == u64::from(u32::MAX)
    ));
    let err = decode_header(&[0u8; 4]).unwrap_err();
    assert_eq!((err.kind, err.offset), (DecodeKind::Truncated, 4));
}

#[test]
fn a_frame_built_in_place_equals_an_encoded_one() {
    let mut out = b"earlier frame bytes".to_vec();
    let at = open_frame(&mut out);
    out.extend_from_slice(b"payload");
    seal_frame(&mut out, at).unwrap();
    assert_eq!(out[at..], encode_frame(b"payload").unwrap()[..]);
}
