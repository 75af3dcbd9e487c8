//! The field codec's primitives and FNV-1a, pinned.

use ctxpref_bytes::{fnv1a64, put_uv, Dec, DecodeKind, Wire};
#[test]
fn varints_roundtrip() {
    for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
        let mut out = Vec::new();
        put_uv(&mut out, v);
        let mut dec = Dec::new(&out);
        assert_eq!(dec.uv().unwrap(), v);
        dec.expect_end().unwrap();
    }
}

#[test]
fn overlong_varint_is_rejected() {
    // 10 continuation bytes overflow a u64.
    let overlong = [0xff; 11];
    let mut dec = Dec::new(&overlong);
    let err = dec.uv().unwrap_err();
    assert_eq!(err.kind, DecodeKind::VarintOverflow);
    assert_eq!(err.offset, 0);
}

#[test]
fn narrow_integers_refuse_wider_values_typed() {
    let mut out = Vec::new();
    put_uv(&mut out, u64::from(u16::MAX) + 1);
    let err = u16::get(&mut Dec::new(&out)).unwrap_err();
    assert_eq!(
        err.kind,
        DecodeKind::LengthOverflow {
            declared: 65_536,
            max: 65_535
        }
    );
    assert_eq!(u32::get(&mut Dec::new(&out)).unwrap(), 65_536);
}

#[test]
fn fnv1a64_golden_values() {
    // The published FNV-1a 64 vectors, pinned: stripe choice, ring
    // points, fault-plan draws and saved-file checksums all derive
    // from this function, so it must never drift.
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
