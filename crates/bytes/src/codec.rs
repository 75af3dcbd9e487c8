//! The field codec: LEB128 varints for integers and lengths,
//! length-delimited strings and byte runs, IEEE-754 little-endian
//! floats, one byte for a bool, and the two table macros that declare a
//! type's encoding once. Every length and count is checked against the
//! bytes present **before** any allocation, so a hostile claim costs a
//! typed [`DecodeError`] carrying the byte offset, never memory.

use std::fmt::Display;

use crate::error::{DecodeError, DecodeKind};

/// Append `v` as an LEB128 varint.
#[inline]
pub fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a length-delimited byte run: its length, then the bytes.
#[inline]
pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_uv(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// The error for a tag byte `tag`, read at `offset`, that names no
/// variant of `what`.
#[inline]
pub fn bad_tag(what: &'static str, tag: u8, offset: usize) -> DecodeError {
    DecodeError {
        offset,
        kind: DecodeKind::BadTag {
            what,
            tag: u64::from(tag),
        },
    }
}

/// A bounds-checked binary reader over one payload. Every failure
/// carries the byte offset at which it occurred.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The offset of the next byte to read.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read.
    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A `kind` failure at the current offset.
    #[inline]
    fn err(&self, kind: DecodeKind) -> DecodeError {
        DecodeError {
            offset: self.pos,
            kind,
        }
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.err(DecodeKind::Truncated))?;
        self.pos += 1;
        Ok(b)
    }

    /// One LEB128 varint of at most 64 bits.
    #[inline]
    pub fn uv(&mut self) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(DecodeError {
                    offset: start,
                    kind: DecodeKind::VarintOverflow,
                });
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError {
                    offset: start,
                    kind: DecodeKind::VarintOverflow,
                });
            }
        }
    }

    /// A declared length or element count, validated against the bytes
    /// that remain (each element occupies at least `min_elem_bytes`):
    /// the one place where a hostile claim is caught before any
    /// allocation is sized by it.
    #[inline]
    pub fn checked_count(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let start = self.pos;
        let n = self.uv()?;
        let budget = self.remaining() as u64 / (min_elem_bytes.max(1) as u64);
        if n > budget {
            return Err(DecodeError {
                offset: start,
                kind: DecodeKind::LengthOverflow {
                    declared: n,
                    max: budget,
                },
            });
        }
        Ok(n as usize)
    }

    /// A length-delimited byte run, borrowed from the payload.
    #[inline]
    fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.checked_count(1)?;
        let run = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(run)
    }

    /// A length-delimited UTF-8 text, borrowed from the payload.
    #[inline]
    pub(crate) fn str(&mut self) -> Result<&'a str, DecodeError> {
        let start = self.pos;
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|_| DecodeError {
            offset: start,
            kind: DecodeKind::BadUtf8,
        })
    }

    /// The bytes read since offset `start`.
    #[inline]
    pub(crate) fn since(&self, start: usize) -> &'a [u8] {
        &self.buf[start..self.pos]
    }

    /// Fail with `TrailingBytes` unless every byte was read.
    #[inline]
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(self.err(DecodeKind::TrailingBytes));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Field encodings
// ---------------------------------------------------------------------------

/// How one field type travels.
pub trait Wire: Sized {
    /// The fewest bytes one value occupies: the floor
    /// [`Dec::checked_count`] divides the remaining input by before a
    /// vector of these is allocated.
    const MIN_BYTES: usize;
    /// Append the value.
    fn put(&self, out: &mut Vec<u8>);
    /// Read one value.
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError>;
}

impl Wire for u64 {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_uv(out, *self);
    }
    #[inline]
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        dec.uv()
    }
}

/// Counts, indices, limits and ids: a varint that must fit the
/// narrower integer, else `LengthOverflow` naming its maximum.
macro_rules! narrow_varint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 1;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                put_uv(out, *self as u64);
            }
            #[inline]
            fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
                let start = dec.pos;
                let v = dec.uv()?;
                <$ty>::try_from(v).map_err(|_| DecodeError {
                    offset: start,
                    kind: DecodeKind::LengthOverflow {
                        declared: v,
                        max: <$ty>::MAX as u64,
                    },
                })
            }
        }
    )*};
}

narrow_varint!(usize, u32, u16);

impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        if dec.remaining() < 8 {
            return Err(dec.err(DecodeKind::Truncated));
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&dec.buf[dec.pos..dec.pos + 8]);
        dec.pos += 8;
        Ok(f64::from_le_bytes(raw))
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(dec.u8()? != 0)
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
    #[inline]
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        dec.str().map(str::to_owned)
    }
}

/// A record payload: raw length-delimited bytes.
impl Wire for Vec<u8> {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }
    #[inline]
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(dec.bytes()?.to_vec())
    }
}

/// A count, then the elements — allocated only once the count is
/// known to fit the bytes that remain.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_uv(out, self.len() as u64);
        for item in self {
            item.put(out);
        }
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n = dec.checked_count(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(dec)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(dec)?, B::get(dec)?))
    }
}

/// An optional string: a presence flag that must be exactly 0 or 1,
/// then the string.
impl Wire for Option<String> {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.as_deref().put_into(out);
    }
    #[inline]
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let at = dec.pos;
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some(String::get(dec)?)),
            flag => Err(bad_tag("resolved-state flag", flag, at)),
        }
    }
}

/// How a field travels as a stand-in wire type: a table line writes it
/// `field as W`. For a fixed-width integer, or a type of another crate
/// whose encoding lives with the table that carries it.
pub trait Via<T> {
    /// Append `field`.
    fn put_via(field: &T, out: &mut Vec<u8>);
    /// Read one field.
    fn get_via(dec: &mut Dec<'_>) -> Result<T, DecodeError>;
}

/// A `u64` as 8 little-endian bytes instead of a varint (a digest).
pub struct Le64;

impl Via<u64> for Le64 {
    #[inline]
    fn put_via(field: &u64, out: &mut Vec<u8>) {
        out.extend_from_slice(&field.to_le_bytes());
    }
    #[inline]
    fn get_via(dec: &mut Dec<'_>) -> Result<u64, DecodeError> {
        // Byte by byte, so a truncated value is reported at the first
        // missing byte.
        let mut raw = [0u8; 8];
        for b in &mut raw {
            *b = dec.u8()?;
        }
        Ok(u64::from_le_bytes(raw))
    }
}

// ---------------------------------------------------------------------------
// Borrowed stand-ins
// ---------------------------------------------------------------------------

/// One field as it is written: an owned field through its [`Wire`]
/// encoding, or a borrowed stand-in that writes the same bytes.
pub trait Put {
    /// Append the field.
    fn put_into(self, out: &mut Vec<u8>);
}

impl<T: Wire> Put for &T {
    #[inline]
    fn put_into(self, out: &mut Vec<u8>) {
        self.put(out);
    }
}

/// A text as it travels: its byte length, then its UTF-8 bytes.
impl Put for &str {
    #[inline]
    fn put_into(self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
}

/// An optional field: a presence flag, then the field if present.
impl<P: Put> Put for Option<P> {
    fn put_into(self, out: &mut Vec<u8>) {
        match self {
            Some(field) => {
                out.push(1);
                field.put_into(out);
            }
            None => out.push(0),
        }
    }
}

/// Anything `Display`, travelling as the text it renders to, written
/// straight into the payload.
pub struct Shown<T>(pub T);

impl<T: Display> Put for Shown<T> {
    fn put_into(self, out: &mut Vec<u8>) {
        put_display(out, &self.0);
    }
}

/// A sequence as it travels — its count, then its items — with each
/// item written by a closure, typically a struct's `put_fields`.
pub struct Seq<I, F>(I, F);

impl<I, F> Seq<I, F>
where
    I: ExactSizeIterator,
    F: FnMut(&mut Vec<u8>, I::Item),
{
    /// The items, each written by `put_item`.
    pub fn new(items: I, put_item: F) -> Self {
        Self(items, put_item)
    }
}

impl<I, F> Put for Seq<I, F>
where
    I: ExactSizeIterator,
    F: FnMut(&mut Vec<u8>, I::Item),
{
    fn put_into(self, out: &mut Vec<u8>) {
        let Self(items, mut put_item) = self;
        put_uv(out, items.len() as u64);
        for item in items {
            put_item(out, item);
        }
    }
}

/// A text rendered by `Display` straight into the payload: written once
/// behind a one-byte length, which is patched in — and widened on the
/// rare text of 128 bytes or more — once the length is known.
fn put_display(out: &mut Vec<u8>, value: &impl Display) {
    use std::io::Write as _;
    let at = out.len();
    out.push(0);
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "{value}");
    let len = out.len() - at - 1;
    if len < 0x80 {
        out[at] = len as u8;
    } else {
        let mut prefix = Vec::with_capacity(10);
        put_uv(&mut prefix, len as u64);
        out.splice(at..=at, prefix);
    }
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

/// A message kind: a tag byte naming the variant, then its fields.
/// Implemented by [`vocabulary!`](crate::vocabulary).
pub trait Message: Sized {
    /// What a `BadTag` error calls this kind's tag.
    const WHAT: &'static str;
    /// The batch variant's tag: a batch is legal only at top level.
    const BATCH: Option<u8> = None;
    /// The variant's tag byte.
    fn tag(&self) -> u8;
    /// Append the variant's fields.
    fn put_body(&self, out: &mut Vec<u8>);
    /// The body of the variant tagged `tag`, which was read at byte
    /// `at` (where an unknown tag is reported).
    fn get_body(dec: &mut Dec<'_>, tag: u8, at: usize) -> Result<Self, DecodeError>;
}

/// A message inside another one — a batch item, a migrate action, a
/// WAL op — travels as its tag and body.
impl<M: Message> Wire for M {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        self.put_body(out);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let at = dec.pos;
        let tag = dec.u8()?;
        // Batches do not nest: refused before the body is read, so
        // hostile nesting costs no recursion.
        if M::BATCH == Some(tag) {
            return Err(bad_tag(M::WHAT, tag, at));
        }
        M::get_body(dec, tag, at)
    }
}

/// A struct travels as its fields, in the order listed. The encoder is
/// `put_fields`, generated from the same list: it takes each field as
/// anything that writes it ([`Put`]), so the owned struct and a borrowed
/// stand-in for it (the server's answer rows) travel in one order.
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident: $ty:ty),* }) => {
        impl $name {
            /// The fields, written in the order they travel.
            pub(crate) fn put_fields(out: &mut Vec<u8>, $($field: impl $crate::Put),*) {
                $($crate::Put::put_into($field, out);)*
            }
        }

        impl $crate::Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$ty as $crate::Wire>::MIN_BYTES)*;
            fn put(&self, out: &mut Vec<u8>) {
                Self::put_fields(out, $(&self.$field),*);
            }
            fn get(dec: &mut $crate::Dec<'_>) -> Result<Self, $crate::DecodeError> {
                Ok(Self { $($field: <$ty as $crate::Wire>::get(dec)?),* })
            }
        }
    };
}

/// Declares one message kind: a line per variant with its tag and the
/// order its fields travel in (a field written `f as W` travels through
/// [`Via`] stand-in `W`). The compiler holds each table to its enum: a
/// missing variant or field does not build, and neither does a tag used
/// twice.
///
/// A `lends L` clause makes the enum `L<'a>` a
/// [`LentMessage`](crate::LentMessage) of the kind, covering each line
/// marked `lent` (whose fields have no `as`): its variant of the same
/// name holds each field's [`Lend`](crate::Lend) form, and its encoder,
/// decoder and conversions both ways come from those lines.
#[macro_export]
macro_rules! vocabulary {
    // The `lends` clause, one line at a time: the lines marked `lent`
    // are collected, then the lent kind's impl is generated from them.
    (@lent [] $($lines:tt)*) => {};
    (@lent [$lent:ident $kind:ident $tags:ident]
        [$(($tag:literal $variant:ident $($field:ident)*))*]) => {
        impl<'a> $crate::LentMessage<'a> for $lent<'a> {
            type Owned = $kind;

            fn tag(&self) -> u8 {
                match self {
                    $($lent::$variant { .. } => $tags::$variant as u8,)*
                }
            }

            fn put_body(&self, out: &mut Vec<u8>) {
                match *self {
                    $($lent::$variant { $($field),* } => {
                        $($crate::Lend::put_lent($field, out);)*
                    })*
                }
            }

            fn get_lent(
                dec: &mut $crate::Dec<'a>,
                tag: u8,
            ) -> Result<Option<Self>, $crate::DecodeError> {
                Ok(Some(match tag {
                    $($tag => $lent::$variant {
                        $($field: $crate::Lend::get_lent(dec)?),*
                    },)*
                    _ => return Ok(None),
                }))
            }

            fn owned(&self) -> $kind {
                match *self {
                    $($lent::$variant { $($field),* } => $kind::$variant {
                        $($field: $crate::Lend::owned($field)),*
                    },)*
                }
            }

            fn lend(owned: &'a $kind) -> Option<Self> {
                Some(match owned {
                    $($kind::$variant { $($field),* } => $lent::$variant {
                        $($field: $crate::Lend::lend($field)),*
                    },)*
                    _ => return None,
                })
            }
        }
    };
    (@lent [$($head:tt)*] [$($done:tt)*]
        $tag:literal => $variant:ident { $($field:ident),* } lent, $($rest:tt)*) => {
        $crate::vocabulary!(@lent [$($head)*] [$($done)* ($tag $variant $($field)*)] $($rest)*);
    };
    (@lent [$($head:tt)*] [$($done:tt)*] $tag:literal => $variant:ident, $($rest:tt)*) => {
        $crate::vocabulary!(@lent [$($head)*] [$($done)*] $($rest)*);
    };
    (@lent [$($head:tt)*] [$($done:tt)*]
        $tag:literal => $variant:ident $body:tt, $($rest:tt)*) => {
        $crate::vocabulary!(@lent [$($head)*] [$($done)*] $($rest)*);
    };
    (
        $kind:ident, tags $tags:ident, $what:literal
            $(, batch $batch:ident)? $(, lends $lent:ident)?;
        $($tag:literal => $variant:ident
            $({ $($field:ident $(as $via:ident)?),* })? $(($inner:ident))? $($mark:ident)?,)*
    ) => {
        /// The tag byte of each variant.
        #[repr(u8)]
        enum $tags {
            $($variant = $tag,)*
        }

        impl $crate::Message for $kind {
            const WHAT: &'static str = $what;
            $(const BATCH: Option<u8> = Some($tags::$batch as u8);)?

            fn tag(&self) -> u8 {
                match self {
                    $(Self::$variant { .. } => $tags::$variant as u8,)*
                }
            }

            fn put_body(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$variant $({ $($field),* })? $(($inner))? => {
                        $($($crate::field!(put out, $field $(as $via)?);)*)?
                        $($crate::field!(put out, $inner);)?
                    })*
                }
            }

            fn get_body(
                dec: &mut $crate::Dec<'_>,
                tag: u8,
                at: usize,
            ) -> Result<Self, $crate::DecodeError> {
                Ok(match tag {
                    $($tag => Self::$variant
                        $({ $($field: $crate::field!(get dec, $field $(as $via)?)),* })?
                        $(($crate::field!(get dec, $inner)))?,)*
                    _ => return Err($crate::bad_tag(
                        <Self as $crate::Message>::WHAT, tag, at,
                    )),
                })
            }
        }

        $crate::vocabulary!(@lent [$($lent $kind $tags)?] []
            $($tag => $variant $({ $($field $(as $via)?),* })? $(($inner))? $($mark)?,)*);
    };
}

/// One field of a `vocabulary!` line, written or read as its own
/// type or `as` the named stand-in.
#[doc(hidden)]
#[macro_export]
macro_rules! field {
    (put $out:ident, $f:ident) => {
        $crate::Wire::put($f, $out)
    };
    (put $out:ident, $f:ident as $via:ident) => {
        <$via as $crate::Via<_>>::put_via($f, $out)
    };
    (get $dec:ident, $f:ident) => {
        $crate::Wire::get($dec)?
    };
    (get $dec:ident, $f:ident as $via:ident) => {
        <$via as $crate::Via<_>>::get_via($dec)?
    };
}
