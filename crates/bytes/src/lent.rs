//! Messages lent from where they are held: a lent field ([`Lend`])
//! reads a text out of a payload as a `&str` into it, a sequence of
//! texts as [`Tokens`], and writes the bytes its owned form writes; a
//! lent message kind ([`LentMessage`]) is some variants of an owned
//! kind built from such fields, generated by `vocabulary!`'s `lends`
//! clause. A server answers what it can from the payload itself, and a
//! caller sends what it holds as borrowed texts, with no owned message
//! made on either side.

use crate::codec::{put_bytes, put_uv, Dec, Wire};
use crate::error::DecodeError;

/// Some variants of a message kind with their fields lent ([`Lend`]):
/// read from a payload without copying a text, or built from a
/// caller's borrowed texts, and written as the owned variant's bytes.
/// Implemented by [`vocabulary!`](crate::vocabulary)'s `lends` clause.
pub trait LentMessage<'a>: Sized {
    /// The owned kind.
    type Owned;
    /// The variant's tag byte, as its owned form's.
    fn tag(&self) -> u8;
    /// Append the variant's fields, as its owned form would.
    fn put_body(&self, out: &mut Vec<u8>);
    /// The body of the variant tagged `tag`, lent from the payload;
    /// `None` (nothing read) for a tag this kind does not lend, or
    /// lends only from an owned value (a variant with a field that
    /// travels `as` a stand-in).
    fn get_lent(dec: &mut Dec<'a>, tag: u8) -> Result<Option<Self>, DecodeError>;
    /// The owned message.
    fn owned(&self) -> Self::Owned;
    /// An owned message lent, if its variant is one this kind lends.
    fn lend(owned: &'a Self::Owned) -> Option<Self>;
}

/// How one field travels in a message lent from where it is held
/// ([`LentMessage`]): read from a payload without copying what can be
/// borrowed, written as the bytes its owned form writes, and made owned
/// only when asked.
pub trait Lend<'a>: Copy {
    /// The field's owned form.
    type Owned;
    /// Read one field, borrowing from the payload: the same checks, and
    /// the same errors at the same offsets, as reading the owned form.
    fn get_lent(dec: &mut Dec<'a>) -> Result<Self, DecodeError>;
    /// Append the field.
    fn put_lent(self, out: &mut Vec<u8>);
    /// The field made owned.
    fn owned(self) -> Self::Owned;
    /// The field lent from its owned form.
    fn lend(owned: &'a Self::Owned) -> Self;
}

impl<'a> Lend<'a> for &'a str {
    type Owned = String;
    #[inline]
    fn get_lent(dec: &mut Dec<'a>) -> Result<Self, DecodeError> {
        dec.str()
    }
    #[inline]
    fn put_lent(self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
    fn owned(self) -> String {
        self.to_owned()
    }
    fn lend(owned: &'a String) -> Self {
        owned
    }
}

/// Numbers are lent by value.
macro_rules! lent_by_value {
    ($($ty:ty),*) => {$(
        impl Lend<'_> for $ty {
            type Owned = $ty;
            #[inline]
            fn get_lent(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
                <$ty as Wire>::get(dec)
            }
            #[inline]
            fn put_lent(self, out: &mut Vec<u8>) {
                self.put(out);
            }
            fn owned(self) -> $ty {
                self
            }
            fn lend(owned: &$ty) -> Self {
                *owned
            }
        }
    )*};
}

lent_by_value!(u64, usize, f64);

/// A sequence of texts lent from where it is held — a payload, a
/// caller's string slices, an owned message's strings — travelling as
/// a `Vec<String>` does: its count, then each text.
#[derive(Clone, Copy)]
pub enum Tokens<'a> {
    /// Read from a payload: `n` texts, each encoded as it travels,
    /// back to back in `bytes` and checked when they were read.
    Encoded {
        /// How many texts.
        n: usize,
        /// Their encodings.
        bytes: &'a [u8],
    },
    /// A caller's texts.
    Strs(&'a [&'a str]),
    /// An owned message's texts.
    Strings(&'a [String]),
}

impl<'a> Tokens<'a> {
    /// How many texts.
    pub fn len(&self) -> usize {
        match *self {
            Tokens::Encoded { n, .. } => n,
            Tokens::Strs(s) => s.len(),
            Tokens::Strings(s) => s.len(),
        }
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The texts, in order.
    pub fn iter(&self) -> TokenIter<'a> {
        TokenIter {
            tokens: *self,
            next: 0,
            at: 0,
        }
    }
}

/// Equal when the texts are, however each side holds them.
impl PartialEq for Tokens<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Tokens<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The texts of a [`Tokens`], in order.
#[derive(Debug, Clone)]
pub struct TokenIter<'a> {
    tokens: Tokens<'a>,
    /// The index of the next text.
    next: usize,
    /// Where the next encoded text starts in `Tokens::Encoded`'s bytes.
    at: usize,
}

impl<'a> Iterator for TokenIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.next == self.tokens.len() {
            return None;
        }
        let i = self.next;
        self.next += 1;
        Some(match self.tokens {
            Tokens::Encoded { bytes, .. } => {
                let mut dec = Dec::new(&bytes[self.at..]);
                let text = dec.str().expect("checked when it was read");
                self.at += dec.pos();
                text
            }
            Tokens::Strs(s) => s[i],
            Tokens::Strings(s) => &s[i],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.tokens.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TokenIter<'_> {}

impl<'a> Lend<'a> for Tokens<'a> {
    type Owned = Vec<String>;
    fn get_lent(dec: &mut Dec<'a>) -> Result<Self, DecodeError> {
        let n = dec.checked_count(String::MIN_BYTES)?;
        let start = dec.pos();
        for _ in 0..n {
            dec.str()?;
        }
        Ok(Tokens::Encoded {
            n,
            bytes: dec.since(start),
        })
    }
    fn put_lent(self, out: &mut Vec<u8>) {
        put_uv(out, self.len() as u64);
        for text in self.iter() {
            put_bytes(out, text.as_bytes());
        }
    }
    fn owned(self) -> Vec<String> {
        self.iter().map(str::to_owned).collect()
    }
    fn lend(owned: &'a Vec<String>) -> Self {
        Tokens::Strings(owned)
    }
}
