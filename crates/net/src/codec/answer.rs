//! A ranked answer on the wire without its owned form: fields written
//! from whatever holds them ([`Put`]) — on the server, the rows straight
//! from the relation, no owned row and no per-row `String` — and the
//! presized frame they are written into ([`answer_frame`]). The order
//! the fields travel in is each struct's table line in the parent
//! module, whose generated `put_fields` both encodings call.

use std::fmt::Display;

use ctxpref_relation::Value;

use super::{framed_response, put_bytes, put_uv, ResponseTag, Wire};
use crate::frame::Framed;

/// Room reserved per answer row when an answer frame is presized: a
/// name of up to 20 bytes, its length and its score.
const ROW_BYTES: usize = 32;

/// One field as it is written: an owned field through its [`Wire`]
/// encoding, or a borrowed stand-in that writes the same bytes.
pub(crate) trait Put {
    fn put_into(self, out: &mut Vec<u8>);
}

impl<T: Wire> Put for &T {
    fn put_into(self, out: &mut Vec<u8>) {
        self.put(out);
    }
}

/// A text as it travels: its byte length, then its UTF-8 bytes.
impl Put for &str {
    fn put_into(self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
}

/// A relation value as an answer row's name: a string borrowed from the
/// relation, any other value rendered straight into the payload — the
/// text `Value`'s `Display` gives, as an owned row would hold.
impl Put for &Value {
    fn put_into(self, out: &mut Vec<u8>) {
        match self.as_str() {
            Some(s) => s.put_into(out),
            None => put_display(out, self),
        }
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
pub(crate) struct Shown<T>(pub T);

impl<T: Display> Put for Shown<T> {
    fn put_into(self, out: &mut Vec<u8>) {
        put_display(out, &self.0);
    }
}

/// A sequence as it travels — its count, then its items — with each
/// item written by a closure, typically a struct's `put_fields`.
pub(crate) struct Seq<I, F>(I, F);

impl<I, F> Seq<I, F>
where
    I: ExactSizeIterator,
    F: FnMut(&mut Vec<u8>, I::Item),
{
    pub(crate) fn new(items: I, put_item: F) -> Self {
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

/// A ranked answer of `rows` rows as a whole response frame, its body
/// written by `put_body` (`RemoteAnswer::put_fields` over borrowed
/// parts) into a buffer presized from the row count.
pub(crate) fn answer_frame(id: u64, rows: usize, put_body: impl FnOnce(&mut Vec<u8>)) -> Framed {
    framed_response(
        id,
        ResponseTag::Answer as u8,
        64 + rows * ROW_BYTES,
        put_body,
    )
}
