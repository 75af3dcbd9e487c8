//! A ranked answer on the wire without its owned form: fields written
//! from whatever holds them (`ctxpref_bytes::Put`) — on the server, the
//! rows straight from the relation, no owned row and no per-row
//! `String` — and the presized frame they are written into
//! ([`answer_frame`]). The order the fields travel in is each struct's
//! table line in the parent module, whose generated `put_fields` both
//! encodings call.

use ctxpref_bytes::{Put, Shown};
use ctxpref_relation::Value;

use super::{framed_response, ResponseTag};
use crate::frame::Framed;

/// Room reserved per answer row when an answer frame is presized: a
/// name of up to 20 bytes, its length and its score.
const ROW_BYTES: usize = 32;

/// A relation value as an answer row's name: a string borrowed from the
/// relation, any other value rendered straight into the payload — the
/// text `Value`'s `Display` gives, as an owned row would hold.
pub(crate) struct Name<'a>(pub(crate) &'a Value);

impl Put for Name<'_> {
    fn put_into(self, out: &mut Vec<u8>) {
        match self.0.as_str() {
            Some(s) => s.put_into(out),
            None => Shown(self.0).put_into(out),
        }
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
