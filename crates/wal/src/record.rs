//! The logged mutation vocabulary and its record framing.
//!
//! Every mutating operation is logged as one frame of the wire's byte
//! format (`ctxpref_bytes`) whose payload is the record's LSN, then
//! the op:
//!
//! ```text
//! [u32 payload_len | u64 checksum | lsn varint | op…]      (little endian)
//! ```
//!
//! The checksum is the frame checksum over `payload_len ‖ payload`, so
//! a bit flip anywhere in the record — including the length field —
//! fails verification. An op is one line of [`WalOp`]'s `vocabulary!`
//! table: a tag byte, then its fields. The user travels as its bytes;
//! a preference as ids — each descriptor clause's `ParamId` and
//! `ValueId`s, the clause's `AttrId`, operator and tagged `Value` —
//! then the score's bits. Encoding needs no environment: a database's
//! environment and relation are fixed at creation, so an id means the
//! same thing on every replay and on every replica. Decoding checks
//! every id against the database's environment and relation, so no
//! record, however damaged or hostile, can make replay panic.
//!
//! The same op bytes travel everywhere an op does: in segments, in
//! replication's shipped records, in migration's snapshot and catch-up
//! pages, under the anti-entropy digests, and in a snapshot's user
//! frames (checkpoints and saves, see [`crate::snapshot`]).

use ctxpref_bytes::{
    bad_tag, open_frame, put_uv, seal_frame, vocabulary, Dec, DecodeError, DecodeKind, Le64, Put,
    Via, Wire, FRAME_HEADER,
};
use ctxpref_context::{ClauseRef, ContextEnvironment, DescriptorBuilder, ParamId};
use ctxpref_core::{CoreError, MultiUserDb, ShardedMultiUserDb};
use ctxpref_hierarchy::ValueId;
use ctxpref_profile::{AttributeClause, ContextualPreference, Profile};
use ctxpref_relation::{AttrId, CompareOp, Relation, Value};

use crate::error::WalError;

/// Append the record carrying `lsn` and the encoded `op` to `out`, as
/// one frame built in place.
pub(crate) fn put_record(out: &mut Vec<u8>, lsn: u64, op: &[u8]) -> Result<(), WalError> {
    let at = open_frame(out);
    put_uv(out, lsn);
    out.extend_from_slice(op);
    seal_frame(out, at).map_err(|e| WalError::Payload {
        reason: e.to_string(),
    })
}

/// The length of the record [`put_record`] frames for `lsn` and op
/// bytes `op_len` long: the frame header, the LSN varint, the op.
pub(crate) fn record_len(lsn: u64, op_len: usize) -> usize {
    let lsn_len = (u64::BITS - lsn.leading_zeros()).div_ceil(7).max(1);
    FRAME_HEADER + lsn_len as usize + op_len
}

/// A verified record payload's LSN and op bytes.
pub(crate) fn split_record(payload: &[u8]) -> Result<(u64, &[u8]), DecodeError> {
    let mut dec = Dec::new(payload);
    let lsn = dec.uv()?;
    Ok((lsn, &payload[dec.pos()..]))
}

/// One mutating operation of the multi-user database, as logged.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Register `user` with an empty profile.
    AddUser {
        /// The user name.
        user: String,
    },
    /// Remove `user` and their profile.
    RemoveUser {
        /// The user name.
        user: String,
    },
    /// Insert a preference into `user`'s profile.
    InsertPreference {
        /// The user name.
        user: String,
        /// The preference to insert.
        pref: ContextualPreference,
    },
    /// Remove `user`'s preference at `index`.
    RemovePreference {
        /// The user name.
        user: String,
        /// Position in the profile's preference list.
        index: usize,
    },
    /// Re-score `user`'s preference at `index`.
    UpdateScore {
        /// The user name.
        user: String,
        /// Position in the profile's preference list.
        index: usize,
        /// The new interest score.
        score: f64,
    },
}

vocabulary! {
    WalOp, tags WalTag, "wal op";
    1 => AddUser { user },
    2 => RemoveUser { user },
    3 => InsertPreference { user, pref as Ids },
    4 => RemovePreference { user, index },
    5 => UpdateScore { user, index, score },
}

/// What applying a [`WalOp`] took out of the database — read by the
/// same call that applied the op, so it is the value *that* op removed
/// and not what some reader saw a moment earlier.
#[derive(Debug, Clone)]
pub enum Displaced {
    /// The op added or changed something; nothing left the database.
    Nothing,
    /// A `RemoveUser` took this profile out.
    Profile(Profile),
    /// A `RemovePreference` took this preference out.
    Preference(ContextualPreference),
}

impl WalOp {
    /// The user this operation targets (every logged op is per-user, so
    /// the WAL shards by it).
    pub fn user(&self) -> &str {
        match self {
            Self::AddUser { user }
            | Self::RemoveUser { user }
            | Self::InsertPreference { user, .. }
            | Self::RemovePreference { user, .. }
            | Self::UpdateScore { user, .. } => user,
        }
    }

    /// Encode as the op bytes a record, a shipped record or a migration
    /// page carries: the op's tag, then its fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.put(&mut out);
        out
    }

    /// The op bytes of inserting `pref` for `user`, written from
    /// borrowed parts: what [`Self::encode`] gives for the owned op.
    pub fn encode_insert(user: &str, pref: &ContextualPreference) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(WalTag::InsertPreference as u8);
        user.put_into(&mut out);
        Ids::put_via(pref, &mut out);
        out
    }

    /// Decode op bytes produced by [`Self::encode`], checking every id
    /// against the environment and relation of the database the op is
    /// for. Any malformed input is a typed [`WalError::Payload`].
    pub fn decode(
        payload: &[u8],
        env: &ContextEnvironment,
        rel: &Relation,
    ) -> Result<Self, WalError> {
        let mut dec = Dec::new(payload);
        let op = Self::decode_from(&mut dec, env, rel)?;
        dec.expect_end().map_err(payload_error)?;
        Ok(op)
    }

    /// [`Self::decode`] for the op at `dec`'s position, one of several
    /// back to back (a snapshot's user frame).
    pub(crate) fn decode_from(
        dec: &mut Dec<'_>,
        env: &ContextEnvironment,
        rel: &Relation,
    ) -> Result<Self, WalError> {
        let bad = |reason: String| WalError::Payload { reason };
        let op = Self::get(dec).map_err(payload_error)?;
        let Self::InsertPreference { pref, .. } = &op else {
            return Ok(op);
        };
        let check = |what: &str, id: usize, count: usize| match id < count {
            true => Ok(()),
            false => Err(bad(format!(
                "{what} id {id} out of range: the database has {count}"
            ))),
        };
        for (param, pd) in pref.descriptor().clauses() {
            check("param", param.index(), env.len())?;
            let values = env.hierarchy(param).value_count();
            let ids: &[ValueId] = match &pd {
                ClauseRef::Eq(v) => std::slice::from_ref(v),
                ClauseRef::In(vs) => vs,
                ClauseRef::Range(from, to) => &[*from, *to],
            };
            for v in ids {
                check("value", v.index(), values)?;
            }
        }
        check("attribute", pref.clause().attr.index(), rel.schema().len())?;
        Ok(op)
    }

    /// Apply to the serving core — the live mutation path, replication
    /// and recovery replay alike — handing back what the op took out of
    /// it: [`Self::apply_to`] the user's stripe, waiting for its write
    /// lock.
    pub fn apply(self, db: &ShardedMultiUserDb) -> Result<Displaced, CoreError> {
        let mut stripe = db.write_user_shard(self.user());
        self.apply_to(&mut stripe)
    }

    /// Apply to the database holding the op's user — for the serving
    /// core, its stripe, under a write lock the caller took however it
    /// may (see [`Self::apply`]). The op is consumed: an inserted
    /// preference moves into the profile, it is not copied. Rejection
    /// is deterministic in the database's state, so an op rejected live
    /// is rejected identically on replay.
    pub fn apply_to(self, db: &mut MultiUserDb) -> Result<Displaced, CoreError> {
        match self {
            Self::AddUser { user } => db.add_user(&user).map(|()| Displaced::Nothing),
            Self::RemoveUser { user } => db.remove_user(&user).map(Displaced::Profile),
            Self::InsertPreference { user, pref } => db
                .insert_preference(&user, pref)
                .map(|()| Displaced::Nothing),
            Self::RemovePreference { user, index } => db
                .remove_preference(&user, index)
                .map(Displaced::Preference),
            Self::UpdateScore { user, index, score } => db
                .update_preference_score(&user, index, score)
                .map(|()| Displaced::Nothing),
        }
    }
}

fn payload_error(e: DecodeError) -> WalError {
    WalError::Payload {
        reason: e.to_string(),
    }
}

/// A preference and its parts as ids, tags and raw bits: the stand-in
/// through which [`WalOp`]'s table (and a snapshot's relation) carries
/// types of other crates.
pub(crate) struct Ids;

/// The operators in tag order: an operator travels as its index here.
const OPS: [CompareOp; 6] = [
    CompareOp::Eq,
    CompareOp::Ne,
    CompareOp::Lt,
    CompareOp::Le,
    CompareOp::Gt,
    CompareOp::Ge,
];

/// A preference: its descriptor's clause count and clauses, the
/// attribute clause (`AttrId`, operator, value), then the score's bits.
/// Decoding builds the descriptor through a `DescriptorBuilder`, as the
/// text reader does (one allocation for `Eq` clauses), and the
/// preference through `ContextualPreference::new`; the ids are checked
/// against a database by [`WalOp::decode`].
impl Via<ContextualPreference> for Ids {
    fn put_via(pref: &ContextualPreference, out: &mut Vec<u8>) {
        let descriptor = pref.descriptor();
        put_uv(out, descriptor.clause_count() as u64);
        for (param, clause) in descriptor.clauses() {
            param.0.put(out);
            put_clause(clause, out);
        }
        let clause = pref.clause();
        clause.attr.0.put(out);
        out.push(clause.op as u8);
        Ids::put_via(&clause.value, out);
        pref.score().put(out);
    }

    fn get_via(dec: &mut Dec<'_>) -> Result<ContextualPreference, DecodeError> {
        // A clause is at least its param, its kind and one value id.
        let count = dec.checked_count(3)?;
        let mut clauses = DescriptorBuilder::with_capacity(count);
        for _ in 0..count {
            let param = ParamId(u16::get(dec)?);
            get_clause(dec, param, &mut clauses)?;
        }
        let descriptor = clauses.build();
        let attr = AttrId(u16::get(dec)?);
        let at = dec.pos();
        let tag = dec.u8()?;
        let op = *OPS
            .get(usize::from(tag))
            .ok_or_else(|| bad_tag("operator", tag, at))?;
        let value = Ids::get_via(dec)?;
        let at = dec.pos();
        let score = f64::get(dec)?;
        ContextualPreference::new(descriptor, AttributeClause::new(attr, op, value), score).map_err(
            |_| DecodeError {
                offset: at,
                kind: DecodeKind::Invalid {
                    what: "preference score",
                },
            },
        )
    }
}

/// A descriptor clause: a kind tag (1 `Eq`, 2 `In`, 3 `Range`), then
/// its value ids (`In` counted).
fn put_clause(clause: ClauseRef<'_>, out: &mut Vec<u8>) {
    match clause {
        ClauseRef::Eq(v) => {
            out.push(1);
            v.0.put(out);
        }
        ClauseRef::In(vs) => {
            out.push(2);
            put_uv(out, vs.len() as u64);
            for v in vs {
                v.0.put(out);
            }
        }
        ClauseRef::Range(from, to) => {
            out.push(3);
            from.0.put(out);
            to.0.put(out);
        }
    }
}

/// Read the clause [`put_clause`] wrote for `param` into `clauses`.
fn get_clause(
    dec: &mut Dec<'_>,
    param: ParamId,
    clauses: &mut DescriptorBuilder,
) -> Result<(), DecodeError> {
    let value = |dec: &mut Dec<'_>| u32::get(dec).map(ValueId);
    let at = dec.pos();
    match dec.u8()? {
        1 => clauses.push(param, ClauseRef::Eq(value(dec)?)),
        2 => {
            let vs: Vec<ValueId> = Vec::<u32>::get(dec)?.into_iter().map(ValueId).collect();
            clauses.push(param, ClauseRef::In(&vs));
        }
        3 => clauses.push(param, ClauseRef::Range(value(dec)?, value(dec)?)),
        tag => return Err(bad_tag("descriptor clause", tag, at)),
    }
    Ok(())
}

/// A value: a type tag (1 int, 2 float, 3 string, 4 bool), then the
/// int's or float's 8 little-endian bytes, the string's bytes, or the
/// bool's byte.
impl Via<Value> for Ids {
    fn put_via(value: &Value, out: &mut Vec<u8>) {
        match value {
            Value::Int(i) => {
                out.push(1);
                Le64::put_via(&(*i as u64), out);
            }
            Value::Float(f) => {
                out.push(2);
                f.put(out);
            }
            Value::Str(s) => {
                out.push(3);
                s.as_ref().put_into(out);
            }
            Value::Bool(b) => {
                out.push(4);
                b.put(out);
            }
        }
    }

    fn get_via(dec: &mut Dec<'_>) -> Result<Value, DecodeError> {
        let at = dec.pos();
        Ok(match dec.u8()? {
            1 => Value::Int(Le64::get_via(dec)? as i64),
            2 => Value::Float(f64::get(dec)?),
            3 => Value::from(String::get(dec)?),
            4 => Value::Bool(bool::get(dec)?),
            tag => return Err(bad_tag("value type", tag, at)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_len_is_the_framed_length() {
        for lsn in [0, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            for op in [&b""[..], b"op", &[7; 300]] {
                let mut out = Vec::new();
                put_record(&mut out, lsn, op).expect("small record");
                assert_eq!(record_len(lsn, op.len()), out.len(), "lsn {lsn}");
            }
        }
    }

    #[test]
    fn operators_travel_as_their_index_in_ops() {
        for (i, op) in OPS.iter().enumerate() {
            assert_eq!(*op as usize, i, "{op:?}");
        }
    }
}
