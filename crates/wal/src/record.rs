//! Record framing and operation payload encoding.
//!
//! Every mutating operation is logged as one framed record:
//!
//! ```text
//! [u32 payload_len | u64 lsn | u64 checksum | payload…]      (little endian)
//! ```
//!
//! The checksum is FNV-1a 64 over `payload_len ‖ lsn ‖ payload`, so a
//! bit flip anywhere in the frame — including the length field — fails
//! verification. Payloads are single text lines in the `ctxpref v1`
//! token dialect (escaped names, structural preference clauses), so a
//! log is greppable and the encoding reuses the storage crate's
//! round-trip-tested serializers.

use ctxpref_context::ContextEnvironment;
use ctxpref_core::{CoreError, MultiUserDb, ShardedMultiUserDb};
use ctxpref_profile::{ContextualPreference, Profile};
use ctxpref_relation::Relation;
use ctxpref_storage::{escape, parse_pref_tokens, pref_tokens, unescape};

use crate::error::WalError;

/// Bytes of the per-record frame header: `u32` payload length, `u64`
/// LSN, `u64` checksum.
pub(crate) const FRAME_HEADER: usize = 4 + 8 + 8;

/// Sanity cap on a single record payload. A length field above this is
/// treated as frame damage, never as a real record.
pub(crate) const MAX_PAYLOAD: u32 = 1 << 24;

fn fnv_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The frame checksum: FNV-1a 64 over length, LSN, and payload.
pub(crate) fn frame_checksum(lsn: u64, payload: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv_update(h, &(payload.len() as u32).to_le_bytes());
    h = fnv_update(h, &lsn.to_le_bytes());
    fnv_update(h, payload)
}

/// A parsed frame header: declared payload length, LSN, checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    /// Declared payload length (unvalidated — may exceed the cap).
    pub len: u32,
    /// The record's log sequence number.
    pub lsn: u64,
    /// The stored FNV-1a checksum to verify against.
    pub checksum: u64,
}

/// Parse a frame header from the start of `buf` without panicking:
/// `None` means fewer than [`FRAME_HEADER`] bytes were available (a
/// truncated header, the signature of a torn tail).
pub(crate) fn parse_frame_header(buf: &[u8]) -> Option<FrameHeader> {
    let len = u32::from_le_bytes(buf.get(..4)?.try_into().ok()?);
    let lsn = u64::from_le_bytes(buf.get(4..12)?.try_into().ok()?);
    let checksum = u64::from_le_bytes(buf.get(12..20)?.try_into().ok()?);
    Some(FrameHeader { len, lsn, checksum })
}

/// Frame `payload` as the record carrying `lsn`.
pub(crate) fn frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&frame_checksum(lsn, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
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

    /// Encode as a single text line (no trailing newline). Preferences
    /// use the storage crate's `pref` token dialect, so the payload
    /// round-trips exactly like a saved profile line.
    pub fn encode(&self, env: &ContextEnvironment, rel: &Relation) -> Vec<u8> {
        match self {
            Self::AddUser { user } => format!("add {}", escape(user)),
            Self::RemoveUser { user } => format!("rm {}", escape(user)),
            Self::InsertPreference { user, pref } => {
                format!("ins {} {}", escape(user), pref_tokens(pref, env, rel))
            }
            Self::RemovePreference { user, index } => {
                format!("del {} {index}", escape(user))
            }
            Self::UpdateScore { user, index, score } => {
                format!("score {} {index} {score:?}", escape(user))
            }
        }
        .into_bytes()
    }

    /// Decode a payload produced by [`Self::encode`] against the
    /// environment and relation of the database being recovered.
    pub fn decode(
        payload: &[u8],
        env: &ContextEnvironment,
        rel: &Relation,
    ) -> Result<Self, WalError> {
        let bad = |reason: String| WalError::Payload { reason };
        let text =
            std::str::from_utf8(payload).map_err(|_| bad("payload is not utf-8".to_string()))?;
        let toks: Vec<&str> = text.split_whitespace().collect();
        let user = |tok: &str| -> Result<String, WalError> {
            unescape(tok).ok_or_else(|| bad(format!("bad escape in user {tok:?}")))
        };
        match toks.split_first() {
            Some((&"add", [u])) => Ok(Self::AddUser { user: user(u)? }),
            Some((&"rm", [u])) => Ok(Self::RemoveUser { user: user(u)? }),
            Some((&"ins", [u, rest @ ..])) if !rest.is_empty() => {
                let pref = parse_pref_tokens(rest, env, rel)
                    .map_err(|e| bad(format!("bad pref payload: {e}")))?;
                Ok(Self::InsertPreference {
                    user: user(u)?,
                    pref,
                })
            }
            Some((&"del", [u, idx])) => Ok(Self::RemovePreference {
                user: user(u)?,
                index: idx.parse().map_err(|_| bad(format!("bad index {idx:?}")))?,
            }),
            Some((&"score", [u, idx, s])) => Ok(Self::UpdateScore {
                user: user(u)?,
                index: idx.parse().map_err(|_| bad(format!("bad index {idx:?}")))?,
                score: s.parse().map_err(|_| bad(format!("bad score {s:?}")))?,
            }),
            _ => Err(bad(format!("unrecognized op line {text:?}"))),
        }
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
