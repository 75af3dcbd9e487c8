//! Snapshots: a whole database at rest, as a checkpoint or a save, in
//! the log's byte format.
//!
//! ```text
//! ctxpref v2\n   the magic line: the format and its version
//! [frame]        the header: hierarchies, relation, tree order, cache
//!                capacity, user count
//! [frame] …      one per user, in name order: the user's snapshot ops
//! ```
//!
//! Every frame is the wire's (`ctxpref_bytes`), so every byte after the
//! magic is under a frame checksum, and because the header counts the
//! users, a file cut at a frame boundary is refused too. A user frame
//! holds the paper's §3 profile, the user's set of contextual
//! preferences, as the ops that rebuild it ([`snapshot_ops`]: `AddUser`,
//! then one `InsertPreference` per preference). Those are the bytes the
//! log replays, a migration page ships and an anti-entropy digest
//! checks; a user frame's checksum is that user's digest. The checkpoint
//! is the base, and the log holds the edits made on top of it.
//!
//! Loading decodes each op with [`WalOp`]'s decoder against the
//! header's environment and relation, collects a user's preferences
//! into one profile and registers it whole, so users with equal
//! profiles share one index, as they did when saved. A file of another
//! version (a `ctxpref v1` text file) is refused with
//! [`WalError::Version`]; any other damage is [`WalError::Corrupt`],
//! naming the frame. Nothing loads unverified.
//!
//! A save goes through [`swap_file`] with [`SwapSites::SAVE`] (fault
//! sites `storage.save.{open,write,sync,rename}`), a load passes
//! `storage.load.open` and `storage.load.read`.

use std::fmt::Display;
use std::path::Path;

use ctxpref_bytes::{
    open_frame, seal_frame, split_frame, wire_struct, Dec, DecodeError, Via, Wire,
};
use ctxpref_context::{ContextEnvironment, ParamId};
use ctxpref_core::{ContextualDb, MultiUserDb};
use ctxpref_faults::sites;
use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder, LevelId};
use ctxpref_profile::{ParamOrder, Profile};
use ctxpref_relation::{AttrType, Relation, Schema, Value};

use crate::error::WalError;
use crate::manifest::{swap_file, SwapSites};
use crate::record::{Ids, WalOp, WalOpRef};

/// The line every snapshot opens with: the format and its version.
pub const MAGIC: &[u8] = b"ctxpref v2\n";

/// The user a [`ContextualDb`]'s profile is saved under, so a
/// multi-user load of its file serves it as that user.
const DATABASE_USER: &str = "me";

/// The header frame: what every user frame is decoded against.
struct Header {
    hierarchies: Vec<HierarchyFrame>,
    relation: RelationFrame,
    /// The profile trees' parameter order, as parameter ids.
    order: Vec<u16>,
    cache: usize,
    users: usize,
}

/// A hierarchy: its name and its levels, the detailed level first
/// (`ALL` is implied).
struct HierarchyFrame {
    name: String,
    levels: Vec<LevelFrame>,
}

/// A level: its name and its values in domain order, each with its
/// parent's position in the level above (0 on the top level, whose
/// parent is `ALL`). Rebuilt in this order, a hierarchy gets back the
/// value ids the log's ops carry.
struct LevelFrame {
    name: String,
    values: Vec<(String, u32)>,
}

/// A relation: its name, its attributes with their types' positions in
/// [`TYPES`], and its tuples.
struct RelationFrame {
    name: String,
    attrs: Vec<(String, u16)>,
    tuples: Vec<Vec<Cell>>,
}

wire_struct! { Header { hierarchies: Vec<HierarchyFrame>, relation: RelationFrame, order: Vec<u16>, cache: usize, users: usize } }
wire_struct! { HierarchyFrame { name: String, levels: Vec<LevelFrame> } }
wire_struct! { LevelFrame { name: String, values: Vec<(String, u32)> } }
wire_struct! { RelationFrame { name: String, attrs: Vec<(String, u16)>, tuples: Vec<Vec<Cell>> } }

/// The attribute types: a type travels as its index here.
const TYPES: [AttrType; 4] = [
    AttrType::Int,
    AttrType::Float,
    AttrType::Str,
    AttrType::Bool,
];

/// One value of a tuple, written as a [`WalOp`] writes a clause's value.
struct Cell(Value);

impl Wire for Cell {
    /// A type tag and at least one byte.
    const MIN_BYTES: usize = 2;
    fn put(&self, out: &mut Vec<u8>) {
        Ids::put_via(&self.0, out);
    }
    fn get(dec: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ids::get_via(dec).map(Cell)
    }
}

impl Header {
    fn of(
        env: &ContextEnvironment,
        rel: &Relation,
        order: &ParamOrder,
        cache: usize,
        users: usize,
    ) -> Self {
        let attrs = rel.schema().iter();
        let tuples = rel.tuples().iter();
        Self {
            hierarchies: env.iter().map(|(_, h)| HierarchyFrame::of(h)).collect(),
            relation: RelationFrame {
                name: rel.name().to_string(),
                attrs: attrs
                    .map(|(_, name, ty)| (name.to_string(), ty as u16))
                    .collect(),
                tuples: tuples
                    .map(|t| t.values().iter().cloned().map(Cell).collect())
                    .collect(),
            },
            order: order.params().iter().map(|p| p.0).collect(),
            cache,
            users,
        }
    }

    /// The empty database the header describes.
    fn database(self) -> Result<MultiUserDb, String> {
        let hierarchies = self.hierarchies.iter().map(HierarchyFrame::build);
        let env = ContextEnvironment::new(hierarchies.collect::<Result<_, _>>()?)
            .map_err(|e| e.to_string())?;
        let relation = self.relation.build()?;
        let order = ParamOrder::new(&env, self.order.into_iter().map(ParamId).collect())
            .map_err(|e| format!("tree order: {e}"))?;
        Ok(MultiUserDb::with_order(env, relation, order, self.cache))
    }
}

impl HierarchyFrame {
    fn of(h: &Hierarchy) -> Self {
        let level = |l: usize| {
            let level = LevelId(l as u8);
            let values = h.domain(level).iter().map(|&v| {
                let parent = h.parent(v).filter(|&p| p != h.all_value());
                let parent = parent.map_or(0, |p| h.pos_in_level(p));
                (h.value_name(v).to_string(), parent)
            });
            LevelFrame {
                name: h.level_name(level).to_string(),
                values: values.collect(),
            }
        };
        Self {
            name: h.name().to_string(),
            levels: (0..h.level_count() - 1).map(level).collect(),
        }
    }

    fn build(&self) -> Result<Hierarchy, String> {
        let fail = |e: &dyn Display| format!("hierarchy {:?}: {e}", self.name);
        let names: Vec<&str> = self.levels.iter().map(|l| l.name.as_str()).collect();
        let mut b = HierarchyBuilder::new(&self.name, &names);
        for (i, level) in self.levels.iter().enumerate() {
            for (value, parent) in &level.values {
                let parent = match self.levels.get(i + 1) {
                    None => None,
                    Some(up) => match up.values.get(*parent as usize) {
                        Some((name, _)) => Some(name.as_str()),
                        None => return Err(fail(&format!("{value:?} has no parent {parent}"))),
                    },
                };
                b.add(&level.name, value, parent).map_err(|e| fail(&e))?;
            }
        }
        b.build().map_err(|e| fail(&e))
    }
}

impl RelationFrame {
    fn build(self) -> Result<Relation, String> {
        let mut attrs = Vec::with_capacity(self.attrs.len());
        for (name, tag) in &self.attrs {
            let ty = TYPES
                .get(usize::from(*tag))
                .ok_or_else(|| format!("attribute {name:?}: unknown type {tag}"))?;
            attrs.push((name.as_str(), *ty));
        }
        let schema = Schema::new(&attrs).map_err(|e| e.to_string())?;
        let mut rel = Relation::new(&self.name, schema);
        for (i, row) in self.tuples.into_iter().enumerate() {
            rel.insert(row.into_iter().map(|c| c.0).collect())
                .map_err(|e| format!("tuple {i}: {e}"))?;
        }
        Ok(rel)
    }
}

/// The op bytes that rebuild `user` with `profile`: one `AddUser`, then
/// one `InsertPreference` per preference, in profile order. A snapshot's
/// user frame holds them back to back; a migration page ships them, and
/// an anti-entropy digest is their checksum. Ids travel, not names, so
/// the receiver decodes them against its own environment and relation,
/// which must match the sender's.
pub fn snapshot_ops(user: &str, profile: &Profile) -> Vec<Vec<u8>> {
    let mut ops = Vec::with_capacity(1 + profile.preferences().len());
    ops.push(WalOpRef::AddUser { user }.encode());
    for pref in profile.preferences() {
        ops.push(WalOp::encode_insert(user, pref));
    }
    ops
}

/// The user and profile a user frame's ops rebuild.
fn user_profile(
    payload: &[u8],
    env: &ContextEnvironment,
    rel: &Relation,
) -> Result<(String, Profile), String> {
    let mut dec = Dec::new(payload);
    let user = match WalOp::decode_from(&mut dec, env, rel) {
        Ok(WalOp::AddUser { user }) => user,
        Ok(_) => return Err("does not open with an AddUser op".to_string()),
        Err(e) => return Err(e.to_string()),
    };
    let mut profile = Profile::new(env.clone());
    while dec.pos() < payload.len() {
        match WalOp::decode_from(&mut dec, env, rel) {
            // Unchecked: registering the user builds the profile tree,
            // which checks conflicts (or shares the index of an equal,
            // checked profile); a restated preference is legal and kept.
            Ok(WalOp::InsertPreference { user: u, pref }) if u == user => {
                profile.insert_unchecked(pref)
            }
            Ok(_) => {
                return Err(format!(
                    "op {} is not an insert for {user:?}",
                    profile.len() + 1
                ))
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok((user, profile))
}

/// The snapshot bytes of `db`: the bytes [`save_multi_user`] writes.
pub fn encode_multi_user(db: &MultiUserDb) -> Result<Vec<u8>, WalError> {
    let users = db.users_sorted();
    let header = Header::of(
        db.env(),
        db.relation(),
        db.order(),
        db.cache_capacity(),
        users.len(),
    );
    let profiles = users.into_iter().map(|u| (u, db.profile(u)));
    encode(
        &header,
        profiles.map(|(u, p)| (u, p.expect("users_sorted lists users"))),
    )
}

fn encode<'a>(
    header: &Header,
    users: impl Iterator<Item = (&'a str, &'a Profile)>,
) -> Result<Vec<u8>, WalError> {
    let mut out = MAGIC.to_vec();
    let frame = |out: &mut Vec<u8>, at| {
        seal_frame(out, at).map_err(|e| WalError::Payload {
            reason: e.to_string(),
        })
    };
    let at = open_frame(&mut out);
    header.put(&mut out);
    frame(&mut out, at)?;
    for (user, profile) in users {
        let at = open_frame(&mut out);
        for op in snapshot_ops(user, profile) {
            out.extend_from_slice(&op);
        }
        frame(&mut out, at)?;
    }
    Ok(out)
}

/// The error for damage in frame `frame` (0 the header) at `offset`.
fn corrupt(path: &Path, offset: usize, frame: usize, reason: impl Display) -> WalError {
    let frame = match frame {
        0 => "header frame".to_string(),
        i => format!("user frame {i}"),
    };
    WalError::Corrupt {
        path: path.to_path_buf(),
        offset: offset as u64,
        reason: format!("{frame}: {reason}"),
    }
}

/// Verify and decode the snapshot `bytes`, read from `path`.
fn decode(path: &Path, bytes: &[u8]) -> Result<MultiUserDb, WalError> {
    if !bytes.starts_with(MAGIC) {
        let line = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        if line.starts_with(b"ctxpref v") && !MAGIC.starts_with(line) {
            return Err(WalError::Version {
                path: path.to_path_buf(),
                found: String::from_utf8_lossy(line).into_owned(),
            });
        }
        return Err(WalError::Corrupt {
            path: path.to_path_buf(),
            offset: 0,
            reason: "no snapshot magic".to_string(),
        });
    }
    // Every frame's checksum first: nothing is decoded unverified.
    let mut frames = Vec::new();
    let mut at = MAGIC.len();
    while at < bytes.len() {
        match split_frame(&bytes[at..]) {
            Ok(Some((payload, len))) => {
                frames.push((at, payload));
                at += len;
            }
            Ok(None) => return Err(corrupt(path, at, frames.len(), "the file ends inside it")),
            Err(e) => return Err(corrupt(path, at, frames.len(), e)),
        }
    }
    let Some((&(at, payload), users)) = frames.split_first() else {
        return Err(corrupt(path, MAGIC.len(), 0, "missing"));
    };
    let mut dec = Dec::new(payload);
    let header = Header::get(&mut dec)
        .and_then(|h| dec.expect_end().map(|()| h))
        .map_err(|e| corrupt(path, at, 0, e))?;
    if header.users != users.len() {
        let found = users.len();
        let reason = format!("counts {} users, the file holds {found}", header.users);
        return Err(corrupt(path, at, 0, reason));
    }
    let mut db = header.database().map_err(|e| corrupt(path, at, 0, e))?;
    for (i, &(at, payload)) in users.iter().enumerate() {
        let (user, profile) = user_profile(payload, db.env(), db.relation())
            .map_err(|e| corrupt(path, at, i + 1, e))?;
        db.add_user_with_profile(&user, profile)
            .map_err(|e| corrupt(path, at, i + 1, e))?;
    }
    Ok(db)
}

/// Atomically replace `path` with `bytes`.
fn save(path: &Path, bytes: &[u8]) -> Result<(), WalError> {
    let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        let reason = format!("{} does not end in a UTF-8 file name", path.display());
        std::io::Error::new(std::io::ErrorKind::InvalidInput, reason)
    })?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    swap_file(dir.unwrap_or(Path::new(".")), name, bytes, SwapSites::SAVE)?;
    Ok(())
}

/// Save `db` to `path` atomically: temp file, fsync, rename, directory
/// fsync ([`swap_file`]).
pub fn save_multi_user(path: impl AsRef<Path>, db: &MultiUserDb) -> Result<(), WalError> {
    save(path.as_ref(), &encode_multi_user(db)?)
}

/// Load and verify the snapshot at `path`.
pub fn load_multi_user(path: impl AsRef<Path>) -> Result<MultiUserDb, WalError> {
    let path = path.as_ref();
    ctxpref_faults::hit_io(sites::STORAGE_LOAD_OPEN)?;
    let bytes = std::fs::read(path)?;
    ctxpref_faults::hit_io(sites::STORAGE_LOAD_READ)?;
    decode(path, &bytes)
}

/// Save a single-profile database to `path` as [`save_multi_user`]
/// does, its profile as the one user `me`, with its tree order and
/// cache capacity.
pub fn save_database(path: impl AsRef<Path>, db: &ContextualDb) -> Result<(), WalError> {
    let order = db.tree().order();
    let header = Header::of(db.env(), db.relation(), order, db.cache_capacity(), 1);
    save(
        path.as_ref(),
        &encode(&header, [(DATABASE_USER, db.profile())].into_iter())?,
    )
}

/// Load a single-profile database saved by [`save_database`], or any
/// snapshot that holds exactly one user.
pub fn load_database(path: impl AsRef<Path>) -> Result<ContextualDb, WalError> {
    let path = path.as_ref();
    let mut db = load_multi_user(path)?;
    let header = |reason: &dyn Display| corrupt(path, MAGIC.len(), 0, reason);
    let users: Vec<String> = db.users().map(str::to_string).collect();
    let [user] = &users[..] else {
        return Err(header(&format!(
            "{} users, not the one a database holds",
            users.len()
        )));
    };
    let profile = db.remove_user(user).map_err(|e| header(&e))?;
    let mut out = ContextualDb::builder()
        .env(db.env().clone())
        .relation(db.relation().clone())
        .order(db.order().clone())
        .cache_capacity(db.cache_capacity())
        .build()
        .map_err(|e| header(&e))?;
    for pref in profile.preferences() {
        out.insert_preference(pref.clone())
            .map_err(|e| header(&e))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types_travel_as_their_index_in_types() {
        for (i, ty) in TYPES.iter().enumerate() {
            assert_eq!(*ty as usize, i, "{ty}");
        }
    }
}
