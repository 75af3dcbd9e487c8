#![warn(missing_docs)]
//! Persistence for contextual preference databases.
//!
//! The paper evaluates an in-memory system; any deployment of it needs
//! its profiles to survive restarts. This crate provides a versioned,
//! line-oriented text format (`ctxpref v1`) covering every logical
//! component — hierarchies, context environments, relations, profiles,
//! and whole [`ctxpref_core::ContextualDb`] instances — with exact
//! round-tripping (value names, θ-operators, float scores, parameter
//! orders, cache settings).
//!
//! Design notes:
//!
//! * **Logical, not physical**: the profile tree and the query cache are
//!   derived structures; the format stores the profile and rebuilds the
//!   indexes on load (conflict detection re-runs as an integrity check).
//! * **Text, token-escaped**: every name/value is escaped
//!   ([`escape`]/[`unescape`]) so arbitrary strings — spaces, tabs,
//!   newlines — round-trip; the format stays diffable and greppable.
//! * **Self-describing**: the header carries a version; unknown versions
//!   are rejected up front.
//!
//! ```
//! use ctxpref_storage::{read_database, write_database};
//! # use ctxpref_core::ContextualDb;
//! # use ctxpref_context::ContextEnvironment;
//! # use ctxpref_hierarchy::Hierarchy;
//! # use ctxpref_relation::{AttrType, Relation, Schema};
//! # let env = ContextEnvironment::new(vec![
//! #     Hierarchy::flat("weather", &["cold", "warm"]).unwrap(),
//! # ]).unwrap();
//! # let schema = Schema::new(&[("name", AttrType::Str)]).unwrap();
//! # let mut rel = Relation::new("poi", schema);
//! # rel.insert(vec!["Acropolis".into()]).unwrap();
//! # let mut db = ContextualDb::builder().env(env).relation(rel).build().unwrap();
//! # db.insert_preference_eq("weather = warm", "name", "Acropolis".into(), 0.8).unwrap();
//! let mut buf = Vec::new();
//! write_database(&mut buf, &db).unwrap();
//! let restored = read_database(&buf[..]).unwrap();
//! assert_eq!(restored.profile().len(), db.profile().len());
//! ```

mod error;
mod escape;
mod reader;
mod writer;

pub use error::StorageError;
pub use escape::{escape, unescape};
pub use reader::{read_database, read_hierarchy, read_multi_user, read_profile, read_relation};
pub use writer::{
    write_database, write_hierarchy, write_multi_user, write_profile, write_relation,
};

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ctxpref_bytes::fnv1a64;
use ctxpref_core::{ContextualDb, MultiUserDb};

/// Magic header of the format.
pub const HEADER: &str = "ctxpref v1";

/// A temp path in the same directory as `path` (rename must not cross
/// filesystems), unique per call so concurrent saves cannot clobber
/// each other's in-flight temp files.
fn temp_sibling(path: &Path) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(|f| f.to_os_string())
        .unwrap_or_default();
    name.push(format!(".tmp.{}.{n}", std::process::id()));
    path.with_file_name(name)
}

/// Write `header + checksum + body` to a sibling temp file, fsync it,
/// then atomically rename over `path`. A crash (or injected fault) at
/// any point leaves `path` either untouched or fully replaced — never a
/// partial file.
///
/// Fault sites: `storage.save.open`, `storage.save.write` (honours
/// truncation faults — the temp file keeps only a prefix and the save
/// fails before the rename), `storage.save.sync`, `storage.save.rename`.
fn atomic_write(path: &Path, body: &[u8]) -> Result<(), StorageError> {
    let mut payload = Vec::with_capacity(body.len() + HEADER.len() + 32);
    writeln!(payload, "{HEADER}")?;
    writeln!(payload, "checksum {:016x}", fnv1a64(body))?;
    payload.extend_from_slice(body);

    let tmp = temp_sibling(path);
    ctxpref_faults::hit_io("storage.save.open")?;
    let mut f = File::create(&tmp)?;
    let keep = ctxpref_faults::truncated_len("storage.save.write", payload.len());
    f.write_all(&payload[..keep])?;
    if keep < payload.len() {
        // Injected partial write: simulate a crash mid-save. The temp
        // file holds a prefix; the destination is untouched.
        let _ = f.sync_all();
        drop(f);
        return Err(StorageError::Io(std::io::Error::other(format!(
            "injected partial write: {keep} of {} bytes persisted",
            payload.len()
        ))));
    }
    ctxpref_faults::hit_io("storage.save.sync")?;
    f.sync_all()?;
    drop(f);
    ctxpref_faults::hit_io("storage.save.rename")?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// If the file starts with `HEADER` + a `checksum` line, verify the
/// body against it. Files without a checksum line (streamed output of
/// [`write_database`] / [`write_multi_user`], or pre-checksum files)
/// pass through unverified for backwards compatibility.
fn verify_checksum(bytes: &[u8]) -> Result<(), StorageError> {
    let Some(rest) = bytes.strip_prefix(HEADER.as_bytes()) else {
        return Ok(());
    };
    let Some(rest) = rest.strip_prefix(b"\n") else {
        return Ok(());
    };
    let Some(line_end) = rest.iter().position(|&b| b == b'\n') else {
        return Ok(());
    };
    let Ok(line) = std::str::from_utf8(&rest[..line_end]) else {
        return Ok(());
    };
    let Some(expected) = line.strip_prefix("checksum ") else {
        return Ok(());
    };
    let body = &rest[line_end + 1..];
    let actual = format!("{:016x}", fnv1a64(body));
    if expected.trim() != actual {
        return Err(StorageError::Corrupt {
            expected: expected.trim().to_string(),
            actual,
        });
    }
    Ok(())
}

fn read_file(path: &Path) -> Result<Vec<u8>, StorageError> {
    ctxpref_faults::hit_io("storage.load.open")?;
    let bytes = std::fs::read(path)?;
    ctxpref_faults::hit_io("storage.load.read")?;
    Ok(bytes)
}

/// Save a database to a file: atomic (temp file + fsync + rename) with
/// a body checksum recorded in the header and verified on load.
pub fn save_database(path: impl AsRef<Path>, db: &ContextualDb) -> Result<(), StorageError> {
    let mut body = Vec::new();
    writer::write_database_body(&mut body, db)?;
    atomic_write(path.as_ref(), &body)
}

/// Load a database from a file, verifying its checksum if present.
pub fn load_database(path: impl AsRef<Path>) -> Result<ContextualDb, StorageError> {
    let bytes = read_file(path.as_ref())?;
    verify_checksum(&bytes)?;
    read_database(&bytes[..])
}

/// Save a multi-user database to a file: atomic (temp file + fsync +
/// rename) with a body checksum recorded in the header.
pub fn save_multi_user(path: impl AsRef<Path>, db: &MultiUserDb) -> Result<(), StorageError> {
    let mut body = Vec::new();
    writer::write_multi_user_body(&mut body, db)?;
    atomic_write(path.as_ref(), &body)
}

/// Load a multi-user database from a file, verifying its checksum if
/// present.
pub fn load_multi_user(path: impl AsRef<Path>) -> Result<MultiUserDb, StorageError> {
    let bytes = read_file(path.as_ref())?;
    verify_checksum(&bytes)?;
    read_multi_user(&bytes[..])
}
