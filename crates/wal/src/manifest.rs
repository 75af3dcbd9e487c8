//! The checkpoint manifest: a durable directory's one recovery record.
//!
//! `MANIFEST` names the current checkpoint generation, its snapshot
//! file and the highest replication (fencing) epoch the node has seen,
//! and per WAL shard the last LSN the checkpoint covers, the first
//! segment that must still be replayed and which epoch wrote which of
//! the shard's LSNs. It is a header line, `ctxwal manifest v3`, then
//! one frame of the wire's byte format (`ctxpref_bytes`) whose payload
//! is the [`Manifest`]'s `wire_struct!` fields; a manifest of another
//! version is refused with [`WalError::Version`]. It is replaced by an
//! atomic write-temp + fsync + rename, so a crash at any point of a
//! checkpoint or an epoch change leaves either the old manifest or the
//! new one governing recovery, never a half-written mix: a resync's
//! contents and its epochs land in one swap. Checkpoint files and
//! segments are only deleted *after* the manifest that stops
//! referencing them is durable.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ctxpref_bytes::{open_frame, seal_frame, split_frame, wire_struct, Dec, Wire};
use ctxpref_faults::sites;

use crate::error::WalError;

/// The manifest's file name inside a durable directory.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";

/// The line every manifest opens with: the format and its version.
const MANIFEST_HEADER: &[u8] = b"ctxwal manifest v3\n";

/// The checkpoint snapshot file for generation `gen`.
pub(crate) fn checkpoint_file_name(generation: u64) -> String {
    format!("checkpoint-{generation}.db")
}

/// Per-shard recovery bounds and epochs recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Highest LSN captured by the checkpoint snapshot; replay skips
    /// records at or below it.
    pub last_lsn: u64,
    /// First segment that may hold records above [`Self::last_lsn`];
    /// earlier segments are garbage.
    pub first_live_segment: u64,
    /// `(epoch, first_lsn)` pairs ascending in both: `epoch` wrote the
    /// records from `first_lsn` up to the next pair's (Kafka KIP-101's
    /// leader-epoch cache). Empty on a node that never replicated.
    pub epochs: Vec<(u64, u64)>,
}

/// The durable recovery root: checkpoint generation, fencing epoch and
/// per-shard replay bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic checkpoint generation, bumped on every swap.
    pub generation: u64,
    /// File name (relative to the durable directory) of the checkpoint
    /// snapshot.
    pub checkpoint: String,
    /// The highest replication epoch this node has seen, so a deposed
    /// primary restarts knowing it was deposed; 0 if it never saw one.
    pub epoch: u64,
    /// Replay bounds and epochs, indexed by WAL shard.
    pub shards: Vec<ShardManifest>,
}

wire_struct! { ShardManifest { last_lsn: u64, first_live_segment: u64, epochs: Vec<(u64, u64)> } }
wire_struct! { Manifest { generation: u64, checkpoint: String, epoch: u64, shards: Vec<ShardManifest> } }

impl Manifest {
    /// The manifest for a freshly bootstrapped directory: generation 0,
    /// empty-ish checkpoint, epoch 0, nothing replayed yet.
    pub fn bootstrap(num_shards: usize) -> Self {
        Self {
            generation: 0,
            checkpoint: checkpoint_file_name(0),
            epoch: 0,
            shards: vec![
                ShardManifest {
                    last_lsn: 0,
                    first_live_segment: 1,
                    epochs: Vec::new(),
                };
                num_shards
            ],
        }
    }

    /// Full path of the checkpoint snapshot under `dir`.
    pub fn checkpoint_path(&self, dir: &Path) -> PathBuf {
        dir.join(&self.checkpoint)
    }

    /// Atomically replace `dir/MANIFEST` with this manifest, passing
    /// fault site `manifest.swap` ([`SwapSites::MANIFEST`]).
    pub fn save(&self, dir: &Path) -> Result<(), WalError> {
        let mut payload = MANIFEST_HEADER.to_vec();
        let at = open_frame(&mut payload);
        self.put(&mut payload);
        seal_frame(&mut payload, at).map_err(|e| WalError::Manifest {
            reason: e.to_string(),
        })?;

        swap_file(dir, MANIFEST_FILE, &payload, SwapSites::MANIFEST)?;
        Ok(())
    }

    /// Load and verify `dir/MANIFEST`.
    pub fn load(dir: &Path) -> Result<Self, WalError> {
        let bad = |reason: String| WalError::Manifest { reason };
        let path = dir.join(MANIFEST_FILE);
        let bytes =
            std::fs::read(&path).map_err(|e| bad(format!("cannot read {MANIFEST_FILE}: {e}")))?;
        let Some(frame) = bytes.strip_prefix(MANIFEST_HEADER) else {
            let line = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
            if line.starts_with(b"ctxwal manifest") {
                return Err(WalError::Version {
                    path,
                    found: String::from_utf8_lossy(line).into_owned(),
                });
            }
            return Err(bad("missing manifest header".to_string()));
        };
        let (payload, len) = split_frame(frame)
            .map_err(|e| bad(e.to_string()))?
            .ok_or_else(|| bad("truncated manifest".to_string()))?;
        if len != frame.len() {
            return Err(bad("bytes after the manifest frame".to_string()));
        }
        let mut dec = Dec::new(payload);
        Self::get(&mut dec)
            .and_then(|m| dec.expect_end().map(|()| m))
            .map_err(|e| bad(e.to_string()))
    }
}

/// The fault sites a [`swap_file`] passes, one per step, `None` where
/// a step passes none: before it creates the temp file, as it writes it
/// (a truncation fault persists only a prefix and fails the swap, like
/// a crash mid-write), before it syncs it, and before the rename.
#[derive(Debug, Clone, Copy)]
pub struct SwapSites {
    /// Before the temp file is created.
    pub open: Option<&'static str>,
    /// The write, which honours truncation faults.
    pub write: Option<&'static str>,
    /// Before the temp file is synced.
    pub sync: Option<&'static str>,
    /// Before the rename over the target.
    pub rename: Option<&'static str>,
}

impl SwapSites {
    /// No fault site.
    pub const NONE: Self = Self {
        open: None,
        write: None,
        sync: None,
        rename: None,
    };

    /// A manifest swap: `manifest.swap` just before the rename, the
    /// moment a crash is most interesting, with both files on disk.
    pub const MANIFEST: Self = Self {
        rename: Some(sites::MANIFEST_SWAP),
        ..Self::NONE
    };

    /// A snapshot save: `storage.save.{open,write,sync,rename}`.
    pub const SAVE: Self = Self {
        open: Some(sites::STORAGE_SAVE_OPEN),
        write: Some(sites::STORAGE_SAVE_WRITE),
        sync: Some(sites::STORAGE_SAVE_SYNC),
        rename: Some(sites::STORAGE_SAVE_RENAME),
    };
}

/// Pass fault site `site`, if there is one.
fn pass(site: Option<&str>) -> std::io::Result<()> {
    site.map_or(Ok(()), ctxpref_faults::hit_io)
}

/// Atomically replace `dir/name` with `bytes`: write and fsync a temp
/// file beside it (a rename must not cross filesystems), rename it over
/// the target, and fsync the directory so the rename is durable too. A
/// failure at any step leaves the target as it was. `sites` names the
/// fault sites each step passes.
pub fn swap_file(dir: &Path, name: &str, bytes: &[u8], sites: SwapSites) -> std::io::Result<()> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("{name}.tmp.{}.{n}", std::process::id()));
    pass(sites.open)?;
    let mut f = File::create(&tmp)?;
    let keep = sites.write.map_or(bytes.len(), |site| {
        ctxpref_faults::truncated_len(site, bytes.len())
    });
    f.write_all(&bytes[..keep])?;
    if keep < bytes.len() {
        // An injected crash mid-write: the temp file keeps the prefix,
        // the target is untouched.
        let _ = f.sync_all();
        return Err(std::io::Error::other(format!(
            "injected partial write: {keep} of {} bytes persisted",
            bytes.len()
        )));
    }
    pass(sites.sync)?;
    f.sync_all()?;
    drop(f);
    pass(sites.rename)?;
    std::fs::rename(&tmp, dir.join(name))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_testkit::TempDir;

    fn sample() -> Manifest {
        Manifest {
            generation: 4,
            checkpoint: checkpoint_file_name(4),
            epoch: 5,
            shards: vec![
                ShardManifest {
                    last_lsn: 17,
                    first_live_segment: 3,
                    // Epoch 1 wrote 1..=10, epoch 3 11..=14, epoch 5 from 15.
                    epochs: vec![(1, 1), (3, 11), (5, 15)],
                },
                ShardManifest {
                    last_lsn: 0,
                    first_live_segment: 1,
                    epochs: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let dir = TempDir::new("wal-manifest");
        let m = sample();
        m.save(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
    }

    #[test]
    fn save_replaces_atomically() {
        let dir = TempDir::new("wal-manifest");
        let bootstrap = Manifest::bootstrap(2);
        assert_eq!(bootstrap.epoch, 0, "a node that never saw a promotion");
        bootstrap.save(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), bootstrap);
        sample().save(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), sample());
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let dir = TempDir::new("wal-manifest");
        sample().save(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = Manifest::load(&dir).unwrap_err();
        assert!(matches!(err, WalError::Manifest { .. }), "{err}");
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let dir = TempDir::new("wal-manifest");
        assert!(matches!(
            Manifest::load(&dir),
            Err(WalError::Manifest { .. })
        ));
    }
}
