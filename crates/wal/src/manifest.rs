//! The checkpoint manifest: the single source of truth for recovery.
//!
//! `MANIFEST` is a small checksummed text file naming the current
//! checkpoint generation, its snapshot file, and — per WAL shard — the
//! last LSN the checkpoint covers and the first segment that must
//! still be replayed. It is replaced by an atomic write-temp +
//! fsync + rename, so a crash at any point of a checkpoint leaves
//! either the old manifest or the new one governing recovery, never a
//! half-written mix. Checkpoint files and segments are only deleted
//! *after* the manifest that stops referencing them is durable.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ctxpref_faults::sites;
use ctxpref_storage::fnv1a64;

use crate::error::WalError;

/// The manifest's file name inside a durable directory.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";

const MANIFEST_HEADER: &str = "ctxwal manifest v1";

/// The checkpoint snapshot file for generation `gen`.
pub(crate) fn checkpoint_file_name(generation: u64) -> String {
    format!("checkpoint-{generation}.db")
}

/// Per-shard recovery bounds recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardManifest {
    /// Highest LSN captured by the checkpoint snapshot; replay skips
    /// records at or below it.
    pub last_lsn: u64,
    /// First segment that may hold records above [`Self::last_lsn`];
    /// earlier segments are garbage.
    pub first_live_segment: u64,
}

/// The durable recovery root: checkpoint generation plus per-shard
/// replay bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic checkpoint generation, bumped on every swap.
    pub generation: u64,
    /// File name (relative to the durable directory) of the checkpoint
    /// snapshot.
    pub checkpoint: String,
    /// Replay bounds, indexed by WAL shard.
    pub shards: Vec<ShardManifest>,
}

impl Manifest {
    /// The manifest for a freshly bootstrapped directory: generation 0,
    /// empty-ish checkpoint, nothing replayed yet.
    pub fn bootstrap(num_shards: usize) -> Self {
        Self {
            generation: 0,
            checkpoint: checkpoint_file_name(0),
            shards: vec![
                ShardManifest {
                    last_lsn: 0,
                    first_live_segment: 1
                };
                num_shards
            ],
        }
    }

    /// Full path of the checkpoint snapshot under `dir`.
    pub fn checkpoint_path(&self, dir: &Path) -> PathBuf {
        dir.join(&self.checkpoint)
    }

    fn body(&self) -> Vec<u8> {
        let mut body = Vec::new();
        let _ = writeln!(body, "generation {}", self.generation);
        let _ = writeln!(body, "checkpoint {}", self.checkpoint);
        let _ = writeln!(body, "shards {}", self.shards.len());
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(body, "shard {i} {} {}", s.last_lsn, s.first_live_segment);
        }
        body
    }

    /// Atomically replace `dir/MANIFEST` with this manifest. Fault
    /// site `manifest.swap` fires just before the rename — the moment a
    /// crash is most interesting, with both old and new files on disk.
    pub fn save(&self, dir: &Path) -> Result<(), WalError> {
        let body = self.body();
        let mut payload = Vec::with_capacity(body.len() + 64);
        let _ = writeln!(payload, "{MANIFEST_HEADER}");
        let _ = writeln!(payload, "checksum {:016x}", fnv1a64(&body));
        payload.extend_from_slice(&body);

        let path = dir.join(MANIFEST_FILE);
        let tmp = temp_sibling(&path);
        let mut f = File::create(&tmp)?;
        f.write_all(&payload)?;
        f.sync_all()?;
        drop(f);
        ctxpref_faults::hit_io(sites::MANIFEST_SWAP)?;
        std::fs::rename(&tmp, &path)?;
        // Make the rename itself durable (directory entry update).
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Load and verify `dir/MANIFEST`.
    pub fn load(dir: &Path) -> Result<Self, WalError> {
        let bad = |reason: String| WalError::Manifest { reason };
        let bytes = std::fs::read(dir.join(MANIFEST_FILE))
            .map_err(|e| bad(format!("cannot read {MANIFEST_FILE}: {e}")))?;
        let text =
            std::str::from_utf8(&bytes).map_err(|_| bad("manifest is not utf-8".to_string()))?;
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(bad("missing manifest header".to_string()));
        }
        let sum_line = lines.next().unwrap_or_default();
        let expected = sum_line
            .strip_prefix("checksum ")
            .ok_or_else(|| bad("missing checksum line".to_string()))?;
        let body_start = text
            .match_indices('\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .ok_or_else(|| bad("truncated manifest".to_string()))?;
        let actual = format!("{:016x}", fnv1a64(&bytes[body_start..]));
        if expected.trim() != actual {
            return Err(bad(format!(
                "checksum mismatch: recorded {expected}, actual {actual}"
            )));
        }

        let mut field = |prefix: &str| -> Result<String, WalError> {
            let line = lines
                .next()
                .ok_or_else(|| bad(format!("missing {prefix} line")))?;
            line.strip_prefix(prefix)
                .and_then(|r| r.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| bad(format!("expected {prefix} line, got {line:?}")))
        };
        let generation = field("generation")?
            .parse()
            .map_err(|e| bad(format!("bad generation: {e}")))?;
        let checkpoint = field("checkpoint")?;
        let n: usize = field("shards")?
            .parse()
            .map_err(|e| bad(format!("bad shards: {e}")))?;
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let line = field("shard")?;
            let toks: Vec<&str> = line.split_whitespace().collect();
            let parsed = match toks.as_slice() {
                [ix, lsn, seg] => ix
                    .parse::<usize>()
                    .ok()
                    .filter(|ix| *ix == i)
                    .and_then(|_| Some((lsn.parse().ok()?, seg.parse().ok()?))),
                _ => None,
            };
            let (last_lsn, first_live_segment) =
                parsed.ok_or_else(|| bad(format!("bad shard line {line:?}")))?;
            shards.push(ShardManifest {
                last_lsn,
                first_live_segment,
            });
        }
        Ok(Self {
            generation,
            checkpoint,
            shards,
        })
    }
}

/// A unique temp path next to `path` (rename must not cross
/// filesystems).
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            generation: 4,
            checkpoint: checkpoint_file_name(4),
            shards: vec![
                ShardManifest {
                    last_lsn: 17,
                    first_live_segment: 3,
                },
                ShardManifest {
                    last_lsn: 0,
                    first_live_segment: 1,
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let dir = tempdir();
        let m = sample();
        m.save(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
    }

    #[test]
    fn save_replaces_atomically() {
        let dir = tempdir();
        Manifest::bootstrap(2).save(&dir).unwrap();
        sample().save(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap().generation, 4);
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let dir = tempdir();
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
        let dir = tempdir();
        assert!(matches!(
            Manifest::load(&dir),
            Err(WalError::Manifest { .. })
        ));
    }

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ctxpref-wal-manifest-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
