//! Durable epoch (fencing term) persistence.
//!
//! Each node stores its highest-seen epoch in an `EPOCH` file inside
//! its durable directory, swapped atomically (write-temp + fsync +
//! rename) like the checkpoint manifest. A deposed primary that
//! crashes and restarts therefore comes back *knowing* it was deposed:
//! its first shipped batch is fenced by every peer, and it demotes
//! instead of splitting the brain.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The epoch file's name inside a node's durable directory.
pub const EPOCH_FILE: &str = "EPOCH";

/// Atomically persist `epoch` under `dir`.
pub fn save_epoch(dir: &Path, epoch: u64) -> std::io::Result<()> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("{EPOCH_FILE}.tmp.{}.{n}", std::process::id()));
    let mut f = File::create(&tmp)?;
    writeln!(f, "epoch {epoch}")?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, dir.join(EPOCH_FILE))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Load the persisted epoch; a missing or unparsable file is epoch 0
/// (a node that never saw a promotion).
pub fn load_epoch(dir: &Path) -> u64 {
    std::fs::read_to_string(dir.join(EPOCH_FILE))
        .ok()
        .and_then(|text| text.strip_prefix("epoch ")?.trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_testkit::TempDir;

    #[test]
    fn epoch_round_trips_and_defaults_to_zero() {
        let dir = TempDir::new("repl-epoch");
        assert_eq!(load_epoch(&dir), 0);
        save_epoch(&dir, 7).unwrap();
        assert_eq!(load_epoch(&dir), 7);
        save_epoch(&dir, 8).unwrap();
        assert_eq!(load_epoch(&dir), 8);
    }
}
