//! Durable epoch state: the fencing term and the per-shard epoch table.
//!
//! Each node stores its highest-seen epoch in an `EPOCH` file inside
//! its durable directory and, beside it in `EPOCHS`, which epoch wrote
//! which LSNs of each shard (Kafka KIP-101's leader-epoch cache), both
//! swapped atomically like the checkpoint manifest. A deposed primary
//! that restarts comes back *knowing* it was deposed, and which epoch
//! wrote each of its records.

use std::path::Path;

use ctxpref_wal::{swap_file, SwapSites};

use crate::error::ReplicationError;
use crate::message::LogPos;

/// The epoch file's name inside a node's durable directory.
pub const EPOCH_FILE: &str = "EPOCH";

/// The epoch table's file: a `<shard> <epoch> <first_lsn>` line per pair.
pub const EPOCH_TABLE_FILE: &str = "EPOCHS";

/// Per shard, `(epoch, first_lsn)` pairs ascending in both: `epoch`
/// wrote the records from `first_lsn` up to the next pair's (maybe
/// none, for a primary that never wrote the shard).
pub(crate) type EpochTable = Vec<Vec<(u64, u64)>>;

/// Atomically persist `epoch` under `dir`.
pub fn save_epoch(dir: &Path, epoch: u64) -> Result<(), ReplicationError> {
    write_atomically(dir, EPOCH_FILE, format!("epoch {epoch}\n"))
}

/// Load the persisted epoch. A missing file is epoch 0 (a node that
/// never saw a promotion); an unreadable or garbled one is an error,
/// never a silent 0 — that would let a deposed primary forget it.
pub fn load_epoch(dir: &Path) -> Result<u64, ReplicationError> {
    let Some(text) = read(dir, EPOCH_FILE)? else {
        return Ok(0);
    };
    let epoch = text
        .strip_prefix("epoch ")
        .and_then(|n| n.trim().parse().ok());
    epoch.ok_or_else(|| garbled(dir, EPOCH_FILE, &text))
}

/// The position at `lsn` of a shard whose pairs are `pairs`: epoch 0
/// for LSN 0, the empty prefix every log shares.
pub(crate) fn log_pos(pairs: &[(u64, u64)], lsn: u64) -> LogPos {
    let below = pairs.partition_point(|&(_, first)| first <= lsn);
    let epoch = below.checked_sub(1).map_or(0, |i| pairs[i].0);
    LogPos { epoch, lsn }
}

/// The pairs covering LSNs up to `last_lsn`.
pub(crate) fn prefix(pairs: &[(u64, u64)], last_lsn: u64) -> Vec<(u64, u64)> {
    pairs[..pairs.partition_point(|&(_, first)| first <= last_lsn)].to_vec()
}

/// Atomically persist `table` under `dir`.
pub(crate) fn save_table(dir: &Path, table: &EpochTable) -> Result<(), ReplicationError> {
    let mut text = String::new();
    for (shard, pairs) in table.iter().enumerate() {
        for (epoch, first) in pairs {
            text += &format!("{shard} {epoch} {first}\n");
        }
    }
    write_atomically(dir, EPOCH_TABLE_FILE, text)
}

/// Load a `shards`-wide table from `dir`; a missing file is an empty
/// table, a garbled one an error.
pub(crate) fn load_table(dir: &Path, shards: usize) -> Result<EpochTable, ReplicationError> {
    let mut table = vec![Vec::new(); shards];
    for line in read(dir, EPOCH_TABLE_FILE)?.unwrap_or_default().lines() {
        let fields: Option<Vec<u64>> = line.split_whitespace().map(|n| n.parse().ok()).collect();
        match fields.as_deref() {
            Some(&[shard, epoch, first]) if shard < shards as u64 => {
                table[shard as usize].push((epoch, first))
            }
            _ => return Err(garbled(dir, EPOCH_TABLE_FILE, line)),
        }
    }
    Ok(table)
}

fn write_atomically(dir: &Path, name: &str, text: String) -> Result<(), ReplicationError> {
    swap_file(dir, name, text.as_bytes(), SwapSites::NONE).map_err(|e| file_error(dir, name, e))
}

fn read(dir: &Path, name: &str) -> Result<Option<String>, ReplicationError> {
    match std::fs::read_to_string(dir.join(name)) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        read => read.map(Some).map_err(|e| file_error(dir, name, e)),
    }
}

fn garbled(dir: &Path, name: &str, text: &str) -> ReplicationError {
    file_error(dir, name, format!("unparsable {text:?}"))
}

fn file_error(dir: &Path, name: &str, reason: impl std::fmt::Display) -> ReplicationError {
    let (path, reason) = (dir.join(name), reason.to_string());
    ReplicationError::EpochFile { path, reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_testkit::TempDir;

    #[test]
    fn epoch_round_trips_and_defaults_to_zero() {
        let dir = TempDir::new("repl-epoch");
        assert_eq!(load_epoch(&dir).unwrap(), 0);
        save_epoch(&dir, 7).unwrap();
        assert_eq!(load_epoch(&dir).unwrap(), 7);
        save_epoch(&dir, 8).unwrap();
        assert_eq!(load_epoch(&dir).unwrap(), 8);
    }

    #[test]
    fn a_garbled_epoch_file_is_an_error_not_epoch_zero() {
        let dir = TempDir::new("repl-epoch-garbled");
        for text in ["epoch seven\n", "", "7\n", "epoch 7 8\n"] {
            std::fs::write(dir.join(EPOCH_FILE), text).unwrap();
            match load_epoch(&dir) {
                Err(ReplicationError::EpochFile { path, .. }) => {
                    assert_eq!(path, dir.join(EPOCH_FILE))
                }
                other => panic!("{text:?} loaded as {other:?}"),
            }
        }
        std::fs::write(dir.join(EPOCH_TABLE_FILE), "0 x 1\n").unwrap();
        assert!(load_table(&dir, 1).is_err());
        std::fs::write(dir.join(EPOCH_TABLE_FILE), "3 1 1\n").unwrap();
        assert!(load_table(&dir, 2).is_err(), "shard out of range");
    }

    #[test]
    fn table_answers_lookups_and_round_trips() {
        let dir = TempDir::new("repl-epoch-table");
        // Epoch 1 wrote 1..=10, epoch 3 wrote 11..=14, epoch 5 from 15.
        let pairs = vec![(1, 1), (3, 11), (5, 15)];
        assert_eq!(
            [0, 1, 10, 11, 14, 15, 99].map(|l| log_pos(&pairs, l).epoch),
            [0, 1, 1, 3, 3, 5, 5]
        );
        assert_eq!(log_pos(&[], 5), LogPos { epoch: 0, lsn: 5 });
        assert_eq!(prefix(&pairs, 10), vec![(1, 1)]);
        assert_eq!(prefix(&pairs, 14), vec![(1, 1), (3, 11)]);
        assert_eq!(prefix(&pairs, 0), vec![]);

        let table = vec![pairs, Vec::new()];
        save_table(&dir, &table).unwrap();
        assert_eq!(load_table(&dir, 2).unwrap(), table);
        let fresh = TempDir::new("repl-epoch-table-missing");
        assert_eq!(load_table(&fresh, 2).unwrap(), vec![Vec::new(); 2]);
    }
}
