//! Recovery's per-shard replay: the live segments replayed on top of
//! the checkpoint, and the quarantine rescue when the log breaks.

use std::path::Path;

use ctxpref_core::ShardedMultiUserDb;

use super::RecoveryReport;
use crate::error::WalError;
use crate::manifest::ShardManifest;
use crate::record::WalOp;
use crate::scrub::{quarantine_has_shard, quarantine_segment};
use crate::segment::{list_segments, scan_segment, segment_path, shard_dir, SEGMENT_HEADER};
use crate::wal::{new_segment, ShardPosition};

/// Replay one shard's live segments into `db`, repairing a torn tail
/// (or a headerless final segment) in place, and return where the WAL
/// should continue appending.
///
/// Recovery **consults quarantine**: when the shard's live log breaks
/// — a missing segment, an LSN gap, mid-log corruption — and the
/// quarantine directory holds segments for this shard, the break is
/// the known signature of a scrub that crashed before its healing
/// checkpoint landed. The broken suffix is moved to quarantine too,
/// the shard is re-seated on a fresh empty segment at the last good
/// LSN, and the rescue is reported instead of refusing to start; the
/// node comes up clean but behind, and replication repair re-fetches
/// the suffix from a healthy peer. Without quarantined files the same
/// break is unexplained corruption and still hard-errors.
pub(super) fn replay_shard(
    dir: &Path,
    shard: usize,
    bounds: &ShardManifest,
    db: &ShardedMultiUserDb,
    report: &mut RecoveryReport,
) -> Result<ShardPosition, WalError> {
    let rescue_allowed = quarantine_has_shard(dir, shard);
    let segs: Vec<u64> = list_segments(dir, shard)?
        .into_iter()
        .filter(|&s| s >= bounds.first_live_segment)
        .collect();
    if segs.is_empty() {
        if rescue_allowed {
            report.rescued_shards += 1;
            return reseat_shard(dir, shard, bounds.first_live_segment, bounds.last_lsn + 1);
        }
        return Err(WalError::Manifest {
            reason: format!(
                "shard {shard}: live segment {} named by the manifest is missing",
                bounds.first_live_segment
            ),
        });
    }

    let mut next_lsn = bounds.last_lsn + 1;
    let mut tail = ShardPosition {
        seg_no: 0,
        pos: 0,
        next_lsn,
    };
    for (i, &seg_no) in segs.iter().enumerate() {
        let is_last = i == segs.len() - 1;
        let path = segment_path(dir, shard, seg_no);
        let scan = match scan_segment(&path, shard, seg_no, is_last) {
            Ok(scan) => scan,
            Err(e @ WalError::Corrupt { .. }) if rescue_allowed => {
                return rescue_shard(dir, shard, &segs[i..], next_lsn, report, &e.to_string());
            }
            Err(e) => return Err(e),
        };
        for rec in &scan.records {
            if rec.lsn <= bounds.last_lsn {
                continue; // Covered by the checkpoint snapshot.
            }
            if rec.lsn != next_lsn {
                if rescue_allowed {
                    return rescue_shard(
                        dir,
                        shard,
                        &segs[i..],
                        next_lsn,
                        report,
                        &format!("lsn gap: expected {next_lsn}, found {}", rec.lsn),
                    );
                }
                return Err(WalError::LsnGap {
                    shard,
                    expected: next_lsn,
                    found: rec.lsn,
                });
            }
            let op = WalOp::decode(&rec.payload, db.env(), db.relation())?;
            if op.apply(db).is_err() {
                // The live path rejected this op identically when it
                // was logged; rejection is deterministic in the state,
                // which is itself determined by the log prefix.
                report.rejected += 1;
            }
            report.replayed += 1;
            next_lsn = rec.lsn + 1;
        }
        if is_last {
            if scan.torn {
                report.truncated_tails += 1;
            }
            let pos = if scan.header_ok {
                if scan.torn {
                    let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                    f.set_len(scan.valid_len)?;
                    f.sync_all()?;
                }
                scan.valid_len
            } else {
                // Crash between creating the segment and syncing its
                // header: rebuild it empty.
                new_segment(dir, shard, seg_no)?;
                SEGMENT_HEADER as u64
            };
            tail = ShardPosition {
                seg_no,
                pos,
                next_lsn,
            };
        }
    }
    tail.next_lsn = next_lsn;
    Ok(tail)
}

/// Quarantine-rescue one shard mid-replay: move the broken suffix
/// (`remaining` segments, the offender first) into quarantine next to
/// the files the scrub already put there, then re-seat the shard on a
/// fresh segment at the last good LSN. Records replayed from the
/// offender before the break are applied in memory; `recover` cuts a
/// checkpoint right after so they stay durable.
fn rescue_shard(
    dir: &Path,
    shard: usize,
    remaining: &[u64],
    next_lsn: u64,
    report: &mut RecoveryReport,
    reason: &str,
) -> Result<ShardPosition, WalError> {
    for &seg_no in remaining {
        if quarantine_segment(dir, shard, seg_no, reason.to_string()).is_ok() {
            report.quarantined += 1;
        }
    }
    report.rescued_shards += 1;
    let seg_no = remaining.iter().copied().max().unwrap_or(0) + 1;
    reseat_shard(dir, shard, seg_no, next_lsn)
}

/// Create a fresh empty segment for `shard` so `Wal::open` has an
/// append target, and hand back the position it should open at.
fn reseat_shard(
    dir: &Path,
    shard: usize,
    seg_no: u64,
    next_lsn: u64,
) -> Result<ShardPosition, WalError> {
    std::fs::create_dir_all(shard_dir(dir, shard))?;
    new_segment(dir, shard, seg_no)?;
    Ok(ShardPosition {
        seg_no,
        pos: SEGMENT_HEADER as u64,
        next_lsn,
    })
}
