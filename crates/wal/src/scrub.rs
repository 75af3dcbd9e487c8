//! Background scrub: proactive verification of at-rest durability
//! files, with quarantine instead of guessing.
//!
//! Recovery only discovers bitrot the moment replay trips over it —
//! possibly months after the damage landed, when the healthy replicas
//! that could have repaired it are gone. The scrubber walks **sealed**
//! WAL segments (never the append target, so it never contends with
//! the append path) and the current checkpoint snapshot, re-verifying
//! what recovery would check: a `CTXWAL02` segment's header and every
//! record's frame checksum (the wire's frame, `ctxpref_bytes`), and
//! the snapshot's frames, loaded as recovery loads them. A file that
//! fails verification is moved — not deleted — into `quarantine/`,
//! preserving the evidence, and the damage is reported as a typed
//! [`ScrubReport`]. A transient read error is *not* corruption: the
//! file is skipped, counted, and retried on the next pass.
//!
//! Layout mirrors the live directory so a quarantined file's origin is
//! obvious:
//!
//! ```text
//! quarantine/shard-<i>/seg-NNNNNN.wal   — a corrupt sealed segment
//! quarantine/checkpoint-<gen>.db        — a corrupt snapshot
//! ```
//!
//! Recovery consults this directory: a missing or gapped live segment
//! whose shard has quarantined files is the signature of a scrub (or a
//! crash mid-heal), and the node restarts clean-but-behind instead of
//! refusing to start — replication then re-fetches the lost suffix
//! from a healthy peer.

use std::path::{Path, PathBuf};

use ctxpref_faults::sites;

use crate::durable::DurableDb;
use crate::error::WalError;
use crate::manifest::Manifest;
use crate::segment::{list_segments, scan_segment, segment_path, shard_dir};
use crate::snapshot::load_multi_user;

/// Directory (inside the durable dir) holding files the scrubber
/// pulled out of service.
pub const QUARANTINE_DIR: &str = "quarantine";

/// The quarantine root of a durable directory.
pub fn quarantine_root(dir: &Path) -> PathBuf {
    dir.join(QUARANTINE_DIR)
}

/// The quarantine directory for one shard's segments.
pub fn quarantine_shard_dir(dir: &Path, shard: usize) -> PathBuf {
    quarantine_root(dir).join(format!("shard-{shard}"))
}

/// One file the scrubber (or quarantine-aware recovery) pulled out of
/// service.
#[derive(Debug, Clone)]
pub struct QuarantinedFile {
    /// The WAL shard the file belonged to; `None` for a checkpoint
    /// snapshot.
    pub shard: Option<usize>,
    /// Where the file lived.
    pub original: PathBuf,
    /// Where it was moved to.
    pub quarantined: PathBuf,
    /// Why it failed verification.
    pub reason: String,
}

/// What one scrub pass found and did. Typed, never a panic: every
/// per-file failure is contained in a counter or a quarantine entry.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Sealed segments whose every frame checksum verified.
    pub segments_verified: u64,
    /// Checkpoint snapshots that verified (0 or 1 per pass).
    pub checkpoints_verified: u64,
    /// Files skipped on a transient read error — not corruption, not
    /// quarantined; the next pass retries them.
    pub read_errors: u64,
    /// Files that failed verification and were moved to quarantine.
    pub quarantined: Vec<QuarantinedFile>,
    /// Whether a fresh checkpoint was cut to heal the directory after
    /// quarantining (the live in-memory state is intact, so a new
    /// generation makes the quarantined files unnecessary for
    /// recovery).
    pub healed: bool,
}

impl ScrubReport {
    /// Whether the pass found any damage.
    pub fn found_damage(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// Quarantine segment `seg_no` of `shard` and record the outcome:
    /// a successful move becomes a quarantine entry, a failed one a
    /// read error (the next pass retries).
    pub(crate) fn quarantine_segment_into(
        &mut self,
        dir: &Path,
        shard: usize,
        seg_no: u64,
        reason: String,
    ) {
        match quarantine_segment(dir, shard, seg_no, reason) {
            Ok(q) => self.quarantined.push(q),
            Err(_) => self.read_errors += 1,
        }
    }
}

/// Move `src` into `dest_dir`, creating it as needed and never
/// overwriting an earlier quarantined file of the same name (a `.N`
/// suffix disambiguates repeat offenders).
pub(crate) fn quarantine_file(src: &Path, dest_dir: &Path) -> Result<PathBuf, WalError> {
    std::fs::create_dir_all(dest_dir)?;
    let name = src
        .file_name()
        .ok_or_else(|| WalError::Io(std::io::Error::other("quarantine source has no file name")))?
        .to_string_lossy()
        .into_owned();
    let mut dest = dest_dir.join(&name);
    let mut n = 1;
    while dest.exists() {
        dest = dest_dir.join(format!("{name}.{n}"));
        n += 1;
    }
    std::fs::rename(src, &dest)?;
    Ok(dest)
}

/// Whether `shard` has quarantined segments — the signal recovery uses
/// to tell "scrubbed damage" apart from unexplained corruption.
pub(crate) fn quarantine_has_shard(dir: &Path, shard: usize) -> bool {
    std::fs::read_dir(quarantine_shard_dir(dir, shard))
        .map(|mut entries| entries.next().is_some())
        .unwrap_or(false)
}

/// Quarantine segment `seg_no` of `shard`, returning the entry for the
/// report.
pub(crate) fn quarantine_segment(
    dir: &Path,
    shard: usize,
    seg_no: u64,
    reason: String,
) -> Result<QuarantinedFile, WalError> {
    let original = crate::segment::segment_path(dir, shard, seg_no);
    let quarantined = quarantine_file(&original, &quarantine_shard_dir(dir, shard))?;
    let _ = std::fs::File::open(shard_dir(dir, shard)).and_then(|d| d.sync_all());
    Ok(QuarantinedFile {
        shard: Some(shard),
        original,
        quarantined,
        reason,
    })
}

impl DurableDb {
    /// One scrub pass: verify every **sealed** live segment's frame
    /// checksums and the current checkpoint snapshot, quarantining
    /// whatever fails and healing the directory with a fresh
    /// checkpoint afterwards. Never panics and never blocks the append
    /// path — the scan takes the checkpoint lock (stalling GC, which
    /// would otherwise delete files mid-scan) but no shard mutex, and
    /// every per-file failure is contained in the report: a transient
    /// read error skips the file, corruption quarantines it.
    ///
    /// Healing works because the live in-memory state is intact — the
    /// damage is at rest, below state that was applied long ago — so a
    /// fresh checkpoint generation makes the quarantined files
    /// unnecessary for recovery. A corrupt *checkpoint* is copied (not
    /// moved) into quarantine first: until the new generation's
    /// manifest swap lands, the old manifest must keep naming a file
    /// that exists.
    pub fn scrub(&self) -> Result<ScrubReport, WalError> {
        let mut report = ScrubReport::default();
        {
            let _no_gc = self.checkpoint_lock.lock();
            let manifest = self.manifest.lock().clone();
            let status = self.wal.status();
            for (shard, st) in status.shards.iter().enumerate() {
                let first_live = manifest.shards[shard].first_live_segment;
                let segs: Vec<u64> = match list_segments(&self.dir, shard) {
                    Ok(s) => s
                        .into_iter()
                        // Sealed only: the append target (st.seg_no) is
                        // legitimately mid-write and is recovery's job.
                        .filter(|&s| s >= first_live && s < st.seg_no)
                        .collect(),
                    Err(_) => {
                        report.read_errors += 1;
                        continue;
                    }
                };
                // LSNs are consecutive across a shard's segments, so a
                // sealed segment truncated *exactly* at a frame
                // boundary — invisible to the per-file checksum scan —
                // shows up as a gap at the next segment's first record.
                // `prev` = (seg_no, last lsn) of the last segment whose
                // scan verified; `None` whenever continuity is unknown
                // (a skipped or quarantined file).
                let mut prev: Option<(u64, u64)> = None;
                for seg_no in segs {
                    if ctxpref_faults::hit(sites::WAL_SCRUB).is_err() {
                        report.read_errors += 1;
                        prev = None;
                        continue;
                    }
                    let path = segment_path(&self.dir, shard, seg_no);
                    match scan_segment(&path, shard, seg_no, false) {
                        Ok(scan) => {
                            let (Some(first), Some(last)) = (
                                scan.records.first().map(|r| r.lsn),
                                scan.records.last().map(|r| r.lsn),
                            ) else {
                                // A sealed segment always carries at
                                // least one record (rotation happens
                                // after an append): an empty one was
                                // truncated down to its header.
                                report.quarantine_segment_into(
                                    &self.dir,
                                    shard,
                                    seg_no,
                                    "sealed segment holds no records (truncated?)".to_string(),
                                );
                                prev = None;
                                continue;
                            };
                            if let Some((prev_seg, prev_last)) = prev {
                                if first != prev_last + 1 {
                                    // The previous segment checksummed
                                    // clean but lost its tail.
                                    report.segments_verified -= 1;
                                    report.quarantine_segment_into(
                                        &self.dir,
                                        shard,
                                        prev_seg,
                                        format!(
                                            "lsn gap after segment: expected {}, next segment starts at {first}",
                                            prev_last + 1
                                        ),
                                    );
                                }
                            }
                            report.segments_verified += 1;
                            prev = Some((seg_no, last));
                        }
                        Err(WalError::Corrupt { reason, .. }) => {
                            report.quarantine_segment_into(&self.dir, shard, seg_no, reason);
                            prev = None;
                        }
                        // An I/O failure is not corruption: skip, count,
                        // let the next pass retry.
                        Err(_) => {
                            report.read_errors += 1;
                            prev = None;
                        }
                    }
                }
                // Best-effort tail check: the append target's first
                // record, when one is readable (the tolerant scan
                // shrugs off a frame being written this instant), pins
                // down the last sealed segment's expected end. While
                // the target holds none, every LSN the shard had
                // assigned at the status snapshot lies in the sealed
                // segments, so the last of them must end there.
                if let Some((prev_seg, prev_last)) = prev {
                    let cur = segment_path(&self.dir, shard, st.seg_no);
                    if let Ok(scan) = scan_segment(&cur, shard, st.seg_no, true) {
                        let next = scan.records.first().map_or(st.last_lsn + 1, |r| r.lsn);
                        if next != prev_last + 1 {
                            report.segments_verified -= 1;
                            report.quarantine_segment_into(
                                &self.dir,
                                shard,
                                prev_seg,
                                format!(
                                    "lsn gap after segment: expected {}, the log continues at {next}",
                                    prev_last + 1
                                ),
                            );
                        }
                    }
                }
            }

            if ctxpref_faults::hit(sites::CHECKPOINT_READ).is_err() {
                report.read_errors += 1;
            } else {
                let path = manifest.checkpoint_path(&self.dir);
                match load_multi_user(&path) {
                    Ok(_) => report.checkpoints_verified += 1,
                    Err(e) => {
                        // Copy the evidence out; the original stays put
                        // until the healing checkpoint's GC removes it.
                        let dest = quarantine_root(&self.dir).join(
                            path.file_name()
                                .map(|n| n.to_string_lossy().into_owned())
                                .unwrap_or_else(|| "checkpoint".to_string()),
                        );
                        let copied = std::fs::create_dir_all(quarantine_root(&self.dir))
                            .and_then(|()| std::fs::copy(&path, &dest));
                        if copied.is_ok() {
                            report.quarantined.push(QuarantinedFile {
                                shard: None,
                                original: path,
                                quarantined: dest,
                                reason: e.to_string(),
                            });
                        } else {
                            report.read_errors += 1;
                        }
                    }
                }
            }
        }
        if report.found_damage() {
            // The in-memory state is whole; a fresh generation makes
            // every quarantined file unnecessary for recovery. If this
            // fails (disk full, say) the quarantine stays authoritative
            // and recovery's rescue path covers a crash in the window.
            report.healed = self.checkpoint().is_ok();
        }
        Ok(report)
    }

    /// Delete checkpoints of older generations and segments below each
    /// shard's `first_live_segment`. Best-effort: a file that refuses
    /// to die is retried by the next checkpoint's GC.
    pub(crate) fn collect_garbage(&self, manifest: &Manifest) {
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let stale = name
                    .strip_prefix("checkpoint-")
                    .and_then(|r| r.strip_suffix(".db"))
                    .and_then(|g| g.parse::<u64>().ok())
                    .is_some_and(|g| g < manifest.generation);
                if stale {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        for (shard, bounds) in manifest.shards.iter().enumerate() {
            let Ok(segs) = list_segments(&self.dir, shard) else {
                continue;
            };
            for seg in segs.into_iter().filter(|&s| s < bounds.first_live_segment) {
                let _ = std::fs::remove_file(segment_path(&self.dir, shard, seg));
            }
        }
    }
}
