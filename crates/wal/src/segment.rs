//! Segment files: naming, headers, and the recovery scan.
//!
//! Each WAL shard owns a directory `shard-<i>/` of segment files
//! `seg-<NNNNNN>.wal`. A segment starts with a 24-byte header
//! (`CTXWAL02` magic, shard index, segment number) followed by framed
//! records in LSN order. A segment of another format version — a
//! `CTXWAL01` segment's text records — is refused with
//! [`WalError::Version`], never read as damage. Appends only ever touch the last segment of a
//! shard, so any damage in an *earlier* segment is bitrot, while damage
//! at the tail of the *last* segment is the expected signature of a
//! crash mid-append.
//!
//! The torn-tail rule, applied by [`scan_segment`]:
//!
//! * a frame whose declared length runs past EOF, or whose checksum
//!   fails **with nothing but the bad bytes after it**, is a torn tail:
//!   the scan reports the valid prefix and the caller truncates;
//! * a failed checksum **with more bytes following** is mid-log
//!   corruption and surfaces as [`WalError::Corrupt`];
//! * a short or wrong header is only legal on a shard's final segment
//!   (a crash during rotation), where the caller deletes and recreates
//!   the file;
//! * a frame that verifies but does not open with an LSN is
//!   corruption wherever it sits.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};

use ctxpref_bytes::{decode_header, split_frame, FrameError, FRAME_HEADER};

use crate::error::WalError;
use crate::record::split_record;

/// Magic bytes opening every segment file: `CTXWAL` and the two-digit
/// format version.
pub const SEGMENT_MAGIC: &[u8; 8] = b"CTXWAL02";

/// Bytes of the segment header: magic, `u32` shard, `u64` segment
/// number, `u32` reserved.
pub const SEGMENT_HEADER: usize = 8 + 4 + 8 + 4;

/// The directory holding one shard's segments.
pub fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

/// The file name of segment `seg_no` (zero-padded so lexicographic
/// order is numeric order).
pub fn segment_file_name(seg_no: u64) -> String {
    format!("seg-{seg_no:06}.wal")
}

/// Full path of segment `seg_no` of `shard`.
pub fn segment_path(dir: &Path, shard: usize, seg_no: u64) -> PathBuf {
    shard_dir(dir, shard).join(segment_file_name(seg_no))
}

/// Encode the header for segment `seg_no` of `shard`.
pub fn segment_header(shard: usize, seg_no: u64) -> [u8; SEGMENT_HEADER] {
    let mut h = [0u8; SEGMENT_HEADER];
    h[..8].copy_from_slice(SEGMENT_MAGIC);
    h[8..12].copy_from_slice(&(shard as u32).to_le_bytes());
    h[12..20].copy_from_slice(&seg_no.to_le_bytes());
    h
}

/// Parse the segment number out of a `seg-NNNNNN.wal` file name.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".wal")?
        .parse()
        .ok()
}

/// List a shard's segment numbers, ascending. Files that don't match
/// the segment naming scheme are ignored.
pub fn list_segments(dir: &Path, shard: usize) -> Result<Vec<u64>, WalError> {
    let sd = shard_dir(dir, shard);
    let mut segs = Vec::new();
    for entry in fs::read_dir(&sd)? {
        let entry = entry?;
        if let Some(seg_no) = entry.file_name().to_str().and_then(parse_segment_file_name) {
            segs.push(seg_no);
        }
    }
    segs.sort_unstable();
    Ok(segs)
}

/// One decoded record from a segment scan.
#[derive(Debug)]
pub struct ScannedRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The record's op bytes (checksum already verified).
    pub payload: Vec<u8>,
}

/// The result of scanning one segment.
#[derive(Debug)]
pub struct SegmentScan {
    /// All records with verified checksums, in file order.
    pub records: Vec<ScannedRecord>,
    /// Byte length of the valid prefix (header + intact records). When
    /// [`Self::torn`] is set the file should be truncated to this.
    pub valid_len: u64,
    /// Whether the segment ended in a torn record (crash mid-append).
    pub torn: bool,
    /// Whether the 24-byte header was present and correct. `false` is
    /// only legal on a shard's final segment.
    pub header_ok: bool,
}

/// Scan one segment, verifying frame checksums and applying the
/// torn-tail rule described in the module docs. `is_last` says whether
/// this is the shard's final (append-target) segment; tail damage in
/// any earlier segment is promoted to [`WalError::Corrupt`].
pub fn scan_segment(
    path: &Path,
    shard: usize,
    seg_no: u64,
    is_last: bool,
) -> Result<SegmentScan, WalError> {
    // Fault site `wal.read`: an injected error models a read I/O
    // failure (the sectors exist but the disk won't serve them) and
    // surfaces through the ordinary Io path, exactly like a real one.
    ctxpref_faults::hit_io(ctxpref_faults::sites::WAL_READ)?;
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;

    let corrupt = |offset: u64, reason: String| -> WalError {
        WalError::Corrupt {
            path: path.to_path_buf(),
            offset,
            reason,
        }
    };

    if let Some(magic) = bytes.get(..SEGMENT_MAGIC.len()) {
        if magic.starts_with(b"CTXWAL") && magic != SEGMENT_MAGIC {
            return Err(WalError::Version {
                path: path.to_path_buf(),
                found: String::from_utf8_lossy(magic).into_owned(),
            });
        }
    }
    if bytes.len() < SEGMENT_HEADER || bytes[..SEGMENT_HEADER] != segment_header(shard, seg_no) {
        if is_last {
            // A crash between `File::create` and writing (or syncing)
            // the header. No record in this file can have been acked.
            return Ok(SegmentScan {
                records: Vec::new(),
                valid_len: 0,
                torn: true,
                header_ok: false,
            });
        }
        return Err(corrupt(
            0,
            "bad segment header on a non-final segment".to_string(),
        ));
    }

    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        // Checked parse: whatever bytes a crash left behind surface as a
        // torn tail or `Corrupt`, never as a panic.
        let damage = match split_frame(rest) {
            Ok(Some((payload, len))) => {
                let (lsn, op) = split_record(payload)
                    .map_err(|e| corrupt(pos as u64, format!("record lsn: {e}")))?;
                records.push(ScannedRecord {
                    lsn,
                    payload: op.to_vec(),
                });
                pos += len;
                continue;
            }
            // A header or payload cut short by EOF. An absurd length
            // cannot say where the next record starts, so nothing
            // readable ever follows it either.
            Ok(None) => "partial record at end of file".to_string(),
            Err(e @ FrameError::Oversized { .. }) => e.to_string(),
            // A failed checksum with nothing after the record is a torn
            // tail (its bytes never finished hitting the disk); with
            // intact data following, it is mid-log bitrot.
            Err(e) => {
                let len = decode_header(rest).map_or(0, |(len, _)| len as usize);
                if FRAME_HEADER + len < rest.len() {
                    return Err(corrupt(pos as u64, format!("mid-log {e}")));
                }
                format!("final record: {e}")
            }
        };
        // Torn only if this is the shard's last segment.
        if !is_last {
            return Err(corrupt(pos as u64, damage));
        }
        return Ok(SegmentScan {
            records,
            valid_len: pos as u64,
            torn: true,
            header_ok: true,
        });
    }
    Ok(SegmentScan {
        records,
        valid_len: pos as u64,
        torn: false,
        header_ok: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_bytes::encode_frame;
    use ctxpref_testkit::TempDir;
    use std::io::Write;

    /// A record: one frame whose payload is the LSN (a one-byte varint
    /// here) and the op bytes.
    fn frame(lsn: u8, op: &[u8]) -> Vec<u8> {
        encode_frame(&[&[lsn][..], op].concat()).unwrap()
    }

    fn write_segment(path: &Path, shard: usize, seg_no: u64, records: &[(u8, &[u8])]) {
        let mut f = fs::File::create(path).unwrap();
        f.write_all(&segment_header(shard, seg_no)).unwrap();
        for (lsn, payload) in records {
            f.write_all(&frame(*lsn, payload)).unwrap();
        }
    }

    #[test]
    fn clean_segment_scans_fully() {
        let dir = TempDir::new("wal-segment");
        let path = dir.join("seg-000001.wal");
        write_segment(&path, 3, 1, &[(1, b"add u1"), (2, b"ins u1 x")]);
        let scan = scan_segment(&path, 3, 1, true).unwrap();
        assert!(!scan.torn);
        assert!(scan.header_ok);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].lsn, 1);
        assert_eq!(scan.records[1].payload, b"ins u1 x");
        assert_eq!(scan.valid_len, fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_truncates_on_last_segment() {
        let dir = TempDir::new("wal-segment");
        let path = dir.join("seg-000001.wal");
        write_segment(&path, 0, 1, &[(1, b"add u1")]);
        let good_len = fs::metadata(&path).unwrap().len();
        // Append half a record.
        let torn = frame(2, b"ins u1 something");
        fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&torn[..torn.len() / 2])
            .unwrap();
        let scan = scan_segment(&path, 0, 1, true).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, good_len);
        // The same damage on a non-final segment is corruption.
        let err = scan_segment(&path, 0, 1, false).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn truncated_mid_header_frame_is_torn_not_a_panic() {
        // A crash can stop the disk mid-way through the 12-byte frame
        // header itself. The scan must treat every truncation point
        // inside the header as a torn tail on the last segment (and as
        // Corrupt on earlier ones) — never panic on the short slice.
        for keep in 1..FRAME_HEADER {
            let dir = TempDir::new("wal-segment");
            let path = dir.join("seg-000001.wal");
            write_segment(&path, 0, 1, &[(1, b"add u1")]);
            let good_len = fs::metadata(&path).unwrap().len();
            let partial = frame(2, b"ins u1 poi");
            fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap()
                .write_all(&partial[..keep])
                .unwrap();
            let scan = scan_segment(&path, 0, 1, true).unwrap();
            assert!(scan.torn, "keep={keep}");
            assert_eq!(scan.records.len(), 1, "keep={keep}");
            assert_eq!(scan.valid_len, good_len, "keep={keep}");
            let err = scan_segment(&path, 0, 1, false).unwrap_err();
            assert!(
                matches!(err, WalError::Corrupt { .. }),
                "keep={keep}: {err}"
            );
        }
    }

    #[test]
    fn mid_log_corruption_is_an_error_even_on_last_segment() {
        let dir = TempDir::new("wal-segment");
        let path = dir.join("seg-000001.wal");
        write_segment(&path, 0, 1, &[(1, b"add u1"), (2, b"add u2")]);
        // Flip a payload byte of the FIRST record.
        let mut bytes = fs::read(&path).unwrap();
        bytes[SEGMENT_HEADER + FRAME_HEADER] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let err = scan_segment(&path, 0, 1, true).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn corrupt_final_record_is_a_torn_tail() {
        let dir = TempDir::new("wal-segment");
        let path = dir.join("seg-000001.wal");
        write_segment(&path, 0, 1, &[(1, b"add u1"), (2, b"add u2")]);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path, 0, 1, true).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn bad_header_is_legal_only_on_last_segment() {
        let dir = TempDir::new("wal-segment");
        let path = dir.join("seg-000002.wal");
        fs::write(&path, b"CTXW").unwrap();
        let scan = scan_segment(&path, 0, 2, true).unwrap();
        assert!(!scan.header_ok);
        assert_eq!(scan.valid_len, 0);
        let err = scan_segment(&path, 0, 2, false).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_file_name(7), "seg-000007.wal");
        assert_eq!(parse_segment_file_name("seg-000007.wal"), Some(7));
        assert_eq!(parse_segment_file_name("seg-1000007.wal"), Some(1_000_007));
        assert_eq!(parse_segment_file_name("MANIFEST"), None);
    }
}
