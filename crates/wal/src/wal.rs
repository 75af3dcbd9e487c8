//! The per-shard segmented write-ahead log proper.
//!
//! A [`Wal`] owns one log per shard (the shard count matches the
//! serving core's stripe count, using the same user-to-shard fold), so
//! shards never contend on each other's appends. Each shard is a
//! `Mutex<ShardState>`; the durable layer holds that mutex across
//! *log + apply*, which is what makes the log a true write-AHEAD log:
//! an operation is on disk (or at least in the current segment's
//! buffer) before the database sees it, and replay order per shard is
//! exactly apply order.
//!
//! Two durability policies:
//!
//! * [`SyncPolicy::PerRecord`] — every append is fsynced before it
//!   returns; acks are durable.
//! * [`SyncPolicy::GroupCommit`] — appends buffer in the OS page cache
//!   and return immediately (ack `durable: false`); an explicit
//!   [`ShardGuard::flush`] (driven by the service's flusher thread at
//!   the policy's `flush_interval`) makes everything since the last
//!   flush durable in one fsync. This module never reads the clock —
//!   timing lives in the caller, so tests stay deterministic.
//!
//! Fault sites: `wal.append.write` (error/panic, then a separate
//! truncation decision — a torn write leaves real torn bytes on disk),
//! `wal.append.sync`, `wal.rotate`.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;

use ctxpref_faults::sites;
use parking_lot::{Mutex, MutexGuard};

use crate::error::WalError;
use crate::record::put_record;
use crate::segment::{segment_header, segment_path, shard_dir, SEGMENT_HEADER};

/// When appended records become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync every record before acking it. Durable acks, one fsync
    /// per mutation.
    PerRecord,
    /// Buffer records and fsync in batches. The WAL itself never
    /// sleeps or reads the clock; `flush_interval` is advice to the
    /// caller's flusher thread.
    GroupCommit {
        /// How often the owning service should call `flush`.
        flush_interval: Duration,
    },
}

impl SyncPolicy {
    /// Whether appends fsync inline.
    pub fn is_per_record(&self) -> bool {
        matches!(self, Self::PerRecord)
    }
}

/// Tuning knobs of a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// The durability policy.
    pub sync: SyncPolicy,
    /// Rotate a shard's segment once it grows past this many bytes.
    pub segment_max_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::PerRecord,
            segment_max_bytes: 1 << 20,
        }
    }
}

/// Where recovery left one shard: the append position handed to
/// [`Wal::open`].
#[derive(Debug, Clone, Copy)]
pub struct ShardPosition {
    /// The shard's last (append-target) segment.
    pub seg_no: u64,
    /// Byte length of that segment's valid prefix.
    pub pos: u64,
    /// The next LSN to assign on this shard.
    pub next_lsn: u64,
}

#[derive(Debug)]
struct ShardState {
    file: File,
    seg_no: u64,
    /// End of the valid log: where the next record goes.
    pos: u64,
    /// Prefix of the segment known to be on disk.
    synced_pos: u64,
    next_lsn: u64,
    /// Highest LSN known durable (0 = none).
    synced_lsn: u64,
    /// Records appended since the last fsync.
    pending: u64,
    /// The file may hold garbage past `pos` (a torn injected write);
    /// the next append must `set_len(pos)` before writing.
    tail_dirty: bool,
    /// A rollback failed; the on-disk state is unknown and appends are
    /// refused until recovery.
    poisoned: bool,
    /// The record being appended, framed in a buffer the shard keeps.
    record: Vec<u8>,
}

/// The result of one append.
#[derive(Debug, Clone, Copy)]
pub struct AppendAck {
    /// The LSN assigned to the record.
    pub lsn: u64,
    /// Whether the record is already on disk (`true` under
    /// [`SyncPolicy::PerRecord`]; under group commit it becomes durable
    /// at the next flush).
    pub durable: bool,
}

/// Point-in-time status of one WAL shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardWalStatus {
    /// Current segment number.
    pub seg_no: u64,
    /// Bytes in the current segment's valid prefix.
    pub seg_bytes: u64,
    /// Highest LSN assigned (0 = none).
    pub last_lsn: u64,
    /// Highest LSN known durable (0 = none).
    pub synced_lsn: u64,
    /// Records awaiting the next group-commit flush.
    pub pending: u64,
    /// Whether the shard refuses appends after a failed rollback.
    pub poisoned: bool,
}

ctxpref_faults::counters! {
    /// The log's live totals, bumped by the shard guards.
    struct WalCounters;
    /// The log's running totals since open: what `wal-status` and the
    /// service's `stats` report.
    #[derive(Copy)]
    pub struct WalTotals {
        /// Records appended.
        appends,
        /// Group-commit flushes that synced at least one record.
        batches,
        /// Segment rotations.
        rotations,
        /// Size-triggered rotations that failed and left a full segment
        /// as the append target (the append itself succeeded; a later
        /// rotation retries).
        rotate_failures,
        /// Appends shed with a typed retryable [`WalError::DiskFull`]
        /// while the volume was out of space.
        disk_full_sheds,
    }
}

/// Point-in-time status of the whole log.
#[derive(Debug, Clone)]
pub struct WalStatus {
    /// Per-shard status, indexed by shard.
    pub shards: Vec<ShardWalStatus>,
    /// The log's totals since open.
    pub totals: WalTotals,
}

/// The operator's rendering (`wal-status`, local and remote): the
/// aggregate counters, then one line per shard.
impl std::fmt::Display for WalStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "appends {}, group-commit batches {}, rotations {}",
            self.totals.appends, self.totals.batches, self.totals.rotations
        )?;
        for (i, s) in self.shards.iter().enumerate() {
            write!(
                f,
                "\nshard {i}: segment {} ({} bytes), last lsn {}, synced lsn {}, pending {}{}",
                s.seg_no,
                s.seg_bytes,
                s.last_lsn,
                s.synced_lsn,
                s.pending,
                if s.poisoned { " POISONED" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// A per-shard segmented write-ahead log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    shards: Vec<Mutex<ShardState>>,
    counters: WalCounters,
}

impl Wal {
    /// Create a fresh log under `dir`: one shard directory each with an
    /// empty first segment.
    pub fn create(dir: &Path, num_shards: usize, opts: WalOptions) -> Result<Self, WalError> {
        let mut shards = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            std::fs::create_dir_all(shard_dir(dir, shard))?;
            let file = new_segment(dir, shard, 1)?;
            shards.push(Mutex::new(ShardState {
                file,
                seg_no: 1,
                pos: SEGMENT_HEADER as u64,
                synced_pos: SEGMENT_HEADER as u64,
                next_lsn: 1,
                synced_lsn: 0,
                pending: 0,
                tail_dirty: false,
                poisoned: false,
                record: Vec::new(),
            }));
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            opts,
            shards,
            counters: WalCounters::default(),
        })
    }

    /// Open an existing log at the positions recovery computed (tails
    /// already repaired by the recovery scan).
    pub fn open(
        dir: &Path,
        opts: WalOptions,
        positions: &[ShardPosition],
    ) -> Result<Self, WalError> {
        let mut shards = Vec::with_capacity(positions.len());
        for (shard, p) in positions.iter().enumerate() {
            let path = segment_path(dir, shard, p.seg_no);
            let file = OpenOptions::new().read(true).write(true).open(&path)?;
            shards.push(Mutex::new(ShardState {
                file,
                seg_no: p.seg_no,
                pos: p.pos,
                synced_pos: p.pos,
                next_lsn: p.next_lsn,
                synced_lsn: p.next_lsn.saturating_sub(1),
                pending: 0,
                tail_dirty: false,
                poisoned: false,
                record: Vec::new(),
            }));
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            opts,
            shards,
            counters: WalCounters::default(),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The configured options.
    pub fn options(&self) -> &WalOptions {
        &self.opts
    }

    /// Lock shard `ix` for appending. The durable layer holds this
    /// guard across log-then-apply so replay order matches apply order.
    pub fn shard(&self, ix: usize) -> ShardGuard<'_> {
        ShardGuard {
            wal: self,
            shard: ix,
            state: self.shards[ix].lock(),
        }
    }

    /// [`Self::shard`] for a caller that must never wait: `None` while
    /// another thread holds shard `ix`.
    pub(crate) fn try_shard(&self, ix: usize) -> Option<ShardGuard<'_>> {
        Some(ShardGuard {
            wal: self,
            shard: ix,
            state: self.shards[ix].try_lock()?,
        })
    }

    /// Flush every shard (a no-op per shard when nothing is pending).
    /// Returns the number of records made durable.
    pub fn flush_all(&self) -> Result<u64, WalError> {
        let mut synced = 0;
        for ix in 0..self.shards.len() {
            synced += self.shard(ix).flush()?;
        }
        Ok(synced)
    }

    /// Snapshot the log's status.
    pub fn status(&self) -> WalStatus {
        WalStatus {
            shards: (0..self.shards.len())
                .map(|ix| {
                    let s = self.shards[ix].lock();
                    ShardWalStatus {
                        seg_no: s.seg_no,
                        seg_bytes: s.pos,
                        last_lsn: s.next_lsn - 1,
                        synced_lsn: s.synced_lsn,
                        pending: s.pending,
                        poisoned: s.poisoned,
                    }
                })
                .collect(),
            totals: self.totals(),
        }
    }

    /// The log's totals since open, read without any shard lock, so a
    /// stats snapshot can poll them cheaply.
    pub fn totals(&self) -> WalTotals {
        self.counters.snapshot()
    }
}

/// Exclusive access to one WAL shard.
pub struct ShardGuard<'a> {
    wal: &'a Wal,
    shard: usize,
    state: MutexGuard<'a, ShardState>,
}

impl ShardGuard<'_> {
    /// The shard this guard holds.
    pub(crate) fn shard(&self) -> usize {
        self.shard
    }

    /// The next LSN this shard will assign.
    pub fn next_lsn(&self) -> u64 {
        self.state.next_lsn
    }

    /// The current segment number.
    pub fn seg_no(&self) -> u64 {
        self.state.seg_no
    }

    /// Frame the record of the next LSN in the buffer the shard keeps,
    /// its op bytes written there by `put`: what [`Self::append_staged`]
    /// appends. Under the guard, so the buffer is reused from one
    /// record to the next and a record allocates nothing once it has
    /// grown to fit.
    pub(crate) fn stage(&mut self, put: impl FnOnce(&mut Vec<u8>)) -> Result<(), WalError> {
        let s = &mut *self.state;
        s.record.clear();
        put_record(&mut s.record, s.next_lsn, put)
    }

    /// Whether the staged record fits below `segment_max_bytes`:
    /// appending it would not rotate the segment.
    pub(crate) fn staged_fits(&self) -> bool {
        self.state.pos + (self.state.record.len() as u64) < self.wal.opts.segment_max_bytes
    }

    /// Append one record carrying the op bytes `op` and, under
    /// [`SyncPolicy::PerRecord`], fsync it: [`Self::stage`], then
    /// [`Self::append_staged`].
    pub fn append(&mut self, op: &[u8]) -> Result<AppendAck, WalError> {
        self.stage(|out| out.extend_from_slice(op))?;
        self.append_staged()
    }

    /// Append the record [`Self::stage`] framed and, under
    /// [`SyncPolicy::PerRecord`], fsync it. On any error the log's
    /// logical state is unchanged: either the bytes are rolled back, or
    /// (for an injected torn write) they are left as a dirty tail that
    /// the next append truncates and a crash-recovery scan recognizes
    /// as torn.
    pub(crate) fn append_staged(&mut self) -> Result<AppendAck, WalError> {
        let shard = self.shard;
        if ctxpref_faults::hit(sites::DISK_FULL).is_err() {
            // The volume is (injected-)full. Shed before touching the
            // file: nothing to roll back, the caller retries later, and
            // reads keep serving off the existing log and checkpoints.
            self.wal
                .counters
                .disk_full_sheds
                .fetch_add(1, Ordering::Relaxed);
            return Err(WalError::DiskFull { shard });
        }
        let s = &mut *self.state;
        if s.poisoned {
            return Err(WalError::Poisoned { shard });
        }
        if s.tail_dirty {
            // Drop garbage a previous torn write left past `pos`.
            // Overwriting it would mostly work, but a crash could then
            // leave old garbage *after* the new record, which the
            // recovery scan would have to treat as mid-log corruption.
            s.file.set_len(s.pos)?;
            s.tail_dirty = false;
        }
        let lsn = s.next_lsn;
        let len = s.record.len();

        ctxpref_faults::hit_io(sites::WAL_APPEND_WRITE)?;
        let keep = ctxpref_faults::truncated_len(sites::WAL_APPEND_WRITE, len);
        let write = s.file.write_all_at(&s.record[..keep], s.pos);
        if keep < len {
            // Injected torn write: the prefix stays on disk (that is
            // the point — recovery must cope with it), the logical log
            // does not advance, and the op is never applied.
            let _ = s.file.sync_data();
            s.tail_dirty = true;
            return Err(WalError::Io(std::io::Error::other(format!(
                "injected torn append: {keep} of {len} bytes persisted"
            ))));
        }
        if let Err(e) = write {
            // A real write error may have persisted a prefix.
            s.tail_dirty = s.file.set_len(s.pos).is_err();
            if is_enospc(&e) && !s.tail_dirty {
                // A real ENOSPC whose prefix rolled back cleanly is the
                // same retryable shed as the injected window above.
                self.wal
                    .counters
                    .disk_full_sheds
                    .fetch_add(1, Ordering::Relaxed);
                return Err(WalError::DiskFull { shard });
            }
            return Err(WalError::Io(e));
        }

        let durable = match self.wal.opts.sync {
            SyncPolicy::PerRecord => {
                let synced = ctxpref_faults::hit_io(sites::WAL_APPEND_SYNC)
                    .and_then(|()| s.file.sync_data());
                if let Err(e) = synced {
                    // The record reached the file but not the disk. It
                    // MUST come back off: the caller will not apply the
                    // op, and if the bytes later reached disk anyway a
                    // replay would apply an op the live path never did.
                    if s.file.set_len(s.pos).is_err() {
                        s.poisoned = true;
                        return Err(WalError::Poisoned { shard });
                    }
                    return Err(WalError::Io(e));
                }
                s.pos += len as u64;
                s.synced_pos = s.pos;
                s.next_lsn = lsn + 1;
                s.synced_lsn = lsn;
                true
            }
            SyncPolicy::GroupCommit { .. } => {
                s.pos += len as u64;
                s.next_lsn = lsn + 1;
                s.pending += 1;
                false
            }
        };
        self.wal.counters.appends.fetch_add(1, Ordering::Relaxed);

        if self.state.pos >= self.wal.opts.segment_max_bytes {
            // Rotation failure never fails the append — the record is
            // already in the log; a full segment just stays the append
            // target until a later rotation succeeds. But it is not
            // silent: an ever-growing segment means GC cannot reclaim
            // it, so the failure is counted and surfaced in status.
            if self.rotate().is_err() {
                self.wal
                    .counters
                    .rotate_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(AppendAck { lsn, durable })
    }

    /// Fsync everything appended since the last flush. Returns the
    /// number of records made durable. Failure leaves the unsynced
    /// records in place: they were acked non-durable, the database
    /// already applied them, and a later flush (or a crash plus
    /// replay of whatever made it to disk) resolves them.
    pub fn flush(&mut self) -> Result<u64, WalError> {
        let shard = self.shard;
        let s = &mut *self.state;
        if s.poisoned {
            return Err(WalError::Poisoned { shard });
        }
        if s.pending == 0 && s.synced_pos == s.pos {
            return Ok(0);
        }
        ctxpref_faults::hit_io(sites::WAL_APPEND_SYNC)?;
        s.file.sync_data()?;
        let synced = s.pending;
        s.pending = 0;
        s.synced_pos = s.pos;
        s.synced_lsn = s.next_lsn - 1;
        if synced > 0 {
            self.wal.counters.batches.fetch_add(1, Ordering::Relaxed);
        }
        Ok(synced)
    }

    /// Close the current segment and start the next one. Pending
    /// records are flushed first, so a finished segment is always fully
    /// durable. Fault site `wal.rotate` fires before the new segment
    /// exists.
    pub fn rotate(&mut self) -> Result<u64, WalError> {
        self.flush()?;
        let shard = self.shard;
        ctxpref_faults::hit_io(sites::WAL_ROTATE)?;
        let seg_no = self.state.seg_no + 1;
        let file = new_segment(&self.wal.dir, shard, seg_no)?;
        let s = &mut *self.state;
        s.file = file;
        s.seg_no = seg_no;
        s.pos = SEGMENT_HEADER as u64;
        s.synced_pos = s.pos;
        s.tail_dirty = false;
        self.wal.counters.rotations.fetch_add(1, Ordering::Relaxed);
        Ok(seg_no)
    }

    /// Force the shard's LSN sequence to continue at `next_lsn`. Only
    /// meaningful immediately after a [`Self::rotate`], when the
    /// current segment is empty: replication uses it to re-seat a shard
    /// at a resync's watermark (forward for a lagging
    /// replica, backward to discard a deposed primary's divergent
    /// suffix). The manifest's replay bounds must already match the
    /// forced sequence: a resync swaps in the checkpoint that says so
    /// before it calls this.
    pub fn set_next_lsn(&mut self, next_lsn: u64) {
        let s = &mut *self.state;
        s.next_lsn = next_lsn;
        s.synced_lsn = next_lsn.saturating_sub(1);
        s.pending = 0;
    }

    /// Simulate losing everything the OS had not fsynced: truncate the
    /// on-disk segment to the synced prefix. Only meaningful under
    /// group commit; the crash-recovery fuzz uses it to model a power
    /// cut rather than a process kill.
    #[doc(hidden)]
    pub fn drop_unsynced_tail(&mut self) -> Result<(), WalError> {
        let s = &mut *self.state;
        s.file.set_len(s.synced_pos)?;
        s.file.sync_data()?;
        Ok(())
    }
}

/// Create segment `seg_no` of `shard`, write and fsync its header, and
/// fsync the shard directory so the file itself survives a crash.
pub(crate) fn new_segment(dir: &Path, shard: usize, seg_no: u64) -> Result<File, WalError> {
    let path = segment_path(dir, shard, seg_no);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)?;
    file.write_all(&segment_header(shard, seg_no))?;
    file.sync_all()?;
    // The directory entry must be durable too: without this fsync a
    // crash can orphan the just-rotated segment (file contents synced,
    // name lost), which replay would see as an LSN gap. A failure here
    // is a real durability hole, so it propagates instead of being
    // dropped.
    let d = File::open(shard_dir(dir, shard))?;
    d.sync_all()?;
    Ok(file)
}

/// Whether an I/O error is the volume running out of space.
fn is_enospc(e: &std::io::Error) -> bool {
    // ENOSPC (28 on Linux) — matched by raw OS code so the mapping
    // works on toolchains without `ErrorKind::StorageFull` coverage.
    e.raw_os_error() == Some(28)
}

#[cfg(test)]
mod tests;
