//! [`DurableDb`]: the sharded serving core wired to a write-ahead log
//! and checkpoint manifests.
//!
//! Every mutation is **logged first, applied second**, both under the
//! target shard's WAL mutex, so per-shard replay order is exactly apply
//! order. The on-disk layout under the durable directory:
//!
//! ```text
//! MANIFEST              — checksummed recovery root, epochs included (atomic swap)
//! checkpoint-<gen>.db   — snapshot in the save format (`ctxpref v2` frames)
//! shard-<i>/seg-*.wal   — that shard's segmented log (`CTXWAL02`)
//! ```
//!
//! Recovery = load the manifest's checkpoint, then per shard replay the
//! live segments in LSN order, tolerating exactly one torn tail per
//! shard (repaired in place) and refusing anything that looks like
//! mid-log corruption.
//!
//! There is deliberately **no flush-on-drop**: dropping a `DurableDb`
//! models a crash, which is precisely what the recovery fuzz harness
//! needs. Orderly shutdown calls [`DurableDb::flush`] explicitly.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ctxpref_core::{ShardedMultiUserDb, Stripe, UserShardWrite};
use ctxpref_profile::Profile;
use parking_lot::Mutex;

use crate::error::{DurableError, WalError};
use crate::manifest::{checkpoint_file_name, Manifest};
use crate::record::{Displaced, WalOp};
use crate::segment::{list_segments, scan_segment, segment_path, ScannedRecord};
use crate::snapshot::{load_multi_user, save_multi_user};
use crate::wal::{ShardGuard, Wal, WalOptions, WalStatus, WalTotals};
use recover::replay_shard;

/// The exclusive-ownership lock file inside a durable directory.
///
/// Checkpoint GC deletes snapshots and segments that a *concurrent*
/// `recover()` of the same directory may still be reading, so a durable
/// directory admits exactly one live [`DurableDb`] at a time. The lock
/// is an OS advisory file lock (released automatically when the owner
/// drops or its process dies), so a crash never leaves a stale lock
/// behind.
pub const LOCK_FILE: &str = "LOCK";

/// Take the directory's exclusive lock, failing fast with
/// [`WalError::Locked`] if another live `DurableDb` holds it.
fn acquire_dir_lock(dir: &Path) -> Result<File, WalError> {
    let f = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join(LOCK_FILE))?;
    match f.try_lock() {
        Ok(()) => Ok(f),
        Err(std::fs::TryLockError::WouldBlock) => Err(WalError::Locked {
            dir: dir.to_path_buf(),
        }),
        Err(std::fs::TryLockError::Error(e)) => Err(WalError::Io(e)),
    }
}

/// The acknowledgement of one durable mutation.
#[derive(Debug, Clone)]
pub struct Ack {
    /// The WAL shard (== core stripe) that logged the op.
    pub shard: usize,
    /// The LSN the op received on that shard.
    pub lsn: u64,
    /// Whether the op is already on disk (always `true` under
    /// per-record sync; under group commit only after the next flush).
    pub durable: bool,
    /// What the op took out of the database, read under the shard's
    /// WAL mutex by the same call that applied it.
    pub displaced: Displaced,
}

/// What recovery found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Generation of the checkpoint recovery started from.
    pub generation: u64,
    /// Highest recovered LSN per shard (0 = nothing past bootstrap).
    pub shard_lsns: Vec<u64>,
    /// Log records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Replayed records the database rejected (it rejected them
    /// identically when they were first applied — rejection is
    /// deterministic, so this is not an error).
    pub rejected: u64,
    /// Torn segment tails truncated during the scan.
    pub truncated_tails: u64,
    /// Segments recovery itself moved to quarantine: the shard's live
    /// log broke (missing segment, LSN gap, mid-log corruption) at a
    /// point quarantine already explained — a scrub quarantined files
    /// and crashed before its healing checkpoint landed.
    pub quarantined: u64,
    /// Shards re-seated on a fresh empty segment after such a break.
    /// The node restarts clean but behind; replication repair (or the
    /// checkpoint `recover` cuts right after) reconciles it.
    pub rescued_shards: u64,
}

impl RecoveryReport {
    /// Sum of the per-shard recovered LSNs — a single monotone
    /// "how much log survived" figure for stats and the CLI.
    pub fn recovered_lsn(&self) -> u64 {
        self.shard_lsns.iter().sum()
    }
}

/// What one checkpoint pass did.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// The new checkpoint generation.
    pub generation: u64,
    /// Users captured in the snapshot.
    pub users: usize,
}

/// A [`ShardedMultiUserDb`] whose mutations are write-ahead logged and
/// periodically checkpointed.
#[derive(Debug)]
pub struct DurableDb {
    pub(crate) dir: PathBuf,
    db: Arc<ShardedMultiUserDb>,
    pub(crate) wal: Wal,
    /// The published manifest, and the one home of the fencing epoch
    /// and the epoch pairs. Its lock is held across every manifest
    /// write, from the clone to the publish (see
    /// [`DurableDb::write_manifest`]).
    pub(crate) manifest: Mutex<Manifest>,
    /// Serializes checkpoints (the shard loop must not interleave with
    /// another checkpoint's rotations).
    pub(crate) checkpoint_lock: Mutex<()>,
    /// Replicated records whose apply the database rejected. The
    /// primary rejected them identically (rejection is deterministic
    /// in the log prefix), so a nonzero count with a *diverging*
    /// digest is the observable signature of replay divergence.
    repl_apply_rejects: AtomicU64,
    /// Held for the db's lifetime; dropping it releases the directory.
    _dir_lock: File,
}

/// A consistent per-user cut: the user's profile and the last LSN of
/// their WAL shard, both read under the shard's WAL mutex (see
/// [`DurableDb::user_cut`]). The shard's records with LSN >
/// `last_lsn` are exactly the mutations the profile clone misses.
#[derive(Debug, Clone)]
pub struct UserCut {
    /// The WAL shard (== core stripe) the user folds to.
    pub shard: usize,
    /// The shard's last applied LSN at the instant of the cut.
    pub last_lsn: u64,
    /// The user's profile, `None` if the user is unknown.
    pub profile: Option<Profile>,
}

/// What [`DurableDb::apply_replicated`] did with a shipped record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplApply {
    /// The record was the shard's next LSN: logged and applied.
    Applied {
        /// Whether the record is already on disk locally.
        durable: bool,
    },
    /// The shard already has this LSN — a network duplicate, dropped.
    Duplicate,
    /// The record skips ahead of the shard's sequence; the sender must
    /// rewind its cursor to `expected` (or fall back to a resync).
    Gap {
        /// The LSN this shard needs next.
        expected: u64,
    },
}

impl DurableDb {
    /// Bootstrap a fresh durable directory around `db`'s current
    /// contents: write checkpoint generation 0, create the per-shard
    /// logs, then publish the manifest. Fails with
    /// [`WalError::AlreadyExists`] if `dir` already has a manifest.
    pub fn create(
        dir: &Path,
        db: Arc<ShardedMultiUserDb>,
        opts: WalOptions,
    ) -> Result<Self, WalError> {
        if dir.join(crate::manifest::MANIFEST_FILE).exists() {
            return Err(WalError::AlreadyExists {
                dir: dir.to_path_buf(),
            });
        }
        std::fs::create_dir_all(dir)?;
        let dir_lock = acquire_dir_lock(dir)?;
        let snapshot = db.snapshot();
        save_multi_user(dir.join(checkpoint_file_name(0)), &snapshot)?;
        let wal = Wal::create(dir, db.num_shards(), opts)?;
        let manifest = Manifest::bootstrap(db.num_shards());
        manifest.save(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            db,
            wal,
            manifest: Mutex::new(manifest),
            checkpoint_lock: Mutex::new(()),
            repl_apply_rejects: AtomicU64::new(0),
            _dir_lock: dir_lock,
        })
    }

    /// Recover a durable directory: load the manifest's checkpoint,
    /// replay each shard's live segments, repair torn tails, and open
    /// the log for appending where replay ended. Fails with
    /// [`WalError::Locked`] while another live `DurableDb` owns the
    /// directory — its checkpoint GC would delete the very generation
    /// this recovery is reading.
    pub fn recover(dir: &Path, opts: WalOptions) -> Result<(Self, RecoveryReport), WalError> {
        let dir_lock = acquire_dir_lock(dir)?;
        let manifest = Manifest::load(dir)?;
        let num_shards = manifest.shards.len();
        let db = ShardedMultiUserDb::from_db(
            load_multi_user(manifest.checkpoint_path(dir))?,
            num_shards,
        );

        let mut report = RecoveryReport {
            generation: manifest.generation,
            shard_lsns: vec![0; num_shards],
            replayed: 0,
            rejected: 0,
            truncated_tails: 0,
            quarantined: 0,
            rescued_shards: 0,
        };
        let mut positions = Vec::with_capacity(num_shards);
        for (shard, bounds) in manifest.shards.iter().enumerate() {
            let pos = replay_shard(dir, shard, bounds, &db, &mut report)?;
            report.shard_lsns[shard] = pos.next_lsn - 1;
            positions.push(pos);
        }

        let wal = Wal::open(dir, opts, &positions)?;
        let me = Self {
            dir: dir.to_path_buf(),
            db: Arc::new(db),
            wal,
            manifest: Mutex::new(manifest),
            checkpoint_lock: Mutex::new(()),
            repl_apply_rejects: AtomicU64::new(0),
            _dir_lock: dir_lock,
        };
        if report.rescued_shards > 0 {
            // A rescue replayed records whose only disk copy is now in
            // quarantine; cut a checkpoint so the recovered state is
            // durable without them. Best-effort — if it fails (disk
            // full, say) the node still serves, just repeats the
            // rescue after another crash.
            let _ = me.checkpoint();
        }
        Ok((me, report))
    }

    /// The live serving core (shared with whoever serves queries).
    pub fn db(&self) -> &Arc<ShardedMultiUserDb> {
        &self.db
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current manifest (checkpoint generation, epochs and replay
    /// bounds).
    pub fn manifest(&self) -> Manifest {
        self.manifest.lock().clone()
    }

    /// The highest replication epoch this node has seen, as persisted.
    pub fn epoch(&self) -> u64 {
        self.manifest.lock().epoch
    }

    /// `shard`'s `(epoch, first_lsn)` pairs, as persisted.
    pub fn epoch_pairs(&self, shard: usize) -> Vec<(u64, u64)> {
        self.manifest.lock().shards[shard].epochs.clone()
    }

    /// Raise the persisted epoch to `epoch`; a lower or equal one
    /// changes nothing. Published only once the manifest holding it is
    /// on disk.
    pub fn set_epoch(&self, epoch: u64) -> Result<(), WalError> {
        self.write_manifest(|m| m.epoch = m.epoch.max(epoch))
    }

    /// Replace `shard`'s epoch pairs. Published only once the manifest
    /// holding them is on disk.
    pub fn set_epoch_pairs(&self, shard: usize, pairs: Vec<(u64, u64)>) -> Result<(), WalError> {
        self.write_manifest(|m| m.shards[shard].epochs = pairs)
    }

    /// The one path of every manifest write: under the manifest's lock,
    /// clone the published manifest, `change` it, swap it onto disk,
    /// then publish it. Writers are serialized, so none drops another's
    /// change, and a failed swap publishes nothing. A change that leaves
    /// the manifest as it was writes nothing.
    fn write_manifest(&self, change: impl FnOnce(&mut Manifest)) -> Result<(), WalError> {
        let mut published = self.manifest.lock();
        let mut next = published.clone();
        change(&mut next);
        if next != *published {
            next.save(&self.dir)?;
            *published = next;
        }
        Ok(())
    }

    /// Point-in-time WAL status.
    pub fn wal_status(&self) -> WalStatus {
        self.wal.status()
    }

    /// The log's totals since open: appends, group-commit batches,
    /// rotations and failed ones, disk-full sheds.
    pub fn wal_totals(&self) -> WalTotals {
        self.wal.totals()
    }

    /// Total records appended since open.
    pub fn wal_appends(&self) -> u64 {
        self.wal.totals().appends
    }

    /// Log one operation, then apply it. The shard's WAL mutex is held
    /// across both, so replay order equals apply order — and the value
    /// the ack reports as displaced is the one *this* record removed,
    /// whatever other writers are doing. If the database rejects the op
    /// it stays on the log — replay rejects it identically, because
    /// rejection is deterministic in the db state, which is itself
    /// determined by the log prefix.
    pub fn apply(&self, op: WalOp) -> Result<Ack, DurableError> {
        let payload = op.encode();
        let wal = self.wal.shard(self.db.shard_of(op.user()));
        self.log_then_apply(op, &payload, wal, |db, user| db.write_user_shard(user))
    }

    /// [`Self::apply`] for a caller that must never wait or fsync, such
    /// as a reactor. `None`, with nothing appended, under per-record
    /// sync, while the op's WAL shard or stripe is held, or when the
    /// record would fill the segment (a rotation fsyncs). Otherwise it
    /// takes both locks, WAL shard first, then appends and applies.
    pub fn try_apply(&self, op: WalOp) -> Option<Result<Ack, DurableError>> {
        if self.wal.options().sync.is_per_record() {
            return None;
        }
        let payload = op.encode();
        let wal = self.wal.try_shard(self.db.shard_of(op.user()))?;
        if !wal.fits(&payload) {
            return None;
        }
        let stripe = self.db.try_write_user_shard(op.user())?;
        Some(self.log_then_apply(op, &payload, wal, |_, _| stripe))
    }

    /// The body of [`Self::apply`] and [`Self::try_apply`]: append
    /// `payload` under `wal`, then apply `op` to the stripe `stripe`
    /// hands over. `apply` takes the stripe only after the append, so a
    /// per-record fsync never holds readers off it.
    fn log_then_apply<'a>(
        &'a self,
        op: WalOp,
        payload: &[u8],
        mut wal: ShardGuard<'_>,
        stripe: impl FnOnce(&'a ShardedMultiUserDb, &str) -> UserShardWrite<'a>,
    ) -> Result<Ack, DurableError> {
        let ack = wal.append(payload)?;
        let mut stripe = stripe(&self.db, op.user());
        let displaced = op.apply_to(&mut stripe)?;
        Ok(Ack {
            shard: wal.shard(),
            lsn: ack.lsn,
            durable: ack.durable,
            displaced,
        })
    }

    /// Durably register a user with an empty profile.
    pub fn add_user(&self, user: &str) -> Result<Ack, DurableError> {
        self.apply(WalOp::AddUser {
            user: user.to_string(),
        })
    }

    /// Durably remove a user; the ack carries their profile.
    pub fn remove_user(&self, user: &str) -> Result<Ack, DurableError> {
        self.apply(WalOp::RemoveUser {
            user: user.to_string(),
        })
    }

    /// Durably insert a preference.
    pub fn insert_preference(
        &self,
        user: &str,
        pref: ctxpref_profile::ContextualPreference,
    ) -> Result<Ack, DurableError> {
        self.apply(WalOp::InsertPreference {
            user: user.to_string(),
            pref,
        })
    }

    /// Durably remove the preference at `index`; the ack carries it.
    pub fn remove_preference(&self, user: &str, index: usize) -> Result<Ack, DurableError> {
        self.apply(WalOp::RemovePreference {
            user: user.to_string(),
            index,
        })
    }

    /// Durably re-score the preference at `index`.
    pub fn update_preference_score(
        &self,
        user: &str,
        index: usize,
        score: f64,
    ) -> Result<Ack, DurableError> {
        self.apply(WalOp::UpdateScore {
            user: user.to_string(),
            index,
            score,
        })
    }

    /// Number of WAL shards (== core stripes).
    pub fn num_shards(&self) -> usize {
        self.wal.num_shards()
    }

    /// Apply one record shipped from a replication primary. `lsn` is
    /// the LSN the primary assigned; the replica mirrors the primary's
    /// per-shard sequence exactly (both sides use the same user→shard
    /// fold), so the record is appended to this db's own WAL *at that
    /// same LSN* and all of the recovery machinery applies unchanged.
    /// A duplicate delivery is detected by the LSN cursor and dropped;
    /// a skip-ahead is reported as a gap without touching anything.
    /// A rejected op (unknown user, …) stays on the log — the primary
    /// rejected it identically, rejection being deterministic in the
    /// state, which is itself determined by the log prefix.
    pub fn apply_replicated(
        &self,
        shard: usize,
        lsn: u64,
        payload: &[u8],
    ) -> Result<ReplApply, DurableError> {
        let op =
            WalOp::decode(payload, self.db.env(), self.db.relation()).map_err(DurableError::Wal)?;
        let mut guard = self.wal.shard(shard);
        let expected = guard.next_lsn();
        if lsn < expected {
            return Ok(ReplApply::Duplicate);
        }
        if lsn > expected {
            return Ok(ReplApply::Gap { expected });
        }
        let ack = guard.append(payload).map_err(DurableError::Wal)?;
        debug_assert_eq!(ack.lsn, lsn);
        if op.apply(&self.db).is_err() {
            // The primary rejected this op identically when it logged
            // it (rejection is deterministic in the log prefix), so a
            // reject here is expected — but it must be *countable*: a
            // climbing count alongside a diverging anti-entropy digest
            // is how replay divergence becomes observable.
            self.repl_apply_rejects.fetch_add(1, Ordering::Relaxed);
        }
        Ok(ReplApply::Applied {
            durable: ack.durable,
        })
    }

    /// Replicated records whose apply the database rejected since open.
    pub fn repl_apply_rejects(&self) -> u64 {
        self.repl_apply_rejects.load(Ordering::Relaxed)
    }

    /// A consistent cut of one shard for a replication resync: its
    /// stripe's users and its last LSN, read under the shard's WAL mutex
    /// (the profiles are cloned once the mutex is released).
    pub fn shard_cut(&self, shard: usize) -> (Vec<(String, Profile)>, u64) {
        let guard = self.wal.shard(shard);
        let (users, last_lsn) = (self.db.stripe_indexes(shard), guard.next_lsn() - 1);
        drop(guard);
        let users = users.into_iter().map(|(n, idx)| (n, idx.profile().clone()));
        (users.collect(), last_lsn)
    }

    /// A consistent per-user cut for live migration: the user's profile
    /// (`None` if unknown) plus the last LSN their WAL shard had
    /// applied at the instant the profile was cloned. Taken under the
    /// shard's WAL mutex — the durable layer logs and applies under
    /// that same mutex — so no mutation to the user can fall between
    /// the profile clone and the LSN read: the shard's WAL suffix
    /// strictly after `last_lsn` is exactly what the snapshot misses.
    pub fn user_cut(&self, user: &str) -> UserCut {
        let shard = self.db.shard_of(user);
        let guard = self.wal.shard(shard);
        let last_lsn = guard.next_lsn() - 1;
        let profile = self.db.profile(user).ok();
        drop(guard);
        UserCut {
            shard,
            last_lsn,
            profile,
        }
    }

    /// Read up to `max` records of `shard` with LSN ≥ `from_lsn` from
    /// the live segments, in LSN order. `Ok(None)` means the tail below
    /// `from_lsn`'s continuation has been garbage-collected into a
    /// checkpoint — the caller must fall back to a [`Self::shard_cut`].
    /// Holds the checkpoint lock so GC cannot delete segments mid-scan;
    /// a record currently being appended is seen either fully or as a
    /// torn tail that is simply not shipped yet.
    pub fn read_shard_from(
        &self,
        shard: usize,
        from_lsn: u64,
        max: usize,
    ) -> Result<Option<Vec<ScannedRecord>>, WalError> {
        let _no_gc = self.checkpoint_lock.lock();
        let first_live = self.manifest.lock().shards[shard].first_live_segment;
        let segs: Vec<u64> = list_segments(&self.dir, shard)?
            .into_iter()
            .filter(|&s| s >= first_live)
            .collect();
        let mut out: Vec<ScannedRecord> = Vec::new();
        for &seg_no in &segs {
            // Tolerate a torn tail on *any* segment here: the shard may
            // rotate between `list_segments` and this scan, and a
            // record mid-append is visible as a torn tail until its
            // write completes. Un-shipped is the correct treatment.
            let scan = scan_segment(&segment_path(&self.dir, shard, seg_no), shard, seg_no, true)?;
            for rec in scan.records {
                if rec.lsn < from_lsn {
                    continue;
                }
                if rec.lsn != from_lsn + out.len() as u64 {
                    // The continuation is missing from the live log:
                    // everything below it was checkpointed away.
                    return Ok(None);
                }
                if out.len() == max {
                    return Ok(Some(out));
                }
                out.push(rec);
            }
        }
        if out.is_empty() && from_lsn <= self.manifest.lock().shards[shard].last_lsn {
            return Ok(None);
        }
        Ok(Some(out))
    }

    /// Replication resync: replace one stripe's contents and re-seat
    /// its WAL shard so the sequence continues at `last_lsn + 1`
    /// (forward past a checkpointed-away tail, backward to discard a
    /// deposed primary's divergent suffix), with `pairs` as its epoch
    /// pairs. The replacement stripe is built first and written by a
    /// checkpoint whose one manifest swap also holds the shard's new
    /// bounds and pairs; only once that swap lands are the stripe, the
    /// next LSN and the pairs installed. A failure anywhere before it
    /// leaves the live node and its directory as they were, and
    /// replication repairs the shard again.
    pub fn resync_shard(
        &self,
        shard: usize,
        users: Vec<(String, Profile)>,
        last_lsn: u64,
        pairs: Vec<(u64, u64)>,
    ) -> Result<(), DurableError> {
        let resync = Resync {
            shard,
            stripe: self.db.build_stripe(shard, users)?,
            last_lsn,
            pairs,
        };
        self.checkpoint_with(Some(resync))
            .map_err(DurableError::Wal)?;
        Ok(())
    }

    /// Fsync all pending group-commit records. Returns how many became
    /// durable.
    pub fn flush(&self) -> Result<u64, WalError> {
        self.wal.flush_all()
    }

    /// Take a checkpoint: per shard — under its WAL mutex — flush,
    /// rotate, record the boundary LSN, and snapshot the matching core
    /// stripe (WAL shards and core stripes use the same user fold, so
    /// the pairing is exact). Then write the snapshot, atomically swap
    /// the manifest, and garbage-collect everything the new manifest no
    /// longer references. A crash anywhere before the swap leaves the
    /// old manifest governing recovery; the stale files it still
    /// references are untouched by construction.
    pub fn checkpoint(&self) -> Result<CheckpointReport, WalError> {
        self.checkpoint_with(None)
    }

    /// [`Self::checkpoint`], writing `resync`'s stripe, bounds and
    /// pairs in place of its shard's live ones. That shard's WAL guard
    /// is held from its cut to the install after the manifest swap, so
    /// no record lands between them. The snapshot is written before the
    /// manifest's lock is taken.
    fn checkpoint_with(&self, resync: Option<Resync>) -> Result<CheckpointReport, WalError> {
        let _one_at_a_time = self.checkpoint_lock.lock();
        let generation = self.manifest.lock().generation + 1;

        let mut snapshot = self.db.snapshot_begin();
        let mut bounds = Vec::with_capacity(self.wal.num_shards());
        let mut held = None;
        for ix in 0..self.wal.num_shards() {
            let mut guard = self.wal.shard(ix);
            guard.flush()?;
            let mut last_lsn = guard.next_lsn() - 1;
            let first_live_segment = guard.rotate()?;
            match &resync {
                Some(r) if r.shard == ix => {
                    r.stripe.snapshot_into(&mut snapshot);
                    last_lsn = r.last_lsn;
                    held = Some(guard);
                }
                _ => self.db.snapshot_stripe(ix, &mut snapshot),
            }
            bounds.push((last_lsn, first_live_segment));
        }
        let users = snapshot.user_count();

        let checkpoint = checkpoint_file_name(generation);
        save_multi_user(self.dir.join(&checkpoint), &snapshot)?;
        self.write_manifest(|m| {
            m.generation = generation;
            m.checkpoint = checkpoint;
            for (shard, (last_lsn, first_live_segment)) in m.shards.iter_mut().zip(bounds) {
                shard.last_lsn = last_lsn;
                shard.first_live_segment = first_live_segment;
            }
            if let Some(r) = &resync {
                m.shards[r.shard].epochs.clone_from(&r.pairs);
            }
        })?;
        if let (Some(r), Some(mut guard)) = (resync, held) {
            self.db.install_stripe(r.stripe);
            guard.set_next_lsn(r.last_lsn + 1);
        }

        self.collect_garbage(&self.manifest());
        Ok(CheckpointReport { generation, users })
    }

    /// Testing hook: simulate a power cut by truncating every shard's
    /// segment to its fsynced prefix (what a real crash could lose).
    #[doc(hidden)]
    pub fn drop_unsynced_tails(&self) -> Result<(), WalError> {
        for ix in 0..self.wal.num_shards() {
            self.wal.shard(ix).drop_unsynced_tail()?;
        }
        Ok(())
    }
}

/// A resync's replacement for one shard, which the checkpoint that
/// persists it installs (see [`DurableDb::resync_shard`]).
struct Resync {
    shard: usize,
    stripe: Stripe,
    last_lsn: u64,
    pairs: Vec<(u64, u64)>,
}

mod recover;

#[cfg(test)]
mod tests;
