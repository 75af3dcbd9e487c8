//! Per-user migration state held by a service.
//!
//! A live migration moves one user between two *clusters*. Each side's
//! service keeps a tiny per-user entry while the move is in flight:
//!
//! * the **source** is `Fenced` from cut-over until the flip completes
//!   (client writes to that one user get the typed, retry-able
//!   [`ServiceError::Migrating`](crate::ServiceError::Migrating) —
//!   never a hang), then keeps a `Moved` tombstone so stale clients
//!   that still route here are told to refresh instead of forking the
//!   user's state;
//! * the **destination** is `Importing` while the copy and catch-up
//!   replay build the user, which blocks client writes for the user
//!   until the driver activates it — the destination does not own the
//!   user until the routing table says so.
//!
//! Every entry carries the **routing epoch** the driver minted for the
//! migration (distinct from the replication epoch). An action with an
//! older epoch than the entry is refused with
//! [`ServiceError::StaleMigration`](crate::ServiceError::StaleMigration),
//! so a deposed migration driver can never fence, import, or apply
//! stale writes over a newer migration's work. Entries are in-memory
//! by design: a crash aborts the migration, and every step is
//! restartable from scratch.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use ctxpref_core::CoreError;
use ctxpref_wal::{WalOp, WalOpRef};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::ServiceError;
use crate::service::CtxPrefService;

/// How long a fence (or import) waits for writers that passed the
/// write gate before the entry landed. In-flight writes complete in
/// WAL-append time, so this is a safety net against a wedged writer —
/// on expiry the entry stays installed (writes remain refused, which
/// is safe) and the caller gets a typed error so the driver aborts.
const DRAIN_WAIT: Duration = Duration::from_secs(10);

/// Which side of a migration a user's entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Source at cut-over: reads serve, client writes are refused with
    /// the retry-able `Migrating` error.
    Fenced,
    /// Destination during copy/catch-up: the user is being built here
    /// and client writes are refused until activation. The watermark
    /// is the highest **source** LSN already applied — replayed pages
    /// at or below it are dropped, which makes `migrate_apply`
    /// idempotent even though the ops themselves are not.
    Importing {
        /// Highest source LSN whose effects are already applied.
        watermark: u64,
    },
    /// Source after a completed cut-over: the user now lives
    /// elsewhere; stale clients are told to refresh their routing.
    Moved,
}

/// One user's migration entry: the routing epoch that owns it plus the
/// phase this side is in.
#[derive(Debug, Clone, Copy)]
pub struct MigrationEntry {
    /// The routing epoch the migration driver minted for this move.
    pub epoch: u64,
    /// This side's phase.
    pub phase: MigrationPhase,
}

/// Entries plus the per-user count of client writes currently inside
/// the write path — one mutex so gate checks, entry installs, and
/// drain waits are a single atomic story.
#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<String, MigrationEntry>,
    /// Client writes that passed the gate and have not finished their
    /// append + ack yet, counted per [`slot`] of their user, so that a
    /// write registers without copying its user's name. Users whose
    /// names share a slot share a count: a fence on one of them waits
    /// for the other's writes too, which only makes it wait longer.
    in_flight: HashMap<u64, usize>,
}

/// The slot of `user` in [`Inner::in_flight`].
fn slot(user: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    user.hash(&mut hasher);
    hasher.finish()
}

/// The per-service migration table.
#[derive(Debug, Default)]
pub(crate) struct MigrationTable {
    inner: Mutex<Inner>,
    /// Signalled when a user's in-flight count drops to zero.
    drained: Condvar,
}

/// Holds one client write's in-flight registration for the duration of
/// the write path (gate check through append + ack). Dropping it
/// releases the slot and wakes any fence waiting for stragglers.
#[must_use = "the guard must live across the append, or the fence race returns"]
pub(crate) struct WriteGuard<'a> {
    table: &'a MigrationTable,
    user: &'a str,
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.table.inner.lock();
        let slot = slot(self.user);
        if let Some(n) = inner.in_flight.get_mut(&slot) {
            *n -= 1;
            if *n == 0 {
                inner.in_flight.remove(&slot);
                self.table.drained.notify_all();
            }
        }
    }
}

impl MigrationTable {
    /// Admit a client write for `user`: refuse while an entry blocks
    /// the user, otherwise register the write as in-flight until the
    /// returned guard drops. The check and the registration are one
    /// atomic step, so a fence installed after this returns must wait
    /// for the write to finish before it can treat the WAL as frozen —
    /// no write that passed the gate can append after the fence's
    /// drain cut is taken.
    pub(crate) fn write_guard<'a>(&'a self, user: &'a str) -> Result<WriteGuard<'a>, ServiceError> {
        let mut inner = self.inner.lock();
        if inner.entries.contains_key(user) {
            return Err(ServiceError::Migrating {
                user: user.to_string(),
            });
        }
        *inner.in_flight.entry(slot(user)).or_insert(0) += 1;
        Ok(WriteGuard { table: self, user })
    }

    /// Wait (bounded) for every in-flight write of `user` to finish.
    /// Called with the entry already installed, so no new write can
    /// join; the wait only covers stragglers that passed the gate
    /// before the entry landed.
    fn drain(&self, mut inner: MutexGuard<'_, Inner>, user: &str) -> Result<(), ServiceError> {
        let deadline = Instant::now() + DRAIN_WAIT;
        let slot = slot(user);
        while inner.in_flight.contains_key(&slot) {
            let timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                return Err(ServiceError::DeadlineExceeded {
                    deadline: DRAIN_WAIT,
                });
            }
            let (reacquired, result) = self.drained.wait_timeout(inner, timeout);
            inner = reacquired;
            if result.timed_out() && inner.in_flight.contains_key(&slot) {
                return Err(ServiceError::DeadlineExceeded {
                    deadline: DRAIN_WAIT,
                });
            }
        }
        Ok(())
    }

    /// Fence `user` at `epoch` (source side, cut-over). Idempotent for
    /// the same epoch; a newer epoch supersedes any older entry; an
    /// older epoch — or re-fencing a completed move — is refused.
    ///
    /// Returns only after every write that passed the gate before the
    /// fence landed has finished its append, so the drain export taken
    /// next reads a `last_lsn` that covers all acked writes.
    pub(crate) fn fence(&self, user: &str, epoch: u64) -> Result<(), ServiceError> {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.entries.get(user) {
            if epoch < e.epoch || (epoch == e.epoch && e.phase == MigrationPhase::Moved) {
                return Err(ServiceError::StaleMigration { current: e.epoch });
            }
        }
        inner.entries.insert(
            user.to_string(),
            MigrationEntry {
                epoch,
                phase: MigrationPhase::Fenced,
            },
        );
        self.drain(inner, user)
    }

    /// Begin (or idempotently restart) an import of `user` at `epoch`
    /// with the snapshot's cut LSN as the starting watermark. Like
    /// [`Self::fence`], waits for straggler writes that passed the
    /// gate before the entry landed, so the import's reset cannot
    /// delete a write acked after it.
    pub(crate) fn begin_import(
        &self,
        user: &str,
        epoch: u64,
        src_lsn: u64,
    ) -> Result<(), ServiceError> {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.entries.get(user) {
            if epoch < e.epoch {
                return Err(ServiceError::StaleMigration { current: e.epoch });
            }
        }
        inner.entries.insert(
            user.to_string(),
            MigrationEntry {
                epoch,
                phase: MigrationPhase::Importing { watermark: src_lsn },
            },
        );
        self.drain(inner, user)
    }

    /// The current import watermark for `user`, verifying the entry is
    /// an import owned by `epoch`.
    pub(crate) fn import_watermark(&self, user: &str, epoch: u64) -> Result<u64, ServiceError> {
        match self.inner.lock().entries.get(user) {
            Some(e) if e.epoch == epoch => match e.phase {
                MigrationPhase::Importing { watermark } => Ok(watermark),
                _ => Err(ServiceError::StaleMigration { current: e.epoch }),
            },
            Some(e) => Err(ServiceError::StaleMigration { current: e.epoch }),
            None => Err(ServiceError::StaleMigration { current: 0 }),
        }
    }

    /// Advance the import watermark (monotone).
    pub(crate) fn advance_watermark(&self, user: &str, epoch: u64, through: u64) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.entries.get_mut(user) {
            if e.epoch == epoch {
                if let MigrationPhase::Importing { watermark } = &mut e.phase {
                    *watermark = (*watermark).max(through);
                }
            }
        }
    }

    /// The phase of `user`'s entry, verifying `epoch` owns it.
    pub(crate) fn phase_of(&self, user: &str, epoch: u64) -> Result<MigrationPhase, ServiceError> {
        match self.inner.lock().entries.get(user) {
            Some(e) if e.epoch == epoch => Ok(e.phase),
            Some(e) => Err(ServiceError::StaleMigration { current: e.epoch }),
            None => Err(ServiceError::StaleMigration { current: 0 }),
        }
    }

    /// Whether `epoch` owns an import entry for `user` (abort uses
    /// this to drop the partial copy *before* releasing the entry, so
    /// no client write can slip in and then be deleted).
    pub(crate) fn is_import(&self, user: &str, epoch: u64) -> bool {
        matches!(
            self.inner.lock().entries.get(user),
            Some(e) if e.epoch == epoch && matches!(e.phase, MigrationPhase::Importing { .. })
        )
    }

    /// Activate `user` on the destination: drop the import entry so
    /// client writes flow. Idempotent — a missing entry means a retry
    /// of an activation that already landed.
    pub(crate) fn activate(&self, user: &str, epoch: u64) -> Result<(), ServiceError> {
        let mut inner = self.inner.lock();
        match inner.entries.get(user) {
            None => Ok(()),
            Some(e) if e.epoch == epoch => {
                inner.entries.remove(user);
                Ok(())
            }
            Some(e) => Err(ServiceError::StaleMigration { current: e.epoch }),
        }
    }

    /// Mark the source side done: the entry (which must be this
    /// epoch's fence) becomes a `Moved` tombstone. The caller removes
    /// the user's data *before* flipping the phase, while the fence
    /// still blocks client writes. Idempotent on retry.
    pub(crate) fn finish(&self, user: &str, epoch: u64) -> Result<bool, ServiceError> {
        let mut inner = self.inner.lock();
        match inner.entries.get_mut(user) {
            Some(e) if e.epoch == epoch && e.phase == MigrationPhase::Fenced => {
                e.phase = MigrationPhase::Moved;
                Ok(true)
            }
            Some(e) if e.epoch == epoch && e.phase == MigrationPhase::Moved => Ok(false),
            Some(e) => Err(ServiceError::StaleMigration { current: e.epoch }),
            None => Err(ServiceError::StaleMigration { current: 0 }),
        }
    }

    /// Abort this epoch's migration on either side. Returns whether an
    /// import entry was dropped (the caller then removes the partial
    /// user). A newer entry, a completed move, or no entry at all make
    /// this a no-op — abort is best-effort cleanup and never touches
    /// state it does not own.
    pub(crate) fn abort(&self, user: &str, epoch: u64) -> bool {
        let mut inner = self.inner.lock();
        match inner.entries.get(user) {
            Some(e) if e.epoch == epoch => match e.phase {
                MigrationPhase::Fenced => {
                    inner.entries.remove(user);
                    false
                }
                MigrationPhase::Importing { .. } => {
                    inner.entries.remove(user);
                    true
                }
                MigrationPhase::Moved => false,
            },
            _ => false,
        }
    }

    /// Number of live entries (fences, imports, and tombstones).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Snapshot of the table for status rendering.
    pub(crate) fn snapshot(&self) -> Vec<(String, MigrationEntry)> {
        let mut v: Vec<_> = self
            .inner
            .lock()
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), *e))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

/// What a router needs to know about one serving endpoint: whether the
/// cluster behind it currently has a primary, its replication epoch,
/// and how much per-user state it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteInfo {
    /// Whether a primary is currently serving writes (always `true`
    /// for an unreplicated service).
    pub has_primary: bool,
    /// The replication epoch (0 for an unreplicated service).
    pub epoch: u64,
    /// Users held by this side's serving core.
    pub users: u64,
    /// Live migration entries (fences, imports, tombstones).
    pub migrations: u64,
}

/// A consistent per-user export used by the migration driver: the
/// cut's coordinates plus a digest of the profile at the cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserExport {
    /// Whether the user exists on this side.
    pub present: bool,
    /// The user's WAL shard (== core stripe).
    pub shard: u64,
    /// The shard's last applied LSN at the cut.
    pub last_lsn: u64,
    /// Digest of the profile at the cut — the frame checksum over its
    /// snapshot-op bytes (`ctxpref_replication::user_digest`; 0 when
    /// absent).
    pub digest: u64,
}

impl CtxPrefService {
    /// A consistent per-user export for the migration driver: whether
    /// the user exists, their WAL shard, the shard's last applied LSN
    /// at the cut, and a digest of the profile at the cut. Taken
    /// under the user's shard mutex, so the digest and the LSN agree
    /// exactly. Requires durability (migration replays the WAL).
    pub fn migrate_export(&self, user: &str) -> Result<UserExport, ServiceError> {
        let d = self.durable_db()?;
        let cut = d.user_cut(user);
        let digest = cut
            .profile
            .as_ref()
            .map(|p| ctxpref_replication::user_digest(user, p))
            .unwrap_or(0);
        Ok(UserExport {
            present: cut.profile.is_some(),
            shard: cut.shard as u64,
            last_lsn: cut.last_lsn,
            digest,
        })
    }

    /// Snapshot one user for migration: a consistent cut's LSN plus
    /// the WAL-op payloads (`add` + one `ins` per preference) that
    /// reconstruct the profile on the destination. The WAL suffix of
    /// the user's shard strictly after the returned LSN is exactly
    /// what the snapshot misses.
    pub fn migrate_snapshot(&self, user: &str) -> Result<(u64, Vec<Vec<u8>>), ServiceError> {
        let d = self.durable_db()?;
        let cut = d.user_cut(user);
        let profile = cut
            .profile
            .ok_or_else(|| ServiceError::Core(CoreError::NoSuchUser(user.to_string())))?;
        let ops = ctxpref_wal::snapshot::snapshot_ops(user, &profile);
        Ok((cut.last_lsn, ops))
    }

    /// One page of the user's WAL suffix for migration catch-up:
    /// records of the user's shard with LSN ≥ `from_lsn`, filtered to
    /// the migrating user, plus the highest LSN scanned. `Ok(None)`
    /// means the suffix was garbage-collected into a checkpoint — the
    /// driver must restart from a fresh snapshot. Because replicas
    /// mirror the primary's per-shard LSN sequence, the cursor stays
    /// valid across a failover of this cluster.
    pub fn migrate_pull(
        &self,
        user: &str,
        from_lsn: u64,
        max: usize,
    ) -> Result<Option<ctxpref_replication::UserSuffix>, ServiceError> {
        let d = self.durable_db()?;
        let shard = d.db().shard_of(user);
        ctxpref_replication::user_suffix(&d, user, shard, from_lsn, max).map_err(ServiceError::from)
    }

    /// Fence `user` for cut-over at routing epoch `epoch`: client
    /// writes for that one user are refused with the typed, retry-able
    /// [`ServiceError::Migrating`] until the migration finishes or
    /// aborts. Reads keep serving. Idempotent per epoch; an older
    /// epoch is refused with [`ServiceError::StaleMigration`].
    pub fn migrate_fence(&self, user: &str, epoch: u64) -> Result<(), ServiceError> {
        self.migrations.fence(user, epoch)
    }

    /// Remove whatever copy of `user` this side holds, through the
    /// write path but past the fence (the caller's entry already blocks
    /// client writes). A user that is not here is not an error.
    fn drop_user(&self, user: &str) -> Result<(), ServiceError> {
        match self.write(WalOpRef::RemoveUser { user }) {
            Ok(_) | Err(ServiceError::Core(_)) => Ok(()),
            Err(other) => Err(other),
        }
    }

    /// Destination side: begin importing `user` at `epoch`. Drops any
    /// existing copy of the user (a previous attempt's partial state),
    /// applies the snapshot ops through the normal write path, and
    /// sets the catch-up watermark to the snapshot's cut LSN. Client
    /// writes for the user are refused until [`Self::migrate_activate`].
    pub fn migrate_import(
        &self,
        user: &str,
        epoch: u64,
        src_lsn: u64,
        ops: &[Vec<u8>],
    ) -> Result<(), ServiceError> {
        self.migrations.begin_import(user, epoch, src_lsn)?;
        // Reset: a partial previous attempt may have left the user
        // behind. The import entry already blocks client writes, so
        // nothing acked can be deleted here.
        self.drop_user(user)?;
        let core = self.core();
        for payload in ops {
            let op = WalOp::decode(payload, core.env(), core.relation())?;
            self.write(op)?;
        }
        Ok(())
    }

    /// Destination side: apply one page of catch-up records. Records
    /// at or below the import watermark are dropped (a retried page —
    /// the ops themselves are not idempotent, the watermark makes the
    /// page so); the watermark then advances to `through`. Returns the
    /// new watermark.
    pub fn migrate_apply(
        &self,
        user: &str,
        epoch: u64,
        through: u64,
        records: &[(u64, Vec<u8>)],
    ) -> Result<u64, ServiceError> {
        let mut watermark = self.migrations.import_watermark(user, epoch)?;
        let core = self.core();
        for (lsn, payload) in records {
            if *lsn <= watermark {
                continue;
            }
            let op = WalOp::decode(payload, core.env(), core.relation())?;
            if op.user() != user {
                // The source filters by user; anything else is damage.
                return Err(ServiceError::Wal(ctxpref_wal::WalError::Payload {
                    reason: format!("catch-up record for {:?} during {user:?}", op.user()),
                }));
            }
            self.write(op)?;
            watermark = *lsn;
            self.migrations.advance_watermark(user, epoch, watermark);
        }
        if through > watermark {
            watermark = through;
            self.migrations.advance_watermark(user, epoch, watermark);
        }
        Ok(watermark)
    }

    /// Destination side: the routing table flipped — drop the import
    /// entry so client writes for `user` flow here. Idempotent.
    pub fn migrate_activate(&self, user: &str, epoch: u64) -> Result<(), ServiceError> {
        self.migrations.activate(user, epoch)
    }

    /// Source side: the cut-over completed — remove the user's data
    /// (still under the fence, so no write can fork it) and leave a
    /// `Moved` tombstone telling stale clients to refresh their
    /// routing. Idempotent per epoch.
    pub fn migrate_finish(&self, user: &str, epoch: u64) -> Result<(), ServiceError> {
        match self.migrations.phase_of(user, epoch)? {
            MigrationPhase::Moved => return Ok(()),
            MigrationPhase::Fenced => {}
            MigrationPhase::Importing { .. } => {
                return Err(ServiceError::StaleMigration { current: epoch })
            }
        }
        self.drop_user(user)?;
        self.migrations.finish(user, epoch).map(|_| ())
    }

    /// Abort `epoch`'s migration of `user` on this side: a source
    /// fence lifts (writes flow again), a destination import drops the
    /// partial copy. A newer migration's entry, a completed move, or
    /// no entry at all make this a no-op — abort never touches state
    /// it does not own.
    pub fn migrate_abort(&self, user: &str, epoch: u64) -> Result<(), ServiceError> {
        if self.migrations.is_import(user, epoch) {
            // Drop the partial copy while the entry still blocks
            // client writes, so nothing acked can slip in and then be
            // deleted with it.
            self.drop_user(user)?;
        }
        self.migrations.abort(user, epoch);
        Ok(())
    }

    /// The migration table: every live fence, import, and tombstone.
    pub fn migration_entries(&self) -> Vec<(String, MigrationEntry)> {
        self.migrations.snapshot()
    }

    /// What a router needs from one probe: whether a primary serves
    /// writes, the replication epoch, and how much state lives here.
    pub fn route_info(&self) -> RouteInfo {
        let (has_primary, epoch) = match self.cluster() {
            Some(c) => {
                let s = c.status();
                (s.primary.is_some(), s.epoch)
            }
            None => (true, 0),
        };
        RouteInfo {
            has_primary,
            epoch,
            users: self.core().user_count() as u64,
            migrations: self.migrations.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn fence_waits_for_in_flight_writes_to_drain() {
        // A write that passed the gate before the fence landed must
        // finish its append before the fence returns — otherwise the
        // drain export could read a last_lsn that misses an acked
        // straggler.
        let table = Arc::new(MigrationTable::default());
        let guard = table.write_guard("ann").unwrap();
        let fencer = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                table.fence("ann", 1).unwrap();
                Instant::now()
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        let released = Instant::now();
        drop(guard);
        let fenced = fencer.join().unwrap();
        assert!(
            fenced >= released,
            "fence returned while a write was still in flight"
        );
        // The fence now refuses new writes with the typed error.
        assert!(matches!(
            table.write_guard("ann"),
            Err(ServiceError::Migrating { .. })
        ));
        // Other users are untouched.
        drop(table.write_guard("bob").unwrap());
    }

    #[test]
    fn fence_with_no_writers_returns_immediately() {
        let table = MigrationTable::default();
        drop(table.write_guard("ann").unwrap());
        let start = Instant::now();
        table.fence("ann", 1).unwrap();
        assert!(start.elapsed() < DRAIN_WAIT / 2, "fence waited for nobody");
    }

    #[test]
    fn begin_import_waits_for_stragglers_too() {
        // The import's reset deletes the user's copy; a straggler write
        // acked after the reset would be silently destroyed, so the
        // import entry drains in-flight writes exactly like a fence.
        let table = Arc::new(MigrationTable::default());
        let guard = table.write_guard("ann").unwrap();
        let importer = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                table.begin_import("ann", 1, 7).unwrap();
                Instant::now()
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        let released = Instant::now();
        drop(guard);
        let imported = importer.join().unwrap();
        assert!(
            imported >= released,
            "import began while a write was still in flight"
        );
        assert_eq!(table.import_watermark("ann", 1).unwrap(), 7);
    }

    #[test]
    fn concurrent_guards_for_one_user_all_drain() {
        let table = Arc::new(MigrationTable::default());
        let g1 = table.write_guard("ann").unwrap();
        let g2 = table.write_guard("ann").unwrap();
        let fencer = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                table.fence("ann", 1).unwrap();
                Instant::now()
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        drop(g1);
        std::thread::sleep(Duration::from_millis(30));
        let released = Instant::now();
        drop(g2);
        let fenced = fencer.join().unwrap();
        assert!(
            fenced >= released,
            "fence returned with a second write still in flight"
        );
    }
}
