//! The live-migration driver: move one user between clusters without
//! dropping an acked write.
//!
//! The driver runs inside the router and speaks the `migrate` wire
//! verbs to both sides. The phases, and what each guarantees:
//!
//! 1. **Copying** — a consistent snapshot of the user (profile
//!    rendered as WAL-op payloads, plus the source shard's LSN at the
//!    cut) is imported on the destination. Writes keep flowing on the
//!    source the whole time.
//! 2. **Catch-up** — the source's WAL suffix after the cut, filtered
//!    to the user, is pulled page by page and replayed on the
//!    destination. The destination's import watermark (highest source
//!    LSN applied) makes every page idempotent, so pages can be
//!    retried blindly over fresh connections. A `gone` answer (the
//!    suffix was checkpointed away) restarts from a fresh snapshot.
//! 3. **Cut-over** — the source **fences** the user: writes for that
//!    one user get the typed, retry-able `migrating` refusal (never a
//!    hang, and crucially *pre-apply*, so a refused write was never
//!    acked). The driver drains the remaining suffix up to the fenced
//!    LSN, verifies the **digest** of both sides' profiles match,
//!    flips the routing table, activates the destination, and only
//!    then tells the source to drop its copy (leaving a `moved`
//!    tombstone for stale clients). The flip commits *before* the
//!    activation so a deposed driver (flip refused) has never made
//!    its destination writable — its partial copy dies under the
//!    import entry that still blocks client writes.
//!
//! Why no acked write can be lost: a write acked before the fence is
//! either in the snapshot (≤ cut LSN) or in the WAL suffix the drain
//! replays (> cut LSN — the fence freezes the user's suffix, so the
//! drain's end is a fixed point); a write after the fence was refused
//! pre-apply and retried by the router against the destination after
//! the flip. Why no write is duplicated: pages replay under the
//! watermark, and the destination applies through its own write path
//! exactly once.
//!
//! Every step carries the **routing epoch** minted for the migration;
//! the serving side refuses older epochs, so a deposed driver (one
//! that stalled while a newer migration of the same user ran) can
//! never fence, import, or apply stale state. Any pre-flip failure
//! aborts: both sides drop their migration entries, the destination
//! deletes its partial copy (while its import entry still blocks
//! client writes), and the routing table never flips.

use std::time::Duration;

use ctxpref_faults::sites::{ROUTER_MIGRATE_CATCHUP, ROUTER_MIGRATE_COPY, ROUTER_MIGRATE_CUTOVER};
use ctxpref_faults::{clock, hit};
use ctxpref_net::{MigrateAction, Request, Response};

use crate::error::RouterError;
use crate::router::Router;

/// Catch-up page size (records per pull).
const PAGE: u64 = 64;
/// Pre-fence catch-up rounds before cutting over regardless of lag
/// (the fence drain closes whatever gap remains).
const CATCHUP_ROUNDS: usize = 16;
/// Snapshot restarts tolerated when the WAL suffix is checkpointed
/// away mid-catch-up.
const MAX_RESTARTS: u32 = 3;
/// Attempts per individual migration step (absorbs `not-primary`
/// windows during a source/destination failover and transport blips).
const STEP_ATTEMPTS: u32 = 60;
/// Backoff between step attempts.
const STEP_BACKOFF: Duration = Duration::from_millis(25);

/// What a completed (or skipped) migration did.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The migrated user.
    pub user: String,
    /// Source cluster.
    pub from: usize,
    /// Destination cluster.
    pub to: usize,
    /// The routing epoch the migration committed under (the table's
    /// current epoch for a skipped move).
    pub epoch: u64,
    /// Whether anything moved (`false` when source == destination).
    pub moved: bool,
    /// How long the user's writes were fenced at cut-over.
    pub fence: Duration,
    /// Catch-up pages replayed (pre-fence and drain).
    pub pages: u64,
    /// Snapshot restarts after the WAL suffix was checkpointed away.
    pub restarts: u32,
}

impl Router {
    /// One migration step against `cluster`, retried (the verbs are
    /// idempotent: epoch- and watermark-guarded) through `not-primary`
    /// windows and transient transport failures.
    fn migrate_step(
        &mut self,
        cluster: usize,
        user: &str,
        epoch: u64,
        action: &MigrateAction,
        step: &'static str,
    ) -> Result<Response, RouterError> {
        let req = Request::MigrateUser {
            user: user.to_string(),
            epoch,
            action: action.clone(),
        };
        let mut last = String::new();
        for attempt in 1..=STEP_ATTEMPTS {
            match self.call_cluster(cluster, &req) {
                Ok(Response::NotPrimary) => last = "not-primary".to_string(),
                Ok(resp) => return Ok(resp),
                // The serving side refused with a decision (stale
                // epoch, missing user, not durable): retrying cannot
                // change it.
                Err(e @ RouterError::Remote { .. }) => return Err(e),
                Err(
                    e @ (RouterError::ClusterUnavailable { .. } | RouterError::CircuitOpen { .. }),
                ) => {
                    last = e.to_string();
                }
                Err(e) => return Err(e),
            }
            if attempt < STEP_ATTEMPTS {
                clock::sleep(STEP_BACKOFF * attempt.min(8));
            }
        }
        Err(RouterError::Migration {
            step,
            reason: format!("step exhausted {STEP_ATTEMPTS} attempts (last: {last})"),
        })
    }

    /// Move `user` to cluster `dest` live: snapshot + catch-up while
    /// writes flow, a brief per-user fence at cut-over, digest
    /// verification, then the routing flip. On any pre-flip failure
    /// the migration aborts cleanly on both sides and the error comes
    /// back; ownership never changes on an aborted move.
    pub fn migrate_user(
        &mut self,
        user: &str,
        dest: usize,
    ) -> Result<MigrationReport, RouterError> {
        assert!(dest < self.clusters(), "destination cluster out of range");
        let from = self.cluster_of(user);
        if from == dest {
            return Ok(MigrationReport {
                user: user.to_string(),
                from,
                to: dest,
                epoch: self.epoch(),
                moved: false,
                fence: Duration::ZERO,
                pages: 0,
                restarts: 0,
            });
        }
        let epoch = self.table().lock().mint_epoch();
        let mut report = MigrationReport {
            user: user.to_string(),
            from,
            to: dest,
            epoch,
            moved: true,
            fence: Duration::ZERO,
            pages: 0,
            restarts: 0,
        };
        match self.drive(user, from, dest, epoch, &mut report) {
            Ok(()) => Ok(report),
            Err(e) => {
                // Roll back: lift the fence (if placed), drop the
                // destination's partial copy. Best-effort — the
                // epoch guard means a newer migration is never
                // touched, and entries this abort cannot reach keep
                // blocking writes (safe, just not clean) until a
                // retry or a newer migration supersedes them.
                let _ = self.migrate_step(from, user, epoch, &MigrateAction::Abort, "abort");
                let _ = self.migrate_step(dest, user, epoch, &MigrateAction::Abort, "abort");
                Err(e)
            }
        }
    }

    fn drive(
        &mut self,
        user: &str,
        from: usize,
        dest: usize,
        epoch: u64,
        report: &mut MigrationReport,
    ) -> Result<(), RouterError> {
        let fail = |step: &'static str, reason: String| RouterError::Migration { step, reason };

        'restart: loop {
            // ---- Copying: consistent snapshot → destination import.
            hit(ROUTER_MIGRATE_COPY).map_err(|e| fail("copy", e.to_string()))?;
            let (src_lsn, ops) =
                match self.migrate_step(from, user, epoch, &MigrateAction::Snapshot, "snapshot")? {
                    Response::Snapshot { src_lsn, ops } => (src_lsn, ops),
                    other => return Err(fail("snapshot", format!("unexpected reply {other:?}"))),
                };
            match self.migrate_step(
                dest,
                user,
                epoch,
                &MigrateAction::Import {
                    src_lsn,
                    ops: ops.clone(),
                },
                "import",
            )? {
                Response::Ok => {}
                other => return Err(fail("import", format!("unexpected reply {other:?}"))),
            }

            // ---- Catch-up: replay the live WAL suffix page by page.
            let mut cursor = src_lsn + 1;
            for _ in 0..CATCHUP_ROUNDS {
                hit(ROUTER_MIGRATE_CATCHUP).map_err(|e| fail("catch-up", e.to_string()))?;
                let target =
                    match self.migrate_step(from, user, epoch, &MigrateAction::Export, "export")? {
                        Response::UserCut { last_lsn, .. } => last_lsn,
                        other => return Err(fail("export", format!("unexpected reply {other:?}"))),
                    };
                if cursor > target {
                    break;
                }
                match self.pull_apply(user, from, dest, epoch, &mut cursor, target, report)? {
                    PullOutcome::Caught => {}
                    PullOutcome::Gone => {
                        report.restarts += 1;
                        if report.restarts > MAX_RESTARTS {
                            return Err(fail(
                                "catch-up",
                                format!("WAL suffix checkpointed away {MAX_RESTARTS} times"),
                            ));
                        }
                        continue 'restart;
                    }
                }
            }

            // ---- Cut-over: fence, drain to the fenced LSN, verify,
            // flip.
            hit(ROUTER_MIGRATE_CUTOVER).map_err(|e| fail("cut-over", e.to_string()))?;
            match self.migrate_step(from, user, epoch, &MigrateAction::Fence, "fence")? {
                Response::Ok => {}
                other => return Err(fail("fence", format!("unexpected reply {other:?}"))),
            }
            let fence_start = clock::now();

            // The fence froze the user's suffix: records for this user
            // past the fenced shard LSN cannot exist, so the drain's
            // end is a fixed point, not a chase.
            let (fenced_lsn, src_digest) =
                match self.migrate_step(from, user, epoch, &MigrateAction::Export, "drain")? {
                    Response::UserCut {
                        last_lsn, digest, ..
                    } => (last_lsn, digest),
                    other => return Err(fail("drain", format!("unexpected reply {other:?}"))),
                };
            if cursor <= fenced_lsn {
                match self.pull_apply(user, from, dest, epoch, &mut cursor, fenced_lsn, report)? {
                    PullOutcome::Caught => {}
                    PullOutcome::Gone => {
                        // Checkpointed away mid-drain: abort (the
                        // caller lifts the fence) rather than holding
                        // the fence across a full re-copy.
                        return Err(fail(
                            "drain",
                            "WAL suffix checkpointed away under the fence".to_string(),
                        ));
                    }
                }
            }

            // Digest check: both sides must hold the same profile
            // before ownership moves.
            let dst_digest =
                match self.migrate_step(dest, user, epoch, &MigrateAction::Export, "verify")? {
                    Response::UserCut { digest, .. } => digest,
                    other => return Err(fail("verify", format!("unexpected reply {other:?}"))),
                };
            if src_digest != dst_digest {
                return Err(fail(
                    "verify",
                    format!(
                        "digest mismatch after drain: source {src_digest:#x} vs \
                         destination {dst_digest:#x}"
                    ),
                ));
            }

            // Flip the routing table first, then activate the
            // destination. Commit-before-activate means a deposed
            // driver (its commit refused because a newer migration
            // owns the user) has never unblocked its destination: the
            // import entry is still in place, so the caller's abort
            // removes the partial copy and no writable stale replica
            // of the user can survive deposal. Between the flip and
            // the activation the user's writes land on the destination
            // and get the typed retry-able `migrating` refusal; the
            // router's forward loop re-resolves and retries, so the
            // window stays bounded by one activation round-trip.
            if !self.table().lock().commit(user, dest, epoch) {
                // A newer migration owns the user: this driver is
                // deposed. Its destination copy is aborted by the
                // caller; the newer epoch's entries are untouchable.
                return Err(fail(
                    "commit",
                    "routing table refused the flip (newer migration owns the user)".to_string(),
                ));
            }

            // Ownership has moved: from here on nothing may abort (an
            // abort would delete the destination's — now authoritative
            // — copy). Activation and the source's cleanup are
            // idempotent and epoch-guarded; a failure leaves an entry
            // that keeps refusing that one user's writes with the
            // retry-able `migrating` reply (safe, just not clean)
            // until a later migration supersedes it.
            let _ = self.migrate_step(dest, user, epoch, &MigrateAction::Activate, "activate");
            report.fence = clock::elapsed(fence_start);

            // The source drops its copy under the fence and leaves a
            // tombstone telling stale clients to refresh.
            let _ = self.migrate_step(from, user, epoch, &MigrateAction::Finish, "finish");
            return Ok(());
        }
    }

    /// Pull-and-apply pages until `cursor` passes `target`. Advances
    /// `cursor` past every scanned record; applies under the
    /// destination's watermark (idempotent on retry).
    #[allow(clippy::too_many_arguments)]
    fn pull_apply(
        &mut self,
        user: &str,
        from: usize,
        dest: usize,
        epoch: u64,
        cursor: &mut u64,
        target: u64,
        report: &mut MigrationReport,
    ) -> Result<PullOutcome, RouterError> {
        let fail = |step: &'static str, reason: String| RouterError::Migration { step, reason };
        while *cursor <= target {
            let (through, records) = match self.migrate_step(
                from,
                user,
                epoch,
                &MigrateAction::Pull {
                    from_lsn: *cursor,
                    max: PAGE,
                },
                "pull",
            )? {
                Response::Records { through, records } => (through, records),
                Response::Gone => return Ok(PullOutcome::Gone),
                other => return Err(fail("pull", format!("unexpected reply {other:?}"))),
            };
            match self.migrate_step(
                dest,
                user,
                epoch,
                &MigrateAction::Apply { through, records },
                "apply",
            )? {
                Response::Applied { .. } => {}
                other => return Err(fail("apply", format!("unexpected reply {other:?}"))),
            }
            report.pages += 1;
            if through < *cursor {
                // Nothing at or past the cursor yet (suffix fully
                // consumed): the caller's export decides whether the
                // target moved.
                break;
            }
            *cursor = through + 1;
        }
        Ok(PullOutcome::Caught)
    }
}

enum PullOutcome {
    Caught,
    Gone,
}
