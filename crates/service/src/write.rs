//! The write path: how a mutation reaches the serving core, and the
//! background upkeep of whichever log that path owns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use ctxpref_core::{preference_from_parts, CoreError, ShardedMultiUserDb};
use ctxpref_profile::{ContextualPreference, Profile};
use ctxpref_relation::CompareOp;
use ctxpref_replication::{Cluster, ClusterStatus, NodeId, ReplicationError, RoleHook, TickReport};
use ctxpref_wal::{
    CheckpointReport, Displaced, DurableDb, ScrubReport, SyncPolicy, WalOp, WalStatus,
};

use parking_lot::RwLock;

use crate::config::DurabilityConfig;
use crate::error::ServiceError;
use crate::service::CtxPrefService;
use crate::stats::Counters;

/// How a mutation reaches the serving core — chosen once, by the
/// constructor, and never changed. [`CtxPrefService::write`] is the
/// only code that acts on the choice, apart from the preference edits
/// that never wait, which run on the direct and logged paths
/// (`CtxPrefService::apply`); everything else that looks at it is
/// inspection (stats, scrub, status).
#[derive(Clone)]
pub(crate) enum WritePath {
    /// Applied straight to the in-memory core ([`CtxPrefService::new`]).
    Direct,
    /// Appended to the write-ahead log, then applied
    /// ([`CtxPrefService::new_durable`], [`CtxPrefService::recover`]).
    Logged(Arc<DurableDb>),
    /// Logged and applied by the cluster's current primary, then
    /// shipped to its replicas ([`CtxPrefService::new_replicated`]).
    Replicated(Arc<Cluster>),
}

impl WritePath {
    /// The durable databases this path's writes land in, each resolved
    /// only when the iteration reaches it: the logged service's one, or
    /// every live node of the cluster through [`Cluster::db_of`] (a
    /// crashed node is skipped; its recovery covers it at restart).
    /// Callers hold each handle for one job at a time and keep none, so
    /// a crashed node's old [`DurableDb`] never holds its directory
    /// `LOCK` against [`Cluster::restart_node`], which retries only
    /// briefly.
    pub(crate) fn durables(&self) -> impl Iterator<Item = Arc<DurableDb>> + '_ {
        let (logged, cluster) = match self {
            WritePath::Direct => (None, None),
            WritePath::Logged(durable) => (Some(Arc::clone(durable)), None),
            WritePath::Replicated(cluster) => (None, Some(cluster)),
        };
        let nodes = cluster
            .into_iter()
            .flat_map(|c| (0..c.config().nodes).filter_map(|id| c.db_of(id)));
        logged.into_iter().chain(nodes)
    }
}

/// One client edit of one user's preferences, in the textual form a
/// wire request carries: the paper's insert, re-score and delete
/// (§5.1). An insert's value stays text until the edit is known to
/// run, and is then typed by its attribute's schema type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edit<'a> {
    /// Insert the equality preference `descriptor :: attr = value` at
    /// `score`.
    Insert {
        /// The context descriptor, in the CLI's textual syntax.
        descriptor: &'a str,
        /// The attribute the preference constrains.
        attr: &'a str,
        /// The value it must equal.
        value: &'a str,
        /// The preference's score.
        score: f64,
    },
    /// Re-score the preference at `index`.
    Rescore {
        /// The preference's position in the profile.
        index: usize,
        /// Its new score.
        score: f64,
    },
    /// Remove the preference at `index`.
    Remove {
        /// The preference's position in the profile.
        index: usize,
    },
}

impl Edit<'_> {
    /// The op that applies this edit to `user`, validated against the
    /// serving core. An insert's value is refused typed when it spells
    /// no value of its attribute's type.
    fn op(self, core: &ShardedMultiUserDb, user: &str) -> Result<WalOp, ServiceError> {
        let user = user.to_string();
        Ok(match self {
            Edit::Insert {
                descriptor,
                attr,
                value,
                score,
            } => {
                let value = (core.relation().schema())
                    .parse_value(attr, value)
                    .map_err(CoreError::from)?;
                return insert_op(core, user, descriptor, attr, value, score);
            }
            Edit::Rescore { index, score } => WalOp::UpdateScore { user, index, score },
            Edit::Remove { index } => WalOp::RemovePreference { user, index },
        })
    }
}

/// How a client preference edit takes its user's stripe lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Take {
    /// Wait for it, on whichever write path the service has.
    Wait,
    /// Never wait: apply on the direct path if the stripe is free this
    /// instant, on the logged path if `DurableDb::try_apply` takes it.
    IfFree,
}

/// The insert of an equality preference from its textual parts,
/// validated against the live environment and schema. The value is
/// built before the write so that it can be logged before it is
/// applied.
fn insert_op(
    core: &ShardedMultiUserDb,
    user: String,
    descriptor: &str,
    attr: &str,
    value: ctxpref_relation::Value,
    score: f64,
) -> Result<WalOp, ServiceError> {
    let pref = preference_from_parts(
        core.env(),
        core.relation(),
        descriptor,
        attr,
        CompareOp::Eq,
        value,
        score,
    )?;
    Ok(WalOp::InsertPreference { user, pref })
}

/// What an applied edit took out: the preference a removal displaced,
/// `None` for an insert or a re-score.
fn removed(displaced: Displaced) -> Option<ContextualPreference> {
    match displaced {
        Displaced::Preference(pref) => Some(pref),
        _ => None,
    }
}

/// Fold one scrub pass's outcome into the service counters.
pub(crate) fn record_scrub(counters: &Counters, report: &ScrubReport) {
    counters.scrub_passes.fetch_add(1, Ordering::Relaxed);
    counters
        .scrub_quarantined
        .fetch_add(report.quarantined.len() as u64, Ordering::Relaxed);
    counters
        .scrub_read_errors
        .fetch_add(report.read_errors, Ordering::Relaxed);
    if report.healed {
        counters.scrub_heals.fetch_add(1, Ordering::Relaxed);
    }
}

/// Re-point the serving slot at the cluster's current local node. A
/// crash + restart of node 0 recovers into a *new* core instance;
/// without this, reads would keep serving the orphaned pre-crash one
/// forever. Called on every control-plane beat, manual and background.
/// Pointer identity decides — content equality is irrelevant, the slot
/// must track the cluster's live object.
fn follow_local_node(slot: &RwLock<Arc<ShardedMultiUserDb>>, cluster: &Cluster) {
    let Some(local) = cluster.db_of(0) else {
        return;
    };
    if !Arc::ptr_eq(&slot.read(), local.db()) {
        *slot.write() = Arc::clone(local.db());
    }
}

/// The self-healing storage counters, as reported by
/// [`CtxPrefService::scrub_status`] (and the `scrub-status` wire verb):
/// what scrubbing has found and done since the service started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStatus {
    /// Scrub passes completed (manual and background).
    pub passes: u64,
    /// Files quarantined (corrupt sealed segments or checkpoints).
    pub quarantined: u64,
    /// Files skipped on a transient read error (retried next pass).
    pub read_errors: u64,
    /// Passes that healed damage with a fresh checkpoint.
    pub heals: u64,
    /// WAL shards recovery rescued via quarantine (the node restarted
    /// clean-but-behind; replication re-fetches the lost suffix).
    pub rescued_shards: u64,
    /// Appends shed with a typed retryable disk-full error.
    pub disk_full_sheds: u64,
    /// Size-triggered segment rotations that failed (retried later).
    pub rotate_failures: u64,
}

impl CtxPrefService {
    /// Send one operation down the write path, with **no** migration
    /// fence check (the client verbs below take the fence's write guard
    /// first; migration itself calls this directly to build and tear
    /// down per-user state while the fence holds). What comes back is
    /// what the op displaced, read by the same call that applied it —
    /// under the WAL shard mutex on the logged and replicated paths —
    /// so concurrent removals can never report the same value twice.
    pub(crate) fn write(&self, op: WalOp) -> Result<Displaced, ServiceError> {
        Ok(match &self.path {
            WritePath::Direct => op.apply(&self.core())?,
            WritePath::Logged(durable) => durable.apply(op)?.displaced,
            WritePath::Replicated(cluster) => cluster.write(op)?.displaced,
        })
    }

    /// Register a user with an empty profile. Like every mutation
    /// below it is one [`WalOp`] down the write path the service was
    /// built with: applied directly, logged first, or routed through
    /// the cluster's current primary honouring the configured ack mode.
    pub fn add_user(&self, name: &str) -> Result<(), ServiceError> {
        let _guard = self.migrations.write_guard(name)?;
        self.write(WalOp::AddUser {
            user: name.to_string(),
        })?;
        Ok(())
    }

    /// Register a user with an initial profile: the registration, then
    /// one insert per preference. A rejected preference aborts the
    /// remainder (the user stays registered with the accepted prefix,
    /// exactly as a log replay reconstructs it).
    pub fn add_user_with_profile(&self, name: &str, profile: Profile) -> Result<(), ServiceError> {
        let _guard = self.migrations.write_guard(name)?;
        self.write(WalOp::AddUser {
            user: name.to_string(),
        })?;
        for pref in profile.preferences() {
            self.write(WalOp::InsertPreference {
                user: name.to_string(),
                pref: pref.clone(),
            })?;
        }
        Ok(())
    }

    /// Remove a user, returning the profile the removal took out.
    pub fn remove_user(&self, name: &str) -> Result<Profile, ServiceError> {
        let _guard = self.migrations.write_guard(name)?;
        match self.write(WalOp::RemoveUser {
            user: name.to_string(),
        })? {
            Displaced::Profile(profile) => Ok(profile),
            other => unreachable!("a user removal displaced {other:?}"),
        }
    }

    /// Insert a preference for one user (write-locks only their shard).
    pub fn insert_preference(
        &self,
        user: &str,
        pref: ContextualPreference,
    ) -> Result<(), ServiceError> {
        let _guard = self.migrations.write_guard(user)?;
        self.write(WalOp::InsertPreference {
            user: user.to_string(),
            pref,
        })?;
        Ok(())
    }

    /// Insert an equality preference for one user from its textual
    /// parts.
    pub fn insert_preference_eq(
        &self,
        user: &str,
        descriptor: &str,
        attr: &str,
        value: ctxpref_relation::Value,
        score: f64,
    ) -> Result<(), ServiceError> {
        let insert = |core: &_| insert_op(core, user.to_string(), descriptor, attr, value, score);
        self.edit(Take::Wait, user, insert).map(drop)
    }

    /// Remove one user's preference by index, returning the preference
    /// the removal took out.
    pub fn remove_preference(
        &self,
        user: &str,
        index: usize,
    ) -> Result<ContextualPreference, ServiceError> {
        match self.edit(Take::Wait, user, |core| {
            Edit::Remove { index }.op(core, user)
        })? {
            Some(Displaced::Preference(pref)) => Ok(pref),
            other => unreachable!("a preference removal displaced {other:?}"),
        }
    }

    /// Update the score of one user's preference by index.
    pub fn update_preference_score(
        &self,
        user: &str,
        index: usize,
        score: f64,
    ) -> Result<(), ServiceError> {
        let rescore = |core: &_| Edit::Rescore { index, score }.op(core, user);
        self.edit(Take::Wait, user, rescore).map(drop)
    }

    /// Apply `edit` to `user` for a caller that must never wait or
    /// fsync — a front-end's reactor — answering as the blocking verbs
    /// would, with the preference a removal took out. `None` hands the
    /// edit back unapplied, to be run with [`Self::edit_batch`]: on a
    /// replicated service, under an installed fault plan (the edit runs
    /// where the fault sites are), while the user's stripe is read- or
    /// write-locked, and on a logged service also under per-record
    /// sync, while the user's WAL shard is held, or when the record
    /// would fill its segment ([`DurableDb::try_apply`]). Otherwise the
    /// edit is logged (on a logged service) and applied here, under the
    /// same migration guard as the blocking verbs.
    pub fn try_edit(
        &self,
        user: &str,
        edit: Edit<'_>,
    ) -> Option<Result<Option<ContextualPreference>, ServiceError>> {
        if self.is_replicated() || ctxpref_faults::current().is_some() {
            return None;
        }
        let edited = self.edit(Take::IfFree, user, |core| edit.op(core, user));
        edited.transpose().map(|done| done.map(removed))
    }

    /// Apply `edits` to `user` in order, waiting for locks, under one
    /// migration write guard: the entry behind the wire's edit
    /// requests, one alone or a batch frame's worth. Each applied
    /// edit's outcome (the preference a removal took out) goes to
    /// `applied` as it lands. The first failure stops the batch and is
    /// returned, so the calls `applied` received are the prefix that
    /// landed: a caller resumes after it instead of replaying (and
    /// double-applying) it.
    pub fn edit_batch<'e>(
        &self,
        user: &str,
        edits: impl IntoIterator<Item = Edit<'e>>,
        mut applied: impl FnMut(Option<ContextualPreference>),
    ) -> Result<(), ServiceError> {
        let _guard = self.migrations.write_guard(user)?;
        for edit in edits {
            let displaced = self.apply(Take::Wait, user, |core| edit.op(core, user))?;
            applied(displaced.and_then(removed));
        }
        Ok(())
    }

    /// A single client preference edit: [`Self::apply`] under the
    /// migration fence's write guard.
    fn edit(
        &self,
        take: Take,
        user: &str,
        make: impl FnOnce(&ShardedMultiUserDb) -> Result<WalOp, ServiceError>,
    ) -> Result<Option<Displaced>, ServiceError> {
        let _guard = self.migrations.write_guard(user)?;
        self.apply(take, user, make)
    }

    /// The one body of a client preference edit, blocking or not, run
    /// under the caller's migration guard: the op `make` builds against
    /// the serving core, and the write, taking the user's stripe as
    /// `take` says. `Ok(None)` means nothing was applied, which only
    /// [`Take::IfFree`] answers.
    fn apply(
        &self,
        take: Take,
        user: &str,
        make: impl FnOnce(&ShardedMultiUserDb) -> Result<WalOp, ServiceError>,
    ) -> Result<Option<Displaced>, ServiceError> {
        let core = self.core();
        let op = make(&core)?;
        Ok(Some(match (take, &self.path) {
            (Take::Wait, _) => self.write(op)?,
            (Take::IfFree, WritePath::Logged(durable)) => match durable.try_apply(op) {
                Some(ack) => ack?.displaced,
                None => return Ok(None),
            },
            (Take::IfFree, _) => match core.try_write_user_shard(user) {
                Some(mut stripe) => op.apply_to(&mut stripe)?,
                None => return Ok(None),
            },
        }))
    }

    /// Whether mutations are logged to a durable directory (every node
    /// of a replicated service is durable).
    pub fn is_durable(&self) -> bool {
        !matches!(self.path, WritePath::Direct)
    }

    /// Whether mutations replicate across a primary/replica cluster.
    pub fn is_replicated(&self) -> bool {
        matches!(self.path, WritePath::Replicated(_))
    }

    /// The replication cluster handle (partition scripting, manual
    /// crash/restart, direct status) — `None` without replication.
    pub fn cluster(&self) -> Option<&Arc<Cluster>> {
        match &self.path {
            WritePath::Replicated(cluster) => Some(cluster),
            _ => None,
        }
    }

    /// The durable database behind mutations: the attached one, or the
    /// cluster's current primary. The two absent cases are distinct: a
    /// purely in-memory service is [`ServiceError::NotDurable`]
    /// (permanent), while a replicated cluster with no elected primary
    /// is [`ReplicationError::NoPrimary`] — a transient, retryable
    /// condition that maps to `not-primary` on the wire.
    pub(crate) fn durable_db(&self) -> Result<Arc<DurableDb>, ServiceError> {
        match &self.path {
            WritePath::Direct => Err(ServiceError::NotDurable),
            WritePath::Logged(durable) => Ok(Arc::clone(durable)),
            WritePath::Replicated(cluster) => cluster
                .primary_db()
                .ok_or(ServiceError::Replication(ReplicationError::NoPrimary)),
        }
    }

    /// A point-in-time view of the cluster: roles, epochs, lag,
    /// promotion history.
    pub fn replication_status(&self) -> Result<ClusterStatus, ServiceError> {
        let c = self.cluster().ok_or(ServiceError::NotReplicated)?;
        Ok(c.status())
    }

    /// Manually promote node `id` to primary (majority-guarded, with
    /// pre-serve catch-up — see the replication crate). Returns the
    /// minted epoch.
    pub fn promote(&self, id: NodeId) -> Result<u64, ServiceError> {
        let c = self.cluster().ok_or(ServiceError::NotReplicated)?;
        Ok(c.promote(id)?)
    }

    /// One manual control-plane beat: ship pending records, probe the
    /// primary from every replica, fail over if it is declared dead.
    pub fn tick_replication(&self) -> Result<TickReport, ServiceError> {
        let c = self.cluster().ok_or(ServiceError::NotReplicated)?;
        let report = c.tick();
        follow_local_node(&self.db, c);
        Ok(report)
    }

    /// Ship every live replica as far as the primary's logs reach.
    pub fn pump_replication(&self) -> Result<bool, ServiceError> {
        let c = self.cluster().ok_or(ServiceError::NotReplicated)?;
        let shipped = c.pump()?;
        follow_local_node(&self.db, c);
        Ok(shipped)
    }

    /// Compare per-shard digests across the cluster and resync each
    /// divergent shard from the primary. Returns the resync count.
    pub fn anti_entropy(&self) -> Result<usize, ServiceError> {
        let c = self.cluster().ok_or(ServiceError::NotReplicated)?;
        let resynced = c.anti_entropy()?;
        follow_local_node(&self.db, c);
        Ok(resynced)
    }

    /// Install a hook fired when a node is promoted to primary.
    pub fn set_promotion_hook(&self, hook: RoleHook) -> Result<(), ServiceError> {
        let c = self.cluster().ok_or(ServiceError::NotReplicated)?;
        c.set_promotion_hook(hook);
        Ok(())
    }

    /// Install a hook fired when an acting primary is demoted.
    pub fn set_demotion_hook(&self, hook: RoleHook) -> Result<(), ServiceError> {
        let c = self.cluster().ok_or(ServiceError::NotReplicated)?;
        c.set_demotion_hook(hook);
        Ok(())
    }

    /// Take a checkpoint now: snapshot the database next to the log,
    /// rotate the per-shard segments, atomically swap the manifest, and
    /// garbage-collect old generations. Fails with
    /// [`ServiceError::NotDurable`] on a non-durable service.
    pub fn checkpoint(&self) -> Result<CheckpointReport, ServiceError> {
        let durable = self.durable_db()?;
        let report = durable.checkpoint()?;
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }

    /// Run one scrub pass now: verify every sealed WAL segment and the
    /// checkpoint snapshot at rest, quarantine what fails its checksum,
    /// and heal the directory with a fresh checkpoint. On a replicated
    /// service every **live** node is scrubbed (crashed nodes are
    /// skipped — quarantine-aware recovery covers them at restart) and
    /// the per-node reports are merged. Never blocks the append path.
    pub fn scrub(&self) -> Result<ScrubReport, ServiceError> {
        if !self.is_durable() {
            return Err(ServiceError::NotDurable);
        }
        let mut merged = ScrubReport::default();
        for durable in self.path.durables() {
            let report = durable.scrub()?;
            record_scrub(&self.counters, &report);
            merged.segments_verified += report.segments_verified;
            merged.checkpoints_verified += report.checkpoints_verified;
            merged.read_errors += report.read_errors;
            merged.quarantined.extend(report.quarantined);
            merged.healed |= report.healed;
        }
        Ok(merged)
    }

    /// The self-healing storage counters — scrub passes, quarantined
    /// files, heals, rescues, disk-full sheds — without running a pass.
    /// Fails with [`ServiceError::NotDurable`] on a non-durable
    /// service (there is nothing at rest to scrub).
    pub fn scrub_status(&self) -> Result<ScrubStatus, ServiceError> {
        if !self.is_durable() {
            return Err(ServiceError::NotDurable);
        }
        let stats = self.stats();
        Ok(ScrubStatus {
            passes: stats.scrub_passes,
            quarantined: stats.scrub_quarantined,
            read_errors: stats.scrub_read_errors,
            heals: stats.scrub_heals,
            rescued_shards: stats.rescued_shards,
            disk_full_sheds: stats.wal.disk_full_sheds,
            rotate_failures: stats.wal.rotate_failures,
        })
    }

    /// Fsync all pending group-commit WAL records, returning how many
    /// became durable.
    pub fn flush_wal(&self) -> Result<u64, ServiceError> {
        let durable = self.durable_db()?;
        Ok(durable.flush()?)
    }

    /// Per-shard WAL positions plus append/batch/rotation totals (the
    /// primary's, on a replicated service).
    pub fn wal_status(&self) -> Result<WalStatus, ServiceError> {
        let durable = self.durable_db()?;
        Ok(durable.wal_status())
    }

    /// Run `tick` on a background thread named `name` every `interval`
    /// until the service stops. A `tick` that panics is contained and
    /// the thread keeps its schedule. With `yields_under_pressure` a
    /// beat that falls in an overload spike is skipped: checkpoints and
    /// scrubs can wait (replay time grows a little, the serving path
    /// keeps its cycles); group-commit flushes and the replication
    /// control plane cannot.
    fn every(
        &mut self,
        name: &str,
        interval: Duration,
        yields_under_pressure: bool,
        mut tick: impl FnMut() + Send + 'static,
    ) {
        let admission = Arc::clone(&self.admission);
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                // recv_timeout disconnects when the service drops its
                // stop sender — that is the shutdown signal.
                while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    if yields_under_pressure && admission.pressure() >= 1 {
                        continue;
                    }
                    let _ = catch_unwind(AssertUnwindSafe(&mut tick));
                }
            })
            .expect("spawning a maintenance thread");
        self.maintenance.push((stop, handle));
    }

    /// Start every background upkeep job of a durable write path, all
    /// from its one [`DurabilityConfig`]: a checkpointer, a flusher
    /// under group commit and a scrubber (each only when configured),
    /// plus, on a replicated path, the control-plane tick every `tick`.
    /// Each beat of the first three runs its job on every database
    /// [`WritePath::durables`] resolves at that beat, one at a time, a
    /// panic on one contained so that it costs the others nothing.
    pub(crate) fn start_upkeep(&mut self, dcfg: &DurabilityConfig, tick: Option<Duration>) {
        if let (WritePath::Replicated(cluster), Some(interval)) = (&self.path, tick) {
            let cluster = Arc::clone(cluster);
            let slot = Arc::clone(&self.db);
            self.every("ctxpref-repl-tick", interval, false, move || {
                let _ = cluster.tick();
                follow_local_node(&slot, &cluster);
            });
        }
        let (path, counters) = (self.path.clone(), Arc::clone(&self.counters));
        let each = |job: fn(&DurableDb, &Counters)| {
            let (path, counters) = (path.clone(), Arc::clone(&counters));
            move || {
                for durable in path.durables() {
                    let _ = catch_unwind(AssertUnwindSafe(|| job(&durable, &counters)));
                }
            }
        };
        if let Some(interval) = dcfg.checkpoint_interval {
            let checkpoint = each(|durable, counters| {
                if durable.checkpoint().is_ok() {
                    counters.checkpoints.fetch_add(1, Ordering::Relaxed);
                }
            });
            self.every("ctxpref-checkpointer", interval, true, checkpoint);
        }
        if let SyncPolicy::GroupCommit { flush_interval } = dcfg.sync {
            let flush = each(|durable, _| {
                let _ = durable.flush();
            });
            self.every("ctxpref-wal-flusher", flush_interval, false, flush);
        }
        if let Some(interval) = dcfg.scrub_interval {
            let scrub = each(|durable, counters| {
                if let Ok(report) = durable.scrub() {
                    record_scrub(counters, &report);
                }
            });
            self.every("ctxpref-scrubber", interval, true, scrub);
        }
    }
}
