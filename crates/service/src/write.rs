//! The write path: how a mutation reaches the serving core, and the
//! background upkeep of whichever log that path owns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use ctxpref_core::{preference_from_parts, CoreError, MultiUserDb, ShardedMultiUserDb};
use ctxpref_profile::{ContextualPreference, Profile};
use ctxpref_relation::CompareOp;
use ctxpref_replication::{Cluster, ClusterStatus, NodeId, ReplicationError, TickReport};
use ctxpref_wal::{
    CheckpointReport, Displaced, DurableDb, LoggedOp, ScrubReport, SyncPolicy, WalOpRef, WalStatus,
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
    /// The durable databases this path's writes land in, each with its
    /// node id and resolved only when the iteration reaches it: the
    /// logged service's one as node 0, or every live node of the
    /// cluster through [`Cluster::db_of`] (a crashed node is skipped;
    /// its recovery covers it at restart).
    fn durables(&self) -> impl Iterator<Item = (NodeId, Arc<DurableDb>)> + '_ {
        let (logged, cluster) = match self {
            WritePath::Direct => (None, None),
            WritePath::Logged(durable) => (Some((0, Arc::clone(durable))), None),
            WritePath::Replicated(cluster) => (None, Some(cluster)),
        };
        let nodes = cluster
            .into_iter()
            .flat_map(|c| (0..c.config().nodes).filter_map(|id| Some((id, c.db_of(id)?))));
        logged.into_iter().chain(nodes)
    }

    /// Run `job` on each database [`Self::durables`] resolves, one at a
    /// time, and answer every node's result: the one loop of the
    /// maintenance verbs and the upkeep. A failing node costs the others
    /// nothing; the first error returns once every live node was tried.
    /// A direct path refuses with [`ServiceError::NotDurable`], a cluster
    /// with no live node with [`ReplicationError::NoPrimary`]. No handle
    /// outlives its job, so a crashed node's old [`DurableDb`] never
    /// holds its `LOCK` against [`Cluster::restart_node`].
    fn each_node<T>(
        &self,
        mut job: impl FnMut(&DurableDb) -> Result<T, ServiceError>,
    ) -> Result<Vec<(NodeId, T)>, ServiceError> {
        if matches!(self, WritePath::Direct) {
            return Err(ServiceError::NotDurable);
        }
        let (mut answers, mut failed) = (Vec::new(), None);
        for (id, durable) in self.durables() {
            match job(&durable) {
                Ok(answer) => answers.push((id, answer)),
                Err(e) => drop(failed.get_or_insert(e)),
            }
        }
        match failed {
            Some(e) => Err(e),
            None if answers.is_empty() => Err(ReplicationError::NoPrimary.into()),
            None => Ok(answers),
        }
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

impl<'a> Edit<'a> {
    /// This edit of `user` made ready against the serving core, its
    /// record lent from `user` and the request's texts. An insert's
    /// value is refused typed when it spells no value of its
    /// attribute's type.
    fn ready(self, core: &ShardedMultiUserDb, user: &'a str) -> Result<Ready<'a>, ServiceError> {
        Ok(Ready::Lent(match self {
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
            Edit::Rescore { index, score } => WalOpRef::UpdateScore { user, index, score },
            Edit::Remove { index } => WalOpRef::RemovePreference { user, index },
        }))
    }
}

/// A client edit made ready to log and apply. Its record is lent from
/// the caller's parts; an insert holds the preference it built, which
/// its record lends and its apply moves into the profile.
enum Ready<'a> {
    Insert {
        user: &'a str,
        pref: ContextualPreference,
    },
    Lent(WalOpRef<'a>),
}

impl LoggedOp for Ready<'_> {
    fn user(&self) -> &str {
        match self {
            Ready::Insert { user, .. } => user,
            Ready::Lent(op) => op.user(),
        }
    }

    fn put_op(&self, out: &mut Vec<u8>) {
        match self {
            Ready::Insert { user, pref } => WalOpRef::InsertPreference { user, pref }.put_op(out),
            Ready::Lent(op) => op.put_op(out),
        }
    }

    fn apply_to(self, db: &mut MultiUserDb) -> Result<Displaced, CoreError> {
        match self {
            Ready::Insert { user, pref } => db
                .insert_preference(user, pref)
                .map(|()| Displaced::Nothing),
            Ready::Lent(op) => op.apply_to(db),
        }
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
/// validated against the live environment and schema. The preference
/// is built before the write so that it can be logged before it is
/// applied.
fn insert_op<'a>(
    core: &ShardedMultiUserDb,
    user: &'a str,
    descriptor: &str,
    attr: &str,
    value: ctxpref_relation::Value,
    score: f64,
) -> Result<Ready<'a>, ServiceError> {
    let pref = preference_from_parts(
        core.env(),
        core.relation(),
        descriptor,
        attr,
        CompareOp::Eq,
        value,
        score,
    )?;
    Ok(Ready::Insert { user, pref })
}

/// What an applied edit took out: the preference a removal displaced,
/// `None` for an insert or a re-score.
fn removed(displaced: Displaced) -> Option<ContextualPreference> {
    match displaced {
        Displaced::Preference(pref) => Some(pref),
        _ => None,
    }
}

/// One node's checkpoint, counted: the one place a checkpoint, manual
/// or background, reaches the service counters.
fn checkpoint_node(
    durable: &DurableDb,
    counters: &Counters,
) -> Result<CheckpointReport, ServiceError> {
    let report = durable.checkpoint()?;
    counters.checkpoints.fetch_add(1, Ordering::Relaxed);
    Ok(report)
}

/// One node's scrub pass, its outcome folded into the service counters.
fn scrub_node(durable: &DurableDb, counters: &Counters) -> Result<ScrubReport, ServiceError> {
    let report = durable.scrub()?;
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
    Ok(report)
}

/// One node's group-commit flush: how many records became durable.
fn flush_node(durable: &DurableDb, _: &Counters) -> Result<u64, ServiceError> {
    Ok(durable.flush()?)
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
    pub(crate) fn write(&self, op: impl LoggedOp) -> Result<Displaced, ServiceError> {
        Ok(match &self.path {
            WritePath::Direct => op.apply(&self.core())?,
            WritePath::Logged(durable) => durable.apply(op)?.displaced,
            WritePath::Replicated(cluster) => cluster.write(op)?.displaced,
        })
    }

    /// Register a user with an empty profile. Like every mutation
    /// below it is one op, lent from its caller ([`WalOpRef`]), down
    /// the write path the service was built with: applied directly,
    /// logged first, or routed through the cluster's current primary
    /// honouring the configured ack mode.
    pub fn add_user(&self, name: &str) -> Result<(), ServiceError> {
        let _guard = self.migrations.write_guard(name)?;
        self.write(WalOpRef::AddUser { user: name })?;
        Ok(())
    }

    /// Register a user with an initial profile: the registration, then
    /// one insert per preference. A rejected preference aborts the
    /// remainder (the user stays registered with the accepted prefix,
    /// exactly as a log replay reconstructs it).
    pub fn add_user_with_profile(&self, name: &str, profile: Profile) -> Result<(), ServiceError> {
        let _guard = self.migrations.write_guard(name)?;
        self.write(WalOpRef::AddUser { user: name })?;
        for pref in profile.preferences() {
            self.write(WalOpRef::InsertPreference { user: name, pref })?;
        }
        Ok(())
    }

    /// Remove a user, returning the profile the removal took out.
    pub fn remove_user(&self, name: &str) -> Result<Profile, ServiceError> {
        let _guard = self.migrations.write_guard(name)?;
        match self.write(WalOpRef::RemoveUser { user: name })? {
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
        self.write(Ready::Insert { user, pref })?;
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
        let insert = |core: &_| insert_op(core, user, descriptor, attr, value, score);
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
            Edit::Remove { index }.ready(core, user)
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
        let rescore = |core: &_| Edit::Rescore { index, score }.ready(core, user);
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
        let edited = self.edit(Take::IfFree, user, |core| edit.ready(core, user));
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
            let displaced = self.apply(Take::Wait, user, |core| edit.ready(core, user))?;
            applied(displaced.and_then(removed));
        }
        Ok(())
    }

    /// A single client preference edit: [`Self::apply`] under the
    /// migration fence's write guard.
    fn edit<'a>(
        &self,
        take: Take,
        user: &'a str,
        make: impl FnOnce(&ShardedMultiUserDb) -> Result<Ready<'a>, ServiceError>,
    ) -> Result<Option<Displaced>, ServiceError> {
        let _guard = self.migrations.write_guard(user)?;
        self.apply(take, user, make)
    }

    /// The one body of a client preference edit, blocking or not, run
    /// under the caller's migration guard: the edit `make` readies
    /// against the serving core, and the write, taking the user's
    /// stripe as `take` says. `Ok(None)` means nothing was applied,
    /// which only [`Take::IfFree`] answers.
    fn apply<'a>(
        &self,
        take: Take,
        user: &str,
        make: impl FnOnce(&ShardedMultiUserDb) -> Result<Ready<'a>, ServiceError>,
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

    /// Take a checkpoint now on every live node: snapshot the database
    /// next to the log, rotate the per-shard segments, atomically swap
    /// the manifest, and garbage-collect old generations. Answers each
    /// node's report (a logged service is node 0); a node that fails
    /// leaves the others checkpointed and its error is returned.
    pub fn checkpoint(&self) -> Result<Vec<(NodeId, CheckpointReport)>, ServiceError> {
        self.path
            .each_node(|durable| checkpoint_node(durable, &self.counters))
    }

    /// Run one scrub pass now on every live node: verify every sealed
    /// WAL segment and the checkpoint snapshot at rest, quarantine what
    /// fails its checksum, and heal the directory with a fresh
    /// checkpoint. The per-node reports are merged. Never blocks the
    /// append path.
    pub fn scrub(&self) -> Result<ScrubReport, ServiceError> {
        let reports = self
            .path
            .each_node(|durable| scrub_node(durable, &self.counters))?;
        let mut merged = ScrubReport::default();
        for (_, report) in reports {
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

    /// Fsync every live node's pending group-commit WAL records,
    /// answering how many became durable on each.
    pub fn flush_wal(&self) -> Result<Vec<(NodeId, u64)>, ServiceError> {
        self.path
            .each_node(|durable| flush_node(durable, &self.counters))
    }

    /// Every live node's per-shard WAL positions plus its
    /// append/batch/rotation totals.
    pub fn wal_status(&self) -> Result<Vec<(NodeId, WalStatus)>, ServiceError> {
        self.path.each_node(|durable| Ok(durable.wal_status()))
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
    /// Each beat of the first three runs its verb's per-node body on
    /// every live node ([`Self::upkeep_beat`]).
    pub(crate) fn start_upkeep(&mut self, dcfg: &DurabilityConfig, tick: Option<Duration>) {
        if let (WritePath::Replicated(cluster), Some(interval)) = (&self.path, tick) {
            let cluster = Arc::clone(cluster);
            let slot = Arc::clone(&self.db);
            self.every("ctxpref-repl-tick", interval, false, move || {
                let _ = cluster.tick();
                follow_local_node(&slot, &cluster);
            });
        }
        if let Some(interval) = dcfg.checkpoint_interval {
            let checkpoint = self.upkeep_beat(checkpoint_node);
            self.every("ctxpref-checkpointer", interval, true, checkpoint);
        }
        if let SyncPolicy::GroupCommit { flush_interval } = dcfg.sync {
            let flush = self.upkeep_beat(flush_node);
            self.every("ctxpref-wal-flusher", flush_interval, false, flush);
        }
        if let Some(interval) = dcfg.scrub_interval {
            let scrub = self.upkeep_beat(scrub_node);
            self.every("ctxpref-scrubber", interval, true, scrub);
        }
    }

    /// One background beat of an upkeep `job`: the verb's own per-node
    /// body through [`WritePath::each_node`], a panic on one node
    /// contained so that it costs the others nothing.
    fn upkeep_beat<T: 'static>(
        &self,
        job: fn(&DurableDb, &Counters) -> Result<T, ServiceError>,
    ) -> impl FnMut() + Send + 'static {
        let (path, counters) = (self.path.clone(), Arc::clone(&self.counters));
        move || {
            let _ = path.each_node(|durable| {
                let _ = catch_unwind(AssertUnwindSafe(|| job(durable, &counters)));
                Ok(())
            });
        }
    }
}
