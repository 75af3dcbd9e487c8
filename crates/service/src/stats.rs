use std::sync::atomic::{AtomicU64, Ordering};

use crate::service::CtxPrefService;

/// Internal atomic counters of the service.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub served_view: AtomicU64,
    pub served_cached: AtomicU64,
    pub served_exact: AtomicU64,
    pub served_nearest: AtomicU64,
    pub served_default: AtomicU64,
    pub panics_contained: AtomicU64,
    pub deadline_exceeded: AtomicU64,
    pub shed: AtomicU64,
    pub shed_admission: AtomicU64,
    pub shed_sojourn: AtomicU64,
    pub shed_expired: AtomicU64,
    pub shed_interactive: AtomicU64,
    pub shed_bulk: AtomicU64,
    pub shed_maintenance: AtomicU64,
    pub cancelled: AtomicU64,
    pub storage_retries: AtomicU64,
    pub errors: AtomicU64,
    pub lock_wait_micros: AtomicU64,
    pub deadline_after_lock: AtomicU64,
    pub checkpoints: AtomicU64,
    pub scrub_passes: AtomicU64,
    pub scrub_quarantined: AtomicU64,
    pub scrub_read_errors: AtomicU64,
    pub scrub_heals: AtomicU64,
}

impl Counters {
    pub fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            served_view: self.served_view.load(Ordering::Relaxed),
            served_cached: self.served_cached.load(Ordering::Relaxed),
            served_exact: self.served_exact.load(Ordering::Relaxed),
            served_nearest: self.served_nearest.load(Ordering::Relaxed),
            served_default: self.served_default.load(Ordering::Relaxed),
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            shed_admission: self.shed_admission.load(Ordering::Relaxed),
            shed_sojourn: self.shed_sojourn.load(Ordering::Relaxed),
            shed_expired: self.shed_expired.load(Ordering::Relaxed),
            shed_interactive: self.shed_interactive.load(Ordering::Relaxed),
            shed_bulk: self.shed_bulk.load(Ordering::Relaxed),
            shed_maintenance: self.shed_maintenance.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            storage_retries: self.storage_retries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            lock_wait_micros: self.lock_wait_micros.load(Ordering::Relaxed),
            deadline_after_lock: self.deadline_after_lock.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            scrub_passes: self.scrub_passes.load(Ordering::Relaxed),
            scrub_quarantined: self.scrub_quarantined.load(Ordering::Relaxed),
            scrub_read_errors: self.scrub_read_errors.load(Ordering::Relaxed),
            scrub_heals: self.scrub_heals.load(Ordering::Relaxed),
            // Durability, replication, cache, view and fault figures
            // live on the WAL, the cluster, the serving core and the
            // fault plan, not in these atomics; `CtxPrefService::stats`
            // overlays them after this snapshot.
            ..ServiceStats::default()
        }
    }
}

/// A point-in-time snapshot of service counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Top-k answers served from a current materialized view.
    pub served_view: u64,
    /// Answers served from a user's query cache.
    pub served_cached: u64,
    /// Answers served by exact (uncached) resolution.
    pub served_exact: u64,
    /// Answers served from a lifted (nearest ancestor) state.
    pub served_nearest: u64,
    /// Answers served as the non-contextual default.
    pub served_default: u64,
    /// Panics caught at the service boundary or inside a ladder rung.
    pub panics_contained: u64,
    /// Requests that missed their deadline.
    pub deadline_exceeded: u64,
    /// Requests shed by admission control, all reasons combined
    /// (`shed_admission + shed_sojourn + shed_expired`).
    pub shed: u64,
    /// Requests refused by the hard in-flight backstop (the queue was
    /// already at `max_in_flight`, regardless of tier).
    pub shed_admission: u64,
    /// Requests the sojourn-time controller refused at admission:
    /// queue dwell exceeded the target for a sustained interval, so
    /// the request's tier was shed (lowest tier first; Interactive is
    /// never sojourn-shed).
    pub shed_sojourn: u64,
    /// Jobs dropped at dequeue because their deadline had already
    /// passed while they waited in the queue — counted, never
    /// executed, so the queue does no dead work.
    pub shed_expired: u64,
    /// Shed requests that carried the Interactive tier.
    pub shed_interactive: u64,
    /// Shed requests that carried the Bulk tier.
    pub shed_bulk: u64,
    /// Shed requests that carried the Maintenance tier.
    pub shed_maintenance: u64,
    /// Requests dropped because the caller had already given up.
    pub cancelled: u64,
    /// Storage operations retried after a transient I/O failure.
    pub storage_retries: u64,
    /// Requests that ended in a typed error (other than shed/deadline).
    pub errors: u64,
    /// Total microseconds workers spent waiting to acquire a user's
    /// shard lock — the direct measure of serving-core contention.
    pub lock_wait_micros: u64,
    /// Requests whose deadline expired *while waiting for the shard
    /// lock* (caught by the post-acquisition re-check, so no query ran
    /// against an already-dead request).
    pub deadline_after_lock: u64,
    /// Checkpoints taken (manual and background) since start.
    pub checkpoints: u64,
    /// Scrub passes completed (manual and background) since start.
    pub scrub_passes: u64,
    /// Files those passes quarantined (corrupt sealed segments or
    /// checkpoint snapshots pulled out of service).
    pub scrub_quarantined: u64,
    /// Files a scrub pass skipped on a transient read error (retried
    /// next pass — not corruption, not quarantined).
    pub scrub_read_errors: u64,
    /// Scrub passes that healed damage with a fresh checkpoint.
    pub scrub_heals: u64,
    /// Records appended to the write-ahead log since start (0 when the
    /// service runs without durability).
    pub wal_appends: u64,
    /// Group-commit fsync batches that synced at least one record.
    pub group_commit_batches: u64,
    /// Size-triggered WAL segment rotations that failed (the full
    /// segment stayed the append target; a later rotation retries).
    pub wal_rotate_failures: u64,
    /// Appends shed with a typed retryable disk-full error.
    pub wal_disk_full_sheds: u64,
    /// Replicated applies the local database rejected (logged but
    /// refused identically on every replica — deterministic).
    pub repl_apply_rejects: u64,
    /// WAL shards recovery rescued via quarantine, summed across the
    /// cluster's live nodes (0 without replication; a rescued node
    /// restarted clean-but-behind and repairs through shipping).
    pub rescued_shards: u64,
    /// Sum of per-shard LSNs recovered at startup (0 for a fresh or
    /// non-durable service) — how much log survived the last crash.
    pub recovered_lsn: u64,
    /// The cluster's current fencing epoch (0 when the service runs
    /// without replication).
    pub replication_epoch: u64,
    /// How far the laggiest live replica trails the primary, in
    /// applied records (0 without replication or a live primary).
    pub replication_max_lag: u64,
    /// Promotions after the initial one — how many times the primary
    /// role has moved since the cluster was bootstrapped.
    pub failovers: u64,
    /// Query-cache hits summed over every user (overlay from the
    /// serving core; 0 when caching is disabled).
    pub cache_hits: u64,
    /// Query-cache misses summed over every user.
    pub cache_misses: u64,
    /// Answers inserted into per-user caches.
    pub cache_insertions: u64,
    /// Cache cells evicted by per-user capacity pressure.
    pub cache_evictions: u64,
    /// Cache cells dropped by mutation or options-change invalidation.
    pub cache_invalidations: u64,
    /// Materialized-view hits (view was current and answered) summed
    /// over every user.
    pub view_hits: u64,
    /// Top-k requests that could not be served from a view.
    pub view_misses: u64,
    /// Mutations absorbed by an in-place view patch (no recompute).
    pub view_patches: u64,
    /// Targeted per-view rebuilds (signature change, heap underflow,
    /// or growth bound).
    pub view_rebuilds: u64,
    /// Views currently materialized, over every user.
    pub materialized_views: u64,
    /// Views currently pinned (never evicted), over every user.
    pub pinned_views: u64,
    /// Per-site fault-injection hit counters of the currently
    /// installed [`FaultPlan`](ctxpref_faults::FaultPlan), sorted by
    /// site name; empty when no plan is installed. Chaos tests assert
    /// a fault actually fired from these instead of inferring it from
    /// timing.
    pub fault_hits: Vec<(String, u64)>,
}

impl ServiceStats {
    /// Total answered requests, across all ladder rungs.
    pub fn served(&self) -> u64 {
        self.served_view
            + self.served_cached
            + self.served_exact
            + self.served_nearest
            + self.served_default
    }

    /// Answers that came from a degraded rung.
    pub fn degraded(&self) -> u64 {
        self.served_nearest + self.served_default
    }
}

/// The operator's rendering (`stats`, local and remote): one labelled
/// line per concern, then a `fault <site> <hits>` line per fault site
/// of the installed plan. Durability and replication lines print
/// unconditionally — all zeros on a service running without them — so
/// the body has the same lines whichever way the service was built.
impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "served: {} view, {} cached, {} exact, {} nearest-state, {} default",
            self.served_view,
            self.served_cached,
            self.served_exact,
            self.served_nearest,
            self.served_default
        )?;
        writeln!(
            f,
            "contained panics {}, deadline misses {}, shed {}, errors {}",
            self.panics_contained, self.deadline_exceeded, self.shed, self.errors
        )?;
        writeln!(
            f,
            "cache: {} hits, {} misses, {} insertions, {} evictions, {} invalidations",
            self.cache_hits,
            self.cache_misses,
            self.cache_insertions,
            self.cache_evictions,
            self.cache_invalidations
        )?;
        writeln!(
            f,
            "views: {} materialized, {} pinned, {} hits, {} misses, {} patches, {} rebuilds",
            self.materialized_views,
            self.pinned_views,
            self.view_hits,
            self.view_misses,
            self.view_patches,
            self.view_rebuilds
        )?;
        writeln!(
            f,
            "shed by reason: {} admission, {} sojourn, {} expired-at-dequeue",
            self.shed_admission, self.shed_sojourn, self.shed_expired
        )?;
        writeln!(
            f,
            "shed by tier: {} interactive, {} bulk, {} maintenance",
            self.shed_interactive, self.shed_bulk, self.shed_maintenance
        )?;
        writeln!(
            f,
            "wal appends {}, group-commit batches {}, checkpoints {}, recovered lsn {}",
            self.wal_appends, self.group_commit_batches, self.checkpoints, self.recovered_lsn
        )?;
        write!(
            f,
            "replication epoch {}, max lag {}, failovers {}",
            self.replication_epoch, self.replication_max_lag, self.failovers
        )?;
        for (site, hits) in &self.fault_hits {
            write!(f, "\nfault {site} {hits}")?;
        }
        Ok(())
    }
}

impl CtxPrefService {
    /// A snapshot of the service counters, with the durability figures
    /// (WAL appends, group-commit batches, recovered LSN) overlaid when
    /// the service runs durably.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.counters.snapshot();
        if let Ok(d) = self.durable_db() {
            stats.wal_appends = d.wal_appends();
            stats.group_commit_batches = d.group_commit_batches();
            let health = d.wal_health();
            stats.wal_rotate_failures = health.rotate_failures;
            stats.wal_disk_full_sheds = health.disk_full_sheds;
            stats.repl_apply_rejects = d.repl_apply_rejects();
        }
        stats.recovered_lsn = self.recovered_lsn;
        stats.rescued_shards = self.recovered_rescued_shards;
        if let Some(c) = self.cluster() {
            let status = c.status();
            stats.replication_epoch = status.epoch;
            stats.replication_max_lag = status.max_lag;
            stats.failovers = (status.promotions.len() as u64).saturating_sub(1);
            stats.rescued_shards = status.nodes.iter().map(|n| n.rescued_shards).sum();
        }
        let core = self.core();
        let cache = core.cache_totals();
        stats.cache_hits = cache.hits;
        stats.cache_misses = cache.misses;
        stats.cache_insertions = cache.insertions;
        stats.cache_evictions = cache.evictions;
        stats.cache_invalidations = cache.invalidations;
        let views = core.views_totals();
        stats.view_hits = views.view_hits;
        stats.view_misses = views.view_misses;
        stats.view_patches = views.view_patches;
        stats.view_rebuilds = views.view_rebuilds;
        stats.materialized_views = views.materialized_views;
        stats.pinned_views = views.pinned_views;
        if let Some(plan) = ctxpref_faults::current() {
            let mut hits: Vec<(String, u64)> = plan.hit_counts().into_iter().collect();
            hits.sort();
            stats.fault_hits = hits;
        }
        stats
    }

    /// A human-readable view-catalog report: aggregate counters first,
    /// then one line per user with materialized views (their pinned
    /// states listed). Served by the `views-status` wire verb.
    pub fn views_status(&self) -> String {
        let core = self.core();
        let totals = core.views_totals();
        let mut body = format!(
            "views materialized={} pinned={} hits={} misses={} patches={} rebuilds={}\n",
            totals.materialized_views,
            totals.pinned_views,
            totals.view_hits,
            totals.view_misses,
            totals.view_patches,
            totals.view_rebuilds,
        );
        for user in core.users_sorted() {
            let Ok(s) = core.view_stats(&user) else {
                continue;
            };
            if s.materialized_views == 0 && s.pinned_views == 0 {
                continue;
            }
            let pinned: Vec<String> = core
                .pinned_views(&user)
                .unwrap_or_default()
                .iter()
                .map(|st| st.display(core.env()).to_string())
                .collect();
            body.push_str(&format!(
                "user {user} materialized={} pinned={} hits={} patches={} rebuilds={}{}{}\n",
                s.materialized_views,
                s.pinned_views,
                s.view_hits,
                s.view_patches,
                s.view_rebuilds,
                if pinned.is_empty() { "" } else { " states=" },
                pinned.join(";"),
            ));
        }
        body
    }
}
