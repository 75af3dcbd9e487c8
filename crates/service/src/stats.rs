use ctxpref_qcache::CacheStats;
use ctxpref_views::ViewStats;
use ctxpref_wal::WalTotals;

use crate::service::CtxPrefService;

ctxpref_faults::counters! {
    /// The service's live counters, bumped where each event happens.
    pub(crate) struct Counters;
    /// A point-in-time snapshot of service counters, with the layers'
    /// own snapshots nested whole (`cache`, `views`, `wal`).
    pub struct ServiceStats {
        /// Top-k answers served from a current materialized view.
        served_view,
        /// Answers served from a user's query cache.
        served_cached,
        /// Answers served by exact (uncached) resolution.
        served_exact,
        /// Answers served from a lifted (nearest ancestor) state.
        served_nearest,
        /// Answers served as the non-contextual default.
        served_default,
        /// Panics caught at the service boundary or inside a ladder rung.
        panics_contained,
        /// Requests that missed their deadline, each counted once.
        deadline_exceeded,
        /// Requests shed by admission control, all reasons combined
        /// (`shed_admission + shed_sojourn + shed_expired`).
        shed,
        /// Requests refused by the hard in-flight backstop (the queue was
        /// already at `max_in_flight`, regardless of tier).
        shed_admission,
        /// Requests the sojourn controller refused at admission: queue
        /// dwell stayed over target, so the tier was shed (lowest first;
        /// never Interactive).
        shed_sojourn,
        /// Jobs dropped at dequeue because their deadline passed while
        /// they queued — counted, never executed.
        shed_expired,
        /// Shed requests that carried the Interactive tier.
        shed_interactive,
        /// Shed requests that carried the Bulk tier.
        shed_bulk,
        /// Shed requests that carried the Maintenance tier.
        shed_maintenance,
        /// Requests dropped because the caller had already given up.
        cancelled,
        /// Storage operations retried after a transient I/O failure.
        storage_retries,
        /// Requests that ended in a typed error (other than shed/deadline).
        errors,
        /// Total microseconds workers spent waiting to acquire a user's
        /// shard lock — the direct measure of serving-core contention.
        lock_wait_micros,
        /// Requests whose deadline expired *while waiting for the shard
        /// lock* (caught by the re-check after it, so no query ran).
        deadline_after_lock,
        /// Checkpoints taken (manual and background) since start.
        checkpoints,
        /// Scrub passes completed (manual and background) since start.
        scrub_passes,
        /// Files those passes quarantined (corrupt sealed segments or
        /// checkpoint snapshots pulled out of service).
        scrub_quarantined,
        /// Files a scrub skipped on a transient read error (retried, not quarantined).
        scrub_read_errors,
        /// Scrub passes that healed damage with a fresh checkpoint.
        scrub_heals,
        ;
        /// Query-cache statistics summed over every user (zero without caching).
        pub cache: CacheStats,
        /// The materialized views' counters summed over every user.
        pub views: ViewStats,
        /// The write-ahead log's totals since start: the primary's on a
        /// replicated service, all zero without durability.
        pub wal: WalTotals,
        /// Replicated applies the local database rejected (identically on every node).
        pub repl_apply_rejects: u64,
        /// WAL shards recovery rescued via quarantine, summed across the
        /// cluster's live nodes (0 without replication).
        pub rescued_shards: u64,
        /// Sum of per-shard LSNs recovered at startup: how much log survived.
        pub recovered_lsn: u64,
        /// The cluster's current fencing epoch (0 without replication).
        pub replication_epoch: u64,
        /// Applied records the laggiest live replica trails the primary by.
        pub replication_max_lag: u64,
        /// Promotions after the first: how often the primary role moved.
        pub failovers: u64,
        /// Per-site hit counters of the installed
        /// [`FaultPlan`](ctxpref_faults::FaultPlan), sorted by site name;
        /// empty without a plan. Chaos tests assert a fault fired from these.
        pub fault_hits: Vec<(String, u64)>,
    }
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
/// unconditionally (all zeros without them), so the body's lines do not
/// depend on how the service was built.
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
        let (c, v) = (&self.cache, &self.views);
        writeln!(
            f,
            "cache: {} hits, {} misses, {} insertions, {} evictions, {} invalidations",
            c.hits, c.misses, c.insertions, c.evictions, c.invalidations
        )?;
        writeln!(
            f,
            "views: {} materialized, {} pinned, {} hits, {} misses, {} patches, {} rebuilds",
            v.materialized_views,
            v.pinned_views,
            v.view_hits,
            v.view_misses,
            v.view_patches,
            v.view_rebuilds
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
            self.wal.appends, self.wal.batches, self.checkpoints, self.recovered_lsn
        )?;
        writeln!(
            f,
            "replication epoch {}, max lag {}, failovers {}",
            self.replication_epoch, self.replication_max_lag, self.failovers
        )?;
        write!(
            f,
            "cancelled {}, storage retries {}, deadline misses after lock {}, lock wait {}µs, \
             repl apply rejects {}",
            self.cancelled,
            self.storage_retries,
            self.deadline_after_lock,
            self.lock_wait_micros,
            self.repl_apply_rejects
        )?;
        for (site, hits) in &self.fault_hits {
            write!(f, "\nfault {site} {hits}")?;
        }
        Ok(())
    }
}

impl CtxPrefService {
    /// A snapshot of the service counters, with the core's cache and view
    /// totals and, when present, the log's and the cluster's figures.
    pub fn stats(&self) -> ServiceStats {
        let core = self.core();
        let mut stats = ServiceStats {
            cache: core.cache_totals(),
            views: core.views_totals(),
            recovered_lsn: self.recovered_lsn,
            rescued_shards: self.recovered_rescued_shards,
            ..self.counters.snapshot()
        };
        if let Ok(d) = self.durable_db() {
            stats.wal = d.wal_totals();
            stats.repl_apply_rejects = d.repl_apply_rejects();
        }
        if let Some(c) = self.cluster() {
            let status = c.status();
            stats.replication_epoch = status.epoch;
            stats.replication_max_lag = status.max_lag;
            stats.failovers = (status.promotions.len() as u64).saturating_sub(1);
            stats.rescued_shards = status.nodes.iter().map(|n| n.rescued_shards).sum();
        }
        if let Some(plan) = ctxpref_faults::current() {
            stats.fault_hits = plan.hit_counts().into_iter().collect();
            stats.fault_hits.sort();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The operator text, pinned: every field holds a distinct value, so
    /// a counter printed in the wrong slot, or not at all, changes the
    /// body. The CLI tests and the views wire test read these lines.
    #[test]
    #[rustfmt::skip]
    fn display_prints_every_line_exactly() {
        let stats = ServiceStats {
            served_view: 1, served_cached: 2, served_exact: 3, served_nearest: 4,
            served_default: 5, panics_contained: 6, deadline_exceeded: 7, shed: 8,
            shed_admission: 9, shed_sojourn: 10, shed_expired: 11, shed_interactive: 12,
            shed_bulk: 13, shed_maintenance: 14, cancelled: 15, storage_retries: 16,
            errors: 17, lock_wait_micros: 18, deadline_after_lock: 19, checkpoints: 20,
            scrub_passes: 21, scrub_quarantined: 22, scrub_read_errors: 23, scrub_heals: 24,
            wal: WalTotals { appends: 25, batches: 26, rotate_failures: 27,
                             disk_full_sheds: 28, rotations: 48 },
            repl_apply_rejects: 29, rescued_shards: 30,
            recovered_lsn: 31, replication_epoch: 32, replication_max_lag: 33, failovers: 34,
            cache: CacheStats { hits: 35, misses: 36, insertions: 37, evictions: 38,
                                invalidations: 39, cells_accessed: 49 },
            views: ViewStats { view_hits: 40, view_misses: 41, view_patches: 42,
                               view_rebuilds: 43, materialized_views: 44, pinned_views: 45 },
            fault_hits: vec![("disk.full".into(), 46), ("wal.read".into(), 47)],
        };
        assert_eq!(stats.to_string(), "\
served: 1 view, 2 cached, 3 exact, 4 nearest-state, 5 default
contained panics 6, deadline misses 7, shed 8, errors 17
cache: 35 hits, 36 misses, 37 insertions, 38 evictions, 39 invalidations
views: 44 materialized, 45 pinned, 40 hits, 41 misses, 42 patches, 43 rebuilds
shed by reason: 9 admission, 10 sojourn, 11 expired-at-dequeue
shed by tier: 12 interactive, 13 bulk, 14 maintenance
wal appends 25, group-commit batches 26, checkpoints 20, recovered lsn 31
replication epoch 32, max lag 33, failovers 34
cancelled 15, storage retries 16, deadline misses after lock 19, lock wait 18µs, repl apply rejects 29
fault disk.full 46
fault wal.read 47");
    }
}
