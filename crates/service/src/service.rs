use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::{MultiUserDb, ShardedMultiUserDb};
use ctxpref_replication::Cluster;
use ctxpref_wal::{DurableDb, RecoveryReport, WalOp};
use parking_lot::RwLock;

use crate::admission::{record_shed, Admission, Admitted};
use crate::config::{DurabilityConfig, ReplicatedConfig, ServiceConfig};
use crate::error::ServiceError;
use crate::ladder::{LadderStep, ServiceAnswer, TryRead, ViewHit};
use crate::migrate::MigrationTable;
use crate::pool::{execute_read, worker_loop, Job, JobQueue, Locking, Read};
use crate::retry::retry_storage;
use crate::stats::Counters;
use crate::tier::Priority;
use crate::write::WritePath;

/// The fault-tolerant serving layer over a sharded multi-user core.
///
/// Every request runs on one fixed pool of worker threads: in-process
/// callers queue their reads and wait for the answer, and a front-end
/// (the network server) queues whole requests with [`Self::spawn`] —
/// all but what it answers on its own thread through the two entries
/// that never wait: [`Self::try_read_with`] (a top-k read a current
/// view holds, its rows rendered by the caller from the view in the same
/// pass, else any ranked read while no job is queued) and
/// [`Self::try_edit`] (an [`crate::Edit`] on a free stripe, applied
/// directly or, under group commit, logged and applied when the user's
/// WAL shard is free too).
///
/// * **Deadlines & cancellation** — every query carries a deadline and
///   is never executed past it: a worker drops it at dequeue, after the
///   shard lock, or between ladder rungs. An in-process caller also
///   gets [`ServiceError::DeadlineExceeded`] at the deadline even if
///   the worker is still grinding, and the worker drops the cancelled
///   job when it reaches it.
/// * **Panic isolation** — each query runs under `catch_unwind`; a panic
///   (real or injected) is contained and surfaces as
///   [`ServiceError::QueryPanicked`] or a recorded ladder fallback,
///   never as a crash. The locks are `parking_lot` locks precisely so a
///   contained panic cannot poison shared state.
/// * **Admission control** — at most `max_in_flight` ranked reads are
///   queued or executing; excess load is shed immediately with
///   [`ServiceError::Overloaded`], before anything is queued.
/// * **Degradation ladder** — see [`crate::LadderStep`]: cached → exact →
///   nearest-state → non-contextual default, every fallback recorded.
/// * **Retrying storage** — [`Self::save`] and [`Self::open`] retry
///   transient I/O failures with exponential backoff capped by the
///   configured storage deadline; writes are atomic and checksummed
///   (see `ctxpref_wal::snapshot`).
/// * **Sharded core** — the database is a [`ShardedMultiUserDb`]: user
///   slots are striped over per-shard `RwLock`s, so one user's profile
///   edit (or a long snapshot) never blocks queries for users on other
///   shards, and a worker acquires exactly the one shard its request
///   needs.
/// * **One write path, chosen at construction** — *direct*
///   ([`Self::new`], [`Self::open`]), *logged* ([`Self::new_durable`],
///   [`Self::recover`]: write-ahead logged *before* it touches the
///   core, checkpointed in the background, see `ctxpref-wal`) or
///   *replicated* ([`Self::new_replicated`], see
///   `ctxpref-replication`). Every mutation verb builds one `WalOp` and
///   hands it to the single internal `write`, the only code that knows
///   which path runs; the write hands back what it displaced, so a
///   removal returns the value the log applied.
pub struct CtxPrefService {
    /// The serving core reads go to. A slot rather than a plain handle:
    /// for a replicated service this is the local node's database, and
    /// a crash + restart of that node builds a *new* recovered instance
    /// inside the cluster — the control-plane tick re-resolves the slot
    /// so reads follow the recovered node instead of serving a frozen
    /// orphan forever.
    pub(crate) db: Arc<RwLock<Arc<ShardedMultiUserDb>>>,
    cfg: ServiceConfig,
    pub(crate) counters: Arc<Counters>,
    pub(crate) admission: Arc<Admission>,
    in_flight: Arc<AtomicUsize>,
    shutting_down: Arc<AtomicBool>,
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle<()>>,
    pub(crate) path: WritePath,
    pub(crate) maintenance: Vec<(mpsc::Sender<()>, JoinHandle<()>)>,
    pub(crate) recovered_lsn: u64,
    pub(crate) recovered_rescued_shards: u64,
    pub(crate) migrations: MigrationTable,
}

impl std::fmt::Debug for CtxPrefService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtxPrefService")
            .field("workers", &self.workers.len())
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl CtxPrefService {
    /// Serve `db` with `cfg`, sharding it over `cfg.shards` stripes.
    pub fn new(db: MultiUserDb, cfg: ServiceConfig) -> Self {
        Self::new_sharded(ShardedMultiUserDb::from_db(db, cfg.shards), cfg)
    }

    /// Serve an already-sharded core with `cfg` (`cfg.shards` is
    /// ignored; the core keeps its stripe count).
    pub fn new_sharded(db: ShardedMultiUserDb, cfg: ServiceConfig) -> Self {
        Self::new_arc(Arc::new(db), cfg, WritePath::Direct)
    }

    /// Serve `db` with `cfg`, logging every mutation to a fresh durable
    /// directory per `dcfg` before applying it. Fails with
    /// [`ctxpref_wal::WalError::AlreadyExists`] if the directory already
    /// holds a durable database — [`Self::recover`] it instead.
    pub fn new_durable(
        db: MultiUserDb,
        cfg: ServiceConfig,
        dcfg: DurabilityConfig,
    ) -> Result<Self, ServiceError> {
        let db = Arc::new(ShardedMultiUserDb::from_db(db, cfg.shards));
        let durable = Arc::new(DurableDb::create(
            &dcfg.dir,
            Arc::clone(&db),
            dcfg.wal_options(),
        )?);
        let mut service = Self::new_arc(db, cfg, WritePath::Logged(durable));
        service.start_upkeep(&dcfg, None);
        Ok(service)
    }

    /// Recover a durable directory — load the manifest's checkpoint,
    /// replay each shard's live log segments, repair a torn tail — and
    /// serve the recovered database; further mutations append to the
    /// same log.
    pub fn recover(
        cfg: ServiceConfig,
        dcfg: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let (durable, report) = DurableDb::recover(&dcfg.dir, dcfg.wal_options())?;
        let durable = Arc::new(durable);
        let mut service = Self::new_arc(Arc::clone(durable.db()), cfg, WritePath::Logged(durable));
        service.recovered_lsn = report.recovered_lsn();
        service.recovered_rescued_shards = report.rescued_shards;
        service.start_upkeep(&dcfg, None);
        Ok((service, report))
    }

    fn new_arc(db: Arc<ShardedMultiUserDb>, cfg: ServiceConfig, path: WritePath) -> Self {
        let db = Arc::new(RwLock::new(db));
        let counters = Arc::new(Counters::default());
        let admission = Arc::new(Admission::new(cfg.codel_target, cfg.codel_interval));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let shutting_down = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(JobQueue::default());
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("ctxpref-worker-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawning a worker thread")
            })
            .collect();
        Self {
            db,
            cfg,
            counters,
            admission,
            in_flight,
            shutting_down,
            queue,
            workers,
            path,
            maintenance: Vec::new(),
            recovered_lsn: 0,
            recovered_rescued_shards: 0,
            migrations: MigrationTable::default(),
        }
    }

    /// Serve `db` replicated across `rcfg.nodes` primary/replica nodes
    /// under `rcfg.durability.dir`. Every node is a full durable
    /// database (WAL, checkpoints, recovery) run by `rcfg.durability`,
    /// each live one checkpointed, flushed and scrubbed in the
    /// background as a logged service is; `db`'s initial contents are
    /// seeded through the replicated write path so all nodes start
    /// identical.
    ///
    /// Queries are served from node 0's core — the service's local
    /// node — while mutations route through the cluster's current
    /// primary, honouring the configured [`crate::AckMode`]. After a failover
    /// away from node 0, reads stay local (and catch up through
    /// shipping); writes follow the new primary automatically.
    pub fn new_replicated(
        db: MultiUserDb,
        cfg: ServiceConfig,
        rcfg: ReplicatedConfig,
    ) -> Result<Self, ServiceError> {
        let env = db.env().clone();
        let rel = db.relation().clone();
        let cache = db.cache_capacity();
        let shards = cfg.shards.max(1);
        let cluster = Arc::new(
            Cluster::new(&rcfg.durability.dir, rcfg.cluster_config(shards), || {
                Arc::new(ShardedMultiUserDb::new(
                    env.clone(),
                    rel.clone(),
                    cache,
                    shards,
                ))
            })
            .map_err(ServiceError::from)?,
        );
        // Seed the initial contents through the replicated write path:
        // every node (not just the primary) must hold them, and the WAL
        // must cover them so late-joining replicas can catch up.
        for user in db.users_sorted() {
            cluster.write(WalOp::AddUser {
                user: user.to_string(),
            })?;
            for pref in db.profile(user)?.preferences() {
                cluster.write(WalOp::InsertPreference {
                    user: user.to_string(),
                    pref: pref.clone(),
                })?;
            }
        }
        let local = cluster.db_of(0).expect("node 0 exists at bootstrap");
        let mut service =
            Self::new_arc(Arc::clone(local.db()), cfg, WritePath::Replicated(cluster));
        service.start_upkeep(&rcfg.durability, rcfg.tick_interval);
        Ok(service)
    }

    /// Load a multi-user database from `path` (retrying transient I/O
    /// per the retry policy) and serve it.
    pub fn open(path: impl AsRef<Path>, cfg: ServiceConfig) -> Result<Self, ServiceError> {
        let counters = Counters::default();
        let db = retry_storage(&cfg.retry, cfg.storage_deadline, &counters, || {
            ctxpref_wal::snapshot::load_multi_user(&path)
        })?;
        let service = Self::new(db, cfg);
        service.counters.storage_retries.fetch_add(
            counters.storage_retries.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        Ok(service)
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The serving core, resolved through the swappable slot.
    pub(crate) fn core(&self) -> Arc<ShardedMultiUserDb> {
        Arc::clone(&self.db.read())
    }

    /// Ranked reads currently queued or executing.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Query `user` under `state` with the default deadline.
    pub fn query_state(
        &self,
        user: &str,
        state: &ContextState,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.query_state_deadline(user, state, self.cfg.default_deadline)
    }

    /// Query `user` under `state`, failing with
    /// [`ServiceError::DeadlineExceeded`] if no answer is produced
    /// within `deadline`. Runs at [`Priority::Interactive`] — use
    /// [`Self::query_tiered`] to run at a sheddable tier.
    pub fn query_state_deadline(
        &self,
        user: &str,
        state: &ContextState,
        deadline: Duration,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.query_tiered(user, state, deadline, Priority::Interactive)
    }

    /// Query `user` under `state` at `tier`, failing with
    /// [`ServiceError::DeadlineExceeded`] if no answer is produced
    /// within `deadline` and with the retryable
    /// [`ServiceError::Overloaded`] when admission sheds the tier: the
    /// sojourn controller sheds Maintenance (then Bulk) under a
    /// standing queue, and the `max_in_flight` backstop any tier.
    pub fn query_tiered(
        &self,
        user: &str,
        state: &ContextState,
        deadline: Duration,
        tier: Priority,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.submit(user, state, None, deadline, tier)
    }

    /// Top-k query for `user` under `state` with the default deadline
    /// at [`Priority::Interactive`]: served from a materialized view
    /// when one is current ([`LadderStep::View`]), early-terminating
    /// evaluation otherwise, with the same degradation ladder below.
    pub fn query_topk(
        &self,
        user: &str,
        state: &ContextState,
        k: usize,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.query_topk_tiered(
            user,
            state,
            k,
            self.cfg.default_deadline,
            Priority::Interactive,
        )
    }

    /// Top-k query at an explicit deadline and tier — the same
    /// admission gates, deadline enforcement, and cancellation as
    /// [`Self::query_tiered`].
    pub fn query_topk_tiered(
        &self,
        user: &str,
        state: &ContextState,
        k: usize,
        deadline: Duration,
        tier: Priority,
    ) -> Result<ServiceAnswer, ServiceError> {
        self.submit(user, state, Some(k), deadline, tier)
    }

    /// Queue `job` on the service's workers — the pool every request
    /// runs on. A ranked read comes with the ticket [`Self::admit`]
    /// issued for it, and `job` receives that ticket to hand to
    /// [`Self::query_admitted`]. Fails with
    /// [`ServiceError::ShuttingDown`] once the service stops (the
    /// ticket's slot is given back).
    pub fn spawn(
        &self,
        admitted: Option<Admitted>,
        job: impl FnOnce(Option<Admitted>) + Send + 'static,
    ) -> Result<(), ServiceError> {
        self.enqueue(Box::new(move || job(admitted)))
    }

    /// Run a ranked read on the calling thread — from inside a job on
    /// the service's workers, so that no worker waits on the pool.
    /// `admitted` is the ticket [`Self::admit`] issued for this read;
    /// `None` admits it here, at `tier`. It is dropped unexecuted if
    /// `deadline` (counted from admission) has passed by the time it
    /// runs, after the shard lock, or between ladder rungs — there is
    /// no waiter to answer early for it.
    pub fn query_admitted(
        &self,
        admitted: Option<Admitted>,
        tier: Priority,
        user: &str,
        state: &ContextState,
        topk: Option<usize>,
        deadline: Duration,
    ) -> Result<ServiceAnswer, ServiceError> {
        let admitted = match admitted {
            Some(admitted) => admitted,
            None => self.admit(tier)?,
        };
        let read = Read {
            user,
            state,
            topk,
            requested: deadline,
        };
        self.run_read(&admitted, &read, Locking::Wait)
            .expect("a read that waits for its locks runs")
    }

    /// Run an admitted ranked read on the calling thread without
    /// waiting — a front-end's reactor calls it before queueing the
    /// read, to spare it the hop to a worker and back. In order:
    ///
    /// * a top-`k` read probes a current materialized view, whatever
    ///   the queue holds, and on a hit hands its rows to
    ///   `render_view` ([`ViewHit`]) in the same pass: under the core
    ///   slot, the stripe and the catalog's read locks, each taken
    ///   once, with no copy of the rows and no owned answer. The probe
    ///   never blocks on a shard lock, passes no fault site,
    ///   materializes nothing and records no miss, and a panic inside
    ///   it or the render is contained. (The user's view catalog is
    ///   read-locked as on any hit, so it can wait out a worker's
    ///   concurrent build of that user's view: bounded compute, never
    ///   I/O or a fault site.) A hit counts as [`LadderStep::View`];
    /// * any read is then ranked under the body a worker runs for
    ///   [`Self::query_admitted`] (expiry drop, post-lock deadline
    ///   re-check, ladder, panic containment, deadline-miss count),
    ///   but only while no job is queued for the workers (the read
    ///   would jump that queue, and a backlog is for the sojourn
    ///   controller to see) and only if the core slot and the user's
    ///   stripe are free this instant. It answers as the blocking verb
    ///   would, refusals included.
    ///
    /// Neither feeds a sojourn sample (the read never queued). An
    /// installed fault plan (every read then runs where its fault
    /// sites are), a held lock or a queued job hands the ticket back,
    /// unrun, and the read queues with [`Self::spawn`].
    pub fn try_read_with<R>(
        &self,
        admitted: Admitted,
        user: &str,
        state: &ContextState,
        topk: Option<usize>,
        deadline: Duration,
        render_view: impl FnOnce(ViewHit<'_>) -> R,
    ) -> TryRead<R> {
        if ctxpref_faults::current().is_some() {
            return TryRead::Queue(admitted);
        }
        if let Some(k) = topk {
            let started = Instant::now();
            let probe = || {
                let core = self.db.try_read()?;
                let shard = core.try_read_user_shard(user)?;
                shard.view_hit_with(user, state, k, |relation, rows| {
                    let elapsed = started.elapsed();
                    render_view(ViewHit {
                        relation,
                        rows,
                        elapsed,
                    })
                })
            };
            if let Ok(Some(rendered)) = catch_unwind(AssertUnwindSafe(probe)) {
                self.counters.served_view.fetch_add(1, Ordering::Relaxed);
                return TryRead::View(rendered);
            }
        }
        if !self.queue.is_idle() {
            return TryRead::Queue(admitted);
        }
        let read = Read {
            user,
            state,
            topk,
            requested: deadline,
        };
        match self.run_read(&admitted, &read, Locking::Try) {
            Some(result) => TryRead::Ran(result),
            None => TryRead::Queue(admitted),
        }
    }

    /// Run a ranked read on the calling thread and count its outcome;
    /// `None` if it did not run (see [`execute_read`]).
    fn run_read(
        &self,
        admitted: &Admitted,
        read: &Read<'_>,
        locking: Locking,
    ) -> Option<Result<ServiceAnswer, ServiceError>> {
        let result = execute_read(
            &self.db,
            &self.counters,
            &self.admission,
            admitted,
            read,
            None,
            locking,
        )?;
        self.record(&result);
        Some(result)
    }

    /// Admit one ranked read at `tier`: the two admission gates, in
    /// order. The CoDel-style sojourn controller sheds low tiers while
    /// queue dwell has stood above target for a sustained interval
    /// (never Interactive); the hard `max_in_flight` backstop then
    /// reserves a slot or sheds. A shed is the retryable
    /// [`ServiceError::Overloaded`]; the ticket holds the slot until
    /// it drops.
    pub fn admit(&self, tier: Priority) -> Result<Admitted, ServiceError> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let reason = if self.admission.sheds(tier) {
            &self.counters.shed_sojourn
        } else if self.in_flight.fetch_add(1, Ordering::AcqRel) < self.cfg.max_in_flight {
            return Ok(Admitted {
                in_flight: Arc::clone(&self.in_flight),
                tier,
                at: Instant::now(),
            });
        } else {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            &self.counters.shed_admission
        };
        record_shed(&self.counters, reason, tier);
        Err(ServiceError::Overloaded {
            limit: self.cfg.max_in_flight,
            retry_after: self.admission.retry_after(),
        })
    }

    fn enqueue(&self, job: Job) -> Result<(), ServiceError> {
        self.queue.push(job).map_err(|_| ServiceError::ShuttingDown)
    }

    /// An in-process read: queue it and wait at most its deadline.
    fn submit(
        &self,
        user: &str,
        state: &ContextState,
        topk: Option<usize>,
        deadline: Duration,
        tier: Priority,
    ) -> Result<ServiceAnswer, ServiceError> {
        let admitted = self.admit(tier)?;
        let expires = admitted.at + deadline;
        let cancelled = Arc::new(AtomicBool::new(false));
        let (reply, response) = mpsc::sync_channel(1);
        let (db, counters, admission) = (
            Arc::clone(&self.db),
            Arc::clone(&self.counters),
            Arc::clone(&self.admission),
        );
        let (user, state, flag) = (user.to_string(), state.clone(), Arc::clone(&cancelled));
        self.enqueue(Box::new(move || {
            let read = Read {
                user: &user,
                state: &state,
                topk,
                requested: deadline,
            };
            let result = execute_read(
                &db,
                &counters,
                &admission,
                &admitted,
                &read,
                Some(&flag),
                Locking::Wait,
            )
            .expect("a read that waits for its locks runs");
            let _ = reply.try_send(result);
        }))?;
        // Wait only the budget that remains: admission and enqueue
        // already consumed part of the requested deadline, and waiting
        // the full duration here would let the caller overstay the
        // instant the workers enforce.
        match response.recv_timeout(expires.saturating_duration_since(Instant::now())) {
            Ok(result) => {
                self.record(&result);
                result
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Cancel: the worker drops the job (or its result) when
                // it notices; the in-flight slot frees then.
                // Whichever side settles the flag first counts the miss:
                // a worker that already caught it past its deadline did.
                if !cancelled.swap(true, Ordering::AcqRel) {
                    self.counters
                        .deadline_exceeded
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(ServiceError::DeadlineExceeded { deadline })
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The worker vanished mid-request (only possible if a
                // panic escaped the containment, which the chaos suite
                // asserts never happens) — still a typed error.
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::QueryPanicked {
                    message: "worker disconnected before replying".to_string(),
                })
            }
        }
    }

    fn record(&self, result: &Result<ServiceAnswer, ServiceError>) {
        match result {
            Ok(answer) => {
                let counter = match answer.step {
                    LadderStep::View => &self.counters.served_view,
                    LadderStep::Cached => &self.counters.served_cached,
                    LadderStep::Exact => &self.counters.served_exact,
                    LadderStep::NearestState => &self.counters.served_nearest,
                    LadderStep::DefaultAnswer => &self.counters.served_default,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                let contained_panics = answer
                    .fallbacks
                    .iter()
                    .filter(|fb| fb.reason.starts_with("panic:"))
                    .count() as u64;
                if contained_panics > 0 {
                    self.counters
                        .panics_contained
                        .fetch_add(contained_panics, Ordering::Relaxed);
                }
            }
            // Counted where the miss was detected (`execute_read`).
            Err(ServiceError::DeadlineExceeded { .. }) => {}
            Err(ServiceError::QueryPanicked { .. }) => {
                self.counters
                    .panics_contained
                    .fetch_add(1, Ordering::Relaxed);
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Replace the query options used by every query on the database
    /// (`use_cache` and `top_k` are `ContextualDb`'s only, and have no
    /// effect here).
    pub fn set_query_defaults(&self, options: ctxpref_core::QueryOptions) {
        self.core().set_query_defaults(options);
    }

    /// Read access to the underlying sharded database (for inspection;
    /// queries should go through [`Self::query_state`] to get fault
    /// tolerance). The closure takes no lock itself — accessor methods
    /// on the core lock individual shards as needed.
    pub fn with_db<R>(&self, f: impl FnOnce(&ShardedMultiUserDb) -> R) -> R {
        f(&self.core())
    }

    /// Snapshot the database to `path`: an atomic, checksummed write,
    /// with transient I/O failures retried per the retry policy (capped
    /// by the storage deadline). The snapshot is taken shard by shard
    /// before any I/O starts, so the save never holds a shard lock
    /// across disk writes and queries proceed during the save.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ServiceError> {
        let snapshot = self.core().snapshot();
        retry_storage(
            &self.cfg.retry,
            self.cfg.storage_deadline,
            &self.counters,
            || ctxpref_wal::snapshot::save_multi_user(&path, &snapshot),
        )
    }

    /// Stop accepting requests, drain the workers, and return the
    /// database.
    pub fn shutdown(mut self) -> MultiUserDb {
        self.stop();
        let slot = Arc::clone(&self.db);
        drop(self);
        // The workers and maintenance threads are joined, so the slot
        // and the core inside it both have exactly one owner left.
        match Arc::try_unwrap(slot).map(RwLock::into_inner) {
            Ok(db) => match Arc::try_unwrap(db) {
                Ok(sharded) => sharded.into_db(),
                // A caller still holds a clone-derived reference
                // (cannot happen through the public API).
                Err(_arc) => unreachable!("shutdown consumes the only core handle"),
            },
            Err(_slot) => unreachable!("shutdown consumes the only service handle"),
        }
    }

    fn stop(&mut self) {
        self.shutting_down.store(true, Ordering::Release);
        // Maintenance first: dropping a stop sender disconnects that
        // thread's recv_timeout loop.
        for (stop, handle) in self.maintenance.drain(..) {
            drop(stop);
            let _ = handle.join();
        }
        // Best-effort: make pending group-commit records durable on a
        // clean shutdown, in every log the write path lands in.
        let _ = self.flush_wal();
        self.queue.close(); // the workers finish what is queued, then stop
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // The write path's handles go with the service itself: every
        // caller of `stop` drops it next, which releases the durable
        // directory (or every node's directory lock and core handle —
        // the tick thread's clone was joined with the maintenance
        // drain) before shutdown()'s Arc::try_unwrap looks.
    }
}

impl Drop for CtxPrefService {
    fn drop(&mut self) {
        self.stop();
    }
}
