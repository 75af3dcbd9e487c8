#![warn(missing_docs)]
//! Deterministic, seedable fault injection.
//!
//! Production code marks **named sites** — `faults::hit("storage.write.flush")?`
//! — at the points where real deployments fail: I/O boundaries, cache
//! lookups, query execution. A test installs a [`FaultPlan`] describing
//! *which* sites misbehave and *how* (typed errors, injected delays,
//! forced panics, truncated writes); without an installed plan every
//! site is a single relaxed atomic load, so the instrumentation is free
//! in production.
//!
//! Decisions are **deterministic**: a probability rule at a site fires
//! purely as a function of `(plan seed, rule, site name, per-site hit
//! index)`, so a seeded chaos run injects the same faults at the same
//! operations every time, regardless of unrelated interleavings.
//!
//! ```
//! use ctxpref_faults::{FaultPlan, hit};
//!
//! let plan = FaultPlan::builder(42).fail("demo.op", 0.5).build();
//! let injected = plan.run(|| {
//!     (0..100).filter(|_| hit("demo.op").is_err()).count()
//! });
//! assert!(injected > 20 && injected < 80);
//! ```
//!
//! [`counters!`] is how each layer of the serving stack declares its
//! counters, and [`clock`] is where every layer reads time and waits: a
//! plan built with [`FaultPlanBuilder::manual_clock`] makes that time
//! stand still until the test advances it.

pub mod clock;

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Duration;

use clock::ManualClock;

/// The registry of named fault sites threaded through the workspace.
///
/// Sites are plain strings — nothing stops a crate from marking a new
/// one — but the durability test matrix ("inject a kill at *every*
/// registered site") needs an authoritative list, so write-path sites
/// are declared here next to the machinery that drives them.
pub mod sites {
    /// Opening the temp file of an atomic snapshot save.
    pub const STORAGE_SAVE_OPEN: &str = "storage.save.open";
    /// Writing the payload of an atomic snapshot save (honours
    /// truncation faults: only a prefix persists).
    pub const STORAGE_SAVE_WRITE: &str = "storage.save.write";
    /// Fsyncing the temp file of an atomic snapshot save.
    pub const STORAGE_SAVE_SYNC: &str = "storage.save.sync";
    /// Renaming the temp file over the destination.
    pub const STORAGE_SAVE_RENAME: &str = "storage.save.rename";
    /// Opening a snapshot file for loading.
    pub const STORAGE_LOAD_OPEN: &str = "storage.load.open";
    /// Reading a snapshot file's bytes.
    pub const STORAGE_LOAD_READ: &str = "storage.load.read";
    /// Writing a framed record to a WAL segment (honours truncation
    /// faults: a torn tail persists).
    pub const WAL_APPEND_WRITE: &str = "wal.append.write";
    /// Fsyncing a WAL segment (per-record append sync and group-commit
    /// flush both pass through here).
    pub const WAL_APPEND_SYNC: &str = "wal.append.sync";
    /// Rotating a WAL shard onto a fresh segment file.
    pub const WAL_ROTATE: &str = "wal.rotate";
    /// Atomically swapping the checkpoint manifest into place.
    pub const MANIFEST_SWAP: &str = "manifest.swap";
    /// A replication message leaving the sender: an injected error
    /// drops the message on the floor (the network ate it).
    pub const REPL_SEND_DROP: &str = "repl.send.drop";
    /// A replication message in flight: an injected delay holds it
    /// before delivery, modelling a slow or congested link.
    pub const REPL_SEND_DELAY: &str = "repl.send.delay";
    /// A replication message that the network delivers twice; the
    /// receiver's LSN cursor must deduplicate it.
    pub const REPL_SEND_DUPLICATE: &str = "repl.send.duplicate";
    /// A full network partition between two nodes: while the fault
    /// fires, every message (and heartbeat) between them is dropped.
    pub const REPL_PARTITION: &str = "repl.partition";
    /// A heartbeat that the network drops without affecting data
    /// traffic, exercising failure-detector false positives.
    pub const REPL_HEARTBEAT_DROP: &str = "repl.heartbeat.drop";

    /// Accepting one TCP connection on a serving or replication
    /// listener: an injected error refuses the connection (the accept
    /// loop stays up and keeps serving).
    pub const NET_ACCEPT: &str = "net.accept";
    /// Reading one wire frame off a socket: an injected error surfaces
    /// as a connection-level I/O failure on the reader.
    pub const NET_FRAME_READ: &str = "net.frame.read";
    /// Writing one wire frame onto a socket: an injected error surfaces
    /// as a connection-level I/O failure on the writer.
    pub const NET_FRAME_WRITE: &str = "net.frame.write";
    /// A live connection stalling: an injected delay holds the next
    /// frame exchange, modelling a congested or half-dead link.
    pub const NET_CONN_DELAY: &str = "net.conn.delay";
    /// A live connection dying mid-exchange: an injected error severs
    /// it, forcing the peer onto its reconnect path.
    pub const NET_CONN_DROP: &str = "net.conn.drop";

    /// A service worker picking a job off the queue: an injected delay
    /// stalls the whole pool, letting overload tests grow queue
    /// sojourn deterministically (expired-in-queue jobs must be
    /// counted and dropped, never executed).
    pub const SVC_WORKER_DEQUEUE: &str = "svc.worker.dequeue";

    /// The migration driver's snapshot/copy step (export + import of
    /// the user's profile): an injected error aborts the migration,
    /// which must roll back cleanly and leave the source serving.
    pub const ROUTER_MIGRATE_COPY: &str = "router.migrate.copy";
    /// One catch-up round of the migration driver (pulling and
    /// applying a page of the user's WAL suffix): an injected error
    /// forces a retry or an abort, never a stale apply.
    pub const ROUTER_MIGRATE_CATCHUP: &str = "router.migrate.catchup";
    /// The cut-over step (fence → final drain → digest check → flip):
    /// an injected error here must either complete the flip or unfence
    /// the source — never strand the user unowned.
    pub const ROUTER_MIGRATE_CUTOVER: &str = "router.migrate.cutover";

    /// Every registered routing-tier migration site: the router chaos
    /// matrix injects failures at each migration phase and asserts the
    /// single-owner and acked-write invariants still hold.
    pub const ROUTER_SITES: &[&str] = &[
        ROUTER_MIGRATE_COPY,
        ROUTER_MIGRATE_CATCHUP,
        ROUTER_MIGRATE_CUTOVER,
    ];

    /// Reading framed records back out of a WAL segment (recovery
    /// replay and catch-up reads): an injected error models a read
    /// I/O failure — the sector is there but the disk won't serve it.
    pub const WAL_READ: &str = "wal.read";
    /// One file visited by the background scrubber: an injected error
    /// models a transient read failure during verification (the
    /// scrubber must skip the file, count it, and keep walking — a
    /// flaky read is not corruption and must not quarantine).
    pub const WAL_SCRUB: &str = "wal.scrub";
    /// Loading a checkpoint snapshot for scrub verification or
    /// recovery: an injected error models an unreadable snapshot.
    pub const CHECKPOINT_READ: &str = "checkpoint.read";
    /// The volume running out of space: while the fault fires, WAL
    /// appends shed with a typed retryable `DiskFull` error; reads
    /// keep serving and writes resume when the window closes.
    pub const DISK_FULL: &str = "disk.full";

    /// Every registered disk-fault site: the disk-chaos matrix drives
    /// ENOSPC windows, read I/O errors, and at-rest corruption through
    /// these, and the self-healing invariants (no acked-write loss
    /// while a healthy replica exists, no panic, digest convergence
    /// after repair) must hold under any combination.
    pub const DISK_SITES: &[&str] = &[WAL_READ, WAL_SCRUB, CHECKPOINT_READ, DISK_FULL];

    /// Every registered TCP serving-layer site: the socket chaos tests
    /// drive refused accepts, torn frames, stalls, and dropped
    /// connections through these, and the serving/replication
    /// invariants must hold under any combination.
    pub const NET_SITES: &[&str] = &[
        NET_ACCEPT,
        NET_FRAME_READ,
        NET_FRAME_WRITE,
        NET_CONN_DELAY,
        NET_CONN_DROP,
    ];

    /// Every registered replication *network* site: the seeded chaos
    /// matrix drives partitions, message loss, duplication, and delay
    /// through these, and the replication invariants (no acked-write
    /// loss, epoch-monotonic promotions, digest convergence) must hold
    /// under any combination.
    pub const NETWORK_SITES: &[&str] = &[
        REPL_SEND_DROP,
        REPL_SEND_DELAY,
        REPL_SEND_DUPLICATE,
        REPL_PARTITION,
        REPL_HEARTBEAT_DROP,
    ];

    /// Every registered *write-path* site: a crash injected at any of
    /// these must never lose an acknowledged mutation. This is the
    /// matrix the crash-recovery fuzz walks.
    pub const DURABILITY_SITES: &[&str] = &[
        STORAGE_SAVE_OPEN,
        STORAGE_SAVE_WRITE,
        STORAGE_SAVE_SYNC,
        STORAGE_SAVE_RENAME,
        WAL_APPEND_WRITE,
        WAL_APPEND_SYNC,
        WAL_ROTATE,
        MANIFEST_SWAP,
    ];
}

/// Declare a group of event counters once: each is one line of the
/// table, its doc comment and its name. The macro generates the cells
/// struct (one `AtomicU64` per counter, bumped with `fetch_add(n,
/// Relaxed)` where the event happens), the snapshot struct (one `u64`
/// per counter; `Debug`, `Clone`, `Default`, `PartialEq`, `Eq`, plus a
/// caller's `#[derive(Copy)]`) and the cells' `snapshot`, which loads
/// each counter `Relaxed`: a statistic publishes no other data, so a
/// snapshot is independent reads, not a consistent cut. Fields after a
/// `;` belong to the snapshot only: figures another layer owns, left at
/// `Default` for the owner to fill in.
///
/// ```
/// use std::sync::atomic::Ordering;
///
/// ctxpref_faults::counters! {
///     /// Live cells, bumped where the events happen.
///     struct Cells;
///     /// A point-in-time copy of the cells.
///     #[derive(Copy)]
///     pub struct Totals {
///         /// Requests answered.
///         answered,
///         /// Requests refused.
///         refused,
///     }
/// }
///
/// let cells = Cells::default();
/// cells.answered.fetch_add(2, Ordering::Relaxed);
/// assert_eq!(cells.snapshot(), Totals { answered: 2, refused: 0 });
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$cells_attr:meta])*
        $cells_vis:vis struct $cells:ident;
        $(#[$snap_attr:meta])*
        $snap_vis:vis struct $snap:ident {
            $( $(#[$doc:meta])* $name:ident, )+
            $( ; $( $(#[$extra_doc:meta])* $extra_vis:vis $extra:ident : $extra_ty:ty, )+ )?
        }
    ) => {
        $(#[$cells_attr])*
        #[derive(Debug, Default)]
        $cells_vis struct $cells {
            $( $(#[$doc])* pub $name: ::std::sync::atomic::AtomicU64, )+
        }

        $(#[$snap_attr])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        $snap_vis struct $snap {
            $( $(#[$doc])* pub $name: u64, )+
            $( $( $(#[$extra_doc])* $extra_vis $extra: $extra_ty, )+ )?
        }

        impl $cells {
            /// Load every counter (`Relaxed`: none publishes other data).
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $name: self.$name.load(::std::sync::atomic::Ordering::Relaxed), )+
                    $( $( $extra: ::std::default::Default::default(), )+ )?
                }
            }
        }
    };
}

/// What an injected fault did (or would do) at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation reports a (typed, recoverable) failure.
    Error,
    /// The operation panics, as a corrupted invariant would.
    Panic,
    /// The operation is delayed before proceeding.
    Delay,
    /// A write persists only a prefix of its payload.
    Truncate,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Error => write!(f, "error"),
            Self::Panic => write!(f, "panic"),
            Self::Delay => write!(f, "delay"),
            Self::Truncate => write!(f, "truncate"),
        }
    }
}

/// The typed error produced when a site is told to fail.
#[derive(Debug, Clone)]
pub struct InjectedFault {
    /// The site that failed.
    pub site: String,
    /// 1-based index of the hit at that site that failed.
    pub hit: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} (hit #{})", self.site, self.hit)
    }
}

impl Error for InjectedFault {}

/// When a rule fires.
#[derive(Debug, Clone)]
enum Trigger {
    /// Deterministically, with the given per-hit probability.
    Probability(f64),
    /// Exactly at these 1-based hit indices of the site.
    AtHits(Vec<u64>),
    /// Every `n`-th hit (n ≥ 1).
    EveryNth(u64),
    /// Every hit in the inclusive 1-based window `[first, last]` — a
    /// sustained condition (a full disk, a long brown-out) rather than
    /// a point fault.
    HitWindow(u64, u64),
}

#[derive(Debug, Clone)]
struct Rule {
    /// Site name, or a prefix ending in `*`.
    pattern: String,
    trigger: Trigger,
    kind: FaultKind,
    delay: Duration,
    /// For [`FaultKind::Truncate`]: keep this fraction of the payload.
    keep_fraction: f64,
}

impl Rule {
    fn matches(&self, site: &str) -> bool {
        match self.pattern.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.pattern == site,
        }
    }

    /// Deterministic decision for hit `hit` of `site` under `seed`.
    /// `salt` is the rule's index in the plan, so several probability
    /// rules on the same site draw independently instead of sharing one
    /// uniform value (which would let the first rule shadow the rest).
    fn fires(&self, seed: u64, site: &str, hit: u64, salt: u64) -> bool {
        match &self.trigger {
            Trigger::Probability(p) => {
                let salt = salt.wrapping_mul(0xa24b_aed4_963e_e407);
                let h = mix(seed ^ fnv(site) ^ fnv(&self.pattern) ^ salt, hit);
                (h >> 11) as f64 / (1u64 << 53) as f64 * 1.0 < *p
            }
            Trigger::AtHits(hits) => hits.contains(&hit),
            Trigger::EveryNth(n) => hit.is_multiple_of((*n).max(1)),
            Trigger::HitWindow(first, last) => (*first..=*last).contains(&hit),
        }
    }
}

fn fnv(s: &str) -> u64 {
    ctxpref_bytes::fnv1a64(s.as_bytes())
}

fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counters of what a plan injected, for test assertions.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Injected typed errors, per site.
    pub errors: HashMap<String, u64>,
    /// Forced panics, per site.
    pub panics: HashMap<String, u64>,
    /// Injected delays, per site.
    pub delays: HashMap<String, u64>,
    /// Truncated writes, per site.
    pub truncations: HashMap<String, u64>,
}

impl FaultStats {
    /// Total number of injected faults of every kind.
    pub fn total(&self) -> u64 {
        [&self.errors, &self.panics, &self.delays, &self.truncations]
            .iter()
            .flat_map(|m| m.values())
            .sum()
    }
}

#[derive(Debug, Default)]
struct PlanState {
    hits: HashMap<String, u64>,
    stats: FaultStats,
}

/// A deterministic, seedable description of which sites fail and how.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
    state: Mutex<PlanState>,
    clock: Option<Arc<ManualClock>>,
}

/// Builder for [`FaultPlan`].
#[derive(Debug)]
pub struct FaultPlanBuilder {
    seed: u64,
    rules: Vec<Rule>,
    manual_clock: bool,
}

impl FaultPlanBuilder {
    fn rule(mut self, pattern: &str, trigger: Trigger, kind: FaultKind) -> Self {
        self.rules.push(Rule {
            pattern: pattern.to_string(),
            trigger,
            kind,
            delay: Duration::from_millis(1),
            keep_fraction: 0.5,
        });
        self
    }

    /// Fail `site` (exact name, or prefix ending in `*`) with per-hit
    /// probability `p`.
    #[must_use]
    pub fn fail(self, site: &str, p: f64) -> Self {
        self.rule(site, Trigger::Probability(p), FaultKind::Error)
    }

    /// Fail `site` exactly at the given 1-based hit indices.
    #[must_use]
    pub fn fail_at(self, site: &str, hits: &[u64]) -> Self {
        self.rule(site, Trigger::AtHits(hits.to_vec()), FaultKind::Error)
    }

    /// Fail every `n`-th hit of `site` (n ≥ 1).
    #[must_use]
    pub fn fail_every(self, site: &str, n: u64) -> Self {
        self.rule(site, Trigger::EveryNth(n), FaultKind::Error)
    }

    /// Fail every hit of `site` inside the inclusive 1-based window
    /// `[first, last]` — a sustained outage (ENOSPC until space is
    /// freed) rather than a point fault. Hits before and after the
    /// window succeed, so recovery-after-the-condition-clears is
    /// exercised in the same run.
    #[must_use]
    pub fn fail_between(self, site: &str, first: u64, last: u64) -> Self {
        self.rule(site, Trigger::HitWindow(first, last), FaultKind::Error)
    }

    /// Panic at `site` with per-hit probability `p`.
    #[must_use]
    pub fn panic(self, site: &str, p: f64) -> Self {
        self.rule(site, Trigger::Probability(p), FaultKind::Panic)
    }

    /// Panic at `site` exactly at the given 1-based hit indices.
    #[must_use]
    pub fn panic_at(self, site: &str, hits: &[u64]) -> Self {
        self.rule(site, Trigger::AtHits(hits.to_vec()), FaultKind::Panic)
    }

    /// Sleep `delay` at `site` with per-hit probability `p`.
    #[must_use]
    pub fn delay(mut self, site: &str, p: f64, delay: Duration) -> Self {
        self = self.rule(site, Trigger::Probability(p), FaultKind::Delay);
        self.rules.last_mut().expect("rule just pushed").delay = delay;
        self
    }

    /// Sleep `delay` at `site` exactly at the given 1-based hit
    /// indices (the deterministic sibling of [`Self::delay`], for
    /// tests that must slow one specific operation — e.g. the first
    /// request of a pipelined burst — and no other).
    #[must_use]
    pub fn delay_at(mut self, site: &str, hits: &[u64], delay: Duration) -> Self {
        self = self.rule(site, Trigger::AtHits(hits.to_vec()), FaultKind::Delay);
        self.rules.last_mut().expect("rule just pushed").delay = delay;
        self
    }

    /// Truncate writes at `site` with per-hit probability `p`, keeping
    /// `keep_fraction` of the payload.
    #[must_use]
    pub fn truncate(mut self, site: &str, p: f64, keep_fraction: f64) -> Self {
        self = self.rule(site, Trigger::Probability(p), FaultKind::Truncate);
        self.rules
            .last_mut()
            .expect("rule just pushed")
            .keep_fraction = keep_fraction.clamp(0.0, 1.0);
        self
    }

    /// Truncate writes at `site` exactly at the given 1-based hits.
    #[must_use]
    pub fn truncate_at(mut self, site: &str, hits: &[u64], keep_fraction: f64) -> Self {
        self = self.rule(site, Trigger::AtHits(hits.to_vec()), FaultKind::Truncate);
        self.rules
            .last_mut()
            .expect("rule just pushed")
            .keep_fraction = keep_fraction.clamp(0.0, 1.0);
        self
    }

    /// Give the plan a manual clock: while it is installed, [`clock`]
    /// reads a time that stands still until the test calls
    /// [`FaultPlan::advance`], and every sleep and timed wait (delay
    /// faults included) waits on that time.
    #[must_use]
    pub fn manual_clock(mut self) -> Self {
        self.manual_clock = true;
        self
    }

    /// Finish the plan.
    pub fn build(self) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            seed: self.seed,
            rules: self.rules,
            state: Mutex::default(),
            clock: self.manual_clock.then(|| Arc::new(ManualClock::new())),
        })
    }
}

impl FaultPlan {
    /// Start building a plan whose probability decisions derive from
    /// `seed`.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            rules: Vec::new(),
            manual_clock: false,
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Counters of everything injected so far.
    pub fn stats(&self) -> FaultStats {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats
            .clone()
    }

    /// How many times `site` has been *hit* under this plan (whether or
    /// not anything was injected). A calibration run under an empty
    /// plan uses this to learn how many kill points a workload exposes
    /// at each site before targeting one of them.
    pub fn hit_count(&self, site: &str) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .hits
            .get(site)
            .copied()
            .unwrap_or(0)
    }

    /// Hit counters for every site touched under this plan.
    pub fn hit_counts(&self) -> HashMap<String, u64> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .hits
            .clone()
    }

    /// Install this plan globally, run `f`, then restore the previous
    /// plan (panic-safe). Returns `f`'s result.
    pub fn run<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        let _guard = install(Arc::clone(self));
        f()
    }

    /// Record a hit of `site`; decide what, if anything, to inject.
    fn decide(&self, site: &str) -> Option<(FaultKind, Duration, f64, u64)> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let hit = {
            let h = state.hits.entry(site.to_string()).or_insert(0);
            *h += 1;
            *h
        };
        for (idx, rule) in self.rules.iter().enumerate() {
            if rule.matches(site) && rule.fires(self.seed, site, hit, idx as u64) {
                let counter = match rule.kind {
                    FaultKind::Error => &mut state.stats.errors,
                    FaultKind::Panic => &mut state.stats.panics,
                    FaultKind::Delay => &mut state.stats.delays,
                    FaultKind::Truncate => &mut state.stats.truncations,
                };
                *counter.entry(site.to_string()).or_insert(0) += 1;
                return Some((rule.kind, rule.delay, rule.keep_fraction, hit));
            }
        }
        None
    }
}

fn global() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static PLAN: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();
    PLAN.get_or_init(|| RwLock::new(None))
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

/// RAII guard restoring the previously installed plan on drop.
pub struct PlanGuard {
    previous: Option<Arc<FaultPlan>>,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        let mut slot = global().write().unwrap_or_else(|e| e.into_inner());
        ACTIVE.store(self.previous.is_some(), Ordering::Release);
        let manual = self.previous.as_ref().is_some_and(|p| p.clock.is_some());
        clock::MANUAL.store(manual, Ordering::Relaxed);
        *slot = self.previous.take();
    }
}

/// Install `plan` as the process-wide fault plan, and its manual clock
/// as the process's clock if it has one, until the returned guard
/// drops. Nested installs restore the outer plan.
pub fn install(plan: Arc<FaultPlan>) -> PlanGuard {
    let mut slot = global().write().unwrap_or_else(|e| e.into_inner());
    clock::MANUAL.store(plan.clock.is_some(), Ordering::Relaxed);
    let previous = slot.replace(plan);
    ACTIVE.store(true, Ordering::Release);
    PlanGuard { previous }
}

/// Exclusive use of the process-wide plan slot. The plan is global but
/// the test harness runs tests on parallel threads, so any test that
/// installs a plan, or that depends on none being installed, holds
/// this guard for its whole body. A test that panicked while holding
/// it does not poison it for the rest.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static SLOT: Mutex<()> = Mutex::new(());
    SLOT.lock().unwrap_or_else(|e| e.into_inner())
}

/// The currently installed plan, if any.
pub fn current() -> Option<Arc<FaultPlan>> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    global().read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Mark a fault site. With no plan installed this is one atomic load.
/// Under a plan it may sleep (delay faults), panic (forced panics), or
/// return the typed [`InjectedFault`] (error faults).
pub fn hit(site: &str) -> Result<(), InjectedFault> {
    let Some(plan) = current() else { return Ok(()) };
    match plan.decide(site) {
        None => Ok(()),
        Some((FaultKind::Delay, d, _, _)) => {
            clock::sleep(d);
            Ok(())
        }
        Some((FaultKind::Panic, _, _, hit)) => {
            panic!("injected panic at {site} (hit #{hit})");
        }
        Some((FaultKind::Error, _, _, hit)) => Err(InjectedFault {
            site: site.to_string(),
            hit,
        }),
        // Truncation is only meaningful through `truncated_len`; at a
        // plain site it degrades to an error.
        Some((FaultKind::Truncate, _, _, hit)) => Err(InjectedFault {
            site: site.to_string(),
            hit,
        }),
    }
}

/// Mark a *write* site of `full_len` bytes: returns the number of bytes
/// that should actually be persisted. `full_len` when no truncation
/// fault fires.
pub fn truncated_len(site: &str, full_len: usize) -> usize {
    let Some(plan) = current() else {
        return full_len;
    };
    match plan.decide(site) {
        Some((FaultKind::Truncate, _, keep, _)) => ((full_len as f64) * keep).floor() as usize,
        Some((FaultKind::Delay, d, _, _)) => {
            clock::sleep(d);
            full_len
        }
        _ => full_len,
    }
}

/// `hit` adapted to `std::io`: injected faults become `io::Error` (kind
/// `Other`) with the [`InjectedFault`] as source, so I/O plumbing can
/// propagate them unchanged.
pub fn hit_io(site: &str) -> std::io::Result<()> {
    hit(site).map_err(std::io::Error::other)
}

/// At-rest corruption: deterministic bit flips and truncations of
/// named files *between* operations, modelling media decay rather than
/// in-flight I/O faults. The disk-chaos matrix damages sealed WAL
/// segments and checkpoint snapshots through these and asserts the
/// scrubber quarantines (and replication repairs) every injury.
pub mod at_rest {
    use std::fs::OpenOptions;
    use std::io::{Read, Seek, SeekFrom, Write};
    use std::path::Path;

    use super::{fnv, mix};

    /// Where a file was damaged, for test logs and assertions.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Damage {
        /// One bit at this byte offset was inverted.
        BitFlip {
            /// Byte offset of the flipped bit.
            offset: u64,
        },
        /// The file was cut down to this length.
        Truncated {
            /// The file's new length.
            len: u64,
        },
    }

    /// Seed material that is stable across runs: the file *name* (not
    /// the tempdir-prefixed path) and length.
    fn file_salt(path: &Path, len: u64) -> u64 {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        mix(fnv(&name), len)
    }

    /// Deterministically invert one bit of `path`, skipping the first
    /// `min_offset` bytes (so a test can spare a header and target
    /// payload bytes). Returns `None` without touching the file when
    /// it has no bytes past `min_offset`. The damaged offset depends
    /// only on `(seed, file name, file length)`.
    pub fn flip_bit(path: &Path, seed: u64, min_offset: u64) -> std::io::Result<Option<Damage>> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len <= min_offset {
            return Ok(None);
        }
        let h = mix(seed ^ file_salt(path, len), 0x1);
        let offset = min_offset + h % (len - min_offset);
        let bit = (h >> 32) % 8;
        let mut byte = [0u8];
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut byte)?;
        byte[0] ^= 1 << bit;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(&byte)?;
        file.sync_all()?;
        Ok(Some(Damage::BitFlip { offset }))
    }

    /// Deterministically truncate `path` to a length in
    /// `[min_offset, len)`. Returns `None` without touching the file
    /// when it has no bytes past `min_offset`. The cut point depends
    /// only on `(seed, file name, file length)`.
    pub fn truncate(path: &Path, seed: u64, min_offset: u64) -> std::io::Result<Option<Damage>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len <= min_offset {
            return Ok(None);
        }
        let h = mix(seed ^ file_salt(path, len), 0x2);
        let new_len = min_offset + h % (len - min_offset);
        file.set_len(new_len)?;
        file.sync_all()?;
        Ok(Some(Damage::Truncated { len: new_len }))
    }
}
