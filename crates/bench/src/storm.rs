//! Open-loop overload storm (PR 9): a full TCP cluster driven past
//! capacity while a scheduled fault timeline fires underneath it.
//!
//! Two phases:
//!
//! 1. **Capacity** — a short closed-loop run against the healthy
//!    cluster establishes the single-tier capacity the storm is
//!    measured against.
//! 2. **Storm** — open-loop arrivals at `overload_factor ×` capacity
//!    for the full window: Zipf-distributed users, a ~70/25/5
//!    interactive/bulk/maintenance tier mix, and latency accounted
//!    from each request's **scheduled arrival time** (coordinated
//!    omission counts against the system, not for it). Meanwhile a
//!    driver-clock fault timeline kills the primary, opens a
//!    disk-full window, and injects a network delay burst; a writer
//!    thread keeps inserting preferences so the zero-acked-loss claim
//!    is checked across the failover.
//!
//! The report carries per-tier p50/p99/p999, goodput against the
//! declared SLOs, and the shed counts that show lower tiers absorbing
//! the overload so interactive traffic stays inside its SLO.
//!
//! Run via `cargo run -p ctxpref-bench --release --bin serving_bench --
//! --storm`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctxpref_core::MultiUserDb;
use ctxpref_faults::{sites, FaultPlan};
use ctxpref_net::{NetClient, NetClientConfig, NetServer, NetServerConfig, Priority};
use ctxpref_router::{Router, RouterConfig, RouterError};
use ctxpref_service::{CtxPrefService, ReplicatedConfig, ServiceConfig};
use ctxpref_workload::reference::{tiny_env, tiny_relation};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::ShapeCheck;

/// Workload and fault-timeline knobs for the storm.
#[derive(Debug, Clone, Copy)]
pub struct StormBenchConfig {
    /// Registered users, sampled by a Zipf law.
    pub users: usize,
    /// Zipf skew exponent.
    pub zipf_s: f64,
    /// Result size per query.
    pub k: usize,
    /// Closed-loop window establishing the capacity baseline.
    pub capacity_window: Duration,
    /// Closed-loop workers in the capacity phase.
    pub capacity_workers: usize,
    /// Open-loop storm duration.
    pub storm_duration: Duration,
    /// Arrival rate as a multiple of measured capacity (≥ 2 is the
    /// acceptance bar: past saturation, not near it).
    pub overload_factor: f64,
    /// Interactive share of arrivals (the rest splits bulk-heavy).
    pub interactive_share: f64,
    /// Bulk share of arrivals.
    pub bulk_share: f64,
    /// End-to-end budget per interactive request.
    pub interactive_deadline: Duration,
    /// End-to-end budget per bulk request.
    pub bulk_deadline: Duration,
    /// End-to-end budget per maintenance request.
    pub maintenance_deadline: Duration,
    /// Primary kill fires this far into the storm.
    pub kill_at: Duration,
    /// Disk-full window opens this far into the storm …
    pub disk_full_at: Duration,
    /// … and stays open this long.
    pub disk_full_window: Duration,
    /// Network delay burst opens this far into the storm …
    pub net_delay_at: Duration,
    /// … stays open this long …
    pub net_delay_window: Duration,
    /// … delaying this fraction of frame exchanges …
    pub net_delay_p: f64,
    /// … by this much each.
    pub net_delay: Duration,
    /// SLO: interactive p99 (scheduled-arrival accounting) under the
    /// storm.
    pub slo_interactive_p99: Duration,
    /// SLO: total goodput as a fraction of the capacity baseline.
    pub goodput_floor: f64,
    /// Deterministic per-job service-time floor, injected at the
    /// worker-dequeue fault site for the whole run (capacity phase
    /// included). The reference query is microseconds on this
    /// substrate; the floor pins capacity to a known, machine-
    /// independent figure so "2× capacity" is a real overload and not
    /// a race against the load generator.
    pub service_time: Duration,
    /// Sojourn target handed to the service's admission controller.
    pub codel_target: Duration,
    /// Seed for the Zipf/tier/jitter generators.
    pub seed: u64,
}

impl Default for StormBenchConfig {
    fn default() -> Self {
        Self {
            users: 64,
            zipf_s: 1.1,
            k: 3,
            capacity_window: Duration::from_millis(1500),
            capacity_workers: 4,
            storm_duration: Duration::from_secs(8),
            overload_factor: 2.0,
            interactive_share: 0.70,
            bulk_share: 0.25,
            interactive_deadline: Duration::from_millis(250),
            bulk_deadline: Duration::from_millis(1000),
            maintenance_deadline: Duration::from_millis(1000),
            kill_at: Duration::from_secs(2),
            disk_full_at: Duration::from_secs(4),
            disk_full_window: Duration::from_secs(1),
            net_delay_at: Duration::from_secs(6),
            net_delay_window: Duration::from_secs(1),
            net_delay_p: 0.05,
            net_delay: Duration::from_millis(10),
            slo_interactive_p99: Duration::from_millis(750),
            goodput_floor: 0.70,
            service_time: Duration::from_millis(1),
            codel_target: Duration::from_millis(5),
            seed: 9,
        }
    }
}

impl StormBenchConfig {
    /// Shrink every window for a CI smoke run.
    pub fn quick(mut self) -> Self {
        self.capacity_window = Duration::from_millis(300);
        self.storm_duration = Duration::from_millis(2000);
        self.kill_at = Duration::from_millis(500);
        self.disk_full_at = Duration::from_millis(1000);
        self.disk_full_window = Duration::from_millis(250);
        self.net_delay_at = Duration::from_millis(1500);
        self.net_delay_window = Duration::from_millis(250);
        self
    }
}

/// Outcome counters and latency percentiles of one priority tier.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierOutcome {
    /// Arrivals issued at this tier.
    pub issued: u64,
    /// Completed with an answer.
    pub ok: u64,
    /// Shed with a typed busy (admission or sojourn control).
    pub shed: u64,
    /// Budget ran out client-side before another attempt.
    pub budget_exhausted: u64,
    /// Server-side typed deadline failures.
    pub deadline: u64,
    /// Everything else (transport, transient refusals past retry).
    pub other: u64,
    /// Median completion latency from scheduled arrival, microseconds.
    pub p50_us: u64,
    /// p99 completion latency from scheduled arrival, microseconds.
    pub p99_us: u64,
    /// p999 completion latency from scheduled arrival, microseconds.
    pub p999_us: u64,
}

impl TierOutcome {
    /// Fraction of this tier's arrivals shed with a typed busy.
    pub fn shed_fraction(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.shed as f64 / self.issued as f64
        }
    }
}

/// What the acked-write ledger saw across the primary kill.
#[derive(Debug, Clone)]
pub struct WriteLedger {
    /// Writes the router acked.
    pub acked: u64,
    /// Writes refused typed (busy, disk-full, migration fences) —
    /// never counted, never expected to survive.
    pub refused: u64,
    /// Acked writes found on the post-storm primary.
    pub survived: u64,
    /// Every acked write present afterwards.
    pub zero_loss: bool,
}

/// Full storm report.
#[derive(Debug)]
pub struct StormBenchReport {
    /// The configuration that produced the numbers.
    pub config: StormBenchConfig,
    /// Healthy-cluster closed-loop capacity, queries/second.
    pub capacity_qps: f64,
    /// The open-loop arrival rate the storm ran at.
    pub offered_qps: f64,
    /// Per-tier outcomes: `[interactive, bulk, maintenance]`.
    pub tiers: [TierOutcome; 3],
    /// Completed requests per second across every tier during the
    /// storm.
    pub goodput_qps: f64,
    /// The acked-write ledger across the failover.
    pub writes: WriteLedger,
    /// The server's own shed breakdown, rendered from its stats verb.
    pub server_stats: String,
    /// Pass/fail claims.
    pub checks: Vec<ShapeCheck>,
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("ctxpref-bench-storm-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Zipf sampler over `0..n` via an inverse-CDF table.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Per-worker tally, merged by the driver.
#[derive(Default)]
struct WorkerTally {
    counts: [TierOutcome; 3],
    latencies: [Vec<u64>; 3],
}

fn tier_index(t: Priority) -> usize {
    t.wire_tag() as usize
}

/// Run the full storm benchmark.
pub fn run(cfg: StormBenchConfig) -> StormBenchReport {
    let tmp = TempDir::new("cluster");
    let db = MultiUserDb::new(tiny_env(), tiny_relation(), 4);
    let mut rcfg = ReplicatedConfig::new(&tmp.0, 3);
    rcfg.heartbeat_threshold = 2;
    // A tight sojourn target so the admission controller reaches its
    // bulk-shedding pressure level well before the bounded queue's
    // worst-case wait: tier separation has to come from the
    // controller, not from the hard in-flight backstop (which is
    // tier-blind).
    let svc_cfg = ServiceConfig {
        codel_target: cfg.codel_target,
        ..ServiceConfig::default()
    };
    let service = Arc::new(
        CtxPrefService::new_replicated(db, svc_cfg, rcfg).expect("replicated storm cluster"),
    );
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetServerConfig {
            max_connections: 256,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    // The load generator surfaces sheds immediately (one busy means
    // shed, honestly counted) but rides transient failover refusals.
    let router_cfg = RouterConfig {
        client: NetClientConfig {
            busy_attempts: 1,
            ..NetClientConfig::default()
        },
        ..RouterConfig::default()
    };
    let mut router = Router::new(vec![vec![addr.clone()]], router_cfg);

    let users: Vec<String> = (0..cfg.users).map(|i| format!("user{i}")).collect();
    for user in &users {
        router.add_user(user).expect("seeding a storm user");
        // "alpha" is a live tuple in `tiny_relation`, so queries rank
        // and return a real row.
        router
            .insert_preference(user, "*", "name", "alpha", 0.8)
            .expect("seeding a storm preference");
    }

    // The service-time floor: every dequeued job pays a deterministic
    // delay at the worker-dequeue site, pinning capacity to
    // workers / service_time regardless of host speed. Installed
    // before the capacity phase and held through the storm so both
    // phases measure the same machine. (Expired jobs skip the site —
    // dropping is free; only executed work pays.)
    let _service_floor = ctxpref_faults::install(
        FaultPlan::builder(cfg.seed)
            .delay(sites::SVC_WORKER_DEQUEUE, 1.0, cfg.service_time)
            .build(),
    );

    // --- phase A: closed-loop capacity baseline ---------------------
    let capacity_done = Arc::new(AtomicU64::new(0));
    let capacity_threads: Vec<_> = (0..cfg.capacity_workers)
        .map(|w| {
            let mut router = router.clone();
            let users = users.clone();
            let done = Arc::clone(&capacity_done);
            let window = cfg.capacity_window;
            let deadline = cfg.interactive_deadline;
            let k = cfg.k;
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(w as u64);
                let started = Instant::now();
                let mut ok = 0u64;
                while started.elapsed() < window {
                    let user = &users[rng.random_range(0..users.len())];
                    if router
                        .query_tiered(user, "name", k, deadline, &["low"], Priority::Interactive)
                        .is_ok()
                    {
                        ok += 1;
                    }
                }
                done.fetch_add(ok, Ordering::Relaxed);
            })
        })
        .collect();
    for t in capacity_threads {
        t.join().expect("capacity worker");
    }
    let capacity_qps =
        capacity_done.load(Ordering::Relaxed) as f64 / cfg.capacity_window.as_secs_f64();

    // --- phase B: open-loop storm with the fault timeline -----------
    let offered_qps = (capacity_qps * cfg.overload_factor).max(100.0);
    // Enough generator threads that the open loop stays open: by
    // Little's law, concurrency ≈ rate × mean holding time. Accepted
    // requests hold a connection for the bounded queue's wait plus a
    // service time (tens of ms under the floor); sheds return in
    // sub-millisecond. ~20 ms of mean headroom per offered request
    // keeps scheduled arrivals on time, so measured latency is the
    // system's, not the generator's.
    let gen_workers = ((offered_qps * 0.03).ceil() as usize).clamp(16, 128);
    let start = Instant::now() + Duration::from_millis(50);

    // The fault timeline runs on the driver's clock: the plan registry
    // triggers by hit index, so wall-clock windows are made by
    // installing a plan at the scheduled moment and dropping it when
    // the window closes.
    let timeline = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let sleep_until = |at: Duration| {
                let target = start + at;
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
            };
            sleep_until(cfg.kill_at);
            service
                .cluster()
                .expect("replicated cluster")
                .crash_primary();
            // Window plans are composite: installing a plan REPLACES
            // the global one, so each window must re-state the
            // service-time floor alongside its own fault or capacity
            // would silently jump for the window's duration. The
            // guard drop restores the floor-only plan.
            sleep_until(cfg.disk_full_at);
            {
                let _disk = ctxpref_faults::install(
                    FaultPlan::builder(cfg.seed)
                        .delay(sites::SVC_WORKER_DEQUEUE, 1.0, cfg.service_time)
                        .fail(sites::DISK_FULL, 1.0)
                        .build(),
                );
                sleep_until(cfg.disk_full_at + cfg.disk_full_window);
            }
            sleep_until(cfg.net_delay_at);
            {
                let _net = ctxpref_faults::install(
                    FaultPlan::builder(cfg.seed)
                        .delay(sites::SVC_WORKER_DEQUEUE, 1.0, cfg.service_time)
                        .delay(sites::NET_CONN_DELAY, cfg.net_delay_p, cfg.net_delay)
                        .build(),
                );
                sleep_until(cfg.net_delay_at + cfg.net_delay_window);
            }
        })
    };

    // The acked-write ledger: a writer inserts distinct values for one
    // user through the whole storm — across the kill, the disk-full
    // window, and the delay burst — recording exactly what was acked.
    let writer = {
        let mut router = router.clone();
        let duration = cfg.storm_duration;
        std::thread::spawn(move || {
            let mut acked: Vec<String> = Vec::new();
            let mut refused = 0u64;
            let mut i = 0u64;
            while Instant::now() < start + duration {
                let value = format!("live-{i}");
                match router.insert_preference("user0", "*", "name", &value, 0.5) {
                    Ok(()) => acked.push(value),
                    // Typed refusals (busy, disk-full, leaderless past
                    // the retry budget) were never acked; an ambiguous
                    // transport death is also not an ack.
                    Err(_) => refused += 1,
                }
                i += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            (acked, refused)
        })
    };

    let storm_threads: Vec<_> = (0..gen_workers)
        .map(|w| {
            let mut router = router.clone();
            let users = users.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (w as u64).wrapping_mul(0x9e37));
                let zipf = Zipf::new(users.len(), cfg.zipf_s);
                let mut tally = WorkerTally::default();
                let mut n = 0u64;
                loop {
                    let offset = Duration::from_secs_f64(
                        (n * gen_workers as u64 + w as u64) as f64 / offered_qps,
                    );
                    if offset >= cfg.storm_duration {
                        break;
                    }
                    n += 1;
                    let scheduled = start + offset;
                    let now = Instant::now();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    let user = &users[zipf.sample(&mut rng)];
                    let roll: f64 = rng.random_range(0.0..1.0);
                    let (tier, deadline) = if roll < cfg.interactive_share {
                        (Priority::Interactive, cfg.interactive_deadline)
                    } else if roll < cfg.interactive_share + cfg.bulk_share {
                        (Priority::Bulk, cfg.bulk_deadline)
                    } else {
                        (Priority::Maintenance, cfg.maintenance_deadline)
                    };
                    let ti = tier_index(tier);
                    tally.counts[ti].issued += 1;
                    match router.query_tiered(user, "name", cfg.k, deadline, &["low"], tier) {
                        Ok(_) => {
                            tally.counts[ti].ok += 1;
                            // Coordinated-omission honest: latency is
                            // measured from the scheduled arrival, so
                            // a generator running late charges the
                            // lateness to the system under test.
                            tally.latencies[ti].push(scheduled.elapsed().as_micros() as u64);
                        }
                        Err(RouterError::Net(ctxpref_net::NetError::ServerBusy { .. })) => {
                            tally.counts[ti].shed += 1;
                        }
                        Err(RouterError::Net(ctxpref_net::NetError::BudgetExhausted {
                            ..
                        })) => {
                            tally.counts[ti].budget_exhausted += 1;
                        }
                        Err(RouterError::Remote { kind, .. }) if kind == "deadline" => {
                            tally.counts[ti].deadline += 1;
                        }
                        Err(RouterError::Remote { kind, .. }) if kind == "overloaded" => {
                            tally.counts[ti].shed += 1;
                        }
                        Err(_) => {
                            tally.counts[ti].other += 1;
                        }
                    }
                }
                tally
            })
        })
        .collect();

    let mut tiers = [TierOutcome::default(); 3];
    let mut latencies: [Vec<u64>; 3] = Default::default();
    for t in storm_threads {
        let tally = t.join().expect("storm worker");
        for ti in 0..3 {
            let c = &tally.counts[ti];
            tiers[ti].issued += c.issued;
            tiers[ti].ok += c.ok;
            tiers[ti].shed += c.shed;
            tiers[ti].budget_exhausted += c.budget_exhausted;
            tiers[ti].deadline += c.deadline;
            tiers[ti].other += c.other;
            latencies[ti].extend(&tally.latencies[ti]);
        }
    }
    timeline.join().expect("fault timeline");
    let (acked, refused) = writer.join().expect("writer thread");
    for (ti, lat) in latencies.iter_mut().enumerate() {
        lat.sort_unstable();
        tiers[ti].p50_us = percentile(lat, 0.50);
        tiers[ti].p99_us = percentile(lat, 0.99);
        tiers[ti].p999_us = percentile(lat, 0.999);
    }
    let completed: u64 = tiers.iter().map(|t| t.ok).sum();
    let goodput_qps = completed as f64 / cfg.storm_duration.as_secs_f64();

    // Zero acked-write loss: every value the router acked must be on
    // the post-failover PRIMARY (value identity, not just a count, so
    // an applied-but-unacked write cannot mask a lost acked one).
    // The serving view pins reads to node 0's core, which after the
    // kill is the orphaned pre-crash replica — auditing durability
    // there would "lose" every write acked by the promoted node, so
    // the ledger is checked against whichever node holds the lease
    // when the storm ends.
    let survived = match service.cluster().and_then(|c| c.primary_db()) {
        Some(primary) => primary
            .db()
            .profile("user0")
            .map(|p| {
                let held: std::collections::HashSet<String> = p
                    .preferences()
                    .iter()
                    .map(|pref| pref.clause().value.to_string())
                    .collect();
                acked.iter().filter(|v| held.contains(*v)).count() as u64
            })
            .unwrap_or(0),
        None => 0,
    };
    let writes = WriteLedger {
        acked: acked.len() as u64,
        refused,
        survived,
        zero_loss: survived == acked.len() as u64,
    };

    let server_stats = NetClient::connect(addr, NetClientConfig::default())
        .stats()
        .unwrap_or_else(|e| format!("stats unavailable: {e}"));
    server.shutdown();

    let interactive = &tiers[0];
    let lower_shed = tiers[1].shed + tiers[2].shed;
    let checks = vec![
        ShapeCheck::new(
            "interactive p99 within SLO at 2x capacity under faults",
            interactive.p99_us <= cfg.slo_interactive_p99.as_micros() as u64 && interactive.ok > 0,
            format!(
                "p99 {} µs vs SLO {} µs ({} interactive completions)",
                interactive.p99_us,
                cfg.slo_interactive_p99.as_micros(),
                interactive.ok
            ),
        ),
        ShapeCheck::new(
            "goodput holds 70% of single-tier capacity through the storm",
            goodput_qps >= cfg.goodput_floor * capacity_qps,
            format!(
                "goodput {goodput_qps:.0} q/s vs {:.0} q/s floor ({:.0} q/s capacity, \
                 {offered_qps:.0} q/s offered)",
                cfg.goodput_floor * capacity_qps,
                capacity_qps
            ),
        ),
        ShapeCheck::new(
            "zero acked-write loss across the primary kill",
            writes.zero_loss && writes.acked > 0,
            format!(
                "{} acked, {} survived, {} refused typed",
                writes.acked, writes.survived, writes.refused
            ),
        ),
        ShapeCheck::new(
            "lower tiers absorb the shedding",
            lower_shed > 0
                && interactive.shed_fraction() <= tiers[1].shed_fraction()
                && interactive.shed_fraction() <= tiers[2].shed_fraction(),
            format!(
                "shed fraction interactive {:.3}, bulk {:.3}, maintenance {:.3}",
                interactive.shed_fraction(),
                tiers[1].shed_fraction(),
                tiers[2].shed_fraction()
            ),
        ),
    ];

    StormBenchReport {
        config: cfg,
        capacity_qps,
        offered_qps,
        tiers,
        goodput_qps,
        writes,
        server_stats,
        checks,
    }
}

const TIER_NAMES: [&str; 3] = ["interactive", "bulk", "maintenance"];

impl StormBenchReport {
    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "overload storm: {:.0} q/s capacity, {:.0} q/s offered ({}x) for {:?}\n",
            self.capacity_qps,
            self.offered_qps,
            self.config.overload_factor,
            self.config.storm_duration
        ));
        out.push_str(&format!(
            "  faults: primary kill @{:?}, disk-full @{:?}+{:?}, net delay @{:?}+{:?}\n",
            self.config.kill_at,
            self.config.disk_full_at,
            self.config.disk_full_window,
            self.config.net_delay_at,
            self.config.net_delay_window
        ));
        for (i, t) in self.tiers.iter().enumerate() {
            out.push_str(&format!(
                "  {:<12} {:>6} issued  {:>6} ok  {:>5} shed  {:>4} budget  {:>4} deadline  \
                 {:>4} other  p50 {} µs  p99 {} µs  p999 {} µs\n",
                TIER_NAMES[i],
                t.issued,
                t.ok,
                t.shed,
                t.budget_exhausted,
                t.deadline,
                t.other,
                t.p50_us,
                t.p99_us,
                t.p999_us
            ));
        }
        out.push_str(&format!(
            "  goodput: {:.0} q/s; writes: {} acked / {} refused, {} survived (zero loss: {})\n",
            self.goodput_qps,
            self.writes.acked,
            self.writes.refused,
            self.writes.survived,
            self.writes.zero_loss
        ));
        out.push_str(&crate::render_checks(&self.checks));
        out
    }
}
