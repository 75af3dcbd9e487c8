//! Scrub-overhead benchmark (PR 8): sustained append throughput with
//! and without a background scrubber verifying the same directory.
//!
//! The self-healing story only holds if verification is close to free
//! for the write path: the scrubber takes the checkpoint lock (which
//! blocks garbage collection, not appends) and reads sealed segments —
//! files the appenders never touch again. So the same mutation storm
//! as the durability benchmark runs twice over small segments (so
//! sealed segments actually accumulate), once bare and once with a
//! thread looping full scrub passes, and the gate is that the scrubbed
//! run keeps ≥90% of the bare run's acknowledged throughput.
//!
//! Run via `cargo run -p ctxpref-bench --release --bin serving_bench --
//! --scrub`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ctxpref_core::{MultiUserDb, ShardedMultiUserDb};
use ctxpref_wal::{DurableDb, SyncPolicy, WalOptions};
use ctxpref_workload::reference::{poi_env, poi_relation};
use ctxpref_workload::user_study::{all_demographics, default_profile};

use crate::ShapeCheck;

/// Workload knobs for the scrub-overhead benchmark.
#[derive(Debug, Clone, Copy)]
pub struct ScrubBenchConfig {
    /// Registered users (writers rotate their edits over all of them).
    pub users: usize,
    /// Threads issuing durable mutations back-to-back.
    pub writer_threads: usize,
    /// Stripes of the sharded core — and therefore independent logs.
    pub shards: usize,
    /// Segment rotation threshold — small, so sealed segments pile up
    /// and the scrubber has real files to verify mid-storm.
    pub segment_max_bytes: u64,
    /// Group-commit flush interval.
    pub flush_interval: Duration,
    /// Background checkpoint cadence — runs in **both** storms (it is
    /// part of the deployed durable topology and is what keeps the
    /// sealed-segment set, and therefore a scrub pass, bounded).
    pub checkpoint_interval: Duration,
    /// Pause between scrub passes (a deployed scrubber runs on an
    /// interval; a hot loop would just benchmark CPU contention).
    pub scrub_interval: Duration,
    /// Measurement window per run.
    pub window: Duration,
}

impl Default for ScrubBenchConfig {
    fn default() -> Self {
        Self {
            users: 8,
            writer_threads: 4,
            shards: 4,
            segment_max_bytes: 32 << 10,
            flush_interval: Duration::from_millis(5),
            checkpoint_interval: Duration::from_millis(250),
            scrub_interval: Duration::from_millis(100),
            window: Duration::from_millis(1500),
        }
    }
}

/// One measured run of the mutation storm.
#[derive(Debug, Clone, Copy)]
pub struct StormThroughput {
    /// Records appended (= acknowledged mutations) in the window.
    pub appends: u64,
    /// Acknowledged mutations per second.
    pub appends_per_sec: f64,
    /// Scrub passes completed during the window (0 on the bare run).
    pub scrub_passes: u64,
    /// Sealed segments verified across those passes.
    pub segments_verified: u64,
    /// Files quarantined (must be 0 — the storm writes a healthy log).
    pub quarantined: u64,
    /// Transient read errors (contended reads retried next pass).
    pub read_errors: u64,
}

/// Full scrub-overhead report.
#[derive(Debug)]
pub struct ScrubBenchReport {
    /// The configuration that produced the numbers.
    pub config: ScrubBenchConfig,
    /// The storm with no scrubber.
    pub baseline: StormThroughput,
    /// The same storm with a thread looping full scrub passes.
    pub with_scrub: StormThroughput,
    /// `with_scrub / baseline` acked-throughput ratio (the headline).
    pub throughput_ratio: f64,
    /// Pass/fail claims.
    pub checks: Vec<ShapeCheck>,
}

/// The study database: `users` demographic default profiles over the
/// POI reference workload, sharded.
fn study_db(cfg: &ScrubBenchConfig) -> Arc<ShardedMultiUserDb> {
    let env = poi_env();
    let rel = poi_relation(&env, 9, 4);
    let mut db = MultiUserDb::new(env.clone(), rel, 16);
    let demos = all_demographics();
    for i in 0..cfg.users {
        let profile = default_profile(&env, db.relation(), demos[i % demos.len()]);
        db.add_user_with_profile(&format!("user{i}"), profile)
            .unwrap();
    }
    Arc::new(ShardedMultiUserDb::from_db(db, cfg.shards))
}

fn bench_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ctxpref-scrub-{tag}-{}", std::process::id()))
}

/// Drive the mutation storm, optionally with a concurrent scrub loop.
fn run_storm(cfg: &ScrubBenchConfig, tag: &str, scrub: bool) -> StormThroughput {
    let dir = bench_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let opts = WalOptions {
        sync: SyncPolicy::GroupCommit {
            flush_interval: cfg.flush_interval,
        },
        segment_max_bytes: cfg.segment_max_bytes,
    };
    let durable =
        Arc::new(DurableDb::create(&dir, study_db(cfg), opts).expect("creating the bench WAL"));

    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(cfg.writer_threads + 1);
    let scrub_passes = AtomicU64::new(0);
    let segments_verified = AtomicU64::new(0);
    let quarantined = AtomicU64::new(0);
    let read_errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..cfg.writer_threads {
            let (stop, barrier, durable) = (&stop, &barrier, &durable);
            scope.spawn(move || {
                barrier.wait();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Rotate victims so the appends spread over the
                    // per-shard logs; toggle by round so every edit is
                    // a real re-score, never a same-value no-op.
                    let victim = format!("user{}", (t * 3 + n as usize) % cfg.users);
                    let round = t as u64 + n / cfg.users as u64;
                    let score = if round.is_multiple_of(2) { 0.35 } else { 0.65 };
                    durable
                        .update_preference_score(&victim, 0, score)
                        .expect("benchmark mutation must be conflict-free");
                    n += 1;
                }
            });
        }
        {
            let (stop, durable) = (&stop, &durable);
            let interval = cfg.flush_interval;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    durable.flush().expect("benchmark group-commit flush");
                }
            });
        }
        {
            let (stop, durable) = (&stop, &durable);
            let interval = cfg.checkpoint_interval;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    durable.checkpoint().expect("benchmark checkpoint");
                }
            });
        }
        if scrub {
            let (stop, durable) = (&stop, &durable);
            let (passes, segs, quar, errs) = (
                &scrub_passes,
                &segments_verified,
                &quarantined,
                &read_errors,
            );
            let interval = cfg.scrub_interval;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let report = durable.scrub().expect("benchmark scrub pass");
                    passes.fetch_add(1, Ordering::Relaxed);
                    segs.fetch_add(report.segments_verified, Ordering::Relaxed);
                    quar.fetch_add(report.quarantined.len() as u64, Ordering::Relaxed);
                    errs.fetch_add(report.read_errors, Ordering::Relaxed);
                    std::thread::sleep(interval);
                }
            });
        }
        barrier.wait();
        std::thread::sleep(cfg.window);
        stop.store(true, Ordering::Relaxed);
    });

    let status = durable.wal_status();
    let secs = cfg.window.as_secs_f64();
    let out = StormThroughput {
        appends: status.totals.appends,
        appends_per_sec: status.totals.appends as f64 / secs,
        scrub_passes: scrub_passes.into_inner(),
        segments_verified: segments_verified.into_inner(),
        quarantined: quarantined.into_inner(),
        read_errors: read_errors.into_inner(),
    };
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Run the full scrub-overhead benchmark.
pub fn run(cfg: ScrubBenchConfig) -> ScrubBenchReport {
    let baseline = run_storm(&cfg, "bare", false);
    let with_scrub = run_storm(&cfg, "scrubbed", true);
    let throughput_ratio = if baseline.appends_per_sec > 0.0 {
        with_scrub.appends_per_sec / baseline.appends_per_sec
    } else {
        f64::INFINITY
    };
    let checks = vec![
        ShapeCheck::new(
            "a concurrent scrubber costs <10% sustained append throughput",
            throughput_ratio >= 0.9,
            format!(
                "bare {:.0} acked/s vs scrubbed {:.0} acked/s ({:.1}% kept)",
                baseline.appends_per_sec,
                with_scrub.appends_per_sec,
                throughput_ratio * 100.0
            ),
        ),
        ShapeCheck::new(
            "the scrubber actually verified sealed segments mid-storm",
            with_scrub.scrub_passes > 0 && with_scrub.segments_verified > 0,
            format!(
                "{} pass(es), {} sealed segment(s) verified",
                with_scrub.scrub_passes, with_scrub.segments_verified
            ),
        ),
        ShapeCheck::new(
            "a healthy log scrubs clean under write pressure (no phantom quarantine)",
            with_scrub.quarantined == 0,
            format!(
                "{} quarantined, {} transient read error(s)",
                with_scrub.quarantined, with_scrub.read_errors
            ),
        ),
    ];
    ScrubBenchReport {
        config: cfg,
        baseline,
        with_scrub,
        throughput_ratio,
        checks,
    }
}

impl ScrubBenchReport {
    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scrub overhead, mutation storm: {} users over {} shard logs, {} writers, {} B segments, {:?} scrub interval, {:?} window\n",
            self.config.users,
            self.config.shards,
            self.config.writer_threads,
            self.config.segment_max_bytes,
            self.config.scrub_interval,
            self.config.window
        ));
        out.push_str(&format!(
            "  bare storm:     {:>7.0} acked/s\n",
            self.baseline.appends_per_sec
        ));
        out.push_str(&format!(
            "  with scrubber:  {:>7.0} acked/s  ({} passes, {} segments verified)\n",
            self.with_scrub.appends_per_sec,
            self.with_scrub.scrub_passes,
            self.with_scrub.segments_verified
        ));
        out.push_str(&format!(
            "  throughput kept: {:.1}%\n",
            self.throughput_ratio * 100.0
        ));
        out.push_str(&crate::render_checks(&self.checks));
        out
    }
}
