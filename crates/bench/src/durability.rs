//! Durability benchmark (PR 3): per-record fsync vs group commit on the
//! write-ahead log.
//!
//! The workload is pure mutation pressure: writer threads re-score
//! preferences as fast as the log admits them. Both policies run under
//! the same deterministic 20 ms latency injected at the
//! `wal.append.sync` fault site — this container's fsync lands in a
//! warm page cache in microseconds, which no durable device does, so
//! the PR 1 fault framework restores a realistic sync cost and the
//! benchmark measures the *policy* (who waits for which fsync), not the
//! build machine's cache.
//!
//! * **Per-record** pays the full sync inside every append, so a
//!   shard's throughput is bounded by `1 / sync_latency` and the ack is
//!   durable when the call returns.
//! * **Group commit** appends without syncing and lets a background
//!   flusher fsync whole batches on its interval; acks return
//!   non-durable and become durable at the next flush. Throughput
//!   decouples from the sync latency at the cost of a bounded
//!   durability window.
//!
//! Run via `cargo run -p ctxpref-bench --release --bin serving_bench --
//! --durability`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ctxpref_core::{MultiUserDb, ShardedMultiUserDb};
use ctxpref_wal::{DurableDb, SyncPolicy, WalOptions};
use ctxpref_workload::reference::{poi_env, poi_relation};
use ctxpref_workload::user_study::{all_demographics, default_profile};

use crate::ShapeCheck;

/// Workload knobs for the durability benchmark.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityBenchConfig {
    /// Registered users (writers rotate their edits over all of them,
    /// so the appends spread across the per-shard logs).
    pub users: usize,
    /// Threads issuing durable mutations back-to-back.
    pub writer_threads: usize,
    /// Stripes of the sharded core — and therefore independent logs.
    pub shards: usize,
    /// Group-commit flush interval.
    pub flush_interval: Duration,
    /// Deterministic latency injected at every `wal.append.sync` hit.
    pub sync_latency: Duration,
    /// Measurement window per policy.
    pub window: Duration,
    /// Fault-plan seed (the injection is unconditional; the seed only
    /// feeds the plan's RNG plumbing).
    pub seed: u64,
}

impl Default for DurabilityBenchConfig {
    fn default() -> Self {
        Self {
            users: 8,
            writer_threads: 4,
            shards: 4,
            flush_interval: Duration::from_millis(5),
            sync_latency: Duration::from_millis(20),
            window: Duration::from_millis(1500),
            seed: 0x5EED_2007,
        }
    }
}

/// Throughput of one fsync policy under the mutation storm.
#[derive(Debug, Clone, Copy)]
pub struct PolicyThroughput {
    /// Records appended (= acknowledged mutations) in the window.
    pub appends: u64,
    /// Records durable (fsync'd) when the window closed.
    pub durable: u64,
    /// Group-commit batches that synced at least one record.
    pub batches: u64,
    /// Acknowledged mutations per second.
    pub appends_per_sec: f64,
    /// Durable mutations per second.
    pub durable_per_sec: f64,
}

/// Full durability-benchmark report.
#[derive(Debug)]
pub struct DurabilityBenchReport {
    /// The configuration that produced the numbers.
    pub config: DurabilityBenchConfig,
    /// Fsync inside every append.
    pub per_record: PolicyThroughput,
    /// Background flusher fsyncs batches.
    pub group_commit: PolicyThroughput,
    /// Group-commit/per-record durable-throughput ratio (the headline).
    pub durable_speedup: f64,
    /// Pass/fail claims.
    pub checks: Vec<ShapeCheck>,
}

/// The study database: `users` demographic default profiles over the
/// POI reference workload, sharded.
fn study_db(cfg: &DurabilityBenchConfig) -> Arc<ShardedMultiUserDb> {
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
    std::env::temp_dir().join(format!("ctxpref-durability-{tag}-{}", std::process::id()))
}

/// Drive the mutation storm against one policy and read the log's own
/// counters afterwards.
fn run_policy(cfg: &DurabilityBenchConfig, tag: &str, sync: SyncPolicy) -> PolicyThroughput {
    let dir = bench_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let opts = WalOptions {
        sync,
        ..WalOptions::default()
    };
    let durable =
        Arc::new(DurableDb::create(&dir, study_db(cfg), opts).expect("creating the bench WAL"));

    let stop = AtomicBool::new(false);
    let acked = AtomicU64::new(0);
    let barrier = Barrier::new(cfg.writer_threads + 1);
    let group_commit = !matches!(sync, SyncPolicy::PerRecord);
    std::thread::scope(|scope| {
        for t in 0..cfg.writer_threads {
            let (stop, acked, barrier, durable) = (&stop, &acked, &barrier, &durable);
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
                    acked.fetch_add(1, Ordering::Relaxed);
                    n += 1;
                }
            });
        }
        if group_commit {
            let (stop, durable) = (&stop, &durable);
            let interval = cfg.flush_interval;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    durable.flush().expect("benchmark group-commit flush");
                }
            });
        }
        barrier.wait();
        std::thread::sleep(cfg.window);
        stop.store(true, Ordering::Relaxed);
    });

    // Read the durable watermark as the window left it: the final
    // flusher pass already ran (or per-record synced inline), but no
    // extra end-of-run flush flatters group commit here.
    let status = durable.wal_status();
    let durable_records: u64 = status.shards.iter().map(|s| s.synced_lsn).sum();
    let secs = cfg.window.as_secs_f64();
    let out = PolicyThroughput {
        appends: status.totals.appends,
        durable: durable_records,
        batches: status.totals.batches,
        appends_per_sec: status.totals.appends as f64 / secs,
        durable_per_sec: durable_records as f64 / secs,
    };
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    debug_assert_eq!(out.appends, acked.into_inner());
    out
}

/// Run the full durability benchmark.
pub fn run(cfg: DurabilityBenchConfig) -> DurabilityBenchReport {
    let plan = ctxpref_faults::FaultPlan::builder(cfg.seed)
        .delay(
            ctxpref_faults::sites::WAL_APPEND_SYNC,
            1.0,
            cfg.sync_latency,
        )
        .build();
    let (per_record, group_commit) = plan.run(|| {
        (
            run_policy(&cfg, "per-record", SyncPolicy::PerRecord),
            run_policy(
                &cfg,
                "group-commit",
                SyncPolicy::GroupCommit {
                    flush_interval: cfg.flush_interval,
                },
            ),
        )
    });
    let durable_speedup = if per_record.durable_per_sec > 0.0 {
        group_commit.durable_per_sec / per_record.durable_per_sec
    } else {
        f64::INFINITY
    };
    let checks = vec![
        ShapeCheck::new(
            "group commit sustains ≥3× durable throughput under realistic fsync latency",
            durable_speedup >= 3.0,
            format!(
                "group-commit {:.0} durable/s vs per-record {:.0} durable/s ({durable_speedup:.1}×)",
                group_commit.durable_per_sec, per_record.durable_per_sec
            ),
        ),
        ShapeCheck::new(
            "per-record acks are durable acks (nothing pending, synced == appended)",
            per_record.durable == per_record.appends && per_record.batches == 0,
            format!(
                "per-record appended {} / durable {} / batches {}",
                per_record.appends, per_record.durable, per_record.batches
            ),
        ),
        ShapeCheck::new(
            "group commit amortizes fsyncs into batches (records ≫ batches > 0)",
            group_commit.batches > 0 && group_commit.durable > group_commit.batches,
            format!(
                "{} durable records over {} batches (~{:.0} records/fsync)",
                group_commit.durable,
                group_commit.batches,
                group_commit.durable as f64 / group_commit.batches.max(1) as f64
            ),
        ),
    ];
    DurabilityBenchReport {
        config: cfg,
        per_record,
        group_commit,
        durable_speedup,
        checks,
    }
}

impl DurabilityBenchReport {
    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "durability, mutation storm: {} users over {} shard logs, {} writers, {:?} injected fsync latency, {:?} group-commit interval, {:?} window\n",
            self.config.users,
            self.config.shards,
            self.config.writer_threads,
            self.config.sync_latency,
            self.config.flush_interval,
            self.config.window
        ));
        out.push_str(&format!(
            "  per-record fsync:  {:>7.0} acked/s  {:>7.0} durable/s\n",
            self.per_record.appends_per_sec, self.per_record.durable_per_sec
        ));
        out.push_str(&format!(
            "  group commit:      {:>7.0} acked/s  {:>7.0} durable/s  ({} batches)\n",
            self.group_commit.appends_per_sec,
            self.group_commit.durable_per_sec,
            self.group_commit.batches
        ));
        out.push_str(&format!(
            "  durable-throughput speedup: {:.1}×\n",
            self.durable_speedup
        ));
        out.push_str(&crate::render_checks(&self.checks));
        out
    }
}
