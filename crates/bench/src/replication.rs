//! Replication benchmark (PR 4): async vs quorum acks under injected
//! network latency, and the failover-to-first-served-read time.
//!
//! The workload is pure mutation pressure through the cluster's write
//! path. Both ack modes run under the same deterministic per-send
//! latency injected at the `repl.send.delay` fault site — the
//! in-process transport delivers in nanoseconds, which no network
//! does, so the fault framework restores a realistic send cost and the
//! benchmark measures the *ack policy* (who waits for which
//! round-trip), not the build machine's memory bus.
//!
//! * **Async** acks once the primary holds the write; replicas catch
//!   up in the background, so the ack path pays no sends at all.
//! * **Quorum** acks only once a majority holds the write durably, so
//!   every ack pays at least one shipped batch per reachable replica —
//!   and survives failover, which the failover phase then proves: the
//!   primary is killed mid-cluster, the failure detector promotes the
//!   best replica, and every quorum-acked write is still served.
//!
//! Run via `cargo run -p ctxpref-bench --release --bin serving_bench --
//! --replication`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ctxpref_core::ShardedMultiUserDb;
use ctxpref_replication::{AckMode, Cluster, ClusterConfig, ReplicationError};
use ctxpref_wal::{SyncPolicy, WalOp, WalOptions};
use ctxpref_workload::reference::{poi_env, poi_relation};
use ctxpref_workload::user_study::{all_demographics, default_profile};

use crate::ShapeCheck;

/// Workload knobs for the replication benchmark.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationBenchConfig {
    /// Cluster size (one primary, the rest replicas).
    pub nodes: usize,
    /// Registered users (writes rotate over all of them, spreading the
    /// shipped batches across the per-shard logs).
    pub users: usize,
    /// Stripes of each node's core — and therefore shipped shards.
    pub shards: usize,
    /// Deterministic latency injected at every `repl.send.delay` hit.
    pub send_latency: Duration,
    /// Measurement window per ack mode.
    pub window: Duration,
    /// Heartbeats the failure detector needs before failing over.
    pub heartbeat_threshold: u32,
    /// Fault-plan seed (the injection is unconditional; the seed only
    /// feeds the plan's RNG plumbing).
    pub seed: u64,
}

impl Default for ReplicationBenchConfig {
    fn default() -> Self {
        Self {
            nodes: 3,
            users: 8,
            shards: 4,
            send_latency: Duration::from_micros(500),
            window: Duration::from_millis(1500),
            heartbeat_threshold: 3,
            seed: 0x5EED_2007,
        }
    }
}

/// Throughput of one ack mode under the mutation storm.
#[derive(Debug, Clone, Copy)]
pub struct AckThroughput {
    /// Writes acknowledged in the window.
    pub acked: u64,
    /// Acknowledged writes per second.
    pub acked_per_sec: f64,
    /// Laggiest replica's deficit (in records) when the window closed,
    /// before any pump.
    pub end_lag: u64,
}

/// What the failover phase measured.
#[derive(Debug, Clone, Copy)]
pub struct FailoverResult {
    /// Quorum-acked writes in place when the primary was killed.
    pub acked_before_kill: u64,
    /// Kill → promotion complete (epoch minted, catch-up done).
    pub promote_ms: f64,
    /// Kill → first read served by the new primary.
    pub first_read_ms: f64,
    /// The epoch the promotion minted.
    pub new_epoch: u64,
    /// Acked writes visible on the new primary (must equal
    /// `acked_before_kill`).
    pub survivors: u64,
}

/// Full replication-benchmark report.
#[derive(Debug)]
pub struct ReplicationBenchReport {
    /// The configuration that produced the numbers.
    pub config: ReplicationBenchConfig,
    /// Ack on primary durability only.
    pub async_acks: AckThroughput,
    /// Ack on majority durability.
    pub quorum_acks: AckThroughput,
    /// Async/quorum acked-throughput ratio (the cost of the quorum).
    pub async_speedup: f64,
    /// The failover phase.
    pub failover: FailoverResult,
    /// Pass/fail claims.
    pub checks: Vec<ShapeCheck>,
}

fn bench_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ctxpref-replication-{tag}-{}", std::process::id()))
}

fn make_cluster(cfg: &ReplicationBenchConfig, tag: &str, ack: AckMode) -> Cluster {
    let dir = bench_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let env = poi_env();
    let core_rel = poi_relation(&env, 9, 4);
    let cluster_cfg = ClusterConfig {
        ack_mode: ack,
        shards: cfg.shards,
        heartbeat_threshold: cfg.heartbeat_threshold,
        wal: WalOptions {
            sync: SyncPolicy::PerRecord,
            ..WalOptions::default()
        },
        ..ClusterConfig::new(cfg.nodes)
    };
    let cluster = Cluster::new(&dir, cluster_cfg, || {
        Arc::new(ShardedMultiUserDb::new(
            env.clone(),
            core_rel.clone(),
            16,
            cfg.shards,
        ))
    })
    .expect("creating the bench cluster");
    // Seed the users (and one preference each to re-score) through the
    // replicated write path, before the measured window opens.
    let demos = all_demographics();
    let rel = poi_relation(&env, 9, 4);
    for i in 0..cfg.users {
        let user = format!("user{i}");
        cluster
            .write(WalOp::AddUser { user: user.clone() })
            .expect("seeding a bench user");
        let profile = default_profile(&env, &rel, demos[i % demos.len()]);
        let pref = profile.preferences()[0].clone();
        cluster
            .write(WalOp::InsertPreference { user, pref })
            .expect("seeding a bench preference");
    }
    if ack == AckMode::Async {
        cluster.pump().expect("draining the seed backlog");
    }
    cluster
}

/// Drive the mutation storm against one ack mode and count the acks.
fn run_ack_mode(cfg: &ReplicationBenchConfig, tag: &str, ack: AckMode) -> AckThroughput {
    let cluster = make_cluster(cfg, tag, ack);
    let deadline = Instant::now() + cfg.window;
    let mut acked = 0u64;
    let mut n = 0u64;
    while Instant::now() < deadline {
        // Toggle by round so every edit is a real re-score, never a
        // same-value no-op (index 0 is the seeded preference).
        let user = format!("user{}", n as usize % cfg.users);
        let score = if (n / cfg.users as u64).is_multiple_of(2) {
            0.35
        } else {
            0.65
        };
        cluster
            .write(WalOp::UpdateScore {
                user,
                index: 0,
                score,
            })
            .expect("benchmark mutation must be conflict-free");
        acked += 1;
        n += 1;
    }
    let end_lag = cluster.status().max_lag;
    let secs = cfg.window.as_secs_f64();
    let out = AckThroughput {
        acked,
        acked_per_sec: acked as f64 / secs,
        end_lag,
    };
    let _ = std::fs::remove_dir_all(bench_dir(tag));
    out
}

/// Kill the quorum primary under load and measure how long until a
/// replica is promoted and serves its first read.
fn run_failover(cfg: &ReplicationBenchConfig) -> FailoverResult {
    let cluster = make_cluster(cfg, "failover", AckMode::Quorum);
    let mut acked_users = Vec::new();
    for i in 0..64u64 {
        let user = format!("acked{i}");
        cluster
            .write(WalOp::AddUser { user: user.clone() })
            .expect("pre-kill quorum write");
        acked_users.push(user);
    }
    let killed_at = Instant::now();
    cluster.crash_primary();
    // The control plane ticks until the failure detector trips and the
    // best replica is promoted (epoch-fenced, catch-up included).
    let (epoch, new_primary) = loop {
        let report = cluster.tick();
        if let Some(p) = report.promoted {
            break p;
        }
        assert!(
            killed_at.elapsed() < Duration::from_secs(30),
            "failover did not complete: {:?}",
            cluster.status()
        );
    };
    let promote_ms = killed_at.elapsed().as_secs_f64() * 1e3;
    // First served read: the new primary answers a profile lookup.
    let db = cluster
        .db_of(new_primary)
        .expect("the promoted node is live");
    db.db()
        .profile(&acked_users[0])
        .expect("the new primary serves reads");
    let first_read_ms = killed_at.elapsed().as_secs_f64() * 1e3;
    let survivors = acked_users
        .iter()
        .filter(|u| db.db().profile(u).is_ok())
        .count() as u64;
    // The deposed node must stay deposed if it ever writes again.
    let fenced = matches!(
        cluster.write_via(
            0,
            WalOp::AddUser {
                user: "ghost".into()
            }
        ),
        Err(ReplicationError::NodeDown { .. } | ReplicationError::NotPrimary { .. })
    );
    assert!(
        fenced,
        "the killed primary is gone from the membership view"
    );
    let out = FailoverResult {
        acked_before_kill: acked_users.len() as u64,
        promote_ms,
        first_read_ms,
        new_epoch: epoch,
        survivors,
    };
    let _ = std::fs::remove_dir_all(bench_dir("failover"));
    out
}

/// Run the full replication benchmark.
pub fn run(cfg: ReplicationBenchConfig) -> ReplicationBenchReport {
    let plan = ctxpref_faults::FaultPlan::builder(cfg.seed)
        .delay(
            ctxpref_faults::sites::REPL_SEND_DELAY,
            1.0,
            cfg.send_latency,
        )
        .build();
    let (async_acks, quorum_acks) = plan.run(|| {
        (
            run_ack_mode(&cfg, "async", AckMode::Async),
            run_ack_mode(&cfg, "quorum", AckMode::Quorum),
        )
    });
    // The failover phase runs without injected latency: it measures the
    // control plane's reaction time, not the transport's.
    let failover = run_failover(&cfg);
    let async_speedup = if quorum_acks.acked_per_sec > 0.0 {
        async_acks.acked_per_sec / quorum_acks.acked_per_sec
    } else {
        f64::INFINITY
    };
    let checks = vec![
        ShapeCheck::new(
            "async acks outpace quorum acks under injected send latency",
            async_speedup >= 1.5,
            format!(
                "async {:.0} acked/s vs quorum {:.0} acked/s ({async_speedup:.1}×)",
                async_acks.acked_per_sec, quorum_acks.acked_per_sec
            ),
        ),
        ShapeCheck::new(
            "quorum acks leave no replica behind (end-of-window lag 0)",
            quorum_acks.end_lag == 0,
            format!("quorum end lag {} record(s)", quorum_acks.end_lag),
        ),
        ShapeCheck::new(
            "every quorum-acked write survives the primary kill",
            failover.survivors == failover.acked_before_kill && failover.new_epoch > 1,
            format!(
                "{}/{} acked writes on the new primary, epoch {} (promote {:.1} ms, first read {:.1} ms)",
                failover.survivors,
                failover.acked_before_kill,
                failover.new_epoch,
                failover.promote_ms,
                failover.first_read_ms
            ),
        ),
    ];
    ReplicationBenchReport {
        config: cfg,
        async_acks,
        quorum_acks,
        async_speedup,
        failover,
        checks,
    }
}

impl ReplicationBenchReport {
    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "replication, mutation storm: {} nodes, {} users over {} shard logs, {:?} injected send latency, {:?} window\n",
            self.config.nodes,
            self.config.users,
            self.config.shards,
            self.config.send_latency,
            self.config.window
        ));
        out.push_str(&format!(
            "  async acks:   {:>7.0} acked/s  (end lag {})\n",
            self.async_acks.acked_per_sec, self.async_acks.end_lag
        ));
        out.push_str(&format!(
            "  quorum acks:  {:>7.0} acked/s  (end lag {})\n",
            self.quorum_acks.acked_per_sec, self.quorum_acks.end_lag
        ));
        out.push_str(&format!(
            "  async/quorum ack speedup: {:.1}×\n",
            self.async_speedup
        ));
        out.push_str(&format!(
            "  failover: promote {:.1} ms, first served read {:.1} ms, epoch {}, {}/{} acked writes survive\n",
            self.failover.promote_ms,
            self.failover.first_read_ms,
            self.failover.new_epoch,
            self.failover.survivors,
            self.failover.acked_before_kill
        ));
        out.push_str(&crate::render_checks(&self.checks));
        out
    }
}
