//! Replica-backed repair under disk-fault chaos.
//!
//! The single-node disk-chaos matrix (`ctxpref-wal`) proves scrub,
//! quarantine, and quarantine-aware recovery; this suite proves the
//! **repair** half of the story: a replica whose log suffix was
//! quarantined — and whose healing checkpoint was made to fail, so the
//! loss is real — restarts clean-but-behind and re-fetches everything
//! from a healthy peer through ordinary shipping (with the snapshot
//! fallback) and anti-entropy. Per seed it asserts:
//!
//! 1. **No acked-write loss while a healthy replica exists**: every op
//!    the cluster acknowledged is visible on every node after repair.
//! 2. **No panic under any injected disk fault.**
//! 3. **Digest convergence after repair**: all three nodes byte-equal.
//!
//! Override the matrix with `CTXPREF_FUZZ_SEEDS=a..b` (default 0..32).

use std::sync::Arc;
use std::time::Duration;

use ctxpref_context::ContextDescriptor;
use ctxpref_core::ShardedMultiUserDb;
use ctxpref_faults::{at_rest, sites, FaultPlan};
use ctxpref_profile::{AttributeClause, ContextualPreference};
use ctxpref_replication::{node_digests, AckMode, Cluster, ClusterConfig};
use ctxpref_testkit::{effect_visible, seeds, TempDir};
use ctxpref_wal::segment::SEGMENT_HEADER;
use ctxpref_wal::{SyncPolicy, WalOp, WalOptions};
use ctxpref_workload::reference::{tiny_env, tiny_relation};

const NODES: usize = 3;
const SHARDS: usize = 4;

fn make_core() -> Arc<ShardedMultiUserDb> {
    Arc::new(ShardedMultiUserDb::new(
        tiny_env(),
        tiny_relation(),
        2,
        SHARDS,
    ))
}

fn config_for_seed(seed: u64) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        shards: SHARDS,
        ack_mode: if seed.is_multiple_of(2) {
            AckMode::Quorum
        } else {
            AckMode::Async
        },
        wal: WalOptions {
            sync: if (seed / 2).is_multiple_of(2) {
                SyncPolicy::PerRecord
            } else {
                SyncPolicy::GroupCommit {
                    flush_interval: Duration::from_millis(5),
                }
            },
            // Small segments so the workload seals several per node —
            // at-rest damage needs a sealed file to bite.
            segment_max_bytes: 256,
        },
        batch_max: 16,
        heartbeat_threshold: 2,
        auto_failover: true,
    }
}

/// Monotone workload: unique users and clause values, never removed,
/// so "this acked op's effect is visible" is a final-state predicate.
fn op_for(i: u64) -> WalOp {
    if i.is_multiple_of(3) {
        WalOp::AddUser {
            user: format!("u{}", i / 3),
        }
    } else {
        let rel = tiny_relation();
        let attr = rel.schema().require_attr("name").unwrap();
        let pref = ContextualPreference::new(
            ContextDescriptor::empty(),
            AttributeClause::eq(attr, format!("v{i}").into()),
            0.5,
        )
        .unwrap();
        WalOp::InsertPreference {
            user: format!("u{}", i / 3),
            pref,
        }
    }
}

/// Sealed segment numbers of `shard` on the node whose db is `db`.
fn sealed_segments(db: &ctxpref_wal::DurableDb, shard: usize) -> Vec<u64> {
    let current = db.wal_status().shards[shard].seg_no;
    let first_live = db.manifest().shards[shard].first_live_segment;
    ctxpref_wal::segment::list_segments(db.dir(), shard)
        .unwrap()
        .into_iter()
        .filter(|&s| s >= first_live && s < current)
        .collect()
}

/// One repair seed: write through the cluster, damage a replica's
/// sealed segment at rest, scrub with the heal sabotaged so the loss
/// sticks, crash + restart through quarantine-aware recovery, and let
/// shipping + anti-entropy repair the node from its healthy peers.
fn run_repair_seed(seed: u64) -> Result<(), String> {
    let ctx = |what: &str| format!("seed={seed}: {what}");
    let tmp = TempDir::new(&format!("seed{seed}"));
    let cluster = Arc::new(
        Cluster::new(tmp.path(), config_for_seed(seed), make_core)
            .map_err(|e| ctx(&format!("boot: {e}")))?,
    );

    let mut acked: Vec<WalOp> = Vec::new();
    for i in 0..90 {
        let op = op_for(i);
        if cluster.write(op.clone()).is_ok() {
            acked.push(op);
        }
        if i % 4 == 0 {
            let _ = cluster.pump();
            cluster.tick();
        }
    }
    while let Ok(true) = cluster.pump() {}
    if acked.len() < 60 {
        return Err(ctx(&format!("only {} of 90 writes acked", acked.len())));
    }

    // A scrub pass under injected read errors finds nothing to
    // quarantine on any node — a flaky disk read is not corruption.
    let plan = FaultPlan::builder(seed)
        .fail(sites::WAL_SCRUB, 0.5)
        .fail(sites::CHECKPOINT_READ, 0.5)
        .build();
    // The passes and quarantines this seed's own scrubs report.
    let (mut scrub_passes, mut scrub_quarantined) = (0, 0);
    plan.run(|| -> Result<(), String> {
        for id in 0..NODES {
            let report = cluster
                .scrub_node(id)
                .map_err(|e| ctx(&format!("clean scrub node {id}: {e}")))?;
            if report.found_damage() {
                return Err(ctx(&format!("phantom quarantine on node {id}: {report:?}")));
            }
            scrub_passes += 1;
        }
        Ok(())
    })?;

    // At-rest damage on a replica: bit flip on even seeds, truncation
    // on odd. The victim is never the primary — the healthy copy must
    // survive for repair to have a source.
    let victim = 1 + (seed as usize) % (NODES - 1);
    assert_ne!(cluster.primary(), Some(victim));
    let victim_db = cluster
        .db_of(victim)
        .ok_or_else(|| ctx("victim not live"))?;
    let mut damaged = None;
    for probe in 0..SHARDS {
        let shard = ((seed as usize) + probe) % SHARDS;
        if let Some(&seg_no) = sealed_segments(&victim_db, shard).first() {
            let path = ctxpref_wal::segment::segment_path(victim_db.dir(), shard, seg_no);
            let hurt = if seed.is_multiple_of(2) {
                at_rest::flip_bit(&path, seed, SEGMENT_HEADER as u64)
            } else {
                at_rest::truncate(&path, seed, SEGMENT_HEADER as u64)
            }
            .map_err(|e| ctx(&format!("damage injection: {e}")))?;
            if hurt.is_some() {
                damaged = Some(shard);
                break;
            }
        }
    }
    let Some(_damaged_shard) = damaged else {
        return Err(ctx("workload sealed no segments on the victim"));
    };
    drop(victim_db);

    // Scrub the victim with its healing checkpoint sabotaged (the
    // manifest swap fails), so the quarantine stays authoritative and
    // the node has genuinely lost a log suffix.
    let plan = FaultPlan::builder(seed)
        .fail_at(sites::MANIFEST_SWAP, &[1])
        .build();
    let report = plan.run(|| cluster.scrub_node(victim));
    let report = report.map_err(|e| ctx(&format!("victim scrub: {e}")))?;
    scrub_passes += 1;
    scrub_quarantined += report.quarantined.len();
    if !report.found_damage() {
        return Err(ctx(&format!(
            "scrub missed the injected damage: {report:?}"
        )));
    }
    if report.healed {
        return Err(ctx("the sabotaged heal reported success"));
    }

    // Crash + restart: recovery consults quarantine and the node comes
    // back clean-but-behind instead of refusing to start.
    cluster.crash_node(victim);
    cluster
        .restart_node(victim)
        .map_err(|e| ctx(&format!("rescued restart: {e}")))?;
    let status = cluster.status();
    if status.nodes[victim].rescued_shards == 0 {
        return Err(ctx(&format!(
            "recovery did not use the quarantine: {status:?}"
        )));
    }
    if scrub_passes < NODES + 1 || scrub_quarantined == 0 {
        return Err(ctx(&format!(
            "scrub reports: {scrub_passes} pass(es), {scrub_quarantined} quarantined"
        )));
    }

    // Repair: heartbeats re-learn the victim's true position, shipping
    // re-sends the lost suffix (snapshot fallback if it was GC'd), and
    // anti-entropy sweeps whatever remains.
    let mut settled = false;
    for _ in 0..200 {
        cluster.tick();
        let _ = cluster.pump();
        let status = cluster.status();
        if status.primary.is_some() && status.max_lag == 0 {
            settled = true;
            break;
        }
    }
    if !settled {
        return Err(ctx(&format!(
            "victim never caught up: {:?}",
            cluster.status()
        )));
    }
    for _ in 0..10 {
        if cluster.anti_entropy().is_ok() {
            break;
        }
        cluster.tick();
    }
    let _ = cluster.pump();

    // 1. No acked-write loss: every acked op on every node.
    for id in 0..NODES {
        let db = cluster.db_of(id).ok_or_else(|| ctx("node not live"))?;
        for (i, op) in acked.iter().enumerate() {
            if !effect_visible(db.db(), op) {
                return Err(ctx(&format!(
                    "LOST ACKED WRITE: op #{i} {op:?} missing from node {id} after repair"
                )));
            }
        }
    }

    // 3. Digest convergence after repair.
    let reference = node_digests(&cluster.db_of(0).expect("node 0 live"));
    for id in 1..NODES {
        let theirs = node_digests(&cluster.db_of(id).expect("node live"));
        if theirs != reference {
            return Err(ctx(&format!(
                "DIGEST DIVERGENCE after repair: node 0 {reference:?} vs node {id} {theirs:?}"
            )));
        }
    }

    // The repaired cluster still takes and replicates a fresh write.
    cluster
        .write(WalOp::AddUser {
            user: "post-repair-probe".into(),
        })
        .map_err(|e| ctx(&format!("repaired cluster refused a write: {e}")))?;
    let _ = cluster.pump();
    for id in 0..NODES {
        let db = cluster.db_of(id).expect("node live");
        if !db
            .db()
            .users_sorted()
            .contains(&"post-repair-probe".to_string())
        {
            return Err(ctx(&format!("probe write did not reach node {id}")));
        }
    }
    Ok(())
}

/// A successfully-healed scrub needs no restart at all: the replica
/// quarantines the rotten file, cuts a fresh checkpoint, and keeps
/// serving — and a later crash recovers cleanly with zero rescues.
#[test]
fn healed_replica_keeps_serving_without_repair() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("healed");
    let cluster = Cluster::new(tmp.path(), config_for_seed(0), make_core).unwrap();
    let mut acked = Vec::new();
    for i in 0..90 {
        let op = op_for(i);
        if cluster.write(op.clone()).is_ok() {
            acked.push(op);
        }
        if i % 4 == 0 {
            let _ = cluster.pump();
        }
    }
    while let Ok(true) = cluster.pump() {}

    let victim = 1;
    let victim_db = cluster.db_of(victim).unwrap();
    let shard = (0..SHARDS)
        .find(|&s| !sealed_segments(&victim_db, s).is_empty())
        .expect("no sealed segments on the victim");
    let seg_no = sealed_segments(&victim_db, shard)[0];
    let path = ctxpref_wal::segment::segment_path(victim_db.dir(), shard, seg_no);
    at_rest::flip_bit(&path, 7, SEGMENT_HEADER as u64)
        .unwrap()
        .expect("segment has no payload");
    drop(victim_db);

    let report = cluster.scrub_node(victim).unwrap();
    assert!(report.found_damage(), "{report:?}");
    assert!(report.healed, "{report:?}");

    // No restart, no repair: the node's state never flinched.
    cluster.crash_node(victim);
    cluster.restart_node(victim).unwrap();
    assert_eq!(
        cluster.status().nodes[victim].rescued_shards,
        0,
        "a healed directory must recover without a rescue"
    );
    let db = cluster.db_of(victim).unwrap();
    for op in &acked {
        assert!(effect_visible(db.db(), op), "lost {op:?} after heal");
    }
}

#[test]
fn replica_repair_matrix() {
    let _serial = ctxpref_faults::exclusive();
    for seed in seeds(0..32) {
        let outcome = std::panic::catch_unwind(|| run_repair_seed(seed));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(violation)) => panic!(
                "REPAIR VIOLATION (reproduce with CTXPREF_FUZZ_SEEDS={seed}..{}):\n{violation}",
                seed + 1
            ),
            Err(p) => {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".to_string());
                panic!("PANIC under disk fault, seed {seed}: {msg}");
            }
        }
    }
}
