//! End-to-end replication through the service API: a replicated
//! service seeds all nodes, routes mutations through the primary,
//! survives a primary crash by failing over, and converges after the
//! crashed node rejoins — plus the `NotReplicated` contract on plain
//! services, the background control-plane tick, the clean-shutdown
//! flush of the primary's log, and (on all three write paths) that a
//! removal returns the value it removed.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::MultiUserDb;
use ctxpref_faults::{sites, FaultPlan};
use ctxpref_replication::{node_digests, Cluster};
use ctxpref_service::{
    CtxPrefService, DurabilityConfig, ReplicatedConfig, ServiceConfig, ServiceError, SyncPolicy,
    WalStatus,
};
use ctxpref_testkit::TempDir;
use ctxpref_wal::segment::list_segments;
use ctxpref_workload::reference::{poi_env, poi_relation};

fn study_db() -> MultiUserDb {
    let env = poi_env();
    let rel = poi_relation(&env, 7, 3);
    let mut db = MultiUserDb::new(env, rel, 8);
    db.add_user("alice").unwrap();
    db.add_user("bob").unwrap();
    db
}

fn small_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        shards: 4,
        ..ServiceConfig::default()
    }
}

/// Manual ticking only: the background thread would make the
/// failure-detection and failover timing nondeterministic.
fn manual_rcfg(dir: &std::path::Path, nodes: usize) -> ReplicatedConfig {
    ReplicatedConfig {
        tick_interval: None,
        ..ReplicatedConfig::new(DurabilityConfig::new(dir), nodes)
    }
}

/// Every live node's per-shard digests, keyed for assertion messages.
fn all_digests(service: &CtxPrefService) -> Vec<(usize, Vec<u64>)> {
    let cluster = service.cluster().expect("replicated service");
    let nodes = cluster.config().nodes;
    (0..nodes)
        .filter_map(|id| cluster.db_of(id).map(|db| (id, node_digests(&db))))
        .collect()
}

#[test]
fn replicated_service_seeds_serves_and_replicates() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("basic");
    let service =
        CtxPrefService::new_replicated(study_db(), small_cfg(), manual_rcfg(tmp.path(), 3))
            .expect("creating the replicated service");
    assert!(service.is_replicated());
    assert!(service.is_durable());

    // The seeded users query from the local node immediately.
    let state =
        service.with_db(|db| ContextState::parse(db.env(), &["Plaka", "warm", "friends"]).unwrap());
    service
        .query_state("alice", &state)
        .expect("seeded user answers");

    // New mutations route through the primary and are quorum-acked.
    service.add_user("carol").unwrap();
    service
        .insert_preference_eq(
            "carol",
            "accompanying_people = friends",
            "type",
            "museum".into(),
            0.7,
        )
        .unwrap();
    service.update_preference_score("carol", 0, 0.9).unwrap();
    service
        .query_state("carol", &state)
        .expect("replicated user answers locally");

    // After a pump the whole cluster is byte-identical.
    service.pump_replication().unwrap();
    let digests = all_digests(&service);
    assert_eq!(digests.len(), 3, "all three nodes live");
    for (id, d) in &digests {
        assert_eq!(d, &digests[0].1, "node {id} diverges from node 0");
    }

    let stats = service.stats();
    assert_eq!(stats.replication_epoch, 1);
    assert_eq!(stats.failovers, 0);
    assert_eq!(stats.replication_max_lag, 0);
    assert!(stats.wal.appends > 0, "mutations reached the primary's WAL");
    assert!(service.replication_status().unwrap().primary.is_some());
}

#[test]
fn primary_crash_fails_over_and_rejoins() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("failover");
    let service =
        CtxPrefService::new_replicated(study_db(), small_cfg(), manual_rcfg(tmp.path(), 3))
            .expect("creating the replicated service");
    service.add_user("carol").unwrap();
    service.pump_replication().unwrap();

    // Kill the primary (node 0 — also the local serving node; reads
    // keep working from its detached core, writes move on failover).
    let cluster = Arc::clone(service.cluster().expect("replicated service"));
    cluster.crash_node(0);
    assert!(
        matches!(service.add_user("dave"), Err(ServiceError::Replication(_))),
        "no primary between the crash and the failover"
    );

    // Drive the failure detector until a replica takes over.
    let mut promoted = None;
    for _ in 0..10 {
        let report = service.tick_replication().unwrap();
        if report.promoted.is_some() {
            promoted = report.promoted;
            break;
        }
    }
    let (epoch, new_primary) = promoted.expect("failover within the heartbeat threshold");
    assert!(epoch > 1, "promotion mints a fresh epoch");
    assert_ne!(new_primary, 0, "the dead node cannot be promoted");

    // Writes follow the new primary; the service API is unchanged.
    service.add_user("dave").unwrap();
    let stats = service.stats();
    assert_eq!(stats.failovers, 1);
    assert!(stats.replication_epoch > 1);

    // The crashed node rejoins as a replica and converges.
    cluster.restart_node(0).unwrap();
    service.pump_replication().unwrap();
    service.anti_entropy().unwrap();
    service.pump_replication().unwrap();
    let digests = all_digests(&service);
    assert_eq!(digests.len(), 3, "node 0 is back");
    for (id, d) in &digests {
        assert_eq!(d, &digests[0].1, "node {id} diverges after rejoin");
    }
    let status = service.replication_status().unwrap();
    assert_eq!(status.primary, Some(new_primary));
    let node0 = &status.nodes[0];
    assert!(
        node0.live && !node0.is_primary,
        "node 0 rejoined as a replica"
    );
}

#[test]
fn plain_service_refuses_replication_operations() {
    let service = CtxPrefService::new(study_db(), small_cfg());
    assert!(!service.is_replicated());
    assert!(matches!(
        service.replication_status(),
        Err(ServiceError::NotReplicated)
    ));
    assert!(matches!(
        service.promote(1),
        Err(ServiceError::NotReplicated)
    ));
    assert!(matches!(
        service.anti_entropy(),
        Err(ServiceError::NotReplicated)
    ));
    assert!(matches!(
        service.pump_replication(),
        Err(ServiceError::NotReplicated)
    ));
}

#[test]
fn background_tick_drains_lag_under_async_group_commit() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("bg-tick");
    let dcfg = DurabilityConfig::new(tmp.path()).group_commit(Duration::from_millis(2));
    let rcfg = ReplicatedConfig {
        tick_interval: Some(Duration::from_millis(5)),
        ..ReplicatedConfig::new(dcfg, 3)
    }
    .async_acks();
    assert!(matches!(
        rcfg.durability.sync,
        SyncPolicy::GroupCommit { .. }
    ));
    let service = CtxPrefService::new_replicated(study_db(), small_cfg(), rcfg)
        .expect("creating the replicated service");
    for i in 0..20 {
        service.add_user(&format!("user{i}")).unwrap();
    }
    // Async acks return before replicas hold the writes; the background
    // tick ships them over within a few intervals.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = service.stats();
        if stats.replication_max_lag == 0 && {
            let d = all_digests(&service);
            d.iter().all(|(_, dig)| dig == &d[0].1)
        } {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replicas never caught up: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // A clean shutdown hands back the local database, users included.
    let db = service.shutdown();
    assert!(db.users_sorted().contains(&"user19"));
}

#[test]
fn replicated_scrub_covers_every_live_node() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("scrub");
    let service =
        CtxPrefService::new_replicated(study_db(), small_cfg(), manual_rcfg(tmp.path(), 3))
            .unwrap();
    service
        .insert_preference_eq(
            "alice",
            "accompanying_people = friends",
            "type",
            "museum".into(),
            0.8,
        )
        .unwrap();

    // One service-level pass scrubs all three nodes and merges the
    // reports: three checkpoints verified, nothing quarantined.
    let report = service.scrub().unwrap();
    assert!(!report.found_damage(), "fresh cluster must scrub clean");
    assert_eq!(report.checkpoints_verified, 3);
    let status = service.scrub_status().unwrap();
    assert_eq!((status.passes, status.quarantined), (3, 0));

    // A crashed node is skipped, not an error: quarantine-aware
    // recovery covers it when it restarts.
    service.cluster().unwrap().crash_node(2);
    let report = service.scrub().unwrap();
    assert_eq!(report.checkpoints_verified, 2, "dead node skipped");
    assert_eq!(service.scrub_status().unwrap().passes, 5);
}

/// The segment files of each of `node`'s WAL shards, or `None` while
/// the node is down.
fn segments_per_shard(cluster: &Cluster, node: usize) -> Option<Vec<usize>> {
    let db = cluster.db_of(node)?;
    let shards = db.wal_status().shards.len();
    let count = |shard| {
        list_segments(db.dir(), shard)
            .expect("listing segments")
            .len()
    };
    Some((0..shards).map(count).collect())
}

/// `node`'s checkpoint generation (it must be live).
fn generation(cluster: &Cluster, node: usize) -> u64 {
    cluster
        .db_of(node)
        .expect("node is live")
        .manifest()
        .generation
}

#[test]
fn every_live_node_is_checkpointed_in_the_background() {
    let _serial = ctxpref_faults::exclusive();
    const WRITES: usize = 1500;
    const CRASH_AT: usize = 500;
    const RESTART_AT: usize = 600;
    // Without background checkpoints a shard's log reaches more than 90
    // segments of 256 B by the end of the run; each checkpoint seals the
    // live segment and collects every older one.
    const MAX_SEGMENTS: usize = 12;
    let tmp = TempDir::new("bg-checkpoint");
    let mut rcfg = manual_rcfg(tmp.path(), 3);
    rcfg.durability.segment_max_bytes = 256;
    rcfg.durability.checkpoint_interval = Some(Duration::from_millis(10));
    rcfg.durability.scrub_interval = Some(Duration::from_millis(25));
    let service = CtxPrefService::new_replicated(study_db(), small_cfg(), rcfg)
        .expect("creating the replicated service");
    let cluster = Arc::clone(service.cluster().expect("replicated service"));
    let mut most = 0;
    let mut restarted_at_generation = None;
    for i in 0..WRITES {
        let user = format!("user{i}");
        service.add_user(&user).unwrap();
        service
            .insert_preference_eq(&user, "*", "name", format!("v{i}").into(), 0.5)
            .unwrap();
        match i {
            // A replica: the quorum of the other two keeps acking.
            CRASH_AT => cluster.crash_node(2),
            RESTART_AT => cluster
                .restart_node(2)
                .expect("a crashed node restarts while the upkeep runs"),
            // The write before shipped the restarted node its log back.
            _ if i == RESTART_AT + 1 => restarted_at_generation = Some(generation(&cluster, 2)),
            _ => {}
        }
        for node in 0..3 {
            if let Some(segments) = segments_per_shard(&cluster, node) {
                most = most.max(segments.into_iter().max().unwrap_or(0));
                assert!(
                    most <= MAX_SEGMENTS,
                    "node {node} holds {most} segments in one shard after {i} writes"
                );
            }
        }
    }
    let restarted_at = restarted_at_generation.expect("node 2 restarted");
    let deadline = Instant::now() + Duration::from_secs(5);
    while generation(&cluster, 2) <= restarted_at {
        assert!(
            Instant::now() < deadline,
            "the restarted node was never checkpointed (generation {restarted_at})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("at most {most} segment(s) in any shard of any live node");
}

/// Async acks over group commit with a flush interval no test outlives
/// and no background threads: records stay pending until something
/// flushes them explicitly.
fn unflushed_rcfg(dir: &std::path::Path, nodes: usize) -> ReplicatedConfig {
    let mut rcfg = manual_rcfg(dir, nodes).async_acks();
    rcfg.durability = DurabilityConfig {
        checkpoint_interval: None,
        scrub_interval: None,
        ..rcfg.durability
    }
    .group_commit(Duration::from_secs(3600));
    rcfg
}

#[test]
fn clean_shutdown_flushes_the_replicated_primarys_log() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("shutdown-flush");
    let service =
        CtxPrefService::new_replicated(study_db(), small_cfg(), unflushed_rcfg(tmp.path(), 2))
            .expect("creating the replicated service");
    for i in 0..8 {
        service.add_user(&format!("user{i}")).unwrap();
    }
    let cluster = Arc::clone(service.cluster().expect("replicated service"));
    let pending = |when: &str| -> u64 {
        let primary = cluster
            .primary_db()
            .unwrap_or_else(|| panic!("primary {when}"));
        primary.wal_status().shards.iter().map(|s| s.pending).sum()
    };
    assert!(pending("before") > 0, "acked writes are waiting on a flush");
    drop(service);
    assert_eq!(
        pending("after"),
        0,
        "a clean shutdown left records unsynced"
    );
}

/// The node ids a per-node answer names, in order.
fn ids<T>(nodes: &[(usize, T)]) -> Vec<usize> {
    nodes.iter().map(|(id, _)| *id).collect()
}

/// Every node's checkpoint generation, as far as `nodes` (all live).
fn generations(cluster: &Cluster, nodes: usize) -> Vec<u64> {
    (0..nodes).map(|node| generation(cluster, node)).collect()
}

#[test]
fn checkpoint_answers_every_live_node() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("checkpoint-every-node");
    let service =
        CtxPrefService::new_replicated(study_db(), small_cfg(), unflushed_rcfg(tmp.path(), 3))
            .expect("creating the replicated service");
    let cluster = Arc::clone(service.cluster().expect("replicated service"));
    service.add_user("carol").unwrap();

    let before = generations(&cluster, 3);
    let checkpoints = service.checkpoint().unwrap();
    assert_eq!(ids(&checkpoints), [0, 1, 2]);
    for (node, report) in &checkpoints {
        assert!(
            report.generation > before[*node],
            "node {node} not checkpointed"
        );
        assert_eq!(report.generation, generation(&cluster, *node));
    }
    assert_eq!(service.stats().checkpoints, 3, "one count per node");

    // A crashed node is skipped, and no verb keeps its old handle: it
    // restarts while the others answer.
    cluster.crash_node(2);
    assert_eq!(ids(&service.checkpoint().unwrap()), [0, 1]);
    cluster.restart_node(2).expect("the crashed node restarts");

    // Node 0's manifest swap is the verb's first: it fails, and the
    // other two nodes are still checkpointed before the error returns.
    let before = generations(&cluster, 3);
    let plan = FaultPlan::builder(52)
        .fail_at(sites::MANIFEST_SWAP, &[1])
        .build();
    let failed = plan.run(|| service.checkpoint());
    assert!(failed.is_err(), "the failed swap is the verb's error");
    let after = generations(&cluster, 3);
    assert_eq!(after[0], before[0], "node 0's checkpoint did not land");
    assert!(
        after[1] > before[1] && after[2] > before[2],
        "{before:?} → {after:?}"
    );
    assert_eq!(service.stats().checkpoints, 3 + 2 + 2);
}

#[test]
fn flush_leaves_no_node_pending() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("flush-every-node");
    let service =
        CtxPrefService::new_replicated(study_db(), small_cfg(), unflushed_rcfg(tmp.path(), 3))
            .expect("creating the replicated service");
    // Replicas sync what they are shipped, so only a primary's own
    // appends wait: write through node 0, then through node 1.
    for i in 0..8 {
        service.add_user(&format!("user{i}")).unwrap();
        if i == 3 {
            service.promote(1).unwrap();
        }
    }
    let pending = || -> Vec<(usize, u64)> {
        let status = service.wal_status().unwrap();
        let pending =
            |(id, s): &(usize, WalStatus)| (*id, s.shards.iter().map(|s| s.pending).sum());
        status.iter().map(pending).collect()
    };
    let waiting = pending();
    assert_eq!(ids(&waiting), [0, 1, 2]);
    assert!(waiting[0].1 > 0 && waiting[1].1 > 0, "{waiting:?}");

    let flushed = service.flush_wal().unwrap();
    assert_eq!(flushed, waiting, "each node flushes what it held");
    assert_eq!(pending(), [(0, 0), (1, 0), (2, 0)]);
}

/// Two threads race 100 removals each at index 0 of one user's profile:
/// every returned preference must be distinct and together they must be
/// exactly what left the profile. Then `remove_user` must hand back a
/// profile holding a preference whose insert was acked before it.
fn removals_return_what_they_removed(service: CtxPrefService) {
    const PREFS: usize = 220;
    const REMOVALS_PER_THREAD: usize = 100;
    service.add_user("carol").unwrap();
    for i in 0..PREFS {
        service
            .insert_preference_eq("carol", "*", "name", format!("v{i}").into(), 0.5)
            .unwrap();
    }
    let profile_of = |user: &str| service.with_db(|db| db.profile(user)).unwrap();
    let base = profile_of("carol").preferences().to_vec();
    assert_eq!(base.len(), PREFS);

    let barrier = Barrier::new(2);
    let mut removed = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    (0..REMOVALS_PER_THREAD)
                        .map(|_| service.remove_preference("carol", 0).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        racers
            .into_iter()
            .flat_map(|racer| racer.join().expect("a racer panicked"))
            .collect::<Vec<_>>()
    });
    let survivors = profile_of("carol").preferences().to_vec();
    assert_eq!(survivors.len(), PREFS - 2 * REMOVALS_PER_THREAD);
    for (i, pref) in removed.iter().enumerate() {
        assert!(
            !removed[..i].contains(pref),
            "two removals both returned {pref:?}"
        );
    }
    // returned ∪ survivors = base, as multisets (base has no repeats).
    removed.extend(survivors);
    assert_eq!(removed.len(), base.len());
    for pref in &base {
        assert!(
            removed.contains(pref),
            "{pref:?} vanished without being returned"
        );
    }

    service.add_user("dave").unwrap();
    service
        .insert_preference_eq("dave", "*", "name", "kept".into(), 0.9)
        .unwrap();
    let acked = profile_of("dave").preferences()[0].clone();
    let profile = service.remove_user("dave").unwrap();
    assert_eq!(profile.preferences(), [acked]);
    assert!(
        service.with_db(|db| db.profile("dave")).is_err(),
        "dave is gone"
    );
}

#[test]
fn removals_return_what_they_removed_on_every_write_path() {
    let _serial = ctxpref_faults::exclusive();
    removals_return_what_they_removed(CtxPrefService::new(study_db(), small_cfg()));

    let tmp = TempDir::new("displaced-logged");
    let dcfg = DurabilityConfig {
        checkpoint_interval: None,
        scrub_interval: None,
        ..DurabilityConfig::new(tmp.path())
    }
    .group_commit(Duration::from_secs(3600));
    removals_return_what_they_removed(
        CtxPrefService::new_durable(study_db(), small_cfg(), dcfg).unwrap(),
    );

    let tmp = TempDir::new("displaced-replicated");
    removals_return_what_they_removed(
        CtxPrefService::new_replicated(study_db(), small_cfg(), unflushed_rcfg(tmp.path(), 2))
            .unwrap(),
    );
}
