//! The self-healing verbs over the wire: a remote `scrub` verifies a
//! durable service's files at rest, quarantines and heals real damage,
//! and `scrub-status` exposes the counters — while a non-durable
//! service refuses both with the typed `not-durable` error.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ctxpref_core::MultiUserDb;
use ctxpref_net::{NetClient, NetClientConfig, NetError, NetServer, NetServerConfig, Response};
use ctxpref_service::{CtxPrefService, DurabilityConfig, ScrubStatus, ServiceConfig, SyncPolicy};
use ctxpref_testkit::TempDir;
use ctxpref_workload::reference::{poi_env, poi_relation};

fn study_db() -> MultiUserDb {
    let env = poi_env();
    let rel = poi_relation(&env, 7, 2);
    MultiUserDb::new(env, rel, 8)
}

fn small_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        shards: 4,
        ..ServiceConfig::default()
    }
}

/// The oldest (sealed) segment of any shard holding at least two.
fn a_sealed_segment(dir: &std::path::Path) -> PathBuf {
    for entry in std::fs::read_dir(dir).unwrap() {
        let shard_dir = entry.unwrap().path();
        if !shard_dir.is_dir()
            || !shard_dir
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("shard-"))
        {
            continue;
        }
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&shard_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "wal"))
            .collect();
        if segs.len() >= 2 {
            segs.sort();
            return segs.remove(0);
        }
    }
    panic!("no shard sealed a segment; grow the workload");
}

#[test]
fn remote_scrub_quarantines_heals_and_counts() {
    let tmp = TempDir::new("heal");
    let dcfg = DurabilityConfig {
        sync: SyncPolicy::PerRecord,
        segment_max_bytes: 256,
        checkpoint_interval: None,
        scrub_interval: None,
        ..DurabilityConfig::new(tmp.path())
    };
    let service = CtxPrefService::new_durable(study_db(), small_cfg(), dcfg).unwrap();
    let server = NetServer::bind("127.0.0.1:0", Arc::new(service), NetServerConfig::default())
        .expect("bind loopback");
    let mut client =
        NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());

    for i in 0..40 {
        let user = format!("user-{i:03}");
        client.add_user(&user).unwrap();
        client
            .insert_preference(
                &user,
                "accompanying_people = friends",
                "type",
                "museum",
                0.8,
            )
            .unwrap();
    }

    // A clean pass over the wire: sealed segments verified, nothing
    // quarantined.
    let clean = client.scrub().expect("remote scrub");
    let Response::ScrubReport {
        segments_verified,
        quarantined,
        healed,
        ..
    } = clean
    else {
        panic!("scrub answered {clean:?}");
    };
    assert!(segments_verified > 0, "workload sealed no segments");
    assert_eq!(quarantined, 0);
    assert!(!healed, "nothing to heal on a clean pass");

    // Rot one sealed segment at rest; the next remote pass quarantines
    // and heals it, and the counters flow through scrub-status.
    let victim = a_sealed_segment(tmp.path());
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[30] ^= 0x40;
    std::fs::write(&victim, bytes).unwrap();

    let report = client.scrub().expect("remote scrub after damage");
    assert!(
        matches!(
            report,
            Response::ScrubReport {
                quarantined: 1,
                healed: true,
                ..
            }
        ),
        "damage pass answered {report:?}"
    );
    let status = client.scrub_status().expect("remote scrub-status");
    assert!(
        matches!(
            status,
            ScrubStatus {
                passes: 2,
                quarantined: 1,
                heals: 1,
                ..
            }
        ),
        "scrub-status answered {status:?}"
    );

    // The healed service keeps serving over the same connection.
    let answer = client
        .query(
            "user-000",
            "name",
            3,
            Duration::from_millis(250),
            &["Plaka", "warm", "friends"],
        )
        .expect("query after heal");
    assert!(!answer.rows.is_empty());
    server.shutdown();
}

#[test]
fn non_durable_service_refuses_scrub_verbs_typed() {
    let service = CtxPrefService::new(study_db(), small_cfg());
    let server = NetServer::bind("127.0.0.1:0", Arc::new(service), NetServerConfig::default())
        .expect("bind loopback");
    let mut client =
        NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());
    for result in [client.scrub().map(drop), client.scrub_status().map(drop)] {
        match result {
            Err(NetError::Remote { kind, .. }) => assert_eq!(kind, "not-durable"),
            other => panic!("expected a typed not-durable refusal, got {other:?}"),
        }
    }
    server.shutdown();
}
