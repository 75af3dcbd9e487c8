//! Every dispatch arm's reply, pinned over a real loopback socket: one
//! `Request` per variant and one `MigrateUser` per `MigrateAction`,
//! sent through `NetClient::request` to a plain and to a durable
//! service. Each probe asserts the exact `Response` (only an answer's
//! `elapsed_us` is masked) or, where the verb is refused, the
//! `NetError::Remote` kind.
//!
//! Coverage is held by [`arm`]: its `match` has no wildcard, so a new
//! variant does not compile until it is given an arm number, and
//! `every_arm_is_probed` fails until the script sends it.

use std::sync::Arc;

use ctxpref_core::MultiUserDb;
use ctxpref_net::{
    AnswerRow, MigrateAction, NetClient, NetClientConfig, NetError, NetServer, NetServerConfig,
    RemoteAnswer, Request, Response,
};
use ctxpref_service::{CtxPrefService, DurabilityConfig, ServiceConfig};
use ctxpref_testkit::TempDir;
use ctxpref_workload::reference::{poi_env, poi_relation};

/// Dispatch arms: every `Request` variant but `MigrateUser`, plus one
/// per `MigrateAction`.
const ARMS: usize = 28;

/// The dispatch arm `req` exercises.
fn arm(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::Query { .. } => 1,
        Request::TopK { .. } => 2,
        Request::ViewsStatus => 3,
        Request::QueryDescriptor { .. } => 4,
        Request::AddUser { .. } => 5,
        Request::RemoveUser { .. } => 6,
        Request::InsertPref { .. } => 7,
        Request::RemovePref { .. } => 8,
        Request::UpdateScore { .. } => 9,
        Request::Checkpoint => 10,
        Request::FlushWal => 11,
        Request::WalStatus => 12,
        Request::ReplStatus => 13,
        Request::Scrub => 14,
        Request::ScrubStatus => 15,
        Request::Stats => 16,
        Request::RouteStatus => 17,
        Request::Batch { .. } => 18,
        Request::MigrateUser { action, .. } => match action {
            MigrateAction::Export => 19,
            MigrateAction::Snapshot => 20,
            MigrateAction::Pull { .. } => 21,
            MigrateAction::Fence => 22,
            MigrateAction::Import { .. } => 23,
            MigrateAction::Apply { .. } => 24,
            MigrateAction::Activate => 25,
            MigrateAction::Finish => 26,
            MigrateAction::Abort => 27,
        },
    }
}

/// What one probe must get back.
enum Expect {
    /// This exact response.
    Reply(Response),
    /// The response the service's own state renders right after the
    /// reply (status bodies, migration cuts).
    Computed(fn(&CtxPrefService) -> Response),
    /// A typed refusal of this kind.
    Refused(&'static str),
}
use Expect::{Computed, Refused, Reply};

const STATE: [&str; 3] = ["Plaka", "warm", "friends"];

fn text(body: String) -> Response {
    Response::Text { body }
}

fn answer(step: &str, rows: &[(&str, f64)]) -> Response {
    Response::Answer(RemoteAnswer {
        step: step.to_string(),
        elapsed_us: 0,
        resolved_state: None,
        fallbacks: Vec::new(),
        rows: rows
            .iter()
            .map(|(name, score)| AnswerRow {
                name: name.to_string(),
                score: *score,
            })
            .collect(),
    })
}

fn insert(user: &str, descriptor: &str, value: &str, score: f64) -> Request {
    Request::InsertPref {
        user: user.to_string(),
        descriptor: descriptor.to_string(),
        attr: "type".to_string(),
        value: value.to_string(),
        score,
    }
}

fn add_user(user: &str) -> Request {
    Request::AddUser {
        user: user.to_string(),
    }
}

fn migrate(user: &str, action: MigrateAction) -> Request {
    Request::MigrateUser {
        user: user.to_string(),
        epoch: 1,
        action,
    }
}

/// A durable-only verb: answered with `reply` on a durable service,
/// refused `not-durable` on a plain one.
fn durable_only(durable: bool, reply: Expect) -> Expect {
    if durable {
        reply
    } else {
        Refused("not-durable")
    }
}

/// The probe script, in order; later probes see earlier effects.
fn script(durable: bool) -> Vec<(Request, Expect)> {
    // The most specific preference (location = Plaka) answers, ties
    // included past k.
    let rows = [
        ("cafeteria_Kifisia_7", 0.7),
        ("cafeteria_Kolonaki_12", 0.7),
        ("cafeteria_Kolonaki_13", 0.7),
        ("cafeteria_Ano_Poli_35", 0.7),
        ("cafeteria_Pylaia_39", 0.7),
    ];
    vec![
        (Request::Ping, Reply(Response::Pong)),
        (add_user("alice"), Reply(Response::Ok)),
        (add_user("alice"), Refused("core")),
        (
            insert("alice", "accompanying_people = friends", "museum", 0.8),
            Reply(Response::Ok),
        ),
        (
            insert("alice", "location = Plaka", "cafeteria", 0.6),
            Reply(Response::Ok),
        ),
        (
            Request::UpdateScore {
                user: "alice".to_string(),
                index: 1,
                score: 0.7,
            },
            Reply(Response::Ok),
        ),
        (
            Request::Query {
                user: "alice".to_string(),
                attr: "name".to_string(),
                k: 2,
                deadline_ms: 5_000,
                state: STATE.iter().map(|s| s.to_string()).collect(),
            },
            Reply(answer("exact", &rows)),
        ),
        (
            Request::TopK {
                user: "alice".to_string(),
                attr: "name".to_string(),
                k: 2,
                deadline_ms: 5_000,
                state: STATE.iter().map(|s| s.to_string()).collect(),
            },
            Reply(answer("exact", &rows)),
        ),
        (
            Request::Query {
                user: "alice".to_string(),
                attr: "name".to_string(),
                k: 2,
                deadline_ms: 5_000,
                state: vec!["Atlantis".into(), "warm".into(), "friends".into()],
            },
            Refused("core"),
        ),
        (
            Request::QueryDescriptor {
                user: "alice".to_string(),
                attr: "name".to_string(),
                k: 2,
                descriptor: "location = Plaka".to_string(),
            },
            Reply(answer("exact", &rows)),
        ),
        (
            Request::QueryDescriptor {
                user: "alice".to_string(),
                attr: "no_such_attr".to_string(),
                k: 2,
                descriptor: "location = Plaka".to_string(),
            },
            Refused("core"),
        ),
        (Request::ViewsStatus, Computed(|s| text(s.views_status()))),
        // A homogeneous insert batch takes the bulk verb.
        (
            Request::Batch {
                requests: vec![
                    insert("alice", "temperature = warm", "zoo", 0.5),
                    insert("alice", "temperature = cold", "museum", 0.4),
                ],
            },
            Reply(Response::Batch {
                responses: vec![Response::Ok, Response::Ok],
            }),
        ),
        // A mixed batch runs item by item and stops at the first
        // failure.
        (
            Request::Batch {
                requests: vec![
                    Request::Ping,
                    add_user("bob"),
                    add_user("bob"),
                    Request::Ping,
                ],
            },
            Reply(Response::Batch {
                responses: vec![
                    Response::Pong,
                    Response::Ok,
                    Response::Err {
                        kind: "core".to_string(),
                        message: "user \"bob\" already exists".to_string(),
                    },
                ],
            }),
        ),
        // The codec refuses a nested batch before dispatch sees it.
        (
            Request::Batch {
                requests: vec![Request::Batch {
                    requests: Vec::new(),
                }],
            },
            Refused("proto"),
        ),
        (
            Request::RemovePref {
                user: "alice".to_string(),
                index: 0,
            },
            Reply(Response::Removed { score: 0.8 }),
        ),
        (
            Request::Checkpoint,
            durable_only(
                durable,
                Reply(text("checkpoint generation 1 written (2 user(s))".into())),
            ),
        ),
        (
            Request::FlushWal,
            durable_only(durable, Reply(text("flushed 0 pending record(s)".into()))),
        ),
        (
            Request::WalStatus,
            durable_only(
                durable,
                Computed(|s| text(s.wal_status().expect("durable").to_string())),
            ),
        ),
        (Request::ReplStatus, Refused("not-replicated")),
        (
            Request::Scrub,
            durable_only(
                durable,
                Reply(Response::ScrubReport {
                    segments_verified: 0,
                    checkpoints_verified: 1,
                    read_errors: 0,
                    quarantined: 0,
                    healed: false,
                }),
            ),
        ),
        (
            Request::ScrubStatus,
            durable_only(
                durable,
                Reply(Response::ScrubInfo {
                    passes: 1,
                    quarantined: 0,
                    read_errors: 0,
                    heals: 0,
                    rescued_shards: 0,
                    disk_full_sheds: 0,
                    rotate_failures: 0,
                }),
            ),
        ),
        (Request::Stats, Computed(|s| text(s.stats().to_string()))),
        (
            Request::RouteStatus,
            Reply(Response::RouteInfo {
                has_primary: true,
                epoch: 0,
                users: 2,
                migrations: 0,
            }),
        ),
        (
            migrate("alice", MigrateAction::Export),
            durable_only(
                durable,
                Computed(|s| {
                    let cut = s.migrate_export("alice").expect("durable");
                    Response::UserCut {
                        present: cut.present,
                        shard: cut.shard,
                        last_lsn: cut.last_lsn,
                        digest: cut.digest,
                    }
                }),
            ),
        ),
        (
            migrate("alice", MigrateAction::Snapshot),
            durable_only(
                durable,
                Computed(|s| {
                    let (src_lsn, ops) = s.migrate_snapshot("alice").expect("durable");
                    Response::Snapshot { src_lsn, ops }
                }),
            ),
        ),
        // The checkpoint above collected the log before it.
        (
            migrate(
                "alice",
                MigrateAction::Pull {
                    from_lsn: 1,
                    max: 16,
                },
            ),
            durable_only(durable, Reply(Response::Gone)),
        ),
        (
            migrate(
                "alice",
                MigrateAction::Pull {
                    from_lsn: 1_000,
                    max: 16,
                },
            ),
            durable_only(
                durable,
                Reply(Response::Records {
                    through: 999,
                    records: Vec::new(),
                }),
            ),
        ),
        (migrate("alice", MigrateAction::Fence), Reply(Response::Ok)),
        // A fenced user's writes are refused with the routing variant.
        (
            insert("alice", "location = Plaka", "club", 0.3),
            Reply(Response::Migrating {
                user: "alice".to_string(),
            }),
        ),
        (
            migrate(
                "carol",
                MigrateAction::Import {
                    src_lsn: 7,
                    ops: Vec::new(),
                },
            ),
            Reply(Response::Ok),
        ),
        (
            migrate(
                "carol",
                MigrateAction::Apply {
                    through: 9,
                    records: Vec::new(),
                },
            ),
            Reply(Response::Applied { watermark: 9 }),
        ),
        (
            migrate("carol", MigrateAction::Activate),
            Reply(Response::Ok),
        ),
        (migrate("alice", MigrateAction::Finish), Reply(Response::Ok)),
        (migrate("alice", MigrateAction::Abort), Reply(Response::Ok)),
        (
            Request::RemoveUser {
                user: "bob".to_string(),
            },
            Reply(Response::Ok),
        ),
        (
            Request::RemoveUser {
                user: "bob".to_string(),
            },
            Refused("core"),
        ),
    ]
}

fn masked(resp: Response) -> Response {
    match resp {
        Response::Answer(mut a) => {
            a.elapsed_us = 0;
            Response::Answer(a)
        }
        other => other,
    }
}

/// Run the whole script against `service`.
fn run(service: CtxPrefService, durable: bool) {
    let service = Arc::new(service);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .expect("bind loopback");
    let mut client =
        NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());
    let mut mismatches = Vec::new();
    for (i, (req, expect)) in script(durable).into_iter().enumerate() {
        let got = client.request(&req).map(masked);
        let ok = match (&expect, &got) {
            (Reply(want), Ok(resp)) => resp == want,
            (Computed(want), Ok(resp)) => *resp == want(&service),
            (Refused(kind), Err(NetError::Remote { kind: got, message })) => {
                got == kind && !message.is_empty()
            }
            _ => false,
        };
        if !ok {
            let want = match expect {
                Reply(want) => format!("{want:?}"),
                Computed(want) => format!("{:?}", want(&service)),
                Refused(kind) => format!("a {kind} refusal"),
            };
            mismatches.push(format!("probe {i}: {req:?}\n  want {want}\n  got  {got:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    drop(client);
    server.shutdown();
}

fn db() -> MultiUserDb {
    let env = poi_env();
    let rel = poi_relation(&env, 7, 2);
    MultiUserDb::new(env, rel, 8)
}

fn cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        shards: 4,
        ..ServiceConfig::default()
    }
}

#[test]
fn plain_service_replies() {
    run(CtxPrefService::new(db(), cfg()), false);
}

#[test]
fn durable_service_replies() {
    let tmp = TempDir::new("net-dispatch");
    let dcfg = DurabilityConfig {
        checkpoint_interval: None,
        scrub_interval: None,
        ..DurabilityConfig::new(tmp.path())
    };
    let service = CtxPrefService::new_durable(db(), cfg(), dcfg).expect("durable service");
    run(service, true);
}

#[test]
fn every_arm_is_probed() {
    let mut probed = [false; ARMS];
    for (req, _) in script(true) {
        probed[arm(&req)] = true;
    }
    let missing: Vec<usize> = (0..ARMS).filter(|&a| !probed[a]).collect();
    assert!(
        missing.is_empty(),
        "dispatch arms without a probe: {missing:?}"
    );
}
