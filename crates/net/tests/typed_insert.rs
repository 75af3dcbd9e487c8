//! A preference inserted over the wire carries its value as text, and
//! the service types it by its attribute's schema type before it is
//! logged or applied. On the POI relation's integer `pid` column,
//! `location = Plaka ⇒ pid = <a pid>` must select that tuple under
//! (Plaka, warm, friends); text that spells no integer is refused
//! typed; and a logged service recovers the insert with its integer
//! value.

use std::sync::Arc;
use std::time::Duration;

use ctxpref_core::MultiUserDb;
use ctxpref_net::{AnswerRow, NetClient, NetClientConfig, NetError, NetServer, NetServerConfig};
use ctxpref_relation::Value;
use ctxpref_service::{CtxPrefService, DurabilityConfig, ServiceConfig};
use ctxpref_testkit::TempDir;
use ctxpref_workload::reference::{poi_env, poi_relation};

const STATE: [&str; 3] = ["Plaka", "warm", "friends"];
const DESCRIPTOR: &str = "location = Plaka";

fn poi_db() -> MultiUserDb {
    let env = poi_env();
    let relation = poi_relation(&env, 7, 2);
    MultiUserDb::new(env, relation, 8)
}

/// The `pid` of the relation's sixth tuple, as text.
fn a_pid(service: &CtxPrefService) -> String {
    service.with_db(|db| {
        let rel = db.relation();
        let pid = rel.schema().attr("pid").unwrap();
        rel.tuple(5).value(pid).to_string()
    })
}

fn serve(service: CtxPrefService) -> (Arc<CtxPrefService>, NetServer, NetClient) {
    let service = Arc::new(service);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .expect("bind loopback");
    let client = NetClient::connect(server.local_addr().to_string(), NetClientConfig::default());
    (service, server, client)
}

/// `user`'s rows under [`STATE`], rendered by their `pid`.
fn pid_rows(client: &mut NetClient, user: &str) -> Vec<AnswerRow> {
    client
        .query(user, "pid", 10, Duration::from_secs(2), &STATE)
        .expect("query")
        .rows
}

#[test]
fn a_wire_insert_on_an_integer_column_selects_its_row() {
    let (service, server, mut client) =
        serve(CtxPrefService::new(poi_db(), ServiceConfig::default()));
    let pid = a_pid(&service);
    client.add_user("u").unwrap();
    client
        .insert_preference("u", DESCRIPTOR, "pid", &pid, 0.8)
        .expect("an integer pid is stored");
    let stored = service.with_db(|db| db.profile("u").unwrap().preferences()[0].clause().clone());
    assert_eq!(stored.value, Value::Int(pid.parse().unwrap()));
    assert_eq!(
        pid_rows(&mut client, "u"),
        vec![AnswerRow {
            name: pid.clone(),
            score: 0.8
        }]
    );

    // Text that spells no integer is refused typed, and stores nothing.
    match client.insert_preference("u", DESCRIPTOR, "pid", "forty-two", 0.5) {
        Err(NetError::Remote { kind, message }) => {
            assert_eq!(kind, "core");
            assert!(
                message.contains("expects int") && message.contains("forty-two"),
                "{message}"
            );
        }
        other => panic!("`forty-two` on an integer column answered {other:?}"),
    }
    assert_eq!(service.with_db(|db| db.profile("u").unwrap().len()), 1);
    drop(client);
    server.shutdown();
}

#[test]
fn a_logged_service_recovers_a_wire_insert_typed() {
    let tmp = TempDir::new("typed-insert");
    let dcfg = DurabilityConfig::new(tmp.path()).scrub_every(None);
    let service = CtxPrefService::new_durable(poi_db(), ServiceConfig::default(), dcfg.clone())
        .expect("durable");
    let (service, server, mut client) = serve(service);
    let pid = a_pid(&service);
    client.add_user("u").unwrap();
    client
        .insert_preference("u", DESCRIPTOR, "pid", &pid, 0.8)
        .expect("an integer pid is stored");
    drop(client);
    server.shutdown();
    let service = Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("a queued request still holds the service"));
    drop(service.shutdown());

    let (recovered, _) = CtxPrefService::recover(ServiceConfig::default(), dcfg).expect("recover");
    let stored = recovered.with_db(|db| db.profile("u").unwrap().preferences()[0].clause().clone());
    assert_eq!(stored.value, Value::Int(pid.parse().unwrap()));
    let (_, server, mut client) = serve(recovered);
    assert_eq!(
        pid_rows(&mut client, "u"),
        vec![AnswerRow {
            name: pid,
            score: 0.8
        }]
    );
    drop(client);
    server.shutdown();
}
