//! A sharer's view hits while an editor forks their catalog. Users `a`
//! and `b` register with one profile, so they share one index and one
//! view catalog, and both warm their views. Then one client re-scores
//! `a` again and again, alternating two scores — its first edit forks
//! `a` a catalog of their own — while another client reads `b`'s top k
//! throughout. The reactor renders a view hit's rows from the view
//! while the catalog is read-locked, so this is the render racing the
//! fork and every patch after it.
//!
//! Every answer to `b` must equal `b`'s unedited `ContextualDb` answer
//! row for row, score bits included, and every read of `a` issued after
//! an acknowledged re-score must equal `a`'s `ContextualDb` after that
//! re-score. Run with one worker and with four.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ctxpref_context::ContextState;
use ctxpref_core::{ContextualDb, MultiUserDb};
use ctxpref_net::{
    NetClient, NetClientConfig, NetServer, NetServerConfig, RemoteAnswer, Request, Response,
};
use ctxpref_relation::{Relation, Value};
use ctxpref_service::{CtxPrefService, ServiceConfig};
use ctxpref_workload::reference::{poi_env, poi_relation};

const DEADLINE: Duration = Duration::from_secs(5);
const STATE: [&str; 3] = ["Plaka", "warm", "friends"];
const K: usize = 3;
const PREFS: [(&str, &str, f64); 3] = [
    ("location = Plaka", "cafeteria", 0.8),
    ("location = Plaka", "museum", 0.7),
    ("location = Plaka", "zoo", 0.6),
];
/// The two scores `a`'s first preference alternates between: the first
/// moves cafeterias below museums and zoos, the second back above them.
const SCORES: [f64; 2] = [0.3, 0.95];
const EDITS: usize = 200;

/// A row as compared: the name and the score's bits.
type Row = (String, u64);

/// The paper's single-user database holding [`PREFS`], with the first
/// preference re-scored to `rescore` if given.
fn contextual(
    env: &ctxpref_context::ContextEnvironment,
    rel: &Relation,
    rescore: Option<f64>,
) -> ContextualDb {
    let mut db = ContextualDb::builder()
        .env(env.clone())
        .relation(rel.clone())
        .build()
        .unwrap();
    for (desc, value, score) in PREFS {
        db.insert_preference_eq(desc, "type", Value::str(value), score)
            .unwrap();
    }
    if let Some(score) = rescore {
        db.update_preference_score(0, score).unwrap();
    }
    db
}

/// `db`'s top-k rows under [`STATE`].
fn rows_of(db: &ContextualDb, rel: &Relation) -> Vec<Row> {
    let state = ContextState::parse(db.env(), &STATE).unwrap();
    let name = rel.schema().attr("name").unwrap();
    (db.query_state(&state)
        .unwrap()
        .results
        .top_k_with_ties(K)
        .iter())
    .map(|e| {
        (
            rel.tuple(e.tuple_index).value(name).to_string(),
            e.score.to_bits(),
        )
    })
    .collect()
}

fn rows(answer: &RemoteAnswer) -> Vec<Row> {
    (answer.rows.iter())
        .map(|r| (r.name.clone(), r.score.to_bits()))
        .collect()
}

fn topk(client: &mut NetClient, user: &str) -> RemoteAnswer {
    client
        .query_topk(user, "name", K, DEADLINE, &STATE)
        .expect("topk")
}

fn a_sharers_hits_see_nothing_of_an_editors_fork(workers: usize) {
    let env = poi_env();
    let rel = poi_relation(&env, 2007, 5);
    let unedited = rows_of(&contextual(&env, &rel, None), &rel);
    let rescored = SCORES.map(|s| rows_of(&contextual(&env, &rel, Some(s)), &rel));
    assert!(
        rescored[0] != unedited && rescored[0] != rescored[1],
        "the re-scores must move the answer"
    );

    let mut db = MultiUserDb::new(env.clone(), rel.clone(), 8);
    let profile = contextual(&env, &rel, None).profile().clone();
    for user in ["a", "b"] {
        db.add_user_with_profile(user, profile.clone()).unwrap();
    }
    let catalogs = |db: &MultiUserDb| {
        let (a, b) = (db.view_catalog("a").unwrap(), db.view_catalog("b").unwrap());
        std::ptr::eq(a, b)
    };
    assert!(catalogs(&db), "a and b share one catalog");

    let cfg = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };
    let service = Arc::new(CtxPrefService::new(db, cfg));
    let server = NetServer::bind("127.0.0.1:0", service, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let client = || NetClient::connect(addr.clone(), NetClientConfig::default());
    let mut editor = client();
    for user in ["a", "b"] {
        let warm = (0..8).any(|_| topk(&mut editor, user).step == "view");
        assert!(warm, "no view materialized for {user}");
    }

    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (done, mut reader, unedited) = (Arc::clone(&done), client(), unedited.clone());
        std::thread::spawn(move || {
            let (mut reads, mut hits) = (0, 0);
            while !done.load(Ordering::Acquire) || reads < EDITS {
                let answer = topk(&mut reader, "b");
                assert_eq!(
                    rows(&answer),
                    unedited,
                    "read {reads} of b ({})",
                    answer.step
                );
                reads += 1;
                hits += usize::from(answer.step == "view");
            }
            (reads, hits)
        })
    };
    for i in 0..EDITS {
        let score = SCORES[i % 2];
        let rescore = Request::UpdateScore {
            user: "a".into(),
            index: 0,
            score,
        };
        assert_eq!(editor.request(&rescore).unwrap(), Response::Ok, "edit {i}");
        let answer = topk(&mut editor, "a");
        assert_eq!(rows(&answer), rescored[i % 2], "read of a after edit {i}");
    }
    done.store(true, Ordering::Release);
    let (reads, hits) = reader.join().expect("the reader's answers held");
    assert!(hits > 0, "none of b's {reads} reads was a view hit");
    drop(editor);
    server.shutdown();
}

#[test]
fn a_sharers_hits_see_nothing_of_an_editors_fork_with_one_worker() {
    let _serial = ctxpref_faults::exclusive();
    a_sharers_hits_see_nothing_of_an_editors_fork(1);
}

#[test]
fn a_sharers_hits_see_nothing_of_an_editors_fork_with_four_workers() {
    let _serial = ctxpref_faults::exclusive();
    a_sharers_hits_see_nothing_of_an_editors_fork(4);
}
