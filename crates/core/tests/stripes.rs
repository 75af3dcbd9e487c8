//! The sharded core against the plain one. `ShardedMultiUserDb` is an
//! array of locked `MultiUserDb` stripes, so any history of verbs must
//! leave the plain database and a sharded one of any width answering
//! alike — and a change of query options must wait for the reads in
//! flight on a stripe, so none of them can cache an answer computed
//! under the options the change replaced.

use std::thread;
use std::time::{Duration, Instant};

use ctxpref_context::{parse_extended_descriptor, ContextEnvironment, ContextState, DistanceKind};
use ctxpref_core::{
    preference_from_parts, CoreError, MultiUserDb, QueryAnswer, QueryOptions, ShardedMultiUserDb,
};
use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder};
use ctxpref_profile::ContextualPreference;
use ctxpref_relation::{AttrType, CompareOp, Relation, Schema, ScoreCombiner, Value};
use ctxpref_resolve::TieBreak;
use proptest::prelude::*;

fn env() -> ContextEnvironment {
    let mut w = HierarchyBuilder::new("weather", &["Conditions", "Char"]);
    w.add("Char", "bad", None).unwrap();
    w.add("Char", "good", None).unwrap();
    w.add_leaves("bad", &["cold"]).unwrap();
    w.add_leaves("good", &["warm", "hot"]).unwrap();
    ContextEnvironment::new(vec![
        w.build().unwrap(),
        Hierarchy::flat("company", &["friends", "family"]).unwrap(),
    ])
    .unwrap()
}

fn relation() -> Relation {
    let schema = Schema::new(&[("name", AttrType::Str), ("type", AttrType::Str)]).unwrap();
    let mut rel = Relation::new("poi", schema);
    for (name, ty) in [
        ("Acropolis", "monument"),
        ("Benaki", "museum"),
        ("Plaka Taverna", "restaurant"),
        ("Lycabettus", "monument"),
    ] {
        rel.insert(vec![name.into(), ty.into()]).unwrap();
    }
    rel
}

#[test]
fn an_options_change_waits_for_the_reads_in_flight() {
    let db = ShardedMultiUserDb::new(env(), relation(), 8, 4);
    db.add_user("alice").unwrap();
    // Two preferences on one state, both selecting the Benaki museum:
    // `Max` ranks it at 0.9, `Min` at 0.3.
    for (attr, value, score) in [("name", "Benaki", 0.9), ("type", "museum", 0.3)] {
        db.insert_preference_eq("alice", "weather = warm", attr, value.into(), score)
            .unwrap();
    }
    let warm = ContextState::parse(db.env(), &["warm", "all"]).unwrap();
    let min = QueryOptions {
        combiner: ScoreCombiner::Min,
        ..QueryOptions::default()
    };

    thread::scope(|s| {
        let shard = db.read_user_shard("alice");
        let setter = s.spawn(|| db.set_query_defaults(min));
        // Wait until the setter is done or queued on alice's stripe: a
        // queued writer turns new readers away.
        let started = Instant::now();
        while !setter.is_finished()
            && db.try_read_user_shard("alice").is_some()
            && started.elapsed() < Duration::from_secs(5)
        {
            thread::yield_now();
        }
        // A read that began under `Max` finishes under it, and caches
        // what it computed.
        let in_flight = shard.query_state("alice", &warm).unwrap();
        assert_eq!(in_flight.results.entries()[0].score, 0.9);
        drop(shard);
        setter.join().unwrap();
    });

    let after = db.query_state("alice", &warm).unwrap();
    assert!(
        !after.from_cache,
        "an answer cached under `Max` was served after the switch to `Min`"
    );
    assert_eq!(after.results.entries()[0].score, 0.3);
}

const USERS: [&str; 4] = ["ann", "bob", "cyd", "dee"];
const WEATHER: [&str; 6] = ["cold", "warm", "hot", "bad", "good", "all"];
const COMPANY: [&str; 3] = ["friends", "family", "all"];
const DESCRIPTORS: [&str; 7] = [
    "weather = warm",
    "weather = good",
    "weather in {cold, hot}",
    "company = friends",
    "weather = bad and company = family",
    "weather = good and company = friends",
    "*",
];
const QUERIES: [&str; 3] = [
    "(weather = warm) or (weather = cold and company = family)",
    "weather in {warm, hot} and company = friends",
    "(weather = good) or (company = family)",
];
const CLAUSES: [(&str, &str); 6] = [
    ("name", "Acropolis"),
    ("name", "Benaki"),
    ("name", "Lycabettus"),
    ("type", "monument"),
    ("type", "museum"),
    ("type", "restaurant"),
];
const SCORES: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// One verb with its arguments.
#[derive(Debug, Clone)]
enum Op {
    AddUser(&'static str),
    RemoveUser(&'static str),
    InsertEq(
        &'static str,
        &'static str,
        (&'static str, &'static str),
        f64,
    ),
    Insert(&'static str, ContextualPreference),
    RemovePreference(&'static str, usize),
    Rescore(&'static str, usize, f64),
    QueryState(&'static str, ContextState),
    QueryTopk(&'static str, ContextState, usize),
    Query(&'static str, ctxpref_context::ExtendedContextDescriptor),
    SetDefaults(QueryOptions),
    PinView(&'static str, ContextState),
}

/// Decode a generated tuple into a verb: `kind` picks the verb (weighted
/// towards the ones with state to compare), the rest its arguments.
fn op(env: &ContextEnvironment, rel: &Relation, (kind, u, a, b): (u32, usize, usize, usize)) -> Op {
    let user = USERS[u];
    let state = ContextState::parse(env, &[WEATHER[a % 6], COMPANY[b % 3]]).unwrap();
    let descriptor = DESCRIPTORS[a % DESCRIPTORS.len()];
    let clause = CLAUSES[b % CLAUSES.len()];
    let score = SCORES[(a / 8 + b) % SCORES.len()];
    match kind {
        0..6 => Op::AddUser(user),
        6..9 => Op::RemoveUser(user),
        9..30 => Op::InsertEq(user, descriptor, clause, score),
        30..38 => {
            let (attr, value) = clause;
            let pref = preference_from_parts(
                env,
                rel,
                descriptor,
                attr,
                CompareOp::Eq,
                value.into(),
                score,
            )
            .unwrap();
            Op::Insert(user, pref)
        }
        38..45 => Op::RemovePreference(user, a % 4),
        45..55 => Op::Rescore(user, b % 4, score),
        55..70 => Op::QueryState(user, state),
        70..85 => Op::QueryTopk(user, state, 1 + a % 3),
        85..92 => Op::Query(
            user,
            parse_extended_descriptor(env, QUERIES[a % QUERIES.len()]).unwrap(),
        ),
        92..96 => Op::SetDefaults(QueryOptions {
            distance: [DistanceKind::Hierarchy, DistanceKind::Jaccard][a % 2],
            tie: [TieBreak::All, TieBreak::First][b % 2],
            combiner: [ScoreCombiner::Max, ScoreCombiner::Min, ScoreCombiner::Avg][(a + b) % 3],
            ..QueryOptions::default()
        }),
        _ => Op::PinView(user, state),
    }
}

fn shown<T: std::fmt::Debug>(r: Result<T, CoreError>) -> String {
    format!("{:?}", r.map_err(|e| e.to_string()))
}

/// An answer's rows, scores compared bit for bit.
fn rows(a: &QueryAnswer) -> Vec<(usize, u64)> {
    a.results
        .entries()
        .iter()
        .map(|e| (e.tuple_index, e.score.to_bits()))
        .collect()
}

/// Run `op` on a database of either type — the verbs share names and
/// arguments, so one body serves both — and describe what it returned.
macro_rules! apply {
    ($db:expr, $op:expr) => {
        match $op.clone() {
            Op::AddUser(u) => shown($db.add_user(u)),
            Op::RemoveUser(u) => shown($db.remove_user(u).map(|p| p.preferences().to_vec())),
            Op::InsertEq(u, d, (attr, value), s) => {
                shown($db.insert_preference_eq(u, d, attr, Value::from(value), s))
            }
            Op::Insert(u, p) => shown($db.insert_preference(u, p)),
            Op::RemovePreference(u, i) => shown($db.remove_preference(u, i)),
            Op::Rescore(u, i, s) => shown($db.update_preference_score(u, i, s)),
            Op::QueryState(u, s) => shown($db.query_state(u, &s).map(|a| (rows(&a), a.from_cache))),
            Op::QueryTopk(u, s, k) => shown(
                $db.query_state_topk(u, &s, k)
                    .map(|(a, view)| (rows(&a), a.from_cache, view)),
            ),
            Op::Query(u, e) => shown($db.query(u, &e).map(|a| (rows(&a), a.from_cache))),
            Op::SetDefaults(o) => {
                $db.set_query_defaults(o);
                format!("{:?}", $db.query_defaults())
            }
            Op::PinView(u, s) => shown($db.pin_view(u, &s)),
        }
    };
}

/// Everything a snapshot must carry: options, cache setting, and every
/// user's profile and view pins.
fn contents(db: &MultiUserDb) -> String {
    let mut out = format!("{:?} cache {}\n", db.query_defaults(), db.cache_capacity());
    for u in db.users_sorted() {
        let prefs = db.profile(u).unwrap().preferences();
        out += &format!("{u}: {prefs:?} pins {:?}\n", db.pinned_views(u).unwrap());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A plain core and sharded cores of 1 and 5 stripes, fed the same
    /// history, agree on every answer (rows by score bits, cache and
    /// view flags), every error and every profile; their snapshots and
    /// `into_db`/`from_db` round trips carry the same contents.
    #[test]
    fn stripes_answer_like_the_plain_core(
        history in proptest::collection::vec((0u32..100, 0usize..4, 0usize..64, 0usize..64), 1..120),
    ) {
        let env = env();
        let mut plain = MultiUserDb::new(env.clone(), relation(), 4);
        let sharded: Vec<ShardedMultiUserDb> = [1, 5]
            .into_iter()
            .map(|n| ShardedMultiUserDb::new(env.clone(), relation(), 4, n))
            .collect();
        for user in &USERS[..2] {
            plain.add_user(user).unwrap();
            for db in &sharded {
                db.add_user(user).unwrap();
            }
        }
        for (i, raw) in history.into_iter().enumerate() {
            let op = op(&env, plain.relation(), raw);
            let want = apply!(plain, op);
            for db in &sharded {
                let n = db.num_shards();
                prop_assert_eq!(apply!(db, op), want.clone(), "step {} {:?}, {} stripes", i, op, n);
            }
        }

        let want = contents(&plain);
        let probe = ContextState::parse(&env, &["warm", "friends"]).unwrap();
        let answer = |db: &MultiUserDb, u: &str| shown(db.query_state(u, &probe).map(|a| rows(&a)));
        for db in sharded {
            let snap = db.snapshot();
            prop_assert_eq!(contents(&snap), want.clone());
            let back = ShardedMultiUserDb::from_db(db.into_db(), 3).into_db();
            prop_assert_eq!(contents(&back), want.clone());
            for u in USERS {
                prop_assert_eq!(answer(&snap, u), answer(&plain, u));
                prop_assert_eq!(answer(&back, u), answer(&plain, u));
            }
        }
    }
}
