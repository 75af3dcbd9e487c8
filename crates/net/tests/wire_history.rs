//! Wire-level differential test against the paper-faithful
//! `ContextualDb`. Seeded random histories of user adds and removals
//! (a removed user is re-added later), preference inserts, re-scores
//! and removals, top-k reads and full rankings, batch frames mixing
//! edits and reads, and pipelined bursts of reads go through a real
//! `NetServer` over the POI dataset. Two clients, each on its own
//! connection, take turns; each step is answered before the next is
//! sent. Every answer must be row-identical to what a per-user
//! `ContextualDb` replay of the same history says; a refusal must be a
//! refusal there too. Each history runs three times: with no fault
//! plan, so the reactor applies direct-path edits, answers view hits
//! and ranks cold reads itself while no job is queued; under an empty
//! `FaultPlan`, so every request runs on a worker; and on a group-commit durable service, where the reactor
//! logs and applies the edits whose WAL shard and stripe are free and
//! hands the rest to a worker (a flusher taking the shard's mutex
//! every millisecond makes both happen). The three runs must answer
//! identically — except for which rung answered a read inside a
//! pipelined burst, since the reads of one burst may run concurrently
//! and warm each other's caches. After the logged run the directory is
//! recovered, and every user's profile must equal the replay's.
//!
//! Seeds come from `CTXPREF_FUZZ_SEEDS=start..end` (default `0..8`); a
//! failing seed prints the command that replays it alone.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use ctxpref_context::{ContextEnvironment, ContextState};
use ctxpref_core::{ContextualDb, MultiUserDb};
use ctxpref_faults::FaultPlan;
use ctxpref_net::{
    NetClient, NetClientConfig, NetError, NetServer, NetServerConfig, Request, Response,
};
use ctxpref_relation::Relation;
use ctxpref_service::{CtxPrefService, DurabilityConfig, ServiceConfig};
use ctxpref_testkit::TempDir;
use ctxpref_workload::reference::{poi_env, poi_relation, POI_TYPES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Requests per history.
const OPS: usize = 240;
const USERS: &[&str] = &["ann", "bob", "cat"];
const K: usize = 5;
const DEADLINE: Duration = Duration::from_secs(2);
/// Few descriptors and few values, so inserts conflict now and then.
const DESCRIPTORS: &[&str] = &[
    "location = Plaka",
    "location = Athens",
    "temperature = good",
    "temperature in {cold, freezing}",
    "accompanying_people = friends",
    "location = Plaka and accompanying_people = family",
    "location = Thessaloniki and temperature = warm",
];
/// Few states, so reads repeat and views materialize.
const STATES: &[[&str; 3]] = &[
    ["Plaka", "warm", "friends"],
    ["Plaka", "cold", "family"],
    ["Kifisia", "hot", "alone"],
    ["Ladadika", "warm", "friends"],
    ["Perama", "mild", "family"],
];

/// One step of a history, sent by client 0 or 1.
#[derive(Debug)]
enum Step {
    /// One request (a batch frame among them).
    One(usize, Request),
    /// Reads shipped as one pipelined burst.
    Burst(usize, Vec<Request>),
}

/// A random user and state.
fn pick(rng: &mut StdRng) -> (String, [&'static str; 3]) {
    let user = USERS[rng.random_range(0..USERS.len())].to_string();
    (user, STATES[rng.random_range(0..STATES.len())])
}

/// A random preference edit or read.
fn edit_or_read(rng: &mut StdRng) -> Request {
    // Scores on a coarse grid, so rankings tie.
    let score = |rng: &mut StdRng| f64::from(rng.random_range(1..=20u32)) / 20.0;
    let (user, _) = pick(rng);
    match rng.random_range(0..100) {
        0..36 => Request::InsertPref {
            user,
            descriptor: DESCRIPTORS[rng.random_range(0..DESCRIPTORS.len())].to_string(),
            attr: "type".to_string(),
            value: POI_TYPES[rng.random_range(0..4usize)].to_string(),
            score: score(rng),
        },
        36..52 => Request::UpdateScore {
            user,
            index: rng.random_range(0..8),
            score: score(rng),
        },
        52..62 => Request::RemovePref {
            user,
            index: rng.random_range(0..8),
        },
        _ => read(rng),
    }
}

/// A random top-k read or full ranking.
fn read(rng: &mut StdRng) -> Request {
    let (user, state) = pick(rng);
    let topk = rng.random_range(0..4) != 0;
    Request::ranked(topk, &user, "name", K, DEADLINE, &state)
}

/// A history's steps, drawn from `seed`: every user is added first (a
/// later add of a present user is refused), then random steps follow.
fn history(seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let adds = USERS.iter().map(|user| {
        Step::One(
            0,
            Request::AddUser {
                user: user.to_string(),
            },
        )
    });
    let steps = (USERS.len()..OPS).map(|_| {
        let client = rng.random_range(0..2);
        let (user, _) = pick(&mut rng);
        let request = match rng.random_range(0..100) {
            0..6 => Request::AddUser { user },
            6..8 => Request::RemoveUser { user },
            8..14 => {
                let items = rng.random_range(2..=6);
                return Step::Burst(client, (0..items).map(|_| read(&mut rng)).collect());
            }
            14..20 => Request::Batch {
                requests: (0..rng.random_range(1..=6))
                    .map(|_| edit_or_read(&mut rng))
                    .collect(),
            },
            _ => edit_or_read(&mut rng),
        };
        Step::One(client, request)
    });
    adds.chain(steps).collect()
}

/// An answer reduced to what must agree: everything but its timing.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Ok,
    Removed(f64),
    Rows {
        step: String,
        rows: Vec<(String, f64)>,
    },
    Refused {
        kind: String,
        message: String,
    },
    /// A batch's items, or a burst's answers, in request order.
    Each(Vec<Seen>),
    Other(String),
}

impl Seen {
    /// The same answer without the rung that gave its rows.
    fn unstepped(&self) -> Seen {
        match self {
            Seen::Rows { rows, .. } => Seen::Rows {
                step: String::new(),
                rows: rows.clone(),
            },
            Seen::Each(items) => Seen::Each(items.iter().map(Seen::unstepped).collect()),
            other => other.clone(),
        }
    }
}

fn seen(response: Response) -> Seen {
    match response {
        Response::Ok => Seen::Ok,
        Response::Removed { score } => Seen::Removed(score),
        Response::Answer(a) => Seen::Rows {
            step: a.step,
            rows: a.rows.into_iter().map(|r| (r.name, r.score)).collect(),
        },
        Response::Err { kind, message } => Seen::Refused { kind, message },
        Response::Batch { responses } => Seen::Each(responses.into_iter().map(seen).collect()),
        other => Seen::Other(format!("{other:?}")),
    }
}

/// How a history's server is run.
#[derive(Debug, Clone, Copy)]
enum Arm<'a> {
    /// In memory, with no fault plan: the reactor answers what it can.
    Direct,
    /// In memory, under an empty fault plan: every request on a worker.
    Planned,
    /// Logged under group commit to a fresh durable directory, with no
    /// fault plan.
    Logged(&'a Path),
}

/// The logged arm's durability: group commit with a flusher that takes
/// each WAL shard's mutex every millisecond, so the reactor finds some
/// shards held.
fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir)
        .group_commit(Duration::from_millis(1))
        .scrub_every(None)
}

/// Run `steps` one at a time through a fresh server run as `arm` says.
fn serve_history(seed: u64, steps: &[Step], arm: Arm<'_>) -> Vec<Seen> {
    let env = poi_env();
    let db = MultiUserDb::new(env.clone(), poi_relation(&env, 2007, 5), 8);
    let cfg = ServiceConfig::default();
    let service = Arc::new(match arm {
        Arm::Logged(dir) => CtxPrefService::new_durable(db, cfg, durability(dir))
            .expect("a fresh durable directory"),
        Arm::Direct | Arm::Planned => CtxPrefService::new(db, cfg),
    });
    let server =
        NetServer::bind("127.0.0.1:0", service, NetServerConfig::default()).expect("bind loopback");
    let _plan = matches!(arm, Arm::Planned)
        .then(|| ctxpref_faults::install(FaultPlan::builder(seed).build()));
    let addr = server.local_addr().to_string();
    let mut clients = [0, 1].map(|_| NetClient::connect(addr.clone(), NetClientConfig::default()));
    let answers = steps
        .iter()
        .map(|step| match step {
            Step::One(client, req) => match clients[*client].request(req) {
                Ok(response) => seen(response),
                Err(NetError::Remote { kind, message }) => Seen::Refused { kind, message },
                Err(e) => panic!("no answer to {req:?}: {e}"),
            },
            Step::Burst(client, reqs) => match clients[*client].pipeline(reqs) {
                Ok(responses) => Seen::Each(responses.into_iter().map(seen).collect()),
                Err(e) => panic!("no answer to the burst {reqs:?}: {e}"),
            },
        })
        .collect();
    drop(clients);
    server.shutdown();
    answers
}

/// What the paper's single-user database says of one request, replayed
/// on the requesting user's own `ContextualDb`.
#[derive(Debug)]
enum Expect {
    Ok,
    Removed(f64),
    Rows(Vec<(String, f64)>),
    /// A typed `core` refusal.
    Refused,
    /// A batch's items, or a burst's answers, in request order.
    Each(Vec<Expect>),
}

struct Oracle {
    env: ContextEnvironment,
    relation: Relation,
    users: BTreeMap<String, ContextualDb>,
}

impl Oracle {
    fn new() -> Self {
        let env = poi_env();
        let relation = poi_relation(&env, 2007, 5);
        Self {
            env,
            relation,
            users: BTreeMap::new(),
        }
    }

    /// What a step's answer must be.
    fn step(&mut self, step: &Step) -> Expect {
        match step {
            Step::One(_, req) => self.apply(req),
            Step::Burst(_, reqs) => Expect::Each(reqs.iter().map(|r| self.apply(r)).collect()),
        }
    }

    fn apply(&mut self, req: &Request) -> Expect {
        let refused = |_| Expect::Refused;
        let (user, state) = match req {
            Request::RemoveUser { user } => {
                return match self.users.remove(user) {
                    Some(_) => Expect::Ok,
                    None => Expect::Refused,
                };
            }
            // Items run in order, and the first refusal ends the batch.
            Request::Batch { requests } => {
                let mut items = Vec::new();
                for item in requests {
                    let expect = self.apply(item);
                    let refused = matches!(expect, Expect::Refused);
                    items.push(expect);
                    if refused {
                        break;
                    }
                }
                return Expect::Each(items);
            }
            Request::AddUser { user } => {
                if self.users.contains_key(user) {
                    return Expect::Refused;
                }
                let db = ContextualDb::builder()
                    .env(self.env.clone())
                    .relation(self.relation.clone())
                    .build()
                    .expect("environment and relation given");
                self.users.insert(user.clone(), db);
                return Expect::Ok;
            }
            // A top-k read and a full ranking agree on their top k.
            Request::TopK { user, state, .. } | Request::Query { user, state, .. } => (user, state),
            _ => return self.edit(req).unwrap_or(Expect::Refused),
        };
        let Some(db) = self.users.get(user) else {
            return Expect::Refused;
        };
        let names: Vec<&str> = state.iter().map(String::as_str).collect();
        let state = ContextState::parse(&self.env, &names).expect("the test's states parse");
        let name = self.relation.schema().attr("name").expect("name attribute");
        db.query_state(&state).map_or_else(refused, |answer| {
            Expect::Rows(
                answer
                    .results
                    .top_k_with_ties(K)
                    .iter()
                    .map(|e| {
                        let value = self.relation.tuple(e.tuple_index).value(name);
                        (value.to_string(), e.score)
                    })
                    .collect(),
            )
        })
    }

    /// `Ok` when the durable directory `dir`, recovered, holds exactly
    /// the replay's users with the replay's profiles.
    fn recovered_alike(&self, dir: &Path) -> Result<(), String> {
        let (service, _) = CtxPrefService::recover(ServiceConfig::default(), durability(dir))
            .map_err(|e| format!("recovery failed: {e}"))?;
        service.with_db(|db| {
            let users = db.users_sorted();
            if !users.iter().eq(self.users.keys()) {
                return Err(format!(
                    "recovered users {users:?}, replay {:?}",
                    self.users.keys()
                ));
            }
            for (user, replay) in &self.users {
                let profile = db.profile(user).map_err(|e| e.to_string())?;
                if profile.preferences() != replay.profile().preferences() {
                    return Err(format!(
                        "{user} recovered {:?}\n  replay {:?}",
                        profile.preferences(),
                        replay.profile().preferences()
                    ));
                }
            }
            Ok(())
        })
    }

    /// A preference edit on an existing user; `None` when the user is
    /// unknown.
    fn edit(&mut self, req: &Request) -> Option<Expect> {
        let refused = |_| Expect::Refused;
        Some(match req {
            Request::InsertPref {
                user,
                descriptor,
                attr,
                value,
                score,
            } => {
                let db = self.users.get_mut(user)?;
                // Typed as the server types it: by the attribute's
                // schema type, text that spells no value refused.
                match self.relation.schema().parse_value(attr, value) {
                    Ok(value) => db
                        .insert_preference_eq(descriptor, attr, value, *score)
                        .map_or_else(refused, |()| Expect::Ok),
                    Err(_) => Expect::Refused,
                }
            }
            Request::UpdateScore { user, index, score } => self
                .users
                .get_mut(user)?
                .update_preference_score(*index, *score)
                .map_or_else(refused, |()| Expect::Ok),
            Request::RemovePref { user, index } => self
                .users
                .get_mut(user)?
                .remove_preference(*index)
                .map_or_else(refused, |p| Expect::Removed(p.score())),
            other => unreachable!("the history never sends {other:?}"),
        })
    }
}

fn agrees(expect: &Expect, seen: &Seen) -> bool {
    match (expect, seen) {
        (Expect::Ok, Seen::Ok) => true,
        (Expect::Removed(a), Seen::Removed(b)) => a == b,
        (Expect::Rows(a), Seen::Rows { step, rows }) => {
            matches!(step.as_str(), "view" | "cached" | "exact") && a == rows
        }
        (Expect::Refused, Seen::Refused { kind, .. }) => kind == "core",
        (Expect::Each(a), Seen::Each(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| agrees(a, b))
        }
        _ => false,
    }
}

/// How a checked history's answers split: ranked answers (and how many
/// of those a view gave), edits applied, refusals, user removals and
/// re-adds, batch frames and pipelined bursts.
#[derive(Debug, Default)]
struct Tally {
    ranked: usize,
    from_views: usize,
    applied: usize,
    refused: usize,
    users_removed: usize,
    users_readded: usize,
    batches: usize,
    bursts: usize,
}

impl Tally {
    /// Count the answer to the history's step `at`.
    fn count(&mut self, at: usize, step: &Step, seen: &Seen) {
        match (step, seen) {
            (Step::One(_, Request::RemoveUser { .. }), Seen::Ok) => self.users_removed += 1,
            // Every user is added once up front, so a later add that
            // applies re-adds a removed user.
            (Step::One(_, Request::AddUser { .. }), Seen::Ok) if at >= USERS.len() => {
                self.users_readded += 1
            }
            (Step::One(_, Request::Batch { .. }), _) => self.batches += 1,
            (Step::Burst(..), _) => self.bursts += 1,
            _ => {}
        }
        self.count_answer(seen);
    }

    fn count_answer(&mut self, seen: &Seen) {
        match seen {
            Seen::Rows { step, .. } => {
                self.ranked += 1;
                self.from_views += usize::from(step == "view");
            }
            Seen::Ok | Seen::Removed(_) => self.applied += 1,
            Seen::Refused { .. } | Seen::Other(_) => self.refused += 1,
            Seen::Each(items) => items.iter().for_each(|item| self.count_answer(item)),
        }
    }
}

/// Check every answer to `steps`: the reactor arm's (`direct`) against
/// a replay, and each of the `others` arms' against `direct`. Hands back
/// the replay; the error names the first disagreement.
fn check_answers(
    steps: &[Step],
    direct: &[Seen],
    others: &[(&str, &[Seen])],
    tally: &mut Tally,
) -> Result<Oracle, String> {
    let mut oracle = Oracle::new();
    for (at, step) in steps.iter().enumerate() {
        let expect = oracle.step(step);
        if !agrees(&expect, &direct[at]) {
            return Err(format!(
                "step {at}: {step:?}\n  ContextualDb: {expect:?}\n  server:       {:?}",
                direct[at]
            ));
        }
        for (arm, other) in others.iter().map(|(arm, seen)| (arm, &seen[at])) {
            let alike = match step {
                Step::One(..) => *other == direct[at],
                Step::Burst(..) => other.unstepped() == direct[at].unstepped(),
            };
            if !alike {
                return Err(format!(
                    "step {at}: {step:?}\n  no plan: {:?}\n  {arm}: {other:?}",
                    direct[at]
                ));
            }
        }
        tally.count(at, step, &direct[at]);
    }
    Ok(oracle)
}

/// Run one seed's history three ways and check every answer, then the
/// logged run's recovered directory.
fn check_seed(seed: u64, tally: &mut Tally) -> Result<(), String> {
    let steps = history(seed);
    let direct = serve_history(seed, &steps, Arm::Direct);
    let planned = serve_history(seed, &steps, Arm::Planned);
    let dir = TempDir::new("wire-history");
    let logged = serve_history(seed, &steps, Arm::Logged(dir.path()));
    let others: [(&str, &[Seen]); 2] = [("empty plan", &planned), ("logged", &logged)];
    check_answers(&steps, &direct, &others, tally)?.recovered_alike(dir.path())
}

#[test]
fn every_wire_answer_matches_a_contextual_db_replay() {
    let _serial = ctxpref_faults::exclusive();
    let seeds = ctxpref_testkit::seeds(0..8);
    let mut tally = Tally::default();
    for seed in seeds.clone() {
        if let Err(violation) = check_seed(seed, &mut tally) {
            panic!(
                "WIRE HISTORY MISMATCH (replay with CTXPREF_FUZZ_SEEDS={seed}..{} \
                 cargo test --release -p ctxpref-net --test wire_history):\n{violation}",
                seed + 1
            );
        }
    }
    println!(
        "{} histories of {OPS} steps, each answered alike with and without a plan, \
         logged, and by ContextualDb, and recovered alike: {tally:?}",
        seeds.count()
    );
}

/// Inserts on the `Int` attribute `pid`, one spelling a tuple's pid and
/// one spelling no integer, answered by the reactor and by the workers
/// alike and as the replay types them: the first selects its tuple, the
/// second is refused.
#[test]
fn typed_inserts_match_the_replay() {
    let _serial = ctxpref_faults::exclusive();
    let env = poi_env();
    let relation = poi_relation(&env, 2007, 5);
    let pid = relation.schema().attr("pid").expect("pid attribute");
    let insert = |value: &str| Request::InsertPref {
        user: "ann".to_string(),
        descriptor: "location = Plaka".to_string(),
        attr: "pid".to_string(),
        value: value.to_string(),
        score: 0.9,
    };
    let steps = [
        Request::AddUser {
            user: "ann".to_string(),
        },
        insert(&relation.tuple(5).value(pid).to_string()),
        Request::ranked(true, "ann", "name", K, DEADLINE, &STATES[0]),
        insert("forty-two"),
        Request::ranked(false, "ann", "name", K, DEADLINE, &STATES[0]),
    ]
    .map(|request| Step::One(0, request));
    let direct = serve_history(0, &steps, Arm::Direct);
    let planned = serve_history(0, &steps, Arm::Planned);
    let mut tally = Tally::default();
    if let Err(violation) = check_answers(&steps, &direct, &[("empty plan", &planned)], &mut tally)
    {
        panic!("{violation}");
    }
    assert_eq!((tally.applied, tally.refused, tally.ranked), (2, 1, 2));
}
