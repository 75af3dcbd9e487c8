//! The four workloads: their datasets (fixed) and their operation
//! streams (a pure function of `--seed`).
//!
//! Every count is frozen here. A run's length is an operation count,
//! never a time window: `--seconds` only scales the frozen per-second
//! budgets below, so the same arguments always issue the same
//! operations.

use ctxpref_context::{ContextEnvironment, ContextState};
use ctxpref_profile::Profile;
use ctxpref_relation::{AttrType, Relation, Schema, Value};
use ctxpref_workload::reference::{poi_env, poi_relation};
use ctxpref_workload::synthetic::{random_query_states, SyntheticSpec, ValueDist};
use ctxpref_workload::user_study::{all_demographics, default_profile};
use ctxpref_workload::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed of everything that is *not* the operation stream: the
/// relations, the profiles, the state pools. Fixed, so that `--seed`
/// varies only which user asks what and when.
const DATASET_SEED: u64 = 2007;

/// Rows a query returns.
pub const K: usize = 10;
/// States each user keeps asking about (and the final sweep visits).
pub const STATES_PER_USER: usize = 8;
/// Operations per pipelined burst or batch frame in `bulk_pipeline`.
pub const BURST: usize = 32;
/// Where no cache can be filled ahead of time (`cold_resolve`,
/// `durable_write`) the warm-up is this fraction of the measured count;
/// see `read_mostly_ops` for the top-k workloads.
pub const WARMUP_DIVISOR: usize = 10;
/// The measured phase is cut into this many equal laps (about a tenth
/// of a second each on the sandbox).
pub const LAPS: usize = 100;
/// Laps of a traced replay: a fifth of the operations, and the lower
/// rungs run through them in milliseconds, so fewer, longer laps keep
/// the probe between laps from becoming the thing measured.
pub const TRACE_LAPS: usize = 20;
/// Every this-many-th front-door read is kept for the oracle.
pub const ORACLE_EVERY: usize = 64;
/// `durable_write`: the driver checkpoints after this many mutations.
pub const CHECKPOINT_EVERY_WRITES: usize = 20_000;
/// `durable_write`: preferences a user may hold beyond the base
/// profile before the stream removes one; keeps profile size stationary.
const EXTRAS_CAP: u32 = 8;
/// `--smoke` divides every operation count by this.
pub const SMOKE_DIVISOR: usize = 50;
/// A traced run replays the stream once per boundary, so it replays
/// this fraction of the untraced count to fit the same time budget.
pub const TRACE_DIVISOR: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotTopk,
    ColdResolve,
    DurableWrite,
    BulkPipeline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotTopk,
        Workload::ColdResolve,
        Workload::DurableWrite,
        Workload::BulkPipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::HotTopk => "hot_topk",
            Self::ColdResolve => "cold_resolve",
            Self::DurableWrite => "durable_write",
            Self::BulkPipeline => "bulk_pipeline",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured operations per second of `--seconds`, sized once on the
    /// 2-vCPU sandbox (pinned to one CPU) so that the measured phase
    /// takes about `--seconds` there, then frozen.
    fn ops_per_budget_second(self) -> usize {
        match self {
            Self::HotTopk => 18_000,
            Self::ColdResolve => 1_350,
            Self::DurableWrite => 14_000,
            Self::BulkPipeline => 57_000,
        }
    }

    /// Measured operation count for a run: whole laps of whole calls, so
    /// laps are equal and a burst never straddles two.
    pub fn measured_ops(self, seconds: usize, divisor: usize) -> usize {
        let unit = LAPS * self.group();
        let raw = self.ops_per_budget_second() * seconds / divisor.max(1);
        raw.div_ceil(unit).max(1) * unit
    }

    /// Operations per front-door call.
    pub fn group(self) -> usize {
        if self == Self::BulkPipeline {
            BURST
        } else {
            1
        }
    }

    /// Clusters behind the front door: the router fronts two; the bulk
    /// client talks to one server directly.
    pub fn clusters(self) -> usize {
        if self == Self::BulkPipeline {
            1
        } else {
            2
        }
    }

    pub fn durable(self) -> bool {
        self == Self::DurableWrite
    }

    /// `cold_resolve` asks for the full ranking (`Router::query`); the
    /// others push top-k down (`query_topk`).
    pub fn full_query(self) -> bool {
        self == Self::ColdResolve
    }
}

/// One context state as both layers want it: parsed, and as the value
/// names the wire carries.
#[derive(Debug, Clone)]
pub struct QueryState {
    pub state: ContextState,
    pub names: Vec<String>,
}

/// One insertable equality preference, in the wire's textual parts.
#[derive(Debug, Clone)]
pub struct InsertItem {
    pub descriptor: String,
    pub value: String,
    pub score: f64,
}

/// The attribute result rows are rendered by.
pub const ROW_ATTR: &str = "name";
/// The attribute inserted preferences select on. Base profiles never
/// use it, so an insert cannot conflict with a base preference.
pub const INSERT_ATTR: &str = "name";

/// Everything a workload's stacks and streams are built from.
#[derive(Debug)]
pub struct Dataset {
    pub workload: Workload,
    pub env: ContextEnvironment,
    pub relation: Relation,
    pub users: Vec<String>,
    /// Distinct base profiles; `kind_of[user]` indexes it.
    pub kinds: Vec<Profile>,
    pub kind_of: Vec<u16>,
    /// Per kind: the base preferences whose (context, clause) no other
    /// preference shares, so re-scoring them can never conflict.
    pub rescorable: Vec<Vec<u32>>,
    pub states: Vec<QueryState>,
    pub inserts: Vec<InsertItem>,
}

impl Dataset {
    pub fn build(workload: Workload) -> Self {
        match workload {
            Workload::ColdResolve => Self::synthetic(),
            _ => Self::poi(workload),
        }
    }

    pub fn profile_of(&self, user: usize) -> &Profile {
        &self.kinds[self.kind_of[user] as usize]
    }

    /// The `j`-th of the states `user` keeps asking about.
    pub fn user_state(&self, user: usize, j: usize) -> u32 {
        ((user * 7 + j * 31) % self.states.len()) as u32
    }

    /// The score a `Rescore` sets: 90 % of the base score when `dip`,
    /// the base score itself otherwise.
    pub fn rescore_value(&self, user: usize, index: u32, dip: bool) -> f64 {
        let base = self.profile_of(user).preferences()[index as usize].score();
        if dip {
            base * 0.9
        } else {
            base
        }
    }

    /// The POI world of the paper's usability study: 2 000 users on the
    /// 12 demographic default profiles.
    fn poi(workload: Workload) -> Self {
        let env = poi_env();
        let relation = poi_relation(&env, DATASET_SEED, 8);
        let kinds: Vec<Profile> = all_demographics()
            .into_iter()
            .map(|d| default_profile(&env, &relation, d))
            .collect();
        let users: Vec<String> = (0..2_000).map(|i| format!("u{i:04}")).collect();
        let kind_of = (0..users.len()).map(|i| (i % kinds.len()) as u16).collect();

        let loc = env.hierarchy(env.param("location").expect("poi env"));
        let tmp = env.hierarchy(env.param("temperature").expect("poi env"));
        let ppl = env.hierarchy(env.param("accompanying_people").expect("poi env"));
        let names = |h: &ctxpref_hierarchy::Hierarchy| -> Vec<String> {
            h.domain(h.detailed_level())
                .iter()
                .map(|&v| h.value_name(v).to_string())
                .collect()
        };
        let (regions, temps, company) = (names(loc), names(tmp), names(ppl));
        // The full detailed cross product: 16 × 5 × 3 = 240 states.
        let mut states = Vec::new();
        for r in &regions {
            for t in &temps {
                for c in &company {
                    let names = vec![r.clone(), t.clone(), c.clone()];
                    states.push(query_state(&env, names));
                }
            }
        }

        let name_attr = relation.schema().attr(ROW_ATTR).expect("poi schema");
        let inserts = (0..256usize)
            .map(|i| {
                let descriptor = format!(
                    "location = {} and temperature = {}",
                    regions[i % regions.len()],
                    temps[(i / regions.len()) % temps.len()]
                );
                let value = relation
                    .tuple(i * 7 % relation.len())
                    .value(name_attr)
                    .to_string();
                let score = text_score(&descriptor, &value);
                InsertItem {
                    descriptor,
                    value,
                    score,
                }
            })
            .collect();

        let rescorable = kinds.iter().map(rescorable_of).collect();
        Self {
            workload,
            env,
            relation,
            users,
            kinds,
            kind_of,
            rescorable,
            states,
            inserts,
        }
    }

    /// The paper's §5.2 synthetic shape: domains 50/100/1000, 64 users
    /// × 2 000 preferences, a 20 000-row relation over `v0…v99`.
    fn synthetic() -> Self {
        let spec = |seed| SyntheticSpec::paper_standard(2_000, ValueDist::Zipf(1.0), seed);
        let env = spec(DATASET_SEED).build_env();
        let schema = Schema::new(&[("v", AttrType::Str), (ROW_ATTR, AttrType::Str)])
            .expect("two distinct attributes");
        let mut relation = Relation::new("synthetic", schema);
        let mut rng = StdRng::seed_from_u64(DATASET_SEED);
        for i in 0..20_000 {
            let v = rng.random_range(0..100u32);
            relation
                .insert(vec![
                    Value::str(&format!("v{v}")),
                    Value::str(&format!("row{i:05}")),
                ])
                .expect("row matches the schema");
        }
        let users: Vec<String> = (0..64).map(|i| format!("u{i:04}")).collect();
        let kinds: Vec<Profile> = (0..users.len() as u64)
            .map(|i| spec(DATASET_SEED + i).build_profile_with_lift(&env, 0.3))
            .collect();
        let kind_of = (0..users.len() as u16).collect();
        let states = random_query_states(&env, 4_096, 0.3, DATASET_SEED)
            .into_iter()
            .map(|state| {
                let names = env
                    .iter()
                    .map(|(p, h)| h.value_name(state.value(p)).to_string())
                    .collect();
                QueryState { state, names }
            })
            .collect();
        let rescorable = kinds.iter().map(rescorable_of).collect();
        Self {
            workload: Workload::ColdResolve,
            env,
            relation,
            users,
            kinds,
            kind_of,
            rescorable,
            states,
            inserts: Vec::new(),
        }
    }
}

fn query_state(env: &ContextEnvironment, names: Vec<String>) -> QueryState {
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let state = ContextState::parse(env, &refs).expect("a state of the environment");
    QueryState { state, names }
}

/// A score in [0.05, 0.95] that is a pure function of the preference's
/// text, so inserting the same preference twice can never conflict.
fn text_score(descriptor: &str, value: &str) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in descriptor.bytes().chain([0]).chain(value.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    0.05 + (h % 91) as f64 / 100.0
}

fn rescorable_of(profile: &Profile) -> Vec<u32> {
    let mut seen = std::collections::HashMap::new();
    let keys: Vec<String> = profile
        .iter()
        .map(|p| format!("{:?}|{:?}", p.descriptor(), p.clause()))
        .collect();
    for k in &keys {
        *seen.entry(k.as_str()).or_insert(0u32) += 1;
    }
    keys.iter()
        .enumerate()
        .filter(|(_, k)| seen[k.as_str()] == 1)
        .map(|(i, _)| i as u32)
        .collect()
}

/// One front-door operation. Twelve bytes, so a pre-generated stream
/// of a million operations stays small beside the databases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Query `user` under `states[state]`.
    Read { user: u32, state: u32 },
    /// Insert `inserts[item]` for `user`.
    Insert { user: u32, item: u32 },
    /// Re-score `user`'s base preference `index`; see
    /// [`Dataset::rescore_value`].
    Rescore { user: u32, index: u32, dip: bool },
    /// Remove `user`'s preference at `index`.
    Remove { user: u32, index: u32 },
}

impl Op {
    pub fn user(self) -> usize {
        match self {
            Self::Read { user, .. }
            | Self::Insert { user, .. }
            | Self::Rescore { user, .. }
            | Self::Remove { user, .. } => user as usize,
        }
    }

    pub fn is_read(self) -> bool {
        matches!(self, Self::Read { .. })
    }
}

/// A workload's operation stream: `warmup` operations, then the
/// measured ones. Calls are consecutive chunks of `group` operations,
/// all reads or all writes.
#[derive(Debug)]
pub struct Stream {
    pub ops: Vec<Op>,
    pub warmup: usize,
    pub group: usize,
}

/// Fisher–Yates, driven by the run's seed.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// `n` reads drawn from `fixed`: Zipf (or, for `cold_resolve`,
/// uniform) users, each asking about one of their own states (or, for
/// `cold_resolve`, any state of the pool).
fn draw_reads(ds: &Dataset, fixed: &mut StdRng, users: &Zipf, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let u = users.sample(fixed);
            let state = if ds.workload == Workload::ColdResolve {
                fixed.random_range(0..ds.states.len()) as u32
            } else {
                ds.user_state(u, fixed.random_range(0..STATES_PER_USER))
            };
            Op::Read {
                user: u as u32,
                state,
            }
        })
        .collect()
}

/// `n` writes drawn from `fixed`: insert batches for `bulk_pipeline`,
/// re-scores (direction set once the order is known) otherwise.
fn draw_writes(ds: &Dataset, fixed: &mut StdRng, users: &Zipf, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let u = users.sample(fixed);
            if ds.workload == Workload::BulkPipeline {
                Op::Insert {
                    user: u as u32,
                    item: fixed.random_range(0..ds.inserts.len()) as u32,
                }
            } else {
                let pool = &ds.rescorable[ds.kind_of[u] as usize];
                Op::Rescore {
                    user: u as u32,
                    index: pool[fixed.random_range(0..pool.len())],
                    dip: false,
                }
            }
        })
        .collect()
}

/// Shuffle both multisets with the run's seed, then lay them out in
/// calls of `group`: every `write_every`-th call a write call, for as
/// long as writes remain — so every lap holds the same mix.
fn interleave(
    mut reads: Vec<Op>,
    mut writes: Vec<Op>,
    rng: &mut StdRng,
    group: usize,
    write_every: usize,
) -> Vec<Op> {
    shuffle(&mut reads, rng);
    shuffle(&mut writes, rng);
    let mut out = Vec::with_capacity(reads.len() + writes.len());
    let mut writes = writes.chunks(group);
    for (i, call) in reads.chunks(group).enumerate() {
        out.extend_from_slice(call);
        if (i + 1) % (write_every - 1) == 0 {
            out.extend_from_slice(writes.next().unwrap_or_default());
        }
    }
    out
}

/// A read-mostly stream (every workload but `durable_write`).
///
/// *What* is asked is a fixed multiset drawn from the dataset seed;
/// the run's seed only decides the *order*. So every seed does the
/// same total work — the same users asking about the same states
/// equally often — and run-to-run differences are the machine's, not
/// the sample's.
///
/// The warm-up of a top-k workload asks twice for every (user, state)
/// the measured part will ask for: the second request materialises the
/// view, so the measured phase starts with every view it needs. (With a
/// plain tenth of the stream, one read in eight still missed, and the
/// 90th percentile sat on the edge between hits and misses.) For
/// `cold_resolve` no cache can hold the state space; its warm-up is a
/// tenth of the measured count.
fn read_mostly_ops(ds: &Dataset, rng: &mut StdRng, measured: usize) -> (Vec<Op>, usize) {
    let w = ds.workload;
    let group = w.group();
    // Share of write calls: 2 % re-scores, 5 % re-scores, 10 % insert
    // batches.
    let write_every = match w {
        Workload::HotTopk => 50,
        Workload::ColdResolve => 20,
        _ => 10,
    };
    let users = Zipf::new(
        ds.users.len(),
        if w == Workload::ColdResolve { 0.0 } else { 1.1 },
    );
    let mut fixed = StdRng::seed_from_u64(DATASET_SEED);
    let calls = measured / group;
    let write_calls = calls / write_every;
    let reads = draw_reads(ds, &mut fixed, &users, (calls - write_calls) * group);
    let writes = draw_writes(ds, &mut fixed, &users, write_calls * group);

    let mut warm_reads = if w.full_query() {
        draw_reads(ds, &mut fixed, &users, measured / WARMUP_DIVISOR)
    } else {
        let mut pairs = reads.clone();
        pairs.sort_unstable_by_key(|op| match *op {
            Op::Read { user, state } => (user, state),
            _ => unreachable!("reads only"),
        });
        pairs.dedup();
        [pairs.clone(), pairs].concat()
    };
    // Whole calls only: pad a trailing partial burst by repeating reads.
    let pad = warm_reads.len().next_multiple_of(group) - warm_reads.len();
    warm_reads.extend_from_within(..pad);
    let warm_write_calls = warm_reads.len() / group / (write_every - 1);
    let warm_writes = draw_writes(ds, &mut fixed, &users, warm_write_calls * group);

    let mut ops = interleave(warm_reads, warm_writes, rng, group, write_every);
    let warmup = ops.len();
    ops.extend(interleave(reads, writes, rng, group, write_every));
    debug_assert_eq!(ops.len(), warmup + measured);
    (ops, warmup)
}

/// `durable_write`: mutations depend on what the user already holds,
/// so this stream is drawn in order, straight from the run's seed.
fn durable_ops(ds: &Dataset, rng: &mut StdRng, total: usize) -> Vec<Op> {
    let users = Zipf::new(ds.users.len(), 1.1);
    let mut extras = vec![0u32; ds.users.len()];
    let mut ops = Vec::with_capacity(total);
    let mut last_mutated = users.sample(rng);
    for _ in 0..total {
        if rng.random::<f64>() >= 0.7 {
            ops.push(Op::Read {
                user: last_mutated as u32,
                state: ds.user_state(last_mutated, rng.random_range(0..STATES_PER_USER)),
            });
            continue;
        }
        let u = users.sample(rng);
        last_mutated = u;
        let base = ds.profile_of(u).len() as u32;
        // Balanced thirds, except at the edges of the extras window,
        // which forces profile size to stay put.
        let kind = match extras[u] {
            0 => 0,
            EXTRAS_CAP => 2,
            _ => rng.random_range(0..3u32),
        };
        ops.push(match kind {
            0 => {
                extras[u] += 1;
                Op::Insert {
                    user: u as u32,
                    item: rng.random_range(0..ds.inserts.len()) as u32,
                }
            }
            1 => {
                let pool = &ds.rescorable[ds.kind_of[u] as usize];
                Op::Rescore {
                    user: u as u32,
                    index: pool[rng.random_range(0..pool.len())],
                    dip: false,
                }
            }
            _ => {
                let index = base + rng.random_range(0..extras[u]);
                extras[u] -= 1;
                Op::Remove {
                    user: u as u32,
                    index,
                }
            }
        });
    }
    ops
}

pub fn generate(ds: &Dataset, seed: u64, measured: usize) -> Stream {
    let group = ds.workload.group();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut ops, warmup) = if ds.workload == Workload::DurableWrite {
        let warmup = measured / WARMUP_DIVISOR;
        (durable_ops(ds, &mut rng, warmup + measured), warmup)
    } else {
        read_mostly_ops(ds, &mut rng, measured)
    };
    // Every re-score flips its preference between the base score and
    // the dip, so each one is a real change whatever the order.
    let mut dipped: Vec<Vec<bool>> = (0..ds.users.len())
        .map(|u| vec![false; ds.profile_of(u).len()])
        .collect();
    for op in &mut ops {
        if let Op::Rescore { user, index, dip } = op {
            let flag = &mut dipped[*user as usize][*index as usize];
            *flag = !*flag;
            *dip = *flag;
        }
    }
    Stream { ops, warmup, group }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_whole_laps_of_whole_bursts() {
        for w in Workload::ALL {
            for (seconds, divisor) in [(10, 1), (10, SMOKE_DIVISOR), (1, SMOKE_DIVISOR), (7, 3)] {
                let n = w.measured_ops(seconds, divisor);
                assert!(n > 0 && n % (LAPS * w.group()) == 0, "{} → {n}", w.name());
                assert_eq!(LAPS % TRACE_LAPS, 0, "traced laps are whole laps too");
            }
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_stream_and_another_seed_another() {
        let ds = Dataset::build(Workload::DurableWrite);
        let n = Workload::DurableWrite.measured_ops(1, SMOKE_DIVISOR);
        let a = generate(&ds, 2007, n);
        assert_eq!(a.ops, generate(&ds, 2007, n).ops);
        assert_ne!(a.ops, generate(&ds, 2008, n).ops);
        assert_eq!(a.ops.len() - a.warmup, n);
        assert_eq!(a.warmup, n / WARMUP_DIVISOR);
    }

    #[test]
    fn durable_stream_keeps_profiles_stationary_and_mixed() {
        let ds = Dataset::build(Workload::DurableWrite);
        let s = generate(&ds, 2007, 64_000);
        let mut extras = vec![0i64; ds.users.len()];
        let (mut reads, mut ins, mut res, mut rem) = (0, 0, 0, 0);
        for op in &s.ops {
            match *op {
                Op::Read { .. } => reads += 1,
                Op::Insert { user, .. } => {
                    ins += 1;
                    extras[user as usize] += 1;
                }
                Op::Rescore { .. } => res += 1,
                Op::Remove { user, index } => {
                    rem += 1;
                    let u = user as usize;
                    let base = ds.profile_of(u).len() as i64;
                    assert!((base..base + extras[u]).contains(&i64::from(index)));
                    extras[u] -= 1;
                }
            }
            assert!(extras[op.user()] <= i64::from(EXTRAS_CAP));
        }
        let total = s.ops.len() as f64;
        assert!((reads as f64 / total - 0.3).abs() < 0.02);
        assert!(ins >= rem && ins - rem <= ds.users.len() * EXTRAS_CAP as usize);
        assert!(res as f64 / total > 0.1, "{res} rescores of {total}");
    }

    #[test]
    fn seeds_reorder_a_read_mostly_stream_without_changing_its_work() {
        for w in [
            Workload::HotTopk,
            Workload::ColdResolve,
            Workload::BulkPipeline,
        ] {
            let ds = Dataset::build(w);
            let n = w.measured_ops(1, 10);
            let (a, b) = (generate(&ds, 1, n), generate(&ds, 2, n));
            assert_ne!(a.ops, b.ops, "{}: another order", w.name());
            // The same operations in each part, whatever their order;
            // a re-score's direction depends on the order, so drop it.
            let key = |op: &Op| match *op {
                Op::Read { user, state } => (0, user, state),
                Op::Insert { user, item } => (1, user, item),
                Op::Rescore { user, index, .. } => (2, user, index),
                Op::Remove { user, index } => (3, user, index),
            };
            for part in [0..a.warmup, a.warmup..a.ops.len()] {
                let mut x: Vec<_> = a.ops[part.clone()].iter().map(key).collect();
                let mut y: Vec<_> = b.ops[part].iter().map(key).collect();
                x.sort_unstable();
                y.sort_unstable();
                assert_eq!(x, y, "{}: the same multiset", w.name());
            }
        }
    }

    #[test]
    fn writes_are_spread_evenly_and_every_rescore_is_a_real_change() {
        let ds = Dataset::build(Workload::HotTopk);
        let s = generate(&ds, 7, Workload::HotTopk.measured_ops(1, 1));
        let mut dipped = std::collections::HashMap::new();
        for (i, op) in s.ops[s.warmup..].iter().enumerate() {
            assert_eq!(!op.is_read(), (i + 1) % 50 == 0, "every 50th is the write");
        }
        for op in &s.ops {
            if let Op::Rescore { user, index, dip } = *op {
                let was = dipped.insert((user, index), dip).unwrap_or(false);
                assert_ne!(was, dip, "a re-score flips the preference");
            }
        }
    }

    #[test]
    fn bulk_calls_are_uniform_bursts() {
        let ds = Dataset::build(Workload::BulkPipeline);
        let s = generate(&ds, 2007, Workload::BulkPipeline.measured_ops(1, 10));
        assert_eq!(s.ops.len() % BURST, 0);
        assert_eq!(s.warmup % BURST, 0);
        for call in s.ops.chunks(BURST) {
            assert!(call.iter().all(|o| o.is_read() == call[0].is_read()));
        }
    }

    #[test]
    fn every_base_preference_of_the_poi_profiles_is_rescorable() {
        let ds = Dataset::build(Workload::HotTopk);
        for (kind, pool) in ds.kinds.iter().zip(&ds.rescorable) {
            assert_eq!(pool.len(), kind.len());
        }
        assert_eq!(ds.states.len(), 240);
    }
}
