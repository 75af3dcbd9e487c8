//! The boundary ladder: one type per layer boundary, each executing a
//! front-door call by calling that layer's public functions and
//! nothing else. Every boundary measures its own span, around the layer
//! call only, with argument building and result checking outside it —
//! so whatever a boundary spends on building the request the boundary
//! below it receives ready-made is that boundary's self time.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ctxpref_context::{parse_descriptor, ExtendedContextDescriptor};
use ctxpref_core::{MultiUserDb, QueryOptions, ShardedMultiUserDb};
use ctxpref_net::{
    decode_request, decode_response, encode_frame, encode_request, encode_response, AnswerRow,
    FrameDecoder, NetClient, Priority, RemoteAnswer, Request, Response,
};
use ctxpref_profile::{AttributeClause, ContextualPreference};
use ctxpref_relation::{CompareOp, RankedResults, Value};
use ctxpref_resolve::{rank_cs, rank_cs_topk};
use ctxpref_router::Router;
use ctxpref_service::{CtxPrefService, ServiceAnswer, ServiceError};
use ctxpref_wal::{DurableDb, WalOptions};
use ctxpref_workload::user_study::descriptor_of_state;

use crate::stack::{cluster_dbs, durability, Stack, DEADLINE, QCACHE_CAPACITY};
use crate::sys::{allocations, dir_bytes, now_ns};
use crate::workload::{Dataset, Op, INSERT_ATTR, K, ROW_ATTR};

/// The rows of one answer, as the front door returns them.
pub type Rows = Vec<(String, f64)>;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one call cost and whether it worked.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap allocations of the whole process during the span.
    pub allocs: u64,
    /// Operations of the call that errored, were shed, missed their
    /// deadline or were answered from a degraded rung.
    pub failed: u32,
}

/// The clock and the allocation counter, read together at a span's
/// edge.
#[derive(Debug, Clone, Copy)]
struct Edge {
    ns: u64,
    allocs: u64,
}

fn edge() -> Edge {
    Edge {
        ns: now_ns(),
        allocs: allocations(),
    }
}

fn outcome(from: Edge, to: Edge, failed: u32) -> Outcome {
    Outcome {
        start_ns: from.ns,
        end_ns: to.ns,
        allocs: to.allocs - from.allocs,
        failed,
    }
}

/// Operation counts of the measured phase, for per-operation ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub reads: u64,
    pub writes: u64,
}

pub trait Boundary {
    /// Execute one call — `ops` are all reads or all writes — and
    /// report its span; `None` when this boundary has no part in the
    /// call (the resolver in a write). With `rows`, push each read's
    /// answer rows.
    fn call(&mut self, ds: &Dataset, ops: &[Op], rows: Option<&mut Vec<Rows>>) -> Option<Outcome>;

    /// Driver-issued checkpoint; its duration in nanoseconds, or `None`
    /// where nothing is durable.
    fn checkpoint(&mut self) -> Option<u64> {
        None
    }

    /// The measured phase starts now: take counter baselines.
    fn mark(&mut self) {}

    /// Whether `call` reports this boundary's own work alone, the
    /// boundary below having run inside the same call. Then its span
    /// *is* its self time, free of the noise between two replays.
    fn spans_self_only(&self) -> bool {
        false
    }

    /// Tear down and report this layer's own counters over the measured
    /// phase.
    fn finish(self: Box<Self>, tally: Tally) -> Vec<Metric>;
}

fn per(amount: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        amount as f64 / count as f64
    }
}

// ---------------------------------------------------------------- resolve

/// `rank_cs` / `rank_cs_topk` on the user's profile tree — for the
/// reads that reach the resolver. A read a view or the query cache
/// answers never gets there, so an (untimed) serving core runs beside
/// the trees to tell which reads those are; mutations are applied
/// (untimed) to both, so every read sees what the layers above see.
pub struct ResolveB {
    trees: MultiUserDb,
    core: Arc<ShardedMultiUserDb>,
    cells: u64,
    cells_mark: u64,
}

impl ResolveB {
    pub fn new(ds: &Dataset) -> Self {
        let owner = vec![0u8; ds.users.len()];
        Self {
            trees: cluster_dbs(ds, &owner, 1, 0).pop().expect("one database"),
            core: sharded(ds),
            cells: 0,
            cells_mark: 0,
        }
    }
}

impl Boundary for ResolveB {
    fn call(&mut self, ds: &Dataset, ops: &[Op], _: Option<&mut Vec<Rows>>) -> Option<Outcome> {
        if !ops[0].is_read() {
            for &op in ops {
                apply_plain(&mut self.trees, ds, op);
                core_op(&self.core, ds, op);
            }
            return None;
        }
        let o = QueryOptions::default();
        let (mut failed, mut busy, mut allocs) = (0, 0, 0);
        let start_ns = now_ns();
        for &op in ops {
            let Op::Read { user, state } = op else {
                unreachable!("a read call holds only reads")
            };
            let (user, state) = (&ds.users[user as usize], &ds.states[state as usize].state);
            let tree = self.trees.tree(user).expect("dataset user");
            let ecod: ExtendedContextDescriptor = descriptor_of_state(&ds.env, state).into();
            let rel = self.trees.relation();
            let (t0, a0) = (now_ns(), allocations());
            let q = if ds.workload.full_query() {
                rank_cs(tree, rel, &ecod, o.distance, o.tie, o.combiner)
            } else {
                rank_cs_topk(tree, rel, &ecod, o.distance, o.tie, o.combiner, K)
            };
            let (ns, allocated) = (now_ns() - t0, allocations() - a0);
            // Whether the stack would have resolved at all: asked after
            // the timed call, so the resolver runs on a cache as cold as
            // the one it meets inside the core.
            let resolved = if ds.workload.full_query() {
                self.core.query_state(user, state).map(|a| !a.from_cache)
            } else {
                self.core
                    .query_state_topk(user, state, K)
                    .map(|(_, view)| !view)
            };
            match (resolved, q) {
                (Ok(true), Ok(q)) => {
                    busy += ns;
                    allocs += allocated;
                    self.cells += black_box(q).total_cells();
                }
                (Ok(false), Ok(_)) => {}
                _ => failed += 1,
            }
        }
        Some(Outcome {
            start_ns,
            end_ns: start_ns + busy,
            allocs,
            failed,
        })
    }

    fn mark(&mut self) {
        self.cells_mark = self.cells;
    }

    fn finish(self: Box<Self>, tally: Tally) -> Vec<Metric> {
        vec![metric(
            "resolve.cells_per_read",
            per(self.cells - self.cells_mark, tally.reads),
            "count",
        )]
    }
}

fn apply_plain(db: &mut MultiUserDb, ds: &Dataset, op: Op) {
    let user = &ds.users[op.user()];
    match op {
        Op::Read { .. } => unreachable!("writes only"),
        Op::Insert { item, .. } => {
            let it = &ds.inserts[item as usize];
            db.insert_preference_eq(
                user,
                &it.descriptor,
                INSERT_ATTR,
                Value::str(&it.value),
                it.score,
            )
            .expect("stream inserts never conflict");
        }
        Op::Rescore { index, dip, .. } => db
            .update_preference_score(
                user,
                index as usize,
                ds.rescore_value(op.user(), index, dip),
            )
            .expect("stream rescores never conflict"),
        Op::Remove { index, .. } => {
            db.remove_preference(user, index as usize)
                .expect("stream removes are in range");
        }
    }
}

// ------------------------------------------------------------------- core

/// `ShardedMultiUserDb`: shard lock, views, qcache, mutation + view
/// maintenance.
pub struct CoreB {
    db: Arc<ShardedMultiUserDb>,
    mark: CoreCounters,
}

#[derive(Debug, Clone, Copy, Default)]
struct CoreCounters {
    view_hits: u64,
    view_misses: u64,
    view_patches: u64,
    view_rebuilds: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
}

fn core_counters(db: &ShardedMultiUserDb) -> CoreCounters {
    let (v, c) = (db.views_totals(), db.cache_totals());
    CoreCounters {
        view_hits: v.view_hits,
        view_misses: v.view_misses,
        view_patches: v.view_patches,
        view_rebuilds: v.view_rebuilds,
        cache_hits: c.hits,
        cache_misses: c.misses,
        cache_invalidations: c.invalidations,
    }
}

fn core_metrics(now: CoreCounters, mark: CoreCounters, tally: Tally) -> Vec<Metric> {
    let d = |f: fn(&CoreCounters) -> u64| f(&now) - f(&mark);
    let (vh, vm) = (d(|c| c.view_hits), d(|c| c.view_misses));
    let (ch, cm) = (d(|c| c.cache_hits), d(|c| c.cache_misses));
    vec![
        metric("core.view_hit_ratio", per(vh, vh + vm), "1"),
        metric("core.qcache_hit_ratio", per(ch, ch + cm), "1"),
        metric(
            "core.view_patches_per_write",
            per(d(|c| c.view_patches), tally.writes),
            "count",
        ),
        metric(
            "core.view_rebuilds_per_write",
            per(d(|c| c.view_rebuilds), tally.writes),
            "count",
        ),
        metric(
            "core.qcache_invalidations_per_write",
            per(d(|c| c.cache_invalidations), tally.writes),
            "count",
        ),
    ]
}

fn sharded(ds: &Dataset) -> Arc<ShardedMultiUserDb> {
    let owner = vec![0u8; ds.users.len()];
    let db = cluster_dbs(ds, &owner, 1, QCACHE_CAPACITY)
        .pop()
        .expect("one database");
    Arc::new(ShardedMultiUserDb::from_db(
        db,
        ctxpref_core::DEFAULT_SHARDS,
    ))
}

fn core_read(db: &ShardedMultiUserDb, ds: &Dataset, user: u32, state: u32) -> bool {
    let (user, state) = (&ds.users[user as usize], &ds.states[state as usize].state);
    if ds.workload.full_query() {
        black_box(db.query_state(user, state)).is_ok()
    } else {
        black_box(db.query_state_topk(user, state, K)).is_ok()
    }
}

impl CoreB {
    pub fn new(ds: &Dataset) -> Self {
        Self {
            db: sharded(ds),
            mark: CoreCounters::default(),
        }
    }
}

/// One operation on the serving core; whether it succeeded.
fn core_op(db: &ShardedMultiUserDb, ds: &Dataset, op: Op) -> bool {
    let user = &ds.users[op.user()];
    match op {
        Op::Read { user, state } => core_read(db, ds, user, state),
        Op::Insert { item, .. } => {
            let it = &ds.inserts[item as usize];
            db.insert_preference_eq(
                user,
                &it.descriptor,
                INSERT_ATTR,
                Value::str(&it.value),
                it.score,
            )
            .is_ok()
        }
        Op::Rescore { index, dip, .. } => db
            .update_preference_score(
                user,
                index as usize,
                ds.rescore_value(op.user(), index, dip),
            )
            .is_ok(),
        Op::Remove { index, .. } => db.remove_preference(user, index as usize).is_ok(),
    }
}

impl Boundary for CoreB {
    fn call(&mut self, ds: &Dataset, ops: &[Op], _: Option<&mut Vec<Rows>>) -> Option<Outcome> {
        let mut failed = 0;
        let from = edge();
        for &op in ops {
            failed += u32::from(!core_op(&self.db, ds, op));
        }
        Some(outcome(from, edge(), failed))
    }

    fn mark(&mut self) {
        self.mark = core_counters(&self.db);
    }

    fn finish(self: Box<Self>, tally: Tally) -> Vec<Metric> {
        core_metrics(core_counters(&self.db), self.mark, tally)
    }
}

// -------------------------------------------------------------------- wal

/// `DurableDb`: log, then apply (no sync: see `stack::durability`). Reads
/// pass through to its core.
pub struct WalB {
    durable: Option<DurableDb>,
    dir: PathBuf,
    appends_mark: u64,
    /// Directory size right after the latest checkpoint (or at mark).
    bytes_floor: u64,
    /// Log growth summed over the checkpoint intervals so far.
    bytes_grown: u64,
    checkpoints_ns: Vec<u64>,
}

impl WalB {
    pub fn new(ds: &Dataset, dir: &Path) -> Self {
        let dir = dir.join("wal");
        let dcfg = durability(&dir);
        let durable = DurableDb::create(&dir, sharded(ds), wal_options(&dcfg))
            .expect("a fresh durable directory");
        Self {
            durable: Some(durable),
            dir,
            appends_mark: 0,
            bytes_floor: 0,
            bytes_grown: 0,
            checkpoints_ns: Vec::new(),
        }
    }

    fn durable(&self) -> &DurableDb {
        self.durable.as_ref().expect("alive until finish")
    }
}

fn wal_options(dcfg: &ctxpref_service::DurabilityConfig) -> WalOptions {
    WalOptions {
        sync: dcfg.sync,
        segment_max_bytes: dcfg.segment_max_bytes,
    }
}

impl Boundary for WalB {
    fn call(&mut self, ds: &Dataset, ops: &[Op], _: Option<&mut Vec<Rows>>) -> Option<Outcome> {
        let d = self.durable();
        let mut failed = 0;
        let from = edge();
        for &op in ops {
            let user = &ds.users[op.user()];
            let ok = match op {
                Op::Read { user, state } => core_read(d.db(), ds, user, state),
                Op::Insert { item, .. } => {
                    let it = &ds.inserts[item as usize];
                    // What the service does ahead of a logged insert.
                    let pref = parse_descriptor(&ds.env, &it.descriptor)
                        .ok()
                        .and_then(|cod| {
                            let attr = ds.relation.schema().attr(INSERT_ATTR)?;
                            let clause =
                                AttributeClause::new(attr, CompareOp::Eq, Value::str(&it.value));
                            ContextualPreference::new(cod, clause, it.score).ok()
                        });
                    pref.is_some_and(|p| d.insert_preference(user, p).is_ok())
                }
                Op::Rescore { index, dip, .. } => d
                    .update_preference_score(
                        user,
                        index as usize,
                        ds.rescore_value(op.user(), index, dip),
                    )
                    .is_ok(),
                Op::Remove { index, .. } => d.remove_preference(user, index as usize).is_ok(),
            };
            failed += u32::from(!ok);
        }
        Some(outcome(from, edge(), failed))
    }

    fn checkpoint(&mut self) -> Option<u64> {
        self.bytes_grown += dir_bytes(&self.dir).saturating_sub(self.bytes_floor);
        let t0 = now_ns();
        self.durable().checkpoint().expect("driver checkpoint");
        let ns = now_ns() - t0;
        self.checkpoints_ns.push(ns);
        self.bytes_floor = dir_bytes(&self.dir);
        Some(ns)
    }

    fn mark(&mut self) {
        self.appends_mark = self.durable().wal_appends();
        self.bytes_floor = dir_bytes(&self.dir);
        self.bytes_grown = 0;
        self.checkpoints_ns.clear();
    }

    fn finish(mut self: Box<Self>, tally: Tally) -> Vec<Metric> {
        let appends = self.durable().wal_appends() - self.appends_mark;
        let grown = self.bytes_grown + dir_bytes(&self.dir).saturating_sub(self.bytes_floor);
        let dcfg = durability(&self.dir);
        drop(self.durable.take());
        let t0 = now_ns();
        let recovered = DurableDb::recover(&self.dir, wal_options(&dcfg));
        let recover_s = (now_ns() - t0) as f64 / 1e9;
        assert!(recovered.is_ok(), "the benchmark's own log recovers");
        let n = self.checkpoints_ns.len() as u64;
        vec![
            metric("wal.bytes_per_write", per(grown, tally.writes), "B"),
            metric("wal.appends_per_write", per(appends, tally.writes), "count"),
            metric(
                "wal.checkpoint_ms",
                per(self.checkpoints_ns.iter().sum(), n) / 1e6,
                "ms",
            ),
            metric("wal.recover_s", recover_s, "s"),
        ]
    }
}

// ---------------------------------------------------------------- service

/// What a service call produced, for the codec boundary to put on the
/// wire.
enum Served {
    Answer(ServiceAnswer),
    Ok,
    Removed(f64),
}

fn service_op(svc: &CtxPrefService, ds: &Dataset, op: Op) -> Result<Served, ServiceError> {
    let user = &ds.users[op.user()];
    match op {
        Op::Read { state, .. } => {
            let state = &ds.states[state as usize].state;
            let tier = Priority::Interactive;
            if ds.workload.full_query() {
                svc.query_tiered(user, state, DEADLINE, tier)
            } else {
                svc.query_topk_tiered(user, state, K, DEADLINE, tier)
            }
            .map(Served::Answer)
        }
        Op::Insert { item, .. } => {
            let it = &ds.inserts[item as usize];
            svc.insert_preference_eq(
                user,
                &it.descriptor,
                INSERT_ATTR,
                it.value.as_str().into(),
                it.score,
            )
            .map(|()| Served::Ok)
        }
        Op::Rescore { index, dip, .. } => svc
            .update_preference_score(
                user,
                index as usize,
                ds.rescore_value(op.user(), index, dip),
            )
            .map(|()| Served::Ok),
        Op::Remove { index, .. } => svc
            .remove_preference(user, index as usize)
            .map(|p| Served::Removed(p.score())),
    }
}

fn served_ok(r: &Result<Served, ServiceError>) -> bool {
    match r {
        Ok(Served::Answer(a)) => !a.is_degraded(),
        Ok(_) => true,
        Err(_) => false,
    }
}

/// `CtxPrefService`: admission, the worker hand-off, the ladder, and
/// the mode switch in front of the write path.
pub struct ServiceB {
    stack: Option<Stack>,
    mark: ctxpref_service::ServiceStats,
}

impl ServiceB {
    pub fn new(ds: &Dataset, dir: &Path) -> Self {
        Self {
            stack: Some(Stack::start(ds, dir, false)),
            mark: Default::default(),
        }
    }

    fn stack(&self) -> &Stack {
        self.stack.as_ref().expect("alive until finish")
    }

    fn run(&self, ds: &Dataset, ops: &[Op]) -> (Outcome, Vec<Result<Served, ServiceError>>) {
        let stack = self.stack();
        let from = edge();
        let served: Vec<_> = ops
            .iter()
            .map(|&op| service_op(&stack.services[stack.owner[op.user()] as usize], ds, op))
            .collect();
        let to = edge();
        let failed = served.iter().filter(|r| !served_ok(r)).count() as u32;
        (outcome(from, to, failed), served)
    }

    fn stats(&self) -> ctxpref_service::ServiceStats {
        let mut total = ctxpref_service::ServiceStats::default();
        for s in &self.stack().services {
            let s = s.stats();
            total.served_view += s.served_view;
            total.served_cached += s.served_cached;
            total.served_exact += s.served_exact;
            total.served_nearest += s.served_nearest;
            total.served_default += s.served_default;
            total.lock_wait_micros += s.lock_wait_micros;
            total.shed += s.shed;
            total.deadline_exceeded += s.deadline_exceeded;
        }
        total
    }
}

/// The driver's checkpoint over the wire, on every cluster.
fn checkpoint_clients(stack: &Stack, clients: &mut [NetClient]) -> Option<u64> {
    if stack.wal_dirs.is_empty() {
        return None;
    }
    let t0 = now_ns();
    for c in clients {
        c.checkpoint().expect("driver checkpoint");
    }
    Some(now_ns() - t0)
}

fn checkpoint_services(stack: &Stack) -> Option<u64> {
    if stack.wal_dirs.is_empty() {
        return None;
    }
    let t0 = now_ns();
    for s in &stack.services {
        s.checkpoint().expect("driver checkpoint");
    }
    Some(now_ns() - t0)
}

impl Boundary for ServiceB {
    fn call(&mut self, ds: &Dataset, ops: &[Op], _: Option<&mut Vec<Rows>>) -> Option<Outcome> {
        Some(self.run(ds, ops).0)
    }

    fn checkpoint(&mut self) -> Option<u64> {
        checkpoint_services(self.stack())
    }

    fn mark(&mut self) {
        self.mark = self.stats();
    }

    fn finish(mut self: Box<Self>, tally: Tally) -> Vec<Metric> {
        let (now, mark) = (self.stats(), &self.mark);
        let served = now.served() - mark.served();
        let share = |now: u64, mark: u64| per(now - mark, served);
        let metrics = vec![
            metric(
                "service.rung_view_share",
                share(now.served_view, mark.served_view),
                "1",
            ),
            metric(
                "service.rung_cached_share",
                share(now.served_cached, mark.served_cached),
                "1",
            ),
            metric(
                "service.rung_exact_share",
                share(now.served_exact, mark.served_exact),
                "1",
            ),
            metric(
                "service.degraded",
                (now.degraded() - mark.degraded()) as f64,
                "count",
            ),
            metric(
                "service.lock_wait_us_per_op",
                per(
                    now.lock_wait_micros - mark.lock_wait_micros,
                    tally.reads + tally.writes,
                ),
                "us",
            ),
            metric("service.shed", (now.shed - mark.shed) as f64, "count"),
            metric(
                "service.deadline_exceeded",
                (now.deadline_exceeded - mark.deadline_exceeded) as f64,
                "count",
            ),
        ];
        self.stack.take().expect("alive until finish").shutdown();
        metrics
    }
}

// ------------------------------------------------------------------ codec

/// The `ctxpref2` codec and the frame layer, in memory: every request
/// the service boundary executes is encoded, framed, deframed and
/// decoded, and so is its real answer. The span is that work alone;
/// the service calls that produce the answers run outside it.
pub struct CodecB {
    service: ServiceB,
    request_bytes: u64,
    response_bytes: u64,
    next_id: u64,
}

impl CodecB {
    pub fn new(ds: &Dataset, dir: &Path) -> Self {
        Self {
            service: ServiceB::new(ds, dir),
            request_bytes: 0,
            response_bytes: 0,
            next_id: 1,
        }
    }

    /// Both directions of one exchange; returns the nanoseconds spent
    /// and the allocations made.
    fn exchange(&mut self, req: &Request, resp: &Response) -> (u64, u64) {
        let id = self.next_id;
        self.next_id += 1;
        let mut dec = FrameDecoder::new();
        let from = edge();
        let frame = encode_frame(&encode_request(id, req)).expect("request fits a frame");
        dec.extend(&frame);
        let payload = dec
            .next_frame()
            .expect("own frame")
            .expect("complete frame");
        black_box(decode_request(&payload).expect("own request decodes"));
        let back = encode_frame(&encode_response(id, resp)).expect("response fits a frame");
        dec.extend(&back);
        let payload = dec
            .next_frame()
            .expect("own frame")
            .expect("complete frame");
        black_box(decode_response(&payload).expect("own response decodes"));
        let to = edge();
        self.request_bytes += frame.len() as u64;
        self.response_bytes += back.len() as u64;
        (to.ns - from.ns, to.allocs - from.allocs)
    }
}

/// The rows the server renders from a ranking: the top `K` with ties,
/// by `ROW_ATTR`.
pub fn rows_of(ds: &Dataset, results: &RankedResults) -> Rows {
    let attr = ds.relation.schema().attr(ROW_ATTR).expect("row attribute");
    results
        .top_k_with_ties(K)
        .iter()
        .map(|e| {
            (
                ds.relation.tuple(e.tuple_index).value(attr).to_string(),
                e.score,
            )
        })
        .collect()
}

/// The response the server would send for `served` — what
/// `ctxpref_net`'s dispatch builds.
fn response_of(ds: &Dataset, served: &Result<Served, ServiceError>) -> Response {
    match served {
        Ok(Served::Ok) => Response::Ok,
        Ok(Served::Removed(score)) => Response::Removed { score: *score },
        Ok(Served::Answer(a)) => Response::Answer(RemoteAnswer {
            step: a.step.to_string(),
            elapsed_us: a.elapsed.as_micros() as u64,
            resolved_state: None,
            fallbacks: Vec::new(),
            rows: rows_of(ds, &a.answer.results)
                .into_iter()
                .map(|(name, score)| AnswerRow { name, score })
                .collect(),
        }),
        Err(e) => Response::Err {
            kind: "error".to_string(),
            message: e.to_string(),
        },
    }
}

impl Boundary for CodecB {
    fn call(&mut self, ds: &Dataset, ops: &[Op], _: Option<&mut Vec<Rows>>) -> Option<Outcome> {
        let (out, served) = self.service.run(ds, ops);
        let requests: Vec<Request> = ops.iter().map(|&op| request_of(ds, op)).collect();
        let responses: Vec<Response> = served.iter().map(|s| response_of(ds, s)).collect();
        let (ns, allocs) = if ops.len() > 1 && !ops[0].is_read() {
            // A batch travels as one frame each way.
            self.exchange(&Request::Batch { requests }, &Response::Batch { responses })
        } else {
            requests
                .iter()
                .zip(&responses)
                .map(|(q, r)| self.exchange(q, r))
                .fold((0, 0), |(ns, allocs), (n, a)| (ns + n, allocs + a))
        };
        Some(Outcome {
            start_ns: out.end_ns,
            end_ns: out.end_ns + ns,
            allocs,
            failed: out.failed,
        })
    }

    fn spans_self_only(&self) -> bool {
        true
    }

    fn checkpoint(&mut self) -> Option<u64> {
        self.service.checkpoint()
    }

    fn mark(&mut self) {
        self.request_bytes = 0;
        self.response_bytes = 0;
    }

    fn finish(self: Box<Self>, tally: Tally) -> Vec<Metric> {
        let ops = tally.reads + tally.writes;
        let metrics = vec![
            metric(
                "codec.request_bytes_per_op",
                per(self.request_bytes, ops),
                "B",
            ),
            metric(
                "codec.response_bytes_per_op",
                per(self.response_bytes, ops),
                "B",
            ),
        ];
        Box::new(self.service).finish(tally);
        metrics
    }
}

// -------------------------------------------------------------------- net

fn request_of(ds: &Dataset, op: Op) -> Request {
    let user = ds.users[op.user()].clone();
    match op {
        Op::Read { state, .. } => {
            let (attr, k) = (ROW_ATTR.to_string(), K);
            let deadline_ms = DEADLINE.as_millis() as u64;
            let state = ds.states[state as usize].names.clone();
            if ds.workload.full_query() {
                Request::Query {
                    user,
                    attr,
                    k,
                    deadline_ms,
                    state,
                }
            } else {
                Request::TopK {
                    user,
                    attr,
                    k,
                    deadline_ms,
                    state,
                }
            }
        }
        Op::Insert { item, .. } => {
            let it = &ds.inserts[item as usize];
            Request::InsertPref {
                user,
                descriptor: it.descriptor.clone(),
                attr: INSERT_ATTR.to_string(),
                value: it.value.clone(),
                score: it.score,
            }
        }
        Op::Rescore { index, dip, .. } => Request::UpdateScore {
            user,
            index: index as usize,
            score: ds.rescore_value(op.user(), index, dip),
        },
        Op::Remove { index, .. } => Request::RemovePref {
            user,
            index: index as usize,
        },
    }
}

/// Whether `resp` is the healthy answer to `op`; keeps a read's rows.
fn accept(op: Op, resp: Response, rows: &mut Option<&mut Vec<Rows>>) -> bool {
    match (op, resp) {
        (Op::Read { .. }, Response::Answer(a)) => {
            let healthy = !a.is_degraded();
            if let Some(rows) = rows {
                rows.push(a.rows.into_iter().map(|r| (r.name, r.score)).collect());
            }
            healthy
        }
        (Op::Insert { .. } | Op::Rescore { .. }, Response::Ok) => true,
        (Op::Remove { .. }, Response::Removed { .. }) => true,
        _ => false,
    }
}

/// `NetClient` over loopback to each cluster's `NetServer`: one
/// request per round trip, or a pipelined burst, or a batch frame.
pub struct NetB {
    stack: Option<Stack>,
    clients: Vec<NetClient>,
    frames_mark: (usize, usize),
}

impl NetB {
    pub fn new(ds: &Dataset, dir: &Path) -> Self {
        let stack = Stack::start(ds, dir, true);
        let clients = stack.clients();
        Self {
            stack: Some(stack),
            clients,
            frames_mark: (0, 0),
        }
    }

    fn stack(&self) -> &Stack {
        self.stack.as_ref().expect("alive until finish")
    }

    fn frames(&self) -> (usize, usize) {
        self.stack()
            .servers
            .iter()
            .map(|s| s.net_stats())
            .fold((0, 0), |(i, o), s| (i + s.frames_in, o + s.frames_out))
    }
}

fn frame_metrics(now: (usize, usize), mark: (usize, usize), tally: Tally) -> Vec<Metric> {
    let ops = tally.reads + tally.writes;
    vec![
        metric(
            "net.frames_in_per_op",
            per((now.0 - mark.0) as u64, ops),
            "count",
        ),
        metric(
            "net.frames_out_per_op",
            per((now.1 - mark.1) as u64, ops),
            "count",
        ),
    ]
}

impl Boundary for NetB {
    fn call(
        &mut self,
        ds: &Dataset,
        ops: &[Op],
        mut rows: Option<&mut Vec<Rows>>,
    ) -> Option<Outcome> {
        // A burst goes to one server: the bulk workload has one cluster.
        let cluster = self.stack().owner[ops[0].user()] as usize;
        let client = &mut self.clients[cluster];
        let mut requests: Vec<Request> = ops.iter().map(|&op| request_of(ds, op)).collect();
        let from = edge();
        let responses = if ops.len() == 1 {
            client
                .request(&requests.pop().expect("one request"))
                .map(|r| vec![r])
        } else if ops[0].is_read() {
            client.pipeline(&requests)
        } else {
            client.batch(requests)
        };
        let to = edge();
        let mut failed = ops.len() as u32;
        if let Ok(responses) = responses {
            for (&op, resp) in ops.iter().zip(responses) {
                failed -= u32::from(accept(op, resp, &mut rows));
            }
        }
        Some(outcome(from, to, failed))
    }

    fn checkpoint(&mut self) -> Option<u64> {
        let stack = self.stack.as_ref().expect("alive until finish");
        checkpoint_clients(stack, &mut self.clients)
    }

    fn mark(&mut self) {
        self.frames_mark = self.frames();
    }

    fn finish(mut self: Box<Self>, tally: Tally) -> Vec<Metric> {
        let metrics = frame_metrics(self.frames(), self.frames_mark, tally);
        self.clients.clear();
        self.stack.take().expect("alive until finish").shutdown();
        metrics
    }
}

// ----------------------------------------------------------------- router

/// `Router`: table lookup, breaker gate, retry wrapper, then the same
/// wire as the net boundary. The front door of the serial workloads.
pub struct RouterB {
    stack: Option<Stack>,
    router: Option<Router>,
    /// Side connections for the driver's checkpoints: the router has no
    /// such verb.
    admin: Vec<NetClient>,
}

impl RouterB {
    pub fn new(ds: &Dataset, dir: &Path) -> Self {
        let stack = Stack::start(ds, dir, true);
        let router = stack.router();
        let admin = stack.clients();
        Self {
            stack: Some(stack),
            router: Some(router),
            admin,
        }
    }
}

impl Boundary for RouterB {
    fn call(
        &mut self,
        ds: &Dataset,
        ops: &[Op],
        mut rows: Option<&mut Vec<Rows>>,
    ) -> Option<Outcome> {
        let router = self.router.as_mut().expect("alive until finish");
        let [op] = *ops else {
            unreachable!("the router has no burst verbs; bulk calls stop at the net boundary")
        };
        let user = &ds.users[op.user()];
        let (from, to, ok);
        match op {
            Op::Read { state, .. } => {
                let names: Vec<&str> = ds.states[state as usize]
                    .names
                    .iter()
                    .map(String::as_str)
                    .collect();
                from = edge();
                let answer = if ds.workload.full_query() {
                    router.query(user, ROW_ATTR, K, DEADLINE, &names)
                } else {
                    router.query_topk(user, ROW_ATTR, K, DEADLINE, &names)
                };
                to = edge();
                ok = answer.is_ok_and(|a| accept(op, Response::Answer(a), &mut rows));
            }
            Op::Insert { item, .. } => {
                let it = &ds.inserts[item as usize];
                from = edge();
                let r = router.insert_preference(
                    user,
                    &it.descriptor,
                    INSERT_ATTR,
                    &it.value,
                    it.score,
                );
                to = edge();
                ok = r.is_ok();
            }
            Op::Rescore { index, dip, .. } => {
                let score = ds.rescore_value(op.user(), index, dip);
                from = edge();
                let r = router.update_score(user, index as usize, score);
                to = edge();
                ok = r.is_ok();
            }
            Op::Remove { index, .. } => {
                from = edge();
                let r = router.remove_preference(user, index as usize);
                to = edge();
                ok = r.is_ok();
            }
        }
        Some(outcome(from, to, u32::from(!ok)))
    }

    fn checkpoint(&mut self) -> Option<u64> {
        let stack = self.stack.as_ref().expect("alive until finish");
        checkpoint_clients(stack, &mut self.admin)
    }

    fn finish(mut self: Box<Self>, _: Tally) -> Vec<Metric> {
        self.router = None;
        self.admin.clear();
        self.stack.take().expect("alive until finish").shutdown();
        Vec::new()
    }
}
