//! Materialized per-(user, context-state) top-k views.
//!
//! The qcache answers repeat queries but *invalidates everything* on
//! any preference mutation, so a hot (user, state) pair pays full tree
//! resolution on every write. A [`ViewCatalog`] instead keeps the
//! ranked answer materialized and maintains it **incrementally**:
//!
//! * Every view stores a *selection signature* — the interned set of
//!   stored context states its resolution selected. Resolution reads
//!   only the stored states that equal or cover the view's state
//!   (§4.4, `Search_CS`), so a selection can move only when such a
//!   state appears or goes. A re-score never does that; an insert or
//!   removal does it only when one of the preference's own states
//!   covers the view's state. Only then is the signature recomputed
//!   with a resolver walk (no relation scan), and only if the selected
//!   set changed does the view pay a targeted rebuild. Every other
//!   view keeps its stored signature.
//! * With an unchanged signature, an insert or score-raise is a
//!   *patch*: the mutation's σ-selection is merged into the view's
//!   bounded ranking (top-`k_max` heap region plus an overflow
//!   ledger) under the `Max` combiner — exact, because a retained
//!   tuple's recorded score is its true maximum and an absent tuple's
//!   true score is provably below the retained floor.
//! * A removal or score-drop that touches a retained tuple leaves the
//!   second-best contributor unknown — the heap cannot be refilled
//!   from local knowledge (the underflow path) — so that one view is
//!   rebuilt; every other view stays untouched.
//!
//! Views are *epoch-stamped*: the catalog bumps a mutation epoch on
//! every write and each view's content records the epoch it is valid
//! at. Serving refuses content from another epoch (it is rebuilt
//! lazily instead), so a view answer is always bit-identical to fresh
//! resolution — the property test in `tests/` drives randomized
//! mutation sequences against a full-recompute oracle.
//!
//! Hot states are *auto-materialized* once their top-k request count
//! crosses a threshold and LRU-evicted beyond a per-user capacity; a
//! view still being hit is never the LRU victim. Only an explicit
//! [`ViewCatalog::pin`] exempts a view from eviction. Pins live in
//! memory: an in-process snapshot carries them, but nothing saved to
//! disk does, so a save, a checkpoint or a recovery drops them. No
//! ranking is ever persisted, so a recovered view is rebuilt lazily
//! and can never be trusted stale across WAL replay.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use ctxpref_context::{ContextState, DistanceKind};
use ctxpref_profile::ContextualPreference;
use ctxpref_relation::{RankedResults, Relation, ScoreCombiner, ScoredTuple};
use ctxpref_resolve::{rank_selected, ContextResolver, PreferenceStore, StateResolution, TieBreak};

use crate::intern::{StateId, StateTable};

/// Requests a state must receive before it is materialized.
pub const MATERIALIZE_AFTER: u64 = 2;
/// Growth bound: a patched ranking may hold at most this many times
/// its build capacity before the view is rebuilt compactly.
const GROWTH_FACTOR: usize = 2;

/// The resolution options a view is materialized under. Views answer
/// only for the exact options they were built with (and only the
/// `Max` combiner admits the incremental patch rules); the catalog
/// drops all content when the options change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewOpts {
    /// State-distance metric used by resolution.
    pub distance: DistanceKind,
    /// Tie-break among equidistant candidates.
    pub tie: TieBreak,
    /// Score combiner (views require [`ScoreCombiner::Max`]).
    pub combiner: ScoreCombiner,
}

impl ViewOpts {
    /// Whether the incremental maintenance rules are sound under
    /// these options.
    pub fn supports_views(&self) -> bool {
        matches!(self.combiner, ScoreCombiner::Max)
    }
}

/// One preference mutation, as reported to [`ViewCatalog::on_mutation`].
#[derive(Debug, Clone, Copy)]
pub enum Change<'a> {
    /// `pref` was inserted.
    Insert(&'a ContextualPreference),
    /// `pref` was removed.
    Remove(&'a ContextualPreference),
    /// `pref` (carrying the new score) replaced the same preference at
    /// `old_score`.
    Rescore {
        /// The preference, already carrying its new score.
        pref: &'a ContextualPreference,
        /// The score it had before the mutation.
        old_score: f64,
    },
}

/// Monotonic view-serving counters plus current gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewStats {
    /// Top-k requests answered straight from a materialized view.
    pub view_hits: u64,
    /// Top-k requests that fell through to resolution.
    pub view_misses: u64,
    /// Mutations absorbed by an incremental patch.
    pub view_patches: u64,
    /// Targeted single-view rebuilds (signature change, underflow,
    /// growth bound, or lazy revalidation).
    pub view_rebuilds: u64,
    /// Views currently holding a materialized ranking.
    pub materialized_views: u64,
    /// Views currently pinned (never evicted).
    pub pinned_views: u64,
}

impl ViewStats {
    /// Fold another catalog's stats into this one (per-user catalogs
    /// aggregate to a service-wide view surface).
    pub fn absorb(&mut self, other: &ViewStats) {
        self.view_hits += other.view_hits;
        self.view_misses += other.view_misses;
        self.view_patches += other.view_patches;
        self.view_rebuilds += other.view_rebuilds;
        self.materialized_views += other.materialized_views;
        self.pinned_views += other.pinned_views;
    }
}

/// The materialized ranking of one view, valid at one epoch.
#[derive(Debug)]
struct Content {
    /// Interned selected states, sorted — the selection signature.
    signature: Vec<StateId>,
    /// The retained prefix of the full ranking: every tuple whose
    /// score is ≥ the floor, in exactly the order a fresh
    /// `RankedResults` would put them (score desc, tuple index asc).
    /// The first `k_max` entries are the heap region; the rest is the
    /// overflow ledger feeding it.
    ranked: Vec<ScoredTuple>,
    /// Whether `ranked` holds the *entire* ranking (then any `k` can
    /// be served and absent tuples are known unmatched).
    complete: bool,
    /// Largest `k` this content can serve when not `complete`.
    k_max: usize,
    /// Build capacity (`k_max` + ledger) used for the growth bound.
    cap: usize,
    /// The catalog epoch this content is valid at.
    epoch: u64,
}

impl Content {
    /// Lowest retained score. Every absent tuple's true score is
    /// strictly below this (build retains all ties at the floor).
    fn floor(&self) -> f64 {
        self.ranked.last().map_or(f64::NEG_INFINITY, |t| t.score)
    }
}

/// One registered view: a context state, its pin status, and (when
/// materialized) its ranking. The recency stamp is atomic so the serve
/// path never takes the catalog's write lock.
#[derive(Debug)]
struct View {
    state: ContextState,
    pinned: bool,
    content: Option<Content>,
    last_used: AtomicU64,
}

impl View {
    fn new(state: ContextState, pinned: bool, tick: u64) -> Self {
        Self {
            state,
            pinned,
            content: None,
            last_used: AtomicU64::new(tick),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    table: StateTable,
    views: HashMap<StateId, View>,
    /// Top-k request counts for states not yet materialized.
    freq: HashMap<StateId, u64>,
    /// The options current content was built under.
    opts: Option<ViewOpts>,
    epoch: u64,
}

/// A per-user catalog of materialized top-k views. Internally
/// synchronized: serving takes a read lock (the shard-level read lock
/// is already held), maintenance and materialization take the write
/// lock.
#[derive(Debug)]
pub struct ViewCatalog {
    inner: RwLock<Inner>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    patches: AtomicU64,
    rebuilds: AtomicU64,
}

impl ViewCatalog {
    /// An empty catalog evicting unpinned views beyond `capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: RwLock::new(Inner::default()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Register and pin `state`: materialized lazily on first serve,
    /// never evicted, and carried into in-memory snapshots.
    pub fn pin(&self, state: ContextState) {
        let tick = self.now();
        let mut inner = self.inner.write();
        let id = inner.table.intern(&state);
        match inner.views.get_mut(&id) {
            Some(v) => v.pinned = true,
            None => {
                inner.views.insert(id, View::new(state, true, tick));
            }
        }
    }

    /// Unpin `state` (it becomes LRU-evictable). Returns whether it
    /// was pinned.
    pub fn unpin(&self, state: &ContextState) -> bool {
        let mut inner = self.inner.write();
        let Some(id) = inner.table.lookup(state) else {
            return false;
        };
        inner
            .views
            .get_mut(&id)
            .is_some_and(|v| std::mem::replace(&mut v.pinned, false))
    }

    /// The currently pinned states (what an in-memory snapshot carries
    /// — registrations only, never contents).
    pub fn pinned_states(&self) -> Vec<ContextState> {
        let inner = self.inner.read();
        let mut out: Vec<ContextState> = inner
            .views
            .values()
            .filter(|v| v.pinned)
            .map(|v| v.state.clone())
            .collect();
        out.sort();
        out
    }

    /// Serve `top_k_with_ties(k)` for `state` from a materialized
    /// view, or record the miss (materializing the state once it is
    /// hot). `None` means the caller must resolve normally.
    pub fn serve<P: PreferenceStore>(
        &self,
        store: &P,
        relation: &Relation,
        opts: &ViewOpts,
        state: &ContextState,
        k: usize,
    ) -> Option<RankedResults> {
        if let Some(result) = self.hit(opts, state, k) {
            return Some(result);
        }
        if !opts.supports_views() || k == 0 {
            return None;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.note_miss(store, relation, opts, state, k)
    }

    /// The hit path alone, under the catalog's read lock:
    /// `top_k_with_ties(k)` for `state` when a view built under `opts`
    /// is current at this epoch and deep enough for `k`, counted as a
    /// hit. A miss records nothing and materializes nothing, so a
    /// caller that cannot afford [`Self::serve`]'s miss path may probe
    /// and leave the miss to a later `serve`.
    pub fn hit(&self, opts: &ViewOpts, state: &ContextState, k: usize) -> Option<RankedResults> {
        if !opts.supports_views() || k == 0 {
            return None;
        }
        let inner = self.inner.read();
        if inner.opts.as_ref() != Some(opts) {
            return None;
        }
        let view = inner.views.get(&inner.table.lookup(state)?)?;
        let content = view.content.as_ref()?;
        if content.epoch != inner.epoch || !(content.complete || k <= content.k_max) {
            return None;
        }
        let result = RankedResults::from_sorted(top_k_with_ties(&content.ranked, k).to_vec());
        view.last_used.store(self.now(), Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(result)
    }

    /// Miss path: count the request and materialize (or re-materialize
    /// with a larger `k`) once the state is hot. Returns the freshly
    /// built answer when a build happened, so the triggering request
    /// is served from it.
    fn note_miss<P: PreferenceStore>(
        &self,
        store: &P,
        relation: &Relation,
        opts: &ViewOpts,
        state: &ContextState,
        k: usize,
    ) -> Option<RankedResults> {
        let tick = self.now();
        let mut inner = self.inner.write();
        if inner.opts.as_ref() != Some(opts) {
            // Options changed (or first use): every ranking built
            // under the old options is meaningless now.
            for v in inner.views.values_mut() {
                v.content = None;
            }
            inner.freq.clear();
            inner.opts = Some(*opts);
        }
        let id = inner.table.intern(state);
        if !inner.views.contains_key(&id) {
            let n = inner.freq.entry(id).or_insert(0);
            *n += 1;
            if *n < MATERIALIZE_AFTER {
                return None;
            }
            inner.freq.remove(&id);
            inner
                .views
                .insert(id, View::new(state.clone(), false, tick));
            self.evict_over_capacity(&mut inner, id);
        }
        let epoch = inner.epoch;
        let k_max = inner.views[&id]
            .content
            .as_ref()
            .map_or(k, |c| c.k_max.max(k));
        let content = build_content(store, relation, opts, state, k_max, epoch, &mut inner.table);
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        let rows = top_k_with_ties(&content.ranked, k).to_vec();
        let view = inner.views.get_mut(&id).expect("just ensured");
        view.content = Some(content);
        view.last_used.store(tick, Ordering::Relaxed);
        Some(RankedResults::from_sorted(rows))
    }

    /// Evict least-recently-used unpinned views beyond capacity,
    /// never the one just registered.
    fn evict_over_capacity(&self, inner: &mut Inner, keep: StateId) {
        loop {
            let unpinned = inner.views.values().filter(|v| !v.pinned).count();
            if unpinned <= self.capacity {
                return;
            }
            let victim = inner
                .views
                .iter()
                .filter(|(id, v)| **id != keep && !v.pinned)
                .min_by_key(|(_, v)| v.last_used.load(Ordering::Relaxed))
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    inner.views.remove(&id);
                }
                None => return,
            }
        }
    }

    /// Maintain every materialized view across one preference
    /// mutation. Called with the store/relation *after* the mutation
    /// applied.
    pub fn on_mutation<P: PreferenceStore>(
        &self,
        store: &P,
        relation: &Relation,
        opts: &ViewOpts,
        change: Change<'_>,
    ) {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        inner.epoch += 1;
        if inner.views.is_empty() {
            return;
        }
        if inner.opts.as_ref() != Some(opts) || !opts.supports_views() {
            for v in inner.views.values_mut() {
                v.content = None;
            }
            return;
        }
        let epoch = inner.epoch;
        let (pref, moves_states) = match change {
            Change::Insert(p) | Change::Remove(p) => (p, true),
            Change::Rescore { pref: p, .. } => (p, false),
        };
        // The stored states the mutated preference touches. A view's
        // selection is drawn only from the stored states that equal or
        // cover its state, so a write moves it only by adding or
        // dropping one of those: an insert or removal one of whose
        // states covers the view's state. Only such a view pays the
        // signature walk; a re-score moves no selection. When the
        // states cannot be enumerated, every view walks.
        let touched: Option<Vec<ContextState>> = pref.descriptor().states(store.env()).ok();
        let touched_ids: Option<Vec<StateId>> = touched.as_ref().map(|states| {
            states
                .iter()
                .filter_map(|s| inner.table.lookup(s))
                .collect()
        });
        let Inner { table, views, .. } = inner;
        let rebuild = |content: &mut Content, state: &ContextState, table: &mut StateTable| {
            *content = build_content(store, relation, opts, state, content.k_max, epoch, table);
            self.rebuilds.fetch_add(1, Ordering::Relaxed);
        };
        // σ of the mutated clause, computed once and shared by views.
        let mut sigma_cache: Option<Vec<usize>> = None;
        for view in views.values_mut() {
            let Some(content) = view.content.as_mut() else {
                continue;
            };
            let state = &view.state;
            let walk = moves_states
                && touched
                    .as_ref()
                    .is_none_or(|states| states.iter().any(|s| s.covers(state, store.env())));
            if walk && selection_signature(store, opts, state, table) != content.signature {
                rebuild(content, state, table);
                continue;
            }
            // Selection unchanged: does the mutation's descriptor even
            // intersect the selected states?
            let intersects = match &touched_ids {
                Some(ids) => ids.iter().any(|id| content.signature.contains(id)),
                None => true, // unparseable descriptor: treat as affected
            };
            if !intersects {
                content.epoch = epoch;
                continue;
            }
            let sigma = sigma_cache
                .get_or_insert_with(|| relation.select(&pref.clause().predicate()).collect());
            let outcome = match change {
                Change::Insert(p) => patch_raise(content, sigma, p.score()),
                Change::Rescore { pref: p, old_score } if p.score() > old_score => {
                    patch_raise(content, sigma, p.score())
                }
                Change::Rescore { old_score, .. } => {
                    if dominates(content, sigma, old_score) {
                        Patch::Underflow
                    } else {
                        Patch::Untouched
                    }
                }
                Change::Remove(p) => {
                    if dominates(content, sigma, p.score()) {
                        Patch::Underflow
                    } else {
                        Patch::Untouched
                    }
                }
            };
            match outcome {
                Patch::Patched => {
                    self.patches.fetch_add(1, Ordering::Relaxed);
                    content.epoch = epoch;
                    if content.ranked.len() > content.cap * GROWTH_FACTOR {
                        rebuild(content, state, table);
                    }
                }
                Patch::Untouched => {
                    content.epoch = epoch;
                }
                // A retained tuple may have lost its dominating
                // contributor: the heap cannot be refilled from local
                // knowledge — targeted rebuild of this one view.
                Patch::Underflow => rebuild(content, state, table),
            }
        }
    }

    /// Check every current materialized view against a fresh
    /// resolution over `store` and `relation` under the options the
    /// catalog was built with, returning the states of the views that
    /// disagree, sorted. A view disagrees when its selection signature
    /// differs, when its retained prefix differs from the fresh
    /// ranking's tuple by tuple or by score bits, or when it breaks the
    /// floor rule: an incomplete prefix must hold at least `k_max` rows
    /// with every fresh row past it scoring below its floor, and a
    /// complete one the whole ranking. Content from another epoch is
    /// never served and is not checked. Takes the write lock (a fresh
    /// resolution interns the states it selects) and pays a full
    /// resolution and ranking per view, so it is a check, not a
    /// serving step.
    pub fn verify<P: PreferenceStore>(&self, store: &P, relation: &Relation) -> Vec<ContextState> {
        let mut guard = self.inner.write();
        let Inner {
            table,
            views,
            opts,
            epoch,
            ..
        } = &mut *guard;
        let Some(opts) = opts.as_ref() else {
            return Vec::new();
        };
        let mut bad: Vec<ContextState> = views
            .values()
            .filter_map(|v| Some((v, v.content.as_ref()?)))
            .filter(|(_, c)| c.epoch == *epoch)
            .filter(|(v, c)| {
                let (signature, full) = fresh_ranking(store, relation, opts, &v.state, table);
                !agrees(c, &signature, &full)
            })
            .map(|(v, _)| v.state.clone())
            .collect();
        bad.sort();
        bad
    }

    /// Drop every materialized ranking (registrations and pins stay).
    /// Used when query defaults change and after snapshot restore.
    pub fn invalidate_contents(&self) {
        let mut inner = self.inner.write();
        inner.epoch += 1;
        for v in inner.views.values_mut() {
            v.content = None;
        }
        inner.freq.clear();
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> ViewStats {
        let inner = self.inner.read();
        ViewStats {
            view_hits: self.hits.load(Ordering::Relaxed),
            view_misses: self.misses.load(Ordering::Relaxed),
            view_patches: self.patches.load(Ordering::Relaxed),
            view_rebuilds: self.rebuilds.load(Ordering::Relaxed),
            materialized_views: inner.views.values().filter(|v| v.content.is_some()).count() as u64,
            pinned_views: inner.views.values().filter(|v| v.pinned).count() as u64,
        }
    }

    /// Number of registered views (materialized or lazy).
    pub fn len(&self) -> usize {
        self.inner.read().views.len()
    }

    /// Whether no view is registered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().views.is_empty()
    }
}

/// What one mutation did to one view.
enum Patch {
    Patched,
    Untouched,
    Underflow,
}

/// Whether any retained tuple matched by `sigma` has `score` as its
/// recorded maximum — removing that contribution may drop the tuple's
/// true score, which the view cannot compute locally.
fn dominates(content: &Content, sigma: &[usize], score: f64) -> bool {
    // `sigma` is ascending (σ scans tuples in index order).
    content
        .ranked
        .iter()
        .any(|t| t.score == score && sigma.binary_search(&t.tuple_index).is_ok())
}

/// Merge a σ-selection at `score` into the view under the `Max`
/// combiner. Exact: a retained tuple's recorded score is its true
/// maximum, and an absent tuple's true score is strictly below the
/// floor, so `score >= floor` is the precise admission test.
fn patch_raise(content: &mut Content, sigma: &[usize], score: f64) -> Patch {
    let floor = content.floor();
    let mut changed = false;
    for &ix in sigma {
        match content.ranked.iter_mut().find(|t| t.tuple_index == ix) {
            Some(t) => {
                if score > t.score {
                    t.score = score;
                    changed = true;
                }
            }
            None => {
                if content.complete || score >= floor {
                    content.ranked.push(ScoredTuple {
                        tuple_index: ix,
                        score,
                    });
                    changed = true;
                }
            }
        }
    }
    if changed {
        sort_ranking(&mut content.ranked);
        Patch::Patched
    } else {
        Patch::Untouched
    }
}

/// The exact ordering `RankedResults::from_scores` produces: score
/// descending, tuple index ascending.
fn sort_ranking(ranked: &mut [ScoredTuple]) {
    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.tuple_index.cmp(&b.tuple_index))
    });
}

/// `top_k_with_ties` over an already-sorted retained ranking.
fn top_k_with_ties(ranked: &[ScoredTuple], k: usize) -> &[ScoredTuple] {
    if k == 0 || ranked.is_empty() {
        return &[];
    }
    if ranked.len() <= k {
        return ranked;
    }
    let threshold = ranked[k - 1].score;
    let mut end = k;
    while end < ranked.len() && ranked[end].score == threshold {
        end += 1;
    }
    &ranked[..end]
}

/// The interned, sorted set of stored states `state`'s resolution
/// selects — a resolver walk only, no relation scan.
fn selection_signature<P: PreferenceStore>(
    store: &P,
    opts: &ViewOpts,
    state: &ContextState,
    table: &mut StateTable,
) -> Vec<StateId> {
    let resolver = ContextResolver::new(store, opts.distance, opts.tie);
    signature_of(&resolver.resolve_state(state), table)
}

fn signature_of(res: &StateResolution, table: &mut StateTable) -> Vec<StateId> {
    let mut sig: Vec<StateId> = res
        .selected
        .iter()
        .map(|c| table.intern(&c.state))
        .collect();
    sig.sort_unstable();
    sig.dedup();
    sig
}

/// A fresh resolution of `state`: its selection signature and the full
/// ranking of the selected leaves' clauses (exactly as `Rank_CS` ranks
/// one state).
fn fresh_ranking<P: PreferenceStore>(
    store: &P,
    relation: &Relation,
    opts: &ViewOpts,
    state: &ContextState,
    table: &mut StateTable,
) -> (Vec<StateId>, RankedResults) {
    let resolver = ContextResolver::new(store, opts.distance, opts.tie);
    let res = resolver.resolve_state(state);
    let full = rank_selected(
        store,
        relation,
        std::slice::from_ref(&res),
        opts.combiner,
        None,
    );
    (signature_of(&res, table), full)
}

/// Materialize one view: rank it afresh and retain the top
/// `k_max + ledger` prefix with all ties at the cut.
fn build_content<P: PreferenceStore>(
    store: &P,
    relation: &Relation,
    opts: &ViewOpts,
    state: &ContextState,
    k_max: usize,
    epoch: u64,
    table: &mut StateTable,
) -> Content {
    let (signature, full) = fresh_ranking(store, relation, opts, state, table);
    let cap = k_max + k_max.max(8);
    let retained = full.top_k_with_ties(cap);
    let complete = retained.len() == full.len();
    Content {
        signature,
        ranked: retained.to_vec(),
        complete,
        k_max,
        cap,
        epoch,
    }
}

/// Whether `content` agrees with a fresh ranking of its state: the
/// same signature, a retained prefix equal to the fresh ranking's
/// prefix tuple by tuple (scores compared by bits), and the floor
/// rule. An incomplete prefix holds at least `k_max` rows and every
/// fresh row past it scores strictly below its floor; a complete one
/// holds the whole ranking. An incomplete prefix that happens to hold
/// the whole ranking is legal (removals below the floor shrink the
/// ranking without touching the prefix).
fn agrees(content: &Content, signature: &[StateId], full: &RankedResults) -> bool {
    let fresh = full.entries();
    let ranked = &content.ranked;
    let prefix_matches = ranked.len() <= fresh.len()
        && ranked
            .iter()
            .zip(fresh)
            .all(|(a, b)| a.tuple_index == b.tuple_index && a.score.to_bits() == b.score.to_bits());
    let floor_holds = if content.complete {
        ranked.len() == fresh.len()
    } else {
        ranked.len() >= content.k_max
            && fresh
                .get(ranked.len())
                .is_none_or(|next| next.score < content.floor())
    };
    content.signature == signature && prefix_matches && floor_holds
}
