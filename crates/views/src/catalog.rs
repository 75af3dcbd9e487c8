//! Materialized per-(profile, context-state) top-k views.
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
//! every write and each view records the epoch its content is valid
//! at. Serving refuses content from another epoch (it is rebuilt
//! lazily instead), so a view answer is always bit-identical to fresh
//! resolution — the property test in `tests/` drives randomized
//! mutation sequences against a full-recompute oracle.
//!
//! **A catalog per index.** A view is a pure function of the profile
//! and the state, so a catalog belongs to one profile index, not to
//! one user: every user holding that index serves, materializes and
//! counts misses in its catalog. What belongs to one user is a
//! [`Seat`]: the states it asked about, its pins and its own hit and
//! miss counters. Hot states are *auto-materialized* once their top-k
//! request count crosses a threshold and LRU-evicted beyond the
//! catalog's capacity, which is the per-sharer capacity times the
//! seats taken. Recency is counted in misses: a view hit since the
//! last miss is among the most recent, and a hit writes nothing the
//! other sharers read unless the view's stamp moves. Only a
//! pin exempts a view from eviction, and a view pinned by any sharer
//! stays. Pins live in memory: an in-process snapshot carries them,
//! but nothing saved to disk does, so a save, a checkpoint or a
//! recovery drops them. No ranking is ever persisted, so a recovered
//! view is rebuilt lazily and can never be trusted stale across WAL
//! replay.
//!
//! **Copy-on-write fork.** A shared catalog is never mutated: a user's
//! first edit gives them their own index, and [`ViewCatalog::fork`]
//! gives that index a catalog carrying only the views the user's seat
//! asked about or pinned. Carried views share their rankings with the
//! parent; a patch copies the one ranking it changes, and an untouched
//! view copies nothing, because its validity epoch lives on the
//! catalog's view, not in the shared ranking. A fork keeps interning
//! into its parent's state table, so carried signatures stay valid.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use ctxpref_context::{ContextState, DistanceKind};
use ctxpref_profile::ContextualPreference;
use ctxpref_relation::{RankedResults, Relation, ScoreCombiner, ScoredTuple};
use ctxpref_resolve::{PreferenceStore, TieBreak};

use crate::content::{
    agrees, build_content, dominates, patch_raise, selection_signature, top_k_with_ties, Content,
    Patch,
};
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
    /// Fold another catalog's stats into this one. A service-wide
    /// total absorbs each catalog once, however many users share it,
    /// plus the counters of the catalogs already retired.
    pub fn absorb(&mut self, other: &ViewStats) {
        self.view_hits += other.view_hits;
        self.view_misses += other.view_misses;
        self.view_patches += other.view_patches;
        self.view_rebuilds += other.view_rebuilds;
        self.materialized_views += other.materialized_views;
        self.pinned_views += other.pinned_views;
    }
}

/// One registered view, filed under its context state: the state's
/// interned id, how many sharers pinned it, and (when materialized) its
/// ranking with the epoch it is valid at. The recency stamp is atomic
/// so the serve path never takes the catalog's write lock.
#[derive(Debug)]
struct View {
    id: StateId,
    /// Seats pinning the view. A view pinned by any sharer is never
    /// evicted.
    pins: u32,
    /// The ranking, shared copy-on-write with the catalogs forked from
    /// this one (or the one this was forked from).
    content: Option<Arc<Content>>,
    /// The catalog epoch `content` is valid at.
    epoch: u64,
    last_used: AtomicU64,
}

impl View {
    fn new(id: StateId, tick: u64) -> Self {
        Self {
            id,
            pins: 0,
            content: None,
            epoch: 0,
            last_used: AtomicU64::new(tick),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Keyed by state, so a hit needs no state-table lookup.
    views: HashMap<ContextState, View>,
    /// Top-k request counts for states not yet materialized.
    freq: HashMap<StateId, u64>,
    /// The options current content was built under.
    opts: Option<ViewOpts>,
    epoch: u64,
}

/// One sharer's own part of a catalog: the states it asked about (at
/// most the catalog's per-sharer capacity, oldest out first), its pins
/// and its hit and miss counters. Taken with [`ViewCatalog::seat`] and
/// handed back with [`ViewCatalog::leave`]; a fork moves it to the new
/// catalog.
#[derive(Debug)]
pub struct Seat {
    asked: Mutex<Vec<StateId>>,
    pins: Vec<ContextState>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Seat {
    /// The hits served to this seat here or, before a fork moved it,
    /// in the catalog it came from.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The states this seat pinned, sorted.
    pub fn pinned(&self) -> &[ContextState] {
        &self.pins
    }

    /// Record that the seat asked about `id`. A repeat allocates
    /// nothing; past `capacity` states the oldest goes.
    fn note(&self, id: StateId, capacity: usize) {
        let mut asked = self.asked.lock();
        if asked.contains(&id) {
            return;
        }
        if asked.len() >= capacity {
            asked.remove(0);
        }
        asked.push(id);
    }
}

/// A catalog of materialized top-k views over one profile index,
/// shared by the users holding it (see the module docs). Internally
/// synchronized: serving takes a read lock (the shard-level read lock
/// is already held), maintenance and materialization take the write
/// lock, and the state table has a lock of its own, held only to
/// intern or look up; a hit finds its view by state and never takes
/// it.
#[derive(Debug)]
pub struct ViewCatalog {
    inner: RwLock<Inner>,
    /// Shared with every catalog forked from this one.
    table: Arc<RwLock<StateTable>>,
    /// Unpinned views allowed per seat taken.
    capacity: usize,
    sharers: AtomicUsize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    patches: AtomicU64,
    rebuilds: AtomicU64,
}

impl ViewCatalog {
    /// An empty catalog evicting unpinned views beyond `capacity` per
    /// seat taken (and beyond `capacity` while no seat is taken).
    pub fn new(capacity: usize) -> Self {
        Self::with_parts(Inner::default(), Arc::default(), capacity, 0)
    }

    fn with_parts(
        inner: Inner,
        table: Arc<RwLock<StateTable>>,
        capacity: usize,
        tick: u64,
    ) -> Self {
        Self {
            inner: RwLock::new(inner),
            table,
            capacity: capacity.max(1),
            sharers: AtomicUsize::new(0),
            tick: AtomicU64::new(tick),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Take a seat: one more sharer, and one more share of capacity.
    pub fn seat(&self) -> Seat {
        self.sharers.fetch_add(1, Ordering::Relaxed);
        Seat {
            asked: Mutex::new(Vec::new()),
            pins: Vec::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Hand `seat` back: its pins here are dropped, its share of the
    /// capacity goes, and its hits join the catalog's.
    pub fn leave(&self, seat: Seat) {
        for state in &seat.pins {
            self.drop_pin(state);
        }
        self.sharers.fetch_sub(1, Ordering::Relaxed);
        let hits = seat.hits.load(Ordering::Relaxed);
        self.hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Add one pin to `state`, registering it: a registered view is
    /// materialized lazily on first serve, and never evicted while
    /// pinned.
    fn add_pin(&self, state: ContextState) {
        let tick = self.now();
        let id = self.table.write().intern(&state);
        let mut inner = self.inner.write();
        let view = inner
            .views
            .entry(state)
            .or_insert_with(|| View::new(id, tick));
        view.pins += 1;
    }

    /// Drop one pin of `state` (without pins it becomes LRU-evictable).
    fn drop_pin(&self, state: &ContextState) {
        if let Some(v) = self.inner.write().views.get_mut(state) {
            v.pins = v.pins.saturating_sub(1);
        }
    }

    /// Register and pin `state` for `seat`, once however often it asks:
    /// materialized lazily on first serve, and never evicted while any
    /// seat pins it.
    pub fn pin_for(&self, seat: &mut Seat, state: ContextState) {
        if let Err(at) = seat.pins.binary_search(&state) {
            seat.pins.insert(at, state.clone());
            self.add_pin(state);
        }
    }

    /// Drop `seat`'s pin of `state`; returns whether `seat` had one.
    pub fn unpin_for(&self, seat: &mut Seat, state: &ContextState) -> bool {
        let Ok(at) = seat.pins.binary_search(state) else {
            return false;
        };
        seat.pins.remove(at);
        self.drop_pin(state);
        true
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
        self.serve_as(None, store, relation, opts, state, k)
    }

    /// [`Self::serve`] for one sharer: the state joins `seat`'s asked
    /// states, a hit is counted on the seat alone and a miss on the
    /// seat too.
    pub fn serve_for<P: PreferenceStore>(
        &self,
        seat: &Seat,
        store: &P,
        relation: &Relation,
        opts: &ViewOpts,
        state: &ContextState,
        k: usize,
    ) -> Option<RankedResults> {
        self.serve_as(Some(seat), store, relation, opts, state, k)
    }

    fn serve_as<P: PreferenceStore>(
        &self,
        seat: Option<&Seat>,
        store: &P,
        relation: &Relation,
        opts: &ViewOpts,
        state: &ContextState,
        k: usize,
    ) -> Option<RankedResults> {
        let copied = |rows: &[ScoredTuple]| RankedResults::from_sorted(rows.to_vec());
        if let Some(result) = self.hit_as(seat, opts, state, k, copied) {
            return Some(result);
        }
        if !opts.supports_views() || k == 0 {
            return None;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(seat) = seat {
            seat.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.note_miss(seat, store, relation, opts, state, k)
    }

    /// The hit path alone: when a view of `state` built under `opts` is
    /// current at this epoch and deep enough for `k`, its
    /// `top_k_with_ties(k)` rows lent to `render` under the catalog's
    /// read lock, no copy made, and counted as a hit of `seat`. A miss
    /// records nothing and materializes nothing, so a caller that
    /// cannot afford [`Self::serve_for`]'s miss path may probe and leave
    /// the miss to a later `serve_for`.
    pub fn hit_for<R>(
        &self,
        seat: &Seat,
        opts: &ViewOpts,
        state: &ContextState,
        k: usize,
        render: impl FnOnce(&[ScoredTuple]) -> R,
    ) -> Option<R> {
        self.hit_as(Some(seat), opts, state, k, render)
    }

    fn hit_as<R>(
        &self,
        seat: Option<&Seat>,
        opts: &ViewOpts,
        state: &ContextState,
        k: usize,
        render: impl FnOnce(&[ScoredTuple]) -> R,
    ) -> Option<R> {
        if !opts.supports_views() || k == 0 {
            return None;
        }
        let inner = self.inner.read();
        if inner.opts.as_ref() != Some(opts) {
            return None;
        }
        let view = inner.views.get(state)?;
        let content = view.content.as_deref()?;
        if view.epoch != inner.epoch || !(content.complete || k <= content.k_max) {
            return None;
        }
        let result = render(top_k_with_ties(&content.ranked, k));
        // A hit stamps the current tick without advancing it, and writes
        // the stamp only when it moved: sharers hitting one view on
        // other cores then leave its cache line alone. Views hit since
        // the last miss tie as the most recent.
        let tick = self.tick.load(Ordering::Relaxed);
        if view.last_used.load(Ordering::Relaxed) < tick {
            view.last_used.store(tick, Ordering::Relaxed);
        }
        // A seat's hit is counted on the seat alone, so sharers on
        // other cores share no hit counter either.
        match seat {
            Some(seat) => {
                seat.hits.fetch_add(1, Ordering::Relaxed);
                seat.note(view.id, self.capacity);
            }
            None => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(result)
    }

    /// Miss path: count the request and materialize (or re-materialize
    /// with a larger `k`) once the state is hot. Returns the freshly
    /// built answer when a build happened, so the triggering request
    /// is served from it.
    fn note_miss<P: PreferenceStore>(
        &self,
        seat: Option<&Seat>,
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
        let id = self.table.write().intern(state);
        if let Some(seat) = seat {
            seat.note(id, self.capacity);
        }
        if !inner.views.contains_key(state) {
            let n = inner.freq.entry(id).or_insert(0);
            *n += 1;
            if *n < MATERIALIZE_AFTER {
                return None;
            }
            inner.freq.remove(&id);
            inner.views.insert(state.clone(), View::new(id, tick));
            self.evict_over_capacity(&mut inner, id);
        }
        let epoch = inner.epoch;
        let k_max = inner.views[state]
            .content
            .as_ref()
            .map_or(k, |c| c.k_max.max(k));
        let content = build_content(store, relation, opts, state, k_max, &self.table);
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        let rows = top_k_with_ties(&content.ranked, k).to_vec();
        let view = inner.views.get_mut(state).expect("just ensured");
        view.content = Some(Arc::new(content));
        view.epoch = epoch;
        view.last_used.store(tick, Ordering::Relaxed);
        Some(RankedResults::from_sorted(rows))
    }

    /// Evict least-recently-used unpinned views beyond the capacity of
    /// the seats taken, never the one just registered.
    fn evict_over_capacity(&self, inner: &mut Inner, keep: StateId) {
        let capacity = self.capacity * self.sharers.load(Ordering::Relaxed).max(1);
        loop {
            let unpinned = inner.views.values().filter(|v| v.pins == 0).count();
            if unpinned <= capacity {
                return;
            }
            let victim = inner
                .views
                .values()
                .filter(|v| v.id != keep && v.pins == 0)
                .min_by_key(|v| v.last_used.load(Ordering::Relaxed))
                .map(|v| v.id);
            match victim {
                Some(id) => inner.views.retain(|_, v| v.id != id),
                None => return,
            }
        }
    }

    /// The catalog `seat` moves to when its user edits their own copy
    /// of the index: it carries only the views `seat` asked about or
    /// pinned, with their rankings shared copy-on-write and their
    /// epochs, at this catalog's epoch and options, and interns into
    /// this catalog's state table, so every carried signature and every
    /// id `seat` holds stays valid. The seat's pins and its share of the
    /// capacity leave this catalog; the fork starts with that one seat.
    pub fn fork(&self, seat: &Seat) -> ViewCatalog {
        let mut inner = self.inner.write();
        let mut carried = Inner {
            opts: inner.opts,
            epoch: inner.epoch,
            ..Inner::default()
        };
        {
            let table = self.table.read();
            let asked = seat.asked.lock();
            let asked = asked.iter().map(|&id| (id, table.resolve(id)));
            let pinned = seat.pins.iter().filter_map(|s| Some((table.lookup(s)?, s)));
            for (id, state) in asked.chain(pinned) {
                if let Some(v) = inner.views.get(state) {
                    carried.views.entry(state.clone()).or_insert_with(|| View {
                        id,
                        pins: 0,
                        content: v.content.clone(),
                        epoch: v.epoch,
                        last_used: AtomicU64::new(v.last_used.load(Ordering::Relaxed)),
                    });
                } else if let Some(&n) = inner.freq.get(&id) {
                    carried.freq.insert(id, n);
                }
            }
        }
        for state in &seat.pins {
            if let Some(v) = inner.views.get_mut(state) {
                v.pins = v.pins.saturating_sub(1);
            }
            if let Some(v) = carried.views.get_mut(state) {
                v.pins += 1;
            }
        }
        self.sharers.fetch_sub(1, Ordering::Relaxed);
        let tick = self.tick.load(Ordering::Relaxed);
        let fork = Self::with_parts(carried, Arc::clone(&self.table), self.capacity, tick);
        fork.sharers.store(1, Ordering::Relaxed);
        fork
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
            let table = self.table.read();
            states.iter().filter_map(|s| table.lookup(s)).collect()
        });
        let table = &*self.table;
        let rebuild = |content: &mut Arc<Content>, state: &ContextState| {
            *content = Arc::new(build_content(
                store,
                relation,
                opts,
                state,
                content.k_max,
                table,
            ));
            self.rebuilds.fetch_add(1, Ordering::Relaxed);
        };
        // σ of the mutated clause, computed once and shared by views.
        let mut sigma_cache: Option<Vec<usize>> = None;
        for (state, view) in inner.views.iter_mut() {
            let Some(content) = view.content.as_mut() else {
                continue;
            };
            // Every outcome below leaves the content valid at `epoch`.
            view.epoch = epoch;
            let walk = moves_states
                && touched
                    .as_ref()
                    .is_none_or(|states| states.iter().any(|s| s.covers(state, store.env())));
            if walk && selection_signature(store, opts, state, table) != content.signature {
                rebuild(content, state);
                continue;
            }
            // Selection unchanged: does the mutation's descriptor even
            // intersect the selected states?
            let intersects = match &touched_ids {
                Some(ids) => ids.iter().any(|id| content.signature.contains(id)),
                None => true, // unparseable descriptor: treat as affected
            };
            if !intersects {
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
                    if content.ranked.len() > content.cap * GROWTH_FACTOR {
                        rebuild(content, state);
                    }
                }
                Patch::Untouched => {}
                // A retained tuple may have lost its dominating
                // contributor: the heap cannot be refilled from local
                // knowledge — targeted rebuild of this one view.
                Patch::Underflow => rebuild(content, state),
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
    /// never served and is not checked. Pays a full resolution and
    /// ranking per view, so it is a check, not a serving step.
    pub fn verify<P: PreferenceStore>(&self, store: &P, relation: &Relation) -> Vec<ContextState> {
        let inner = self.inner.read();
        let Some(opts) = inner.opts.as_ref() else {
            return Vec::new();
        };
        let mut bad: Vec<ContextState> = inner
            .views
            .iter()
            .filter(|(_, v)| v.epoch == inner.epoch)
            .filter(|(state, v)| {
                v.content
                    .as_deref()
                    .is_some_and(|c| !agrees(c, store, relation, opts, state, &self.table))
            })
            .map(|(state, _)| state.clone())
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

    /// Current counters and gauges of the whole catalog, every sharer
    /// included, but for the hits of the seats still taken: those stay
    /// on each seat ([`Seat::hits`]) until it leaves.
    pub fn stats(&self) -> ViewStats {
        let inner = self.inner.read();
        ViewStats {
            view_hits: self.hits.load(Ordering::Relaxed),
            view_misses: self.misses.load(Ordering::Relaxed),
            view_patches: self.patches.load(Ordering::Relaxed),
            view_rebuilds: self.rebuilds.load(Ordering::Relaxed),
            materialized_views: inner.views.values().filter(|v| v.content.is_some()).count() as u64,
            pinned_views: inner.views.values().filter(|v| v.pins > 0).count() as u64,
        }
    }

    /// One sharer's figures: `seat`'s own hits, misses and pins, how
    /// many of the states it asked about or pinned are materialized
    /// here, and the catalog's patches and rebuilds (shared with every
    /// other seat).
    pub fn stats_for(&self, seat: &Seat) -> ViewStats {
        let inner = self.inner.read();
        let table = self.table.read();
        let asked = seat.asked.lock();
        // A state the seat both asked about and pinned counts once.
        let pinned_only =
            (seat.pins.iter()).filter(|s| table.lookup(s).is_none_or(|id| !asked.contains(&id)));
        let materialized = (asked.iter().map(|&id| table.resolve(id)))
            .chain(pinned_only)
            .filter(|s| inner.views.get(*s).is_some_and(|v| v.content.is_some()))
            .count();
        ViewStats {
            view_hits: seat.hits.load(Ordering::Relaxed),
            view_misses: seat.misses.load(Ordering::Relaxed),
            view_patches: self.patches.load(Ordering::Relaxed),
            view_rebuilds: self.rebuilds.load(Ordering::Relaxed),
            materialized_views: materialized as u64,
            pinned_views: seat.pins.len() as u64,
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
