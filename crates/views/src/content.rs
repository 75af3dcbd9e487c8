//! A view's materialized ranking and the rules that build, patch and
//! check it. [`crate::ViewCatalog`] decides *when* each runs; this
//! module says *what* each does to one [`Content`].
//!
//! A content is shared, copy-on-write, between a catalog and the
//! catalogs forked from it, so it carries no epoch: whether it is
//! current is the owning view's business. Signatures are ids in the
//! state table the catalog and its forks intern into.

use std::sync::Arc;

use parking_lot::RwLock;

use ctxpref_context::ContextState;
use ctxpref_relation::{RankedResults, Relation, ScoredTuple};
use ctxpref_resolve::{rank_selected, ContextResolver, PreferenceStore, StateResolution};

use crate::catalog::ViewOpts;
use crate::intern::{StateId, StateTable};

/// The materialized ranking of one view.
#[derive(Debug, Clone)]
pub(crate) struct Content {
    /// Interned selected states, sorted — the selection signature.
    pub(crate) signature: Vec<StateId>,
    /// The retained prefix of the full ranking: every tuple whose
    /// score is ≥ the floor, in exactly the order a fresh
    /// `RankedResults` would put them (score desc, tuple index asc).
    /// The first `k_max` entries are the heap region; the rest is the
    /// overflow ledger feeding it.
    pub(crate) ranked: Vec<ScoredTuple>,
    /// Whether `ranked` holds the *entire* ranking (then any `k` can
    /// be served and absent tuples are known unmatched).
    pub(crate) complete: bool,
    /// Largest `k` this content can serve when not `complete`.
    pub(crate) k_max: usize,
    /// Build capacity (`k_max` + ledger) used for the growth bound.
    pub(crate) cap: usize,
}

impl Content {
    /// Lowest retained score. Every absent tuple's true score is
    /// strictly below this (build retains all ties at the floor).
    fn floor(&self) -> f64 {
        self.ranked.last().map_or(f64::NEG_INFINITY, |t| t.score)
    }
}

/// What one mutation did to one view.
pub(crate) enum Patch {
    Patched,
    Untouched,
    Underflow,
}

/// Whether any retained tuple matched by `sigma` has `score` as its
/// recorded maximum — removing that contribution may drop the tuple's
/// true score, which the view cannot compute locally.
pub(crate) fn dominates(content: &Content, sigma: &[usize], score: f64) -> bool {
    // `sigma` is ascending (σ scans tuples in index order).
    content
        .ranked
        .iter()
        .any(|t| t.score == score && sigma.binary_search(&t.tuple_index).is_ok())
}

/// Merge a σ-selection at `score` into the view under the `Max`
/// combiner. Exact: a retained tuple's recorded score is its true
/// maximum, and an absent tuple's true score is strictly below the
/// floor, so `score >= floor` is the precise admission test. The
/// content is copied only when the merge changes it, so a ranking the
/// parent catalog still serves is never copied for nothing.
pub(crate) fn patch_raise(content: &mut Arc<Content>, sigma: &[usize], score: f64) -> Patch {
    let floor = content.floor();
    let admits = |c: &Content, ix: usize| match c.ranked.iter().find(|t| t.tuple_index == ix) {
        Some(t) => score > t.score,
        None => c.complete || score >= floor,
    };
    if !sigma.iter().any(|&ix| admits(content, ix)) {
        return Patch::Untouched;
    }
    let content = Arc::make_mut(content);
    for &ix in sigma {
        match content.ranked.iter_mut().find(|t| t.tuple_index == ix) {
            Some(t) => {
                if score > t.score {
                    t.score = score;
                }
            }
            None => {
                if content.complete || score >= floor {
                    content.ranked.push(ScoredTuple {
                        tuple_index: ix,
                        score,
                    });
                }
            }
        }
    }
    sort_ranking(&mut content.ranked);
    Patch::Patched
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
pub(crate) fn top_k_with_ties(ranked: &[ScoredTuple], k: usize) -> &[ScoredTuple] {
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
pub(crate) fn selection_signature<P: PreferenceStore>(
    store: &P,
    opts: &ViewOpts,
    state: &ContextState,
    table: &RwLock<StateTable>,
) -> Vec<StateId> {
    let resolver = ContextResolver::new(store, opts.distance, opts.tie);
    signature_of(&resolver.resolve_state(state), table)
}

/// Intern a resolution's selected states, holding the table's lock only
/// for the interning.
fn signature_of(res: &StateResolution, table: &RwLock<StateTable>) -> Vec<StateId> {
    let mut sig: Vec<StateId> = {
        let mut table = table.write();
        res.selected
            .iter()
            .map(|c| table.intern(&c.state))
            .collect()
    };
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
    table: &RwLock<StateTable>,
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
pub(crate) fn build_content<P: PreferenceStore>(
    store: &P,
    relation: &Relation,
    opts: &ViewOpts,
    state: &ContextState,
    k_max: usize,
    table: &RwLock<StateTable>,
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
    }
}

/// Whether `content` agrees with a fresh ranking of `state` over
/// `store` and `relation`: the same signature, a retained prefix equal
/// to the fresh ranking's prefix tuple by tuple (scores compared by
/// bits), and the floor rule. An incomplete prefix holds at least
/// `k_max` rows and every fresh row past it scores strictly below its
/// floor; a complete one holds the whole ranking. An incomplete prefix
/// that happens to hold the whole ranking is legal (removals below the
/// floor shrink the ranking without touching the prefix).
pub(crate) fn agrees<P: PreferenceStore>(
    content: &Content,
    store: &P,
    relation: &Relation,
    opts: &ViewOpts,
    state: &ContextState,
    table: &RwLock<StateTable>,
) -> bool {
    let (signature, full) = fresh_ranking(store, relation, opts, state, table);
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
