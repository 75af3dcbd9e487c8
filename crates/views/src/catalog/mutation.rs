//! Keeping views current across preference mutations: one walk of
//! the mutated preference's states per mutation, read by every view,
//! then per view a patch, nothing, or a targeted rebuild (the rules are
//! the catalog's module docs').

use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ctxpref_context::{values_cover, ContextEnvironment, ContextState, CtxValue};
use ctxpref_profile::ContextualPreference;
use ctxpref_relation::Relation;
use ctxpref_resolve::PreferenceStore;

use super::{ViewCatalog, ViewOpts};
use crate::content::{build_content, dominates, patch_raise, selection_signature, Content, Patch};
use crate::intern::{StateId, StateTable};

/// Growth bound: a patched ranking may hold at most this many times
/// its build capacity before the view is rebuilt compactly.
const GROWTH_FACTOR: usize = 2;

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

/// What one mutation touches, from one walk of its preference's
/// states: the ids of those the state table holds and, when the
/// mutation moves states, every state's values, back to back.
struct Touched {
    ids: Vec<StateId>,
    states: Vec<CtxValue>,
}

impl Touched {
    /// `None` when the descriptor's states cannot be enumerated.
    fn of(
        pref: &ContextualPreference,
        moves_states: bool,
        env: &ContextEnvironment,
        table: &StateTable,
    ) -> Option<Touched> {
        let mut touched = Touched {
            ids: Vec::new(),
            states: Vec::new(),
        };
        let walk = pref.descriptor().for_each_state(env, |state| {
            touched.ids.extend(table.lookup(state));
            if moves_states {
                touched.states.extend_from_slice(state);
            }
            ControlFlow::<Infallible>::Continue(())
        });
        walk.ok().map(|_| touched)
    }

    /// Whether a touched state covers `state`.
    fn covers(&self, state: &ContextState, env: &ContextEnvironment) -> bool {
        (self.states.chunks(env.len())).any(|touched| values_cover(touched, state, env))
    }
}

impl ViewCatalog {
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
        // The stored states the mutated preference touches, found by
        // one walk of its descriptor that every view reads. A view's
        // selection is drawn only from the stored states that equal or
        // cover its state, so a write moves it only by adding or
        // dropping one of those: an insert or removal one of whose
        // states covers the view's state. Only such a view pays the
        // signature walk; a re-score moves no selection. When the
        // states cannot be enumerated, every view walks.
        let touched = Touched::of(pref, moves_states, store.env(), &self.table.read());
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
                    .is_none_or(|t| t.covers(state, store.env()));
            if walk && selection_signature(store, opts, state, table) != content.signature {
                rebuild(content, state);
                continue;
            }
            // Selection unchanged: does the mutation's descriptor even
            // intersect the selected states?
            let intersects = match &touched {
                Some(t) => t.ids.iter().any(|id| content.signature.contains(id)),
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
}
