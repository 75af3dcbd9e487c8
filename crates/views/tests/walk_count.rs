//! A write pays a view's signature walk (one `Search_CS` resolution)
//! only when it can move that view's selection: an insert or removal
//! one of whose states covers the view's state. A counting store over
//! the profile tree charges one resolution per exact lookup, which
//! every resolution starts with, and the tests below count them
//! across `ViewCatalog::on_mutation`.

use std::cell::Cell;

use ctxpref_context::{
    ContextDescriptor, ContextEnvironment, ContextState, DistanceKind, ParamId, ParameterDescriptor,
};
use ctxpref_hierarchy::Hierarchy;
use ctxpref_profile::{
    AccessCounter, AttributeClause, Candidate, ContextualPreference, LeafEntry, LeafId, ParamOrder,
    Profile, ProfileTree,
};
use ctxpref_relation::{AttrId, AttrType, Relation, Schema, ScoreCombiner};
use ctxpref_resolve::{PreferenceStore, TieBreak};
use ctxpref_views::{Change, ViewCatalog, ViewOpts, MATERIALIZE_AFTER};

/// The profile tree, counting resolutions.
struct Counting<'a> {
    tree: &'a ProfileTree,
    resolutions: Cell<usize>,
}

impl<'a> Counting<'a> {
    fn new(tree: &'a ProfileTree) -> Self {
        Self {
            tree,
            resolutions: Cell::new(0),
        }
    }
}

impl PreferenceStore for Counting<'_> {
    fn env(&self) -> &ContextEnvironment {
        self.tree.env()
    }

    fn lookup_exact(&self, state: &ContextState, counter: &mut AccessCounter) -> Vec<LeafId> {
        self.resolutions.set(self.resolutions.get() + 1);
        self.tree.lookup_exact(state, counter)
    }

    fn lookup_covering(
        &self,
        state: &ContextState,
        kind: DistanceKind,
        counter: &mut AccessCounter,
    ) -> Vec<Candidate> {
        self.tree.lookup_covering(state, kind, counter)
    }

    fn entries(&self, leaf: LeafId) -> &[LeafEntry] {
        self.tree.entries(leaf)
    }

    fn label(&self) -> &'static str {
        "counting profile tree"
    }
}

const OPTS: ViewOpts = ViewOpts {
    distance: DistanceKind::Hierarchy,
    tie: TieBreak::All,
    combiner: ScoreCombiner::Max,
};

fn env() -> ContextEnvironment {
    ContextEnvironment::new(vec![
        Hierarchy::balanced("a", &[6, 2]).unwrap(),
        Hierarchy::balanced("b", &[5]).unwrap(),
    ])
    .unwrap()
}

fn relation() -> Relation {
    let schema = Schema::new(&[("v", AttrType::Str)]).unwrap();
    let mut rel = Relation::new("r", schema);
    for i in 0..24 {
        rel.insert(vec![format!("v{}", i % 6).into()]).unwrap();
    }
    rel
}

/// The detailed state `(a_i, b_j)`.
fn state(env: &ContextEnvironment, i: usize, j: usize) -> ContextState {
    let ha = env.hierarchy(ParamId(0));
    let hb = env.hierarchy(ParamId(1));
    ContextState::from_values_unchecked(vec![
        ha.domain(ha.detailed_level())[i],
        hb.domain(hb.detailed_level())[j],
    ])
}

/// A preference for `v = value` at `score` in the context `a = a_i`,
/// and `b = b_j` unless `j` is `None` (then `b` is `all`).
fn pref(
    env: &ContextEnvironment,
    i: usize,
    j: Option<usize>,
    value: usize,
    score: f64,
) -> ContextualPreference {
    let s = state(env, i, j.unwrap_or(0));
    let mut cod =
        ContextDescriptor::empty().with(ParamId(0), ParameterDescriptor::Eq(s.value(ParamId(0))));
    if j.is_some() {
        cod = cod.with(ParamId(1), ParameterDescriptor::Eq(s.value(ParamId(1))));
    }
    let clause = AttributeClause::eq(AttrId(0), format!("v{value}").into());
    ContextualPreference::new(cod, clause, score).unwrap()
}

/// A profile with one preference at each of `(a0, b0)` and `(a1, b1)`,
/// and a catalog with both states materialized.
fn setup(env: &ContextEnvironment, rel: &Relation) -> (Profile, ProfileTree, ViewCatalog) {
    let mut profile = Profile::new(env.clone());
    profile.insert(pref(env, 0, Some(0), 0, 0.5)).unwrap();
    profile.insert(pref(env, 1, Some(1), 1, 0.5)).unwrap();
    let tree = ProfileTree::from_profile(&profile, ParamOrder::identity(env)).unwrap();
    let catalog = ViewCatalog::new(8);
    for s in [state(env, 0, 0), state(env, 1, 1)] {
        for _ in 0..MATERIALIZE_AFTER {
            catalog.serve(&tree, rel, &OPTS, &s, 3);
        }
    }
    assert_eq!(catalog.stats().materialized_views, 2);
    (profile, tree, catalog)
}

#[test]
fn rescore_in_a_signature_resolves_no_view() {
    let env = env();
    let rel = relation();
    let (mut profile, _, catalog) = setup(&env, &rel);
    let before = catalog.stats();
    let old_score = profile.preferences()[0].score();
    profile.update_score(0, 0.9).unwrap();
    let tree = ProfileTree::from_profile(&profile, ParamOrder::identity(&env)).unwrap();
    let store = Counting::new(&tree);
    let pref = &profile.preferences()[0];
    catalog.on_mutation(&store, &rel, &OPTS, Change::Rescore { pref, old_score });
    assert_eq!(store.resolutions.get(), 0, "a re-score moves no selection");
    let after = catalog.stats();
    assert_eq!(
        after.view_patches,
        before.view_patches + 1,
        "the view holding it is patched"
    );
    assert_eq!(after.view_rebuilds, before.view_rebuilds);
    assert!(catalog.verify(&tree, &rel).is_empty());
}

#[test]
fn insert_covering_no_view_resolves_none() {
    let env = env();
    let rel = relation();
    let (mut profile, mut tree, catalog) = setup(&env, &rel);
    let p = pref(&env, 2, Some(2), 2, 0.7);
    tree.insert(&p).unwrap();
    profile.insert(p).unwrap();
    let store = Counting::new(&tree);
    catalog.on_mutation(
        &store,
        &rel,
        &OPTS,
        Change::Insert(profile.preferences().last().unwrap()),
    );
    assert_eq!(
        store.resolutions.get(),
        0,
        "(a2, b2) covers neither view's state"
    );
    assert!(catalog.verify(&tree, &rel).is_empty());
}

#[test]
fn insert_covering_one_view_resolves_exactly_that_one() {
    let env = env();
    let rel = relation();
    let (mut profile, mut tree, catalog) = setup(&env, &rel);
    let before = catalog.stats();
    // (a0, all) covers (a0, b0) but not (a1, b1); (a0, b0) is stored,
    // so the exact match keeps that view's selection and the walk
    // finds its signature unchanged.
    let p = pref(&env, 0, None, 3, 0.7);
    tree.insert(&p).unwrap();
    profile.insert(p).unwrap();
    let store = Counting::new(&tree);
    catalog.on_mutation(
        &store,
        &rel,
        &OPTS,
        Change::Insert(profile.preferences().last().unwrap()),
    );
    assert_eq!(store.resolutions.get(), 1, "only the covered view walks");
    assert_eq!(catalog.stats().view_rebuilds, before.view_rebuilds);
    assert!(catalog.verify(&tree, &rel).is_empty());
}
