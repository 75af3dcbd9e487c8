//! Multi-user operation: many profiles over one shared database.
//!
//! The paper's usability study (Section 5.1) serves ten users, each
//! with their own (initially default) profile, against one shared
//! points-of-interest database. [`MultiUserDb`] is that deployment
//! shape: a single context environment and relation, with per-user
//! profiles, profile trees, and query caches.

use std::collections::HashMap;
use std::sync::Arc;

use ctxpref_context::{ContextState, ExtendedContextDescriptor};
use ctxpref_profile::{ContextualPreference, ParamOrder, Profile, ProfileTree, TreeStats};
use ctxpref_qcache::ContextQueryTree;
use ctxpref_relation::{CompareOp, RankedResults, Relation, Value};
use ctxpref_resolve::{rank_cs, rank_cs_parallel, rank_cs_topk};
use ctxpref_views::{Change, ViewCatalog, ViewOpts, ViewStats};

use crate::db::{preference_from_parts, QueryAnswer, QueryOptions};
use crate::error::CoreError;
use ctxpref_context::ContextEnvironment;

/// Upper bound on worker threads for parallel multi-state `Rank_CS`.
/// States of one query are fanned out across at most this many threads;
/// results are stitched back in state order, so the merged ranking is
/// identical to the serial one.
pub(crate) fn rank_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Unpinned materialized views a user may hold before LRU eviction.
pub(crate) const VIEW_CAPACITY: usize = 64;

/// The view-maintenance options implied by the database's query
/// defaults.
pub(crate) fn view_opts(defaults: QueryOptions) -> ViewOpts {
    ViewOpts {
        distance: defaults.distance,
        tie: defaults.tie,
        combiner: defaults.combiner,
    }
}

/// A ranking a materialized view served, as a query answer.
pub(crate) fn view_answer(results: RankedResults) -> QueryAnswer {
    QueryAnswer {
        results: Arc::new(results),
        resolutions: Vec::new(),
        from_cache: false,
    }
}

/// Per-user state: the logical profile, its tree index, an optional
/// query cache, and the materialized top-k view catalog. Shared
/// between [`MultiUserDb`] (single-threaded core) and
/// [`crate::ShardedMultiUserDb`] (the concurrent serving core), so
/// mutation and query semantics cannot drift between the two.
#[derive(Debug)]
pub(crate) struct UserSlot {
    pub(crate) profile: Profile,
    pub(crate) tree: ProfileTree,
    pub(crate) cache: Option<ContextQueryTree>,
    pub(crate) views: ViewCatalog,
}

impl UserSlot {
    pub(crate) fn new(
        profile: Profile,
        order: &ParamOrder,
        env: &ContextEnvironment,
        cache_capacity: usize,
    ) -> Result<Self, CoreError> {
        let tree = ProfileTree::from_profile(&profile, order.clone())?;
        let cache =
            (cache_capacity > 0).then(|| ContextQueryTree::new(env.clone(), cache_capacity));
        Ok(Self {
            profile,
            tree,
            cache,
            views: ViewCatalog::new(VIEW_CAPACITY),
        })
    }

    /// A deep copy with a fresh (empty) cache — used by snapshots; cached
    /// rankings are derived data and need not survive a snapshot. View
    /// *pins* are carried (the registration is durable state), their
    /// rankings are not: a restored view is rebuilt lazily.
    pub(crate) fn clone_for_snapshot(
        &self,
        env: &ContextEnvironment,
        cache_capacity: usize,
    ) -> Self {
        let cache =
            (cache_capacity > 0).then(|| ContextQueryTree::new(env.clone(), cache_capacity));
        let views = ViewCatalog::new(VIEW_CAPACITY);
        for state in self.views.pinned_states() {
            views.pin(state);
        }
        Self {
            profile: self.profile.clone(),
            tree: self.tree.clone(),
            cache,
            views,
        }
    }

    pub(crate) fn insert_preference(
        &mut self,
        pref: ContextualPreference,
        relation: &Relation,
        defaults: QueryOptions,
    ) -> Result<(), CoreError> {
        self.tree.insert(&pref)?;
        self.profile.insert_unchecked(pref);
        let pref = self.profile.preferences().last().expect("just inserted");
        self.publish(relation, defaults, Change::Insert(pref));
        Ok(())
    }

    /// The tail of every mutation, once profile and tree agree again:
    /// cached rankings are stale, and the views patch themselves from
    /// the change.
    fn publish(&self, relation: &Relation, defaults: QueryOptions, change: Change<'_>) {
        if let Some(c) = &self.cache {
            c.invalidate_all();
        }
        self.views
            .on_mutation(&self.tree, relation, &view_opts(defaults), change);
    }

    pub(crate) fn remove_preference(
        &mut self,
        index: usize,
        order: &ParamOrder,
        relation: &Relation,
        defaults: QueryOptions,
    ) -> Result<ContextualPreference, CoreError> {
        if index >= self.profile.len() {
            return Err(CoreError::NoSuchPreference(index));
        }
        let removed = self.profile.remove(index);
        self.tree = ProfileTree::from_profile(&self.profile, order.clone())?;
        self.publish(relation, defaults, Change::Remove(&removed));
        Ok(removed)
    }

    pub(crate) fn update_preference_score(
        &mut self,
        index: usize,
        score: f64,
        env: &ContextEnvironment,
        order: &ParamOrder,
        relation: &Relation,
        defaults: QueryOptions,
    ) -> Result<(), CoreError> {
        if index >= self.profile.len() {
            return Err(CoreError::NoSuchPreference(index));
        }
        let old = &self.profile.preferences()[index];
        let old_score = old.score();
        if old_score == score {
            return Ok(());
        }
        let updated = old.with_score(score)?;
        for (i, other) in self.profile.preferences().iter().enumerate() {
            if i != index && other.conflicts_with(&updated, env)? {
                return Err(ctxpref_profile::ProfileError::Conflict {
                    state: ContextState::all(env),
                    existing_score: other.score(),
                    new_score: score,
                }
                .into());
            }
        }
        self.profile.update_score(index, score)?;
        // Past the conflict scan no other preference shares a
        // (state, clause) pair with this one — a sharer would have had
        // to equal both the old score and the new — so its leaf
        // entries are its alone and are re-scored where they sit
        // (`ContextualDb` maintains its tree incrementally on the same
        // argument). That is the tree a rebuild would give, without
        // freeing and reallocating every node — hundreds of allocator
        // calls whose time swings with the machine's state far more
        // than the rest of the request does.
        let pref = &self.profile.preferences()[index];
        let mut in_place = true;
        for state in pref.descriptor().states(env)? {
            in_place &= self
                .tree
                .update_state_entry(&state, pref.clause(), pref.score());
        }
        if !in_place {
            // The tree had drifted from the profile; start it over.
            self.tree = ProfileTree::from_profile(&self.profile, order.clone())?;
        }
        self.publish(relation, defaults, Change::Rescore { pref, old_score });
        Ok(())
    }

    /// Single-state query through this user's cache (when enabled).
    pub(crate) fn query_state(
        &self,
        env: &ContextEnvironment,
        relation: &Relation,
        defaults: QueryOptions,
        state: &ContextState,
    ) -> Result<QueryAnswer, CoreError> {
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.get(state) {
                return Ok(QueryAnswer {
                    results: hit,
                    resolutions: Vec::new(),
                    from_cache: true,
                });
            }
        }
        let ecod: ExtendedContextDescriptor = crate::db::descriptor_of_state(env, state).into();
        let q = rank_cs(
            &self.tree,
            relation,
            &ecod,
            defaults.distance,
            defaults.tie,
            defaults.combiner,
        )?;
        let answer = QueryAnswer {
            results: Arc::new(q.results),
            resolutions: q.resolutions,
            from_cache: false,
        };
        if let Some(cache) = &self.cache {
            cache.insert(state, Arc::clone(&answer.results));
        }
        Ok(answer)
    }

    /// Single-state top-k query: served from a materialized view when
    /// one is current (the boolean is true then), falling back to
    /// early-terminating `rank_cs_topk` resolution. Rows are always
    /// `top_k_with_ties(k)` of the full ranking, bit-identical between
    /// the two paths.
    pub(crate) fn query_state_topk(
        &self,
        env: &ContextEnvironment,
        relation: &Relation,
        defaults: QueryOptions,
        state: &ContextState,
        k: usize,
    ) -> Result<(QueryAnswer, bool), CoreError> {
        let opts = view_opts(defaults);
        if let Some(results) = self.views.serve(&self.tree, relation, &opts, state, k) {
            return Ok((view_answer(results), true));
        }
        let ecod: ExtendedContextDescriptor = crate::db::descriptor_of_state(env, state).into();
        let q = rank_cs_topk(
            &self.tree,
            relation,
            &ecod,
            defaults.distance,
            defaults.tie,
            defaults.combiner,
            k,
        )?;
        Ok((
            QueryAnswer {
                results: Arc::new(q.results),
                resolutions: q.resolutions,
                from_cache: false,
            },
            false,
        ))
    }

    /// Explicit-descriptor query: multi-state (exploratory) descriptors
    /// fan `Rank_CS` out across the query's context states.
    pub(crate) fn query(
        &self,
        relation: &Relation,
        defaults: QueryOptions,
        ecod: &ExtendedContextDescriptor,
    ) -> Result<QueryAnswer, CoreError> {
        let q = rank_cs_parallel(
            &self.tree,
            relation,
            ecod,
            defaults.distance,
            defaults.tie,
            defaults.combiner,
            rank_threads(),
        )?;
        Ok(QueryAnswer {
            results: Arc::new(q.results),
            resolutions: q.resolutions,
            from_cache: false,
        })
    }
}

/// A multi-user contextual preference database: one environment and
/// relation, many user profiles.
#[derive(Debug)]
pub struct MultiUserDb {
    env: ContextEnvironment,
    relation: Relation,
    order: ParamOrder,
    cache_capacity: usize,
    defaults: QueryOptions,
    users: HashMap<String, UserSlot>,
}

impl MultiUserDb {
    /// A multi-user database over `env` and `relation`, using the
    /// paper's ascending-domain tree ordering and `cache_capacity` per
    /// user (0 disables caching).
    pub fn new(env: ContextEnvironment, relation: Relation, cache_capacity: usize) -> Self {
        let order = ParamOrder::by_ascending_domain(&env);
        Self {
            env,
            relation,
            order,
            cache_capacity,
            defaults: QueryOptions::default(),
            users: HashMap::new(),
        }
    }

    /// Decompose into raw parts (for conversion into the sharded core).
    pub(crate) fn into_parts(
        self,
    ) -> (
        ContextEnvironment,
        Relation,
        ParamOrder,
        usize,
        QueryOptions,
        HashMap<String, UserSlot>,
    ) {
        (
            self.env,
            self.relation,
            self.order,
            self.cache_capacity,
            self.defaults,
            self.users,
        )
    }

    /// Reassemble from raw parts (the sharded core converting back).
    pub(crate) fn from_parts(
        env: ContextEnvironment,
        relation: Relation,
        order: ParamOrder,
        cache_capacity: usize,
        defaults: QueryOptions,
        users: HashMap<String, UserSlot>,
    ) -> Self {
        Self {
            env,
            relation,
            order,
            cache_capacity,
            defaults,
            users,
        }
    }

    /// The shared context environment.
    pub fn env(&self) -> &ContextEnvironment {
        &self.env
    }

    /// The shared relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// Registered user names, in arbitrary order.
    pub fn users(&self) -> impl Iterator<Item = &str> {
        self.users.keys().map(String::as_str)
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Per-user cache capacity (0 = caching disabled).
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// User names in sorted order (for deterministic serialization).
    pub fn users_sorted(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.users.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Register a user with an empty profile.
    pub fn add_user(&mut self, name: &str) -> Result<(), CoreError> {
        self.add_user_with_profile(name, Profile::new(self.env.clone()))
    }

    /// Register a user with an initial profile — e.g. one of the twelve
    /// demographic default profiles of the user study.
    pub fn add_user_with_profile(&mut self, name: &str, profile: Profile) -> Result<(), CoreError> {
        if self.users.contains_key(name) {
            return Err(CoreError::DuplicateUser(name.to_string()));
        }
        let slot = UserSlot::new(profile, &self.order, &self.env, self.cache_capacity)?;
        self.users.insert(name.to_string(), slot);
        Ok(())
    }

    /// Remove a user and return their profile.
    pub fn remove_user(&mut self, name: &str) -> Result<Profile, CoreError> {
        self.users
            .remove(name)
            .map(|slot| slot.profile)
            .ok_or_else(|| CoreError::NoSuchUser(name.to_string()))
    }

    fn slot(&self, name: &str) -> Result<&UserSlot, CoreError> {
        self.users
            .get(name)
            .ok_or_else(|| CoreError::NoSuchUser(name.to_string()))
    }

    /// A user's profile.
    pub fn profile(&self, user: &str) -> Result<&Profile, CoreError> {
        Ok(&self.slot(user)?.profile)
    }

    /// A user's profile-tree statistics.
    pub fn tree_stats(&self, user: &str) -> Result<TreeStats, CoreError> {
        Ok(self.slot(user)?.tree.stats())
    }

    /// A user's profile tree (for display, explanation, and reordering
    /// experiments).
    pub fn tree(&self, user: &str) -> Result<&ProfileTree, CoreError> {
        Ok(&self.slot(user)?.tree)
    }

    /// Insert a preference for one user (conflicts detected by their
    /// tree; their cache is invalidated).
    pub fn insert_preference(
        &mut self,
        user: &str,
        pref: ContextualPreference,
    ) -> Result<(), CoreError> {
        let defaults = self.defaults;
        let slot = self
            .users
            .get_mut(user)
            .ok_or_else(|| CoreError::NoSuchUser(user.to_string()))?;
        slot.insert_preference(pref, &self.relation, defaults)
    }

    /// Insert an equality preference for one user from its textual
    /// parts, mirroring [`crate::ContextualDb::insert_preference_eq`].
    pub fn insert_preference_eq(
        &mut self,
        user: &str,
        descriptor: &str,
        attr: &str,
        value: Value,
        score: f64,
    ) -> Result<(), CoreError> {
        let pref = preference_from_parts(
            &self.env,
            &self.relation,
            descriptor,
            attr,
            CompareOp::Eq,
            value,
            score,
        )?;
        self.insert_preference(user, pref)
    }

    /// Remove one user's preference at `index` (as listed by their
    /// [`Profile::preferences`]); their tree is rebuilt and their cache
    /// invalidated.
    pub fn remove_preference(
        &mut self,
        user: &str,
        index: usize,
    ) -> Result<ContextualPreference, CoreError> {
        let slot = self
            .users
            .get_mut(user)
            .ok_or_else(|| CoreError::NoSuchUser(user.to_string()))?;
        slot.remove_preference(index, &self.order, &self.relation, self.defaults)
    }

    /// Update the score of one user's preference at `index`, checking
    /// the new score against the rest of their profile (Definition 6).
    pub fn update_preference_score(
        &mut self,
        user: &str,
        index: usize,
        score: f64,
    ) -> Result<(), CoreError> {
        let slot = self
            .users
            .get_mut(user)
            .ok_or_else(|| CoreError::NoSuchUser(user.to_string()))?;
        slot.update_preference_score(
            index,
            score,
            &self.env,
            &self.order,
            &self.relation,
            self.defaults,
        )
    }

    /// The query options used for every query on this database.
    pub fn query_defaults(&self) -> QueryOptions {
        self.defaults
    }

    /// Replace the query options used for every query on this database.
    /// Caches are invalidated: cached answers were computed under the
    /// old options.
    pub fn set_query_defaults(&mut self, options: QueryOptions) {
        self.defaults = options;
        for slot in self.users.values_mut() {
            if let Some(c) = &slot.cache {
                c.invalidate_all();
            }
            slot.views.invalidate_contents();
        }
    }

    /// One user's query-cache statistics (`None` when caching is
    /// disabled).
    pub fn cache_stats(&self, user: &str) -> Result<Option<ctxpref_qcache::CacheStats>, CoreError> {
        Ok(self.slot(user)?.cache.as_ref().map(|c| c.stats()))
    }

    /// Query one user's profile under a single context state, through
    /// their cache when enabled.
    pub fn query_state(&self, user: &str, state: &ContextState) -> Result<QueryAnswer, CoreError> {
        self.slot(user)?
            .query_state(&self.env, &self.relation, self.defaults, state)
    }

    /// Top-k query under a single context state: materialized view
    /// when current, `rank_cs_topk` otherwise. The boolean reports
    /// whether a view answered.
    pub fn query_state_topk(
        &self,
        user: &str,
        state: &ContextState,
        k: usize,
    ) -> Result<(QueryAnswer, bool), CoreError> {
        self.slot(user)?
            .query_state_topk(&self.env, &self.relation, self.defaults, state, k)
    }

    /// Register and pin a materialized top-k view of `(user, state)`.
    pub fn pin_view(&mut self, user: &str, state: &ContextState) -> Result<(), CoreError> {
        self.slot(user)?.views.pin(state.clone());
        Ok(())
    }

    /// Unpin a previously pinned view; returns whether it was pinned.
    pub fn unpin_view(&mut self, user: &str, state: &ContextState) -> Result<bool, CoreError> {
        Ok(self.slot(user)?.views.unpin(state))
    }

    /// One user's pinned view states (sorted).
    pub fn pinned_views(&self, user: &str) -> Result<Vec<ContextState>, CoreError> {
        Ok(self.slot(user)?.views.pinned_states())
    }

    /// One user's view-serving counters.
    pub fn view_stats(&self, user: &str) -> Result<ViewStats, CoreError> {
        Ok(self.slot(user)?.views.stats())
    }

    /// Render the top-`k` answer (ties included) as `name (score)` lines
    /// using the given display attribute — handy for examples and CLIs.
    pub fn render_top(
        &self,
        answer: &QueryAnswer,
        attr: &str,
        k: usize,
    ) -> Result<String, CoreError> {
        let a = self.relation.schema().require_attr(attr)?;
        let mut out = String::new();
        for e in answer.results.top_k_with_ties(k) {
            out.push_str(&format!(
                "{} ({:.2})\n",
                self.relation.tuple(e.tuple_index).value(a),
                e.score
            ));
        }
        Ok(out)
    }

    /// Query one user's profile with an explicit extended descriptor.
    pub fn query(
        &self,
        user: &str,
        ecod: &ExtendedContextDescriptor,
    ) -> Result<QueryAnswer, CoreError> {
        self.slot(user)?.query(&self.relation, self.defaults, ecod)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_context::parse_descriptor;
    use ctxpref_hierarchy::Hierarchy;
    use ctxpref_profile::AttributeClause;
    use ctxpref_relation::{AttrType, Schema};

    fn setup() -> MultiUserDb {
        let env =
            ContextEnvironment::new(vec![Hierarchy::flat("weather", &["cold", "warm"]).unwrap()])
                .unwrap();
        let schema = Schema::new(&[("type", AttrType::Str)]).unwrap();
        let mut rel = Relation::new("poi", schema);
        for t in ["museum", "brewery", "zoo"] {
            rel.insert(vec![t.into()]).unwrap();
        }
        MultiUserDb::new(env, rel, 8)
    }

    fn pref(db: &MultiUserDb, cod: &str, ty: &str, score: f64) -> ContextualPreference {
        ContextualPreference::new(
            parse_descriptor(db.env(), cod).unwrap(),
            AttributeClause::eq(db.relation().schema().attr("type").unwrap(), ty.into()),
            score,
        )
        .unwrap()
    }

    #[test]
    fn users_are_isolated() {
        let mut db = setup();
        db.add_user("alice").unwrap();
        db.add_user("bob").unwrap();
        assert_eq!(db.user_count(), 2);
        let a = pref(&db, "weather = warm", "brewery", 0.9);
        let b = pref(&db, "weather = warm", "museum", 0.8);
        db.insert_preference("alice", a).unwrap();
        db.insert_preference("bob", b).unwrap();

        let warm = ContextState::parse(db.env(), &["warm"]).unwrap();
        let alice = db.query_state("alice", &warm).unwrap();
        let bob = db.query_state("bob", &warm).unwrap();
        assert_eq!(alice.results.entries()[0].tuple_index, 1); // brewery
        assert_eq!(bob.results.entries()[0].tuple_index, 0); // museum

        // Conflicts are per-user: bob can score the same state/clause
        // differently from alice, but not from himself.
        db.insert_preference("bob", pref(&db, "weather = warm", "brewery", 0.2))
            .unwrap();
        assert!(db
            .insert_preference("bob", pref(&db, "weather = warm", "brewery", 0.7))
            .is_err());
    }

    #[test]
    fn user_management_errors() {
        let mut db = setup();
        db.add_user("alice").unwrap();
        assert!(matches!(
            db.add_user("alice").unwrap_err(),
            CoreError::DuplicateUser(_)
        ));
        assert!(matches!(
            db.query_state("ghost", &ContextState::all(db.env()))
                .unwrap_err(),
            CoreError::NoSuchUser(_)
        ));
        let profile = db.remove_user("alice").unwrap();
        assert!(profile.is_empty());
        assert!(matches!(
            db.remove_user("alice").unwrap_err(),
            CoreError::NoSuchUser(_)
        ));
    }

    #[test]
    fn caches_are_per_user() {
        let mut db = setup();
        db.add_user("alice").unwrap();
        db.add_user("bob").unwrap();
        db.insert_preference("alice", pref(&db, "weather = warm", "zoo", 0.5))
            .unwrap();
        db.insert_preference("bob", pref(&db, "weather = warm", "zoo", 0.6))
            .unwrap();
        let warm = ContextState::parse(db.env(), &["warm"]).unwrap();
        let _ = db.query_state("alice", &warm).unwrap();
        let again = db.query_state("alice", &warm).unwrap();
        assert!(again.from_cache);
        // Bob's first query is not served from Alice's cache.
        let bob = db.query_state("bob", &warm).unwrap();
        assert!(!bob.from_cache);
        assert_eq!(bob.results.entries()[0].score, 0.6);
    }

    #[test]
    fn a_rescore_in_place_leaves_the_tree_a_rebuild_would() {
        let mut db = setup();
        db.add_user("alice").unwrap();
        for p in [
            pref(&db, "weather in {cold, warm}", "zoo", 0.5),
            pref(&db, "weather = warm", "museum", 0.8),
            pref(&db, "weather = cold", "brewery", 0.3),
        ] {
            db.insert_preference("alice", p).unwrap();
        }
        db.update_preference_score("alice", 0, 0.9).unwrap();
        let slot = &db.users["alice"];
        let rebuilt = ProfileTree::from_profile(&slot.profile, db.order.clone()).unwrap();
        assert_eq!(slot.tree.paths(), rebuilt.paths());
        assert_eq!(slot.tree.stats(), rebuilt.stats());
        let warm = ContextState::parse(db.env(), &["warm"]).unwrap();
        let top = db.query_state("alice", &warm).unwrap();
        assert_eq!(top.results.entries()[0].tuple_index, 2); // zoo, now 0.9

        // A re-score that would contradict another preference on a
        // shared state is refused and changes nothing.
        db.insert_preference("alice", pref(&db, "weather = warm", "zoo", 0.9))
            .unwrap();
        assert!(db.update_preference_score("alice", 0, 0.4).is_err());
        let slot = &db.users["alice"];
        let rebuilt = ProfileTree::from_profile(&slot.profile, db.order.clone()).unwrap();
        assert_eq!(slot.tree.paths(), rebuilt.paths());
    }

    #[test]
    fn initial_profiles_and_stats() {
        let mut db = setup();
        let mut profile = Profile::new(db.env().clone());
        profile
            .insert(pref(&db, "weather = cold", "museum", 0.8))
            .unwrap();
        db.add_user_with_profile("carol", profile).unwrap();
        assert_eq!(db.profile("carol").unwrap().len(), 1);
        assert!(db.tree_stats("carol").unwrap().leaf_entries == 1);
        let names: Vec<&str> = db.users().collect();
        assert_eq!(names, vec!["carol"]);
    }
}
