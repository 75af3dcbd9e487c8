//! Multi-user operation: many profiles over one shared database.
//!
//! The paper's usability study (Section 5.1) serves ten users, each
//! with their own (initially default) profile, against one shared
//! points-of-interest database. [`MultiUserDb`] is that deployment
//! shape: a single context environment and relation, with per-user
//! profiles, profile trees, query caches and materialized views.
//!
//! A user's profile and tree are one copy-on-write
//! `Arc<IndexedProfile>`. Users registered with equal profiles — the
//! study's users all start from one of twelve defaults — share one
//! index until they edit it, and a snapshot shares every user's index
//! with the live database: an edit copies only the index it changes.
//!
//! Every verb of the multi-user core is defined here, once. The
//! concurrent serving core, [`crate::ShardedMultiUserDb`], is an array
//! of locked `MultiUserDb` stripes sharing one relation, so the two
//! cannot answer differently.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Weak};

use ctxpref_context::{ContextEnvironment, ContextState, ExtendedContextDescriptor};
use ctxpref_profile::{
    ContextualPreference, IndexedProfile, ParamOrder, Profile, ProfileTree, TreeStats,
};
use ctxpref_qcache::ContextQueryTree;
use ctxpref_relation::{CompareOp, RankedResults, Relation, Value};
use ctxpref_resolve::{rank_cs_parallel, rank_cs_state};
use ctxpref_views::{Change, ViewCatalog, ViewOpts, ViewStats};

use crate::db::{preference_from_parts, QueryAnswer, QueryOptions};
use crate::error::CoreError;

/// Upper bound on worker threads for parallel multi-state `Rank_CS`.
/// States of one query are fanned out across at most this many threads;
/// results are stitched back in state order, so the merged ranking is
/// identical to the serial one.
fn rank_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Unpinned materialized views a user may hold before LRU eviction.
const VIEW_CAPACITY: usize = 64;

/// The view-maintenance options implied by the database's query
/// defaults.
fn view_opts(defaults: QueryOptions) -> ViewOpts {
    ViewOpts {
        distance: defaults.distance,
        tie: defaults.tie,
        combiner: defaults.combiner,
    }
}

/// A ranking a materialized view served, as a query answer.
fn view_answer(results: RankedResults) -> QueryAnswer {
    QueryAnswer {
        results: Arc::new(results),
        resolutions: Vec::new(),
        from_cache: false,
    }
}

/// Per-user state: the profile with its tree index (shared with other
/// users and snapshots until an edit copies it, see the module docs),
/// an optional query cache, and the materialized top-k view catalog.
#[derive(Debug)]
struct UserSlot {
    indexed: Arc<IndexedProfile>,
    cache: Option<ContextQueryTree>,
    views: ViewCatalog,
}

impl UserSlot {
    fn new(indexed: Arc<IndexedProfile>, env: &ContextEnvironment, cache_capacity: usize) -> Self {
        Self {
            indexed,
            cache: new_cache(env, cache_capacity),
            views: ViewCatalog::new(VIEW_CAPACITY),
        }
    }

    /// The tail of every mutation, once the edit has applied: cached
    /// rankings are stale, and the views patch themselves from the
    /// change.
    fn publish(&self, relation: &Relation, defaults: QueryOptions, change: Change<'_>) {
        if let Some(c) = &self.cache {
            c.invalidate_all();
        }
        self.views
            .on_mutation(self.indexed.tree(), relation, &view_opts(defaults), change);
    }
}

fn new_cache(env: &ContextEnvironment, capacity: usize) -> Option<ContextQueryTree> {
    (capacity > 0).then(|| ContextQueryTree::new(env.clone(), capacity))
}

/// `user`'s slot, borrowing only the user map so the caller can still
/// read the database's other fields.
fn slot_mut<'a>(
    users: &'a mut HashMap<String, UserSlot>,
    user: &str,
) -> Result<&'a mut UserSlot, CoreError> {
    users
        .get_mut(user)
        .ok_or_else(|| CoreError::NoSuchUser(user.to_string()))
}

/// The key under which an index of `prefs` is filed for sharing.
fn share_key(prefs: &[ContextualPreference]) -> u64 {
    let mut h = DefaultHasher::new();
    prefs.hash(&mut h);
    h.finish()
}

/// A multi-user contextual preference database: one environment and
/// relation, many user profiles.
#[derive(Debug)]
pub struct MultiUserDb {
    env: ContextEnvironment,
    relation: Arc<Relation>,
    order: ParamOrder,
    cache_capacity: usize,
    defaults: QueryOptions,
    users: HashMap<String, UserSlot>,
    /// The index last registered for each profile hash, so a user
    /// registered with an equal profile shares it.
    shared: HashMap<u64, Weak<IndexedProfile>>,
}

impl MultiUserDb {
    /// A multi-user database over `env` and `relation`, using the
    /// paper's ascending-domain tree ordering and `cache_capacity` per
    /// user (0 disables caching).
    pub fn new(env: ContextEnvironment, relation: Relation, cache_capacity: usize) -> Self {
        let order = ParamOrder::by_ascending_domain(&env);
        Self::with_order(env, relation, order, cache_capacity)
    }

    /// [`Self::new`] with the profile trees' parameter order given.
    pub fn with_order(
        env: ContextEnvironment,
        relation: Relation,
        order: ParamOrder,
        cache_capacity: usize,
    ) -> Self {
        Self {
            env,
            relation: Arc::new(relation),
            order,
            cache_capacity,
            defaults: QueryOptions::default(),
            users: HashMap::new(),
            shared: HashMap::new(),
        }
    }

    /// A database with no users that shares this one's environment,
    /// relation, tree order, cache capacity and query options — a
    /// stripe of the sharded core, or a snapshot about to be filled.
    pub(crate) fn empty_like(&self) -> Self {
        Self {
            env: self.env.clone(),
            relation: Arc::clone(&self.relation),
            order: self.order.clone(),
            cache_capacity: self.cache_capacity,
            defaults: self.defaults,
            users: HashMap::new(),
            shared: HashMap::new(),
        }
    }

    /// Deal the users out over `n` databases like this one: each user
    /// moves, with their tree, cache and views, to database
    /// `pick(name)`. Each part gets a copy of the sharing table.
    pub(crate) fn split(self, n: usize, pick: impl Fn(&str) -> usize) -> Vec<Self> {
        let mut parts: Vec<Self> = (0..n)
            .map(|_| Self {
                shared: self.shared.clone(),
                ..self.empty_like()
            })
            .collect();
        for (name, slot) in self.users {
            parts[pick(&name)].users.insert(name, slot);
        }
        parts
    }

    /// Move every user of `other` into this database (the inverse of
    /// [`Self::split`]).
    pub(crate) fn merge(&mut self, other: Self) {
        self.users.extend(other.users);
        self.shared.extend(other.shared);
    }

    /// Copy every user into `snap` by sharing their index, with empty
    /// query caches and unmaterialized views (view pins are carried). A
    /// later edit copies the index it changes, so `snap` keeps the state
    /// at this call.
    pub(crate) fn snapshot_into(&self, snap: &mut Self) {
        for (name, slot) in &self.users {
            let copy = UserSlot::new(Arc::clone(&slot.indexed), &self.env, self.cache_capacity);
            for state in slot.views.pinned_states() {
                copy.views.pin(state);
            }
            snap.users.insert(name.clone(), copy);
        }
    }

    /// Every user with their index, in arbitrary order.
    pub(crate) fn indexes(&self) -> impl Iterator<Item = (&str, &Arc<IndexedProfile>)> {
        self.users
            .iter()
            .map(|(name, s)| (name.as_str(), &s.indexed))
    }

    /// The relation, as the handle every copy of this database shares.
    pub(crate) fn shared_relation(&self) -> Arc<Relation> {
        Arc::clone(&self.relation)
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

    /// True iff `user` is registered.
    pub fn has_user(&self, user: &str) -> bool {
        self.users.contains_key(user)
    }

    /// The parameter order of every user's profile tree.
    pub fn order(&self) -> &ParamOrder {
        &self.order
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
    /// demographic default profiles of the user study. A user whose
    /// preferences equal, in order, those of an index registered here
    /// shares that index.
    pub fn add_user_with_profile(&mut self, name: &str, profile: Profile) -> Result<(), CoreError> {
        if self.users.contains_key(name) {
            return Err(CoreError::DuplicateUser(name.to_string()));
        }
        let indexed = self.shared_index(profile)?;
        let slot = UserSlot::new(indexed, &self.env, self.cache_capacity);
        self.users.insert(name.to_string(), slot);
        Ok(())
    }

    /// The live index filed under `profile`'s hash when its preferences
    /// equal `profile`'s, else a new index, filed in place of the entry.
    fn shared_index(&mut self, profile: Profile) -> Result<Arc<IndexedProfile>, CoreError> {
        let key = share_key(profile.preferences());
        let filed = self.shared.get(&key).and_then(Weak::upgrade);
        if let Some(indexed) = filed {
            if indexed.profile().preferences() == profile.preferences() {
                return Ok(indexed);
            }
        }
        let indexed = Arc::new(IndexedProfile::new(profile, self.order.clone())?);
        self.shared.insert(key, Arc::downgrade(&indexed));
        Ok(indexed)
    }

    /// Remove a user and return their profile.
    pub fn remove_user(&mut self, name: &str) -> Result<Profile, CoreError> {
        self.users
            .remove(name)
            .map(|slot| Arc::unwrap_or_clone(slot.indexed).into_profile())
            .ok_or_else(|| CoreError::NoSuchUser(name.to_string()))
    }

    fn slot(&self, name: &str) -> Result<&UserSlot, CoreError> {
        self.users
            .get(name)
            .ok_or_else(|| CoreError::NoSuchUser(name.to_string()))
    }

    /// A user's index, as the pointer the database holds.
    pub(crate) fn index(&self, user: &str) -> Result<&Arc<IndexedProfile>, CoreError> {
        Ok(&self.slot(user)?.indexed)
    }

    /// A user's profile.
    pub fn profile(&self, user: &str) -> Result<&Profile, CoreError> {
        Ok(self.slot(user)?.indexed.profile())
    }

    /// A user's profile-tree statistics.
    pub fn tree_stats(&self, user: &str) -> Result<TreeStats, CoreError> {
        Ok(self.slot(user)?.indexed.tree().stats())
    }

    /// A user's profile tree (for display, explanation, and reordering
    /// experiments).
    pub fn tree(&self, user: &str) -> Result<&ProfileTree, CoreError> {
        Ok(self.slot(user)?.indexed.tree())
    }

    /// Insert a preference for one user (conflicts detected by their
    /// tree; their cache is invalidated and their views patched).
    pub fn insert_preference(
        &mut self,
        user: &str,
        pref: ContextualPreference,
    ) -> Result<(), CoreError> {
        let slot = slot_mut(&mut self.users, user)?;
        Arc::make_mut(&mut slot.indexed).insert(pref)?;
        let pref = slot
            .indexed
            .profile()
            .preferences()
            .last()
            .expect("just inserted");
        slot.publish(&self.relation, self.defaults, Change::Insert(pref));
        Ok(())
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
    /// [`Profile::preferences`]); only the tree paths it alone
    /// contributed are pruned.
    pub fn remove_preference(
        &mut self,
        user: &str,
        index: usize,
    ) -> Result<ContextualPreference, CoreError> {
        let slot = slot_mut(&mut self.users, user)?;
        let removed = Arc::make_mut(&mut slot.indexed).remove(index)?;
        slot.publish(&self.relation, self.defaults, Change::Remove(&removed));
        Ok(removed)
    }

    /// Update the score of one user's preference at `index`, checking
    /// the new score against the rest of their profile (Definition 6).
    pub fn update_preference_score(
        &mut self,
        user: &str,
        index: usize,
        score: f64,
    ) -> Result<(), CoreError> {
        let slot = slot_mut(&mut self.users, user)?;
        if let Some(old_score) = Arc::make_mut(&mut slot.indexed).rescore(index, score)? {
            let pref = slot.indexed.preference(index).expect("just re-scored");
            let change = Change::Rescore { pref, old_score };
            slot.publish(&self.relation, self.defaults, change);
        }
        Ok(())
    }

    /// The query options used for every query on this database.
    pub fn query_defaults(&self) -> QueryOptions {
        self.defaults
    }

    /// Replace the query options used for every query on this database.
    /// Caches and view contents are invalidated: both were computed
    /// under the old options.
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
        let slot = self.slot(user)?;
        if let Some(hit) = slot.cache.as_ref().and_then(|c| c.get(state)) {
            return Ok(QueryAnswer {
                results: hit,
                resolutions: Vec::new(),
                from_cache: true,
            });
        }
        let d = self.defaults;
        let q = rank_cs_state(
            slot.indexed.tree(),
            &self.relation,
            state,
            d.distance,
            d.tie,
            d.combiner,
            None,
        );
        let answer = QueryAnswer::resolved(q);
        if let Some(cache) = &slot.cache {
            cache.insert(state, Arc::clone(&answer.results));
        }
        Ok(answer)
    }

    /// Top-k query under a single context state: served from the
    /// user's materialized view when one is current (the boolean is
    /// true then), early-terminating `rank_cs_topk` otherwise. Rows are
    /// always `top_k_with_ties(k)` of the full ranking, bit-identical
    /// between the two paths.
    pub fn query_state_topk(
        &self,
        user: &str,
        state: &ContextState,
        k: usize,
    ) -> Result<(QueryAnswer, bool), CoreError> {
        let slot = self.slot(user)?;
        let tree = slot.indexed.tree();
        let d = self.defaults;
        let opts = view_opts(d);
        if let Some(results) = slot.views.serve(tree, &self.relation, &opts, state, k) {
            return Ok((view_answer(results), true));
        }
        let q = rank_cs_state(
            tree,
            &self.relation,
            state,
            d.distance,
            d.tie,
            d.combiner,
            (k > 0).then_some(k),
        );
        Ok((QueryAnswer::resolved(q), false))
    }

    /// The view-hit probe: `user`'s top-`k` answer under `state` when a
    /// current materialized view holds it, else `None` — no miss is
    /// recorded and nothing is materialized.
    pub fn view_hit(&self, user: &str, state: &ContextState, k: usize) -> Option<QueryAnswer> {
        let slot = self.users.get(user)?;
        let hit = slot.views.hit(&view_opts(self.defaults), state, k);
        hit.map(view_answer)
    }

    /// Register and pin a materialized top-k view of `(user, state)`:
    /// it is materialized on first use and never evicted.
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

    /// Query one user's profile with an explicit extended descriptor;
    /// multi-state (exploratory) descriptors fan `Rank_CS` out across
    /// the query's context states.
    pub fn query(
        &self,
        user: &str,
        ecod: &ExtendedContextDescriptor,
    ) -> Result<QueryAnswer, CoreError> {
        let d = self.defaults;
        let q = rank_cs_parallel(
            self.tree(user)?,
            &self.relation,
            ecod,
            d.distance,
            d.tie,
            d.combiner,
            rank_threads(),
        )?;
        Ok(QueryAnswer::resolved(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_context::{parse_descriptor, ParamId};
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

    /// Whether alice's tree is the one a user registered with her
    /// current profile gets.
    fn alice_tree_is_rebuilt_alike(db: &mut MultiUserDb) -> bool {
        let _ = db.remove_user("rebuilt");
        let profile = db.profile("alice").unwrap().clone();
        db.add_user_with_profile("rebuilt", profile).unwrap();
        let (live, rebuilt) = (db.tree("alice").unwrap(), db.tree("rebuilt").unwrap());
        live.paths() == rebuilt.paths() && live.stats() == rebuilt.stats()
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
        assert!(alice_tree_is_rebuilt_alike(&mut db));
        let warm = ContextState::parse(db.env(), &["warm"]).unwrap();
        let top = db.query_state("alice", &warm).unwrap();
        assert_eq!(top.results.entries()[0].tuple_index, 2); // zoo, now 0.9

        // A re-score that would contradict another preference on a
        // shared state is refused and changes nothing.
        db.insert_preference("alice", pref(&db, "weather = warm", "zoo", 0.9))
            .unwrap();
        let before = db.profile("alice").unwrap().preferences().to_vec();
        assert!(db.update_preference_score("alice", 0, 0.4).is_err());
        assert_eq!(db.profile("alice").unwrap().preferences(), before);
        assert!(alice_tree_is_rebuilt_alike(&mut db));
    }

    #[test]
    fn hot_views_are_evicted_lru_and_never_pinned_on_their_own() {
        let env = ContextEnvironment::new(vec![
            Hierarchy::balanced("a", &[16]).unwrap(),
            Hierarchy::balanced("b", &[8]).unwrap(),
        ])
        .unwrap();
        let schema = Schema::new(&[("type", AttrType::Str)]).unwrap();
        let mut rel = Relation::new("poi", schema);
        rel.insert(vec!["museum".into()]).unwrap();
        let mut db = MultiUserDb::new(env.clone(), rel, 0);
        db.add_user("alice").unwrap();
        db.insert_preference_eq("alice", "*", "type", "museum".into(), 0.5)
            .unwrap();
        let detailed = |p: u16| {
            let h = env.hierarchy(ParamId(p));
            h.domain(h.detailed_level()).to_vec()
        };
        let (a, b) = (detailed(0), detailed(1));
        // 2 × VIEW_CAPACITY states, each made hot: two misses
        // materialize it, then 64 hits.
        assert_eq!(a.len() * b.len(), 2 * VIEW_CAPACITY);
        for &va in &a {
            for &vb in &b {
                let state = ContextState::from_values_unchecked(vec![va, vb]);
                for _ in 0..2 + 64 {
                    db.query_state_topk("alice", &state, 1).unwrap();
                }
            }
        }
        let stats = db.view_stats("alice").unwrap();
        assert!(
            stats.view_hits >= 64 * 2 * VIEW_CAPACITY as u64,
            "{stats:?}"
        );
        assert!(
            stats.materialized_views <= VIEW_CAPACITY as u64,
            "{stats:?}"
        );
        assert_eq!(stats.pinned_views, 0, "{stats:?}");
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
