//! Multi-user operation: many profiles over one shared database.
//!
//! The paper's usability study (Section 5.1) serves ten users, each
//! with their own (initially default) profile, against one shared
//! points-of-interest database. [`MultiUserDb`] is that deployment
//! shape: a single context environment and relation, with per-user
//! profiles, profile trees, query caches and materialized views.
//!
//! A user's profile and tree are one copy-on-write
//! `Arc<IndexedProfile>`, held beside the catalog of top-k views
//! derived from it. Users registered with equal profiles — the study's
//! users all start from one of twelve defaults — share that pair until
//! they edit: they serve, materialize and count misses in one catalog.
//! A user's first edit that changes their profile forks the pair, and
//! the fork's catalog carries only the views that user asked about or
//! pinned, their rankings shared copy-on-write. A snapshot shares every user's index with the
//! live database, but not its views: an edit copies only the index it
//! changes, and a checkpoint never forks a catalog.
//!
//! Every verb of the multi-user core is defined here, once. The
//! concurrent serving core, [`crate::ShardedMultiUserDb`], is an array
//! of locked `MultiUserDb` stripes sharing one relation, so the two
//! cannot answer differently.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ctxpref_context::{ContextEnvironment, ContextState, ExtendedContextDescriptor};
use ctxpref_profile::{
    ContextualPreference, IndexedProfile, ParamOrder, Profile, ProfileTree, TreeStats,
};
use ctxpref_qcache::ContextQueryTree;
use ctxpref_relation::{CompareOp, RankedResults, Relation, ScoredTuple, Value};
use ctxpref_resolve::{rank_cs, rank_cs_state};
use ctxpref_views::{Change, Seat, ViewCatalog, ViewOpts, ViewStats};

use crate::db::{preference_from_parts, QueryAnswer, QueryOptions};
use crate::error::CoreError;
use crate::sharing::{edit, share_key, Derived, Sharing};

/// Unpinned materialized views a catalog may hold per user holding it
/// before LRU eviction, and the states a user's seat remembers asking
/// about. A flat bound per catalog would thrash: each of the study's
/// default profiles is asked about 160 states by its users.
pub(crate) const VIEW_CAPACITY: usize = 64;

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

/// Per-user state: the shared index and views, an optional query
/// cache, and the user's seat at the views — what belongs to this user
/// alone: the states they asked about, their pins and their hit and
/// miss counters.
#[derive(Debug)]
pub(crate) struct UserSlot {
    pub(crate) derived: Arc<Derived>,
    cache: Option<ContextQueryTree>,
    pub(crate) seat: Seat,
}

impl UserSlot {
    fn new(derived: Arc<Derived>, env: &ContextEnvironment, cache_capacity: usize) -> Self {
        Self {
            seat: derived.views.seat(),
            derived,
            cache: new_cache(env, cache_capacity),
        }
    }

    /// The tail of every mutation, once the edit has applied: cached
    /// rankings are stale, and the views patch themselves from the
    /// change.
    fn publish(&self, relation: &Relation, defaults: QueryOptions, change: Change<'_>) {
        if let Some(c) = &self.cache {
            c.invalidate_all();
        }
        let Derived { indexed, views, .. } = &*self.derived;
        views.on_mutation(indexed.tree(), relation, &view_opts(defaults), change);
    }
}

fn new_cache(env: &ContextEnvironment, capacity: usize) -> Option<ContextQueryTree> {
    (capacity > 0).then(|| ContextQueryTree::new(env.clone(), capacity))
}

/// `user`'s slot, borrowing only the user map so the caller can still
/// read the database's other fields.
pub(crate) fn slot_mut<'a>(
    users: &'a mut HashMap<String, UserSlot>,
    user: &str,
) -> Result<&'a mut UserSlot, CoreError> {
    users
        .get_mut(user)
        .ok_or_else(|| CoreError::NoSuchUser(user.to_string()))
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
    sharing: Sharing,
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
            sharing: Sharing::default(),
        }
    }

    /// A database with no users that shares this one's environment,
    /// relation, tree order, cache capacity and query options, and has a
    /// sharing table of its own — a snapshot about to be filled.
    pub(crate) fn empty_like(&self) -> Self {
        Self {
            env: self.env.clone(),
            relation: Arc::clone(&self.relation),
            order: self.order.clone(),
            cache_capacity: self.cache_capacity,
            defaults: self.defaults,
            users: HashMap::new(),
            sharing: Sharing::default(),
        }
    }

    /// [`Self::empty_like`], but filing into this database's sharing
    /// table — a stripe beside this one, or one to replace its users.
    pub(crate) fn empty_joined(&self) -> Self {
        Self {
            sharing: self.sharing.joined(),
            ..self.empty_like()
        }
    }

    /// Deal the users out over `n` databases like this one: each user
    /// moves, with their tree, cache, views and seat, to database
    /// `pick(name)`. The parts file into this database's sharing table,
    /// so users with equal profiles keep sharing across them, and the
    /// first keeps the retired counters.
    pub(crate) fn split(mut self, n: usize, pick: impl Fn(&str) -> usize) -> Vec<Self> {
        self.sharing.filed.lock().sweep();
        let mut parts: Vec<Self> = (0..n).map(|_| self.empty_joined()).collect();
        parts[0].sharing.retired = std::mem::take(&mut self.sharing.retired);
        for (name, slot) in self.users {
            parts[pick(&name)].users.insert(name, slot);
        }
        parts
    }

    /// Move every user of `other` into this database (the inverse of
    /// [`Self::split`]).
    pub(crate) fn merge(&mut self, other: Self) {
        self.users.extend(other.users);
        if !Arc::ptr_eq(&self.sharing.filed, &other.sharing.filed) {
            let theirs = std::mem::take(&mut other.sharing.filed.lock().pairs);
            let live = theirs.into_iter().filter(|(_, w)| w.strong_count() > 0);
            self.sharing.filed.lock().pairs.extend(live);
        }
        self.sharing.retired.absorb(&other.sharing.retired);
    }

    /// Replace every user with `fresh`'s, keeping this database's query
    /// options and retired counters; `fresh` comes from
    /// [`Self::empty_joined`], so its users filed into this database's
    /// table. The replaced users leave their catalogs (which other users
    /// may still share), so their pins and their share of the capacity
    /// go.
    pub(crate) fn replace_users(&mut self, fresh: Self) {
        debug_assert!(Arc::ptr_eq(&self.sharing.filed, &fresh.sharing.filed));
        let old = std::mem::replace(&mut self.users, fresh.users);
        self.sharing.retired.absorb(&fresh.sharing.retired);
        for slot in old.into_values() {
            self.sharing.leave(slot);
        }
    }

    /// Copy every user into `snap` by sharing their index, with empty
    /// query caches and unmaterialized views (view pins are carried).
    /// Users holding one index here share one new catalog in `snap`. A
    /// later edit copies the index it changes, so `snap` keeps the state
    /// at this call.
    pub(crate) fn snapshot_into(&self, snap: &mut Self) {
        let mut pairs: HashMap<*const IndexedProfile, Arc<Derived>> = HashMap::new();
        for (name, slot) in &self.users {
            let indexed = &slot.derived.indexed;
            let derived = pairs
                .entry(Arc::as_ptr(indexed))
                .or_insert_with(|| Arc::new(Derived::new(Arc::clone(indexed), None)));
            let mut copy = UserSlot::new(Arc::clone(derived), &self.env, self.cache_capacity);
            for state in slot.seat.pinned() {
                copy.derived.views.pin_for(&mut copy.seat, state.clone());
            }
            snap.users.insert(name.clone(), copy);
        }
    }

    /// Every user with their index, in arbitrary order.
    pub(crate) fn indexes(&self) -> impl Iterator<Item = (&str, &Arc<IndexedProfile>)> {
        self.users
            .iter()
            .map(|(name, s)| (name.as_str(), &s.derived.indexed))
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
    /// shares that index and its views.
    pub fn add_user_with_profile(&mut self, name: &str, profile: Profile) -> Result<(), CoreError> {
        if self.users.contains_key(name) {
            return Err(CoreError::DuplicateUser(name.to_string()));
        }
        let derived = self.shared_pair(profile)?;
        let slot = UserSlot::new(derived, &self.env, self.cache_capacity);
        self.users.insert(name.to_string(), slot);
        Ok(())
    }

    /// The live pair filed under `profile`'s hash when its preferences
    /// equal `profile`'s, else a new index with an empty catalog, filed
    /// in place of the entry.
    fn shared_pair(&mut self, profile: Profile) -> Result<Arc<Derived>, CoreError> {
        let key = share_key(profile.preferences());
        if let Some(derived) = self.sharing.get(key) {
            if derived.indexed.profile().preferences() == profile.preferences() {
                return Ok(derived);
            }
        }
        let indexed = IndexedProfile::new(profile, self.order.clone())?;
        let derived = Arc::new(Derived::new(Arc::new(indexed), Some(key)));
        self.sharing.file(key, &derived);
        Ok(derived)
    }

    /// Remove a user and return their profile.
    pub fn remove_user(&mut self, name: &str) -> Result<Profile, CoreError> {
        let slot = self
            .users
            .remove(name)
            .ok_or_else(|| CoreError::NoSuchUser(name.to_string()))?;
        let indexed = Arc::clone(&slot.derived.indexed);
        self.sharing.leave(slot);
        Ok(Arc::unwrap_or_clone(indexed).into_profile())
    }

    fn slot(&self, name: &str) -> Result<&UserSlot, CoreError> {
        self.users
            .get(name)
            .ok_or_else(|| CoreError::NoSuchUser(name.to_string()))
    }

    /// A user's index, as the pointer the database holds.
    pub(crate) fn index(&self, user: &str) -> Result<&Arc<IndexedProfile>, CoreError> {
        Ok(&self.slot(user)?.derived.indexed)
    }

    /// A user's profile.
    pub fn profile(&self, user: &str) -> Result<&Profile, CoreError> {
        Ok(self.slot(user)?.derived.indexed.profile())
    }

    /// A user's profile-tree statistics.
    pub fn tree_stats(&self, user: &str) -> Result<TreeStats, CoreError> {
        Ok(self.slot(user)?.derived.indexed.tree().stats())
    }

    /// A user's profile tree (for display, explanation, and reordering
    /// experiments).
    pub fn tree(&self, user: &str) -> Result<&ProfileTree, CoreError> {
        Ok(self.slot(user)?.derived.indexed.tree())
    }

    /// The view catalog `user` serves from, shared with every user
    /// holding the same index (for checks: `verify` it against
    /// [`Self::tree`], or compare two users' catalogs by address).
    pub fn view_catalog(&self, user: &str) -> Result<&ViewCatalog, CoreError> {
        Ok(&self.slot(user)?.derived.views)
    }

    /// Insert a preference for one user (conflicts detected by their
    /// tree; their cache is invalidated and their views patched).
    pub fn insert_preference(
        &mut self,
        user: &str,
        pref: ContextualPreference,
    ) -> Result<(), CoreError> {
        let insert = |ix: &mut IndexedProfile| ix.insert(pref).map(Some);
        let (slot, ()) = edit(&mut self.users, &mut self.sharing, user, insert)?.expect("changed");
        let pref = slot
            .derived
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
        let remove = |ix: &mut IndexedProfile| ix.remove(index).map(Some);
        let (slot, removed) =
            edit(&mut self.users, &mut self.sharing, user, remove)?.expect("changed");
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
        let rescore = |ix: &mut IndexedProfile| ix.rescore(index, score);
        if let Some((slot, old_score)) = edit(&mut self.users, &mut self.sharing, user, rescore)? {
            let pref = slot.derived.indexed.preference(index).expect("re-scored");
            let change = Change::Rescore { pref, old_score };
            slot.publish(&self.relation, self.defaults, change);
        }
        Ok(())
    }

    /// The query options used for every query on this database.
    pub fn query_defaults(&self) -> QueryOptions {
        self.defaults
    }

    /// Replace the query options used for every query on this database
    /// (of which it reads `distance`, `tie` and `combiner`; `use_cache`
    /// and `top_k` are [`crate::ContextualDb`]'s only). Caches and view
    /// contents are invalidated: both were computed under the old
    /// options.
    pub fn set_query_defaults(&mut self, options: QueryOptions) {
        self.defaults = options;
        for slot in self.users.values_mut() {
            if let Some(c) = &slot.cache {
                c.invalidate_all();
            }
            slot.derived.views.invalidate_contents();
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
            slot.derived.indexed.tree(),
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
    /// catalog the user shares when a view there is current (the
    /// boolean is true then), early-terminating `rank_cs_topk`
    /// otherwise. Rows are always `top_k_with_ties(k)` of the full
    /// ranking, bit-identical between the two paths.
    pub fn query_state_topk(
        &self,
        user: &str,
        state: &ContextState,
        k: usize,
    ) -> Result<(QueryAnswer, bool), CoreError> {
        let slot = self.slot(user)?;
        let Derived { indexed, views, .. } = &*slot.derived;
        let tree = indexed.tree();
        let d = self.defaults;
        let opts = view_opts(d);
        if let Some(results) = views.serve_for(&slot.seat, tree, &self.relation, &opts, state, k) {
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

    /// The view-hit probe: when a current materialized view holds
    /// `user`'s top-`k` answer under `state`, its rows lent to `render`,
    /// beside the relation they index, while the view is read-locked (no
    /// copy of them and no owned answer); else `None`. No miss is
    /// recorded and nothing is materialized.
    pub fn view_hit_with<R>(
        &self,
        user: &str,
        state: &ContextState,
        k: usize,
        render: impl FnOnce(&Relation, &[ScoredTuple]) -> R,
    ) -> Option<R> {
        let slot = self.users.get(user)?;
        let opts = view_opts(self.defaults);
        let relation = &self.relation;
        (slot.derived.views).hit_for(&slot.seat, &opts, state, k, |rows| render(relation, rows))
    }

    /// Register and pin a materialized top-k view of `(user, state)`:
    /// it is materialized on first use and never evicted.
    pub fn pin_view(&mut self, user: &str, state: &ContextState) -> Result<(), CoreError> {
        let slot = slot_mut(&mut self.users, user)?;
        slot.derived.views.pin_for(&mut slot.seat, state.clone());
        Ok(())
    }

    /// Unpin a view `user` pinned; returns whether they had pinned it.
    /// The view stays pinned while another user sharing it pins it too.
    pub fn unpin_view(&mut self, user: &str, state: &ContextState) -> Result<bool, CoreError> {
        let slot = slot_mut(&mut self.users, user)?;
        Ok(slot.derived.views.unpin_for(&mut slot.seat, state))
    }

    /// One user's pinned view states (sorted).
    pub fn pinned_views(&self, user: &str) -> Result<Vec<ContextState>, CoreError> {
        Ok(self.slot(user)?.seat.pinned().to_vec())
    }

    /// One user's view figures: their own hits, misses and pins, how
    /// many of the states they asked about or pinned are materialized,
    /// and the patches and rebuilds of the catalog they share.
    pub fn view_stats(&self, user: &str) -> Result<ViewStats, CoreError> {
        let slot = self.slot(user)?;
        Ok(slot.derived.views.stats_for(&slot.seat))
    }

    /// View statistics of the whole database: each catalog counted
    /// once, however many users share it, plus the counters of the
    /// catalogs forks and removals retired.
    pub fn views_totals(&self) -> ViewStats {
        let mut total = ViewStats::default();
        self.tally_views(&mut HashSet::new(), &mut total);
        total
    }

    /// Add this database's retired counters, every catalog not in
    /// `seen` (addresses of catalogs already counted) and every user's
    /// own hits to `total`.
    pub(crate) fn tally_views(&self, seen: &mut HashSet<usize>, total: &mut ViewStats) {
        total.absorb(&self.sharing.retired);
        for slot in self.users.values() {
            if seen.insert(Arc::as_ptr(&slot.derived) as usize) {
                total.absorb(&slot.derived.views.stats());
            }
            total.view_hits += slot.seat.hits();
        }
    }

    /// Query one user's profile with an explicit extended descriptor,
    /// resolving its context states one after another on the calling
    /// thread.
    pub fn query(
        &self,
        user: &str,
        ecod: &ExtendedContextDescriptor,
    ) -> Result<QueryAnswer, CoreError> {
        let d = self.defaults;
        let q = rank_cs(
            self.tree(user)?,
            &self.relation,
            ecod,
            d.distance,
            d.tie,
            d.combiner,
        )?;
        Ok(QueryAnswer::resolved(q))
    }
}

#[cfg(test)]
mod tests;
