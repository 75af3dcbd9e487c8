//! The sharded multi-user serving core.
//!
//! [`MultiUserDb`] is the paper's deployment shape — one environment and
//! relation, many user profiles — but it is a plain single-threaded
//! value: a concurrent server must wrap the whole thing in one
//! `RwLock`, so a single user's profile edit (which rebuilds *their*
//! tree and invalidates *their* cache) blocks every other user's
//! queries, and a snapshot-save blocks all writes for the duration of
//! the I/O.
//!
//! [`ShardedMultiUserDb`] removes that global chokepoint. Users are
//! striped over a fixed array of shards by a hash of the user name;
//! each shard is its own `RwLock` over its users' [`UserSlot`]s. The
//! environment and relation are immutable after construction and shared
//! lock-free. Consequences:
//!
//! * a mutation (preference insert/remove/rescore, user add/remove)
//!   write-locks only the owning shard — queries for users on the other
//!   shards proceed untouched;
//! * queries take a shard *read* lock, so queries never block each
//!   other (the per-user query cache is internally synchronized and
//!   its hit path is read-lock-only, see `ctxpref-qcache`);
//! * a save works from [`ShardedMultiUserDb::snapshot`], which holds
//!   each shard's read lock only long enough to clone that shard's
//!   slots — never across I/O.
//!
//! Both cores share the same [`UserSlot`] implementation, so query and
//! mutation semantics are identical by construction; `from_db` /
//! `into_db` convert losslessly in both directions.

use std::collections::HashMap;

use ctxpref_context::{ContextEnvironment, ContextState, ExtendedContextDescriptor};
use ctxpref_profile::{ContextualPreference, ParamOrder, Profile, ProfileTree, TreeStats};
use ctxpref_relation::{CompareOp, Relation, Value};
use ctxpref_views::ViewStats;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::db::{preference_from_parts, QueryAnswer, QueryOptions};
use crate::error::CoreError;
use crate::multi::{view_answer, view_opts, MultiUserDb, UserSlot};

/// Default number of stripes. Collisions cost only read-vs-write
/// contention, so a modest constant far above the worker count is
/// plenty; a power of two keeps the modulo cheap.
pub const DEFAULT_SHARDS: usize = 16;

type Shard = RwLock<HashMap<String, UserSlot>>;

/// A multi-user contextual preference database sharded for concurrent
/// serving: user slots are striped over fixed per-shard `RwLock`s, so
/// one user's mutation never blocks another shard's queries. See the
/// module docs.
#[derive(Debug)]
pub struct ShardedMultiUserDb {
    env: ContextEnvironment,
    relation: Relation,
    order: ParamOrder,
    cache_capacity: usize,
    defaults: RwLock<QueryOptions>,
    shards: Box<[Shard]>,
}

impl ShardedMultiUserDb {
    /// An empty sharded database over `env` and `relation` with
    /// `cache_capacity` per user (0 disables caching) and `shards`
    /// stripes (clamped to ≥ 1).
    pub fn new(
        env: ContextEnvironment,
        relation: Relation,
        cache_capacity: usize,
        shards: usize,
    ) -> Self {
        let order = ParamOrder::by_ascending_domain(&env);
        let shards = (0..shards.max(1))
            .map(|_| RwLock::new(HashMap::new()))
            .collect();
        Self {
            env,
            relation,
            order,
            cache_capacity,
            defaults: RwLock::new(QueryOptions::default()),
            shards,
        }
    }

    /// Convert a plain [`MultiUserDb`] into a sharded one, moving every
    /// user slot (profiles, trees, and caches are reused, not rebuilt).
    pub fn from_db(db: MultiUserDb, shards: usize) -> Self {
        let (env, relation, order, cache_capacity, defaults, users) = db.into_parts();
        let shards = shards.max(1);
        let mut maps: Vec<HashMap<String, UserSlot>> =
            (0..shards).map(|_| HashMap::new()).collect();
        for (name, slot) in users {
            let ix = shard_index(&name, shards);
            maps[ix].insert(name, slot);
        }
        Self {
            env,
            relation,
            order,
            cache_capacity,
            defaults: RwLock::new(defaults),
            shards: maps.into_iter().map(RwLock::new).collect(),
        }
    }

    /// Convert back into a plain [`MultiUserDb`], consuming the shards.
    pub fn into_db(self) -> MultiUserDb {
        let mut users = HashMap::new();
        for shard in self.shards.into_vec() {
            users.extend(shard.into_inner());
        }
        MultiUserDb::from_parts(
            self.env,
            self.relation,
            self.order,
            self.cache_capacity,
            self.defaults.into_inner(),
            users,
        )
    }

    /// A point-in-time copy as a plain [`MultiUserDb`] (fresh, empty
    /// query caches — cached rankings are derived data). Each shard's
    /// read lock is held only while cloning that shard's slots, so a
    /// long save never blocks writers for the duration of the I/O.
    pub fn snapshot(&self) -> MultiUserDb {
        let mut snap = self.snapshot_begin();
        for ix in 0..self.shards.len() {
            self.snapshot_stripe(ix, &mut snap);
        }
        snap.finish()
    }

    /// Begin an incremental snapshot: captures the shared parts
    /// (environment, relation, order, defaults) and returns an empty
    /// accumulator. Feed it stripes via [`Self::snapshot_stripe`] —
    /// external coordinators (e.g. a write-ahead-log checkpointer) can
    /// interleave their own per-stripe bookkeeping between clones so
    /// that each stripe's copy is consistent with a per-stripe cut
    /// point, without ever quiescing the whole database.
    pub fn snapshot_begin(&self) -> PartialSnapshot {
        PartialSnapshot {
            env: self.env.clone(),
            relation: self.relation.clone(),
            order: self.order.clone(),
            cache_capacity: self.cache_capacity,
            defaults: *self.defaults.read(),
            users: HashMap::new(),
        }
    }

    /// Clone stripe `ix`'s user slots into `snap`, holding that
    /// stripe's read lock only for the duration of the clone.
    ///
    /// # Panics
    ///
    /// If `ix >= self.num_shards()`.
    pub fn snapshot_stripe(&self, ix: usize, snap: &mut PartialSnapshot) {
        let guard = self.shards[ix].read();
        for (name, slot) in guard.iter() {
            snap.users.insert(
                name.clone(),
                slot.clone_for_snapshot(&self.env, self.cache_capacity),
            );
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

    /// Number of stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The stripe serving `user` — exposed so tests and benchmarks can
    /// reason about collisions deterministically.
    pub fn shard_of(&self, user: &str) -> usize {
        shard_index(user, self.shards.len())
    }

    /// Per-user cache capacity (0 = caching disabled).
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// Number of registered users (consistent only if no concurrent
    /// user add/remove is in flight).
    pub fn user_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// User names in sorted order.
    pub fn users_sorted(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort_unstable();
        names
    }

    /// The query options used for every query on this database.
    pub fn query_defaults(&self) -> QueryOptions {
        *self.defaults.read()
    }

    /// Replace the query options; every user's cache and materialized
    /// view contents are invalidated (both were computed under the old
    /// options).
    pub fn set_query_defaults(&self, options: QueryOptions) {
        *self.defaults.write() = options;
        for shard in self.shards.iter() {
            let guard = shard.read();
            for slot in guard.values() {
                if let Some(c) = &slot.cache {
                    c.invalidate_all();
                }
                slot.views.invalidate_contents();
            }
        }
    }

    fn shard(&self, user: &str) -> &Shard {
        &self.shards[shard_index(user, self.shards.len())]
    }

    /// Register a user with an empty profile.
    pub fn add_user(&self, name: &str) -> Result<(), CoreError> {
        self.add_user_with_profile(name, Profile::new(self.env.clone()))
    }

    /// Register a user with an initial profile.
    pub fn add_user_with_profile(&self, name: &str, profile: Profile) -> Result<(), CoreError> {
        let slot = UserSlot::new(profile, &self.order, &self.env, self.cache_capacity)?;
        let mut shard = self.shard(name).write();
        if shard.contains_key(name) {
            return Err(CoreError::DuplicateUser(name.to_string()));
        }
        shard.insert(name.to_string(), slot);
        Ok(())
    }

    /// Remove a user and return their profile.
    pub fn remove_user(&self, name: &str) -> Result<Profile, CoreError> {
        self.shard(name)
            .write()
            .remove(name)
            .map(|slot| slot.profile)
            .ok_or_else(|| CoreError::NoSuchUser(name.to_string()))
    }

    fn with_slot<R>(
        &self,
        user: &str,
        f: impl FnOnce(&UserSlot) -> Result<R, CoreError>,
    ) -> Result<R, CoreError> {
        let shard = self.shard(user).read();
        let slot = shard
            .get(user)
            .ok_or_else(|| CoreError::NoSuchUser(user.to_string()))?;
        f(slot)
    }

    fn with_slot_mut<R>(
        &self,
        user: &str,
        f: impl FnOnce(&mut UserSlot) -> Result<R, CoreError>,
    ) -> Result<R, CoreError> {
        let mut shard = self.shard(user).write();
        let slot = shard
            .get_mut(user)
            .ok_or_else(|| CoreError::NoSuchUser(user.to_string()))?;
        f(slot)
    }

    /// A user's profile (an owned clone — the slot lives behind the
    /// shard lock, so references cannot escape it).
    pub fn profile(&self, user: &str) -> Result<Profile, CoreError> {
        self.with_slot(user, |s| Ok(s.profile.clone()))
    }

    /// A user's profile tree (owned clone, for display and explanation).
    pub fn tree(&self, user: &str) -> Result<ProfileTree, CoreError> {
        self.with_slot(user, |s| Ok(s.tree.clone()))
    }

    /// A user's profile-tree statistics.
    pub fn tree_stats(&self, user: &str) -> Result<TreeStats, CoreError> {
        self.with_slot(user, |s| Ok(s.tree.stats()))
    }

    /// One user's query-cache statistics (`None` when caching is
    /// disabled).
    pub fn cache_stats(&self, user: &str) -> Result<Option<ctxpref_qcache::CacheStats>, CoreError> {
        self.with_slot(user, |s| Ok(s.cache.as_ref().map(|c| c.stats())))
    }

    /// Query-cache statistics summed over every user on every shard —
    /// the serving layer's `stats` verb surfaces these so operators can
    /// see invalidation and eviction pressure without enumerating
    /// users. Consistent per-slot; cross-slot skew is possible under
    /// concurrent traffic (like every aggregate counter here).
    pub fn cache_totals(&self) -> ctxpref_qcache::CacheStats {
        let mut total = ctxpref_qcache::CacheStats::default();
        for shard in self.shards.iter() {
            let guard = shard.read();
            for slot in guard.values() {
                if let Some(s) = slot.cache.as_ref().map(|c| c.stats()) {
                    total.hits += s.hits;
                    total.misses += s.misses;
                    total.insertions += s.insertions;
                    total.evictions += s.evictions;
                    total.invalidations += s.invalidations;
                    total.cells_accessed += s.cells_accessed;
                }
            }
        }
        total
    }

    /// View-serving statistics summed over every user on every shard.
    pub fn views_totals(&self) -> ViewStats {
        let mut total = ViewStats::default();
        for shard in self.shards.iter() {
            let guard = shard.read();
            for slot in guard.values() {
                total.absorb(&slot.views.stats());
            }
        }
        total
    }

    /// One user's view-serving counters.
    pub fn view_stats(&self, user: &str) -> Result<ViewStats, CoreError> {
        self.with_slot(user, |s| Ok(s.views.stats()))
    }

    /// Register and pin a materialized top-k view of `(user, state)`:
    /// it is materialized on first use and never evicted.
    pub fn pin_view(&self, user: &str, state: &ContextState) -> Result<(), CoreError> {
        self.with_slot(user, |s| {
            s.views.pin(state.clone());
            Ok(())
        })
    }

    /// Unpin a previously pinned view; returns whether it was pinned.
    pub fn unpin_view(&self, user: &str, state: &ContextState) -> Result<bool, CoreError> {
        self.with_slot(user, |s| Ok(s.views.unpin(state)))
    }

    /// One user's pinned view states (sorted).
    pub fn pinned_views(&self, user: &str) -> Result<Vec<ContextState>, CoreError> {
        self.with_slot(user, |s| Ok(s.views.pinned_states()))
    }

    /// Insert a preference for one user; only their shard is
    /// write-locked.
    pub fn insert_preference(
        &self,
        user: &str,
        pref: ContextualPreference,
    ) -> Result<(), CoreError> {
        let defaults = *self.defaults.read();
        self.with_slot_mut(user, |s| {
            s.insert_preference(pref, &self.relation, defaults)
        })
    }

    /// Insert an equality preference for one user from its textual
    /// parts.
    pub fn insert_preference_eq(
        &self,
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

    /// Remove one user's preference at `index`.
    pub fn remove_preference(
        &self,
        user: &str,
        index: usize,
    ) -> Result<ContextualPreference, CoreError> {
        let defaults = *self.defaults.read();
        self.with_slot_mut(user, |s| {
            s.remove_preference(index, &self.order, &self.relation, defaults)
        })
    }

    /// Update the score of one user's preference at `index`.
    pub fn update_preference_score(
        &self,
        user: &str,
        index: usize,
        score: f64,
    ) -> Result<(), CoreError> {
        let defaults = *self.defaults.read();
        self.with_slot_mut(user, |s| {
            s.update_preference_score(
                index,
                score,
                &self.env,
                &self.order,
                &self.relation,
                defaults,
            )
        })
    }

    /// Query one user's profile under a single context state, through
    /// their cache when enabled. Takes the user's shard read lock.
    pub fn query_state(&self, user: &str, state: &ContextState) -> Result<QueryAnswer, CoreError> {
        let defaults = *self.defaults.read();
        self.with_slot(user, |s| {
            s.query_state(&self.env, &self.relation, defaults, state)
        })
    }

    /// Top-k query under a single context state: served from the
    /// user's materialized view when one is current, early-terminating
    /// `rank_cs_topk` otherwise. The boolean reports whether a view
    /// answered. Takes the user's shard read lock.
    pub fn query_state_topk(
        &self,
        user: &str,
        state: &ContextState,
        k: usize,
    ) -> Result<(QueryAnswer, bool), CoreError> {
        let defaults = *self.defaults.read();
        self.with_slot(user, |s| {
            s.query_state_topk(&self.env, &self.relation, defaults, state, k)
        })
    }

    /// Query one user's profile with an explicit extended descriptor;
    /// multi-state descriptors fan `Rank_CS` out across the states.
    pub fn query(
        &self,
        user: &str,
        ecod: &ExtendedContextDescriptor,
    ) -> Result<QueryAnswer, CoreError> {
        let defaults = *self.defaults.read();
        self.with_slot(user, |s| s.query(&self.relation, defaults, ecod))
    }

    /// Render the top-`k` answer (ties included) as `name (score)` lines
    /// using the given display attribute.
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

    /// Acquire `user`'s shard for reading, once, and return a handle
    /// that can serve any number of queries for users on that shard
    /// without re-acquiring. This is the serving layer's hot path: the
    /// worker pays for the lock exactly once per request, can re-check
    /// its deadline *after* the (possibly contended) acquisition, and
    /// then walks its whole degradation ladder under the one guard.
    pub fn read_user_shard<'a>(&'a self, user: &str) -> UserShardRead<'a> {
        UserShardRead {
            db: self,
            defaults: *self.defaults.read(),
            guard: self.shard(user).read(),
        }
    }

    /// [`Self::read_user_shard`] for a caller that must never wait:
    /// `None` while the shard (or the query defaults) is write-locked
    /// or has a writer queued.
    pub fn try_read_user_shard<'a>(&'a self, user: &str) -> Option<UserShardRead<'a>> {
        Some(UserShardRead {
            db: self,
            defaults: *self.defaults.try_read()?,
            guard: self.shard(user).try_read()?,
        })
    }

    /// Stripe `ix`'s users and profiles, sorted by name. The stripe's
    /// read lock is held only for the clone. Replication uses this both
    /// to digest a stripe (the sort makes the digest canonical) and to
    /// ship a divergent stripe's contents for resync.
    ///
    /// # Panics
    ///
    /// If `ix >= self.num_shards()`.
    pub fn stripe_users(&self, ix: usize) -> Vec<(String, Profile)> {
        let guard = self.shards[ix].read();
        let mut users: Vec<(String, Profile)> = guard
            .iter()
            .map(|(name, slot)| (name.clone(), slot.profile.clone()))
            .collect();
        drop(guard);
        users.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        users
    }

    /// Replace stripe `ix`'s entire contents with `users`, rebuilding
    /// each slot (tree and cache) from its profile. Users that hash to
    /// a different stripe are rejected before anything is replaced, so
    /// the fold invariant (stripe == FNV(user) % shards) cannot be
    /// broken. This is the anti-entropy resync path: the stripe's write
    /// lock is held across the swap, so readers see either the old
    /// stripe or the new one, never a mix.
    ///
    /// # Panics
    ///
    /// If `ix >= self.num_shards()`.
    pub fn replace_stripe(
        &self,
        ix: usize,
        users: Vec<(String, Profile)>,
    ) -> Result<(), CoreError> {
        let mut slots = HashMap::with_capacity(users.len());
        for (name, profile) in users {
            if shard_index(&name, self.shards.len()) != ix {
                return Err(CoreError::NoSuchUser(format!(
                    "{name} does not belong to stripe {ix}"
                )));
            }
            let slot = UserSlot::new(profile, &self.order, &self.env, self.cache_capacity)?;
            slots.insert(name, slot);
        }
        *self.shards[ix].write() = slots;
        Ok(())
    }

    /// Hold `user`'s shard write lock until the returned guard drops,
    /// blocking that shard's queries and mutations. Only useful for
    /// tests and benchmarks that need deterministic contention (e.g.
    /// proving that *other* shards keep serving).
    pub fn quiesce_user<'a>(&'a self, user: &str) -> ShardQuiesceGuard<'a> {
        ShardQuiesceGuard {
            _guard: self.shard(user).write(),
        }
    }
}

/// A read guard over one shard, serving queries without re-locking. See
/// [`ShardedMultiUserDb::read_user_shard`].
pub struct UserShardRead<'a> {
    db: &'a ShardedMultiUserDb,
    defaults: QueryOptions,
    guard: RwLockReadGuard<'a, HashMap<String, UserSlot>>,
}

impl UserShardRead<'_> {
    /// The shared context environment.
    pub fn env(&self) -> &ContextEnvironment {
        &self.db.env
    }

    /// The shared relation.
    pub fn relation(&self) -> &Relation {
        &self.db.relation
    }

    /// True iff `user` is registered on this shard.
    pub fn has_user(&self, user: &str) -> bool {
        self.guard.contains_key(user)
    }

    /// Query `user` under a single context state through their cache,
    /// re-using the already-held shard read lock. Errors with
    /// [`CoreError::NoSuchUser`] for users absent from this shard.
    pub fn query_state(&self, user: &str, state: &ContextState) -> Result<QueryAnswer, CoreError> {
        let slot = self
            .guard
            .get(user)
            .ok_or_else(|| CoreError::NoSuchUser(user.to_string()))?;
        slot.query_state(&self.db.env, &self.db.relation, self.defaults, state)
    }

    /// Top-k query for `user` under a single context state, re-using
    /// the already-held shard read lock: materialized view when one is
    /// current (the view catalog's hit path is itself read-lock-only),
    /// early-terminating `rank_cs_topk` otherwise. The boolean reports
    /// whether a view answered.
    pub fn query_state_topk(
        &self,
        user: &str,
        state: &ContextState,
        k: usize,
    ) -> Result<(QueryAnswer, bool), CoreError> {
        let slot = self
            .guard
            .get(user)
            .ok_or_else(|| CoreError::NoSuchUser(user.to_string()))?;
        slot.query_state_topk(&self.db.env, &self.db.relation, self.defaults, state, k)
    }

    /// The view-hit probe: `user`'s top-`k` answer under `state` when a
    /// current materialized view holds it, else `None` — no miss is
    /// recorded and nothing is materialized.
    pub fn view_hit(&self, user: &str, state: &ContextState, k: usize) -> Option<QueryAnswer> {
        let slot = self.guard.get(user)?;
        let hit = slot.views.hit(&view_opts(self.defaults), state, k);
        hit.map(view_answer)
    }
}

/// Opaque guard returned by [`ShardedMultiUserDb::quiesce_user`].
pub struct ShardQuiesceGuard<'a> {
    _guard: RwLockWriteGuard<'a, HashMap<String, UserSlot>>,
}

/// An in-progress incremental snapshot: the shared parts of the
/// database plus the user slots of every stripe fed in so far. See
/// [`ShardedMultiUserDb::snapshot_begin`].
#[derive(Debug)]
pub struct PartialSnapshot {
    env: ContextEnvironment,
    relation: Relation,
    order: ParamOrder,
    cache_capacity: usize,
    defaults: QueryOptions,
    users: HashMap<String, UserSlot>,
}

impl PartialSnapshot {
    /// Assemble the accumulated stripes into a plain [`MultiUserDb`].
    pub fn finish(self) -> MultiUserDb {
        MultiUserDb::from_parts(
            self.env,
            self.relation,
            self.order,
            self.cache_capacity,
            self.defaults,
            self.users,
        )
    }
}

/// FNV-1a over the user name, folded onto the stripe count. Stable
/// across processes (used by on-disk-agnostic tests and benches).
fn shard_index(user: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in user.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_context::parse_descriptor;
    use ctxpref_hierarchy::Hierarchy;
    use ctxpref_profile::AttributeClause;
    use ctxpref_relation::{AttrType, Schema};

    fn setup() -> ShardedMultiUserDb {
        let env =
            ContextEnvironment::new(vec![Hierarchy::flat("weather", &["cold", "warm"]).unwrap()])
                .unwrap();
        let schema = Schema::new(&[("type", AttrType::Str)]).unwrap();
        let mut rel = Relation::new("poi", schema);
        for t in ["museum", "brewery", "zoo"] {
            rel.insert(vec![t.into()]).unwrap();
        }
        ShardedMultiUserDb::new(env, rel, 8, 4)
    }

    fn pref(db: &ShardedMultiUserDb, cod: &str, ty: &str, score: f64) -> ContextualPreference {
        ContextualPreference::new(
            parse_descriptor(db.env(), cod).unwrap(),
            AttributeClause::eq(db.relation().schema().attr("type").unwrap(), ty.into()),
            score,
        )
        .unwrap()
    }

    #[test]
    fn behaves_like_multi_user_db() {
        let db = setup();
        db.add_user("alice").unwrap();
        db.add_user("bob").unwrap();
        assert!(matches!(
            db.add_user("alice").unwrap_err(),
            CoreError::DuplicateUser(_)
        ));
        assert_eq!(db.user_count(), 2);
        assert_eq!(
            db.users_sorted(),
            vec!["alice".to_string(), "bob".to_string()]
        );

        let a = pref(&db, "weather = warm", "brewery", 0.9);
        let b = pref(&db, "weather = warm", "museum", 0.8);
        db.insert_preference("alice", a).unwrap();
        db.insert_preference("bob", b).unwrap();

        let warm = ContextState::parse(db.env(), &["warm"]).unwrap();
        let alice = db.query_state("alice", &warm).unwrap();
        let bob = db.query_state("bob", &warm).unwrap();
        assert_eq!(alice.results.entries()[0].tuple_index, 1); // brewery
        assert_eq!(bob.results.entries()[0].tuple_index, 0); // museum

        // Cached on re-query; the per-user cache lives in the slot.
        assert!(db.query_state("alice", &warm).unwrap().from_cache);
        assert!(db.cache_stats("alice").unwrap().unwrap().hits >= 1);

        // Mutations invalidate only that user's cache.
        db.insert_preference("alice", pref(&db, "weather = cold", "zoo", 0.5))
            .unwrap();
        assert!(!db.query_state("alice", &warm).unwrap().from_cache);
        assert!(db.query_state("bob", &warm).unwrap().from_cache);

        assert!(matches!(
            db.query_state("ghost", &warm).unwrap_err(),
            CoreError::NoSuchUser(_)
        ));
        let p = db.remove_user("bob").unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(db.user_count(), 1);
    }

    #[test]
    fn round_trips_through_multi_user_db() {
        let db = setup();
        for u in ["u0", "u1", "u2", "u3", "u4"] {
            db.add_user(u).unwrap();
            db.insert_preference(u, pref(&db, "weather = warm", "zoo", 0.4))
                .unwrap();
        }
        let warm = ContextState::parse(db.env(), &["warm"]).unwrap();
        let before = db.query_state("u3", &warm).unwrap();

        let plain = db.snapshot();
        assert_eq!(plain.user_count(), 5);
        assert_eq!(plain.profile("u3").unwrap().len(), 1);
        let after = plain.query_state("u3", &warm).unwrap();
        assert_eq!(before.results.entries(), after.results.entries());

        // from_db ↔ into_db round trip preserves users and profiles.
        let resharded = ShardedMultiUserDb::from_db(plain, 3);
        assert_eq!(resharded.num_shards(), 3);
        assert_eq!(resharded.user_count(), 5);
        let back = resharded.into_db();
        assert_eq!(back.user_count(), 5);
        assert_eq!(back.profile("u0").unwrap().len(), 1);
    }

    #[test]
    fn shard_mapping_is_stable_and_total() {
        let db = setup();
        for i in 0..64 {
            let name = format!("user{i}");
            let s = db.shard_of(&name);
            assert!(s < db.num_shards());
            assert_eq!(s, db.shard_of(&name));
        }
        // With 64 users over 4 shards, every shard serves someone.
        let mut seen = vec![false; db.num_shards()];
        for i in 0..64 {
            seen[db.shard_of(&format!("user{i}"))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shard_read_guard_serves_queries() {
        let db = setup();
        db.add_user("alice").unwrap();
        db.insert_preference("alice", pref(&db, "weather = warm", "brewery", 0.9))
            .unwrap();
        let warm = ContextState::parse(db.env(), &["warm"]).unwrap();
        let shard = db.read_user_shard("alice");
        assert!(shard.has_user("alice"));
        assert!(!shard.has_user("ghost"));
        let answer = shard.query_state("alice", &warm).unwrap();
        assert_eq!(answer.results.entries()[0].tuple_index, 1);
        assert_eq!(shard.env().len(), 1);
        assert_eq!(shard.relation().len(), 3);
    }

    #[test]
    fn quiesced_shard_blocks_only_itself() {
        let db = setup();
        // Find two users on different shards.
        let a = "user0";
        let b = (1..32)
            .map(|i| format!("user{i}"))
            .find(|u| db.shard_of(u) != db.shard_of(a))
            .expect("32 users over 4 shards must span ≥ 2 shards");
        db.add_user(a).unwrap();
        db.add_user(&b).unwrap();
        let warm = ContextState::parse(db.env(), &["warm"]).unwrap();

        let guard = db.quiesce_user(a);
        // `b`'s shard is untouched: queries and even writes proceed.
        db.query_state(&b, &warm).unwrap();
        db.insert_preference(&b, pref(&db, "weather = warm", "zoo", 0.3))
            .unwrap();
        // `a`'s shard is locked: the acquire that never waits refuses.
        assert!(db.try_read_user_shard(a).is_none());
        assert!(db.try_read_user_shard(&b).is_some());
        drop(guard);
        assert!(db.try_read_user_shard(a).unwrap().has_user(a));
        db.query_state(a, &warm).unwrap();
    }
}
