//! The sharded multi-user serving core.
//!
//! [`MultiUserDb`] is the paper's deployment shape — one environment and
//! relation, many user profiles — but it is a plain single-threaded
//! value: a concurrent server would have to wrap the whole thing in one
//! `RwLock`, so a single user's profile edit would block every other
//! user's queries, and a snapshot-save would block all writes for the
//! duration of the I/O.
//!
//! [`ShardedMultiUserDb`] removes that global chokepoint by striping:
//! it is a fixed array of `MultiUserDb`s, each behind its own `RwLock`,
//! and a user lives on the stripe a hash of their name picks. Every
//! stripe shares one environment and one `Arc<Relation>`, of which the
//! sharded core keeps lock-free copies. Each verb here is one call on
//! the user's stripe under that stripe's lock, so its semantics are
//! `MultiUserDb`'s by construction. Consequences:
//!
//! * a mutation (preference insert/remove/rescore, user add/remove)
//!   write-locks only the owning stripe — queries for users on the
//!   other stripes proceed untouched;
//! * queries take a stripe *read* lock, so queries never block each
//!   other (the per-user query cache is internally synchronized and
//!   its hit path is read-lock-only, see `ctxpref-qcache`);
//! * the query options live in each stripe and change under its write
//!   lock, so a read in flight can never cache an answer computed under
//!   options that a concurrent change has already replaced;
//! * a save works from [`ShardedMultiUserDb::snapshot`], which holds
//!   each stripe's read lock only long enough to copy the pointers to
//!   that stripe's users' copy-on-write indexes (the relation is shared
//!   too) — never across I/O, and never for a deep copy.
//!
//! `from_db` / `into_db` convert losslessly in both directions.

use std::collections::HashSet;
use std::sync::Arc;

use ctxpref_context::{ContextEnvironment, ContextState, ExtendedContextDescriptor};
use ctxpref_profile::{ContextualPreference, IndexedProfile, Profile, ProfileTree, TreeStats};
use ctxpref_qcache::CacheStats;
use ctxpref_relation::{Relation, Value};
use ctxpref_views::ViewStats;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::db::{QueryAnswer, QueryOptions};
use crate::error::CoreError;
use crate::multi::MultiUserDb;

/// Default number of stripes. Collisions cost only read-vs-write
/// contention, so a modest constant far above the worker count is
/// plenty; a power of two keeps the modulo cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// A read guard over one stripe: the [`MultiUserDb`] holding every
/// user that hashes there, serving any number of queries without
/// re-locking. See [`ShardedMultiUserDb::read_user_shard`].
pub type UserShardRead<'a> = RwLockReadGuard<'a, MultiUserDb>;

/// A write guard over one stripe. See
/// [`ShardedMultiUserDb::write_user_shard`].
pub type UserShardWrite<'a> = RwLockWriteGuard<'a, MultiUserDb>;

/// A multi-user contextual preference database sharded for concurrent
/// serving: users are striped over fixed per-stripe `RwLock`s, so one
/// user's mutation never blocks another stripe's queries. See the
/// module docs.
#[derive(Debug)]
pub struct ShardedMultiUserDb {
    env: ContextEnvironment,
    relation: Arc<Relation>,
    stripes: Box<[RwLock<MultiUserDb>]>,
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
        Self::from_db(MultiUserDb::new(env, relation, cache_capacity), shards)
    }

    /// Convert a plain [`MultiUserDb`] into a sharded one, moving every
    /// user (profiles, trees, and caches are reused, not rebuilt).
    pub fn from_db(db: MultiUserDb, shards: usize) -> Self {
        let shards = shards.max(1);
        let (env, relation) = (db.env().clone(), db.shared_relation());
        let stripes = db.split(shards, |user| shard_index(user, shards));
        Self {
            env,
            relation,
            stripes: stripes.into_iter().map(RwLock::new).collect(),
        }
    }

    /// Convert back into a plain [`MultiUserDb`], consuming the stripes.
    pub fn into_db(self) -> MultiUserDb {
        let mut stripes = self.stripes.into_vec().into_iter().map(RwLock::into_inner);
        let mut db = stripes.next().expect("at least one stripe");
        for stripe in stripes {
            db.merge(stripe);
        }
        db
    }

    /// A point-in-time copy as a plain [`MultiUserDb`] (fresh, empty
    /// query caches — cached rankings are derived data). The copy shares
    /// every user's index with this database; an edit made later copies
    /// the index it changes, so the copy keeps the state at the cut.
    /// Each stripe's read lock is held only while copying that stripe's
    /// pointers, so a long save never blocks writers for the I/O.
    pub fn snapshot(&self) -> MultiUserDb {
        let mut snap = self.snapshot_begin();
        for ix in 0..self.stripes.len() {
            self.snapshot_stripe(ix, &mut snap);
        }
        snap
    }

    /// Begin an incremental snapshot: an empty [`MultiUserDb`] sharing
    /// this database's environment, relation and options. Feed it
    /// stripes via [`Self::snapshot_stripe`] — external coordinators
    /// (e.g. a write-ahead-log checkpointer) can interleave their own
    /// per-stripe bookkeeping between stripes so that each stripe's copy
    /// is consistent with a per-stripe cut point, without ever
    /// quiescing the whole database.
    pub fn snapshot_begin(&self) -> MultiUserDb {
        self.stripes[0].read().empty_like()
    }

    /// Copy stripe `ix`'s users into `snap` by sharing their indexes,
    /// holding that stripe's read lock only for the pointer copies.
    ///
    /// # Panics
    ///
    /// If `ix >= self.num_shards()`.
    pub fn snapshot_stripe(&self, ix: usize, snap: &mut MultiUserDb) {
        self.stripes[ix].read().snapshot_into(snap);
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
        self.stripes.len()
    }

    /// The stripe serving `user` — exposed so tests and benchmarks can
    /// reason about collisions deterministically.
    pub fn shard_of(&self, user: &str) -> usize {
        shard_index(user, self.stripes.len())
    }

    fn stripe(&self, user: &str) -> &RwLock<MultiUserDb> {
        &self.stripes[self.shard_of(user)]
    }

    /// Per-user cache capacity (0 = caching disabled).
    pub fn cache_capacity(&self) -> usize {
        self.stripes[0].read().cache_capacity()
    }

    /// Number of registered users (consistent only if no concurrent
    /// user add/remove is in flight).
    pub fn user_count(&self) -> usize {
        self.stripes.iter().map(|s| s.read().user_count()).sum()
    }

    /// User names in sorted order.
    pub fn users_sorted(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .stripes
            .iter()
            .flat_map(|s| s.read().users().map(str::to_string).collect::<Vec<_>>())
            .collect();
        names.sort_unstable();
        names
    }

    /// The query options used for every query on this database.
    pub fn query_defaults(&self) -> QueryOptions {
        self.stripes[0].read().query_defaults()
    }

    /// Replace the query options (of which the core reads `distance`,
    /// `tie` and `combiner`; `use_cache` and `top_k` are
    /// [`crate::ContextualDb`]'s only); every user's cache and
    /// materialized view contents are invalidated (both were computed
    /// under the old options). Each stripe changes under its write lock, so it waits
    /// for the reads in flight there.
    pub fn set_query_defaults(&self, options: QueryOptions) {
        for stripe in self.stripes.iter() {
            stripe.write().set_query_defaults(options);
        }
    }

    /// Register a user with an empty profile.
    pub fn add_user(&self, name: &str) -> Result<(), CoreError> {
        self.stripe(name).write().add_user(name)
    }

    /// Register a user with an initial profile.
    pub fn add_user_with_profile(&self, name: &str, profile: Profile) -> Result<(), CoreError> {
        self.stripe(name)
            .write()
            .add_user_with_profile(name, profile)
    }

    /// Remove a user and return their profile.
    pub fn remove_user(&self, name: &str) -> Result<Profile, CoreError> {
        self.stripe(name).write().remove_user(name)
    }

    /// A user's profile (an owned clone — the user lives behind the
    /// stripe lock, so references cannot escape it). The clone is made
    /// after the lock is released.
    pub fn profile(&self, user: &str) -> Result<Profile, CoreError> {
        Ok(self.index(user)?.profile().clone())
    }

    /// A user's profile tree (owned clone, for display and explanation),
    /// made after the lock is released.
    pub fn tree(&self, user: &str) -> Result<ProfileTree, CoreError> {
        Ok(self.index(user)?.tree().clone())
    }

    /// A user's index, taken under their stripe's read lock.
    fn index(&self, user: &str) -> Result<Arc<IndexedProfile>, CoreError> {
        self.read_user_shard(user).index(user).cloned()
    }

    /// A user's profile-tree statistics.
    pub fn tree_stats(&self, user: &str) -> Result<TreeStats, CoreError> {
        self.read_user_shard(user).tree_stats(user)
    }

    /// One user's query-cache statistics (`None` when caching is
    /// disabled).
    pub fn cache_stats(&self, user: &str) -> Result<Option<CacheStats>, CoreError> {
        self.read_user_shard(user).cache_stats(user)
    }

    /// Query-cache statistics summed over every user on every stripe —
    /// the serving layer's `stats` verb surfaces these so operators can
    /// see invalidation and eviction pressure without enumerating
    /// users. Consistent per user; cross-user skew is possible under
    /// concurrent traffic (like every aggregate counter here).
    pub fn cache_totals(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for stripe in self.stripes.iter() {
            let db = stripe.read();
            for s in db.users().filter_map(|u| db.cache_stats(u).ok().flatten()) {
                total.hits += s.hits;
                total.misses += s.misses;
                total.insertions += s.insertions;
                total.evictions += s.evictions;
                total.invalidations += s.invalidations;
                total.cells_accessed += s.cells_accessed;
            }
        }
        total
    }

    /// View-serving statistics of every catalog on every stripe, each
    /// counted once however many users (on however many stripes) share
    /// it, plus the counters of the catalogs forks and removals retired.
    pub fn views_totals(&self) -> ViewStats {
        let (mut seen, mut total) = (HashSet::new(), ViewStats::default());
        for stripe in self.stripes.iter() {
            stripe.read().tally_views(&mut seen, &mut total);
        }
        total
    }

    /// One user's view figures (see [`MultiUserDb::view_stats`]).
    pub fn view_stats(&self, user: &str) -> Result<ViewStats, CoreError> {
        self.read_user_shard(user).view_stats(user)
    }

    /// Register and pin a materialized top-k view of `(user, state)`:
    /// it is materialized on first use and never evicted.
    pub fn pin_view(&self, user: &str, state: &ContextState) -> Result<(), CoreError> {
        self.stripe(user).write().pin_view(user, state)
    }

    /// Unpin a previously pinned view; returns whether it was pinned.
    pub fn unpin_view(&self, user: &str, state: &ContextState) -> Result<bool, CoreError> {
        self.stripe(user).write().unpin_view(user, state)
    }

    /// One user's pinned view states (sorted).
    pub fn pinned_views(&self, user: &str) -> Result<Vec<ContextState>, CoreError> {
        self.read_user_shard(user).pinned_views(user)
    }

    /// Insert a preference for one user; only their stripe is
    /// write-locked.
    pub fn insert_preference(
        &self,
        user: &str,
        pref: ContextualPreference,
    ) -> Result<(), CoreError> {
        self.stripe(user).write().insert_preference(user, pref)
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
        self.stripe(user)
            .write()
            .insert_preference_eq(user, descriptor, attr, value, score)
    }

    /// Remove one user's preference at `index`.
    pub fn remove_preference(
        &self,
        user: &str,
        index: usize,
    ) -> Result<ContextualPreference, CoreError> {
        self.stripe(user).write().remove_preference(user, index)
    }

    /// Update the score of one user's preference at `index`.
    pub fn update_preference_score(
        &self,
        user: &str,
        index: usize,
        score: f64,
    ) -> Result<(), CoreError> {
        self.stripe(user)
            .write()
            .update_preference_score(user, index, score)
    }

    /// Query one user's profile under a single context state, through
    /// their cache when enabled. Takes the user's stripe read lock.
    pub fn query_state(&self, user: &str, state: &ContextState) -> Result<QueryAnswer, CoreError> {
        self.read_user_shard(user).query_state(user, state)
    }

    /// Top-k query under a single context state: served from the
    /// user's materialized view when one is current, early-terminating
    /// `rank_cs_topk` otherwise. The boolean reports whether a view
    /// answered. Takes the user's stripe read lock.
    pub fn query_state_topk(
        &self,
        user: &str,
        state: &ContextState,
        k: usize,
    ) -> Result<(QueryAnswer, bool), CoreError> {
        self.read_user_shard(user).query_state_topk(user, state, k)
    }

    /// Query one user's profile with an explicit extended descriptor
    /// (see [`MultiUserDb::query`]).
    pub fn query(
        &self,
        user: &str,
        ecod: &ExtendedContextDescriptor,
    ) -> Result<QueryAnswer, CoreError> {
        self.read_user_shard(user).query(user, ecod)
    }

    /// Acquire `user`'s stripe for reading, once, and return a guard
    /// that can serve any number of queries for users on that stripe
    /// without re-acquiring. This is the serving layer's hot path: the
    /// worker pays for the lock exactly once per request, can re-check
    /// its deadline *after* the (possibly contended) acquisition, and
    /// then walks its whole degradation ladder under the one guard.
    pub fn read_user_shard(&self, user: &str) -> UserShardRead<'_> {
        self.stripe(user).read()
    }

    /// [`Self::read_user_shard`] for a caller that must never wait:
    /// `None` while the stripe is write-locked or has a writer queued.
    pub fn try_read_user_shard(&self, user: &str) -> Option<UserShardRead<'_>> {
        self.stripe(user).try_read()
    }

    /// Acquire `user`'s stripe for writing: the one lock a mutation of
    /// that user takes (see `WalOp::apply_to` in `ctxpref-wal`).
    pub fn write_user_shard(&self, user: &str) -> UserShardWrite<'_> {
        self.stripe(user).write()
    }

    /// [`Self::write_user_shard`] for a caller that must never wait:
    /// `None` while the stripe is read- or write-locked.
    pub fn try_write_user_shard(&self, user: &str) -> Option<UserShardWrite<'_>> {
        self.stripe(user).try_write()
    }

    /// Stripe `ix`'s users and their indexes, sorted by name. The
    /// stripe's read lock is held only to copy the names and pointers;
    /// an edit made later copies the index it changes, so the returned
    /// indexes keep the state at the call. Replication digests a stripe
    /// from these without copying a profile (the sort makes the digest
    /// canonical).
    ///
    /// # Panics
    ///
    /// If `ix >= self.num_shards()`.
    pub fn stripe_indexes(&self, ix: usize) -> Vec<(String, Arc<IndexedProfile>)> {
        let stripe = self.stripes[ix].read();
        let mut users: Vec<(String, Arc<IndexedProfile>)> = stripe
            .indexes()
            .map(|(name, indexed)| (name.to_string(), Arc::clone(indexed)))
            .collect();
        drop(stripe);
        users.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        users
    }

    /// Stripe `ix`'s users and profiles, sorted by name: the profiles of
    /// [`Self::stripe_indexes`], cloned after the lock is released.
    /// Replication ships a divergent stripe's contents with these.
    ///
    /// # Panics
    ///
    /// If `ix >= self.num_shards()`.
    pub fn stripe_users(&self, ix: usize) -> Vec<(String, Profile)> {
        let users = self.stripe_indexes(ix).into_iter();
        users
            .map(|(name, indexed)| (name, indexed.profile().clone()))
            .collect()
    }

    /// Build a replacement for stripe `ix` holding exactly `users`,
    /// each user's tree and cache rebuilt from their profile (users with
    /// equal profiles, on this stripe or another, share one tree and
    /// catalog, as in `add_user_with_profile`). This is the fallible
    /// half of the anti-entropy resync: it runs outside every lock and
    /// changes nothing a reader sees, and users that hash to a different
    /// stripe are rejected, so the fold invariant (stripe == FNV(user) %
    /// shards) cannot be broken. [`Self::install_stripe`] swaps it in.
    ///
    /// # Panics
    ///
    /// If `ix >= self.num_shards()`.
    pub fn build_stripe(
        &self,
        ix: usize,
        users: Vec<(String, Profile)>,
    ) -> Result<Stripe, CoreError> {
        let mut fresh = self.stripes[ix].read().empty_joined();
        for (name, profile) in users {
            if shard_index(&name, self.stripes.len()) != ix {
                return Err(CoreError::NoSuchUser(format!(
                    "{name} does not belong to stripe {ix}"
                )));
            }
            fresh.add_user_with_profile(&name, profile)?;
        }
        Ok(Stripe { ix, users: fresh })
    }

    /// Swap a stripe built by [`Self::build_stripe`] in under the
    /// stripe's write lock, so readers see either the old stripe or the
    /// new one, never a mix; the replaced users leave the catalogs they
    /// shared. It cannot fail.
    pub fn install_stripe(&self, stripe: Stripe) {
        self.stripes[stripe.ix].write().replace_users(stripe.users);
    }

    /// Hold `user`'s stripe write lock until the returned guard drops,
    /// blocking that stripe's queries and mutations. Only useful for
    /// tests and benchmarks that need deterministic contention (e.g.
    /// proving that *other* stripes keep serving).
    pub fn quiesce_user(&self, user: &str) -> ShardQuiesceGuard<'_> {
        ShardQuiesceGuard {
            _guard: self.write_user_shard(user),
        }
    }
}

/// A stripe's replacement contents, built by
/// [`ShardedMultiUserDb::build_stripe`] and not yet installed.
#[derive(Debug)]
pub struct Stripe {
    ix: usize,
    users: MultiUserDb,
}

impl Stripe {
    /// Copy the stripe's users into `snap` by sharing their indexes, as
    /// [`ShardedMultiUserDb::snapshot_stripe`] does for a live stripe.
    pub fn snapshot_into(&self, snap: &mut MultiUserDb) {
        self.users.snapshot_into(snap);
    }
}

/// Opaque guard returned by [`ShardedMultiUserDb::quiesce_user`].
pub struct ShardQuiesceGuard<'a> {
    _guard: UserShardWrite<'a>,
}

/// FNV-1a over the user name, folded onto the stripe count. Stable
/// across processes (used by on-disk-agnostic tests and benches).
fn shard_index(user: &str, shards: usize) -> usize {
    (ctxpref_bytes::fnv1a64(user.as_bytes()) % shards as u64) as usize
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
