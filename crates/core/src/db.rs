use std::sync::Arc;

use ctxpref_context::{
    parse_descriptor, parse_extended_descriptor, ContextEnvironment, ContextState, DistanceKind,
    ExtendedContextDescriptor,
};
use ctxpref_profile::{
    AttributeClause, ContextualPreference, IndexedProfile, ParamOrder, Profile, ProfileTree,
    TreeStats,
};
use ctxpref_qcache::{CacheStats, ContextQueryTree};
use ctxpref_relation::{CompareOp, RankedResults, Relation, ScoreCombiner, Value};
use ctxpref_resolve::{rank_cs, rank_cs_state, RankedQuery, StateResolution, TieBreak};

use crate::error::CoreError;

/// Per-query knobs with the paper's defaults: hierarchy distance,
/// all tied candidates, max score combining. `use_cache` and `top_k`
/// are [`ContextualDb`]'s only: the multi-user cores
/// ([`crate::MultiUserDb`], [`crate::ShardedMultiUserDb`]) read neither,
/// since their cache is on whenever their `cache_capacity` is non-zero
/// and `k` comes with each top-k request.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// State distance used to pick among covering candidates.
    pub distance: DistanceKind,
    /// Tie handling among minimum-distance candidates.
    pub tie: TieBreak,
    /// Duplicate-tuple score combining policy.
    pub combiner: ScoreCombiner,
    /// [`ContextualDb`] only: consult / fill the context query tree
    /// (single-state queries only). Defaults to `false`; the builder's
    /// `cache_capacity` must also be non-zero.
    pub use_cache: bool,
    /// [`ContextualDb`] only: when set (and the combiner is `Max`),
    /// rank with early termination: evaluate preference entries
    /// best-score-first and stop once the top `k` tuples (ties
    /// included) cannot change. The answer then contains only those
    /// tuples.
    pub top_k: Option<usize>,
}

impl QueryOptions {
    /// Options with the context query tree enabled.
    pub fn cached() -> Self {
        Self {
            use_cache: true,
            ..Self::default()
        }
    }

    /// Options using the Jaccard distance.
    pub fn jaccard() -> Self {
        Self {
            distance: DistanceKind::Jaccard,
            ..Self::default()
        }
    }
}

/// The answer of a contextual query.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// Ranked tuples, best first.
    pub results: Arc<RankedResults>,
    /// Per-state resolution trace (empty when served from the cache).
    pub resolutions: Vec<StateResolution>,
    /// Whether the answer came from the context query tree.
    pub from_cache: bool,
}

impl QueryAnswer {
    /// A freshly resolved answer.
    pub(crate) fn resolved(q: RankedQuery) -> Self {
        Self {
            results: Arc::new(q.results),
            resolutions: q.resolutions,
            from_cache: false,
        }
    }

    /// Render the top-`k` rows (ties included) as `name (score)` lines,
    /// naming each tuple of `relation` by its `attr` value — handy for
    /// examples and CLIs.
    pub fn render_top(
        &self,
        relation: &Relation,
        attr: &str,
        k: usize,
    ) -> Result<String, CoreError> {
        let a = relation.schema().require_attr(attr)?;
        let mut out = String::new();
        for e in self.results.top_k_with_ties(k) {
            let name = relation.tuple(e.tuple_index).value(a);
            out.push_str(&format!("{name} ({:.2})\n", e.score));
        }
        Ok(out)
    }

    /// Cells accessed by context resolution for this answer (0 when the
    /// answer came from the cache).
    pub fn cells(&self) -> u64 {
        self.resolutions.iter().map(|r| r.cells).sum()
    }

    /// True iff no query state found any applicable preference — the
    /// query proceeds as a normal non-contextual query (Section 4.2).
    /// Cached answers report `false` (they were contextual when
    /// computed).
    pub fn is_non_contextual(&self) -> bool {
        !self.from_cache
            && self
                .resolutions
                .iter()
                .all(|r| r.outcome == ctxpref_resolve::MatchOutcome::NoMatch)
    }
}

/// Builder for [`ContextualDb`].
#[derive(Debug, Default)]
pub struct ContextualDbBuilder {
    env: Option<ContextEnvironment>,
    relation: Option<Relation>,
    order: Option<ParamOrder>,
    cache_capacity: usize,
    defaults: QueryOptions,
}

impl ContextualDbBuilder {
    #[must_use]
    /// The context environment (required).
    pub fn env(mut self, env: ContextEnvironment) -> Self {
        self.env = Some(env);
        self
    }

    #[must_use]
    /// The database relation (required).
    pub fn relation(mut self, relation: Relation) -> Self {
        self.relation = Some(relation);
        self
    }

    /// Parameter-to-level assignment of the profile tree. Defaults to
    /// the paper's space heuristic (ascending domain size).
    #[must_use]
    pub fn order(mut self, order: ParamOrder) -> Self {
        self.order = Some(order);
        self
    }

    /// Capacity of the context query tree; 0 (default) disables caching.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Default query options.
    #[must_use]
    pub fn defaults(mut self, defaults: QueryOptions) -> Self {
        self.defaults = defaults;
        self
    }

    /// Assemble the database.
    pub fn build(self) -> Result<ContextualDb, CoreError> {
        let env = self.env.ok_or(CoreError::MissingEnvironment)?;
        let relation = self.relation.ok_or(CoreError::MissingRelation)?;
        let order = self
            .order
            .unwrap_or_else(|| ParamOrder::by_ascending_domain(&env));
        let indexed = IndexedProfile::new(Profile::new(env.clone()), order)?;
        let cache = (self.cache_capacity > 0)
            .then(|| ContextQueryTree::new(env.clone(), self.cache_capacity));
        Ok(ContextualDb {
            env,
            relation,
            indexed,
            cache,
            defaults: self.defaults,
        })
    }
}

/// A context-aware preference database system (the paper's overall
/// system): relation + profile + profile tree + resolution + query
/// result cache.
#[derive(Debug)]
pub struct ContextualDb {
    env: ContextEnvironment,
    relation: Relation,
    indexed: IndexedProfile,
    cache: Option<ContextQueryTree>,
    defaults: QueryOptions,
}

impl ContextualDb {
    /// Start building a database.
    pub fn builder() -> ContextualDbBuilder {
        ContextualDbBuilder::default()
    }

    /// The context environment.
    pub fn env(&self) -> &ContextEnvironment {
        &self.env
    }

    /// The underlying relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// Mutable access to the relation (invalidates cached rankings).
    pub fn relation_mut(&mut self) -> &mut Relation {
        // Database updates do not affect stored preferences, but they do
        // invalidate cached rankings.
        self.invalidate_cache();
        &mut self.relation
    }

    fn invalidate_cache(&self) {
        if let Some(c) = &self.cache {
            c.invalidate_all();
        }
    }

    /// The logical profile.
    pub fn profile(&self) -> &Profile {
        self.indexed.profile()
    }

    /// The profile tree index.
    pub fn tree(&self) -> &ProfileTree {
        self.indexed.tree()
    }

    /// Size statistics of the profile tree.
    pub fn tree_stats(&self) -> TreeStats {
        self.indexed.tree().stats()
    }

    /// Hit/miss statistics of the context query tree, if enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Capacity of the context query tree; 0 when caching is disabled.
    pub fn cache_capacity(&self) -> usize {
        self.cache.as_ref().map(|c| c.capacity()).unwrap_or(0)
    }

    /// Insert a contextual preference. Conflicts (Definition 6) are
    /// detected by the profile tree on insertion and reported to the
    /// caller; the cache is invalidated on success.
    pub fn insert_preference(&mut self, pref: ContextualPreference) -> Result<(), CoreError> {
        self.indexed.insert(pref)?;
        self.invalidate_cache();
        Ok(())
    }

    /// Convenience: insert `descriptor ⇒ attr = value, score` with the
    /// descriptor in textual form, e.g.
    /// `insert_preference_eq("location = Plaka and temperature = warm",
    /// "name", "Acropolis".into(), 0.8)`.
    pub fn insert_preference_eq(
        &mut self,
        descriptor: &str,
        attr: &str,
        value: Value,
        score: f64,
    ) -> Result<(), CoreError> {
        self.insert_preference_cmp(descriptor, attr, CompareOp::Eq, value, score)
    }

    /// Like [`Self::insert_preference_eq`] with an arbitrary θ operator.
    pub fn insert_preference_cmp(
        &mut self,
        descriptor: &str,
        attr: &str,
        op: CompareOp,
        value: Value,
        score: f64,
    ) -> Result<(), CoreError> {
        self.insert_preference(preference_from_parts(
            &self.env,
            &self.relation,
            descriptor,
            attr,
            op,
            value,
            score,
        )?)
    }

    /// Remove the preference at `index` (as listed by
    /// [`Profile::preferences`]), pruning only the tree paths it alone
    /// contributed.
    pub fn remove_preference(&mut self, index: usize) -> Result<ContextualPreference, CoreError> {
        let removed = self.indexed.remove(index)?;
        self.invalidate_cache();
        Ok(removed)
    }

    /// Update the score of the preference at `index`, checking the new
    /// score against the rest of the profile (Definition 6).
    pub fn update_preference_score(&mut self, index: usize, score: f64) -> Result<(), CoreError> {
        if self.indexed.rescore(index, score)?.is_some() {
            self.invalidate_cache();
        }
        Ok(())
    }

    /// Query under the *implicit* current context — a single context
    /// state (Section 4.1) — with the default options.
    pub fn query_state(&self, state: &ContextState) -> Result<QueryAnswer, CoreError> {
        self.query_state_with(state, self.defaults)
    }

    /// Query under a single context state with explicit options. This
    /// is the only entry point the context query tree accelerates: the
    /// cache is keyed by exact context state.
    pub fn query_state_with(
        &self,
        state: &ContextState,
        opts: QueryOptions,
    ) -> Result<QueryAnswer, CoreError> {
        // The context query tree is keyed by context state only, so a
        // cached ranking is valid only for one (distance, tie, combiner)
        // configuration: the database's defaults. Other configurations
        // bypass the cache rather than risk serving results computed
        // under different semantics.
        let cacheable = opts.use_cache
            && opts.distance == self.defaults.distance
            && opts.tie == self.defaults.tie
            && opts.combiner == self.defaults.combiner
            && opts.top_k == self.defaults.top_k;
        if cacheable {
            if let Some(cache) = &self.cache {
                if let Some(hit) = cache.get(state) {
                    return Ok(QueryAnswer {
                        results: hit,
                        resolutions: Vec::new(),
                        from_cache: true,
                    });
                }
            }
        }
        let q = rank_cs_state(
            self.indexed.tree(),
            &self.relation,
            state,
            opts.distance,
            opts.tie,
            opts.combiner,
            opts.top_k.filter(|&k| k > 0),
        );
        let answer = QueryAnswer::resolved(q);
        if cacheable {
            if let Some(cache) = &self.cache {
                cache.insert(state, Arc::clone(&answer.results));
            }
        }
        Ok(answer)
    }

    /// Query with an explicit extended context descriptor (exploratory
    /// queries, Definition 9), default options.
    pub fn query(&self, ecod: &ExtendedContextDescriptor) -> Result<QueryAnswer, CoreError> {
        self.run(ecod, self.defaults)
    }

    /// Query with explicit options.
    pub fn query_with(
        &self,
        ecod: &ExtendedContextDescriptor,
        opts: QueryOptions,
    ) -> Result<QueryAnswer, CoreError> {
        self.run(ecod, opts)
    }

    /// Parse and run a textual extended descriptor, e.g.
    /// `db.query_str("(location = Athens and temperature = good) or
    /// (location = Ioannina)")`.
    pub fn query_str(&self, descriptor: &str) -> Result<QueryAnswer, CoreError> {
        let ecod = parse_extended_descriptor(&self.env, descriptor)?;
        self.run(&ecod, self.defaults)
    }

    fn run(
        &self,
        ecod: &ExtendedContextDescriptor,
        opts: QueryOptions,
    ) -> Result<QueryAnswer, CoreError> {
        let tree = self.indexed.tree();
        let q = match opts.top_k {
            Some(k) => ctxpref_resolve::rank_cs_topk(
                tree,
                &self.relation,
                ecod,
                opts.distance,
                opts.tie,
                opts.combiner,
                k,
            )?,
            None => rank_cs(
                tree,
                &self.relation,
                ecod,
                opts.distance,
                opts.tie,
                opts.combiner,
            )?,
        };
        Ok(QueryAnswer::resolved(q))
    }

    /// Render the top-`k` answer (ties included) as `name (score)` lines
    /// using the given display attribute — see
    /// [`QueryAnswer::render_top`].
    pub fn render_top(
        &self,
        answer: &QueryAnswer,
        attr: &str,
        k: usize,
    ) -> Result<String, CoreError> {
        answer.render_top(&self.relation, attr, k)
    }
}

/// Build the preference `descriptor ⇒ attr θ value, score` from its
/// textual parts, validated against `env` and `relation`'s schema — the
/// one place the `insert_preference_eq`/`_cmp` conveniences of every
/// database type (and the serving layer, which must hold the value
/// before it can log it) turn text into a [`ContextualPreference`].
pub fn preference_from_parts(
    env: &ContextEnvironment,
    relation: &Relation,
    descriptor: &str,
    attr: &str,
    op: CompareOp,
    value: Value,
    score: f64,
) -> Result<ContextualPreference, CoreError> {
    let cod = parse_descriptor(env, descriptor)?;
    let clause = AttributeClause::new(relation.schema().require_attr(attr)?, op, value);
    Ok(ContextualPreference::new(cod, clause, score)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder};
    use ctxpref_relation::{AttrType, Schema};

    fn env() -> ContextEnvironment {
        let mut w = HierarchyBuilder::new("weather", &["Conditions", "Char"]);
        w.add("Char", "bad", None).unwrap();
        w.add("Char", "good", None).unwrap();
        w.add_leaves("bad", &["cold"]).unwrap();
        w.add_leaves("good", &["warm", "hot"]).unwrap();
        ContextEnvironment::new(vec![
            w.build().unwrap(),
            Hierarchy::flat("company", &["friends", "family"]).unwrap(),
        ])
        .unwrap()
    }

    fn relation() -> Relation {
        let schema = Schema::new(&[("name", AttrType::Str), ("type", AttrType::Str)]).unwrap();
        let mut rel = Relation::new("poi", schema);
        for (n, t) in [
            ("Acropolis", "monument"),
            ("Benaki", "museum"),
            ("Mikro", "brewery"),
            ("Attica Zoo", "zoo"),
        ] {
            rel.insert(vec![n.into(), t.into()]).unwrap();
        }
        rel
    }

    fn db() -> ContextualDb {
        let mut db = ContextualDb::builder()
            .env(env())
            .relation(relation())
            .cache_capacity(16)
            .build()
            .unwrap();
        db.insert_preference_eq("weather = warm", "name", "Acropolis".into(), 0.8)
            .unwrap();
        db.insert_preference_eq("weather = bad", "type", "museum".into(), 0.7)
            .unwrap();
        db.insert_preference_eq("company = friends", "type", "brewery".into(), 0.9)
            .unwrap();
        db
    }

    #[test]
    fn builder_requires_env_and_relation() {
        assert!(matches!(
            ContextualDb::builder()
                .relation(relation())
                .build()
                .unwrap_err(),
            CoreError::MissingEnvironment
        ));
        assert!(matches!(
            ContextualDb::builder().env(env()).build().unwrap_err(),
            CoreError::MissingRelation
        ));
    }

    #[test]
    fn end_to_end_query() {
        let db = db();
        let s = ContextState::parse(db.env(), &["warm", "friends"]).unwrap();
        let a = db.query_state(&s).unwrap();
        assert!(!a.from_cache);
        assert!(a.cells() > 0);
        // The closest covering state is (warm, all) at distance 1 — the
        // friends preference sits at distance 2 and is not applied.
        let rendered = db.render_top(&a, "name", 5).unwrap();
        assert_eq!(rendered, "Acropolis (0.80)\n");
        // (cold, friends) ties (bad, all) and (all, friends) at
        // distance 2 → both applied: brewery 0.9 over museum 0.7.
        let s2 = ContextState::parse(db.env(), &["cold", "friends"]).unwrap();
        let a2 = db.query_state(&s2).unwrap();
        let rendered2 = db.render_top(&a2, "name", 5).unwrap();
        assert!(rendered2.starts_with("Mikro (0.90)"));
        assert!(rendered2.contains("Benaki (0.70)"));
    }

    #[test]
    fn cache_round_trip() {
        let mut db = db();
        let s = ContextState::parse(db.env(), &["warm", "friends"]).unwrap();
        let a1 = db.query_state_with(&s, QueryOptions::cached()).unwrap();
        assert!(!a1.from_cache);
        let a2 = db.query_state_with(&s, QueryOptions::cached()).unwrap();
        assert!(a2.from_cache);
        assert_eq!(a1.results.entries(), a2.results.entries());
        assert_eq!(a2.cells(), 0);
        // Profile change invalidates.
        db.insert_preference_eq("weather = hot", "type", "zoo".into(), 0.5)
            .unwrap();
        let a3 = db.query_state_with(&s, QueryOptions::cached()).unwrap();
        assert!(!a3.from_cache);
        let stats = db.cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert!(stats.invalidations >= 1);
    }

    #[test]
    fn conflicting_insert_is_rejected() {
        let mut db = db();
        let err = db
            .insert_preference_eq("weather = warm", "name", "Acropolis".into(), 0.1)
            .unwrap_err();
        assert!(matches!(err, CoreError::Profile(_)));
        // State unchanged: the old preference still wins.
        let s = ContextState::parse(db.env(), &["warm", "family"]).unwrap();
        let a = db.query_state(&s).unwrap();
        assert_eq!(a.results.entries()[0].score, 0.8);
    }

    #[test]
    fn remove_and_update_rebuild() {
        let mut db = db();
        assert!(matches!(
            db.remove_preference(99).unwrap_err(),
            CoreError::Profile(ctxpref_profile::ProfileError::NoSuchPreference(99))
        ));
        db.update_preference_score(0, 0.55).unwrap();
        let s = ContextState::parse(db.env(), &["warm", "family"]).unwrap();
        let a = db.query_state(&s).unwrap();
        assert_eq!(a.results.entries()[0].score, 0.55);
        let removed = db.remove_preference(0).unwrap();
        assert_eq!(removed.score(), 0.55);
        let a2 = db.query_state(&s).unwrap();
        assert!(a2.results.is_empty() || a2.results.entries()[0].score != 0.55);
    }

    #[test]
    fn exploratory_query_str() {
        let db = db();
        let a = db
            .query_str("(weather = warm and company = friends) or (weather = cold)")
            .unwrap();
        assert_eq!(a.resolutions.len(), 2);
        assert!(!a.results.is_empty());
        // Cold resolves through (bad, all): museum at 0.7 included.
        let rendered = db.render_top(&a, "name", 10).unwrap();
        assert!(rendered.contains("Benaki"));
    }

    #[test]
    fn jaccard_options_work() {
        let db = db();
        let s = ContextState::parse(db.env(), &["hot", "family"]).unwrap();
        let a = db.query_state_with(&s, QueryOptions::jaccard()).unwrap();
        // Covered by (good→warm? no — warm ≠ hot) … (warm) does not
        // cover hot; only (bad, all) doesn't either. friends pref is
        // (all, friends), doesn't cover family. So: no match.
        assert!(a.results.is_empty());
        assert!(a.resolutions[0].outcome == ctxpref_resolve::MatchOutcome::NoMatch);
    }

    #[test]
    fn top_k_option_truncates_consistently() {
        let db = db();
        let s = ContextState::parse(db.env(), &["cold", "friends"]).unwrap();
        let full = db.query_state(&s).unwrap();
        let top1 = db
            .query_state_with(
                &s,
                QueryOptions {
                    top_k: Some(1),
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert_eq!(
            full.results.top_k_with_ties(1),
            top1.results.entries(),
            "top-k answer equals the full ranking's prefix"
        );
        assert!(top1.results.len() <= full.results.len());
    }

    #[test]
    fn non_default_options_bypass_the_cache() {
        let db = db();
        let s = ContextState::parse(db.env(), &["warm", "friends"]).unwrap();
        // Warm the cache under default options.
        let _ = db.query_state_with(&s, QueryOptions::cached()).unwrap();
        // A Jaccard query must not be served from the Hierarchy-keyed
        // cache (and must not pollute it either).
        let j = db
            .query_state_with(
                &s,
                QueryOptions {
                    use_cache: true,
                    ..QueryOptions::jaccard()
                },
            )
            .unwrap();
        assert!(!j.from_cache);
        let again = db.query_state_with(&s, QueryOptions::cached()).unwrap();
        assert!(again.from_cache);
    }

    #[test]
    fn relation_mut_invalidates_cache() {
        let mut db = db();
        let s = ContextState::parse(db.env(), &["cold", "friends"]).unwrap();
        let _ = db.query_state_with(&s, QueryOptions::cached()).unwrap();
        db.relation_mut()
            .insert(vec!["New".into(), "brewery".into()])
            .unwrap();
        let a = db.query_state_with(&s, QueryOptions::cached()).unwrap();
        assert!(!a.from_cache);
        // And the new brewery is ranked.
        let rendered = db.render_top(&a, "name", 5).unwrap();
        assert!(rendered.contains("New"));
    }
}
