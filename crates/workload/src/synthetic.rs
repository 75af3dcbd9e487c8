//! Synthetic profiles and query workloads (Section 5.2).
//!
//! The paper's synthetic profiles have three context parameters with
//! domain cardinalities 50 / 100 / 1000 (2 / 3 / 3 hierarchy levels),
//! 500–10000 preferences, and context values drawn uniformly or from a
//! Zipf distribution (α = 1.5, with Figure 6 right sweeping α for one
//! parameter). Queries mix values from different hierarchy levels.

use ctxpref_context::{ClauseRef, ContextEnvironment, ContextState, CtxValue, DescriptorBuilder};
use ctxpref_hierarchy::{Hierarchy, LevelId};
use ctxpref_profile::{AttributeClause, ContextualPreference, Profile};
use ctxpref_relation::AttrId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{deterministic_score, Zipf};

/// Distribution of the context values of one parameter across
/// generated preferences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueDist {
    /// Uniform over the detailed domain.
    Uniform,
    /// Zipf with exponent `a` over the detailed domain (rank 0 = first
    /// domain value). `Zipf(0.0)` equals `Uniform`.
    Zipf(f64),
}

impl ValueDist {
    fn sampler(self, n: usize) -> Zipf {
        match self {
            Self::Uniform => Zipf::new(n, 0.0),
            Self::Zipf(a) => Zipf::new(n, a),
        }
    }
}

/// Specification of a synthetic workload.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Per-parameter hierarchy shapes, bottom-up level sizes excluding
    /// `ALL` — e.g. `[50]` = 2 levels, `[100, 10]` = 3 levels.
    pub domains: Vec<Vec<usize>>,
    /// Per-parameter value distributions.
    pub dists: Vec<ValueDist>,
    /// Number of preferences to generate.
    pub num_prefs: usize,
    /// Number of distinct attribute values used in clauses.
    pub clause_values: usize,
    /// RNG seed (everything is deterministic in it).
    pub seed: u64,
}

impl SyntheticSpec {
    /// The paper's standard shape: domains 50 (2 levels) / 100 (3) /
    /// 1000 (3) — declared in ascending-domain order so that
    /// "order 1" = (50, 100, 1000) matches the paper's numbering.
    pub fn paper_standard(num_prefs: usize, dist: ValueDist, seed: u64) -> Self {
        Self {
            domains: vec![vec![50], vec![100, 10], vec![1000, 100]],
            dists: vec![dist; 3],
            num_prefs,
            clause_values: 100,
            seed,
        }
    }

    /// Build the context environment (parameters named `c1`, `c2`, …).
    pub fn build_env(&self) -> ContextEnvironment {
        assert_eq!(
            self.domains.len(),
            self.dists.len(),
            "one distribution per parameter"
        );
        let hierarchies: Vec<Hierarchy> = self
            .domains
            .iter()
            .enumerate()
            .map(|(i, sizes)| {
                Hierarchy::balanced(&format!("c{}", i + 1), sizes)
                    .expect("synthetic domain shapes are valid")
            })
            .collect();
        ContextEnvironment::new(hierarchies).unwrap()
    }

    /// Generate the profile: `num_prefs` preferences whose descriptors
    /// pin every parameter to a detailed-level value drawn from its
    /// distribution. Scores are a deterministic function of
    /// (state, clause), so profiles are conflict-free by construction.
    /// Duplicate (state, clause) pairs are kept — the paper counts
    /// *preferences*, and duplicates model users restating preferences
    /// (stores deduplicate them physically).
    pub fn build_profile(&self, env: &ContextEnvironment) -> Profile {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let samplers: Vec<Zipf> = env
            .iter()
            .zip(&self.dists)
            .map(|((_, h), d)| d.sampler(h.domain_size(h.detailed_level())))
            .collect();
        let mut profile = Profile::new(env.clone());
        for _ in 0..self.num_prefs {
            let mut clauses = DescriptorBuilder::with_capacity(env.len());
            let mut key: Vec<u32> = Vec::with_capacity(env.len() + 1);
            for ((p, h), z) in env.iter().zip(&samplers) {
                let v = h.domain(h.detailed_level())[z.sample(&mut rng)];
                clauses.push(p, ClauseRef::Eq(v));
                key.push(v.0);
            }
            let cod = clauses.build();
            let cv = rng.random_range(0..self.clause_values.max(1)) as u32;
            key.push(cv);
            let clause = AttributeClause::eq(AttrId(0), format!("v{cv}").into());
            let score = deterministic_score(&key);
            profile.insert_unchecked(
                ContextualPreference::new(cod, clause, score).expect("score in range"),
            );
        }
        profile
    }
}

impl SyntheticSpec {
    /// Like [`SyntheticSpec::build_profile`], but each drawn context
    /// value is lifted to a random higher hierarchy level with
    /// probability `lift_prob` — producing profiles whose states are
    /// *extended* (mixed-level), the regime in which covering matches
    /// and distance ties occur.
    pub fn build_profile_with_lift(&self, env: &ContextEnvironment, lift_prob: f64) -> Profile {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x11f7);
        let samplers: Vec<Zipf> = env
            .iter()
            .zip(&self.dists)
            .map(|((_, h), d)| d.sampler(h.domain_size(h.detailed_level())))
            .collect();
        let mut profile = Profile::new(env.clone());
        for _ in 0..self.num_prefs {
            let mut clauses = DescriptorBuilder::with_capacity(env.len());
            let mut key: Vec<u32> = Vec::with_capacity(env.len() + 1);
            for ((p, h), z) in env.iter().zip(&samplers) {
                let mut v = h.domain(h.detailed_level())[z.sample(&mut rng)];
                if rng.random::<f64>() < lift_prob && h.level_count() > 1 {
                    let target = rng.random_range(0..h.level_count()) as u8;
                    v = h.anc(v, LevelId(target)).unwrap_or(v);
                }
                clauses.push(p, ClauseRef::Eq(v));
                key.push(v.0);
            }
            let cod = clauses.build();
            let cv = rng.random_range(0..self.clause_values.max(1)) as u32;
            key.push(cv);
            let clause = AttributeClause::eq(AttrId(0), format!("v{cv}").into());
            let score = deterministic_score(&key);
            profile.insert_unchecked(
                ContextualPreference::new(cod, clause, score).expect("score in range"),
            );
        }
        profile
    }
}

/// Draw `k` query states from the states actually stored in `profile`
/// (with repetition) — these resolve as **exact matches**.
pub fn stored_query_states(
    env: &ContextEnvironment,
    profile: &Profile,
    k: usize,
    seed: u64,
) -> Vec<ContextState> {
    let mut states: Vec<ContextState> = Vec::new();
    for pref in profile.iter() {
        if let Ok(ss) = pref.descriptor().states(env) {
            states.extend(ss);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| states[rng.random_range(0..states.len())].clone())
        .collect()
}

/// Draw `k` random query states whose per-parameter values come from
/// mixed hierarchy levels ("context parameters have values from
/// different hierarchy levels"): a detailed value is drawn uniformly,
/// then lifted to a random level with probability `lift_prob` per
/// parameter. These resolve mostly as **non-exact** (covering) matches.
pub fn random_query_states(
    env: &ContextEnvironment,
    k: usize,
    lift_prob: f64,
    seed: u64,
) -> Vec<ContextState> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            let values: Vec<CtxValue> = env
                .iter()
                .map(|(_, h)| {
                    let dom = h.domain(h.detailed_level());
                    let leaf = dom[rng.random_range(0..dom.len())];
                    if rng.random::<f64>() < lift_prob && h.level_count() > 1 {
                        let target = rng.random_range(0..h.level_count()) as u8;
                        h.anc(leaf, LevelId(target)).unwrap_or(leaf)
                    } else {
                        leaf
                    }
                })
                .collect();
            ContextState::from_values_unchecked(values)
        })
        .collect()
}

/// Per-parameter active-domain sizes of a profile (distinct values
/// appearing in its preference descriptors) — the quantity Figure 6
/// (right) shows matters for choosing a tree ordering under skew.
pub fn active_domains(env: &ContextEnvironment, profile: &Profile) -> Vec<usize> {
    let mut distinct: Vec<std::collections::HashSet<CtxValue>> =
        vec![Default::default(); env.len()];
    for pref in profile.iter() {
        if let Ok(sets) = pref.descriptor().value_sets(env) {
            for (i, set) in sets.into_iter().enumerate() {
                distinct[i].extend(set);
            }
        }
    }
    distinct.into_iter().map(|s| s.len()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_profile::{ParamOrder, ProfileTree, SerialStore};

    #[test]
    fn paper_standard_shapes() {
        let spec = SyntheticSpec::paper_standard(500, ValueDist::Uniform, 1);
        let env = spec.build_env();
        let sizes: Vec<usize> = env
            .iter()
            .map(|(_, h)| h.domain_size(h.detailed_level()))
            .collect();
        assert_eq!(sizes, vec![50, 100, 1000]);
        let levels: Vec<usize> = env.iter().map(|(_, h)| h.level_count()).collect();
        assert_eq!(levels, vec![2, 3, 3]);
    }

    #[test]
    fn profiles_build_into_stores_without_conflicts() {
        let spec = SyntheticSpec::paper_standard(500, ValueDist::Zipf(1.5), 2);
        let env = spec.build_env();
        let p = spec.build_profile(&env);
        assert_eq!(p.len(), 500);
        let tree = ProfileTree::from_profile(&p, ParamOrder::by_ascending_domain(&env)).unwrap();
        let serial = SerialStore::from_profile(&p).unwrap();
        assert!(tree.state_count() <= 500);
        assert!(serial.len() <= 500);
    }

    #[test]
    fn zipf_profiles_reuse_more_values_than_uniform() {
        let uni = SyntheticSpec::paper_standard(2000, ValueDist::Uniform, 3);
        let zip = SyntheticSpec::paper_standard(2000, ValueDist::Zipf(1.5), 3);
        let env_u = uni.build_env();
        let env_z = zip.build_env();
        let au = active_domains(&env_u, &uni.build_profile(&env_u));
        let az = active_domains(&env_z, &zip.build_profile(&env_z));
        // The zipf profile touches fewer distinct values of the big domain.
        assert!(az[2] < au[2], "zipf active {az:?} vs uniform {au:?}");
    }

    #[test]
    fn stored_queries_hit_exactly() {
        let spec = SyntheticSpec::paper_standard(300, ValueDist::Uniform, 4);
        let env = spec.build_env();
        let p = spec.build_profile(&env);
        let tree = ProfileTree::from_profile(&p, ParamOrder::by_ascending_domain(&env)).unwrap();
        let queries = stored_query_states(&env, &p, 20, 9);
        let mut counter = ctxpref_profile::AccessCounter::new();
        for q in &queries {
            assert!(tree.exact_lookup(q, &mut counter).is_some());
        }
    }

    #[test]
    fn random_queries_mix_levels() {
        let spec = SyntheticSpec::paper_standard(10, ValueDist::Uniform, 5);
        let env = spec.build_env();
        let queries = random_query_states(&env, 200, 0.5, 11);
        assert_eq!(queries.len(), 200);
        let mut lifted = 0;
        for q in &queries {
            if !q.is_detailed(&env) {
                lifted += 1;
            }
        }
        assert!(
            lifted > 50,
            "about half the states should carry lifted values"
        );
        // Determinism.
        assert_eq!(queries, random_query_states(&env, 200, 0.5, 11));
    }
}
