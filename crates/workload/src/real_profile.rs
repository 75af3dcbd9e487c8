//! A stand-in for the paper's "real profile": 522 preferences over
//! three context parameters — accompanying_people, time, location —
//! whose active domains have 4, 17 and 100 values respectively
//! (Section 5.2, Figure 5).
//!
//! The actual user profile is not published; what Figure 5 measures
//! (profile-tree cells/bytes per parameter ordering vs. serial storage)
//! depends only on those statistics and on the skew of value reuse, so
//! we generate a profile with exactly the published counts and a mild,
//! human-like skew (people mostly file preferences about a handful of
//! places and times).

use ctxpref_context::{ClauseRef, ContextEnvironment, DescriptorBuilder};
use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder};
use ctxpref_profile::{AttributeClause, ContextualPreference, Profile};
use ctxpref_relation::AttrId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::reference::POI_TYPES;
use crate::{deterministic_score, Zipf};

/// Number of preferences in the paper's real profile.
pub const REAL_PROFILE_SIZE: usize = 522;

/// Active domain sizes of (accompanying_people, time, location).
pub const REAL_ACTIVE_DOMAINS: [usize; 3] = [4, 17, 100];

/// The environment of the real profile: `accompanying_people` (4 values,
/// 2 levels), `time` (17 hours grouped into 5 day periods, 3 levels),
/// `location` (100 regions grouped into 10 cities, 3 levels).
pub fn real_profile_env() -> ContextEnvironment {
    let people = Hierarchy::flat(
        "accompanying_people",
        &["friends", "family", "alone", "colleagues"],
    )
    .unwrap();

    let mut time = HierarchyBuilder::new("time", &["Hour", "Period"]);
    let periods: [(&str, &[&str]); 5] = [
        ("morning", &["h07", "h08", "h09", "h10"]),
        ("noon", &["h11", "h12", "h13"]),
        ("afternoon", &["h14", "h15", "h16", "h17"]),
        ("evening", &["h18", "h19", "h20", "h21"]),
        ("night", &["h22", "h23"]),
    ];
    for (period, hours) in periods {
        time.add("Period", period, None).unwrap();
        time.add_leaves(period, hours).unwrap();
    }

    let mut loc = HierarchyBuilder::new("location", &["Region", "City"]);
    for city in 0..10 {
        let city_name = format!("city{city}");
        loc.add("City", &city_name, None).unwrap();
        for region in 0..10 {
            loc.add(
                "Region",
                &format!("region{}", city * 10 + region),
                Some(&city_name),
            )
            .unwrap();
        }
    }

    ContextEnvironment::new(vec![people, time.build().unwrap(), loc.build().unwrap()]).unwrap()
}

/// Generate the 522-preference profile. Deterministic in `seed`.
///
/// Context values are drawn with mild skew (Zipf α = 0.8 over each
/// active domain — humans concentrate on favourite places/times);
/// every preference constrains all three parameters with `=`
/// descriptors, matching the paper's description ("each preference
/// consists of three context values, an attribute name, an attribute
/// value and an interest score"). Scores are derived deterministically
/// from the (state, clause) pair, so the profile is conflict-free by
/// construction.
pub fn real_profile(env: &ContextEnvironment, seed: u64) -> Profile {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut profile = Profile::new(env.clone());
    let samplers: Vec<(ctxpref_context::ParamId, Zipf)> = env
        .iter()
        .map(|(p, h)| (p, Zipf::new(h.domain_size(h.detailed_level()), 0.8)))
        .collect();

    let mut seen = std::collections::HashSet::new();
    while profile.len() < REAL_PROFILE_SIZE {
        let mut clauses = DescriptorBuilder::with_capacity(samplers.len());
        let mut key: Vec<u32> = Vec::with_capacity(env.len() + 1);
        for (p, z) in &samplers {
            let h = env.hierarchy(*p);
            let v = h.domain(h.detailed_level())[z.sample(&mut rng)];
            clauses.push(*p, ClauseRef::Eq(v));
            key.push(v.0);
        }
        let cod = clauses.build();
        let ty = rng.random_range(0..POI_TYPES.len());
        key.push(ty as u32);
        if !seen.insert(key.clone()) {
            continue; // exact duplicate (state, clause) — redraw
        }
        let clause = AttributeClause::eq(AttrId(2), POI_TYPES[ty].into());
        let score = deterministic_score(&key);
        let pref = ContextualPreference::new(cod, clause, score)
            .expect("deterministic scores are within [0, 1]");
        profile.insert_unchecked(pref);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_profile::{ParamOrder, ProfileTree, SerialStore};

    #[test]
    fn env_has_published_domain_sizes() {
        let env = real_profile_env();
        let sizes: Vec<usize> = env
            .iter()
            .map(|(_, h)| h.domain_size(h.detailed_level()))
            .collect();
        assert_eq!(sizes, REAL_ACTIVE_DOMAINS.to_vec());
        // Level counts: 2, 3, 3 (including ALL).
        let levels: Vec<usize> = env.iter().map(|(_, h)| h.level_count()).collect();
        assert_eq!(levels, vec![2, 3, 3]);
    }

    #[test]
    fn profile_has_522_conflict_free_preferences() {
        let env = real_profile_env();
        let p = real_profile(&env, 1);
        assert_eq!(p.len(), REAL_PROFILE_SIZE);
        // Conflict-free: building the tree (which detects conflicts on
        // insertion) must succeed.
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        assert!(tree.state_count() > 0);
        let serial = SerialStore::from_profile(&p).unwrap();
        assert_eq!(serial.len(), REAL_PROFILE_SIZE);
    }

    #[test]
    fn profile_is_deterministic_per_seed() {
        let env = real_profile_env();
        let a = real_profile(&env, 3);
        let b = real_profile(&env, 3);
        assert_eq!(a.preferences().len(), b.preferences().len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.score(), y.score());
            assert_eq!(x.clause(), y.clause());
        }
        let c = real_profile(&env, 4);
        let same = a.iter().zip(c.iter()).all(|(x, y)| x == y);
        assert!(!same, "different seeds should differ");
    }

    #[test]
    fn value_reuse_is_skewed() {
        // The hottest location value should appear in far more than
        // 522/100 preferences.
        let env = real_profile_env();
        let p = real_profile(&env, 1);
        let loc = env.param("location").unwrap();
        let mut counts = std::collections::HashMap::new();
        for pref in p.iter() {
            let sets = pref.descriptor().value_sets(&env).unwrap();
            *counts.entry(sets[loc.index()][0]).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(
            max > 522 / 100 * 3,
            "expected skewed reuse, max count {max}"
        );
    }
}
