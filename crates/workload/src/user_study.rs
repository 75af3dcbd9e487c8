//! A simulated re-run of the paper's usability study (Section 5.1,
//! Table 1).
//!
//! The original study put 10 first-time users in front of the system:
//! each was assigned one of 12 **default profiles** keyed by (age, sex,
//! taste), modified it (12–38 edits, 15–45 minutes), then manually
//! ranked the results of contextual queries; Table 1 reports the
//! percentage of system-returned top-20 results the user agreed with,
//! for exact-match / one-cover / multi-cover resolution (the last under
//! both the Hierarchy and the Jaccard distance).
//!
//! Humans are not available here, so each user is simulated (see
//! `DESIGN.md` §4):
//!
//! * a user has a hidden **true taste**: the default profile of their
//!   demographic perturbed by a personal per-type delta;
//! * profile editing moves the default toward the truth, one edit at a
//!   time — users who edit more end up with profiles closer to their
//!   truth (reproducing the paper's observation that meticulous users
//!   got better results);
//! * "manual ranking" scores each tuple with the user's true taste plus
//!   bounded noise (reproducing the paper's observation that users do
//!   not perfectly conform even to their own preferences);
//! * agreement is computed exactly as in the paper: the fraction of the
//!   system's top-20 (ties included) present in the user's top-20.

use std::collections::HashMap;

use ctxpref_context::{
    ClauseRef, ContextEnvironment, ContextState, CtxValue, DescriptorBuilder, DistanceKind,
};
use ctxpref_profile::{AttributeClause, ContextualPreference, ParamOrder, Profile, ProfileTree};
use ctxpref_relation::{RankedResults, Relation, ScoreCombiner, ScoredTuple};
use ctxpref_resolve::{rank_cs, ContextResolver, TieBreak};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::reference::{is_open_air, poi_env, poi_relation, POI_TYPES};

/// How a query's implicit current context is written as a descriptor.
pub use ctxpref_context::descriptor_of_state;

/// Age bands of the default-profile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgeBand {
    /// Younger than 30.
    Under30,
    /// Between 30 and 50.
    Between30And50,
    /// Older than 50.
    Over50,
}

/// Sex of the default-profile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sex {
    /// Male.
    Male,
    /// Female.
    Female,
}

/// Taste of the default-profile grid ("broadly categorized as
/// mainstream or out-of-the-beaten-track").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Taste {
    /// Broadly popular destinations.
    Mainstream,
    /// Out-of-the-beaten-track destinations.
    OffBeatenTrack,
}

/// One cell of the 3 × 2 × 2 default-profile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Demographics {
    /// Age band.
    pub age: AgeBand,
    /// Sex.
    pub sex: Sex,
    /// Taste category.
    pub taste: Taste,
}

/// All 12 demographic cells, in a fixed order.
pub fn all_demographics() -> Vec<Demographics> {
    let mut out = Vec::with_capacity(12);
    for age in [AgeBand::Under30, AgeBand::Between30And50, AgeBand::Over50] {
        for sex in [Sex::Male, Sex::Female] {
            for taste in [Taste::Mainstream, Taste::OffBeatenTrack] {
                out.push(Demographics { age, sex, taste });
            }
        }
    }
    out
}

/// Internal preference key: which (weather, company, city, poi-type)
/// combination a preference speaks about. Using a key-value map keeps
/// simulated profiles conflict-free by construction (one score per
/// combination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct PrefKey {
    /// Weather characterization value (`bad` / `good`), or `None` = all.
    weather: Option<CtxValue>,
    /// Accompanying-people value, or `None` = all.
    company: Option<CtxValue>,
    /// City value, or `None` = all.
    city: Option<CtxValue>,
    /// Index into [`POI_TYPES`].
    ty: usize,
}

/// Base interest of `taste` in a POI type, before context modulation.
fn base_interest(taste: Taste, ty: &str) -> f64 {
    let mainstream = match ty {
        "museum" => 0.75,
        "monument" => 0.80,
        "archaeological_site" => 0.70,
        "zoo" => 0.70,
        "park" => 0.65,
        "beach" => 0.70,
        "cafeteria" => 0.60,
        "brewery" => 0.45,
        "club" => 0.35,
        "theater" => 0.65,
        "market" => 0.50,
        "aquarium" => 0.65,
        _ => 0.50,
    };
    match taste {
        Taste::Mainstream => mainstream,
        // Off-the-beaten-track users invert the popularity gradient.
        Taste::OffBeatenTrack => match ty {
            "brewery" => 0.80,
            "club" => 0.70,
            "market" => 0.75,
            "cafeteria" => 0.65,
            "monument" => 0.45,
            "museum" => 0.50,
            "zoo" => 0.40,
            _ => mainstream * 0.9,
        },
    }
}

/// Demographic adjustment of the base interest.
fn demographic_delta(demo: Demographics, ty: &str) -> f64 {
    let age = match (demo.age, ty) {
        (AgeBand::Under30, "club" | "brewery" | "beach") => 0.15,
        (AgeBand::Under30, "museum" | "theater") => -0.10,
        (AgeBand::Over50, "museum" | "theater" | "archaeological_site") => 0.15,
        (AgeBand::Over50, "club") => -0.30,
        (AgeBand::Over50, "brewery") => -0.10,
        _ => 0.0,
    };
    let sex = match (demo.sex, ty) {
        (Sex::Female, "theater" | "market") => 0.05,
        (Sex::Male, "brewery" | "monument") => 0.05,
        _ => 0.0,
    };
    age + sex
}

/// Context modulation: good weather favours open-air POIs, company
/// shifts venue types (the paper's museum-vs-brewery example).
fn context_delta(ty: &str, weather: Option<&str>, company: Option<&str>) -> f64 {
    let mut d = 0.0;
    match weather {
        Some("good") if is_open_air(ty) => d += 0.15,
        Some("bad") => {
            if is_open_air(ty) {
                d -= 0.25;
            } else {
                d += 0.10;
            }
        }
        _ => {}
    }
    match company {
        Some("friends") => {
            if matches!(ty, "brewery" | "club" | "cafeteria") {
                d += 0.10;
            }
        }
        Some("family") => {
            if matches!(ty, "zoo" | "park" | "aquarium") {
                d += 0.15;
            }
            if ty == "club" {
                d -= 0.30;
            }
        }
        Some("alone") => {
            if matches!(ty, "museum" | "theater") {
                d += 0.10;
            }
        }
        _ => {}
    }
    d
}

fn clamp_score(s: f64) -> f64 {
    (s.clamp(0.05, 0.95) * 100.0).round() / 100.0
}

/// The default-profile score for one preference key.
fn default_score(demo: Demographics, key: PrefKey, env: &ContextEnvironment) -> f64 {
    let ty = POI_TYPES[key.ty];
    let wh = env.hierarchy(env.param("temperature").unwrap());
    let ph = env.hierarchy(env.param("accompanying_people").unwrap());
    let weather = key.weather.map(|v| wh.value_name(v));
    let company = key.company.map(|v| ph.value_name(v));
    clamp_score(
        base_interest(demo.taste, ty)
            + demographic_delta(demo, ty)
            + context_delta(ty, weather, company),
    )
}

/// The 12 default profiles are key → score maps over the grid of
/// (weather characterization × company × type), plus a handful of
/// city-scoped preferences.
fn default_pref_map(env: &ContextEnvironment, demo: Demographics) -> HashMap<PrefKey, f64> {
    let wh = env.hierarchy(env.param("temperature").unwrap());
    let ph = env.hierarchy(env.param("accompanying_people").unwrap());
    let lh = env.hierarchy(env.param("location").unwrap());
    let char_level = wh.level_by_name("Characterization").unwrap();
    let mut map = HashMap::new();
    for &weather in wh.domain(char_level) {
        for &company in ph.domain(ph.detailed_level()) {
            for ty in 0..POI_TYPES.len() {
                let key = PrefKey {
                    weather: Some(weather),
                    company: Some(company),
                    city: None,
                    ty,
                };
                let score = default_score(demo, key, env);
                // Users only record non-neutral interests; keeping the
                // grid sparse is also what makes the three Table 1
                // resolution cases (exact / one cover / more covers)
                // all non-empty.
                if (score - 0.5).abs() >= 0.06 {
                    map.insert(key, score);
                }
            }
        }
    }
    // City-scoped flavour for the two study cities only — regions of
    // other cities are then covered by exactly one stored state.
    let city_level = lh.level_by_name("City").unwrap();
    for &city in lh.domain(city_level) {
        let name = lh.value_name(city);
        if name != "Athens" && name != "Thessaloniki" {
            continue;
        }
        for ty_name in ["museum", "brewery", "monument"] {
            let ty = POI_TYPES.iter().position(|t| *t == ty_name).unwrap();
            let key = PrefKey {
                weather: None,
                company: None,
                city: Some(city),
                ty,
            };
            map.insert(key, default_score(demo, key, env));
        }
    }
    map
}

/// Materialize a key → score map as a [`Profile`].
fn to_profile(env: &ContextEnvironment, map: &HashMap<PrefKey, f64>, rel: &Relation) -> Profile {
    let ty_attr = rel.schema().attr("type").unwrap();
    let loc_p = env.param("location").unwrap();
    let wth_p = env.param("temperature").unwrap();
    let ppl_p = env.param("accompanying_people").unwrap();
    let mut profile = Profile::new(env.clone());
    // Sort for determinism: HashMap iteration order varies per process.
    let mut entries: Vec<(&PrefKey, &f64)> = map.iter().collect();
    entries.sort_by_key(|(k, _)| **k);
    for (key, &score) in entries {
        let pinned = [
            (wth_p, key.weather),
            (ppl_p, key.company),
            (loc_p, key.city),
        ];
        let mut clauses =
            DescriptorBuilder::with_capacity(pinned.iter().filter(|(_, v)| v.is_some()).count());
        for (p, v) in pinned {
            if let Some(v) = v {
                clauses.push(p, ClauseRef::Eq(v));
            }
        }
        let cod = clauses.build();
        let clause = AttributeClause::eq(ty_attr, POI_TYPES[key.ty].into());
        profile.insert_unchecked(ContextualPreference::new(cod, clause, score).unwrap());
    }
    profile
}

/// The default profile for one demographic cell, as the paper's users
/// first see it.
pub fn default_profile(env: &ContextEnvironment, rel: &Relation, demo: Demographics) -> Profile {
    to_profile(env, &default_pref_map(env, demo), rel)
}

/// One simulated user.
#[derive(Debug, Clone)]
pub struct SimulatedUser {
    /// 1-based user number (Table 1 column).
    pub id: usize,
    /// The demographic cell whose default profile the user started from.
    pub demo: Demographics,
    /// Number of profile edits (insertions + deletions + updates).
    pub updates: usize,
    /// Modelled wall-clock minutes spent on profile specification.
    pub minutes: u32,
    /// The user's hidden true taste: per-type deltas on the default.
    taste_delta: Vec<f64>,
    /// The edited profile the system will use.
    prefs: HashMap<PrefKey, f64>,
    /// Noise amplitude of the user's manual ranking.
    ranking_noise: f64,
    seed: u64,
}

impl SimulatedUser {
    /// Create user `id` and run their profile-editing session.
    pub fn new(env: &ContextEnvironment, id: usize, demo: Demographics, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9e37_79b9));
        let updates = rng.random_range(12..=38);
        // Update time tracks effort: ≈ 1.2 min per edit ± slack, the
        // published rows range 15–45 minutes for 12–38 edits.
        let minutes = ((updates as f64) * 1.2 + rng.random_range(0.0..6.0)).round() as u32;
        let taste_delta: Vec<f64> = (0..POI_TYPES.len())
            .map(|_| rng.random_range(-0.10..0.10))
            .collect();

        let mut prefs = default_pref_map(env, demo);
        let keys: Vec<PrefKey> = {
            let mut ks: Vec<PrefKey> = prefs.keys().copied().collect();
            ks.sort_by_key(|k| {
                (
                    k.ty,
                    k.weather.map(|v| v.0),
                    k.company.map(|v| v.0),
                    k.city.map(|v| v.0),
                )
            });
            ks
        };
        let me = Self {
            id,
            demo,
            updates,
            minutes,
            taste_delta,
            prefs: HashMap::new(),
            ranking_noise: 0.02 + rng.random_range(0.0..0.04),
            seed,
        };
        // Editing session: each edit snaps one preference to the user's
        // truth (update), or removes/re-adds one (delete + insert count
        // as separate edits, as in the paper's tally).
        let mut edited = prefs.clone();
        for e in 0..updates {
            let k = keys[(e * 7 + id * 3) % keys.len()];
            match e % 5 {
                // Mostly updates…
                0..=2 => {
                    edited.insert(k, clamp_score(me.true_score_for_key(env, k)));
                }
                // …an occasional delete…
                3 => {
                    edited.remove(&k);
                }
                // …and an occasional (re-)insert at the true score.
                _ => {
                    edited.insert(k, clamp_score(me.true_score_for_key(env, k)));
                }
            }
        }
        prefs = edited;
        Self { prefs, ..me }
    }

    /// The user's true interest in one preference key.
    fn true_score_for_key(&self, env: &ContextEnvironment, key: PrefKey) -> f64 {
        default_score(self.demo, key, env) + self.taste_delta[key.ty]
    }

    /// The user's true interest in a POI type under a *detailed* context
    /// state.
    pub fn true_score(&self, env: &ContextEnvironment, state: &ContextState, ty: usize) -> f64 {
        let wh = env.hierarchy(env.param("temperature").unwrap());
        let ph = env.hierarchy(env.param("accompanying_people").unwrap());
        let weather_char = wh.anc(
            state.value(env.param("temperature").unwrap()),
            wh.level_by_name("Characterization").unwrap(),
        );
        let company = state.value(env.param("accompanying_people").unwrap());
        let weather = weather_char.map(|v| wh.value_name(v));
        let company_name = Some(ph.value_name(company));
        clamp_score(
            base_interest(self.demo.taste, POI_TYPES[ty])
                + demographic_delta(self.demo, POI_TYPES[ty])
                + context_delta(POI_TYPES[ty], weather, company_name)
                + self.taste_delta[ty],
        )
    }

    /// The system-side profile after the user's edits.
    pub fn profile(&self, env: &ContextEnvironment, rel: &Relation) -> Profile {
        to_profile(env, &self.prefs, rel)
    }

    /// The user's *internal* score for a POI type under a context
    /// state: their stated preference if they recorded one for the
    /// state's (weather characterization, company) pair, otherwise
    /// their hidden true taste.
    fn internal_score(&self, env: &ContextEnvironment, state: &ContextState, ty: usize) -> f64 {
        let wh = env.hierarchy(env.param("temperature").unwrap());
        let weather = wh.anc(
            state.value(env.param("temperature").unwrap()),
            wh.level_by_name("Characterization").unwrap(),
        );
        let company = Some(state.value(env.param("accompanying_people").unwrap()));
        if let Some(weather) = weather {
            let key = PrefKey {
                weather: Some(weather),
                company,
                city: None,
                ty,
            };
            if let Some(&score) = self.prefs.get(&key) {
                return score;
            }
        }
        self.true_score(env, state, ty)
    }

    /// The user's manual ranking of a contextual query's result set —
    /// the paper's protocol: "users were asked to rank the results of
    /// each contextual query manually". Scores are the user's internal
    /// scores plus bounded personal noise, quantized to a coarse 0.05
    /// grid (humans rate coarsely; the residual noise models the
    /// paper's observation that users "sometimes do not conform even to
    /// their own preferences").
    pub fn manual_ranking(
        &self,
        env: &ContextEnvironment,
        rel: &Relation,
        state: &ContextState,
        result_tuples: &[usize],
    ) -> RankedResults {
        let ty_attr = rel.schema().attr("type").unwrap();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xabcd ^ ((self.id as u64) << 32));
        let raw: Vec<ScoredTuple> = result_tuples
            .iter()
            .map(|&i| {
                let ty_name = rel.tuple(i).value(ty_attr).to_string();
                let ty = POI_TYPES.iter().position(|x| *x == ty_name).unwrap_or(0);
                let noise = rng.random_range(-self.ranking_noise..self.ranking_noise);
                let score = self.internal_score(env, state, ty) + noise;
                ScoredTuple {
                    tuple_index: i,
                    score: (score * 20.0).round() / 20.0,
                }
            })
            .collect();
        RankedResults::from_scores(raw, ScoreCombiner::Max)
    }
}

/// One row of the simulated Table 1.
#[derive(Debug, Clone)]
pub struct UserRow {
    /// 1-based user number.
    pub user: usize,
    /// Profile edits performed (insertions + deletions + updates).
    pub updates: usize,
    /// Modelled minutes spent editing.
    pub minutes: u32,
    /// Agreement (%) when the query state is stored exactly.
    pub exact_pct: f64,
    /// Agreement (%) when exactly one stored state covers the query.
    pub one_cover_pct: f64,
    /// Agreement (%) with > 1 covering states, Hierarchy distance.
    pub multi_hierarchy_pct: f64,
    /// Agreement (%) with > 1 covering states, Jaccard distance.
    pub multi_jaccard_pct: f64,
}

/// The simulated study: ten rows plus the fixed query counts used.
#[derive(Debug, Clone)]
pub struct UserStudyReport {
    /// One row per simulated user.
    pub rows: Vec<UserRow>,
}

impl UserStudyReport {
    /// Mean exact-match agreement (%).
    pub fn mean_exact(&self) -> f64 {
        mean(self.rows.iter().map(|r| r.exact_pct))
    }
    /// Mean one-cover agreement (%).
    pub fn mean_one_cover(&self) -> f64 {
        mean(self.rows.iter().map(|r| r.one_cover_pct))
    }
    /// Mean multi-cover agreement under the Hierarchy distance (%).
    pub fn mean_multi_hierarchy(&self) -> f64 {
        mean(self.rows.iter().map(|r| r.multi_hierarchy_pct))
    }
    /// Mean multi-cover agreement under the Jaccard distance (%).
    pub fn mean_multi_jaccard(&self) -> f64 {
        mean(self.rows.iter().map(|r| r.multi_jaccard_pct))
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = it.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Agreement between the system's and the user's top-20 (ties
/// included): the percentage of system results the user also ranked in
/// their top-20.
pub fn agreement_pct(system: &RankedResults, user: &RankedResults, k: usize) -> f64 {
    let sys = system.top_k_with_ties(k);
    if sys.is_empty() {
        return 100.0;
    }
    let usr: std::collections::HashSet<usize> = user
        .top_k_with_ties(k)
        .iter()
        .map(|e| e.tuple_index)
        .collect();
    let hit = sys.iter().filter(|e| usr.contains(&e.tuple_index)).count();
    hit as f64 / sys.len() as f64 * 100.0
}

/// Classify candidate query states for one user's tree into the three
/// Table 1 cases: exact / one cover / more covers.
fn classify_queries(
    env: &ContextEnvironment,
    tree: &ProfileTree,
    per_class: usize,
    seed: u64,
) -> (Vec<ContextState>, Vec<ContextState>, Vec<ContextState>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let resolver = ContextResolver::new(tree, DistanceKind::Hierarchy, TieBreak::All);
    let mut exact = Vec::new();
    let mut one = Vec::new();
    let mut multi = Vec::new();

    // Exact queries: stored states themselves. Restrict to the
    // (weather, company) pair states — the natural "my current context"
    // queries; city-scoped states are exploratory and would conflate
    // the exact-match measurement with location effects.
    let loc = env.param("location").unwrap();
    let all_loc = env.hierarchy(loc).all_value();
    let stored: Vec<ContextState> = tree
        .paths()
        .into_iter()
        .map(|(s, _)| s)
        .filter(|s| s.value(loc) == all_loc)
        .collect();
    while exact.len() < per_class && !stored.is_empty() {
        exact.push(stored[rng.random_range(0..stored.len())].clone());
    }

    // Cover queries: random detailed states classified by match count.
    let mut counter = 0;
    while (one.len() < per_class || multi.len() < per_class) && counter < 20_000 {
        counter += 1;
        let values: Vec<CtxValue> = env
            .iter()
            .map(|(_, h)| {
                let dom = h.domain(h.detailed_level());
                dom[rng.random_range(0..dom.len())]
            })
            .collect();
        let s = ContextState::from_values_unchecked(values);
        let mut c = ctxpref_profile::AccessCounter::new();
        if tree.exact_lookup(&s, &mut c).is_some() {
            continue;
        }
        let (matches, _) = resolver.matches(&s);
        match matches.len() {
            1 if one.len() < per_class => one.push(s),
            n if n > 1 && multi.len() < per_class => multi.push(s),
            _ => {}
        }
    }
    (exact, one, multi)
}

/// Run the simulated study: `num_users` users over the two-city POI
/// database, `queries_per_class` queries per Table 1 case.
pub fn run_user_study(seed: u64, num_users: usize, queries_per_class: usize) -> UserStudyReport {
    let env = poi_env();
    let rel = poi_relation(&env, seed, 6);
    let demos = all_demographics();
    let mut rows = Vec::with_capacity(num_users);
    for id in 0..num_users {
        let user = SimulatedUser::new(&env, id, demos[id % demos.len()], seed);
        let profile = user.profile(&env, &rel);
        let tree = ProfileTree::from_profile(&profile, ParamOrder::by_ascending_domain(&env))
            .expect("simulated profiles are conflict-free");
        let (exact_q, one_q, multi_q) =
            classify_queries(&env, &tree, queries_per_class, seed ^ (id as u64 + 1));

        let eval = |states: &[ContextState], kind: DistanceKind| -> f64 {
            if states.is_empty() {
                return 0.0;
            }
            mean(states.iter().map(|s| {
                let ecod: ctxpref_context::ExtendedContextDescriptor =
                    descriptor_of_state(&env, s).into();
                let q = rank_cs(&tree, &rel, &ecod, kind, TieBreak::All, ScoreCombiner::Max)
                    .expect("resolution cannot fail on valid states");
                let pool: Vec<usize> = q.results.tuple_indices().collect();
                let manual = user.manual_ranking(&env, &rel, s, &pool);
                agreement_pct(&q.results, &manual, 20)
            }))
        };

        rows.push(UserRow {
            user: id + 1,
            updates: user.updates,
            minutes: user.minutes,
            exact_pct: eval(&exact_q, DistanceKind::Hierarchy),
            one_cover_pct: eval(&one_q, DistanceKind::Hierarchy),
            multi_hierarchy_pct: eval(&multi_q, DistanceKind::Hierarchy),
            multi_jaccard_pct: eval(&multi_q, DistanceKind::Jaccard),
        });
    }
    UserStudyReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_default_profiles() {
        assert_eq!(all_demographics().len(), 12);
        let env = poi_env();
        let rel = poi_relation(&env, 1, 4);
        for demo in all_demographics() {
            let p = default_profile(&env, &rel, demo);
            assert!(
                p.len() >= 50,
                "default profiles should be substantial, got {}",
                p.len()
            );
            // Conflict-free by construction.
            ProfileTree::from_profile(&p, ParamOrder::by_ascending_domain(&env)).unwrap();
        }
    }

    #[test]
    fn demographics_shift_scores() {
        let env = poi_env();
        let wh = env.hierarchy(env.param("temperature").unwrap());
        let good = wh.lookup("good").unwrap();
        let ph = env.hierarchy(env.param("accompanying_people").unwrap());
        let friends = ph.lookup("friends").unwrap();
        let club = POI_TYPES.iter().position(|t| *t == "club").unwrap();
        let key = PrefKey {
            weather: Some(good),
            company: Some(friends),
            city: None,
            ty: club,
        };
        let young = Demographics {
            age: AgeBand::Under30,
            sex: Sex::Male,
            taste: Taste::Mainstream,
        };
        let old = Demographics {
            age: AgeBand::Over50,
            ..young
        };
        assert!(default_score(young, key, &env) > default_score(old, key, &env));
    }

    #[test]
    fn context_shifts_scores_museum_vs_brewery() {
        // The paper: "a museum may be a better place to visit than a
        // brewery in the context of family".
        let env = poi_env();
        let ph = env.hierarchy(env.param("accompanying_people").unwrap());
        let family = ph.lookup("family").unwrap();
        let friends = ph.lookup("friends").unwrap();
        let demo = Demographics {
            age: AgeBand::Between30And50,
            sex: Sex::Female,
            taste: Taste::Mainstream,
        };
        let museum = POI_TYPES.iter().position(|t| *t == "museum").unwrap();
        let brewery = POI_TYPES.iter().position(|t| *t == "brewery").unwrap();
        let k = |company, ty| PrefKey {
            weather: None,
            company: Some(company),
            city: None,
            ty,
        };
        assert!(
            default_score(demo, k(family, museum), &env)
                > default_score(demo, k(family, brewery), &env)
        );
        assert!(
            default_score(demo, k(friends, brewery), &env)
                > default_score(demo, k(family, brewery), &env)
        );
    }

    #[test]
    fn agreement_bounds() {
        let a = RankedResults::from_scores(
            (0..5).map(|i| ScoredTuple {
                tuple_index: i,
                score: 1.0 - i as f64 / 10.0,
            }),
            ScoreCombiner::Max,
        );
        assert_eq!(agreement_pct(&a, &a, 20), 100.0);
        let empty = RankedResults::default();
        assert_eq!(agreement_pct(&empty, &a, 20), 100.0);
        assert_eq!(agreement_pct(&a, &empty, 20), 0.0);
    }

    #[test]
    fn small_study_runs_and_has_sane_shape() {
        let report = run_user_study(42, 4, 3);
        assert_eq!(report.rows.len(), 4);
        for r in &report.rows {
            assert!((12..=38).contains(&r.updates));
            assert!((15..=52).contains(&r.minutes));
            assert!((0.0..=100.0).contains(&r.exact_pct));
            assert!((0.0..=100.0).contains(&r.one_cover_pct));
            assert!((0.0..=100.0).contains(&r.multi_hierarchy_pct));
            assert!((0.0..=100.0).contains(&r.multi_jaccard_pct));
        }
        // Table 1 shape: agreement is "generally high"; the Jaccard
        // distance beats the Hierarchy distance on multi-cover queries
        // (fewer ties → more specific preferences applied).
        assert!(report.mean_exact() >= 75.0, "exact {}", report.mean_exact());
        assert!(
            report.mean_one_cover() >= 75.0,
            "one {}",
            report.mean_one_cover()
        );
        assert!(
            report.mean_multi_jaccard() + 1e-9 >= report.mean_multi_hierarchy(),
            "jaccard {} vs hierarchy {}",
            report.mean_multi_jaccard(),
            report.mean_multi_hierarchy()
        );
    }

    #[test]
    fn study_is_deterministic() {
        let a = run_user_study(7, 2, 2);
        let b = run_user_study(7, 2, 2);
        for (x, y) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(x.updates, y.updates);
            assert_eq!(x.exact_pct, y.exact_pct);
            assert_eq!(x.multi_jaccard_pct, y.multi_jaccard_pct);
        }
    }

    #[test]
    fn descriptor_of_state_roundtrips() {
        let env = poi_env();
        let s = ContextState::parse(&env, &["Plaka", "warm", "friends"]).unwrap();
        let cod = descriptor_of_state(&env, &s);
        let states = cod.states(&env).unwrap();
        assert_eq!(states, vec![s]);
        // `all` components are omitted from the descriptor.
        let t = ContextState::parse(&env, &["Plaka", "all", "friends"]).unwrap();
        assert_eq!(descriptor_of_state(&env, &t).clause_count(), 2);
    }
}
