use ctxpref_context::{ContextState, DistanceKind, ExtendedContextDescriptor};
use ctxpref_profile::ProfileError;
use ctxpref_relation::{RankedResults, Relation, ScoreCombiner, ScoredTuple};

use crate::resolver::{ContextResolver, MatchOutcome, StateResolution, TieBreak};
use crate::store::PreferenceStore;

/// The answer of a contextual preference query: the ranked tuples plus
/// the resolution trace — the paper's usability study leans on
/// *traceability* ("users can track back which preferences were used to
/// attain the results").
#[derive(Debug, Clone)]
pub struct RankedQuery {
    /// Ranked tuples of the relation, best first, duplicates combined.
    pub results: RankedResults,
    /// How each query context state was resolved.
    pub resolutions: Vec<StateResolution>,
}

impl RankedQuery {
    /// Total cells accessed across all state resolutions.
    pub fn total_cells(&self) -> u64 {
        self.resolutions.iter().map(|r| r.cells).sum()
    }

    /// True iff no query state found any applicable preference.
    pub fn is_non_contextual(&self) -> bool {
        self.resolutions
            .iter()
            .all(|r| r.outcome == MatchOutcome::NoMatch)
    }
}

/// Top-k variant of `Rank_CS`: resolve the query's context states, then
/// rank with [`rank_selected`] stopping once the top `k` tuples are
/// known. The result is exactly [`rank_cs`] followed by
/// [`RankedResults::top_k_with_ties`]`(k)`.
///
/// Only the `Max` combiner admits the early stop; other combiners (and
/// `k == 0`) give the full [`rank_cs`] ranking.
pub fn rank_cs_topk<S: PreferenceStore + ?Sized>(
    store: &S,
    relation: &Relation,
    ecod: &ExtendedContextDescriptor,
    kind: DistanceKind,
    tie: TieBreak,
    combiner: ScoreCombiner,
    k: usize,
) -> Result<RankedQuery, ProfileError> {
    let resolutions = ContextResolver::new(store, kind, tie).resolve(ecod)?;
    let limit = (k > 0).then_some(k);
    Ok(RankedQuery {
        results: rank_selected(store, relation, &resolutions, combiner, limit),
        resolutions,
    })
}

/// `Rank_CS` (Algorithm 2): resolve every context state of the query's
/// extended descriptor, turn the selected preference entries into
/// selections `σ_{A θ a}(R)`, annotate the selected tuples with the
/// entries' interest scores, and merge duplicates with `combiner`.
pub fn rank_cs<S: PreferenceStore + ?Sized>(
    store: &S,
    relation: &Relation,
    ecod: &ExtendedContextDescriptor,
    kind: DistanceKind,
    tie: TieBreak,
    combiner: ScoreCombiner,
) -> Result<RankedQuery, ProfileError> {
    let resolutions = ContextResolver::new(store, kind, tie).resolve(ecod)?;
    Ok(RankedQuery {
        results: rank_selected(store, relation, &resolutions, combiner, None),
        resolutions,
    })
}

/// `Rank_CS` for one context state, such as a query's current context,
/// without writing the state as a descriptor first:
/// [`ContextResolver::resolve_state`], then [`rank_selected`] with
/// `limit`. The answer is [`rank_cs`]'s (`limit = None`) or
/// [`rank_cs_topk`]'s (`limit = Some(k)`) for the descriptor pinning
/// `state`'s values other than `all`. `state` must belong to `store`'s
/// environment.
pub fn rank_cs_state<S: PreferenceStore + ?Sized>(
    store: &S,
    relation: &Relation,
    state: &ContextState,
    kind: DistanceKind,
    tie: TieBreak,
    combiner: ScoreCombiner,
    limit: Option<usize>,
) -> RankedQuery {
    let resolution = ContextResolver::new(store, kind, tie).resolve_state(state);
    RankedQuery {
        results: rank_selected(
            store,
            relation,
            std::slice::from_ref(&resolution),
            combiner,
            limit,
        ),
        resolutions: vec![resolution],
    }
}

/// The ranking half of `Rank_CS`: score the tuples that the selected
/// leaves' entries of `resolutions` select, merge duplicates with
/// `combiner`, and rank them (score descending, tuple index ascending).
///
/// Under `Max` a tuple's score is that of the *first* entry selecting
/// it when entries are taken in descending score order, so ranking is
/// a walk, not a merge: sort the few selected entries by score, and for
/// each run of equal-scored entries append the tuples no earlier entry
/// selected, in ascending tuple order. The output is already in rank
/// order — no score map, no sort of the tuples. With `limit = Some(k)`
/// the walk stops after the run that brings the output to `k` tuples
/// or more: every later run scores strictly lower, so that output is
/// exactly the full ranking's [`RankedResults::top_k_with_ties`]`(k)`.
///
/// `Min` and `Avg` depend on every contribution to a tuple, so they
/// merge all selections with [`RankedResults::from_scores`] and ignore
/// `limit`.
pub fn rank_selected<S: PreferenceStore + ?Sized>(
    store: &S,
    relation: &Relation,
    resolutions: &[StateResolution],
    combiner: ScoreCombiner,
    limit: Option<usize>,
) -> RankedResults {
    let entries = resolutions
        .iter()
        .flat_map(|res| &res.selected)
        .flat_map(|cand| store.entries(cand.leaf));
    if combiner != ScoreCombiner::Max {
        let raw = entries.flat_map(|entry| {
            let score = entry.score;
            relation
                .select(&entry.clause.predicate())
                .map(move |tuple_index| ScoredTuple { tuple_index, score })
        });
        return RankedResults::from_scores(raw, combiner);
    }
    let mut entries: Vec<_> = entries.collect();
    entries.sort_by(|a, b| b.score.total_cmp(&a.score));
    // One bit per tuple of the relation: already ranked, by a higher run
    // or earlier in this one.
    let mut seen = vec![0u64; relation.len().div_ceil(64)];
    let mut ranked: Vec<ScoredTuple> = Vec::new();
    for run in entries.chunk_by(|a, b| a.score == b.score) {
        let start = ranked.len();
        let score = run[0].score;
        for entry in run {
            for tuple_index in relation.select(&entry.clause.predicate()) {
                let (word, bit) = (tuple_index / 64, 1u64 << (tuple_index % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    ranked.push(ScoredTuple { tuple_index, score });
                }
            }
        }
        // One entry's selection is ascending already; a run of several
        // interleaves theirs.
        if run.len() > 1 {
            ranked[start..].sort_unstable_by_key(|t| t.tuple_index);
        }
        if limit.is_some_and(|k| ranked.len() >= k) {
            break;
        }
    }
    RankedResults::from_sorted(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_context::{parse_descriptor, parse_extended_descriptor, ContextEnvironment};
    use ctxpref_hierarchy::Hierarchy;
    use ctxpref_profile::{
        AttributeClause, ContextualPreference, ParamOrder, Profile, ProfileTree, SerialStore,
    };
    use ctxpref_relation::{AttrType, Schema, Value};

    fn env() -> ContextEnvironment {
        ContextEnvironment::new(vec![
            Hierarchy::flat("weather", &["cold", "warm"]).unwrap(),
            Hierarchy::flat("company", &["friends", "family"]).unwrap(),
        ])
        .unwrap()
    }

    fn poi() -> Relation {
        let schema = Schema::new(&[
            ("name", AttrType::Str),
            ("type", AttrType::Str),
            ("cost", AttrType::Float),
        ])
        .unwrap();
        let mut r = Relation::new("poi", schema);
        for (n, t, c) in [
            ("Acropolis", "monument", 12.0),
            ("Benaki", "museum", 9.0),
            ("Mikro", "brewery", 0.0),
            ("Zythos", "brewery", 5.0),
            ("Attica Zoo", "zoo", 16.0),
        ] {
            r.insert(vec![n.into(), t.into(), c.into()]).unwrap();
        }
        r
    }

    fn profile(env: &ContextEnvironment, rel: &Relation) -> Profile {
        let ty = rel.schema().attr("type").unwrap();
        let name = rel.schema().attr("name").unwrap();
        let mut p = Profile::new(env.clone());
        for (cod, attr, value, score) in [
            ("company = friends", ty, "brewery", 0.9),
            ("weather = warm", name, "Acropolis", 0.8),
            ("weather = cold", ty, "museum", 0.7),
            ("weather = warm and company = family", ty, "zoo", 0.95),
        ] {
            p.insert(
                ContextualPreference::new(
                    parse_descriptor(env, cod).unwrap(),
                    AttributeClause::eq(attr, Value::str(value)),
                    score,
                )
                .unwrap(),
            )
            .unwrap();
        }
        p
    }

    #[test]
    fn ranks_by_matched_preferences() {
        let env = env();
        let rel = poi();
        let p = profile(&env, &rel);
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        // Current context: warm with friends. Matching stored states:
        // exact? (warm, friends) not stored; covers: (all, friends) d1,
        // (warm, all) d1 → tie, both selected under TieBreak::All.
        let ecod = parse_descriptor(&env, "weather = warm and company = friends")
            .unwrap()
            .into();
        let q = rank_cs(
            &tree,
            &rel,
            &ecod,
            DistanceKind::Hierarchy,
            TieBreak::All,
            ScoreCombiner::Max,
        )
        .unwrap();
        let name_attr = rel.schema().attr("name").unwrap();
        let names: Vec<String> = q
            .results
            .tuple_indices()
            .map(|i| rel.tuple(i).value(name_attr).to_string())
            .collect();
        // Breweries (0.9) above Acropolis (0.8).
        assert_eq!(names, vec!["Mikro", "Zythos", "Acropolis"]);
        assert!(!q.is_non_contextual());
        assert!(q.total_cells() > 0);
    }

    #[test]
    fn exploratory_disjunction_unions_contexts() {
        let env = env();
        let rel = poi();
        let p = profile(&env, &rel);
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        let ecod = parse_extended_descriptor(
            &env,
            "(weather = warm and company = family) or (weather = cold and company = family)",
        )
        .unwrap();
        let q = rank_cs(
            &tree,
            &rel,
            &ecod,
            DistanceKind::Hierarchy,
            TieBreak::All,
            ScoreCombiner::Max,
        )
        .unwrap();
        // warm+family → zoo (0.95, exact); cold+family → museum (0.7 via
        // (cold, all)).
        let top = q.results.entries()[0];
        assert_eq!(top.score, 0.95);
        assert_eq!(q.resolutions.len(), 2);
        assert_eq!(q.resolutions[0].outcome, MatchOutcome::Exact);
        assert_eq!(q.resolutions[1].outcome, MatchOutcome::Covered);
        assert_eq!(q.results.len(), 2);
    }

    #[test]
    fn no_match_yields_empty_non_contextual() {
        let env = env();
        let rel = poi();
        let mut p = Profile::new(env.clone());
        p.insert(
            ContextualPreference::new(
                parse_descriptor(&env, "weather = cold and company = family").unwrap(),
                AttributeClause::eq(rel.schema().attr("type").unwrap(), "museum".into()),
                0.7,
            )
            .unwrap(),
        )
        .unwrap();
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        let ecod = parse_descriptor(&env, "weather = warm and company = friends")
            .unwrap()
            .into();
        let q = rank_cs(
            &tree,
            &rel,
            &ecod,
            DistanceKind::Hierarchy,
            TieBreak::All,
            ScoreCombiner::Max,
        )
        .unwrap();
        assert!(q.is_non_contextual());
        assert!(q.results.is_empty());
    }

    #[test]
    fn tree_and_serial_rank_identically() {
        let env = env();
        let rel = poi();
        let p = profile(&env, &rel);
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        let serial = SerialStore::from_profile(&p).unwrap();
        for cod in [
            "weather = warm and company = friends",
            "weather = cold and company = family",
            "weather = warm and company = family",
        ] {
            let ecod = parse_descriptor(&env, cod).unwrap().into();
            let a = rank_cs(
                &tree,
                &rel,
                &ecod,
                DistanceKind::Jaccard,
                TieBreak::All,
                ScoreCombiner::Max,
            )
            .unwrap();
            let b = rank_cs(
                &serial,
                &rel,
                &ecod,
                DistanceKind::Jaccard,
                TieBreak::All,
                ScoreCombiner::Max,
            )
            .unwrap();
            assert_eq!(a.results, b.results, "divergence for {cod}");
        }
    }

    #[test]
    fn duplicate_tuples_combined_with_policy() {
        let env = env();
        let rel = poi();
        let ty = rel.schema().attr("type").unwrap();
        let cost = rel.schema().attr("cost").unwrap();
        let mut p = Profile::new(env.clone());
        // Two preferences both selecting breweries under the same state,
        // via different clauses.
        p.insert(
            ContextualPreference::new(
                parse_descriptor(&env, "company = friends").unwrap(),
                AttributeClause::eq(ty, "brewery".into()),
                0.9,
            )
            .unwrap(),
        )
        .unwrap();
        p.insert(
            ContextualPreference::new(
                parse_descriptor(&env, "company = friends").unwrap(),
                AttributeClause::new(cost, ctxpref_relation::CompareOp::Le, 5.0.into()),
                0.3,
            )
            .unwrap(),
        )
        .unwrap();
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        let ecod = parse_descriptor(&env, "company = friends").unwrap().into();
        let max = rank_cs(
            &tree,
            &rel,
            &ecod,
            DistanceKind::Hierarchy,
            TieBreak::All,
            ScoreCombiner::Max,
        )
        .unwrap();
        let avg = rank_cs(
            &tree,
            &rel,
            &ecod,
            DistanceKind::Hierarchy,
            TieBreak::All,
            ScoreCombiner::Avg,
        )
        .unwrap();
        // Mikro (brewery, cost 0) matches both → max 0.9, avg 0.6.
        let mikro_max = max
            .results
            .entries()
            .iter()
            .find(|e| e.tuple_index == 2)
            .unwrap();
        let mikro_avg = avg
            .results
            .entries()
            .iter()
            .find(|e| e.tuple_index == 2)
            .unwrap();
        assert_eq!(mikro_max.score, 0.9);
        assert!((mikro_avg.score - 0.6).abs() < 1e-12);
    }
}

#[cfg(test)]
mod topk_tests {
    use super::*;
    use ctxpref_profile::{ParamOrder, ProfileTree};
    use ctxpref_relation::{AttrType, Schema};
    use ctxpref_workload_free::*;

    /// Local mini-generator (kept dependency-free: resolve cannot depend
    /// on ctxpref-workload without a cycle).
    mod ctxpref_workload_free {
        use super::*;
        use ctxpref_context::{ContextDescriptor, ContextEnvironment, ParameterDescriptor};
        use ctxpref_hierarchy::Hierarchy;
        use ctxpref_profile::{AttributeClause, ContextualPreference, Profile};

        pub(super) fn env3() -> ContextEnvironment {
            ContextEnvironment::new(vec![
                Hierarchy::balanced("a", &[6, 2]).unwrap(),
                Hierarchy::balanced("b", &[5]).unwrap(),
            ])
            .unwrap()
        }

        pub(super) fn relation(n: usize) -> Relation {
            let schema = Schema::new(&[("v", AttrType::Str)]).unwrap();
            let mut rel = Relation::new("r", schema);
            for i in 0..n {
                rel.insert(vec![format!("v{}", i % 12).into()]).unwrap();
            }
            rel
        }

        pub(super) fn profile(env: &ContextEnvironment, seed: u64) -> Profile {
            let mut p = Profile::new(env.clone());
            let ha = env.hierarchy(ctxpref_context::ParamId(0));
            let hb = env.hierarchy(ctxpref_context::ParamId(1));
            let da = ha.domain(ha.detailed_level());
            let db = hb.domain(hb.detailed_level());
            let mut x = seed;
            for i in 0..60u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let va = da[(x >> 8) as usize % da.len()];
                let vb = db[(x >> 20) as usize % db.len()];
                let clause_v = (x >> 32) % 12;
                let score = 0.05 + ((x >> 40).wrapping_add(i) % 90) as f64 / 100.0;
                let cod = ContextDescriptor::empty()
                    .with(ctxpref_context::ParamId(0), ParameterDescriptor::Eq(va))
                    .with(ctxpref_context::ParamId(1), ParameterDescriptor::Eq(vb));
                let clause =
                    AttributeClause::eq(ctxpref_relation::AttrId(0), format!("v{clause_v}").into());
                // Deduplicate conflicting (state, clause) pairs by skipping.
                let pref = ContextualPreference::new(cod, clause, score).unwrap();
                let _ = p.insert(pref);
            }
            p
        }
    }

    #[test]
    fn topk_matches_full_ranking_prefix() {
        let env = env3();
        let rel = relation(120);
        for seed in 0..8u64 {
            let p = profile(&env, seed);
            let tree =
                ProfileTree::from_profile(&p, ParamOrder::by_ascending_domain(&env)).unwrap();
            let ha = env.hierarchy(ctxpref_context::ParamId(0));
            let q = ctxpref_context::ContextState::from_values_unchecked(vec![
                ha.domain(ha.detailed_level())[seed as usize % 6],
                env.hierarchy(ctxpref_context::ParamId(1))
                    .domain(ctxpref_hierarchy::LevelId(0))[seed as usize % 5],
            ]);
            let ecod: ExtendedContextDescriptor = {
                let mut cod = ctxpref_context::ContextDescriptor::empty();
                for (pid, h) in env.iter() {
                    let v = q.value(pid);
                    if v != h.all_value() {
                        cod = cod.with(pid, ctxpref_context::ParameterDescriptor::Eq(v));
                    }
                }
                cod.into()
            };
            for k in [1usize, 3, 10, 100] {
                let full = rank_cs(
                    &tree,
                    &rel,
                    &ecod,
                    DistanceKind::Hierarchy,
                    TieBreak::All,
                    ScoreCombiner::Max,
                )
                .unwrap();
                let fast = rank_cs_topk(
                    &tree,
                    &rel,
                    &ecod,
                    DistanceKind::Hierarchy,
                    TieBreak::All,
                    ScoreCombiner::Max,
                    k,
                )
                .unwrap();
                assert_eq!(
                    full.results.top_k_with_ties(k),
                    fast.results.entries(),
                    "seed {seed} k {k}"
                );
            }
        }
    }

    /// A single-state query resolves the state as it is: the same
    /// answer and resolution trace as ranking the descriptor that pins
    /// its values, for every extended state under three option sets.
    #[test]
    fn state_ranking_equals_descriptor_ranking() {
        let env = env3();
        let rel = relation(120);
        let values = |p: u16| env.hierarchy(ctxpref_context::ParamId(p)).value_count() as u32;
        for seed in 0..8u64 {
            let p = profile(&env, seed);
            let tree =
                ProfileTree::from_profile(&p, ParamOrder::by_ascending_domain(&env)).unwrap();
            for (a, b) in (0..values(0)).flat_map(|a| (0..values(1)).map(move |b| (a, b))) {
                let state = ctxpref_context::ContextState::new(
                    &env,
                    vec![ctxpref_hierarchy::ValueId(a), ctxpref_hierarchy::ValueId(b)],
                )
                .unwrap();
                let ecod: ExtendedContextDescriptor =
                    ctxpref_context::descriptor_of_state(&env, &state).into();
                for (kind, tie, combiner) in [
                    (DistanceKind::Hierarchy, TieBreak::All, ScoreCombiner::Max),
                    (DistanceKind::Jaccard, TieBreak::First, ScoreCombiner::Max),
                    (DistanceKind::Hierarchy, TieBreak::First, ScoreCombiner::Avg),
                ] {
                    for k in [0usize, 1, 3] {
                        let limit = (k > 0).then_some(k);
                        let fast = rank_cs_state(&tree, &rel, &state, kind, tie, combiner, limit);
                        let slow =
                            rank_cs_topk(&tree, &rel, &ecod, kind, tie, combiner, k).unwrap();
                        let what = format!("seed {seed}, state {state:?}, k {k}");
                        assert_eq!(fast.results, slow.results, "{what}");
                        let [x] = &fast.resolutions[..] else {
                            panic!("{what}: one resolution per state");
                        };
                        let [y] = &slow.resolutions[..] else {
                            panic!("{what}: one state per pinning descriptor");
                        };
                        assert_eq!(x.query_state, y.query_state, "{what}");
                        assert_eq!(x.outcome, y.outcome, "{what}");
                        assert_eq!(x.selected, y.selected, "{what}");
                        assert_eq!(x.candidate_count, y.candidate_count, "{what}");
                        assert_eq!(x.cells, y.cells, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn non_max_combiner_falls_back() {
        let env = env3();
        let rel = relation(40);
        let p = profile(&env, 3);
        let tree = ProfileTree::from_profile(&p, ParamOrder::by_ascending_domain(&env)).unwrap();
        let ecod: ExtendedContextDescriptor = ctxpref_context::ContextDescriptor::empty().into();
        let a = rank_cs(
            &tree,
            &rel,
            &ecod,
            DistanceKind::Hierarchy,
            TieBreak::All,
            ScoreCombiner::Avg,
        )
        .unwrap();
        let b = rank_cs_topk(
            &tree,
            &rel,
            &ecod,
            DistanceKind::Hierarchy,
            TieBreak::All,
            ScoreCombiner::Avg,
            2,
        )
        .unwrap();
        assert_eq!(a.results, b.results, "avg combiner must not truncate");
    }
}
