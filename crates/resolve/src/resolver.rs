use ctxpref_context::{ContextState, DistanceKind, ExtendedContextDescriptor};
use ctxpref_profile::{AccessCounter, Candidate, ProfileError};

use crate::matching::minimal_covering;
use crate::store::PreferenceStore;

/// How a query state was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchOutcome {
    /// The exact state is stored (first case of Section 4.4).
    Exact,
    /// One or more stored states cover the query state.
    Covered,
    /// Nothing covers the state — the query proceeds as a normal,
    /// non-contextual preference query (Section 4.2).
    NoMatch,
}

impl std::fmt::Display for MatchOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Exact => write!(f, "exact"),
            Self::Covered => write!(f, "covered"),
            Self::NoMatch => write!(f, "no match"),
        }
    }
}

/// Tie handling when several covering states share the minimum
/// distance. The paper: "There are many ways to handle such ties. One
/// is to let the user decide."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Return every minimum-distance candidate (the paper's "more than
    /// one candidate can be selected by the system or the user").
    #[default]
    All,
    /// Return only the minimum-distance candidate with the smallest
    /// stored state (deterministic system choice). The pick depends on
    /// the profile alone, never on the order the tree stores paths in,
    /// which follows edit history.
    First,
}

/// The resolution of one query context state.
#[derive(Debug, Clone)]
pub struct StateResolution {
    /// The query state being resolved.
    pub query_state: ContextState,
    /// How the state was resolved.
    pub outcome: MatchOutcome,
    /// The selected candidates: the exact leaf, the minimum-distance
    /// covering state(s), or empty.
    pub selected: Vec<Candidate>,
    /// Total covering candidates considered (before tie-breaking);
    /// equals `selected.len()` for exact matches.
    pub candidate_count: usize,
    /// Cells accessed resolving this state.
    pub cells: u64,
}

/// Context resolution over any [`PreferenceStore`] (Section 4.4).
#[derive(Debug, Clone, Copy)]
pub struct ContextResolver<'a, S: PreferenceStore + ?Sized> {
    store: &'a S,
    kind: DistanceKind,
    tie: TieBreak,
}

impl<'a, S: PreferenceStore + ?Sized> ContextResolver<'a, S> {
    /// A resolver over `store` with the given distance and tie policy.
    pub fn new(store: &'a S, kind: DistanceKind, tie: TieBreak) -> Self {
        Self { store, kind, tie }
    }

    /// The underlying store.
    pub fn store(&self) -> &'a S {
        self.store
    }

    /// The distance metric in use.
    pub fn distance_kind(&self) -> DistanceKind {
        self.kind
    }

    /// Resolve a single context state: exact lookup first, then
    /// `Search_CS` for covering states, keeping the minimum-distance
    /// candidate(s).
    pub fn resolve_state(&self, state: &ContextState) -> StateResolution {
        let mut counter = AccessCounter::new();
        let exact = self.store.lookup_exact(state, &mut counter);
        if !exact.is_empty() {
            let selected: Vec<Candidate> = exact
                .into_iter()
                .map(|leaf| Candidate {
                    state: state.clone(),
                    distance: 0.0,
                    leaf,
                })
                .collect();
            return StateResolution {
                query_state: state.clone(),
                outcome: MatchOutcome::Exact,
                candidate_count: selected.len(),
                selected,
                cells: counter.cells(),
            };
        }
        let candidates = self.store.lookup_covering(state, self.kind, &mut counter);
        if candidates.is_empty() {
            return StateResolution {
                query_state: state.clone(),
                outcome: MatchOutcome::NoMatch,
                selected: Vec::new(),
                candidate_count: 0,
                cells: counter.cells(),
            };
        }
        let min = candidates
            .iter()
            .map(|c| c.distance)
            .fold(f64::INFINITY, f64::min);
        let mut selected: Vec<Candidate> = candidates
            .iter()
            .filter(|c| (c.distance - min).abs() < 1e-9)
            .cloned()
            .collect();
        if self.tie == TieBreak::First {
            let first =
                (0..selected.len()).min_by(|&a, &b| selected[a].state.cmp(&selected[b].state));
            if let Some(first) = first {
                selected.swap(0, first);
                selected.truncate(1);
            }
        }
        StateResolution {
            query_state: state.clone(),
            outcome: MatchOutcome::Covered,
            selected,
            candidate_count: candidates.len(),
            cells: counter.cells(),
        }
    }

    /// The full matches of Definition 12 for one state (minimal covering
    /// states in the `covers` order), without distance tie-breaking.
    /// Used when the system presents all matches and lets the user
    /// decide.
    pub fn matches(&self, state: &ContextState) -> (Vec<Candidate>, u64) {
        let mut counter = AccessCounter::new();
        let exact = self.store.lookup_exact(state, &mut counter);
        if !exact.is_empty() {
            return (
                exact
                    .into_iter()
                    .map(|leaf| Candidate {
                        state: state.clone(),
                        distance: 0.0,
                        leaf,
                    })
                    .collect(),
                counter.cells(),
            );
        }
        let candidates = self.store.lookup_covering(state, self.kind, &mut counter);
        (
            minimal_covering(self.store.env(), &candidates),
            counter.cells(),
        )
    }

    /// Resolve every state of an extended context descriptor
    /// (Definition 8): one [`StateResolution`] per state of its context.
    pub fn resolve(
        &self,
        ecod: &ExtendedContextDescriptor,
    ) -> Result<Vec<StateResolution>, ProfileError> {
        let states = ecod.states(self.store.env())?;
        Ok(states.iter().map(|s| self.resolve_state(s)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_context::{parse_descriptor, parse_extended_descriptor, ContextEnvironment};
    use ctxpref_hierarchy::HierarchyBuilder;
    use ctxpref_profile::{
        AttributeClause, ContextualPreference, ParamOrder, Profile, ProfileTree, SerialStore,
    };
    use ctxpref_relation::AttrId;

    /// Two-parameter environment from the paper's Section 4.2 example:
    /// location (City ≺ Country ≺ ALL), weather (Conditions ≺ Char ≺ ALL).
    fn env() -> ContextEnvironment {
        let mut loc = HierarchyBuilder::new("location", &["City", "Country"]);
        loc.add("Country", "Greece", None).unwrap();
        loc.add("City", "Athens", Some("Greece")).unwrap();
        loc.add("City", "Ioannina", Some("Greece")).unwrap();
        let mut w = HierarchyBuilder::new("weather", &["Conditions", "Char"]);
        w.add("Char", "bad", None).unwrap();
        w.add("Char", "good", None).unwrap();
        w.add_leaves("bad", &["cold"]).unwrap();
        w.add_leaves("good", &["warm", "hot"]).unwrap();
        ContextEnvironment::new(vec![loc.build().unwrap(), w.build().unwrap()]).unwrap()
    }

    fn profile(env: &ContextEnvironment, specs: &[(&str, &str, f64)]) -> Profile {
        let mut p = Profile::new(env.clone());
        for &(cod, value, score) in specs {
            p.insert(
                ContextualPreference::new(
                    parse_descriptor(env, cod).unwrap(),
                    AttributeClause::eq(AttrId(0), value.into()),
                    score,
                )
                .unwrap(),
            )
            .unwrap();
        }
        p
    }

    #[test]
    fn section_4_2_example_picks_more_specific() {
        // Profile: (Greece, warm) and (all≈Europe, warm) — the paper's
        // example has Europe; our hierarchy tops out at `all`, which
        // plays the same role. The query (Athens, warm) must resolve to
        // the more specific (Greece, warm).
        let env = env();
        let p = profile(
            &env,
            &[
                ("location = Greece and weather = warm", "a", 0.6),
                ("weather = warm", "b", 0.7),
            ],
        );
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        let r = ContextResolver::new(&tree, DistanceKind::Hierarchy, TieBreak::All);
        let q = ContextState::parse(&env, &["Athens", "warm"]).unwrap();
        let res = r.resolve_state(&q);
        assert_eq!(res.outcome, MatchOutcome::Covered);
        assert_eq!(res.candidate_count, 2);
        assert_eq!(res.selected.len(), 1);
        assert_eq!(
            res.selected[0].state.display(&env).to_string(),
            "(Greece, warm)"
        );
        assert!(res.cells > 0);
    }

    #[test]
    fn exact_match_short_circuits() {
        let env = env();
        let p = profile(&env, &[("location = Athens and weather = warm", "a", 0.6)]);
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        let r = ContextResolver::new(&tree, DistanceKind::Hierarchy, TieBreak::All);
        let q = ContextState::parse(&env, &["Athens", "warm"]).unwrap();
        let res = r.resolve_state(&q);
        assert_eq!(res.outcome, MatchOutcome::Exact);
        assert_eq!(res.selected.len(), 1);
        assert_eq!(res.selected[0].distance, 0.0);
        assert_eq!(r.distance_kind(), DistanceKind::Hierarchy);
    }

    #[test]
    fn no_match_reports_nomatch() {
        let env = env();
        let p = profile(&env, &[("location = Ioannina", "a", 0.6)]);
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        let r = ContextResolver::new(&tree, DistanceKind::Hierarchy, TieBreak::All);
        let q = ContextState::parse(&env, &["Athens", "warm"]).unwrap();
        let res = r.resolve_state(&q);
        assert_eq!(res.outcome, MatchOutcome::NoMatch);
        assert!(res.selected.is_empty());
    }

    #[test]
    fn tie_handling_all_vs_first() {
        // The paper's tie: (Greece, warm) vs (Athens, good), query
        // (Athens, warm) — both at hierarchy distance 1.
        let env = env();
        let p = profile(
            &env,
            &[
                ("location = Greece and weather = warm", "a", 0.6),
                ("location = Athens and weather = good", "b", 0.7),
            ],
        );
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        let q = ContextState::parse(&env, &["Athens", "warm"]).unwrap();
        let all =
            ContextResolver::new(&tree, DistanceKind::Hierarchy, TieBreak::All).resolve_state(&q);
        assert_eq!(all.selected.len(), 2);
        let first =
            ContextResolver::new(&tree, DistanceKind::Hierarchy, TieBreak::First).resolve_state(&q);
        assert_eq!(first.selected.len(), 1);
        // The smallest tied state, whatever order the tree stores them in.
        let smallest = all.selected.iter().map(|c| &c.state).min().unwrap();
        assert_eq!(&first.selected[0].state, smallest);
        // The Jaccard distance breaks this tie: Greece has 2 city
        // descendants, good has 2 condition descendants — here equal
        // cardinalities, so check both candidates remain.
        let jac =
            ContextResolver::new(&tree, DistanceKind::Jaccard, TieBreak::All).resolve_state(&q);
        assert!(!jac.selected.is_empty());
    }

    #[test]
    fn matches_returns_definition_12_set() {
        let env = env();
        let p = profile(
            &env,
            &[
                ("location = Greece and weather = warm", "a", 0.6),
                ("location = Athens and weather = good", "b", 0.7),
                ("weather = good", "c", 0.3), // dominated by both
            ],
        );
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        let r = ContextResolver::new(&tree, DistanceKind::Hierarchy, TieBreak::All);
        let q = ContextState::parse(&env, &["Athens", "warm"]).unwrap();
        let (matches, cells) = r.matches(&q);
        assert_eq!(matches.len(), 2, "dominated (all, good) must be filtered");
        assert!(cells > 0);
        assert!(matches.iter().all(|c| c.state.covers(&q, &env)));
    }

    #[test]
    fn tree_and_serial_agree_on_selection() {
        let env = env();
        let p = profile(
            &env,
            &[
                ("location = Greece and weather = warm", "a", 0.6),
                ("weather = good", "b", 0.4),
                ("location = Athens", "c", 0.9),
                ("location = Ioannina and weather = cold", "d", 0.2),
            ],
        );
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        let serial = SerialStore::from_profile(&p).unwrap();
        for q in [
            ContextState::parse(&env, &["Athens", "warm"]).unwrap(),
            ContextState::parse(&env, &["Ioannina", "cold"]).unwrap(),
            ContextState::parse(&env, &["Ioannina", "hot"]).unwrap(),
        ] {
            for kind in [DistanceKind::Hierarchy, DistanceKind::Jaccard] {
                let rt = ContextResolver::new(&tree, kind, TieBreak::All).resolve_state(&q);
                let rs = ContextResolver::new(&serial, kind, TieBreak::All).resolve_state(&q);
                assert_eq!(rt.outcome, rs.outcome, "query {}", q.display(&env));
                let mut st: Vec<String> = rt
                    .selected
                    .iter()
                    .map(|c| c.state.display(&env).to_string())
                    .collect();
                let mut ss: Vec<String> = rs
                    .selected
                    .iter()
                    .map(|c| c.state.display(&env).to_string())
                    .collect();
                st.sort();
                ss.sort();
                assert_eq!(st, ss);
            }
        }
    }

    #[test]
    fn resolve_extended_descriptor() {
        let env = env();
        let p = profile(&env, &[("location = Greece", "a", 0.6)]);
        let tree = ProfileTree::from_profile(&p, ParamOrder::identity(&env)).unwrap();
        let r = ContextResolver::new(&tree, DistanceKind::Hierarchy, TieBreak::All);
        let ecod = parse_extended_descriptor(
            &env,
            "(location = Athens and weather = warm) or (location = Ioannina and weather = cold)",
        )
        .unwrap();
        let res = r.resolve(&ecod).unwrap();
        assert_eq!(res.len(), 2);
        assert!(res.iter().all(|x| x.outcome == MatchOutcome::Covered));
        assert_eq!(MatchOutcome::Covered.to_string(), "covered");
        assert_eq!(MatchOutcome::Exact.to_string(), "exact");
        assert_eq!(MatchOutcome::NoMatch.to_string(), "no match");
    }
}
