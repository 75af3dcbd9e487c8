use ctxpref_context::{ContextEnvironment, ContextState, DistanceKind};

use crate::access::AccessCounter;
use crate::error::ProfileError;
use crate::leaf::LeafEntry;
use crate::preference::ContextualPreference;
use crate::profile::Profile;
use crate::tree::{Candidate, LeafId};
use crate::{LEAF_ENTRY_BYTES, SERIAL_VALUE_BYTES};

/// One serially stored preference state: the expanded context state
/// plus its `[attribute θ value, score]` entry.
#[derive(Debug, Clone)]
pub struct SerialRecord {
    /// The expanded context state of the record.
    pub state: ContextState,
    /// The `[attribute θ value, score]` payload.
    pub entry: LeafEntry,
}

/// The sequential-scan baseline of Section 5.2: preferences are stored
/// "serially", one record per (context state, attribute clause) pair,
/// with no index. Exact matches scan until the matching state is found;
/// covering matches must scan the whole store.
///
/// The same [`AccessCounter`] unit as the profile tree is used: one
/// access per context-value comparison. Storage statistics price each
/// context value at [`SERIAL_VALUE_BYTES`] (no pointer is needed) and
/// each entry at [`LEAF_ENTRY_BYTES`], and count `n + 1` "cells" per
/// record — matching Figure 5, where 522 three-parameter preferences
/// occupy ≈ 2200 cells serially.
#[derive(Debug, Clone)]
pub struct SerialStore {
    env: ContextEnvironment,
    records: Vec<SerialRecord>,
}

impl SerialStore {
    /// An empty store over `env`.
    pub fn new(env: ContextEnvironment) -> Self {
        Self {
            env,
            records: Vec::new(),
        }
    }

    /// Build from a whole profile (no conflict checking — a [`Profile`]
    /// is conflict-free by construction).
    pub fn from_profile(profile: &Profile) -> Result<Self, ProfileError> {
        let mut store = Self::new(profile.env().clone());
        for pref in profile.iter() {
            store.insert(pref)?;
        }
        Ok(store)
    }

    /// The context environment.
    pub fn env(&self) -> &ContextEnvironment {
        &self.env
    }

    /// Append one record per state of the preference's descriptor.
    /// Exact `(state, clause, score)` duplicates are skipped; a
    /// conflicting record (Definition 6) is rejected.
    pub fn insert(&mut self, pref: &ContextualPreference) -> Result<(), ProfileError> {
        let states = pref.descriptor().states(&self.env)?;
        for state in &states {
            for r in &self.records {
                if r.state == *state
                    && r.entry.clause == *pref.clause()
                    && r.entry.score != pref.score()
                {
                    return Err(ProfileError::Conflict {
                        state: state.clone(),
                        existing_score: r.entry.score,
                        new_score: pref.score(),
                    });
                }
            }
        }
        for state in states {
            let duplicate = self.records.iter().any(|r| {
                r.state == state
                    && r.entry.clause == *pref.clause()
                    && r.entry.score == pref.score()
            });
            if !duplicate {
                let record = SerialRecord {
                    state,
                    entry: LeafEntry {
                        clause: pref.clause().clone(),
                        score: pref.score(),
                    },
                };
                // Keep records for one state contiguous so the
                // exact-match scan can stop at the first non-matching
                // record after a hit (the paper's "scanned until the
                // matching state is found" cost model).
                match self.records.iter().rposition(|r| r.state == record.state) {
                    Some(i) => self.records.insert(i + 1, record),
                    None => self.records.push(record),
                }
            }
        }
        Ok(())
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in storage order.
    pub fn records(&self) -> &[SerialRecord] {
        &self.records
    }

    /// Exact-match lookup: scan records in order, comparing context
    /// values until a mismatch (each comparison is one cell access), and
    /// stop as soon as the matching state has been seen — "the profile
    /// is scanned until the matching state is found". All entries of the
    /// matching state are returned (they may be scattered, so the scan
    /// only ends early when the store was built state-contiguously; we
    /// conservatively keep scanning after the first hit only while
    /// collecting further hits is possible, i.e. to the end — but charge
    /// the paper's early-exit cost model by stopping at the first hit
    /// when `first_only` semantics suffice). This method returns every
    /// matching entry and charges the full scan up to the *last* match
    /// or the end, whichever the early-exit policy permits.
    pub fn exact_lookup(
        &self,
        state: &ContextState,
        counter: &mut AccessCounter,
    ) -> Vec<&LeafEntry> {
        let mut out = Vec::new();
        for r in &self.records {
            let mut matched = true;
            for (a, b) in r.state.values().iter().zip(state.values()) {
                counter.bump();
                if a != b {
                    matched = false;
                    break;
                }
            }
            if matched {
                out.push(&r.entry);
                // Early exit once a match is found and the remaining
                // records cannot extend it: the paper's model stops at
                // the first matching state. Records for one state are
                // inserted contiguously, so stop at the first
                // non-matching record after a hit.
            } else if !out.is_empty() {
                break;
            }
        }
        out
    }

    /// Covering search over the whole store (the non-exact-match case of
    /// Figure 7): every record whose state equals or covers `state`,
    /// with its distance. Non-exact matches "need to scan the whole
    /// profile".
    pub fn search_covering(
        &self,
        state: &ContextState,
        kind: DistanceKind,
        counter: &mut AccessCounter,
    ) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = Vec::new();
        for (idx, r) in self.records.iter().enumerate() {
            let mut covers = true;
            for (i, (_, h)) in self.env.iter().enumerate() {
                counter.bump();
                let p = ctxpref_context::ParamId(i as u16);
                if !h.is_ancestor_or_self(r.state.value(p), state.value(p)) {
                    covers = false;
                    break;
                }
            }
            if covers {
                out.push(Candidate {
                    state: r.state.clone(),
                    distance: kind.state_dist(&self.env, &r.state, state),
                    leaf: LeafId(idx as u32),
                });
            }
        }
        out
    }

    /// The entries of a "leaf": for the serial store, candidate `leaf`
    /// ids index records.
    pub fn leaf(&self, id: LeafId) -> &[LeafEntry] {
        std::slice::from_ref(&self.records[id.index()].entry)
    }

    /// Total cells: `n` context values + 1 entry per record.
    pub fn total_cells(&self) -> usize {
        self.records.len() * (self.env.len() + 1)
    }

    /// Total bytes under the documented model.
    pub fn total_bytes(&self) -> usize {
        self.records.len() * (self.env.len() * SERIAL_VALUE_BYTES + LEAF_ENTRY_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preference::AttributeClause;
    use ctxpref_context::parse_descriptor;
    use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder};
    use ctxpref_relation::AttrId;

    fn env() -> ContextEnvironment {
        let mut loc = HierarchyBuilder::new("location", &["City", "Country"]);
        loc.add("Country", "Greece", None).unwrap();
        loc.add("City", "Athens", Some("Greece")).unwrap();
        loc.add("City", "Ioannina", Some("Greece")).unwrap();
        ContextEnvironment::new(vec![
            loc.build().unwrap(),
            Hierarchy::flat("weather", &["cold", "warm"]).unwrap(),
        ])
        .unwrap()
    }

    fn pref(env: &ContextEnvironment, d: &str, value: &str, score: f64) -> ContextualPreference {
        ContextualPreference::new(
            parse_descriptor(env, d).unwrap(),
            AttributeClause::eq(AttrId(0), value.into()),
            score,
        )
        .unwrap()
    }

    #[test]
    fn insert_expands_states() {
        let env = env();
        let mut s = SerialStore::new(env.clone());
        s.insert(&pref(
            &env,
            "location in {Athens, Ioannina} and weather = warm",
            "x",
            0.5,
        ))
        .unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_cells(), 2 * 3);
        assert_eq!(s.total_bytes(), 2 * (2 * 4 + 12));
        assert!(!s.is_empty());
        assert_eq!(s.records().len(), 2);
    }

    #[test]
    fn conflicts_and_duplicates() {
        let env = env();
        let mut s = SerialStore::new(env.clone());
        s.insert(&pref(&env, "weather = warm", "x", 0.5)).unwrap();
        assert!(matches!(
            s.insert(&pref(&env, "weather = warm", "x", 0.9))
                .unwrap_err(),
            ProfileError::Conflict { .. }
        ));
        s.insert(&pref(&env, "weather = warm", "x", 0.5)).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn exact_lookup_counts_and_stops_early() {
        let env = env();
        let mut s = SerialStore::new(env.clone());
        s.insert(&pref(
            &env,
            "location = Athens and weather = warm",
            "a",
            0.1,
        ))
        .unwrap();
        s.insert(&pref(
            &env,
            "location = Athens and weather = cold",
            "b",
            0.2,
        ))
        .unwrap();
        s.insert(&pref(
            &env,
            "location = Ioannina and weather = warm",
            "c",
            0.3,
        ))
        .unwrap();
        let q = ContextState::parse(&env, &["Athens", "cold"]).unwrap();
        let mut counter = AccessCounter::new();
        let hits = s.exact_lookup(&q, &mut counter);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].score, 0.2);
        // Record 1: compare 2 values (warm mismatch at 2nd) → 2 cells;
        // record 2: 2 values match → 2 cells; record 3: first value
        // mismatches → 1 cell, and the early-exit triggers before it...
        // Early exit happens *after* scanning record 3's first value.
        assert_eq!(counter.cells(), 2 + 2 + 1);
        // A missing state scans everything.
        counter.reset();
        let none = s.exact_lookup(
            &ContextState::parse(&env, &["Ioannina", "cold"]).unwrap(),
            &mut counter,
        );
        assert!(none.is_empty());
        // Records 1–2 mismatch on the first value (1 cell each); record 3
        // matches Ioannina but mismatches on weather (2 cells).
        assert_eq!(counter.cells(), 1 + 1 + 2);
    }

    #[test]
    fn covering_search_scans_everything() {
        let env = env();
        let mut s = SerialStore::new(env.clone());
        s.insert(&pref(&env, "location = Greece", "a", 0.1))
            .unwrap();
        s.insert(&pref(
            &env,
            "location = Athens and weather = warm",
            "b",
            0.2,
        ))
        .unwrap();
        s.insert(&pref(&env, "location = Ioannina", "c", 0.3))
            .unwrap();
        let q = ContextState::parse(&env, &["Athens", "warm"]).unwrap();
        let mut counter = AccessCounter::new();
        let cands = s.search_covering(&q, DistanceKind::Hierarchy, &mut counter);
        assert_eq!(cands.len(), 2);
        for c in &cands {
            assert!(c.state.covers(&q, &env));
            assert_eq!(s.leaf(c.leaf).len(), 1);
        }
        let exact = cands.iter().find(|c| c.distance == 0.0).unwrap();
        assert_eq!(exact.state, q);
        let cover = cands.iter().find(|c| c.distance > 0.0).unwrap();
        // (Greece, all): 1 level up on location + 1 on weather = 2.
        assert_eq!(cover.distance, 2.0);
    }

    #[test]
    fn from_profile_roundtrip() {
        let env = env();
        let mut p = Profile::new(env.clone());
        p.insert(pref(&env, "weather = warm", "x", 0.5)).unwrap();
        p.insert(pref(&env, "location = Athens", "y", 0.7)).unwrap();
        let s = SerialStore::from_profile(&p).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.env().len(), 2);
    }
}
