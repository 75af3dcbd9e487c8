use std::sync::{Arc, OnceLock};

use crate::error::ProfileError;
use crate::ordering::ParamOrder;
use crate::preference::{checked_score, ContextualPreference};
use crate::profile::Profile;
use crate::tree::ProfileTree;

/// A [`Profile`] together with its [`ProfileTree`] index, changed only
/// through [`insert`](Self::insert), [`remove`](Self::remove) and
/// [`rescore`](Self::rescore), which keep the two in step.
///
/// The tree holds the entries and contributor counts
/// `ProfileTree::from_profile` would build from the profile; only the
/// order of cells and entries follows the edit history. The tree is the
/// one authority on conflicts and sharing, so every edit costs one
/// root-to-leaf walk per state of the edited preference and never scans
/// the profile: removal drops an entry only when its last contributor
/// goes, and a re-score is refused when another contributor shares one
/// of its entries, and otherwise rewrites them where they sit. Each
/// edit checks everything before it mutates, so a refused edit changes
/// neither half.
///
/// The profile is a multiset: an exact duplicate is appended to the
/// profile (and removed again by its index) but adds only a contributor
/// to the tree, never an entry.
///
/// A clone copies the tree and shares the profile. While the profile is
/// shared, a re-score is kept beside it rather than copying every
/// preference — it changes no descriptor or clause — and the re-scored
/// profile is built on the first call to [`profile`](Self::profile)
/// that needs it. An insert or a removal copies the profile once.
#[derive(Debug)]
pub struct IndexedProfile {
    /// The profile as of the last insert or removal, shared with the
    /// clones of this index.
    base: Arc<Profile>,
    /// Re-scores made while `base` was shared: each re-scored
    /// preference with its index in `base`, at most one per index.
    rescored: Vec<(usize, ContextualPreference)>,
    /// `base` with `rescored` applied, once asked for.
    current: OnceLock<Profile>,
    tree: ProfileTree,
}

impl Clone for IndexedProfile {
    fn clone(&self) -> Self {
        Self {
            base: Arc::clone(&self.base),
            rescored: self.rescored.clone(),
            current: OnceLock::new(),
            tree: self.tree.clone(),
        }
    }
}

/// The preference at `index` of `base` with `rescored` applied.
fn preference_at<'a>(
    base: &'a Profile,
    rescored: &'a [(usize, ContextualPreference)],
    index: usize,
) -> Option<&'a ContextualPreference> {
    match rescored.iter().find(|(i, _)| *i == index) {
        Some((_, pref)) => Some(pref),
        None => base.preferences().get(index),
    }
}

impl IndexedProfile {
    /// Index `profile` under `order`; refused if two of its preferences
    /// conflict (Definition 6).
    pub fn new(profile: Profile, order: ParamOrder) -> Result<Self, ProfileError> {
        let tree = ProfileTree::from_profile(&profile, order)?;
        Ok(Self {
            base: Arc::new(profile),
            rescored: Vec::new(),
            current: OnceLock::new(),
            tree,
        })
    }

    /// The logical profile.
    pub fn profile(&self) -> &Profile {
        if self.rescored.is_empty() {
            return &self.base;
        }
        self.current.get_or_init(|| {
            let mut profile = Profile::clone(&self.base);
            for (index, pref) in &self.rescored {
                profile.replace(*index, pref.clone());
            }
            profile
        })
    }

    /// The preference at `index`, as [`profile`](Self::profile) lists
    /// it, without building a re-scored profile.
    pub fn preference(&self, index: usize) -> Option<&ContextualPreference> {
        preference_at(&self.base, &self.rescored, index)
    }

    /// The profile to edit in place: copied if it is shared, with the
    /// re-scores kept beside it applied.
    fn profile_mut(&mut self) -> &mut Profile {
        if let Some(current) = self.current.take() {
            self.base = Arc::new(current);
            self.rescored.clear();
        }
        let profile = Arc::make_mut(&mut self.base);
        for (index, pref) in self.rescored.drain(..) {
            profile.replace(index, pref);
        }
        profile
    }

    /// The profile tree index.
    pub fn tree(&self) -> &ProfileTree {
        &self.tree
    }

    /// Give up the index, keeping the profile.
    pub fn into_profile(mut self) -> Profile {
        self.profile_mut();
        Arc::unwrap_or_clone(self.base)
    }

    /// Append `pref`; refused if it conflicts with a stored preference,
    /// which the tree detects with one root-to-leaf walk per state.
    pub fn insert(&mut self, pref: ContextualPreference) -> Result<(), ProfileError> {
        self.tree.insert(&pref)?;
        self.profile_mut().insert_unchecked(pref);
        Ok(())
    }

    /// Remove and return the preference at `index` (as listed by
    /// [`Profile::preferences`]), pruning the tree paths it alone
    /// contributed.
    pub fn remove(&mut self, index: usize) -> Result<ContextualPreference, ProfileError> {
        let gone = preference_at(&self.base, &self.rescored, index)
            .ok_or(ProfileError::NoSuchPreference(index))?;
        self.tree.remove(gone)?;
        Ok(self.profile_mut().remove(index))
    }

    /// Re-score the preference at `index`, refused if another
    /// preference shares one of its entries (Definition 6). Returns the
    /// old score, or `None` when the preference already had `score`.
    pub fn rescore(&mut self, index: usize, score: f64) -> Result<Option<f64>, ProfileError> {
        let old = preference_at(&self.base, &self.rescored, index)
            .ok_or(ProfileError::NoSuchPreference(index))?;
        let old_score = old.score();
        if old_score == score {
            return Ok(None);
        }
        let score = checked_score(score)?;
        self.tree.rescore(old, score)?;
        if Arc::get_mut(&mut self.base).is_some() {
            self.profile_mut().update_score(index, score)?;
        } else {
            self.current.take();
            match self.rescored.iter_mut().find(|(i, _)| *i == index) {
                Some(kept) => kept.1.set_score(score)?,
                None => {
                    let mut updated = self.base.preferences()[index].clone();
                    updated.set_score(score)?;
                    self.rescored.push((index, updated));
                }
            }
        }
        Ok(Some(old_score))
    }
}

#[cfg(test)]
mod tests {
    use ctxpref_context::{parse_descriptor, ContextEnvironment};
    use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder};
    use ctxpref_relation::AttrId;
    use proptest::test_runner::TestRng;

    use super::*;
    use crate::preference::AttributeClause;

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

    const DESCRIPTORS: [&str; 5] = [
        "weather = warm",
        "weather in {warm, hot}",
        "weather in {cold, warm}",
        "weather in {warm, hot} and company in {friends, family}",
        "company = friends",
    ];

    /// The counts straight from the profile: for each stored
    /// `(state, clause, score)`, how many preferences hold it.
    fn counted(profile: &Profile) -> Vec<(ctxpref_context::ContextState, String, u32)> {
        let mut out: Vec<(_, String, u32)> = Vec::new();
        for pref in profile.iter() {
            for state in pref.descriptor().states(profile.env()).unwrap() {
                let entry = format!("{:?}@{}", pref.clause(), pref.score());
                match out.iter_mut().find(|(s, e, _)| *s == state && *e == entry) {
                    Some((_, _, n)) => *n += 1,
                    None => out.push((state, entry, 1)),
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn contributor_counts_match_a_rebuild_after_random_histories() {
        let env = env();
        let order = ParamOrder::by_ascending_domain(&env);
        let other_order = ParamOrder::identity(&env);
        let mut shared = 0;
        for seed in 0..32u64 {
            let mut rng = TestRng::from_seed(seed);
            let mut indexed =
                IndexedProfile::new(Profile::new(env.clone()), order.clone()).unwrap();
            for step in 0..120 {
                let len = indexed.profile().len();
                let _ = match rng.below(8) {
                    0..4 => {
                        let pref = ContextualPreference::new(
                            parse_descriptor(&env, DESCRIPTORS[rng.below(5)]).unwrap(),
                            AttributeClause::eq(AttrId(0), ["a", "b"][rng.below(2)].into()),
                            [0.4, 0.8][rng.below(2)],
                        )
                        .unwrap();
                        indexed.insert(pref)
                    }
                    4..6 => indexed.remove(rng.below(len + 1)).map(|_| ()),
                    _ => indexed
                        .rescore(rng.below(len + 1), [0.4, 0.8][rng.below(2)])
                        .map(|_| ()),
                };
                let counts = indexed.tree().contributor_counts().unwrap();
                let rebuilt = ProfileTree::from_profile(indexed.profile(), order.clone()).unwrap();
                assert_eq!(
                    counts,
                    rebuilt.contributor_counts().unwrap(),
                    "seed {seed}, step {step}"
                );
                assert_eq!(
                    counts,
                    counted(indexed.profile()),
                    "seed {seed}, step {step}"
                );
                let reordered = indexed.tree().reorder(other_order.clone()).unwrap();
                assert_eq!(reordered.contributor_counts().unwrap(), counts);
                shared += counts.iter().filter(|(_, _, n)| *n > 1).count();
            }
        }
        assert!(shared > 0, "no history shared an entry");
    }
}
