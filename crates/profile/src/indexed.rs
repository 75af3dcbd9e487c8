use crate::error::ProfileError;
use crate::ordering::ParamOrder;
use crate::preference::ContextualPreference;
use crate::profile::Profile;
use crate::tree::ProfileTree;

/// A [`Profile`] together with its [`ProfileTree`] index, changed only
/// through [`insert`](Self::insert), [`remove`](Self::remove) and
/// [`rescore`](Self::rescore), which keep the two in step.
///
/// The tree holds the entries `ProfileTree::from_profile` would build
/// from the profile; only the order of cells and entries follows the
/// edit history. Removal prunes only the `(state, clause, score)`
/// entries no remaining preference still contributes, and a re-score
/// rewrites its entries where they sit. Each edit computes everything
/// it needs before it mutates, so a refused edit changes neither half.
///
/// The profile is a multiset: an exact duplicate is appended to the
/// profile (and removed again by its index) but adds no tree entry.
#[derive(Debug, Clone)]
pub struct IndexedProfile {
    profile: Profile,
    tree: ProfileTree,
}

impl IndexedProfile {
    /// Index `profile` under `order`; refused if two of its preferences
    /// conflict (Definition 6).
    pub fn new(profile: Profile, order: ParamOrder) -> Result<Self, ProfileError> {
        let tree = ProfileTree::from_profile(&profile, order)?;
        Ok(Self { profile, tree })
    }

    /// The logical profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The profile tree index.
    pub fn tree(&self) -> &ProfileTree {
        &self.tree
    }

    /// Give up the index, keeping the profile.
    pub fn into_profile(self) -> Profile {
        self.profile
    }

    /// Append `pref`; refused if it conflicts with a stored preference,
    /// which the tree detects with one root-to-leaf walk per state.
    pub fn insert(&mut self, pref: ContextualPreference) -> Result<(), ProfileError> {
        self.tree.insert(&pref)?;
        self.profile.insert_unchecked(pref);
        Ok(())
    }

    /// Remove and return the preference at `index` (as listed by
    /// [`Profile::preferences`]), pruning the tree paths it alone
    /// contributed.
    pub fn remove(&mut self, index: usize) -> Result<ContextualPreference, ProfileError> {
        let (env, prefs) = (self.profile.env(), self.profile.preferences());
        let gone = prefs
            .get(index)
            .ok_or(ProfileError::NoSuchPreference(index))?;
        let mut states = gone.descriptor().states(env)?;
        for (i, other) in prefs.iter().enumerate() {
            if i != index && other.clause() == gone.clause() && other.score() == gone.score() {
                let shared = other.descriptor().states(env)?;
                states.retain(|s| !shared.contains(s));
            }
        }
        let removed = self.profile.remove(index);
        for state in &states {
            self.tree
                .remove_state_entry(state, removed.clause(), removed.score());
        }
        Ok(removed)
    }

    /// Re-score the preference at `index`, checking the new score
    /// against the rest of the profile (Definition 6). Returns the old
    /// score, or `None` when the preference already had `score`.
    pub fn rescore(&mut self, index: usize, score: f64) -> Result<Option<f64>, ProfileError> {
        let old = self
            .profile
            .preferences()
            .get(index)
            .ok_or(ProfileError::NoSuchPreference(index))?;
        let old_score = old.score();
        if old_score == score {
            return Ok(None);
        }
        let updated = old.with_score(score)?;
        self.profile.check_conflicts(&updated, Some(index))?;
        // Past the conflict scan no other preference shares a
        // (state, clause) pair with this one — a sharer would have had
        // to equal both the old score and the new — so its entries are
        // its alone and are re-scored where they sit.
        for state in updated.descriptor().states(self.profile.env())? {
            let found = self
                .tree
                .update_state_entry(&state, updated.clause(), updated.score());
            debug_assert!(found, "the tree indexes every state of the profile");
        }
        self.profile.replace(index, updated);
        Ok(Some(old_score))
    }
}
