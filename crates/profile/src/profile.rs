use ctxpref_context::{ContextEnvironment, ContextState};

use crate::error::ProfileError;
use crate::preference::ContextualPreference;

/// A profile `P` (Definition 7): a set of non-conflicting contextual
/// preferences over one context environment.
///
/// `Profile` is the *logical* representation; [`crate::ProfileTree`] and
/// [`crate::SerialStore`] are physical ones built from it. Insertion
/// performs the pairwise conflict check of Definition 6 (the tree
/// detects the same conflicts in a single root-to-leaf traversal — see
/// `ProfileTree::insert`).
#[derive(Debug, Clone)]
pub struct Profile {
    env: ContextEnvironment,
    prefs: Vec<ContextualPreference>,
}

impl Profile {
    /// An empty profile over `env`.
    pub fn new(env: ContextEnvironment) -> Self {
        Self {
            env,
            prefs: Vec::new(),
        }
    }

    /// The context environment.
    pub fn env(&self) -> &ContextEnvironment {
        &self.env
    }

    /// Number of preferences.
    pub fn len(&self) -> usize {
        self.prefs.len()
    }

    /// True iff the profile holds no preferences.
    pub fn is_empty(&self) -> bool {
        self.prefs.is_empty()
    }

    /// The preferences, in insertion order.
    pub fn preferences(&self) -> &[ContextualPreference] {
        &self.prefs
    }

    /// Iterate over the preferences.
    pub fn iter(&self) -> impl Iterator<Item = &ContextualPreference> {
        self.prefs.iter()
    }

    /// Insert a preference after checking it conflicts with no existing
    /// one. Exact duplicates (same descriptor, clause, and score) are
    /// ignored, returning `Ok(false)`.
    pub fn insert(&mut self, pref: ContextualPreference) -> Result<bool, ProfileError> {
        self.check_conflicts(&pref)?;
        if self.prefs.contains(&pref) {
            return Ok(false);
        }
        self.prefs.push(pref);
        Ok(true)
    }

    /// The conflict check of Definition 6 against every preference. A
    /// conflict is reported with a witness state the two contexts share.
    fn check_conflicts(&self, pref: &ContextualPreference) -> Result<(), ProfileError> {
        for existing in &self.prefs {
            if !existing.conflicts_with(pref, &self.env)? {
                continue;
            }
            let theirs = pref.descriptor().states(&self.env)?;
            let state = existing
                .descriptor()
                .states(&self.env)?
                .into_iter()
                .find(|s| theirs.contains(s))
                .unwrap_or_else(|| ContextState::all(&self.env));
            return Err(ProfileError::Conflict {
                state,
                existing_score: existing.score(),
                new_score: pref.score(),
            });
        }
        Ok(())
    }

    /// Insert without conflict checking (used by generators that are
    /// conflict-free by construction; the profile tree will still catch
    /// violations when built).
    pub fn insert_unchecked(&mut self, pref: ContextualPreference) {
        self.prefs.push(pref);
    }

    /// Remove the preference at `index`, returning it.
    pub fn remove(&mut self, index: usize) -> ContextualPreference {
        self.prefs.remove(index)
    }

    /// Update the interest score of the preference at `index`. Score
    /// updates never conflict: the old preference is replaced.
    pub fn update_score(&mut self, index: usize, score: f64) -> Result<(), ProfileError> {
        self.prefs[index].set_score(score)
    }

    /// Replace the preference at `index` with one its caller has
    /// already checked against the rest of the profile.
    pub(crate) fn replace(&mut self, index: usize, pref: ContextualPreference) {
        self.prefs[index] = pref;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preference::AttributeClause;
    use ctxpref_context::ContextDescriptor;
    use ctxpref_hierarchy::Hierarchy;
    use ctxpref_relation::AttrId;

    fn env() -> ContextEnvironment {
        ContextEnvironment::new(vec![Hierarchy::flat("weather", &["cold", "warm"]).unwrap()])
            .unwrap()
    }

    fn pref(
        env: &ContextEnvironment,
        weather: &str,
        name: &str,
        score: f64,
    ) -> ContextualPreference {
        let cod = ContextDescriptor::empty()
            .with_eq(env, "weather", weather)
            .unwrap();
        ContextualPreference::new(cod, AttributeClause::eq(AttrId(0), name.into()), score).unwrap()
    }

    #[test]
    fn insert_and_conflict() {
        let env = env();
        let mut p = Profile::new(env.clone());
        assert!(p.is_empty());
        assert!(p.insert(pref(&env, "warm", "Acropolis", 0.8)).unwrap());
        assert!(p.insert(pref(&env, "cold", "Acropolis", 0.3)).unwrap());
        assert_eq!(p.len(), 2);
        // Conflicting: warm + Acropolis already scored 0.8.
        let err = p.insert(pref(&env, "warm", "Acropolis", 0.1)).unwrap_err();
        match err {
            ProfileError::Conflict {
                existing_score,
                new_score,
                state,
            } => {
                assert_eq!(existing_score, 0.8);
                assert_eq!(new_score, 0.1);
                assert_eq!(state.display(&env).to_string(), "(warm)");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Exact duplicate is a no-op.
        assert!(!p.insert(pref(&env, "warm", "Acropolis", 0.8)).unwrap());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn remove_and_update() {
        let env = env();
        let mut p = Profile::new(env.clone());
        p.insert(pref(&env, "warm", "Acropolis", 0.8)).unwrap();
        p.update_score(0, 0.5).unwrap();
        assert_eq!(p.preferences()[0].score(), 0.5);
        assert!(p.update_score(0, 2.0).is_err());
        let removed = p.remove(0);
        assert_eq!(removed.score(), 0.5);
        assert!(p.is_empty());
    }

    #[test]
    fn iteration() {
        let env = env();
        let mut p = Profile::new(env.clone());
        p.insert(pref(&env, "warm", "a", 0.1)).unwrap();
        p.insert(pref(&env, "warm", "b", 0.2)).unwrap();
        assert_eq!(p.iter().count(), 2);
        assert_eq!(p.env().len(), 1);
    }
}
