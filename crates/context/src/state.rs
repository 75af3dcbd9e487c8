use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;

use ctxpref_hierarchy::{LevelId, ValueId};

use crate::env::{ContextEnvironment, ParamId};
use crate::error::ContextError;

/// A context value: one entry of a context state. Values always belong
/// to the hierarchy of the parameter at the same position, so a bare
/// [`ValueId`] suffices (its level is derivable from the hierarchy).
pub type CtxValue = ValueId;

/// An (extended) context state `s = (c1, c2, …, cn)` with
/// `ci ∈ edom(Ci)` (Section 3.1).
///
/// A *detailed* state (every value from the detailed level `L1`) is what
/// the paper calls a plain context state; allowing values from any level
/// gives the extended states that descriptors and preferences use.
///
/// States are small (`n` is the number of context parameters, three in
/// every experiment of the paper) and are freely cloned.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextState {
    values: Box<[CtxValue]>,
}

impl ContextState {
    /// Build a state, validating arity and value membership.
    pub fn new(env: &ContextEnvironment, values: Vec<CtxValue>) -> Result<Self, ContextError> {
        if values.len() != env.len() {
            return Err(ContextError::ArityMismatch {
                expected: env.len(),
                got: values.len(),
            });
        }
        for (i, &v) in values.iter().enumerate() {
            let p = ParamId(i as u16);
            if v.index() >= env.hierarchy(p).value_count() {
                return Err(ContextError::ForeignValue { param: p });
            }
        }
        Ok(Self {
            values: values.into_boxed_slice(),
        })
    }

    /// Build a state without validation. The caller must guarantee each
    /// value belongs to the corresponding parameter's hierarchy.
    pub fn from_values_unchecked(values: Vec<CtxValue>) -> Self {
        Self {
            values: values.into_boxed_slice(),
        }
    }

    /// The `(all, all, …, all)` state — the context of an empty
    /// descriptor (Definition 4), used for non-contextual preferences.
    pub fn all(env: &ContextEnvironment) -> Self {
        Self {
            values: env.iter().map(|(_, h)| h.all_value()).collect(),
        }
    }

    /// Build a state from value names, e.g.
    /// `ContextState::parse(&env, &["Plaka", "warm", "friends"])`.
    pub fn parse(env: &ContextEnvironment, names: &[&str]) -> Result<Self, ContextError> {
        if names.len() != env.len() {
            return Err(ContextError::ArityMismatch {
                expected: env.len(),
                got: names.len(),
            });
        }
        let mut values = Vec::with_capacity(names.len());
        for ((_, h), &name) in env.iter().zip(names) {
            let v = h.lookup(name).ok_or_else(|| ContextError::UnknownValue {
                param: h.name().to_string(),
                value: name.to_string(),
            })?;
            values.push(v);
        }
        Ok(Self {
            values: values.into_boxed_slice(),
        })
    }

    /// Number of parameters (`n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    /// True iff the state has no values (impossible for states built
    /// against an environment; for API completeness).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value assigned to one parameter.
    #[inline]
    pub fn value(&self, p: ParamId) -> CtxValue {
        self.values[p.index()]
    }

    /// All values in parameter order.
    #[inline]
    pub fn values(&self) -> &[CtxValue] {
        &self.values
    }

    /// `levels(s)` of Definition 13: the hierarchy level of each value.
    pub fn levels(&self, env: &ContextEnvironment) -> Vec<LevelId> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| env.hierarchy(ParamId(i as u16)).level_of(v))
            .collect()
    }

    /// True iff every value is from the detailed level (a plain,
    /// non-extended context state — e.g. the current context at query
    /// submission time, Section 4.1).
    pub fn is_detailed(&self, env: &ContextEnvironment) -> bool {
        self.values
            .iter()
            .enumerate()
            .all(|(i, &v)| env.hierarchy(ParamId(i as u16)).level_of(v) == LevelId::DETAILED)
    }

    /// The `covers` relation of Definition 10: `self` covers `other` iff
    /// for every parameter `k`, `self_k == other_k` or
    /// `self_k = anc(other_k)` at some higher level.
    ///
    /// This is a partial order (Theorem 1); reflexivity, antisymmetry
    /// and transitivity are exercised by property tests.
    pub fn covers(&self, other: &ContextState, env: &ContextEnvironment) -> bool {
        values_cover(&self.values, &other.values, env)
    }

    /// Replace one value, producing a new state.
    pub fn with_value(&self, p: ParamId, v: CtxValue) -> Self {
        let mut values = self.values.to_vec();
        values[p.index()] = v;
        Self {
            values: values.into_boxed_slice(),
        }
    }

    /// Render with value names, e.g. `(Plaka, warm, friends)`.
    pub fn display<'a>(&'a self, env: &'a ContextEnvironment) -> impl fmt::Display + 'a {
        StateDisplay { state: self, env }
    }
}

/// A state is its values, in parameter order, as a `String` is its
/// text: where a `&[CtxValue]` is asked for, a `&ContextState` will do.
impl Deref for ContextState {
    type Target = [CtxValue];

    fn deref(&self) -> &[CtxValue] {
        &self.values
    }
}

/// A state hashes and compares as its values, so a table keyed by
/// states can be probed with a slice of values, such as the one
/// [`ContextDescriptor::for_each_state`](crate::ContextDescriptor::for_each_state)
/// lends.
impl Borrow<[CtxValue]> for ContextState {
    fn borrow(&self) -> &[CtxValue] {
        &self.values
    }
}

/// [`ContextState::covers`] over two states' values, in parameter
/// order: whether `sup` covers `sub`.
pub fn values_cover(sup: &[CtxValue], sub: &[CtxValue], env: &ContextEnvironment) -> bool {
    debug_assert_eq!(sup.len(), sub.len());
    (sup.iter().zip(sub).enumerate())
        .all(|(i, (&a, &b))| env.hierarchy(ParamId(i as u16)).is_ancestor_or_self(a, b))
}

/// Does a set of states cover another set (Definition 11)? `sup` covers
/// `sub` iff every state of `sub` is covered by some state of `sup`.
pub fn set_covers(sup: &[ContextState], sub: &[ContextState], env: &ContextEnvironment) -> bool {
    sub.iter().all(|s| sup.iter().any(|t| t.covers(s, env)))
}

struct StateDisplay<'a> {
    state: &'a ContextState,
    env: &'a ContextEnvironment,
}

impl fmt::Display for StateDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, &v) in self.state.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.env.hierarchy(ParamId(i as u16)).value_name(v))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::reference_env;

    #[test]
    fn parse_and_display_roundtrip() {
        let env = reference_env();
        let s = ContextState::parse(&env, &["Plaka", "warm", "friends"]).unwrap();
        assert_eq!(s.display(&env).to_string(), "(Plaka, warm, friends)");
        assert!(s.is_detailed(&env));
        let e = ContextState::parse(&env, &["Greece", "good", "all"]).unwrap();
        assert!(!e.is_detailed(&env));
        assert_eq!(e.display(&env).to_string(), "(Greece, good, all)");
    }

    #[test]
    fn parse_rejects_unknowns_and_arity() {
        let env = reference_env();
        assert!(matches!(
            ContextState::parse(&env, &["Sparta", "warm", "friends"]).unwrap_err(),
            ContextError::UnknownValue { .. }
        ));
        assert!(matches!(
            ContextState::parse(&env, &["Plaka", "warm"]).unwrap_err(),
            ContextError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn new_validates_membership() {
        let env = reference_env();
        let bad = ContextState::new(&env, vec![ValueId(999), ValueId(0), ValueId(0)]);
        assert!(matches!(
            bad.unwrap_err(),
            ContextError::ForeignValue { .. }
        ));
    }

    #[test]
    fn levels_match_definition_13() {
        let env = reference_env();
        let s = ContextState::parse(&env, &["Athens", "good", "all"]).unwrap();
        let lv = s.levels(&env);
        assert_eq!(lv, vec![LevelId(1), LevelId(1), LevelId(1)]);
        let d = ContextState::parse(&env, &["Plaka", "warm", "friends"]).unwrap();
        assert_eq!(d.levels(&env), vec![LevelId(0); 3]);
    }

    #[test]
    fn covers_follows_paper_examples() {
        let env = reference_env();
        let query = ContextState::parse(&env, &["Plaka", "warm", "friends"]).unwrap();
        // (Greece, warm, friends) covers (Plaka, warm, friends).
        let c1 = ContextState::parse(&env, &["Greece", "warm", "friends"]).unwrap();
        assert!(c1.covers(&query, &env));
        assert!(!query.covers(&c1, &env));
        // (Plaka, good, all) covers it as well.
        let c2 = ContextState::parse(&env, &["Plaka", "good", "all"]).unwrap();
        assert!(c2.covers(&query, &env));
        // Neither of c1, c2 covers the other (the paper's tie example).
        assert!(!c1.covers(&c2, &env) && !c2.covers(&c1, &env));
        // (all, all, all) covers everything.
        let all = ContextState::all(&env);
        for s in [&query, &c1, &c2] {
            assert!(all.covers(s, &env));
        }
        // Reflexive.
        assert!(query.covers(&query, &env));
        // Sibling regions don't cover each other.
        let kifisia = ContextState::parse(&env, &["Kifisia", "warm", "friends"]).unwrap();
        assert!(!kifisia.covers(&query, &env) && !query.covers(&kifisia, &env));
    }

    #[test]
    fn set_covers_definition_11() {
        let env = reference_env();
        let q1 = ContextState::parse(&env, &["Plaka", "warm", "friends"]).unwrap();
        let q2 = ContextState::parse(&env, &["Perama", "cold", "family"]).unwrap();
        let c1 = ContextState::parse(&env, &["Athens", "good", "all"]).unwrap();
        let c2 = ContextState::parse(&env, &["Greece", "all", "all"]).unwrap();
        assert!(set_covers(
            &[c1.clone(), c2.clone()],
            &[q1.clone(), q2.clone()],
            &env
        ));
        // c1 alone does not cover q2.
        assert!(!set_covers(&[c1], &[q1, q2], &env));
        // Empty sub-set is trivially covered.
        assert!(set_covers(&[], &[], &env));
    }

    #[test]
    fn with_value_replaces_one_slot() {
        let env = reference_env();
        let s = ContextState::parse(&env, &["Plaka", "warm", "friends"]).unwrap();
        let h = env.hierarchy(ParamId(2));
        let t = s.with_value(ParamId(2), h.lookup("family").unwrap());
        assert_eq!(t.display(&env).to_string(), "(Plaka, warm, family)");
        assert_eq!(s.display(&env).to_string(), "(Plaka, warm, friends)");
    }
}
