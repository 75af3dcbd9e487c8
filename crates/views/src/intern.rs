//! Context-state interning.
//!
//! The resolution hot path used to pass whole [`ContextState`] values
//! (boxed value slices) around as keys. A [`StateTable`] interns each
//! distinct state once and hands out a dense [`StateId`] — a `u32` —
//! so view keys, selection signatures, and hit-frequency tracking all
//! compare and hash a single integer instead of a slice. The table is
//! append-only: ids stay stable for the table's lifetime, which is
//! what lets a view's selection signature be compared across
//! mutations without re-hashing states.

use std::collections::HashMap;

use ctxpref_context::{ContextState, CtxValue};

/// A dense interned id for a [`ContextState`] within one
/// [`StateTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// Zero-based index into the owning table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only intern table mapping context states to dense
/// [`StateId`]s.
#[derive(Debug, Default)]
pub struct StateTable {
    ids: HashMap<ContextState, StateId>,
    states: Vec<ContextState>,
}

impl StateTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `state`, returning its stable id (allocating one on
    /// first sight).
    pub fn intern(&mut self, state: &ContextState) -> StateId {
        if let Some(&id) = self.ids.get(state) {
            return id;
        }
        let id = StateId(self.states.len() as u32);
        self.states.push(state.clone());
        self.ids.insert(state.clone(), id);
        id
    }

    /// The id of the state of `state`'s values if it has been interned,
    /// without allocating.
    pub fn lookup(&self, state: &[CtxValue]) -> Option<StateId> {
        self.ids.get(state).copied()
    }

    /// The state behind an id minted by this table.
    pub fn resolve(&self, id: StateId) -> &ContextState {
        &self.states[id.index()]
    }

    /// Number of distinct states interned.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no state has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_context::ContextEnvironment;
    use ctxpref_hierarchy::Hierarchy;

    fn env() -> ContextEnvironment {
        ContextEnvironment::new(vec![
            Hierarchy::flat("a", &["x", "y"]).unwrap(),
            Hierarchy::flat("b", &["p", "q"]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let env = env();
        let s1 = ContextState::parse(&env, &["x", "p"]).unwrap();
        let s2 = ContextState::parse(&env, &["y", "q"]).unwrap();
        let mut t = StateTable::new();
        let id1 = t.intern(&s1);
        let id2 = t.intern(&s2);
        assert_ne!(id1, id2);
        assert_eq!(t.intern(&s1), id1, "re-interning returns the same id");
        assert_eq!(t.lookup(&s2), Some(id2));
        assert_eq!(t.resolve(id1), &s1);
        assert_eq!(t.len(), 2);
        let s3 = ContextState::parse(&env, &["all", "all"]).unwrap();
        assert_eq!(t.lookup(&s3), None, "lookup never allocates an id");
    }
}
