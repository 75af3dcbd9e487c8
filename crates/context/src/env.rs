use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use ctxpref_hierarchy::Hierarchy;

use crate::error::ContextError;

/// Index of a context parameter within its [`ContextEnvironment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(pub u16);

impl ParamId {
    #[inline]
    /// Zero-based index of the parameter.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0 as u32 + 1)
    }
}

/// The context environment `CE_X = {C1, C2, …, Cn}` of an application
/// (Section 3.1): an ordered set of context parameters, each with its
/// own hierarchy of levels.
///
/// Hierarchies are reference-counted so that states, profiles and
/// indexes can share the environment cheaply.
#[derive(Debug, Clone)]
pub struct ContextEnvironment {
    params: Arc<[Arc<Hierarchy>]>,
    by_name: Arc<HashMap<String, ParamId>>,
}

impl ContextEnvironment {
    /// Build an environment from parameter hierarchies. Parameter names
    /// (hierarchy names) must be unique.
    pub fn new(hierarchies: Vec<Hierarchy>) -> Result<Self, ContextError> {
        Self::from_arcs(hierarchies.into_iter().map(Arc::new).collect())
    }

    /// Like [`Self::new`] but sharing already-reference-counted
    /// hierarchies.
    pub fn from_arcs(hierarchies: Vec<Arc<Hierarchy>>) -> Result<Self, ContextError> {
        if hierarchies.is_empty() {
            return Err(ContextError::EmptyEnvironment);
        }
        let mut by_name = HashMap::with_capacity(hierarchies.len());
        for (i, h) in hierarchies.iter().enumerate() {
            if by_name
                .insert(h.name().to_string(), ParamId(i as u16))
                .is_some()
            {
                return Err(ContextError::DuplicateParam(h.name().to_string()));
            }
        }
        Ok(Self {
            params: hierarchies.into(),
            by_name: Arc::new(by_name),
        })
    }

    /// Number of context parameters (`n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` iff the environment has no parameters — never, by
    /// construction; present for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The hierarchy of one parameter.
    #[inline]
    pub fn hierarchy(&self, p: ParamId) -> &Hierarchy {
        &self.params[p.index()]
    }

    /// Resolve a parameter by name.
    pub fn param(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// Like [`Self::param`] but returning a typed error.
    pub fn require_param(&self, name: &str) -> Result<ParamId, ContextError> {
        self.param(name)
            .ok_or_else(|| ContextError::UnknownParam(name.to_string()))
    }

    /// Iterate over `(ParamId, &Hierarchy)` pairs in parameter order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Hierarchy)> {
        self.params
            .iter()
            .enumerate()
            .map(|(i, h)| (ParamId(i as u16), h.as_ref()))
    }

    /// All parameter ids, in order.
    pub fn param_ids(&self) -> impl Iterator<Item = ParamId> + 'static {
        (0..self.params.len() as u16).map(ParamId)
    }

    /// `|W|`: size of the world, the Cartesian product of the detailed
    /// domains. Saturates at `u128::MAX`.
    pub fn world_size(&self) -> u128 {
        self.params.iter().fold(1u128, |acc, h| {
            acc.saturating_mul(h.domain_size(h.detailed_level()) as u128)
        })
    }

    /// `|EW|`: size of the extended world, the Cartesian product of the
    /// extended domains. Saturates at `u128::MAX`.
    pub fn extended_world_size(&self) -> u128 {
        self.params
            .iter()
            .fold(1u128, |acc, h| acc.saturating_mul(h.edom_size() as u128))
    }

    /// True when two environments are the same underlying object (used
    /// by debug assertions to catch states crossing environments).
    pub fn same_as(&self, other: &ContextEnvironment) -> bool {
        Arc::ptr_eq(&self.params, &other.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> ContextEnvironment {
        ContextEnvironment::new(vec![
            Hierarchy::flat("weather", &["cold", "warm", "hot"]).unwrap(),
            Hierarchy::flat("company", &["friends", "family"]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_and_sizes() {
        let e = env();
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
        assert_eq!(e.param("weather"), Some(ParamId(0)));
        assert_eq!(e.param("company"), Some(ParamId(1)));
        assert_eq!(e.param("nope"), None);
        assert!(e.require_param("nope").is_err());
        assert_eq!(e.world_size(), 6);
        // edoms: (3 + all) * (2 + all) = 12.
        assert_eq!(e.extended_world_size(), 12);
    }

    #[test]
    fn rejects_empty_and_duplicates() {
        assert_eq!(
            ContextEnvironment::new(vec![]).unwrap_err(),
            ContextError::EmptyEnvironment
        );
        let dup = ContextEnvironment::new(vec![
            Hierarchy::flat("x", &["a"]).unwrap(),
            Hierarchy::flat("x", &["b"]).unwrap(),
        ]);
        assert!(matches!(dup.unwrap_err(), ContextError::DuplicateParam(_)));
    }

    #[test]
    fn iteration_orders_match() {
        let e = env();
        let names: Vec<&str> = e.iter().map(|(_, h)| h.name()).collect();
        assert_eq!(names, vec!["weather", "company"]);
        let ids: Vec<ParamId> = e.param_ids().collect();
        assert_eq!(ids, vec![ParamId(0), ParamId(1)]);
    }

    #[test]
    fn same_as_tracks_identity() {
        let e = env();
        let e2 = e.clone();
        assert!(e.same_as(&e2));
        assert!(!e.same_as(&env()));
    }
}
