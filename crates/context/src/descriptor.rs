use std::fmt;

use ctxpref_hierarchy::Hierarchy;

use crate::env::{ContextEnvironment, ParamId};
use crate::error::ContextError;
use crate::state::{ContextState, CtxValue};

/// A context parameter descriptor `cod(Ci)` (Definition 1): a condition
/// a user states about one context parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ParameterDescriptor {
    /// `Ci = v`, `v ∈ edom(Ci)`.
    Eq(CtxValue),
    /// `Ci ∈ {v1, …, vm}`, each `vk ∈ edom(Ci)`.
    In(Vec<CtxValue>),
    /// `Ci ∈ [v1, vm]` — all values between `v1` and `vm` (inclusive) in
    /// the within-level order; both endpoints must live at the same
    /// level (domains are countable, so ranges expand to finite sets).
    Range(CtxValue, CtxValue),
}

impl ParameterDescriptor {
    /// `Context(c)` of Definition 2: the finite set of values the
    /// descriptor denotes, deduplicated, in first-mention order.
    pub fn values(&self, param: ParamId, h: &Hierarchy) -> Result<Vec<CtxValue>, ContextError> {
        let check = |v: CtxValue| -> Result<CtxValue, ContextError> {
            if v.index() >= h.value_count() {
                Err(ContextError::ForeignValue { param })
            } else {
                Ok(v)
            }
        };
        match self {
            Self::Eq(v) => Ok(vec![check(*v)?]),
            Self::In(vs) => {
                if vs.is_empty() {
                    return Err(ContextError::EmptyValueSet { param });
                }
                let mut out = Vec::with_capacity(vs.len());
                for &v in vs {
                    let v = check(v)?;
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
                Ok(out)
            }
            Self::Range(from, to) => {
                let (from, to) = (check(*from)?, check(*to)?);
                h.range_values(from, to)
                    .ok_or(ContextError::RangeLevelMismatch { param })
            }
        }
    }
}

/// A composite context descriptor (Definition 3): a conjunction of
/// parameter descriptors with at most one per parameter. Parameters
/// without a descriptor are implicitly `Ci = all`.
///
/// `Context(cod)` (Definition 4) — the set of states a descriptor
/// denotes — is computed by [`ContextDescriptor::states`] as the
/// Cartesian product of per-parameter value sets, `{all}` for absent
/// parameters.
///
/// The clauses are one exactly sized slice, sorted by parameter with one
/// entry per parameter: a descriptor is a pointer and a length, and its
/// clauses take one allocation of exactly their size. Build one in a
/// single step with [`ContextDescriptor::from_clauses`]; each
/// [`ContextDescriptor::with`] re-sizes the slice.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ContextDescriptor {
    clauses: Box<[(ParamId, ParameterDescriptor)]>,
}

impl ContextDescriptor {
    /// The empty descriptor, denoting the single state `(all, …, all)` —
    /// how non-contextual preferences are expressed (Section 4.2).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A descriptor from clauses in any order, as if each were added in
    /// turn with [`with`](Self::with): a later clause for a parameter
    /// replaces an earlier one.
    ///
    /// The descriptor keeps `clauses`' own allocation, re-sized only when
    /// it has spare capacity or names a parameter twice: fill a `Vec`
    /// made with the capacity the clauses need.
    pub fn from_clauses(mut clauses: Vec<(ParamId, ParameterDescriptor)>) -> Self {
        // Stable, so the clauses of one parameter keep their order; a
        // slice this short sorts in place.
        clauses.sort_by_key(|&(p, _)| p);
        // `dedup_by` keeps the first clause of a run: carry each later
        // one into that slot before it drops the earlier.
        clauses.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        Self {
            clauses: clauses.into_boxed_slice(),
        }
    }

    /// Add / replace the clause for one parameter (builder style). An
    /// added clause re-sizes the slice, one reallocation per call: code
    /// that builds many descriptors uses
    /// [`from_clauses`](Self::from_clauses).
    #[must_use]
    pub fn with(self, param: ParamId, pd: ParameterDescriptor) -> Self {
        let mut clauses = Vec::from(self.clauses);
        match clauses.binary_search_by_key(&param, |&(p, _)| p) {
            Ok(i) => clauses[i].1 = pd,
            Err(i) => {
                clauses.reserve_exact(1);
                clauses.insert(i, (param, pd));
            }
        }
        Self {
            clauses: clauses.into_boxed_slice(),
        }
    }

    /// Convenience: `param = value`, both resolved by name.
    pub fn with_eq(
        self,
        env: &ContextEnvironment,
        param: &str,
        value: &str,
    ) -> Result<Self, ContextError> {
        let p = env.require_param(param)?;
        let h = env.hierarchy(p);
        let v = h.lookup(value).ok_or_else(|| ContextError::UnknownValue {
            param: param.to_string(),
            value: value.to_string(),
        })?;
        Ok(self.with(p, ParameterDescriptor::Eq(v)))
    }

    /// Number of parameters with an explicit clause (`k` in Def. 4).
    pub fn clause_count(&self) -> usize {
        self.clauses.len()
    }

    /// True iff no parameter is constrained.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The clause for one parameter, if present.
    pub fn clause(&self, param: ParamId) -> Option<&ParameterDescriptor> {
        self.clauses
            .binary_search_by_key(&param, |&(p, _)| p)
            .ok()
            .map(|i| &self.clauses[i].1)
    }

    /// Iterate over `(param, descriptor)` clauses in parameter order.
    pub fn clauses(&self) -> impl Iterator<Item = (ParamId, &ParameterDescriptor)> {
        self.clauses.iter().map(|(p, pd)| (*p, pd))
    }

    /// Per-parameter value sets: `Context(cod(Ci))` for constrained
    /// parameters, `{all}` otherwise. The Cartesian product of these is
    /// `Context(cod)`.
    pub fn value_sets(&self, env: &ContextEnvironment) -> Result<Vec<Vec<CtxValue>>, ContextError> {
        let mut sets = Vec::with_capacity(env.len());
        for (p, h) in env.iter() {
            match self.clause(p) {
                Some(pd) => sets.push(pd.values(p, h)?),
                None => sets.push(vec![h.all_value()]),
            }
        }
        Ok(sets)
    }

    /// Number of states the descriptor denotes, without materializing
    /// them.
    pub fn state_count(&self, env: &ContextEnvironment) -> Result<u128, ContextError> {
        Ok(self
            .value_sets(env)?
            .iter()
            .fold(1u128, |acc, s| acc.saturating_mul(s.len() as u128)))
    }

    /// `Context(cod)` of Definition 4: every state the descriptor
    /// denotes, as the Cartesian product of the per-parameter sets.
    pub fn states(&self, env: &ContextEnvironment) -> Result<Vec<ContextState>, ContextError> {
        let sets = self.value_sets(env)?;
        let total: usize = sets.iter().map(Vec::len).product();
        let mut out = Vec::with_capacity(total);
        let mut current = Vec::with_capacity(sets.len());
        cartesian(&sets, &mut current, &mut out);
        Ok(out)
    }

    /// Do the contexts of two descriptors share at least one state?
    /// Used by conflict detection (Definition 6 condition 1). Because
    /// `Context(cod)` is a Cartesian product of per-parameter sets, two
    /// contexts intersect iff every per-parameter pair of sets
    /// intersects — no state materialization needed.
    pub fn overlaps(
        &self,
        other: &ContextDescriptor,
        env: &ContextEnvironment,
    ) -> Result<bool, ContextError> {
        let a = self.value_sets(env)?;
        let b = other.value_sets(env)?;
        Ok(a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.iter().any(|v| y.contains(v))))
    }

    /// Render using value names, e.g.
    /// `(location = Plaka ∧ temperature ∈ {warm, hot})`.
    pub fn display<'a>(&'a self, env: &'a ContextEnvironment) -> impl fmt::Display + 'a {
        DescriptorDisplay { cod: self, env }
    }
}

/// The descriptor pinning every parameter of `state` that is not `all`:
/// how a query's implicit current context is written as a descriptor.
/// The pinned parameters are counted first, so the clauses take one
/// allocation of exactly their size.
pub fn descriptor_of_state(env: &ContextEnvironment, state: &ContextState) -> ContextDescriptor {
    let pinned = || {
        env.iter()
            .map(|(p, h)| (p, state.value(p), h.all_value()))
            .filter(|&(_, v, all)| v != all)
    };
    let mut clauses = Vec::with_capacity(pinned().count());
    clauses.extend(pinned().map(|(p, v, _)| (p, ParameterDescriptor::Eq(v))));
    ContextDescriptor::from_clauses(clauses)
}

fn cartesian(sets: &[Vec<CtxValue>], current: &mut Vec<CtxValue>, out: &mut Vec<ContextState>) {
    if current.len() == sets.len() {
        out.push(ContextState::from_values_unchecked(current.clone()));
        return;
    }
    for &v in &sets[current.len()] {
        current.push(v);
        cartesian(sets, current, out);
        current.pop();
    }
}

struct DescriptorDisplay<'a> {
    cod: &'a ContextDescriptor,
    env: &'a ContextEnvironment,
}

impl fmt::Display for DescriptorDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cod.is_empty() {
            return write!(f, "(true)");
        }
        write!(f, "(")?;
        for (i, (p, pd)) in self.cod.clauses().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            let h = self.env.hierarchy(p);
            match pd {
                ParameterDescriptor::Eq(v) => write!(f, "{} = {}", h.name(), h.value_name(*v))?,
                ParameterDescriptor::In(vs) => {
                    write!(f, "{} ∈ {{", h.name())?;
                    for (j, v) in vs.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{}", h.value_name(*v))?;
                    }
                    write!(f, "}}")?
                }
                ParameterDescriptor::Range(a, b) => write!(
                    f,
                    "{} ∈ [{}, {}]",
                    h.name(),
                    h.value_name(*a),
                    h.value_name(*b)
                )?,
            }
        }
        write!(f, ")")
    }
}

/// An extended context descriptor (Definition 8): a disjunction of
/// composite descriptors, `(cod11 ∧ …) ∨ … ∨ (codl1 ∧ …)`. This is what
/// queries carry (Definition 9) — e.g. the exploratory query "when I
/// travel to Athens with my family this summer".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExtendedContextDescriptor {
    disjuncts: Vec<ContextDescriptor>,
}

impl ExtendedContextDescriptor {
    /// A descriptor with no disjuncts denotes no states (callers treat
    /// queries with an empty context as non-contextual).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an explicit list of disjuncts.
    pub fn from_disjuncts(disjuncts: Vec<ContextDescriptor>) -> Self {
        Self { disjuncts }
    }

    /// Add one disjunct (builder style).
    #[must_use]
    pub fn or(mut self, cod: ContextDescriptor) -> Self {
        self.disjuncts.push(cod);
        self
    }

    /// The disjuncts, in insertion order.
    pub fn disjuncts(&self) -> &[ContextDescriptor] {
        &self.disjuncts
    }

    /// True iff there are no disjuncts (denotes no states).
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// All states denoted by the disjunction — the union of the
    /// disjuncts' contexts, deduplicated, in first-mention order.
    pub fn states(&self, env: &ContextEnvironment) -> Result<Vec<ContextState>, ContextError> {
        let mut out: Vec<ContextState> = Vec::new();
        for cod in &self.disjuncts {
            for s in cod.states(env)? {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        Ok(out)
    }
}

impl From<ContextDescriptor> for ExtendedContextDescriptor {
    fn from(cod: ContextDescriptor) -> Self {
        Self {
            disjuncts: vec![cod],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::reference_env;

    fn pd_eq(env: &ContextEnvironment, param: &str, value: &str) -> (ParamId, ParameterDescriptor) {
        let p = env.param(param).unwrap();
        let v = env.hierarchy(p).lookup(value).unwrap();
        (p, ParameterDescriptor::Eq(v))
    }

    #[test]
    fn eq_descriptor_denotes_singleton() {
        let env = reference_env();
        let (p, pd) = pd_eq(&env, "location", "Plaka");
        let vs = pd.values(p, env.hierarchy(p)).unwrap();
        assert_eq!(vs.len(), 1);
        assert_eq!(env.hierarchy(p).value_name(vs[0]), "Plaka");
    }

    #[test]
    fn in_descriptor_dedupes_and_rejects_empty() {
        let env = reference_env();
        let p = env.param("temperature").unwrap();
        let h = env.hierarchy(p);
        let warm = h.lookup("warm").unwrap();
        let hot = h.lookup("hot").unwrap();
        let pd = ParameterDescriptor::In(vec![warm, hot, warm]);
        assert_eq!(pd.values(p, h).unwrap(), vec![warm, hot]);
        let empty = ParameterDescriptor::In(vec![]);
        assert!(matches!(
            empty.values(p, h).unwrap_err(),
            ContextError::EmptyValueSet { .. }
        ));
    }

    #[test]
    fn range_descriptor_expands_paper_example() {
        // temperature ∈ [mild, hot] = {mild, warm, hot}.
        let env = reference_env();
        let p = env.param("temperature").unwrap();
        let h = env.hierarchy(p);
        let pd = ParameterDescriptor::Range(h.lookup("mild").unwrap(), h.lookup("hot").unwrap());
        let names: Vec<&str> = pd
            .values(p, h)
            .unwrap()
            .into_iter()
            .map(|v| h.value_name(v))
            .collect();
        assert_eq!(names, vec!["mild", "warm", "hot"]);
        // Cross-level range is rejected.
        let bad = ParameterDescriptor::Range(h.lookup("mild").unwrap(), h.lookup("good").unwrap());
        assert!(matches!(
            bad.values(p, h).unwrap_err(),
            ContextError::RangeLevelMismatch { .. }
        ));
    }

    #[test]
    fn composite_expansion_matches_definition_4() {
        // (location = Plaka ∧ temperature ∈ {warm, hot}) with
        // accompanying_people absent → two states ending in `all`.
        let env = reference_env();
        let loc = env.param("location").unwrap();
        let tmp = env.param("temperature").unwrap();
        let lh = env.hierarchy(loc);
        let th = env.hierarchy(tmp);
        let cod = ContextDescriptor::empty()
            .with(loc, ParameterDescriptor::Eq(lh.lookup("Plaka").unwrap()))
            .with(
                tmp,
                ParameterDescriptor::In(vec![
                    th.lookup("warm").unwrap(),
                    th.lookup("hot").unwrap(),
                ]),
            );
        let states = cod.states(&env).unwrap();
        let rendered: Vec<String> = states.iter().map(|s| s.display(&env).to_string()).collect();
        assert_eq!(rendered, vec!["(Plaka, warm, all)", "(Plaka, hot, all)"]);
        assert_eq!(cod.state_count(&env).unwrap(), 2);
    }

    #[test]
    fn empty_descriptor_denotes_all_state() {
        let env = reference_env();
        let states = ContextDescriptor::empty().states(&env).unwrap();
        assert_eq!(states.len(), 1);
        assert_eq!(states[0], ContextState::all(&env));
    }

    #[test]
    fn overlaps_detects_shared_states() {
        let env = reference_env();
        let a = ContextDescriptor::empty()
            .with_eq(&env, "location", "Plaka")
            .unwrap()
            .with_eq(&env, "temperature", "warm")
            .unwrap();
        let b = ContextDescriptor::empty()
            .with_eq(&env, "location", "Plaka")
            .unwrap();
        // b leaves temperature = all, a pins warm → different states.
        assert!(!a.overlaps(&b, &env).unwrap());
        let c = ContextDescriptor::empty()
            .with_eq(&env, "location", "Plaka")
            .unwrap()
            .with_eq(&env, "temperature", "warm")
            .unwrap()
            .with_eq(&env, "accompanying_people", "all")
            .unwrap();
        assert!(a.overlaps(&c, &env).unwrap());
        // Brute-force cross-check against state sets.
        let sa = a.states(&env).unwrap();
        let sc = c.states(&env).unwrap();
        assert!(sa.iter().any(|s| sc.contains(s)));
    }

    #[test]
    fn extended_descriptor_unions_and_dedupes() {
        let env = reference_env();
        let a = ContextDescriptor::empty()
            .with_eq(&env, "location", "Plaka")
            .unwrap();
        let b = ContextDescriptor::empty()
            .with_eq(&env, "location", "Plaka")
            .unwrap();
        let c = ContextDescriptor::empty()
            .with_eq(&env, "location", "Kifisia")
            .unwrap();
        let e = ExtendedContextDescriptor::new().or(a).or(b).or(c);
        assert_eq!(e.states(&env).unwrap().len(), 2);
        assert!(ExtendedContextDescriptor::new().is_empty());
    }

    #[test]
    fn display_renders_paper_notation() {
        let env = reference_env();
        let tmp = env.param("temperature").unwrap();
        let th = env.hierarchy(tmp);
        let cod = ContextDescriptor::empty()
            .with_eq(&env, "location", "Plaka")
            .unwrap()
            .with(
                tmp,
                ParameterDescriptor::Range(th.lookup("warm").unwrap(), th.lookup("hot").unwrap()),
            );
        assert_eq!(
            cod.display(&env).to_string(),
            "(location = Plaka ∧ temperature ∈ [warm, hot])"
        );
        assert_eq!(
            ContextDescriptor::empty().display(&env).to_string(),
            "(true)"
        );
    }

    #[test]
    fn with_eq_reports_unknowns() {
        let env = reference_env();
        assert!(matches!(
            ContextDescriptor::empty()
                .with_eq(&env, "nope", "Plaka")
                .unwrap_err(),
            ContextError::UnknownParam(_)
        ));
        assert!(matches!(
            ContextDescriptor::empty()
                .with_eq(&env, "location", "Sparta")
                .unwrap_err(),
            ContextError::UnknownValue { .. }
        ));
    }
}
