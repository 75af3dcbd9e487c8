use std::convert::Infallible;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;

use ctxpref_hierarchy::ValueId;

use crate::clause::{clauses_of, lend_set, ClauseRef, DescriptorBuilder, ParameterDescriptor};
use crate::env::{ContextEnvironment, ParamId};
use crate::error::ContextError;
use crate::state::{ContextState, CtxValue};

/// Most parameters an environment may have for
/// [`ContextDescriptor::for_each_state`] to walk it without allocating.
pub const STACK_PARAMS: usize = 8;

/// A composite context descriptor (Definition 3): a conjunction of
/// parameter descriptors with at most one per parameter. Parameters
/// without a descriptor are implicitly `Ci = all`.
///
/// `Context(cod)` (Definition 4) — the set of states a descriptor
/// denotes — is the Cartesian product of per-parameter value sets,
/// `{all}` for absent parameters. [`ContextDescriptor::for_each_state`]
/// walks it in place, allocating nothing, and
/// [`ContextDescriptor::states`] collects that walk.
///
/// The clauses are packed, in ascending parameter order with one per
/// parameter, into one exactly sized slice of 4-byte words: a header
/// word (the parameter, then the clause's kind), then `Eq`'s value,
/// `In`'s count and values, or `Range`'s two endpoints. An `Eq` clause
/// is 8 bytes, so a descriptor pinning three parameters is a pointer, a
/// length and 24 bytes of heap. [`clause`](Self::clause) and
/// [`clauses`](Self::clauses) lend each clause as a [`ClauseRef`].
/// Build one in a single allocation with a [`DescriptorBuilder`] or
/// [`ContextDescriptor::from_clauses`]; each
/// [`ContextDescriptor::with`] re-packs the slice. Equality, hashing
/// and `Debug` are those of the slice of `(ParamId,
/// ParameterDescriptor)` pairs the clauses stand for.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ContextDescriptor {
    /// Every header word is a `ValueId` too, so `In`'s values are lent
    /// straight from the slice.
    pub(crate) words: Box<[CtxValue]>,
}

impl ContextDescriptor {
    /// The empty descriptor, denoting the single state `(all, …, all)` —
    /// how non-contextual preferences are expressed (Section 4.2).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A descriptor from clauses in any order, as if each were added in
    /// turn with [`with`](Self::with): a later clause for a parameter
    /// replaces an earlier one. The packed clauses take one allocation.
    pub fn from_clauses(clauses: Vec<(ParamId, ParameterDescriptor)>) -> Self {
        let words = clauses.iter().map(|(_, pd)| pd.as_clause().words()).sum();
        let mut builder = DescriptorBuilder::with_words(words);
        for (param, pd) in &clauses {
            builder.push(*param, pd.as_clause());
        }
        builder.build()
    }

    /// Add / replace the clause for one parameter (builder style). Each
    /// call re-packs the clauses into a new allocation: code that builds
    /// many descriptors uses a [`DescriptorBuilder`].
    #[must_use]
    pub fn with(self, param: ParamId, pd: ParameterDescriptor) -> Self {
        let added = pd.as_clause();
        let mut builder = DescriptorBuilder::with_words(self.words.len() + added.words());
        for (p, clause) in self.clauses() {
            builder.push(p, clause);
        }
        builder.push(param, added);
        builder.build()
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
        self.clauses().count()
    }

    /// True iff no parameter is constrained.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The clause for one parameter, if present.
    pub fn clause(&self, param: ParamId) -> Option<ClauseRef<'_>> {
        self.clauses()
            .take_while(|&(p, _)| p <= param)
            .find_map(|(p, clause)| (p == param).then_some(clause))
    }

    /// Iterate over `(param, clause)` pairs in parameter order.
    pub fn clauses(&self) -> impl Iterator<Item = (ParamId, ClauseRef<'_>)> + '_ {
        clauses_of(&self.words)
    }

    /// Per-parameter value sets: `Context(cod(Ci))` for constrained
    /// parameters, `{all}` otherwise. The Cartesian product of these is
    /// `Context(cod)`.
    pub fn value_sets(&self, env: &ContextEnvironment) -> Result<Vec<Vec<CtxValue>>, ContextError> {
        let mut sets = Vec::with_capacity(env.len());
        for (p, h) in env.iter() {
            let mut single = h.all_value();
            sets.push(
                lend_set(self.clause(p), p, h, &mut single)?
                    .iter()
                    .collect(),
            );
        }
        Ok(sets)
    }

    /// Number of states the descriptor denotes, without materializing
    /// them. Refused as [`states`](Self::states) is, and allocates
    /// nothing.
    pub fn state_count(&self, env: &ContextEnvironment) -> Result<u128, ContextError> {
        let mut count = 1u128;
        for (p, h) in env.iter() {
            let mut single = h.all_value();
            let set = lend_set(self.clause(p), p, h, &mut single)?;
            count = count.saturating_mul(set.len() as u128);
        }
        Ok(count)
    }

    /// `Context(cod)` of Definition 4: every state the descriptor
    /// denotes, as the Cartesian product of the per-parameter sets —
    /// [`for_each_state`](Self::for_each_state)'s walk, collected.
    pub fn states(&self, env: &ContextEnvironment) -> Result<Vec<ContextState>, ContextError> {
        let count = self.state_count(env)?;
        let mut out = Vec::with_capacity(usize::try_from(count).unwrap_or(usize::MAX));
        self.for_each_state(env, |state| {
            out.push(ContextState::from_values_unchecked(state.to_vec()));
            ControlFlow::<Infallible>::Continue(())
        })?;
        Ok(out)
    }

    /// `Context(cod)` walked in place: `visit` sees each state
    /// [`states`](Self::states) lists, in the same order, as its values
    /// in parameter order, until it breaks, and the walk answers how it
    /// ended. The descriptor is checked before any state is visited, so
    /// a refused descriptor is refused with the error `states` gives
    /// and visits nothing. Each parameter's set is lent from the
    /// descriptor's words or its hierarchy and the state is kept on the
    /// stack, so the walk allocates nothing for an environment of up to
    /// [`STACK_PARAMS`] parameters, and one buffer for a wider one.
    pub fn for_each_state<B>(
        &self,
        env: &ContextEnvironment,
        mut visit: impl FnMut(&[CtxValue]) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B>, ContextError> {
        self.state_count(env)?;
        let mut stack = [ValueId(0); STACK_PARAMS];
        let mut wide = Vec::new();
        let state = match env.len() {
            n if n <= STACK_PARAMS => &mut stack[..n],
            n => {
                wide.resize(n, ValueId(0));
                &mut wide[..]
            }
        };
        self.descend(env, state, 0, &mut visit)
    }

    /// The walk from parameter `depth` on, the values before it fixed
    /// in `state`: an odometer whose last parameter turns fastest.
    fn descend<B>(
        &self,
        env: &ContextEnvironment,
        state: &mut [CtxValue],
        depth: usize,
        visit: &mut impl FnMut(&[CtxValue]) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B>, ContextError> {
        if depth == state.len() {
            return Ok(visit(state));
        }
        let p = ParamId(depth as u16);
        let h = env.hierarchy(p);
        let mut single = h.all_value();
        for v in lend_set(self.clause(p), p, h, &mut single)?.iter() {
            state[depth] = v;
            if let ControlFlow::Break(b) = self.descend(env, state, depth + 1, visit)? {
                return Ok(ControlFlow::Break(b));
            }
        }
        Ok(ControlFlow::Continue(()))
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

/// The clause-by-clause hash of the `(ParamId, ParameterDescriptor)`
/// slice the packed words stand for: the slice's length, then each
/// pair.
impl Hash for ContextDescriptor {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.clause_count());
        for clause in self.clauses() {
            clause.hash(state);
        }
    }
}

/// Printed as the `(ParamId, ParameterDescriptor)` pairs the packed
/// words stand for.
impl fmt::Debug for ContextDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Clauses<'a>(&'a ContextDescriptor);
        impl fmt::Debug for Clauses<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.clauses()).finish()
            }
        }
        f.debug_struct("ContextDescriptor")
            .field("clauses", &Clauses(self))
            .finish()
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
    let mut builder = DescriptorBuilder::with_capacity(pinned().count());
    for (p, v, _) in pinned() {
        builder.push(p, ClauseRef::Eq(v));
    }
    builder.build()
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
        for (i, (p, clause)) in self.cod.clauses().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            let h = self.env.hierarchy(p);
            match clause {
                ClauseRef::Eq(v) => write!(f, "{} = {}", h.name(), h.value_name(v))?,
                ClauseRef::In(vs) => {
                    write!(f, "{} ∈ {{", h.name())?;
                    for (j, v) in vs.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{}", h.value_name(*v))?;
                    }
                    write!(f, "}}")?
                }
                ClauseRef::Range(a, b) => write!(
                    f,
                    "{} ∈ [{}, {}]",
                    h.name(),
                    h.value_name(a),
                    h.value_name(b)
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

    /// Records each hasher call with its kind, so two hashes agree only
    /// if they made the same calls with the same bytes.
    #[derive(Default)]
    struct Calls(Vec<u8>);

    impl Hasher for Calls {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.push(0);
            self.0.extend_from_slice(bytes);
        }
        fn write_u16(&mut self, i: u16) {
            self.0.push(2);
            self.0.extend_from_slice(&i.to_le_bytes());
        }
        fn write_u32(&mut self, i: u32) {
            self.0.push(4);
            self.0.extend_from_slice(&i.to_le_bytes());
        }
        fn write_usize(&mut self, i: usize) {
            self.0.push(8);
            self.0.extend_from_slice(&i.to_le_bytes());
        }
        fn write_isize(&mut self, i: isize) {
            self.0.push(9);
            self.0.extend_from_slice(&i.to_le_bytes());
        }
    }

    #[test]
    fn packed_clauses_hash_and_print_as_their_pairs() {
        let env = reference_env();
        let (loc, tmp) = (
            env.param("location").unwrap(),
            env.param("temperature").unwrap(),
        );
        let (lh, th) = (env.hierarchy(loc), env.hierarchy(tmp));
        let [plaka, warm, hot, mild] = [(lh, "Plaka"), (th, "warm"), (th, "hot"), (th, "mild")]
            .map(|(h, v)| h.lookup(v).unwrap());
        let pairs: Vec<Vec<(ParamId, ParameterDescriptor)>> = vec![
            vec![],
            vec![(loc, ParameterDescriptor::Eq(plaka))],
            vec![
                (loc, ParameterDescriptor::Eq(plaka)),
                (tmp, ParameterDescriptor::In(vec![warm, hot, warm])),
            ],
            vec![(tmp, ParameterDescriptor::In(vec![]))],
            vec![
                (loc, ParameterDescriptor::In(vec![plaka])),
                (tmp, ParameterDescriptor::Range(mild, hot)),
            ],
        ];
        for pairs in pairs {
            let cod = ContextDescriptor::from_clauses(pairs.clone());
            let slice = pairs.clone().into_boxed_slice();
            let (mut a, mut b) = (Calls::default(), Calls::default());
            cod.hash(&mut a);
            slice.hash(&mut b);
            assert_eq!(a.0, b.0, "{pairs:?}");
            let (mut a, mut b) = (
                std::collections::hash_map::DefaultHasher::new(),
                std::collections::hash_map::DefaultHasher::new(),
            );
            cod.hash(&mut a);
            slice.hash(&mut b);
            assert_eq!(a.finish(), b.finish());
            assert_eq!(
                format!("{cod:?}"),
                format!("ContextDescriptor {{ clauses: {slice:?} }}")
            );
            let lent: Vec<_> = cod
                .clauses()
                .map(|(p, c)| (p, ParameterDescriptor::from(c)))
                .collect();
            assert_eq!(lent, pairs);
        }
    }

    #[test]
    fn a_builder_sorts_and_keeps_the_last_clause_of_a_parameter() {
        let env = reference_env();
        let [loc, tmp, ppl] =
            ["location", "temperature", "accompanying_people"].map(|p| env.param(p).unwrap());
        let v = |p: ParamId, name: &str| env.hierarchy(p).lookup(name).unwrap();
        let mut builder = DescriptorBuilder::with_capacity(2);
        builder.push(ppl, ClauseRef::Eq(v(ppl, "friends")));
        builder.push(loc, ClauseRef::In(&[v(loc, "Plaka"), v(loc, "Kifisia")]));
        builder.push(tmp, ClauseRef::Eq(v(tmp, "warm")));
        builder.push(loc, ClauseRef::Eq(v(loc, "Plaka")));
        let cod = builder.build();
        let expected = ContextDescriptor::empty()
            .with_eq(&env, "accompanying_people", "friends")
            .unwrap()
            .with_eq(&env, "temperature", "warm")
            .unwrap()
            .with_eq(&env, "location", "Plaka")
            .unwrap();
        assert_eq!(cod, expected);
        assert_eq!(cod.words.len(), 6, "three `Eq` clauses of two words");
        assert_eq!(cod.clause(loc), Some(ClauseRef::Eq(v(loc, "Plaka"))));
        // A replaced clause of another size re-packs exactly.
        let wide = cod.with(
            tmp,
            ParameterDescriptor::In(vec![v(tmp, "warm"), v(tmp, "hot")]),
        );
        assert_eq!(wide.words.len(), 8);
        assert_eq!(wide.clause_count(), 3);
        assert_eq!(
            wide.clause(tmp),
            Some(ClauseRef::In(&[v(tmp, "warm"), v(tmp, "hot")]))
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
