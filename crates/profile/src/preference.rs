use std::fmt;
use std::hash::{Hash, Hasher};

use ctxpref_context::{ContextDescriptor, ContextEnvironment};
use ctxpref_relation::{AttrId, CompareOp, Predicate, Schema, Value};

use crate::error::ProfileError;

/// An attribute clause `A θ a` of Definition 5. The paper's exposition
/// simplifies to a single clause of the form `A = a`; the full operator
/// set `θ ∈ {=, <, >, ≤, ≥, ≠}` of the definition is supported.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttributeClause {
    /// The attribute the clause constrains.
    pub attr: AttrId,
    /// The comparison operator θ.
    pub op: CompareOp,
    /// The constant the attribute is compared against.
    pub value: Value,
}

impl AttributeClause {
    /// A clause `attr θ value`.
    pub fn new(attr: AttrId, op: CompareOp, value: Value) -> Self {
        Self { attr, op, value }
    }

    /// The paper's simplified `A = a` form.
    pub fn eq(attr: AttrId, value: Value) -> Self {
        Self::new(attr, CompareOp::Eq, value)
    }

    /// Resolve names against a schema: `AttributeClause::parse(&schema,
    /// "type", CompareOp::Eq, "brewery".into())`.
    pub fn resolve(
        schema: &Schema,
        attr: &str,
        op: CompareOp,
        value: Value,
    ) -> Result<Self, ctxpref_relation::RelationError> {
        Ok(Self::new(schema.require_attr(attr)?, op, value))
    }

    /// The selection predicate `σ_{A θ a}` this clause denotes.
    pub fn predicate(&self) -> Predicate {
        Predicate::new(self.attr, self.op, self.value.clone())
    }

    /// Render against a schema, e.g. `type = brewery`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a AttributeClause, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(
                    f,
                    "{} {} {}",
                    self.1.attr_name(self.0.attr),
                    self.0.op,
                    self.0.value
                )
            }
        }
        D(self, schema)
    }
}

/// A contextual preference (Definition 5): a context descriptor that
/// scopes where the preference applies, an attribute clause selecting
/// database tuples, and an interest score in `[0, 1]` (1 = extreme
/// interest, 0 = no interest).
#[derive(Debug, Clone, PartialEq)]
pub struct ContextualPreference {
    descriptor: ContextDescriptor,
    clause: AttributeClause,
    score: f64,
}

/// An interest score as a preference stores it: refused unless in
/// `[0, 1]`, and `-0.0` as `0.0`.
pub(crate) fn checked_score(score: f64) -> Result<f64, ProfileError> {
    match (0.0..=1.0).contains(&score) {
        true => Ok(score + 0.0),
        false => Err(ProfileError::InvalidScore(score)),
    }
}

impl ContextualPreference {
    /// Build a preference, validating the interest score. `-0.0` is
    /// stored as `0.0`: the two compare equal (so they never conflict),
    /// and ranking groups and orders scores by value, which must then
    /// agree bit for bit.
    pub fn new(
        descriptor: ContextDescriptor,
        clause: AttributeClause,
        score: f64,
    ) -> Result<Self, ProfileError> {
        Ok(Self {
            descriptor,
            clause,
            score: checked_score(score)?,
        })
    }

    /// The context descriptor scoping the preference.
    pub fn descriptor(&self) -> &ContextDescriptor {
        &self.descriptor
    }

    /// The attribute clause selecting tuples.
    pub fn clause(&self) -> &AttributeClause {
        &self.clause
    }

    /// The interest score in `[0, 1]`.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Replace the score (used when a user updates a preference).
    pub fn with_score(&self, score: f64) -> Result<Self, ProfileError> {
        Self::new(self.descriptor.clone(), self.clause.clone(), score)
    }

    /// Replace the score in place, checked as [`Self::new`] checks it.
    pub(crate) fn set_score(&mut self, score: f64) -> Result<(), ProfileError> {
        self.score = checked_score(score)?;
        Ok(())
    }

    /// The conflict test of Definition 6: two preferences conflict iff
    /// their contexts share a state, their clauses are identical, and
    /// their scores differ.
    pub fn conflicts_with(
        &self,
        other: &ContextualPreference,
        env: &ContextEnvironment,
    ) -> Result<bool, ProfileError> {
        if self.clause != other.clause || self.score == other.score {
            return Ok(false);
        }
        Ok(self.descriptor.overlaps(&other.descriptor, env)?)
    }
}

/// The score hashes by its bits. That agrees with `==` because
/// [`ContextualPreference::new`] stores `-0.0` as `0.0` and refuses NaN.
impl Hash for ContextualPreference {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.descriptor.hash(state);
        self.clause.hash(state);
        self.score.to_bits().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_context::ContextDescriptor;
    use ctxpref_hierarchy::Hierarchy;
    use ctxpref_relation::AttrType;

    fn env() -> ContextEnvironment {
        ContextEnvironment::new(vec![
            Hierarchy::flat("weather", &["cold", "warm"]).unwrap(),
            Hierarchy::flat("company", &["friends", "family"]).unwrap(),
        ])
        .unwrap()
    }

    fn schema() -> Schema {
        Schema::new(&[("name", AttrType::Str), ("type", AttrType::Str)]).unwrap()
    }

    #[test]
    fn score_validation() {
        let cod = ContextDescriptor::empty();
        let clause = AttributeClause::eq(AttrId(0), "Acropolis".into());
        assert!(ContextualPreference::new(cod.clone(), clause.clone(), 0.8).is_ok());
        assert!(ContextualPreference::new(cod.clone(), clause.clone(), 0.0).is_ok());
        assert!(ContextualPreference::new(cod.clone(), clause.clone(), 1.0).is_ok());
        assert!(matches!(
            ContextualPreference::new(cod.clone(), clause.clone(), 1.5).unwrap_err(),
            ProfileError::InvalidScore(_)
        ));
        assert!(matches!(
            ContextualPreference::new(cod.clone(), clause.clone(), -0.1).unwrap_err(),
            ProfileError::InvalidScore(_)
        ));
        assert!(matches!(
            ContextualPreference::new(cod, clause, f64::NAN).unwrap_err(),
            ProfileError::InvalidScore(_)
        ));
    }

    #[test]
    fn negative_zero_score_is_stored_as_zero() {
        let env = env();
        let cod = ContextDescriptor::empty();
        let clause = AttributeClause::eq(AttrId(0), "Acropolis".into());
        let neg = ContextualPreference::new(cod.clone(), clause.clone(), -0.0).unwrap();
        assert_eq!(neg.score().to_bits(), 0.0f64.to_bits());
        let rescored = neg.with_score(0.5).unwrap().with_score(-0.0).unwrap();
        assert_eq!(rescored.score().to_bits(), 0.0f64.to_bits());
        // Equal to a `0.0` preference, so the two do not conflict.
        let pos = ContextualPreference::new(cod, clause, 0.0).unwrap();
        assert_eq!(neg, pos);
        assert!(!neg.conflicts_with(&pos, &env).unwrap());
    }

    #[test]
    fn clause_resolution_and_predicate() {
        let s = schema();
        let c = AttributeClause::resolve(&s, "type", CompareOp::Eq, "brewery".into()).unwrap();
        assert_eq!(c.attr, AttrId(1));
        assert_eq!(c.display(&s).to_string(), "type = brewery");
        let p = c.predicate();
        assert_eq!(p.attr, AttrId(1));
        assert!(AttributeClause::resolve(&s, "zz", CompareOp::Eq, Value::Int(0)).is_err());
    }

    #[test]
    fn conflict_requires_overlap_same_clause_different_score() {
        let env = env();
        let warm = ContextDescriptor::empty()
            .with_eq(&env, "weather", "warm")
            .unwrap();
        let cold = ContextDescriptor::empty()
            .with_eq(&env, "weather", "cold")
            .unwrap();
        let clause = AttributeClause::eq(AttrId(0), "Acropolis".into());
        let other = AttributeClause::eq(AttrId(0), "Benaki".into());

        let a = ContextualPreference::new(warm.clone(), clause.clone(), 0.8).unwrap();
        // Same state, same clause, different score → conflict (the
        // paper's 0.8 vs 0.3 Acropolis example).
        let b = a.with_score(0.3).unwrap();
        assert!(a.conflicts_with(&b, &env).unwrap());
        // Same everything → no conflict (it is the same preference).
        assert!(!a.conflicts_with(&a.clone(), &env).unwrap());
        // Different clause → no conflict.
        let c = ContextualPreference::new(warm, other, 0.3).unwrap();
        assert!(!a.conflicts_with(&c, &env).unwrap());
        // Disjoint contexts → no conflict.
        let d = ContextualPreference::new(cold, clause, 0.3).unwrap();
        assert!(!a.conflicts_with(&d, &env).unwrap());
    }

    #[test]
    fn conflict_is_symmetric() {
        let env = env();
        let warm = ContextDescriptor::empty()
            .with_eq(&env, "weather", "warm")
            .unwrap();
        let clause = AttributeClause::eq(AttrId(0), "x".into());
        let a = ContextualPreference::new(warm.clone(), clause.clone(), 0.8).unwrap();
        // `b` covers more states (weather unspecified → all) but shares
        // none with `a` at the *state* level: (warm, all-company) vs
        // (all, all). Definition 6 compares exact states.
        let b = ContextualPreference::new(ContextDescriptor::empty(), clause, 0.2).unwrap();
        assert_eq!(
            a.conflicts_with(&b, &env).unwrap(),
            b.conflicts_with(&a, &env).unwrap()
        );
    }
}
