use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use crate::value::{AttrType, Value};

/// Index of an attribute within a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u16);

impl AttrId {
    #[inline]
    /// Zero-based index of the attribute.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Errors of the relational layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// Two attributes share a name.
    DuplicateAttr(String),
    /// An attribute name did not resolve.
    UnknownAttr(String),
    /// A tuple with the wrong number of values.
    ArityMismatch {
        /// Number of attributes in the schema.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// A value of the wrong type for its attribute.
    TypeMismatch {
        /// The attribute whose value is mistyped.
        attr: String,
        /// The schema's type.
        expected: AttrType,
        /// The supplied value's type.
        got: AttrType,
    },
    /// Text that spells no value of its attribute's type.
    UnparsableValue {
        /// The attribute the text was given for.
        attr: String,
        /// The schema's type.
        expected: AttrType,
        /// The text.
        text: String,
    },
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateAttr(a) => write!(f, "duplicate attribute {a:?}"),
            Self::UnknownAttr(a) => write!(f, "unknown attribute {a:?}"),
            Self::ArityMismatch { expected, got } => {
                write!(f, "tuple arity mismatch: expected {expected}, got {got}")
            }
            Self::TypeMismatch {
                attr,
                expected,
                got,
            } => {
                write!(f, "attribute {attr:?} expects {expected}, got {got}")
            }
            Self::UnparsableValue {
                attr,
                expected,
                text,
            } => write!(f, "attribute {attr:?} expects {expected}, got {text:?}"),
        }
    }
}

impl Error for RelationError {}

/// A relation schema: named, typed attributes.
#[derive(Debug, Clone)]
pub struct Schema {
    attrs: Vec<(String, AttrType)>,
    by_name: HashMap<String, AttrId>,
}

impl Schema {
    /// A schema from `(name, type)` pairs; names must be unique.
    pub fn new(attrs: &[(&str, AttrType)]) -> Result<Self, RelationError> {
        let mut by_name = HashMap::with_capacity(attrs.len());
        let mut owned = Vec::with_capacity(attrs.len());
        for (i, &(name, ty)) in attrs.iter().enumerate() {
            if by_name.insert(name.to_string(), AttrId(i as u16)).is_some() {
                return Err(RelationError::DuplicateAttr(name.to_string()));
            }
            owned.push((name.to_string(), ty));
        }
        Ok(Self {
            attrs: owned,
            by_name,
        })
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True iff the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Resolve an attribute by name.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Like [`Self::attr`], with a typed error.
    pub fn require_attr(&self, name: &str) -> Result<AttrId, RelationError> {
        self.attr(name)
            .ok_or_else(|| RelationError::UnknownAttr(name.to_string()))
    }

    /// The value `text` spells for the attribute `name`, typed by the
    /// schema: how a preference clause given as text is typed.
    pub fn parse_value(&self, name: &str, text: &str) -> Result<Value, RelationError> {
        let expected = self.attr_type(self.require_attr(name)?);
        Value::parse(expected, text).ok_or_else(|| RelationError::UnparsableValue {
            attr: name.to_string(),
            expected,
            text: text.to_string(),
        })
    }

    /// Name of an attribute.
    pub fn attr_name(&self, a: AttrId) -> &str {
        &self.attrs[a.index()].0
    }

    /// Type of an attribute.
    pub fn attr_type(&self, a: AttrId) -> AttrType {
        self.attrs[a.index()].1
    }

    /// Iterate over `(id, name, type)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &str, AttrType)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, (n, t))| (AttrId(i as u16), n.as_str(), *t))
    }
}

/// A tuple: one value per schema attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    values: Box<[Value]>,
}

impl Tuple {
    /// A tuple from its values (validated on relation insert).
    pub fn new(values: Vec<Value>) -> Self {
        Self {
            values: values.into_boxed_slice(),
        }
    }

    #[inline]
    /// The value of one attribute.
    pub fn value(&self, a: AttrId) -> &Value {
        &self.values[a.index()]
    }

    /// All values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

/// The comparison operators `θ ∈ {=, <, >, ≤, ≥, ≠}` of Definition 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CompareOp {
    /// Evaluate `left θ right` using the total order on [`Value`].
    #[inline]
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        let ord = left.cmp(right);
        match self {
            Self::Eq => ord == std::cmp::Ordering::Equal,
            Self::Ne => ord != std::cmp::Ordering::Equal,
            Self::Lt => ord == std::cmp::Ordering::Less,
            Self::Le => ord != std::cmp::Ordering::Greater,
            Self::Gt => ord == std::cmp::Ordering::Greater,
            Self::Ge => ord != std::cmp::Ordering::Less,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Eq => "=",
            Self::Ne => "≠",
            Self::Lt => "<",
            Self::Le => "≤",
            Self::Gt => ">",
            Self::Ge => "≥",
        };
        write!(f, "{s}")
    }
}

/// A selection predicate `A θ a`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    /// The attribute to compare.
    pub attr: AttrId,
    /// The comparison operator θ.
    pub op: CompareOp,
    /// The constant to compare against.
    pub value: Value,
}

impl Predicate {
    /// A predicate `attr θ value`.
    pub fn new(attr: AttrId, op: CompareOp, value: Value) -> Self {
        Self { attr, op, value }
    }

    /// Equality predicate, the paper's simplified `A = a` form.
    pub fn eq(attr: AttrId, value: Value) -> Self {
        Self::new(attr, CompareOp::Eq, value)
    }

    #[inline]
    /// Evaluate the predicate against a tuple.
    pub fn matches(&self, t: &Tuple) -> bool {
        self.op.eval(t.value(self.attr), &self.value)
    }
}

/// An in-memory relation: a schema plus tuples, with schema validation
/// on insert and θ-selection (`σ_{A θ a}(R)`).
///
/// Equality selections are answered from an ordered index: per
/// attribute, the tuple indices sorted by `(value, tuple index)` under
/// [`Value`]'s total order, so the tuples equal to a probe value form
/// one contiguous run found by binary search. The index is built for
/// every attribute on the first `=` selection and dropped by
/// [`Relation::insert`] — the only way tuples change — to be rebuilt on
/// the next one; a clone carries whatever index its source had. The
/// other operators (`≠ < ≤ > ≥`) scan every tuple: no serving path
/// issues them. Either way [`Relation::select`] yields the same indices
/// in the same ascending order.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    schema: Schema,
    tuples: Vec<Tuple>,
    index: OnceLock<Box<[Box<[u32]>]>>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn new(name: &str, schema: Schema) -> Self {
        Self {
            name: name.to_string(),
            schema,
            tuples: Vec::new(),
            index: OnceLock::new(),
        }
    }

    /// Name of the relation.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuple at `index`.
    pub fn tuple(&self, index: usize) -> &Tuple {
        &self.tuples[index]
    }

    /// All tuples, in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Insert a tuple, validating arity and types. Returns its index.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<usize, RelationError> {
        if values.len() != self.schema.len() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.len(),
                got: values.len(),
            });
        }
        for (i, v) in values.iter().enumerate() {
            let a = AttrId(i as u16);
            let expected = self.schema.attr_type(a);
            if v.attr_type() != expected {
                return Err(RelationError::TypeMismatch {
                    attr: self.schema.attr_name(a).to_string(),
                    expected,
                    got: v.attr_type(),
                });
            }
        }
        self.index.take();
        self.tuples.push(Tuple::new(values));
        Ok(self.tuples.len() - 1)
    }

    /// θ-selection: indices of tuples satisfying the predicate, in
    /// ascending order.
    pub fn select(&self, pred: &Predicate) -> impl Iterator<Item = usize> + '_ {
        match pred.op {
            CompareOp::Eq => Selection::Indexed(self.equal_run(pred.attr, &pred.value).iter()),
            _ => Selection::Scan(pred.clone(), self.tuples.iter().enumerate()),
        }
    }

    /// Count of tuples satisfying the predicate.
    pub fn count(&self, pred: &Predicate) -> usize {
        self.select(pred).count()
    }

    /// Indices of the tuples whose `attr` equals `value`, ascending.
    fn equal_run(&self, attr: AttrId, value: &Value) -> &[u32] {
        // No tuple holds an attribute outside the schema.
        let Some(sorted) = self
            .index
            .get_or_init(|| self.build_index())
            .get(attr.index())
        else {
            return &[];
        };
        let at = |i: &u32| self.tuples[*i as usize].value(attr);
        let start = sorted.partition_point(|i| at(i) < value);
        let len = sorted[start..].partition_point(|i| at(i) == value);
        &sorted[start..start + len]
    }

    fn build_index(&self) -> Box<[Box<[u32]>]> {
        let n = u32::try_from(self.tuples.len()).expect("a relation holds at most u32::MAX tuples");
        (0..self.schema.len())
            .map(|a| {
                let attr = AttrId(a as u16);
                let mut sorted: Box<[u32]> = (0..n).collect();
                // Stable: equal values keep ascending tuple order.
                sorted.sort_by(|&i, &j| {
                    self.tuples[i as usize]
                        .value(attr)
                        .cmp(self.tuples[j as usize].value(attr))
                });
                sorted
            })
            .collect()
    }
}

/// The iterator [`Relation::select`] returns: a run of the equality
/// index, or a scan filtered by the predicate.
enum Selection<'a> {
    Indexed(std::slice::Iter<'a, u32>),
    Scan(Predicate, std::iter::Enumerate<std::slice::Iter<'a, Tuple>>),
}

impl Iterator for Selection<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Self::Indexed(run) => run.next().map(|&i| i as usize),
            Self::Scan(pred, tuples) => tuples.find(|(_, t)| pred.matches(t)).map(|(i, _)| i),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Self::Indexed(run) => run.size_hint(),
            Self::Scan(_, tuples) => (0, tuples.size_hint().1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poi() -> Relation {
        let schema = Schema::new(&[
            ("pid", AttrType::Int),
            ("name", AttrType::Str),
            ("type", AttrType::Str),
            ("open_air", AttrType::Bool),
            ("admission_cost", AttrType::Float),
        ])
        .unwrap();
        let mut r = Relation::new("Points_of_Interest", schema);
        r.insert(vec![
            1.into(),
            "Acropolis".into(),
            "monument".into(),
            true.into(),
            12.0.into(),
        ])
        .unwrap();
        r.insert(vec![
            2.into(),
            "Mikro Karaoke".into(),
            "brewery".into(),
            false.into(),
            0.0.into(),
        ])
        .unwrap();
        r.insert(vec![
            3.into(),
            "Benaki".into(),
            "museum".into(),
            false.into(),
            9.0.into(),
        ])
        .unwrap();
        r
    }

    #[test]
    fn schema_lookup_and_errors() {
        let s = Schema::new(&[("a", AttrType::Int), ("b", AttrType::Str)]).unwrap();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.attr("b"), Some(AttrId(1)));
        assert_eq!(s.attr_name(AttrId(0)), "a");
        assert_eq!(s.attr_type(AttrId(1)), AttrType::Str);
        assert!(s.require_attr("zz").is_err());
        assert!(matches!(
            Schema::new(&[("a", AttrType::Int), ("a", AttrType::Str)]).unwrap_err(),
            RelationError::DuplicateAttr(_)
        ));
        let names: Vec<&str> = s.iter().map(|(_, n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut r = poi();
        assert!(matches!(
            r.insert(vec![4.into()]).unwrap_err(),
            RelationError::ArityMismatch { .. }
        ));
        assert!(matches!(
            r.insert(vec![
                "x".into(),
                "y".into(),
                "z".into(),
                true.into(),
                1.0.into()
            ])
            .unwrap_err(),
            RelationError::TypeMismatch { .. }
        ));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn theta_selection() {
        let r = poi();
        let ty = r.schema().attr("type").unwrap();
        let cost = r.schema().attr("admission_cost").unwrap();
        let eq = Predicate::eq(ty, "museum".into());
        assert_eq!(r.select(&eq).collect::<Vec<_>>(), vec![2]);
        let cheap = Predicate::new(cost, CompareOp::Le, 9.0.into());
        assert_eq!(r.count(&cheap), 2);
        let not_brewery = Predicate::new(ty, CompareOp::Ne, "brewery".into());
        assert_eq!(r.count(&not_brewery), 2);
        let expensive = Predicate::new(cost, CompareOp::Gt, 100.0.into());
        assert_eq!(r.count(&expensive), 0);
    }

    #[test]
    fn all_compare_ops() {
        let one = Value::Int(1);
        let two = Value::Int(2);
        assert!(CompareOp::Eq.eval(&one, &one));
        assert!(CompareOp::Ne.eval(&one, &two));
        assert!(CompareOp::Lt.eval(&one, &two));
        assert!(CompareOp::Le.eval(&one, &one));
        assert!(CompareOp::Gt.eval(&two, &one));
        assert!(CompareOp::Ge.eval(&two, &two));
        assert!(!CompareOp::Lt.eval(&two, &one));
        assert_eq!(CompareOp::Le.to_string(), "≤");
    }

    #[test]
    fn tuple_accessors() {
        let r = poi();
        let t = r.tuple(0);
        assert_eq!(t.value(AttrId(1)), &Value::str("Acropolis"));
        assert_eq!(t.values().len(), 5);
        assert_eq!(r.tuples().len(), 3);
        assert_eq!(r.name(), "Points_of_Interest");
    }
}
