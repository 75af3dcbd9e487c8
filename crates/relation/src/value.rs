use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Int => write!(f, "int"),
            Self::Float => write!(f, "float"),
            Self::Str => write!(f, "str"),
            Self::Bool => write!(f, "bool"),
        }
    }
}

/// A typed attribute value.
///
/// Strings are reference-counted: preference clauses, tuples, and
/// cached results all hold the same underlying allocation.
///
/// `Value` implements a *total* order ([`Ord`]): floats are compared by
/// their IEEE total order so that θ-selections and sorting are defined
/// for every pair of same-typed values. Cross-type comparisons order by
/// type tag — relations never produce them because schemas are enforced
/// on insert.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (total order via `total_cmp`).
    Float(f64),
    /// Reference-counted UTF-8 string.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: &str) -> Self {
        Self::Str(Arc::from(s))
    }

    /// The string, if this is a [`Value::Str`] — a borrow, where
    /// `to_string` would go through the formatter.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of type `ty` that `text` spells as [`fmt::Display`]
    /// prints it; `None` when `text` spells no value of that type.
    pub fn parse(ty: AttrType, text: &str) -> Option<Self> {
        match ty {
            AttrType::Int => text.parse().ok().map(Self::Int),
            AttrType::Float => text.parse().ok().map(Self::Float),
            AttrType::Str => Some(Self::str(text)),
            AttrType::Bool => text.parse().ok().map(Self::Bool),
        }
    }

    /// The type of the value.
    pub fn attr_type(&self) -> AttrType {
        match self {
            Self::Int(_) => AttrType::Int,
            Self::Float(_) => AttrType::Float,
            Self::Str(_) => AttrType::Str,
            Self::Bool(_) => AttrType::Bool,
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Self::Int(_) => 0,
            Self::Float(_) => 1,
            Self::Str(_) => 2,
            Self::Bool(_) => 3,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Self::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Self::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Self::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Self::Str(v.into())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Self::Int(a), Self::Int(b)) => a.cmp(b),
            (Self::Float(a), Self::Float(b)) => a.total_cmp(b),
            (Self::Str(a), Self::Str(b)) => a.cmp(b),
            (Self::Bool(a), Self::Bool(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Self::Int(v) => v.hash(state),
            // Consistent with total_cmp-based Eq: hash the bit pattern.
            Self::Float(v) => v.to_bits().hash(state),
            Self::Str(v) => v.hash(state),
            Self::Bool(v) => v.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Int(v) => write!(f, "{v}"),
            Self::Float(v) => write!(f, "{v}"),
            Self::Str(v) => write!(f, "{v}"),
            Self::Bool(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_types() {
        assert_eq!(Value::from(3i64).attr_type(), AttrType::Int);
        assert_eq!(Value::from(0.5).attr_type(), AttrType::Float);
        assert_eq!(Value::from("x").attr_type(), AttrType::Str);
        assert_eq!(Value::from(true).attr_type(), AttrType::Bool);
        assert_eq!(Value::from(String::from("y")), Value::str("y"));
    }

    #[test]
    fn parse_types_text_as_display_prints_it() {
        for v in [
            Value::Int(-42),
            Value::Float(2.5),
            Value::str("x y"),
            Value::Bool(true),
        ] {
            assert_eq!(Value::parse(v.attr_type(), &v.to_string()), Some(v));
        }
        assert_eq!(Value::parse(AttrType::Int, "forty-two"), None);
        assert_eq!(Value::parse(AttrType::Float, ""), None);
        assert_eq!(Value::parse(AttrType::Bool, "yes"), None);
    }

    #[test]
    fn same_type_ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.5) < Value::Float(2.5));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::Bool(false) < Value::Bool(true));
        assert_eq!(Value::Int(7), Value::Int(7));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        // total_cmp puts positive NaN above every number; the key
        // property is that comparisons never panic and Eq is reflexive.
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_ne!(nan.cmp(&one), Ordering::Equal);
    }

    #[test]
    fn hash_agrees_with_eq() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Value::str("museum"));
        s.insert(Value::str("museum"));
        s.insert(Value::Int(1));
        s.insert(Value::Float(1.0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn display_is_plain() {
        assert_eq!(Value::str("brewery").to_string(), "brewery");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(AttrType::Float.to_string(), "float");
        assert_eq!(Value::str("brewery").as_str(), Some("brewery"));
        assert_eq!(Value::Int(-4).as_str(), None);
    }
}
