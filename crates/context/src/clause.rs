//! A descriptor's clauses: the owned [`ParameterDescriptor`] callers
//! build from, the [`ClauseRef`] a descriptor lends, and the packed
//! words a [`ContextDescriptor`] keeps them in.

use ctxpref_hierarchy::{Hierarchy, ValueId};

use crate::descriptor::ContextDescriptor;
use crate::env::ParamId;
use crate::error::ContextError;
use crate::state::CtxValue;

/// A context parameter descriptor `cod(Ci)` (Definition 1): a condition
/// a user states about one context parameter. This is the owned form a
/// caller builds a [`ContextDescriptor`] from; the descriptor lends its
/// clauses back as [`ClauseRef`]s.
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
        self.as_clause().values(param, h)
    }

    /// The descriptor as a descriptor's clause lends it.
    pub fn as_clause(&self) -> ClauseRef<'_> {
        match self {
            Self::Eq(v) => ClauseRef::Eq(*v),
            Self::In(vs) => ClauseRef::In(vs),
            Self::Range(from, to) => ClauseRef::Range(*from, *to),
        }
    }
}

impl From<ClauseRef<'_>> for ParameterDescriptor {
    fn from(clause: ClauseRef<'_>) -> Self {
        match clause {
            ClauseRef::Eq(v) => Self::Eq(v),
            ClauseRef::In(vs) => Self::In(vs.to_vec()),
            ClauseRef::Range(from, to) => Self::Range(from, to),
        }
    }
}

/// One clause of a [`ContextDescriptor`], read in place from its packed
/// words: a [`ParameterDescriptor`] that borrows `In`'s values. It
/// prints, compares and hashes as the `ParameterDescriptor` it stands
/// for; `ParameterDescriptor::from` makes the owned copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClauseRef<'a> {
    /// `Ci = v`.
    Eq(CtxValue),
    /// `Ci ∈ {v1, …, vm}`, as written (duplicates kept).
    In(&'a [CtxValue]),
    /// `Ci ∈ [v1, vm]`.
    Range(CtxValue, CtxValue),
}

impl ClauseRef<'_> {
    /// `Context(c)` of Definition 2: the finite set of values the
    /// clause denotes, deduplicated, in first-mention order.
    pub fn values(self, param: ParamId, h: &Hierarchy) -> Result<Vec<CtxValue>, ContextError> {
        let check = |v: CtxValue| -> Result<CtxValue, ContextError> {
            if v.index() >= h.value_count() {
                Err(ContextError::ForeignValue { param })
            } else {
                Ok(v)
            }
        };
        match self {
            Self::Eq(v) => Ok(vec![check(v)?]),
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
                let (from, to) = (check(from)?, check(to)?);
                h.range_values(from, to)
                    .ok_or(ContextError::RangeLevelMismatch { param })
            }
        }
    }

    /// The words the clause takes in a descriptor.
    pub(crate) fn words(self) -> usize {
        match self {
            Self::Eq(_) => 2,
            Self::In(vs) => 2 + vs.len(),
            Self::Range(..) => 3,
        }
    }
}

// A clause's kind, in bits 16 and up of its header word.
const EQ: u32 = 0;
const IN: u32 = 1;
const RANGE: u32 = 2;

/// The header word of a clause: its parameter, then its kind.
fn header(param: ParamId, kind: u32) -> CtxValue {
    ValueId(u32::from(param.0) | kind << 16)
}

/// The first clause of well-formed `words` and the words after it.
fn split_clause(words: &[CtxValue]) -> (ParamId, ClauseRef<'_>, &[CtxValue]) {
    let head = words[0].0;
    let param = ParamId(head as u16);
    match head >> 16 {
        EQ => (param, ClauseRef::Eq(words[1]), &words[2..]),
        IN => {
            let (values, rest) = words[2..].split_at(words[1].index());
            (param, ClauseRef::In(values), rest)
        }
        _ => (param, ClauseRef::Range(words[1], words[2]), &words[3..]),
    }
}

/// The clauses packed in well-formed `words`, in order.
pub(crate) fn clauses_of(words: &[CtxValue]) -> impl Iterator<Item = (ParamId, ClauseRef<'_>)> {
    let mut rest = words;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (param, clause, tail) = split_clause(rest);
        rest = tail;
        Some((param, clause))
    })
}

/// A [`ContextDescriptor`] assembled clause by clause into its packed
/// words, as the parser, [`descriptor_of_state`](crate::descriptor_of_state)
/// and the log's decoder build one. Clauses may come in any order; as with
/// [`ContextDescriptor::from_clauses`], a later clause for a parameter
/// replaces an earlier one. Clauses pushed in ascending parameter order
/// into a builder sized for them make a descriptor in one allocation.
#[derive(Debug)]
pub struct DescriptorBuilder {
    words: Vec<CtxValue>,
    /// The parameter of the last clause pushed.
    last: Option<ParamId>,
    /// Whether every clause so far named a greater parameter than the
    /// one before.
    ascending: bool,
}

impl DescriptorBuilder {
    /// A builder with room for `clauses` `Eq` clauses, the common kind.
    pub fn with_capacity(clauses: usize) -> Self {
        Self::with_words(2 * clauses)
    }

    pub(crate) fn with_words(words: usize) -> Self {
        Self {
            words: Vec::with_capacity(words),
            last: None,
            ascending: true,
        }
    }

    /// Add the clause for `param`.
    pub fn push(&mut self, param: ParamId, clause: ClauseRef<'_>) {
        self.ascending &= self.last.is_none_or(|last| last < param);
        self.last = Some(param);
        match clause {
            ClauseRef::Eq(v) => self.words.extend([header(param, EQ), v]),
            ClauseRef::In(vs) => {
                let count = u32::try_from(vs.len()).expect("an `In` clause of under 2^32 values");
                self.words.extend([header(param, IN), ValueId(count)]);
                self.words.extend_from_slice(vs);
            }
            ClauseRef::Range(from, to) => self.words.extend([header(param, RANGE), from, to]),
        }
    }

    /// The descriptor of the clauses pushed.
    pub fn build(self) -> ContextDescriptor {
        if self.ascending {
            return ContextDescriptor {
                words: self.words.into_boxed_slice(),
            };
        }
        // Stable, so the clauses of one parameter keep their order and
        // the last of each run is the one that stays.
        let mut clauses: Vec<_> = clauses_of(&self.words).collect();
        clauses.sort_by_key(|&(p, _)| p);
        let mut kept: Vec<(ParamId, ClauseRef<'_>)> = Vec::with_capacity(clauses.len());
        for (p, clause) in clauses {
            match kept.last_mut() {
                Some(last) if last.0 == p => last.1 = clause,
                _ => kept.push((p, clause)),
            }
        }
        let mut sorted = Self::with_words(kept.iter().map(|(_, c)| c.words()).sum());
        for (p, clause) in kept {
            sorted.push(p, clause);
        }
        sorted.build()
    }
}
