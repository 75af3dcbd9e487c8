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
        let mut single = h.all_value();
        Ok(lend_set(Some(self), param, h, &mut single)?
            .iter()
            .collect())
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

/// One parameter's value set, `Context(c)` of Definition 2, lent from
/// where its values are held: a clause's packed words, the domain of
/// the parameter's hierarchy, or one value the caller keeps. An `In`
/// clause lends its values as written, so a value may repeat there;
/// its later mentions are skipped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LentSet<'s> {
    values: &'s [CtxValue],
    /// Whether `values` may repeat (an `In` clause's).
    repeats: bool,
}

impl<'s> LentSet<'s> {
    /// The set's values, each once, in first-mention order.
    pub(crate) fn iter(self) -> impl Iterator<Item = CtxValue> + 's {
        let Self { values, repeats } = self;
        (values.iter().enumerate())
            .filter(move |&(i, v)| !repeats || !values[..i].contains(v))
            .map(|(_, &v)| v)
    }

    /// How many values the set holds.
    pub(crate) fn len(self) -> usize {
        match self.repeats {
            true => self.iter().count(),
            false => self.values.len(),
        }
    }
}

/// The value set `clause` denotes for `param`, or `{all}` when the
/// parameter has no clause, checked as [`ClauseRef::values`] checks it:
/// an empty `In`, a value foreign to `h` (the first, in the order
/// written) or a range across levels is refused. An `Eq` clause's value
/// and `all` are lent from `single`, which this sets; a range is lent
/// from its level's domain.
pub(crate) fn lend_set<'s>(
    clause: Option<ClauseRef<'s>>,
    param: ParamId,
    h: &'s Hierarchy,
    single: &'s mut CtxValue,
) -> Result<LentSet<'s>, ContextError> {
    let check = |v: CtxValue| match v.index() < h.value_count() {
        true => Ok(v),
        false => Err(ContextError::ForeignValue { param }),
    };
    let (values, repeats) = match clause {
        None => {
            *single = h.all_value();
            (std::slice::from_ref(&*single), false)
        }
        Some(ClauseRef::Eq(v)) => {
            *single = check(v)?;
            (std::slice::from_ref(&*single), false)
        }
        Some(ClauseRef::In(vs)) => {
            if vs.is_empty() {
                return Err(ContextError::EmptyValueSet { param });
            }
            for &v in vs {
                check(v)?;
            }
            (vs, true)
        }
        Some(ClauseRef::Range(from, to)) => {
            let (from, to) = (check(from)?, check(to)?);
            let level = h.level_of(from);
            if h.level_of(to) != level {
                return Err(ContextError::RangeLevelMismatch { param });
            }
            let (a, b) = (h.pos_in_level(from) as usize, h.pos_in_level(to) as usize);
            let domain = h.domain(level);
            (if a <= b { &domain[a..=b] } else { &[][..] }, false)
        }
    };
    Ok(LentSet { values, repeats })
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
