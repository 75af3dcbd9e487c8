use std::error::Error;
use std::fmt;

use ctxpref_context::{ContextError, ContextState};

/// Errors of the preference / profile layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// An interest score outside `[0, 1]` (or NaN) was supplied
    /// (Definition 5 requires a real number between 0 and 1).
    InvalidScore(f64),
    /// Inserting the preference would conflict with an existing one
    /// (Definition 6): same context state, same attribute clause,
    /// different interest score. The offending state is reported so the
    /// user can be notified, as Section 3.3 prescribes.
    Conflict {
        /// A witness state shared by both preferences.
        state: ContextState,
        /// The score already stored.
        existing_score: f64,
        /// The rejected new score.
        new_score: f64,
    },
    /// An underlying context-model error (descriptor expansion etc.).
    Context(ContextError),
    /// A parameter order that is not a permutation of the environment's
    /// parameters.
    InvalidOrder(String),
    /// The operation mixes objects built over different context
    /// environments.
    EnvironmentMismatch,
    /// A preference index out of bounds.
    NoSuchPreference(usize),
    /// A profile tree records a contributor count it cannot hold: a
    /// count of one or less (an entry of one contributor has no
    /// record), or a count for a position past its leaf's entries.
    ContributorCount {
        /// The leaf's arena slot.
        leaf: u32,
        /// The entry's position in the leaf.
        position: u32,
        /// The recorded count.
        count: u32,
        /// How many entries the leaf holds.
        entries: usize,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidScore(s) => {
                write!(f, "interest score must be a real number in [0, 1], got {s}")
            }
            Self::Conflict {
                existing_score,
                new_score,
                ..
            } => write!(
                f,
                "conflicting preference: same context state and attribute clause already \
                 scored {existing_score}, refusing {new_score}"
            ),
            Self::Context(e) => write!(f, "context error: {e}"),
            Self::InvalidOrder(msg) => write!(f, "invalid parameter order: {msg}"),
            Self::EnvironmentMismatch => {
                write!(f, "objects belong to different context environments")
            }
            Self::NoSuchPreference(i) => write!(f, "no preference at index {i}"),
            Self::ContributorCount {
                leaf,
                position,
                count,
                entries,
            } if *count <= 1 => write!(
                f,
                "leaf {leaf} records a contributor count of {count} for entry {position} \
                 of {entries}; only counts above one are recorded"
            ),
            Self::ContributorCount {
                leaf,
                position,
                count,
                entries,
            } => write!(
                f,
                "leaf {leaf} records a contributor count of {count} for entry {position}, \
                 which outlives it: the leaf holds {entries} entries"
            ),
        }
    }
}

impl Error for ProfileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Context(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ContextError> for ProfileError {
    fn from(e: ContextError) -> Self {
        Self::Context(e)
    }
}
