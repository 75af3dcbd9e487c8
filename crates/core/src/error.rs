use std::error::Error;
use std::fmt;

use ctxpref_context::ContextError;
use ctxpref_profile::ProfileError;
use ctxpref_relation::RelationError;

/// Errors of the [`crate::ContextualDb`] façade.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The builder was not given a context environment.
    MissingEnvironment,
    /// The builder was not given a relation.
    MissingRelation,
    /// An error from the context model.
    Context(ContextError),
    /// An error from the preference / profile layer.
    Profile(ProfileError),
    /// An error from the relational layer.
    Relation(RelationError),
    /// A user name that is not registered (multi-user database).
    NoSuchUser(String),
    /// A user name that is already registered (multi-user database).
    DuplicateUser(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingEnvironment => write!(f, "ContextualDb needs a context environment"),
            Self::MissingRelation => write!(f, "ContextualDb needs a relation"),
            Self::Context(e) => write!(f, "{e}"),
            Self::Profile(e) => write!(f, "{e}"),
            Self::Relation(e) => write!(f, "{e}"),
            Self::NoSuchUser(u) => write!(f, "no user named {u:?}"),
            Self::DuplicateUser(u) => write!(f, "user {u:?} already exists"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Context(e) => Some(e),
            Self::Profile(e) => Some(e),
            Self::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ContextError> for CoreError {
    fn from(e: ContextError) -> Self {
        Self::Context(e)
    }
}

impl From<ProfileError> for CoreError {
    fn from(e: ProfileError) -> Self {
        Self::Profile(e)
    }
}

impl From<RelationError> for CoreError {
    fn from(e: RelationError) -> Self {
        Self::Relation(e)
    }
}
