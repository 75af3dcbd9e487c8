//! Materialized per-(profile, context-state) top-k views with
//! incremental maintenance, plus the context-state intern table that
//! lets the resolution hot path key everything by dense ids instead
//! of allocated state values.
//!
//! The paper's §7 motivates maintaining context-derived rankings
//! incrementally rather than recompute-and-invalidate; this crate is
//! that subsystem. See [`catalog::ViewCatalog`] for the maintenance
//! rules and their exactness argument, and `tests/` for the property
//! test proving incremental == recomputed over the full mutation
//! vocabulary.

#![warn(missing_docs)]

mod catalog;
mod content;
mod intern;

pub use catalog::{Change, Seat, ViewCatalog, ViewOpts, ViewStats, MATERIALIZE_AFTER};
pub use intern::{StateId, StateTable};
