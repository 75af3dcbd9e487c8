#![warn(missing_docs)]
//! Contextual preferences, profiles, and the profile tree index.
//!
//! Implements Sections 3.2–3.3 of *"Adding Context to Preferences"*
//! (ICDE 2007):
//!
//! * [`ContextualPreference`] — the triple `(cod, attributes_clause,
//!   interest_score)` of Definition 5, with the conflict test of
//!   Definition 6.
//! * [`Profile`] — a set of non-conflicting contextual preferences
//!   (Definition 7), with conflict detection on insertion.
//! * [`ProfileTree`] — the paper's index (Section 3.3): a DAG with one
//!   level per context parameter plus a leaf level, nodes made of
//!   `[key, pointer]` cells, `all` keys for unspecified parameters, and
//!   leaves holding `[attribute θ value, interest_score]` entries.
//!   Conflicts are detected with a single root-to-leaf traversal per
//!   state. The tree reports exact size statistics ([`TreeStats`]) under
//!   a documented byte model so the storage experiments of Section 5.2
//!   (Figures 5 and 6) can be reproduced.
//! * [`IndexedProfile`] — a profile and its tree, edited together: the
//!   one way to insert, remove or re-score while keeping the index in
//!   step.
//! * [`SerialStore`] — the sequential-scan baseline the paper compares
//!   against, with the same statistics and access counting.
//! * [`ParamOrder`] — assignments of context parameters to tree levels,
//!   including the size cost model `m1·(1 + m2·(1 + … (1 + mn)))` of
//!   Section 3.3 and the heuristics the experiments explore (larger
//!   domains lower in the tree; skew-aware ordering by active domain).
//! * [`AccessCounter`] — cell-access accounting shared by every lookup
//!   path, the metric of Figure 7.

mod access;
mod dag;
mod error;
mod indexed;
mod leaf;
mod ordering;
mod preference;
mod profile;
mod serial;
mod tree;

pub use access::AccessCounter;
pub use dag::CompressedProfileTree;
pub use error::ProfileError;
pub use indexed::IndexedProfile;
pub use leaf::LeafEntry;
pub use ordering::ParamOrder;
pub use preference::{AttributeClause, ContextualPreference};
pub use profile::Profile;
pub use serial::{SerialRecord, SerialStore};
pub use tree::{Candidate, LeafId, ProfileTree, TreeStats};

/// Byte cost of one `[key, pointer]` cell of an internal profile-tree
/// node: a 4-byte interned value key plus a 4-byte child pointer. The
/// same model prices one context value of a serially stored preference
/// (4 bytes, no pointer needed) — see `DESIGN.md` §4.
pub const CELL_BYTES: usize = 8;

/// Byte cost of one serialized context value in the serial store.
pub const SERIAL_VALUE_BYTES: usize = 4;

/// Byte cost of one leaf entry `[attribute θ value, interest_score]`:
/// 2-byte attribute id + 2-byte operator + 4-byte value handle + 4-byte
/// score.
pub const LEAF_ENTRY_BYTES: usize = 12;
