#![warn(missing_docs)]
//! Context resolution (Section 4 of *"Adding Context to Preferences"*).
//!
//! Given a contextual query — a query enhanced with an extended context
//! descriptor (Definition 9) — and a stored profile, *context
//! resolution* finds, for every context state of the query, the stored
//! preferences most relevant to it:
//!
//! 1. an **exact match** if the state itself is stored (a single
//!    root-to-leaf traversal of the profile tree);
//! 2. otherwise, the stored states that **cover** it (`Search_CS`,
//!    Algorithm 1), keeping the one(s) at minimum hierarchy or Jaccard
//!    distance — by Properties 2–3 these are matches in the sense of
//!    Definition 12;
//! 3. if nothing covers it, the query is treated as non-contextual.
//!
//! `Rank_CS` (Algorithm 2) then turns the selected preference entries
//! into scored selections over the database relation and merges them
//! into a ranked answer ([`rank_selected`]; under the `Max` combiner a
//! walk over the entries in score order that emits tuples already
//! ranked).
//!
//! The [`PreferenceStore`] trait abstracts over the two physical stores
//! the paper compares — [`ctxpref_profile::ProfileTree`] and the
//! sequential [`ctxpref_profile::SerialStore`] — so every experiment
//! can run both sides with identical logic and identical cell-access
//! accounting.

mod explain;
mod matching;
mod rank;
mod resolver;
mod store;

pub use explain::explain_resolution;
pub use matching::minimal_covering;
pub use rank::{rank_cs, rank_cs_state, rank_cs_topk, rank_selected, RankedQuery};
pub use resolver::{ContextResolver, MatchOutcome, StateResolution, TieBreak};
pub use store::PreferenceStore;
