#![warn(missing_docs)]
//! Context model for contextual preferences.
//!
//! Implements Sections 3.1 and 4.2–4.3 of *"Adding Context to
//! Preferences"* (ICDE 2007):
//!
//! * [`ContextEnvironment`] — the set of context parameters
//!   `CE_X = {C1, …, Cn}` of an application, each backed by a
//!   [`ctxpref_hierarchy::Hierarchy`].
//! * [`ContextState`] — an (extended) context state: an assignment of a
//!   value from the extended domain `edom(Ci)` to every parameter.
//! * [`ParameterDescriptor`] / [`ContextDescriptor`] /
//!   [`ExtendedContextDescriptor`] — the descriptor language of
//!   Definitions 1–4 and 8 (`Ci = v`, `Ci ∈ {…}`, `Ci ∈ [v1, vm]`,
//!   conjunctions, and disjunctions of conjunctions), together with
//!   their expansion `Context(cod)` into finite sets of states. A
//!   descriptor packs its clauses into one slice of 4-byte words and
//!   lends each as a [`ClauseRef`]; a [`DescriptorBuilder`] makes one
//!   in a single allocation.
//! * The [`ContextState::covers`] partial order (Definition 10) and the
//!   two state similarity measures of Section 4.3: the hierarchy
//!   distance (Definition 15) and the Jaccard distance (Definition 17),
//!   selected through [`DistanceKind`].
//! * A small textual parser ([`parse_descriptor`] /
//!   [`parse_extended_descriptor`]) so applications and examples can
//!   write descriptors the way the paper does:
//!   `"location = Plaka and temperature in {warm, hot}"`.
//!
//! # Example
//!
//! ```
//! use ctxpref_context::{ContextEnvironment, parse_descriptor};
//! use ctxpref_hierarchy::Hierarchy;
//!
//! let env = ContextEnvironment::new(vec![
//!     Hierarchy::flat("weather", &["cold", "warm"]).unwrap(),
//!     Hierarchy::flat("company", &["friends", "family", "alone"]).unwrap(),
//! ])
//! .unwrap();
//! let cod = parse_descriptor(&env, "weather = warm and company in {friends, family}").unwrap();
//! let states = cod.states(&env).unwrap();
//! assert_eq!(states.len(), 2); // (warm, friends), (warm, family)
//! ```

mod clause;
mod descriptor;
mod distance;
mod env;
mod error;
mod parse;
mod state;
#[cfg(test)]
pub(crate) mod testutil;

pub use clause::{ClauseRef, DescriptorBuilder, ParameterDescriptor};
pub use descriptor::{descriptor_of_state, ContextDescriptor, ExtendedContextDescriptor};
pub use distance::{hierarchy_state_dist, jaccard_state_dist, DistanceKind};
pub use env::{ContextEnvironment, ParamId};
pub use error::ContextError;
pub use parse::{parse_descriptor, parse_extended_descriptor};
pub use state::{set_covers, ContextState, CtxValue};
