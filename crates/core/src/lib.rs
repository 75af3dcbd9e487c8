#![warn(missing_docs)]
//! High-level façade: a context-aware preference database.
//!
//! [`ContextualDb`] ties the whole system of *"Adding Context to
//! Preferences"* (ICDE 2007) together:
//!
//! * a [`ctxpref_context::ContextEnvironment`] of hierarchical context
//!   parameters,
//! * a database [`ctxpref_relation::Relation`],
//! * a [`ctxpref_profile::Profile`] of contextual preferences indexed by
//!   a [`ctxpref_profile::ProfileTree`],
//! * context resolution + ranking (`Search_CS` / `Rank_CS`) from
//!   [`ctxpref_resolve`],
//! * and an optional [`ctxpref_qcache::ContextQueryTree`] caching the
//!   ranked results of repeated context states.
//!
//! ```
//! use ctxpref_core::ContextualDb;
//! use ctxpref_hierarchy::Hierarchy;
//! use ctxpref_context::{ContextEnvironment, ContextState};
//! use ctxpref_relation::{AttrType, Relation, Schema};
//!
//! let env = ContextEnvironment::new(vec![
//!     Hierarchy::flat("weather", &["cold", "warm"]).unwrap(),
//! ]).unwrap();
//! let schema = Schema::new(&[("name", AttrType::Str), ("type", AttrType::Str)]).unwrap();
//! let mut rel = Relation::new("poi", schema);
//! rel.insert(vec!["Acropolis".into(), "monument".into()]).unwrap();
//! rel.insert(vec!["Benaki".into(), "museum".into()]).unwrap();
//!
//! let mut db = ContextualDb::builder().env(env.clone()).relation(rel).build().unwrap();
//! db.insert_preference_eq("weather = warm", "name", "Acropolis".into(), 0.8).unwrap();
//! db.insert_preference_eq("weather = cold", "type", "museum".into(), 0.7).unwrap();
//!
//! let state = ContextState::parse(&env, &["warm"]).unwrap();
//! let answer = db.query_state(&state).unwrap();
//! assert_eq!(answer.results.entries()[0].score, 0.8);
//! ```

mod db;
mod error;
mod multi;
mod sharded;
mod sharing;

pub use db::{preference_from_parts, ContextualDb, ContextualDbBuilder, QueryAnswer, QueryOptions};
pub use error::CoreError;
pub use multi::MultiUserDb;
pub use sharded::{
    ShardQuiesceGuard, ShardedMultiUserDb, Stripe, UserShardRead, UserShardWrite, DEFAULT_SHARDS,
};
