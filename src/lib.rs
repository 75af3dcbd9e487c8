//! # ctxpref — Adding Context to Preferences
//!
//! A Rust implementation of the context-aware preference database system
//! of *"Adding Context to Preferences"* (Stefanidis, Pitoura,
//! Vassiliadis, ICDE 2007).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`hierarchy`] — multidimensional attribute hierarchies
//!   (level lattices, `anc`/`desc`).
//! * [`context`] — context environments, states, descriptors, the
//!   `covers` partial order and the hierarchy / Jaccard state distances.
//! * [`relation`] — the relational substrate (schemas, tuples,
//!   θ-selections, scored results).
//! * [`profile`] — contextual preferences, profiles, the **profile
//!   tree** index and the serial-store baseline.
//! * [`resolve`] — context resolution (`Search_CS` / `Rank_CS`) with
//!   cell-access accounting.
//! * [`qcache`] — the context query tree: caching contextual query
//!   results keyed by context state.
//! * [`views`] — materialized per-(profile, context-state) top-k
//!   rankings with incremental maintenance, shared by the users of a
//!   profile and forked copy-on-write on an edit, interned state
//!   tokens, and pinning for hot states.
//! * [`qualitative`] — the qualitative extension of Section 6:
//!   contextual binary priorities with winnow / iterated-winnow
//!   operators.
//! * [`workload`] — the points-of-interest reference database, default
//!   profiles, and synthetic workload generators.
//! * [`core`] — the high-level [`core::ContextualDb`] façade.
//! * [`service`] — the fault-tolerant serving layer: deadlines, panic
//!   isolation, admission control, and the degradation ladder.
//! * [`wal`] — per-shard write-ahead logging, checkpoint manifests,
//!   and crash recovery for the serving core, plus snapshots
//!   ([`wal::snapshot`]): whole databases saved as framed bytes.
//! * [`bytes`] — the one byte format below the API: the field codec,
//!   its table macros, the checksummed frame and FNV-1a, shared by
//!   the wire, the WAL, replication, the manifest and snapshots.
//! * [`net`] — the TCP serving layer: checksummed wire frames and a
//!   socket server/client pair in front of the service.
//! * [`router`] — the user-partitioned routing tier: consistent
//!   hashing across clusters, failure-aware forwarding with circuit
//!   breakers, and live user migration that never drops an acked
//!   write.
//! * [`faults`] — deterministic, seedable fault injection for chaos
//!   testing the above.
//!
//! See `examples/quickstart.rs` for an end-to-end tour and
//! `examples/query_storm.rs` for the serving layer under injected
//! faults.

pub use ctxpref_bytes as bytes;
pub use ctxpref_context as context;
pub use ctxpref_core as core;
pub use ctxpref_faults as faults;
pub use ctxpref_hierarchy as hierarchy;
pub use ctxpref_net as net;
pub use ctxpref_profile as profile;
pub use ctxpref_qcache as qcache;
pub use ctxpref_qualitative as qualitative;
pub use ctxpref_relation as relation;
pub use ctxpref_replication as replication;
pub use ctxpref_resolve as resolve;
pub use ctxpref_router as router;
pub use ctxpref_service as service;
pub use ctxpref_views as views;
pub use ctxpref_wal as wal;
pub use ctxpref_workload as workload;

/// Convenience prelude re-exporting the most common types.
pub mod prelude {
    pub use ctxpref_context::{
        ContextDescriptor, ContextEnvironment, ContextState, CtxValue, DistanceKind,
        ExtendedContextDescriptor, ParamId, ParameterDescriptor,
    };
    pub use ctxpref_core::{ContextualDb, ContextualDbBuilder, QueryOptions};
    pub use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder, LevelId, ValueId};
    pub use ctxpref_profile::{
        AttributeClause, ContextualPreference, ParamOrder, Profile, ProfileTree, SerialStore,
    };
    pub use ctxpref_relation::{CompareOp, Relation, Schema, Value};
    pub use ctxpref_resolve::{ContextResolver, PreferenceStore};
}
