#![warn(missing_docs)]
//! Fault-tolerant serving layer for the contextual preference database.
//!
//! The paper's system is a library: call [`ctxpref_core::MultiUserDb`]
//! and get an answer or an error. A deployment needs more — queries
//! that *always* terminate, a process that survives a panicking query,
//! bounded memory under overload, and storage that a crash cannot
//! corrupt. [`CtxPrefService`] adds exactly that, without changing the
//! paper's semantics on the healthy path:
//!
//! * per-request **deadlines** and cancellation,
//! * **panic isolation** (`catch_unwind` per query; `parking_lot`-style
//!   locks so contained panics cannot poison shared state),
//! * **admission control** with load shedding,
//! * a four-rung **degradation ladder** (cached → exact → nearest-state
//!   → non-contextual default, Section 4.2 of the paper) with every
//!   fallback recorded on the answer,
//! * **retry-with-backoff** around the atomic, checksummed storage
//!   layer,
//! * **counters declared once**: [`CtxPrefService::stats`] returns a
//!   [`ServiceStats`] holding the service's own counters (one
//!   `ctxpref_faults::counters!` table) and the query cache's, the
//!   views' and the write-ahead log's snapshots nested whole as
//!   `cache`, `views` and `wal`; its `Display` is the `stats` body,
//! * one **write path, chosen at construction**: every mutation verb
//!   builds one [`ctxpref_wal::WalOp`] and hands it to a single
//!   internal `write`, the only code that knows which of three paths
//!   the constructor picked —
//!   - *direct* ([`CtxPrefService::new`]): the op is applied to the
//!     in-memory core;
//!   - *logged* ([`CtxPrefService::new_durable`],
//!     [`CtxPrefService::recover`]): appended to a per-shard
//!     write-ahead log before it is applied; a background checkpointer
//!     bounds replay time, and recovery replays the log on top of the
//!     latest checkpoint (`ctxpref-wal`);
//!   - *replicated* ([`CtxPrefService::new_replicated`]): logged by a
//!     primary that ships its WAL to replicas (async or quorum acks);
//!     a background tick detects primary failure and fails over with
//!     epoch fencing, and anti-entropy digests verify convergence
//!     (`ctxpref-replication`).
//!
//!   The write hands back what it displaced, so a removal returns the
//!   value the log applied, not one read beside it. A client edit is
//!   one [`Edit`] (insert, re-score, remove). A front-end's reactor
//!   applies it with [`CtxPrefService::try_edit`], which never waits:
//!   with no fault plan installed and the user's stripe free, on the
//!   direct path — and on the logged path under group commit with the
//!   user's WAL shard free too — it applies (and logs) the edit on the
//!   calling thread; otherwise it hands it back for
//!   [`CtxPrefService::edit_batch`], which waits, and serves a batch
//!   of one user's edits under one migration guard.
//!
//! Failure modes are driven deterministically in tests by the
//! `ctxpref-faults` plan (see the chaos suite under `tests/`, and the
//! crash-recovery fuzz matrix in `ctxpref-wal`).
//!
//! ```
//! use ctxpref_context::ContextState;
//! use ctxpref_core::MultiUserDb;
//! use ctxpref_service::{CtxPrefService, LadderStep, ServiceConfig};
//! # use ctxpref_hierarchy::Hierarchy;
//! # use ctxpref_context::ContextEnvironment;
//! # use ctxpref_relation::{AttrType, Relation, Schema};
//! # let env = ContextEnvironment::new(vec![
//! #     Hierarchy::flat("weather", &["cold", "warm"]).unwrap(),
//! # ]).unwrap();
//! # let schema = Schema::new(&[("name", AttrType::Str)]).unwrap();
//! # let mut rel = Relation::new("poi", schema);
//! # rel.insert(vec!["Acropolis".into()]).unwrap();
//! let mut db = MultiUserDb::new(env.clone(), rel, 8);
//! db.add_user("alice").unwrap();
//! let service = CtxPrefService::new(db, ServiceConfig::default());
//! let state = ContextState::parse(&env, &["warm"]).unwrap();
//! let answer = service.query_state("alice", &state).unwrap();
//! assert_eq!(answer.step, LadderStep::Exact);
//! assert!(!answer.is_degraded());
//! ```

mod admission;
mod config;
mod error;
mod ladder;
mod migrate;
mod pool;
mod retry;
mod service;
mod stats;
mod tier;
mod views;
mod write;

pub use admission::Admitted;
pub use config::{DurabilityConfig, ReplicatedConfig, RetryPolicy, ServiceConfig};
pub use error::ServiceError;
pub use ladder::{Fallback, LadderStep, ServiceAnswer, TryRead, ViewHit};
pub use migrate::{MigrationEntry, MigrationPhase, RouteInfo, UserExport};
pub use service::CtxPrefService;
pub use stats::ServiceStats;
pub use tier::Priority;
pub use write::{Edit, ScrubStatus};

// Durability and replication vocabulary re-exported so service
// consumers need not depend on the lower crates directly.
pub use ctxpref_replication::{
    AckMode, Cluster, ClusterStatus, NodeId, NodeStatus, ReplicationError, TickReport,
};
pub use ctxpref_wal::{
    CheckpointReport, QuarantinedFile, RecoveryReport, ScrubReport, SyncPolicy, WalStatus,
};
