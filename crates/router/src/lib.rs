#![warn(missing_docs)]
//! User-partitioned routing tier over several serving clusters.
//!
//! The serving stack so far scales *one* cluster: a replicated
//! primary with failover behind TCP endpoints. This crate partitions
//! **users** across several such clusters and keeps the partitioning
//! a live, repairable thing:
//!
//! * [`RoutingTable`] — consistent hashing assigns every user a home
//!   cluster; per-user overrides (installed by migrations) win over
//!   the ring; a routing **epoch** advances on every committed flip.
//! * [`Router`] — forwards client operations to each user's owner
//!   over [`NetClient`](ctxpref_net::NetClient)s, with per-endpoint
//!   failover, primary rediscovery on `not-primary` answers, bounded
//!   backoff through `migrating` fences, and a per-cluster circuit
//!   breaker ([`Breaker`]) that fails fast while a cluster is down.
//! * [`Router::migrate_user`] — live migration: consistent snapshot,
//!   WAL-suffix catch-up, a brief per-user write fence at cut-over,
//!   profile digest verification across the move, then the routing flip —
//!   with abort/rollback at every pre-flip step and epoch fencing so
//!   a deposed driver can never clobber a newer migration. The chaos
//!   suite (`tests/chaos.rs`) drives migrations under injected
//!   network/replication faults and primary kills, asserting no acked
//!   write is ever lost or duplicated.

mod error;
mod health;
mod migrate;
mod router;
mod table;

pub use error::RouterError;
pub use health::{Breaker, BreakerConfig, BreakerState};
pub use migrate::MigrationReport;
pub use router::{Router, RouterConfig};
pub use table::RoutingTable;
