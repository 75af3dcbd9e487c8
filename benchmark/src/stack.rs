//! The real serving stack, in-process: per cluster one
//! `ShardedMultiUserDb` behind a `CtxPrefService` behind a `NetServer`
//! on loopback, fronted by a `Router` (or, for the bulk workload, one
//! `NetClient`).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ctxpref_core::MultiUserDb;
use ctxpref_net::{NetClient, NetClientConfig, NetServer, NetServerConfig};
use ctxpref_router::{Router, RouterConfig, RoutingTable};
use ctxpref_service::{CtxPrefService, DurabilityConfig, ServiceConfig};

use crate::workload::Dataset;

/// Entries of each user's context query tree (the `Cached` rung).
pub const QCACHE_CAPACITY: usize = 16;
/// The deadline every front-door read asks for; the server's cap.
/// Generous on purpose: a deadline miss is a failed operation, and no
/// operation here comes within two orders of magnitude of it.
pub const DEADLINE: Duration = Duration::from_secs(2);

/// One `MultiUserDb` per cluster holding the users that cluster owns
/// (`owner[user]`), each with their base profile.
pub fn cluster_dbs(ds: &Dataset, owner: &[u8], clusters: usize, cache: usize) -> Vec<MultiUserDb> {
    let mut dbs: Vec<MultiUserDb> = (0..clusters)
        .map(|_| MultiUserDb::new(ds.env.clone(), ds.relation.clone(), cache))
        .collect();
    for (u, name) in ds.users.iter().enumerate() {
        dbs[owner[u] as usize]
            .add_user_with_profile(name, ds.profile_of(u).clone())
            .expect("base profiles are conflict-free");
    }
    dbs
}

/// Which cluster the router sends each user to.
pub fn owners(ds: &Dataset) -> Vec<u8> {
    let table = RoutingTable::new(ds.workload.clusters(), RouterConfig::default().vnodes);
    ds.users.iter().map(|u| table.cluster_of(u) as u8).collect()
}

/// The group-commit flusher's interval: longer than any run, so it
/// never fires.
const NEVER_FLUSH: Duration = Duration::from_secs(24 * 3600);

/// No timers anywhere: checkpoints and scrubs happen only when the
/// driver asks, and the device stays out of the acked path. The log
/// has to live inside the checkout, on whatever disk that is, and with
/// `SyncPolicy::PerRecord` every mutation waited ~140 µs for an
/// `fdatasync` whose time drifted by 15 % between identical runs — the
/// shared host's disk, not this program. Under group commit a record is
/// framed, written to the segment (`write(2)` into the page cache) and
/// applied exactly as before; only the sync is left to a flusher, and
/// this one's interval outlasts the run. What tmpfs would have given.
pub fn durability(dir: &Path) -> DurabilityConfig {
    let mut cfg = DurabilityConfig::new(dir).group_commit(NEVER_FLUSH);
    cfg.checkpoint_interval = None;
    cfg.scrub_interval = None;
    cfg
}

/// Where cluster `i` of a stack started under `dir` keeps its log.
pub fn wal_dir(dir: &Path, cluster: usize) -> PathBuf {
    dir.join(format!("cluster{cluster}"))
}

pub struct Stack {
    pub services: Vec<Arc<CtxPrefService>>,
    pub servers: Vec<NetServer>,
    pub owner: Vec<u8>,
    /// Durable directories, one per cluster (empty when in-memory).
    pub wal_dirs: Vec<PathBuf>,
}

impl Stack {
    /// Build the databases and start the services; with `serve`, also
    /// bind one loopback server per cluster. Durable workloads log
    /// under `dir`.
    pub fn start(ds: &Dataset, dir: &Path, serve: bool) -> Self {
        let clusters = ds.workload.clusters();
        let owner = owners(ds);
        let mut wal_dirs = Vec::new();
        let services: Vec<Arc<CtxPrefService>> = cluster_dbs(ds, &owner, clusters, QCACHE_CAPACITY)
            .into_iter()
            .enumerate()
            .map(|(i, db)| {
                let cfg = ServiceConfig::default();
                Arc::new(if ds.workload.durable() {
                    let wal = wal_dir(dir, i);
                    wal_dirs.push(wal.clone());
                    CtxPrefService::new_durable(db, cfg, durability(&wal))
                        .expect("a fresh durable directory")
                } else {
                    CtxPrefService::new(db, cfg)
                })
            })
            .collect();
        let servers = if serve {
            services
                .iter()
                .map(|s| {
                    NetServer::bind("127.0.0.1:0", Arc::clone(s), NetServerConfig::default())
                        .expect("binding a loopback port")
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            services,
            servers,
            owner,
            wal_dirs,
        }
    }

    pub fn router(&self) -> Router {
        let endpoints = self
            .servers
            .iter()
            .map(|s| vec![s.local_addr().to_string()])
            .collect();
        Router::new(endpoints, RouterConfig::default())
    }

    pub fn clients(&self) -> Vec<NetClient> {
        self.servers
            .iter()
            .map(|s| NetClient::connect(s.local_addr().to_string(), NetClientConfig::default()))
            .collect()
    }

    /// Drain the servers, then stop the services (joining every thread
    /// they started and releasing the durable directories).
    pub fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
        for service in self.services {
            match Arc::try_unwrap(service) {
                Ok(service) => drop(service.shutdown()),
                Err(_) => unreachable!("the servers held the only other handles"),
            }
        }
    }
}
