//! The router proper: failure-aware forwarding of client operations
//! to the cluster that owns each user.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctxpref_faults::clock;
use ctxpref_net::{
    NetClient, NetClientConfig, NetError, Outgoing, Priority, RemoteAnswer, Request, RequestRef,
    Response,
};
use parking_lot::Mutex;

use crate::error::RouterError;
use crate::health::{Breaker, BreakerConfig, BreakerState};
use crate::table::RoutingTable;

/// Router tuning.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Per-endpoint client tuning (timeouts, transport retry, jitter).
    pub client: NetClientConfig,
    /// Per-cluster circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Virtual ring points per cluster.
    pub vnodes: usize,
    /// How many times a request refused with `migrating` or
    /// `not-primary` is retried (the condition is transient by
    /// construction: a cut-over completes or a failover promotes).
    pub transient_retries: u32,
    /// Backoff between those retries, multiplied by the attempt
    /// number (capped at 8×).
    pub transient_backoff: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            client: NetClientConfig::default(),
            breaker: BreakerConfig::default(),
            vnodes: 16,
            transient_retries: 40,
            transient_backoff: Duration::from_millis(25),
        }
    }
}

/// Mutable per-cluster routing state: the breaker plus the endpoint
/// index that last answered (tried first on the next request).
struct ClusterState {
    breaker: Breaker,
    preferred: usize,
}

/// State shared by every clone of a router: the endpoints, the
/// routing table, and per-cluster health.
struct Shared {
    /// `endpoints[cluster]` = the addresses fronting that cluster.
    endpoints: Vec<Vec<String>>,
    cfg: RouterConfig,
    table: Mutex<RoutingTable>,
    health: Vec<Mutex<ClusterState>>,
}

/// A user-partitioned router over several serving clusters.
///
/// Each user is owned by exactly one cluster (consistent hashing plus
/// migration overrides — see [`RoutingTable`]); requests forward to
/// the owner over [`NetClient`]s. Failure handling, per layer:
///
/// * **Endpoint down** — for idempotent requests the next endpoint of
///   the same cluster is tried and the one that answers becomes
///   preferred; a mutation whose transport failed mid-exchange is
///   **not** replayed (unknown outcome — see
///   [`RouterError::AmbiguousWrite`]).
/// * **Whole cluster unreachable** — a per-cluster circuit breaker
///   opens after consecutive all-endpoint transport failures, fails
///   fast while open, and half-opens a probe after a cooldown.
/// * **`not-primary`** — the cluster is mid-failover; the router
///   backs off and retries (bounded), because promotion is seconds
///   away, not an error.
/// * **`migrating`** — the user is mid-cut-over; the refusal is typed
///   and pre-apply, so the router backs off, re-reads its routing
///   table (the flip may have landed), and retries — **safe even for
///   mutations**, because a fenced write was never applied.
///
/// Clones share the routing table and health state but keep their own
/// connection cache, so one clone per thread is the intended pattern.
pub struct Router {
    shared: Arc<Shared>,
    clients: HashMap<String, NetClient>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("clusters", &self.shared.endpoints.len())
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl Clone for Router {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            clients: HashMap::new(),
        }
    }
}

impl Router {
    /// A router over `endpoints[cluster]` address lists.
    pub fn new(endpoints: Vec<Vec<String>>, cfg: RouterConfig) -> Self {
        assert!(
            !endpoints.is_empty() && endpoints.iter().all(|e| !e.is_empty()),
            "every cluster needs at least one endpoint"
        );
        let clusters = endpoints.len();
        let health = (0..clusters)
            .map(|_| {
                Mutex::new(ClusterState {
                    breaker: Breaker::new(cfg.breaker),
                    preferred: 0,
                })
            })
            .collect();
        Self {
            shared: Arc::new(Shared {
                endpoints,
                table: Mutex::new(RoutingTable::new(clusters, cfg.vnodes)),
                health,
                cfg,
            }),
            clients: HashMap::new(),
        }
    }

    /// Number of clusters behind this router.
    pub fn clusters(&self) -> usize {
        self.shared.endpoints.len()
    }

    /// The current routing epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.table.lock().epoch()
    }

    /// The cluster that currently owns `user`.
    pub fn cluster_of(&self, user: &str) -> usize {
        self.shared.table.lock().cluster_of(user)
    }

    /// Every migration override, sorted by user.
    pub fn overrides(&self) -> Vec<(String, usize, u64)> {
        self.shared.table.lock().overrides()
    }

    /// The shared routing table (the migration driver commits flips
    /// through this).
    pub(crate) fn table(&self) -> &Mutex<RoutingTable> {
        &self.shared.table
    }

    /// The breaker state of `cluster` right now.
    pub fn breaker_state(&self, cluster: usize) -> BreakerState {
        self.shared.health[cluster].lock().breaker.state()
    }

    /// The cached client for `addr`, dialled lazily; the address is
    /// copied only when the client is first made.
    fn client(&mut self, addr: &str) -> &mut NetClient {
        if !self.clients.contains_key(addr) {
            let client = NetClient::connect(addr, self.shared.cfg.client);
            self.clients.insert(addr.to_string(), client);
        }
        self.clients.get_mut(addr).expect("just inserted")
    }

    /// One request against `cluster`: walk its endpoints starting at
    /// the preferred one, feed the breaker, and hand back whatever the
    /// cluster answered. `not-primary` from an endpoint rotates to the
    /// next (another access point may sit closer to the new primary);
    /// if every live endpoint says `not-primary` that is the answer —
    /// the cluster is alive but leaderless, which the caller retries.
    ///
    /// The walk only continues past a transport failure of *unknown*
    /// outcome for idempotent requests; a mutation stops there with
    /// [`RouterError::AmbiguousWrite`], because the dead connection
    /// may have carried an applied-but-unacked write and replaying it
    /// elsewhere would double-apply. Typed refusals (`not-primary`,
    /// `busy`) are pre-apply, so they rotate for every request kind.
    pub(crate) fn call_cluster(
        &mut self,
        cluster: usize,
        req: &Request,
    ) -> Result<Response, RouterError> {
        self.call_cluster_enveloped(cluster, Outgoing::Owned(req), None, Priority::Interactive)
    }

    /// [`Self::call_cluster`] with an end-to-end deadline and a
    /// priority tier. Each endpoint attempt is handed only the budget
    /// that remains at that instant — the walk itself (and the retries
    /// inside each [`NetClient`]) spends it — so a hop never asks a
    /// server for more work than the original caller is still waiting
    /// for. When the budget is gone the client surfaces the typed
    /// [`NetError::BudgetExhausted`] instead of dialing.
    pub(crate) fn call_cluster_enveloped(
        &mut self,
        cluster: usize,
        req: Outgoing<'_>,
        deadline: Option<Instant>,
        tier: Priority,
    ) -> Result<Response, RouterError> {
        if !self.shared.health[cluster].lock().breaker.allow() {
            return Err(RouterError::CircuitOpen { cluster });
        }
        // A handle of its own, so an endpoint's address is lent while
        // `self` hands out its client.
        let shared = Arc::clone(&self.shared);
        let n = shared.endpoints[cluster].len();
        let start = self.shared.health[cluster].lock().preferred;
        let idempotent = req.is_idempotent();
        let mut last_transport: Option<String> = None;
        let mut saw_not_primary = false;
        let mut saw_busy: Option<(usize, Duration)> = None;
        for i in 0..n {
            let idx = (start + i) % n;
            let remaining = deadline.map(clock::remaining);
            let client = self.client(&shared.endpoints[cluster][idx]);
            match client.send(req, remaining, tier) {
                Ok(Response::NotPrimary) => {
                    saw_not_primary = true;
                    continue;
                }
                Ok(resp) => {
                    let mut h = self.shared.health[cluster].lock();
                    h.breaker.on_success();
                    h.preferred = idx;
                    return Ok(resp);
                }
                // A typed refusal is an answer: the transport works,
                // the server decided. Health credit, no failover.
                Err(NetError::Remote { kind, message }) => {
                    let mut h = self.shared.health[cluster].lock();
                    h.breaker.on_success();
                    h.preferred = idx;
                    return Err(RouterError::Remote { kind, message });
                }
                // Saturated endpoint: the busy frame is a pre-apply
                // refusal (the server shed the request before touching
                // it), so another access point of the same cluster may
                // have capacity — safe to walk on even for mutations.
                Err(NetError::ServerBusy { limit, retry_after }) => {
                    saw_busy = Some((limit, retry_after));
                }
                Err(
                    e @ (NetError::Io(_) | NetError::Frame(_) | NetError::RetriesExhausted { .. }),
                ) => {
                    // Unknown outcome: the endpoint may have applied
                    // the request before the transport died. Replaying
                    // a non-idempotent mutation against the next
                    // endpoint could apply it twice (a replayed
                    // `remove-pref` removes a second, unrelated
                    // preference), so only idempotent requests keep
                    // walking; mutations surface the ambiguity to the
                    // caller, who must re-read before re-issuing.
                    if !idempotent {
                        self.shared.health[cluster].lock().breaker.on_failure();
                        return Err(RouterError::AmbiguousWrite {
                            cluster,
                            last: e.to_string(),
                        });
                    }
                    last_transport = Some(e.to_string());
                }
                // Protocol confusion is not transient; surface it.
                Err(e) => return Err(RouterError::Net(e)),
            }
        }
        if saw_not_primary {
            // The cluster answered — leaderless is a state, not a
            // transport failure.
            self.shared.health[cluster].lock().breaker.on_success();
            return Ok(Response::NotPrimary);
        }
        if let Some((limit, retry_after)) = saw_busy {
            // Every endpoint shed the request: the cluster is alive
            // and deciding, just saturated. This must NOT feed the
            // breaker's failure path — tripping the circuit on load
            // shedding would turn a brownout into a full outage for
            // the tiers the server was still willing to serve.
            self.shared.health[cluster].lock().breaker.on_success();
            return Err(RouterError::Net(NetError::ServerBusy {
                limit,
                retry_after,
            }));
        }
        self.shared.health[cluster].lock().breaker.on_failure();
        Err(RouterError::ClusterUnavailable {
            cluster,
            last: last_transport.unwrap_or_else(|| "no endpoints".to_string()),
        })
    }

    /// Forward one per-user request to its owner, absorbing the two
    /// transient refusals (`migrating`, `not-primary`) with bounded
    /// backoff. The owner is re-resolved on every attempt, so a
    /// routing flip that lands mid-retry redirects the request.
    fn forward(&mut self, user: &str, req: Outgoing<'_>) -> Result<Response, RouterError> {
        self.forward_enveloped(user, req, None, Priority::Interactive)
    }

    /// [`Self::forward`] with an end-to-end budget and a priority
    /// tier. The budget starts ticking on entry and is spent by every
    /// hop, endpoint walk, and transient-refusal backoff below; sleeps
    /// are clamped so a retry never outlives what the caller still
    /// waits for, and exhaustion surfaces as the typed
    /// [`NetError::BudgetExhausted`].
    fn forward_enveloped(
        &mut self,
        user: &str,
        req: Outgoing<'_>,
        budget: Option<Duration>,
        tier: Priority,
    ) -> Result<Response, RouterError> {
        let deadline = budget.map(|b| clock::now() + b);
        let retries = self.shared.cfg.transient_retries;
        let backoff = self.shared.cfg.transient_backoff;
        let mut attempt = 0u32;
        loop {
            let cluster = self.cluster_of(user);
            match self.call_cluster_enveloped(cluster, req, deadline, tier)? {
                Response::Migrating { .. } => {
                    attempt += 1;
                    if attempt > retries {
                        return Err(RouterError::UserMigrating {
                            user: user.to_string(),
                            retries: attempt - 1,
                        });
                    }
                }
                Response::NotPrimary => {
                    attempt += 1;
                    if attempt > retries {
                        return Err(RouterError::NoPrimary { cluster });
                    }
                }
                resp => return Ok(resp),
            }
            if !clock::sleep_within(backoff * attempt.min(8), deadline) {
                return Err(RouterError::Net(NetError::BudgetExhausted {
                    budget: budget.unwrap_or_default(),
                }));
            }
        }
    }

    /// [`Self::forward`], answered by the reply `T` it calls for.
    fn call<T: TryFrom<Response, Error = NetError>>(
        &mut self,
        user: &str,
        req: Outgoing<'_>,
    ) -> Result<T, RouterError> {
        Ok(self.forward(user, req)?.try_into()?)
    }

    /// Create `user` on their owning cluster.
    pub fn add_user(&mut self, user: &str) -> Result<(), RouterError> {
        self.call(
            user,
            Outgoing::Owned(&Request::AddUser {
                user: user.to_string(),
            }),
        )
    }

    /// Insert an equality preference on `user`'s owning cluster.
    pub fn insert_preference(
        &mut self,
        user: &str,
        descriptor: &str,
        attr: &str,
        value: &str,
        score: f64,
    ) -> Result<(), RouterError> {
        let req = RequestRef::InsertPref {
            user,
            descriptor,
            attr,
            value,
            score,
        };
        self.call(user, Outgoing::Lent(req))
    }

    /// Remove `user`'s preference at `index`, returning its score.
    pub fn remove_preference(&mut self, user: &str, index: usize) -> Result<f64, RouterError> {
        self.call(user, Outgoing::Lent(RequestRef::RemovePref { user, index }))
    }

    /// Re-score `user`'s preference at `index`.
    pub fn update_score(
        &mut self,
        user: &str,
        index: usize,
        score: f64,
    ) -> Result<(), RouterError> {
        let req = RequestRef::UpdateScore { user, index, score };
        self.call(user, Outgoing::Lent(req))
    }

    /// Rank `user`'s tuples by `attr` under a context state, on their
    /// owning cluster.
    ///
    /// `deadline` doubles as the end-to-end budget: it ticks from this
    /// call onward, every hop and retry below spends it, and the
    /// serving cluster clamps its execution deadline to what survives
    /// the trip.
    pub fn query(
        &mut self,
        user: &str,
        attr: &str,
        k: usize,
        deadline: Duration,
        state: &[&str],
    ) -> Result<RemoteAnswer, RouterError> {
        self.query_tiered(user, attr, k, deadline, state, Priority::Interactive)
    }

    /// [`Self::query`] at an explicit priority tier. Under overload
    /// the cluster sheds maintenance first, then bulk; interactive
    /// queries are shed only by the hard in-flight backstop.
    pub fn query_tiered(
        &mut self,
        user: &str,
        attr: &str,
        k: usize,
        deadline: Duration,
        state: &[&str],
        tier: Priority,
    ) -> Result<RemoteAnswer, RouterError> {
        let req = Outgoing::Lent(RequestRef::ranked(false, user, attr, k, deadline, state));
        Ok(self
            .forward_enveloped(user, req, Some(deadline), tier)?
            .try_into()?)
    }

    /// Top-k pushdown variant of [`Self::query`]: the serving shard
    /// answers from a materialized view when one is fresh, and the
    /// wire carries only `k` rows either way.
    pub fn query_topk(
        &mut self,
        user: &str,
        attr: &str,
        k: usize,
        deadline: Duration,
        state: &[&str],
    ) -> Result<RemoteAnswer, RouterError> {
        self.query_topk_tiered(user, attr, k, deadline, state, Priority::Interactive)
    }

    /// [`Self::query_topk`] at an explicit priority tier, with the
    /// same budget envelope as [`Self::query_tiered`].
    pub fn query_topk_tiered(
        &mut self,
        user: &str,
        attr: &str,
        k: usize,
        deadline: Duration,
        state: &[&str],
        tier: Priority,
    ) -> Result<RemoteAnswer, RouterError> {
        let req = Outgoing::Lent(RequestRef::ranked(true, user, attr, k, deadline, state));
        Ok(self
            .forward_enveloped(user, req, Some(deadline), tier)?
            .try_into()?)
    }

    /// Probe `cluster`: primary presence, replication epoch, state
    /// counts. Feeds the same health machinery as regular requests.
    pub fn route_status(
        &mut self,
        cluster: usize,
    ) -> Result<ctxpref_service::RouteInfo, RouterError> {
        match self.call_cluster(cluster, &Request::RouteStatus)? {
            Response::NotPrimary => Ok(ctxpref_service::RouteInfo {
                has_primary: false,
                epoch: 0,
                users: 0,
                migrations: 0,
            }),
            resp => Ok(resp.try_into()?),
        }
    }
}
