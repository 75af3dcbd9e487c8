//! The shell's state and its local commands: the loaded service, the
//! TCP server and routing tier in front of it, and the query settings.

use std::sync::Arc;
use std::time::Duration;

use ctxpref::context::{ContextState, DistanceKind};
use ctxpref::core::{MultiUserDb, QueryAnswer, QueryOptions, ShardedMultiUserDb};
use ctxpref::net::{
    serve_request, NetClient, NetClientConfig, NetServer, NetServerConfig, Request,
};
use ctxpref::prelude::*;
use ctxpref::router::{Router, RouterConfig};
use ctxpref::service::{
    AckMode, CtxPrefService, DurabilityConfig, LadderStep, Priority, ReplicatedConfig,
    ServiceAnswer, ServiceConfig,
};
use ctxpref::workload::reference::{poi_env, poi_relation};
use ctxpref::workload::user_study::{default_profile, AgeBand, Demographics, Sex, Taste};

use crate::verbs::{help, refusal, remote_verbs, render, render_remote_answer, shared_verb};
use crate::USER;

pub(crate) struct Repl {
    service: Option<Arc<CtxPrefService>>,
    pub(crate) server: Option<NetServer>,
    router: Option<Router>,
    current: Option<ContextState>,
    options: QueryOptions,
    top_k: usize,
    deadline: Duration,
}

impl Repl {
    pub(crate) fn new() -> Self {
        Self {
            service: None,
            server: None,
            router: None,
            current: None,
            options: QueryOptions::default(),
            top_k: 10,
            deadline: ServiceConfig::default().default_deadline,
        }
    }

    fn service(&self) -> Result<&CtxPrefService, String> {
        self.service
            .as_deref()
            .ok_or_else(|| "no database loaded — try `load demo`".to_string())
    }

    /// Take the service back with exclusive ownership (for the
    /// durable/replicated restarts, which consume it). Refused while a
    /// TCP server is holding it.
    fn take_exclusive(&mut self) -> Result<CtxPrefService, String> {
        if self.server.is_some() {
            return Err("the TCP server holds the database — `serve stop` first".to_string());
        }
        let arc = self
            .service
            .take()
            .ok_or("no database loaded — try `load demo`")?;
        Arc::try_unwrap(arc).map_err(|arc| {
            self.service = Some(arc);
            "the database is still shared — stop whatever is serving it first".to_string()
        })
    }

    pub(crate) fn handle(&mut self, line: &str) -> Result<Option<String>, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "help" => Ok(Some(help())),
            "quit" | "exit" => Err("__quit__".to_string()),
            "load" => self.cmd_load(rest),
            "save" => self.cmd_save(rest),
            "open" => self.cmd_open(rest),
            "durable" => self.cmd_durable(rest),
            "recover" => self.cmd_recover(rest),
            "scrub" => self.cmd_scrub(),
            "replicate" => self.cmd_replicate(rest),
            "promote" => self.cmd_promote(rest),
            "serve" => self.cmd_serve(rest),
            "remote" => self.cmd_remote(rest),
            "route" => self.cmd_route(rest),
            "route-status" => self.cmd_route_status(rest),
            "migrate" => self.cmd_migrate(rest),
            "env" => self.cmd_env(),
            "context" => self.cmd_context(rest),
            "query" => self.cmd_query(rest),
            "topk" => self.cmd_topk(rest),
            "explain" => self.cmd_explain(rest),
            "prefs" => self.cmd_prefs(),
            "tree" => self.cmd_tree(),
            "orders" => self.cmd_orders(),
            "distance" => self.cmd_distance(rest),
            "deadline" => {
                let ms: u64 = rest
                    .parse()
                    .map_err(|_| format!("bad deadline: {rest:?}"))?;
                self.deadline = Duration::from_millis(ms.max(1));
                Ok(Some(format!(
                    "per-query deadline set to {:?}",
                    self.deadline
                )))
            }
            "top" => {
                self.top_k = rest.parse().map_err(|_| format!("bad k: {rest:?}"))?;
                Ok(Some(format!("showing top {}", self.top_k)))
            }
            other => match shared_verb(other) {
                Some(verb) => {
                    let req = verb.request(rest)?;
                    render(&req, serve_request(self.service()?, &req)).map(Some)
                }
                None => Err(format!("unknown command {other:?} — try `help`")),
            },
        }
    }

    fn install(&mut self, db: MultiUserDb) {
        let service = CtxPrefService::new(db, ServiceConfig::default());
        service.set_query_defaults(self.options);
        self.stop_server();
        self.service = Some(Arc::new(service));
        self.current = None;
    }

    fn stop_server(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    fn cmd_load(&mut self, what: &str) -> Result<Option<String>, String> {
        if what != "demo" {
            return Err("only `load demo` is available".to_string());
        }
        let env = poi_env();
        let rel = poi_relation(&env, 2007, 5);
        let mut db = MultiUserDb::new(env.clone(), rel, 64);
        let demo = Demographics {
            age: AgeBand::Between30And50,
            sex: Sex::Female,
            taste: Taste::Mainstream,
        };
        let profile = default_profile(&env, db.relation(), demo);
        let n = profile.len();
        db.add_user_with_profile(USER, profile)
            .map_err(|e| e.to_string())?;
        let pois = db.relation().len();
        self.install(db);
        Ok(Some(format!(
            "loaded demo: {pois} points of interest, {n} preferences (mainstream 30–50 default profile)"
        )))
    }

    fn cmd_save(&mut self, path: &str) -> Result<Option<String>, String> {
        if path.is_empty() {
            return Err("usage: save <path>".to_string());
        }
        self.service()?.save(path).map_err(|e| e.to_string())?;
        Ok(Some(format!("saved to {path} (atomic, checksummed)")))
    }

    fn cmd_open(&mut self, path: &str) -> Result<Option<String>, String> {
        if path.is_empty() {
            return Err("usage: open <path>".to_string());
        }
        let db = ctxpref::wal::snapshot::load_multi_user(path)
            .map_err(|e| format!("failed to load {path}: {e}"))?;
        let (pois, users) = (db.relation().len(), db.user_count());
        let prefs = db.profile(USER).map(|p| p.len()).unwrap_or(0);
        self.install(db);
        Ok(Some(format!(
            "opened {path}: {pois} tuples, {users} user(s), {prefs} preferences"
        )))
    }

    /// Restart the loaded database as a durable service: every further
    /// mutation is logged to a write-ahead log under `dir` before it is
    /// applied, and `recover <dir>` brings it back after a crash.
    fn cmd_durable(&mut self, dir: &str) -> Result<Option<String>, String> {
        if dir.is_empty() {
            return Err("usage: durable <dir>".to_string());
        }
        if std::path::Path::new(dir).join("MANIFEST").exists() {
            return Err(format!(
                "{dir} already holds a durable database — `recover {dir}`"
            ));
        }
        let service = self.take_exclusive()?;
        let db = service.shutdown();
        let service =
            CtxPrefService::new_durable(db, ServiceConfig::default(), DurabilityConfig::new(dir))
                .map_err(|e| format!("{e} (database dropped — reload it)"))?;
        service.set_query_defaults(self.options);
        self.service = Some(Arc::new(service));
        Ok(Some(format!(
            "durable: mutations now logged under {dir} (fsync per record, checkpoint every 60s)"
        )))
    }

    /// Recover a durable directory: load its latest checkpoint, replay
    /// the per-shard logs, repair a torn tail, and keep logging there.
    fn cmd_recover(&mut self, dir: &str) -> Result<Option<String>, String> {
        if dir.is_empty() {
            return Err("usage: recover <dir>".to_string());
        }
        let (service, report) =
            CtxPrefService::recover(ServiceConfig::default(), DurabilityConfig::new(dir))
                .map_err(|e| e.to_string())?;
        service.set_query_defaults(self.options);
        self.stop_server();
        self.service = Some(Arc::new(service));
        self.current = None;
        Ok(Some(format!(
            "recovered checkpoint generation {}: {} record(s) replayed, {} rejected, \
             {} torn tail(s) repaired",
            report.generation, report.replayed, report.rejected, report.truncated_tails
        )))
    }

    /// Restart the loaded database as a replicated service: a
    /// primary/replica cluster under `dir`, writes quorum-acked (or
    /// async), automatic failover on primary death.
    fn cmd_replicate(&mut self, rest: &str) -> Result<Option<String>, String> {
        let mut parts = rest.split_whitespace();
        let dir = parts
            .next()
            .ok_or("usage: replicate <dir> [nodes] [async|quorum]")?;
        let nodes: usize = match parts.next() {
            Some(n) => n.parse().map_err(|_| format!("bad node count: {n:?}"))?,
            None => 3,
        };
        if nodes < 1 {
            return Err("a cluster needs at least one node".to_string());
        }
        let ack = match parts.next() {
            None | Some("quorum") => AckMode::Quorum,
            Some("async") => AckMode::Async,
            Some(other) => return Err(format!("unknown ack mode {other:?} (async | quorum)")),
        };
        let service = self.take_exclusive()?;
        let db = service.shutdown();
        let rcfg = ReplicatedConfig {
            ack_mode: ack,
            ..ReplicatedConfig::new(DurabilityConfig::new(dir), nodes)
        };
        let service = CtxPrefService::new_replicated(db, ServiceConfig::default(), rcfg)
            .map_err(|e| format!("{e} (database dropped — reload it)"))?;
        service.set_query_defaults(self.options);
        self.service = Some(Arc::new(service));
        Ok(Some(format!(
            "replicated: {nodes} node(s) under {dir}, {} acks, auto-failover on",
            match ack {
                AckMode::Quorum => "quorum",
                AckMode::Async => "async",
            }
        )))
    }

    /// Manually promote a node to primary (majority-guarded; the
    /// candidate catches up from every reachable peer before serving).
    fn cmd_promote(&mut self, rest: &str) -> Result<Option<String>, String> {
        let id: usize = rest.trim().parse().map_err(|_| "usage: promote <node>")?;
        let epoch = self.service()?.promote(id).map_err(|e| e.to_string())?;
        Ok(Some(format!("node {id} promoted at epoch {epoch}")))
    }

    /// Serve the loaded database over TCP: `serve <addr>` binds a
    /// framed-protocol listener in front of the service (the REPL
    /// keeps working alongside it), `serve` shows what is being
    /// served, `serve stop` drains and stops.
    fn cmd_serve(&mut self, rest: &str) -> Result<Option<String>, String> {
        match rest {
            "" => Ok(Some(match &self.server {
                Some(server) => format!(
                    "serving on {} ({} connection(s) active)",
                    server.local_addr(),
                    server.active_connections()
                ),
                None => "not serving — `serve <addr>` (e.g. serve 127.0.0.1:7878)".to_string(),
            })),
            "stop" => match self.server.take() {
                Some(server) => {
                    let addr = server.local_addr();
                    let undrained = server.shutdown();
                    Ok(Some(if undrained == 0 {
                        format!("stopped serving on {addr} (clean drain)")
                    } else {
                        format!("stopped serving on {addr} ({undrained} connection(s) abandoned)")
                    }))
                }
                None => Err("not serving".to_string()),
            },
            addr => {
                if self.server.is_some() {
                    return Err("already serving — `serve stop` first".to_string());
                }
                let service = self
                    .service
                    .clone()
                    .ok_or("no database loaded — try `load demo`")?;
                let server = NetServer::bind(addr, service, NetServerConfig::default())
                    .map_err(|e| format!("failed to bind {addr}: {e}"))?;
                let bound = server.local_addr();
                self.server = Some(server);
                Ok(Some(format!(
                    "serving on {bound} — `remote {bound} ping` from another shell"
                )))
            }
        }
    }

    /// Drive a remote server: `remote <addr> <cmd…>` dials the framed
    /// protocol, runs one command against the remote profile, and
    /// prints the response. The shared verbs are the local ones, sent
    /// over the wire; the ranked reads take their state or descriptor
    /// as arguments and print what the wire carries.
    pub(crate) fn cmd_remote(&mut self, rest: &str) -> Result<Option<String>, String> {
        let (addr, cmd) = rest
            .split_once(char::is_whitespace)
            .map(|(a, c)| (a, c.trim()))
            .ok_or_else(|| format!("usage: remote <addr> <cmd> — {}", remote_verbs()))?;
        let mut client = NetClient::connect(addr, NetClientConfig::default());
        let (verb, args) = match cmd.split_once(char::is_whitespace) {
            Some((v, a)) => (v, a.trim()),
            None => (cmd, ""),
        };
        let answer = match verb {
            "query" if !args.is_empty() => {
                let names: Vec<&str> = args.split_whitespace().collect();
                client.query(USER, "name", self.top_k, self.deadline, &names)
            }
            "topk" => {
                const USAGE: &str = "usage: remote <addr> topk <user> <k> <state…>";
                let mut parts = args.split_whitespace();
                let user = parts.next().ok_or(USAGE)?;
                let k: usize = parts.next().ok_or(USAGE)?.parse().map_err(|_| "bad k")?;
                let names: Vec<&str> = parts.collect();
                if names.is_empty() {
                    return Err(USAGE.to_string());
                }
                client.query_topk(user, "name", k, self.deadline, &names)
            }
            "query-desc" if !args.is_empty() => {
                client.query_descriptor(USER, "name", self.top_k, args)
            }
            other => {
                let verb = shared_verb(other).ok_or_else(|| {
                    format!("unknown remote command {other:?} — {}", remote_verbs())
                })?;
                let req = verb.request(args)?;
                let resp = client.request(&req).map_err(refusal)?;
                return render(&req, resp).map(Some);
            }
        };
        Ok(Some(render_remote_answer(&answer.map_err(refusal)?)))
    }

    /// Connect (or inspect) the routing tier: `route <cluster…>` builds
    /// a consistent-hashing router over the given clusters, one
    /// argument per cluster with comma-separated endpoints; `route`
    /// alone shows the table; `route off` disconnects.
    fn cmd_route(&mut self, rest: &str) -> Result<Option<String>, String> {
        match rest {
            "" => {
                let Some(router) = &self.router else {
                    return Ok(Some(
                        "no routing tier — `route <addr[,addr…]> <addr[,addr…]> …`".to_string(),
                    ));
                };
                let mut out = format!(
                    "routing over {} cluster(s), epoch {}\n",
                    router.clusters(),
                    router.epoch()
                );
                let overrides = router.overrides();
                if overrides.is_empty() {
                    out.push_str("no per-user overrides (everyone on their hash home)");
                } else {
                    for (user, cluster, epoch) in overrides {
                        out.push_str(&format!(
                            "{user} → cluster {cluster} (moved at epoch {epoch})\n"
                        ));
                    }
                }
                Ok(Some(out))
            }
            "off" => match self.router.take() {
                Some(_) => Ok(Some("routing tier disconnected".to_string())),
                None => Err("no routing tier connected".to_string()),
            },
            clusters => {
                let endpoints: Vec<Vec<String>> = clusters
                    .split_whitespace()
                    .map(|c| c.split(',').map(str::to_string).collect())
                    .collect();
                let n = endpoints.len();
                self.router = Some(Router::new(endpoints, RouterConfig::default()));
                Ok(Some(format!(
                    "routing over {n} cluster(s) — `route-status`, `migrate <user> <cluster>`"
                )))
            }
        }
    }

    fn router(&mut self) -> Result<&mut Router, String> {
        self.router
            .as_mut()
            .ok_or_else(|| "no routing tier — `route <addr…>` first".to_string())
    }

    /// Probe the routed clusters: primary presence, replication epoch,
    /// user and migration-entry counts, breaker state.
    fn cmd_route_status(&mut self, rest: &str) -> Result<Option<String>, String> {
        let router = self.router()?;
        let clusters: Vec<usize> = if rest.is_empty() {
            (0..router.clusters()).collect()
        } else {
            vec![rest
                .trim()
                .parse()
                .map_err(|_| "usage: route-status [cluster]")?]
        };
        let mut out = String::new();
        for c in clusters {
            match router.route_status(c) {
                Ok(info) => out.push_str(&format!(
                    "cluster {c}: {}, epoch {}, {} user(s), {} migration entr{}, breaker {:?}\n",
                    if info.has_primary {
                        "primary up"
                    } else {
                        "NO PRIMARY"
                    },
                    info.epoch,
                    info.users,
                    info.migrations,
                    if info.migrations == 1 { "y" } else { "ies" },
                    router.breaker_state(c),
                )),
                Err(e) => out.push_str(&format!(
                    "cluster {c}: unreachable ({e}), breaker {:?}\n",
                    router.breaker_state(c)
                )),
            }
        }
        Ok(Some(out))
    }

    /// Live-migrate a user to another cluster through the router:
    /// snapshot copy, WAL catch-up, brief write fence, epoch flip.
    fn cmd_migrate(&mut self, rest: &str) -> Result<Option<String>, String> {
        let (user, dest) = rest
            .split_once(char::is_whitespace)
            .ok_or("usage: migrate <user> <cluster>")?;
        let dest: usize = dest.trim().parse().map_err(|_| "bad cluster number")?;
        let router = self.router()?;
        if dest >= router.clusters() {
            return Err(format!(
                "cluster {dest} does not exist (have {})",
                router.clusters()
            ));
        }
        let report = router
            .migrate_user(user.trim(), dest)
            .map_err(|e| e.to_string())?;
        if !report.moved {
            return Ok(Some(format!(
                "{} already lives on cluster {} — nothing to move",
                report.user, report.to
            )));
        }
        Ok(Some(format!(
            "{} moved: cluster {} → {} at epoch {} ({} catch-up page(s), \
             writes fenced {:?}, {} snapshot restart(s))",
            report.user,
            report.from,
            report.to,
            report.epoch,
            report.pages,
            report.fence,
            report.restarts
        )))
    }

    /// `scrub` on the loaded database: the shared summary line, then
    /// one line per quarantined file — only this side has their paths
    /// and reasons, so it does not go through the verb table.
    fn cmd_scrub(&self) -> Result<Option<String>, String> {
        let report = self.service()?.scrub().map_err(|e| e.to_string())?;
        let mut out = String::new();
        for q in &report.quarantined {
            out.push_str(&format!(
                "\nquarantined {} → {}: {}",
                q.original.display(),
                q.quarantined.display(),
                q.reason
            ));
        }
        Ok(Some(render(&Request::Scrub, report.into())? + &out))
    }

    fn cmd_env(&self) -> Result<Option<String>, String> {
        self.service()?.with_db(|db| {
            let mut out = String::new();
            for (_, h) in db.env().iter() {
                let levels: Vec<String> = (0..h.level_count())
                    .map(|l| {
                        let l = ctxpref::hierarchy::LevelId(l as u8);
                        format!("{} ({} values)", h.level_name(l), h.domain_size(l))
                    })
                    .collect();
                out.push_str(&format!("{}: {}\n", h.name(), levels.join(" ≺ ")));
            }
            Ok(Some(out))
        })
    }

    fn cmd_context(&mut self, rest: &str) -> Result<Option<String>, String> {
        let service = self.service()?;
        if rest.is_empty() {
            return service.with_db(|db| {
                Ok(Some(match &self.current {
                    Some(s) => format!("current context: {}", s.display(db.env())),
                    None => "no current context set".to_string(),
                }))
            });
        }
        let names: Vec<&str> = rest.split_whitespace().collect();
        let (state, rendered) = service.with_db(|db| {
            let state = ContextState::parse(db.env(), &names).map_err(|e| e.to_string())?;
            let rendered = format!("current context set to {}", state.display(db.env()));
            Ok::<_, String>((state, rendered))
        })?;
        self.current = Some(state);
        Ok(Some(rendered))
    }

    /// State queries go through the service: deadline enforced, panics
    /// contained, and the degradation ladder engaged on failure.
    fn cmd_query(&mut self, rest: &str) -> Result<Option<String>, String> {
        let top_k = self.top_k;
        let service = self.service()?;
        if rest.is_empty() {
            let state = self
                .current
                .clone()
                .ok_or("no context — use `context <values>` or pass a descriptor")?;
            let answer = service
                .query_state_deadline(USER, &state, self.deadline)
                .map_err(|e| e.to_string())?;
            return service.with_db(|db| {
                let mut out = render_answer(db, &answer.answer, top_k)?;
                out.push_str(&render_ladder(db, &answer));
                Ok(Some(out))
            });
        }
        // Descriptor queries (hypothetical contexts) use the direct
        // library path: they are exploratory, not servable lookups.
        service.with_db(|db| {
            let ecod = ctxpref::context::parse_extended_descriptor(db.env(), rest)
                .map_err(|e| e.to_string())?;
            let answer = db.query(USER, &ecod).map_err(|e| e.to_string())?;
            let mut out = render_answer(db, &answer, top_k)?;
            for r in &answer.resolutions {
                out.push_str(&format!(
                    "[{} → {} via {} candidate(s), {} cells]\n",
                    r.query_state.display(db.env()),
                    r.outcome,
                    r.candidate_count,
                    r.cells
                ));
            }
            Ok(Some(out))
        })
    }

    /// Top-k pushdown query: `topk <user> <k> [state…]` asks the
    /// service for exactly `k` rows, served from a materialized view
    /// when one is fresh for that (user, state). With no state names
    /// the current context is used.
    fn cmd_topk(&mut self, rest: &str) -> Result<Option<String>, String> {
        let mut parts = rest.split_whitespace();
        let user = parts.next().ok_or("usage: topk <user> <k> [state…]")?;
        let k: usize = parts
            .next()
            .ok_or("usage: topk <user> <k> [state…]")?
            .parse()
            .map_err(|_| "bad k")?;
        let names: Vec<&str> = parts.collect();
        let deadline = self.deadline;
        let current = self.current.clone();
        let service = self.service()?;
        let state = if names.is_empty() {
            current.ok_or("no context — use `context <values>` or name one")?
        } else {
            service
                .with_db(|db| ContextState::parse(db.env(), &names).map_err(|e| e.to_string()))?
        };
        let answer = service
            .query_topk_tiered(user, &state, k, deadline, Priority::Interactive)
            .map_err(|e| e.to_string())?;
        service.with_db(|db| {
            let mut out = render_answer(db, &answer.answer, k)?;
            if answer.step == LadderStep::View {
                out.push_str("[served from a materialized view]\n");
            }
            out.push_str(&render_ladder(db, &answer));
            Ok(Some(out))
        })
    }

    fn cmd_explain(&mut self, rest: &str) -> Result<Option<String>, String> {
        let current = self.current.clone();
        let service = self.service()?;
        service.with_db(|db| {
            let answer = if rest.is_empty() {
                let state =
                    current.ok_or("no context — use `context <values>` or pass a descriptor")?;
                // Bypass the cache: an explanation needs the resolution
                // trace, which cached answers do not carry.
                let ecod = ctxpref::context::ExtendedContextDescriptor::from(
                    ctxpref::context::descriptor_of_state(db.env(), &state),
                );
                db.query(USER, &ecod).map_err(|e| e.to_string())?
            } else {
                let ecod = ctxpref::context::parse_extended_descriptor(db.env(), rest)
                    .map_err(|e| e.to_string())?;
                db.query(USER, &ecod).map_err(|e| e.to_string())?
            };
            let tree = db.tree(USER).map_err(|e| e.to_string())?;
            let mut out = String::new();
            for r in &answer.resolutions {
                out.push_str(&ctxpref::resolve::explain_resolution(
                    &tree,
                    db.relation().schema(),
                    r,
                ));
            }
            Ok(Some(out))
        })
    }

    fn cmd_prefs(&self) -> Result<Option<String>, String> {
        self.service()?.with_db(|db| {
            let profile = db.profile(USER).map_err(|e| e.to_string())?;
            let mut out = String::new();
            for (i, p) in profile.iter().enumerate() {
                out.push_str(&format!(
                    "[{i}] {} ⇒ {} @ {:.2}\n",
                    p.descriptor().display(db.env()),
                    p.clause().display(db.relation().schema()),
                    p.score()
                ));
            }
            if out.is_empty() {
                out.push_str("(empty profile)\n");
            }
            Ok(Some(out))
        })
    }

    fn cmd_tree(&self) -> Result<Option<String>, String> {
        self.service()?.with_db(|db| {
            let stats = db.tree_stats(USER).map_err(|e| e.to_string())?;
            let tree = db.tree(USER).map_err(|e| e.to_string())?;
            let mut out = format!("{tree}\n");
            out.push_str(&format!(
                "internal nodes {}, cells {}, leaf states {}, entries {}, ~{} bytes\n",
                stats.internal_nodes,
                stats.internal_cells,
                stats.leaf_nodes,
                stats.leaf_entries,
                stats.total_bytes()
            ));
            if let Some(cs) = db.cache_stats(USER).map_err(|e| e.to_string())? {
                out.push_str(&format!(
                    "query cache: {} hits / {} misses (hit ratio {:.0}%)\n",
                    cs.hits,
                    cs.misses,
                    cs.hit_ratio() * 100.0
                ));
            }
            Ok(Some(out))
        })
    }

    fn cmd_orders(&self) -> Result<Option<String>, String> {
        self.service()?.with_db(|db| {
            let tree = db.tree(USER).map_err(|e| e.to_string())?;
            let mut out = String::new();
            for order in ParamOrder::all_orders(db.env()) {
                let reordered = tree.reorder(order.clone()).map_err(|e| e.to_string())?;
                out.push_str(&format!(
                    "{:<60} {:>7} cells\n",
                    format!("{}", order.display(db.env())),
                    reordered.stats().total_cells()
                ));
            }
            Ok(Some(out))
        })
    }

    fn cmd_distance(&mut self, rest: &str) -> Result<Option<String>, String> {
        self.options.distance = match rest.trim() {
            "hierarchy" => DistanceKind::Hierarchy,
            "jaccard" => DistanceKind::Jaccard,
            other => return Err(format!("unknown distance {other:?} (hierarchy | jaccard)")),
        };
        if let Some(service) = &self.service {
            service.set_query_defaults(self.options);
        }
        Ok(Some(format!("distance set to {}", self.options.distance)))
    }
}

fn render_answer(
    db: &ShardedMultiUserDb,
    answer: &QueryAnswer,
    k: usize,
) -> Result<String, String> {
    let mut out = answer
        .render_top(db.relation(), "name", k)
        .map_err(|e| e.to_string())?;
    if answer.results.is_empty() {
        out.push_str("(no results — no stored preference covers this context)\n");
    }
    Ok(out)
}

fn render_ladder(db: &ShardedMultiUserDb, answer: &ServiceAnswer) -> String {
    let mut out = String::new();
    if answer.answer.from_cache {
        out.push_str("[served from the context query tree]\n");
    }
    for f in &answer.fallbacks {
        out.push_str(&format!("[{} failed: {}]\n", f.step, f.reason));
    }
    if answer.is_degraded() {
        let via = match &answer.resolved_state {
            Some(s) => format!(" via {}", s.display(db.env())),
            None => String::new(),
        };
        out.push_str(&format!("[degraded answer: {}{via}]\n", answer.step));
    }
    out
}
