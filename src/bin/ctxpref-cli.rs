//! Interactive shell for the context-aware preference database — the
//! equivalent of the paper's prototype used in the Section 5.1 user
//! study, served through the fault-tolerant [`CtxPrefService`] layer
//! (deadlines, panic isolation, degradation ladder).
//!
//! ```text
//! cargo run --bin ctxpref-cli [saved-database]
//! ctxpref> load demo
//! ctxpref> context Plaka warm friends
//! ctxpref> query
//! ctxpref> query location = Athens and temperature = good
//! ctxpref> pref accompanying_people = family :: type = zoo @ 0.95
//! ctxpref> prefs
//! ctxpref> tree
//! ```
//!
//! Also works non-interactively: `echo "load demo\nquery ..." | ctxpref-cli`.
//! Malformed input prints an error and continues; a database that fails
//! to load at startup (or mid-script) exits with a non-zero code.

use std::io::{self, BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

use ctxpref::context::{ContextState, DistanceKind};
use ctxpref::core::{MultiUserDb, QueryAnswer, QueryOptions, ShardedMultiUserDb};
use ctxpref::net::{
    serve_request, NetClient, NetClientConfig, NetError, NetServer, NetServerConfig, RemoteAnswer,
    Request, Response,
};
use ctxpref::prelude::*;
use ctxpref::router::{Router, RouterConfig};
use ctxpref::service::{
    AckMode, CtxPrefService, DurabilityConfig, LadderStep, Priority, ReplicatedConfig,
    ServiceAnswer, ServiceConfig,
};
use ctxpref::workload::reference::{poi_env, poi_relation};
use ctxpref::workload::user_study::{default_profile, AgeBand, Demographics, Sex, Taste};

/// The REPL serves a single profile; this is its user name inside the
/// multi-user service.
const USER: &str = "me";

struct Repl {
    service: Option<Arc<CtxPrefService>>,
    server: Option<NetServer>,
    router: Option<Router>,
    current: Option<ContextState>,
    options: QueryOptions,
    top_k: usize,
    deadline: Duration,
}

impl Repl {
    fn new() -> Self {
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

    fn handle(&mut self, line: &str) -> Result<Option<String>, String> {
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
    fn cmd_remote(&mut self, rest: &str) -> Result<Option<String>, String> {
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

/// A verb that means the same thing against the loaded database and
/// over `remote <addr>`: its usage (the name is the first word), its
/// `help` text, and how its arguments parse into the one [`Request`]
/// that [`serve_request`] serves locally, [`NetClient::request`]
/// remotely, and [`render`] prints either way.
struct Verb(
    &'static str,
    &'static str,
    fn(&str) -> Result<Request, String>,
);

impl Verb {
    fn name(&self) -> &'static str {
        self.0.split_once(' ').map_or(self.0, |(name, _)| name)
    }

    /// This verb's request, or why `args` does not parse.
    fn request(&self, args: &str) -> Result<Request, String> {
        (self.2)(args).map_err(|why| format!("{why} — usage: {}", self.0))
    }
}

/// The shared verbs. Local `scrub` also lists the quarantined files,
/// which only the local side has, so `Repl::handle` serves it first.
#[rustfmt::skip]
const VERBS: &[Verb] = &[
    Verb("ping", "liveness probe", |_| Ok(Request::Ping)),
    Verb("pref <cod> :: <attr> = <value> @ <score>", "add a contextual preference", parse_pref),
    Verb("bulk-pref <cod> :: … @ <score> [; …]", "add several preferences in one batch", parse_bulk),
    Verb("del <index>", "remove a preference", parse_del),
    Verb("score <index> <score>", "update a preference's interest score", parse_score),
    Verb("checkpoint", "snapshot now and shrink the log's replay window", |_| Ok(Request::Checkpoint)),
    Verb("flush", "write the log's pending records out now", |_| Ok(Request::FlushWal)),
    Verb("wal-status", "per-shard log positions and durability counters", |_| Ok(Request::WalStatus)),
    Verb("repl-status", "roles, epochs, lag, and promotion history", |_| Ok(Request::ReplStatus)),
    Verb("scrub", "verify the log at rest, quarantine + heal damage", |_| Ok(Request::Scrub)),
    Verb("scrub-status", "self-healing counters (passes, quarantines, heals)", |_| Ok(Request::ScrubStatus)),
    Verb("views-status", "materialized-view counters and pinned states", |_| Ok(Request::ViewsStatus)),
    Verb("stats", "serving-layer counters (ladder, panics, deadlines)", |_| Ok(Request::Stats)),
];

/// The ranked reads `remote` takes besides the shared verbs: the wire
/// carries rows and provenance, not the local resolution trace, so
/// they are not the local `query`/`topk`.
const REMOTE_READS: &[&str] = &[
    "query <values>",
    "topk <user> <k> <values>",
    "query-desc <descriptor>",
];

fn shared_verb(name: &str) -> Option<&'static Verb> {
    VERBS.iter().find(|verb| verb.name() == name)
}

/// Every command `remote` accepts, for its usage and unknown-command
/// errors and for `help`.
fn remote_verbs() -> String {
    let names: Vec<&str> = VERBS.iter().map(Verb::name).collect();
    format!("{}, {}", names.join(", "), REMOTE_READS.join(", "))
}

/// `<cod> :: <attr> = <value> @ <score>` as an insert for the shell's
/// user.
fn parse_pref(text: &str) -> Result<Request, String> {
    let (cod, clause) = text
        .split_once("::")
        .ok_or("expected `<cod> :: <clause>`")?;
    let (assign, score) = clause.rsplit_once('@').ok_or("expected `… @ <score>`")?;
    let (attr, value) = assign
        .split_once('=')
        .ok_or("expected `<attr> = <value>`")?;
    Ok(Request::InsertPref {
        user: USER.to_string(),
        descriptor: cod.trim().to_string(),
        attr: attr.trim().to_string(),
        value: value.trim().to_string(),
        score: parse_num(score)?,
    })
}

/// `;`-separated preferences, shipped as one batch.
fn parse_bulk(text: &str) -> Result<Request, String> {
    let requests = text
        .split(';')
        .map(str::trim)
        .filter(|item| !item.is_empty())
        .map(parse_pref)
        .collect::<Result<Vec<_>, _>>()?;
    if requests.is_empty() {
        return Err("no items".to_string());
    }
    Ok(Request::Batch { requests })
}

fn parse_del(text: &str) -> Result<Request, String> {
    Ok(Request::RemovePref {
        user: USER.to_string(),
        index: parse_num(text)?,
    })
}

fn parse_score(text: &str) -> Result<Request, String> {
    let (index, score) = text
        .split_once(char::is_whitespace)
        .ok_or("expected two numbers")?;
    Ok(Request::UpdateScore {
        user: USER.to_string(),
        index: parse_num(index)?,
        score: parse_num(score)?,
    })
}

fn parse_num<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    let text = text.trim();
    text.parse().map_err(|_| format!("bad number {text:?}"))
}

/// A shared verb's reply, printed the same whichever side served it.
/// A refusal prints its message, whether it came back as a
/// `Response::Err` or as the client's `NetError::Remote`.
fn render(req: &Request, resp: Response) -> Result<String, String> {
    Ok(match resp {
        Response::Pong => "pong".to_string(),
        Response::Ok if matches!(req, Request::UpdateScore { .. }) => "score updated".to_string(),
        Response::Ok => "preference stored".to_string(),
        Response::Removed { score } => format!("removed preference scoring {score:.2}"),
        Response::Batch { responses } => {
            let stored = responses.len();
            for item in responses {
                <()>::try_from(item).map_err(refusal)?;
            }
            format!("{stored} preference(s) stored in one batch")
        }
        Response::ScrubReport {
            segments_verified,
            checkpoints_verified,
            read_errors,
            quarantined,
            healed,
        } => format!(
            "scrub: {segments_verified} sealed segment(s) + {checkpoints_verified} \
             checkpoint(s) verified, {read_errors} transient read error(s), \
             {quarantined} file(s) quarantined{}",
            if quarantined == 0 {
                ""
            } else if healed {
                " (healed with a fresh checkpoint)"
            } else {
                " (HEAL FAILED — will retry; recovery honours quarantine)"
            }
        ),
        Response::ScrubInfo {
            passes,
            quarantined,
            read_errors,
            heals,
            rescued_shards,
            disk_full_sheds,
            rotate_failures,
        } => format!(
            "scrub passes {passes}, quarantined {quarantined}, transient read errors \
             {read_errors}, heals {heals}\nrescued shards {rescued_shards}, disk-full \
             sheds {disk_full_sheds}, rotate failures {rotate_failures}"
        ),
        // A status body; anything else is refused the way a client
        // reads it.
        other => String::try_from(other).map_err(refusal)?,
    })
}

/// A failed remote call as the shell prints it: a typed refusal by its
/// message alone, as the local side prints it.
fn refusal(e: NetError) -> String {
    match e {
        NetError::Remote { message, .. } => message,
        other => other.to_string(),
    }
}

fn render_remote_answer(answer: &RemoteAnswer) -> String {
    let mut out = String::new();
    for (i, row) in answer.rows.iter().enumerate() {
        out.push_str(&format!(
            "{:>3}. {:<40} {:.3}\n",
            i + 1,
            row.name,
            row.score
        ));
    }
    if answer.rows.is_empty() {
        out.push_str("(no results — no stored preference covers this context)\n");
    }
    for f in &answer.fallbacks {
        out.push_str(&format!("[{} failed: {}]\n", f.step, f.reason));
    }
    if answer.is_degraded() {
        let via = match &answer.resolved_state {
            Some(s) => format!(" via {s}"),
            None => String::new(),
        };
        out.push_str(&format!("[degraded answer: {}{via}]\n", answer.step));
    }
    out.push_str(&format!(
        "[remote {} answer in {}µs]\n",
        answer.step, answer.elapsed_us
    ));
    out
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

/// `help`: the local commands, then the verb table (every line of it
/// also runs over `remote`), then what `remote` accepts.
fn help() -> String {
    let mut out = HELP.to_string();
    out.push_str("\nalso over `remote <addr>`, printing the same:");
    for Verb(usage, help, _) in VERBS {
        out.push_str(&format!("\n  {usage:<24}  {help}"));
    }
    // The remote line names every command it takes, wrapped at whole
    // items.
    let mut line = format!("  {:<25} drive a served database:", "remote <addr> <cmd>");
    for item in remote_verbs().split(", ") {
        if line.chars().count() + item.len() > 76 {
            out.push_str(&format!("\n{line}"));
            line = " ".repeat(27);
        }
        line.push_str(&format!(" {item},"));
    }
    out.push_str(&format!("\n{}\n  quit", line.trim_end_matches(',')));
    out
}

const HELP: &str = "\
commands:
  load demo                 load the two-city POI demo + a default profile
  save <path>               persist the database (atomic, checksummed)
  open <path>               load a persisted database
  durable <dir>             log every mutation to a write-ahead log under <dir>
  recover <dir>             recover a durable database (checkpoint + WAL replay)
  replicate <dir> [n] [async|quorum]   serve as an n-node primary/replica cluster
  promote <node>            manually promote a node to primary
  serve <addr>|stop         serve the database over TCP (framed protocol)
  route [<addrs…>|off]      connect a routing tier (one arg per cluster,
                            comma-separated endpoints) or show the table
  route-status [cluster]    probe routed clusters: primary, users, breaker
  migrate <user> <cluster>  live-migrate a user (copy, catch-up, fence, flip)
  env                       show context parameters and hierarchies
  context [v1 v2 v3]        set / show the current context state
  query [descriptor]        query the current or a hypothetical context
  topk <user> <k> [state…]  top-k pushdown (materialized view when fresh)
  explain [descriptor]      trace which stored preferences answered the query
  prefs                     list the profile
  tree                      profile tree and cache statistics
  orders                    tree size under every parameter ordering
  distance hierarchy|jaccard  pick the state distance
  deadline <ms>             per-query deadline for served queries
  top <k>                   number of results to display";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let stdin = io::stdin();
    let interactive = atty_stdin();
    let mut repl = Repl::new();

    // Subcommand forms:
    //   ctxpref-cli serve <addr> [saved-database]   load + serve, REPL alongside
    //   ctxpref-cli remote <addr> <cmd…>            one-shot remote command
    //   ctxpref-cli [saved-database]                plain REPL
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut startup: Vec<String> = Vec::new();
    let serve_mode = args.first().map(String::as_str) == Some("serve");
    match args.first().map(String::as_str) {
        Some("serve") => {
            let Some(addr) = args.get(1) else {
                eprintln!("usage: ctxpref-cli serve <addr> [saved-database]");
                return 2;
            };
            startup.push(match args.get(2) {
                Some(path) => format!("open {path}"),
                None => "load demo".to_string(),
            });
            startup.push(format!("serve {addr}"));
        }
        Some("remote") => {
            if args.len() < 3 {
                eprintln!("usage: ctxpref-cli remote <addr> <cmd…>");
                return 2;
            }
            match repl.cmd_remote(&args[1..].join(" ")) {
                Ok(Some(out)) => {
                    println!("{}", out.trim_end());
                    return 0;
                }
                Ok(None) => return 0,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
        // A database named on the command line must load; otherwise
        // the process is not in the state the caller asked for.
        Some(path) => startup.push(format!("open {path}")),
        None => {}
    }
    for line in startup {
        match repl.handle(&line) {
            Ok(Some(out)) => println!("{}", out.trim_end()),
            Ok(None) => {}
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }

    if interactive {
        println!("ctxpref — context-aware preference database (ICDE 2007). Type `help`.");
    }
    loop {
        if interactive {
            print!("ctxpref> ");
            io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            // In serve mode a closed stdin means "run as a daemon":
            // keep the listener up until the process is killed.
            Ok(0) if serve_mode && repl.server.is_some() => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        match repl.handle(&line) {
            Ok(Some(out)) => println!("{}", out.trim_end()),
            Ok(None) => {}
            Err(e) if e == "__quit__" => break,
            Err(e) => {
                eprintln!("error: {e}");
                // A script that fails to load its data cannot meaningfully
                // continue; interactive users just get the error.
                if !interactive && e.starts_with("failed to load") {
                    return 1;
                }
            }
        }
    }
    0
}

/// Crude interactivity probe without extra dependencies: honour an
/// explicit environment override, default to non-interactive when lines
/// are piped (the common scripted case prints no prompts).
fn atty_stdin() -> bool {
    std::env::var("CTXPREF_INTERACTIVE")
        .map(|v| v == "1")
        .unwrap_or(false)
}
