//! The verbs the shell shares with `remote`: the verb table, the
//! parsers of their arguments, and the renderers of their replies.

use ctxpref::net::{NetError, RemoteAnswer, Request, Response};

use crate::USER;

/// A verb that means the same thing against the loaded database and
/// over `remote <addr>`: its usage (the name is the first word), its
/// `help` text, and how its arguments parse into the one [`Request`]
/// that [`serve_request`] serves locally, [`NetClient::request`]
/// remotely, and [`render`] prints either way.
pub(crate) struct Verb(
    &'static str,
    &'static str,
    fn(&str) -> Result<Request, String>,
);

impl Verb {
    fn name(&self) -> &'static str {
        self.0.split_once(' ').map_or(self.0, |(name, _)| name)
    }

    /// This verb's request, or why `args` does not parse.
    pub(crate) fn request(&self, args: &str) -> Result<Request, String> {
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
    Verb("checkpoint", "snapshot every node now and shrink its replay window", |_| Ok(Request::Checkpoint)),
    Verb("flush", "write every node's pending log records out now", |_| Ok(Request::FlushWal)),
    Verb("wal-status", "each node's per-shard log positions and counters", |_| Ok(Request::WalStatus)),
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

pub(crate) fn shared_verb(name: &str) -> Option<&'static Verb> {
    VERBS.iter().find(|verb| verb.name() == name)
}

/// Every command `remote` accepts, for its usage and unknown-command
/// errors and for `help`.
pub(crate) fn remote_verbs() -> String {
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
pub(crate) fn render(req: &Request, resp: Response) -> Result<String, String> {
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
        Response::Checkpointed { nodes } => per_node(&nodes, |generation| {
            format!("checkpoint generation {generation} written")
        }),
        Response::Flushed { nodes } => per_node(&nodes, |records| {
            format!("flushed {records} pending record(s)")
        }),
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

/// One `node <id>: …` line per node of a per-node reply.
fn per_node(nodes: &[(u64, u64)], line: impl Fn(u64) -> String) -> String {
    let lines: Vec<String> = nodes
        .iter()
        .map(|&(node, figure)| format!("node {node}: {}", line(figure)))
        .collect();
    lines.join("\n")
}

/// A failed remote call as the shell prints it: a typed refusal by its
/// message alone, as the local side prints it.
pub(crate) fn refusal(e: NetError) -> String {
    match e {
        NetError::Remote { message, .. } => message,
        other => other.to_string(),
    }
}

pub(crate) fn render_remote_answer(answer: &RemoteAnswer) -> String {
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

/// `help`: the local commands, then the verb table (every line of it
/// also runs over `remote`), then what `remote` accepts.
pub(crate) fn help() -> String {
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
