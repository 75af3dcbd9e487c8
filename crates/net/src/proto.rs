//! The request/response vocabulary of the serving protocol: what a
//! client can ask ([`Request`]) and what a server can answer
//! ([`Response`]), as plain data.
//!
//! This module knows nothing about bytes. How a message becomes a
//! frame payload is the business of exactly one module,
//! `crate::codec` (`ctxpref2`: binary, length-delimited, id-tagged),
//! whose vocabulary table gives each variant here its tag and field
//! order; the server's dispatch and the client's typed methods meet
//! here, on the enums. Each reply shape is declared once too, in the
//! `reply!` table below: dispatch turns a service value into its
//! [`Response`] through it, and a typed client method takes the value
//! back out through it.
//!
//! The verbs a reactor may answer itself also have a lent form,
//! [`RequestRef`], whose texts borrow from a payload or a caller; the
//! codec generates its encoding and the conversions both ways from the
//! same table lines, marked `lent`. [`Outgoing`] is either form on its
//! way to a socket.
//!
//! Adding a verb takes the variant here, one line in the codec's
//! table, one `reply!` line if its reply has a new shape, and one line
//! in the server's dispatch.

use std::time::Duration;

use ctxpref_bytes::{LentMessage, Tokens};
use ctxpref_service::{RouteInfo, ScrubReport, ScrubStatus, UserExport};

use crate::error::NetError;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Query `user` under a context state (one value name per
    /// hierarchy), returning the top `k` tuples rendered by `attr`.
    Query {
        /// The user to query.
        user: String,
        /// Display attribute for result rows.
        attr: String,
        /// How many rows to return (ties included).
        k: usize,
        /// Requested deadline in milliseconds (server caps it).
        deadline_ms: u64,
        /// Context value names, one per hierarchy, in environment order.
        state: Vec<String>,
    },
    /// Top-k query for `user` under a context state: the server
    /// evaluates only the best `k` rows (materialized view or
    /// early-terminating ranking) and the wire carries only those
    /// rows. Same envelope as [`Request::Query`].
    TopK {
        /// The user to query.
        user: String,
        /// Display attribute for result rows.
        attr: String,
        /// How many rows to return (ties included).
        k: usize,
        /// Requested deadline in milliseconds (server caps it).
        deadline_ms: u64,
        /// Context value names, one per hierarchy, in environment order.
        state: Vec<String>,
    },
    /// The view catalog's status report: aggregate counters plus one
    /// line per user with materialized views.
    ViewsStatus,
    /// Query `user` under a context descriptor (exploratory path).
    QueryDescriptor {
        /// The user to query.
        user: String,
        /// Display attribute for result rows.
        attr: String,
        /// How many rows to return (ties included).
        k: usize,
        /// The descriptor, in the CLI's textual syntax.
        descriptor: String,
    },
    /// Register a user with an empty profile.
    AddUser {
        /// The user name.
        user: String,
    },
    /// Remove a user and their profile.
    RemoveUser {
        /// The user name.
        user: String,
    },
    /// Insert an equality preference from its textual parts.
    InsertPref {
        /// The user name.
        user: String,
        /// Context descriptor text.
        descriptor: String,
        /// Attribute name of the preference clause.
        attr: String,
        /// Attribute value (string form; typed by the schema).
        value: String,
        /// Interest score.
        score: f64,
    },
    /// Remove a preference by profile index.
    RemovePref {
        /// The user name.
        user: String,
        /// Position in the profile's preference list.
        index: usize,
    },
    /// Re-score a preference by profile index.
    UpdateScore {
        /// The user name.
        user: String,
        /// Position in the profile's preference list.
        index: usize,
        /// The new interest score.
        score: f64,
    },
    /// Take a checkpoint now (durable services only).
    Checkpoint,
    /// Flush the write-ahead log (durable services only).
    FlushWal,
    /// Per-shard WAL positions and counters.
    WalStatus,
    /// Replication roles, epochs, lag, promotion history.
    ReplStatus,
    /// Run one scrub pass now: verify sealed WAL segments and the
    /// checkpoint at rest, quarantine and heal what fails (durable
    /// services only). Retry-safe: a re-run re-verifies and finds the
    /// damage already quarantined.
    Scrub,
    /// Self-healing counters — scrub passes, quarantined files, heals,
    /// rescues — without running a pass.
    ScrubStatus,
    /// Serving-layer counters.
    Stats,
    /// What a router needs from one probe: primary presence, epoch,
    /// state counts (see [`Response::RouteInfo`]).
    RouteStatus,
    /// One step of the live-migration protocol for `user`, owned by
    /// the routing epoch `epoch` (see `ctxpref_service`'s migration
    /// surface — an older epoch than the user's entry is refused, so a
    /// deposed migration driver can never apply stale writes).
    MigrateUser {
        /// The migrating user.
        user: String,
        /// The routing epoch the driver minted for this migration.
        epoch: u64,
        /// The protocol step to execute.
        action: MigrateAction,
    },
    /// Several requests shipped in one frame, answered by one
    /// [`Response::Batch`] with a response per item in order. Batches
    /// never nest. The bulk-insert loop uses this to amortize a frame
    /// and a service-routing round-trip over N mutations.
    Batch {
        /// The batched requests, executed in order.
        requests: Vec<Request>,
    },
}

/// One step of the live-migration protocol, as carried by
/// [`Request::MigrateUser`]. Every step is idempotent: exports, pulls
/// and probes are reads; fences, imports, applies, and aborts are
/// epoch- and watermark-guarded on the serving side.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrateAction {
    /// Read the user's cut coordinates and profile digest.
    Export,
    /// Read a consistent snapshot: the cut LSN plus the WAL-op
    /// payloads that reconstruct the profile.
    Snapshot,
    /// Read one page of the user's WAL suffix starting at `from_lsn`.
    Pull {
        /// First LSN wanted.
        from_lsn: u64,
        /// Page size cap.
        max: u64,
    },
    /// Source side: fence client writes for the user (cut-over).
    Fence,
    /// Destination side: reset the user and apply snapshot ops; the
    /// catch-up watermark starts at `src_lsn`.
    Import {
        /// The snapshot's cut LSN on the source.
        src_lsn: u64,
        /// WAL-op payloads reconstructing the profile.
        ops: Vec<Vec<u8>>,
    },
    /// Destination side: apply one catch-up page; records at or below
    /// the watermark are dropped, then the watermark advances to
    /// `through`.
    Apply {
        /// Highest source LSN the page scanned through.
        through: u64,
        /// `(source lsn, payload)` records targeting the user.
        records: Vec<(u64, Vec<u8>)>,
    },
    /// Destination side: the routing table flipped — serve the user.
    Activate,
    /// Source side: cut-over completed — drop the user's data and
    /// leave a tombstone for stale clients.
    Finish,
    /// Abort this epoch's migration on the receiving side.
    Abort,
}

impl Request {
    /// Whether retrying this request after a connection failure is
    /// safe. Reads and probes are; mutations are not (the server may
    /// have applied the first attempt before the connection died), so
    /// the client surfaces those failures instead of retrying.
    /// Migration steps count as idempotent even though they mutate:
    /// the serving side makes every step retry-safe through the
    /// routing-epoch guard and the per-import LSN watermark.
    pub fn is_idempotent(&self) -> bool {
        match self {
            Self::AddUser { .. }
            | Self::RemoveUser { .. }
            | Self::InsertPref { .. }
            | Self::RemovePref { .. }
            | Self::UpdateScore { .. } => false,
            // A batch is only retry-safe if every item is.
            Self::Batch { requests } => requests.iter().all(Self::is_idempotent),
            _ => true,
        }
    }

    /// A ranked query for `user` under a context state given as value
    /// names: [`Request::TopK`] when `top_k` (the server evaluates only
    /// the best `k` rows), [`Request::Query`] otherwise. `deadline`
    /// travels as whole milliseconds.
    pub fn ranked(
        top_k: bool,
        user: &str,
        attr: &str,
        k: usize,
        deadline: Duration,
        state: &[&str],
    ) -> Self {
        RequestRef::ranked(top_k, user, attr, k, deadline, state).owned()
    }
}

/// The verbs a server may answer on the thread that decoded them, with
/// their texts lent instead of owned: a reactor decodes one from the
/// frame payload it was lent, and a caller holding its texts as `&str`
/// sends one without copying them. Each variant is its [`Request`]
/// namesake field for field, travels as the same bytes (the codec's
/// table lines marked `lent` generate both), and is made owned
/// ([`LentMessage::owned`]) only where it must outlive what it
/// borrows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestRef<'a> {
    /// A [`Request::Query`], lent.
    Query {
        /// The user to query.
        user: &'a str,
        /// Display attribute for result rows.
        attr: &'a str,
        /// How many rows to return (ties included).
        k: usize,
        /// Requested deadline in milliseconds (server caps it).
        deadline_ms: u64,
        /// Context value names, one per hierarchy, in environment order.
        state: Tokens<'a>,
    },
    /// A [`Request::TopK`], lent.
    TopK {
        /// The user to query.
        user: &'a str,
        /// Display attribute for result rows.
        attr: &'a str,
        /// How many rows to return (ties included).
        k: usize,
        /// Requested deadline in milliseconds (server caps it).
        deadline_ms: u64,
        /// Context value names, one per hierarchy, in environment order.
        state: Tokens<'a>,
    },
    /// A [`Request::InsertPref`], lent.
    InsertPref {
        /// The user name.
        user: &'a str,
        /// Context descriptor text.
        descriptor: &'a str,
        /// Attribute name of the preference clause.
        attr: &'a str,
        /// Attribute value (string form; typed by the schema).
        value: &'a str,
        /// Interest score.
        score: f64,
    },
    /// A [`Request::RemovePref`], lent.
    RemovePref {
        /// The user name.
        user: &'a str,
        /// Position in the profile's preference list.
        index: usize,
    },
    /// A [`Request::UpdateScore`], lent.
    UpdateScore {
        /// The user name.
        user: &'a str,
        /// Position in the profile's preference list.
        index: usize,
        /// The new interest score.
        score: f64,
    },
}

impl<'a> RequestRef<'a> {
    /// [`Request::ranked`], lent from its arguments.
    pub fn ranked(
        top_k: bool,
        user: &'a str,
        attr: &'a str,
        k: usize,
        deadline: Duration,
        state: &'a [&'a str],
    ) -> Self {
        let deadline_ms = deadline.as_millis().min(u128::from(u64::MAX)) as u64;
        let state = Tokens::Strs(state);
        if top_k {
            Self::TopK {
                user,
                attr,
                k,
                deadline_ms,
                state,
            }
        } else {
            Self::Query {
                user,
                attr,
                k,
                deadline_ms,
                state,
            }
        }
    }

    /// [`Request::is_idempotent`]: the reads are, the edits are not.
    pub fn is_idempotent(&self) -> bool {
        matches!(self, Self::Query { .. } | Self::TopK { .. })
    }
}

/// A request on its way out: an owned one, or one lent from its
/// caller's texts. Both travel as the same bytes, so a caller holding
/// its texts as `&str` sends a [`RequestRef`] without building an owned
/// [`Request`].
#[derive(Debug, Clone, Copy)]
pub enum Outgoing<'a> {
    /// An owned request.
    Owned(&'a Request),
    /// A request lent from its caller's texts.
    Lent(RequestRef<'a>),
}

impl Outgoing<'_> {
    /// Whether retrying it after a connection failure is safe
    /// ([`Request::is_idempotent`]).
    pub fn is_idempotent(&self) -> bool {
        match self {
            Self::Owned(req) => req.is_idempotent(),
            Self::Lent(req) => req.is_idempotent(),
        }
    }
}

/// One result row of a served query.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerRow {
    /// The rendered display attribute of the tuple.
    pub name: String,
    /// The tuple's interest score.
    pub score: f64,
}

/// One recorded ladder fallback, as shipped to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFallback {
    /// The rung that failed (`LadderStep` display token).
    pub step: String,
    /// Why it failed.
    pub reason: String,
}

/// A served answer, with its degradation-ladder provenance — what a
/// remote caller sees of a [`ctxpref_service::ServiceAnswer`].
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteAnswer {
    /// The ladder rung that answered (`LadderStep` display token).
    pub step: String,
    /// Microseconds spent serving inside the worker.
    pub elapsed_us: u64,
    /// The lifted state that answered, rendered (nearest-state rung
    /// only).
    pub resolved_state: Option<String>,
    /// Rungs that failed before `step` answered.
    pub fallbacks: Vec<WireFallback>,
    /// The top-k rows, ties included.
    pub rows: Vec<AnswerRow>,
}

impl RemoteAnswer {
    /// True iff the answer came from a rung below the normal
    /// cached/exact path (mirrors `ServiceAnswer::is_degraded`).
    pub fn is_degraded(&self) -> bool {
        self.step != "view" && self.step != "cached" && self.step != "exact"
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness acknowledgement.
    Pong,
    /// The mutation was applied (and, where configured, made durable /
    /// quorum-acked).
    Ok,
    /// The preference was removed; its score is echoed back.
    Removed {
        /// The removed preference's score.
        score: f64,
    },
    /// A served answer, with its degradation-ladder provenance.
    Answer(RemoteAnswer),
    /// A rendered status/report body (checkpoint, WAL status,
    /// replication status, stats).
    Text {
        /// The rendered body.
        body: String,
    },
    /// The server shed the request: the connection limit is saturated
    /// (the connection was refused after this single frame) or
    /// admission control shed the request's tier. Retryable — wait
    /// `retry_after_ms` first.
    Busy {
        /// The saturated limit (connections or in-flight requests).
        limit: usize,
        /// Cooperative backoff hint in milliseconds; 0 = none given.
        retry_after_ms: u64,
    },
    /// The request failed with a typed server-side error.
    Err {
        /// The error kind token (mirrors `ServiceError` variants).
        kind: String,
        /// The rendered message.
        message: String,
    },
    /// The cluster behind this endpoint has no primary (or fenced the
    /// write): the router should re-probe for the new primary instead
    /// of surfacing an error.
    NotPrimary,
    /// The user is mid-migration: the write was refused, typed and
    /// immediate — retry after a routing refresh, never a hang.
    Migrating {
        /// The user whose write was refused.
        user: String,
    },
    /// A per-user export: cut coordinates plus profile digest.
    UserCut {
        /// Whether the user exists on this side.
        present: bool,
        /// The user's WAL shard.
        shard: u64,
        /// The shard's last applied LSN at the cut.
        last_lsn: u64,
        /// Digest of the profile at the cut — the frame checksum over
        /// its snapshot-op bytes (0 when absent).
        digest: u64,
    },
    /// A consistent user snapshot: the cut LSN plus reconstruction
    /// ops.
    Snapshot {
        /// The cut LSN on this (source) side.
        src_lsn: u64,
        /// WAL-op payloads reconstructing the profile.
        ops: Vec<Vec<u8>>,
    },
    /// One page of the user's WAL suffix.
    Records {
        /// Highest LSN scanned (the next pull starts at `through+1`).
        through: u64,
        /// `(lsn, payload)` records targeting the user.
        records: Vec<(u64, Vec<u8>)>,
    },
    /// The requested WAL suffix was garbage-collected into a
    /// checkpoint: restart catch-up from a fresh snapshot.
    Gone,
    /// A catch-up page was applied; the import watermark is now this.
    Applied {
        /// The destination's import watermark after the page.
        watermark: u64,
    },
    /// The outcome of one [`Request::Scrub`] pass.
    ScrubReport {
        /// Sealed WAL segments whose checksums and LSN chain verified.
        segments_verified: u64,
        /// Checkpoint snapshots that loaded cleanly.
        checkpoints_verified: u64,
        /// Files skipped on a transient read error (retried next pass).
        read_errors: u64,
        /// Files quarantined as corrupt by this pass.
        quarantined: u64,
        /// Whether a fresh checkpoint healed over the quarantined loss.
        healed: bool,
    },
    /// The self-healing counters ([`Request::ScrubStatus`]).
    ScrubInfo {
        /// Scrub passes completed since the service started.
        passes: u64,
        /// Files quarantined across all passes.
        quarantined: u64,
        /// Transient read errors across all passes.
        read_errors: u64,
        /// Passes that healed damage with a fresh checkpoint.
        heals: u64,
        /// WAL shards recovery rescued via quarantine.
        rescued_shards: u64,
        /// Appends shed with a typed retryable disk-full error.
        disk_full_sheds: u64,
        /// Size-triggered segment rotations that failed.
        rotate_failures: u64,
    },
    /// What a router needs from one probe.
    RouteInfo {
        /// Whether a primary currently serves writes.
        has_primary: bool,
        /// The replication epoch (0 for an unreplicated service).
        epoch: u64,
        /// Users held by the serving core.
        users: u64,
        /// Live migration entries (fences, imports, tombstones).
        migrations: u64,
    },
    /// The answers of a [`Request::Batch`], one per item in request
    /// order. Execution stops at the first failure: the last element
    /// is then the item's error, and shorter-than-requested length
    /// tells the caller how far the batch got.
    Batch {
        /// Per-item responses, in request order.
        responses: Vec<Response>,
    },
}

/// What a response that is not the awaited reply means: a typed
/// refusal (`Err`, `NotPrimary`, `Migrating`) is [`NetError::Remote`],
/// anything else protocol confusion.
pub(crate) fn not_the_reply(resp: Response) -> NetError {
    match resp {
        Response::Err { kind, message } => NetError::Remote { kind, message },
        Response::NotPrimary => NetError::Remote {
            kind: "not-primary".to_string(),
            message: "no primary behind this endpoint".to_string(),
        },
        Response::Migrating { user } => NetError::Remote {
            kind: "migrating".to_string(),
            message: format!("write refused: user {user:?} is mid-migration"),
        },
        other => NetError::UnexpectedResponse {
            got: format!("{other:?}"),
        },
    }
}

/// The reply table: each line pairs one [`Response`] shape with the
/// value it carries, and the same tokens serve as the match pattern and
/// as the constructor. A line generates both directions:
/// `TryFrom<Response> for T`, which a typed client or router method
/// ends in (any other response is [`not_the_reply`]; an extra
/// `| (pattern)` widens only this direction), and `From<T> for
/// Response`, which dispatch answers with.
macro_rules! reply {
    ($($ty:ty: ($($resp:tt)+) $(| ($($also:tt)+))? <=> ($($value:tt)+);)*) => {$(
        impl TryFrom<Response> for $ty {
            type Error = NetError;

            fn try_from(resp: Response) -> Result<Self, NetError> {
                match resp {
                    $($resp)+ $(| $($also)+)? => Ok($($value)+),
                    other => Err(not_the_reply(other)),
                }
            }
        }

        impl From<$ty> for Response {
            fn from(value: $ty) -> Self {
                let $($value)+ = value;
                $($resp)+
            }
        }
    )*};
}

reply! {
    // An acknowledgement: a mutation applied (read back, a ping
    // answered too).
    (): (Response::Ok) | (Response::Pong) <=> (());
    f64: (Response::Removed { score }) <=> (score);
    String: (Response::Text { body }) <=> (body);
    RemoteAnswer: (Response::Answer(answer)) <=> (answer);
    Vec<Response>: (Response::Batch { responses }) <=> (responses);
    RouteInfo: (Response::RouteInfo { has_primary, epoch, users, migrations })
        <=> (RouteInfo { has_primary, epoch, users, migrations });
    ScrubStatus: (Response::ScrubInfo {
        passes, quarantined, read_errors, heals, rescued_shards, disk_full_sheds, rotate_failures,
    }) <=> (ScrubStatus {
        passes, quarantined, read_errors, heals, rescued_shards, disk_full_sheds, rotate_failures,
    });
    UserExport: (Response::UserCut { present, shard, last_lsn, digest })
        <=> (UserExport { present, shard, last_lsn, digest });
}

/// A scrub pass as it travels: the quarantined files are counted, their
/// paths and reasons stay with the server.
impl From<ScrubReport> for Response {
    fn from(report: ScrubReport) -> Self {
        Response::ScrubReport {
            segments_verified: report.segments_verified,
            checkpoints_verified: report.checkpoints_verified,
            read_errors: report.read_errors,
            quarantined: report.quarantined.len() as u64,
            healed: report.healed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migrate_requests_are_idempotent() {
        // The routing tier retries migration steps across transport
        // failures; the serving side's epoch/watermark guards make
        // that safe, so the client must classify them retry-able.
        assert!(Request::RouteStatus.is_idempotent());
        assert!(Request::MigrateUser {
            user: "u".into(),
            epoch: 1,
            action: MigrateAction::Apply {
                through: 3,
                records: vec![(3, b"add u".to_vec())],
            },
        }
        .is_idempotent());
        assert!(!Request::AddUser { user: "u".into() }.is_idempotent());
        // Scrub verbs are maintenance reads/repairs: retry-safe.
        assert!(Request::Scrub.is_idempotent());
        assert!(Request::ScrubStatus.is_idempotent());
    }

    #[test]
    fn a_batch_inherits_its_weakest_member() {
        assert!(Request::Batch {
            requests: vec![Request::Ping, Request::Stats],
        }
        .is_idempotent());
        assert!(!Request::Batch {
            requests: vec![Request::Ping, Request::AddUser { user: "u".into() }],
        }
        .is_idempotent());
    }
}
