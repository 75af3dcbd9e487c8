//! Dispatch: one [`Request`] executed against the service and answered
//! with one [`Response`]. The service's workers run it for the server,
//! with the budget and tier the envelope carried, except what the
//! reactor answers on its own thread through [`answer_now`], which asks
//! the service its two questions that never wait: sheds and the
//! `Query`/`TopK` reads [`CtxPrefService::try_read_with`] runs (a view
//! hit, or any ranked read while no job is queued), and the preference
//! edits [`CtxPrefService::try_edit`] applies (direct-path or
//! group-commit logged, on a free stripe and WAL shard). [`serve_request`]
//! runs the same code in process, for a caller that holds the service
//! itself.
//!
//! The reactor asks about a [`RequestRef`]: the request lent from the
//! payload it was decoded from, its user, attribute and state tokens
//! borrowed, not copied. Only a request handed to a worker is made
//! owned, then. A worker's owned request is lent the same way
//! ([`LentMessage::lend`]), so the reads and edits below are written
//! once, for the lent form.
//!
//! Each verb is one line: the service call, a `.map(..)` where its value
//! needs a wire shape, and [`reply`], which turns the value into its
//! response through the `reply!` table in `proto.rs` and a failure into
//! its typed refusal ([`err_of`]). The three preference edits are taken
//! apart in one place ([`edit_of`]) into the service's [`Edit`]; a
//! worker applies them with [`CtxPrefService::edit_batch`], one alone or
//! a batch frame whose items all edit one user, under one migration
//! guard. The ranked reads parse the state straight from its tokens and
//! clamp the deadline ([`ranked_read`]), run on the calling thread
//! ([`CtxPrefService::query_admitted`] on a worker,
//! [`CtxPrefService::try_read_with`] on the reactor) and render rows.
//!
//! What the server sends is a finished frame ([`serve_frame`]). A
//! ranked answer has one renderer, [`rows_frame`], which encodes its
//! rows from the relation straight into that frame, with no owned row
//! in between. A view hit on the reactor is rendered in the same pass
//! as its probe ([`view_frame`]): the rows are lent from the view's
//! ranking while the catalog is read-locked, so the hit makes no copy
//! of them, no owned answer and no second trip to the core; the state
//! it parsed and the frame are all it allocates. Any other answer is
//! rendered from the service's [`ServiceAnswer`] ([`answer_frame`]).
//! An in-process caller ([`serve_request`]) and a ranked read inside a
//! batch get the owned [`Response::Answer`] by decoding the same frame.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use ctxpref_bytes::{LentMessage, Put, Seq, Shown, Tokens};
use ctxpref_context::{ContextEnvironment, ContextError, ContextState};
use ctxpref_core::CoreError;
use ctxpref_faults::clock;
use ctxpref_relation::{Relation, ScoredTuple};
use ctxpref_service::{
    Admitted, CtxPrefService, Edit, Fallback, LadderStep, NodeId, Priority, ReplicationError,
    ServiceAnswer, ServiceError, TryRead, ViewHit,
};

use crate::codec::{self, Envelope, Name};
use crate::error::FrameError;
use crate::frame::{Framed, FRAME_HEADER};
use crate::proto::{
    AnswerRow, Checkpointed, Flushed, MigrateAction, RemoteAnswer, Request, RequestRef, Response,
    WireFallback,
};
use crate::server::NetServerConfig;

/// Serve one request in process, on the calling thread, answered as an
/// owned [`Response`]: the dispatch the server's workers run, with
/// panics contained, the default deadline cap, no end-to-end budget and
/// interactive priority. A ranked answer is the one the server would
/// send, decoded from its frame.
pub fn serve_request(service: &CtxPrefService, req: &Request) -> Response {
    contained(|| {
        dispatch_inner(
            service,
            &NetServerConfig::default(),
            req,
            0,
            Priority::Interactive,
            None,
        )
    })
}

/// Serve one request in process as the server's workers do, on the
/// calling thread: the response frame, header included, that would
/// leave for the socket under request id `id`. Same containment, cap,
/// budget and priority as [`serve_request`]; a ranked answer's rows go
/// from the relation straight into the frame.
pub fn serve_frame(
    service: &CtxPrefService,
    id: u64,
    req: &Request,
) -> Result<Vec<u8>, FrameError> {
    dispatch_frame(
        service,
        &NetServerConfig::default(),
        id,
        req,
        0,
        Priority::Interactive,
        None,
    )
}

/// Execute one request against the service and frame its response
/// under `id`, with panics contained. `budget_ms` and `tier` come off
/// the `ctxpref2` envelope: the remaining end-to-end deadline budget
/// (0 = unconstrained) that clamps every query deadline, and the
/// priority tier admission sheds by. `admitted` is the ticket of a
/// ranked read the server admitted before queueing it; without one, a
/// ranked read is admitted here.
pub(crate) fn dispatch_frame(
    service: &CtxPrefService,
    cfg: &NetServerConfig,
    id: u64,
    req: &Request,
    budget_ms: u64,
    tier: Priority,
    admitted: Option<Admitted>,
) -> Framed {
    contained_frame(id, || match req {
        Request::Query { attr, k, .. }
        | Request::TopK { attr, k, .. }
        | Request::QueryDescriptor { attr, k, .. } => {
            let answer = ranked(service, cfg, req, budget_ms, tier, admitted);
            ranked_frame(service, id, &answer, attr, *k)
        }
        _ => codec::response_frame(
            id,
            &dispatch_inner(service, cfg, req, budget_ms, tier, admitted),
        ),
    })
}

/// The reactor's one question per decoded request, asked of the
/// request lent from its payload: can it be answered now, on the
/// calling thread, without waiting? It answers, as the response frame
/// under the request's id, a `Query` or `TopK` that admission sheds or
/// that the service runs without waiting
/// ([`CtxPrefService::try_read_with`], a view hit rendered in the same
/// pass by [`view_frame`]), and a preference edit the service applies
/// without waiting ([`CtxPrefService::try_edit`]), with a panic
/// contained and answered typed. Anything else — a state that does not
/// parse, a read or an edit the service hands back — is handed back for
/// a worker to run, with the admission ticket a ranked read was issued
/// (`None` for an edit).
pub(crate) fn answer_now(
    service: &CtxPrefService,
    cfg: &NetServerConfig,
    envelope: Envelope,
    req: RequestRef<'_>,
) -> Result<Framed, Option<Admitted>> {
    let id = envelope.id;
    match req {
        RequestRef::Query { attr, k, .. } | RequestRef::TopK { attr, k, .. } => {
            let ticket = match service.admit(envelope.tier) {
                Ok(ticket) => ticket,
                Err(e) => return Ok(codec::response_frame(id, &err_of(&e))),
            };
            let parsed = catch_unwind(AssertUnwindSafe(|| {
                ranked_read(service, cfg, req, envelope.budget_ms)
            }));
            let Ok(Ok(read)) = parsed else {
                return Err(Some(ticket));
            };
            let render = |hit: ViewHit<'_>| view_frame(id, hit, attr);
            match service.try_read_with(
                ticket,
                read.user,
                &read.state,
                read.topk,
                read.deadline,
                render,
            ) {
                TryRead::View(frame) => Ok(frame),
                TryRead::Ran(answer) => Ok(ranked_frame(service, id, &answer, attr, k)),
                TryRead::Queue(ticket) => Err(Some(ticket)),
            }
        }
        _ => {
            let (user, edit) = edit_of(req).ok_or(None)?;
            let edited = catch_unwind(AssertUnwindSafe(|| service.try_edit(user, edit)));
            let response = match edited {
                Ok(None) => return Err(None),
                Ok(Some(Ok(removed))) => edited_reply(removed.map(|p| p.score())),
                Ok(Some(Err(e))) => err_of(&e),
                Err(_) => panicked(),
            };
            Ok(codec::response_frame(id, &response))
        }
    }
}

/// The preference edit a request asks for, and whose: the one place
/// the three edit verbs are taken apart. `None` for any other verb.
fn edit_of(req: RequestRef<'_>) -> Option<(&str, Edit<'_>)> {
    Some(match req {
        RequestRef::InsertPref {
            user,
            descriptor,
            attr,
            value,
            score,
        } => (
            user,
            Edit::Insert {
                descriptor,
                attr,
                value,
                score,
            },
        ),
        RequestRef::RemovePref { user, index } => (user, Edit::Remove { index }),
        RequestRef::UpdateScore { user, index, score } => (user, Edit::Rescore { index, score }),
        _ => return None,
    })
}

/// [`edit_of`] an owned request, lent.
fn owned_edit_of(req: &Request) -> Option<(&str, Edit<'_>)> {
    edit_of(RequestRef::lend(req)?)
}

/// An applied edit's response: the score a removal took out, an
/// acknowledgement for an insert or a re-score.
fn edited_reply(removed: Option<f64>) -> Response {
    removed.map_or(Response::Ok, Response::from)
}

/// Apply one user's `edits` through the service's batch entry, waiting
/// for locks: each landed edit's response goes to `answer`, then a
/// failure's typed refusal after the prefix that landed.
fn edit_batch<'e>(
    service: &CtxPrefService,
    user: &str,
    edits: impl IntoIterator<Item = Edit<'e>>,
    mut answer: impl FnMut(Response),
) {
    let landed = service.edit_batch(user, edits, |removed| {
        answer(edited_reply(removed.map(|p| p.score())));
    });
    if let Err(e) = landed {
        answer(err_of(&e));
    }
}

/// Run `serve` with panics contained: a panic answers typed.
fn contained(serve: impl FnOnce() -> Response) -> Response {
    catch_unwind(AssertUnwindSafe(serve)).unwrap_or_else(|_| panicked())
}

/// [`contained`], for a response that is built as its frame.
fn contained_frame(id: u64, serve: impl FnOnce() -> Framed) -> Framed {
    catch_unwind(AssertUnwindSafe(serve)).unwrap_or_else(|_| codec::response_frame(id, &panicked()))
}

fn panicked() -> Response {
    Response::Err {
        kind: "panic".to_string(),
        message: "request dispatch panicked (contained at the connection boundary)".to_string(),
    }
}

fn dispatch_inner(
    service: &CtxPrefService,
    cfg: &NetServerConfig,
    req: &Request,
    budget_ms: u64,
    tier: Priority,
    admitted: Option<Admitted>,
) -> Response {
    match req {
        Request::Ping => Response::Pong,
        // The id is dropped with the frame: only the answer is kept.
        Request::Query { .. } | Request::TopK { .. } | Request::QueryDescriptor { .. } => owned(
            dispatch_frame(service, cfg, 0, req, budget_ms, tier, admitted),
        ),
        Request::ViewsStatus => service.views_status().into(),
        Request::AddUser { user } => reply(service.add_user(user)),
        Request::RemoveUser { user } => reply(service.remove_user(user).map(drop)),
        Request::InsertPref { .. } | Request::RemovePref { .. } | Request::UpdateScore { .. } => {
            let (user, edit) = owned_edit_of(req).expect("an edit verb is an edit");
            let mut response = Response::Ok;
            edit_batch(service, user, [edit], |answered| response = answered);
            response
        }
        Request::Checkpoint => reply(
            service
                .checkpoint()
                .map(|nodes| Checkpointed(per_node(nodes, |report| report.generation))),
        ),
        Request::FlushWal => reply(
            service
                .flush_wal()
                .map(|nodes| Flushed(per_node(nodes, |n| n))),
        ),
        Request::WalStatus => reply(service.wal_status().map(|nodes| {
            let blocks: Vec<String> = nodes
                .iter()
                .map(|(id, s)| format!("node {id}: {s}"))
                .collect();
            blocks.join("\n")
        })),
        Request::ReplStatus => reply(service.replication_status().map(|s| s.to_string())),
        Request::Stats => service.stats().to_string().into(),
        Request::Scrub => reply(service.scrub()),
        Request::ScrubStatus => reply(service.scrub_status()),
        Request::RouteStatus => service.route_info().into(),
        Request::MigrateUser {
            user,
            epoch,
            action,
        } => dispatch_migrate(service, user, *epoch, action),
        Request::Batch { requests } => dispatch_batch(service, cfg, requests, budget_ms, tier),
    }
}

/// Run a ranked read (`Query`, `TopK` or `QueryDescriptor`) inline on
/// the calling thread.
fn ranked(
    service: &CtxPrefService,
    cfg: &NetServerConfig,
    req: &Request,
    budget_ms: u64,
    tier: Priority,
    admitted: Option<Admitted>,
) -> Result<ServiceAnswer, ServiceError> {
    if let Request::QueryDescriptor {
        user, descriptor, ..
    } = req
    {
        return explore(service, user, descriptor);
    }
    let req = RequestRef::lend(req).expect("a Query or a TopK is lent");
    let read = ranked_read(service, cfg, req, budget_ms)?;
    service.query_admitted(
        admitted,
        tier,
        read.user,
        &read.state,
        read.topk,
        read.deadline,
    )
}

/// A `Query` or `TopK` as the service runs it.
struct RankedRead<'a> {
    user: &'a str,
    state: ContextState,
    /// `Some(k)` for a `TopK`, which pushes `k` down so only the best
    /// rows are evaluated; the two verbs differ only in this.
    topk: Option<usize>,
    deadline: Duration,
}

/// Parse a `Query` or `TopK`'s state and clamp its deadline. The
/// enforced deadline is the *tightest* of the request's own ask, the
/// propagated remaining budget, and the server's cap — a
/// hop-decremented budget wins over a generous per-request deadline.
fn ranked_read<'a>(
    service: &CtxPrefService,
    cfg: &NetServerConfig,
    req: RequestRef<'a>,
    budget_ms: u64,
) -> Result<RankedRead<'a>, ServiceError> {
    let (user, k, deadline_ms, state) = match req {
        RequestRef::Query {
            user,
            k,
            deadline_ms,
            state,
            ..
        }
        | RequestRef::TopK {
            user,
            k,
            deadline_ms,
            state,
            ..
        } => (user, k, deadline_ms, state),
        _ => unreachable!("only a Query or a TopK is run as a ranked read"),
    };
    let mut deadline_ms = deadline_ms.max(1);
    if budget_ms > 0 {
        deadline_ms = deadline_ms.min(budget_ms);
    }
    Ok(RankedRead {
        user,
        state: parse_state(service, state)?,
        topk: matches!(req, RequestRef::TopK { .. }).then_some(k),
        deadline: Duration::from_millis(deadline_ms).min(cfg.max_deadline),
    })
}

/// The exploratory library path: a hypothetical context, not a
/// servable state lookup — no ladder, so it answers as the exact rung,
/// but still contained and timed.
fn explore(
    service: &CtxPrefService,
    user: &str,
    descriptor: &str,
) -> Result<ServiceAnswer, ServiceError> {
    let started = clock::now();
    let answer = service.with_db(|db| {
        let ecod = ctxpref_context::parse_extended_descriptor(db.env(), descriptor)
            .map_err(CoreError::Context)?;
        db.query(user, &ecod)
    })?;
    Ok(ServiceAnswer {
        answer,
        step: LadderStep::Exact,
        fallbacks: Vec::new(),
        resolved_state: None,
        elapsed: clock::elapsed(started),
    })
}

/// The owned response a frame carries: what an in-process caller, or a
/// batch, is handed of a ranked read. An answer too large to frame is
/// refused as the server would refuse to send it.
fn owned(frame: Framed) -> Response {
    let decoded = frame.map_err(|e| e.to_string()).and_then(|frame| {
        codec::decode_response(&frame[FRAME_HEADER..]).map_err(|e| e.to_string())
    });
    match decoded {
        Ok(wire) => wire.resp,
        Err(message) => Response::Err {
            kind: "proto".to_string(),
            message,
        },
    }
}

/// Per-node answers as the wire carries them: `(node, figure)` pairs.
fn per_node<T>(nodes: Vec<(NodeId, T)>, figure: impl Fn(T) -> u64) -> Vec<(u64, u64)> {
    nodes
        .into_iter()
        .map(|(id, answer)| (id as u64, figure(answer)))
        .collect()
}

/// A service call's outcome as its response: the value through the
/// `reply!` table, a failure as its typed refusal.
fn reply<T: Into<Response>>(result: Result<T, ServiceError>) -> Response {
    match result {
        Ok(value) => value.into(),
        Err(e) => err_of(&e),
    }
}

/// Execute a batch: items run in order, and execution stops at the
/// first failure (its typed response is the last element, and the
/// returned length tells the caller how far the batch got). Items
/// inherit the batch envelope's budget and tier.
fn dispatch_batch(
    service: &CtxPrefService,
    cfg: &NetServerConfig,
    requests: &[Request],
    budget_ms: u64,
    tier: Priority,
) -> Response {
    let mut responses = Vec::with_capacity(requests.len());
    // A batch of one user's edits takes the service's batch entry: one
    // migration guard for the whole batch instead of one per edit.
    if let Some(user) = one_user(requests) {
        let edits = requests
            .iter()
            .filter_map(owned_edit_of)
            .map(|(_, edit)| edit);
        edit_batch(service, user, edits, |answered| responses.push(answered));
        return Response::Batch { responses };
    }
    for sub in requests {
        if matches!(sub, Request::Batch { .. }) {
            responses.push(Response::Err {
                kind: "proto".to_string(),
                message: "batches do not nest".to_string(),
            });
            break;
        }
        let resp = dispatch_inner(service, cfg, sub, budget_ms, tier, None);
        let failed = matches!(
            resp,
            Response::Err { .. } | Response::NotPrimary | Response::Migrating { .. }
        );
        responses.push(resp);
        if failed {
            break;
        }
    }
    Response::Batch { responses }
}

/// The user every item of `requests` edits, if they all edit one.
fn one_user(requests: &[Request]) -> Option<&str> {
    let (user, _) = owned_edit_of(requests.first()?)?;
    let same = |req| owned_edit_of(req).is_some_and(|(other, _)| other == user);
    requests.iter().all(same).then_some(user)
}

/// Execute one migration step. Every step is idempotent (guarded by
/// the migration epoch and, for catch-up pages, the import watermark),
/// so a driver may blindly retry any of them over a fresh connection.
fn dispatch_migrate(
    service: &CtxPrefService,
    user: &str,
    epoch: u64,
    action: &MigrateAction,
) -> Response {
    match action {
        MigrateAction::Export => reply(service.migrate_export(user)),
        MigrateAction::Snapshot => reply(
            service
                .migrate_snapshot(user)
                .map(|(src_lsn, ops)| Response::Snapshot { src_lsn, ops }),
        ),
        MigrateAction::Pull { from_lsn, max } => reply(
            service
                .migrate_pull(user, *from_lsn, *max as usize)
                .map(|page| match page {
                    Some(page) => Response::Records {
                        through: page.through,
                        records: page.records,
                    },
                    None => Response::Gone,
                }),
        ),
        MigrateAction::Fence => reply(service.migrate_fence(user, epoch)),
        MigrateAction::Import { src_lsn, ops } => {
            reply(service.migrate_import(user, epoch, *src_lsn, ops))
        }
        MigrateAction::Apply { through, records } => reply(
            service
                .migrate_apply(user, epoch, *through, records)
                .map(|watermark| Response::Applied { watermark }),
        ),
        MigrateAction::Activate => reply(service.migrate_activate(user, epoch)),
        MigrateAction::Finish => reply(service.migrate_finish(user, epoch)),
        MigrateAction::Abort => reply(service.migrate_abort(user, epoch)),
    }
}

/// A wire state — plain value tokens — resolved against the server's
/// own environment.
fn parse_state(service: &CtxPrefService, state: Tokens<'_>) -> Result<ContextState, ServiceError> {
    service
        .with_db(|db| state_of(db.env(), state))
        .map_err(|e| CoreError::Context(e).into())
}

/// `ContextState::parse` over the tokens where they lie: the same
/// checks and errors, and no list of names collected first.
fn state_of(env: &ContextEnvironment, names: Tokens<'_>) -> Result<ContextState, ContextError> {
    if names.len() != env.len() {
        return Err(ContextError::ArityMismatch {
            expected: env.len(),
            got: names.len(),
        });
    }
    let mut values = Vec::with_capacity(names.len());
    for ((_, h), name) in env.iter().zip(names.iter()) {
        let v = h.lookup(name).ok_or_else(|| ContextError::UnknownValue {
            param: h.name().to_string(),
            value: name.to_string(),
        })?;
        values.push(v);
    }
    Ok(ContextState::from_values_unchecked(values))
}

/// A ranked read's outcome as its frame: the answer through
/// [`answer_frame`], a refusal typed.
fn ranked_frame(
    service: &CtxPrefService,
    id: u64,
    answer: &Result<ServiceAnswer, ServiceError>,
    attr: &str,
    k: usize,
) -> Framed {
    contained_frame(id, || match answer {
        Ok(answer) => answer_frame(service, id, answer, attr, k),
        Err(e) => codec::response_frame(id, &err_of(e)),
    })
}

/// A served answer's frame under request id `id`: its top-`k` rows
/// rendered by `attr` ([`rows_frame`]) with the ladder's provenance,
/// the resolved state rendered once, into the frame.
pub(crate) fn answer_frame(
    service: &CtxPrefService,
    id: u64,
    answer: &ServiceAnswer,
    attr: &str,
    k: usize,
) -> Framed {
    service.with_db(|db| {
        let provenance = Provenance {
            step: answer.step,
            elapsed: answer.elapsed,
            resolved_state: (answer.resolved_state.as_ref()).map(|s| Shown(s.display(db.env()))),
            fallbacks: &answer.fallbacks,
        };
        let rows = answer.answer.results.top_k_with_ties(k);
        rows_frame(id, db.relation(), attr, rows, provenance)
    })
}

/// A view hit's frame under request id `id`, rendered while the view is
/// read-locked: its rows, already cut to the top `k`, lent from the
/// view's ranking.
fn view_frame(id: u64, hit: ViewHit<'_>, attr: &str) -> Framed {
    let provenance = Provenance {
        step: LadderStep::View,
        elapsed: hit.elapsed,
        resolved_state: None::<&str>,
        fallbacks: &[],
    };
    rows_frame(id, hit.relation, attr, hit.rows, provenance)
}

/// How a served answer was obtained, as it travels.
struct Provenance<'a, S> {
    /// The rung that answered, travelling as its static token.
    step: LadderStep,
    elapsed: Duration,
    /// The lifted state that answered, as it is written.
    resolved_state: Option<S>,
    fallbacks: &'a [Fallback],
}

/// The one renderer of a served ranked read: its response frame under
/// request id `id`, holding `rows` rendered by `attr` plus the answer's
/// provenance. Each row's value is borrowed from the relation (a
/// non-string value is rendered once, into the frame). An `attr` the
/// schema lacks answers typed.
fn rows_frame<S: Put>(
    id: u64,
    relation: &Relation,
    attr: &str,
    rows: &[ScoredTuple],
    provenance: Provenance<'_, S>,
) -> Framed {
    let a = match relation.schema().require_attr(attr) {
        Ok(a) => a,
        Err(e) => {
            let e = ServiceError::from(CoreError::from(e));
            return codec::response_frame(id, &err_of(&e));
        }
    };
    codec::answer_frame(id, rows.len(), |out| {
        RemoteAnswer::put_fields(
            out,
            provenance.step.as_str(),
            &(provenance.elapsed.as_micros() as u64),
            provenance.resolved_state,
            Seq::new(provenance.fallbacks.iter(), |out, fb| {
                WireFallback::put_fields(out, fb.step.as_str(), fb.reason.as_str())
            }),
            Seq::new(rows.iter(), |out, e| {
                AnswerRow::put_fields(out, Name(relation.tuple(e.tuple_index).value(a)), &e.score)
            }),
        )
    })
}

/// Map a [`ServiceError`] to its wire form. Routing-relevant failures
/// get dedicated response variants (`not-primary`, `migrating`) so a
/// router can react without parsing messages; everything else is a
/// stable kind token plus the rendered message.
pub(crate) fn err_of(e: &ServiceError) -> Response {
    let kind = match e {
        // A shed is a typed busy frame carrying the service's live
        // retry hint, so clients back off cooperatively instead of
        // hammering (and retry at all — `Err` is never retried).
        ServiceError::Overloaded { limit, retry_after } => {
            return Response::Busy {
                limit: *limit,
                retry_after_ms: (retry_after.as_millis() as u64).max(1),
            }
        }
        ServiceError::DeadlineExceeded { .. } => "deadline",
        ServiceError::QueryPanicked { .. } => "panic",
        ServiceError::Core(_) => "core",
        ServiceError::Storage(_) => "storage",
        ServiceError::Wal(_) => "wal",
        ServiceError::NotDurable => "not-durable",
        ServiceError::NotReplicated => "not-replicated",
        ServiceError::Replication(
            ReplicationError::NoPrimary
            | ReplicationError::NotPrimary { .. }
            | ReplicationError::Fenced { .. },
        ) => return Response::NotPrimary,
        ServiceError::Replication(_) => "replication",
        ServiceError::ShuttingDown => "shutting-down",
        ServiceError::Migrating { user } => return Response::Migrating { user: user.clone() },
        ServiceError::StaleMigration { .. } => "stale-migration",
    };
    Response::Err {
        kind: kind.to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests;
