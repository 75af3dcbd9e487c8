//! Dispatch: one [`Request`] executed against the service and answered
//! with one [`Response`]. The service's workers run it for the server,
//! with the budget and tier the envelope carried, except the view hits
//! the reactor answers through [`probe_view`]; [`serve_request`] runs
//! the same code in process, for a caller that holds the service
//! itself.
//!
//! Each verb is one line: the service call, a `.map(..)` where its value
//! needs a wire shape, and [`reply`], which turns the value into its
//! response through the `reply!` table in `proto.rs` and a failure into
//! its typed refusal ([`err_of`]). Only the ranked reads do more: they
//! parse the state, clamp the deadline, run inline on the calling
//! thread ([`CtxPrefService::query_admitted`]) and render rows.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::{CoreError, QueryAnswer};
use ctxpref_service::{
    Admitted, CtxPrefService, Priority, ReplicationError, ServiceAnswer, ServiceError,
};

use crate::proto::{AnswerRow, MigrateAction, RemoteAnswer, Request, Response, WireFallback};
use crate::server::NetServerConfig;

/// Serve one request in process, on the calling thread: the dispatch
/// the server's jobs run, with panics contained, the default deadline
/// cap, no end-to-end budget and interactive priority.
pub fn serve_request(service: &CtxPrefService, req: &Request) -> Response {
    dispatch(
        service,
        &NetServerConfig::default(),
        req,
        0,
        Priority::Interactive,
        None,
    )
}

/// Execute one request against the service, with panics contained.
/// `budget_ms` and `tier` come off the `ctxpref2` envelope: the
/// remaining end-to-end deadline budget (0 = unconstrained) that
/// clamps every query deadline, and the priority tier admission sheds
/// by. `admitted` is the ticket of a ranked read the server admitted
/// before queueing it; without one, a ranked read is admitted here.
pub(crate) fn dispatch(
    service: &CtxPrefService,
    cfg: &NetServerConfig,
    req: &Request,
    budget_ms: u64,
    tier: Priority,
    admitted: Option<Admitted>,
) -> Response {
    contained(|| dispatch_inner(service, cfg, req, budget_ms, tier, admitted))
}

/// The reactor's probe: answer an admitted `TopK` from a current
/// materialized view on the calling thread
/// ([`CtxPrefService::view_hit`]). Anything else — another verb, a
/// state that does not parse, a miss, a busy shard, a panic before the
/// view answered — hands the ticket back for a worker to run the read
/// with.
pub(crate) fn probe_view(
    service: &CtxPrefService,
    req: &Request,
    admitted: Admitted,
) -> Result<Response, Admitted> {
    let Request::TopK {
        user,
        attr,
        k,
        state,
        ..
    } = req
    else {
        return Err(admitted);
    };
    let Ok(Ok(state)) = catch_unwind(AssertUnwindSafe(|| parse_state(service, state))) else {
        return Err(admitted);
    };
    let answer = service.view_hit(admitted, user, &state, *k)?;
    Ok(contained(|| {
        reply(remote_answer(service, &answer, attr, *k))
    }))
}

/// Run `serve` with panics contained: a panic answers typed.
fn contained(serve: impl FnOnce() -> Response) -> Response {
    catch_unwind(AssertUnwindSafe(serve)).unwrap_or_else(|_| Response::Err {
        kind: "panic".to_string(),
        message: "request dispatch panicked (contained at the connection boundary)".to_string(),
    })
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
        Request::Query {
            user,
            attr,
            k,
            deadline_ms,
            state,
        }
        | Request::TopK {
            user,
            attr,
            k,
            deadline_ms,
            state,
        } => {
            // The enforced deadline is the *tightest* of the request's
            // own ask, the propagated remaining budget, and the
            // server's cap — a hop-decremented budget wins over a
            // generous per-request deadline.
            let mut deadline_ms = (*deadline_ms).max(1);
            if budget_ms > 0 {
                deadline_ms = deadline_ms.min(budget_ms);
            }
            let deadline = Duration::from_millis(deadline_ms).min(cfg.max_deadline);
            reply((|| {
                let state = parse_state(service, state)?;
                // The two ranked verbs differ only in `topk`: `TopK`
                // pushes `k` down so only the best rows are evaluated.
                let topk = matches!(req, Request::TopK { .. }).then_some(*k);
                let answer =
                    service.query_admitted(admitted, tier, user, &state, topk, deadline)?;
                remote_answer(service, &answer, attr, *k)
            })())
        }
        Request::QueryDescriptor {
            user,
            attr,
            k,
            descriptor,
        } => {
            // The exploratory library path: a hypothetical context, not
            // a servable state lookup — no ladder, but still contained
            // and timed.
            let started = Instant::now();
            reply((|| {
                let answer = service.with_db(|db| {
                    let ecod = ctxpref_context::parse_extended_descriptor(db.env(), descriptor)
                        .map_err(CoreError::Context)?;
                    db.query(user, &ecod)
                })?;
                Ok::<_, ServiceError>(RemoteAnswer {
                    rows: render_rows(service, &answer, attr, *k)?,
                    step: "exact".to_string(),
                    elapsed_us: started.elapsed().as_micros() as u64,
                    resolved_state: None,
                    fallbacks: Vec::new(),
                })
            })())
        }
        Request::ViewsStatus => service.views_status().into(),
        Request::AddUser { user } => reply(service.add_user(user)),
        Request::RemoveUser { user } => reply(service.remove_user(user).map(drop)),
        Request::InsertPref {
            user,
            descriptor,
            attr,
            value,
            score,
        } => reply(service.insert_preference_eq(
            user,
            descriptor,
            attr,
            value.as_str().into(),
            *score,
        )),
        Request::RemovePref { user, index } => {
            reply(service.remove_preference(user, *index).map(|p| p.score()))
        }
        Request::UpdateScore { user, index, score } => {
            reply(service.update_preference_score(user, *index, *score))
        }
        Request::Checkpoint => reply(service.checkpoint().map(|report| {
            format!(
                "checkpoint generation {} written ({} user(s))",
                report.generation, report.users
            )
        })),
        Request::FlushWal => reply(
            service
                .flush_wal()
                .map(|n| format!("flushed {n} pending record(s)")),
        ),
        Request::WalStatus => reply(service.wal_status().map(|s| s.to_string())),
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
    // Homogeneous insert batches take the service's bulk verb: one
    // routing/guard acquisition for the whole batch instead of one
    // per preference.
    if let Some(bulk) = as_bulk_insert(requests) {
        let (user, items) = bulk;
        match service.insert_preferences_eq_bulk(user, &items) {
            Ok(applied) => {
                responses.resize(applied, Response::Ok);
            }
            Err(bulk_err) => {
                responses.resize(bulk_err.applied, Response::Ok);
                responses.push(err_of(&bulk_err.error));
            }
        }
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

/// If every item inserts a preference for one user, extract the bulk
/// shape the service's batched verb takes.
#[allow(clippy::type_complexity)]
fn as_bulk_insert(requests: &[Request]) -> Option<(&str, Vec<(&str, &str, &str, f64)>)> {
    if requests.is_empty() {
        return None;
    }
    let mut items = Vec::with_capacity(requests.len());
    let mut batch_user: Option<&str> = None;
    for sub in requests {
        let Request::InsertPref {
            user,
            descriptor,
            attr,
            value,
            score,
        } = sub
        else {
            return None;
        };
        match batch_user {
            None => batch_user = Some(user),
            Some(u) if u == user => {}
            Some(_) => return None,
        }
        items.push((descriptor.as_str(), attr.as_str(), value.as_str(), *score));
    }
    batch_user.map(|u| (u, items))
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
fn parse_state(service: &CtxPrefService, state: &[String]) -> Result<ContextState, ServiceError> {
    let names: Vec<&str> = state.iter().map(String::as_str).collect();
    service
        .with_db(|db| ContextState::parse(db.env(), &names))
        .map_err(|e| CoreError::Context(e).into())
}

/// What a remote caller sees of a served ranked read: its top-`k` rows
/// rendered by `attr`, plus the ladder's provenance. Worker and reactor
/// answers alike are built here.
fn remote_answer(
    service: &CtxPrefService,
    answer: &ServiceAnswer,
    attr: &str,
    k: usize,
) -> Result<RemoteAnswer, ServiceError> {
    Ok(RemoteAnswer {
        rows: render_rows(service, &answer.answer, attr, k)?,
        step: answer.step.to_string(),
        elapsed_us: answer.elapsed.as_micros() as u64,
        resolved_state: answer
            .resolved_state
            .as_ref()
            .map(|s| service.with_db(|db| s.display(db.env()).to_string())),
        fallbacks: answer
            .fallbacks
            .iter()
            .map(|fb| WireFallback {
                step: fb.step.to_string(),
                reason: fb.reason.clone(),
            })
            .collect(),
    })
}

fn render_rows(
    service: &CtxPrefService,
    answer: &QueryAnswer,
    attr: &str,
    k: usize,
) -> Result<Vec<AnswerRow>, CoreError> {
    service.with_db(|db| {
        let a = db.relation().schema().require_attr(attr)?;
        Ok(answer
            .results
            .top_k_with_ties(k)
            .iter()
            .map(|e| {
                let value = db.relation().tuple(e.tuple_index).value(a);
                AnswerRow {
                    name: value
                        .as_str()
                        .map_or_else(|| value.to_string(), str::to_owned),
                    score: e.score,
                }
            })
            .collect())
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
