//! The degradation ladder: how a query is answered when parts of the
//! system misbehave.
//!
//! Rungs, in order:
//!
//! 1. **Cached** — the user's context query tree had the exact state.
//! 2. **Exact** — full resolution through the profile tree (the cache
//!    missed or is unavailable).
//! 3. **NearestState** — exact resolution failed (panicked, or hit an
//!    injected/internal error); the context state is lifted level by
//!    level toward the root of each hierarchy and the closest ancestor
//!    state that resolves successfully answers instead.
//! 4. **DefaultAnswer** — everything contextual failed; the query
//!    degrades to the paper's non-contextual default (Section 4.2): the
//!    base relation, unranked (every tuple at score 0). This rung is
//!    pure and cannot fail.
//!
//! Every rung that fails is recorded as a [`Fallback`] on the returned
//! [`ServiceAnswer`], so callers can see exactly how degraded an answer
//! is.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ctxpref_context::ContextState;
use ctxpref_core::{CoreError, QueryAnswer, UserShardRead};
use ctxpref_faults::clock;
use ctxpref_relation::{RankedResults, Relation, ScoredTuple};

use crate::admission::Admitted;
use crate::error::ServiceError;

/// Which rung of the degradation ladder produced an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderStep {
    /// Served from a current materialized top-k view (top-k requests
    /// only; sits above `Cached` because the view is maintained
    /// incrementally rather than invalidated on writes).
    View,
    /// Served from the user's context query tree.
    Cached,
    /// Full (uncached) resolution through the profile tree.
    Exact,
    /// Resolution under the nearest ancestor context state that
    /// succeeded.
    NearestState,
    /// The non-contextual default answer: base relation, unranked.
    DefaultAnswer,
}

impl LadderStep {
    /// The rung's display token, as the wire and the CLI show it —
    /// borrowed, so naming a rung allocates nothing.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::View => "view",
            Self::Cached => "cached",
            Self::Exact => "exact",
            Self::NearestState => "nearest-state",
            Self::DefaultAnswer => "default-answer",
        }
    }
}

impl std::fmt::Display for LadderStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded fallback: a rung that was tried and failed.
#[derive(Debug, Clone)]
pub struct Fallback {
    /// The rung that failed.
    pub step: LadderStep,
    /// Why it failed (error text or contained panic message).
    pub reason: String,
}

/// A served answer: the core [`QueryAnswer`] plus how it was obtained.
#[derive(Debug, Clone)]
pub struct ServiceAnswer {
    /// The underlying query answer.
    pub answer: QueryAnswer,
    /// The rung that produced the answer.
    pub step: LadderStep,
    /// Every rung that failed before `step` succeeded (empty for a
    /// healthy request).
    pub fallbacks: Vec<Fallback>,
    /// For [`LadderStep::NearestState`]: the lifted state that answered.
    pub resolved_state: Option<ContextState>,
    /// Wall-clock time spent serving the request (inside the worker).
    pub elapsed: Duration,
}

impl ServiceAnswer {
    /// True iff the answer came from a rung below the normal
    /// cached/exact path.
    pub fn is_degraded(&self) -> bool {
        self.step > LadderStep::Exact
    }
}

/// A view hit as [`CtxPrefService::try_read_with`] lends it to its
/// renderer, while the view is read-locked.
///
/// [`CtxPrefService::try_read_with`]: crate::CtxPrefService::try_read_with
#[derive(Debug, Clone, Copy)]
pub struct ViewHit<'a> {
    /// The relation the rows index.
    pub relation: &'a Relation,
    /// The top-`k` rows, ties included, borrowed from the view's
    /// ranking.
    pub rows: &'a [ScoredTuple],
    /// Time spent serving the read, up to the render.
    pub elapsed: Duration,
}

/// What [`CtxPrefService::try_read_with`] did with a read.
///
/// [`CtxPrefService::try_read_with`]: crate::CtxPrefService::try_read_with
#[derive(Debug)]
pub enum TryRead<R> {
    /// A current view held the answer: what the renderer made of it.
    View(R),
    /// Ranked on the calling thread: the answer or the refusal the
    /// blocking verb would give.
    Ran(Result<ServiceAnswer, ServiceError>),
    /// Not run: the ticket back, for the read to queue.
    Queue(Admitted),
}

/// Ancestor states of `state`, nearest first: each round lifts every
/// non-root parameter one hierarchy level; the fully-lifted
/// (`all`, …, `all`) state comes last.
pub(crate) fn lifted_states(shard: &UserShardRead<'_>, state: &ContextState) -> Vec<ContextState> {
    let env = shard.env();
    let mut cur = state.clone();
    let mut out = Vec::new();
    loop {
        let mut progressed = false;
        for (p, h) in env.iter() {
            let v = cur.value(p);
            if v != h.all_value() {
                if let Some(parent) = h.parent(v) {
                    cur = cur.with_value(p, parent);
                    progressed = true;
                }
            }
        }
        if !progressed {
            break;
        }
        out.push(cur.clone());
    }
    out
}

/// The non-contextual default answer (Section 4.2): every tuple of the
/// base relation at score 0, in relation order — which is already rank
/// order (ties by ascending tuple index).
pub(crate) fn default_answer(relation: &Relation) -> QueryAnswer {
    let entries = (0..relation.len())
        .map(|tuple_index| ScoredTuple {
            tuple_index,
            score: 0.0,
        })
        .collect();
    QueryAnswer {
        results: Arc::new(RankedResults::from_sorted(entries)),
        resolutions: Vec::new(),
        from_cache: false,
    }
}

pub(crate) fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one rung: a fault-site check followed by the query itself, with
/// panics contained and reported as the failure reason.
fn try_rung<T>(site: &str, run: impl FnOnce() -> Result<T, CoreError>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(|| {
        ctxpref_faults::hit(site).map_err(|e| e.to_string())?;
        run().map_err(|e| e.to_string())
    })) {
        Ok(Ok(a)) => Ok(a),
        Ok(Err(reason)) => Err(reason),
        Err(payload) => Err(format!("panic: {}", panic_text(payload))),
    }
}

/// Serve one request by walking the ladder under an already-acquired
/// shard read guard — the worker paid for the lock once; every rung
/// reuses it. With `topk` set, every rung resolves through the user's
/// materialized views (a current one answers as [`LadderStep::View`],
/// otherwise early-terminating `rank_cs_topk`); without it, through the
/// context query tree (a hit answers as [`LadderStep::Cached`]).
/// Returns a typed error only for conditions that degradation cannot
/// answer (unknown user, deadline exhaustion).
pub(crate) fn run_ladder(
    shard: &UserShardRead<'_>,
    user: &str,
    state: &ContextState,
    topk: Option<usize>,
    deadline: Instant,
    requested_deadline: Duration,
) -> Result<ServiceAnswer, ServiceError> {
    let started = clock::now();
    // An unknown user is a request error, not a fault to degrade around.
    if !shard.has_user(user) {
        return Err(ServiceError::Core(CoreError::NoSuchUser(user.to_string())));
    }

    // Resolve one state the way the request asked, reporting which of
    // the healthy rungs answered.
    let resolve = |state: &ContextState| -> Result<(QueryAnswer, LadderStep), CoreError> {
        match topk {
            Some(k) => {
                let (answer, from_view) = shard.query_state_topk(user, state, k)?;
                let step = if from_view {
                    LadderStep::View
                } else {
                    LadderStep::Exact
                };
                Ok((answer, step))
            }
            None => {
                let answer = shard.query_state(user, state)?;
                let step = if answer.from_cache {
                    LadderStep::Cached
                } else {
                    LadderStep::Exact
                };
                Ok((answer, step))
            }
        }
    };

    let mut fallbacks = Vec::new();

    // Rungs 1+2: the view/cached/exact path (the cache layer internally
    // degrades its own faults to misses, so one call covers them all).
    match try_rung("service.query.primary", || resolve(state)) {
        Ok((answer, step)) => {
            return Ok(ServiceAnswer {
                answer,
                step,
                fallbacks,
                resolved_state: None,
                elapsed: clock::elapsed(started),
            });
        }
        Err(reason) => fallbacks.push(Fallback {
            step: LadderStep::Exact,
            reason,
        }),
    }

    // Rung 3: nearest ancestor state that still resolves.
    for lifted in lifted_states(shard, state) {
        if clock::now() >= deadline {
            return Err(ServiceError::DeadlineExceeded {
                deadline: requested_deadline,
            });
        }
        match try_rung("service.query.nearest", || resolve(&lifted)) {
            Ok((answer, _)) => {
                return Ok(ServiceAnswer {
                    answer,
                    step: LadderStep::NearestState,
                    fallbacks,
                    resolved_state: Some(lifted),
                    elapsed: clock::elapsed(started),
                });
            }
            Err(reason) => {
                fallbacks.push(Fallback {
                    step: LadderStep::NearestState,
                    reason,
                });
            }
        }
    }

    // Rung 4: the pure, non-contextual default. Cannot fail. (Every
    // tuple ties at score 0, so trimming to k would keep everything
    // anyway.)
    Ok(ServiceAnswer {
        answer: default_answer(shard.relation()),
        step: LadderStep::DefaultAnswer,
        fallbacks,
        resolved_state: None,
        elapsed: clock::elapsed(started),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_relation::{AttrType, Schema, ScoreCombiner};

    #[test]
    fn default_answer_is_every_tuple_at_zero_in_relation_order() {
        let mut relation = Relation::new("r", Schema::new(&[("v", AttrType::Str)]).unwrap());
        for v in ["c", "a", "b", "a"] {
            relation.insert(vec![v.into()]).unwrap();
        }
        let raw = (0..relation.len()).map(|tuple_index| ScoredTuple {
            tuple_index,
            score: 0.0,
        });
        let merged = RankedResults::from_scores(raw, ScoreCombiner::Max);
        assert_eq!(*default_answer(&relation).results, merged);
        assert_eq!(
            default_answer(&relation)
                .results
                .tuple_indices()
                .collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }
}
