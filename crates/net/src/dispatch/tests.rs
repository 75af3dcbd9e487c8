//! The server's borrowed answer encoding against the owned one: for
//! random rankings over a relation whose row attribute is a string, an
//! integer or a float, the frame [`answer_frame`] builds straight from
//! the relation must equal, byte for byte,
//! `encode_frame(&encode_response(id, &Response::Answer(owned)))` for
//! the `RemoteAnswer` an in-process caller would own — and decode back
//! to it. That owned answer is built here with `to_string`, apart from
//! the codec, as the oracle: `serve_request` itself decodes this frame.
//! A view hit's frame ([`view_frame`], rendered from the rows the view
//! lends) must equal the frame of the same rows served as an owned
//! answer from the view rung.
//!
//! The generator aims at the encoding's edges: a coarse score grid
//! holding both `-0.0` and `0.0`, so ties at the `k` cut are common;
//! `k = 0` and empty rankings; every ladder rung, with and without a
//! resolved state, and zero to two fallbacks; row names of 0 and of
//! more than 127 bytes (a two-byte length), non-ASCII text, and numbers
//! whose rendering is longer than 127 bytes.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ctxpref_context::ContextState;
use ctxpref_core::{MultiUserDb, QueryAnswer};
use ctxpref_relation::{AttrType, RankedResults, Relation, Schema, ScoreCombiner, ScoredTuple};
use ctxpref_service::{CtxPrefService, Fallback, LadderStep, ServiceAnswer, ServiceConfig};
use ctxpref_workload::reference::poi_env;
use proptest::prelude::*;

use super::{answer_frame, view_frame};
use crate::codec::{decode_response, encode_response};
use crate::frame::{encode_frame, read_frame};
use crate::proto::{AnswerRow, RemoteAnswer, Response, WireFallback};
use ctxpref_service::ViewHit;

/// One row attribute of each type the answer renders differently.
const ATTRS: [&str; 3] = ["name", "n", "x"];
const TUPLES: usize = 48;
const SCORES: [f64; 6] = [-0.0, 0.0, 0.25, 0.5, 0.75, 1.0];
const STEPS: [LadderStep; 5] = [
    LadderStep::View,
    LadderStep::Cached,
    LadderStep::Exact,
    LadderStep::NearestState,
    LadderStep::DefaultAnswer,
];

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }
}

/// A relation whose values cover the renderings' edges: an empty and a
/// 200-byte name, non-ASCII names, `i64::MIN`, and floats whose
/// `Display` runs past 127 bytes.
fn relation() -> Relation {
    let schema = Schema::new(&[
        ("name", AttrType::Str),
        ("n", AttrType::Int),
        ("x", AttrType::Float),
    ])
    .unwrap();
    let mut rel = Relation::new("rows", schema);
    let long = "x".repeat(200);
    let names = ["", "Acropolis Museum", "Πλάκα", &long, "Plaka walk"];
    let ints = [0, -1, 42, i64::MIN, i64::MAX, 7];
    let floats = [0.1, -0.0, 1e300, -2.5e-7, f64::INFINITY, 3.0, 12.75];
    for i in 0..TUPLES {
        let (name, n, x) = (names[i % 5], ints[i % 6], floats[i % 7]);
        rel.insert(vec![name.into(), n.into(), x.into()]).unwrap();
    }
    rel
}

fn service() -> &'static CtxPrefService {
    static SERVICE: OnceLock<CtxPrefService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        let db = MultiUserDb::new(poi_env(), relation(), 0);
        CtxPrefService::new(db, ServiceConfig::default())
    })
}

/// A random served answer: a ranking of up to `TUPLES` scored tuples
/// (possibly none) on the score grid, a rung, a resolved state or none,
/// and zero to two fallbacks.
fn served(rng: &mut Lcg) -> ServiceAnswer {
    let env = service().with_db(|db| db.env().clone());
    let raw: Vec<ScoredTuple> = (0..rng.below(TUPLES + 1))
        .map(|_| ScoredTuple {
            tuple_index: rng.below(TUPLES),
            score: SCORES[rng.below(SCORES.len())],
        })
        .collect();
    let results = RankedResults::from_scores(raw, ScoreCombiner::Max);
    let resolved_state = (rng.below(2) == 0).then(|| {
        let values = env
            .iter()
            .map(|(_, h)| {
                let edom: Vec<_> = h.edom().collect();
                edom[rng.below(edom.len())]
            })
            .collect();
        ContextState::new(&env, values).unwrap()
    });
    let fallbacks = (0..rng.below(3))
        .map(|i| Fallback {
            step: STEPS[rng.below(STEPS.len())],
            reason: format!("panic: injected — fallback {i}"),
        })
        .collect();
    ServiceAnswer {
        answer: QueryAnswer {
            results: Arc::new(results),
            resolutions: Vec::new(),
            from_cache: false,
        },
        step: STEPS[rng.below(STEPS.len())],
        fallbacks,
        resolved_state,
        elapsed: Duration::from_micros(rng.below(1 << 20) as u64),
    }
}

/// What an in-process caller owns of `answer`: every text rendered with
/// `to_string`, independently of the encoder.
fn owned(answer: &ServiceAnswer, attr: &str, k: usize) -> RemoteAnswer {
    service().with_db(|db| {
        let rel = db.relation();
        let a = rel.schema().attr(attr).unwrap();
        RemoteAnswer {
            step: answer.step.to_string(),
            elapsed_us: answer.elapsed.as_micros() as u64,
            resolved_state: answer
                .resolved_state
                .as_ref()
                .map(|s| s.display(db.env()).to_string()),
            fallbacks: answer
                .fallbacks
                .iter()
                .map(|fb| WireFallback {
                    step: fb.step.to_string(),
                    reason: fb.reason.clone(),
                })
                .collect(),
            rows: answer
                .answer
                .results
                .top_k_with_ties(k)
                .iter()
                .map(|e| AnswerRow {
                    name: rel.tuple(e.tuple_index).value(a).to_string(),
                    score: e.score,
                })
                .collect(),
        }
    })
}

/// `answer`'s rows as a view would lend them: its top `k`, served from
/// the view rung with no fallback and no resolved state.
fn as_view_hit(answer: &ServiceAnswer, k: usize) -> ServiceAnswer {
    let rows = answer.answer.results.top_k_with_ties(k).to_vec();
    ServiceAnswer {
        answer: QueryAnswer {
            results: Arc::new(RankedResults::from_sorted(rows)),
            resolutions: Vec::new(),
            from_cache: false,
        },
        step: LadderStep::View,
        fallbacks: Vec::new(),
        resolved_state: None,
        elapsed: answer.elapsed,
    }
}

/// The frame [`view_frame`] renders from `hit`'s rows, lent.
fn view_hit_frame(id: u64, hit: &ServiceAnswer, attr: &str) -> Vec<u8> {
    service().with_db(|db| {
        let hit = ViewHit {
            relation: db.relation(),
            rows: hit.answer.results.entries(),
            elapsed: hit.elapsed,
        };
        view_frame(id, hit, attr).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_direct_frame_is_the_owned_answers_frame(
        seed in any::<u64>(),
        id in any::<u64>(),
        attr in 0usize..3,
        k in 0usize..=TUPLES + 2,
    ) {
        let mut rng = Lcg(seed);
        let answer = served(&mut rng);
        let attr = ATTRS[attr];
        let want = Response::Answer(owned(&answer, attr, k));
        let frame = answer_frame(service(), id, &answer, attr, k).unwrap();
        prop_assert_eq!(&frame, &encode_frame(&encode_response(id, &want)).unwrap());
        let payload = read_frame(&mut &frame[..]).unwrap().unwrap();
        let back = decode_response(&payload).unwrap();
        prop_assert_eq!(back.id, id);
        prop_assert_eq!(back.resp, want);

        // The same rows lent by a view answer in the same bytes.
        let hit = as_view_hit(&answer, k);
        let want = Response::Answer(owned(&hit, attr, k));
        let frame = view_hit_frame(id, &hit, attr);
        prop_assert_eq!(&frame, &encode_frame(&encode_response(id, &want)).unwrap());
        prop_assert_eq!(&frame, &answer_frame(service(), id, &hit, attr, k).unwrap());
    }
}

#[test]
fn the_generator_reaches_the_edges() {
    let mut rng = Lcg(7);
    let (mut empty, mut tied_cut, mut with_state, mut two_fallbacks) = (0, 0, 0, 0);
    for _ in 0..256 {
        let answer = served(&mut rng);
        let entries = answer.answer.results.entries();
        empty += usize::from(entries.is_empty());
        tied_cut += usize::from(answer.answer.results.top_k_with_ties(3).len() > 3);
        with_state += usize::from(answer.resolved_state.is_some());
        two_fallbacks += usize::from(answer.fallbacks.len() == 2);
    }
    assert!(empty > 0 && tied_cut > 0 && with_state > 0 && two_fallbacks > 0);
    // A rendered float past 127 bytes takes the two-byte length.
    assert!(1e300f64.to_string().len() > 127);
}

#[test]
fn an_attribute_the_schema_lacks_answers_typed() {
    let answer = served(&mut Lcg(3));
    let hit = as_view_hit(&answer, 5);
    let frames = [
        answer_frame(service(), 9, &answer, "no_such_attr", 5).unwrap(),
        view_hit_frame(9, &hit, "no_such_attr"),
    ];
    for frame in frames {
        let payload = read_frame(&mut &frame[..]).unwrap().unwrap();
        let back = decode_response(&payload).unwrap();
        assert_eq!(back.id, 9);
        assert!(
            matches!(&back.resp, Response::Err { kind, .. } if kind == "core"),
            "{:?}",
            back.resp
        );
    }
}
