//! The server's answer frames as a worker sends them, reached through
//! `serve_frame`: a served `Query` or `TopK` over a relation whose row
//! attribute is a string, an integer or a float is rendered straight
//! from the relation, and its frame must equal, byte for byte,
//! `encode_frame(&encode_response(id, &resp))` of the response it
//! decodes to, whose rows must be the service's own ranking rendered
//! with `to_string`, apart from the codec, as the oracle. An attribute
//! the schema lacks answers typed.
//!
//! The renderer's edges — every ladder rung, resolved states,
//! fallbacks, ties at the `k` cut, and a view hit's rows lent from the
//! view — are the crate's unit tests (`dispatch::tests`), which build
//! arbitrary served answers.

use std::sync::OnceLock;

use ctxpref_core::MultiUserDb;
use ctxpref_net::{
    decode_response, encode_frame, encode_response, read_frame, serve_frame, serve_request,
    AnswerRow, Request, Response,
};
use ctxpref_relation::{AttrType, Relation, Schema};
use ctxpref_service::{CtxPrefService, ServiceConfig};
use ctxpref_workload::reference::poi_env;

/// One row attribute of each type the answer renders differently.
const ATTRS: [&str; 3] = ["name", "n", "x"];
const TUPLES: usize = 48;
const STATE: [&str; 3] = ["Plaka", "warm", "friends"];

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

/// A service whose user `u` prefers, under [`STATE`], rows named by
/// an empty, a long and a non-ASCII name, two of them tied.
fn service() -> &'static CtxPrefService {
    static SERVICE: OnceLock<CtxPrefService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        let db = MultiUserDb::new(poi_env(), relation(), 0);
        let service = CtxPrefService::new(db, ServiceConfig::default());
        service.add_user("u").unwrap();
        let long = "x".repeat(200);
        for (value, score) in [("", 0.9), (long.as_str(), 0.5), ("Πλάκα", 0.5)] {
            let insert = Request::InsertPref {
                user: "u".into(),
                descriptor: "accompanying_people = friends".into(),
                attr: "name".into(),
                value: value.into(),
                score,
            };
            assert_eq!(serve_request(&service, &insert), Response::Ok);
        }
        service
    })
}

fn ranked(top_k: bool, attr: &str, k: usize) -> Request {
    let state = STATE.iter().map(|s| s.to_string()).collect();
    let (user, attr, deadline_ms) = ("u".to_string(), attr.to_string(), 2_000);
    if top_k {
        Request::TopK {
            user,
            attr,
            k,
            deadline_ms,
            state,
        }
    } else {
        Request::Query {
            user,
            attr,
            k,
            deadline_ms,
            state,
        }
    }
}

/// `u`'s top `k` rows under [`STATE`] rendered by `attr` with
/// `to_string`, from the service's own ranking.
fn oracle_rows(attr: &str, k: usize) -> Vec<AnswerRow> {
    let svc = service();
    let state = svc.with_db(|db| ctxpref_context::ContextState::parse(db.env(), &STATE).unwrap());
    let answer = svc.query_state("u", &state).unwrap();
    svc.with_db(|db| {
        let rel = db.relation();
        let a = rel.schema().attr(attr).unwrap();
        (answer.answer.results.top_k_with_ties(k).iter())
            .map(|e| AnswerRow {
                name: rel.tuple(e.tuple_index).value(a).to_string(),
                score: e.score,
            })
            .collect()
    })
}

#[test]
fn a_served_frame_is_the_frame_of_the_answer_it_carries() {
    let mut id = 1;
    let mut rows_seen = 0;
    for top_k in [false, true] {
        for attr in ATTRS {
            for k in [0, 1, 2, 5, TUPLES + 2] {
                id += 1;
                let frame = serve_frame(service(), id, &ranked(top_k, attr, k)).unwrap();
                let payload = read_frame(&mut &frame[..]).unwrap().unwrap();
                let back = decode_response(&payload).unwrap();
                assert_eq!(back.id, id);
                assert_eq!(
                    frame,
                    encode_frame(&encode_response(id, &back.resp)).unwrap()
                );
                let Response::Answer(answer) = back.resp else {
                    panic!("not an answer: {:?}", back.resp);
                };
                assert_eq!(answer.rows, oracle_rows(attr, k), "{attr} k={k}");
                rows_seen += answer.rows.len();
            }
        }
    }
    assert!(rows_seen > 0, "no rows were served");
}

#[test]
fn an_attribute_the_schema_lacks_answers_typed() {
    for top_k in [false, true] {
        let frame = serve_frame(service(), 9, &ranked(top_k, "no_such_attr", 5)).unwrap();
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
