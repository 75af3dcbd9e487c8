//! Error reporting quality: every error variant renders an actionable
//! message, and error sources chain correctly. A production system's
//! errors are part of its API.

use std::error::Error;

use ctxpref::bytes::{open_frame, seal_frame, split_frame, FRAME_HEADER};
use ctxpref::context::{parse_descriptor, ContextError};
use ctxpref::core::{ContextualDb, CoreError};
use ctxpref::hierarchy::{Hierarchy, HierarchyBuilder, HierarchyError};
use ctxpref::prelude::*;
use ctxpref::profile::ProfileError;
use ctxpref::relation::{AttrType, RelationError};
use ctxpref::wal::snapshot::{load_database, save_database, MAGIC};
use ctxpref::wal::WalError;
use ctxpref::workload::reference::reference_env;

#[test]
fn hierarchy_errors_name_the_offenders() {
    let mut b = HierarchyBuilder::new("x", &["lo", "hi"]);
    b.add("hi", "top", None).unwrap();
    let e = b.add("hi", "top", None).unwrap_err();
    assert!(e.to_string().contains("top"), "{e}");

    let mut b = HierarchyBuilder::new("x", &["lo", "hi"]);
    b.add("hi", "t", None).unwrap();
    b.add("lo", "child", Some("ghost")).unwrap();
    let e = b.build().unwrap_err();
    assert!(
        e.to_string().contains("ghost") && e.to_string().contains("child"),
        "{e}"
    );

    let e = HierarchyBuilder::new("x", &[]).build().unwrap_err();
    assert_eq!(e, HierarchyError::NoLevels);
    assert!(e.source().is_none());
    assert!(!e.to_string().is_empty());
}

#[test]
fn context_errors_locate_the_problem() {
    let env = reference_env();
    let e = parse_descriptor(&env, "location == Plaka").unwrap_err();
    match &e {
        ContextError::Parse { position, message } => {
            assert!(*position > 0);
            assert!(message.contains("expected"));
        }
        other => panic!("expected Parse, got {other:?}"),
    }
    assert!(e.to_string().contains("byte"));

    let e = parse_descriptor(&env, "location = Sparta").unwrap_err();
    assert!(
        e.to_string().contains("Sparta") && e.to_string().contains("location"),
        "{e}"
    );

    let e = ContextState::parse(&env, &["Plaka"]).unwrap_err();
    assert!(
        e.to_string().contains("3") && e.to_string().contains("1"),
        "{e}"
    );
}

#[test]
fn profile_conflict_reports_scores_and_chains_sources() {
    let env = reference_env();
    let schema = Schema::new(&[("name", AttrType::Str)]).unwrap();
    let rel = Relation::new("r", schema);
    let mut db = ContextualDb::builder()
        .env(env)
        .relation(rel)
        .build()
        .unwrap();
    db.insert_preference_eq("temperature = warm", "name", "Acropolis".into(), 0.8)
        .unwrap();
    let e = db
        .insert_preference_eq("temperature = warm", "name", "Acropolis".into(), 0.3)
        .unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("0.8") && msg.contains("0.3"), "{msg}");
    // The core error chains to the profile error.
    match &e {
        CoreError::Profile(ProfileError::Conflict {
            existing_score,
            new_score,
            ..
        }) => {
            assert_eq!(*existing_score, 0.8);
            assert_eq!(*new_score, 0.3);
        }
        other => panic!("expected Profile(Conflict), got {other:?}"),
    }
    assert!(e.source().is_some());
}

#[test]
fn relation_errors_name_attribute_and_types() {
    let schema = Schema::new(&[("cost", AttrType::Float)]).unwrap();
    let mut rel = Relation::new("r", schema);
    let e = rel.insert(vec!["oops".into()]).unwrap_err();
    match &e {
        RelationError::TypeMismatch {
            attr,
            expected,
            got,
        } => {
            assert_eq!(attr, "cost");
            assert_eq!(*expected, AttrType::Float);
            assert_eq!(*got, AttrType::Str);
        }
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
    assert!(
        e.to_string().contains("cost") && e.to_string().contains("float"),
        "{e}"
    );
}

#[test]
fn invalid_scores_are_rejected_with_value() {
    let env = reference_env();
    let schema = Schema::new(&[("name", AttrType::Str)]).unwrap();
    let rel = Relation::new("r", schema);
    let mut db = ContextualDb::builder()
        .env(env)
        .relation(rel)
        .build()
        .unwrap();
    let e = db
        .insert_preference_eq("temperature = warm", "name", "X".into(), 1.7)
        .unwrap_err();
    assert!(e.to_string().contains("1.7"), "{e}");
}

#[test]
fn snapshot_errors_name_the_frame() {
    let env = ContextEnvironment::new(vec![Hierarchy::flat("h", &["a"]).unwrap()]).unwrap();
    let mut rel = Relation::new("r", Schema::new(&[("x", AttrType::Int)]).unwrap());
    rel.insert(vec![Value::Int(7)]).unwrap();
    let db = ContextualDb::builder()
        .env(env)
        .relation(rel)
        .build()
        .unwrap();
    let path = std::env::temp_dir().join(format!("ctxpref-errors-{}.db", std::process::id()));
    save_database(&path, &db).unwrap();

    // Retype the tuple's int as a float under a valid checksum: the
    // header frame verifies, and the relation refuses the value.
    let bytes = std::fs::read(&path).unwrap();
    let (magic, frames) = bytes.split_at(MAGIC.len());
    let (header, len) = split_frame(frames).unwrap().unwrap();
    let int_seven = [1, 7, 0, 0, 0, 0, 0, 0, 0];
    let at = header.windows(9).position(|w| w == int_seven).unwrap();
    let mut mistyped = magic.to_vec();
    let frame = open_frame(&mut mistyped);
    mistyped.extend_from_slice(header);
    mistyped[frame + FRAME_HEADER + at] = 2;
    seal_frame(&mut mistyped, frame).unwrap();
    mistyped.extend_from_slice(&frames[len..]);
    std::fs::write(&path, &mistyped).unwrap();

    let e = load_database(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    match &e {
        WalError::Corrupt { offset, reason, .. } => {
            assert_eq!(*offset, MAGIC.len() as u64);
            assert!(reason.starts_with("header frame: tuple 0: "), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(e.to_string().contains("header frame"), "{e}");
}

#[test]
fn missing_builder_inputs_are_clear() {
    let e = ContextualDb::builder().build().unwrap_err();
    assert!(e.to_string().contains("environment"), "{e}");
    let env = ContextEnvironment::new(vec![Hierarchy::flat("x", &["a"]).unwrap()]).unwrap();
    let e = ContextualDb::builder().env(env).build().unwrap_err();
    assert!(e.to_string().contains("relation"), "{e}");
}

#[test]
fn every_error_type_is_std_error() {
    fn assert_error<E: Error>() {}
    assert_error::<HierarchyError>();
    assert_error::<ContextError>();
    assert_error::<RelationError>();
    assert_error::<ProfileError>();
    assert_error::<CoreError>();
    assert_error::<WalError>();
    assert_error::<ctxpref::qualitative::QualitativeError>();
}
