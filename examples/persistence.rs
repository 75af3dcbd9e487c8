//! Persisting and restoring a contextual preference database as a
//! snapshot: the `ctxpref v2` magic line, then checksummed frames.
//!
//! ```text
//! cargo run --example persistence
//! ```

use ctxpref::bytes::split_frame;
use ctxpref::prelude::*;
use ctxpref::wal::snapshot::{load_database, save_database, MAGIC};
use ctxpref::workload::reference::{poi_env, poi_relation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = poi_env();
    let rel = poi_relation(&env, 2007, 6);
    let mut db = ContextualDb::builder()
        .env(env.clone())
        .relation(rel)
        .cache_capacity(32)
        .build()?;
    db.insert_preference_eq("temperature = good", "type", "monument".into(), 0.8)?;
    db.insert_preference_eq(
        "location = Thessaloniki and accompanying_people = friends",
        "type",
        "market".into(),
        0.85,
    )?;
    db.insert_preference_eq(
        "temperature in {freezing, cold}",
        "type",
        "museum".into(),
        0.9,
    )?;

    // Save to disk, count the frames, and restore.
    let path = std::env::temp_dir().join("ctxpref_example.ctxpref");
    save_database(&path, &db)?;
    let bytes = std::fs::read(&path)?;
    let (mut rest, mut frames) = (&bytes[MAGIC.len()..], 0);
    while let Some((_, len)) = split_frame(rest)? {
        rest = &rest[len..];
        frames += 1;
    }
    println!(
        "saved {} bytes: the magic line, then {frames} frames (the header, one per user)\n",
        bytes.len()
    );
    let restored = load_database(&path)?;
    println!(
        "restored from {}: {} tuples, {} preferences, cache capacity {}",
        path.display(),
        restored.relation().len(),
        restored.profile().len(),
        restored.cache_capacity()
    );

    // Same answers before and after.
    let state = ContextState::parse(&env, &["Ladadika", "mild", "friends"])?;
    let a = db.query_state(&state)?;
    let b = restored.query_state(&state)?;
    assert_eq!(a.results.entries(), b.results.entries());
    println!(
        "\nquery under {} matches exactly ({} results):",
        state.display(&env),
        b.results.len()
    );
    print!("{}", restored.render_top(&b, "name", 5)?);
    assert!(
        !b.results.is_empty(),
        "the market preference should rank Thessaloniki markets"
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
