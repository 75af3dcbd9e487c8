//! Serving concurrent contextual queries through the context query
//! tree: several reader threads share one `ContextualDb`, and queries
//! under a slowly-changing context hit the cache instead of re-running
//! context resolution.
//!
//! ```text
//! cargo run --release --example concurrent_cache
//! ```

use ctxpref::core::QueryOptions;
use ctxpref::prelude::*;
use ctxpref::workload::reference::{poi_env, poi_relation, POI_TYPES};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = poi_env();
    let rel = poi_relation(&env, 42, 6);
    let mut db = ContextualDb::builder()
        .env(env.clone())
        .relation(rel)
        .cache_capacity(64)
        .build()?;
    for (i, weather) in ["bad", "good"].iter().enumerate() {
        for (j, company) in ["friends", "family", "alone"].iter().enumerate() {
            for (k, ty) in POI_TYPES.iter().enumerate() {
                let score = 0.05 + ((i * 31 + j * 7 + k) % 90) as f64 / 100.0;
                db.insert_preference_eq(
                    &format!("temperature = {weather} and accompanying_people = {company}"),
                    "type",
                    (*ty).into(),
                    score,
                )?;
            }
        }
    }

    // Each thread simulates one user whose context dwells: 50 queries
    // per context state, cycling through a handful of states.
    let contexts: Vec<ContextState> = [
        ["Plaka", "warm", "friends"],
        ["Kifisia", "cold", "family"],
        ["Ladadika", "mild", "alone"],
        ["Panorama", "hot", "friends"],
    ]
    .iter()
    .map(|names| ContextState::parse(&env, names).unwrap())
    .collect();

    let threads = 4;
    let queries_per_thread = 400;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = &db;
            let contexts = &contexts;
            scope.spawn(move || {
                for i in 0..queries_per_thread {
                    let state = &contexts[(t + i / 50) % contexts.len()];
                    let answer = db
                        .query_state_with(state, QueryOptions::cached())
                        .expect("queries over valid states cannot fail");
                    assert!(!answer.results.is_empty());
                }
            });
        }
    });

    let stats = db.cache_stats().expect("cache is enabled");
    println!(
        "{} queries across {threads} threads: {} hits, {} misses (hit ratio {:.1}%)",
        threads * queries_per_thread,
        stats.hits,
        stats.misses,
        stats.hit_ratio() * 100.0
    );
    println!(
        "trie cells touched by the cache itself: {} (vs full resolution every time)",
        stats.cells_accessed
    );
    assert!(
        stats.hit_ratio() > 0.9,
        "dwelling contexts should hit the cache"
    );
    Ok(())
}
