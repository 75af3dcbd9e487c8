//! A query storm against the fault-tolerant serving layer, with a
//! seeded fault plan injecting errors, panics, delays, and partial
//! writes while concurrent clients hammer the service.
//!
//! ```text
//! cargo run --example query_storm
//! ```
//!
//! Watch the ladder work: some answers are served from cache, some
//! exactly, some from a lifted (nearest-ancestor) context state, and a
//! few as the non-contextual default — but *every* request comes back
//! before its deadline, and no injected panic kills the process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ctxpref::context::ContextState;
use ctxpref::core::MultiUserDb;
use ctxpref::faults::FaultPlan;
use ctxpref::hierarchy::LevelId;
use ctxpref::service::{CtxPrefService, ServiceConfig};
use ctxpref::workload::reference::{poi_env, poi_relation};
use ctxpref::workload::user_study::{all_demographics, default_profile};
use rand::{rngs::StdRng, Rng, SeedableRng};

const USERS: usize = 4;
const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 250;

fn main() {
    // The paper's POI database, four users with default study profiles.
    let env = poi_env();
    let rel = poi_relation(&env, 9, 5);
    let mut db = MultiUserDb::new(env.clone(), rel, 16);
    for (i, demo) in all_demographics().into_iter().take(USERS).enumerate() {
        let profile = default_profile(&env, db.relation(), demo);
        db.add_user_with_profile(&format!("user{i}"), profile)
            .unwrap();
    }
    let service = CtxPrefService::new(
        db,
        ServiceConfig {
            workers: 4,
            max_in_flight: 64,
            default_deadline: Duration::from_millis(500),
            ..ServiceConfig::default()
        },
    );

    // The storm: every fault class, at every instrumented layer.
    // Change the seed and the *same* faults fire at the *same* hits.
    let plan = FaultPlan::builder(2007)
        .fail("service.query.primary", 0.08)
        .panic("service.query.primary", 0.04)
        .delay("service.query.primary", 0.04, Duration::from_millis(2))
        .fail("service.query.nearest", 0.10)
        .fail("qcache.get", 0.06)
        .fail("qcache.insert", 0.06)
        .fail("storage.save.open", 0.25)
        .truncate("storage.save.write", 0.25, 0.6)
        .build();

    // Forced panics are caught by the service; keep the output readable.
    std::panic::set_hook(Box::new(|_| {}));

    let errors = AtomicU64::new(0);
    let save_ok = AtomicU64::new(0);
    let save_err = AtomicU64::new(0);
    let save_path = std::env::temp_dir().join("ctxpref-query-storm.db");
    let started = Instant::now();

    plan.run(|| {
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let service = &service;
                let errors = &errors;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(client as u64);
                    let states: Vec<ContextState> = (0..32)
                        .map(|_| service.with_db(|db| random_state(db, &mut rng)))
                        .collect();
                    for _ in 0..QUERIES_PER_CLIENT {
                        let user = format!("user{}", rng.random_range(0..USERS));
                        let state = &states[rng.random_range(0..states.len())];
                        if service.query_state(&user, state).is_err() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            // Snapshots race the storm while write faults fire; the
            // atomic save keeps the previous snapshot intact on failure.
            let (service, path) = (&service, &save_path);
            let (save_ok, save_err) = (&save_ok, &save_err);
            scope.spawn(move || {
                for _ in 0..20 {
                    match service.save(path) {
                        Ok(()) => save_ok.fetch_add(1, Ordering::Relaxed),
                        Err(_) => save_err.fetch_add(1, Ordering::Relaxed),
                    };
                    std::thread::sleep(Duration::from_millis(3));
                }
            });
        });
    });
    let _ = std::panic::take_hook();

    let elapsed = started.elapsed();
    let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    let stats = service.stats();
    let injected = plan.stats();

    println!("query storm: {total} requests from {CLIENTS} clients in {elapsed:.2?}");
    println!();
    println!("injected faults ({} total):", injected.total());
    for (label, m) in [
        ("errors", &injected.errors),
        ("panics", &injected.panics),
        ("delays", &injected.delays),
        ("truncated writes", &injected.truncations),
    ] {
        let mut sites: Vec<_> = m.iter().collect();
        sites.sort();
        for (site, n) in sites {
            println!("  {label:<16} {site:<28} ×{n}");
        }
    }
    println!();
    println!("degradation ladder:");
    println!("  cached         {:>6}", stats.served_cached);
    println!("  exact          {:>6}", stats.served_exact);
    println!("  nearest-state  {:>6}", stats.served_nearest);
    println!("  default answer {:>6}", stats.served_default);
    println!(
        "  ({} answered, {} typed errors, {} degraded)",
        stats.served(),
        errors.load(Ordering::Relaxed),
        stats.degraded()
    );
    println!();
    println!(
        "containment: {} panics contained, {} deadline misses, {} shed, {} storage retries",
        stats.panics_contained, stats.deadline_exceeded, stats.shed, stats.storage_retries
    );
    println!(
        "snapshots under write faults: {} succeeded, {} failed cleanly; final file {}",
        save_ok.load(Ordering::Relaxed),
        save_err.load(Ordering::Relaxed),
        match ctxpref::wal::snapshot::load_multi_user(&save_path) {
            Ok(db) => format!("loads intact ({} users)", db.user_count()),
            Err(e) => format!("fails cleanly ({e})"),
        }
    );
    let _ = std::fs::remove_file(&save_path);
}

/// A random context state: leaf values mostly, an interior value now
/// and then.
fn random_state(db: &ctxpref::core::ShardedMultiUserDb, rng: &mut StdRng) -> ContextState {
    let env = db.env();
    let mut state = ContextState::all(env);
    for (p, h) in env.iter() {
        let level = if rng.random_bool(0.85) {
            0
        } else {
            rng.random_range(0..h.level_count().saturating_sub(1).max(1))
        };
        let domain = h.domain(LevelId(level as u8));
        if !domain.is_empty() {
            state = state.with_value(p, domain[rng.random_range(0..domain.len())]);
        }
    }
    state
}
