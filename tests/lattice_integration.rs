//! Lattice hierarchies through the whole stack: decompose into chains,
//! build an environment, index preferences, query, persist, restore.

use ctxpref::context::ContextState;
use ctxpref::core::ContextualDb;
use ctxpref::hierarchy::lattice::LatticeBuilder;
use ctxpref::relation::{AttrType, Relation, Schema};
use ctxpref::wal::snapshot::{load_database, save_database};

fn week_lattice() -> ctxpref::hierarchy::LatticeHierarchy {
    let mut b = LatticeBuilder::new("time");
    b.level("Slot", &["PartOfDay", "DayType"]);
    b.level("PartOfDay", &[]);
    b.level("DayType", &[]);
    for p in ["morning", "evening"] {
        b.value("PartOfDay", p, &[]);
    }
    b.value("DayType", "weekday", &[]);
    b.value("DayType", "weekend", &[]);
    for (d, day) in ["mon", "tue", "sat", "sun"].iter().enumerate() {
        let dt = if d < 2 { "weekday" } else { "weekend" };
        for part in ["morning", "evening"] {
            b.value("Slot", &format!("{day}_{part}"), &[part, dt]);
        }
    }
    b.build().unwrap()
}

fn poi() -> Relation {
    let schema = Schema::new(&[("name", AttrType::Str), ("type", AttrType::Str)]).unwrap();
    let mut rel = Relation::new("poi", schema);
    for (n, t) in [
        ("Mikro", "brewery"),
        ("Benaki", "museum"),
        ("Agora", "market"),
    ] {
        rel.insert(vec![n.into(), t.into()]).unwrap();
    }
    rel
}

#[test]
fn both_branches_participate_in_resolution() {
    let lattice = week_lattice();
    let chains = lattice.decompose().unwrap();
    assert_eq!(chains.len(), 2);
    let env = ctxpref::context::ContextEnvironment::new(chains).unwrap();
    let mut db = ContextualDb::builder()
        .env(env.clone())
        .relation(poi())
        .build()
        .unwrap();

    // One preference per branch, at branch level.
    db.insert_preference_eq("time_partofday = evening", "type", "brewery".into(), 0.9)
        .unwrap();
    db.insert_preference_eq("time_daytype = weekend", "type", "market".into(), 0.8)
        .unwrap();

    // A concrete slot appears in BOTH parameters (the same detailed
    // value names exist in both chains) — a consistent current context
    // sets both coordinates from one slot.
    let slot = "sat_evening";
    let state = ContextState::parse(&env, &[slot, slot]).unwrap();
    let answer = db.query_state(&state).unwrap();
    // Both preferences are applicable: (evening, all) and (all, weekend)
    // tie at hierarchy distance 3 → both selected.
    let scores: Vec<f64> = answer.results.entries().iter().map(|e| e.score).collect();
    assert_eq!(
        scores,
        vec![0.9, 0.8],
        "both lattice branches contribute: {scores:?}"
    );

    // A weekday morning matches neither.
    let state = ContextState::parse(&env, &["mon_morning", "mon_morning"]).unwrap();
    let answer = db.query_state(&state).unwrap();
    assert!(answer.results.is_empty());
}

#[test]
fn lattice_derived_database_round_trips_through_storage() {
    let lattice = week_lattice();
    let env = ctxpref::context::ContextEnvironment::new(lattice.decompose().unwrap()).unwrap();
    let mut db = ContextualDb::builder()
        .env(env.clone())
        .relation(poi())
        .cache_capacity(4)
        .build()
        .unwrap();
    db.insert_preference_eq("time_partofday = morning", "type", "museum".into(), 0.7)
        .unwrap();
    db.insert_preference_eq(
        "time_daytype = weekday and time_partofday = evening",
        "type",
        "brewery".into(),
        0.85,
    )
    .unwrap();

    let path = std::env::temp_dir().join(format!("ctxpref-lattice-{}.db", std::process::id()));
    save_database(&path, &db).unwrap();
    let restored = load_database(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    for slot in ["mon_morning", "tue_evening", "sun_morning", "sat_evening"] {
        let state = ContextState::parse(&env, &[slot, slot]).unwrap();
        let a = db.query_state(&state).unwrap();
        let b = restored.query_state(&state).unwrap();
        assert_eq!(a.results.entries(), b.results.entries(), "slot {slot}");
    }
}

#[test]
fn chain_consistency_one_slot_two_views() {
    // The invariant an application must maintain: when a lattice is
    // decomposed, a current context sets every derived parameter from
    // the SAME detailed slot. Verify the derived coordinates stay
    // mutually consistent (their lattice ancestors agree).
    let lattice = week_lattice();
    let chains = lattice.decompose().unwrap();
    for &slot in &["mon_morning", "sun_evening"] {
        let lv = lattice.lookup(slot).unwrap();
        for chain in &chains {
            let cv = chain.lookup(slot).expect("slot exists in every chain");
            // Lifting within the chain agrees with lifting in the lattice.
            let branch_level = chain.level_name(ctxpref::hierarchy::LevelId(1)).to_string();
            let lat_level = lattice.level_by_name(&branch_level).unwrap();
            assert_eq!(
                chain.value_name(chain.anc(cv, ctxpref::hierarchy::LevelId(1)).unwrap()),
                lattice.value_name(lattice.anc(lv, lat_level).unwrap())
            );
        }
    }
}
