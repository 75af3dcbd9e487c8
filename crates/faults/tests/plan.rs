//! The fault plan's contract: no plan costs nothing and injects
//! nothing, rules fire deterministically by hit index, patterns and
//! nested installs behave, and at-rest damage is reproducible.

use ctxpref_faults::*;

#[test]
fn no_plan_is_free_and_infallible() {
    let _serial = exclusive();
    assert!(current().is_none());
    for _ in 0..100 {
        assert!(hit("any.site").is_ok());
        assert_eq!(truncated_len("any.site", 10), 10);
    }
}

#[test]
fn probability_rules_are_deterministic() {
    let _serial = exclusive();
    let run = || {
        let plan = FaultPlan::builder(7).fail("s.op", 0.3).build();
        plan.run(|| {
            (0..200)
                .map(|_| u64::from(hit("s.op").is_err()))
                .collect::<Vec<_>>()
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must inject identically");
    let total: u64 = a.iter().sum();
    assert!(total > 20 && total < 100, "injected {total}/200 at p=0.3");
}

#[test]
fn at_hits_fire_exactly() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(1).fail_at("s.op", &[2, 4]).build();
    plan.run(|| {
        assert!(hit("s.op").is_ok());
        assert!(hit("s.op").is_err());
        assert!(hit("s.op").is_ok());
        assert!(hit("s.op").is_err());
        assert!(hit("s.op").is_ok());
    });
    let stats = plan.stats();
    assert_eq!(stats.errors.get("s.op"), Some(&2));
    assert_eq!(stats.total(), 2);
}

#[test]
fn prefix_patterns_match() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(1).fail_at("storage.*", &[1]).build();
    plan.run(|| {
        assert!(hit("storage.write.flush").is_err());
        assert!(hit("qcache.get").is_ok());
    });
}

#[test]
fn panics_are_forced() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(1).panic_at("s.boom", &[1]).build();
    let caught = plan.run(|| {
        std::panic::catch_unwind(|| {
            let _ = hit("s.boom");
        })
    });
    assert!(caught.is_err());
    assert_eq!(plan.stats().panics.get("s.boom"), Some(&1));
}

#[test]
fn truncation_scales_length() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(1).truncate_at("w", &[1], 0.5).build();
    plan.run(|| {
        assert_eq!(truncated_len("w", 100), 50);
        assert_eq!(truncated_len("w", 100), 100);
    });
}

#[test]
fn hit_counts_track_every_site() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(3).build();
    plan.run(|| {
        for _ in 0..5 {
            hit("a.site").unwrap();
        }
        hit("b.site").unwrap();
    });
    assert_eq!(plan.hit_count("a.site"), 5);
    assert_eq!(plan.hit_count("b.site"), 1);
    assert_eq!(plan.hit_count("never.hit"), 0);
    assert_eq!(plan.hit_counts().len(), 2);
    // The registry lists the write-path matrix.
    assert!(sites::DURABILITY_SITES.contains(&sites::WAL_APPEND_SYNC));
}

#[test]
fn hit_window_covers_a_contiguous_range() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(9)
        .fail_between("disk.full", 3, 5)
        .build();
    let outcomes = plan.run(|| {
        (0..8)
            .map(|_| hit("disk.full").is_err())
            .collect::<Vec<_>>()
    });
    assert_eq!(
        outcomes,
        [false, false, true, true, true, false, false, false],
        "window [3,5] must fail exactly hits 3..=5 and recover after"
    );
    assert!(sites::DISK_SITES.contains(&sites::DISK_FULL));
    assert!(sites::DISK_SITES.contains(&sites::WAL_SCRUB));
}

#[test]
fn at_rest_damage_is_deterministic() {
    let _serial = exclusive();
    let dir = std::env::temp_dir().join(format!(
        "ctxpref-faults-at-rest-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seg-000001.wal");
    let payload: Vec<u8> = (0..200u8).collect();

    std::fs::write(&path, &payload).unwrap();
    let a = at_rest::flip_bit(&path, 42, 24).unwrap().unwrap();
    let damaged_a = std::fs::read(&path).unwrap();
    std::fs::write(&path, &payload).unwrap();
    let b = at_rest::flip_bit(&path, 42, 24).unwrap().unwrap();
    let damaged_b = std::fs::read(&path).unwrap();
    assert_eq!(a, b, "same seed must damage the same bit");
    assert_eq!(damaged_a, damaged_b);
    assert_ne!(damaged_a, payload, "a bit must actually have flipped");
    let at_rest::Damage::BitFlip { offset } = a else {
        panic!("flip_bit must report a bit flip");
    };
    assert!(offset >= 24, "the protected header must be spared");

    std::fs::write(&path, &payload).unwrap();
    let cut = at_rest::truncate(&path, 42, 24).unwrap().unwrap();
    let at_rest::Damage::Truncated { len } = cut else {
        panic!("truncate must report a cut");
    };
    assert!((24..200).contains(&len));
    assert_eq!(std::fs::metadata(&path).unwrap().len(), len);

    // Nothing past the protected prefix: both helpers decline.
    std::fs::write(&path, &payload[..10]).unwrap();
    assert_eq!(at_rest::flip_bit(&path, 42, 24).unwrap(), None);
    assert_eq!(at_rest::truncate(&path, 42, 24).unwrap(), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn nested_installs_restore() {
    let _serial = exclusive();
    let outer = FaultPlan::builder(1).fail_at("n.op", &[1]).build();
    let inner = FaultPlan::builder(1).build();
    outer.run(|| {
        inner.run(|| {
            assert!(hit("n.op").is_ok());
        });
        assert!(hit("n.op").is_err());
    });
    assert!(current().is_none());
}
