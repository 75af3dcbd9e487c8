//! The clock's contract: without a manual clock it is real time; under
//! one, every sleep and timed wait ends only once the test has advanced
//! the clock past it, and a timed receive still returns at once when
//! its sender drops.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ctxpref_faults::{clock, exclusive, hit, install, FaultPlan};

/// `clock::now()` lies between two reads of the real clock around it.
fn assert_real_time() {
    let before = Instant::now();
    let now = clock::now();
    let after = Instant::now();
    assert!(before <= now && now <= after, "the clock left real time");
}

#[test]
fn without_a_manual_clock_now_is_real_time() {
    let _serial = exclusive();
    assert_real_time();
    let plain = FaultPlan::builder(1).fail("s.op", 0.5).build();
    plain.run(assert_real_time);

    // A plain plan installed over a manual one brings real time back,
    // and dropping it restores the manual clock.
    let manual = FaultPlan::builder(2).manual_clock().build();
    let _outer = install(Arc::clone(&manual));
    let frozen = clock::now();
    plain.run(assert_real_time);
    assert_eq!(clock::now(), frozen, "the manual clock moved by itself");
    drop(_outer);
    assert_real_time();
}

#[test]
fn a_manual_sleep_ends_only_once_the_clock_has_advanced_past_it() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(3).manual_clock().build();
    let _installed = install(Arc::clone(&plan));
    let start = clock::now();
    let sleeper = std::thread::spawn(|| clock::sleep(Duration::from_secs(10)));
    plan.settle(1);
    plan.advance(Duration::from_secs(9));
    assert!(!sleeper.is_finished(), "woke 1 s before its time");
    assert_eq!(plan.clock_waiters(), 1);
    plan.advance(Duration::from_secs(1));
    sleeper.join().unwrap();
    assert_eq!(plan.clock_waiters(), 0);
    assert_eq!(clock::elapsed(start), Duration::from_secs(10));
}

#[test]
fn a_timed_receive_times_out_only_after_its_interval_and_sees_a_drop_at_once() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(4).manual_clock().build();
    let _installed = install(Arc::clone(&plan));

    let (tx, rx) = mpsc::channel::<u32>();
    let receiver =
        std::thread::spawn(move || clock::recv_until(&rx, clock::now() + Duration::from_secs(5)));
    plan.settle(1);
    plan.advance(Duration::from_millis(4_999));
    assert!(!receiver.is_finished(), "timed out before its interval");
    plan.advance(Duration::from_millis(1));
    assert_eq!(receiver.join().unwrap(), Err(RecvTimeoutError::Timeout));
    drop(tx);

    // A message, then the sender dropping: both answer with the clock
    // standing still.
    let (tx, rx) = mpsc::channel::<u32>();
    let receiver = std::thread::spawn(move || {
        let deadline = clock::now() + Duration::from_secs(3_600);
        (
            clock::recv_until(&rx, deadline),
            clock::recv_until(&rx, deadline),
        )
    });
    plan.settle(1);
    tx.send(7).unwrap();
    plan.settle(1);
    drop(tx);
    assert_eq!(
        receiver.join().unwrap(),
        (Ok(7), Err(RecvTimeoutError::Disconnected))
    );
    assert_eq!(plan.clock_waiters(), 0);
}

#[test]
fn a_timed_condvar_wait_ends_on_a_notify_or_after_its_deadline() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(5).manual_clock().build();
    let _installed = install(Arc::clone(&plan));
    let pair = Arc::new((Mutex::new(false), Condvar::new()));

    let wait = |pair: Arc<(Mutex<bool>, Condvar)>| {
        std::thread::spawn(move || {
            let (flag, cv) = &*pair;
            let deadline = clock::now() + Duration::from_secs(1);
            let mut set = flag.lock().unwrap();
            while !*set {
                let (guard, timed_out) = clock::wait_until(cv, set, deadline);
                set = guard;
                if timed_out {
                    return false;
                }
            }
            true
        })
    };

    let waiter = wait(Arc::clone(&pair));
    plan.settle(1);
    plan.advance(Duration::from_millis(999));
    assert!(!waiter.is_finished(), "timed out before its deadline");
    plan.advance(Duration::from_millis(1));
    assert!(!waiter.join().unwrap(), "the flag was never set");

    let waiter = wait(Arc::clone(&pair));
    plan.settle(1);
    *pair.0.lock().unwrap() = true;
    pair.1.notify_all();
    assert!(waiter.join().unwrap(), "a notify ends the wait unadvanced");
}

#[test]
fn a_delay_fault_waits_on_manual_time() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(6)
        .manual_clock()
        .delay_at("s.op", &[1], Duration::from_secs(30))
        .build();
    let _installed = install(Arc::clone(&plan));
    let delayed = std::thread::spawn(|| hit("s.op"));
    plan.settle(1);
    plan.advance(Duration::from_secs(29));
    assert!(!delayed.is_finished(), "the delay ended 1 s early");
    plan.advance(Duration::from_secs(1));
    assert!(delayed.join().unwrap().is_ok());
    assert_eq!(plan.stats().delays.get("s.op"), Some(&1));
    // The second hit carries no delay: it returns without an advance.
    assert!(hit("s.op").is_ok());
}

#[test]
fn sleep_within_stops_at_the_deadline() {
    let _serial = exclusive();
    let plan = FaultPlan::builder(8).manual_clock().build();
    let _installed = install(Arc::clone(&plan));
    let deadline = clock::now() + Duration::from_secs(2);
    let sleeper = std::thread::spawn(move || {
        let slept = clock::sleep_within(Duration::from_secs(60), Some(deadline));
        (
            slept,
            clock::sleep_within(Duration::from_secs(60), Some(deadline)),
        )
    });
    plan.settle(1);
    plan.advance(Duration::from_secs(2));
    assert_eq!(sleeper.join().unwrap(), (true, false));
    assert_eq!(clock::remaining(deadline), Duration::ZERO);
}
