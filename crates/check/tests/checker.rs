//! Self-tests for the model checker: correct protocols must verify
//! exhaustively, and deliberately-seeded concurrency bugs (lost wakeup,
//! ABBA deadlock, racy assertion) must be *caught* — the credibility
//! tests the rest of the workspace's model suite stands on.

use std::sync::Arc;

use trq_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use trq_check::sync::{Condvar, Mutex};
use trq_check::{explore, Config, FailureKind};

/// A correct mutex+condvar handshake (predicate re-checked in a loop under
/// the mutex) verifies exhaustively, and the checker actually explored
/// more than one interleaving.
#[test]
fn handshake_verifies_exhaustively() {
    let report = explore(Config::default(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let producer = trq_check::thread::spawn(move || {
            let (flag, cv) = &*p2;
            *flag.lock().unwrap() = true;
            cv.notify_one();
        });
        let (flag, cv) = &*pair;
        let mut ready = flag.lock().unwrap();
        while !*ready {
            ready = cv.wait(ready).unwrap();
        }
        drop(ready);
        producer.join().unwrap();
    });
    assert!(report.failure.is_none(), "correct handshake flagged: {report}");
    assert!(report.complete, "exploration did not exhaust: {report}");
    assert!(report.schedules > 1, "only {} schedule(s) explored", report.schedules);
    println!("handshake: {report}");
}

/// Credibility test: a seeded lost wakeup — the consumer checks the flag
/// and *then* takes the lock to wait, so the notify can land in the gap
/// and the waiter parks forever. The checker must find the schedule and
/// report it as a deadlock.
#[test]
fn seeded_lost_wakeup_is_caught() {
    let report = explore(Config::default(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let flag_set = Arc::new(AtomicBool::new(false));
        let p2 = Arc::clone(&pair);
        let f2 = Arc::clone(&flag_set);
        let producer = trq_check::thread::spawn(move || {
            let (flag, cv) = &*p2;
            *flag.lock().unwrap() = true;
            f2.store(true, Ordering::SeqCst);
            cv.notify_one();
        });
        // BUG (deliberate): test-then-wait without holding the mutex
        // across the test. If the producer's notify fires between the
        // load and the wait, the wakeup is lost.
        let (flag, cv) = &*pair;
        if !flag_set.load(Ordering::SeqCst) {
            let guard = flag.lock().unwrap();
            let guard = cv.wait(guard).unwrap();
            assert!(*guard);
        }
        producer.join().unwrap();
    });
    let failure = report.failure.expect("seeded lost wakeup was NOT caught");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock(_)),
        "expected deadlock, got: {}",
        failure.kind
    );
    println!("lost wakeup caught on schedule {} of {}", failure.schedule, report.schedules);
    println!("{}", failure.trace);
}

/// A classic ABBA lock-order inversion is caught as a deadlock.
#[test]
fn abba_deadlock_is_caught() {
    let report = explore(Config::default(), || {
        let a = Arc::new(Mutex::new(0_u32));
        let b = Arc::new(Mutex::new(0_u32));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = trq_check::thread::spawn(move || {
            let ga = a2.lock().unwrap();
            let gb = b2.lock().unwrap();
            drop((ga, gb));
        });
        let gb = b.lock().unwrap();
        let ga = a.lock().unwrap();
        drop((gb, ga));
        t.join().unwrap();
    });
    let failure = report.failure.expect("ABBA deadlock was NOT caught");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock(_)),
        "expected deadlock, got: {}",
        failure.kind
    );
}

/// An assertion that only fails under one interleaving (unsynchronised
/// check-then-act on an atomic) is caught as a panic.
#[test]
fn racy_assertion_is_caught() {
    let report = explore(Config::default(), || {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let t = trq_check::thread::spawn(move || {
            // non-atomic read-modify-write: load then store
            let v = n2.load(Ordering::SeqCst);
            n2.store(v + 1, Ordering::SeqCst);
        });
        let v = n.load(Ordering::SeqCst);
        n.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    });
    let failure = report.failure.expect("racy assertion was NOT caught");
    assert!(matches!(failure.kind, FailureKind::Panic(_)), "expected panic, got: {}", failure.kind);
}

/// The same race, fixed with `fetch_add`, verifies exhaustively — the
/// checker separates the buggy protocol from the correct one.
#[test]
fn fetch_add_fixes_the_race() {
    let report = explore(Config::default(), || {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let t = trq_check::thread::spawn(move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        n.fetch_add(1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 2);
    });
    assert!(report.failure.is_none(), "correct counter flagged: {report}");
    assert!(report.complete);
}

/// The explorer visits genuinely different interleavings: with two
/// unsynchronised writers racing to store distinct values, both final
/// values are observed across the exploration.
#[test]
fn exploration_covers_both_write_orders() {
    use std::collections::BTreeSet;
    use std::sync::Mutex as StdMutex;
    // Ambient accumulation across schedules is fine as long as it never
    // influences the model's control flow (determinism requirement).
    let seen = Arc::new(StdMutex::new(BTreeSet::new()));
    let seen2 = Arc::clone(&seen);
    let report = explore(Config::default(), move || {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let t = trq_check::thread::spawn(move || {
            n2.store(1, Ordering::SeqCst);
        });
        n.store(2, Ordering::SeqCst);
        t.join().unwrap();
        seen2.lock().unwrap().insert(n.load(Ordering::SeqCst));
    });
    assert!(report.failure.is_none(), "{report}");
    assert!(report.complete);
    let seen = seen.lock().unwrap();
    assert_eq!(*seen, BTreeSet::from([1, 2]), "both write orders should be observed, saw {seen:?}");
}

/// `notify_one` with several waiters explores every choice of which
/// waiter wakes: with two waiters and two notifies, both waiters get out
/// in every schedule (no waiter starves in a complete exploration).
#[test]
fn notify_one_explores_waiter_choices() {
    let report = explore(Config::default(), || {
        let pair = Arc::new((Mutex::new(0_u32), Condvar::new()));
        let mut waiters = Vec::new();
        for _ in 0..2 {
            let p = Arc::clone(&pair);
            waiters.push(trq_check::thread::spawn(move || {
                let (tokens, cv) = &*p;
                let mut g = tokens.lock().unwrap();
                while *g == 0 {
                    g = cv.wait(g).unwrap();
                }
                *g -= 1;
            }));
        }
        let (tokens, cv) = &*pair;
        for _ in 0..2 {
            *tokens.lock().unwrap() += 1;
            cv.notify_one();
        }
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*tokens.lock().unwrap(), 0);
    });
    assert!(report.failure.is_none(), "two-waiter token protocol flagged: {report}");
    assert!(report.complete);
}

/// `wait_timeout` waiters can always be timeout-woken, so a wait with no
/// matching notify is *not* a deadlock — it resumes with `timed_out()`.
#[test]
fn wait_timeout_never_deadlocks() {
    let report = explore(Config::default(), || {
        let pair = (Mutex::new(()), Condvar::new());
        let g = pair.0.lock().unwrap();
        let (g, res) = pair.1.wait_timeout(g, std::time::Duration::from_millis(5)).unwrap();
        assert!(res.timed_out(), "nobody notifies, so the only exit is a timeout");
        drop(g);
    });
    assert!(report.failure.is_none(), "{report}");
    assert!(report.complete);
}

/// A preemption bound of 0 still runs to completion (hand-offs at
/// blocking points are free) and explores no more schedules than the
/// default bound of 2.
#[test]
fn preemption_bound_monotonicity() {
    let model = || {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let t = trq_check::thread::spawn(move || {
            n2.fetch_add(1, Ordering::SeqCst);
            n2.fetch_add(1, Ordering::SeqCst);
        });
        n.fetch_add(1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 3);
    };
    let r0 = explore(Config::default().with_preemption_bound(Some(0)), model);
    let r2 = explore(Config::default(), model);
    assert!(r0.failure.is_none() && r0.complete, "{r0}");
    assert!(r2.failure.is_none() && r2.complete, "{r2}");
    assert!(
        r0.schedules <= r2.schedules,
        "bound 0 explored {} > bound 2's {}",
        r0.schedules,
        r2.schedules
    );
    assert!(r2.schedules > r0.schedules, "raising the bound should add interleavings");
}

/// The logical clock is deterministic and monotonic; `Instant` arithmetic
/// mirrors std's saturating and checked behaviour.
#[test]
fn logical_clock_behaviour() {
    let report = explore(Config::default(), || {
        let t0 = trq_check::time::Instant::now();
        let t1 = trq_check::time::Instant::now();
        assert!(t1 > t0);
        assert_eq!(t1.saturating_duration_since(t0), std::time::Duration::from_nanos(1));
        assert_eq!(t0.saturating_duration_since(t1), std::time::Duration::ZERO);
        assert!(t0 + std::time::Duration::from_secs(1) > t1);
        assert_eq!(t0.checked_add(std::time::Duration::from_nanos(1)), Some(t1));
        assert_eq!(t0.checked_add(std::time::Duration::MAX), None);
    });
    assert!(report.failure.is_none(), "{report}");
}

/// The schedule cap stops a too-large exploration and reports incomplete
/// rather than hanging.
#[test]
fn schedule_cap_reports_incomplete() {
    let report =
        explore(Config::default().with_max_schedules(3).with_preemption_bound(None), || {
            let n = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..3 {
                let n2 = Arc::clone(&n);
                handles.push(trq_check::thread::spawn(move || {
                    n2.fetch_add(1, Ordering::SeqCst);
                    n2.fetch_add(1, Ordering::SeqCst);
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
    assert!(report.failure.is_none(), "{report}");
    assert!(!report.complete, "3-thread unbounded DFS cannot finish in 3 schedules");
    assert_eq!(report.schedules, 3);
}

/// `model()` panics with the rendered failing schedule on a bug, so test
/// suites can use it assert-style.
#[test]
fn model_panics_on_failure() {
    let result = std::panic::catch_unwind(|| {
        trq_check::model(|| {
            let a = Arc::new(Mutex::new(0_u32));
            let b = Arc::new(Mutex::new(0_u32));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = trq_check::thread::spawn(move || {
                let ga = a2.lock().unwrap();
                let gb = b2.lock().unwrap();
                drop((ga, gb));
            });
            let gb = b.lock().unwrap();
            let ga = a.lock().unwrap();
            drop((gb, ga));
            t.join().unwrap();
        });
    });
    assert!(result.is_err(), "model() should panic on a deadlocking model");
}

/// Stops a helper thread in `Drop` the way `Server::drop` stops its
/// batcher: a flag set under a checked mutex, a notify of the condvar the
/// helper waits on, and a join.
struct Stopper {
    state: Arc<(Mutex<bool>, Condvar)>,
    helper: Option<trq_check::thread::JoinHandle<()>>,
}

impl Stopper {
    fn start() -> Stopper {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = Arc::clone(&state);
        let helper = trq_check::thread::spawn(move || {
            let (stop, cv) = &*s2;
            let mut stopped = stop.lock().unwrap();
            while !*stopped {
                stopped = cv.wait(stopped).unwrap();
            }
        });
        Stopper { state, helper: Some(helper) }
    }
}

impl Drop for Stopper {
    fn drop(&mut self) {
        let (stop, cv) = &*self.state;
        *stop.lock().unwrap() = true;
        cv.notify_all();
        if let Some(helper) = self.helper.take() {
            let _ = helper.join();
        }
    }
}

/// A spawned thread's failed assertion tears the execution down, and
/// another thread unwinds out of it through a `Stopper`. Its lock, notify
/// and join must not panic a second time (which aborts the whole test
/// binary): the assertion is reported as the failure.
#[test]
fn stopper_unwinding_through_teardown_reports_the_panic() {
    let report = explore(Config::default(), || {
        let _stopper = Stopper::start();
        let t = trq_check::thread::spawn(|| assert_eq!(1 + 1, 3, "seeded failure"));
        let _ = t.join();
    });
    let failure = report.failure.expect("seeded assertion was NOT caught");
    match failure.kind {
        FailureKind::Panic(msg) => assert!(msg.contains("seeded failure"), "{msg}"),
        other => panic!("expected panic, got: {other}"),
    }
}

/// The panicking thread's own unwind stops a helper that is still
/// running: it cannot wait for it at a decision point, so the execution
/// fails as a panic, reported with the panic's message, and the helper
/// unwinds.
#[test]
fn stopper_in_a_panicking_thread_reports_the_panic() {
    let report = explore(Config::default(), || {
        let t = trq_check::thread::spawn(|| {
            let _stopper = Stopper::start();
            panic!("seeded failure");
        });
        let _ = t.join();
    });
    let failure = report.failure.expect("seeded panic was NOT caught");
    match failure.kind {
        FailureKind::Panic(msg) => assert!(msg.contains("(seeded failure)"), "{msg}"),
        other => panic!("expected panic, got: {other}"),
    }
}

/// The panicking thread's own unwind locks a mutex another thread holds:
/// the execution fails as a panic, and the holder unwinds and releases
/// the lock.
#[test]
fn lock_held_elsewhere_in_a_panicking_thread_reports_the_panic() {
    let report = explore(Config::default(), || {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let guard = state.0.lock().unwrap();
        let s2 = Arc::clone(&state);
        let t = trq_check::thread::spawn(move || {
            let _stopper = Stopper { state: s2, helper: None };
            panic!("seeded failure");
        });
        let _ = t.join();
        drop(guard);
    });
    let failure = report.failure.expect("seeded panic was NOT caught");
    assert!(matches!(failure.kind, FailureKind::Panic(_)), "expected panic, got: {}", failure.kind);
}
