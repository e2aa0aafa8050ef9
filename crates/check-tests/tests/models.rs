//! Model-checked protocols: the real `trq-core::exec::Pool` and
//! `trq-serve::Server` state machines driven through every interleaving
//! the `trq-check` bounded-DFS scheduler can reach (preemption bound 2,
//! the `Config::default`). Empty without `RUSTFLAGS='--cfg trq_check'`.
#![cfg(trq_check)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use trq_check::sync::{Condvar, Mutex};
use trq_check::{explore, Config};
use trq_core::exec::Pool;
use trq_core::pim::PimStats;
use trq_nn::NnError;
use trq_serve::{BatchPolicy, ModelId, QuarantinePolicy, ServeError, Server, Ticket};
use trq_tensor::Tensor;

fn assert_exhaustive(name: &str, report: &trq_check::Report) {
    assert!(report.failure.is_none(), "{name}: {report}");
    assert!(report.complete, "{name} did not exhaust: {report}");
    assert!(report.schedules > 1, "{name}: trivial exploration");
    println!("{name}: exhaustively verified over {} schedules", report.schedules);
}

/// Pool park/notify protocol: a worker parks on the `work` condvar
/// between rounds; dispatch is a job-slot publication plus `notify_all`.
/// No interleaving may lose that wakeup (the round would hang — reported
/// as a deadlock), and a parked worker must be reusable by a second
/// round. Participant counting is checked with plain `std` atomics (data,
/// not decision points).
#[test]
fn pool_round_completes_and_reuses_workers() {
    let report = explore(Config::default(), || {
        let pool = Pool::new();
        for round in 0..2u8 {
            let hits = [AtomicUsize::new(0), AtomicUsize::new(0)];
            pool.run(2, &|i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "round {round} participant {i}");
            }
        }
        assert_eq!(pool.workers(), 1, "second round must reuse the parked worker");
        // Pool::drop: shutdown broadcast + join — no schedule may hang it
    });
    assert_exhaustive("pool park/notify", &report);
}

/// The round barrier of `Pool::run` (the invariant both `unsafe` blocks
/// in `trq-core::exec` stand on): once `run` returns, no participant can
/// still be inside the job closure — under any interleaving. The closure
/// asserts the post-round flag is unset; the caller sets it immediately
/// after `run` returns. A schedule in which a worker's claim could
/// straggle past the barrier would trip the assert and fail exploration.
#[test]
fn pool_round_barrier_holds() {
    let report = explore(Config::default(), || {
        let pool = Pool::new();
        let after = AtomicBool::new(false);
        pool.run(2, &|_| {
            assert!(
                !after.load(Ordering::SeqCst),
                "participant ran after Pool::run returned — round barrier violated"
            );
        });
        after.store(true, Ordering::SeqCst);
    });
    assert_exhaustive("pool round barrier", &report);
}

/// A 1-element image; the echo backends answer with it, so the tag
/// identifies the request a response belongs to.
fn image(tag: f32) -> Tensor {
    Tensor::from_vec(vec![1], vec![tag]).expect("1-element tensor")
}

/// Minimal-state-space policy for serve models: single-request batches
/// and quarantine disabled unless a model needs it. The batcher makes no
/// timed wait, so every model drives its whole batch-formation path;
/// the coalescing model raises `max_batch` to 2.
fn model_policy() -> BatchPolicy {
    BatchPolicy::default()
        .with_max_batch(1)
        .with_queue_cap(2)
        .with_quarantine(QuarantinePolicy::disabled())
}

/// Shutdown racing a submit: whatever order the scheduler picks, a
/// submitter either gets `ShuttingDown` at the gate or a ticket that
/// resolves exactly once — served, or failed with a typed drain error.
/// "Exactly once" is enforced by the `trq_check`-only double-resolution
/// assert in `TicketShared::complete`; "at least once" by the checker
/// itself (an unresolved ticket leaves the waiter parked — a deadlock).
/// The outcome is checked after the server drops, so a failure reports
/// its schedule instead of unwinding through the batcher's join.
#[test]
fn serve_shutdown_vs_submit_resolves_every_ticket_once() {
    let report = explore(Config::default(), || {
        let server = Arc::new(Server::with_worker(model_policy(), |source| {
            source.serve(|_model: ModelId, images: &[Tensor]| {
                Ok((images.to_vec(), PimStats::default()))
            })
        }));
        let s2 = Arc::clone(&server);
        let submitter = trq_check::thread::spawn(move || {
            s2.submit(ModelId::new(0), image(1.0)).map(Ticket::wait)
        });
        server.begin_shutdown();
        let outcome = submitter.join().expect("submitter must not panic");
        // Server::drop joins the batcher; no schedule may hang it
        drop(server);
        match outcome {
            Err(refused) => assert!(
                matches!(refused, ServeError::ShuttingDown),
                "pre-queue refusal must be the shutdown gate, got {refused:?}"
            ),
            Ok(Ok(response)) => assert_eq!(response.batch_size, 1),
            Ok(Err(err)) => assert!(
                matches!(err, ServeError::WorkerLost | ServeError::ShuttingDown),
                "a queued ticket may only fail with a drain error, got {err:?}"
            ),
        }
    });
    assert_exhaustive("serve shutdown-vs-submit", &report);
}

/// Quarantine ordering: `note_outcome` must run *before* the failed
/// batch's tickets complete, so a waiter that observes the failure and
/// immediately resubmits deterministically hits the `ModelQuarantined`
/// gate (threshold 1, backoff far beyond the model's logical clock). If
/// the trip ever moved after ticket completion, some interleaving would
/// let the resubmit slip back into the queue and this model would fail.
#[test]
fn serve_quarantine_trips_before_ticket_completion() {
    let report = explore(Config::default(), || {
        let policy = model_policy().with_quarantine(
            QuarantinePolicy::disabled().with_threshold(1).with_backoff(
                Duration::from_secs(3600),
                2,
                Duration::from_secs(3600),
            ),
        );
        let server = Server::with_worker(policy, |source| {
            source.serve(|_model: ModelId, _images: &[Tensor]| {
                Err(NnError::BadGraph { reason: "seeded batch failure".into() })
            })
        });
        let m = ModelId::new(0);
        let first = server.submit(m, image(1.0)).map(Ticket::wait);
        // the failure has been observed -> the trip must already be in place
        let resubmit = server.submit(m, image(1.0));
        // checked after the server drops, so a failure reports its
        // schedule instead of unwinding through the batcher's join
        drop(server);
        assert!(
            matches!(first, Ok(Err(ServeError::Forward(_)))),
            "the seeded failure must surface as Forward, got {first:?}"
        );
        assert!(
            matches!(resubmit, Err(ServeError::ModelQuarantined(id)) if id == m),
            "resubmit after an observed failure must hit the quarantine gate, got {resubmit:?}"
        );
    });
    assert_exhaustive("serve quarantine probe ordering", &report);
}

/// Coalescing racing shutdown at `max_batch` 2: requests 1 and 2 queue
/// while request 0's batch runs. Every admitted ticket is served exactly
/// once, no batch exceeds 2, slot `i` answers request `i` (the echo
/// carries its tag), and a refusal is the shutdown gate. Outcomes are
/// checked after the server drops, so a failure reports its schedule
/// instead of unwinding through the batcher's join.
#[test]
fn serve_coalescing_answers_every_slot_once() {
    static SAW_PAIR: AtomicBool = AtomicBool::new(false);
    let report = explore(Config::default(), || {
        let policy = model_policy().with_max_batch(2).with_queue_cap(3);
        let server = Arc::new(Server::with_worker(policy, |source| {
            source.serve(|_model: ModelId, images: &[Tensor]| {
                if images.len() == 2 {
                    SAW_PAIR.store(true, Ordering::SeqCst);
                }
                Ok((images.to_vec(), PimStats::default()))
            })
        }));
        let m = ModelId::new(0);
        let first = server.submit(m, image(0.0)).expect("intake is open before shutdown");
        let s2 = Arc::clone(&server);
        let submitter = trq_check::thread::spawn(move || {
            // submit both, then wait both, so they can share a batch
            let tickets = [1.0, 2.0].map(|tag| (tag, s2.submit(m, image(tag))));
            tickets.map(|(tag, ticket)| (tag, ticket.map(Ticket::wait)))
        });
        server.begin_shutdown();
        let mut outcomes = vec![(0.0, Ok(first.wait()))];
        outcomes.extend(submitter.join().expect("submitter must not panic"));
        drop(server);
        for (tag, outcome) in outcomes {
            match outcome {
                Err(refused) => assert!(
                    matches!(refused, ServeError::ShuttingDown),
                    "pre-queue refusal must be the shutdown gate, got {refused:?}"
                ),
                Ok(result) => {
                    let response = result.expect("an admitted request is served by the drain");
                    assert!(response.batch_size <= 2, "batch of {} > 2", response.batch_size);
                    assert_eq!(response.output.data(), &[tag], "slot answered another request");
                }
            }
        }
    });
    assert_exhaustive("serve coalescing", &report);
    assert!(SAW_PAIR.load(Ordering::SeqCst), "no explored schedule formed a batch of 2");
}

/// A queued ticket swept by its deadline: request 1 (deadline 100 logical
/// nanoseconds) queues behind request 0's batch, which holds the engine
/// until request 1 is submitted and then reads the logical clock 1 000
/// times, so the clock passes request 1's deadline before its batch can
/// start. Under every interleaving the batcher's sweep must resolve it
/// exactly once as `DeadlineExceeded` (an unresolved ticket leaves its
/// waiter parked — a deadlock), count it in `deadline_expired`, and still
/// serve requests 0 and 2. Outcomes are checked after the server shuts
/// down, so a failure reports its schedule instead of unwinding through
/// the batcher's join.
#[test]
fn serve_sweeps_an_expired_queued_ticket_once() {
    let report = explore(Config::default(), || {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let held = Arc::clone(&gate);
        let policy = model_policy().with_queue_cap(3);
        let server = Server::with_worker(policy, move |source| {
            source.serve(move |_model: ModelId, images: &[Tensor]| {
                if images[0].data() == [0.0] {
                    let (queued, cv) = &*held;
                    let mut queued = queued.lock().expect("gate lock");
                    while !*queued {
                        queued = cv.wait(queued).expect("gate lock");
                    }
                    drop(queued);
                    for _ in 0..1_000 {
                        trq_check::time::Instant::now();
                    }
                }
                Ok((images.to_vec(), PimStats::default()))
            })
        });
        let m = ModelId::new(0);
        let first = server.submit(m, image(0.0)).expect("intake is open");
        let doomed = server
            .submit_with_deadline(m, image(1.0), Duration::from_nanos(100))
            .expect("the queue has room");
        let (queued, cv) = &*gate;
        *queued.lock().expect("gate lock") = true;
        cv.notify_all();
        let last = server.submit(m, image(2.0)).expect("the queue has room");
        let outcomes = [first.wait(), doomed.wait(), last.wait()];
        let report = server.shutdown();
        let [first, doomed, last] = outcomes;
        assert_eq!(first.expect("request 0 is served").output.data(), &[0.0]);
        assert!(
            matches!(doomed, Err(ServeError::DeadlineExceeded)),
            "the queued request outlived its deadline, got {doomed:?}"
        );
        assert_eq!(last.expect("request 2 is served").output.data(), &[2.0]);
        assert_eq!(report.deadline_expired, 1, "{report:?}");
        assert_eq!(report.requests, 2, "{report:?}");
    });
    assert_exhaustive("serve deadline sweep", &report);
}

/// A queued ticket refused under quarantine: request 1 queues behind
/// request 0's batch, which holds the engine until request 1 is submitted
/// and then fails, tripping quarantine (threshold 1, backoff far beyond
/// the model's logical clock). Under every interleaving the batcher's
/// sweep must resolve request 1 exactly once as `ModelQuarantined` (an
/// unresolved ticket leaves its waiter parked — a deadlock) and count it
/// in `quarantine_refused`. Outcomes are checked after the server shuts
/// down, so a failure reports its schedule instead of unwinding through
/// the batcher's join.
#[test]
fn serve_refuses_a_queued_ticket_under_quarantine_once() {
    let report = explore(Config::default(), || {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let held = Arc::clone(&gate);
        let policy = model_policy().with_quarantine(
            QuarantinePolicy::disabled().with_threshold(1).with_backoff(
                Duration::from_secs(3600),
                2,
                Duration::from_secs(3600),
            ),
        );
        let server = Server::with_worker(policy, move |source| {
            source.serve(move |_model: ModelId, _images: &[Tensor]| {
                let (queued, cv) = &*held;
                let mut queued = queued.lock().expect("gate lock");
                while !*queued {
                    queued = cv.wait(queued).expect("gate lock");
                }
                Err(NnError::BadGraph { reason: "seeded batch failure".into() })
            })
        });
        let m = ModelId::new(0);
        let first = server.submit(m, image(0.0)).expect("intake is open");
        let queued = server.submit(m, image(1.0)).expect("the queue has room");
        let (flag, cv) = &*gate;
        *flag.lock().expect("gate lock") = true;
        cv.notify_all();
        let outcomes = [first.wait(), queued.wait()];
        let report = server.shutdown();
        let [first, queued] = outcomes;
        assert!(
            matches!(first, Err(ServeError::Forward(_))),
            "the seeded failure must surface as Forward, got {first:?}"
        );
        assert!(
            matches!(queued, Err(ServeError::ModelQuarantined(id)) if id == m),
            "the queued request must be refused by the quarantine sweep, got {queued:?}"
        );
        assert_eq!(report.quarantine_refused, 1, "{report:?}");
        assert_eq!(report.quarantine_trips, 1, "{report:?}");
    });
    assert_exhaustive("serve quarantine sweep", &report);
}
