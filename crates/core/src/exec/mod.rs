//! Persistent fork-join executor for the simulation hot paths.
//!
//! Spawning and joining threads on **every** `mvm_into` call costs more
//! than the work on the small layers (fully-connected layers, 1×1
//! convolutions) that make up most of a network's call count. [`Pool`]
//! amortises that fixed cost the same way the paper amortises
//! per-conversion ADC cost: pay it once, reuse it for every subsequent
//! invocation. Workers are spawned on first demand, then
//! park on a condvar between jobs; dispatching a job is a mutex hand-off
//! and a wakeup, with **no heap allocation** on the caller or the workers.
//!
//! The job model is deliberately minimal — a *fork-join round*: the caller
//! brings a `Fn(usize) + Sync` and a participant count `k`, the closure
//! runs once for every participant index in `0..k` (index 0 on the calling
//! thread, the rest on parked workers), and [`Pool::run`] returns only when
//! all participants have finished. Work distribution *within* a round
//! (e.g. claiming tiles from an atomic counter) is the closure's business.
//! Passing `&dyn Fn` keeps dispatch allocation-free — there is no boxed
//! task queue to feed.
//!
//! Rounds never nest on the same pool: if the single job slot is already
//! occupied — a nested call from inside a running round, or a concurrent
//! engine on another thread — the round degrades to running every
//! participant index inline on the current thread. Participant indices are
//! a partition of work, never a parallelism guarantee, so this preserves
//! results exactly (the engines built on top are bit-identical for every
//! thread count by construction) and makes deadlock impossible.

use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(not(trq_check))]
use std::sync::OnceLock;
use std::sync::{Arc, PoisonError};

use crate::sync::{thread, Condvar, Mutex};

/// A lifetime-erased pointer to the round's job closure.
///
/// Only ever dereferenced between publication in [`Pool::run`] and the
/// round's completion, which `run` blocks on before returning — so the
/// pointee outlives every use even though the type says `'static`.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: sending the raw closure pointer to worker threads is sound
// because of the *round barrier* invariant, which has three legs:
//
//   1. Publication: `Pool::run` stores the pointer into the job slot
//      while holding the state lock, then wakes workers; the pointee is a
//      stack-borrowed closure in the caller's frame.
//   2. Use: workers dereference it only for participant indices claimed
//      from the same state lock, and every claim is balanced by a
//      `remaining -= 1` after the call returns (or unwinds — the
//      decrement runs either way via the `catch_unwind` in
//      `worker_loop`).
//   3. Barrier: `Pool::run` does not return — and therefore the
//      caller's frame, and the closure in it, cannot be invalidated —
//      until it has observed `remaining == 0` under the state lock,
//      after which the job slot is cleared so no later claim can see a
//      dangling pointer.
//
// The closure is `Sync`, so concurrent shared calls from many workers
// are fine. This protocol is model-checked: `trq-check-tests` runs the
// real pool under the trq-check scheduler and asserts that no
// interleaving lets a participant run after `run` returns
// (`pool_round_barrier_holds`), and that worker claim/park never loses a
// wakeup (`pool_round_completes_and_reuses_workers`).
#[allow(unsafe_code)]
unsafe impl Send for JobPtr {}

struct State {
    /// The in-flight round's job; `None` when the pool is idle.
    job: Option<JobPtr>,
    /// Total participants of the round, including the caller (index 0).
    participants: usize,
    /// Worker participant indices handed out so far (`1..participants`).
    claimed: usize,
    /// Participants that have not yet finished the round.
    remaining: usize,
    /// A participant panicked during the round.
    panicked: bool,
    /// Workers must exit.
    shutdown: bool,
    /// Worker threads spawned so far.
    workers: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between rounds.
    work: Condvar,
    /// The caller parks here until `remaining == 0`.
    done: Condvar,
}

/// A persistent worker pool executing fork-join rounds (see the module
/// docs). Create one with [`Pool::new`] or share the process-wide instance
/// from [`Pool::global`]; threads are spawned lazily on first demand and
/// parked — never respawned — between rounds.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Pool {
    /// Creates an empty pool; workers are spawned on first demand.
    pub fn new() -> Self {
        Pool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    job: None,
                    participants: 0,
                    claimed: 0,
                    remaining: 0,
                    panicked: false,
                    shutdown: false,
                    workers: 0,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide pool. Everything that wants to share threads —
    /// MVM engines, calibration sharding, plan evaluation — uses this by
    /// default, so thread spawn cost is paid once per process.
    #[cfg(not(trq_check))]
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(Pool::new)
    }

    /// Under the model checker a process-wide pool cannot exist: its
    /// worker threads would leak across executions and wreck schedule
    /// replay. Models construct short-lived pools with [`Pool::new`].
    #[cfg(trq_check)]
    pub fn global() -> &'static Pool {
        panic!(
            "Pool::global() is unavailable under --cfg trq_check: a 'static pool would leak \
             simulated threads across executions; build the model around Pool::new() instead"
        )
    }

    /// Worker threads spawned so far.
    pub fn workers(&self) -> usize {
        self.shared.state.lock().unwrap_or_else(PoisonError::into_inner).workers
    }

    /// Ensures at least `participants - 1` workers exist, so a following
    /// [`Pool::run`] with that participant count pays no spawn cost.
    /// Called by engines at session start.
    pub fn warm(&self, participants: usize) {
        let mut st = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.spawn_up_to(&mut st, participants.saturating_sub(1));
    }

    fn spawn_up_to(&self, st: &mut State, workers: usize) {
        while st.workers < workers {
            st.workers += 1;
            let shared = Arc::clone(&self.shared);
            let handle = thread::Builder::new()
                .name(format!("trq-pool-{}", st.workers))
                .spawn(move || worker_loop(&shared))
                // lint: allow(unwrap): OS thread-spawn failure during pool
                // construction is unrecoverable — panic is the contract
                .expect("spawn pool worker");
            self.handles.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
        }
    }

    /// Runs one fork-join round: `job(i)` for every `i in 0..participants`,
    /// index 0 on the calling thread and the rest on parked workers.
    /// Returns when all participants have finished. Steady-state dispatch
    /// performs no heap allocation.
    ///
    /// If the pool is busy (a nested call from inside a round, or a
    /// concurrent round from another thread), every index runs inline on
    /// the calling thread instead — same results, no deadlock.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any participant after the round completes.
    pub fn run(&self, participants: usize, job: &(dyn Fn(usize) + Sync)) {
        let participants = participants.max(1);
        if participants == 1 {
            job(0);
            return;
        }
        let mut st = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.job.is_some() {
            drop(st);
            for i in 0..participants {
                job(i);
            }
            return;
        }
        self.spawn_up_to(&mut st, participants - 1);
        // SAFETY: leg 3 of the round-barrier invariant (see `JobPtr`).
        // The erased `'static` is a lie the barrier makes true: this
        // frame publishes the pointer below and then cannot return until
        // the `remaining == 0` wait further down has completed, at which
        // point `st.job` has been reset to `None` under the same lock —
        // so every dereference in `worker_loop` happens while this
        // borrow of `job` is still live. Model-checked in
        // `trq-check-tests::pool_round_barrier_holds`.
        #[allow(unsafe_code)]
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        st.job = Some(JobPtr(erased));
        st.participants = participants;
        st.claimed = 0;
        st.remaining = participants;
        st.panicked = false;
        drop(st);
        self.shared.work.notify_all();

        // the caller is participant 0
        let ok = catch_unwind(AssertUnwindSafe(|| job(0))).is_ok();

        let mut st = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !ok {
            st.panicked = true;
        }
        st.remaining -= 1;
        while st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
        if panicked {
            panic!("pool participant panicked");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.lock().unwrap_or_else(PoisonError::into_inner).drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if st.shutdown {
            return;
        }
        // claim a participant index of the in-flight round, if any remain
        let claim = match st.job {
            Some(job) if st.claimed + 1 < st.participants => {
                st.claimed += 1;
                Some((job, st.claimed))
            }
            _ => None,
        };
        match claim {
            Some((job, idx)) => {
                debug_assert!(idx >= 1 && idx < st.participants, "worker index out of round");
                drop(st);
                // SAFETY: leg 2 of the round-barrier invariant (see
                // `JobPtr`): this claim was counted in `remaining`, and
                // `Pool::run` cannot observe `remaining == 0` — the only
                // thing that lets the closure's frame die — until the
                // decrement below, which runs after the call whether it
                // returns or unwinds.
                #[allow(unsafe_code)]
                let ok = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(idx) })).is_ok();
                st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
                if !ok {
                    st.panicked = true;
                }
                st.remaining -= 1;
                if st.remaining == 0 {
                    shared.done.notify_all();
                }
            }
            None => {
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

// Unit tests run the pool on the real OS scheduler, so they are gated out
// of `--cfg trq_check` builds (where every sync op requires a driving
// model); the model-checked equivalents live in `trq-check-tests`.
#[cfg(all(test, not(trq_check)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_visits_every_participant_exactly_once() {
        let pool = Pool::new();
        for participants in [1usize, 2, 4, 7] {
            let hits: Vec<AtomicUsize> = (0..participants).map(|_| AtomicUsize::new(0)).collect();
            pool.run(participants, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "participant {i} of {participants}");
            }
        }
    }

    #[test]
    fn workers_are_spawned_once_and_reused() {
        let pool = Pool::new();
        assert_eq!(pool.workers(), 0);
        pool.run(4, &|_| {});
        assert_eq!(pool.workers(), 3);
        for _ in 0..50 {
            pool.run(4, &|_| {});
        }
        assert_eq!(pool.workers(), 3, "rounds must reuse parked workers");
        pool.run(2, &|_| {});
        assert_eq!(pool.workers(), 3, "smaller rounds never shrink the pool");
    }

    #[test]
    fn warm_pre_spawns_workers() {
        let pool = Pool::new();
        pool.warm(5);
        assert_eq!(pool.workers(), 4);
        pool.warm(3);
        assert_eq!(pool.workers(), 4);
    }

    #[test]
    fn rounds_fork_join_correct_sums() {
        // each participant sums a strided share; the join must see all of it
        let pool = Pool::new();
        let n = 10_000u64;
        for threads in [1usize, 2, 4] {
            let parts: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            pool.run(threads, &|w| {
                let mut s = 0usize;
                let mut i = w as u64;
                while i < n {
                    s += i as usize;
                    i += threads as u64;
                }
                parts[w].store(s, Ordering::Relaxed);
            });
            let total: usize = parts.iter().map(|p| p.load(Ordering::Relaxed)).sum();
            assert_eq!(total as u64, n * (n - 1) / 2);
        }
    }

    #[test]
    fn nested_rounds_degrade_to_inline_without_deadlock() {
        let pool = Pool::new();
        let inner_hits = AtomicUsize::new(0);
        pool.run(2, &|_| {
            // nested round: the job slot is occupied, so this must run
            // inline on the current participant's thread
            pool.run(3, &|_| {
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_hits.load(Ordering::Relaxed), 6, "2 outer × 3 inline inner");
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = Pool::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, &|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "participant panic must reach the caller");
        // the pool must remain usable after a panicked round
        let hits = AtomicUsize::new(0);
        pool.run(3, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = Pool::global() as *const Pool;
        let b = Pool::global() as *const Pool;
        assert_eq!(a, b);
        Pool::global().run(2, &|_| {});
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::new();
        pool.run(4, &|_| {});
        drop(pool); // must not hang
    }
}
