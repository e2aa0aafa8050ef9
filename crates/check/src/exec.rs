//! The deterministic explorer core: one schedule = one *execution* of the
//! model closure in which every inter-thread interaction is serialised and
//! every scheduling decision is recorded as a [`Branch`]. The explorer in
//! `lib.rs` replays recorded prefixes and flips the last undecided branch,
//! walking the whole interleaving tree depth-first.
//!
//! Mechanics: simulated threads are real OS threads, but at most one is
//! ever *active*. Every shim operation (`sync`, `thread`, `time`) calls
//! into [`ThreadCtx`], which takes the execution lock, bumps the step
//! counter, enumerates the runnable candidates, consults the replay path
//! (or extends it), hands the baton to the chosen thread, and parks the
//! caller until the baton comes back. Blocking operations park without
//! offering the caller as a candidate; wakers flip blocked threads back to
//! [`Status::Runnable`] and the next decision point may pick them up.
//!
//! Failure handling: the active thread that detects a failure (deadlock,
//! assertion panic, step-limit livelock, replay divergence) records it,
//! flips `aborting`, and wakes everyone. Parked threads unwind with the
//! private [`AbortExecution`] payload; shim drop-paths become silent
//! no-ops while unwinding so teardown can never double-panic.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};

use crate::{Config, Failure, FailureKind};

/// A simulated thread id; tid 0 is the model closure itself.
pub(crate) type Tid = usize;

/// Panic payload used to unwind simulated threads during teardown. Never
/// reported as a model failure.
pub(crate) struct AbortExecution;

/// Where a simulated thread currently stands with the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// May be chosen at the next decision point.
    Runnable,
    /// Parked until the mutex with this object id is released.
    BlockedMutex(u64),
    /// Parked on the condvar with this object id; timed waiters may also
    /// be woken by the scheduler as a spurious/timeout wakeup.
    BlockedCond {
        /// Condvar object id.
        cv: u64,
        /// Whether this is a `wait_timeout` (timeout wakeups allowed).
        timed: bool,
    },
    /// Parked until the named thread finishes.
    BlockedJoin(Tid),
    /// The thread's closure returned (or unwound) and bookkeeping ran.
    Finished,
}

/// How a woken thread should interpret its wakeup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// Woken by the modelled protocol (notify, unlock, join target done).
    Normal,
    /// A timed condvar wait was woken by the scheduler as a timeout.
    TimedOut,
}

pub(crate) struct ThreadSt {
    pub(crate) status: Status,
    pub(crate) resume: Resume,
    pub(crate) name: String,
}

/// One recorded scheduling decision: `options` candidates existed, index
/// `chosen` was taken. The explorer backtracks by bumping `chosen` on the
/// deepest branch with unexplored options.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Branch {
    pub(crate) options: usize,
    pub(crate) chosen: usize,
}

/// One trace entry: acting thread, operation label, thread handed the
/// baton.
pub(crate) type TraceEntry = (Tid, &'static str, Tid);

pub(crate) struct ExecState {
    pub(crate) threads: Vec<ThreadSt>,
    pub(crate) active: Tid,
    /// Threads not yet `Finished` (the root counts).
    pub(crate) live: usize,
    pub(crate) aborting: bool,
    pub(crate) failure: Option<Failure>,
    pub(crate) steps: usize,
    pub(crate) preemptions: usize,
    /// Cursor into `path` for replay/extension.
    pub(crate) depth: usize,
    pub(crate) path: Vec<Branch>,
    pub(crate) trace: Vec<TraceEntry>,
    /// Logical clock backing the `time::Instant` shim (nanosecond ticks).
    pub(crate) clock: u64,
    /// Object-id source for mutexes/condvars (ids are per-execution).
    pub(crate) next_obj: u64,
}

pub(crate) struct Exec {
    pub(crate) state: Mutex<ExecState>,
    pub(crate) cv: Condvar,
    pub(crate) cfg: Config,
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
    /// The message of this thread's latest panic inside a model, kept by
    /// the panic hook for [`ThreadCtx::fail_unwinding`]'s report.
    static PANIC_MSG: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// The per-OS-thread handle into the running execution.
#[derive(Clone)]
pub(crate) struct ThreadCtx {
    pub(crate) exec: Arc<Exec>,
    pub(crate) tid: Tid,
}

/// The calling thread's context; panics outside a running model, which is
/// exactly what happens when shimmed production code is exercised without
/// the checker driving it.
pub(crate) fn current() -> ThreadCtx {
    try_current().expect(
        "trq-check shim used outside a running model: code compiled with --cfg trq_check must \
         only exercise its sync primitives inside trq_check::model(..)",
    )
}

pub(crate) fn try_current() -> Option<ThreadCtx> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(ctx: Option<ThreadCtx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// Unwinds the current simulated thread out of the execution.
pub(crate) fn panic_abort() -> ! {
    std::panic::panic_any(AbortExecution)
}

/// Records the first failure and flips the execution into teardown.
fn fail(st: &mut ExecState, kind: FailureKind) {
    if st.failure.is_none() {
        st.failure = Some(Failure { kind, schedule: 0, trace: render_trace(st) });
    }
    st.aborting = true;
}

fn render_trace(st: &ExecState) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let names: Vec<&str> = st.threads.iter().map(|t| t.name.as_str()).collect();
    let _ = writeln!(out, "threads:");
    for (tid, t) in st.threads.iter().enumerate() {
        let _ = writeln!(out, "  t{tid} ({}): {:?}", t.name, t.status);
    }
    let _ =
        writeln!(out, "schedule ({} decisions, {} preemptions):", st.trace.len(), st.preemptions);
    // the tail is what matters for diagnosing a deadlock/lost wakeup
    let skip = st.trace.len().saturating_sub(64);
    if skip > 0 {
        let _ = writeln!(out, "  … {skip} earlier decisions elided …");
    }
    for (who, label, next) in st.trace.iter().skip(skip) {
        let w = names.get(*who).copied().unwrap_or("?");
        let _ = writeln!(out, "  t{who} ({w}) {label} -> t{next}");
    }
    out
}

fn deadlock_description(st: &ExecState) -> String {
    let mut parts = Vec::new();
    for (tid, t) in st.threads.iter().enumerate() {
        let what = match t.status {
            Status::BlockedMutex(id) => format!("t{tid} blocked locking mutex#{id}"),
            Status::BlockedCond { cv, timed } => {
                let kind = if timed { "timed-waiting" } else { "waiting" };
                format!("t{tid} {kind} on condvar#{cv}")
            }
            Status::BlockedJoin(j) => format!("t{tid} joining t{j}"),
            Status::Runnable | Status::Finished => continue,
        };
        parts.push(what);
    }
    if parts.is_empty() {
        "all live threads blocked".to_string()
    } else {
        parts.join("; ")
    }
}

impl ThreadCtx {
    pub(crate) fn lock_state(&self) -> MutexGuard<'_, ExecState> {
        self.exec.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Advances the logical clock (the `time::Instant` shim). Not a
    /// decision point: reading a clock is not an inter-thread interaction.
    pub(crate) fn tick(&self) -> u64 {
        let mut st = self.lock_state();
        st.clock += 1;
        st.clock
    }

    /// One scheduling decision. `self_runnable` is false when the caller
    /// has just blocked (a hand-off). On return the baton has been given
    /// to `st.active`; the caller still holds the state lock and must park
    /// if it was not chosen. Sets `aborting` (without panicking — drop
    /// paths use this too) when the decision uncovers a failure.
    fn decide(&self, st: &mut ExecState, self_runnable: bool, label: &'static str) {
        let me = self.tid;
        st.steps += 1;
        if st.steps > self.exec.cfg.max_steps {
            fail(st, FailureKind::StepLimit);
            self.exec.cv.notify_all();
            return;
        }
        let mut cands: Vec<(Tid, Resume)> = Vec::new();
        if self_runnable {
            cands.push((me, Resume::Normal));
        } else if matches!(st.threads[me].status, Status::BlockedCond { timed: true, .. }) {
            // a thread entering a timed wait can always wake itself via
            // the timeout, even when no other thread exists to notify it
            cands.push((me, Resume::TimedOut));
        }
        // Switching away from a runnable thread is a preemption (CHESS
        // bounding); switching away from a blocked/finished thread is
        // free. Timed condvar waiters double as timeout-wakeup candidates.
        let can_switch =
            !self_runnable || self.exec.cfg.preemption_bound.is_none_or(|b| st.preemptions < b);
        if can_switch {
            for (tid, t) in st.threads.iter().enumerate() {
                if tid == me {
                    continue;
                }
                match t.status {
                    Status::Runnable => cands.push((tid, Resume::Normal)),
                    Status::BlockedCond { timed: true, .. } => cands.push((tid, Resume::TimedOut)),
                    _ => {}
                }
            }
        }
        if cands.is_empty() {
            let desc = deadlock_description(st);
            fail(st, FailureKind::Deadlock(desc));
            self.exec.cv.notify_all();
            return;
        }
        let idx = if st.depth < st.path.len() {
            let b = st.path[st.depth];
            if b.options != cands.len() || b.chosen >= cands.len() {
                fail(
                    st,
                    FailureKind::Nondeterminism(format!(
                        "replay divergence at decision {}: recorded {} options, found {} \
                         (models must be deterministic apart from scheduling)",
                        st.depth,
                        b.options,
                        cands.len()
                    )),
                );
                self.exec.cv.notify_all();
                return;
            }
            b.chosen
        } else {
            st.path.push(Branch { options: cands.len(), chosen: 0 });
            0
        };
        st.depth += 1;
        let (next, mode) = cands[idx];
        if self_runnable && next != me {
            st.preemptions += 1;
        }
        st.threads[next].resume = mode;
        st.active = next;
        st.trace.push((me, label, next));
        if next != me {
            self.exec.cv.notify_all();
        }
    }

    /// A pure choice among `n` alternatives (e.g. which condvar waiter a
    /// `notify_one` wakes). Recorded on the same DFS path as thread
    /// choices so backtracking explores every alternative.
    pub(crate) fn pick(&self, st: &mut ExecState, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        let idx = if st.depth < st.path.len() {
            let b = st.path[st.depth];
            if b.options != n || b.chosen >= n {
                fail(
                    st,
                    FailureKind::Nondeterminism(format!(
                        "replay divergence at choice {}: recorded {} options, found {n}",
                        st.depth, b.options
                    )),
                );
                self.exec.cv.notify_all();
                return 0;
            }
            b.chosen
        } else {
            st.path.push(Branch { options: n, chosen: 0 });
            0
        };
        st.depth += 1;
        idx
    }

    fn park<'a>(&self, mut st: MutexGuard<'a, ExecState>) -> MutexGuard<'a, ExecState> {
        while st.active != self.tid && !st.aborting {
            st = self.exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st
    }

    /// A decision point at which the caller stays runnable — the shim
    /// calls this immediately before every visible operation. Panics
    /// (aborting the execution) if teardown is in progress.
    pub(crate) fn schedule(&self, label: &'static str) {
        let mut st = self.lock_state();
        if st.aborting {
            drop(st);
            panic_abort();
        }
        self.decide(&mut st, true, label);
        let st = self.park(st);
        let aborting = st.aborting;
        drop(st);
        if aborting {
            panic_abort();
        }
    }

    /// Like [`ThreadCtx::schedule`] but callable from drop paths: never
    /// panics; returns `false` if the execution is tearing down (the
    /// caller should bail out silently).
    pub(crate) fn schedule_in_drop(&self, st: MutexGuard<'_, ExecState>, label: &'static str) {
        let mut st = st;
        if st.aborting {
            return;
        }
        self.decide(&mut st, true, label);
        let _st = self.park(st);
        // aborting here is fine: the next non-drop shim op will unwind us
    }

    /// Parks after the caller registered itself as blocked (status must
    /// already be a `Blocked*` variant). Returns the resume mode once the
    /// baton comes back; unwinds on teardown.
    pub(crate) fn block(&self, st: MutexGuard<'_, ExecState>, label: &'static str) -> Resume {
        let mut st = st;
        if st.aborting {
            drop(st);
            panic_abort();
        }
        self.decide(&mut st, false, label);
        let mut st = self.park(st);
        if st.aborting {
            drop(st);
            panic_abort();
        }
        let mode = st.threads[self.tid].resume;
        st.threads[self.tid].resume = Resume::Normal;
        drop(st);
        mode
    }

    /// For a shim operation on an unwinding thread, which runs without a
    /// decision point (one could panic again and abort the process): when
    /// the operation must wait for another thread (a lock it holds, a
    /// join target still running) and the execution is not already
    /// tearing down, the execution fails as a panic, so every other
    /// thread unwinds and the wait ends.
    pub(crate) fn fail_unwinding(&self, st: &mut ExecState, waits_for: String) {
        if !st.aborting {
            let panic = PANIC_MSG.with(|m| m.borrow().clone()).unwrap_or_default();
            let reason = format!("t{} panicked ({panic}), and its unwind {waits_for}", self.tid);
            fail(st, FailureKind::Panic(reason));
            self.exec.cv.notify_all();
        }
    }

    /// Allocates a fresh per-execution object id (mutex/condvar labels).
    pub(crate) fn alloc_obj_id(st: &mut ExecState) -> u64 {
        st.next_obj += 1;
        st.next_obj
    }
}

/// Registers a new simulated thread (runnable, not active) and returns
/// its tid. Called by the spawner while it holds the baton, so tids are
/// deterministic.
pub(crate) fn register_thread(exec: &Arc<Exec>, name: Option<String>) -> Tid {
    let mut st = exec.state.lock().unwrap_or_else(PoisonError::into_inner);
    let tid = st.threads.len();
    let name = name.unwrap_or_else(|| format!("thread-{tid}"));
    st.threads.push(ThreadSt { status: Status::Runnable, resume: Resume::Normal, name });
    st.live += 1;
    tid
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Post-run bookkeeping shared by simulated threads and the root: marks
/// the thread finished, records a genuine panic as the execution failure,
/// wakes joiners, and hands the baton on (or ends the execution).
pub(crate) fn finish_thread(exec: &Arc<Exec>, tid: Tid, panic: Option<&(dyn Any + Send)>) {
    let ctx = ThreadCtx { exec: Arc::clone(exec), tid };
    let mut st = ctx.lock_state();
    st.threads[tid].status = Status::Finished;
    st.live -= 1;
    if let Some(payload) = panic {
        if !payload.is::<AbortExecution>() && !st.aborting {
            let msg = panic_message(payload);
            fail(&mut st, FailureKind::Panic(msg));
        }
    }
    for t in st.threads.iter_mut() {
        if t.status == Status::BlockedJoin(tid) {
            t.status = Status::Runnable;
        }
    }
    if st.aborting || st.live == 0 {
        exec.cv.notify_all();
        return;
    }
    if st.active == tid {
        // hand the baton on without offering ourselves
        ctx.decide(&mut st, false, "thread.exit");
        if st.aborting {
            exec.cv.notify_all();
        }
    }
}

/// The body every shim-spawned OS thread runs: wait for first activation,
/// run the user closure, do finish bookkeeping, re-raise any panic so the
/// real `JoinHandle` observes it.
pub(crate) fn sim_thread_main<T>(exec: Arc<Exec>, tid: Tid, f: impl FnOnce() -> T) -> T {
    set_ctx(Some(ThreadCtx { exec: Arc::clone(&exec), tid }));
    let ctx = ThreadCtx { exec: Arc::clone(&exec), tid };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        {
            let st = ctx.lock_state();
            let st = ctx.park(st);
            let aborting = st.aborting;
            drop(st);
            if aborting {
                panic_abort();
            }
        }
        f()
    }));
    match outcome {
        Ok(v) => {
            finish_thread(&exec, tid, None);
            v
        }
        Err(payload) => {
            finish_thread(&exec, tid, Some(payload.as_ref()));
            std::panic::resume_unwind(payload);
        }
    }
}

/// What one execution produced: the (possibly extended) decision path and
/// the failure, if any.
pub(crate) struct ExecOutcome {
    pub(crate) path: Vec<Branch>,
    pub(crate) failure: Option<Failure>,
}

/// Runs the model closure once under the schedule prefix in `path`,
/// extending it with default (index 0) decisions past the prefix.
pub(crate) fn run_execution(cfg: Config, path: Vec<Branch>, f: &dyn Fn()) -> ExecOutcome {
    install_panic_hook();
    let exec = Arc::new(Exec {
        state: Mutex::new(ExecState {
            threads: vec![ThreadSt {
                status: Status::Runnable,
                resume: Resume::Normal,
                name: "model".to_string(),
            }],
            active: 0,
            live: 1,
            aborting: false,
            failure: None,
            steps: 0,
            preemptions: 0,
            depth: 0,
            path,
            trace: Vec::new(),
            clock: 0,
            next_obj: 0,
        }),
        cv: Condvar::new(),
        cfg,
    });
    set_ctx(Some(ThreadCtx { exec: Arc::clone(&exec), tid: 0 }));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    finish_thread(&exec, 0, outcome.as_ref().err().map(|p| p.as_ref()));
    // wait for every simulated thread to run its finish bookkeeping, so
    // the next execution cannot see stragglers from this one
    {
        let mut st = exec.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.live > 0 {
            st = exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
    set_ctx(None);
    let mut st = exec.state.lock().unwrap_or_else(PoisonError::into_inner);
    ExecOutcome { path: std::mem::take(&mut st.path), failure: st.failure.take() }
}

/// Suppresses default panic reporting for threads inside a model: aborted
/// executions unwind every simulated thread with a private payload, and
/// seeded negative tests panic on purpose — neither should spam stderr.
fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if try_current().is_some() {
                PANIC_MSG.with(|m| *m.borrow_mut() = Some(panic_message(info.payload())));
                return;
            }
            previous(info);
        }));
    });
}
