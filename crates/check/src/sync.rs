//! Checked drop-in replacements for the `std::sync` primitives the
//! workspace's concurrency cores use. Signatures mirror `std` closely
//! enough that a crate-level `sync.rs` facade can alias either world:
//! `lock()` returns a `LockResult`, `Condvar::wait` takes and returns the
//! guard, `wait_timeout` reports via a [`WaitTimeoutResult`].
//!
//! Semantic notes (differences from `std`, all deliberate):
//!
//! - **Sequential consistency.** Exactly one simulated thread runs at a
//!   time, so every exploration is a sequentially-consistent interleaving.
//!   The checker finds *interleaving* bugs (lost wakeups, deadlocks,
//!   ordering races), not relaxed-memory reordering bugs.
//! - **No poisoning.** `lock()` always returns `Ok`; the production
//!   idiom `unwrap_or_else(PoisonError::into_inner)` and
//!   `.expect("poisoned")` both behave identically under the shim.
//! - **Timeouts are scheduling choices.** A `wait_timeout` may be woken
//!   as a timeout at *any* decision point regardless of the duration
//!   passed, so every timeout/notify race is explored.
//! - **No spurious wakeups** for untimed `wait` — a woken thread was
//!   notified. Production code that re-checks its predicate in a loop
//!   (as all of ours does) is checked under strictly fewer wakeups than
//!   `std` permits, which is sound for lost-wakeup/deadlock detection.

use std::sync::{LockResult, PoisonError};
use std::time::Duration;

use crate::exec::{current, panic_abort, Status, ThreadCtx, Tid};

/// Per-object scheduler bookkeeping, touched only under the execution
/// lock (at most one simulated thread runs at a time).
#[derive(Debug, Default)]
struct Meta {
    /// Per-execution object id; 0 = not yet assigned.
    id: u64,
    /// Owning thread, for mutexes.
    owner: Option<Tid>,
    /// Threads parked on this object, in arrival order.
    waiters: Vec<Tid>,
}

/// A model-checked mutual-exclusion lock. See the module docs.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    meta: std::sync::Mutex<Meta>,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new checked mutex holding `t`.
    pub fn new(t: T) -> Mutex<T> {
        Mutex { meta: std::sync::Mutex::new(Meta::default()), inner: std::sync::Mutex::new(t) }
    }

    fn with_meta<R>(&self, f: impl FnOnce(&mut Meta) -> R) -> R {
        let mut meta = self.meta.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut meta)
    }

    fn ensure_id(&self, st: &mut crate::exec::ExecState) -> u64 {
        self.with_meta(|meta| {
            if meta.id == 0 {
                meta.id = ThreadCtx::alloc_obj_id(st);
            }
            meta.id
        })
    }

    /// Acquires the lock at a scheduling decision point, parking the
    /// simulated thread while another owns it. Never poisons.
    ///
    /// A thread that is unwinding (a failed assertion, or teardown) takes
    /// the lock without a decision point and never unwinds again: a
    /// second panic there would abort the process.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let ctx = current();
        if std::thread::panicking() {
            return Ok(self.lock_unwinding(&ctx));
        }
        ctx.schedule("mutex.lock");
        Ok(self.lock_resumed(&ctx))
    }

    /// The lock of an unwinding thread: it neither schedules nor unwinds
    /// again. A free lock is taken at once (the caller holds the baton, or
    /// the execution is tearing down); for one another thread owns, the
    /// execution tears down ([`ThreadCtx::fail_unwinding`]) and the owner
    /// unwinds and releases it.
    fn lock_unwinding(&self, ctx: &ThreadCtx) -> MutexGuard<'_, T> {
        {
            let mut st = ctx.lock_state();
            let id = self.ensure_id(&mut st);
            let owner = self.with_meta(|meta| *meta.owner.get_or_insert(ctx.tid));
            if owner != ctx.tid {
                ctx.fail_unwinding(&mut st, format!("locks mutex#{id}, held by t{owner}"));
            }
        }
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { mutex: self, inner: Some(inner), ctx: ctx.clone() }
    }

    /// The acquire loop without the leading decision point — used after a
    /// condvar wakeup, where the wakeup itself was the decision.
    fn lock_resumed(&self, ctx: &ThreadCtx) -> MutexGuard<'_, T> {
        loop {
            let mut st = ctx.lock_state();
            if st.aborting {
                drop(st);
                panic_abort();
            }
            let id = self.ensure_id(&mut st);
            let acquired = self.with_meta(|meta| {
                if meta.owner.is_none() {
                    meta.owner = Some(ctx.tid);
                    true
                } else {
                    meta.waiters.push(ctx.tid);
                    false
                }
            });
            if acquired {
                drop(st);
                let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                return MutexGuard { mutex: self, inner: Some(inner), ctx: ctx.clone() };
            }
            st.threads[ctx.tid].status = Status::BlockedMutex(id);
            let _ = ctx.block(st, "mutex.blocked");
            // woken runnable: retry (another waiter may have raced us in)
        }
    }

    /// Releases the scheduler side of the lock: clears ownership and
    /// wakes every parked waiter (they re-contend when scheduled).
    fn release(&self, st: &mut crate::exec::ExecState) {
        self.with_meta(|meta| {
            meta.owner = None;
            for w in meta.waiters.drain(..) {
                if matches!(st.threads[w].status, Status::BlockedMutex(_)) {
                    st.threads[w].status = Status::Runnable;
                }
            }
        });
    }
}

/// RAII guard for [`Mutex`]; releasing it is a scheduling decision point
/// (except while unwinding, where it must stay silent).
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    ctx: ThreadCtx,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard released")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard released")
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return; // consumed by Condvar::wait — release already handled
        };
        drop(inner);
        let mut st = self.ctx.lock_state();
        self.mutex.release(&mut st);
        if st.aborting || std::thread::panicking() {
            // teardown / unwinding: release silently, never panic in drop
            self.ctx.exec.cv.notify_all();
            return;
        }
        self.ctx.schedule_in_drop(st, "mutex.unlock");
    }
}

/// A model-checked condition variable. `notify_one` explores every choice
/// of which waiter wakes; `notify_all` wakes all of them.
#[derive(Debug, Default)]
pub struct Condvar {
    meta: std::sync::Mutex<Meta>,
}

impl Condvar {
    /// Creates a new checked condvar.
    pub fn new() -> Condvar {
        Condvar { meta: std::sync::Mutex::new(Meta::default()) }
    }

    fn with_meta<R>(&self, f: impl FnOnce(&mut Meta) -> R) -> R {
        let mut meta = self.meta.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut meta)
    }

    fn ensure_id(&self, st: &mut crate::exec::ExecState) -> u64 {
        self.with_meta(|meta| {
            if meta.id == 0 {
                meta.id = ThreadCtx::alloc_obj_id(st);
            }
            meta.id
        })
    }

    /// Atomically releases the guard's mutex and parks until notified,
    /// then reacquires the mutex. The release-and-park is one atomic step
    /// — a notification between predicate check and park cannot be lost,
    /// exactly matching `std`'s guarantee.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        Ok(self.wait_inner(guard, false).0)
    }

    /// Timed variant of [`Condvar::wait`]. The duration is ignored: the
    /// scheduler may deliver the timeout at any decision point, exploring
    /// both sides of every timeout/notify race.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        _dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let (guard, timed_out) = self.wait_inner(guard, true);
        Ok((guard, WaitTimeoutResult(timed_out)))
    }

    fn wait_inner<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timed: bool,
    ) -> (MutexGuard<'a, T>, bool) {
        let ctx = current();
        let mutex = guard.mutex;
        // drop the std-level lock first; taking `inner` disarms the
        // guard's Drop so the scheduler-side release below is the only one
        drop(guard.inner.take());
        drop(guard);
        let label: &'static str = if timed { "condvar.wait_timeout" } else { "condvar.wait" };
        let mode = {
            let mut st = ctx.lock_state();
            if st.aborting {
                drop(st);
                panic_abort();
            }
            let cv_id = self.ensure_id(&mut st);
            self.with_meta(|meta| meta.waiters.push(ctx.tid));
            mutex.release(&mut st);
            st.threads[ctx.tid].status = Status::BlockedCond { cv: cv_id, timed };
            ctx.block(st, label)
        };
        let timed_out = mode == crate::exec::Resume::TimedOut;
        if timed_out {
            // a timeout wakeup: nobody removed us from the waiter list
            let mut st = ctx.lock_state();
            self.with_meta(|meta| meta.waiters.retain(|w| *w != ctx.tid));
            st.threads[ctx.tid].status = Status::Runnable;
            drop(st);
        }
        (mutex.lock_resumed(&ctx), timed_out)
    }

    /// Wakes one waiter; *which* one is a recorded scheduling choice, so
    /// exhaustive exploration covers every wakeup order. An unwinding
    /// thread notifies without a decision point, as it locks.
    pub fn notify_one(&self) {
        let ctx = current();
        if !std::thread::panicking() {
            ctx.schedule("condvar.notify_one");
        }
        let mut st = ctx.lock_state();
        let n = self.with_meta(|meta| meta.waiters.len());
        if n == 0 {
            return;
        }
        let idx = ctx.pick(&mut st, n);
        self.with_meta(|meta| {
            let w = meta.waiters.remove(idx);
            st.threads[w].status = Status::Runnable;
        });
    }

    /// Wakes every waiter (they re-contend for the mutex when scheduled).
    /// An unwinding thread notifies without a decision point, as it locks.
    pub fn notify_all(&self) {
        let ctx = current();
        if !std::thread::panicking() {
            ctx.schedule("condvar.notify_all");
        }
        let mut st = ctx.lock_state();
        self.with_meta(|meta| {
            for w in meta.waiters.drain(..) {
                st.threads[w].status = Status::Runnable;
            }
        });
    }
}

/// Result of a timed condvar wait, mirroring `std::sync::WaitTimeoutResult`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the (modelled) timeout fired.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Model-checked atomic integers/bools: every operation is a scheduling
/// decision point executed sequentially-consistently (the `Ordering`
/// argument is accepted for signature compatibility and ignored).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use crate::exec::current;

    macro_rules! shim_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ident, $ty:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name {
                inner: std::sync::atomic::$std,
            }

            impl $name {
                /// Creates a new checked atomic.
                pub fn new(v: $ty) -> $name {
                    $name { inner: std::sync::atomic::$std::new(v) }
                }

                /// Checked load (decision point; always SeqCst).
                pub fn load(&self, _order: Ordering) -> $ty {
                    current().schedule(concat!(stringify!($name), ".load"));
                    self.inner.load(Ordering::SeqCst)
                }

                /// Checked store (decision point; always SeqCst).
                pub fn store(&self, v: $ty, _order: Ordering) {
                    current().schedule(concat!(stringify!($name), ".store"));
                    self.inner.store(v, Ordering::SeqCst)
                }

                /// Checked swap (decision point; always SeqCst).
                pub fn swap(&self, v: $ty, _order: Ordering) -> $ty {
                    current().schedule(concat!(stringify!($name), ".swap"));
                    self.inner.swap(v, Ordering::SeqCst)
                }

                /// Checked compare-exchange (decision point; always SeqCst).
                pub fn compare_exchange(
                    &self,
                    curr: $ty,
                    new: $ty,
                    _ok: Ordering,
                    _err: Ordering,
                ) -> Result<$ty, $ty> {
                    current().schedule(concat!(stringify!($name), ".compare_exchange"));
                    self.inner.compare_exchange(curr, new, Ordering::SeqCst, Ordering::SeqCst)
                }
            }
        };
    }

    shim_atomic!(
        /// Checked `AtomicBool`.
        AtomicBool,
        AtomicBool,
        bool
    );
    shim_atomic!(
        /// Checked `AtomicUsize`.
        AtomicUsize,
        AtomicUsize,
        usize
    );
    shim_atomic!(
        /// Checked `AtomicU32`.
        AtomicU32,
        AtomicU32,
        u32
    );
    shim_atomic!(
        /// Checked `AtomicU64`.
        AtomicU64,
        AtomicU64,
        u64
    );

    macro_rules! shim_fetch {
        ($name:ident, $ty:ty) => {
            impl $name {
                /// Checked fetch-add (decision point; always SeqCst).
                pub fn fetch_add(&self, v: $ty, _order: Ordering) -> $ty {
                    current().schedule(concat!(stringify!($name), ".fetch_add"));
                    self.inner.fetch_add(v, Ordering::SeqCst)
                }

                /// Checked fetch-sub (decision point; always SeqCst).
                pub fn fetch_sub(&self, v: $ty, _order: Ordering) -> $ty {
                    current().schedule(concat!(stringify!($name), ".fetch_sub"));
                    self.inner.fetch_sub(v, Ordering::SeqCst)
                }
            }
        };
    }

    shim_fetch!(AtomicUsize, usize);
    shim_fetch!(AtomicU32, u32);
    shim_fetch!(AtomicU64, u64);
}
