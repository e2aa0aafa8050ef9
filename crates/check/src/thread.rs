//! Checked replacements for the slice of `std::thread` the workspace's
//! concurrency cores use: `Builder`/`spawn`/`JoinHandle`/`yield_now`.
//! Simulated threads are real OS threads, but the checker's scheduler
//! only ever lets one run at a time; spawning and joining are recorded
//! scheduling decision points.

use std::sync::Arc;

use crate::exec::{current, panic_abort, register_thread, sim_thread_main, Exec, Status, Tid};

/// Mirror of `std::thread::Builder` for shim-spawned threads.
#[derive(Debug, Default)]
pub struct Builder {
    name: Option<String>,
}

impl Builder {
    /// Creates a builder with no name set.
    pub fn new() -> Builder {
        Builder { name: None }
    }

    /// Names the simulated thread (shows up in failure traces).
    #[must_use]
    pub fn name(mut self, name: String) -> Builder {
        self.name = Some(name);
        self
    }

    /// Spawns a simulated thread. The new thread is runnable immediately
    /// but only runs when a scheduling decision picks it.
    ///
    /// # Errors
    ///
    /// Forwards the OS error if the underlying thread cannot be spawned.
    pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let ctx = current();
        ctx.schedule("thread.spawn");
        let tid = register_thread(&ctx.exec, self.name.clone());
        let exec = Arc::clone(&ctx.exec);
        let mut builder = std::thread::Builder::new();
        if let Some(name) = self.name {
            builder = builder.name(name);
        }
        let handle = builder.spawn(move || sim_thread_main(exec, tid, f))?;
        Ok(JoinHandle { handle, tid, exec: Arc::clone(&ctx.exec) })
    }
}

/// Spawns an unnamed simulated thread (see [`Builder::spawn`]).
///
/// # Panics
///
/// Panics if the underlying OS thread cannot be spawned.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    Builder::new().spawn(f).expect("failed to spawn simulated thread")
}

/// A scheduling decision point with no other effect.
pub fn yield_now() {
    current().schedule("thread.yield_now");
}

/// Handle to a simulated thread; mirrors `std::thread::JoinHandle`.
pub struct JoinHandle<T> {
    handle: std::thread::JoinHandle<T>,
    tid: Tid,
    exec: Arc<Exec>,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle").field("tid", &self.tid).finish_non_exhaustive()
    }
}

impl<T> JoinHandle<T> {
    /// Waits for the simulated thread to finish and returns its result —
    /// `Err(payload)` if it panicked, as with `std`.
    pub fn join(self) -> std::thread::Result<T> {
        let ctx = current();
        debug_assert!(
            Arc::ptr_eq(&ctx.exec, &self.exec),
            "joined a thread from a different execution"
        );
        ctx.schedule("thread.join");
        let st = ctx.lock_state();
        if st.aborting {
            drop(st);
            panic_abort();
        }
        if st.threads[self.tid].status != Status::Finished {
            let mut st = st;
            st.threads[ctx.tid].status = Status::BlockedJoin(self.tid);
            let _ = ctx.block(st, "thread.join_wait");
        } else {
            drop(st);
        }
        // the simulated thread has run its finish bookkeeping; the OS
        // thread is exiting (or already gone), so this join is bounded
        self.handle.join()
    }

    /// Whether the simulated thread has finished (bookkeeping-level, not
    /// OS-level). Not a decision point.
    pub fn is_finished(&self) -> bool {
        let ctx = current();
        let st = ctx.lock_state();
        st.threads[self.tid].status == Status::Finished
    }
}
