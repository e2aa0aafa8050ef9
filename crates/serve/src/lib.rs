//! # trq-serve
//!
//! The batch-serving frontend of the reproduction: a [`Registry`] of
//! resident [`Model`]s behind a multi-producer request queue with a
//! **deterministic micro-batcher**. Callers submit single images to a
//! named model ([`Server::submit`] / [`Server::try_submit`] with a
//! [`ModelId`]) and get a [`Ticket`] back; a dedicated batcher thread
//! coalesces whatever is queued — up to [`BatchPolicy::max_batch`],
//! waiting at most [`BatchPolicy::max_wait`] for stragglers — into single
//! [`trq_nn::QuantizedNetwork::forward_batch`] calls on the selected model's
//! engine, then hands each ticket its own image's output.
//!
//! Key properties:
//!
//! - **Bit-identical batching.** However requests happen to coalesce, the
//!   outputs (and the summed [`PimStats`] ledgers) are exactly those of
//!   per-image [`trq_nn::QuantizedNetwork::forward`] calls — batching concatenates
//!   windows along the engine's `n` axis, and every window's product
//!   depends only on its own column. The batcher preserves arrival order
//!   and maps result slot `i` back to request `i`, so no merge ambiguity
//!   exists.
//! - **Per-model batches.** A batch never mixes models: the head request
//!   fixes the batch's `(model, shape)` and a different model or shape
//!   ends the batch (and heads the next one), so every engine call stays
//!   one model, one uniform shape — and per-model ledgers stay exact.
//! - **One pool session per drained batch.** Each `forward_batch` call
//!   opens and closes exactly one engine session (the PR 3 discipline);
//!   failed batches close theirs too via the session guard in `trq-nn`.
//! - **Backpressure.** The queue is bounded ([`BatchPolicy::queue_cap`]):
//!   [`Server::try_submit`] fails fast with [`ServeError::QueueFull`],
//!   [`Server::submit`] blocks until space frees up.
//! - **Clean shutdown.** [`Server::shutdown`] stops intake, drains every
//!   queued request through the engines, and returns the accumulated
//!   [`ServeReport`]. A batch that fails — typed error or panic — fails
//!   only its own tickets; the server keeps serving.
//!
//! ```no_run
//! use trq_serve::{BatchPolicy, Model, Registry, Server};
//! use trq_core::{arch::ArchConfig, pim::AdcScheme};
//! use trq_nn::{data, models, QuantizedNetwork};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = models::lenet5(1)?;
//! let ds = data::synthetic_digits(8, 2);
//! let cal: Vec<_> = ds.iter().map(|s| s.image.clone()).collect();
//! let qnet = QuantizedNetwork::quantize(&net, &cal)?;
//! let plan = vec![AdcScheme::uniform(6, 0.7); qnet.layers().len()];
//! let mut registry = Registry::new();
//! let lenet = registry.insert(Model::program("lenet", qnet, ArchConfig::default(), plan));
//! let server = Server::start(registry, BatchPolicy::default());
//! let ticket = server.submit(lenet, ds[0].image.clone())?;
//! let response = ticket.wait()?;
//! println!("served in {:?} (batch of {})", response.latency, response.batch_size);
//! let report = server.shutdown();
//! println!("{} requests, {} batches", report.requests, report.batches);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod fault;
mod model;
mod sync;

pub use fault::{FaultKind, FaultPlan, FaultShim};
pub use model::{Model, ModelId, Registry, RegistryBackend};

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

use crate::sync::{thread, Condvar, Instant, Mutex, MutexGuard};
use trq_core::pim::PimStats;
use trq_nn::NnError;
use trq_tensor::Tensor;

/// What the admission path does when a submit finds the queue at
/// capacity — evaluated under the queue lock, so the decision and the
/// eviction (if any) are atomic with respect to every other submitter
/// and the batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// [`Server::submit`] blocks until space frees (the pre-resilience
    /// behaviour); [`Server::try_submit`] fails with
    /// [`ServeError::QueueFull`]. A blocked submit with a deadline gives
    /// up with [`ServeError::DeadlineExceeded`] when the deadline passes
    /// before space appears.
    #[default]
    Block,
    /// The incoming request is rejected with [`ServeError::Shed`] —
    /// overload degrades to fast typed rejections instead of unbounded
    /// queueing. `submit` and `try_submit` behave identically.
    RejectNewest,
    /// The *oldest queued* request is evicted (its ticket resolves to
    /// [`ServeError::Shed`]) and the incoming request takes its place —
    /// freshest-work-wins admission for latency-sensitive traffic.
    RejectOldest,
}

impl std::fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedPolicy::Block => write!(f, "block"),
            ShedPolicy::RejectNewest => write!(f, "reject-newest"),
            ShedPolicy::RejectOldest => write!(f, "reject-oldest"),
        }
    }
}

/// When (and for how long) the server quarantines a model whose batches
/// keep failing, so one sick engine cannot consume the batcher while
/// healthy models starve.
///
/// A model accumulating `threshold` *consecutive* batch failures (typed
/// errors, panics, or wrong-output replies) is quarantined: new submits
/// for it are refused with [`ServeError::ModelQuarantined`] and requests
/// already queued for it are resolved with the same typed error — other
/// models keep serving. After `backoff` has elapsed, the next request
/// for the model runs as a **probe** batch, preceded by the backend's
/// recovery action ([`BatchBackend::recover`] — the registry backend
/// reloads the model from its snapshot store). A successful probe
/// reinstates the model and resets the backoff; a failed probe
/// re-quarantines it with the backoff multiplied by `backoff_factor`
/// (capped at `max_backoff`) — a deterministic exponential schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Consecutive batch failures that trip quarantine. `0` disables
    /// quarantine entirely.
    pub threshold: u32,
    /// First quarantine period.
    pub backoff: Duration,
    /// Multiplier applied to the period after each failed probe
    /// (clamped to ≥ 1).
    pub backoff_factor: u32,
    /// Upper bound on the period, so a flapping model retries at a
    /// bounded cadence instead of backing off forever.
    pub max_backoff: Duration,
}

impl Default for QuarantinePolicy {
    /// Quarantine after 3 consecutive failures, starting at 25 ms and
    /// doubling up to 1 s.
    fn default() -> Self {
        QuarantinePolicy {
            threshold: 3,
            backoff: Duration::from_millis(25),
            backoff_factor: 2,
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl QuarantinePolicy {
    /// No quarantine: a failing model keeps failing batch by batch.
    pub fn disabled() -> Self {
        QuarantinePolicy { threshold: 0, ..QuarantinePolicy::default() }
    }

    /// Builder: sets the consecutive-failure threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: u32) -> Self {
        self.threshold = threshold;
        self
    }

    /// Builder: sets the backoff schedule — initial period, per-failed-
    /// probe multiplier, and cap.
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration, factor: u32, max_backoff: Duration) -> Self {
        self.backoff = backoff;
        self.backoff_factor = factor;
        self.max_backoff = max_backoff;
        self
    }
}

/// How the micro-batcher forms batches, how much work it may hold, and
/// how it degrades under overload and faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest number of requests coalesced into one engine call
    /// (clamped to ≥ 1).
    pub max_batch: usize,
    /// After the first request of a batch arrives, how long the batcher
    /// waits for more before running a partial batch. `Duration::ZERO`
    /// runs with whatever is queued at drain time.
    pub max_wait: Duration,
    /// Bound on queued (not yet batched) requests — the backpressure
    /// knob (clamped to ≥ 1).
    pub queue_cap: usize,
    /// Default per-request deadline, measured from submit time. A
    /// request whose deadline passes before its batch starts resolves to
    /// [`ServeError::DeadlineExceeded`] — from the queue and mid-drain
    /// alike, never silently dropped. `None` (the default) means no
    /// deadline; [`Server::submit_with_deadline`] overrides per request.
    pub deadline: Option<Duration>,
    /// What happens when a submit finds the queue at capacity.
    pub shed: ShedPolicy,
    /// When repeated batch failures quarantine a model.
    pub quarantine: QuarantinePolicy,
}

impl Default for BatchPolicy {
    /// The reference policy: `max_batch = 16`, `max_wait = 1 ms`,
    /// `queue_cap = 256`, no deadline, blocking admission, and the
    /// default quarantine schedule. Start here and adjust with the
    /// builder setters rather than struct literals — the setters survive
    /// future policy fields without breaking callers.
    fn default() -> Self {
        BatchPolicy {
            max_batch: 16,
            max_wait: Duration::from_millis(1),
            queue_cap: 256,
            deadline: None,
            shed: ShedPolicy::Block,
            quarantine: QuarantinePolicy::default(),
        }
    }
}

impl BatchPolicy {
    /// Builder: sets the maximum batch size.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Builder: sets the straggler wait.
    #[must_use]
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Builder: sets the queue bound.
    #[must_use]
    pub fn with_queue_cap(mut self, queue_cap: usize) -> Self {
        self.queue_cap = queue_cap;
        self
    }

    /// Builder: sets the default per-request deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: sets the overload shedding policy.
    #[must_use]
    pub fn with_shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = shed;
        self
    }

    /// Builder: sets the quarantine policy.
    #[must_use]
    pub fn with_quarantine(mut self, quarantine: QuarantinePolicy) -> Self {
        self.quarantine = quarantine;
        self
    }

    fn normalized(self) -> Self {
        BatchPolicy {
            max_batch: self.max_batch.max(1),
            max_wait: self.max_wait,
            queue_cap: self.queue_cap.max(1),
            deadline: self.deadline,
            shed: self.shed,
            quarantine: QuarantinePolicy {
                backoff_factor: self.quarantine.backoff_factor.max(1),
                ..self.quarantine
            },
        }
    }
}

/// Errors surfaced to submitters and ticket holders.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded request queue is full ([`Server::try_submit`] only —
    /// [`Server::submit`] blocks instead).
    QueueFull,
    /// The server is shutting down (or its batcher is gone) and accepts
    /// no new requests.
    ShuttingDown,
    /// The batch this request rode in failed in the forward pass; every
    /// ticket of that batch gets the same typed error.
    Forward(NnError),
    /// The backend panicked while running this request's batch. The
    /// server fails the batch's tickets and keeps serving.
    BatchPanicked,
    /// The backend answered the batch with the wrong number of outputs
    /// (a [`Server::with_worker`] contract violation); the whole batch
    /// fails rather than leaving unanswered tickets hanging.
    BadBatchOutput {
        /// Requests in the batch.
        expected: usize,
        /// Outputs the backend returned.
        got: usize,
    },
    /// The batcher thread died before this request could run.
    WorkerLost,
    /// The submitted [`ModelId`] names no model in the server's
    /// [`Registry`]; the request is refused at submit time.
    UnknownModel(ModelId),
    /// The request's deadline passed before its batch started — raised
    /// from the queue, mid-drain, or by a blocked submit that never got
    /// queue space in time. Expired requests always resolve with this
    /// typed error; they are never silently dropped.
    DeadlineExceeded,
    /// The request was shed by the admission policy: either refused at
    /// the door (`RejectNewest`) or evicted from the queue to make room
    /// for fresher work (`RejectOldest`).
    Shed(ShedPolicy),
    /// The model is quarantined after repeated batch failures; retry
    /// after its backoff elapses. Other models keep serving.
    ModelQuarantined(ModelId),
    /// The backend's recovery action for a quarantined model's probe
    /// failed (e.g. the snapshot reload errored); the model returns to
    /// quarantine with a longer backoff.
    RecoveryFailed {
        /// The model whose recovery failed.
        model: ModelId,
        /// Why (the backend's own error rendering).
        reason: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Forward(e) => write!(f, "batch forward pass failed: {e}"),
            ServeError::BatchPanicked => write!(f, "backend panicked while running the batch"),
            ServeError::BadBatchOutput { expected, got } => {
                write!(f, "backend answered {got} outputs for a batch of {expected}")
            }
            ServeError::WorkerLost => write!(f, "batcher thread died before the request ran"),
            ServeError::UnknownModel(id) => write!(f, "{id} is not resident in this server"),
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline passed before its batch started")
            }
            ServeError::Shed(policy) => write!(f, "request shed under the {policy} policy"),
            ServeError::ModelQuarantined(id) => {
                write!(f, "{id} is quarantined after repeated batch failures")
            }
            ServeError::RecoveryFailed { model, reason } => {
                write!(f, "recovery of quarantined {model} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Forward(e) => Some(e),
            _ => None,
        }
    }
}

/// One served request's result.
#[derive(Debug, Clone)]
pub struct Response {
    /// The network output for the submitted image — bit-identical to a
    /// per-image [`trq_nn::QuantizedNetwork::forward`] call on the same model.
    pub output: Tensor,
    /// The model that served this request.
    pub model: ModelId,
    /// Submit-to-completion wall time.
    pub latency: Duration,
    /// How many requests shared this request's engine call.
    pub batch_size: usize,
}

/// One model's slice of a [`ServeReport`].
#[derive(Debug, Clone, Default)]
pub struct ModelUsage {
    /// Requests this model completed successfully.
    pub requests: u64,
    /// Engine calls (batches) this model executed.
    pub batches: u64,
    /// Summed per-batch ledgers of this model's engine — bit-identical
    /// to the ledger it would accumulate serving the same images
    /// serially.
    pub stats: PimStats,
}

/// Aggregate accounting the batcher keeps; returned by
/// [`Server::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Requests completed successfully.
    pub requests: u64,
    /// Requests failed (batch errors, panics, worker loss).
    pub failed: u64,
    /// Engine calls (batches) executed.
    pub batches: u64,
    /// Largest batch actually formed.
    pub max_batch_seen: usize,
    /// Requests shed by the admission policy (refused at the door or
    /// evicted from the queue) — not counted in `failed`.
    pub shed: u64,
    /// Requests whose deadline passed before their batch started — not
    /// counted in `failed`.
    pub deadline_expired: u64,
    /// Times any model entered (or re-entered, after a failed probe)
    /// quarantine.
    pub quarantine_trips: u64,
    /// Times a quarantined model's probe succeeded and the model was
    /// reinstated.
    pub quarantine_reinstates: u64,
    /// Summed per-batch engine ledgers across all models.
    pub stats: PimStats,
    /// Per-model accounting, indexed by [`ModelId::index`] (grown on
    /// demand; ids never batched are absent or zeroed).
    pub per_model: Vec<ModelUsage>,
}

impl ServeReport {
    /// This model's slice of the report, if it served anything.
    pub fn model_usage(&self, id: ModelId) -> Option<&ModelUsage> {
        self.per_model.get(id.index())
    }
}

struct TicketShared {
    result: Mutex<Option<Result<Response, ServeError>>>,
    ready: Condvar,
}

impl TicketShared {
    fn complete(&self, result: Result<Response, ServeError>) {
        let mut slot = self.result.lock().unwrap_or_else(PoisonError::into_inner);
        // Under the model checker, resolving a ticket twice is a protocol
        // violation (a request answered by both the batcher and the
        // shutdown drain, say) and must fail the exploration. Production
        // keeps last-writer-wins rather than risking a panic while the
        // batcher holds no lock ordering over callers.
        #[cfg(trq_check)]
        assert!(slot.is_none(), "ticket double-resolution");
        *slot = Some(result);
        drop(slot);
        self.ready.notify_all();
    }
}

/// A claim on one submitted request's future result.
pub struct Ticket {
    shared: Arc<TicketShared>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ready = self.shared.result.lock().unwrap_or_else(PoisonError::into_inner).is_some();
        f.debug_struct("Ticket").field("ready", &ready).finish()
    }
}

impl Ticket {
    /// Blocks until the request completes and returns its result.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut slot = self.shared.result.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.shared.ready.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking poll: clones out the result if the request has
    /// completed, `None` if it is still queued or running. The result
    /// stays claimable — [`Ticket::wait`] after a successful poll
    /// returns (it does not hang), so polling loops can hand the ticket
    /// to a final `wait`.
    pub fn poll(&self) -> Option<Result<Response, ServeError>> {
        self.shared.result.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Bounded wait: blocks up to `timeout` for the result. Returns
    /// `None` on timeout; like [`Ticket::poll`] the result stays
    /// claimable, so a timed-out ticket can be waited again (or
    /// abandoned — the batcher still resolves it, nothing leaks).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, ServeError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.shared.result.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if slot.is_some() {
                return slot.clone();
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .shared
                .ready
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = guard;
        }
    }
}

struct Request {
    model: ModelId,
    image: Tensor,
    submitted: Instant,
    /// Absolute expiry; requests past it resolve to `DeadlineExceeded`
    /// instead of running.
    deadline: Option<Instant>,
    ticket: Arc<TicketShared>,
}

/// Per-model failure-tracking state, kept under the queue lock so the
/// admission path and the batcher see one consistent view.
#[derive(Debug, Clone, Default)]
struct ModelHealth {
    /// Consecutive failed batches since the last success.
    consecutive_failures: u32,
    /// `Some(t)`: quarantined until `t`; the first batch formed at or
    /// after `t` runs as the probe.
    quarantined_until: Option<Instant>,
    /// The period the *next* quarantine entry will use (exponential).
    next_backoff: Option<Duration>,
    /// Times this model entered quarantine.
    trips: u64,
    /// Times a probe reinstated this model.
    reinstates: u64,
}

struct QueueState {
    queue: VecDeque<Request>,
    /// No new submissions; the batcher drains what is queued, then exits.
    draining: bool,
    /// The batcher thread is gone (clean exit or panic).
    dead: bool,
    /// Requests shed by the admission policy.
    shed: u64,
    /// Requests resolved as `DeadlineExceeded`.
    expired: u64,
    /// Queued requests refused because their model was quarantined.
    quarantine_refused: u64,
    /// Per-model failure tracking, indexed by `ModelId::index` (grown on
    /// demand).
    health: Vec<ModelHealth>,
}

impl QueueState {
    fn health_mut(&mut self, model: ModelId) -> &mut ModelHealth {
        if self.health.len() <= model.index() {
            self.health.resize_with(model.index() + 1, ModelHealth::default);
        }
        &mut self.health[model.index()]
    }

    /// Is `model` quarantined (and not yet due for its probe) at `now`?
    fn quarantined_at(&self, model: ModelId, now: Instant) -> bool {
        self.health
            .get(model.index())
            .and_then(|h| h.quarantined_until)
            .is_some_and(|until| now < until)
    }
}

struct Shared {
    policy: BatchPolicy,
    /// `Some(n)`: submits validate `ModelId.index() < n` (registry-backed
    /// servers). `None`: the custom [`Server::with_worker`] backend owns
    /// the id space and every id is accepted.
    model_count: Option<usize>,
    state: Mutex<QueueState>,
    /// The batcher parks here waiting for requests.
    arrived: Condvar,
    /// Blocking submitters park here waiting for queue space.
    vacated: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The backend of a [`Server`]: runs micro-batches and (optionally)
/// recovers quarantined models before their probe batch.
///
/// Closures of the shape `FnMut(ModelId, &[Tensor]) ->
/// Result<(Vec<Tensor>, PimStats), NnError>` implement this trait with a
/// no-op recovery, so simple backends stay one lambda. The registry
/// backend ([`RegistryBackend`]) implements `recover` as a snapshot
/// `load_latest` reload when the model has a store directory.
pub trait BatchBackend {
    /// Runs one same-`(model, shape)` micro-batch, returning each
    /// image's output (slot `i` answers request `i`) plus the batch's
    /// engine ledger.
    ///
    /// # Errors
    ///
    /// A typed [`NnError`] fails that batch's tickets with
    /// [`ServeError::Forward`].
    fn run_batch(
        &mut self,
        model: ModelId,
        images: &[Tensor],
    ) -> Result<(Vec<Tensor>, PimStats), NnError>;

    /// Recovery action run once before a quarantined model's probe
    /// batch. The default does nothing (the probe simply retries).
    ///
    /// # Errors
    ///
    /// An error fails the probe: its tickets resolve to the returned
    /// [`ServeError`] and the model re-enters quarantine with a longer
    /// backoff.
    fn recover(&mut self, model: ModelId) -> Result<(), ServeError> {
        let _ = model;
        Ok(())
    }
}

impl<F> BatchBackend for F
where
    F: FnMut(ModelId, &[Tensor]) -> Result<(Vec<Tensor>, PimStats), NnError>,
{
    fn run_batch(
        &mut self,
        model: ModelId,
        images: &[Tensor],
    ) -> Result<(Vec<Tensor>, PimStats), NnError> {
        self(model, images)
    }
}

/// A batch the batcher formed, plus whether it is a quarantine probe
/// (whose model needs the backend's recovery action first).
struct PreparedBatch {
    requests: Vec<Request>,
    probe: bool,
}

/// One pass of the batcher's wait loop: a batch, a clean exit, or "swept
/// tickets need resolving before parking — call again".
enum BatchStep {
    Ready(PreparedBatch),
    Done,
    Again,
}

/// The batcher's end of the request queue, handed to the worker body of
/// [`Server::with_worker`]. Call [`BatchSource::serve`] with a batch
/// runner to enter the drain loop; the standard [`Server::start`] wires
/// it to a [`trq_core::pim::PimMvm`]-backed
/// [`trq_nn::QuantizedNetwork::forward_batch`].
pub struct BatchSource {
    shared: Arc<Shared>,
}

impl BatchSource {
    /// Removes every queued request that must not run — deadline
    /// expired, or its model quarantined and not yet due for a probe —
    /// and stages its typed resolution in `victims` (completed by the
    /// caller after the lock drops). Runs under the queue lock on every
    /// batcher wakeup, so expired tickets resolve from the queue *and*
    /// mid-drain, never silently.
    fn sweep_locked(
        st: &mut QueueState,
        now: Instant,
        victims: &mut Vec<(Arc<TicketShared>, ServeError)>,
    ) {
        if st
            .queue
            .iter()
            .all(|r| r.deadline.is_none_or(|d| now < d) && !st.quarantined_at(r.model, now))
        {
            return; // common case: nothing to sweep, no churn
        }
        let mut kept = VecDeque::with_capacity(st.queue.len());
        while let Some(request) = st.queue.pop_front() {
            if request.deadline.is_some_and(|d| now >= d) {
                st.expired += 1;
                victims.push((request.ticket, ServeError::DeadlineExceeded));
            } else if st.quarantined_at(request.model, now) {
                st.quarantine_refused += 1;
                victims.push((request.ticket, ServeError::ModelQuarantined(request.model)));
            } else {
                kept.push_back(request);
            }
        }
        st.queue = kept;
    }

    /// Waits for the next micro-batch, or `None` when the server is
    /// draining and the queue is empty (time to exit). Tickets swept on
    /// the way (expired deadlines, quarantined models) are resolved with
    /// their typed error before this returns.
    ///
    /// Batches are same-`(model, shape)` runs of the arrival order: the
    /// head request fixes the batch's model and input shape and the
    /// batcher takes queued requests while they match, up to `max_batch`
    /// — a request for a different model or shape ends the batch and
    /// heads the next one. This keeps every engine call one model and
    /// shape-uniform (no [`NnError::BatchShape`] rejections at runtime)
    /// while staying deterministic in arrival order.
    fn next_batch(&self) -> Option<PreparedBatch> {
        loop {
            let mut victims: Vec<(Arc<TicketShared>, ServeError)> = Vec::new();
            let step = self.next_batch_step(&mut victims);
            if !victims.is_empty() {
                // resolve swept tickets outside the lock; their queue
                // slots are free, so blocked submitters can re-check
                self.shared.vacated.notify_all();
                for (ticket, err) in victims {
                    ticket.complete(Err(err));
                }
            }
            match step {
                BatchStep::Ready(batch) => return Some(batch),
                BatchStep::Done => return None,
                BatchStep::Again => {}
            }
        }
    }

    fn next_batch_step(&self, victims: &mut Vec<(Arc<TicketShared>, ServeError)>) -> BatchStep {
        let policy = self.shared.policy;
        let mut st = self.shared.lock();
        loop {
            Self::sweep_locked(&mut st, Instant::now(), victims);
            if !st.queue.is_empty() {
                break;
            }
            if st.draining {
                return BatchStep::Done;
            }
            if !victims.is_empty() {
                // never park while holding unresolved tickets — hand them
                // to the caller, then come back and wait
                return BatchStep::Again;
            }
            st = self.shared.arrived.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        // micro-batch fill: give stragglers up to `max_wait` to coalesce
        // into this engine call (skipped while draining — the goal then
        // is to finish, not to optimise batch shape). Two cases already
        // bound the batch and make waiting pointless: a different model
        // or shape inside the first `max_batch` entries (the batch is
        // cut there no matter what arrives), and a queue at capacity
        // (nothing new can arrive until the batcher itself drains).
        if policy.max_wait > Duration::ZERO {
            let batch_bounded = |st: &QueueState| {
                let head = &st.queue[0];
                let head_dims = head.image.shape().dims();
                let head_model = head.model;
                st.queue
                    .iter()
                    .take(policy.max_batch)
                    .skip(1)
                    .any(|r| r.model != head_model || r.image.shape().dims() != head_dims)
            };
            let deadline = Instant::now() + policy.max_wait;
            while st.queue.len() < policy.max_batch.min(policy.queue_cap)
                && !st.draining
                && !batch_bounded(&st)
            {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = self
                    .shared
                    .arrived
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            // time passed while coalescing: re-sweep so a deadline that
            // expired during the straggler wait never reaches the engine
            Self::sweep_locked(&mut st, Instant::now(), victims);
        }
        let Some(head) = st.queue.front() else {
            // the straggler-wait sweep emptied the queue
            return BatchStep::Again;
        };
        let head_model = head.model;
        let head_dims = head.image.shape().dims().to_vec();
        // a head model carrying a quarantine mark survived the sweep, so
        // its backoff has elapsed: this batch runs as the probe
        let probe =
            st.health.get(head_model.index()).is_some_and(|h| h.quarantined_until.is_some());
        let mut batch = Vec::new();
        while batch.len() < policy.max_batch {
            match st.queue.front() {
                Some(r) if r.model == head_model && r.image.shape().dims() == head_dims => {
                    match st.queue.pop_front() {
                        Some(request) => batch.push(request),
                        None => break,
                    }
                }
                _ => break,
            }
        }
        drop(st);
        self.shared.vacated.notify_all();
        BatchStep::Ready(PreparedBatch { requests: batch, probe })
    }

    /// Applies one batch outcome to the model's failure tracker under the
    /// queue lock: a success resets the failure streak (and reinstates a
    /// probing model); a failure extends it and trips quarantine at the
    /// policy threshold — immediately, with the advanced backoff, when
    /// the failed batch was itself a probe.
    fn note_outcome(&self, model: ModelId, success: bool, probe: bool) {
        let q = self.shared.policy.quarantine;
        if q.threshold == 0 {
            return; // quarantine disabled: nothing tracks failures
        }
        let mut st = self.shared.lock();
        let health = st.health_mut(model);
        if success {
            health.consecutive_failures = 0;
            if health.quarantined_until.is_some() {
                health.quarantined_until = None;
                health.next_backoff = None;
                health.reinstates += 1;
            }
            return;
        }
        health.consecutive_failures += 1;
        if probe || health.consecutive_failures >= q.threshold {
            let backoff = health.next_backoff.unwrap_or(q.backoff);
            health.quarantined_until = Some(Instant::now() + backoff);
            health.next_backoff =
                Some((backoff * q.backoff_factor).min(q.max_backoff).max(backoff));
            health.trips += 1;
            health.consecutive_failures = 0;
        }
    }

    /// Runs the drain loop: pulls micro-batches and feeds them to the
    /// backend with the batch's model id (batches never mix models),
    /// which returns each image's output (slot `i` answers request `i`)
    /// plus the batch's engine ledger. Returns the accumulated report
    /// when the server drains out.
    ///
    /// Plain closures `FnMut(ModelId, &[Tensor]) -> Result<(Vec<Tensor>,
    /// PimStats), NnError>` work directly (they implement
    /// [`BatchBackend`] with a no-op recovery).
    ///
    /// A `run_batch` error fails that batch's tickets with
    /// [`ServeError::Forward`]; a panic fails them with
    /// [`ServeError::BatchPanicked`]. Both leave the loop running — one
    /// poisoned batch must not take the server down. Repeated failures
    /// trip the model into quarantine per
    /// [`BatchPolicy::with_quarantine`]; once its backoff elapses the
    /// next batch runs as a probe, preceded by the backend's
    /// [`BatchBackend::recover`] action.
    pub fn serve<B: BatchBackend>(self, mut backend: B) -> ServeReport {
        let mut report = ServeReport::default();
        while let Some(PreparedBatch { requests: batch, probe }) = self.next_batch() {
            let batch_size = batch.len();
            let model = match batch.first() {
                Some(head) => head.model,
                None => continue, // defensive: the batcher never forms empty batches
            };
            let mut images = Vec::with_capacity(batch_size);
            let mut waiters = Vec::with_capacity(batch_size);
            for request in batch {
                images.push(request.image);
                waiters.push((request.submitted, request.ticket));
            }
            report.batches += 1;
            report.max_batch_seen = report.max_batch_seen.max(batch_size);
            if probe {
                // the quarantine backoff elapsed: run the backend's
                // recovery action before trusting this model with a
                // batch. A failed (or panicking) recovery fails the
                // probe's tickets and re-quarantines with the advanced
                // backoff — without running the engine.
                let recovered = catch_unwind(AssertUnwindSafe(|| backend.recover(model)));
                let recovery_err = match recovered {
                    Ok(Ok(())) => None,
                    Ok(Err(e)) => Some(e),
                    Err(_panic) => Some(ServeError::BatchPanicked),
                };
                if let Some(err) = recovery_err {
                    report.failed += batch_size as u64;
                    // re-quarantine BEFORE completing tickets: a waiter
                    // that observes this failure and immediately
                    // resubmits must deterministically hit the gate
                    self.note_outcome(model, false, probe);
                    for (_, ticket) in waiters {
                        ticket.complete(Err(err.clone()));
                    }
                    continue;
                }
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| backend.run_batch(model, &images)));
            let success = matches!(&outcome, Ok(Ok((outputs, _))) if outputs.len() == batch_size);
            self.note_outcome(model, success, probe);
            match outcome {
                Ok(Ok((outputs, stats))) if outputs.len() == batch_size => {
                    report.requests += batch_size as u64;
                    report.stats.merge(&stats);
                    if report.per_model.len() <= model.index() {
                        report.per_model.resize_with(model.index() + 1, ModelUsage::default);
                    }
                    let usage = &mut report.per_model[model.index()];
                    usage.requests += batch_size as u64;
                    usage.batches += 1;
                    usage.stats.merge(&stats);
                    for ((submitted, ticket), output) in waiters.into_iter().zip(outputs) {
                        let latency = submitted.elapsed();
                        ticket.complete(Ok(Response { output, model, latency, batch_size }));
                    }
                }
                Ok(Ok((outputs, _))) => {
                    // contract violation by a custom backend: answering
                    // the wrong request count must fail the whole batch
                    // loudly — zipping would leave unanswered tickets
                    // blocked forever
                    report.failed += batch_size as u64;
                    let err =
                        ServeError::BadBatchOutput { expected: batch_size, got: outputs.len() };
                    for (_, ticket) in waiters {
                        ticket.complete(Err(err.clone()));
                    }
                }
                Ok(Err(e)) => {
                    report.failed += batch_size as u64;
                    for (_, ticket) in waiters {
                        ticket.complete(Err(ServeError::Forward(e.clone())));
                    }
                }
                Err(_panic) => {
                    report.failed += batch_size as u64;
                    for (_, ticket) in waiters {
                        ticket.complete(Err(ServeError::BatchPanicked));
                    }
                }
            }
        }
        report
    }
}

/// The multi-producer serving frontend. See the crate docs for the model.
pub struct Server {
    shared: Arc<Shared>,
    worker: Option<thread::JoinHandle<ServeReport>>,
}

impl Server {
    /// Starts a server over the standard crossbar backend: the models
    /// resident in `registry` (each programmed once, reused for every
    /// batch), one engine session per drained batch. Requests name their
    /// model per submit; ids the registry never minted are refused at
    /// submit time with [`ServeError::UnknownModel`].
    pub fn start(registry: Registry, policy: BatchPolicy) -> Server {
        let model_count = registry.len();
        // per-batch ledger: each model's engine is reset, run, and its
        // delta handed to the report (merging keeps the per-model sums
        // bit-identical to each engine serving its own images serially).
        // The registry backend also supplies quarantine recovery: probes
        // reload the model's latest snapshot when it has a store
        // directory.
        let backend = RegistryBackend::new(registry);
        Server::spawn(policy, Some(model_count), move |source| source.serve(backend))
    }

    /// Starts a server with a custom worker body — the seam tests and
    /// alternative backends use. The body receives the [`BatchSource`]
    /// and normally calls [`BatchSource::serve`]; whatever report it
    /// returns comes back from [`Server::shutdown`]. If the body exits
    /// (or panics) with requests still queued, those tickets fail with
    /// [`ServeError::WorkerLost`] and the server stops accepting work.
    ///
    /// The backend owns the [`ModelId`] space: submits are not checked
    /// against any registry, and every id reaches the body's batch
    /// runner ([`ModelId::new`] mints ids for this use).
    pub fn with_worker<F>(policy: BatchPolicy, body: F) -> Server
    where
        F: FnOnce(BatchSource) -> ServeReport + Send + 'static,
    {
        Server::spawn(policy, None, body)
    }

    fn spawn<F>(policy: BatchPolicy, model_count: Option<usize>, body: F) -> Server
    where
        F: FnOnce(BatchSource) -> ServeReport + Send + 'static,
    {
        let shared = Arc::new(Shared {
            policy: policy.normalized(),
            model_count,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                draining: false,
                dead: false,
                shed: 0,
                expired: 0,
                quarantine_refused: 0,
                health: Vec::new(),
            }),
            arrived: Condvar::new(),
            vacated: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let spawned = thread::Builder::new().name("trq-serve-batcher".into()).spawn(move || {
            let source = BatchSource { shared: Arc::clone(&worker_shared) };
            let outcome = catch_unwind(AssertUnwindSafe(|| body(source)));
            // the batcher is gone: refuse new work, fail anything
            // still queued so no ticket waits forever, and fold the
            // queue-side resilience counters into the report
            let (leftovers, shed, expired, refused, trips, reinstates) = {
                let mut st = worker_shared.lock();
                st.dead = true;
                let leftovers: Vec<Request> = st.queue.drain(..).collect();
                let trips: u64 = st.health.iter().map(|h| h.trips).sum();
                let reinstates: u64 = st.health.iter().map(|h| h.reinstates).sum();
                (leftovers, st.shed, st.expired, st.quarantine_refused, trips, reinstates)
            };
            worker_shared.vacated.notify_all();
            let mut report = outcome.unwrap_or_default();
            report.shed = shed;
            report.deadline_expired = expired;
            report.quarantine_trips = trips;
            report.quarantine_reinstates = reinstates;
            report.failed += refused + leftovers.len() as u64;
            for request in leftovers {
                request.ticket.complete(Err(ServeError::WorkerLost));
            }
            report
        });
        let worker = match spawned {
            Ok(handle) => Some(handle),
            Err(_) => {
                // the OS refused us a thread: refuse work instead of
                // panicking — submits see `ShuttingDown`, shutdown
                // returns an empty report
                shared.lock().dead = true;
                None
            }
        };
        Server { shared, worker }
    }

    /// Submits one image to `model`. While the queue is at capacity the
    /// configured [`ShedPolicy`] decides: `Block` waits for space (bounded
    /// by the deadline, when one is set), `RejectNewest` refuses this
    /// request, `RejectOldest` evicts the oldest queued request to admit
    /// this one. The policy's default deadline
    /// ([`BatchPolicy::with_deadline`]) applies; use
    /// [`Server::submit_with_deadline`] for a per-request deadline.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when `model` is not resident
    /// (registry-backed servers only), [`ServeError::ShuttingDown`] once
    /// shutdown has begun or the batcher is gone,
    /// [`ServeError::ModelQuarantined`] while the model is quarantined,
    /// [`ServeError::Shed`] when the admission policy refuses the
    /// request, and [`ServeError::DeadlineExceeded`] when the deadline
    /// passes while blocked at the admission gate.
    pub fn submit(&self, model: ModelId, image: Tensor) -> Result<Ticket, ServeError> {
        self.submit_inner(model, image, self.shared.policy.deadline)
    }

    /// Like [`Server::submit`], with an explicit deadline for this
    /// request (overriding the policy default). The deadline bounds the
    /// whole request: blocking admission, queueing, and drain — a ticket
    /// whose deadline passes before its batch forms resolves as
    /// [`ServeError::DeadlineExceeded`] instead of running.
    ///
    /// # Errors
    ///
    /// As [`Server::submit`].
    pub fn submit_with_deadline(
        &self,
        model: ModelId,
        image: Tensor,
        deadline: Duration,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(model, image, Some(deadline))
    }

    fn submit_inner(
        &self,
        model: ModelId,
        image: Tensor,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        self.check_model(model)?;
        let expires = deadline.map(|d| Instant::now() + d);
        let mut st = self.shared.lock();
        loop {
            if st.draining || st.dead {
                return Err(ServeError::ShuttingDown);
            }
            let now = Instant::now();
            if expires.is_some_and(|e| now >= e) {
                // timed out at the admission gate: the request never got
                // a queue slot, but the outcome is the same typed error a
                // queued expiry gets
                st.expired += 1;
                return Err(ServeError::DeadlineExceeded);
            }
            if st.quarantined_at(model, now) {
                return Err(ServeError::ModelQuarantined(model));
            }
            if st.queue.len() < self.shared.policy.queue_cap {
                return Ok(self.enqueue(st, model, image, expires));
            }
            match self.shared.policy.shed {
                ShedPolicy::Block => match expires {
                    None => {
                        st = self.shared.vacated.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(exp) => {
                        let (guard, _timed_out) = self
                            .shared
                            .vacated
                            .wait_timeout(st, exp - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        st = guard; // the loop re-checks capacity and expiry
                    }
                },
                ShedPolicy::RejectNewest => {
                    st.shed += 1;
                    return Err(ServeError::Shed(ShedPolicy::RejectNewest));
                }
                ShedPolicy::RejectOldest => {
                    let evicted = st.queue.pop_front();
                    if evicted.is_some() {
                        st.shed += 1;
                    }
                    let ticket = self.enqueue(st, model, image, expires);
                    // resolve the evicted ticket after the lock dropped
                    // (enqueue consumed the guard)
                    if let Some(request) = evicted {
                        request.ticket.complete(Err(ServeError::Shed(ShedPolicy::RejectOldest)));
                    }
                    return Ok(ticket);
                }
            }
        }
    }

    /// Submits one image to `model` without blocking. The policy's
    /// default deadline attaches to the ticket; the [`ShedPolicy`]
    /// applies at capacity, except `Block` (which cannot block here and
    /// reports [`ServeError::QueueFull`] instead).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when `model` is not resident
    /// (registry-backed servers only), [`ServeError::QueueFull`] when the
    /// queue is at capacity under [`ShedPolicy::Block`],
    /// [`ServeError::Shed`] at capacity under [`ShedPolicy::RejectNewest`],
    /// [`ServeError::ModelQuarantined`] while the model is quarantined,
    /// [`ServeError::ShuttingDown`] once shutdown has begun.
    pub fn try_submit(&self, model: ModelId, image: Tensor) -> Result<Ticket, ServeError> {
        self.check_model(model)?;
        let expires = self.shared.policy.deadline.map(|d| Instant::now() + d);
        let mut st = self.shared.lock();
        if st.draining || st.dead {
            return Err(ServeError::ShuttingDown);
        }
        if st.quarantined_at(model, Instant::now()) {
            return Err(ServeError::ModelQuarantined(model));
        }
        if st.queue.len() >= self.shared.policy.queue_cap {
            match self.shared.policy.shed {
                ShedPolicy::Block => return Err(ServeError::QueueFull),
                ShedPolicy::RejectNewest => {
                    st.shed += 1;
                    return Err(ServeError::Shed(ShedPolicy::RejectNewest));
                }
                ShedPolicy::RejectOldest => {
                    if let Some(request) = st.queue.pop_front() {
                        st.shed += 1;
                        let ticket = self.enqueue(st, model, image, expires);
                        request.ticket.complete(Err(ServeError::Shed(ShedPolicy::RejectOldest)));
                        return Ok(ticket);
                    }
                    return Err(ServeError::QueueFull); // queue_cap == 0 edge
                }
            }
        }
        Ok(self.enqueue(st, model, image, expires))
    }

    fn check_model(&self, model: ModelId) -> Result<(), ServeError> {
        match self.shared.model_count {
            Some(count) if model.index() >= count => Err(ServeError::UnknownModel(model)),
            _ => Ok(()),
        }
    }

    fn enqueue(
        &self,
        mut st: MutexGuard<'_, QueueState>,
        model: ModelId,
        image: Tensor,
        deadline: Option<Instant>,
    ) -> Ticket {
        let shared = Arc::new(TicketShared { result: Mutex::new(None), ready: Condvar::new() });
        st.queue.push_back(Request {
            model,
            image,
            submitted: Instant::now(),
            deadline,
            ticket: Arc::clone(&shared),
        });
        drop(st);
        self.shared.arrived.notify_all();
        Ticket { shared }
    }

    /// Requests queued right now (an instantaneous backpressure signal).
    pub fn queue_len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Begins shutdown without consuming the server: new submissions fail
    /// with [`ServeError::ShuttingDown`] while the batcher drains what is
    /// already queued. Call [`Server::shutdown`] to join and collect the
    /// report.
    pub fn begin_shutdown(&self) {
        self.shared.lock().draining = true;
        self.shared.arrived.notify_all();
        self.shared.vacated.notify_all();
    }

    /// Drains every queued request through the engine, stops the batcher,
    /// and returns the accumulated report. Every outstanding ticket is
    /// resolved before this returns.
    pub fn shutdown(mut self) -> ServeReport {
        self.finish()
    }

    fn finish(&mut self) -> ServeReport {
        self.begin_shutdown();
        match self.worker.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => ServeReport::default(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.worker.is_some() {
            let _ = self.finish();
        }
    }
}

// These tests exercise the server on the real OS scheduler (sleeps,
// wall-clock deadlines), so they are gated out of `--cfg trq_check`
// builds; the model-checked equivalents live in `trq-check-tests`.
#[cfg(all(test, not(trq_check)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A gate the tests use to hold the backend closed while they stage
    /// the queue, making queue-capacity assertions deterministic.
    struct Gate {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Gate> {
            Arc::new(Gate { open: Mutex::new(false), cv: Condvar::new() })
        }

        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.cv.notify_all();
        }

        fn wait_open(&self) {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
        }
    }

    /// The model id the single-model tests route everything through.
    const M0: ModelId = ModelId::new(0);

    fn image(tag: f32) -> Tensor {
        Tensor::from_vec(vec![4], vec![tag, tag + 1.0, tag + 2.0, tag + 3.0]).unwrap()
    }

    /// An echo backend: waits for the gate, then answers each request
    /// with its own input. Exercises the queue/ticket machinery without
    /// a network.
    fn gated_echo_server(policy: BatchPolicy, gate: &Arc<Gate>) -> Server {
        let gate = Arc::clone(gate);
        Server::with_worker(policy, move |source| {
            gate.wait_open();
            source.serve(|_model, images: &[Tensor]| Ok((images.to_vec(), PimStats::default())))
        })
    }

    #[test]
    fn try_submit_applies_backpressure() {
        let gate = Gate::new();
        let policy = BatchPolicy::default().with_queue_cap(2).with_max_wait(Duration::ZERO);
        let server = gated_echo_server(policy, &gate);
        let t1 = server.try_submit(M0, image(0.0)).expect("slot 1");
        let t2 = server.try_submit(M0, image(4.0)).expect("slot 2");
        assert_eq!(server.try_submit(M0, image(8.0)).unwrap_err(), ServeError::QueueFull);
        assert_eq!(server.queue_len(), 2);
        gate.open();
        assert_eq!(t1.wait().expect("echo").output.data(), image(0.0).data());
        assert_eq!(t2.wait().expect("echo").output.data(), image(4.0).data());
    }

    #[test]
    fn blocking_submit_waits_for_space() {
        let gate = Gate::new();
        let policy = BatchPolicy::default().with_queue_cap(1).with_max_wait(Duration::ZERO);
        let server = Arc::new(gated_echo_server(policy, &gate));
        let _t1 = server.submit(M0, image(0.0)).expect("slot 1");
        let server2 = Arc::clone(&server);
        let blocked = std::thread::spawn(move || server2.submit(M0, image(4.0)));
        // open the gate: the batcher drains slot 1, freeing space for the
        // blocked submitter
        gate.open();
        let t2 = blocked.join().expect("no panic").expect("unblocked submit succeeds");
        assert_eq!(t2.wait().expect("echo").output.data(), image(4.0).data());
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let gate = Gate::new();
        let policy = BatchPolicy::default().with_max_batch(2).with_max_wait(Duration::ZERO);
        let server = gated_echo_server(policy, &gate);
        let tickets: Vec<Ticket> =
            (0..5).map(|i| server.submit(M0, image(i as f32)).expect("enqueue")).collect();
        server.begin_shutdown();
        assert_eq!(server.submit(M0, image(99.0)).unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(server.try_submit(M0, image(99.0)).unwrap_err(), ServeError::ShuttingDown);
        gate.open();
        let report = server.shutdown();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait().expect("drained before exit");
            assert_eq!(response.output.data(), image(i as f32).data());
            assert!(response.batch_size <= 2);
        }
        assert_eq!(report.requests, 5);
        assert_eq!(report.failed, 0);
        assert!(report.batches >= 3, "max_batch 2 needs ≥ 3 batches for 5 requests");
        assert_eq!(report.max_batch_seen, 2);
    }

    #[test]
    fn batch_error_fails_only_its_own_tickets() {
        // backend that rejects any batch whose head is negative
        let policy = BatchPolicy::default().with_max_batch(1).with_max_wait(Duration::ZERO);
        let server = Server::with_worker(policy, move |source| {
            source.serve(|_model, images: &[Tensor]| {
                if images[0].data()[0] < 0.0 {
                    return Err(NnError::BadGraph { reason: "injected".into() });
                }
                Ok((images.to_vec(), PimStats::default()))
            })
        });
        let good1 = server.submit(M0, image(1.0)).unwrap();
        let bad = server.submit(M0, image(-9.0)).unwrap();
        let good2 = server.submit(M0, image(2.0)).unwrap();
        assert!(good1.wait().is_ok());
        assert!(matches!(bad.wait().unwrap_err(), ServeError::Forward(_)));
        assert!(good2.wait().is_ok(), "the server must keep serving after a failed batch");
        let report = server.shutdown();
        assert_eq!(report.requests, 2);
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn batch_panic_fails_tickets_but_server_survives() {
        let panics = Arc::new(AtomicUsize::new(0));
        let panics2 = Arc::clone(&panics);
        let policy = BatchPolicy::default().with_max_batch(1).with_max_wait(Duration::ZERO);
        let server = Server::with_worker(policy, move |source| {
            source.serve(move |_model, images: &[Tensor]| {
                if images[0].data()[0] < 0.0 {
                    panics2.fetch_add(1, Ordering::SeqCst);
                    panic!("injected backend panic");
                }
                Ok((images.to_vec(), PimStats::default()))
            })
        });
        let bad = server.submit(M0, image(-1.0)).unwrap();
        let good = server.submit(M0, image(5.0)).unwrap();
        assert_eq!(bad.wait().unwrap_err(), ServeError::BatchPanicked);
        assert!(good.wait().is_ok(), "a panicked batch must not take the batcher down");
        assert_eq!(panics.load(Ordering::SeqCst), 1);
        let report = server.shutdown();
        assert_eq!(report.requests, 1);
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn dead_worker_fails_leftover_tickets() {
        // body exits immediately without serving anything
        let policy = BatchPolicy::default();
        let server = Server::with_worker(policy, |_source| ServeReport::default());
        // the worker may already be gone; either the submit is refused or
        // the ticket resolves to WorkerLost — nothing hangs
        match server.submit(M0, image(0.0)) {
            Ok(ticket) => {
                assert_eq!(ticket.wait().unwrap_err(), ServeError::WorkerLost);
            }
            Err(e) => assert_eq!(e, ServeError::ShuttingDown),
        }
    }

    #[test]
    fn mixed_shapes_split_into_shape_uniform_batches() {
        let gate = Gate::new();
        let policy = BatchPolicy::default().with_max_batch(8).with_max_wait(Duration::ZERO);
        let shapes_seen = Arc::new(Mutex::new(Vec::new()));
        let shapes2 = Arc::clone(&shapes_seen);
        let gate2 = Arc::clone(&gate);
        let server = Server::with_worker(policy, move |source| {
            gate2.wait_open();
            source.serve(move |_model, images: &[Tensor]| {
                let dims = images[0].shape().dims().to_vec();
                assert!(
                    images.iter().all(|x| x.shape().dims() == dims),
                    "batches must be shape-uniform"
                );
                shapes2.lock().unwrap().push((dims, images.len()));
                Ok((images.to_vec(), PimStats::default()))
            })
        });
        let wide = Tensor::from_vec(vec![2, 2], vec![1.0; 4]).unwrap();
        let t1 = server.submit(M0, image(0.0)).unwrap();
        let t2 = server.submit(M0, image(4.0)).unwrap();
        let t3 = server.submit(M0, wide.clone()).unwrap();
        let t4 = server.submit(M0, image(8.0)).unwrap();
        gate.open();
        for t in [t1, t2, t3, t4] {
            assert!(t.wait().is_ok());
        }
        let report = server.shutdown();
        assert_eq!(report.requests, 4);
        let shapes = shapes_seen.lock().unwrap();
        // arrival order is preserved: [4]×2, then [2,2]×1, then [4]×1
        assert_eq!(*shapes, vec![(vec![4], 2), (vec![2, 2], 1), (vec![4], 1)]);
    }

    #[test]
    fn wrong_output_count_fails_the_batch_instead_of_hanging() {
        let policy = BatchPolicy::default().with_max_batch(4).with_max_wait(Duration::ZERO);
        let gate = Gate::new();
        let gate2 = Arc::clone(&gate);
        let server = Server::with_worker(policy, move |source| {
            gate2.wait_open();
            // a broken backend: answers one output regardless of batch size
            source
                .serve(|_model, images: &[Tensor]| Ok((images[..1].to_vec(), PimStats::default())))
        });
        let t1 = server.submit(M0, image(0.0)).unwrap();
        let t2 = server.submit(M0, image(4.0)).unwrap();
        gate.open();
        // both tickets must resolve (not hang), with the typed error
        let err = t1.wait().unwrap_err();
        assert_eq!(err, ServeError::BadBatchOutput { expected: 2, got: 1 });
        assert_eq!(t2.wait().unwrap_err(), err);
        let report = server.shutdown();
        assert_eq!(report.failed, 2);
        assert_eq!(report.requests, 0);
    }

    #[test]
    fn poll_is_non_consuming_and_wait_still_returns() {
        let policy = BatchPolicy::default().with_max_batch(1).with_max_wait(Duration::ZERO);
        let server = Server::with_worker(policy, move |source| {
            source.serve(|_model, images: &[Tensor]| Ok((images.to_vec(), PimStats::default())))
        });
        let ticket = server.submit(M0, image(3.0)).unwrap();
        // spin until the poll sees the result, then wait() must not hang
        loop {
            if let Some(result) = ticket.poll() {
                assert_eq!(result.expect("echo").output.data(), image(3.0).data());
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(ticket.wait().expect("still claimable").output.data(), image(3.0).data());
    }

    #[test]
    fn shape_bounded_batch_skips_the_straggler_wait() {
        // a long max_wait with a shape boundary already queued: the batch
        // is bounded, so next_batch must not sleep the full wait
        let gate = Gate::new();
        let policy = BatchPolicy::default()
            .with_max_batch(16)
            .with_max_wait(Duration::from_secs(5))
            .with_queue_cap(8);
        let server = gated_echo_server(policy, &gate);
        let t1 = server.submit(M0, image(0.0)).unwrap();
        let t2 = server.submit(M0, Tensor::from_vec(vec![2, 2], vec![1.0; 4]).unwrap()).unwrap();
        let t0 = Instant::now();
        gate.open();
        assert!(t1.wait().is_ok());
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "bounded batches must not eat the full max_wait"
        );
        // t2 now heads a lone batch and would legitimately wait for
        // stragglers; draining releases it immediately
        server.begin_shutdown();
        assert!(t2.wait().is_ok());
    }

    #[test]
    fn full_queue_skips_the_straggler_wait() {
        // queue_cap < max_batch with the queue pinned at capacity:
        // nothing new can arrive, so the batcher must not sleep max_wait
        let gate = Gate::new();
        let policy = BatchPolicy::default()
            .with_max_batch(16)
            .with_max_wait(Duration::from_secs(5))
            .with_queue_cap(2);
        let server = gated_echo_server(policy, &gate);
        let t1 = server.submit(M0, image(0.0)).unwrap();
        let t2 = server.submit(M0, image(4.0)).unwrap();
        let t0 = Instant::now();
        gate.open();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "a capacity-bounded batch must not eat the full max_wait"
        );
    }

    #[test]
    fn mixed_models_split_into_per_model_batches() {
        let gate = Gate::new();
        let policy = BatchPolicy::default().with_max_batch(8).with_max_wait(Duration::ZERO);
        let batches_seen = Arc::new(Mutex::new(Vec::new()));
        let batches2 = Arc::clone(&batches_seen);
        let gate2 = Arc::clone(&gate);
        let server = Server::with_worker(policy, move |source| {
            gate2.wait_open();
            source.serve(move |model, images: &[Tensor]| {
                batches2.lock().unwrap().push((model, images.len()));
                Ok((images.to_vec(), PimStats::default()))
            })
        });
        let m1 = ModelId::new(1);
        let t1 = server.submit(M0, image(0.0)).unwrap();
        let t2 = server.submit(M0, image(4.0)).unwrap();
        let t3 = server.submit(m1, image(8.0)).unwrap();
        let t4 = server.submit(M0, image(12.0)).unwrap();
        gate.open();
        for (t, want) in [(t1, M0), (t2, M0), (t3, m1), (t4, M0)] {
            assert_eq!(t.wait().expect("echo").model, want);
        }
        let report = server.shutdown();
        // arrival order is preserved and batches never mix models:
        // model#0 ×2, then model#1 ×1, then model#0 ×1
        assert_eq!(*batches_seen.lock().unwrap(), vec![(M0, 2), (m1, 1), (M0, 1)]);
        assert_eq!(report.per_model.len(), 2);
        assert_eq!(report.model_usage(M0).unwrap().requests, 3);
        assert_eq!(report.model_usage(M0).unwrap().batches, 2);
        assert_eq!(report.model_usage(m1).unwrap().requests, 1);
        assert_eq!(report.model_usage(m1).unwrap().batches, 1);
    }

    #[test]
    fn unknown_model_is_refused_at_submit_time() {
        // a registry-checked server (model_count = 1) behind an echo body
        let policy = BatchPolicy::default().with_max_wait(Duration::ZERO);
        let server = Server::spawn(policy, Some(1), move |source| {
            source.serve(|_model, images: &[Tensor]| Ok((images.to_vec(), PimStats::default())))
        });
        let bogus = ModelId::new(1);
        assert_eq!(server.submit(bogus, image(0.0)).unwrap_err(), ServeError::UnknownModel(bogus));
        assert_eq!(
            server.try_submit(bogus, image(0.0)).unwrap_err(),
            ServeError::UnknownModel(bogus)
        );
        let ok = server.submit(M0, image(1.0)).unwrap();
        assert_eq!(ok.wait().expect("echo").output.data(), image(1.0).data());
        let report = server.shutdown();
        assert_eq!(report.requests, 1);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn policy_normalisation_clamps_degenerate_knobs() {
        let p = BatchPolicy::default().with_max_batch(0).with_queue_cap(0).normalized();
        assert_eq!(p.max_batch, 1);
        assert_eq!(p.queue_cap, 1);
    }

    #[test]
    fn expired_queued_ticket_resolves_deadline_exceeded() {
        // the gate keeps the batcher from even starting until the
        // deadline is long past: the sweep must resolve the ticket typed,
        // not run it late or drop it
        let gate = Gate::new();
        let policy = BatchPolicy::default().with_max_wait(Duration::ZERO);
        let server = gated_echo_server(policy, &gate);
        let doomed = server
            .submit_with_deadline(M0, image(0.0), Duration::from_millis(5))
            .expect("queue has space");
        let healthy = server.submit(M0, image(4.0)).expect("no deadline");
        std::thread::sleep(Duration::from_millis(20));
        gate.open();
        assert_eq!(doomed.wait().unwrap_err(), ServeError::DeadlineExceeded);
        assert_eq!(
            healthy.wait().expect("undeadlined requests still serve").output.data(),
            image(4.0).data()
        );
        let report = server.shutdown();
        assert_eq!(report.deadline_expired, 1);
        assert_eq!(report.requests, 1);
        assert_eq!(report.failed, 0, "deadline expiry is accounted separately from failures");
    }

    #[test]
    fn deadline_expires_mid_drain_behind_a_slow_batch() {
        // t1's batch stalls the batcher past t2's deadline; the re-sweep
        // on the next wakeup must expire t2 instead of serving it late
        let policy = BatchPolicy::default().with_max_batch(1).with_max_wait(Duration::ZERO);
        let server = Server::with_worker(policy, move |source| {
            source.serve(|_model, images: &[Tensor]| {
                std::thread::sleep(Duration::from_millis(40));
                Ok((images.to_vec(), PimStats::default()))
            })
        });
        let slow = server.submit(M0, image(0.0)).expect("heads the first batch");
        let doomed = server
            .submit_with_deadline(M0, image(4.0), Duration::from_millis(10))
            .expect("queued behind the slow batch");
        assert!(slow.wait().is_ok());
        assert_eq!(doomed.wait().unwrap_err(), ServeError::DeadlineExceeded);
        let report = server.shutdown();
        assert_eq!(report.deadline_expired, 1);
    }

    #[test]
    fn blocked_submit_gives_up_at_its_deadline() {
        let gate = Gate::new();
        let policy = BatchPolicy::default().with_queue_cap(1).with_max_wait(Duration::ZERO);
        let server = gated_echo_server(policy, &gate);
        let t1 = server.submit(M0, image(0.0)).expect("slot 1");
        let t0 = Instant::now();
        let err = server
            .submit_with_deadline(M0, image(4.0), Duration::from_millis(20))
            .expect_err("queue stays full while the gate is shut");
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert!(t0.elapsed() >= Duration::from_millis(20), "must wait out the deadline first");
        gate.open();
        assert!(t1.wait().is_ok());
    }

    #[test]
    fn wait_timeout_is_bounded_and_non_consuming() {
        let gate = Gate::new();
        let policy = BatchPolicy::default().with_max_wait(Duration::ZERO);
        let server = gated_echo_server(policy, &gate);
        let ticket = server.submit(M0, image(7.0)).unwrap();
        assert!(
            ticket.wait_timeout(Duration::from_millis(10)).is_none(),
            "no result can exist while the gate is shut"
        );
        gate.open();
        let result = ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("open gate: the echo resolves well inside the bound");
        assert_eq!(result.expect("echo").output.data(), image(7.0).data());
        // the result stays claimable after bounded waits
        assert_eq!(ticket.wait().expect("still claimable").output.data(), image(7.0).data());
    }

    #[test]
    fn reject_newest_sheds_at_capacity() {
        let gate = Gate::new();
        let policy = BatchPolicy::default()
            .with_queue_cap(1)
            .with_max_wait(Duration::ZERO)
            .with_shed(ShedPolicy::RejectNewest);
        let server = gated_echo_server(policy, &gate);
        let t1 = server.submit(M0, image(0.0)).expect("slot 1");
        assert_eq!(
            server.submit(M0, image(4.0)).unwrap_err(),
            ServeError::Shed(ShedPolicy::RejectNewest),
            "submit rejects instead of blocking"
        );
        assert_eq!(
            server.try_submit(M0, image(4.0)).unwrap_err(),
            ServeError::Shed(ShedPolicy::RejectNewest)
        );
        gate.open();
        assert!(t1.wait().is_ok(), "admitted work is unaffected by shedding");
        let report = server.shutdown();
        assert_eq!(report.shed, 2);
        assert_eq!(report.requests, 1);
    }

    #[test]
    fn reject_oldest_evicts_the_head_for_fresh_work() {
        let gate = Gate::new();
        let policy = BatchPolicy::default()
            .with_queue_cap(1)
            .with_max_wait(Duration::ZERO)
            .with_shed(ShedPolicy::RejectOldest);
        let server = gated_echo_server(policy, &gate);
        let stale = server.submit(M0, image(0.0)).expect("slot 1");
        let fresh = server.submit(M0, image(4.0)).expect("evicts the head, takes its slot");
        assert_eq!(
            stale.wait().unwrap_err(),
            ServeError::Shed(ShedPolicy::RejectOldest),
            "the evicted ticket resolves typed"
        );
        gate.open();
        assert_eq!(fresh.wait().expect("freshest-wins").output.data(), image(4.0).data());
        let report = server.shutdown();
        assert_eq!(report.shed, 1);
        assert_eq!(report.requests, 1);
    }

    /// A backend that fails its first `failures` batches of every model,
    /// then echoes — the shape quarantine tests need.
    fn flaky_echo_server(policy: BatchPolicy, failures: usize) -> (Server, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = Arc::clone(&calls);
        let server = Server::with_worker(policy, move |source| {
            source.serve(move |_model, images: &[Tensor]| {
                if calls2.fetch_add(1, Ordering::SeqCst) < failures {
                    return Err(NnError::BadGraph { reason: "flaky".into() });
                }
                Ok((images.to_vec(), PimStats::default()))
            })
        });
        (server, calls)
    }

    #[test]
    fn repeated_failures_trip_quarantine_then_probe_reinstates() {
        let policy = BatchPolicy::default()
            .with_max_batch(1)
            .with_max_wait(Duration::ZERO)
            .with_quarantine(QuarantinePolicy::default().with_threshold(2).with_backoff(
                Duration::from_millis(40),
                2,
                Duration::from_secs(1),
            ));
        let (server, _calls) = flaky_echo_server(policy, 2);
        let f1 = server.submit(M0, image(0.0)).unwrap();
        let f2 = server.submit(M0, image(1.0)).unwrap();
        assert!(matches!(f1.wait().unwrap_err(), ServeError::Forward(_)));
        assert!(matches!(f2.wait().unwrap_err(), ServeError::Forward(_)));
        // failure 2 hit the threshold: the trip happened before f2's
        // ticket resolved, so this refusal is deterministic
        assert_eq!(server.submit(M0, image(2.0)).unwrap_err(), ServeError::ModelQuarantined(M0));
        std::thread::sleep(Duration::from_millis(60));
        // backoff elapsed: this request runs as the probe and succeeds
        let probe = server.submit(M0, image(3.0)).expect("probe admitted after backoff");
        assert_eq!(probe.wait().expect("probe succeeds").output.data(), image(3.0).data());
        // reinstated: traffic flows without waiting
        let after = server.submit(M0, image(4.0)).unwrap();
        assert!(after.wait().is_ok());
        let report = server.shutdown();
        assert_eq!(report.quarantine_trips, 1);
        assert_eq!(report.quarantine_reinstates, 1);
        assert_eq!(report.requests, 2);
        assert_eq!(report.failed, 2);
    }

    #[test]
    fn failed_probe_re_quarantines_with_advanced_backoff() {
        let policy = BatchPolicy::default()
            .with_max_batch(1)
            .with_max_wait(Duration::ZERO)
            .with_quarantine(QuarantinePolicy::default().with_threshold(1).with_backoff(
                Duration::from_millis(30),
                2,
                Duration::from_secs(1),
            ));
        let (server, _calls) = flaky_echo_server(policy, usize::MAX); // never heals
        let f1 = server.submit(M0, image(0.0)).unwrap();
        assert!(f1.wait().is_err()); // trip #1
        std::thread::sleep(Duration::from_millis(45));
        let probe = server.submit(M0, image(1.0)).expect("probe admitted");
        assert!(probe.wait().is_err(), "the model is still sick");
        // the failed probe re-tripped immediately (no threshold wait)
        assert_eq!(server.submit(M0, image(2.0)).unwrap_err(), ServeError::ModelQuarantined(M0));
        let report = server.shutdown();
        assert_eq!(report.quarantine_trips, 2);
        assert_eq!(report.quarantine_reinstates, 0);
    }

    #[test]
    fn quarantine_is_per_model_and_sweeps_queued_requests() {
        // model 0 always fails; model 1 echoes. One sick model must not
        // stop the healthy one, and requests already queued for the sick
        // model resolve typed when the trip lands.
        let gate = Gate::new();
        let gate2 = Arc::clone(&gate);
        let policy = BatchPolicy::default()
            .with_max_batch(1)
            .with_max_wait(Duration::ZERO)
            .with_quarantine(QuarantinePolicy::default().with_threshold(1).with_backoff(
                Duration::from_secs(30),
                2,
                Duration::from_secs(60),
            ));
        let server = Server::with_worker(policy, move |source| {
            gate2.wait_open();
            source.serve(|model, images: &[Tensor]| {
                if model == M0 {
                    return Err(NnError::BadGraph { reason: "sick model".into() });
                }
                Ok((images.to_vec(), PimStats::default()))
            })
        });
        let m1 = ModelId::new(1);
        let sick1 = server.submit(M0, image(0.0)).unwrap();
        let sick2 = server.submit(M0, image(1.0)).unwrap();
        let healthy = server.submit(m1, image(2.0)).unwrap();
        gate.open();
        assert!(matches!(sick1.wait().unwrap_err(), ServeError::Forward(_)));
        // sick2 was queued when the trip landed: swept, not served
        assert_eq!(sick2.wait().unwrap_err(), ServeError::ModelQuarantined(M0));
        assert_eq!(
            healthy.wait().expect("other models keep serving").output.data(),
            image(2.0).data()
        );
        assert_eq!(
            server.submit(M0, image(3.0)).unwrap_err(),
            ServeError::ModelQuarantined(M0),
            "new submits for the quarantined model are refused"
        );
        let report = server.shutdown();
        assert_eq!(report.quarantine_trips, 1);
        assert_eq!(report.requests, 1);
        // sick1 (forward error) + sick2 (refused while queued)
        assert_eq!(report.failed, 2);
    }

    #[test]
    fn quarantine_disabled_never_trips() {
        let policy = BatchPolicy::default()
            .with_max_batch(1)
            .with_max_wait(Duration::ZERO)
            .with_quarantine(QuarantinePolicy::disabled());
        let (server, _calls) = flaky_echo_server(policy, 3);
        for i in 0..3 {
            let t = server.submit(M0, image(i as f32)).unwrap();
            assert!(t.wait().is_err());
        }
        // three straight failures, still no quarantine
        let t = server.submit(M0, image(9.0)).expect("no quarantine when disabled");
        assert!(t.wait().is_ok());
        let report = server.shutdown();
        assert_eq!(report.quarantine_trips, 0);
    }

    #[test]
    fn fault_shim_injects_on_schedule_through_the_server() {
        // error-only plan with a budget of 2: the first two batches fail
        // typed, everything after serves clean
        let plan = FaultPlan::new(11).with_weights([0, 1, 0, 0, 0]).with_fault_budget(2);
        let policy = BatchPolicy::default().with_max_batch(1).with_max_wait(Duration::ZERO);
        let server = Server::with_worker(policy, move |source| {
            let echo =
                |_model: ModelId, images: &[Tensor]| Ok((images.to_vec(), PimStats::default()));
            source.serve(plan.shim(echo))
        });
        let t1 = server.submit(M0, image(0.0)).unwrap();
        assert!(matches!(t1.wait().unwrap_err(), ServeError::Forward(_)));
        let t2 = server.submit(M0, image(1.0)).unwrap();
        assert!(matches!(t2.wait().unwrap_err(), ServeError::Forward(_)));
        let t3 = server.submit(M0, image(2.0)).unwrap();
        assert!(t3.wait().is_ok(), "the fault budget is spent; the storm is over");
        let report = server.shutdown();
        assert_eq!(report.failed, 2);
        assert_eq!(report.requests, 1);
    }
}
