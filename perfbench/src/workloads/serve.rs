//! `serve-mlp`: the trained 784×32×10 MLP behind `trq-serve`'s micro-batcher
//! with the default `BatchPolicy` (its queue sized to hold a whole
//! burst) and a uniform 6-bit plan, on one engine thread. The backend
//! is a `Server::with_worker` body that delegates to `Model::run_batch`.
//!
//! - `paced`: an open loop from one generator thread at a fixed rate,
//!   each request timed from its due time to its response.
//! - `burst`: whole bursts submitted back to back, so batches fill up;
//!   throughput is requests served ÷ burst wall time.

use super::{
    check_batch, float_agreement, median_ms, reference, repeated_setup, same_bits, stage_profile,
    thread_pairs, trained_mlp, untimed, RunConfig, Workload,
};
use crate::report::{peak_rss_mb, Checker, Outcome};
use crate::stats::{median, ms, quantile};
use crate::trace::Tracer;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trq_core::pim::{AdcScheme, PimStats};
use trq_nn::{data, Network, QuantizedNetwork};
use trq_serve::{BatchPolicy, Model, ModelId, Response, ServeError, ServeReport, Server, Ticket};
use trq_tensor::Tensor;

/// Distinct request images; every phase sends a multiple of this many
/// requests in rotation, so ops per image is the pool's mean exactly.
const POOL: usize = 256;
/// Paced-phase offered rate. A lone request costs the 1 ms straggler
/// wait of the default policy plus ~0.4 ms of engine time, so the
/// batcher turns over at ~700 req/s; at 1 000 req/s every request
/// would land inside the previous one's cycle and batch sizes would mix
/// from run to run. At 500 req/s (2 ms apart) each request is served
/// alone, and its latency is the policy's wait plus one engine call.
const PACED_RATE: f64 = 500.0;
/// Requests per burst.
const BURST: usize = 2048;
/// Burst throughput of the two-core benchmark host, req/s; sizes the
/// burst phase (see `burst_count`).
const BURST_RATE: f64 = 12_000.0;
/// Alternations of the paced and the burst phase in one run.
const ROUNDS: usize = 10;
/// Batch shape of the stage profile: a full batch of the burst phase.
const PROFILE_BATCH: usize = 16;
const MODEL: ModelId = ModelId::new(0);

/// One engine call as the backend saw it (traced servers only).
#[derive(Debug, Clone, Copy)]
struct BatchLog {
    start: Instant,
    end: Instant,
    size: usize,
}

type Log = Arc<Mutex<Vec<BatchLog>>>;

fn start_server(model: Model, log: Option<Log>) -> Server {
    let policy = BatchPolicy::default().with_queue_cap(BURST);
    Server::with_worker(policy, move |source| {
        let mut model = model;
        source.serve(move |_: ModelId, images: &[Tensor]| {
            let start = Instant::now();
            let result = model.run_batch(images);
            if let Some(log) = &log {
                let entry = BatchLog { start, end: Instant::now(), size: images.len() };
                log.lock().expect("batch log lock").push(entry);
            }
            result
        })
    })
}

fn program(qnet: &QuantizedNetwork, plan: &[AdcScheme]) -> Model {
    Model::program("mlp", qnet.clone(), Workload::ServeMlp.arch(), plan.to_vec())
}

struct Setup {
    net: Network,
    qnet: QuantizedNetwork,
    plan: Vec<AdcScheme>,
    pool: Vec<Tensor>,
    paced: Server,
    burst: Server,
    quantize_ms: f64,
    program_ms: f64,
}

fn setup(net: &Network, seed: u64) -> Result<Setup, String> {
    let net = net.clone();
    let pool: Vec<Tensor> =
        data::synthetic_digits(POOL, seed).into_iter().map(|s| s.image).collect();
    let t0 = Instant::now();
    let qnet = QuantizedNetwork::quantize(&net, &pool[..8]).map_err(|e| e.to_string())?;
    let quantize_ms = ms(t0.elapsed());
    let plan = vec![AdcScheme::uniform(6, 0.7); qnet.layers().len()];
    let t0 = Instant::now();
    let (paced_model, burst_model) = (program(&qnet, &plan), program(&qnet, &plan));
    let program_ms = ms(t0.elapsed()) / 2.0;
    let paced = start_server(paced_model, None);
    let burst = start_server(burst_model, None);
    Ok(Setup { net, qnet, plan, pool, paced, burst, quantize_ms, program_ms })
}

/// One request's fate.
struct Sent {
    due: Instant,
    sent: Instant,
    image: usize,
    result: Result<Response, ServeError>,
}

impl Sent {
    /// Due time to response, ms; `None` for a failed request.
    fn latency_ms(&self) -> Option<f64> {
        let r = self.result.as_ref().ok()?;
        Some(ms(self.sent.saturating_duration_since(self.due) + r.latency))
    }
}

type Pending = (Instant, Instant, usize, Result<Ticket, ServeError>);

fn collect(pending: Vec<Pending>) -> Vec<Sent> {
    pending
        .into_iter()
        .map(|(due, sent, image, ticket)| Sent {
            due,
            sent,
            image,
            result: ticket.and_then(Ticket::wait),
        })
        .collect()
}

/// Open loop at `PACED_RATE` for `seconds`, sent from this thread.
fn paced_phase(server: &Server, pool: &[Tensor], seconds: f64) -> Vec<Sent> {
    let n = ((PACED_RATE * seconds / POOL as f64).round() as usize).max(1) * POOL;
    let period = Duration::from_secs_f64(1.0 / PACED_RATE);
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut pending = Vec::with_capacity(n);
    for i in 0..n {
        let image = pool[i % POOL].clone();
        let due = t0 + period * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        pending.push((due, sent, i % POOL, server.submit(MODEL, image)));
    }
    collect(pending)
}

/// `bursts` bursts of `BURST` back-to-back submits: every request, and
/// each burst's throughput (requests served ÷ wall time from the first
/// submit to the last response).
fn burst_phase(server: &Server, pool: &[Tensor], bursts: usize) -> (Vec<Sent>, Vec<f64>) {
    let mut sent = Vec::with_capacity(bursts * BURST);
    let mut rps = Vec::with_capacity(bursts);
    for _ in 0..bursts {
        let images: Vec<Tensor> = (0..BURST).map(|i| pool[i % POOL].clone()).collect();
        let t0 = Instant::now();
        let pending: Vec<Pending> = images
            .into_iter()
            .enumerate()
            .map(|(i, x)| (t0, Instant::now(), i % POOL, server.submit(MODEL, x)))
            .collect();
        // the queue is FIFO: once the last request resolves, all have, and
        // the generator woke once instead of once per batch
        if let Some((.., Ok(last))) = pending.last() {
            let _ = last.wait_timeout(Duration::from_secs(60));
        }
        let wall = t0.elapsed();
        let burst = collect(pending);
        rps.push(burst.iter().filter(|s| s.result.is_ok()).count() as f64 / wall.as_secs_f64());
        sent.extend(burst);
    }
    (sent, rps)
}

/// Bursts for `share` of the run, at least one: sized to take that long at
/// `BURST_RATE`. A count rather than a time budget keeps the responses
/// held for checking — and so peak memory — the same in every run.
fn burst_count(cfg: &RunConfig, share: f64) -> usize {
    ((cfg.seconds * share * BURST_RATE / BURST as f64).round() as usize).max(1)
}

/// Latency quantile in ms; failed requests count as misses (+∞).
fn latency_quantile(sent: &[Sent], q: f64) -> f64 {
    let v: Vec<f64> = sent.iter().map(|s| s.latency_ms().unwrap_or(f64::INFINITY)).collect();
    quantile(&v, q)
}

/// Checks every response against the per-image reference and the
/// server's ledger against the references' summed ledgers.
fn check_phase(
    checks: &mut Checker,
    phase: &str,
    sent: &[Sent],
    report: &ServeReport,
    want: &[(Tensor, PimStats)],
) {
    let mut expected = PimStats::default();
    for s in sent {
        match &s.result {
            Ok(r) => {
                let ok = same_bits(
                    std::slice::from_ref(&r.output),
                    std::slice::from_ref(&want[s.image].0),
                );
                checks.check(ok, || format!("{phase}: response for image {} differs", s.image));
                expected.merge(&want[s.image].1);
            }
            Err(e) => checks.fail(format!("{phase}: request for image {}: {e}", s.image)),
        }
    }
    checks.check(report.stats == expected, || format!("{phase}: server ledger differs"));
}

pub(super) fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut stage_ms = (Vec::new(), Vec::new());
    let net = trained_mlp()?;
    let (s, setup_s) = repeated_setup(cfg, || {
        let s = setup(&net, cfg.seed)?;
        stage_ms.0.push(s.quantize_ms);
        stage_ms.1.push(s.program_ms);
        Ok(s)
    })?;
    out.set("setup_s", setup_s);
    out.set("quant.quantize_ms", median(&stage_ms.0));
    out.set("pim.program_ms", median(&stage_ms.1));
    let Setup { net, qnet, plan, pool, paced, burst, .. } = s;

    // rounds of a paced segment then bursts, so both phases sample the
    // whole run; a traced run alternates the untraced servers with traced
    // ones, half the time each
    let mut untraced = Servers { paced, burst, logs: None, phases: Phases::default() };
    let mut traced = cfg.trace.then(|| {
        let logs = [Log::default(), Log::default()];
        let paced = start_server(program(&qnet, &plan), Some(Arc::clone(&logs[0])));
        let burst = start_server(program(&qnet, &plan), Some(Arc::clone(&logs[1])));
        Servers { paced, burst, logs: Some(logs), phases: Phases::default() }
    });
    let rounds = cfg.min_ops(ROUNDS);
    let share = if cfg.trace { 0.5 } else { 1.0 } / rounds as f64;
    for _ in 0..rounds {
        for servers in std::iter::once(&mut untraced).chain(traced.as_mut()) {
            servers.round(cfg, &pool, share);
        }
    }
    let untraced = untraced.finish();
    let traced = traced.map(Servers::finish);
    if !cfg.trace {
        out.set("peak_rss_mb", peak_rss_mb()?);
        out.set("latency_ms_p50", latency_quantile(&untraced.paced, 0.5));
        out.set("throughput_per_s", median(&untraced.burst.1));
    }

    let want = per_image_reference(&qnet, &plan, &pool)?;
    untraced.check(&mut out, "", &want);
    if let Some(traced) = &traced {
        traced.check(&mut out, "traced ", &want);
        per_layer(cfg, &mut out, &qnet, &plan, &pool, &want, &untraced, traced);
    }
    let outputs: Vec<Tensor> = want.iter().map(|w| w.0.clone()).collect();
    let mut pool_stats = PimStats::default();
    for w in &want {
        pool_stats.merge(&w.1);
    }
    out.set("adc_ops_per_image", pool_stats.ops() as f64 / POOL as f64);
    out.set("adc_ops_ratio", pool_stats.remaining_ops_ratio());
    out.set("fidelity", float_agreement(&net, &pool, &outputs)?);
    Ok(out)
}

/// A paced and a burst server, and what they served so far.
struct Servers {
    paced: Server,
    burst: Server,
    logs: Option<[Log; 2]>,
    phases: Phases,
}

impl Servers {
    /// One paced segment, then bursts, each for `share` of its phase.
    fn round(&mut self, cfg: &RunConfig, pool: &[Tensor], share: f64) {
        let p = &mut self.phases;
        p.paced.extend(paced_phase(&self.paced, pool, cfg.seconds * 0.6 * share));
        let (sent, rps) = burst_phase(&self.burst, pool, burst_count(cfg, 0.4 * share));
        p.burst.0.extend(sent);
        p.burst.1.extend(rps);
    }

    /// Shuts both servers down and collects their reports and logs.
    fn finish(self) -> Phases {
        let take = |log: Log| log.lock().expect("batch log lock").clone();
        Phases {
            reports: [self.paced.shutdown(), self.burst.shutdown()],
            logs: self.logs.map(|logs| logs.map(take)),
            ..self.phases
        }
    }
}

/// Both phases on one pair of servers.
#[derive(Default)]
struct Phases {
    paced: Vec<Sent>,
    /// The requests and each burst's throughput.
    burst: (Vec<Sent>, Vec<f64>),
    /// Paced, burst (after shutdown).
    reports: [ServeReport; 2],
    /// Every engine call of the paced and the burst server (traced only).
    logs: Option<[Vec<BatchLog>; 2]>,
}

impl Phases {
    /// Checks every response and both ledgers; adds up the refusals.
    fn check(&self, out: &mut Outcome, label: &str, want: &[(Tensor, PimStats)]) {
        for (phase, sent, report) in
            [("paced", &self.paced, &self.reports[0]), ("burst", &self.burst.0, &self.reports[1])]
        {
            check_phase(&mut out.checks, &format!("{label}{phase}"), sent, report, want);
        }
        for (name, count) in [
            ("serve.failed", self.reports.iter().map(|r| r.failed).sum::<u64>()),
            ("serve.shed", self.reports.iter().map(|r| r.shed).sum()),
            ("serve.deadline_expired", self.reports.iter().map(|r| r.deadline_expired).sum()),
        ] {
            let before = out.metrics.get(name).copied().unwrap_or(0.0);
            out.set(name, before + count as f64);
        }
    }
}

/// Per-image reference outputs and ledgers for every pool image.
fn per_image_reference(
    qnet: &QuantizedNetwork,
    plan: &[AdcScheme],
    pool: &[Tensor],
) -> Result<Vec<(Tensor, PimStats)>, String> {
    pool.iter()
        .map(|x| {
            let (out, stats) = reference(qnet, plan, std::slice::from_ref(x))?;
            Ok((out.into_iter().next().expect("one output per image"), stats))
        })
        .collect()
}

/// Per-layer metrics of a traced run: request and batch spans from the
/// traced servers, tails and generator lateness from the untraced paced
/// phase, the engine stage profile of a full burst batch outside the
/// server, and thread scaling on that batch.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    cfg: &RunConfig,
    out: &mut Outcome,
    qnet: &QuantizedNetwork,
    plan: &[AdcScheme],
    pool: &[Tensor],
    want: &[(Tensor, PimStats)],
    untraced: &Phases,
    traced: &Phases,
) {
    let [paced_log, burst_log] = traced.logs.as_ref().expect("traced servers log batches");
    let mut tracer = Tracer::default();
    let queue_wait = trace_requests(&mut tracer, &traced.paced, paced_log);
    for b in burst_log {
        tracer.record("serve.engine", b.start, b.end, None, None);
    }
    let batch_ms =
        |log: &[BatchLog]| -> Vec<f64> { log.iter().map(|b| ms(b.end - b.start)).collect() };
    let mean_batch = |r: &ServeReport| r.requests as f64 / r.batches.max(1) as f64;
    out.set("serve.queue_wait_ms_p50", median(&queue_wait));
    out.set("serve.paced.engine_ms_per_batch_p50", median(&batch_ms(paced_log)));
    out.set("serve.burst.engine_ms_per_batch_p50", median(&batch_ms(burst_log)));
    out.set("serve.paced.mean_batch", mean_batch(&traced.reports[0]));
    out.set("serve.burst.mean_batch", mean_batch(&traced.reports[1]));
    out.set("serve.latency_ms_p90", latency_quantile(&untraced.paced, 0.9));
    out.set("serve.latency_ms_p99", latency_quantile(&untraced.paced, 0.99));
    let late: Vec<f64> =
        untraced.paced.iter().map(|s| ms(s.sent.saturating_duration_since(s.due))).collect();
    out.set("serve.generator_late_ms_p90", quantile(&late, 0.9));
    let overhead =
        latency_quantile(&traced.paced, 0.5) / latency_quantile(&untraced.paced, 0.5) - 1.0;
    out.set("trace.overhead_frac", overhead);

    // the engine under a full burst batch, outside the server
    let batch = &pool[..PROFILE_BATCH];
    let mut batch_want = (Vec::new(), PimStats::default());
    for (y, stats) in &want[..PROFILE_BATCH] {
        batch_want.0.push(y.clone());
        batch_want.1.merge(stats);
    }
    let profile = stage_profile(
        out,
        qnet,
        Workload::ServeMlp.arch(),
        plan,
        batch,
        cfg.budget(0.1),
        cfg.min_ops(5),
    );
    for r in &profile.batches {
        check_batch(&mut out.checks, "profile batch", r, &batch_want);
    }
    let (one, two) = thread_pairs(qnet, plan, batch, cfg.budget(0.1), cfg.min_ops(5));
    for r in one.iter().chain(&two) {
        check_batch(&mut out.checks, "thread-scaling batch", &untimed(r), &batch_want);
    }
    out.set("exec.speedup", median_ms(&one) / median_ms(&two));
    out.traces.push(("serve", tracer));
    out.traces.push(("engine", profile.tracer));
}

/// Records a span per paced request (due time to response) with a
/// queue-wait child (due time to its batch's engine start), and a span
/// per batch. Requests map to batches in submission order: one
/// generator and a FIFO queue. Returns each request's queue wait in ms.
fn trace_requests(tracer: &mut Tracer, sent: &[Sent], log: &[BatchLog]) -> Vec<f64> {
    let mut waits = Vec::with_capacity(sent.len());
    let mut next = 0usize;
    for b in log {
        tracer.record("serve.engine", b.start, b.end, None, Some(next as u64));
        for (id, s) in sent.iter().enumerate().skip(next).take(b.size) {
            let Some(latency) = s.latency_ms() else { continue };
            let end = s.due + Duration::from_secs_f64(latency / 1e3);
            let request = tracer.record("serve.request", s.due, end, None, Some(id as u64));
            tracer.record("serve.queue_wait", s.due, b.start, Some(request), Some(id as u64));
            waits.push(ms(b.start.saturating_duration_since(s.due)));
        }
        next += b.size;
    }
    waits
}
