//! The three workloads and what they share: run settings, set-up
//! repetition, and the engine stage profile every traced run reports.

mod bringup;
mod resnet;
mod serve;

pub use bringup::{replay_algorithm1, Replay};

use crate::engine::{repeat_for, replay_xbar, timed_batch, TracedEngine, FORWARD, MVM};
use crate::report::{Checker, Outcome};
use crate::stats::median;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trq_core::arch::{ArchConfig, ExecConfig};
use trq_core::pim::{AdcScheme, PimMvm, PimStats};
use trq_nn::QuantizedNetwork;
use trq_tensor::Tensor;

/// One batch's outputs and ledger, or why it failed.
pub type Batch = Result<(Vec<Tensor>, PimStats), String>;
/// A [`Batch`] with its wall time in ms.
pub type TimedBatch = Result<(f64, Vec<Tensor>, PimStats), String>;

/// Seed of every model's weights. The CLI seed drives only the inputs,
/// so the simulated metrics compare one fixed model across input sets.
pub const MODEL_SEED: u64 = 7;

/// The 784×32×10 MLP of serve-mlp and bringup-mlp, trained on synthetic
/// digits. Its weights are the deployed artefact the workloads start
/// from, like a model file: built once per process, before any timing.
/// Training matters for the calibration path — an untrained network's
/// near-tied logits flip under the slightest conversion error, so
/// Algorithm 1's θ test would depend on which images the seed drew.
pub fn trained_mlp() -> Result<trq_nn::Network, String> {
    let mut net = trq_nn::models::mlp(28 * 28, 32, 10, MODEL_SEED).map_err(|e| e.to_string())?;
    let train = trq_nn::data::synthetic_digits(150, MODEL_SEED);
    let config =
        trq_nn::TrainConfig { epochs: 18, lr: 0.02, momentum: 0.9, batch: 12, seed: MODEL_SEED };
    trq_nn::sgd_train(&mut net, &train, &config).map_err(|e| e.to_string())?;
    Ok(net)
}

/// How one run is measured.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Measurement time of the run's timed phases.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Fewest repetitions (set-up, timed operations) for a quick
    /// self-test instead of steady medians.
    pub quick: bool,
    /// Directory for snapshot files and the trace (created if missing).
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// `share` of the run's measurement time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// At least `full` operations in a steady run, one in a quick run.
    pub fn min_ops(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }

    /// How often set-up is repeated for the `setup_s` median: at least
    /// 9 times and for at least a second (a quick run: once).
    fn setup_reps(&self) -> (usize, Duration) {
        if self.quick {
            (1, Duration::ZERO)
        } else {
            (9, Duration::from_secs(1))
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline batch inference of resnet20 on two engine threads.
    BatchResnet20,
    /// The MLP behind the micro-batching server, paced and burst.
    ServeMlp,
    /// Cold start (calibrate, program, snapshot) and restore of the MLP.
    BringupMlp,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 3] =
        [Workload::BatchResnet20, Workload::ServeMlp, Workload::BringupMlp];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchResnet20 => "batch-resnet20",
            Workload::ServeMlp => "serve-mlp",
            Workload::BringupMlp => "bringup-mlp",
        }
    }

    /// Looks a workload up by its CLI name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine threads: fixed per workload so the process never has more
    /// busy threads than the two cores the benchmark host has.
    pub fn engine_threads(self) -> usize {
        match self {
            Workload::BatchResnet20 => 2,
            Workload::ServeMlp | Workload::BringupMlp => 1,
        }
    }

    /// The default architecture with this workload's engine threads.
    pub fn arch(self) -> ArchConfig {
        arch_with_threads(self.engine_threads())
    }

    /// Runs the workload.
    ///
    /// # Errors
    ///
    /// A set-up step failed, so nothing could be measured.
    pub fn run(self, cfg: &RunConfig) -> Result<Outcome, String> {
        std::fs::create_dir_all(&cfg.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
        match self {
            Workload::BatchResnet20 => resnet::run(cfg),
            Workload::ServeMlp => serve::run(cfg),
            Workload::BringupMlp => bringup::run(cfg),
        }
    }
}

/// The default architecture with `threads` engine threads.
pub fn arch_with_threads(threads: usize) -> ArchConfig {
    ArchConfig::default().with_exec(ExecConfig::serial().with_threads(threads))
}

/// Repeats `setup` per [`RunConfig`] (at most 200 times); returns the
/// last result and the median wall time in seconds.
pub fn repeated_setup<T>(
    cfg: &RunConfig,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let (reps, budget) = cfg.setup_reps();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let t0 = Instant::now();
    while times.len() < reps || (t0.elapsed() < budget && times.len() < 200) {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        // the previous set-up is dropped outside the timed region
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Per-image `forward` on a fresh one-thread engine: the outputs and the
/// summed ledger every batched or served run must reproduce bit for bit.
pub fn reference(qnet: &QuantizedNetwork, plan: &[AdcScheme], images: &[Tensor]) -> Batch {
    let mut engine = PimMvm::new(arch_with_threads(1), plan.to_vec());
    let outputs = images
        .iter()
        .map(|x| qnet.forward(x, &mut engine).map_err(|e| format!("reference forward: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((outputs, engine.stats().clone()))
}

/// Top-1 agreement of `outputs` with the float network on `images`.
pub fn float_agreement(
    net: &trq_nn::Network,
    images: &[Tensor],
    outputs: &[Tensor],
) -> Result<f64, String> {
    let mut agree = 0;
    for (x, y) in images.iter().zip(outputs) {
        let f = net.forward(x).map_err(|e| format!("float forward: {e}"))?;
        agree += usize::from(f.argmax() == y.argmax());
    }
    Ok(agree as f64 / images.len().max(1) as f64)
}

/// True when two output lists are bit-identical.
pub fn same_bits(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data().iter().zip(y.data()).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Checks one batch against the reference outputs and ledger.
pub fn check_batch(checks: &mut Checker, what: &str, got: &Batch, want: &(Vec<Tensor>, PimStats)) {
    match got {
        Ok((out, stats)) => checks.check(same_bits(out, &want.0) && *stats == want.1, || {
            format!("{what}: outputs or ledger differ from the per-image reference")
        }),
        Err(e) => checks.fail(format!("{what}: {e}")),
    }
}

/// The engine stage breakdown of one batch shape, from traced batches on
/// a fresh engine plus replays of the xbar stages.
pub struct StageProfile {
    /// Batches run while traced, with their outputs and ledgers.
    pub batches: Vec<Batch>,
    /// The tracer that recorded them.
    pub tracer: crate::trace::Tracer,
}

/// Runs traced batches of `images` on a fresh engine for `budget`, then
/// captures one batch's engine calls and replays the xbar stages on them.
/// Per-layer metrics come from the batch with the median forward time, so
/// glue + pack + kernel + decode add up to that batch's forward time.
pub fn stage_profile(
    out: &mut Outcome,
    qnet: &QuantizedNetwork,
    arch: ArchConfig,
    plan: &[AdcScheme],
    images: &[Tensor],
    budget: Duration,
    min_ops: usize,
) -> StageProfile {
    let mut engine = PimMvm::new(arch, plan.to_vec());
    for layer in qnet.layers() {
        engine.program_layer(&layer.info, &layer.weights_q);
    }
    let mut traced = TracedEngine::new(engine);
    // one untimed warm-up batch sizes the engine's scratch and captures
    // every engine call for the replays
    traced.capture = true;
    let _ = traced.traced_batch(qnet, images);
    traced.capture = false;
    traced.tracer = crate::trace::Tracer::default();
    let batches = repeat_for(budget, min_ops, || {
        traced.traced_batch(qnet, images).map_err(|e| format!("traced forward: {e}"))
    });
    let tracer = std::mem::take(&mut traced.tracer);
    let forward = tracer.durations_ms(FORWARD);
    let engine_ms = tracer.child_sums_ms(FORWARD, MVM);
    let glue = tracer.self_ms(FORWARD);
    let calls_per_batch = tracer.spans().iter().filter(|s| s.name == MVM).count() / forward.len();
    // the batch whose forward time is the (lower) median
    let mut order: Vec<usize> = (0..forward.len()).collect();
    order.sort_by(|&a, &b| forward[a].total_cmp(&forward[b]));
    let mid = order[(order.len() - 1) / 2];
    let replay = replay_xbar(&traced.inner, &traced.captured, 5);
    let windows: u64 = traced.captured.iter().map(|c| c.n as u64).sum();
    let stats =
        batches.iter().find_map(|b| b.as_ref().ok()).map(|b| b.1.clone()).unwrap_or_default();
    out.set("nn.forward_ms", forward[mid]);
    out.set("nn.glue_ms", glue[mid]);
    out.set("pim.engine_ms", engine_ms[mid]);
    out.set("pim.mvm_calls", calls_per_batch as f64);
    out.set("pim.windows", windows as f64);
    out.set("xbar.pack_ms", replay.pack_ms);
    out.set("xbar.kernel_ms", replay.kernel_ms);
    out.set("pim.decode_ms", engine_ms[mid] - replay.pack_ms - replay.kernel_ms);
    out.set("xbar.dead_block_frac", replay.dead_block_frac);
    out.set("xbar.live_plane_frac", replay.live_plane_frac);
    out.set("adc.mean_ops_per_conversion", stats.mean_ops());
    StageProfile { batches, tracer }
}

/// Alternates untraced batches on a one-thread and a two-thread engine
/// for `budget`; returns the two sets of results (time, outputs, ledger).
pub fn thread_pairs(
    qnet: &QuantizedNetwork,
    plan: &[AdcScheme],
    images: &[Tensor],
    budget: Duration,
    min_ops: usize,
) -> (Vec<TimedBatch>, Vec<TimedBatch>) {
    let mut engines = [1, 2].map(|t| {
        let mut e = PimMvm::new(arch_with_threads(t), plan.to_vec());
        for layer in qnet.layers() {
            e.program_layer(&layer.info, &layer.weights_q);
        }
        let _ = qnet.forward_batch(images, &mut e);
        e
    });
    let pairs = repeat_for(budget, min_ops, || {
        let [one, two] = &mut engines;
        let a = timed_batch(qnet, one, images).map_err(|e| format!("1-thread forward: {e}"));
        let b = timed_batch(qnet, two, images).map_err(|e| format!("2-thread forward: {e}"));
        (a, b)
    });
    pairs.into_iter().unzip()
}

/// Median batch time of the successful runs in `runs`.
pub fn median_ms(runs: &[TimedBatch]) -> f64 {
    let times: Vec<f64> = runs.iter().filter_map(|r| r.as_ref().ok().map(|r| r.0)).collect();
    median(&times)
}

/// Drops the time from a timed batch result, for [`check_batch`].
pub fn untimed(r: &TimedBatch) -> Batch {
    r.as_ref().map(|(_, o, s)| (o.clone(), s.clone())).map_err(Clone::clone)
}
