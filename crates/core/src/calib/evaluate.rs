//! Plan evaluation: BL sample collection and end-to-end metric runs,
//! parallelised across images on the persistent worker pool.

use crate::arch::ArchConfig;
use crate::calib::CalibError;
use crate::exec::Pool;
use crate::pim::{AdcScheme, CollectorConfig, LayerSamples, PimMvm, PimStats};
use std::sync::Mutex;
use trq_nn::QuantizedNetwork;
use trq_tensor::Tensor;
use trq_xbar::NoiseModel;

/// What "accuracy" means for a workload (Section V-A vs DESIGN.md):
/// labelled accuracy for the in-repo trained models, FP32-agreement
/// fidelity for the He-initialised ones.
#[derive(Debug, Clone, Copy)]
pub enum EvalMetric<'a> {
    /// Top-1 accuracy against labels.
    Labeled(&'a [(Tensor, usize)]),
    /// Top-1 agreement with the float network on unlabelled inputs.
    Fidelity(&'a [Tensor]),
}

impl EvalMetric<'_> {
    /// Number of evaluation inputs.
    pub fn len(&self) -> usize {
        match self {
            EvalMetric::Labeled(s) => s.len(),
            EvalMetric::Fidelity(s) => s.len(),
        }
    }

    /// True when there are no inputs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Result of evaluating a plan.
#[derive(Debug, Clone)]
pub struct PlanEval {
    /// The metric value (accuracy or fidelity, in `[0, 1]`).
    pub score: f64,
    /// Accumulated engine statistics over the evaluation set.
    pub stats: PimStats,
}

/// Runs the quantized network over calibration images with an ideal-ADC
/// collector engine and returns each layer's exact BL count histogram —
/// Algorithm 1's raw input (the paper samples 32 calibration images).
///
/// # Errors
///
/// Returns [`CalibError::Kernel`] when the kernel selection is rejected,
/// and [`CalibError::Collection`] when the calibration forward pass fails
/// (the engine session is still closed cleanly in that case).
pub fn collect_bl_samples(
    qnet: &QuantizedNetwork,
    arch: &ArchConfig,
    images: &[Tensor],
    config: CollectorConfig,
) -> Result<Vec<LayerSamples>, CalibError> {
    let mut engine =
        PimMvm::collector(*arch, qnet.layers().len(), config).map_err(CalibError::Kernel)?;
    // the whole calibration batch goes through each layer in one engine
    // call, which tallies every BL count of the layer
    qnet.forward_batch(images, &mut engine).map_err(CalibError::Collection)?;
    Ok(engine.take_samples())
}

/// Evaluates a per-layer plan end to end, in parallel across images.
///
/// Image shards run as one fork-join round on [`Pool::global`] — the same
/// parked workers the MVM engines dispatch tiles to — so calibration
/// sweeps spawn no threads of their own. Each shard's engine runs its
/// tile rounds inline (the pool's job slot is held by the shard round),
/// which is the right granularity anyway: images are embarrassingly
/// parallel, tiles are not free.
///
/// # Errors
///
/// Returns [`CalibError::Kernel`], before the pool round, when the kernel
/// selection is rejected, and [`CalibError`] when any shard's forward
/// pass fails. Shards record their own outcome and the merge below picks
/// the first failure in shard order, so the reported error is
/// deterministic for every worker count — and a failing shard never
/// panics inside the pool round.
pub fn evaluate_plan(
    qnet: &QuantizedNetwork,
    arch: &ArchConfig,
    plan: &[AdcScheme],
    metric: &EvalMetric<'_>,
) -> Result<PlanEval, CalibError> {
    evaluate_against(qnet, arch, plan, metric, None).map(|(eval, _)| eval)
}

/// [`evaluate_plan`], scoring against `targets` (the class each input
/// counts as correct) when given. Without them, targets are the labels or
/// the float network's classes, and they are returned so later calls over
/// the same metric can skip the FP32 reference forwards.
pub(super) fn evaluate_against(
    qnet: &QuantizedNetwork,
    arch: &ArchConfig,
    plan: &[AdcScheme],
    metric: &EvalMetric<'_>,
    targets: Option<&[usize]>,
) -> Result<(PlanEval, Vec<usize>), CalibError> {
    let n = metric.len();
    if n == 0 {
        return Ok((PlanEval { score: 0.0, stats: PimStats::default() }, Vec::new()));
    }
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8).min(n);
    let chunk = n.div_ceil(threads);
    let engines = shard_engines(arch, plan, threads, &NoiseModel::ideal())?;
    // one result slot per shard; shards are merged in slot order below,
    // so the outcome is deterministic for every thread count
    type ShardResult = Result<(usize, PimStats, Vec<usize>), CalibError>;
    let slots: Vec<Mutex<Option<ShardResult>>> = (0..threads).map(|_| Mutex::new(None)).collect();
    let store = |shard: usize, result: ShardResult| {
        *lock(&slots[shard]) = Some(result);
    };
    Pool::global().run(threads, &|shard| {
        let lo = shard * chunk;
        let hi = ((shard + 1) * chunk).min(n);
        if lo >= hi {
            return;
        }
        let mut engine = lock(&engines[shard]);
        // the shard's whole slice runs as one window batch, so the
        // engine tiles across images as well as windows
        let labeled: Vec<Tensor>;
        let images = match metric {
            EvalMetric::Labeled(samples) => {
                labeled = samples[lo..hi].iter().map(|s| s.0.clone()).collect();
                &labeled
            }
            EvalMetric::Fidelity(inputs) => &inputs[lo..hi],
        };
        let ys = match qnet.forward_batch(images, &mut *engine) {
            Ok(ys) => ys,
            Err(e) => {
                store(shard, Err(CalibError::Evaluation(e)));
                return;
            }
        };
        let mut correct = 0usize;
        let mut shard_targets = Vec::with_capacity(hi - lo);
        for (i, y) in (lo..hi).zip(ys.iter()) {
            let target = match (metric, targets) {
                (_, Some(targets)) => targets[i],
                (EvalMetric::Labeled(samples), None) => samples[i].1,
                (EvalMetric::Fidelity(inputs), None) => match qnet.network().forward(&inputs[i]) {
                    Ok(r) => r.argmax(),
                    Err(e) => {
                        store(shard, Err(CalibError::Reference(e)));
                        return;
                    }
                },
            };
            if y.argmax() == target {
                correct += 1;
            }
            shard_targets.push(target);
        }
        store(shard, Ok((correct, engine.stats().clone(), shard_targets)));
    });

    let mut stats = PimStats::default();
    let mut correct = 0usize;
    let mut all_targets = Vec::with_capacity(n);
    for slot in &slots {
        match lock(slot).take() {
            Some(Ok((c, s, t))) => {
                correct += c;
                stats.merge(&s);
                all_targets.extend(t);
            }
            Some(Err(e)) => return Err(e),
            None => {}
        }
    }
    Ok((PlanEval { score: correct as f64 / n as f64, stats }, all_targets))
}

/// One engine per evaluation shard, built before the pool round so that a
/// rejected kernel selection is a [`CalibError::Kernel`] instead of a
/// panic inside the round.
fn shard_engines(
    arch: &ArchConfig,
    plan: &[AdcScheme],
    shards: usize,
    noise: &NoiseModel,
) -> Result<Vec<Mutex<PimMvm>>, CalibError> {
    (0..shards)
        .map(|_| {
            let engine = PimMvm::try_new(*arch, plan.to_vec()).map_err(CalibError::Kernel)?;
            Ok(Mutex::new(engine.with_device_noise(*noise)))
        })
        .collect()
}

/// Locks `m`, taking the value over from a panicked holder.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Evaluates a plan under a device [`NoiseModel`] — the fault-sweep
/// engine behind `fig_fault`.
///
/// Ideal noise delegates straight to [`evaluate_plan`] (bit-identical,
/// zero extra cost). Otherwise images still shard across
/// [`Pool::global`], but each image runs as its *own* forward pass with
/// the engine's noise epoch pinned to the image's global index: the
/// stuck-at pattern is a pure function of the model seed (programming
/// happens once per shard engine), and every count-noise draw is keyed by
/// `(seed, epoch, slot coordinates)` — so scores and ledgers are
/// bit-identical across thread counts and re-runs, which is what lets a
/// sweep call this once per grid point and trust the comparison.
///
/// Fidelity references still come from the *float* network — noise only
/// corrupts the analog path under test, never the yardstick.
///
/// # Errors
///
/// Returns [`CalibError`] when any forward pass fails, deterministically
/// picking the first failing shard in slot order.
pub fn evaluate_plan_noisy(
    qnet: &QuantizedNetwork,
    arch: &ArchConfig,
    plan: &[AdcScheme],
    metric: &EvalMetric<'_>,
    noise: &NoiseModel,
) -> Result<PlanEval, CalibError> {
    if noise.is_ideal() {
        return evaluate_plan(qnet, arch, plan, metric);
    }
    let n = metric.len();
    if n == 0 {
        return Ok(PlanEval { score: 0.0, stats: PimStats::default() });
    }
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8).min(n);
    let chunk = n.div_ceil(threads);
    let engines = shard_engines(arch, plan, threads, noise)?;
    type ShardResult = Result<(usize, PimStats), CalibError>;
    let slots: Vec<Mutex<Option<ShardResult>>> = (0..threads).map(|_| Mutex::new(None)).collect();
    let store = |shard: usize, result: ShardResult| {
        *lock(&slots[shard]) = Some(result);
    };
    Pool::global().run(threads, &|shard| {
        let lo = shard * chunk;
        let hi = ((shard + 1) * chunk).min(n);
        if lo >= hi {
            return;
        }
        let mut engine = lock(&engines[shard]);
        let mut correct = 0usize;
        for i in lo..hi {
            let image = match metric {
                EvalMetric::Labeled(samples) => &samples[i].0,
                EvalMetric::Fidelity(inputs) => &inputs[i],
            };
            // one forward per image, epoch = global index: draws depend
            // on *which* image, not which shard or thread ran it
            engine.set_noise_epoch(i as u64);
            let y = match qnet.forward(image, &mut *engine) {
                Ok(y) => y,
                Err(e) => {
                    store(shard, Err(CalibError::Evaluation(e)));
                    return;
                }
            };
            match metric {
                EvalMetric::Labeled(samples) => {
                    if y.argmax() == samples[i].1 {
                        correct += 1;
                    }
                }
                EvalMetric::Fidelity(inputs) => {
                    let reference = match qnet.network().forward(&inputs[i]) {
                        Ok(r) => r,
                        Err(e) => {
                            store(shard, Err(CalibError::Reference(e)));
                            return;
                        }
                    };
                    if y.argmax() == reference.argmax() {
                        correct += 1;
                    }
                }
            }
        }
        store(shard, Ok((correct, engine.stats().clone())));
    });

    let mut stats = PimStats::default();
    let mut correct = 0usize;
    for slot in &slots {
        match lock(slot).take() {
            Some(Ok((c, s))) => {
                correct += c;
                stats.merge(&s);
            }
            Some(Err(e)) => return Err(e),
            None => {}
        }
    }
    Ok(PlanEval { score: correct as f64 / n as f64, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trq_nn::{data, models};

    fn small_setup() -> (QuantizedNetwork, ArchConfig, Vec<Tensor>) {
        let net = models::mlp(28 * 28, 12, 10, 5).unwrap();
        let ds = data::synthetic_digits(10, 4);
        let images: Vec<Tensor> = ds.iter().map(|s| s.image.clone()).collect();
        let qnet = QuantizedNetwork::quantize(&net, &images[..4]).unwrap();
        (qnet, ArchConfig::default(), images)
    }

    #[test]
    fn collection_covers_every_layer() {
        let (qnet, arch, images) = small_setup();
        let samples =
            collect_bl_samples(&qnet, &arch, &images[..2], CollectorConfig::default()).unwrap();
        assert_eq!(samples.len(), 2);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.mvm_index, i);
            assert!(s.hist.count() > 0, "layer {i} collected nothing");
        }
    }

    #[test]
    fn ideal_plan_fidelity_is_high() {
        let (qnet, arch, images) = small_setup();
        let metric = EvalMetric::Fidelity(&images);
        let plan = vec![AdcScheme::Ideal; qnet.layers().len()];
        let eval = evaluate_plan(&qnet, &arch, &plan, &metric).unwrap();
        assert!(
            eval.score >= 0.8,
            "8-bit PTQ + lossless ADC should agree with FP32: {}",
            eval.score
        );
        assert!(eval.stats.conversions() > 0);
    }

    #[test]
    fn one_bit_uniform_plan_destroys_fidelity_or_saves_ops() {
        let (qnet, arch, images) = small_setup();
        let metric = EvalMetric::Fidelity(&images);
        let coarse = vec![AdcScheme::uniform(1, 64.0); qnet.layers().len()];
        let eval = evaluate_plan(&qnet, &arch, &coarse, &metric).unwrap();
        // 1-bit BL quantization must at minimum slash the op count
        assert!(eval.stats.remaining_ops_ratio() < 0.2);
    }

    #[test]
    fn parallel_and_sequential_scores_agree() {
        let (qnet, arch, images) = small_setup();
        let plan = vec![AdcScheme::uniform(6, 0.7); qnet.layers().len()];
        let metric = EvalMetric::Fidelity(&images);
        let a = evaluate_plan(&qnet, &arch, &plan, &metric).unwrap();
        let b = evaluate_plan(&qnet, &arch, &plan, &metric).unwrap();
        assert_eq!(a.score, b.score, "evaluation must be deterministic");
        assert_eq!(a.stats.ops(), b.stats.ops());
    }

    #[test]
    fn reused_targets_score_like_fresh_references() {
        let (qnet, arch, images) = small_setup();
        let metric = EvalMetric::Fidelity(&images);
        let ideal = vec![AdcScheme::Ideal; qnet.layers().len()];
        let (_, targets) = evaluate_against(&qnet, &arch, &ideal, &metric, None).unwrap();
        assert_eq!(targets.len(), images.len());
        for bits in [6, 2] {
            let plan = vec![AdcScheme::uniform(bits, 0.7); qnet.layers().len()];
            let fresh = evaluate_plan(&qnet, &arch, &plan, &metric).unwrap();
            let (reused, _) =
                evaluate_against(&qnet, &arch, &plan, &metric, Some(&targets)).unwrap();
            assert_eq!(fresh.score.to_bits(), reused.score.to_bits());
            assert_eq!(fresh.stats, reused.stats);
        }
    }

    #[test]
    fn ideal_noise_is_bit_identical_to_noiseless() {
        let (qnet, arch, images) = small_setup();
        let plan = vec![AdcScheme::uniform(6, 0.7); qnet.layers().len()];
        let metric = EvalMetric::Fidelity(&images);
        let a = evaluate_plan(&qnet, &arch, &plan, &metric).unwrap();
        let b = evaluate_plan_noisy(&qnet, &arch, &plan, &metric, &NoiseModel::ideal()).unwrap();
        assert_eq!(a.score, b.score);
        assert_eq!(a.stats.ops(), b.stats.ops());
        assert_eq!(a.stats.conversions(), b.stats.conversions());
    }

    #[test]
    fn noisy_evaluation_is_deterministic_across_runs() {
        let (qnet, arch, images) = small_setup();
        let plan = vec![AdcScheme::Ideal; qnet.layers().len()];
        let metric = EvalMetric::Fidelity(&images);
        let noise = NoiseModel {
            sigma_prog: 0.08,
            sigma_read: 0.5,
            stuck_off_rate: 0.01,
            stuck_on_rate: 0.005,
            seed: 1234,
        };
        let a = evaluate_plan_noisy(&qnet, &arch, &plan, &metric, &noise).unwrap();
        let b = evaluate_plan_noisy(&qnet, &arch, &plan, &metric, &noise).unwrap();
        assert_eq!(a.score, b.score, "same seed must reproduce the same score");
        assert_eq!(a.stats.ops(), b.stats.ops());
        assert_eq!(a.stats.conversions(), b.stats.conversions());
    }

    #[test]
    fn heavy_stuck_at_degrades_fidelity() {
        let (qnet, arch, images) = small_setup();
        let plan = vec![AdcScheme::Ideal; qnet.layers().len()];
        let metric = EvalMetric::Fidelity(&images);
        let clean = evaluate_plan(&qnet, &arch, &plan, &metric).unwrap();
        let noise = NoiseModel {
            sigma_prog: 0.0,
            sigma_read: 0.0,
            stuck_off_rate: 0.5,
            stuck_on_rate: 0.0,
            seed: 7,
        };
        let sick = evaluate_plan_noisy(&qnet, &arch, &plan, &metric, &noise).unwrap();
        assert!(
            sick.score <= clean.score,
            "half the cells stuck off cannot improve fidelity: {} vs {}",
            sick.score,
            clean.score
        );
    }

    /// A kernel tier the host cannot run is a typed error from every
    /// calibration entry point, never a panic inside the pool round. A
    /// set `TRQ_KERNEL` beats the configured tier, and then every call
    /// succeeds on the tier it names.
    #[test]
    fn foreign_kernel_tier_is_a_typed_error() {
        use crate::arch::{KernelConfigError, KernelSelect};
        use crate::calib::{algorithm1, CalibSettings};
        let foreign =
            if cfg!(target_arch = "x86_64") { KernelSelect::Neon } else { KernelSelect::Avx2 };
        let pinned = std::env::var("TRQ_KERNEL").is_ok_and(|v| !v.trim().is_empty());
        let (qnet, arch, images) = small_setup();
        let arch = ArchConfig { exec: arch.exec.with_kernel(foreign), ..arch };
        let metric = EvalMetric::Fidelity(&images);
        let plan = vec![AdcScheme::uniform(6, 0.7); qnet.layers().len()];
        let noise = NoiseModel { stuck_off_rate: 0.01, seed: 5, ..NoiseModel::ideal() };
        let outcomes = [
            collect_bl_samples(&qnet, &arch, &images[..2], CollectorConfig::default()).map(drop),
            evaluate_plan(&qnet, &arch, &plan, &metric).map(drop),
            evaluate_plan_noisy(&qnet, &arch, &plan, &metric, &noise).map(drop),
            algorithm1(&qnet, &arch, &[], &metric, &CalibSettings::default()).map(drop),
        ];
        for outcome in outcomes {
            match outcome {
                Ok(()) => assert!(pinned, "a foreign tier must be refused"),
                Err(CalibError::Kernel(KernelConfigError::Unavailable { .. })) => {
                    assert!(!pinned, "TRQ_KERNEL must beat the configured tier");
                }
                Err(other) => panic!("expected a kernel error, got {other}"),
            }
        }
    }

    #[test]
    fn empty_metric_is_zero() {
        let (qnet, arch, _) = small_setup();
        let metric = EvalMetric::Fidelity(&[]);
        let eval = evaluate_plan(&qnet, &arch, &[AdcScheme::Ideal], &metric).unwrap();
        assert_eq!(eval.score, 0.0);
    }
}
