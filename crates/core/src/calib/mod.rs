//! Algorithm 1 — the algorithm/hardware co-optimisation parameter search
//! (Section IV of the paper).
//!
//! Per layer: judge the BL distribution type, sweep `Vgrid` candidates in
//! `[α·ymax/(2^RADC−1), β·ymax/(2^RADC−1)]`, pick the TRQ parameters that
//! minimise the A/D-operation cost (Eq. 9) at each grid, select the grid
//! by quantization MSE (Eq. 10), and finally compare against a uniform
//! quantizer at the same payload width (Algorithm 1 line 23). End-to-end,
//! `Nmax` (the allowed code length) descends until the network metric
//! drops more than `θ` below the lossless-ADC reference.

mod evaluate;
mod layer_search;

pub use evaluate::{collect_bl_samples, evaluate_plan, evaluate_plan_noisy, EvalMetric, PlanEval};
pub use layer_search::{plan_layer, plan_network, CalibSettings, LayerPlan};

use crate::arch::{ArchConfig, KernelConfigError};
use crate::pim::{AdcScheme, LayerSamples};
use serde::{Deserialize, Serialize};
use trq_nn::{NnError, QuantizedNetwork};

/// A calibration or evaluation forward pass failed.
///
/// Calibration runs whole batches through pool-session engines; a failure
/// used to `panic!` mid-session, which is exactly the wrong failure mode
/// for a long-running process — these variants carry the phase that broke
/// so callers can report (or retry) instead of dying.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibError {
    /// The BL-sample collection forward pass failed.
    Collection(NnError),
    /// A plan-evaluation forward pass failed on the quantized datapath.
    Evaluation(NnError),
    /// The FP32 reference forward failed while scoring fidelity.
    Reference(NnError),
    /// The engine's kernel selection was rejected (a forced tier this
    /// host cannot run, or an unrecognised `TRQ_KERNEL` value).
    Kernel(KernelConfigError),
}

impl std::fmt::Display for CalibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibError::Collection(e) => write!(f, "BL-sample collection failed: {e}"),
            CalibError::Evaluation(e) => write!(f, "plan evaluation failed: {e}"),
            CalibError::Reference(e) => write!(f, "FP32 reference forward failed: {e}"),
            CalibError::Kernel(e) => write!(f, "kernel configuration rejected: {e}"),
        }
    }
}

impl std::error::Error for CalibError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CalibError::Collection(e) | CalibError::Evaluation(e) | CalibError::Reference(e) => {
                Some(e)
            }
            CalibError::Kernel(e) => Some(e),
        }
    }
}

/// Result of the full Algorithm 1 run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Algorithm1Result {
    /// Chosen per-layer plans.
    pub plans: Vec<LayerPlan>,
    /// Chosen per-layer schemes (convenience projection of `plans`).
    pub schemes: Vec<AdcScheme>,
    /// The `Nmax` (upper bound on `NR1`/`NR2`) of the accepted plan.
    pub nmax: u32,
    /// Metric achieved by the accepted plan.
    pub score: f64,
    /// Metric of the lossless-ADC quantized reference (the paper's "8/f"
    /// anchor).
    pub reference_score: f64,
    /// Every `(nmax, score)` pair visited during the descent.
    pub visited: Vec<(u32, f64)>,
}

/// Runs the full Algorithm 1: layer-wise search with a descending `Nmax`
/// loop guarded by the end-to-end accuracy threshold `θ`.
///
/// `samples` must come from [`collect_bl_samples`] on the same quantized
/// network.
///
/// A lower `Nmax` often yields the same plan (the chosen `NR1`/`NR2`
/// already sit below the bound), and a plan's score is a function of the
/// plan alone, so each distinct plan runs one evaluation pass: a repeat
/// reuses the score of its first visit. `visited` still lists every
/// `Nmax` with its score.
///
/// # Errors
///
/// Propagates [`CalibError`] from any evaluation forward pass.
pub fn algorithm1(
    qnet: &QuantizedNetwork,
    arch: &ArchConfig,
    samples: &[LayerSamples],
    metric: &EvalMetric<'_>,
    settings: &CalibSettings,
) -> Result<Algorithm1Result, CalibError> {
    // the reference run finds each input's target class once (the FP32
    // forwards for a fidelity metric); every later plan is scored on them
    let ideal = vec![AdcScheme::Ideal; qnet.layers().len()];
    let (reference, targets) = evaluate::evaluate_against(qnet, arch, &ideal, metric, None)?;
    descend(samples, arch, settings, reference.score, |schemes| {
        evaluate::evaluate_against(qnet, arch, schemes, metric, Some(&targets))
            .map(|(eval, _)| eval.score)
    })
}

/// Algorithm 1's `Nmax` descent against `reference_score`, scoring each
/// distinct plan once through `score`.
fn descend(
    samples: &[LayerSamples],
    arch: &ArchConfig,
    settings: &CalibSettings,
    reference_score: f64,
    mut score: impl FnMut(&[AdcScheme]) -> Result<f64, CalibError>,
) -> Result<Algorithm1Result, CalibError> {
    let widest = arch.adc_bits.saturating_sub(1).max(1);
    let mut scored: Vec<(Vec<AdcScheme>, f64)> = Vec::new();
    let mut visited = Vec::new();
    let mut accepted: Option<(Vec<LayerPlan>, u32, f64)> = None;
    let mut nmax = widest;
    loop {
        let plans = plan_network(samples, arch, nmax, settings);
        let schemes: Vec<AdcScheme> = plans.iter().map(|p| p.scheme).collect();
        let step_score = match scored.iter().find(|(s, _)| *s == schemes) {
            Some(&(_, seen)) => seen,
            None => {
                let fresh = score(&schemes)?;
                scored.push((schemes, fresh));
                fresh
            }
        };
        visited.push((nmax, step_score));
        if reference_score - step_score > settings.theta {
            break;
        }
        accepted = Some((plans, nmax, step_score));
        if nmax == 1 {
            break;
        }
        nmax -= 1;
    }
    let (plans, nmax, score) = accepted.unwrap_or_else(|| {
        // even the widest setting failed the threshold: fall back to the
        // first visited plan so callers always get a runnable configuration
        let plans = plan_network(samples, arch, widest, settings);
        let score = visited.first().map(|v| v.1).unwrap_or(0.0);
        (plans, widest, score)
    });
    let schemes = plans.iter().map(|p| p.scheme).collect();
    Ok(Algorithm1Result { plans, schemes, nmax, score, reference_score, visited })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pim::CollectorConfig;
    use trq_nn::{data, models};
    use trq_tensor::Tensor;

    /// The calibration test MLP: trained on synthetic digits, its
    /// collected samples, and a labelled evaluation set.
    struct Setup {
        qnet: QuantizedNetwork,
        arch: ArchConfig,
        samples: Vec<LayerSamples>,
        labeled: Vec<(Tensor, usize)>,
        train_accuracy: f64,
    }

    fn trained_mlp(seed: u64) -> Setup {
        let mut net = models::mlp(28 * 28, 24, 10, seed).unwrap();
        let train = data::synthetic_digits(150, seed + 5);
        let cfg = trq_nn::TrainConfig { epochs: 18, lr: 0.02, momentum: 0.9, batch: 12, seed: 1 };
        let report = trq_nn::sgd_train(&mut net, &train, &cfg).unwrap();
        let cal: Vec<Tensor> = train.iter().take(8).map(|s| s.image.clone()).collect();
        let qnet = QuantizedNetwork::quantize(&net, &cal).unwrap();
        let arch = ArchConfig::default();
        let samples =
            collect_bl_samples(&qnet, &arch, &cal[..4], CollectorConfig::default()).unwrap();
        let labeled = data::synthetic_digits(40, seed + 96)
            .iter()
            .map(|s| (s.image.clone(), s.label))
            .collect();
        Setup { qnet, arch, samples, labeled, train_accuracy: report.final_train_accuracy }
    }

    fn settings() -> CalibSettings {
        CalibSettings { candidates: 12, theta: 0.05, ..Default::default() }
    }

    #[test]
    fn algorithm1_on_mlp_keeps_accuracy_and_saves_ops() {
        let Setup { qnet, arch, samples, labeled, train_accuracy } = trained_mlp(3);
        assert!(train_accuracy > 0.85, "{train_accuracy}");
        assert_eq!(samples.len(), qnet.layers().len());

        let metric = EvalMetric::Labeled(&labeled);
        let result = algorithm1(&qnet, &arch, &samples, &metric, &settings()).unwrap();

        assert!(
            result.reference_score - result.score <= settings().theta + 1e-9,
            "accepted plan must respect θ: ref {} got {}",
            result.reference_score,
            result.score
        );
        // the accepted plan must actually save A/D operations
        let eval = evaluate_plan(&qnet, &arch, &result.schemes, &metric).unwrap();
        let ratio = eval.stats.remaining_ops_ratio();
        assert!(ratio < 0.9, "calibrated plan should cut ops: ratio {ratio}");
        assert!(result.nmax <= 7);
        assert!(!result.visited.is_empty());
    }

    /// Algorithm 1 as the paper states it: every `Nmax` step re-plans and
    /// re-scores through the public `plan_network` and `evaluate_plan`.
    fn unmemoised_algorithm1(s: &Setup, metric: &EvalMetric<'_>) -> Algorithm1Result {
        let ideal = vec![AdcScheme::Ideal; s.qnet.layers().len()];
        let score =
            |schemes: &[AdcScheme]| evaluate_plan(&s.qnet, &s.arch, schemes, metric).unwrap().score;
        let reference_score = score(&ideal);
        let widest = s.arch.adc_bits - 1;
        let (mut visited, mut accepted) = (Vec::new(), None);
        for nmax in (1..=widest).rev() {
            let plans = plan_network(&s.samples, &s.arch, nmax, &settings());
            let schemes: Vec<AdcScheme> = plans.iter().map(|p| p.scheme).collect();
            let step = score(&schemes);
            visited.push((nmax, step));
            if reference_score - step > settings().theta {
                break;
            }
            accepted = Some((plans, nmax, step));
        }
        let (plans, nmax, score) = accepted.unwrap_or_else(|| {
            (plan_network(&s.samples, &s.arch, widest, &settings()), widest, visited[0].1)
        });
        let schemes = plans.iter().map(|p| p.scheme).collect();
        Algorithm1Result { plans, schemes, nmax, score, reference_score, visited }
    }

    fn bits(scores: &[(u32, f64)]) -> Vec<(u32, u64)> {
        scores.iter().map(|&(n, v)| (n, v.to_bits())).collect()
    }

    /// `algorithm1` returns what the unmemoised descent returns, and its
    /// descent calls the scorer once per distinct plan, in visiting order.
    #[test]
    fn memoised_descent_matches_the_unmemoised_one() {
        let mut repeats = 0;
        for seed in [3, 11, 29] {
            let s = trained_mlp(seed);
            let metric = EvalMetric::Labeled(&s.labeled);
            let got = algorithm1(&s.qnet, &s.arch, &s.samples, &metric, &settings()).unwrap();
            let want = unmemoised_algorithm1(&s, &metric);
            assert_eq!(got.plans, want.plans, "seed {seed}");
            assert_eq!(got.schemes, want.schemes, "seed {seed}");
            assert_eq!(got.nmax, want.nmax, "seed {seed}");
            assert_eq!(got.score.to_bits(), want.score.to_bits(), "seed {seed}");
            assert_eq!(got.reference_score.to_bits(), want.reference_score.to_bits());
            assert_eq!(bits(&got.visited), bits(&want.visited), "seed {seed}");

            // the visited steps' plans, each one once
            let mut distinct: Vec<Vec<AdcScheme>> = Vec::new();
            for &(nmax, _) in &got.visited {
                let plans = plan_network(&s.samples, &s.arch, nmax, &settings());
                let schemes: Vec<AdcScheme> = plans.iter().map(|p| p.scheme).collect();
                if !distinct.contains(&schemes) {
                    distinct.push(schemes);
                }
            }
            let mut calls: Vec<Vec<AdcScheme>> = Vec::new();
            let again = descend(&s.samples, &s.arch, &settings(), got.reference_score, |schemes| {
                calls.push(schemes.to_vec());
                Ok(evaluate_plan(&s.qnet, &s.arch, schemes, &metric)?.score)
            })
            .unwrap();
            assert_eq!(bits(&again.visited), bits(&got.visited), "seed {seed}");
            assert_eq!(calls, distinct, "seed {seed}: one call per distinct plan, in order");
            repeats += got.visited.len() - calls.len();
        }
        assert!(repeats > 0, "no seed revisited a plan, so nothing was reused");
    }
}
