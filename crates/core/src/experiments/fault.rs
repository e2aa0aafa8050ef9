//! Device-fault sweeps — the co-design claim stress-tested.
//!
//! The paper's pitch is that TRQ's ADC energy savings survive real
//! operating conditions. This experiment puts numbers on that: for each
//! ADC configuration (ISAAC baseline, TRQ-calibrated, uniform
//! quantization) it sweeps the three [`NoiseModel`] knobs one axis at a
//! time — stuck-at fault rate, programming variation `σ_prog`, and read
//! noise `σ_read` — and records the accuracy-vs-energy frontier at every
//! grid point. Sweeps are axis-wise rather than a full cross product:
//! the interesting question is how each non-ideality *alone* erodes each
//! scheme's accuracy, and a dense cross product would bury that signal
//! in runtime.
//!
//! Every point is deterministic: [`evaluate_plan_noisy`] keys all noise
//! draws on `(seed, image index, slot coordinates)`, so re-running a
//! sweep — or running it with a different `TRQ_THREADS` — reproduces the
//! same frontier bit for bit.

use crate::arch::ArchConfig;
use crate::calib::{
    collect_bl_samples, evaluate_plan, evaluate_plan_noisy, plan_network, CalibError, CalibSettings,
};
use crate::energy::{breakdown_from_stats, EnergyParams};
use crate::experiments::fig6::plan_uniform_network;
use crate::experiments::workloads::Workload;
use crate::pim::{AdcScheme, CollectorConfig};
use serde::{Deserialize, Serialize};
use trq_xbar::NoiseModel;

/// The sweep grid: each axis lists the levels for one noise knob, swept
/// with the other two knobs held at zero.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultGrid {
    /// Stuck-at fault rates (split evenly between stuck-off and
    /// stuck-on at each level).
    pub stuck_rates: Vec<f64>,
    /// Programming-variation levels (σ_prog: a bit-line count `c` deviates
    /// by `σ_prog·√c`, redrawn per image like the read noise).
    pub sigma_progs: Vec<f64>,
    /// Read-noise levels (additive σ per BL sample, cell-current units).
    pub sigma_reads: Vec<f64>,
    /// Seed for the device noise; every point at the same level shares
    /// the same stuck pattern, so configs compare against identical
    /// hardware damage.
    pub seed: u64,
}

impl FaultGrid {
    /// A minutes-scale grid for tests and CI smoke runs.
    pub fn quick() -> FaultGrid {
        FaultGrid {
            stuck_rates: vec![0.0, 0.05],
            sigma_progs: vec![0.0, 0.2],
            sigma_reads: vec![0.0, 1.0],
            seed: 0xFA17,
        }
    }

    /// The full sweep grid.
    pub fn paper() -> FaultGrid {
        FaultGrid {
            stuck_rates: vec![0.0, 0.01, 0.02, 0.05, 0.1],
            sigma_progs: vec![0.0, 0.05, 0.1, 0.2, 0.4],
            sigma_reads: vec![0.0, 0.25, 0.5, 1.0, 2.0],
            seed: 0xFA17,
        }
    }

    /// Total number of sweep points per ADC configuration.
    pub fn points_per_config(&self) -> usize {
        self.stuck_rates.len() + self.sigma_progs.len() + self.sigma_reads.len()
    }
}

/// The noise axis a sweep point varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAxis {
    /// Stuck-at fault rate (half stuck-off, half stuck-on).
    StuckAt,
    /// Programming variation `σ_prog`.
    SigmaProg,
    /// Read noise `σ_read`.
    SigmaRead,
}

impl std::fmt::Display for FaultAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAxis::StuckAt => write!(f, "stuck_at"),
            FaultAxis::SigmaProg => write!(f, "sigma_prog"),
            FaultAxis::SigmaRead => write!(f, "sigma_read"),
        }
    }
}

/// One point on the accuracy-vs-energy frontier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultPoint {
    /// ADC configuration label: `"ISAAC"`, `"Ours/4b"`, or `"UQ(4b)"`.
    pub config: String,
    /// Which noise knob this point varies.
    pub axis: FaultAxis,
    /// The knob's level (the other two knobs are zero).
    pub level: f64,
    /// End-to-end score under this noise level.
    pub score: f64,
    /// ADC energy at this point (pJ).
    pub adc_pj: f64,
    /// Total energy at this point (pJ).
    pub total_pj: f64,
    /// Fraction of baseline conversion ops this scheme still performs.
    pub remaining_ops_ratio: f64,
}

/// The full fault-sweep report for one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigFaultReport {
    /// Workload name.
    pub workload: String,
    /// `(config, clean score)` anchors — every sweep axis starts here.
    pub baselines: Vec<(String, f64)>,
    /// All sweep points, config-major then axis-major then level order.
    pub points: Vec<FaultPoint>,
}

impl FigFaultReport {
    /// Points for one configuration along one axis, in level order.
    pub fn series(&self, config: &str, axis: FaultAxis) -> Vec<&FaultPoint> {
        self.points.iter().filter(|p| p.config == config && p.axis == axis).collect()
    }
}

/// The noise model for one sweep point.
fn noise_at(axis: FaultAxis, level: f64, seed: u64) -> NoiseModel {
    let mut noise = NoiseModel { seed, ..NoiseModel::ideal() };
    match axis {
        FaultAxis::StuckAt => {
            noise.stuck_off_rate = level / 2.0;
            noise.stuck_on_rate = level / 2.0;
        }
        FaultAxis::SigmaProg => noise.sigma_prog = level,
        FaultAxis::SigmaRead => noise.sigma_read = level,
    }
    noise
}

/// Runs the device-fault sweep for one workload.
///
/// Calibration happens once, on *clean* hardware — the deployed-then-
/// degraded scenario: plans are chosen for the ideal device, then the
/// device drifts underneath them. Three configurations are swept: the
/// ISAAC lossless baseline, TRQ calibrated at `Nmax = 4`, and 4-bit
/// uniform quantization (the resolution TRQ typically lands near, but
/// without the calibrated thresholds).
///
/// # Errors
///
/// Propagates [`CalibError`] from any collection or evaluation pass.
pub fn fig_fault(
    workload: &Workload,
    arch: &ArchConfig,
    settings: &CalibSettings,
    energy: &EnergyParams,
    grid: &FaultGrid,
) -> Result<FigFaultReport, CalibError> {
    let metric = workload.metric();
    let n_layers = workload.qnet.layers().len();
    let collect_n = workload.cal_images.len().clamp(1, 4);
    let samples = collect_bl_samples(
        &workload.qnet,
        arch,
        &workload.cal_images[..collect_n],
        CollectorConfig::default(),
    )?;

    let trq_plan: Vec<AdcScheme> =
        plan_network(&samples, arch, 4, settings).iter().map(|p| p.scheme).collect();
    let configs: Vec<(String, Vec<AdcScheme>)> = vec![
        ("ISAAC".into(), vec![AdcScheme::Ideal; n_layers]),
        ("Ours/4b".into(), trq_plan),
        ("UQ(4b)".into(), plan_uniform_network(&samples, arch, 4, settings)),
    ];

    let mut baselines = Vec::new();
    let mut points = Vec::new();
    for (config, plan) in &configs {
        let clean = evaluate_plan(&workload.qnet, arch, plan, &metric)?;
        baselines.push((config.clone(), clean.score));
        for (axis, levels) in [
            (FaultAxis::StuckAt, &grid.stuck_rates),
            (FaultAxis::SigmaProg, &grid.sigma_progs),
            (FaultAxis::SigmaRead, &grid.sigma_reads),
        ] {
            for &level in levels {
                let noise = noise_at(axis, level, grid.seed);
                let eval = evaluate_plan_noisy(&workload.qnet, arch, plan, &metric, &noise)?;
                let breakdown = breakdown_from_stats(&eval.stats, energy);
                points.push(FaultPoint {
                    config: config.clone(),
                    axis,
                    level,
                    score: eval.score,
                    adc_pj: breakdown.adc_pj,
                    total_pj: breakdown.total_pj(),
                    remaining_ops_ratio: eval.stats.remaining_ops_ratio(),
                });
            }
        }
    }
    Ok(FigFaultReport { workload: workload.name.clone(), baselines, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::workloads::SuiteConfig;

    #[test]
    fn quick_fault_sweep_covers_the_grid_and_anchors_at_clean() {
        let cfg = SuiteConfig::quick();
        let w = Workload::lenet5(&cfg);
        let arch = ArchConfig::default();
        let settings = CalibSettings { candidates: 10, theta: 0.05, ..Default::default() };
        let grid = FaultGrid::quick();
        let report = fig_fault(&w, &arch, &settings, &EnergyParams::default(), &grid).unwrap();

        assert_eq!(report.baselines.len(), 3);
        assert_eq!(report.points.len(), 3 * grid.points_per_config());

        // level-0 points are evaluated on ideal hardware, so they must
        // reproduce each config's clean baseline exactly
        for (config, clean) in &report.baselines {
            for axis in [FaultAxis::StuckAt, FaultAxis::SigmaProg, FaultAxis::SigmaRead] {
                let series = report.series(config, axis);
                assert_eq!(series.len(), 2);
                assert_eq!(
                    series[0].score, *clean,
                    "{config}/{axis} level 0 must match the clean run"
                );
                // noise on an 8-image eval set can flip a score either
                // way, so only sanity-bound it — degradation trends are
                // the paper grid's business, not this smoke test's
                assert!((0.0..=1.0).contains(&series[1].score));
            }
        }

        // the TRQ plan must keep its energy advantage while degraded
        let isaac = report.series("ISAAC", FaultAxis::StuckAt);
        let ours = report.series("Ours/4b", FaultAxis::StuckAt);
        assert!(
            ours[1].adc_pj < isaac[1].adc_pj,
            "TRQ's ADC energy win should survive stuck-at faults: {} vs {}",
            ours[1].adc_pj,
            isaac[1].adc_pj
        );
    }
}
