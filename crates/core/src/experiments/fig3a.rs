//! Fig. 3a — the distribution of crossbar bit-line outputs.

use crate::arch::ArchConfig;
use crate::calib::{collect_bl_samples, CalibError};
use crate::experiments::workloads::Workload;
use crate::pim::CollectorConfig;
use serde::{Deserialize, Serialize};
use trq_quant::{ClassifierConfig, DistributionClass};

/// One layer's BL distribution summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3aLayer {
    /// Layer label.
    pub label: String,
    /// Histogram bin counts over the count domain `[0, S]` (bin = count).
    pub bins: Vec<u64>,
    /// Samples observed.
    pub seen: u64,
    /// Distribution statistics.
    pub mean: f64,
    /// Standard deviation.
    pub std: f64,
    /// Fisher skewness — the paper's "highly imbalanced" claim quantified.
    pub skewness: f64,
    /// Fraction of samples in the bottom 1/8 of the observed range.
    pub bottom_eighth_mass: f64,
    /// Judged distribution class (Algorithm 1 line 5).
    pub class: DistributionClass,
    /// Largest observed count.
    pub max: f64,
}

/// The Fig. 3a report for one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3aReport {
    /// Workload name.
    pub workload: String,
    /// Per-MVM-layer summaries.
    pub layers: Vec<Fig3aLayer>,
}

impl Fig3aReport {
    /// Fraction of layers judged "ideal skewed" — the premise of the
    /// paper's co-design (most layers must have a sweet spot near zero).
    pub fn skewed_fraction(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        let skewed =
            self.layers.iter().filter(|l| l.class == DistributionClass::IdealSkewed).count();
        skewed as f64 / self.layers.len() as f64
    }
}

/// Collects the BL output distribution of every MVM layer (Fig. 3a).
///
/// # Errors
///
/// Propagates [`CalibError`] from the collection forward pass.
pub fn fig3a(
    workload: &Workload,
    arch: &ArchConfig,
    images: usize,
) -> Result<Fig3aReport, CalibError> {
    let n = images.min(workload.cal_images.len()).max(1);
    let samples = collect_bl_samples(
        &workload.qnet,
        arch,
        &workload.cal_images[..n],
        CollectorConfig::default(),
    )?;
    let classifier = ClassifierConfig::default();
    let layers = samples
        .iter()
        .map(|s| {
            let range = (s.hist.sample_max() - s.hist.sample_min()).max(f64::MIN_POSITIVE);
            let bottom = s.hist.cdf(s.hist.sample_min() + range / 8.0);
            Fig3aLayer {
                label: s.label.clone(),
                bins: s.hist.counts().to_vec(),
                seen: s.hist.count(),
                mean: s.hist.mean(),
                std: s.hist.std(),
                skewness: s.hist.skewness(),
                bottom_eighth_mass: bottom,
                class: DistributionClass::classify(&s.hist, &classifier),
                max: s.hist.sample_max(),
            }
        })
        .collect();
    Ok(Fig3aReport { workload: workload.name.clone(), layers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::workloads::SuiteConfig;

    #[test]
    fn lenet_bl_outputs_are_skewed_toward_zero() {
        // the paper's motivating observation must emerge from the
        // simulated datapath, not be baked in anywhere
        let cfg = SuiteConfig::quick();
        let w = Workload::lenet5(&cfg);
        let report = fig3a(&w, &ArchConfig::default(), 2).unwrap();
        assert_eq!(report.layers.len(), 5);
        for layer in &report.layers {
            assert!(layer.seen > 0);
            assert!(
                layer.skewness > 0.5,
                "BL counts should lean right-skewed: {} has skew {}",
                layer.label,
                layer.skewness
            );
            assert!(
                layer.bottom_eighth_mass > 0.3,
                "mass should concentrate near zero: {} has {}",
                layer.label,
                layer.bottom_eighth_mass
            );
        }
        // convolution layers carry most conversions and must show the
        // "ideal skewed" sweet spot; small FC layers may land in "other"
        assert!(
            report.skewed_fraction() >= 0.4,
            "{:?}",
            report.layers.iter().map(|l| l.class).collect::<Vec<_>>()
        );
        assert_eq!(report.layers[0].class, DistributionClass::IdealSkewed);
    }
}
