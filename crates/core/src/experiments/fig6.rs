//! Fig. 6 — accuracy vs ADC resolution, with and without TRQ, plus the
//! remaining-operations series of Fig. 6c.

use crate::arch::ArchConfig;
use crate::calib::{collect_bl_samples, evaluate_plan, plan_network, CalibError, CalibSettings};
use crate::experiments::workloads::Workload;
use crate::pim::{AdcScheme, CollectorConfig, LayerSamples};
use serde::{Deserialize, Serialize};
use trq_quant::{weighted_quantizer_mse, UniformQuantizer};

/// One x-axis point of Fig. 6: a configuration and its score.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyPoint {
    /// Configuration label: `"f/f"`, `"8/f"`, or the ADC bit cap
    /// (`"8"`..`"4"`).
    pub config: String,
    /// Accuracy (trained workloads) or FP32 fidelity (He-init workloads).
    pub score: f64,
    /// Fraction of baseline A/D operations still performed (Fig. 6c);
    /// `None` for the float anchors.
    pub remaining_ops: Option<f64>,
}

/// One curve of Fig. 6a/6b.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Series {
    /// Workload name.
    pub workload: String,
    /// Whether the TRQ search was enabled (Fig. 6b) or plain uniform
    /// quantization used (Fig. 6a).
    pub trq: bool,
    /// Points in the paper's x order: f/f, 8/f, 8, 7, 6, 5, 4.
    pub points: Vec<AccuracyPoint>,
}

/// Builds the per-layer *uniform* baseline plan at a given resolution:
/// each layer picks the `Vgrid` (same candidate interval as Algorithm 1)
/// minimising the quantization MSE — the strongest fair uniform baseline.
pub fn plan_uniform_network(
    samples: &[LayerSamples],
    arch: &ArchConfig,
    bits: u32,
    settings: &CalibSettings,
) -> Vec<AdcScheme> {
    samples
        .iter()
        .map(|layer| {
            let ymax = layer.hist.sample_max().max(0.0);
            if ymax <= 0.0 {
                return AdcScheme::uniform(1, 1.0);
            }
            let full_codes = ((1u64 << arch.adc_bits) - 1) as f64;
            let lo = (settings.alpha * ymax / full_codes).max(1e-6);
            let hi = (settings.beta * ymax / full_codes).max(lo * 1.0001);
            let steps = settings.candidates.max(2);
            let mut best = (lo, f64::INFINITY);
            for k in 0..steps {
                let vgrid = lo + (hi - lo) * k as f64 / (steps - 1) as f64;
                // lint: allow(unwrap): bits and vgrid were validated above
                let q = UniformQuantizer::new(bits, vgrid).expect("validated bits");
                let mse = weighted_quantizer_mse(layer.hist.counts(), |x| q.quantize(x));
                if mse < best.1 {
                    best = (vgrid, mse);
                }
            }
            AdcScheme::uniform(bits, best.0)
        })
        .collect()
}

/// Runs one Fig. 6 curve for a workload.
///
/// `bit_caps` is the x-axis tail (the paper uses `[8, 7, 6, 5, 4]`): the
/// maximum allowed ADC code length, i.e. the resolution of the uniform
/// ADC (Fig. 6a) or the `Nmax` bound on `NR1`/`NR2` (Fig. 6b).
/// # Errors
///
/// Propagates [`CalibError`] from any collection or evaluation pass.
pub fn fig6_accuracy(
    workload: &Workload,
    arch: &ArchConfig,
    settings: &CalibSettings,
    trq: bool,
    bit_caps: &[u32],
) -> Result<Fig6Series, CalibError> {
    let metric = workload.metric();
    let mut points = Vec::new();

    // f/f — the float model itself
    points.push(AccuracyPoint {
        config: "f/f".into(),
        score: workload.float_score,
        remaining_ops: None,
    });

    // 8/f — 8-bit W/A quantization, lossless ADC
    let ideal_plan = vec![AdcScheme::Ideal; workload.qnet.layers().len()];
    let ideal = evaluate_plan(&workload.qnet, arch, &ideal_plan, &metric)?;
    points.push(AccuracyPoint {
        config: "8/f".into(),
        score: ideal.score,
        remaining_ops: Some(ideal.stats.remaining_ops_ratio()),
    });

    // BL statistics drive both the TRQ search and the uniform Vgrid choice
    let collect_n = workload.cal_images.len().clamp(1, 4);
    let samples = collect_bl_samples(
        &workload.qnet,
        arch,
        &workload.cal_images[..collect_n],
        CollectorConfig::default(),
    )?;

    for &bits in bit_caps {
        let plan: Vec<AdcScheme> = if trq {
            plan_network(&samples, arch, bits, settings).iter().map(|p| p.scheme).collect()
        } else {
            plan_uniform_network(&samples, arch, bits, settings)
        };
        let eval = evaluate_plan(&workload.qnet, arch, &plan, &metric)?;
        points.push(AccuracyPoint {
            config: bits.to_string(),
            score: eval.score,
            remaining_ops: Some(eval.stats.remaining_ops_ratio()),
        });
    }

    Ok(Fig6Series { workload: workload.name.clone(), trq, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::workloads::SuiteConfig;

    #[test]
    fn lenet_fig6_shapes_hold() {
        let cfg = SuiteConfig::quick();
        let w = Workload::lenet5(&cfg);
        let arch = ArchConfig::default();
        let settings = CalibSettings { candidates: 10, ..Default::default() };

        let uniform = fig6_accuracy(&w, &arch, &settings, false, &[8, 4]).unwrap();
        let trq = fig6_accuracy(&w, &arch, &settings, true, &[8, 4]).unwrap();
        assert_eq!(uniform.points.len(), 4);
        assert_eq!(trq.points.len(), 4);

        // paper shape 1: at 8 bits everyone matches the 8/f anchor closely
        let anchor = uniform.points[1].score;
        assert!((uniform.points[2].score - anchor).abs() <= 0.25);

        // paper shape 2: at 4 bits TRQ beats (or at minimum matches) the
        // uniform ADC
        let u4 = uniform.points.last().unwrap();
        let t4 = trq.points.last().unwrap();
        assert!(
            t4.score >= u4.score - 1e-9,
            "TRQ@4b {} must not lose to uniform@4b {}",
            t4.score,
            u4.score
        );

        // paper shape 3 (Fig. 6c): TRQ at 4 bits cuts ops well below the
        // uniform-8 baseline
        let ops4 = t4.remaining_ops.unwrap();
        assert!(ops4 < 0.7, "TRQ@4b remaining ops {ops4}");
    }

    #[test]
    fn uniform_plan_covers_every_layer() {
        let cfg = SuiteConfig::quick();
        let w = Workload::lenet5(&cfg);
        let arch = ArchConfig::default();
        let samples =
            collect_bl_samples(&w.qnet, &arch, &w.cal_images[..1], CollectorConfig::default())
                .unwrap();
        let plan = plan_uniform_network(&samples, &arch, 6, &CalibSettings::default());
        assert_eq!(plan.len(), w.qnet.layers().len());
        for scheme in plan {
            let AdcScheme::Uniform { bits, vgrid } = scheme else {
                panic!("uniform plan must stay uniform");
            };
            assert!(bits <= 6);
            assert!(vgrid > 0.0);
        }
    }
}
