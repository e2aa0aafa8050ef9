//! Whole-network integration: trained LeNet-5 through the simulated
//! accelerator, reproducing the paper's qualitative claims end to end.

use trq::core::arch::ArchConfig;
use trq::core::calib::{
    algorithm1, collect_bl_samples, evaluate_plan, plan_network, CalibSettings, EvalMetric,
};
use trq::core::energy::{breakdown_from_stats, EnergyParams};
use trq::core::experiments::{fig6_accuracy, plan_uniform_network, SuiteConfig, Workload};
use trq::core::pim::{AdcScheme, CollectorConfig};

fn quick_lenet() -> (Workload, ArchConfig) {
    (Workload::lenet5(&SuiteConfig::quick()), ArchConfig::default())
}

#[test]
fn trained_lenet_beats_uniform_at_four_bits() {
    let (w, arch) = quick_lenet();
    let settings = CalibSettings { candidates: 12, ..Default::default() };
    let samples =
        collect_bl_samples(&w.qnet, &arch, &w.cal_images[..2], CollectorConfig::default()).unwrap();
    let metric = w.metric();

    let trq_plan: Vec<AdcScheme> =
        plan_network(&samples, &arch, 4, &settings).iter().map(|p| p.scheme).collect();
    let uni_plan = plan_uniform_network(&samples, &arch, 4, &settings);

    let trq = evaluate_plan(&w.qnet, &arch, &trq_plan, &metric).unwrap();
    let uni = evaluate_plan(&w.qnet, &arch, &uni_plan, &metric).unwrap();
    assert!(
        trq.score >= uni.score,
        "paper's core claim at 4 bits: TRQ {} vs uniform {}",
        trq.score,
        uni.score
    );
    assert!(
        trq.stats.remaining_ops_ratio() < 0.75,
        "TRQ@4b must cut ops: {}",
        trq.stats.remaining_ops_ratio()
    );
}

#[test]
fn algorithm1_respects_theta_and_reports_descent() {
    let (w, arch) = quick_lenet();
    let settings = CalibSettings { candidates: 10, theta: 0.05, ..Default::default() };
    let samples =
        collect_bl_samples(&w.qnet, &arch, &w.cal_images[..2], CollectorConfig::default()).unwrap();
    let metric = w.metric();
    let result = algorithm1(&w.qnet, &arch, &samples, &metric, &settings).unwrap();
    assert!(result.reference_score - result.score <= settings.theta + 1e-9);
    // descent must have tried at least the first Nmax
    assert!(!result.visited.is_empty());
    assert!(result.visited[0].0 == arch.adc_bits - 1);
    assert_eq!(result.schemes.len(), w.qnet.layers().len());
}

#[test]
fn fig6_series_is_well_formed_and_monotone_in_ops() {
    let (w, arch) = quick_lenet();
    let settings = CalibSettings { candidates: 8, ..Default::default() };
    let series = fig6_accuracy(&w, &arch, &settings, true, &[8, 6, 4]).unwrap();
    assert_eq!(series.points.len(), 5);
    assert_eq!(series.points[0].config, "f/f");
    assert_eq!(series.points[1].config, "8/f");
    // remaining ops must not increase as the bit cap tightens
    let ops: Vec<f64> = series.points[2..].iter().map(|p| p.remaining_ops.unwrap()).collect();
    for w in ops.windows(2) {
        assert!(w[1] <= w[0] + 1e-9, "ops series not monotone: {ops:?}");
    }
}

#[test]
fn energy_breakdown_identities_hold() {
    let (w, arch) = quick_lenet();
    let metric = w.metric();
    let plan = vec![AdcScheme::Ideal; w.qnet.layers().len()];
    let eval = evaluate_plan(&w.qnet, &arch, &plan, &metric).unwrap();
    let params = EnergyParams::default();
    let bd = breakdown_from_stats(&eval.stats, &params);
    // Eq. 6 identity: ADC energy == e_op·ops + e_sample·conversions
    let expect = params.adc.e_op_pj * eval.stats.ops() as f64
        + params.adc.e_sample_pj * eval.stats.conversions() as f64;
    assert!((bd.adc_pj - expect).abs() < 1e-6);
    // baseline runs at exactly R_ADC ops per conversion
    assert_eq!(eval.stats.ops(), eval.stats.conversions() * arch.adc_bits as u64);
    assert!(bd.adc_share() > 0.4, "ISAAC-like baseline must be ADC-heavy");
}

#[test]
fn stats_event_counts_match_architecture_arithmetic() {
    let (w, arch) = quick_lenet();
    let metric = EvalMetric::Fidelity(&w.eval_inputs[..1]);
    let plan = vec![AdcScheme::Ideal; w.qnet.layers().len()];
    let eval = evaluate_plan(&w.qnet, &arch, &plan, &metric).unwrap();
    for (layer, q) in eval.stats.layers.iter().zip(w.qnet.layers()) {
        let per_window = arch.conversions_per_window(q.info.depth, q.info.outputs);
        assert_eq!(
            layer.conversions,
            layer.windows * per_window,
            "layer {} event accounting broke",
            layer.label
        );
        assert_eq!(layer.sa_ops, layer.conversions);
    }
}
