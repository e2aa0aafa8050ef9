//! Integration tests for the Algorithm 1 calibration pipeline:
//! determinism, Nmax behaviour, and scheme sanity across distribution
//! shapes produced by a real network.

use trq::core::arch::ArchConfig;
use trq::core::calib::{collect_bl_samples, plan_network, CalibSettings};
use trq::core::experiments::{SuiteConfig, Workload};
use trq::core::pim::{AdcScheme, CollectorConfig, PimMvm};

#[test]
fn calibration_is_deterministic() {
    let w = Workload::lenet5(&SuiteConfig::quick());
    let arch = ArchConfig::default();
    let settings = CalibSettings { candidates: 10, ..Default::default() };
    let s1 =
        collect_bl_samples(&w.qnet, &arch, &w.cal_images[..2], CollectorConfig::default()).unwrap();
    let s2 =
        collect_bl_samples(&w.qnet, &arch, &w.cal_images[..2], CollectorConfig::default()).unwrap();
    let p1 = plan_network(&s1, &arch, 5, &settings);
    let p2 = plan_network(&s2, &arch, 5, &settings);
    assert_eq!(p1, p2, "same inputs must give the same plan");
}

#[test]
fn schemes_respect_the_bit_cap() {
    let w = Workload::lenet5(&SuiteConfig::quick());
    let arch = ArchConfig::default();
    let settings = CalibSettings { candidates: 10, ..Default::default() };
    let samples =
        collect_bl_samples(&w.qnet, &arch, &w.cal_images[..2], CollectorConfig::default()).unwrap();
    for nmax in [7u32, 5, 3, 1] {
        for plan in plan_network(&samples, &arch, nmax, &settings) {
            match plan.scheme {
                AdcScheme::Trq(p) => {
                    assert!(p.n_r1() <= nmax, "NR1 {} > Nmax {nmax}", p.n_r1());
                    assert!(p.n_r2() <= nmax, "NR2 {} > Nmax {nmax}", p.n_r2());
                }
                AdcScheme::Uniform { bits, .. } => assert!(bits <= nmax),
                AdcScheme::Ideal => panic!("calibration never emits the ideal scheme"),
            }
        }
    }
}

#[test]
fn mean_ops_never_exceeds_worst_case_and_tracks_nmax() {
    let w = Workload::lenet5(&SuiteConfig::quick());
    let arch = ArchConfig::default();
    let settings = CalibSettings { candidates: 10, ..Default::default() };
    let samples =
        collect_bl_samples(&w.qnet, &arch, &w.cal_images[..2], CollectorConfig::default()).unwrap();
    let mut prev_total = f64::INFINITY;
    for nmax in (3..=7).rev() {
        let plans = plan_network(&samples, &arch, nmax, &settings);
        let total: f64 = plans.iter().map(|p| p.mean_ops).sum();
        for p in &plans {
            let worst = match p.scheme {
                AdcScheme::Trq(t) => t.nu() + t.n_r1().max(t.n_r2()),
                AdcScheme::Uniform { bits, .. } => bits,
                AdcScheme::Ideal => arch.adc_bits,
            };
            assert!(p.mean_ops <= worst as f64 + 1e-9, "{}: {} > {}", p.label, p.mean_ops, worst);
        }
        assert!(total <= prev_total + 1e-6, "total ops grew when Nmax shrank");
        prev_total = total;
    }
}

#[test]
fn mse_grows_as_bits_shrink() {
    let w = Workload::lenet5(&SuiteConfig::quick());
    let arch = ArchConfig::default();
    let settings = CalibSettings { candidates: 10, ..Default::default() };
    let samples =
        collect_bl_samples(&w.qnet, &arch, &w.cal_images[..2], CollectorConfig::default()).unwrap();
    let p7 = plan_network(&samples, &arch, 7, &settings);
    let p3 = plan_network(&samples, &arch, 3, &settings);
    let mse7: f64 = p7.iter().map(|p| p.mse).sum();
    let mse3: f64 = p3.iter().map(|p| p.mse).sum();
    assert!(mse3 >= mse7, "3-bit codes cannot reconstruct better than 7-bit: {mse3} < {mse7}");
}

#[test]
fn collector_histograms_total_the_conversions() {
    let w = Workload::lenet5(&SuiteConfig::quick());
    let arch = ArchConfig::default();
    let images = &w.cal_images[..2];
    let mut engine = PimMvm::collector(arch, w.qnet.layers().len(), CollectorConfig::default());
    w.qnet.forward_batch(images, &mut engine).unwrap();
    let samples = engine.take_samples();
    let ledger = &engine.stats().layers;
    assert_eq!(samples.len(), ledger.len());
    for (s, l) in samples.iter().zip(ledger) {
        // one bin per possible count, and every conversion in one of them
        assert_eq!(s.hist.counts().len(), arch.xbar.rows + 1);
        assert_eq!(s.hist.count(), l.conversions, "{}", s.label);
    }
    let again = collect_bl_samples(&w.qnet, &arch, images, CollectorConfig::default()).unwrap();
    for (a, b) in samples.iter().zip(&again) {
        assert_eq!(a.hist, b.hist, "{}: collection must repeat exactly", a.label);
    }
}
