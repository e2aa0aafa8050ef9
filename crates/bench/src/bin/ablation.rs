//! Ablation studies on the co-design's moving parts (not a paper figure;
//! these probe the design choices DESIGN.md §7 commits to):
//!
//! 1. **Pre-detection overhead** — how much of TRQ's win survives if the
//!    range check cost ν doubled (e.g. a slower comparator mux)?
//! 2. **MSE guard band** — sensitivity of the accepted plan to the
//!    Eq. 9/Eq. 10 arbitration knob.
//! 3. **Non-uniform SAR baseline** — the related-work alternative
//!    (Fig. 2b, ref. \[9\]): quantile grid, fixed op count, analog redesign.
//!
//! Usage: `cargo run -p trq-bench --release --bin ablation`
//! (`TRQ_SUITE=quick` recommended; the full suite takes minutes.)

use serde::Serialize;
use trq_adc::NonUniformSarAdc;
use trq_bench::{suite_from_env, write_json};
use trq_core::arch::ArchConfig;
use trq_core::calib::{collect_bl_samples, evaluate_plan, plan_network, CalibSettings};
use trq_core::experiments::Workload;
use trq_core::pim::{AdcScheme, CollectorConfig};
use trq_quant::weighted_quantizer_mse;

#[derive(Serialize)]
struct AblationReport {
    workload: String,
    nmax: u32,
    trq_score: f64,
    trq_remaining_ops: f64,
    trq_remaining_ops_calibration_basis: f64,
    trq_remaining_ops_with_double_nu: f64,
    guard_sweep: Vec<(f64, f64, f64)>, // (guard, score, remaining_ops)
    nonuniform_mse: f64,
    trq_busiest_mse: f64,
    nonuniform_mse_ratio: f64, // NU-ADC mse / TRQ mse at equal bits
}

fn main() {
    let cfg = suite_from_env();
    let arch = ArchConfig::default();
    let workload = Workload::lenet5(&cfg);
    let metric = workload.metric();
    let nmax = 4u32;

    let samples = collect_bl_samples(
        &workload.qnet,
        &arch,
        &workload.cal_images[..cfg.collect_images.min(workload.cal_images.len())],
        CollectorConfig::default(),
    )
    .expect("calibration collection");

    // baseline TRQ plan
    let settings = CalibSettings::default();
    let plans = plan_network(&samples, &arch, nmax, &settings);
    let schemes: Vec<AdcScheme> = plans.iter().map(|p| p.scheme).collect();
    let eval = evaluate_plan(&workload.qnet, &arch, &schemes, &metric).expect("plan evaluation");

    // 1. pre-detection overhead: recompute the op bill charging 2ν, on
    //    the same calibration-sample basis as the baseline so the two
    //    ratios are directly comparable
    let mut ops_base = 0.0f64;
    let mut ops_double_nu = 0.0f64;
    let mut convs = 0.0f64;
    for plan in &plans {
        let extra = match plan.scheme {
            AdcScheme::Trq(p) => p.nu() as f64, // one extra ν per conversion
            _ => 0.0,
        };
        let seen = samples[plan.mvm_index].hist.count() as f64;
        ops_base += plan.mean_ops * seen;
        ops_double_nu += (plan.mean_ops + extra) * seen;
        convs += seen;
    }
    let remaining_base_cal = ops_base / (convs * arch.adc_bits as f64);
    let remaining_double_nu = ops_double_nu / (convs * arch.adc_bits as f64);

    // 2. guard-band sweep
    let mut guard_sweep = Vec::new();
    for guard in [1.05f64, 1.5, 2.0, 3.0, 5.0] {
        let s = CalibSettings { mse_guard: guard, ..settings };
        let p: Vec<AdcScheme> =
            plan_network(&samples, &arch, nmax, &s).iter().map(|x| x.scheme).collect();
        let e = evaluate_plan(&workload.qnet, &arch, &p, &metric).expect("plan evaluation");
        guard_sweep.push((guard, e.score, e.stats.remaining_ops_ratio()));
    }

    // 3. non-uniform SAR at nmax bits vs the TRQ reconstruction, on the
    //    busiest layer's calibration samples
    let busiest = samples.iter().max_by_key(|s| s.hist.count()).expect("at least one layer");
    let nu = NonUniformSarAdc::from_histogram(&busiest.hist, nmax)
        .expect("non-degenerate calibration histogram");
    let nu_mse = weighted_quantizer_mse(busiest.hist.counts(), |x| nu.convert(x).value);
    let trq_mse = plans[busiest.mvm_index].mse.max(f64::MIN_POSITIVE);

    let report = AblationReport {
        workload: workload.name.clone(),
        nmax,
        trq_score: eval.score,
        trq_remaining_ops: eval.stats.remaining_ops_ratio(),
        trq_remaining_ops_calibration_basis: remaining_base_cal,
        trq_remaining_ops_with_double_nu: remaining_double_nu,
        guard_sweep,
        nonuniform_mse: nu_mse,
        trq_busiest_mse: trq_mse,
        nonuniform_mse_ratio: nu_mse / trq_mse,
    };

    println!("Ablations on {} at Nmax = {nmax}", report.workload);
    println!(
        "  TRQ: score {:.3}, remaining ops {:.1}%",
        report.trq_score,
        report.trq_remaining_ops * 100.0
    );
    println!(
        "  1. doubling the pre-detection cost ν: remaining ops {:.1}% → {:.1}%\n     (calibration basis) — the range check is cheap insurance",
        report.trq_remaining_ops_calibration_basis * 100.0,
        report.trq_remaining_ops_with_double_nu * 100.0
    );
    println!("  2. MSE guard band sweep (guard, score, remaining ops):");
    for (g, s, r) in &report.guard_sweep {
        println!("     {g:>5.2}  {s:.3}  {:.1}%", r * 100.0);
    }
    println!(
        "  3. non-uniform SAR (quantile grid, {} fixed ops) on the busiest\n     layer: MSE {:.4} vs TRQ {:.4} ({:.0}x) — the quantile grid crushes\n     the tail that TRQ's R2 keeps, and it still cannot shed operations\n     or avoid the analog redesign",
        nmax,
        report.nonuniform_mse,
        report.trq_busiest_mse,
        report.nonuniform_mse_ratio
    );
    write_json("ablation", &report);
}
