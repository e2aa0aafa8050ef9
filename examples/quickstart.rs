//! Quickstart: one bit-sliced MVM through the differential crossbar pair,
//! converted by a conventional uniform SAR ADC and by the paper's TRQ SAR
//! ADC, with the operation/energy ledger side by side.
//!
//! Run with: `cargo run --release --example quickstart`

use trq::adc::{AdcEnergyParams, EnergyMeter, TrqSarAdc, UniformSarAdc};
use trq::quant::TrqParams;
use trq::xbar::{bit_plane, CrossbarConfig, DiffPair};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16-deep, 4-output signed weight matrix, 8-bit magnitudes —
    // exactly what one column group of a ReRAM crossbar pair stores.
    let depth = 16usize;
    let outputs = 4usize;
    let weights: Vec<i32> = (0..depth * outputs)
        .map(|i| ((i as i32 * 37) % 19) - 9) // small signed weights
        .collect();
    let x: Vec<u32> = (0..depth).map(|i| (i as u32 * 13) % 256).collect();

    let config = CrossbarConfig { rows: 128, cols: 128, ..Default::default() };
    let pair = DiffPair::program(config, &weights, depth, outputs, 8)?;

    // ground truth, straight integer arithmetic
    let reference = DiffPair::reference_mvm(&weights, depth, outputs, &x);
    // the full bit-serial datapath with ideal (lossless) conversion
    let ideal = pair.bit_serial_mvm(&x, 8)?;
    assert_eq!(reference, ideal, "bit-sliced datapath is exact");
    println!("bit-serial crossbar MVM == integer reference: {reference:?}");

    // Now digitise every bit-line sample once with each ADC and compare
    // the operation bill. BL counts live in [0, 128]; the uniform baseline
    // needs 8 bits (Eq. 2), TRQ resolves the dense bottom in 3.
    let uniform = UniformSarAdc::new(8, 1.0)?;
    let trq = TrqSarAdc::new(TrqParams::new(3, 7, 1, 1.0, 0)?);
    let mut meter_u = EnergyMeter::new(AdcEnergyParams::default());
    let mut meter_t = EnergyMeter::new(AdcEnergyParams::default());

    let mut padded = vec![0u32; 128];
    padded[..depth].copy_from_slice(&x);
    for cycle in 0..8 {
        let plane = bit_plane(&padded, cycle);
        let (pos, neg) = pair.mvm_counts(&plane)?;
        for &count in pos.iter().chain(neg.iter()) {
            meter_u.record(&uniform.convert(count as f64));
            meter_t.record(&trq.convert(count as f64));
        }
    }

    println!("\nADC ledger over {} conversions:", meter_u.conversions());
    println!("  uniform 8-bit : {:>6} ops  {:>8.1} pJ", meter_u.ops(), meter_u.energy_pj());
    println!(
        "  TRQ (3/7, M=1): {:>6} ops  {:>8.1} pJ   ({:.2}x fewer ops)",
        meter_t.ops(),
        meter_t.energy_pj(),
        meter_u.ops() as f64 / meter_t.ops() as f64
    );
    println!(
        "\nmean ops/conversion: uniform {:.2}, TRQ {:.2} — the \"early birds\"",
        meter_u.mean_ops(),
        meter_t.mean_ops()
    );
    println!("of Fig. 4a finishing in 1 + NR1 steps are where the paper's");
    println!("1.6-2.3x ADC energy reduction comes from.");
    Ok(())
}
