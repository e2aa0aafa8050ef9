//! Device non-ideality models for the analog read path.
//!
//! The paper's evaluation assumes ideal devices (its contribution is in the
//! digital SAR logic), but a credible crossbar substrate must let users ask
//! "does TRQ survive device noise?". This module provides the standard
//! trio used by NeuroSim-style simulators:
//!
//! - **programming variation**: each programmed conductance deviates
//!   log-normally from nominal (`σ_prog` in log-space);
//! - **read noise**: additive Gaussian noise on each BL current, in units
//!   of one cell current (`σ_read`);
//! - **stuck-at faults**: a fraction of cells permanently ON or OFF.
//!
//! A model with all parameters zero is exactly the ideal integer datapath
//! (verified by test).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters for device non-idealities. All default to zero (ideal).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Log-normal programming variation σ (log-space standard deviation).
    pub sigma_prog: f64,
    /// Additive Gaussian read noise per BL sample, in cell-current units.
    pub sigma_read: f64,
    /// Probability a cell is stuck OFF.
    pub stuck_off_rate: f64,
    /// Probability a cell is stuck ON.
    pub stuck_on_rate: f64,
    /// RNG seed; the same seed reproduces the same device instance.
    pub seed: u64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel {
            sigma_prog: 0.0,
            sigma_read: 0.0,
            stuck_off_rate: 0.0,
            stuck_on_rate: 0.0,
            seed: 0,
        }
    }
}

impl NoiseModel {
    /// An ideal (noiseless) model.
    pub fn ideal() -> Self {
        NoiseModel::default()
    }

    /// True when every non-ideality is disabled.
    pub fn is_ideal(&self) -> bool {
        self.sigma_prog == 0.0
            && self.sigma_read == 0.0
            && self.stuck_off_rate == 0.0
            && self.stuck_on_rate == 0.0
    }

    /// A deterministic RNG for this device instance.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// Samples the effective conductance (in cell-current units) for one
    /// programmed cell of nominal value `nominal` (0.0 or 1.0 for binary
    /// cells), applying stuck faults then programming variation.
    pub fn sample_conductance(&self, nominal: f64, rng: &mut StdRng) -> f64 {
        let fault: f64 = rng.gen();
        let base = if fault < self.stuck_off_rate {
            0.0
        } else if fault < self.stuck_off_rate + self.stuck_on_rate {
            1.0
        } else {
            nominal
        };
        if base == 0.0 || self.sigma_prog == 0.0 {
            base
        } else {
            base * (self.sigma_prog * standard_normal(rng)).exp()
        }
    }

    /// Samples additive read noise for one BL observation.
    pub fn sample_read_noise(&self, rng: &mut StdRng) -> f64 {
        if self.sigma_read == 0.0 {
            0.0
        } else {
            self.sigma_read * standard_normal(rng)
        }
    }
}

/// Mixes one more component into a splitmix64 hash chain, applied per key
/// component so noise draws are a pure function of their coordinates.
pub fn mix64(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a 64-bit hash onto a uniform draw in (0, 1] (53-bit mantissa,
/// never exactly zero — safe under `ln`).
pub fn unit_open(z: u64) -> f64 {
    (((z >> 11) + 1) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// Count-level device noise for one engine call: a Gaussian perturbation
/// of each bit-line count before decode, standing in for cell-level
/// programming variation (σ scaling with `sqrt(count)` — the deviation of
/// a sum of `count` independent cell currents) and additive read noise (σ
/// in cell-current units, independent of the count). The exact cell-level
/// model lives in [`crate::DiffPair`]'s analog path; this surrogate keeps
/// the integer datapath while perturbing exactly what the ADC sees.
///
/// Draws are keyed on `(call_seed, subarray, side, plane, column,
/// window)` — never on tile boundaries or thread ids — so a noisy result
/// is bit-identical across tilings and thread counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountNoise {
    sigma_prog: f64,
    sigma_read: f64,
    /// `mix64(mix64(seed, layer), epoch)` — one stream per layer call.
    call_seed: u64,
    /// Physical count ceiling (crossbar rows); noisy counts clamp here so
    /// table lookups stay in range.
    max_count: u32,
}

impl CountNoise {
    /// The count noise of one call on MVM layer `layer` at read-noise
    /// epoch `epoch`, clamping to `max_count`; `None` when `model` has no
    /// count-level noise (ideal or stuck-at only).
    pub fn for_call(model: &NoiseModel, layer: usize, epoch: u64, max_count: u32) -> Option<Self> {
        if model.sigma_prog == 0.0 && model.sigma_read == 0.0 {
            return None;
        }
        Some(CountNoise {
            sigma_prog: model.sigma_prog,
            sigma_read: model.sigma_read,
            call_seed: mix64(mix64(model.seed, layer as u64), epoch),
            max_count,
        })
    }

    /// The noisy count for one bit-line observation: subarray `s`, `side`
    /// 0 = pos and 1 = neg, input bit-plane `plane`, absolute weight
    /// column `col` and window `window`.
    pub fn perturb(
        &self,
        s: usize,
        side: u64,
        plane: usize,
        col: usize,
        window: usize,
        count: u32,
    ) -> u32 {
        let mut h = mix64(self.call_seed, s as u64);
        h = mix64(h, side);
        h = mix64(h, plane as u64);
        h = mix64(h, col as u64);
        h = mix64(h, window as u64);
        // one Box–Muller pair per slot: cos-branch perturbs for
        // programming variation, sin-branch for read noise
        let u1 = unit_open(h);
        let u2 = unit_open(mix64(h, 0x5851_F42D_4C95_7F2D));
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin_t, cos_t) = (std::f64::consts::TAU * u2).sin_cos();
        let c = f64::from(count);
        let noisy = c + self.sigma_prog * c.sqrt() * (r * cos_t) + self.sigma_read * (r * sin_t);
        noisy.round().clamp(0.0, f64::from(self.max_count)) as u32
    }
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_model_is_identity() {
        let m = NoiseModel::ideal();
        assert!(m.is_ideal());
        let mut rng = m.rng();
        assert_eq!(m.sample_conductance(1.0, &mut rng), 1.0);
        assert_eq!(m.sample_conductance(0.0, &mut rng), 0.0);
        assert_eq!(m.sample_read_noise(&mut rng), 0.0);
    }

    #[test]
    fn programming_variation_is_unbiased_in_log_space() {
        let m = NoiseModel { sigma_prog: 0.1, seed: 3, ..Default::default() };
        let mut rng = m.rng();
        let mut log_sum = 0.0;
        let n = 20000;
        for _ in 0..n {
            log_sum += m.sample_conductance(1.0, &mut rng).ln();
        }
        assert!((log_sum / n as f64).abs() < 0.01);
    }

    #[test]
    fn stuck_rates_are_respected() {
        let m =
            NoiseModel { stuck_off_rate: 0.2, stuck_on_rate: 0.1, seed: 7, ..Default::default() };
        let mut rng = m.rng();
        let n = 50000;
        let mut off = 0;
        let mut on = 0;
        for _ in 0..n {
            // nominal 0 cell: stuck-ON makes it 1
            if m.sample_conductance(0.0, &mut rng) == 0.0 {
                off += 1;
            } else {
                on += 1;
            }
        }
        let on_rate = on as f64 / n as f64;
        assert!((on_rate - 0.1).abs() < 0.01, "stuck-on rate {on_rate}");
        assert!(off > 0);
    }

    #[test]
    fn count_noise_is_off_without_sigmas_and_clamps_to_the_array() {
        let stuck = NoiseModel { stuck_off_rate: 0.1, seed: 5, ..Default::default() };
        assert_eq!(CountNoise::for_call(&stuck, 0, 0, 128), None);
        let loud = NoiseModel { sigma_read: 50.0, seed: 5, ..Default::default() };
        let noise = CountNoise::for_call(&loud, 2, 7, 128).unwrap();
        let draws: Vec<u32> = (0..64).map(|w| noise.perturb(0, 1, 3, 9, w, 64)).collect();
        assert!(draws.iter().all(|&c| c <= 128), "noisy counts clamp to the array height");
        assert!(draws.contains(&0) && draws.contains(&128), "σ 50 must hit both clamps");
        assert_eq!(draws[5], noise.perturb(0, 1, 3, 9, 5, 64), "draws are keyed, not streamed");
    }

    #[test]
    fn same_seed_same_device() {
        let m = NoiseModel { sigma_prog: 0.2, seed: 42, ..Default::default() };
        let a: Vec<f64> = {
            let mut rng = m.rng();
            (0..10).map(|_| m.sample_conductance(1.0, &mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = m.rng();
            (0..10).map(|_| m.sample_conductance(1.0, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
