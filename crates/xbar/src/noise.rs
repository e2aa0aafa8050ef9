//! The device model: every non-ideality the simulator applies, at the
//! level the ADC observes it.
//!
//! The paper evaluates on ideal devices (its contribution is in the
//! digital SAR logic); this module lets a study ask "does TRQ survive
//! device faults?" without leaving the integer datapath. A
//! [`NoiseModel`] carries four knobs, each deterministic under its
//! `seed`:
//!
//! - **stuck-at faults** (`stuck_off_rate` / `stuck_on_rate`): a hashed
//!   per-cell map forced into the programmed weight bit planes once, when
//!   a layer is programmed ([`NoiseModel::apply_stuck_at`]). A stuck cell
//!   is the same cell in every run with the same seed — the only part of
//!   the model that is frozen into the device;
//! - **programming variation** (`sigma_prog`): a Gaussian of
//!   `σ_prog·√c` on each bit-line count `c` ([`CountNoise`]), the spread
//!   of a sum of `c` independently varied cell currents;
//! - **read noise** (`sigma_read`): an additive Gaussian of `σ_read`
//!   cell currents on each bit-line count ([`CountNoise`]).
//!
//! Both σ draws are keyed on the engine's noise epoch as well as the
//! count's coordinates, so σ_prog is redrawn with σ_read at every epoch
//! (every image in a fault sweep) rather than frozen at program time.
//! A model with every knob zero is the ideal datapath.

use crate::bits::BitMatrix;

/// Parameters for device non-idealities. All default to zero (ideal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Programming-variation σ: a count `c` deviates by `σ_prog·√c`.
    pub sigma_prog: f64,
    /// Additive Gaussian read noise per BL sample, in cell-current units.
    pub sigma_read: f64,
    /// Probability a cell is stuck OFF.
    pub stuck_off_rate: f64,
    /// Probability a cell is stuck ON.
    pub stuck_on_rate: f64,
    /// Seed of the hash chain every draw is keyed on; the same seed
    /// reproduces the same device instance.
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

    /// Forces this device's stuck-at faults into one side of one
    /// programmed subarray: `mat` holds the weight bit planes of MVM
    /// layer `layer`, row block `subarray`, `side` 0 = pos and 1 = neg.
    /// Each cell draws `u ∈ (0, 1]` from the hash chain `(seed, layer,
    /// subarray, side, row, column)`; `u < stuck_off_rate` clears it and
    /// the next `stuck_on_rate` of the interval sets it. No effect when
    /// both rates are zero.
    pub fn apply_stuck_at(&self, mat: &mut BitMatrix, layer: usize, subarray: usize, side: u64) {
        if self.stuck_off_rate == 0.0 && self.stuck_on_rate == 0.0 {
            return;
        }
        let device = mix64(self.seed, layer as u64);
        for r in 0..mat.rows() {
            for col in 0..mat.cols() {
                let mut h = mix64(device, subarray as u64);
                h = mix64(h, side);
                h = mix64(h, r as u64);
                h = mix64(h, col as u64);
                let u = unit_open(h);
                if u < self.stuck_off_rate {
                    mat.set(r, col, false);
                } else if u < self.stuck_off_rate + self.stuck_on_rate {
                    mat.set(r, col, true);
                }
            }
        }
    }
}

/// Mixes one more component into a splitmix64 hash chain, applied per key
/// component so noise draws are a pure function of their coordinates.
fn mix64(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a 64-bit hash onto a uniform draw in (0, 1] (53-bit mantissa,
/// never exactly zero — safe under `ln`).
fn unit_open(z: u64) -> f64 {
    (((z >> 11) + 1) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// Count-level device noise for one engine call: a Gaussian perturbation
/// of each bit-line count before decode — programming variation (σ
/// scaling with `sqrt(count)`, the deviation of a sum of `count`
/// independent cell currents) plus additive read noise (σ in
/// cell-current units, independent of the count). It perturbs exactly
/// what the ADC sees and keeps the integer datapath.
///
/// Draws are keyed on `(seed, layer, epoch, subarray, side, plane,
/// column, window)` — never on tile boundaries or thread ids — so a
/// noisy result is bit-identical across tilings and thread counts, and
/// both σ terms are redrawn whenever the epoch changes.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn stuck(off: f64, on: f64, seed: u64) -> NoiseModel {
        NoiseModel { stuck_off_rate: off, stuck_on_rate: on, seed, ..Default::default() }
    }

    /// A `rows × cols` matrix with every cell ON.
    fn all_on(rows: usize, cols: usize) -> BitMatrix {
        let mut m = BitMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, true);
            }
        }
        m
    }

    fn ones(m: &BitMatrix) -> u32 {
        (0..m.cols()).map(|c| m.column_count_ones(c)).sum()
    }

    #[test]
    fn ideal_model_is_identity() {
        let m = NoiseModel::ideal();
        assert!(m.is_ideal());
        let sigmas_only = NoiseModel { sigma_prog: 0.3, sigma_read: 1.0, seed: 9, ..m };
        let mut cells = BitMatrix::zeros(70, 5);
        for i in 0..70 {
            cells.set(i, i % 5, true);
        }
        for model in [m, sigmas_only] {
            let mut mat = cells.clone();
            model.apply_stuck_at(&mut mat, 2, 1, 0);
            assert_eq!(mat, cells, "no stuck rate, no forced cell");
        }
    }

    #[test]
    fn stuck_rates_are_respected() {
        let m = stuck(0.2, 0.1, 7);
        let (rows, cols) = (256, 200);
        let n = f64::from((rows * cols) as u32);
        // an erased array: only stuck-ON cells read 1
        let mut erased = BitMatrix::zeros(rows, cols);
        m.apply_stuck_at(&mut erased, 0, 0, 0);
        let on_rate = f64::from(ones(&erased)) / n;
        assert!((on_rate - 0.1).abs() < 0.01, "stuck-on rate {on_rate}");
        // a fully written array: only stuck-OFF cells read 0
        let mut written = all_on(rows, cols);
        m.apply_stuck_at(&mut written, 0, 0, 0);
        let off_rate = 1.0 - f64::from(ones(&written)) / n;
        assert!((off_rate - 0.2).abs() < 0.01, "stuck-off rate {off_rate}");
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
        let device = |m: NoiseModel, layer: usize, subarray: usize, side: u64| {
            let mut mat = BitMatrix::zeros(130, 24);
            m.apply_stuck_at(&mut mat, layer, subarray, side);
            mat
        };
        let m = stuck(0.05, 0.05, 42);
        let first = device(m, 1, 0, 0);
        assert_eq!(first, device(m, 1, 0, 0), "same seed and coordinates, same faults");
        assert_ne!(first, device(stuck(0.05, 0.05, 43), 1, 0, 0), "the seed picks the device");
        for other in [device(m, 2, 0, 0), device(m, 1, 1, 0), device(m, 1, 0, 1)] {
            assert_ne!(first, other, "layer, subarray and side each key the map");
        }
    }
}
