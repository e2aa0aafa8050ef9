//! Differential positive/negative crossbar pairs (Fig. 5 ➌).
//!
//! Signed weights are mapped sign-magnitude: positive magnitudes on the
//! "Pos XBAR", negative magnitudes on the "Neg XBAR". Each array converts
//! its bit lines independently; the digital S+A stage subtracts the decoded
//! negative stream from the positive one.

use crate::bits::BitVec;
use crate::config::CrossbarConfig;
use crate::crossbar::Crossbar;
use crate::slicing::WeightSlicer;
use crate::XbarError;

/// A pos/neg crossbar pair programmed with bit-sliced signed weights.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffPair {
    pos: Crossbar,
    neg: Crossbar,
    slicer: WeightSlicer,
}

impl DiffPair {
    /// Programs a pair from a `depth × outputs` signed weight matrix
    /// (row-major), with `weight_bits` magnitude bits per weight.
    ///
    /// The arrays are sized by `config`; the used region is
    /// `depth × (outputs · weight_bits)` and must fit.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::WeightShape`] when the sliced weights do not
    /// fit the array or fail validation, and propagates configuration
    /// errors.
    pub fn program(
        config: CrossbarConfig,
        weights: &[i32],
        depth: usize,
        outputs: usize,
        weight_bits: u32,
    ) -> Result<Self, XbarError> {
        let slicer = WeightSlicer::new(depth, outputs, weight_bits)?;
        slicer.check_weights(weights)?;
        if depth > config.rows {
            return Err(XbarError::WeightShape {
                reason: format!("depth {depth} exceeds {} word lines", config.rows),
            });
        }
        if slicer.columns() > config.cols {
            return Err(XbarError::WeightShape {
                reason: format!(
                    "{} slice columns exceed {} bit lines",
                    slicer.columns(),
                    config.cols
                ),
            });
        }
        let mut pos = Crossbar::new(config)?;
        let mut neg = Crossbar::new(config)?;
        for row in 0..depth {
            for out in 0..outputs {
                for alpha in 0..weight_bits {
                    let col = slicer.column_of(out, alpha);
                    if slicer.pos_bit(weights, row, out, alpha) {
                        pos.program_bit(row, col, true)?;
                    }
                    if slicer.neg_bit(weights, row, out, alpha) {
                        neg.program_bit(row, col, true)?;
                    }
                }
            }
        }
        Ok(DiffPair { pos, neg, slicer })
    }

    /// The slicing geometry.
    pub fn slicer(&self) -> &WeightSlicer {
        &self.slicer
    }

    /// The positive array.
    pub fn pos(&self) -> &Crossbar {
        &self.pos
    }

    /// The negative array.
    pub fn neg(&self) -> &Crossbar {
        &self.neg
    }

    /// One input bit-cycle through both arrays: per bit line, the ideal
    /// integer counts `(pos, neg)`.
    ///
    /// # Errors
    ///
    /// Propagates input-length errors.
    pub fn mvm_counts(&self, input: &BitVec) -> Result<(Vec<u32>, Vec<u32>), XbarError> {
        Ok((self.pos.mvm_counts(input)?, self.neg.mvm_counts(input)?))
    }

    /// Reference signed MVM for validation: computes
    /// `y[o] = Σ_d w[d][o] · x[d]` directly on the integers, bypassing
    /// slicing and ADCs.
    pub fn reference_mvm(weights: &[i32], depth: usize, outputs: usize, x: &[u32]) -> Vec<i64> {
        assert_eq!(x.len(), depth, "input length mismatch");
        let mut y = vec![0i64; outputs];
        for d in 0..depth {
            for (o, acc) in y.iter_mut().enumerate() {
                *acc += weights[d * outputs + o] as i64 * x[d] as i64;
            }
        }
        y
    }

    /// Full bit-serial MVM through the pair with ideal (lossless) ADCs:
    /// slices inputs into bit planes, runs every cycle, and merges with
    /// shift-add — the end-to-end datapath of Fig. 1 minus quantization.
    /// Used as the bridge between `reference_mvm` and ADC-quantized runs.
    ///
    /// # Errors
    ///
    /// Propagates input-length errors.
    pub fn bit_serial_mvm(&self, x: &[u32], input_bits: u32) -> Result<Vec<i64>, XbarError> {
        let depth = self.slicer.depth;
        if x.len() != depth {
            return Err(XbarError::InputLength { expected: depth, actual: x.len() });
        }
        let rows = self.pos.config().rows;
        let mut padded = vec![0u32; rows];
        padded[..depth].copy_from_slice(x);
        let mut y = vec![0i64; self.slicer.outputs];
        for c in 0..input_bits {
            let plane = crate::slicing::bit_plane(&padded, c);
            let (pos, neg) = self.mvm_counts(&plane)?;
            for (out, acc) in y.iter_mut().enumerate() {
                for alpha in 0..self.slicer.weight_bits {
                    let col = self.slicer.column_of(out, alpha);
                    let diff = pos[col] as i64 - neg[col] as i64;
                    *acc += diff << (alpha + c);
                }
            }
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> CrossbarConfig {
        CrossbarConfig { rows: 16, cols: 64, ..Default::default() }
    }

    #[test]
    fn program_rejects_oversize() {
        let weights = vec![0i32; 20 * 2];
        assert!(DiffPair::program(cfg(), &weights, 20, 2, 8).is_err());
        let weights = vec![0i32; 4 * 10];
        assert!(DiffPair::program(cfg(), &weights, 4, 10, 8).is_err());
    }

    #[test]
    fn pos_neg_split_is_disjoint() {
        let weights = vec![3, -3, 0, 7];
        let pair = DiffPair::program(cfg(), &weights, 2, 2, 4).unwrap();
        // a cell can be ON in at most one of the two arrays
        for row in 0..2 {
            for col in 0..8 {
                let p = pair.pos().cell(row, col).unwrap();
                let n = pair.neg().cell(row, col).unwrap();
                assert!(!(p && n), "cell ({row},{col}) on in both arrays");
            }
        }
    }

    #[test]
    fn bit_serial_matches_reference_small() {
        let weights = vec![5, -3, 2, 0, -7, 1]; // 3x2
        let pair = DiffPair::program(cfg(), &weights, 3, 2, 4).unwrap();
        let x = vec![2u32, 7, 1];
        let got = pair.bit_serial_mvm(&x, 3).unwrap();
        let want = DiffPair::reference_mvm(&weights, 3, 2, &x);
        assert_eq!(got, want);
    }

    proptest! {
        #[test]
        fn bit_serial_always_matches_reference(
            depth in 1usize..12, outputs in 1usize..4, seed in 0u64..200,
        ) {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
            let mut next = |range: i64| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as i64 % range) as i32
            };
            let weights: Vec<i32> =
                (0..depth * outputs).map(|_| next(255) - 127).collect();
            let x: Vec<u32> = (0..depth).map(|_| next(256).unsigned_abs()).collect();
            let pair = DiffPair::program(
                CrossbarConfig { rows: 16, cols: 64, ..Default::default() },
                &weights, depth, outputs, 8,
            ).unwrap();
            let got = pair.bit_serial_mvm(&x, 8).unwrap();
            let want = DiffPair::reference_mvm(&weights, depth, outputs, &x);
            prop_assert_eq!(got, want);
        }
    }
}
