//! Bit slicing of weights (spatial) and inputs (temporal) — Fig. 1.
//!
//! Resolution limits of DACs and ReRAM cells force 8-bit operands to be
//! decomposed: each weight's magnitude bits are spread over `Kw/R_cell`
//! columns ("weight slice, spatial"), and each input's bits are streamed
//! over `Ki/R_DA` DAC cycles ("input slice, temporal"). Signs are handled
//! by the differential crossbar pair ([`crate::DiffPair`]): positive
//! magnitudes program the positive array, negative magnitudes the negative
//! array.

use crate::bits::BitVec;
use crate::XbarError;

/// Extracts bit-plane `bit` of unsigned values as a packed [`BitVec`] — one
/// DAC input cycle.
pub fn bit_plane(values: &[u32], bit: u32) -> BitVec {
    let mut v = BitVec::zeros(values.len());
    for (i, &x) in values.iter().enumerate() {
        if (x >> bit) & 1 == 1 {
            v.set(i, true);
        }
    }
    v
}

/// All `bits` bit-planes of unsigned values, LSB first — the full temporal
/// input stream.
pub fn unsigned_bit_planes(values: &[u32], bits: u32) -> Vec<BitVec> {
    (0..bits).map(|b| bit_plane(values, b)).collect()
}

/// Splits signed integer weights into sign-magnitude bit slices for a
/// differential crossbar pair.
///
/// The slicer owns the geometry: a `depth × outputs` weight matrix with
/// `weight_bits` magnitude bits yields, per output channel, `weight_bits`
/// column slices (1-bit cells) in each of the positive and negative arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightSlicer {
    /// MVM depth (rows used).
    pub depth: usize,
    /// Output channels.
    pub outputs: usize,
    /// Magnitude bits per weight (`Kw`; 8 in the paper minus the sign
    /// handled differentially).
    pub weight_bits: u32,
}

impl WeightSlicer {
    /// Creates a slicer.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::WeightShape`] for zero dimensions or an
    /// unsupported bit width.
    pub fn new(depth: usize, outputs: usize, weight_bits: u32) -> Result<Self, XbarError> {
        if depth == 0 || outputs == 0 {
            return Err(XbarError::WeightShape { reason: "zero-sized weight matrix".into() });
        }
        if weight_bits == 0 || weight_bits > 16 {
            return Err(XbarError::WeightShape {
                reason: format!("weight_bits {weight_bits} not in 1..=16"),
            });
        }
        Ok(WeightSlicer { depth, outputs, weight_bits })
    }

    /// Total columns each array of the pair needs: `outputs × weight_bits`.
    pub fn columns(&self) -> usize {
        self.outputs * self.weight_bits as usize
    }

    /// Column index holding bit `alpha` of output channel `output`.
    ///
    /// Layout: channel-major (`output * weight_bits + alpha`), so one
    /// channel's slices sit on adjacent bit lines and share a shift-add
    /// tree.
    ///
    /// # Panics
    ///
    /// Panics when `output` or `alpha` is out of range.
    pub fn column_of(&self, output: usize, alpha: u32) -> usize {
        assert!(output < self.outputs, "output {output} out of range {}", self.outputs);
        assert!(alpha < self.weight_bits, "alpha {alpha} out of range {}", self.weight_bits);
        output * self.weight_bits as usize + alpha as usize
    }

    /// Extracts the positive-magnitude bit at (`row`, `output`, `alpha`).
    pub fn pos_bit(&self, weights: &[i32], row: usize, output: usize, alpha: u32) -> bool {
        let w = weights[row * self.outputs + output];
        w > 0 && ((w as u32) >> alpha) & 1 == 1
    }

    /// Extracts the negative-magnitude bit at (`row`, `output`, `alpha`).
    pub fn neg_bit(&self, weights: &[i32], row: usize, output: usize, alpha: u32) -> bool {
        let w = weights[row * self.outputs + output];
        w < 0 && ((w.unsigned_abs()) >> alpha) & 1 == 1
    }

    /// Validates that a weight buffer matches the slicer geometry and fits
    /// the magnitude width.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::WeightShape`] on length or range violations.
    pub fn check_weights(&self, weights: &[i32]) -> Result<(), XbarError> {
        if weights.len() != self.depth * self.outputs {
            return Err(XbarError::WeightShape {
                reason: format!(
                    "expected {} weights, got {}",
                    self.depth * self.outputs,
                    weights.len()
                ),
            });
        }
        let limit = (1i64 << self.weight_bits) - 1;
        for (i, &w) in weights.iter().enumerate() {
            if (w as i64).abs() > limit {
                return Err(XbarError::WeightShape {
                    reason: format!(
                        "weight {w} at index {i} exceeds {} magnitude bits",
                        self.weight_bits
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_planes_reconstruct_values() {
        let values = vec![0u32, 1, 5, 255, 170];
        let planes = unsigned_bit_planes(&values, 8);
        for (i, &v) in values.iter().enumerate() {
            let mut rec = 0u32;
            for (b, plane) in planes.iter().enumerate() {
                if plane.get(i) {
                    rec |= 1 << b;
                }
            }
            assert_eq!(rec, v);
        }
    }

    #[test]
    fn slicer_geometry() {
        let s = WeightSlicer::new(9, 4, 8).unwrap();
        assert_eq!(s.columns(), 32);
        assert_eq!(s.column_of(0, 0), 0);
        assert_eq!(s.column_of(0, 7), 7);
        assert_eq!(s.column_of(3, 2), 26);
    }

    #[test]
    fn sign_magnitude_split() {
        let s = WeightSlicer::new(2, 1, 8).unwrap();
        let weights = vec![5i32, -3];
        // +5 = 101b on the positive array
        assert!(s.pos_bit(&weights, 0, 0, 0));
        assert!(!s.pos_bit(&weights, 0, 0, 1));
        assert!(s.pos_bit(&weights, 0, 0, 2));
        assert!(!s.neg_bit(&weights, 0, 0, 0));
        // -3 = 011b on the negative array
        assert!(s.neg_bit(&weights, 1, 0, 0));
        assert!(s.neg_bit(&weights, 1, 0, 1));
        assert!(!s.neg_bit(&weights, 1, 0, 2));
        assert!(!s.pos_bit(&weights, 1, 0, 0));
    }

    #[test]
    fn weight_validation() {
        let s = WeightSlicer::new(2, 2, 4).unwrap();
        assert!(s.check_weights(&[1, 2, 3]).is_err()); // wrong length
        assert!(s.check_weights(&[1, 2, 3, 16]).is_err()); // 16 > 2^4 - 1
        assert!(s.check_weights(&[15, -15, 0, 7]).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_of_bounds_checked() {
        let s = WeightSlicer::new(2, 2, 4).unwrap();
        let _ = s.column_of(2, 0);
    }

    #[test]
    fn reconstruction_over_slices() {
        // Σ_α 2^α · bit_α(|w|) with sign from the array choice equals w.
        let s = WeightSlicer::new(3, 2, 8).unwrap();
        let weights = vec![100i32, -77, 0, 127, -128 + 1, 1];
        s.check_weights(&weights).unwrap();
        for row in 0..3 {
            for out in 0..2 {
                let mut rec = 0i64;
                for alpha in 0..8 {
                    if s.pos_bit(&weights, row, out, alpha) {
                        rec += 1i64 << alpha;
                    }
                    if s.neg_bit(&weights, row, out, alpha) {
                        rec -= 1i64 << alpha;
                    }
                }
                assert_eq!(rec, weights[row * 2 + out] as i64);
            }
        }
    }
}
