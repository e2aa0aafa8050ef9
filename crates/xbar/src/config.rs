//! Crossbar array configuration.

use crate::XbarError;
use serde::{Deserialize, Serialize};

/// Physical/architectural parameters of one crossbar array.
///
/// Defaults follow the paper's evaluation setup (Section V-A): 128×128
/// arrays of single-bit ReRAM cells driven by 1-bit DACs. With those
/// settings the ideal lossless ADC resolution is
/// `R_ADC,ideal = log2(S) + R_DA + R_cell + δ = 7 + 1 + 1 − 1 = 8` bits
/// (Eq. 2), which is why the baseline ISAAC ADC is 8-bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossbarConfig {
    /// Word lines (`S`, the MVM depth).
    pub rows: usize,
    /// Bit lines.
    pub cols: usize,
    /// Bits stored per cell (`R_cell`).
    pub cell_bits: u32,
    /// DAC resolution (`R_DA`).
    pub dac_bits: u32,
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        CrossbarConfig { rows: 128, cols: 128, cell_bits: 1, dac_bits: 1 }
    }
}

impl CrossbarConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::BadConfig`] for zero-sized arrays, unsupported
    /// cell/DAC widths (this simulator implements the paper's 1-bit cells
    /// and 1-bit DACs; widths up to 4 are accepted for the multi-bit cell
    /// extension).
    pub fn validate(&self) -> Result<(), XbarError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(XbarError::BadConfig {
                reason: "array dimensions must be positive".into(),
            });
        }
        if self.rows > 4096 || self.cols > 4096 {
            return Err(XbarError::BadConfig { reason: "array dimension above 4096".into() });
        }
        if self.cell_bits == 0 || self.cell_bits > 4 {
            return Err(XbarError::BadConfig {
                reason: format!("cell_bits {} not in 1..=4", self.cell_bits),
            });
        }
        if self.dac_bits == 0 || self.dac_bits > 4 {
            return Err(XbarError::BadConfig {
                reason: format!("dac_bits {} not in 1..=4", self.dac_bits),
            });
        }
        Ok(())
    }

    /// Ideal lossless ADC resolution per Eq. 2:
    /// `log2(S) + R_DA + R_cell + δ`, with `δ = 0` if `R_DA ≥ 1 && R_cell ≥ 1`
    /// else `−1`. (For the common 1-bit/1-bit case the paper uses
    /// `log2(S) + 1`; Eq. 2's δ trims the double-counted bit.)
    pub fn ideal_adc_bits(&self) -> u32 {
        let s_bits = (self.rows as f64).log2().ceil() as u32;
        // with binary cells and DACs, a BL sums S products of 1-bit values:
        // max value = S → needs log2(S) + 1 bits
        s_bits + self.dac_bits + self.cell_bits - 1
    }

    /// Maximum integer a bit line can accumulate in one cycle.
    pub fn max_bl_value(&self) -> u32 {
        self.rows as u32 * ((1u32 << self.cell_bits) - 1) * ((1u32 << self.dac_bits) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let cfg = CrossbarConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.rows, 128);
        assert_eq!(cfg.cell_bits, 1);
        assert_eq!(cfg.dac_bits, 1);
        // R_ADC,ideal = log2(128) + 1 = 8 (Eq. 2)
        assert_eq!(cfg.ideal_adc_bits(), 8);
        assert_eq!(cfg.max_bl_value(), 128);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let cfg = CrossbarConfig { rows: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
        let cfg = CrossbarConfig { cell_bits: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
        let cfg = CrossbarConfig { cell_bits: 5, ..Default::default() };
        assert!(cfg.validate().is_err());
        let cfg = CrossbarConfig { rows: 8192, ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn smaller_arrays_need_fewer_adc_bits() {
        let cfg = CrossbarConfig { rows: 64, ..Default::default() };
        assert_eq!(cfg.ideal_adc_bits(), 7);
        let cfg = CrossbarConfig { rows: 256, ..Default::default() };
        assert_eq!(cfg.ideal_adc_bits(), 9);
    }

    #[test]
    fn multibit_cells_raise_resolution() {
        let cfg = CrossbarConfig { cell_bits: 2, ..Default::default() };
        assert_eq!(cfg.ideal_adc_bits(), 9);
        assert_eq!(cfg.max_bl_value(), 128 * 3);
    }
}
