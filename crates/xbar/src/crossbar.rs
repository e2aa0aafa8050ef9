//! A single programmed crossbar array.

use crate::bits::{BitMatrix, BitVec};
use crate::config::CrossbarConfig;
use crate::XbarError;

/// One ReRAM crossbar: a binary cell array read by
/// [`Crossbar::mvm_counts`], the integer bit-line count
/// (`popcount(cells & input)` per bit line) the ADC digitises. Device
/// faults are modelled at that count level by [`crate::noise`], where the
/// tiled engine in `trq-core` applies them; this discrete array is the
/// ideal component the hardware-path tests compose.
#[derive(Debug, Clone, PartialEq)]
pub struct Crossbar {
    config: CrossbarConfig,
    cells: BitMatrix,
}

impl Crossbar {
    /// Creates an erased (all-OFF) crossbar.
    ///
    /// The cell array itself is binary (the paper's configuration);
    /// multi-bit `cell_bits` values are accepted by [`CrossbarConfig`] for
    /// the resolution arithmetic of Eq. 2 but cannot be instantiated here.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::BadConfig`] for invalid configurations or
    /// `cell_bits > 1`.
    pub fn new(config: CrossbarConfig) -> Result<Self, XbarError> {
        config.validate()?;
        if config.cell_bits != 1 {
            return Err(XbarError::BadConfig {
                reason: format!(
                    "instantiable cell arrays are binary; cell_bits = {} is analytic-only",
                    config.cell_bits
                ),
            });
        }
        Ok(Crossbar { config, cells: BitMatrix::zeros(config.rows, config.cols) })
    }

    /// The configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Programs one binary cell.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::OutOfBounds`] outside the array.
    pub fn program_bit(&mut self, row: usize, col: usize, on: bool) -> Result<(), XbarError> {
        if row >= self.config.rows || col >= self.config.cols {
            return Err(XbarError::OutOfBounds {
                row,
                col,
                rows: self.config.rows,
                cols: self.config.cols,
            });
        }
        self.cells.set(row, col, on);
        Ok(())
    }

    /// Reads back one cell's programmed (nominal) state.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::OutOfBounds`] outside the array.
    pub fn cell(&self, row: usize, col: usize) -> Result<bool, XbarError> {
        if row >= self.config.rows || col >= self.config.cols {
            return Err(XbarError::OutOfBounds {
                row,
                col,
                rows: self.config.rows,
                cols: self.config.cols,
            });
        }
        Ok(self.cells.get(row, col))
    }

    /// Ideal integer MVM for one input bit-cycle: per bit line,
    /// `Σ_rows input_bit · cell_bit` — the value in `[0, S]` the ADC sees.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InputLength`] when the input vector length
    /// differs from the number of word lines.
    pub fn mvm_counts(&self, input: &BitVec) -> Result<Vec<u32>, XbarError> {
        if input.len() != self.config.rows {
            return Err(XbarError::InputLength { expected: self.config.rows, actual: input.len() });
        }
        Ok(self.cells.mvm(input))
    }

    /// Fraction of programmed-ON cells.
    pub fn density(&self) -> f64 {
        let total = (self.config.rows * self.config.cols) as f64;
        let ones: u32 = (0..self.config.cols).map(|c| self.cells.column_count_ones(c)).sum();
        ones as f64 / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CrossbarConfig {
        CrossbarConfig { rows: 8, cols: 4, ..Default::default() }
    }

    #[test]
    fn program_and_read_back() {
        let mut xb = Crossbar::new(small_cfg()).unwrap();
        xb.program_bit(3, 2, true).unwrap();
        assert!(xb.cell(3, 2).unwrap());
        assert!(!xb.cell(3, 1).unwrap());
        assert!(xb.program_bit(8, 0, true).is_err());
        assert!(xb.cell(0, 4).is_err());
    }

    #[test]
    fn mvm_counts_matches_manual_sum() {
        let mut xb = Crossbar::new(small_cfg()).unwrap();
        for row in 0..8 {
            xb.program_bit(row, 0, row % 2 == 0).unwrap();
            xb.program_bit(row, 1, true).unwrap();
        }
        let input = BitVec::from_bools(&[true; 8]);
        let counts = xb.mvm_counts(&input).unwrap();
        assert_eq!(counts[0], 4);
        assert_eq!(counts[1], 8);
        assert_eq!(counts[2], 0);
    }

    #[test]
    fn multibit_cells_are_analytic_only() {
        let cfg = CrossbarConfig { cell_bits: 2, ..small_cfg() };
        assert!(cfg.validate().is_ok(), "config math supports multi-bit");
        assert!(Crossbar::new(cfg).is_err(), "but cell arrays are binary");
    }

    #[test]
    fn input_length_checked() {
        let xb = Crossbar::new(small_cfg()).unwrap();
        assert!(xb.mvm_counts(&BitVec::zeros(7)).is_err());
    }

    #[test]
    fn density() {
        let mut xb = Crossbar::new(small_cfg()).unwrap();
        assert_eq!(xb.density(), 0.0);
        xb.program_bit(0, 0, true).unwrap();
        xb.program_bit(1, 1, true).unwrap();
        assert!((xb.density() - 2.0 / 32.0).abs() < 1e-12);
    }
}
