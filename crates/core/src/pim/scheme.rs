//! Per-layer ADC behaviour selection.

use crate::arch::ArchConfig;
use serde::{Deserialize, Serialize};
use trq_quant::{QuantError, TrqParams, TwinRangeQuantizer, UniformQuantizer};
use trq_xbar::DecodeTable;

/// How a layer's bit-line samples are digitised.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdcScheme {
    /// Lossless conversion at the baseline resolution (`R_ADC` ops per
    /// conversion) — the unmodified ISAAC datapath and the paper's "8/f"
    /// reference point.
    Ideal,
    /// Uniform SAR at `bits` resolution with LSB `vgrid` (in BL count
    /// units): always `bits` ops per conversion.
    Uniform {
        /// Resolution in bits.
        bits: u32,
        /// LSB step in BL count units.
        vgrid: f64,
    },
    /// The paper's twin-range search (ν + NR1/NR2 ops per conversion).
    Trq(TrqParams),
}

impl AdcScheme {
    /// Convenience constructor for the uniform scheme.
    pub fn uniform(bits: u32, vgrid: f64) -> Self {
        AdcScheme::Uniform { bits, vgrid }
    }

    /// Builds the per-count lookup table for integer BL samples
    /// `0..=rows` of `arch`'s arrays: reconstructed magnitude in LSB units,
    /// the scale of one LSB, and A/D operations per conversion (the
    /// baseline resolution `arch.adc_bits` for the ideal scheme), packed
    /// one entry per count.
    ///
    /// # Errors
    ///
    /// Returns what [`AdcScheme::validate`] reports.
    pub(crate) fn build_lut(&self, arch: &ArchConfig) -> Result<Lut, String> {
        let max_count = arch.xbar.rows as u32;
        let invalid = |e: QuantError| e.to_string();
        match *self {
            AdcScheme::Ideal => {
                Lut::new((0..=max_count).map(|c| (c, arch.adc_bits as u8)), 1.0, arch)
            }
            AdcScheme::Uniform { bits, vgrid } => {
                let q = UniformQuantizer::new(bits, vgrid).map_err(invalid)?;
                Lut::new((0..=max_count).map(|c| (q.code(c as f64), bits as u8)), vgrid, arch)
            }
            AdcScheme::Trq(p) => {
                let params = TrqParams::new(p.n_r1(), p.n_r2(), p.m(), p.delta_r1(), p.bias())
                    .map_err(invalid)?;
                let q = TwinRangeQuantizer::new(params);
                Lut::new(
                    (0..=max_count).map(|c| {
                        let v = q.quantize(c as f64);
                        (v.code.decode_lsb(&params), v.ops as u8)
                    }),
                    params.delta_r1(),
                    arch,
                )
            }
        }
    }

    /// Checks that the engine can program this scheme on `arch` (whose
    /// crossbar geometry must itself be valid): the parameters pass their
    /// constructor again — a scheme decoded from a file never ran it — and
    /// every count's reconstruction fits the packed LUT entry.
    ///
    /// # Errors
    ///
    /// Returns the constructor's rejection, or names the first count whose
    /// magnitude overflows the entry's 24 bits.
    pub fn validate(&self, arch: &ArchConfig) -> Result<(), String> {
        self.build_lut(arch).map(drop)
    }

    /// Worst-case ops per conversion (used for sanity checks).
    pub fn max_ops(&self, baseline_bits: u32) -> u32 {
        match self {
            AdcScheme::Ideal => baseline_bits,
            AdcScheme::Uniform { bits, .. } => *bits,
            AdcScheme::Trq(p) => p.nu() + p.n_r1().max(p.n_r2()),
        }
    }
}

/// Precomputed conversion table for one layer, packed so each conversion
/// decode touches a single entry: A/D operations in the top byte,
/// reconstructed magnitude (LSB units) in the low 24 bits. The entries
/// live in a [`DecodeTable`] for the layer's tile geometry, which decides
/// once, here at programming time, whether the register-table decode may
/// run.
#[derive(Debug, Clone)]
pub(crate) struct Lut {
    /// The packed `ops << OPS_SHIFT | lsb` entries, indexed by BL count,
    /// with the layer's decode geometry.
    table: DecodeTable,
    /// Physical value of one LSB in count units.
    pub delta: f64,
}

impl Lut {
    /// Packs `(lsb, ops)` pairs indexed by BL count into one entry array
    /// for counts of `arch`'s input bit-planes × weight slices.
    ///
    /// # Errors
    ///
    /// Names the first count whose magnitude overflows the packed entry.
    fn new(
        parts: impl Iterator<Item = (u32, u8)>,
        delta: f64,
        arch: &ArchConfig,
    ) -> Result<Self, String> {
        let entries = parts
            .enumerate()
            .map(|(count, (lsb, ops))| {
                if lsb > DecodeTable::LSB_MASK {
                    return Err(format!(
                        "count {count} reconstructs to {lsb} LSBs, past the 24-bit entry"
                    ));
                }
                Ok(lsb | (u32::from(ops) << DecodeTable::OPS_SHIFT))
            })
            .collect::<Result<_, _>>()?;
        let table = DecodeTable::new(entries, arch.input_bits as usize, arch.weight_bits as usize);
        Ok(Lut { table, delta })
    }

    /// The decode primitive's view of the table.
    #[inline]
    pub fn table(&self) -> &DecodeTable {
        &self.table
    }

    /// The packed entries, indexed by BL count.
    #[inline]
    pub fn entries(&self) -> &[u32] {
        self.table.entries()
    }

    /// Reconstructed magnitude (LSB units) for `count`.
    #[cfg(test)]
    pub fn lsb(&self, count: u32) -> u32 {
        self.entries()[count as usize] & DecodeTable::LSB_MASK
    }

    /// A/D operations for `count`.
    #[cfg(test)]
    pub fn ops(&self, count: u32) -> u32 {
        self.entries()[count as usize] >> DecodeTable::OPS_SHIFT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trq_adc::{TrqSarAdc, UniformSarAdc};

    #[test]
    fn ideal_lut_is_identity() {
        let lut = AdcScheme::Ideal.build_lut(&ArchConfig::default()).unwrap();
        for c in 0..=128u32 {
            assert_eq!(lut.lsb(c), c);
            assert_eq!(lut.ops(c), 8);
        }
        assert_eq!(lut.delta, 1.0);
    }

    #[test]
    fn uniform_lut_matches_sar_adc() {
        let scheme = AdcScheme::uniform(5, 3.7);
        let lut = scheme.build_lut(&ArchConfig::default()).unwrap();
        let adc = UniformSarAdc::new(5, 3.7).unwrap();
        for c in 0..=128u32 {
            let conv = adc.convert(c as f64);
            assert_eq!(lut.lsb(c), conv.code_bits);
            assert_eq!(lut.ops(c), conv.ops);
            assert_eq!(lut.lsb(c) as f64 * lut.delta, conv.value);
        }
    }

    #[test]
    fn trq_lut_matches_sar_adc() {
        let params = TrqParams::new(3, 5, 2, 0.9, 0).unwrap();
        let lut = AdcScheme::Trq(params).build_lut(&ArchConfig::default()).unwrap();
        let adc = TrqSarAdc::new(params);
        for c in 0..=128u32 {
            let conv = adc.convert(c as f64);
            assert_eq!(lut.lsb(c) as f64 * lut.delta, conv.value, "count {c}");
            assert_eq!(lut.ops(c), conv.ops, "count {c}");
        }
    }

    #[test]
    fn register_decode_eligibility_is_decided_per_scheme() {
        let arch = ArchConfig::default();
        let trq = |r1, r2, m, d, b| AdcScheme::Trq(TrqParams::new(r1, r2, m, d, b).unwrap());
        for scheme in [
            AdcScheme::Ideal,
            AdcScheme::uniform(6, 0.7),
            AdcScheme::uniform(5, 3.7),
            trq(3, 7, 1, 1.0, 0),
            trq(3, 5, 2, 0.9, 2),
        ] {
            assert!(scheme.build_lut(&arch).unwrap().table().register_eligible(), "{scheme:?}");
        }
        // R2 magnitudes up to 255 << 8 overflow an i32 row sum of 8 × 8
        // bit rows: this layer keeps the segment walk
        assert!(!trq(2, 8, 8, 0.001, 0).build_lut(&arch).unwrap().table().register_eligible());
        // arrays taller than the register table also keep it
        let tall = ArchConfig { xbar: trq_xbar::CrossbarConfig { rows: 256, ..arch.xbar }, ..arch };
        assert!(!AdcScheme::Ideal.build_lut(&tall).unwrap().table().register_eligible());
    }

    #[test]
    fn validate_rejects_luts_the_entry_cannot_pack() {
        let arch = ArchConfig::default();
        assert_eq!(
            AdcScheme::Trq(TrqParams::new(3, 7, 1, 1.0, 0).unwrap()).validate(&arch),
            Ok(())
        );
        // constructor-valid, but R2 codes shifted by M = 16 reach 2^32
        let wide = AdcScheme::Trq(TrqParams::new(2, 16, 16, 1e-9, 0).unwrap());
        let err = wide.validate(&arch).unwrap_err();
        assert!(err.contains("24-bit"), "{err}");
        assert!(AdcScheme::uniform(17, 1.0).validate(&arch).is_err());
        assert!(AdcScheme::uniform(4, f64::NAN).validate(&arch).is_err());
    }

    #[test]
    fn max_ops_bounds() {
        assert_eq!(AdcScheme::Ideal.max_ops(8), 8);
        assert_eq!(AdcScheme::uniform(5, 1.0).max_ops(8), 5);
        let p = TrqParams::new(2, 6, 1, 1.0, 0).unwrap();
        assert_eq!(AdcScheme::Trq(p).max_ops(8), 7);
    }
}
