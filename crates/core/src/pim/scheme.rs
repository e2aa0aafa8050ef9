//! Per-layer ADC behaviour selection.

use crate::arch::ArchConfig;
use serde::{Deserialize, Serialize};
use trq_quant::{TrqParams, TwinRangeQuantizer, UniformQuantizer};
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
    pub(crate) fn build_lut(&self, arch: &ArchConfig) -> Lut {
        let max_count = arch.xbar.rows as u32;
        match self {
            AdcScheme::Ideal => {
                Lut::new((0..=max_count).map(|c| (c, arch.adc_bits as u8)), 1.0, arch)
            }
            AdcScheme::Uniform { bits, vgrid } => {
                // lint: allow(unwrap): scheme parameters were validated at
                // construction
                let q = UniformQuantizer::new(*bits, *vgrid).expect("validated scheme");
                Lut::new((0..=max_count).map(|c| (q.code(c as f64), *bits as u8)), *vgrid, arch)
            }
            AdcScheme::Trq(params) => {
                let q = TwinRangeQuantizer::new(*params);
                Lut::new(
                    (0..=max_count).map(|c| {
                        let v = q.quantize(c as f64);
                        (v.code.decode_lsb(params), v.ops as u8)
                    }),
                    params.delta_r1(),
                    arch,
                )
            }
        }
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
    /// # Panics
    ///
    /// Panics when a magnitude overflows the 24-bit entry field (no
    /// physical array height comes close).
    fn new(parts: impl Iterator<Item = (u32, u8)>, delta: f64, arch: &ArchConfig) -> Self {
        let entries = parts
            .map(|(lsb, ops)| {
                assert!(lsb <= DecodeTable::LSB_MASK, "magnitude overflows the packed LUT entry");
                lsb | ((ops as u32) << DecodeTable::OPS_SHIFT)
            })
            .collect();
        Lut::from_parts(entries, delta, arch)
    }

    /// Reassembles a table from previously exported packed entries (the
    /// persistence path — entries carry their ops byte and magnitude bits
    /// already packed, so no re-encoding happens and a restored table is
    /// bit-identical to the one built at programming time).
    pub(crate) fn from_parts(entries: Vec<u32>, delta: f64, arch: &ArchConfig) -> Self {
        let table = DecodeTable::new(entries, arch.input_bits as usize, arch.weight_bits as usize);
        Lut { table, delta }
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
    #[inline]
    pub fn lsb(&self, count: u32) -> u32 {
        self.entries()[count as usize] & DecodeTable::LSB_MASK
    }

    /// A/D operations for `count`.
    #[inline]
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
        let lut = AdcScheme::Ideal.build_lut(&ArchConfig::default());
        for c in 0..=128u32 {
            assert_eq!(lut.lsb(c), c);
            assert_eq!(lut.ops(c), 8);
        }
        assert_eq!(lut.delta, 1.0);
    }

    #[test]
    fn uniform_lut_matches_sar_adc() {
        let scheme = AdcScheme::uniform(5, 3.7);
        let lut = scheme.build_lut(&ArchConfig::default());
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
        let lut = AdcScheme::Trq(params).build_lut(&ArchConfig::default());
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
            assert!(scheme.build_lut(&arch).table().register_eligible(), "{scheme:?}");
        }
        // R2 magnitudes up to 255 << 8 overflow an i32 row sum of 8 × 8
        // bit rows: this layer keeps the segment walk
        assert!(!trq(2, 8, 8, 0.001, 0).build_lut(&arch).table().register_eligible());
        // arrays taller than the register table also keep it
        let tall = ArchConfig { xbar: trq_xbar::CrossbarConfig { rows: 256, ..arch.xbar }, ..arch };
        assert!(!AdcScheme::Ideal.build_lut(&tall).table().register_eligible());
    }

    #[test]
    fn max_ops_bounds() {
        assert_eq!(AdcScheme::Ideal.max_ops(8), 8);
        assert_eq!(AdcScheme::uniform(5, 1.0).max_ops(8), 5);
        let p = TrqParams::new(2, 6, 1, 1.0, 0).unwrap();
        assert_eq!(AdcScheme::Trq(p).max_ops(8), 7);
    }
}
