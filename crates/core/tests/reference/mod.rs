//! The pinned scalar reference for the engine's tile datapath.
//!
//! [`ReferenceMvm`] runs a layer the slow, obvious way: the whole layer
//! as one block, two back-to-back scalar popcount passes per subarray
//! ([`BitMatrix::mvm_planes_tile_into`] — no tiling, no fusion, no
//! skipping, no SIMD), then an element-wise decode of every count through
//! the layer's packed conversion entries. It executes the programming a
//! [`PimMvm`] exports, so stuck-at damage is part of the device it runs,
//! and perturbs counts with the engine's own keyed draws
//! ([`CountNoise`]). Per layer it reports the ledger fields the engine's
//! [`LayerStats`] carry and the raw bit-line count histogram.

use std::collections::BTreeMap;
use trq_core::arch::ArchConfig;
use trq_core::pim::{AdcScheme, LayerStats, PimMvm, ProgrammedLayerState};
use trq_nn::{MvmEngine, MvmLayerInfo};
use trq_xbar::noise::CountNoise;
use trq_xbar::{BitMatrix, DecodeTable, NoiseModel};

/// The ledger fields the tile datapath is responsible for.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub ops: u64,
    pub conversions: u64,
}

impl Ledger {
    /// The same fields of an engine layer's statistics.
    pub fn of(stats: &LayerStats) -> Self {
        Ledger { ops: stats.ops, conversions: stats.conversions }
    }
}

/// The scalar reference engine (see the module docs).
pub struct ReferenceMvm {
    arch: ArchConfig,
    plan: Vec<AdcScheme>,
    noise: NoiseModel,
    noise_epoch: u64,
    layers: BTreeMap<usize, ProgrammedLayerState>,
    /// Ledger per MVM layer index, accumulated across calls.
    pub ledgers: BTreeMap<usize, Ledger>,
    /// Raw (pre-noise) count histogram per MVM layer index, `rows + 1`
    /// bins, accumulated across calls.
    pub hists: BTreeMap<usize, Vec<u64>>,
}

impl ReferenceMvm {
    /// A reference for an engine built as `PimMvm::new(arch, plan)` with
    /// `noise` installed.
    pub fn new(arch: ArchConfig, plan: Vec<AdcScheme>, noise: NoiseModel) -> Self {
        ReferenceMvm {
            arch,
            plan,
            noise,
            noise_epoch: 0,
            layers: BTreeMap::new(),
            ledgers: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// The reference of a collector engine: every layer ideal, no noise.
    pub fn collector(arch: ArchConfig, layers: usize) -> Self {
        ReferenceMvm::new(arch, vec![AdcScheme::Ideal; layers], NoiseModel::ideal())
    }

    /// Mirrors [`PimMvm::set_noise_epoch`].
    pub fn set_noise_epoch(&mut self, epoch: u64) {
        self.noise_epoch = epoch;
    }

    /// The programmed state of one layer, exported from an engine with
    /// the same architecture, plan and device noise.
    fn programming(&mut self, info: &MvmLayerInfo, weights_q: &[i32]) -> &ProgrammedLayerState {
        let (arch, plan, noise) = (self.arch, &self.plan, self.noise);
        self.layers.entry(info.mvm_index).or_insert_with(|| {
            let mut engine = PimMvm::new(arch, plan.clone()).with_device_noise(noise);
            engine.program_layer(info, weights_q);
            let mut states = engine.export_programming();
            assert_eq!(states.len(), 1, "one programmed layer");
            states.remove(0)
        })
    }
}

impl MvmEngine for ReferenceMvm {
    fn mvm_into(
        &mut self,
        info: &MvmLayerInfo,
        weights_q: &[i32],
        cols: &[u8],
        n: usize,
        out: &mut [f64],
    ) {
        let (rows, wbits, ibits) =
            (self.arch.xbar.rows, self.arch.weight_bits as usize, self.arch.input_bits as usize);
        let noise =
            CountNoise::for_call(&self.noise, info.mvm_index, self.noise_epoch, rows as u32);
        let state = self.programming(info, weights_q);
        let ncols = info.outputs * wbits;
        let volume = ibits * ncols * n;
        let entry = |count: u32| state.lut_entries[count as usize];

        let mut ledger = Ledger::default();
        let mut hist = vec![0u64; rows + 1];
        let mut acc = vec![0i64; info.outputs * n];
        let (mut counts_pos, mut counts_neg) = (vec![0u32; volume], vec![0u32; volume]);
        for (s, sub) in state.subarrays.iter().enumerate() {
            // the subarray's input bit-planes: plane p, row d - d0, window w
            let d0 = s * rows;
            let d1 = ((s + 1) * rows).min(info.depth);
            let planes: Vec<BitMatrix> = (0..ibits)
                .map(|p| {
                    let mut plane = BitMatrix::zeros(rows, n);
                    for d in d0..d1 {
                        for w in 0..n {
                            plane.set(d - d0, w, (cols[d * n + w] >> p) & 1 == 1);
                        }
                    }
                    plane
                })
                .collect();
            sub.pos.mvm_planes_tile_into(&planes, 0..ncols, 0..n, &mut counts_pos);
            sub.neg.mvm_planes_tile_into(&planes, 0..ncols, 0..n, &mut counts_neg);
            for p in 0..ibits {
                for c in 0..ncols {
                    let (o, alpha) = (c / wbits, c % wbits);
                    for w in 0..n {
                        let i = (p * ncols + c) * n + w;
                        let (mut cp, mut cn) = (counts_pos[i], counts_neg[i]);
                        hist[cp as usize] += 1;
                        hist[cn as usize] += 1;
                        if let Some(noise) = &noise {
                            cp = noise.perturb(s, 0, p, c, w, cp);
                            cn = noise.perturb(s, 1, p, c, w, cn);
                        }
                        let (ep, en) = (entry(cp), entry(cn));
                        ledger.ops += u64::from(ep >> DecodeTable::OPS_SHIFT)
                            + u64::from(en >> DecodeTable::OPS_SHIFT);
                        let lp = i64::from(ep & DecodeTable::LSB_MASK);
                        let ln = i64::from(en & DecodeTable::LSB_MASK);
                        acc[o * n + w] += (lp - ln) << (alpha + p);
                    }
                }
            }
            ledger.conversions += 2 * volume as u64;
        }
        for (o, &v) in out.iter_mut().zip(&acc) {
            *o = v as f64 * state.lut_delta;
        }

        let total = self.ledgers.entry(info.mvm_index).or_default();
        total.ops += ledger.ops;
        total.conversions += ledger.conversions;
        let total = self.hists.entry(info.mvm_index).or_insert_with(|| vec![0; rows + 1]);
        for (t, h) in total.iter_mut().zip(hist) {
            *t += h;
        }
    }
}
