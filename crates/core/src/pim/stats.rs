//! Architectural event accounting.

use serde::{Deserialize, Serialize};

/// Event counts for one MVM layer, accumulated across every image run
/// through the engine.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerStats {
    /// Layer label (for reports).
    pub label: String,
    /// A/D conversions performed.
    pub conversions: u64,
    /// A/D operations performed (Eq. 6/9 numerator).
    pub ops: u64,
    /// Sliding windows processed.
    pub windows: u64,
    /// Physical crossbar activations (per array, per cycle, per window).
    pub xbar_activations: u64,
    /// DAC array activations (one per array activation; 128 row drivers).
    pub dac_activations: u64,
    /// Buffer traffic in bytes (input reads + partial-sum writes).
    pub buffer_bytes: u64,
    /// Shift-and-add merge operations.
    pub sa_ops: u64,
    /// Inter-tile bus/router traffic in bytes.
    pub bus_bytes: u64,
}

impl LayerStats {
    /// Folds another layer's counts into this one.
    pub fn merge(&mut self, other: &LayerStats) {
        self.conversions += other.conversions;
        self.ops += other.ops;
        self.windows += other.windows;
        self.xbar_activations += other.xbar_activations;
        self.dac_activations += other.dac_activations;
        self.buffer_bytes += other.buffer_bytes;
        self.sa_ops += other.sa_ops;
        self.bus_bytes += other.bus_bytes;
    }
}

/// Whole-network event statistics with the baseline comparison the paper's
/// Fig. 6c reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PimStats {
    /// Per-MVM-layer counts, indexed by `mvm_index`.
    pub layers: Vec<LayerStats>,
    /// Baseline ops the unmodified ADC would have spent: `conversions ×
    /// R_ADC`.
    pub baseline_ops: u64,
}

impl PimStats {
    /// Total conversions across layers.
    pub fn conversions(&self) -> u64 {
        self.layers.iter().map(|l| l.conversions).sum()
    }

    /// Total A/D operations across layers.
    pub fn ops(&self) -> u64 {
        self.layers.iter().map(|l| l.ops).sum()
    }

    /// Mean ops per conversion.
    pub fn mean_ops(&self) -> f64 {
        let c = self.conversions();
        if c == 0 {
            0.0
        } else {
            self.ops() as f64 / c as f64
        }
    }

    /// Fraction of baseline A/D operations still performed — the y-axis of
    /// Fig. 6c (1.0 for the unmodified ADC; the paper reports 0.42–0.62
    /// for TRQ).
    pub fn remaining_ops_ratio(&self) -> f64 {
        if self.baseline_ops == 0 {
            0.0
        } else {
            self.ops() as f64 / self.baseline_ops as f64
        }
    }

    /// Folds another run's statistics into this one (layer lists must be
    /// congruent or either may be empty).
    ///
    /// # Panics
    ///
    /// Panics when both are non-empty with different layer counts.
    pub fn merge(&mut self, other: &PimStats) {
        if self.layers.is_empty() {
            *self = other.clone();
            return;
        }
        if other.layers.is_empty() {
            return;
        }
        assert_eq!(self.layers.len(), other.layers.len(), "incongruent stats");
        for (a, b) in self.layers.iter_mut().zip(other.layers.iter()) {
            a.merge(b);
        }
        self.baseline_ops += other.baseline_ops;
    }

    /// Ensures a slot exists for layer `idx` and returns it.
    pub(crate) fn layer_mut(&mut self, idx: usize, label: &str) -> &mut LayerStats {
        while self.layers.len() <= idx {
            self.layers.push(LayerStats::default());
        }
        let slot = &mut self.layers[idx];
        if slot.label.is_empty() {
            slot.label = label.to_string();
        }
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = PimStats::default();
        {
            let l = s.layer_mut(0, "conv1");
            l.conversions = 100;
            l.ops = 400;
        }
        s.baseline_ops = 800;
        assert_eq!(s.mean_ops(), 4.0);
        assert_eq!(s.remaining_ops_ratio(), 0.5);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PimStats::default();
        a.layer_mut(0, "x").ops = 10;
        a.baseline_ops = 20;
        let mut b = PimStats::default();
        b.layer_mut(0, "x").ops = 5;
        b.baseline_ops = 10;
        a.merge(&b);
        assert_eq!(a.ops(), 15);
        assert_eq!(a.baseline_ops, 30);
    }

    #[test]
    fn merge_into_empty_adopts() {
        let mut a = PimStats::default();
        let mut b = PimStats::default();
        b.layer_mut(0, "x").ops = 5;
        a.merge(&b);
        assert_eq!(a.ops(), 5);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = PimStats::default();
        assert_eq!(s.mean_ops(), 0.0);
        assert_eq!(s.remaining_ops_ratio(), 0.0);
    }
}
