//! ISAAC-like accelerator architecture parameters (Section V-A) and the
//! static network-to-crossbar mapping arithmetic (Fig. 5).

mod mapping;

pub use mapping::{map_network, LayerMapping, NetworkMapping};

use serde::{Deserialize, Serialize};
use trq_xbar::CrossbarConfig;
pub use trq_xbar::{
    cpu_feature_summary, resolve_kernel, resolve_kernel_with, KernelConfigError, KernelSelect,
    KernelTier, KERNEL_ENV,
};

/// Host-side execution strategy for the simulated MVM datapath: how the
/// engine tiles a layer's work and how many worker threads run the tiles.
///
/// Tiles are (output-channel block × window block) units; subarrays and
/// input bit-planes are looped inside each tile, so every tile owns a
/// disjoint region of the accumulator and tiles compose in any order —
/// results are bit-identical for every `threads` value. Every tile round
/// runs on the persistent [`crate::exec::Pool`] (a one-thread round runs
/// inline on the caller), calibration collection and count noise
/// included; none of these knobs changes simulated results.
///
/// Sizing guidance: `threads = 0` (auto) is right for throughput runs;
/// pin `threads = 1` for single-core hosts or deterministic profiling.
/// The tile defaults (16 outputs × 64 windows) keep a tile's bit-line
/// count at one physical crossbar and its scratch in cache; shrink
/// `tile_windows` if layers are small enough that fewer tiles than
/// threads exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecConfig {
    /// Worker threads for tile execution. `0` auto-detects from the host
    /// (capped at 8); `1` runs tiles serially on the calling thread.
    pub threads: usize,
    /// Output channels per tile. `0` picks the default of 16 channels —
    /// with 8-bit weights that is 128 bit lines, one physical crossbar.
    pub tile_outputs: usize,
    /// MVM windows per tile. `0` picks the default of 64 windows.
    pub tile_windows: usize,
    /// Which popcount kernel tier to run ([`KernelSelect::Auto`] picks
    /// the widest SIMD tier the host supports, falling back to scalar).
    /// Resolved **once** at engine construction via [`resolve_kernel`];
    /// the `TRQ_KERNEL` environment variable overrides this value, and a
    /// forced tier the host cannot run is a construction-time
    /// [`KernelConfigError`] — never a silent scalar fallback. Like every
    /// other knob here this never changes simulated results: all tiers
    /// are bit-identical.
    pub kernel: KernelSelect,
    /// Whether the kernel may skip dead window *blocks* inside a live
    /// subarray using the per-block occupancy that
    /// [`trq_xbar::pack_window_planes`] records (on by default). `false`
    /// degrades skipping to plane/subarray granularity — the baseline the
    /// block-skip equivalence tests run against. Results
    /// and event ledgers are bit-identical either way: skipped windows
    /// have count 0 by construction and their conversions are folded in
    /// closed form.
    pub block_skip: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 1,
            tile_outputs: 0,
            tile_windows: 0,
            kernel: KernelSelect::Auto,
            block_skip: true,
        }
    }
}

impl ExecConfig {
    /// The serial configuration (one thread, default tiling).
    pub fn serial() -> Self {
        ExecConfig::default()
    }

    /// Builder: sets the worker-thread count (`0` = auto-detect).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder: sets the output channels per tile (`0` = default).
    #[must_use]
    pub fn with_tile_outputs(mut self, tile_outputs: usize) -> Self {
        self.tile_outputs = tile_outputs;
        self
    }

    /// Builder: sets the windows per tile (`0` = default).
    #[must_use]
    pub fn with_tile_windows(mut self, tile_windows: usize) -> Self {
        self.tile_windows = tile_windows;
        self
    }

    /// Builder: sets the requested kernel tier (subject to the
    /// `TRQ_KERNEL` environment override at engine construction).
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelSelect) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder: enables or disables per-window-block skipping (on by
    /// default; `false` is the subarray-granularity baseline).
    #[must_use]
    pub fn with_block_skip(mut self, block_skip: bool) -> Self {
        self.block_skip = block_skip;
        self
    }

    /// The worker count after auto-detection.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8)
        } else {
            self.threads
        }
    }

    /// Output channels per tile for a layer with `outputs` channels.
    pub fn tile_outputs_for(&self, outputs: usize) -> usize {
        let t = if self.tile_outputs == 0 { 16 } else { self.tile_outputs };
        t.min(outputs).max(1)
    }

    /// Windows per tile for a layer processing `windows` windows.
    pub fn tile_windows_for(&self, windows: usize) -> usize {
        let t = if self.tile_windows == 0 { 64 } else { self.tile_windows };
        t.min(windows).max(1)
    }
}

/// Architecture-level configuration of the accelerator.
///
/// Defaults reproduce the paper's evaluation platform: ISAAC organisation,
/// 128×128 crossbars with single-bit cells, 8-bit weights and inputs
/// (`Kw = Ki = 8`), 16-bit partial sums, 100 MHz clock, and the 8-bit SAR
/// ADC that Eq. 2 declares lossless for this geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchConfig {
    /// Crossbar array geometry.
    pub xbar: CrossbarConfig,
    /// Weight bit width `Kw` (magnitude bits mapped to column slices).
    pub weight_bits: u32,
    /// Input bit width `Ki` (bits streamed through 1-bit DACs).
    pub input_bits: u32,
    /// Partial-sum register width.
    pub psum_bits: u32,
    /// Baseline ADC resolution `R_ADC` (conversion cost of the unmodified
    /// ISAAC ADC, in A/D operations).
    pub adc_bits: u32,
    /// System clock in MHz.
    pub clock_mhz: f64,
    /// Host-side tiling/threading strategy (simulation-speed knob only —
    /// never changes simulated results or event counts).
    pub exec: ExecConfig,
}

impl Default for ArchConfig {
    fn default() -> Self {
        let xbar = CrossbarConfig::default();
        ArchConfig {
            xbar,
            weight_bits: 8,
            input_bits: 8,
            psum_bits: 16,
            adc_bits: xbar.ideal_adc_bits(),
            clock_mhz: 100.0,
            exec: ExecConfig::default(),
        }
    }
}

impl ArchConfig {
    /// Builder: replaces the execution configuration, keeping the
    /// paper-default datapath parameters. The idiomatic way to get a
    /// threaded or re-tiled architecture:
    ///
    /// ```
    /// use trq_core::arch::{ArchConfig, ExecConfig};
    /// let arch = ArchConfig::default().with_exec(ExecConfig::serial().with_threads(4));
    /// assert_eq!(arch.exec.effective_threads(), 4);
    /// ```
    #[must_use]
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Number of crossbar row-blocks ("subarrays") a depth-`d` MVM needs.
    pub fn subarrays_for_depth(&self, depth: usize) -> usize {
        depth.div_ceil(self.xbar.rows)
    }

    /// Number of physical 128-column crossbars one logical slice plane of
    /// `outputs` channels occupies (each channel owns `weight_bits`
    /// adjacent bit lines).
    pub fn physical_xbars_for_outputs(&self, outputs: usize) -> usize {
        (outputs * self.weight_bits as usize).div_ceil(self.xbar.cols)
    }

    /// A/D conversions per MVM window: every bit line of every subarray of
    /// both differential arrays converts once per input-bit cycle — the
    /// `Kw/Rcell × Ki/RDA` factor of Eq. 3 times the column count.
    pub fn conversions_per_window(&self, depth: usize, outputs: usize) -> u64 {
        let subarrays = self.subarrays_for_depth(depth) as u64;
        let bls = (outputs as u64) * self.weight_bits as u64;
        subarrays * self.input_bits as u64 * bls * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let a = ArchConfig::default();
        assert_eq!(a.xbar.rows, 128);
        assert_eq!(a.weight_bits, 8);
        assert_eq!(a.input_bits, 8);
        assert_eq!(a.psum_bits, 16);
        assert_eq!(a.adc_bits, 8);
        assert_eq!(a.clock_mhz, 100.0);
    }

    #[test]
    fn subarray_partitioning() {
        let a = ArchConfig::default();
        assert_eq!(a.subarrays_for_depth(1), 1);
        assert_eq!(a.subarrays_for_depth(128), 1);
        assert_eq!(a.subarrays_for_depth(129), 2);
        assert_eq!(a.subarrays_for_depth(4608), 36);
    }

    #[test]
    fn physical_crossbar_count() {
        let a = ArchConfig::default();
        assert_eq!(a.physical_xbars_for_outputs(16), 1); // 16*8 = 128 cols
        assert_eq!(a.physical_xbars_for_outputs(17), 2);
        assert_eq!(a.physical_xbars_for_outputs(512), 32);
    }

    #[test]
    fn conversions_per_window_matches_eq3() {
        let a = ArchConfig::default();
        // depth 147 → 2 subarrays; 64 outputs × 8 slices × 8 cycles × 2 arrays
        assert_eq!(a.conversions_per_window(147, 64), 2 * 8 * 64 * 8 * 2);
    }

    #[test]
    fn exec_defaults_are_serial_with_auto_tiles() {
        let e = ExecConfig::default();
        assert_eq!(e.effective_threads(), 1);
        assert_eq!(e.tile_outputs_for(100), 16);
        assert_eq!(e.tile_windows_for(1000), 64);
        // tiles never exceed the layer and never degenerate to zero
        assert_eq!(e.tile_outputs_for(3), 3);
        assert_eq!(e.tile_windows_for(1), 1);
    }

    #[test]
    fn exec_builders_compose() {
        let e = ExecConfig::serial()
            .with_threads(4)
            .with_tile_outputs(8)
            .with_tile_windows(32)
            .with_kernel(KernelSelect::Scalar)
            .with_block_skip(false);
        assert_eq!(
            e,
            ExecConfig {
                threads: 4,
                tile_outputs: 8,
                tile_windows: 32,
                kernel: KernelSelect::Scalar,
                block_skip: false,
            }
        );
        assert_eq!(e.effective_threads(), 4);
        assert_eq!(e.tile_outputs_for(100), 8);
        assert_eq!(e.tile_windows_for(5), 5);
    }

    #[test]
    fn exec_default_kernel_is_auto_with_block_skip() {
        let e = ExecConfig::default();
        assert_eq!(e.kernel, KernelSelect::Auto);
        assert!(e.block_skip);
    }

    #[test]
    fn exec_auto_threads_detects_host() {
        let e = ExecConfig::serial().with_threads(0);
        let t = e.effective_threads();
        assert!((1..=8).contains(&t), "auto thread count in [1, 8]: {t}");
    }
}
