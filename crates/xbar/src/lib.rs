//! # trq-xbar
//!
//! ReRAM crossbar simulator — the analog substrate of the ISAAC-style
//! accelerator (Section II-A, Fig. 1 and Fig. 5 of the paper).
//!
//! The simulated datapath follows the paper's configuration: `S×S`
//! crossbars (128×128 by default) of single-bit cells, 1-bit DACs feeding
//! word lines with input bit-slices cycle by cycle, and differential
//! positive/negative crossbar pairs holding sign-magnitude weight slices.
//! Each bit line accumulates `I_i = Σ_j G_ij · V_j`, which for binary cells
//! and binary inputs is an integer population count in `[0, S]` — the value
//! the ADC digitises and whose skewed distribution (Fig. 3a) motivates the
//! whole co-design.
//!
//! Modules:
//! - [`BitMatrix`] / [`BitVec`] — packed binary cell arrays with
//!   popcount-based MVM, the scalar per-tile reference kernel
//!   [`BitMatrix::mvm_planes_tile_into`], and the batched bit-plane packer
//!   [`pack_window_planes`] behind the tiled execution pipeline in
//!   `trq-core`;
//! - the `kernel` layer — shape-specialised popcount primitives
//!   ([`and_popcount_words`]), the fused differential tile kernel
//!   [`mvm_diff_tile_into`] (one plane-word load serves both subarray
//!   sides), the conversion primitive [`convert_diff_tile_into`] (that
//!   popcount fused with the [`DecodeTable`] lookup and shift-add, so no
//!   count goes through a buffer; a [`CountVisitor`] sees the raw counts
//!   before the lookup), an explicit SIMD tier (AVX-512/AVX2/NEON popcount lanes,
//!   resolved once at engine construction by [`resolve_kernel`] from a
//!   configured [`KernelSelect`] and the `TRQ_KERNEL` environment
//!   override), and sparsity-aware skipping via [`ColMask`] column
//!   occupancy plus the [`WindowOcc`] live-plane/window-block record
//!   `pack_window_planes` fills;
//! - [`WeightSlicer`] / input bit-plane helpers — the spatial (weight) and
//!   temporal (input) bit slicing of Fig. 1;
//! - [`Crossbar`] and [`DiffPair`] — programmed arrays with optional device
//!   non-idealities ([`NoiseModel`]), and [`noise::CountNoise`], the
//!   keyed count-level surrogate the tiled engine in `trq-core` applies
//!   through a [`CountVisitor`] between the popcount and the lookup.
//!
//! The analog front end between bit line and ADC (TIA and sample-and-hold,
//! Fig. 5 ➌) is not modelled: the ADC digitises the bit-line count
//! directly, and the TRQ grid step `ΔR1` stands for the TIA gain /
//! `V_ref` setting.
//!
//! ```
//! use trq_xbar::{Crossbar, CrossbarConfig, BitVec};
//! # fn main() -> Result<(), trq_xbar::XbarError> {
//! let cfg = CrossbarConfig::default(); // 128x128, 1-bit cells
//! let mut xbar = Crossbar::new(cfg)?;
//! xbar.program_bit(0, 0, true)?;
//! xbar.program_bit(1, 0, true)?;
//! let mut wl = BitVec::zeros(128); // one input bit per word line
//! wl.set(0, true);
//! wl.set(1, true);
//! let counts = xbar.mvm_counts(&wl)?;
//! assert_eq!(counts[0], 2); // two active cells on bit line 0
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod bits;
mod config;
mod crossbar;
mod error;
mod kernel;
pub mod noise;
mod pair;
mod slicing;

pub use bits::{pack_window_planes, BitMatrix, BitVec};
pub use config::CrossbarConfig;
pub use crossbar::Crossbar;
pub use error::XbarError;
pub use kernel::{
    and_popcount_words, convert_diff_tile_into, cpu_feature_summary, mvm_diff_tile_into,
    popcount_words, resolve_kernel, resolve_kernel_with, ColMask, CountVisitor, DecodeTable,
    KernelConfigError, KernelSelect, KernelTier, NoVisit, WindowOcc, KERNEL_ENV, WINDOW_BLOCK,
};
pub use noise::NoiseModel;
pub use pair::DiffPair;
pub use slicing::{bit_plane, unsigned_bit_planes, WeightSlicer};
