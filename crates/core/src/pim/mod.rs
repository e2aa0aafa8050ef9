//! The crossbar/ADC execution engine.
//!
//! [`PimMvm`] implements [`trq_nn::MvmEngine`] by running every quantized
//! MVM through the bit-sliced differential-crossbar datapath of Fig. 1 /
//! Fig. 5: weights split into sign-magnitude bit slices on pos/neg arrays,
//! inputs streamed as bit planes, each bit line's integer count digitised
//! by the per-layer [`AdcScheme`], and the results merged by shift-and-add.
//!
//! Because 1-bit cells and 1-bit DACs make every BL sample an integer in
//! `[0, S]`, each layer's ADC reduces to a 129-entry lookup table built
//! from the *same* conversion functions that the traced SAR state machines
//! in `trq-adc` implement (equivalence is property-tested there); this is
//! what makes whole-network bit-accurate simulation affordable.
//!
//! Execution is a tiled program/execute/account pipeline: layers are
//! programmed (weights sliced + LUT built) once, window batches run as
//! (output-block × window-block) tiles over the fused popcount kernel in
//! `trq-xbar`, and tiles are distributed over worker threads per
//! [`crate::arch::ExecConfig`]. Tiles own disjoint accumulator regions and
//! all arithmetic is integer, so results and event counts are
//! bit-identical for every thread count and batch split.

mod engine;
mod scheme;
mod stats;

pub use engine::{CollectorConfig, LayerSamples, PimMvm, ProgrammedLayerState, SubarrayState};
pub use scheme::AdcScheme;
pub use stats::{LayerStats, PimStats};
