//! # trq-quant
//!
//! Quantization algorithms for the TRQ reproduction: the uniform quantizer
//! of Eq. 1, the twin-range quantizer (TRQ) of Eq. 7 with the MSB-flag
//! coding scheme of Fig. 4b / Eq. 8, quantization-error metrics (Eq. 10),
//! and the histogram / distribution-type analysis that Algorithm 1 uses to
//! pick a search strategy per layer (Section IV-B).
//!
//! Everything here is the *behavioural* (algorithm-level) view. The
//! bit-accurate SAR ADC state machine lives in `trq-adc` and is property-
//! tested against these quantizers: the paper's claim that its quantizer
//! "is the behavior abstraction of A/D conversion of SAR-ADC at BLs" is an
//! invariant of this repository, not an assumption.
//!
//! ```
//! use trq_quant::{TrqParams, TwinRangeQuantizer};
//! # fn main() -> Result<(), trq_quant::QuantError> {
//! // 3-bit fine range [0, 8), 3-bit coarse range with step 2^2 = 4.
//! let params = TrqParams::new(3, 3, 2, 1.0, 0)?;
//! let q = TwinRangeQuantizer::new(params);
//! assert_eq!(q.quantize(5.2).value, 5.0);   // early bird: exact grid
//! assert_eq!(q.quantize(17.0).value, 16.0); // early stop: coarse grid
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod code;
mod distribution;
mod error;
mod histogram;
mod mse;
mod ptq;
mod trq;
mod uniform;

pub use code::TrqCode;
pub use distribution::{ClassifierConfig, DistributionClass};
pub use error::QuantError;
pub use histogram::Histogram;
pub use mse::{mse, quantizer_mse, sqnr_db, weighted_quantizer_mse};
pub use ptq::{symmetric_scale, SymmetricQuant};
pub use trq::{Range, TrqParams, TrqValue, TwinRangeQuantizer};
pub use uniform::UniformQuantizer;
