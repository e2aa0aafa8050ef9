//! One-import surface for the common pipeline:
//! `use trq::prelude::*;`
//!
//! Pulls in the types an application touches driving the reproduction
//! end to end — build and quantize a network, calibrate an ADC plan,
//! program a model, snapshot it, and serve it — without reaching into
//! the per-stage modules. Anything more specialised (energy accounting,
//! raw crossbar kernels, SAR traces) stays behind its module path:
//! [`crate::core`], [`crate::xbar`], [`crate::adc`], ….

pub use crate::Error;
pub use trq_core::arch::{ArchConfig, ExecConfig};
pub use trq_core::calib::{algorithm1, CalibError, CalibSettings};
pub use trq_core::pim::{AdcScheme, PimMvm, PimStats};
pub use trq_nn::{data, models, MvmEngine, Network, NnError, QuantizedNetwork};
pub use trq_quant::TrqParams;
pub use trq_serve::{
    BatchPolicy, Model, ModelId, QuarantinePolicy, Registry, Response, ServeError, ServeReport,
    Server, ShedPolicy, Ticket,
};
pub use trq_store::{load_latest, save_generation, ModelSnapshot, StoreError};
pub use trq_tensor::Tensor;
