//! # perfbench
//!
//! The workspace's benchmark: one command runs a named workload from a
//! seed, checks every operation's output against a per-image reference,
//! and prints every end-to-end metric (tracing off) or every per-layer
//! metric (tracing on) with its unit. See README.md in this directory
//! for the workloads, the thread budget and the layer-to-metric map.
//!
//! Spans are recorded only around calls into the workspace crates' public
//! functions, from this package: an [`MvmEngine`](trq_nn::MvmEngine)
//! wrapper around `PimMvm`, a `Server::with_worker` backend over
//! `Model::run_batch`, and replays of public `trq-xbar`,
//! `trq-core::calib` and `trq-store` calls.

pub mod engine;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use report::{Outcome, END_TO_END, PER_LAYER};
pub use workloads::{RunConfig, Workload};
