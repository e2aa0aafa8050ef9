//! # trq-bench
//!
//! Figure-regeneration harnesses and Criterion benchmarks for the TRQ
//! reproduction. Each `src/bin/fig*.rs` binary regenerates one figure of
//! the paper's evaluation (see DESIGN.md's experiment index) and writes a
//! JSON record under `results/`.
//!
//! Suite selection: the `TRQ_SUITE` environment variable chooses between
//! `paper` (full-size, minutes) and `quick` (seconds).

#![deny(missing_docs)]

use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use trq_core::experiments::SuiteConfig;

/// Host metadata stamped into benchmark records so numbers measured on
/// different machines (e.g. the single-core CI container vs a developer
/// workstation) are self-describing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostMeta {
    /// Physical parallelism of the measuring host (`nproc`).
    pub nproc: usize,
    /// Worker threads requested for the threaded runs.
    pub threads_requested: usize,
    /// Worker threads actually used after auto-detection/clamping.
    pub threads_effective: usize,
    /// Dispatch mode(s) the record's threaded runs cover, e.g. `"pool"`,
    /// `"scope"`, or `"pool+scope"` for side-by-side records.
    pub dispatch: String,
    /// SIMD capabilities detected on the measuring host, e.g.
    /// `"popcnt+avx2+avx512f+avx512vpopcntdq+avx512vl"` — what the
    /// kernel tiers *could* use (absent in records written by builds
    /// predating the SIMD tier).
    pub cpu_features: Option<String>,
    /// The kernel tier an `Auto` selection resolves to on this host
    /// after the `TRQ_KERNEL` override — what a default-configured
    /// engine *did* use, e.g. `"avx512"` (absent in records written by
    /// builds predating the SIMD tier).
    pub kernel_tier: Option<String>,
}

impl HostMeta {
    /// Captures the current host for `threads`-worker runs in `dispatch`
    /// mode(s). The effective thread count comes from the engine's own
    /// auto-detection (`ExecConfig::effective_threads`), and the kernel
    /// fields from the same detection/resolution the engine performs at
    /// construction — the stamped metadata always matches what the runs
    /// actually used.
    pub fn capture(threads: usize, dispatch: &str) -> Self {
        use trq_core::arch::{cpu_feature_summary, resolve_kernel, KernelSelect};
        let tier = resolve_kernel(KernelSelect::Auto)
            .map(|t| t.name().to_string())
            .unwrap_or_else(|e| format!("unresolvable: {e}"));
        HostMeta {
            nproc: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            threads_requested: threads,
            threads_effective: trq_core::arch::ExecConfig::serial()
                .with_threads(threads)
                .effective_threads(),
            dispatch: dispatch.to_string(),
            cpu_features: Some(cpu_feature_summary()),
            kernel_tier: Some(tier),
        }
    }
}

/// One batch-size point inside [`ServeBenchRecord`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServePointTiming {
    /// `BatchPolicy::max_batch` for this point.
    pub max_batch: usize,
    /// Requests submitted and served.
    pub requests: usize,
    /// Engine calls (batches) the micro-batcher formed.
    pub batches: u64,
    /// `requests / batches` — how well coalescing worked.
    pub mean_batch: f64,
    /// End-to-end throughput over the whole burst.
    pub requests_per_sec: f64,
    /// Median submit-to-completion latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile submit-to-completion latency, microseconds.
    pub p99_latency_us: f64,
}

/// The mixed-model traffic point inside [`ServeBenchRecord`]: a burst
/// interleaving requests across several resident models of one registry
/// server, so batches split on model boundaries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixedModelTiming {
    /// Resident models the burst round-robins across.
    pub models: usize,
    /// `BatchPolicy::max_batch` for the point.
    pub max_batch: usize,
    /// Requests submitted and served (all models together).
    pub requests: usize,
    /// Engine calls (batches) the micro-batcher formed.
    pub batches: u64,
    /// `requests / batches` — coalescing under model-split pressure.
    pub mean_batch: f64,
    /// End-to-end throughput over the whole burst.
    pub requests_per_sec: f64,
    /// Median submit-to-completion latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile submit-to-completion latency, microseconds.
    pub p99_latency_us: f64,
}

/// One overload point inside [`ServeBenchRecord`]: an open-loop burst
/// pushed beyond queue capacity under one [`trq_serve::ShedPolicy`],
/// recording how the admission policy trades shed rate against goodput
/// and the latency of the requests it does admit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverloadTiming {
    /// The `ShedPolicy` under test (`"block"`, `"reject-newest"`,
    /// `"reject-oldest"`).
    pub shed_policy: String,
    /// Queue bound the burst overflows.
    pub queue_cap: usize,
    /// Requests offered by the open-loop burst.
    pub offered: usize,
    /// Requests that completed successfully.
    pub admitted: usize,
    /// Requests shed (refused at the gate or evicted from the queue).
    pub shed: u64,
    /// `shed / offered`.
    pub shed_rate: f64,
    /// Successful requests per second over the whole burst.
    pub goodput_rps: f64,
    /// Median submit-to-completion latency of *admitted* requests, µs.
    pub p50_admitted_us: f64,
    /// 99th-percentile latency of *admitted* requests, µs.
    pub p99_admitted_us: f64,
}

/// The record `bench_serve` writes to `results/BENCH_serve.json`:
/// request throughput and latency percentiles of the `trq-serve`
/// micro-batching frontend at several `max_batch` policies, on one
/// workload, plus one mixed-model traffic point. After each timed
/// burst, outputs are verified bit-identical to per-image `forward`
/// before the record is written.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchRecord {
    /// Workload label (shape in the name).
    pub workload: String,
    /// Measuring-host metadata.
    pub host: HostMeta,
    /// Queue bound used for every point.
    pub queue_cap: usize,
    /// Straggler wait (`BatchPolicy::max_wait`) in microseconds.
    pub max_wait_us: u64,
    /// Per-batch-size measurements (single resident model).
    pub points: Vec<ServePointTiming>,
    /// Mixed-model traffic measurement (absent in records written by
    /// builds predating the registry).
    pub mixed: Option<MixedModelTiming>,
    /// Overload points, one per shed policy (absent in records written
    /// by builds predating admission control).
    pub overload: Option<Vec<OverloadTiming>>,
}

/// The record `bench_store` writes to `results/BENCH_store.json`:
/// cold-start (quantize → calibrate → program) vs snapshot-load
/// (read + verify + install) wall times for one workload, gated on the
/// restored model being bit-identical to the cold one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreBenchRecord {
    /// Workload label (shape in the name).
    pub workload: String,
    /// Measuring-host metadata.
    pub host: HostMeta,
    /// Snapshot file size on disk, bytes.
    pub snapshot_bytes: u64,
    /// Quantization time inside the cold start, milliseconds.
    pub quantize_ms: f64,
    /// Calibration plan-search time inside the cold start, milliseconds.
    pub calibrate_ms: f64,
    /// Weight-programming time inside the cold start, milliseconds.
    pub program_ms: f64,
    /// Total cold start: quantize + calibrate + program, milliseconds.
    pub cold_start_ms: f64,
    /// `ModelSnapshot` capture + generation write, milliseconds.
    pub save_ms: f64,
    /// `load_latest` + restore into a serving-ready model, milliseconds.
    pub load_ms: f64,
    /// `cold_start_ms / load_ms` — the bring-up speedup snapshots buy.
    pub speedup: f64,
}

/// Reads the suite configuration from `TRQ_SUITE` (`paper` by default).
pub fn suite_from_env() -> SuiteConfig {
    match std::env::var("TRQ_SUITE").as_deref() {
        Ok("quick") => SuiteConfig::quick(),
        _ => SuiteConfig::paper(),
    }
}

/// Writes a serialisable record to `results/<name>.json`, creating the
/// directory if needed; prints the path on success.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => match std::fs::write(&path, json) {
            Ok(()) => println!("\n[results written to {}]", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        },
        Err(e) => eprintln!("warning: could not serialise {name}: {e}"),
    }
}

/// Renders a row of fixed-width, right-aligned columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Renders a unicode bar of `frac` (0..=1) out of `width` cells.
pub fn bar(frac: f64, width: usize) -> String {
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::new();
    for i in 0..width {
        s.push(if i < filled { '█' } else { '·' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_renders_fractions() {
        assert_eq!(bar(0.0, 4), "····");
        assert_eq!(bar(1.0, 4), "████");
        assert_eq!(bar(0.5, 4), "██··");
        assert_eq!(bar(7.0, 3), "███");
    }

    #[test]
    fn row_pads_right_aligned() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
