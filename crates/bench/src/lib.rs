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
    /// How the record's engine rounds reached their threads; every
    /// round runs on the persistent pool, so records say `"pool"`.
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
