//! Kernel-path equivalence: the specialised execute stage — the fused
//! conversion (differential popcount monomorphised per column word count,
//! `words_per_col ∈ {1, 2, 4}` plus the Harley–Seal generic path, fused
//! with the packed-LUT lookup and shift-add) on **every kernel tier this
//! host can run** (scalar plus the AVX-512/AVX2/NEON SIMD lanes, and the
//! AVX-512 register table), sparsity-aware plane/column/window-block
//! skipping, and the count visitor that carries the calibration tally
//! and count noise — must be **bit-identical** to the
//! scalar reference engine in `reference/mod.rs`: output values, the
//! ledger fields the tile datapath owns (ops and conversions), and the
//! collected bit-line count histograms, across thread counts and tilings.
//!
//! The thread count for the multi-threaded runs follows `TRQ_THREADS`
//! (default 4), so CI can pin e.g. `TRQ_THREADS=2` to exercise the
//! skip-path/pool interactions under overflow checks. The kernel tier
//! follows `TRQ_KERNEL` when set (CI's forced-dispatch matrix runs the
//! suite once per tier); when unset, the sweep covers the scalar
//! selection plus every SIMD tier the host supports.

mod reference;

use proptest::prelude::*;
use reference::{Ledger, ReferenceMvm};
use trq_core::arch::{
    resolve_kernel_with, ArchConfig, ExecConfig, KernelConfigError, KernelSelect, KernelTier,
    KERNEL_ENV,
};
use trq_core::pim::{AdcScheme, CollectorConfig, PimMvm};
use trq_nn::{ExactMvm, MvmEngine, MvmLayerInfo};
use trq_quant::TrqParams;
use trq_xbar::{CrossbarConfig, NoiseModel};

fn env_threads() -> usize {
    std::env::var("TRQ_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4).max(2)
}

/// Whether `TRQ_KERNEL` pins the tier for this test process.
fn kernel_env_pinned() -> bool {
    std::env::var(KERNEL_ENV).map(|v| !v.trim().is_empty()).unwrap_or(false)
}

/// The kernel selections to sweep. When `TRQ_KERNEL` is set, the
/// environment override beats any configured selection, so the sweep
/// collapses to `Auto` (the env decides — CI's forced matrix relies on
/// this). Otherwise: the scalar tier plus every SIMD tier available on
/// this host.
fn kernel_selects() -> Vec<KernelSelect> {
    if kernel_env_pinned() {
        return vec![KernelSelect::Auto];
    }
    [KernelSelect::Scalar, KernelSelect::Neon, KernelSelect::Avx2, KernelSelect::Avx512]
        .into_iter()
        .filter(|&s| resolve_kernel_with(s, None).is_ok())
        .collect()
}

fn lcg(seed: u64) -> impl FnMut(i64) -> i32 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    move |m: i64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as i64 % m) as i32
    }
}

fn layer(depth: usize, outputs: usize) -> MvmLayerInfo {
    MvmLayerInfo { node: 0, mvm_index: 0, label: "kernel-prop".into(), depth, outputs }
}

/// An architecture with `rows`-high crossbars and the given execution
/// strategy; the ADC baseline tracks the geometry like the default does.
fn arch_with_rows(rows: usize, exec: ExecConfig) -> ArchConfig {
    let xbar = CrossbarConfig { rows, ..CrossbarConfig::default() };
    ArchConfig { xbar, adc_bits: xbar.ideal_adc_bits(), exec, ..ArchConfig::default() }
}

/// Weight generators that force different static-sparsity shapes:
/// 0 = dense full-range, 1 = non-negative only (negative subarray side
/// fully dead), 2 = low-magnitude (`|w| < 8`, bit slices α ≥ 3 dead),
/// 3 = mostly-zero (dead columns scattered on both sides).
fn weights_for(mode: usize, depth: usize, outputs: usize, seed: u64) -> Vec<i32> {
    let mut next = lcg(seed);
    (0..depth * outputs)
        .map(|_| match mode {
            0 => next(255) - 127,
            1 => next(128),
            2 => next(15) - 7,
            _ => {
                if next(10) < 8 {
                    0
                } else {
                    next(255) - 127
                }
            }
        })
        .collect()
}

/// Activation generators: 0 = dense full-range codes, 1 = ReLU-coded
/// sparse (mostly zero, survivors < 16 so the four high-order bit-planes
/// are dead), 2 = all-zero (every plane dead — the degenerate skip case).
fn cols_for(mode: usize, len: usize, seed: u64) -> Vec<u8> {
    let mut next = lcg(seed ^ 0xC01);
    (0..len)
        .map(|_| match mode {
            0 => next(256) as u8,
            1 => {
                if next(10) < 7 {
                    0
                } else {
                    next(16) as u8
                }
            }
            _ => 0,
        })
        .collect()
}

/// The ADC schemes the equivalence sweep draws from: the ideal identity,
/// TRQ as the paper calibrates it, serve-mlp's uniform plan and a coarser
/// uniform grid, TRQ with a floating window (bias 2), and TRQ whose R2
/// magnitudes reach 255 << 8 — past the magnitude limit and the `i32` row
/// bound of the register-table conversion, so it pins the row-chunk
/// fallback.
fn scheme(sel: usize) -> AdcScheme {
    match sel {
        0 => AdcScheme::Ideal,
        1 => AdcScheme::Trq(TrqParams::new(3, 7, 1, 1.0, 0).unwrap()),
        2 => AdcScheme::uniform(6, 0.7),
        3 => AdcScheme::uniform(5, 3.7),
        4 => AdcScheme::Trq(TrqParams::new(3, 5, 2, 0.9, 2).unwrap()),
        _ => AdcScheme::Trq(TrqParams::new(2, 8, 8, 0.001, 0).unwrap()),
    }
}

/// One layer call: the layer, its weights, activation codes and window
/// count.
struct Call<'a> {
    info: &'a MvmLayerInfo,
    weights: &'a [i32],
    cols: &'a [u8],
    n: usize,
}

/// What the reference computes for one call on a fresh device.
struct Expected {
    values: Vec<f64>,
    ledger: Ledger,
    hist: Vec<u64>,
}

impl Expected {
    fn of(arch: ArchConfig, scheme: AdcScheme, noise: NoiseModel, call: &Call<'_>) -> Self {
        let mut reference = ReferenceMvm::new(arch, vec![scheme], noise);
        let values = reference.mvm(call.info, call.weights, call.cols, call.n);
        let layer = call.info.mvm_index;
        Expected {
            values,
            ledger: reference.ledgers[&layer],
            hist: reference.hists[&layer].clone(),
        }
    }
}

/// Runs `call` on a fresh `scheme` engine and on a fresh collector, both
/// on the device `noise` describes, and asserts the values, the ledger
/// and the collected histogram equal the reference's; the collector's
/// histogram must also total its ledger's conversions. Returns the tier
/// the engine resolved.
fn assert_matches(
    arch: ArchConfig,
    scheme: AdcScheme,
    noise: NoiseModel,
    call: &Call<'_>,
    want: &Expected,
    context: &str,
) -> KernelTier {
    let layer = call.info.mvm_index;
    let mut pim = PimMvm::new(arch, vec![scheme]).with_device_noise(noise);
    let tier = pim.kernel_tier();
    let got = pim.mvm(call.info, call.weights, call.cols, call.n);
    assert_eq!(got, want.values, "{context}: values diverged on tier {}", tier.name());
    assert_eq!(
        Ledger::of(&pim.stats().layers[layer]),
        want.ledger,
        "{context}: ledgers diverged on tier {}",
        tier.name()
    );
    let mut collector =
        PimMvm::collector(arch, layer + 1, CollectorConfig::default()).with_device_noise(noise);
    let _ = collector.mvm(call.info, call.weights, call.cols, call.n);
    let samples = collector.take_samples();
    assert_eq!(samples[0].hist.counts(), want.hist, "{context}: histograms diverged");
    assert_eq!(
        samples[0].hist.count(),
        collector.stats().layers[layer].conversions,
        "{context}: the histogram must total the conversions"
    );
    tier
}

proptest! {
    /// For every column word count (wpc 1, 2, 4, generic), every ADC
    /// scheme and every weight/activation sparsity shape, the engine must
    /// match the scalar reference exactly — outputs, ledgers and the
    /// collector's histogram — serially and multi-threaded, and the
    /// reference must match [`ExactMvm`] under the ideal scheme.
    /// Window counts up to 70 with tiles up to the default 64 windows fill
    /// whole 16-lane decode chunks as well as ragged tails.
    #[test]
    fn specialized_path_is_bit_identical_to_scalar_reference(
        rows_sel in 0usize..4,
        depth in 1usize..350,
        outputs in 1usize..5,
        n in 1usize..71,
        tile_outputs in 1usize..4,
        tile_windows in 0usize..65,
        weight_mode in 0usize..4,
        act_mode in 0usize..3,
        scheme_sel in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        // wpc 1 (ragged 40 rows), 2 (the paper's 128), 4 (256), 5 (generic)
        let rows = [40, 128, 256, 300][rows_sel];
        let weights = weights_for(weight_mode, depth, outputs, seed);
        let cols = cols_for(act_mode, depth * n, seed);
        let info = layer(depth, outputs);
        let scheme = scheme(scheme_sel);

        // tile_windows 0 is the engine default (64 windows)
        let exec = ExecConfig::serial()
            .with_tile_outputs(tile_outputs)
            .with_tile_windows(tile_windows);
        let call = Call { info: &info, weights: &weights, cols: &cols, n };
        let want = Expected::of(arch_with_rows(rows, exec), scheme, NoiseModel::ideal(), &call);

        for select in kernel_selects() {
            for threads in [1usize, env_threads()] {
                let arch = arch_with_rows(rows, exec.with_threads(threads).with_kernel(select));
                let context = format!(
                    "rows {rows} threads {threads} scheme {scheme:?} wmode {weight_mode} \
                     amode {act_mode} shape ({depth}, {outputs}, {n}) tile_windows {tile_windows}"
                );
                assert_matches(arch, scheme, NoiseModel::ideal(), &call, &want, &context);
            }
        }
        if scheme_sel == 0 {
            let exact = ExactMvm.mvm(&info, &weights, &cols, n);
            prop_assert_eq!(&want.values, &exact, "scalar reference drifted from ExactMvm");
        }
    }
}

/// Deterministic corner sweep of the skip machinery: all-zero inputs
/// (every plane dead), single-sided weights (one differential side fully
/// dead), zero weight columns, saturated bit lines (every count equal to
/// the array height), and a ragged two-subarray split — each
/// compared against the scalar reference, values, ledgers and
/// histograms, at 1 and `TRQ_THREADS` workers.
#[test]
fn skip_corners_match_scalar_reference() {
    /// `(name, depth, outputs, windows, weights, activation codes)`.
    type Case = (&'static str, usize, usize, usize, Vec<i32>, Vec<u8>);
    let params = TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
    let cases: &[Case] = &[
        {
            // every activation zero → every plane skipped, results all zero
            let (depth, outputs, n) = (130, 3, 5);
            (
                "all-zero input",
                depth,
                outputs,
                n,
                weights_for(0, depth, outputs, 11),
                vec![0u8; depth * n],
            )
        },
        {
            // all-positive weights → the negative side never popcounts
            let (depth, outputs, n) = (128, 4, 6);
            (
                "one-sided weights",
                depth,
                outputs,
                n,
                weights_for(1, depth, outputs, 23),
                cols_for(1, depth * n, 23),
            )
        },
        {
            // zero weights → both sides dead on every column
            let (depth, outputs, n) = (150, 2, 4);
            (
                "all-zero weights",
                depth,
                outputs,
                n,
                vec![0i32; depth * outputs],
                cols_for(0, depth * n, 37),
            )
        },
        {
            // every cell and input bit set → every live bit line counts the
            // full 128 rows, the one count past a 128-entry register table
            let (depth, outputs, n) = (128, 3, 20);
            (
                "saturated bit lines",
                depth,
                outputs,
                n,
                vec![127i32; depth * outputs],
                vec![255u8; depth * n],
            )
        },
        {
            // ReLU-coded sparse batch over a ragged subarray split
            let (depth, outputs, n) = (200, 5, 7);
            (
                "relu sparse ragged",
                depth,
                outputs,
                n,
                weights_for(3, depth, outputs, 41),
                cols_for(1, depth * n, 41),
            )
        },
    ];
    for (name, depth, outputs, n, weights, cols) in cases {
        let info = layer(*depth, *outputs);
        let call = Call { info: &info, weights, cols, n: *n };
        let exec = ExecConfig::serial().with_tile_outputs(2).with_tile_windows(3);
        let scheme = AdcScheme::Trq(params);
        let want = Expected::of(arch_with_rows(128, exec), scheme, NoiseModel::ideal(), &call);
        for select in kernel_selects() {
            for threads in [1usize, env_threads()] {
                let arch = arch_with_rows(128, exec.with_threads(threads).with_kernel(select));
                let context = format!("{name} at {threads} threads");
                assert_matches(arch, scheme, NoiseModel::ideal(), &call, &want, &context);
            }
        }
    }
}

/// Block-granular skip corners: activation batches whose zero windows
/// cluster in whole 4-window blocks (the shape `WindowOcc` block skipping
/// targets), at both a block-aligned window count with block-aligned
/// tiles and a ragged count with tiles that straddle block boundaries —
/// plus `block_skip` disabled, which must change nothing but the speed.
#[test]
fn block_skip_corners_match_scalar_reference() {
    /// `(name, depth, outputs, n, tile_windows, live window selector)`.
    type Case = (&'static str, usize, usize, usize, usize, fn(usize) -> bool);
    let params = TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
    let cases: &[Case] = &[
        // 8 windows = 2 whole blocks, tiles aligned to block boundaries;
        // the second block of every batch row is entirely zero
        ("block-aligned cold half", 130, 3, 8, 4, |w| w < 4),
        // 7 windows (ragged final block), 3-wide tiles straddling blocks;
        // only the middle block carries activations
        ("ragged hot middle", 200, 4, 7, 3, |w| (4..6).contains(&w)),
        // every block dead except the ragged tail window
        ("hot tail window", 128, 2, 9, 4, |w| w == 8),
    ];
    for &(name, depth, outputs, n, tile_windows, live) in cases {
        let info = layer(depth, outputs);
        let weights = weights_for(0, depth, outputs, 53);
        let mut next = lcg(61);
        let mut cols = vec![0u8; depth * n];
        for d in 0..depth {
            for w in 0..n {
                if live(w) {
                    cols[d * n + w] = next(256) as u8;
                }
            }
        }
        let exec = ExecConfig::serial().with_tile_outputs(2).with_tile_windows(tile_windows);
        let call = Call { info: &info, weights: &weights, cols: &cols, n };
        let scheme = AdcScheme::Trq(params);
        let want = Expected::of(arch_with_rows(128, exec), scheme, NoiseModel::ideal(), &call);
        assert!(want.values.iter().any(|&v| v != 0.0), "{name}: degenerate case, nothing live");
        for select in kernel_selects() {
            for block_skip in [true, false] {
                for threads in [1usize, env_threads()] {
                    let arch = arch_with_rows(
                        128,
                        exec.with_threads(threads).with_kernel(select).with_block_skip(block_skip),
                    );
                    let context = format!("{name} (block_skip {block_skip}, {threads} threads)");
                    assert_matches(arch, scheme, NoiseModel::ideal(), &call, &want, &context);
                }
            }
        }
    }
}

/// Forcing a kernel tier the host cannot run is a typed construction
/// error, never a silent scalar fallback. `resolve_kernel_with` takes
/// the would-be environment value explicitly, so this is deterministic
/// regardless of the real `TRQ_KERNEL`.
#[test]
fn forced_unavailable_tier_is_a_typed_error() {
    // some SIMD tier is foreign everywhere: NEON on x86, AVX2 elsewhere
    let foreign =
        if cfg!(target_arch = "x86_64") { KernelSelect::Neon } else { KernelSelect::Avx2 };
    match resolve_kernel_with(foreign, None) {
        Err(KernelConfigError::Unavailable { .. }) => {}
        other => panic!("expected Unavailable, got {other:?}"),
    }
    // the env override loses nothing in type safety: junk strings are
    // `Unrecognized`, a forced foreign tier is `Unavailable`
    match resolve_kernel_with(KernelSelect::Auto, Some("warp-drive")) {
        Err(KernelConfigError::Unrecognized(v)) => assert_eq!(v, "warp-drive"),
        other => panic!("expected Unrecognized, got {other:?}"),
    }
    // Auto and Scalar always resolve; Auto picks scalar only as last resort
    assert!(matches!(resolve_kernel_with(KernelSelect::Scalar, None), Ok(KernelTier::Scalar)));
    let auto = resolve_kernel_with(KernelSelect::Auto, None).unwrap();
    assert!(auto.available());
}

/// The same contract through the engine: `PimMvm::try_new` rejects an
/// impossible selection instead of quietly running scalar. Skipped when
/// `TRQ_KERNEL` pins the tier (the env override legitimately beats the
/// configured selection — that precedence is asserted too).
#[test]
fn engine_construction_rejects_unavailable_tier() {
    let foreign =
        if cfg!(target_arch = "x86_64") { KernelSelect::Neon } else { KernelSelect::Avx2 };
    let arch = arch_with_rows(128, ExecConfig::serial().with_kernel(foreign));
    let result = PimMvm::try_new(arch, vec![AdcScheme::Ideal]);
    if kernel_env_pinned() {
        // env wins over the configured selection — construction succeeds
        // and the engine runs the env-chosen tier
        assert!(result.is_ok(), "TRQ_KERNEL override must beat the configured selection");
    } else {
        match result {
            Err(KernelConfigError::Unavailable { .. }) => {}
            Ok(_) => panic!("expected construction to fail on a foreign tier"),
            Err(other) => panic!("expected Unavailable, got {other:?}"),
        }
    }
}

/// Stuck-at faults are applied to the *programmed* weight bits, before
/// the column occupancy masks are computed — so a stuck-at-only
/// [`NoiseModel`] must leave every fused/SIMD kernel tier bit-identical
/// to the scalar reference running the same damaged device (its exported
/// programming), values, ledgers and histograms, at every thread count.
#[test]
fn stuck_at_only_noise_keeps_every_kernel_tier_bit_identical() {
    let noise = NoiseModel {
        sigma_prog: 0.0,
        sigma_read: 0.0,
        stuck_off_rate: 0.04,
        stuck_on_rate: 0.02,
        seed: 99,
    };
    let scheme = AdcScheme::Trq(TrqParams::new(3, 7, 1, 1.0, 0).unwrap());
    let (depth, outputs, n) = (200, 4, 6);
    let info = layer(depth, outputs);
    let weights = weights_for(0, depth, outputs, 71);
    let cols = cols_for(0, depth * n, 71);
    let call = Call { info: &info, weights: &weights, cols: &cols, n };
    let exec = ExecConfig::serial().with_tile_outputs(2).with_tile_windows(3);
    let want = Expected::of(arch_with_rows(128, exec), scheme, noise, &call);

    // the damage must actually bite, or this test proves nothing
    let undamaged = Expected::of(arch_with_rows(128, exec), scheme, NoiseModel::ideal(), &call);
    assert_ne!(want.values, undamaged.values, "stuck-at rates this high must perturb the output");
    assert_ne!(want.hist, undamaged.hist, "stuck-at damage must move the count distribution");

    for select in kernel_selects() {
        for threads in [1usize, env_threads()] {
            let arch = arch_with_rows(128, exec.with_threads(threads).with_kernel(select));
            assert_matches(
                arch,
                scheme,
                noise,
                &call,
                &want,
                &format!("stuck-at, {threads} threads"),
            );
        }
    }
}

/// Count-level noise (σ_prog / σ_read) draws are keyed on absolute slot
/// coordinates and the engine's noise epoch — never on tiling or thread
/// count — so every tier, tiling and thread count must reproduce the
/// reference's noisy bits, ledgers and (raw, pre-noise) histograms, and a
/// different epoch must produce different bits.
#[test]
fn count_noise_is_deterministic_across_threads_and_tilings() {
    let noise = NoiseModel {
        sigma_prog: 0.1,
        sigma_read: 1.5,
        stuck_off_rate: 0.0,
        stuck_on_rate: 0.0,
        seed: 1234,
    };
    let scheme = AdcScheme::Trq(TrqParams::new(3, 7, 1, 1.0, 0).unwrap());
    let (depth, outputs, n) = (150, 4, 6);
    let info = layer(depth, outputs);
    let weights = weights_for(0, depth, outputs, 81);
    let cols = cols_for(0, depth * n, 81);
    let call = Call { info: &info, weights: &weights, cols: &cols, n };
    let base_exec = ExecConfig::serial().with_tile_outputs(2).with_tile_windows(3);
    let want = Expected::of(arch_with_rows(128, base_exec), scheme, noise, &call);

    let clean = Expected::of(arch_with_rows(128, base_exec), scheme, NoiseModel::ideal(), &call);
    assert_ne!(want.values, clean.values, "this much noise must bite");
    assert_eq!(want.hist, clean.hist, "the tally sees raw counts, before the noise");

    for select in kernel_selects() {
        for (tile_outputs, tile_windows) in [(1, 1), (3, 2), (4, 4)] {
            for threads in [1usize, env_threads()] {
                let exec = ExecConfig::serial()
                    .with_tile_outputs(tile_outputs)
                    .with_tile_windows(tile_windows)
                    .with_threads(threads)
                    .with_kernel(select);
                let context =
                    format!("noise, tiles {tile_outputs}x{tile_windows}, {threads} threads");
                assert_matches(arch_with_rows(128, exec), scheme, noise, &call, &want, &context);
            }
        }
    }

    // a new epoch re-keys every draw: same device, fresh read noise
    let arch = arch_with_rows(128, base_exec);
    let mut epoch1 = PimMvm::new(arch, vec![scheme]).with_device_noise(noise);
    epoch1.set_noise_epoch(1);
    let got = epoch1.mvm(&info, &weights, &cols, n);
    assert_ne!(got, want.values, "epochs must decorrelate draws");
    let mut reference = ReferenceMvm::new(arch, vec![scheme], noise);
    reference.set_noise_epoch(1);
    assert_eq!(got, reference.mvm(&info, &weights, &cols, n), "epoch 1 diverged");
    assert_eq!(Ledger::of(&epoch1.stats().layers[0]), reference.ledgers[&0]);
}

/// Collection runs on the pool like every other round: the histograms of
/// a collector driven through several calls on two layers must equal the
/// reference tally — and total each layer's conversions — on every tier,
/// at 1 and `TRQ_THREADS` threads, under default and ragged tilings.
#[test]
fn collector_is_deterministic_even_with_threads_requested() {
    let layers = [layer(150, 4), MvmLayerInfo { mvm_index: 1, ..layer(96, 3) }];
    let weights: Vec<Vec<i32>> = layers
        .iter()
        .enumerate()
        .map(|(i, l)| weights_for(i % 4, l.depth, l.outputs, 90 + i as u64))
        .collect();
    // (layer, windows, activation mode): the first layer is called twice
    let calls = [(0usize, 5usize, 0usize), (1, 7, 1), (0, 9, 1)];
    let run = |engine: &mut dyn MvmEngine| -> Vec<Vec<f64>> {
        calls
            .iter()
            .enumerate()
            .map(|(k, &(l, n, mode))| {
                let cols = cols_for(mode, layers[l].depth * n, 17 + k as u64);
                engine.mvm(&layers[l], &weights[l], &cols, n)
            })
            .collect()
    };
    let arch = arch_with_rows(128, ExecConfig::serial());
    let mut reference = ReferenceMvm::collector(arch, layers.len());
    let want = run(&mut reference);

    for select in kernel_selects() {
        for threads in [1usize, env_threads()] {
            for (tile_outputs, tile_windows) in [(0, 0), (3, 2), (1, 5)] {
                let exec = ExecConfig::serial()
                    .with_threads(threads)
                    .with_tile_outputs(tile_outputs)
                    .with_tile_windows(tile_windows)
                    .with_kernel(select);
                let mut pim = PimMvm::collector(
                    arch_with_rows(128, exec),
                    layers.len(),
                    CollectorConfig::default(),
                );
                let context = format!("{threads} threads, tiles {tile_outputs}x{tile_windows}");
                assert_eq!(run(&mut pim), want, "{context}: values diverged");
                let samples = pim.take_samples();
                assert_eq!(samples.len(), layers.len(), "{context}");
                for s in &samples {
                    let stats = &pim.stats().layers[s.mvm_index];
                    assert_eq!(s.hist.counts(), reference.hists[&s.mvm_index], "{context}");
                    assert_eq!(s.hist.count(), stats.conversions, "{context}: total");
                    assert_eq!(Ledger::of(stats), reference.ledgers[&s.mvm_index], "{context}");
                }
            }
        }
    }
}

/// The ops ledger must still see baseline-cost conversions for skipped
/// work: an all-zero input is `conversions × ops(0)`, never 0 ops.
#[test]
fn skipped_conversions_still_cost_ops() {
    let (depth, outputs, n) = (128, 2, 3);
    let info = layer(depth, outputs);
    let weights = weights_for(0, depth, outputs, 7);
    let cols = vec![0u8; depth * n];
    let arch = arch_with_rows(128, ExecConfig::serial());
    let mut pim = PimMvm::new(arch, vec![AdcScheme::Ideal]);
    let out = pim.mvm(&info, &weights, &cols, n);
    assert!(out.iter().all(|&v| v == 0.0), "zero input must produce zero output");
    let conversions = pim.stats().conversions();
    assert_eq!(conversions, arch.conversions_per_window(depth, outputs) * n as u64);
    // ideal scheme: every conversion costs the full baseline resolution,
    // skipped or not — the closed-form fold must keep the ledger honest
    assert_eq!(pim.stats().ops(), conversions * arch.adc_bits as u64);
}
