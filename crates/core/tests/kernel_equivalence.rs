//! Kernel-path equivalence: the specialised execute stage — fused
//! differential popcount kernels monomorphised per column word count
//! (`words_per_col ∈ {1, 2, 4}` plus the Harley–Seal generic path) on
//! **every kernel tier this host can run** (scalar plus the
//! AVX-512/AVX2/NEON SIMD lanes), packed-LUT decode, and sparsity-aware
//! plane/column/window-block skipping — must be **bit-identical** to the
//! scalar reference datapath kept live on [`Dispatch::Scope`]: output
//! values *and* the full `PimStats` event ledger (ops, conversions, max
//! count, max accumulator), across thread counts.
//!
//! The thread count for the multi-threaded runs follows `TRQ_THREADS`
//! (default 4), so CI can pin e.g. `TRQ_THREADS=2` to exercise the
//! skip-path/pool interactions under overflow checks. The kernel tier
//! follows `TRQ_KERNEL` when set (CI's forced-dispatch matrix runs the
//! suite once per tier); when unset, the sweep covers the scalar
//! selection plus every SIMD tier the host supports.

use proptest::prelude::*;
use trq_core::arch::{
    resolve_kernel_with, ArchConfig, Dispatch, ExecConfig, KernelConfigError, KernelSelect,
    KernelTier, KERNEL_ENV,
};
use trq_core::pim::{AdcScheme, PimMvm};
use trq_nn::{ExactMvm, MvmEngine, MvmLayerInfo};
use trq_quant::TrqParams;
use trq_xbar::CrossbarConfig;

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
/// magnitudes reach 255 << 8 — past the `i32` row bound of the
/// register-table decode, so it pins the segment-walk fallback.
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

proptest! {
    /// For every column word count (wpc 1, 2, 4, generic), every ADC
    /// scheme and every weight/activation sparsity shape, the specialised
    /// path (Pool dispatch) must match the scalar reference path (Scope
    /// dispatch) exactly — outputs and ledgers — serially and
    /// multi-threaded, and match [`ExactMvm`] under the ideal scheme.
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
        // the pinned reference: scalar datapath, serial
        let ref_arch = arch_with_rows(rows, exec.with_dispatch(Dispatch::Scope));
        let mut reference = PimMvm::new(ref_arch, vec![scheme]);
        let want = reference.mvm(&info, &weights, &cols, n);

        for select in kernel_selects() {
            for threads in [1usize, env_threads()] {
                let arch = arch_with_rows(
                    rows,
                    exec.with_threads(threads).with_dispatch(Dispatch::Pool).with_kernel(select),
                );
                let mut pim = PimMvm::new(arch, vec![scheme]);
                let tier = pim.kernel_tier();
                let got = pim.mvm(&info, &weights, &cols, n);
                prop_assert_eq!(
                    &got, &want,
                    "kernel path diverged: rows {} tier {} threads {} scheme {:?} wmode {} \
                     amode {} shape ({}, {}, {}) tile_windows {}",
                    rows, tier.name(), threads, scheme, weight_mode, act_mode, depth, outputs, n,
                    tile_windows
                );
                prop_assert_eq!(
                    pim.stats(), reference.stats(),
                    "event ledgers diverged: rows {} tier {} threads {} scheme {:?} wmode {} \
                     amode {}",
                    rows, tier.name(), threads, scheme, weight_mode, act_mode
                );
            }
        }
        if scheme_sel == 0 {
            let exact = ExactMvm.mvm(&info, &weights, &cols, n);
            prop_assert_eq!(&want, &exact, "scalar reference drifted from ExactMvm");
        }
    }
}

/// Deterministic corner sweep of the skip machinery: all-zero inputs
/// (every plane dead), single-sided weights (one differential side fully
/// dead), zero weight columns, saturated bit lines (every count equal to
/// the array height), and a ragged two-subarray split — each
/// compared against the scalar reference, values and ledgers, at 1 and
/// `TRQ_THREADS` workers.
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
        let exec = ExecConfig::serial().with_tile_outputs(2).with_tile_windows(3);
        let ref_arch = arch_with_rows(128, exec.with_dispatch(Dispatch::Scope));
        let mut reference = PimMvm::new(ref_arch, vec![AdcScheme::Trq(params)]);
        let want = reference.mvm(&info, weights, cols, *n);
        for select in kernel_selects() {
            for threads in [1usize, env_threads()] {
                let arch = arch_with_rows(128, exec.with_threads(threads).with_kernel(select));
                let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params)]);
                let tier = pim.kernel_tier();
                let got = pim.mvm(&info, weights, cols, *n);
                assert_eq!(
                    got,
                    want,
                    "{name}: values diverged at {threads} threads on tier {}",
                    tier.name()
                );
                assert_eq!(
                    pim.stats(),
                    reference.stats(),
                    "{name}: ledgers diverged at {threads} threads on tier {}",
                    tier.name()
                );
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
        let ref_arch = arch_with_rows(128, exec.with_dispatch(Dispatch::Scope));
        let mut reference = PimMvm::new(ref_arch, vec![AdcScheme::Trq(params)]);
        let want = reference.mvm(&info, &weights, &cols, n);
        assert!(want.iter().any(|&v| v != 0.0), "{name}: degenerate case, nothing live");
        for select in kernel_selects() {
            for block_skip in [true, false] {
                for threads in [1usize, env_threads()] {
                    let arch = arch_with_rows(
                        128,
                        exec.with_threads(threads).with_kernel(select).with_block_skip(block_skip),
                    );
                    let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params)]);
                    let tier = pim.kernel_tier();
                    let got = pim.mvm(&info, &weights, &cols, n);
                    assert_eq!(
                        got,
                        want,
                        "{name}: values diverged (tier {}, block_skip {block_skip}, \
                         {threads} threads)",
                        tier.name()
                    );
                    assert_eq!(
                        pim.stats(),
                        reference.stats(),
                        "{name}: ledgers diverged (tier {}, block_skip {block_skip}, \
                         {threads} threads)",
                        tier.name()
                    );
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
/// [`trq_xbar::NoiseModel`] must leave every fused/SIMD kernel tier
/// bit-identical to the scalar reference running the same damaged
/// device, values and ledgers, at every thread count.
#[test]
fn stuck_at_only_noise_keeps_every_kernel_tier_bit_identical() {
    let noise = trq_xbar::NoiseModel {
        sigma_prog: 0.0,
        sigma_read: 0.0,
        stuck_off_rate: 0.04,
        stuck_on_rate: 0.02,
        seed: 99,
    };
    let params = TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
    let (depth, outputs, n) = (200, 4, 6);
    let info = layer(depth, outputs);
    let weights = weights_for(0, depth, outputs, 71);
    let cols = cols_for(0, depth * n, 71);
    let exec = ExecConfig::serial().with_tile_outputs(2).with_tile_windows(3);
    let ref_arch = arch_with_rows(128, exec.with_dispatch(Dispatch::Scope));
    let mut reference =
        PimMvm::new(ref_arch, vec![AdcScheme::Trq(params)]).with_device_noise(noise);
    let want = reference.mvm(&info, &weights, &cols, n);

    // the damage must actually bite, or this test proves nothing
    let mut clean = PimMvm::new(ref_arch, vec![AdcScheme::Trq(params)]);
    let undamaged = clean.mvm(&info, &weights, &cols, n);
    assert_ne!(want, undamaged, "stuck-at rates this high must perturb the output");

    for select in kernel_selects() {
        for threads in [1usize, env_threads()] {
            let arch = arch_with_rows(
                128,
                exec.with_threads(threads).with_dispatch(Dispatch::Pool).with_kernel(select),
            );
            let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params)]).with_device_noise(noise);
            let tier = pim.kernel_tier();
            let got = pim.mvm(&info, &weights, &cols, n);
            assert_eq!(
                got,
                want,
                "stuck-at damage diverged across tiers (tier {}, {threads} threads)",
                tier.name()
            );
            assert_eq!(
                pim.stats(),
                reference.stats(),
                "stuck-at ledgers diverged (tier {}, {threads} threads)",
                tier.name()
            );
        }
    }
}

/// Count-level noise (σ_prog / σ_read) draws are keyed on absolute tile
/// coordinates and the engine's noise epoch — never on tiling, dispatch,
/// or thread count — so the same noisy device must produce the same bits
/// for every execution strategy, and a different epoch must produce
/// different ones.
#[test]
fn count_noise_is_deterministic_across_threads_and_tilings() {
    let noise = trq_xbar::NoiseModel {
        sigma_prog: 0.1,
        sigma_read: 1.5,
        stuck_off_rate: 0.0,
        stuck_on_rate: 0.0,
        seed: 1234,
    };
    let params = TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
    let (depth, outputs, n) = (150, 4, 6);
    let info = layer(depth, outputs);
    let weights = weights_for(0, depth, outputs, 81);
    let cols = cols_for(0, depth * n, 81);

    let base_exec = ExecConfig::serial().with_tile_outputs(2).with_tile_windows(3);
    let mut reference = PimMvm::new(arch_with_rows(128, base_exec), vec![AdcScheme::Trq(params)])
        .with_device_noise(noise);
    let want = reference.mvm(&info, &weights, &cols, n);

    let mut clean = PimMvm::new(arch_with_rows(128, base_exec), vec![AdcScheme::Trq(params)]);
    assert_ne!(want, clean.mvm(&info, &weights, &cols, n), "this much noise must bite");

    for (tile_outputs, tile_windows) in [(1, 1), (3, 2), (4, 4)] {
        for threads in [1usize, env_threads()] {
            let exec = ExecConfig::serial()
                .with_tile_outputs(tile_outputs)
                .with_tile_windows(tile_windows)
                .with_threads(threads)
                .with_dispatch(Dispatch::Pool);
            let mut pim = PimMvm::new(arch_with_rows(128, exec), vec![AdcScheme::Trq(params)])
                .with_device_noise(noise);
            let got = pim.mvm(&info, &weights, &cols, n);
            assert_eq!(
                got, want,
                "noisy bits drifted (tiles {tile_outputs}x{tile_windows}, {threads} threads)"
            );
            assert_eq!(
                pim.stats(),
                reference.stats(),
                "noisy ledgers drifted (tiles {tile_outputs}x{tile_windows}, {threads} threads)"
            );
        }
    }

    // a new epoch re-keys every draw: same device, fresh read noise
    let mut epoch1 = PimMvm::new(arch_with_rows(128, base_exec), vec![AdcScheme::Trq(params)])
        .with_device_noise(noise);
    epoch1.set_noise_epoch(1);
    assert_ne!(epoch1.mvm(&info, &weights, &cols, n), want, "epochs must decorrelate draws");
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
