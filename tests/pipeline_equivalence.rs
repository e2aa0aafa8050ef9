//! Property tests for the tiled multi-threaded MVM pipeline: for random
//! shapes, weights, inputs, tilings, and thread counts, the engine must be
//! bit-identical to [`ExactMvm`] under [`AdcScheme::Ideal`] and to an
//! independent scalar re-implementation of the pre-refactor serial
//! datapath (subarray → input-bit cycle → bit line → window, one count at
//! a time) under [`AdcScheme::Trq`] — values *and* the A/D-operation
//! ledger.

use proptest::prelude::*;
use trq::core::arch::{ArchConfig, Dispatch, ExecConfig};
use trq::core::pim::{AdcScheme, PimMvm};
use trq::nn::{ExactMvm, MvmEngine, MvmLayerInfo};
use trq::quant::{TrqParams, TwinRangeQuantizer};

fn lcg(seed: u64) -> impl FnMut(i64) -> i32 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    move |m: i64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as i64 % m) as i32
    }
}

fn layer(depth: usize, outputs: usize) -> MvmLayerInfo {
    MvmLayerInfo { node: 0, mvm_index: 0, label: "prop".into(), depth, outputs }
}

/// The pre-refactor serial path, reduced to its semantics: walk every
/// (subarray, cycle, bit line, window) conversion one scalar count at a
/// time and fold LUT-decoded magnitudes into the accumulator.
fn reference_serial(
    arch: &ArchConfig,
    params: Option<TrqParams>,
    info: &MvmLayerInfo,
    weights: &[i32],
    cols: &[u8],
    n: usize,
) -> (Vec<f64>, u64) {
    let rows = arch.xbar.rows;
    let wbits = arch.weight_bits as usize;
    let ibits = arch.input_bits as usize;
    let q = params.map(TwinRangeQuantizer::new);
    let delta = params.map(|p| p.delta_r1()).unwrap_or(1.0);
    let decode = |count: u32| -> i64 {
        match (&q, params) {
            (Some(q), Some(p)) => q.quantize(count as f64).code.decode_lsb(&p) as i64,
            _ => count as i64,
        }
    };
    let ops_of = |count: u32| -> u64 {
        match &q {
            Some(q) => q.ops_for(count as f64) as u64,
            None => arch.adc_bits as u64,
        }
    };
    let mut acc = vec![0i64; info.outputs * n];
    let mut ops = 0u64;
    let n_sub = info.depth.div_ceil(rows);
    for s in 0..n_sub {
        let d0 = s * rows;
        let d1 = ((s + 1) * rows).min(info.depth);
        for c in 0..ibits {
            for o in 0..info.outputs {
                for alpha in 0..wbits {
                    for i in 0..n {
                        let mut cp = 0u32;
                        let mut cn = 0u32;
                        for d in d0..d1 {
                            let w = weights[o * info.depth + d];
                            if w == 0 || (w.unsigned_abs() >> alpha) & 1 == 0 {
                                continue;
                            }
                            if (cols[d * n + i] >> c) & 1 == 1 {
                                if w > 0 {
                                    cp += 1;
                                } else {
                                    cn += 1;
                                }
                            }
                        }
                        ops += ops_of(cp) + ops_of(cn);
                        acc[o * n + i] += (decode(cp) - decode(cn)) << (alpha + c);
                    }
                }
            }
        }
    }
    (acc.into_iter().map(|v| v as f64 * delta).collect(), ops)
}

proptest! {
    #[test]
    fn tiled_engine_is_bit_identical_to_exact_under_ideal(
        depth in 1usize..160,
        outputs in 1usize..5,
        n in 1usize..4,
        tile_outputs in 1usize..4,
        tile_windows in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let mut next = lcg(seed);
        let weights: Vec<i32> = (0..depth * outputs).map(|_| next(255) - 127).collect();
        let cols: Vec<u8> = (0..depth * n).map(|_| next(256) as u8).collect();
        let info = layer(depth, outputs);
        let want = ExactMvm.mvm(&info, &weights, &cols, n);
        for threads in [1usize, 4] {
            let exec = ExecConfig::serial()
                .with_threads(threads)
                .with_tile_outputs(tile_outputs)
                .with_tile_windows(tile_windows);
            let arch = ArchConfig::default().with_exec(exec);
            let mut pim = PimMvm::new(arch, vec![AdcScheme::Ideal]);
            let got = pim.mvm(&info, &weights, &cols, n);
            prop_assert_eq!(
                &got, &want,
                "ideal pipeline must be exact: threads {} shape ({}, {}, {})",
                threads, depth, outputs, n
            );
        }
    }

    #[test]
    fn tiled_engine_matches_serial_reference_under_trq(
        depth in 1usize..160,
        outputs in 1usize..5,
        n in 1usize..4,
        tile_outputs in 1usize..4,
        tile_windows in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let mut next = lcg(seed ^ 0xABCD);
        let weights: Vec<i32> = (0..depth * outputs).map(|_| next(255) - 127).collect();
        let cols: Vec<u8> = (0..depth * n).map(|_| next(256) as u8).collect();
        let info = layer(depth, outputs);
        let params = TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
        let base = ArchConfig::default();
        let (want, want_ops) = reference_serial(&base, Some(params), &info, &weights, &cols, n);
        for threads in [1usize, 4] {
            let exec = ExecConfig::serial()
                .with_threads(threads)
                .with_tile_outputs(tile_outputs)
                .with_tile_windows(tile_windows);
            let arch = ArchConfig::default().with_exec(exec);
            let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params)]);
            let got = pim.mvm(&info, &weights, &cols, n);
            prop_assert_eq!(
                &got, &want,
                "TRQ pipeline must match the serial reference: threads {} shape ({}, {}, {})",
                threads, depth, outputs, n
            );
            prop_assert_eq!(pim.stats().ops(), want_ops, "op ledgers must agree exactly");
        }
    }

    /// The pool-reuse property of the persistent executor: ONE engine on
    /// the shared pool, driven through many mixed-shape `mvm_into` calls
    /// (different layers, window counts, and inputs), must stay
    /// bit-identical — values and the op/conversion ledger — to a fresh
    /// per-call engine using the PR 2 scoped-thread dispatch, and to
    /// [`ExactMvm`] on ideal layers, for threads ∈ {1, 4}.
    #[test]
    fn persistent_pool_engine_stays_bit_identical_across_mixed_calls(
        shapes in proptest::collection::vec((1usize..180, 1usize..6), 3..4),
        calls in proptest::collection::vec((0usize..3, 1usize..5, 0u64..1_000_000), 2..7),
        tile_outputs in 1usize..4,
        tile_windows in 1usize..4,
    ) {
        let params = TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
        // layer 1 runs TRQ, the others ideal — a mixed per-layer plan
        let plan = vec![AdcScheme::Ideal, AdcScheme::Trq(params), AdcScheme::Ideal];
        // weights are a per-layer constant (the engine programs each
        // layer once); only the activations vary call to call
        let layer_weights: Vec<Vec<i32>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(depth, outputs))| {
                let mut next = lcg(0xBEEF ^ i as u64);
                (0..depth * outputs).map(|_| next(255) - 127).collect()
            })
            .collect();
        for threads in [1usize, 4] {
            let pool_arch = ArchConfig::default().with_exec(ExecConfig::serial() .with_threads(threads) .with_tile_outputs(tile_outputs) .with_tile_windows(tile_windows) .with_dispatch(Dispatch::Pool));
            let scope_arch = ArchConfig::default().with_exec(pool_arch.exec.with_dispatch(Dispatch::Scope));
            let mut persistent = PimMvm::new(pool_arch, plan.clone());
            let (mut want_ops, mut want_conversions) = (0u64, 0u64);
            for &(which, n, seed) in &calls {
                let (depth, outputs) = shapes[which];
                let weights = &layer_weights[which];
                let mut next = lcg(seed ^ 0x9E37);
                let cols: Vec<u8> = (0..depth * n).map(|_| next(256) as u8).collect();
                let mut info = layer(depth, outputs);
                info.mvm_index = which;
                let got = persistent.mvm(&info, weights, &cols, n);

                // reference: a fresh engine per call, scoped dispatch
                let mut fresh = PimMvm::new(scope_arch, plan.clone());
                let want = fresh.mvm(&info, weights, &cols, n);
                prop_assert_eq!(
                    &got, &want,
                    "pool reuse changed values: threads {} layer {} shape ({}, {}, {})",
                    threads, which, depth, outputs, n
                );
                if matches!(plan[which], AdcScheme::Ideal) {
                    let exact = ExactMvm.mvm(&info, weights, &cols, n);
                    prop_assert_eq!(&got, &exact, "ideal layer drifted from ExactMvm");
                }
                want_ops += fresh.stats().ops();
                want_conversions += fresh.stats().conversions();
            }
            prop_assert_eq!(
                persistent.stats().ops(), want_ops,
                "accumulated op ledger diverged at threads {}", threads
            );
            prop_assert_eq!(persistent.stats().conversions(), want_conversions);
        }
    }
}

/// One persistent-pool engine driven through repeated `forward_batch`
/// sessions must match per-batch fresh scoped-dispatch engines bitwise
/// (outputs and ledgers), and pool-sharded calibration (sample
/// collection + `evaluate_plan` + `plan_network`) must stay
/// deterministic while the pool is in play.
#[test]
fn pool_session_forward_batch_and_calibration_are_bit_stable() {
    use trq::core::calib::{collect_bl_samples, evaluate_plan, plan_network};
    use trq::core::calib::{CalibSettings, EvalMetric};
    use trq::core::pim::CollectorConfig;
    use trq::nn::{data, models, QuantizedNetwork};

    let net = models::mlp(28 * 28, 10, 4, 3).unwrap();
    let ds = data::synthetic_digits(8, 2);
    let images: Vec<trq::tensor::Tensor> = ds.iter().map(|s| s.image.clone()).collect();
    let qnet = QuantizedNetwork::quantize(&net, &images[..4]).unwrap();
    let params = TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
    let plan = vec![AdcScheme::Trq(params); qnet.layers().len()];

    let pool_arch = ArchConfig::default()
        .with_exec(ExecConfig::serial().with_threads(4).with_tile_outputs(2).with_tile_windows(2));
    let scope_arch = ArchConfig::default().with_exec(pool_arch.exec.with_dispatch(Dispatch::Scope));

    // one engine, many batch sessions
    let mut persistent = PimMvm::new(pool_arch, plan.clone());
    for batch in [&images[..3], &images[3..8], &images[..8]] {
        let got = qnet.forward_batch(batch, &mut persistent).unwrap();
        let mut fresh = PimMvm::new(scope_arch, plan.clone());
        let want = qnet.forward_batch(batch, &mut fresh).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.data(), w.data(), "pool session changed batch results");
        }
    }

    // calibration on the same process-wide pool: everything deterministic
    let samples_a =
        collect_bl_samples(&qnet, &pool_arch, &images[..4], CollectorConfig::default()).unwrap();
    let samples_b =
        collect_bl_samples(&qnet, &pool_arch, &images[..4], CollectorConfig::default()).unwrap();
    assert_eq!(samples_a.len(), samples_b.len());
    for (a, b) in samples_a.iter().zip(samples_b.iter()) {
        assert_eq!(a.hist, b.hist, "collector must stay deterministic");
    }
    let plans_a = plan_network(&samples_a, &pool_arch, 6, &CalibSettings::default());
    let plans_b = plan_network(&samples_b, &pool_arch, 6, &CalibSettings::default());
    assert_eq!(plans_a, plans_b, "the search must stay deterministic");

    let metric = EvalMetric::Fidelity(&images);
    let eval_a = evaluate_plan(&qnet, &pool_arch, &plan, &metric).unwrap();
    let eval_b = evaluate_plan(&qnet, &scope_arch, &plan, &metric).unwrap();
    assert_eq!(eval_a.score, eval_b.score, "pool-sharded eval changed the score");
    assert_eq!(eval_a.stats.ops(), eval_b.stats.ops());
    assert_eq!(eval_a.stats.conversions(), eval_b.stats.conversions());
}
