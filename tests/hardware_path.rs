//! The "two implementations of the same hardware" test: the fast engine
//! (per-layer LUT over integer counts) must match a step-by-step
//! composition of the discrete components — DiffPair programming, per-BL
//! traced SAR conversions, and ShiftAdd decode/merge — exactly, code for
//! code and op for op.

use trq::adc::{ShiftAdd, TrqSarAdc};
use trq::core::arch::ArchConfig;
use trq::core::pim::{AdcScheme, PimMvm};
use trq::nn::{MvmEngine, MvmLayerInfo};
use trq::quant::TrqParams;
use trq::xbar::{bit_plane, CrossbarConfig, DiffPair};

#[test]
fn engine_equals_discrete_component_composition() {
    let arch = ArchConfig::default();
    let params = TrqParams::new(3, 6, 2, 1.0, 0).unwrap();
    let (depth, outputs, n) = (20usize, 3usize, 4usize);

    let mut state = 0xC0FFEEu64;
    let mut next = |m: i64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as i64 % m) as i32
    };
    // weights in engine layout [outputs × depth]
    let weights_eng: Vec<i32> = (0..outputs * depth).map(|_| next(255) - 127).collect();
    let inputs: Vec<Vec<u8>> =
        (0..n).map(|_| (0..depth).map(|_| next(256) as u8).collect()).collect();

    // ── path A: the engine ────────────────────────────────────────────
    let mut cols = vec![0u8; depth * n];
    for (i, input) in inputs.iter().enumerate() {
        for d in 0..depth {
            cols[d * n + i] = input[d];
        }
    }
    let info = MvmLayerInfo { node: 1, mvm_index: 0, label: "hw".into(), depth, outputs };
    let mut engine = PimMvm::new(arch, vec![AdcScheme::Trq(params)]);
    let engine_out = engine.mvm(&info, &weights_eng, &cols, n);
    let engine_ops = engine.stats().ops();

    // ── path B: discrete components, window by window ─────────────────
    // DiffPair wants depth-major weights [depth × outputs]
    let mut weights_pair = vec![0i32; depth * outputs];
    for o in 0..outputs {
        for d in 0..depth {
            weights_pair[d * outputs + o] = weights_eng[o * depth + d];
        }
    }
    let pair = DiffPair::program(
        CrossbarConfig::default(),
        &weights_pair,
        depth,
        outputs,
        arch.weight_bits,
    )
    .unwrap();
    let adc = TrqSarAdc::new(params);

    let mut discrete_ops = 0u64;
    for (i, input) in inputs.iter().enumerate() {
        let mut padded = vec![0u32; arch.xbar.rows];
        for (d, &v) in input.iter().enumerate() {
            padded[d] = v as u32;
        }
        let mut accs: Vec<ShiftAdd> = (0..outputs).map(|_| ShiftAdd::new(32)).collect();
        for cycle in 0..arch.input_bits {
            let plane = bit_plane(&padded, cycle);
            let (pos, neg) = pair.mvm_counts(&plane).unwrap();
            for (o, acc) in accs.iter_mut().enumerate() {
                for alpha in 0..arch.weight_bits {
                    let col = pair.slicer().column_of(o, alpha);
                    let cp = adc.convert(pos[col] as f64);
                    let cn = adc.convert(neg[col] as f64);
                    discrete_ops += (cp.ops + cn.ops) as u64;
                    let shift = alpha + cycle;
                    acc.add_code(adc.decode(cp.code_bits), &params, shift);
                    let decoded_neg = adc.decode(cn.code_bits).decode_lsb(&params) as i64;
                    acc.sub_raw(decoded_neg, shift);
                }
            }
        }
        for (o, acc) in accs.iter().enumerate() {
            let discrete_value = acc.value() as f64 * params.delta_r1();
            assert_eq!(
                engine_out[o * n + i],
                discrete_value,
                "window {i} output {o}: engine vs discrete"
            );
        }
    }
    assert_eq!(engine_ops, discrete_ops, "op ledgers must agree exactly");
}
