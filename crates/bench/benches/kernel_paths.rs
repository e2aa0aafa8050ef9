//! The specialised popcount kernel paths at the `trq-xbar` level: scalar
//! reference (two `mvm_planes_tile_into` passes) vs the fused
//! differential kernel on every kernel tier this host can run (scalar
//! plus AVX-512/AVX2/NEON lanes where detected), across the
//! monomorphised column word counts (wpc 1/2/4 and the Harley–Seal
//! generic path), plus the skip-enabled sparse cases at both plane and
//! window-block granularity, the fused conversion the engine runs
//! (popcount, lookup and shift-add per row chunk on every tier, register
//! table on AVX-512), and the input bit-plane packing that precedes it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use trq_xbar::{
    convert_diff_tile_into, mvm_diff_tile_into, pack_window_planes, BitMatrix, ColMask,
    DecodeTable, KernelTier, NoVisit, WindowOcc, WINDOW_BLOCK,
};

fn matrix(rows: usize, cols: usize, seed: u64, density_pct: u64) -> BitMatrix {
    let mut m = BitMatrix::zeros(rows, cols);
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(5);
    for r in 0..rows {
        for c in 0..cols {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (state >> 33) % 100 < density_pct {
                m.set(r, c, true);
            }
        }
    }
    m
}

/// Every kernel tier available on this host, scalar first.
fn host_tiers() -> Vec<KernelTier> {
    [KernelTier::Scalar, KernelTier::Neon, KernelTier::Avx2, KernelTier::Avx512]
        .into_iter()
        .filter(|t| t.available())
        .collect()
}

fn bench_kernel_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_paths");
    group.sample_size(20);

    let (cols, windows, n_planes) = (64usize, 32usize, 8usize);
    // wpc 1 / 2 (the paper's 128-row arrays) / 4 / generic
    for (label, rows) in
        [("wpc1_r64", 64), ("wpc2_r128", 128), ("wpc4_r256", 256), ("gen_r320", 320)]
    {
        let pos = matrix(rows, cols, 1, 50);
        let neg = matrix(rows, cols, 2, 50);
        let planes: Vec<BitMatrix> =
            (0..n_planes).map(|p| matrix(rows, windows, 3 + p as u64, 50)).collect();
        let volume = n_planes * cols * windows;
        let mut out_pos = vec![0u32; volume];
        let mut out_neg = vec![0u32; volume];
        group.bench_function(&format!("scalar_{label}"), |b| {
            b.iter(|| {
                pos.mvm_planes_tile_into(black_box(&planes), 0..cols, 0..windows, &mut out_pos);
                neg.mvm_planes_tile_into(black_box(&planes), 0..cols, 0..windows, &mut out_neg);
                black_box((&out_pos, &out_neg));
            })
        });
        let all = ColMask::all_live(cols);
        let occ = WindowOcc::of_planes(&planes);
        for tier in host_tiers() {
            group.bench_function(&format!("fused_{}_{label}", tier.name()), |b| {
                b.iter(|| {
                    mvm_diff_tile_into(
                        tier,
                        black_box(&pos),
                        black_box(&neg),
                        black_box(&planes),
                        &occ,
                        &all,
                        &all,
                        0..cols,
                        0..windows,
                        &mut out_pos,
                        &mut out_neg,
                    );
                    black_box((&out_pos, &out_neg));
                })
            });
        }
    }

    // the skip showcase: ReLU-coded planes (high-order planes empty) on
    // sparse weights (many dead slice columns), honest occupancy masks
    let rows = 128;
    let pos = matrix(rows, cols, 7, 10);
    let neg = matrix(rows, cols, 8, 10);
    let planes: Vec<BitMatrix> = (0..n_planes)
        .map(|p| {
            if p < 4 {
                matrix(rows, windows, 9 + p as u64, 15)
            } else {
                BitMatrix::zeros(rows, windows)
            }
        })
        .collect();
    let occ = WindowOcc::of_planes(&planes);
    let (pos_live, neg_live) = (ColMask::of(&pos), ColMask::of(&neg));
    let volume = n_planes * cols * windows;
    let mut out_pos = vec![0u32; volume];
    let mut out_neg = vec![0u32; volume];
    for tier in host_tiers() {
        group.bench_function(&format!("fused_skip_relu_{}_r128", tier.name()), |b| {
            b.iter(|| {
                mvm_diff_tile_into(
                    tier,
                    black_box(&pos),
                    black_box(&neg),
                    black_box(&planes),
                    &occ,
                    &pos_live,
                    &neg_live,
                    0..cols,
                    0..windows,
                    &mut out_pos,
                    &mut out_neg,
                );
                black_box((&out_pos, &out_neg));
            })
        });
    }

    // block-granular skipping: live planes with 3 of every 4 window
    // blocks all-zero (block-structured activation sparsity) — compare
    // block-honest occupancy against the same data with the blocks
    // degraded to all-live (plane/subarray-level skipping only)
    let planes_blocky: Vec<BitMatrix> = (0..n_planes)
        .map(|p| {
            let mut m = matrix(rows, windows, 21 + p as u64, 50);
            for w in 0..windows {
                if !(w / WINDOW_BLOCK).is_multiple_of(4) {
                    for r in 0..rows {
                        m.set(r, w, false);
                    }
                }
            }
            m
        })
        .collect();
    let occ_blocks = WindowOcc::of_planes(&planes_blocky);
    let mut occ_flat = WindowOcc::of_planes(&planes_blocky);
    occ_flat.fill_blocks_live();
    let all = ColMask::all_live(cols);
    for tier in host_tiers() {
        for (mode, occ) in [("blockskip", &occ_blocks), ("noblockskip", &occ_flat)] {
            group.bench_function(&format!("fused_blocky_{mode}_{}_r128", tier.name()), |b| {
                b.iter(|| {
                    mvm_diff_tile_into(
                        tier,
                        black_box(&pos),
                        black_box(&neg),
                        black_box(&planes_blocky),
                        black_box(occ),
                        &all,
                        &all,
                        0..cols,
                        0..windows,
                        &mut out_pos,
                        &mut out_neg,
                    );
                    black_box((&out_pos, &out_neg));
                })
            });
        }
    }

    // the fused conversion of one 128-row tile (16 outputs × 8 slices ×
    // 8 planes × 64 windows) on every tier: popcount, lookup and
    // shift-add per row chunk, and on AVX-512 the register-table path;
    // the `_n1`/`_n4` tiles of 1 and 4 windows are the narrow batches
    // of a paced server, column lanes on AVX-512
    let (outputs, slices, windows) = (16usize, 8usize, 64usize);
    let cols = outputs * slices;
    let entries: Vec<u32> =
        (0..=128u32).map(|c| (c / 2) | if c < 16 { 4 << 24 } else { 7 << 24 }).collect();
    let table = DecodeTable::new(entries, n_planes, slices);
    let planes: Vec<BitMatrix> =
        (0..n_planes).map(|p| matrix(128, windows, 40 + p as u64, 30)).collect();
    let occ = WindowOcc::of_planes(&planes);
    let (pos, neg) = (matrix(128, cols, 41, 20), matrix(128, cols, 42, 20));
    let (pos_live, neg_live) = (ColMask::of(&pos), ColMask::of(&neg));
    let mut acc = vec![0i64; outputs * windows];
    for tier in host_tiers() {
        for (suffix, nw) in [("", windows), ("_n1", 1), ("_n4", 4)] {
            group.bench_function(&format!("convert_{}_r128{suffix}", tier.name()), |b| {
                b.iter(|| {
                    black_box(convert_diff_tile_into(
                        tier,
                        black_box(&table),
                        &pos,
                        &neg,
                        &planes,
                        &occ,
                        &pos_live,
                        &neg_live,
                        0..cols,
                        0..nw,
                        &mut NoVisit,
                        &mut acc,
                    ))
                })
            });
        }
    }

    // input bit-plane packing of one 128-row subarray over a stage-0
    // sized batch (8 images × 32×32 windows), 8 planes, ReLU-skewed codes:
    // half are zero and the rest fall off geometrically with magnitude
    let (rows, n) = (128usize, 8192usize);
    let mut state = 0x5EEDu64;
    let codes: Vec<u8> = (0..rows * n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = state >> 32;
            if r & 1 == 0 {
                0
            } else {
                ((r >> 8) as u8) >> ((r >> 1) % 8)
            }
        })
        .collect();
    let (mut planes, mut occ) = (Vec::new(), WindowOcc::default());
    group.bench_function("pack_r128_n8192", |b| {
        b.iter(|| {
            black_box(pack_window_planes(
                black_box(&codes),
                n,
                0,
                rows,
                rows,
                8,
                &mut planes,
                &mut occ,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernel_paths);
criterion_main!(benches);
