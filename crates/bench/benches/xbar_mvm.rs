//! Crossbar MVM kernels: single-vector popcount and the whole-layer tile kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use trq_xbar::{BitMatrix, BitVec};

fn setup(rows: usize, cols: usize, seed: u64) -> BitMatrix {
    let mut m = BitMatrix::zeros(rows, cols);
    let mut state = seed;
    for r in 0..rows {
        for c in 0..cols {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (state >> 62) & 1 == 1 {
                m.set(r, c, true);
            }
        }
    }
    m
}

fn bench_mvm(c: &mut Criterion) {
    let mut group = c.benchmark_group("xbar_mvm");
    group.sample_size(40);

    let cells = setup(128, 128, 1);
    let input = BitVec::from_bools(&(0..128).map(|i| i % 3 != 0).collect::<Vec<_>>());
    group.bench_function("single_128x128", |b| b.iter(|| black_box(cells.mvm(black_box(&input)))));

    let windows = vec![setup(128, 256, 2)];
    let mut out = vec![0u32; 128 * 256];
    group.bench_function("batched_128x128_x256win", |b| {
        b.iter(|| {
            cells.mvm_planes_tile_into(black_box(&windows), 0..128, 0..256, &mut out);
            black_box(&out);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mvm);
criterion_main!(benches);
