//! Asserts the tentpole invariant of the persistent executor: after a
//! warm-up call per layer shape, the steady-state `mvm_into` path
//! performs **zero heap allocations** on the calling thread, and the
//! worker arenas' backing capacity stops growing (so pool workers do not
//! allocate either — every buffer they touch lives in the arenas).
//!
//! The counting allocator tallies per thread, so the pool's parked worker
//! threads and the libtest harness cannot pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trq_core::arch::{ArchConfig, ExecConfig};
use trq_core::pim::{AdcScheme, CollectorConfig, PimMvm};
use trq_nn::{MvmEngine, MvmLayerInfo};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a thread-local counter bump, and `Cell<u64>` has no destructor so
// first TLS access never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

fn layer(depth: usize, outputs: usize) -> MvmLayerInfo {
    MvmLayerInfo { node: 0, mvm_index: 0, label: "alloc-probe".into(), depth, outputs }
}

fn inputs(depth: usize, outputs: usize, n: usize) -> (Vec<i32>, Vec<u8>) {
    let mut state = 0x5EEDu64;
    let mut next = |m: i64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as i64 % m) as i32
    };
    let weights: Vec<i32> = (0..depth * outputs).map(|_| next(255) - 127).collect();
    let cols: Vec<u8> = (0..depth * n).map(|_| next(256) as u8).collect();
    (weights, cols)
}

/// The serial steady state (threads = 1): after one warm-up call, ten
/// more identical-shape calls must allocate nothing at all.
#[test]
fn steady_state_serial_mvm_into_is_allocation_free() {
    let arch = ArchConfig::default();
    let (depth, outputs, n) = (150, 8, 6);
    let info = layer(depth, outputs);
    let (weights, cols) = inputs(depth, outputs, n);
    let params = trq_quant::TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
    let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params)]);
    let mut out = vec![0.0f64; outputs * n];
    // warm-up: programs the layer, builds the LUT, sizes every scratch
    pim.mvm_into(&info, &weights, &cols, n, &mut out);
    pim.mvm_into(&info, &weights, &cols, n, &mut out);

    let before = thread_allocs();
    for _ in 0..10 {
        pim.mvm_into(&info, &weights, &cols, n, &mut out);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state serial mvm_into allocated {} times",
        after - before
    );
}

/// The pooled steady state (threads = 2, many tiles): the calling thread
/// must stay allocation-free and the arena footprint must stop growing
/// after warm-up — the capacity invariant that covers the worker threads.
#[test]
fn steady_state_pooled_mvm_into_is_allocation_free_with_stable_arenas() {
    let arch = ArchConfig::default()
        .with_exec(ExecConfig::serial().with_threads(2).with_tile_outputs(2).with_tile_windows(2));
    let (depth, outputs, n) = (150, 8, 6);
    let info = layer(depth, outputs);
    let (weights, cols) = inputs(depth, outputs, n);
    let params = trq_quant::TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
    let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params)]);
    let mut out = vec![0.0f64; outputs * n];
    pim.begin_session(); // spawns/warms the pool workers once
    pim.mvm_into(&info, &weights, &cols, n, &mut out);
    pim.mvm_into(&info, &weights, &cols, n, &mut out);

    let footprint = pim.scratch_footprint();
    assert!(footprint > 0, "warm engine must hold reusable scratch");
    let before = thread_allocs();
    for _ in 0..10 {
        pim.mvm_into(&info, &weights, &cols, n, &mut out);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state pooled dispatch allocated {} times on the caller",
        after - before
    );
    assert_eq!(pim.scratch_footprint(), footprint, "arena capacity must not grow after warm-up");
}

/// The ideal [`trq_xbar::NoiseModel`] fast path: installing an ideal
/// noise model must be completely free — same bits as the noiseless
/// engine and zero steady-state allocations — so the resilience layer's
/// noise plumbing costs nothing unless noise is actually dialled in.
#[test]
fn ideal_noise_model_keeps_the_steady_state_allocation_free_and_bit_identical() {
    let arch = ArchConfig::default();
    let (depth, outputs, n) = (150, 8, 6);
    let info = layer(depth, outputs);
    let (weights, cols) = inputs(depth, outputs, n);
    let params = trq_quant::TrqParams::new(3, 7, 1, 1.0, 0).unwrap();

    let mut clean = PimMvm::new(arch, vec![AdcScheme::Trq(params)]);
    let mut want = vec![0.0f64; outputs * n];
    clean.mvm_into(&info, &weights, &cols, n, &mut want);

    let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params)])
        .with_device_noise(trq_xbar::NoiseModel::ideal());
    assert!(pim.device_noise().is_none(), "ideal noise must not install a model");
    let mut out = vec![0.0f64; outputs * n];
    pim.mvm_into(&info, &weights, &cols, n, &mut out);
    assert_eq!(out, want, "ideal noise must not change a single bit");
    pim.mvm_into(&info, &weights, &cols, n, &mut out);

    let before = thread_allocs();
    for _ in 0..10 {
        pim.mvm_into(&info, &weights, &cols, n, &mut out);
    }
    let after = thread_allocs();
    assert_eq!(after - before, 0, "ideal-noise steady state allocated {} times", after - before);
    assert_eq!(out, want);
}

/// Warms `pim` with two calls of `n` windows, then asserts that ten more
/// identical-shape calls allocate nothing on the caller and leave the
/// arena footprint where warm-up put it.
fn assert_steady_state_is_allocation_free(pim: &mut PimMvm, n: usize, what: &str) {
    let (depth, outputs) = (150, 8);
    let info = layer(depth, outputs);
    let (weights, cols) = inputs(depth, outputs, n);
    let mut out = vec![0.0f64; outputs * n];
    pim.begin_session();
    pim.mvm_into(&info, &weights, &cols, n, &mut out);
    pim.mvm_into(&info, &weights, &cols, n, &mut out);

    let footprint = pim.scratch_footprint();
    let before = thread_allocs();
    for _ in 0..10 {
        pim.mvm_into(&info, &weights, &cols, n, &mut out);
    }
    let after = thread_allocs();
    assert_eq!(after - before, 0, "{what} steady state allocated {} times", after - before);
    assert_eq!(pim.scratch_footprint(), footprint, "{what} arena capacity grew after warm-up");
}

/// A one-request batch (one window per layer call, a paced server's
/// common case) on the default 128-row arch under a TRQ plan.
fn assert_batch_of_one_is_allocation_free(exec: ExecConfig, what: &str) {
    let params = trq_quant::TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
    let mut pim = PimMvm::new(ArchConfig::default().with_exec(exec), vec![AdcScheme::Trq(params)]);
    assert_steady_state_is_allocation_free(&mut pim, 1, what);
}

/// The narrow tiles of a batch of one — column lanes on the AVX-512
/// tier — allocate nothing in the serial steady state.
#[test]
fn steady_state_serial_batch_of_one_is_allocation_free() {
    assert_batch_of_one_is_allocation_free(ExecConfig::serial(), "serial batch-1");
}

/// The narrow tiles of a batch of one allocate nothing on the caller in
/// the pooled steady state, and the arenas stop growing.
#[test]
fn steady_state_pooled_batch_of_one_is_allocation_free() {
    let exec = ExecConfig::serial().with_threads(2).with_tile_outputs(2);
    assert_batch_of_one_is_allocation_free(exec, "pooled batch-1");
}

/// Dense rounds run the tally through the conversion's count visitor: a
/// collector engine's steady state (the per-layer histogram exists after
/// the first call) allocates nothing, serial or pooled.
#[test]
fn steady_state_collector_rounds_are_allocation_free() {
    for exec in [ExecConfig::serial(), ExecConfig::serial().with_threads(2).with_tile_outputs(2)] {
        let arch = ArchConfig::default().with_exec(exec);
        let mut pim = PimMvm::collector(arch, 1, CollectorConfig::default());
        assert_steady_state_is_allocation_free(&mut pim, 6, "collector");
        assert!(!pim.take_samples().is_empty(), "the collector must have tallied");
    }
}

/// Dense rounds run σ_read count noise through the conversion's count
/// visitor: a noisy engine's steady state allocates nothing, serial or
/// pooled.
#[test]
fn steady_state_read_noise_rounds_are_allocation_free() {
    let noise = trq_xbar::NoiseModel { sigma_read: 0.8, seed: 11, ..Default::default() };
    let params = trq_quant::TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
    for exec in [ExecConfig::serial(), ExecConfig::serial().with_threads(2).with_tile_outputs(2)] {
        let arch = ArchConfig::default().with_exec(exec);
        let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params)]).with_device_noise(noise);
        assert!(pim.device_noise().is_some(), "σ_read must install a noise model");
        assert_steady_state_is_allocation_free(&mut pim, 6, "read-noise");
    }
}

/// Shape changes may grow capacity once, but revisiting a previously-seen
/// shape is warm: the footprint is monotone, not per-shape.
#[test]
fn revisiting_a_seen_shape_is_warm() {
    let arch = ArchConfig::default()
        .with_exec(ExecConfig::serial().with_threads(2).with_tile_outputs(4).with_tile_windows(4));
    let params = trq_quant::TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
    let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params), AdcScheme::Ideal]);

    let (d0, o0, n0) = (150, 8, 6);
    let info0 = layer(d0, o0);
    let (w0, c0) = inputs(d0, o0, n0);
    let mut out0 = vec![0.0f64; o0 * n0];

    let (d1, o1, n1) = (64, 12, 9);
    let mut info1 = layer(d1, o1);
    info1.mvm_index = 1;
    let (w1, c1) = inputs(d1, o1, n1);
    let mut out1 = vec![0.0f64; o1 * n1];

    // warm both shapes, then interleave: no further capacity growth
    pim.mvm_into(&info0, &w0, &c0, n0, &mut out0);
    pim.mvm_into(&info1, &w1, &c1, n1, &mut out1);
    pim.mvm_into(&info0, &w0, &c0, n0, &mut out0);
    pim.mvm_into(&info1, &w1, &c1, n1, &mut out1);
    let footprint = pim.scratch_footprint();
    let before = thread_allocs();
    for _ in 0..4 {
        pim.mvm_into(&info0, &w0, &c0, n0, &mut out0);
        pim.mvm_into(&info1, &w1, &c1, n1, &mut out1);
    }
    let after = thread_allocs();
    assert_eq!(after - before, 0, "interleaved warm shapes must not allocate");
    assert_eq!(pim.scratch_footprint(), footprint);
}
