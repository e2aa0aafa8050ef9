//! The engine-side probes: an [`MvmEngine`] wrapper that records a span
//! around every call into [`PimMvm`], and replays of the public
//! `trq-xbar` stages (plane packing, fused popcount kernel) on captured
//! layer inputs, so a traced run can split engine time into pack, kernel
//! and decode without instrumenting the engine itself.

use crate::stats::{median, ms};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use trq_core::pim::{PimMvm, PimStats};
use trq_nn::{MvmEngine, MvmLayerInfo, NnError, QuantizedNetwork};
use trq_tensor::Tensor;
use trq_xbar::{mvm_diff_tile_into, pack_window_planes, BitMatrix, WindowOcc, WINDOW_BLOCK};

/// Span name of one `QuantizedNetwork::forward_batch`.
pub const FORWARD: &str = "nn.forward_batch";
/// Span name of one engine call.
pub const MVM: &str = "pim.mvm";

/// One layer invocation as the engine saw it.
#[derive(Debug, Clone)]
pub struct CapturedCall {
    /// The layer's identity and geometry.
    pub info: MvmLayerInfo,
    /// `[depth × n]` activation codes.
    pub cols: Vec<u8>,
    /// Windows in the call.
    pub n: usize,
}

/// Wraps a [`PimMvm`], recording a [`MVM`] span per call and,
/// optionally, a copy of every call's inputs for the stage replays.
pub struct TracedEngine {
    /// The wrapped engine.
    pub inner: PimMvm,
    /// Where the spans go.
    pub tracer: Tracer,
    /// Calls captured while `capture` is set.
    pub captured: Vec<CapturedCall>,
    /// Copy each call's inputs into `captured` (off while timing).
    pub capture: bool,
}

impl TracedEngine {
    /// Wraps `inner` with an empty tracer.
    pub fn new(inner: PimMvm) -> Self {
        TracedEngine { inner, tracer: Tracer::default(), captured: Vec::new(), capture: false }
    }

    /// One batch as a [`FORWARD`] span whose children are the engine
    /// calls; returns the outputs and the batch's own ledger.
    ///
    /// # Errors
    ///
    /// Propagates the forward pass's error.
    pub fn traced_batch(
        &mut self,
        qnet: &QuantizedNetwork,
        images: &[Tensor],
    ) -> Result<(Vec<Tensor>, PimStats), NnError> {
        self.inner.reset_stats();
        let span = self.tracer.open(FORWARD);
        let out = qnet.forward_batch(images, self);
        self.tracer.close(span);
        Ok((out?, self.inner.stats().clone()))
    }
}

impl MvmEngine for TracedEngine {
    fn mvm_into(
        &mut self,
        info: &MvmLayerInfo,
        weights_q: &[i32],
        cols: &[u8],
        n: usize,
        out: &mut [f64],
    ) {
        if self.capture {
            self.captured.push(CapturedCall { info: info.clone(), cols: cols.to_vec(), n });
        }
        let span = self.tracer.open(MVM);
        self.inner.mvm_into(info, weights_q, cols, n, out);
        self.tracer.close(span);
    }

    fn begin_session(&mut self) {
        self.inner.begin_session();
    }

    fn end_session(&mut self) {
        self.inner.end_session();
    }
}

/// Runs `op` until `budget` has elapsed and at least `min_ops` ran.
pub fn repeat_for<T>(budget: Duration, min_ops: usize, mut op: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_ops || t0.elapsed() < budget {
        out.push(op());
    }
    out
}

/// One untraced batch on a plain engine: wall time, outputs, ledger.
///
/// # Errors
///
/// Propagates the forward pass's error.
pub fn timed_batch(
    qnet: &QuantizedNetwork,
    engine: &mut PimMvm,
    images: &[Tensor],
) -> Result<(f64, Vec<Tensor>, PimStats), NnError> {
    engine.reset_stats();
    let t0 = Instant::now();
    let out = qnet.forward_batch(images, engine);
    let dt = ms(t0.elapsed());
    Ok((dt, out?, engine.stats().clone()))
}

/// What the stage replays measured, per replayed forward pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct XbarReplay {
    /// `pack_window_planes` time (the engine packs on the calling thread).
    pub pack_ms: f64,
    /// `mvm_diff_tile_into` time over the engine's tile grid, divided by
    /// the threads the engine would run each call's tiles on — an
    /// estimate of the kernel's share of engine wall time.
    pub kernel_ms: f64,
    /// Live input bit planes ÷ planes (plane skipping avoids the rest).
    pub live_plane_frac: f64,
    /// Dead window blocks ÷ window blocks of live planes (block skipping
    /// avoids these).
    pub dead_block_frac: f64,
}

/// Replays the packing and kernel stages of `calls` against `engine`'s
/// exported programming with the engine's resolved kernel tier and tile
/// geometry, `reps` times; times are medians over the repetitions.
///
/// # Panics
///
/// Panics when a call names a layer the engine has not programmed.
pub fn replay_xbar(engine: &PimMvm, calls: &[CapturedCall], reps: usize) -> XbarReplay {
    let arch = *engine.arch();
    let (rows, ibits, wbits) =
        (arch.xbar.rows, arch.input_bits as usize, arch.weight_bits as usize);
    let exec = arch.exec;
    let threads = exec.effective_threads();
    let tier = engine.kernel_tier();
    let programming = engine.export_programming();
    let (mut planes_total, mut planes_live, mut blocks, mut dead_blocks) = (0u64, 0u64, 0u64, 0u64);
    let mut pack_reps = Vec::with_capacity(reps);
    let mut kernel_reps = Vec::with_capacity(reps);
    let mut planes: Vec<Vec<BitMatrix>> = Vec::new();
    let mut occ: Vec<WindowOcc> = Vec::new();
    let (mut out_pos, mut out_neg) = (Vec::<u32>::new(), Vec::<u32>::new());
    for rep in 0..reps.max(1) {
        let (mut pack, mut kernel) = (Duration::ZERO, 0.0);
        for call in calls {
            let (info, n) = (&call.info, call.n);
            let prog = programming
                .iter()
                .find(|p| p.mvm_index == info.mvm_index)
                .expect("replayed layer is programmed");
            let n_sub = prog.subarrays.len();
            planes.resize_with(n_sub.max(planes.len()), Vec::new);
            occ.resize_with(n_sub.max(occ.len()), WindowOcc::default);
            let t0 = Instant::now();
            for s in 0..n_sub {
                let (d0, d1) = (s * rows, ((s + 1) * rows).min(info.depth));
                pack_window_planes(
                    &call.cols,
                    n,
                    d0,
                    d1,
                    rows,
                    ibits as u32,
                    &mut planes[s],
                    &mut occ[s],
                );
                if !exec.block_skip {
                    occ[s].fill_blocks_live();
                }
            }
            pack += t0.elapsed();
            if rep == 0 {
                let nb = n.div_ceil(WINDOW_BLOCK) as u64;
                for o in &occ[..n_sub] {
                    for p in 0..ibits {
                        planes_total += 1;
                        if o.plane_live(p) {
                            planes_live += 1;
                            blocks += nb;
                            dead_blocks +=
                                (0..nb as usize).filter(|&b| !o.block_live(p, b)).count() as u64;
                        }
                    }
                }
            }
            let (to, tw) = (exec.tile_outputs_for(info.outputs), exec.tile_windows_for(n));
            let tiles = info.outputs.div_ceil(to) * n.div_ceil(tw);
            let volume = ibits * to * wbits * tw;
            out_pos.resize(volume, 0);
            out_neg.resize(volume, 0);
            let t0 = Instant::now();
            for o0 in (0..info.outputs).step_by(to) {
                let o1 = (o0 + to).min(info.outputs);
                for w0 in (0..n).step_by(tw) {
                    let w1 = (w0 + tw).min(n);
                    for (s, sub) in prog.subarrays.iter().enumerate() {
                        mvm_diff_tile_into(
                            tier,
                            &sub.pos,
                            &sub.neg,
                            &planes[s],
                            &occ[s],
                            &sub.pos_live,
                            &sub.neg_live,
                            o0 * wbits..o1 * wbits,
                            w0..w1,
                            &mut out_pos,
                            &mut out_neg,
                        );
                    }
                }
            }
            kernel += ms(t0.elapsed()) / threads.clamp(1, tiles.max(1)) as f64;
        }
        std::hint::black_box((&out_pos, &out_neg));
        pack_reps.push(ms(pack));
        kernel_reps.push(kernel);
    }
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    XbarReplay {
        pack_ms: median(&pack_reps),
        kernel_ms: median(&kernel_reps),
        live_plane_frac: frac(planes_live, planes_total),
        dead_block_frac: frac(dead_blocks, blocks),
    }
}
