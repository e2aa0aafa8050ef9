//! The 8-bit post-training-quantized inference datapath (Section V-A).
//!
//! Weights get per-layer symmetric signed 8-bit scales; activations get
//! per-layer unsigned 8-bit scales from calibration maxima (activations
//! feeding MVMs are non-negative in the ReLU networks under study — the
//! same property that makes the BL domain unsigned). Every integer matrix
//! product is delegated to an [`MvmEngine`]:
//!
//! - [`ExactMvm`] computes the exact integer product — the "ADC with ideal
//!   resolution" reference;
//! - the crossbar engine in `trq-core` computes the same product through
//!   bit-sliced crossbars and (TRQ or uniform) ADCs — its deviation from
//!   `ExactMvm` *is* the A/D conversion error the paper studies.

use crate::layer::Op;
use crate::network::{Network, NnError};
use serde::{Deserialize, Serialize};
use trq_quant::SymmetricQuant;
use trq_tensor::ops::{self, Conv2dGeom};
use trq_tensor::Tensor;

/// Identity and geometry of one MVM layer, passed to engines so they can
/// look up per-layer configuration (Algorithm 1 calibrates per layer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvmLayerInfo {
    /// Node index in the source network.
    pub node: usize,
    /// Position among MVM layers (0-based) — the paper's layer index `l`.
    pub mvm_index: usize,
    /// Human-readable label.
    pub label: String,
    /// MVM depth (`kh*kw*Ci` or `in_features`).
    pub depth: usize,
    /// Output channels / features.
    pub outputs: usize,
}

/// An engine that computes integer MVMs for quantized layers.
///
/// `weights_q` is `[outputs × depth]` row-major signed codes; `cols` is
/// `[depth × n]` row-major unsigned activation codes — `n` counts *every*
/// window handed over, so callers batching several images concatenate
/// their windows along the `n` axis and engines see one large batch. The
/// result is `[outputs × n]` row-major accumulator values in code·code
/// units (fractional values are allowed: ADC-quantized reconstructions
/// land on `Vgrid` multiples). Each window's result depends only on its
/// own column, so batching never changes values.
pub trait MvmEngine {
    /// Computes `weights_q · cols` into `out` (`[outputs × n]` row-major),
    /// overwriting every element — the allocation-free entry point the
    /// batched forward pass uses.
    fn mvm_into(
        &mut self,
        info: &MvmLayerInfo,
        weights_q: &[i32],
        cols: &[u8],
        n: usize,
        out: &mut [f64],
    );

    /// Opens an execution session: [`QuantizedNetwork::forward_batch`]
    /// calls this once per batch, before the first layer invocation, so
    /// engines can warm persistent resources (worker threads, scratch
    /// arenas) and pay setup cost once per batch instead of once per
    /// layer call. Default: no-op.
    fn begin_session(&mut self) {}

    /// Closes the session opened by [`MvmEngine::begin_session`], once
    /// per batch after the last layer invocation. Default: no-op.
    fn end_session(&mut self) {}

    /// Convenience wrapper around [`MvmEngine::mvm_into`] that allocates
    /// the output.
    fn mvm(&mut self, info: &MvmLayerInfo, weights_q: &[i32], cols: &[u8], n: usize) -> Vec<f64> {
        let mut out = vec![0.0; info.outputs * n];
        self.mvm_into(info, weights_q, cols, n, &mut out);
        out
    }
}

/// RAII pairing of [`MvmEngine::begin_session`] with
/// [`MvmEngine::end_session`]: the session is closed on *every* exit path
/// — normal completion, early `Err` returns, and unwinding panics alike —
/// so an engine backed by shared resources (a persistent worker pool)
/// can never be left mid-session by a failed forward pass.
struct SessionGuard<'e> {
    engine: &'e mut dyn MvmEngine,
}

impl<'e> SessionGuard<'e> {
    fn begin(engine: &'e mut dyn MvmEngine) -> Self {
        engine.begin_session();
        SessionGuard { engine }
    }

    fn engine(&mut self) -> &mut dyn MvmEngine {
        self.engine
    }
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.engine.end_session();
    }
}

/// The exact integer engine — lossless reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactMvm;

impl MvmEngine for ExactMvm {
    fn mvm_into(
        &mut self,
        info: &MvmLayerInfo,
        weights_q: &[i32],
        cols: &[u8],
        n: usize,
        out: &mut [f64],
    ) {
        let (depth, outputs) = (info.depth, info.outputs);
        debug_assert_eq!(weights_q.len(), depth * outputs);
        debug_assert_eq!(cols.len(), depth * n);
        assert_eq!(out.len(), outputs * n, "output buffer shape mismatch");
        // partial sums are integers below 2^53, so f64 accumulation is
        // exact and needs no scratch allocation
        out.fill(0.0);
        for o in 0..outputs {
            let wrow = &weights_q[o * depth..(o + 1) * depth];
            for (d, &w) in wrow.iter().enumerate() {
                if w == 0 {
                    continue;
                }
                let crow = &cols[d * n..(d + 1) * n];
                let orow = &mut out[o * n..(o + 1) * n];
                for (acc, &c) in orow.iter_mut().zip(crow.iter()) {
                    *acc += (w as i64 * c as i64) as f64;
                }
            }
        }
    }
}

/// One quantized MVM layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QLayer {
    /// Layer identity/geometry.
    pub info: MvmLayerInfo,
    /// Signed weight codes, `[outputs × depth]`.
    pub weights_q: Vec<i32>,
    /// Weight scale (`Δ_w`).
    pub scale_w: f32,
    /// Input-activation scale (`Δ_x`), from calibration maxima.
    pub scale_x: f32,
    /// Float bias applied after dequantization.
    pub bias: Option<Vec<f32>>,
    /// Convolution geometry; `None` for linear layers.
    pub geom: Option<Conv2dGeom>,
}

/// A post-training-quantized network: original graph structure with every
/// MVM layer replaced by an 8-bit integer product running on a pluggable
/// [`MvmEngine`]. Serializable as a whole — the graph, the integer weight
/// codes, and the calibrated scales — so a persisted model restores the
/// exact quantization state (`trq-store` snapshots rely on this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedNetwork {
    net: Network,
    layers: Vec<QLayer>,
    /// Maps node index → MVM layer index.
    node_to_layer: Vec<Option<usize>>,
    act_qmax: u32,
}

impl QuantizedNetwork {
    /// Quantizes `net` with 8-bit weights and activations, calibrating
    /// activation scales on `calibration` images (the paper uses 32).
    ///
    /// # Errors
    ///
    /// Propagates forward-pass failures on the calibration set; returns
    /// [`NnError::BadGraph`] when the calibration set is empty.
    pub fn quantize(net: &Network, calibration: &[Tensor]) -> Result<Self, NnError> {
        if calibration.is_empty() {
            return Err(NnError::BadGraph { reason: "empty calibration set".into() });
        }
        let nodes = net.nodes();
        // per-node max input activation over the calibration set
        let mut act_max = vec![0.0f32; nodes.len()];
        for image in calibration {
            let trace = net.forward_trace(image)?;
            for (i, node) in nodes.iter().enumerate() {
                if matches!(node.op, Op::Conv2d { .. } | Op::Linear { .. }) {
                    let input = &trace[node.inputs[0]];
                    act_max[i] = act_max[i].max(input.max_abs());
                }
            }
        }
        let mut layers = Vec::new();
        let mut node_to_layer = vec![None; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            let (weights, bias, geom) = match &node.op {
                Op::Conv2d { weights, bias, geom } => (weights, bias.clone(), Some(*geom)),
                Op::Linear { weights, bias } => (weights, bias.clone(), None),
                _ => continue,
            };
            let wq =
                SymmetricQuant::from_max_abs(weights.max_abs(), 8).expect("8 is a valid bit width");
            let weights_q: Vec<i32> = weights.data().iter().map(|&w| wq.quantize(w)).collect();
            let dims = weights.shape().dims();
            let (outputs, depth) = (dims[0], dims[1]);
            let scale_x = if act_max[i] <= 0.0 { 1.0 } else { act_max[i] / 255.0 };
            node_to_layer[i] = Some(layers.len());
            layers.push(QLayer {
                info: MvmLayerInfo {
                    node: i,
                    mvm_index: layers.len(),
                    label: node.label.clone(),
                    depth,
                    outputs,
                },
                weights_q,
                scale_w: wq.scale(),
                scale_x,
                bias,
                geom,
            });
        }
        Ok(QuantizedNetwork { net: net.clone(), layers, node_to_layer, act_qmax: 255 })
    }

    /// The quantized MVM layers, in calibration order.
    pub fn layers(&self) -> &[QLayer] {
        &self.layers
    }

    /// The largest activation code the network quantizes to (255 after
    /// [`QuantizedNetwork::quantize`]). An engine whose input bit width
    /// cannot hold it cannot run the network.
    pub fn act_qmax(&self) -> u32 {
        self.act_qmax
    }

    /// The underlying float network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Runs quantized inference with the given engine.
    ///
    /// # Errors
    ///
    /// Propagates tensor/shape failures.
    pub fn forward(&self, input: &Tensor, engine: &mut dyn MvmEngine) -> Result<Tensor, NnError> {
        let mut outs = self.forward_batch(std::slice::from_ref(input), engine)?;
        Ok(outs.pop().expect("one image in, one result out"))
    }

    /// Runs quantized inference for a whole batch of same-shaped inputs,
    /// handing each MVM layer *all* of the batch's windows in one engine
    /// call (windows concatenated along the `n` axis). Results are
    /// bit-identical to per-image [`QuantizedNetwork::forward`] calls —
    /// each window's product only depends on its own column — but the
    /// engine sees tiles large enough to parallelise.
    ///
    /// # Errors
    ///
    /// Propagates tensor/shape failures; returns [`NnError::BatchShape`]
    /// when the batch mixes input shapes.
    pub fn forward_batch(
        &self,
        inputs: &[Tensor],
        engine: &mut dyn MvmEngine,
    ) -> Result<Vec<Tensor>, NnError> {
        // empty batches and shape rejections short-circuit *before* the
        // session opens — no engine should spin up (and immediately tear
        // down) pool workers for work that will never arrive
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        if let Some(bad) = inputs.iter().find(|x| x.shape().dims() != inputs[0].shape().dims()) {
            return Err(NnError::BatchShape {
                expected: inputs[0].shape().dims().to_vec(),
                got: bad.shape().dims().to_vec(),
            });
        }
        // one engine session per batch: persistent executors warm their
        // worker pool and arenas here, so every layer call below is a
        // dispatch onto already-parked threads; the guard closes the
        // session on early `Err` returns and panics too
        let mut session = SessionGuard::begin(engine);
        self.forward_batch_in_session(inputs, session.engine())
    }

    fn forward_batch_in_session(
        &self,
        inputs: &[Tensor],
        engine: &mut dyn MvmEngine,
    ) -> Result<Vec<Tensor>, NnError> {
        let nodes = self.net.nodes();
        let mut outs: Vec<Vec<Tensor>> = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let value: Vec<Tensor> = match &node.op {
                Op::Input => inputs.to_vec(),
                Op::Conv2d { .. } | Op::Linear { .. } => {
                    let layer = &self.layers[self.node_to_layer[i].expect("mvm node mapped")];
                    self.run_mvm_batch(layer, &outs[node.inputs[0]], engine)?
                }
                Op::Relu => outs[node.inputs[0]].iter().map(ops::relu).collect(),
                Op::MaxPool(geom) => {
                    Self::per_image(&outs[node.inputs[0]], |x| ops::max_pool2d(x, geom))?
                }
                Op::AvgPool(geom) => {
                    Self::per_image(&outs[node.inputs[0]], |x| ops::avg_pool2d(x, geom))?
                }
                Op::GlobalAvgPool => Self::per_image(&outs[node.inputs[0]], ops::global_avg_pool)?,
                Op::Flatten => {
                    Self::per_image(&outs[node.inputs[0]], |x| x.reshape(vec![x.len()]))?
                }
                Op::Add => {
                    let (a, b) = (&outs[node.inputs[0]], &outs[node.inputs[1]]);
                    let mut v = Vec::with_capacity(a.len());
                    for (x, y) in a.iter().zip(b.iter()) {
                        v.push(x.add(y)?);
                    }
                    v
                }
                Op::ConcatChannels => {
                    let (aa, bb) = (&outs[node.inputs[0]], &outs[node.inputs[1]]);
                    let mut v = Vec::with_capacity(aa.len());
                    for (a, b) in aa.iter().zip(bb.iter()) {
                        let (da, db) = (a.shape().dims().to_vec(), b.shape().dims().to_vec());
                        let mut data = Vec::with_capacity(a.len() + b.len());
                        data.extend_from_slice(a.data());
                        data.extend_from_slice(b.data());
                        v.push(Tensor::from_vec(vec![da[0] + db[0], da[1], da[2]], data)?);
                    }
                    v
                }
            };
            outs.push(value);
        }
        Ok(outs.pop().expect("non-empty graph"))
    }

    fn per_image<F>(xs: &[Tensor], mut f: F) -> Result<Vec<Tensor>, NnError>
    where
        F: FnMut(&Tensor) -> Result<Tensor, trq_tensor::TensorError>,
    {
        let mut v = Vec::with_capacity(xs.len());
        for x in xs {
            v.push(f(x)?);
        }
        Ok(v)
    }

    fn run_mvm_batch(
        &self,
        layer: &QLayer,
        xs: &[Tensor],
        engine: &mut dyn MvmEngine,
    ) -> Result<Vec<Tensor>, NnError> {
        let cap = code_cap(self.act_qmax);
        let b = xs.len();
        let (depth, outputs) = (layer.info.depth, layer.info.outputs);
        // per-image window count and output geometry (the batch is
        // shape-uniform, checked at the graph entry)
        let (n, out_dims) = match layer.geom {
            Some(geom) => {
                let d = xs[0].shape().dims();
                let (oh, ow) = geom.out_hw(d[1], d[2])?;
                (oh * ow, vec![outputs, oh, ow])
            }
            None => (1, vec![outputs]),
        };
        let nt = b * n; // windows across the whole batch
        let mut cols_all = vec![0u8; depth * nt];
        let mut codes = Vec::new();
        for (img, x) in xs.iter().enumerate() {
            // quantize activations to unsigned codes (values are
            // non-negative in the ReLU networks under study; stray
            // negatives clamp to 0)
            match layer.geom {
                Some(geom) => {
                    let codes = x.map(|v| f32::from(activation_code(v / layer.scale_x, cap)));
                    let cols = ops::im2col(&codes, &geom)?;
                    let data = cols.data();
                    for d in 0..depth {
                        let dst = &mut cols_all[d * nt + img * n..d * nt + img * n + n];
                        for (dv, &sv) in dst.iter_mut().zip(&data[d * n..(d + 1) * n]) {
                            *dv = sv as u8;
                        }
                    }
                }
                None => {
                    codes.clear();
                    codes.extend(x.data().iter().map(|&v| activation_code(v / layer.scale_x, cap)));
                    for (d, &c) in codes.iter().enumerate() {
                        cols_all[d * nt + img] = c;
                    }
                }
            }
        }
        let mut acc = vec![0.0f64; outputs * nt];
        engine.mvm_into(&layer.info, &layer.weights_q, &cols_all, nt, &mut acc);
        let scale = layer.scale_w * layer.scale_x;
        let mut results = Vec::with_capacity(b);
        for img in 0..b {
            let mut data = vec![0.0f32; outputs * n];
            for o in 0..outputs {
                let src = &acc[o * nt + img * n..o * nt + img * n + n];
                let dst = &mut data[o * n..(o + 1) * n];
                for (dv, &sv) in dst.iter_mut().zip(src) {
                    *dv = sv as f32 * scale;
                }
                if let Some(bias) = &layer.bias {
                    for dv in dst {
                        *dv += bias[o];
                    }
                }
            }
            results.push(Tensor::from_vec(out_dims.clone(), data)?);
        }
        Ok(results)
    }
}

/// The largest activation code a network with `act_qmax` can emit: codes
/// are `u8`, so an `act_qmax` above 255 saturates there.
fn code_cap(act_qmax: u32) -> f32 {
    act_qmax.min(u32::from(u8::MAX)) as f32
}

/// The activation code of the quotient `q = v / Δ_x`: `q` rounded half away
/// from zero and clamped to `[0, cap]` ([`code_cap`]); NaN codes to 0. The
/// result equals `q.round().clamp(0.0, act_qmax as f32) as u8` for every
/// `q`, but the truncation and the compare vectorise where `round` is a
/// libcall. `c − trunc(c)` is exact for `c` in `[0, 255]`, so comparing it
/// with 0.5 decides the rounding exactly.
#[inline]
fn activation_code(q: f32, cap: f32) -> u8 {
    let c = q.clamp(0.0, cap);
    let whole = c as i32;
    (whole + i32::from(c - whole as f32 >= 0.5)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use crate::models;

    /// The activation code as `run_mvm_batch` computed it before
    /// [`activation_code`]: round, clamp to `act_qmax`, saturate to `u8`.
    fn rounded_code(q: f32, act_qmax: u32) -> u8 {
        q.round().clamp(0.0, act_qmax as f32) as u8
    }

    /// Every f32 quotient, at the `act_qmax` of 255 that
    /// [`QuantizedNetwork::quantize`] sets. Run with
    /// `cargo test --release -p trq-nn -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn activation_code_matches_rounding_for_every_f32() {
        let cap = code_cap(255);
        let mismatches = (0..=u32::MAX)
            .filter(|&bits| {
                let q = f32::from_bits(bits);
                activation_code(q, cap) != rounded_code(q, 255)
            })
            .count();
        assert_eq!(mismatches, 0);
    }

    /// ±2 ulp around every rounding boundary `k + 0.5` past both ends of
    /// the code range, for `act_qmax` values at and around every cap.
    #[test]
    fn activation_code_matches_rounding_at_every_half() {
        for act_qmax in [0, 1, 15, 254, 255, 256, u32::MAX] {
            let cap = code_cap(act_qmax);
            for k in -4i32..=300 {
                let half = k as f32 + 0.5;
                let bits = half.to_bits() as i64;
                for delta in -2i64..=2 {
                    let q = f32::from_bits((bits + delta) as u32);
                    assert_eq!(
                        activation_code(q, cap),
                        rounded_code(q, act_qmax),
                        "q {q} (bits {:#x}) at act_qmax {act_qmax}",
                        q.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn exact_engine_matches_manual_product() {
        let info = MvmLayerInfo { node: 0, mvm_index: 0, label: "t".into(), depth: 3, outputs: 2 };
        let w = vec![1, -2, 3, 0, 5, -1]; // [[1,-2,3],[0,5,-1]]
        let cols = vec![1u8, 2, 3, 4, 5, 6]; // [[1,2],[3,4],[5,6]]
        let mut e = ExactMvm;
        let y = e.mvm(&info, &w, &cols, 2);
        assert_eq!(y, vec![10.0, 12.0, 10.0, 14.0]);
    }

    #[test]
    fn quantized_mlp_tracks_float_model() {
        let net = models::mlp(28 * 28, 16, 10, 11).unwrap();
        let ds = data::synthetic_digits(24, 3);
        let cal: Vec<Tensor> = ds.iter().take(8).map(|s| s.image.clone()).collect();
        let qnet = QuantizedNetwork::quantize(&net, &cal).unwrap();
        let mut engine = ExactMvm;
        let mut agree = 0;
        for s in &ds {
            let yf = net.forward(&s.image).unwrap();
            let yq = qnet.forward(&s.image, &mut engine).unwrap();
            assert_eq!(yf.shape().dims(), yq.shape().dims());
            if yf.argmax() == yq.argmax() {
                agree += 1;
            }
            // logits should be close in magnitude too
            let err: f32 =
                yf.data().iter().zip(yq.data()).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
            assert!(err < 0.25 * yf.max_abs().max(1.0), "max logit err {err}");
        }
        assert!(agree >= 22, "8-bit PTQ should rarely flip the argmax: {agree}/24");
    }

    #[test]
    fn quantized_lenet_runs_end_to_end() {
        let net = models::lenet5(2).unwrap();
        let ds = data::synthetic_digits(4, 5);
        let cal: Vec<Tensor> = ds.iter().map(|s| s.image.clone()).collect();
        let qnet = QuantizedNetwork::quantize(&net, &cal).unwrap();
        assert_eq!(qnet.layers().len(), 5);
        let y = qnet.forward(&ds[0].image, &mut ExactMvm).unwrap();
        assert_eq!(y.shape().dims(), &[10]);
    }

    #[test]
    fn forward_batch_is_bit_identical_to_per_image_forward() {
        let net = models::lenet5(3).unwrap();
        let ds = data::synthetic_digits(6, 9);
        let cal: Vec<Tensor> = ds.iter().take(4).map(|s| s.image.clone()).collect();
        let qnet = QuantizedNetwork::quantize(&net, &cal).unwrap();
        let images: Vec<Tensor> = ds.iter().map(|s| s.image.clone()).collect();
        let batched = qnet.forward_batch(&images, &mut ExactMvm).unwrap();
        assert_eq!(batched.len(), images.len());
        for (image, y_batch) in images.iter().zip(&batched) {
            let y_single = qnet.forward(image, &mut ExactMvm).unwrap();
            assert_eq!(y_single.data(), y_batch.data(), "batching must not change results");
        }
    }

    #[test]
    fn forward_batch_rejects_mixed_shapes_and_accepts_empty() {
        let net = models::mlp(16, 4, 2, 1).unwrap();
        let cal = vec![Tensor::from_vec(vec![16], vec![0.5; 16]).unwrap()];
        let qnet = QuantizedNetwork::quantize(&net, &cal).unwrap();
        assert!(qnet.forward_batch(&[], &mut ExactMvm).unwrap().is_empty());
        let a = Tensor::from_vec(vec![16], vec![0.1; 16]).unwrap();
        let b = Tensor::from_vec(vec![8], vec![0.1; 8]).unwrap();
        let err = qnet.forward_batch(&[a, b], &mut ExactMvm).unwrap_err();
        assert_eq!(err, NnError::BatchShape { expected: vec![16], got: vec![8] });
    }

    #[test]
    fn empty_calibration_rejected() {
        let net = models::mlp(4, 2, 2, 1).unwrap();
        assert!(QuantizedNetwork::quantize(&net, &[]).is_err());
    }

    #[test]
    fn layer_infos_enumerate_mvms() {
        let net = models::lenet5(2).unwrap();
        let cal = vec![data::synthetic_digits(1, 1)[0].image.clone()];
        let qnet = QuantizedNetwork::quantize(&net, &cal).unwrap();
        let labels: Vec<&str> = qnet.layers().iter().map(|l| l.info.label.as_str()).collect();
        assert_eq!(labels, vec!["conv1", "conv2", "fc1", "fc2", "fc3"]);
        assert_eq!(qnet.layers()[1].info.depth, 150);
        assert_eq!(qnet.layers()[1].info.outputs, 16);
    }
}
