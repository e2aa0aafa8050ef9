//! `batch-resnet20`: offline batch inference. Each operation is one
//! `QuantizedNetwork::forward_batch` of 8 CIFAR-shaped images through
//! resnet20 (quick-suite sizes) under a fixed all-layer TRQ plan, on two
//! engine threads — the only workload that runs `exec::Pool`.

use super::{
    check_batch, float_agreement, median_ms, reference, repeated_setup, stage_profile,
    thread_pairs, untimed, RunConfig, Workload, MODEL_SEED,
};
use crate::engine::{repeat_for, timed_batch};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, ms};
use std::time::Instant;
use trq_core::experiments::SuiteConfig;
use trq_core::pim::{AdcScheme, PimMvm};
use trq_nn::{data, models, Network, QuantizedNetwork};
use trq_quant::TrqParams;
use trq_tensor::Tensor;

const BATCH: usize = 8;

struct Setup {
    net: Network,
    qnet: QuantizedNetwork,
    plan: Vec<AdcScheme>,
    images: Vec<Tensor>,
    engine: PimMvm,
    quantize_ms: f64,
    program_ms: f64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let quick = SuiteConfig::quick();
    let net = models::resnet20(MODEL_SEED).map_err(|e| e.to_string())?;
    let images = |n, salt: u64| -> Vec<Tensor> {
        data::synthetic_cifar(n, seed ^ salt).into_iter().map(|s| s.image).collect()
    };
    let cal = images(quick.cal_images, 0x3);
    let batch = images(BATCH, 0x4);
    let t0 = Instant::now();
    let qnet = QuantizedNetwork::quantize(&net, &cal).map_err(|e| e.to_string())?;
    let quantize_ms = ms(t0.elapsed());
    let params = TrqParams::new(3, 7, 1, 1.0, 0).map_err(|e| e.to_string())?;
    let plan = vec![AdcScheme::Trq(params); qnet.layers().len()];
    let t0 = Instant::now();
    let mut engine = PimMvm::new(Workload::BatchResnet20.arch(), plan.clone());
    for layer in qnet.layers() {
        engine.program_layer(&layer.info, &layer.weights_q);
    }
    let program_ms = ms(t0.elapsed());
    Ok(Setup { net, qnet, plan, images: batch, engine, quantize_ms, program_ms })
}

pub(super) fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut stage_ms = (Vec::new(), Vec::new());
    let (mut s, setup_s) = repeated_setup(cfg, || {
        let s = setup(cfg.seed)?;
        stage_ms.0.push(s.quantize_ms);
        stage_ms.1.push(s.program_ms);
        Ok(s)
    })?;
    out.set("setup_s", setup_s);
    out.set("quant.quantize_ms", median(&stage_ms.0));
    out.set("pim.program_ms", median(&stage_ms.1));
    // warm-up: first dispatch spawns the pool worker and sizes scratch
    let _ = s.qnet.forward_batch(&s.images, &mut s.engine);

    let want;
    if cfg.trace {
        let (one, two) = thread_pairs(&s.qnet, &s.plan, &s.images, cfg.budget(0.5), cfg.min_ops(3));
        let profile = stage_profile(
            &mut out,
            &s.qnet,
            Workload::BatchResnet20.arch(),
            &s.plan,
            &s.images,
            cfg.budget(0.5),
            cfg.min_ops(3),
        );
        let untraced = median_ms(&two);
        out.set("exec.speedup", median_ms(&one) / untraced);
        let traced = median(&profile.tracer.durations_ms(crate::engine::FORWARD));
        out.set("trace.overhead_frac", traced / untraced - 1.0);
        want = reference(&s.qnet, &s.plan, &s.images)?;
        for r in one.iter().chain(&two) {
            check_batch(&mut out.checks, "batch", &untimed(r), &want);
        }
        for r in &profile.batches {
            check_batch(&mut out.checks, "traced batch", r, &want);
        }
        out.traces.push(("engine", profile.tracer));
    } else {
        let runs = repeat_for(cfg.budget(1.0), cfg.min_ops(5), || {
            timed_batch(&s.qnet, &mut s.engine, &s.images).map_err(|e| format!("forward: {e}"))
        });
        out.set("peak_rss_mb", peak_rss_mb()?);
        let batch_ms = median_ms(&runs);
        out.set("latency_ms_p50", batch_ms);
        out.set("throughput_per_s", BATCH as f64 * 1e3 / batch_ms);
        want = reference(&s.qnet, &s.plan, &s.images)?;
        for r in &runs {
            check_batch(&mut out.checks, "batch", &untimed(r), &want);
        }
    }
    out.set("adc_ops_per_image", want.1.ops() as f64 / BATCH as f64);
    out.set("adc_ops_ratio", want.1.remaining_ops_ratio());
    out.set("fidelity", float_agreement(&s.net, &s.images, &want.0)?);
    Ok(out)
}
