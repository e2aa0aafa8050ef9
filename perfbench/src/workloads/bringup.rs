//! `bringup-mlp`: cold start, then restore, of the trained 784×32×10 MLP
//! on one engine thread.
//!
//! A cold start is quantize → `collect_bl_samples` → `algorithm1`
//! (default `CalibSettings`, fidelity metric) → `Model::program` →
//! `save_generation`; a restore is one `Model::load_latest`.

use super::{
    check_batch, median_ms, repeated_setup, same_bits, stage_profile, thread_pairs, trained_mlp,
    untimed, RunConfig, Workload,
};
use crate::engine::repeat_for;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, ms};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trq_core::arch::ArchConfig;
use trq_core::calib::{
    algorithm1, collect_bl_samples, evaluate_plan, plan_network, Algorithm1Result, CalibSettings,
    EvalMetric,
};
use trq_core::pim::{AdcScheme, CollectorConfig, LayerSamples, PimStats};
use trq_nn::{data, Network, QuantizedNetwork};
use trq_serve::Model;
use trq_tensor::Tensor;

/// Calibration images (activation scales, bit-line samples), as many as
/// the paper uses. With a dozen, fc2's count distribution is judged
/// skewed for some seeds and not for others, and the two judgements
/// cost a factor of four apart in the parameter search.
const CAL_IMAGES: usize = 32;
/// Images Algorithm 1's fidelity metric is scored on. The accepted
/// `N_max` is where the score first drops by more than θ = 0.01; one
/// step below it the drop is ~2.5 %, and the score must resolve that
/// gap for every seed. With 256 images its standard error is ~1 %, and
/// one seed in seven stopped a step later (a quarter more work); with
/// 1 024 it is ~0.5 %.
const EVAL_IMAGES: usize = 1024;
/// Restores after each cold start: about a third of the round's time.
const RESTORES_PER_ROUND: usize = 60;
/// Calibration images every restored or installed model must reproduce
/// the cold model's outputs and ledger on.
const CHECK_IMAGES: usize = 8;
/// Span of one whole cold start; its children are the stages.
const COLD_START: &str = "bringup.cold_start";

struct Setup {
    net: Network,
    images: Vec<Tensor>,
    eval: Vec<Tensor>,
    arch: ArchConfig,
    dir: PathBuf,
}

fn setup(net: &Network, seed: u64, dir: &Path) -> Setup {
    let digits = |n, salt: u64| -> Vec<Tensor> {
        data::synthetic_digits(n, seed ^ salt).into_iter().map(|s| s.image).collect()
    };
    let (images, eval) = (digits(CAL_IMAGES, 0), digits(EVAL_IMAGES, 0x5eed));
    Setup {
        net: net.clone(),
        images,
        eval,
        arch: Workload::BringupMlp.arch(),
        dir: dir.to_path_buf(),
    }
}

/// An empty snapshot directory of this process under `out_dir`.
fn store_dir(out_dir: &Path) -> Result<PathBuf, String> {
    let dir = out_dir.join(format!("bringup-store-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// What one cold start produced.
struct ColdStart {
    qnet: QuantizedNetwork,
    samples: Vec<LayerSamples>,
    result: Algorithm1Result,
    model: Model,
    generation: u64,
}

/// Runs `f`, inside a span called `name` when tracing.
fn stage<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => {
            let span = t.open(name);
            let v = f();
            t.close(span);
            v
        }
        None => f(),
    }
}

fn cold_start(s: &Setup, mut tracer: Option<&mut Tracer>) -> Result<ColdStart, String> {
    let root = tracer.as_mut().map(|t| t.open(COLD_START));
    let qnet =
        stage(&mut tracer, "quant.quantize", || QuantizedNetwork::quantize(&s.net, &s.images))
            .map_err(|e| format!("quantize: {e}"))?;
    let samples = stage(&mut tracer, "calib.collect", || {
        collect_bl_samples(&qnet, &s.arch, &s.images, CollectorConfig::default())
    })
    .map_err(|e| format!("collect: {e}"))?;
    let metric = EvalMetric::Fidelity(&s.eval);
    let result = stage(&mut tracer, "calib.algorithm1", || {
        algorithm1(&qnet, &s.arch, &samples, &metric, &CalibSettings::default())
    })
    .map_err(|e| format!("algorithm1: {e}"))?;
    let model = stage(&mut tracer, "pim.program", || {
        Model::program("mlp", qnet.clone(), s.arch, result.schemes.clone())
    });
    let generation = stage(&mut tracer, "store.save", || model.save_generation(&s.dir))
        .map_err(|e| format!("save: {e}"))?;
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    Ok(ColdStart { qnet, samples, result, model, generation })
}

pub(super) fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let net = trained_mlp()?;
    let dir = store_dir(&cfg.out_dir)?;
    let (s, setup_s) = repeated_setup(cfg, || Ok(setup(&net, cfg.seed, &dir)))?;
    out.set("setup_s", setup_s);
    let result = measure(cfg, &s, &mut out);
    let _ = std::fs::remove_dir_all(&s.dir);
    result.map(|()| out)
}

/// What the checks need of one cold start. Only the newest cold start is
/// kept whole (model, samples), so memory does not grow with their number.
struct Summary {
    schemes: Vec<AdcScheme>,
    meets_theta: bool,
    generation: u64,
}

/// Summarises `c` and keeps it as the newest whole cold start.
fn keep(newest: &mut Option<ColdStart>, c: Result<ColdStart, String>) -> Result<Summary, String> {
    let c = c?;
    let summary = Summary {
        schemes: c.result.schemes.clone(),
        meets_theta: c.result.reference_score - c.result.score <= CalibSettings::default().theta,
        generation: c.generation,
    };
    *newest = Some(c);
    Ok(summary)
}

fn measure(cfg: &RunConfig, s: &Setup, out: &mut Outcome) -> Result<(), String> {
    let mut newest: Option<ColdStart> = None;
    let mut tracer = Tracer::default();
    // untraced cold-start times; every cold start's summary, in order
    let (mut colds, mut starts, mut restores) = (Vec::new(), Vec::new(), Vec::new());
    // rounds of one cold start (and one traced, in a traced run) followed
    // by restores of the generation it wrote, so both metrics sample the
    // whole run
    let t0 = Instant::now();
    while colds.len() < cfg.min_ops(3) || t0.elapsed() < cfg.budget(1.0) {
        let t = Instant::now();
        let c = cold_start(s, None);
        colds.push(ms(t.elapsed()));
        starts.push(keep(&mut newest, c));
        if cfg.trace {
            starts.push(keep(&mut newest, cold_start(s, Some(&mut tracer))));
        }
        let expected = newest.as_ref().map(|c| c.generation);
        for _ in 0..cfg.min_ops(RESTORES_PER_ROUND) {
            // each restore is timed alone; its check runs after the timer
            let t = Instant::now();
            let loaded = Model::load_latest(&s.dir);
            let dt = ms(t.elapsed());
            let checked = loaded.map_err(|e| format!("load_latest: {e}")).and_then(|(g, mut m)| {
                let run = m.run_batch(&s.images[..CHECK_IMAGES]);
                Ok((g, run.map_err(|e| format!("restored forward: {e}"))?))
            });
            restores.push((dt, expected, checked));
        }
    }
    let cold_ms = median(&colds);
    let mut last = newest.ok_or("every cold start failed")?;
    if !cfg.trace {
        out.set("peak_rss_mb", peak_rss_mb()?);
        out.set("latency_ms_p50", cold_ms);
        out.set(
            "throughput_per_s",
            1e3 / median(&restores.iter().map(|r| r.0).collect::<Vec<_>>()),
        );
    }

    // references, after the timed phases: the newest cold model's own
    // outputs and ledger, and every plan against it and θ
    let forward =
        |m: &mut Model, x: &[Tensor]| m.run_batch(x).map_err(|e| format!("cold forward: {e}"));
    let want = forward(&mut last.model, &s.images[..CHECK_IMAGES])?;
    let eval_stats = forward(&mut last.model, &s.eval)?.1;
    let checks = &mut out.checks;
    for (i, c) in starts.iter().enumerate() {
        match c {
            Ok(c) => checks.check(
                c.schemes == last.result.schemes && c.meets_theta && c.generation as usize == i + 1,
                || format!("cold start {i}: plan differs, misses θ, or wrong generation"),
            ),
            Err(e) => checks.fail(format!("cold start {i}: {e}")),
        }
    }
    for (i, (_, expected, r)) in restores.iter().enumerate() {
        match r {
            Ok((generation, (outputs, stats))) => checks.check(
                Some(*generation) == *expected && same_bits(outputs, &want.0) && *stats == want.1,
                || format!("restore {i}: generation {generation} or its outputs/ledger differ"),
            ),
            Err(e) => checks.fail(format!("restore {i}: {e}")),
        }
    }
    out.set("adc_ops_per_image", eval_stats.ops() as f64 / EVAL_IMAGES as f64);
    out.set("adc_ops_ratio", eval_stats.remaining_ops_ratio());
    out.set("fidelity", last.result.score);
    if cfg.trace {
        traced(cfg, s, out, &last, &want, cold_ms, tracer)?;
    }
    Ok(())
}

/// What the replay of Algorithm 1's `N_max` descent chose.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// The accepted per-layer schemes.
    pub schemes: Vec<AdcScheme>,
    /// The accepted `N_max`.
    pub nmax: u32,
    /// `N_max` values visited, the rejected one included.
    pub steps: usize,
}

/// Replays `algorithm1`'s `N_max` descent through the public
/// `plan_network` and `evaluate_plan`, each call in a span of its own
/// name, so the search's two costs are timed separately. It must choose
/// what `algorithm1` chose.
///
/// # Errors
///
/// An evaluation forward pass failed.
pub fn replay_algorithm1(
    qnet: &QuantizedNetwork,
    arch: &ArchConfig,
    samples: &[LayerSamples],
    metric: &EvalMetric<'_>,
    settings: &CalibSettings,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let mut tracer = Some(tracer);
    let evaluate = |plan: &[AdcScheme], tracer: &mut Option<&mut Tracer>| {
        stage(tracer, "calib.evaluate_plan", || evaluate_plan(qnet, arch, plan, metric))
            .map_err(|e| format!("evaluate_plan: {e}"))
    };
    let reference = evaluate(&vec![AdcScheme::Ideal; qnet.layers().len()], &mut tracer)?;
    let mut nmax = arch.adc_bits.saturating_sub(1).max(1);
    let (mut accepted, mut steps) = (None, 0);
    loop {
        steps += 1;
        let plans = stage(&mut tracer, "calib.plan_network", || {
            plan_network(samples, arch, nmax, settings)
        });
        let schemes: Vec<AdcScheme> = plans.iter().map(|p| p.scheme).collect();
        let eval = evaluate(&schemes, &mut tracer)?;
        if reference.score - eval.score > settings.theta {
            break;
        }
        accepted = Some((schemes, nmax));
        if nmax == 1 {
            break;
        }
        nmax -= 1;
    }
    let (schemes, nmax) = accepted.ok_or("no N_max met the threshold")?;
    Ok(Replay { schemes, nmax, steps })
}

/// Per-layer metrics of a traced run: cold-start stages from the traced
/// cold starts, a replay of Algorithm 1's N_max descent, the snapshot
/// decode and install replays, and the calibrated model's engine profile.
fn traced(
    cfg: &RunConfig,
    s: &Setup,
    out: &mut Outcome,
    last: &ColdStart,
    want: &(Vec<Tensor>, PimStats),
    untraced: f64,
    mut tracer: Tracer,
) -> Result<(), String> {
    out.set("trace.overhead_frac", median(&tracer.durations_ms(COLD_START)) / untraced - 1.0);
    for (span, metric) in [
        ("quant.quantize", "quant.quantize_ms"),
        ("calib.collect", "calib.collect_ms"),
        ("pim.program", "pim.program_ms"),
        ("store.save", "store.save_ms"),
    ] {
        out.set(metric, median(&tracer.durations_ms(span)));
    }

    let metric = EvalMetric::Fidelity(&s.eval);
    let settings = CalibSettings::default();
    let replay =
        replay_algorithm1(&last.qnet, &s.arch, &last.samples, &metric, &settings, &mut tracer);
    let steps = replay.as_ref().map_or(0, |r| r.steps);
    out.checks.check(
        replay.as_ref().is_ok_and(|r| {
            r.schemes == last.result.schemes
                && r.nmax == last.result.nmax
                && r.steps == last.result.visited.len()
        }),
        || format!("Algorithm 1 replay chose another plan than algorithm1 ({replay:?})"),
    );
    out.set("calib.nmax_steps", steps as f64);
    out.set("calib.plan_network_ms", median(&tracer.durations_ms("calib.plan_network")));
    out.set("calib.evaluate_plan_ms", median(&tracer.durations_ms("calib.evaluate_plan")));

    // snapshot decode and install, on bytes already in memory
    let (_, path) = trq_store::latest_generation(&s.dir)
        .map_err(|e| e.to_string())?
        .ok_or("no snapshot generation written")?;
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    out.set("store.snapshot_kb", bytes.len() as f64 / 1024.0);
    let decodes = repeat_for(cfg.budget(0.05), cfg.min_ops(10), || {
        let span = tracer.open("store.decode");
        let snapshot = trq_store::decode_snapshot(&bytes);
        tracer.close(span);
        let span = tracer.open("store.install");
        let model = snapshot
            .map_err(|e| e.to_string())
            .and_then(|snap| Model::from_snapshot(&snap).map_err(|e| e.to_string()));
        tracer.close(span);
        model.and_then(|mut m| m.run_batch(&s.images[..CHECK_IMAGES]).map_err(|e| e.to_string()))
    });
    out.set("store.decode_ms", median(&tracer.durations_ms("store.decode")));
    out.set("store.install_ms", median(&tracer.durations_ms("store.install")));
    for (i, run) in decodes.iter().enumerate() {
        check_batch(&mut out.checks, &format!("installed snapshot {i}"), run, want);
    }

    // the calibrated model's engine on the evaluation batch
    let profile = stage_profile(
        out,
        &last.qnet,
        s.arch,
        &last.result.schemes,
        &s.images[..CHECK_IMAGES],
        cfg.budget(0.05),
        cfg.min_ops(5),
    );
    for r in &profile.batches {
        check_batch(&mut out.checks, "profile batch", r, want);
    }
    let (one, two) = thread_pairs(
        &last.qnet,
        &last.result.schemes,
        &s.images[..CHECK_IMAGES],
        cfg.budget(0.05),
        cfg.min_ops(5),
    );
    for r in one.iter().chain(&two) {
        check_batch(&mut out.checks, "thread-scaling batch", &untimed(r), want);
    }
    out.set("exec.speedup", median_ms(&one) / median_ms(&two));
    out.traces.push(("bringup", tracer));
    out.traces.push(("engine", profile.tracer));
    Ok(())
}
