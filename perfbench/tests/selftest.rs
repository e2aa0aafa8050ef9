//! Self-tests of the benchmark: quick-size runs of every workload, the
//! correctness check's failure path, the Algorithm 1 replay, and the
//! engine stage accounting.

use perfbench::report::Checker;
use perfbench::workloads::{arch_with_threads, check_batch, reference, replay_algorithm1};
use perfbench::{Outcome, RunConfig, Workload, END_TO_END, PER_LAYER};
use serde::{Content, DeError, Deserialize};
use std::path::PathBuf;
use trq_core::calib::{algorithm1, collect_bl_samples, CalibSettings, EvalMetric};
use trq_core::pim::{AdcScheme, CollectorConfig};
use trq_nn::{data, models, QuantizedNetwork};
use trq_tensor::Tensor;

fn quick(trace: bool) -> RunConfig {
    RunConfig {
        seed: 3,
        seconds: 0.2,
        trace,
        quick: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest"),
    }
}

fn run(w: Workload, trace: bool) -> Outcome {
    let out = w.run(&quick(trace)).unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
    assert!(out.checks.attempted > 0, "{}: nothing was checked", w.name());
    assert_eq!(out.checks.failed, 0, "{}: {:?}", w.name(), out.checks.notes);
    out
}

/// A parsed JSON value.
struct Json(Content);

impl Deserialize for Json {
    fn deserialize(content: &Content) -> Result<Self, DeError> {
        Ok(Json(content.clone()))
    }
}

fn field<'a>(c: &'a Content, key: &str) -> &'a Content {
    c.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn text(c: &Content) -> &str {
    match c {
        Content::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` pairs of one metric list in a JSON document.
fn listed(doc: &Content, list: &str) -> Vec<(String, String)> {
    field(doc, list)
        .as_seq()
        .expect("a list")
        .iter()
        .map(|m| (text(field(m, "name")).to_string(), text(field(m, "unit")).to_string()))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn benchmark_json_matches_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = serde_json::from_str::<Json>(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("valid JSON")
        .0;
    assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    let names: Vec<&str> = field(&doc, "workloads")
        .as_seq()
        .expect("a list")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for (trace, list) in [(false, END_TO_END), (true, PER_LAYER)] {
            let line = run(w, trace).result_line(trace).expect("complete result");
            let doc = serde_json::from_str::<Json>(&line).expect("valid JSON").0;
            assert_eq!(field(&doc, "correct"), &Content::Bool(true));
            let metrics = field(&doc, "metrics").as_map().expect("a map");
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), text(field(v, "unit")).to_string()))
                .collect();
            assert_eq!(got, owned(list), "{} trace={trace}", w.name());
            if !trace {
                for (name, v) in metrics {
                    let value = field(v, "value").as_f64().expect("a number");
                    assert!(value > 0.0, "{}: {name} = {value}", w.name());
                }
            }
        }
    }
}

#[test]
fn a_corrupted_output_counts_as_failed() {
    let net = models::mlp(28 * 28, 8, 10, 1).unwrap();
    let images: Vec<Tensor> = data::synthetic_digits(3, 2).into_iter().map(|s| s.image).collect();
    let qnet = QuantizedNetwork::quantize(&net, &images).unwrap();
    let plan = vec![AdcScheme::uniform(6, 0.7); qnet.layers().len()];
    let want = reference(&qnet, &plan, &images).unwrap();
    let mut checks = Checker::default();
    check_batch(&mut checks, "clean", &Ok(want.clone()), &want);
    assert_eq!((checks.attempted, checks.failed), (1, 0));

    let mut bad = want.clone();
    bad.0[1].data_mut()[4] += 1e-3;
    check_batch(&mut checks, "corrupted value", &Ok(bad), &want);
    let mut bad = want.clone();
    bad.1.layers[0].ops += 1;
    check_batch(&mut checks, "corrupted ledger", &Ok(bad), &want);
    check_batch(&mut checks, "error", &Err("engine failed".into()), &want);
    assert_eq!((checks.attempted, checks.failed), (4, 3));
}

#[test]
fn algorithm1_replay_chooses_what_algorithm1_chose() {
    let net = models::mlp(28 * 28, 16, 10, 5).unwrap();
    let images: Vec<Tensor> = data::synthetic_digits(8, 9).into_iter().map(|s| s.image).collect();
    let qnet = QuantizedNetwork::quantize(&net, &images).unwrap();
    let arch = arch_with_threads(1);
    let samples = collect_bl_samples(&qnet, &arch, &images, CollectorConfig::default()).unwrap();
    let metric = EvalMetric::Fidelity(&images);
    let settings = CalibSettings { candidates: 12, ..CalibSettings::default() };
    let want = algorithm1(&qnet, &arch, &samples, &metric, &settings).unwrap();
    let mut tracer = perfbench::trace::Tracer::default();
    let got = replay_algorithm1(&qnet, &arch, &samples, &metric, &settings, &mut tracer).unwrap();
    assert_eq!(got.schemes, want.schemes);
    assert_eq!(got.nmax, want.nmax);
    assert_eq!(got.steps, want.visited.len());
    assert_eq!(tracer.durations_ms("calib.plan_network").len(), want.visited.len());
}

#[test]
fn engine_stages_add_up_to_the_forward_time() {
    let out = run(Workload::BatchResnet20, true);
    let m = |k: &str| out.metrics[k];
    let forward = m("nn.forward_ms");
    let stages = m("nn.glue_ms") + m("xbar.pack_ms") + m("xbar.kernel_ms") + m("pim.decode_ms");
    assert!((stages - forward).abs() <= 1e-9 * forward, "{stages} vs {forward}");
    assert!(m("pim.engine_ms") <= forward);
    assert!(m("nn.glue_ms") > 0.0 && m("xbar.pack_ms") > 0.0 && m("xbar.kernel_ms") > 0.0);
    assert_eq!(m("pim.mvm_calls"), 22.0);
    assert!(out.traces.iter().any(|(name, t)| *name == "engine" && !t.spans().is_empty()));
}
