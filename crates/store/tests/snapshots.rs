//! Snapshot round-trip and rejection tests.
//!
//! The property that matters: program → capture → save → load → restore
//! must yield a model whose forward outputs **and** [`PimStats`] event
//! ledgers are bit-identical to the engine the snapshot came from, at
//! any thread count. The rejection tests pin the typed error for every
//! way a file can be damaged — wrong magic, future version, truncation,
//! bit rot, garbage payload — and for every hostile part restore must
//! refuse before programming: a bad architecture, activation codes wider
//! than its inputs, an unvalidated ADC scheme, a misnumbered or misshapen
//! layer, an oversized footprint.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use trq_core::arch::{ArchConfig, ExecConfig, MAX_THREADS};
use trq_core::pim::{AdcScheme, PimMvm, PimStats};
use trq_nn::QuantizedNetwork;
use trq_quant::TrqParams;
use trq_store::{
    decode_snapshot, encode_snapshot, fnv1a64, load_latest, load_snapshot, save_generation,
    save_snapshot, ModelSnapshot, StoreError, FORMAT_VERSION, HEADER_LEN, MAGIC,
    MAX_PROGRAMMED_BYTES,
};
use trq_tensor::Tensor;
use trq_xbar::NoiseModel;

/// A fresh scratch directory under the cargo-managed tmp dir.
fn scratch(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{label}-{}", SEQ.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scheme_of(sel: u8) -> AdcScheme {
    match sel % 3 {
        0 => AdcScheme::Ideal,
        1 => AdcScheme::uniform(6, 0.7),
        _ => AdcScheme::Trq(TrqParams::new(3, 7, 1, 1.0, 0).expect("static params")),
    }
}

fn fixture(
    depth: usize,
    hidden: usize,
    seed: u64,
    n_images: usize,
) -> (QuantizedNetwork, Vec<Tensor>) {
    let net = trq_nn::models::mlp(depth, hidden, 4, seed).expect("static topology");
    let images: Vec<Tensor> = (0..n_images)
        .map(|i| {
            let data: Vec<f32> =
                (0..depth).map(|j| (((i * 29 + j * 13) % 23) as f32) * 0.05).collect();
            Tensor::from_vec(vec![depth], data).expect("static shape")
        })
        .collect();
    let qnet = QuantizedNetwork::quantize(&net, &images[..2.min(images.len())])
        .expect("calibration succeeds");
    (qnet, images)
}

/// Programs every layer of `qnet` into a fresh engine under `plan`.
fn programmed_engine(qnet: &QuantizedNetwork, arch: ArchConfig, plan: Vec<AdcScheme>) -> PimMvm {
    let mut engine = PimMvm::new(arch, plan);
    for layer in qnet.layers() {
        engine.program_layer(&layer.info, &layer.weights_q);
    }
    engine
}

/// Forward every image, returning outputs and the cumulative ledger.
fn run_all(
    qnet: &QuantizedNetwork,
    engine: &mut PimMvm,
    images: &[Tensor],
) -> (Vec<Vec<f32>>, PimStats) {
    engine.reset_stats();
    let outputs = images
        .iter()
        .map(|x| qnet.forward(x, engine).expect("forward succeeds").data().to_vec())
        .collect();
    (outputs, engine.stats().clone())
}

proptest! {
    /// program → save → load → forward is bit-identical — values and
    /// event ledgers — for random topologies, random per-layer plans,
    /// and threads ∈ {1, N}.
    #[test]
    fn snapshot_round_trip_is_bit_identical(
        depth in 8usize..24,
        hidden in 4usize..9,
        seed in 0u64..1000,
        scheme_sel in proptest::collection::vec(0u8..3, 3..4),
        threaded in 0usize..2,
    ) {
        let (qnet, images) = fixture(depth, hidden, seed, 4);
        let threads = if threaded == 0 { 1 } else { 3 };
        let arch =
            ArchConfig::default().with_exec(ExecConfig::serial().with_threads(threads));
        let plan: Vec<AdcScheme> = (0..qnet.layers().len())
            .map(|l| scheme_of(scheme_sel[l % scheme_sel.len()]))
            .collect();
        let mut cold = programmed_engine(&qnet, arch, plan);
        let snapshot = ModelSnapshot::capture("prop", &qnet, &cold).expect("fully programmed");

        let dir = scratch("roundtrip");
        let generation = save_generation(&dir, &snapshot).expect("save succeeds");
        let (loaded_generation, loaded) = load_latest(&dir).expect("load succeeds");
        prop_assert_eq!(generation, loaded_generation);
        prop_assert_eq!(&loaded, &snapshot, "decoded snapshot must equal the captured one");

        let (restored_qnet, mut warm) = loaded.restore().expect("restore succeeds");
        let (want, want_stats) = run_all(&qnet, &mut cold, &images);
        let (got, got_stats) = run_all(&restored_qnet, &mut warm, &images);
        prop_assert_eq!(got, want, "restored forward must reproduce the original bits");
        prop_assert_eq!(got_stats, want_stats, "restored ledger must reproduce the original");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One small static snapshot the rejection tests mutate.
fn small_snapshot() -> (QuantizedNetwork, ModelSnapshot) {
    let (qnet, _) = fixture(12, 5, 77, 2);
    let arch = ArchConfig::default();
    let plan = vec![AdcScheme::uniform(6, 0.7); qnet.layers().len()];
    let engine = programmed_engine(&qnet, arch, plan);
    let snapshot = ModelSnapshot::capture("small", &qnet, &engine).expect("fully programmed");
    (qnet, snapshot)
}

#[test]
fn corrupt_magic_is_rejected() {
    let (_, snapshot) = small_snapshot();
    let mut bytes = encode_snapshot(&snapshot).expect("encodable");
    bytes[0] ^= 0x20;
    assert!(matches!(decode_snapshot(&bytes), Err(StoreError::BadMagic)));
}

#[test]
fn future_version_is_rejected() {
    let (_, snapshot) = small_snapshot();
    let mut bytes = encode_snapshot(&snapshot).expect("encodable");
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match decode_snapshot(&bytes) {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncated_payload_is_rejected() {
    let (_, snapshot) = small_snapshot();
    let bytes = encode_snapshot(&snapshot).expect("encodable");
    // every cut inside the payload (and inside the header) must be a
    // typed Truncated error, never a panic
    for cut in [bytes.len() - 1, bytes.len() / 2, HEADER_LEN, HEADER_LEN - 3, 4] {
        match decode_snapshot(&bytes[..cut]) {
            Err(StoreError::Truncated { .. }) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn payload_bit_rot_is_rejected_by_checksum() {
    let (_, snapshot) = small_snapshot();
    let mut bytes = encode_snapshot(&snapshot).expect("encodable");
    let flip_at = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
    bytes[flip_at] ^= 0x01;
    assert!(matches!(decode_snapshot(&bytes), Err(StoreError::ChecksumMismatch { .. })));
}

#[test]
fn well_framed_garbage_payload_is_a_decode_error() {
    // a correctly checksummed envelope around bytes that are not a
    // ModelSnapshot: framing passes, decoding must fail typed
    let payload = br#"{"definitely": "not a snapshot"}"#;
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    assert!(matches!(decode_snapshot(&bytes), Err(StoreError::Decode { .. })));
}

/// Asserts `snapshot` restores to a typed `Invalid` naming `needle`.
fn assert_invalid(snapshot: &ModelSnapshot, needle: &str) {
    match snapshot.restore() {
        Err(StoreError::Invalid { reason }) => assert!(reason.contains(needle), "{reason}"),
        Err(other) => panic!("expected Invalid mentioning {needle:?}, got {other:?}"),
        Ok(_) => panic!("expected Invalid mentioning {needle:?}, restore succeeded"),
    }
}

/// Re-decodes `snapshot` after a textual edit of its JSON payload — how
/// a hostile file reaches fields whose constructors validate them.
fn doctored(snapshot: &ModelSnapshot, from: &str, to: &str) -> ModelSnapshot {
    let json = serde_json::to_string(snapshot).expect("encodable");
    assert!(json.contains(from), "{from:?} not in the payload");
    serde_json::from_str(&json.replacen(from, to, 1)).expect("doctored payload decodes")
}

#[test]
fn doctored_row_count_restores_a_consistent_engine() {
    // capture under the default 128-row arrays, doctor the arch to claim
    // 64 rows: restore programs 64-row arrays, exactly as a fresh engine
    let (qnet, mut snapshot) = small_snapshot();
    snapshot.arch.xbar.rows = 64;
    let (restored_qnet, mut warm) = snapshot.restore().expect("a 64-row arch restores");
    assert_eq!(warm.arch().xbar.rows, 64);
    let mut fresh = programmed_engine(&qnet, snapshot.arch, snapshot.plan.clone());
    let images = fixture(12, 5, 77, 3).1;
    assert_eq!(run_all(&restored_qnet, &mut warm, &images), run_all(&qnet, &mut fresh, &images));
}

#[test]
fn short_plan_engine_captures_one_scheme_per_layer() {
    // an engine whose plan is shorter than the network runs the extra
    // layers Ideal; its snapshot must say so and restore bit-identically
    let (qnet, images) = fixture(12, 5, 77, 3);
    let mut cold = programmed_engine(&qnet, ArchConfig::default(), vec![]);
    let snapshot = ModelSnapshot::capture("short", &qnet, &cold).expect("ideal engine");
    assert_eq!(snapshot.plan, vec![AdcScheme::Ideal; qnet.layers().len()]);
    let (restored_qnet, mut warm) = snapshot.restore().expect("restore succeeds");
    assert_eq!(run_all(&restored_qnet, &mut warm, &images), run_all(&qnet, &mut cold, &images));
}

#[test]
fn noisy_engine_is_refused_at_capture() {
    let (qnet, _) = small_snapshot();
    let noise = NoiseModel { stuck_off_rate: 0.01, seed: 3, ..NoiseModel::ideal() };
    let plan = vec![AdcScheme::uniform(6, 0.7); qnet.layers().len()];
    let engine = PimMvm::new(ArchConfig::default(), plan).with_device_noise(noise);
    match ModelSnapshot::capture("noisy", &qnet, &engine) {
        Err(StoreError::Invalid { reason }) => assert!(reason.contains("noise"), "{reason}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn bad_architecture_is_rejected() {
    let (_, snapshot) = small_snapshot();
    let with = |edit: fn(&mut ArchConfig)| {
        let mut s = snapshot.clone();
        edit(&mut s.arch);
        s
    };
    assert_invalid(&with(|a| a.xbar.rows = 0), "positive");
    assert_invalid(&with(|a| a.xbar.rows = 5000), "4096");
    assert_invalid(&with(|a| a.xbar.dac_bits = 9), "dac_bits");
    assert_invalid(&with(|a| a.weight_bits = 0), "weight bits 0");
    assert_invalid(&with(|a| a.weight_bits = 9), "weight bits 9");
    assert_invalid(&with(|a| a.input_bits = 40), "input bits 40");
}

#[test]
fn activation_codes_wider_than_the_input_bits_are_rejected() {
    // 8-bit activation codes on 4-bit inputs: restoring would succeed and
    // the first forward would panic packing bit-planes
    let (_, snapshot) = small_snapshot();
    assert_eq!(snapshot.qnet.act_qmax(), 255);
    let mut narrow = snapshot.clone();
    narrow.arch.input_bits = 4;
    assert_invalid(&narrow, "activation codes up to 255 do not fit 4 input bits");
    assert_invalid(&doctored(&snapshot, "\"act_qmax\":255", "\"act_qmax\":256"), "256");

    // codes that fit the narrow inputs restore and run
    let fits = doctored(&narrow, "\"act_qmax\":255", "\"act_qmax\":15");
    let (qnet, mut engine) = fits.restore().expect("15 fits 4 input bits");
    let images = fixture(12, 5, 77, 3).1;
    let (outputs, stats) = run_all(&qnet, &mut engine, &images);
    assert_eq!(outputs.len(), images.len());
    assert!(stats.conversions() > 0);
}

#[test]
fn thread_count_past_the_bound_is_rejected() {
    // a hostile payload asking for 10⁶ engine threads: refused by the
    // checks, before an engine exists that could spawn them
    let (_, snapshot) = small_snapshot();
    assert_eq!(snapshot.arch.exec.threads, 1);
    let hostile = doctored(&snapshot, "\"threads\":1,", "\"threads\":1000000,");
    assert_eq!(hostile.arch.exec.threads, 1_000_000);
    assert_invalid(&hostile, "threads");
    let mut at_bound = snapshot.clone();
    at_bound.arch.exec.threads = MAX_THREADS;
    assert!(at_bound.restore().is_ok(), "{MAX_THREADS} threads restore");
}

#[test]
fn plan_not_covering_every_layer_is_rejected() {
    let (_, mut snapshot) = small_snapshot();
    snapshot.plan.pop();
    assert_invalid(&snapshot, "plan covers");
}

#[test]
fn scheme_that_bypassed_its_constructor_is_rejected() {
    let (_, mut snapshot) = small_snapshot();
    snapshot.plan[0] = AdcScheme::Uniform { bits: 40, vgrid: 0.7 };
    assert_invalid(&snapshot, "bits must be in 1..=16");
    snapshot.plan[0] = AdcScheme::Uniform { bits: 6, vgrid: -1.0 };
    assert_invalid(&snapshot, "step");

    // TrqParams fields are private: only a decoded payload reaches them
    snapshot.plan[0] = AdcScheme::Trq(TrqParams::new(3, 7, 1, 1.0, 0).expect("static params"));
    assert_invalid(&doctored(&snapshot, "\"n_r1\":3", "\"n_r1\":40"), "n_r1");
    assert_invalid(&doctored(&snapshot, "\"m\":1", "\"m\":40"), "m must be");
    assert_invalid(&doctored(&snapshot, "\"bias\":0", "\"bias\":4000000"), "bias");

    // constructor-valid, but its R2 codes overflow the packed LUT entry
    snapshot.plan[0] = AdcScheme::Trq(TrqParams::new(2, 16, 16, 1e-9, 0).expect("valid params"));
    assert_invalid(&snapshot, "24-bit");
}

#[test]
fn misnumbered_layer_is_rejected() {
    let (_, snapshot) = small_snapshot();
    assert!(snapshot.qnet.layers().len() >= 2);
    assert_invalid(&doctored(&snapshot, "\"mvm_index\":1,", "\"mvm_index\":0,"), "claims index 0");
}

#[test]
fn weight_count_not_matching_the_geometry_is_rejected() {
    let (_, snapshot) = small_snapshot();
    let depth = snapshot.qnet.layers()[0].info.depth;
    let wrong =
        doctored(&snapshot, &format!("\"depth\":{depth},"), &format!("\"depth\":{},", depth + 1));
    assert_invalid(&wrong, "weight codes");
    // depth x outputs overflows usize: checked, not wrapped into a match
    let huge = format!("\"depth\":{},", usize::MAX / 2);
    assert_invalid(&doctored(&snapshot, &format!("\"depth\":{depth},"), &huge), "weight codes");
}

#[test]
fn footprint_past_the_cap_is_rejected_before_programming() {
    // one input feeding 40 000 hidden units: on 4096-row arrays every
    // weight code of layer 0 costs 8 KiB of planes, ~312 MiB in all
    let (qnet, _) = fixture(1, 40_000, 5, 2);
    let arch = ArchConfig {
        xbar: trq_xbar::CrossbarConfig { rows: 4096, ..ArchConfig::default().xbar },
        ..ArchConfig::default()
    };
    let first = &qnet.layers()[0].info;
    let bytes = PimMvm::programmed_bytes(&arch, first.depth, first.outputs).expect("no overflow");
    assert!(bytes > MAX_PROGRAMMED_BYTES, "{bytes} bytes must exceed the cap");
    let snapshot =
        ModelSnapshot::capture("huge", &qnet, &PimMvm::new(arch, vec![])).expect("ideal");
    assert_invalid(&snapshot, "bytes");
}

#[test]
fn generations_are_sequential_and_load_latest_picks_the_newest() {
    let (_, snapshot) = small_snapshot();
    let dir = scratch("generations");
    assert!(matches!(load_latest(&dir), Err(StoreError::NoSnapshot { .. })));
    assert_eq!(save_generation(&dir, &snapshot).expect("gen 1"), 1);
    let mut second = snapshot.clone();
    second.name = "small-v2".to_string();
    assert_eq!(save_generation(&dir, &second).expect("gen 2"), 2);
    let (generation, loaded) = load_latest(&dir).expect("load succeeds");
    assert_eq!(generation, 2);
    assert_eq!(loaded.name, "small-v2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_snapshot_then_load_snapshot_round_trips_a_single_file() {
    let (_, snapshot) = small_snapshot();
    let dir = scratch("single");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("model.trqs");
    save_snapshot(&path, &snapshot).expect("save succeeds");
    let loaded = load_snapshot(&path).expect("load succeeds");
    assert_eq!(loaded, snapshot);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Format-1 snapshots written by earlier builds carry fields this build
/// no longer has: `"dispatch":"Pool"` inside `ArchConfig.exec` (from
/// before the engine had a single tile executor) and `"on_off_ratio"`
/// inside `ArchConfig.xbar` (from before the analog read path was
/// deleted). Format version 1 must still restore each, bit-identically
/// to the snapshot without the field; a later format version must refuse
/// them with a typed error instead.
#[test]
fn legacy_dispatch_field_in_exec_restores_bit_identically() {
    const LEGACY_VERSION: u32 = 1;
    // (text that occurs once in the payload, what replaces it)
    const SPLICES: [(&str, &str); 2] = [
        ("\"kernel\":", "\"dispatch\":\"Pool\",\"kernel\":"),
        ("\"xbar\":{", "\"xbar\":{\"on_off_ratio\":1000.0,"),
    ];
    let (qnet, snapshot) = small_snapshot();
    let bytes = encode_snapshot(&snapshot).expect("encodable");
    let payload = std::str::from_utf8(&bytes[HEADER_LEN..]).expect("JSON payload");
    let images = fixture(12, 5, 77, 3).1;
    let (_, mut want_engine) = snapshot.restore().expect("restore succeeds");
    let (want, want_stats) = run_all(&qnet, &mut want_engine, &images);
    for (anchor, field) in SPLICES {
        assert_eq!(payload.matches(anchor).count(), 1, "{anchor} must occur once");
        let legacy = payload.replacen(anchor, field, 1);
        let mut framed = Vec::new();
        framed.extend_from_slice(&MAGIC);
        framed.extend_from_slice(&LEGACY_VERSION.to_le_bytes());
        framed.extend_from_slice(&(legacy.len() as u64).to_le_bytes());
        framed.extend_from_slice(&fnv1a64(legacy.as_bytes()).to_le_bytes());
        framed.extend_from_slice(legacy.as_bytes());

        if FORMAT_VERSION != LEGACY_VERSION {
            let refused = decode_snapshot(&framed);
            assert!(matches!(refused, Err(StoreError::UnsupportedVersion { .. })), "{field}");
            continue;
        }
        let decoded = decode_snapshot(&framed).expect("a legacy field decodes");
        assert_eq!(decoded, snapshot, "the legacy {field} must change nothing");
        let (legacy_qnet, mut got_engine) = decoded.restore().expect("legacy restore succeeds");
        let (got, got_stats) = run_all(&legacy_qnet, &mut got_engine, &images);
        assert_eq!(got, want, "legacy {field} restore must reproduce the forward bits");
        assert_eq!(got_stats, want_stats, "legacy {field} restore must reproduce the ledger");
    }
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("encodable")
}

/// Format-1 snapshots once carried the programmed crossbar image as a
/// trailing `programming` array. Such payloads must still decode, with
/// the field skipped, and restore bit-identically by re-programming.
#[test]
fn legacy_programming_field_restores_bit_identically() {
    let (qnet, images) = fixture(12, 5, 77, 3);
    let plan = vec![AdcScheme::uniform(6, 0.7); qnet.layers().len()];
    let mut cold = programmed_engine(&qnet, ArchConfig::default(), plan);
    let snapshot = ModelSnapshot::capture("legacy", &qnet, &cold).expect("ideal engine");
    let layers: Vec<String> = cold
        .export_programming()
        .iter()
        .map(|layer| {
            let subarrays: Vec<String> = layer
                .subarrays
                .iter()
                .map(|sub| {
                    format!(
                        r#"{{"pos":{},"neg":{},"pos_live":{},"neg_live":{}}}"#,
                        to_json(&sub.pos),
                        to_json(&sub.neg),
                        to_json(&sub.pos_live),
                        to_json(&sub.neg_live),
                    )
                })
                .collect();
            format!(
                r#"{{"mvm_index":{},"subarrays":[{}],"lut_entries":{},"lut_delta":{}}}"#,
                layer.mvm_index,
                subarrays.join(","),
                to_json(&layer.lut_entries),
                to_json(&layer.lut_delta),
            )
        })
        .collect();
    let bytes = encode_snapshot(&snapshot).expect("encodable");
    let payload = std::str::from_utf8(&bytes[HEADER_LEN..]).expect("JSON payload");
    let stem = payload.strip_suffix('}').expect("a JSON object");
    let legacy = format!(r#"{stem},"programming":[{}]}}"#, layers.join(","));
    let mut framed = Vec::new();
    framed.extend_from_slice(&MAGIC);
    framed.extend_from_slice(&1u32.to_le_bytes());
    framed.extend_from_slice(&(legacy.len() as u64).to_le_bytes());
    framed.extend_from_slice(&fnv1a64(legacy.as_bytes()).to_le_bytes());
    framed.extend_from_slice(legacy.as_bytes());

    if FORMAT_VERSION != 1 {
        assert!(matches!(decode_snapshot(&framed), Err(StoreError::UnsupportedVersion { .. })));
        return;
    }
    let decoded = decode_snapshot(&framed).expect("a legacy payload decodes");
    assert_eq!(decoded, snapshot, "the legacy field must change nothing");
    let (legacy_qnet, mut warm) = decoded.restore().expect("legacy restore succeeds");
    let (want, want_stats) = run_all(&qnet, &mut cold, &images);
    let (got, got_stats) = run_all(&legacy_qnet, &mut warm, &images);
    assert_eq!(got, want, "legacy restore must reproduce the forward bits");
    assert_eq!(got_stats, want_stats, "legacy restore must reproduce the ledger");
}
