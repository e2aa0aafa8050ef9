//! Server determinism: however requests arrive and coalesce, the served
//! outputs must be **bit-identical** — values and summed engine ledgers —
//! to per-image [`trq_nn::QuantizedNetwork::forward`] calls on one serial
//! engine. Random arrival patterns (interleaved waits force different
//! batch splits) × `max_batch ∈ {1, 4, 7}` × thread counts all land on
//! the same bits.

use proptest::prelude::*;
use trq_core::arch::{ArchConfig, ExecConfig};
use trq_core::pim::{AdcScheme, PimMvm, PimStats};
use trq_nn::QuantizedNetwork;
use trq_serve::{BatchPolicy, Model, Registry, Server, Ticket};
use trq_tensor::Tensor;

const DEPTH: usize = 24;
const IMAGES: usize = 10;

fn fixture() -> (QuantizedNetwork, Vec<Tensor>) {
    let net = trq_nn::models::mlp(DEPTH, 8, 4, 21).expect("static topology");
    let images: Vec<Tensor> = (0..IMAGES)
        .map(|i| {
            let data: Vec<f32> =
                (0..DEPTH).map(|j| (((i * 31 + j * 7) % 17) as f32) * 0.06).collect();
            Tensor::from_vec(vec![DEPTH], data).expect("static shape")
        })
        .collect();
    let qnet = QuantizedNetwork::quantize(&net, &images[..3]).expect("calibration succeeds");
    (qnet, images)
}

fn plan(layers: usize) -> Vec<AdcScheme> {
    vec![AdcScheme::uniform(6, 0.7); layers]
}

/// Serial reference: one engine, one `forward` per image, cumulative
/// ledger — the ground truth every batching schedule must reproduce.
fn serial_reference(
    qnet: &QuantizedNetwork,
    arch: &ArchConfig,
    images: &[Tensor],
) -> (Vec<Vec<f32>>, PimStats) {
    let mut engine = PimMvm::new(*arch, plan(qnet.layers().len()));
    let outputs: Vec<Vec<f32>> = images
        .iter()
        .map(|x| qnet.forward(x, &mut engine).expect("serial forward").data().to_vec())
        .collect();
    (outputs, engine.stats().clone())
}

/// Runs every image through a server under `policy`/`arch`, following the
/// arrival pattern: after submitting image `i`, `wait_now[i]` forces an
/// immediate ticket wait (flushing whatever the batcher holds and ending
/// the current batch split there). Returns outputs in submission order
/// plus the server's summed ledger.
fn serve_all(
    qnet: &QuantizedNetwork,
    arch: &ArchConfig,
    images: &[Tensor],
    policy: BatchPolicy,
    wait_now: &[bool],
) -> (Vec<Vec<f32>>, PimStats, usize) {
    let mut registry = Registry::new();
    let model =
        registry.insert(Model::program("fixture", qnet.clone(), *arch, plan(qnet.layers().len())));
    let server = Server::start(registry, policy);
    let mut outputs: Vec<Option<Vec<f32>>> = vec![None; images.len()];
    let mut pending: Vec<(usize, Ticket)> = Vec::new();
    let mut max_batch_size = 0usize;
    for (i, image) in images.iter().enumerate() {
        let ticket = server.submit(model, image.clone()).expect("queue has room");
        if wait_now[i % wait_now.len()] {
            let response = ticket.wait().expect("served");
            max_batch_size = max_batch_size.max(response.batch_size);
            outputs[i] = Some(response.output.data().to_vec());
        } else {
            pending.push((i, ticket));
        }
    }
    for (i, ticket) in pending {
        let response = ticket.wait().expect("served");
        max_batch_size = max_batch_size.max(response.batch_size);
        outputs[i] = Some(response.output.data().to_vec());
    }
    let report = server.shutdown();
    assert_eq!(report.requests, images.len() as u64);
    assert_eq!(report.failed, 0);
    (
        outputs.into_iter().map(|o| o.expect("every slot answered")).collect(),
        report.stats,
        max_batch_size,
    )
}

proptest! {
    /// Random arrival patterns × batch caps: outputs and summed ledgers
    /// must equal the serial reference bit for bit, and no batch may
    /// exceed the policy cap.
    #[test]
    fn server_is_bit_identical_to_serial_forward(
        wait_now in proptest::collection::vec(proptest::bool::ANY, IMAGES..IMAGES + 1),
        cap_sel in 0usize..3,
    ) {
        let (qnet, images) = fixture();
        let arch = ArchConfig::default();
        let (want, want_stats) = serial_reference(&qnet, &arch, &images);
        let max_batch = [1usize, 4, 7][cap_sel];
        let policy = BatchPolicy::default().with_max_batch(max_batch);
        let (got, got_stats, seen) = serve_all(&qnet, &arch, &images, policy, &wait_now);
        prop_assert_eq!(&got, &want, "served outputs must match per-image forward bits");
        prop_assert_eq!(&got_stats, &want_stats, "summed ledgers must match the serial ledger");
        prop_assert!(seen <= max_batch, "batch {} exceeded cap {}", seen, max_batch);
    }
}

proptest! {
    /// Registry determinism: interleaved submissions against two resident
    /// models — same input shape, so only the model id splits batches —
    /// must reproduce each model's own serial forward bits, per-output
    /// and per-model ledger alike.
    #[test]
    fn interleaved_mixed_model_serving_matches_per_model_serial(
        pick in proptest::collection::vec(proptest::bool::ANY, IMAGES..IMAGES + 1),
        cap_sel in 0usize..3,
    ) {
        let (qnet_a, images) = fixture();
        let net_b = trq_nn::models::mlp(DEPTH, 6, 4, 33).expect("static topology");
        let qnet_b = QuantizedNetwork::quantize(&net_b, &images[..3]).expect("calibration succeeds");
        let arch = ArchConfig::default();
        let split = |want_b: bool| -> Vec<Tensor> {
            images
                .iter()
                .zip(&pick)
                .filter(|(_, &b)| b == want_b)
                .map(|(x, _)| x.clone())
                .collect()
        };
        let (imgs_a, imgs_b) = (split(false), split(true));
        let (want_a, want_stats_a) = serial_reference(&qnet_a, &arch, &imgs_a);
        let (want_b, want_stats_b) = serial_reference(&qnet_b, &arch, &imgs_b);

        let mut registry = Registry::new();
        let id_a =
            registry.insert(Model::program("a", qnet_a.clone(), arch, plan(qnet_a.layers().len())));
        let id_b =
            registry.insert(Model::program("b", qnet_b.clone(), arch, plan(qnet_b.layers().len())));
        let policy = BatchPolicy::default()
            .with_max_batch([1usize, 4, 7][cap_sel]);
        let server = Server::start(registry, policy);
        let tickets: Vec<(bool, Ticket)> = images
            .iter()
            .zip(&pick)
            .map(|(image, &b)| {
                let id = if b { id_b } else { id_a };
                (b, server.submit(id, image.clone()).expect("queue has room"))
            })
            .collect();
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        for (b, ticket) in tickets {
            let response = ticket.wait().expect("served");
            prop_assert_eq!(response.model, if b { id_b } else { id_a });
            let bucket = if b { &mut got_b } else { &mut got_a };
            bucket.push(response.output.data().to_vec());
        }
        let report = server.shutdown();
        prop_assert_eq!(&got_a, &want_a, "model a outputs must match its serial forward bits");
        prop_assert_eq!(&got_b, &want_b, "model b outputs must match its serial forward bits");
        let usage = |id| report.model_usage(id).map(|u| u.stats.clone()).unwrap_or_default();
        prop_assert_eq!(usage(id_a), want_stats_a, "model a ledger must match its serial ledger");
        prop_assert_eq!(usage(id_b), want_stats_b, "model b ledger must match its serial ledger");
        let mut combined = PimStats::default();
        combined.merge(&usage(id_a));
        combined.merge(&usage(id_b));
        prop_assert_eq!(report.stats, combined, "global ledger is the per-model sum");
    }
}

#[test]
fn threaded_pool_serving_matches_serial_forward() {
    // the engine side of the batcher runs threaded tile rounds on the
    // persistent pool; results must still be the serial bits
    let (qnet, images) = fixture();
    let arch = ArchConfig::default()
        .with_exec(ExecConfig::serial().with_threads(2).with_tile_outputs(2).with_tile_windows(2));
    let serial_arch = ArchConfig::default();
    let (want, want_stats) = serial_reference(&qnet, &serial_arch, &images);
    let policy = BatchPolicy::default().with_max_batch(4);
    let wait_now = vec![false; IMAGES];
    let (got, got_stats, _) = serve_all(&qnet, &arch, &images, policy, &wait_now);
    assert_eq!(got, want, "threaded serving must not change bits");
    assert_eq!(got_stats, want_stats, "threaded serving must not change the ledger");
}
