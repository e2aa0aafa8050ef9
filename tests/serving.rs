//! Facade-level serving test: `trq::serve` must produce bit-identical
//! outputs and summed ledgers vs per-image `forward` at every batch cap
//! in {1, 4, 16} (1 is the unbatched baseline, 16 the default), and
//! resolve every ticket on shutdown. Exercises the prelude import
//! surface end to end.

use trq::prelude::*;

#[test]
fn serving_matches_per_image_forward_for_all_bench_batch_sizes() {
    let net = models::mlp(28 * 28, 12, 10, 5).unwrap();
    let ds = data::synthetic_digits(12, 4);
    let images: Vec<Tensor> = ds.iter().map(|s| s.image.clone()).collect();
    let qnet = QuantizedNetwork::quantize(&net, &images[..4]).unwrap();
    let arch = ArchConfig::default();
    let plan = vec![AdcScheme::uniform(6, 0.7); qnet.layers().len()];

    // serial reference: one engine, one forward per image
    let mut reference = PimMvm::new(arch, plan.clone());
    let want: Vec<Vec<f32>> =
        images.iter().map(|x| qnet.forward(x, &mut reference).unwrap().data().to_vec()).collect();
    let want_stats = reference.stats().clone();

    for max_batch in [1usize, 4, 16] {
        let policy = BatchPolicy::default().with_max_batch(max_batch);
        let mut registry = Registry::new();
        let model = registry.insert(Model::program("mlp", qnet.clone(), arch, plan.clone()));
        let server = Server::start(registry, policy);
        let tickets: Vec<_> = images
            .iter()
            .map(|x| server.submit(model, x.clone()).expect("queue has room"))
            .collect();
        for (ticket, want_out) in tickets.into_iter().zip(&want) {
            let response = ticket.wait().expect("served");
            assert_eq!(response.model, model);
            assert!(response.batch_size <= max_batch, "batch cap violated at {max_batch}");
            assert_eq!(
                response.output.data(),
                &want_out[..],
                "serving at max_batch={max_batch} must be bit-identical to forward"
            );
        }
        let report = server.shutdown();
        assert_eq!(report.requests, images.len() as u64);
        assert_eq!(report.failed, 0);
        assert_eq!(
            report.stats, want_stats,
            "summed ledgers at max_batch={max_batch} must equal the serial ledger"
        );
        let usage = report.model_usage(model).expect("model served");
        assert_eq!(usage.stats, want_stats, "per-model ledger equals the global one");
    }
}
