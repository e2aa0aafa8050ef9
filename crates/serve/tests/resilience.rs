//! Resilience under faults: the invariant these tests defend is that
//! **every submitted ticket resolves exactly once with a typed outcome**
//! — across arbitrary seeded fault schedules (errors, panics,
//! wrong-count replies, delays), shed policies, deadlines, quarantine
//! trips, shutdown races, and thread counts. Alongside it: a faulting
//! model must not perturb its neighbours (healthy models' outputs and
//! ledgers stay bit-identical to the serial reference), and a
//! quarantined model comes back once its backoff probe succeeds.
//!
//! The multi-threaded runs follow `TRQ_THREADS` (default 4, min 2), so
//! CI can pin the worker count.

use proptest::prelude::*;
use std::time::Duration;
use trq_core::arch::{ArchConfig, ExecConfig};
use trq_core::pim::{AdcScheme, PimMvm, PimStats};
use trq_nn::QuantizedNetwork;
use trq_serve::{
    BatchPolicy, FaultPlan, Model, ModelId, QuarantinePolicy, Registry, RegistryBackend,
    ServeError, Server, Ticket,
};
use trq_tensor::Tensor;

const DEPTH: usize = 24;
const IMAGES: usize = 8;

/// Generous bound on "resolves": a ticket still unresolved after this is
/// an orphan (the invariant the whole suite exists to catch).
const RESOLVE: Duration = Duration::from_secs(20);

fn threads() -> usize {
    std::env::var("TRQ_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4).max(2)
}

fn fixture(seed: u64) -> (QuantizedNetwork, Vec<Tensor>) {
    let net = trq_nn::models::mlp(DEPTH, 8, 4, seed).expect("static topology");
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

/// The typed outcomes an injected fault (or its quarantine aftermath) is
/// allowed to surface on a ticket. Anything else — and especially no
/// outcome at all — is a bug.
fn is_fault_outcome(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Forward(_)
            | ServeError::BatchPanicked
            | ServeError::BadBatchOutput { .. }
            | ServeError::ModelQuarantined(_)
            | ServeError::RecoveryFailed { .. }
    )
}

/// A tiny image for closure-backend (non-engine) servers.
fn tag_image(tag: f32) -> Tensor {
    Tensor::from_vec(vec![4], vec![tag, tag + 0.5, -tag, 1.0]).expect("static shape")
}

/// A fresh scratch directory under the cargo-managed tmp dir.
fn scratch(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{label}-{}", SEQ.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {

    /// The headline invariant: a seeded fault storm targeting one model
    /// (errors × panics × wrong-count replies × delays, with or without
    /// quarantine, serial or threaded engines) never orphans a ticket,
    /// and the *untargeted* model's outputs and ledger stay bit-identical
    /// to its serial reference.
    #[test]
    fn fault_storms_never_orphan_tickets_and_spare_healthy_models(
        seed in 0u64..u64::MAX,
        w_error in 0u32..3,
        w_panic in 0u32..3,
        w_wrong in 0u32..3,
        w_delay in 0u32..2,
        cap_sel in 0usize..3,
        threaded in proptest::bool::ANY,
        quarantine_on in proptest::bool::ANY,
    ) {
        let (qnet_healthy, images) = fixture(9);
        let (qnet_sick, _) = fixture(13);
        let arch = if threaded {
            ArchConfig::default().with_exec(
                ExecConfig::serial().with_threads(threads()).with_tile_outputs(2).with_tile_windows(2),
            )
        } else {
            ArchConfig::default()
        };
        let serial_arch = ArchConfig::default();
        let (want_healthy, want_healthy_stats) = serial_reference(&qnet_healthy, &serial_arch, &images);
        let (want_sick, _) = serial_reference(&qnet_sick, &serial_arch, &images);

        let mut registry = Registry::new();
        let healthy = registry.insert(Model::program(
            "healthy", qnet_healthy.clone(), arch, plan(qnet_healthy.layers().len()),
        ));
        let sick = registry.insert(Model::program(
            "sick", qnet_sick.clone(), arch, plan(qnet_sick.layers().len()),
        ));
        let storm = FaultPlan::new(seed)
            .with_weights([1, w_error, w_panic, w_wrong, w_delay])
            .with_delay(Duration::from_millis(1))
            .targeting(vec![sick]);
        let quarantine = if quarantine_on {
            QuarantinePolicy::default()
                .with_threshold(2)
                .with_backoff(Duration::from_millis(1), 2, Duration::from_millis(50))
        } else {
            QuarantinePolicy::disabled()
        };
        let policy = BatchPolicy::default()
            .with_max_batch([1usize, 3, 7][cap_sel])
            .with_queue_cap(64)
            .with_quarantine(quarantine);
        let server = Server::with_worker(policy, move |source| {
            source.serve(storm.shim(RegistryBackend::new(registry)))
        });

        // interleave healthy and sick submissions; a submit refused at
        // the gate (quarantine) is itself a typed resolution
        let mut tickets: Vec<(bool, usize, Ticket)> = Vec::new();
        let mut refused_at_gate = 0usize;
        for (i, image) in images.iter().enumerate() {
            let t = server.submit(healthy, image.clone()).expect("healthy model always admits");
            tickets.push((true, i, t));
            match server.submit(sick, image.clone()) {
                Ok(t) => tickets.push((false, i, t)),
                Err(ServeError::ModelQuarantined(id)) => {
                    prop_assert_eq!(id, sick);
                    prop_assert!(quarantine_on, "quarantine refusals need quarantine enabled");
                    refused_at_gate += 1;
                }
                Err(e) => prop_assert!(false, "unexpected gate refusal: {e}"),
            }
        }

        let mut ok_tickets = 0u64;
        for (is_healthy, i, ticket) in tickets {
            ok_tickets += 1;
            let outcome = ticket.wait_timeout(RESOLVE);
            let Some(outcome) = outcome else {
                prop_assert!(false, "orphaned ticket (model healthy={is_healthy}, image {i})");
                return Ok(());
            };
            match outcome {
                Ok(response) => {
                    let want = if is_healthy { &want_healthy[i] } else { &want_sick[i] };
                    prop_assert_eq!(
                        response.output.data(), &want[..],
                        "served bits must match the serial forward (healthy={})", is_healthy
                    );
                }
                Err(e) => {
                    prop_assert!(!is_healthy, "healthy model must not fail: {e}");
                    prop_assert!(is_fault_outcome(&e), "untyped outcome for a fault: {e}");
                }
            }
        }

        let report = server.shutdown();
        prop_assert_eq!(
            report.requests + report.failed, ok_tickets,
            "every admitted ticket lands in exactly one report bucket"
        );
        prop_assert_eq!(report.shed, 0);
        prop_assert_eq!(report.deadline_expired, 0);
        if !quarantine_on {
            prop_assert_eq!(report.quarantine_trips, 0);
            prop_assert_eq!(refused_at_gate, 0);
        }
        let usage = report.model_usage(healthy).map(|u| u.stats.clone()).unwrap_or_default();
        prop_assert_eq!(
            usage, want_healthy_stats,
            "a faulting neighbour must not perturb the healthy model's ledger"
        );
    }
}

proptest! {

    /// Shutdown racing a fault storm (panics, delays, errors,
    /// wrong-count replies) still resolves every outstanding ticket —
    /// no hang, no leak — and submits after the shutdown line get the
    /// typed [`ServeError::ShuttingDown`]. A storm that quarantines the
    /// model first gets its submits refused with the typed
    /// [`ServeError::ModelQuarantined`]; any other refusal fails.
    #[test]
    fn shutdown_races_fault_storms_without_orphans(
        seed in 0u64..u64::MAX,
        w_error in 0u32..2,
        w_panic in 0u32..4,
        w_wrong in 0u32..2,
        w_delay in 0u32..4,
        shutdown_after in 0usize..12,
        cap_sel in 0usize..2,
    ) {
        let storm = FaultPlan::new(seed)
            .with_weights([1, w_error, w_panic, w_wrong, w_delay])
            .with_delay(Duration::from_millis(1));
        let policy = BatchPolicy::default()
            .with_max_batch([1usize, 3][cap_sel]);
        let model = ModelId::new(0);
        let server = Server::with_worker(policy, move |source| {
            source.serve(storm.shim(|_model: ModelId, images: &[Tensor]| {
                Ok((images.to_vec(), PimStats::default()))
            }))
        });

        let mut tickets = Vec::new();
        let mut refused = 0u64;
        for i in 0..12usize {
            if i == shutdown_after {
                server.begin_shutdown();
            }
            match server.submit(model, tag_image(i as f32)) {
                Ok(t) => tickets.push((i, t)),
                Err(ServeError::ShuttingDown) => {
                    prop_assert!(i >= shutdown_after, "refused before the shutdown line");
                    refused += 1;
                }
                // the storm can trip the default quarantine before the
                // shutdown line: a typed refusal too, on either side of it
                Err(ServeError::ModelQuarantined(id)) => {
                    prop_assert_eq!(id, model);
                    refused += 1;
                }
                Err(e) => prop_assert!(false, "unexpected refusal: {e}"),
            }
        }
        let admitted = tickets.len() as u64;
        for (i, ticket) in tickets {
            match ticket.wait_timeout(RESOLVE) {
                None => prop_assert!(false, "orphaned ticket {i} across shutdown race"),
                Some(Ok(response)) => {
                    prop_assert_eq!(response.output.data(), tag_image(i as f32).data());
                }
                Some(Err(e)) => prop_assert!(
                    is_fault_outcome(&e) || matches!(e, ServeError::WorkerLost),
                    "untyped outcome: {e}"
                ),
            }
        }
        let report = server.shutdown();
        prop_assert_eq!(report.requests + report.failed, admitted);
        prop_assert!(refused + admitted == 12);
    }
}

/// After a panic storm tears through a closure-backed server, the global
/// worker pool must still serve a real engine-backed registry server
/// bit-identically — storms may not leak state into the pool.
#[test]
fn pool_is_serviceable_after_a_panic_storm() {
    let storm = FaultPlan::new(77).with_weights([0, 0, 1, 0, 0]); // all panics
    let policy =
        BatchPolicy::default().with_max_batch(2).with_quarantine(QuarantinePolicy::disabled());
    let server =
        Server::with_worker(policy, move |source| {
            source.serve(storm.shim(|_model: ModelId, images: &[Tensor]| {
                Ok((images.to_vec(), PimStats::default()))
            }))
        });
    let tickets: Vec<Ticket> = (0..6)
        .map(|i| server.submit(ModelId::new(0), tag_image(i as f32)).expect("queue has room"))
        .collect();
    for ticket in tickets {
        match ticket.wait_timeout(RESOLVE) {
            Some(Err(ServeError::BatchPanicked)) => {}
            other => panic!("all-panic storm must fail every ticket typed: {other:?}"),
        }
    }
    server.shutdown();

    // the pool the engines dispatch to is untouched by the storm
    let (qnet, images) = fixture(9);
    let arch = ArchConfig::default().with_exec(
        ExecConfig::serial().with_threads(threads()).with_tile_outputs(2).with_tile_windows(2),
    );
    let (want, _) = serial_reference(&qnet, &ArchConfig::default(), &images);
    let mut registry = Registry::new();
    let id =
        registry.insert(Model::program("after", qnet.clone(), arch, plan(qnet.layers().len())));
    let server = Server::start(registry, BatchPolicy::default());
    for (i, image) in images.iter().enumerate() {
        let response =
            server.submit(id, image.clone()).expect("fresh server admits").wait().expect("serves");
        assert_eq!(response.output.data(), &want[i][..], "pool damaged by the storm");
    }
    server.shutdown();
}

/// The full quarantine arc, end to end through the snapshot store: a
/// fault storm trips quarantine, the first backoff probe fails (re-trip,
/// longer backoff), the storm's budget runs out, the next probe reloads
/// the latest snapshot generation and succeeds, and the model serves
/// again. Deterministic: the storm is seeded and the sleeps only ever
/// *overshoot* the backoff.
#[test]
fn quarantined_model_reinstates_after_backoff_probe_succeeds() {
    let dir = scratch("quarantine-reinstate");
    let (qnet, images) = fixture(9);
    let arch = ArchConfig::default();
    let (want, _) = serial_reference(&qnet, &arch, &images);
    let model = Model::program("sick", qnet.clone(), arch, plan(qnet.layers().len()));
    model.save_generation(&dir).expect("snapshot written");
    let mut registry = Registry::new();
    let id = registry.insert_with_store(model, &dir);

    // the first two batches error, then the storm is spent
    let storm = FaultPlan::new(5).with_weights([0, 1, 0, 0, 0]).with_fault_budget(2);
    let backoff = Duration::from_millis(5);
    let policy = BatchPolicy::default().with_max_batch(1).with_quarantine(
        QuarantinePolicy::default().with_threshold(1).with_backoff(
            backoff,
            2,
            Duration::from_millis(100),
        ),
    );
    let server = Server::with_worker(policy, move |source| {
        source.serve(storm.shim(RegistryBackend::new(registry)))
    });

    // batch 1: injected error -> threshold 1 trips quarantine
    let t = server.submit(id, images[0].clone()).expect("admitted before the storm hits");
    assert!(matches!(t.wait(), Err(ServeError::Forward(_))), "first batch errors");
    assert!(
        matches!(server.submit(id, images[1].clone()), Err(ServeError::ModelQuarantined(_))),
        "quarantine refuses at the gate inside the backoff window"
    );

    // probe 1 (after backoff): recovery reloads the snapshot, but the
    // storm still has budget -> re-trip with doubled backoff
    std::thread::sleep(backoff + Duration::from_millis(1));
    let t = server.submit(id, images[1].clone()).expect("backoff elapsed: probe admitted");
    assert!(matches!(t.wait(), Err(ServeError::Forward(_))), "probe batch still faults");

    // probe 2 (after the doubled backoff): the budget is spent, the
    // reloaded model serves, and the quarantine lifts
    std::thread::sleep(backoff * 2 + Duration::from_millis(1));
    let t = server.submit(id, images[2].clone()).expect("second probe admitted");
    let response = t.wait().expect("storm over: the probe succeeds");
    assert_eq!(response.output.data(), &want[2][..], "reloaded model serves the serial bits");

    // reinstated: subsequent requests flow with no backoff gate
    for i in 3..images.len() {
        let response = server
            .submit(id, images[i].clone())
            .expect("reinstated model admits")
            .wait()
            .expect("reinstated model serves");
        assert_eq!(response.output.data(), &want[i][..]);
    }

    let report = server.shutdown();
    assert_eq!(report.quarantine_trips, 2, "initial trip + failed probe re-trip");
    assert_eq!(report.quarantine_reinstates, 1);
    assert_eq!(report.failed, 2);
    assert_eq!(report.requests, (images.len() - 2) as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A probe whose recovery action itself fails (no snapshot to reload)
/// surfaces the typed [`ServeError::RecoveryFailed`] and returns the
/// model to quarantine — it does not run the batch on the broken model.
#[test]
fn failed_probe_recovery_is_typed_and_retrips() {
    let dir = scratch("quarantine-broken-store"); // never created on disk
    let (qnet, images) = fixture(9);
    let arch = ArchConfig::default();
    let model = Model::program("sick", qnet.clone(), arch, plan(qnet.layers().len()));
    let mut registry = Registry::new();
    let id = registry.insert_with_store(model, &dir);

    let storm = FaultPlan::new(11).with_weights([0, 1, 0, 0, 0]).with_fault_budget(1);
    let backoff = Duration::from_millis(5);
    let policy = BatchPolicy::default().with_max_batch(1).with_quarantine(
        QuarantinePolicy::default().with_threshold(1).with_backoff(
            backoff,
            2,
            Duration::from_millis(100),
        ),
    );
    let server = Server::with_worker(policy, move |source| {
        source.serve(storm.shim(RegistryBackend::new(registry)))
    });

    let t = server.submit(id, images[0].clone()).expect("admitted");
    assert!(matches!(t.wait(), Err(ServeError::Forward(_))));

    std::thread::sleep(backoff + Duration::from_millis(1));
    let t = server.submit(id, images[1].clone()).expect("probe admitted");
    match t.wait() {
        Err(ServeError::RecoveryFailed { model, .. }) => assert_eq!(model, id),
        other => panic!("expected RecoveryFailed, got {other:?}"),
    }
    assert!(
        matches!(server.submit(id, images[2].clone()), Err(ServeError::ModelQuarantined(_))),
        "failed recovery returns the model to quarantine"
    );

    let report = server.shutdown();
    assert_eq!(report.quarantine_trips, 2);
    assert_eq!(report.quarantine_reinstates, 0);
}

/// Deadlines under a delay storm: requests that cannot start before
/// their deadline resolve with the typed [`ServeError::DeadlineExceeded`]
/// — from the queue, mid-drain — and are counted in the report without
/// ever being silently dropped.
#[test]
fn deadlines_resolve_typed_under_a_delay_storm() {
    let storm = FaultPlan::new(3)
        .with_weights([0, 0, 0, 0, 1]) // every batch stalls
        .with_delay(Duration::from_millis(10));
    let policy = BatchPolicy::default().with_max_batch(1);
    let model = ModelId::new(0);
    let server =
        Server::with_worker(policy, move |source| {
            source.serve(storm.shim(|_model: ModelId, images: &[Tensor]| {
                Ok((images.to_vec(), PimStats::default()))
            }))
        });

    let deadline = Duration::from_millis(2);
    let tickets: Vec<Ticket> = (0..6)
        .map(|i| {
            server
                .submit_with_deadline(model, tag_image(i as f32), deadline)
                .expect("queue has room")
        })
        .collect();
    let mut served = 0u64;
    let mut expired = 0u64;
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait_timeout(RESOLVE) {
            Some(Ok(response)) => {
                assert_eq!(response.output.data(), tag_image(i as f32).data());
                served += 1;
            }
            Some(Err(ServeError::DeadlineExceeded)) => expired += 1,
            other => panic!("request {i}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!(served + expired, 6, "every ticket resolves exactly once");
    assert!(
        expired >= 1,
        "10ms batches × 2ms deadlines × single-file batching must expire someone"
    );
    let report = server.shutdown();
    assert_eq!(report.requests, served);
    assert_eq!(report.deadline_expired, expired);
    assert_eq!(report.failed, 0, "expiry is not a failure bucket");
}

/// Load shedding under a stalled backend: `RejectNewest` refuses at the
/// door, `RejectOldest` evicts the queue head, and both surface the
/// typed [`ServeError::Shed`] with the report counting every victim.
#[test]
fn shed_policies_resolve_typed_under_backpressure() {
    use trq_serve::ShedPolicy;
    for shed in [ShedPolicy::RejectNewest, ShedPolicy::RejectOldest] {
        let storm =
            FaultPlan::new(1).with_weights([0, 0, 0, 0, 1]).with_delay(Duration::from_millis(20));
        let policy = BatchPolicy::default().with_max_batch(1).with_queue_cap(2).with_shed(shed);
        let model = ModelId::new(0);
        let server = Server::with_worker(policy, move |source| {
            source.serve(storm.shim(|_model: ModelId, images: &[Tensor]| {
                Ok((images.to_vec(), PimStats::default()))
            }))
        });

        // the first batch stalls 20ms; pumping 8 requests into a
        // 2-deep queue forces the admission policy's hand
        let mut tickets: Vec<(usize, Ticket)> = Vec::new();
        let mut shed_at_gate = 0u64;
        for i in 0..8usize {
            match server.submit(model, tag_image(i as f32)) {
                Ok(t) => tickets.push((i, t)),
                Err(ServeError::Shed(p)) => {
                    assert_eq!(p, ShedPolicy::RejectNewest, "only reject-newest sheds at the gate");
                    shed_at_gate += 1;
                }
                Err(e) => panic!("unexpected refusal: {e}"),
            }
        }
        let mut served = 0u64;
        let mut shed_from_queue = 0u64;
        for (i, ticket) in tickets {
            match ticket.wait_timeout(RESOLVE) {
                Some(Ok(_)) => served += 1,
                Some(Err(ServeError::Shed(_))) => shed_from_queue += 1,
                other => panic!("request {i} under {shed}: unexpected outcome {other:?}"),
            }
        }
        assert!(
            shed_at_gate + shed_from_queue >= 1,
            "{shed}: an overloaded 2-deep queue must shed"
        );
        let report = server.shutdown();
        assert_eq!(report.requests, served);
        assert_eq!(report.shed, shed_at_gate + shed_from_queue, "{shed}: shed count mismatch");
    }
}
