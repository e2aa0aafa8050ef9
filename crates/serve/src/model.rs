//! First-class model handles and the multi-model registry.
//!
//! A [`Model`] owns everything one resident model needs to serve: the
//! quantized network, its per-layer ADC plan, and a fully *programmed*
//! [`PimMvm`] engine. Programming (bit-slicing weights, building LUTs)
//! happens once, eagerly, for every layer: in [`Model::program`], or in
//! [`Model::from_snapshot`] / [`Model::load_latest`], which restore the
//! network, architecture and plan a snapshot holds and program them the
//! same way — the calibration that chose the plan is what a snapshot
//! saves.
//!
//! A [`Registry`] holds multiple resident models and hands out [`ModelId`]
//! keys; [`crate::Server::start`] takes a registry and routes each
//! request to the model its submitter named.

use trq_core::arch::ArchConfig;
use trq_core::pim::{AdcScheme, PimMvm, PimStats};
use trq_nn::{NnError, QuantizedNetwork};
use trq_store::{ModelSnapshot, StoreError};
use trq_tensor::Tensor;

/// Key of one resident model in a [`Registry`] — and the routing tag of
/// every request submitted to a [`crate::Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(usize);

impl ModelId {
    /// Builds an id from a raw index.
    ///
    /// Registry-backed servers only accept ids minted by
    /// [`Registry::insert`] for the registry they serve; this constructor
    /// exists for custom [`crate::Server::with_worker`] backends, which
    /// define their own id space.
    pub const fn new(index: usize) -> ModelId {
        ModelId(index)
    }

    /// The raw index (dense, in registry insertion order).
    pub const fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model#{}", self.0)
    }
}

/// A serving-ready model: quantized network + programmed engine.
///
/// The engine is programmed for every layer up front, so the first
/// request pays no programming cost and [`Model::snapshot`] always has
/// complete state to persist.
pub struct Model {
    name: String,
    qnet: QuantizedNetwork,
    engine: PimMvm,
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("name", &self.name)
            .field("layers", &self.qnet.layers().len())
            .finish()
    }
}

impl Model {
    /// Builds a model by programming `qnet` into a fresh engine for
    /// `arch` under `plan` — the "cold start" path, paying the full
    /// bit-slice + LUT cost per layer here and now.
    ///
    /// # Panics
    ///
    /// Panics when `plan` does not name a scheme per MVM layer; a silent
    /// `Ideal` fallback would make served numbers quietly diverge from
    /// the calibrated plan. Panics too when the network's activation
    /// codes do not fit the architecture's input bits
    /// (`qnet.act_qmax() ≥ 2^arch.input_bits`), which no forward could
    /// pack into bit-planes, and when [`PimMvm::new`] rejects the kernel
    /// selection.
    pub fn program(
        name: &str,
        qnet: QuantizedNetwork,
        arch: ArchConfig,
        plan: Vec<AdcScheme>,
    ) -> Model {
        assert_eq!(
            plan.len(),
            qnet.layers().len(),
            "plan must name an ADC scheme for every MVM layer"
        );
        assert!(
            qnet.act_qmax().checked_shr(arch.input_bits).unwrap_or(0) == 0,
            "activation codes up to {} do not fit {} input bits",
            qnet.act_qmax(),
            arch.input_bits
        );
        let mut engine = PimMvm::new(arch, plan);
        for layer in qnet.layers() {
            engine.program_layer(&layer.info, &layer.weights_q);
        }
        Model { name: name.to_string(), qnet, engine }
    }

    /// The model's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The quantized network this model serves.
    pub fn qnet(&self) -> &QuantizedNetwork {
        &self.qnet
    }

    /// The architecture the engine simulates.
    pub fn arch(&self) -> &ArchConfig {
        self.engine.arch()
    }

    /// The per-layer ADC plan.
    pub fn plan(&self) -> &[AdcScheme] {
        self.engine.plan()
    }

    /// Runs one image through the model.
    ///
    /// # Errors
    ///
    /// Propagates any [`NnError`] from the forward pass.
    pub fn forward(&mut self, image: &Tensor) -> Result<Tensor, NnError> {
        self.qnet.forward(image, &mut self.engine)
    }

    /// Runs a shape-uniform batch of images through the model in one
    /// engine session.
    ///
    /// # Errors
    ///
    /// Propagates any [`NnError`] from the forward pass.
    pub fn forward_batch(&mut self, images: &[Tensor]) -> Result<Vec<Tensor>, NnError> {
        self.qnet.forward_batch(images, &mut self.engine)
    }

    /// Runs a batch and returns the outputs together with that batch's
    /// own engine ledger (the ledger is reset first) — the contract
    /// [`crate::BatchSource::serve`] expects of a batch runner.
    ///
    /// # Errors
    ///
    /// Propagates any [`NnError`] from the forward pass.
    pub fn run_batch(&mut self, images: &[Tensor]) -> Result<(Vec<Tensor>, PimStats), NnError> {
        self.engine.reset_stats();
        let outputs = self.qnet.forward_batch(images, &mut self.engine)?;
        Ok((outputs, self.engine.stats().clone()))
    }

    /// Captures this model — network, architecture and plan — as a
    /// [`ModelSnapshot`].
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError::Invalid`] (cannot happen for a model
    /// built through this type, whose engine never emulates device
    /// noise).
    pub fn snapshot(&self) -> Result<ModelSnapshot, StoreError> {
        ModelSnapshot::capture(&self.name, &self.qnet, &self.engine)
    }

    /// Rebuilds a model from a snapshot — the "warm start" path: no
    /// quantization or calibration, only the program stage, which
    /// [`ModelSnapshot::restore`] runs for every layer. The result is
    /// bit-identical to the model the snapshot was captured from: same
    /// outputs, same [`PimStats`] ledgers.
    ///
    /// # Errors
    ///
    /// Propagates any [`StoreError`] from [`ModelSnapshot::restore`].
    pub fn from_snapshot(snapshot: &ModelSnapshot) -> Result<Model, StoreError> {
        let (qnet, engine) = snapshot.restore()?;
        Ok(Model { name: snapshot.name.clone(), qnet, engine })
    }

    /// Persists this model as the next snapshot generation in `dir`;
    /// returns the generation number written.
    ///
    /// # Errors
    ///
    /// Propagates any [`StoreError`] from capture or the write.
    pub fn save_generation(&self, dir: impl AsRef<std::path::Path>) -> Result<u64, StoreError> {
        trq_store::save_generation(dir, &self.snapshot()?)
    }

    /// Loads the newest snapshot generation from `dir` and restores it;
    /// returns the generation number alongside the model.
    ///
    /// # Errors
    ///
    /// Propagates any [`StoreError`] from the read or restore;
    /// [`StoreError::NoSnapshot`] when `dir` holds no generations.
    pub fn load_latest(dir: impl AsRef<std::path::Path>) -> Result<(u64, Model), StoreError> {
        let (generation, snapshot) = trq_store::load_latest(dir)?;
        Ok((generation, Model::from_snapshot(&snapshot)?))
    }
}

/// The set of models resident in one server, keyed by [`ModelId`].
///
/// Ids are dense indices in insertion order, so per-model accounting
/// (e.g. [`crate::ServeReport::per_model`]) can use plain vectors.
///
/// A model may carry a **store directory** ([`Registry::insert_with_store`]
/// / [`Registry::set_store_dir`]): the snapshot-generation directory the
/// serving layer reloads it from when a quarantine probe runs (see
/// [`RegistryBackend`]). Models without one are probed as-is.
#[derive(Debug, Default)]
pub struct Registry {
    models: Vec<Model>,
    /// Snapshot store directory per model, aligned with `models`.
    store_dirs: Vec<Option<std::path::PathBuf>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds a model and returns its id.
    pub fn insert(&mut self, model: Model) -> ModelId {
        self.models.push(model);
        self.store_dirs.push(None);
        ModelId(self.models.len() - 1)
    }

    /// Adds a model with the snapshot store directory to reload it from
    /// during quarantine recovery, and returns its id.
    pub fn insert_with_store(
        &mut self,
        model: Model,
        dir: impl Into<std::path::PathBuf>,
    ) -> ModelId {
        let id = self.insert(model);
        self.store_dirs[id.0] = Some(dir.into());
        id
    }

    /// Sets (or clears) a resident model's snapshot store directory.
    pub fn set_store_dir(&mut self, id: ModelId, dir: Option<std::path::PathBuf>) {
        if let Some(slot) = self.store_dirs.get_mut(id.0) {
            *slot = dir;
        }
    }

    /// The snapshot store directory registered for `id`, if any.
    pub fn store_dir(&self, id: ModelId) -> Option<&std::path::Path> {
        self.store_dirs.get(id.0).and_then(|d| d.as_deref())
    }

    /// Number of resident models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no models are resident.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Looks a model up by id.
    pub fn get(&self, id: ModelId) -> Option<&Model> {
        self.models.get(id.0)
    }

    /// Looks a model up by id, mutably (e.g. to run batches through it).
    pub fn get_mut(&mut self, id: ModelId) -> Option<&mut Model> {
        self.models.get_mut(id.0)
    }

    /// All ids, in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = ModelId> {
        (0..self.models.len()).map(ModelId)
    }

    /// Iterates `(id, model)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ModelId, &Model)> {
        self.models.iter().enumerate().map(|(i, m)| (ModelId(i), m))
    }
}

/// The standard serving backend: routes each batch to the registry model
/// its submitter named, and recovers quarantined models by reloading
/// their latest snapshot generation.
///
/// [`crate::Server::start`] wraps its registry in one of these; the type
/// is public so custom workers ([`crate::Server::with_worker`]) and the
/// fault-injection shim ([`crate::FaultPlan::shim`]) can compose with the
/// real registry path.
pub struct RegistryBackend {
    registry: Registry,
}

impl RegistryBackend {
    /// Wraps a registry as a serving backend.
    pub fn new(registry: Registry) -> RegistryBackend {
        RegistryBackend { registry }
    }

    /// The wrapped registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

impl crate::BatchBackend for RegistryBackend {
    fn run_batch(
        &mut self,
        model: ModelId,
        images: &[Tensor],
    ) -> Result<(Vec<Tensor>, PimStats), NnError> {
        // per-batch ledger: the model's engine is reset, run, and its
        // delta handed back (merging deltas keeps per-model sums
        // bit-identical to each engine serving its images serially)
        match self.registry.get_mut(model) {
            Some(resident) => resident.run_batch(images),
            // submit validates ids against the registry, so this only
            // fires for a corrupted id — fail the batch, not the server
            None => Err(NnError::BadGraph { reason: format!("{model} is not resident") }),
        }
    }

    fn recover(&mut self, model: ModelId) -> Result<(), crate::ServeError> {
        let Some(dir) = self.registry.store_dir(model).map(std::path::Path::to_path_buf) else {
            return Ok(()); // no snapshot store: the probe retries as-is
        };
        match Model::load_latest(&dir) {
            Ok((_generation, fresh)) => {
                if let Some(slot) = self.registry.get_mut(model) {
                    *slot = fresh;
                }
                Ok(())
            }
            Err(e) => Err(crate::ServeError::RecoveryFailed {
                model,
                reason: format!("load_latest({}): {e}", dir.display()),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "activation codes up to 255 do not fit 4 input bits")]
    fn program_refuses_codes_wider_than_the_inputs() {
        let net = trq_nn::models::mlp(6, 3, 2, 1).expect("static topology");
        let image = Tensor::from_vec(vec![6], vec![0.5; 6]).expect("static shape");
        let qnet = QuantizedNetwork::quantize(&net, &[image]).expect("calibration succeeds");
        let arch = ArchConfig { input_bits: 4, ..ArchConfig::default() };
        let plan = vec![AdcScheme::Ideal; qnet.layers().len()];
        let _ = Model::program("narrow", qnet, arch, plan);
    }
}
