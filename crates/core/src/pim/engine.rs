//! The crossbar MVM engine — a tiled program / execute / account pipeline.
//!
//! A layer invocation runs in three stages:
//!
//! 1. **program** — on first sight of a layer, split its weights into
//!    sign-magnitude bit slices on differential subarray pairs and build
//!    the per-count conversion LUT once (stored with the programmed layer,
//!    never rebuilt or cloned per call). The LUT is a
//!    [`trq_xbar::DecodeTable`] for the layer's bit-plane × slice
//!    geometry, which also decides here whether the layer qualifies for
//!    the register-table conversion;
//! 2. **execute** — pack all `input_bits` bit-planes of the window batch
//!    in one pass over the activation codes (scratch `BitMatrix` buffers
//!    reused across calls, live-plane and per-window-block occupancy
//!    recorded as a side effect), then run (output-block × window-block)
//!    tiles through the one tile datapath, `execute_tile`. Per subarray a
//!    tile makes one call of `trq_xbar::convert_diff_tile_into` on the
//!    [`KernelTier`] resolved once at engine construction, which runs
//!    these stages per row chunk with the counts kept in registers or a
//!    small stack chunk — no count goes through a tile-sized buffer:
//!    - **popcount** — the fused differential popcount: each plane word
//!      loaded once for both subarray sides, on AVX-512 / AVX2 / NEON
//!      popcount lanes or the portable scalar paths;
//!    - **tally** (collector engines only) — every raw count into the
//!      worker's `rows + 1` count histogram;
//!    - **count noise** (σ_prog / σ_read only) — every count perturbed by
//!      the keyed draws of [`trq_xbar::noise::CountNoise`], so the ADC
//!      digitises the noisy current;
//!    - **conversion** — every count through the packed LUT and
//!      shift-added into the tile accumulator, counting the A/D
//!      operations spent. On AVX-512, eligible layers (arrays of at most
//!      128 rows, magnitudes below 2^15, output rows that fit an `i32`;
//!      the paper's 128-row arrays qualify) convert from a LUT held in
//!      vector registers: 16 windows of an output row at a time, or, on
//!      tiles of fewer than 10 windows without a visitor (a small serving
//!      batch), 16 columns of one window at a time. Every other tier and
//!      layer walks each row's live window runs in stack chunks.
//!
//!    The tally and the noise are one [`CountVisitor`] that sees each
//!    chunk's raw counts before the lookup. Without one, the conversion
//!    skips all-zero input bit-planes, all-zero weight slice columns, and
//!    dead window blocks inside live subarrays; those count-0 conversions
//!    fold into the event ledger in closed form. The tally and the noise
//!    need every slot, so a visitor makes the conversion run **dense**.
//!    Every tier and path is bit-identical. Subarrays and bit-planes are
//!    looped *inside* each tile, so every tile owns a disjoint region of
//!    the accumulator and tiles run on any number of worker threads with
//!    bit-identical results;
//! 3. **account** — sum the per-worker event tallies and count
//!    histograms into the layer's [`PimStats`] and the collector's
//!    samples, and scale the integer accumulator into code units.
//!
//! Tile rounds run on the persistent [`crate::exec::Pool`] (dispatch onto
//! parked workers, no per-call thread spawn; a one-thread round runs
//! inline on the caller) with per-worker scratch **arenas** — tile
//! accumulators, event tallies and histograms allocated once and reused
//! — so the steady-state forward path performs zero heap allocations
//! (asserted in `crates/core/tests/alloc_free.rs`). The
//! pinned scalar reference every tier is property-tested against is a
//! test-only engine, `crates/core/tests/reference/mod.rs`.

use crate::arch::ArchConfig;
use crate::exec::Pool;
use crate::pim::scheme::{AdcScheme, Lut};
use crate::pim::stats::PimStats;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use trq_nn::{MvmEngine, MvmLayerInfo};
use trq_quant::Histogram;
use trq_xbar::noise::{mix64, unit_open, CountNoise};
use trq_xbar::{
    convert_diff_tile_into, pack_window_planes, resolve_kernel, BitMatrix, ColMask, CountVisitor,
    KernelConfigError, KernelTier, NoVisit, NoiseModel, WindowOcc,
};

/// Configuration for bit-line count collection during calibration runs.
/// The exact count histogram needs no tuning, so it has no knobs; build it
/// with `CollectorConfig::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct CollectorConfig {}

/// Collected bit-line statistics for one layer — the input to Algorithm 1.
#[derive(Debug, Clone)]
pub struct LayerSamples {
    /// Layer position among MVM layers.
    pub mvm_index: usize,
    /// Layer label.
    pub label: String,
    /// Exact histogram over the count domain `[0, S]`: bin `c` holds every
    /// conversion (pos and neg streams alike) that saw count `c`.
    pub hist: Histogram,
}

struct Programmed {
    /// One differential subarray pair per 128-row row block; columns are
    /// `outputs × weight_bits` wide.
    subarrays: Vec<DiffSubarray>,
    /// Per-count conversion table (packed entries), built once at
    /// programming time.
    lut: Lut,
}

/// One crossbar row block: the differential (pos, neg) slice planes plus
/// the static column-occupancy masks the skip-enabled kernel consults —
/// all-zero weight slice columns (e.g. the negative side of an
/// all-positive channel) never popcount or decode element-wise.
struct DiffSubarray {
    pos: BitMatrix,
    neg: BitMatrix,
    pos_live: ColMask,
    neg_live: ColMask,
}

/// Image of one programmed differential subarray pair: the sliced bit
/// planes plus the static column-occupancy masks. Part of
/// [`ProgrammedLayerState`].
#[derive(Debug, Clone, PartialEq)]
pub struct SubarrayState {
    /// Positive-side weight slice planes.
    pub pos: BitMatrix,
    /// Negative-side weight slice planes.
    pub neg: BitMatrix,
    /// Column occupancy of the positive side (the static skip mask).
    pub pos_live: ColMask,
    /// Column occupancy of the negative side.
    pub neg_live: ColMask,
}

/// Image of one layer's program-stage output — everything the engine
/// derives from the layer's quantized weights, architecture and ADC
/// scheme: differential subarray pairs, skip masks, and the packed
/// conversion LUT. [`PimMvm::export_programming`] produces these for
/// tools that inspect or replay the programmed arrays; nothing installs
/// them back, since re-running the program stage rebuilds them exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgrammedLayerState {
    /// MVM layer index the state belongs to.
    pub mvm_index: usize,
    /// One entry per crossbar row block, in depth order.
    pub subarrays: Vec<SubarrayState>,
    /// Packed conversion-table entries (`ops << 24 | lsb`), indexed by
    /// BL count `0..=rows`.
    pub lut_entries: Vec<u32>,
    /// Physical value of one LUT LSB in count units.
    pub lut_delta: f64,
}

/// One (output-block × window-block) unit of work. Subarrays and input
/// bit-planes are looped inside the tile, so a tile owns the disjoint
/// accumulator region `[o0, o1) × [w0, w1)` outright.
#[derive(Debug, Clone, Copy)]
struct Tile {
    o0: usize,
    o1: usize,
    w0: usize,
    w1: usize,
}

impl Tile {
    fn len(&self) -> usize {
        (self.o1 - self.o0) * (self.w1 - self.w0)
    }
}

/// Architectural events tallied while executing tiles; one per worker,
/// merged in the account stage.
#[derive(Debug, Default, Clone, Copy)]
struct TileEvents {
    ops: u64,
    conversions: u64,
}

impl TileEvents {
    fn merge(&mut self, other: &TileEvents) {
        self.ops += other.ops;
        self.conversions += other.conversions;
    }
}

/// Everything one worker touches during a tile round, allocated once per
/// worker slot and reused for the engine's whole lifetime. `reset_round`
/// only rewinds logical lengths; capacities are monotone, which is what
/// makes the steady-state forward path allocation-free.
#[derive(Default)]
struct WorkerArena {
    /// Tile accumulators of the round, concatenated back to back.
    acc_pool: Vec<i64>,
    /// `(tile index, acc_pool offset)` of every completed tile.
    done: Vec<(usize, usize)>,
    /// Event tally, merged into the layer ledger in the account stage.
    events: TileEvents,
    /// Collector engines' `rows + 1` count histogram of the round (empty
    /// otherwise), summed into the layer's samples in the account stage.
    hist: Vec<u64>,
}

impl WorkerArena {
    /// Rewinds the arena for a new round without touching capacity; the
    /// histogram comes back zeroed with `hist_bins` bins.
    fn reset_round(&mut self, hist_bins: usize) {
        self.acc_pool.clear();
        self.done.clear();
        self.hist.clear();
        self.hist.resize(hist_bins, 0);
    }

    /// Bytes of backing capacity currently held — the arena-reuse
    /// invariant checked by `tests/alloc_free.rs` (must not grow after
    /// warm-up).
    fn footprint(&self) -> usize {
        self.acc_pool.capacity() * size_of::<i64>()
            + self.done.capacity() * size_of::<(usize, usize)>()
            + self.hist.capacity() * size_of::<u64>()
    }
}

/// What every tile of one layer call shares: the programmed layer, the
/// packed input and its occupancy, the kernel tier, the layer geometry,
/// and the optional stages.
struct Round<'a> {
    prog: &'a Programmed,
    planes: &'a [Vec<BitMatrix>],
    occ: &'a [WindowOcc],
    tier: KernelTier,
    wbits: usize,
    ibits: usize,
    /// Collector engines add every raw count to the arena histogram.
    tally: bool,
    /// Count-level device noise, applied between popcount and lookup.
    noise: Option<CountNoise>,
}

impl Round<'_> {
    /// Subarray `s`'s conversion of the tile `cols × windows` into `acc`,
    /// returning its A/D operations.
    // no_alloc: once per subarray of every tile
    fn convert<V: CountVisitor>(
        &self,
        s: usize,
        cols: Range<usize>,
        windows: Range<usize>,
        visitor: &mut V,
        acc: &mut [i64],
    ) -> u64 {
        let sub = &self.prog.subarrays[s];
        convert_diff_tile_into(
            self.tier,
            self.prog.lut.table(),
            &sub.pos,
            &sub.neg,
            &self.planes[s],
            &self.occ[s],
            &sub.pos_live,
            &sub.neg_live,
            cols,
            windows,
            visitor,
            acc,
        )
    }
}

/// The dense rounds' [`CountVisitor`] for one subarray: the collector's
/// tally first, then the count noise, keyed on the slot's absolute
/// (subarray, side, plane, column, window) coordinates — so the result is
/// independent of tiling, chunking and thread count.
struct DenseVisit<'a> {
    subarray: usize,
    /// The arena's `rows + 1` histogram when tallying.
    hist: Option<&'a mut [u64]>,
    noise: Option<&'a CountNoise>,
}

impl CountVisitor for DenseVisit<'_> {
    // no_alloc: per row chunk of every dense tile
    fn visit(&mut self, side: usize, plane: usize, col: usize, w0: usize, counts: &mut [u32]) {
        if let Some(hist) = self.hist.as_deref_mut() {
            for &count in counts.iter() {
                hist[count as usize] += 1;
            }
        }
        if let Some(noise) = self.noise {
            for (w, count) in (w0..).zip(counts.iter_mut()) {
                *count = noise.perturb(self.subarray, side as u64, plane, col, w, *count);
            }
        }
    }
}

/// Executes one tile — the engine's only tile datapath: per subarray, one
/// call of the conversion primitive `trq_xbar::convert_diff_tile_into`,
/// which popcounts every (plane, column) row of the tile, digitises each
/// count through the layer's packed LUT, shift-adds it into the
/// tile-local accumulator `acc` (length `tile.len()`, zeroed by the
/// caller) and returns the A/D operations that go into `events`. The
/// counts stay in registers or a small stack chunk.
///
/// The conversion runs on the engine's resolved [`KernelTier`]: on AVX-512,
/// register-eligible layers read the LUT from vector registers, 16 windows
/// at a time; every other tier and layer walks the rows' live window runs
/// in stack chunks. All paths are bit-identical.
///
/// Sparsity-aware skipping: all-zero input bit-planes, dead window
/// *blocks* inside live planes (both from the subarray's [`WindowOcc`]),
/// and all-zero weight slice columns (the subarray's [`ColMask`]s) are
/// skipped. Their counts are 0 by construction, so the accumulator
/// contribution cancels exactly and the count-0 conversions fold into the
/// event ledger in closed form — `PimStats` stays bit-identical to the
/// dense path. Dense rounds (tally or noise on) pass a [`DenseVisit`],
/// which sees every slot's raw count before the lookup — tally first,
/// then the noise — and so skips nothing.
fn execute_tile(
    round: &Round<'_>,
    tile: Tile,
    acc: &mut [i64],
    events: &mut TileEvents,
    hist: &mut [u64],
) {
    debug_assert_eq!(acc.len(), tile.len(), "tile accumulator must match the tile volume");
    let prog = round.prog;
    let (cols, windows) = (tile.o0 * round.wbits..tile.o1 * round.wbits, tile.w0..tile.w1);
    let volume = round.ibits * cols.len() * windows.len();
    let dense = round.tally || round.noise.is_some();
    for s in 0..prog.subarrays.len() {
        events.ops += if dense {
            let mut visit = DenseVisit {
                subarray: s,
                hist: round.tally.then_some(&mut *hist),
                noise: round.noise.as_ref(),
            };
            round.convert(s, cols.clone(), windows.clone(), &mut visit, acc)
        } else {
            round.convert(s, cols.clone(), windows.clone(), &mut NoVisit, acc)
        };
        events.conversions += 2 * volume as u64;
    }
}

/// The PIM execution engine: runs quantized MVMs through bit-sliced
/// differential crossbars and per-layer ADC schemes, counting every
/// architectural event. Execution is tiled and (optionally) multi-threaded
/// per [`crate::arch::ExecConfig`]; results and event counts are
/// bit-identical for every thread count. See the crate docs for an
/// end-to-end example.
pub struct PimMvm {
    arch: ArchConfig,
    plan: Vec<AdcScheme>,
    programmed: HashMap<usize, Programmed>,
    stats: PimStats,
    /// Calibration mode: tally every BL count per layer.
    collecting: bool,
    /// Per-layer `(label, count histogram)` tallies of a collector engine.
    tallies: HashMap<usize, (String, Vec<u64>)>,
    /// Device non-idealities, `None` when ideal — the ideal path never
    /// pays a noise check beyond this `Option` (see
    /// [`PimMvm::with_device_noise`]).
    noise: Option<NoiseModel>,
    /// Read-noise stream epoch (e.g. the global image index), mixed into
    /// every count-noise draw so repeated reads of the same slot differ
    /// across epochs but stay reproducible. Stuck-at faults ignore it —
    /// a device instance's fault map is fixed at programming time.
    noise_epoch: u64,
    /// Scratch bit-plane matrices per subarray, reused across calls.
    planes: Vec<Vec<BitMatrix>>,
    /// Window occupancy of the current call, one record per subarray
    /// (live-plane mask plus per-window-block liveness); capacity reused.
    occ: Vec<WindowOcc>,
    /// The execution kernel tier, resolved once at construction from
    /// [`crate::arch::ExecConfig::kernel`] and the `TRQ_KERNEL` override.
    tier: KernelTier,
    /// Tile list of the current call, capacity reused across calls.
    tiles: Vec<Tile>,
    /// Layer accumulator, capacity reused across calls.
    acc: Vec<i64>,
    /// One scratch arena per worker slot; workers lock only their own
    /// (uncontended — each participant index is claimed exactly once).
    arenas: Vec<Mutex<WorkerArena>>,
}

impl PimMvm {
    /// Creates an engine with a per-layer ADC plan (`plan[mvm_index]`).
    /// Layers beyond the plan's length run with [`AdcScheme::Ideal`].
    /// The engine owns its architecture (`ArchConfig` is `Copy`), so
    /// handles built on top of it — models, registries, servers — carry
    /// no borrow. Tile rounds dispatch to the process-wide
    /// [`Pool::global`].
    ///
    /// The execution kernel tier is resolved **here**, once, from
    /// [`crate::arch::ExecConfig::kernel`] and the `TRQ_KERNEL`
    /// environment override.
    ///
    /// # Panics
    ///
    /// Panics if the kernel selection is rejected — a forced SIMD tier on
    /// a host without the feature, or an unrecognised `TRQ_KERNEL` value.
    /// Use [`PimMvm::try_new`] for the non-panicking form.
    pub fn new(arch: ArchConfig, plan: Vec<AdcScheme>) -> Self {
        PimMvm::try_new(arch, plan).unwrap_or_else(|e| panic!("kernel configuration rejected: {e}"))
    }

    /// Fallible form of [`PimMvm::new`]: resolves the execution kernel
    /// tier and returns a typed [`KernelConfigError`] instead of
    /// panicking when the selection names a tier this host cannot run
    /// (`TRQ_KERNEL=avx512` without AVX-512) or an unrecognised override
    /// string. `KernelSelect::Auto` never fails — it degrades to
    /// the scalar tier.
    pub fn try_new(arch: ArchConfig, plan: Vec<AdcScheme>) -> Result<Self, KernelConfigError> {
        let tier = resolve_kernel(arch.exec.kernel)?;
        Ok(PimMvm {
            arch,
            plan,
            programmed: HashMap::new(),
            stats: PimStats::default(),
            collecting: false,
            tallies: HashMap::new(),
            noise: None,
            noise_epoch: 0,
            planes: Vec::new(),
            occ: Vec::new(),
            tier,
            tiles: Vec::new(),
            acc: Vec::new(),
            arenas: Vec::new(),
        })
    }

    /// The execution kernel tier this engine resolved at construction
    /// (after the `TRQ_KERNEL` override and `Auto` detection).
    #[must_use]
    pub fn kernel_tier(&self) -> KernelTier {
        self.tier
    }

    /// Builder: emulates device non-idealities on this engine.
    ///
    /// - **Stuck-at faults** (`stuck_off_rate` / `stuck_on_rate`) force a
    ///   deterministic per-cell subset of the programmed bit planes to
    ///   0/1 at **program time**, keyed on `(seed, layer, subarray, side,
    ///   row, column)` — the same seed is the same device instance. Skip
    ///   masks are recomputed over the faulted planes, so stuck-at-only
    ///   noise runs on the full specialised kernel path, bit-identical
    ///   across tiers and thread counts.
    /// - **Programming variation / read noise** (`sigma_prog` /
    ///   `sigma_read`) perturb every BL count between the popcount kernel
    ///   and the decode with slot-keyed Gaussians
    ///   ([`trq_xbar::noise::CountNoise`]; see
    ///   [`PimMvm::set_noise_epoch`]). Noisy tiles run dense, since a
    ///   skipped slot's closed-form zero-count fold would bypass the
    ///   perturbation; they stay pooled and bit-identical across tiers,
    ///   tilings and thread counts.
    ///
    /// An ideal model ([`NoiseModel::is_ideal`]) stores nothing — the
    /// engine is byte-for-byte the no-noise engine, keeping the noisy
    /// plumbing zero-cost for every existing caller. Call **before**
    /// programming any layer (stuck-at faults apply when weights are
    /// sliced). Snapshots hold ideal devices only: `trq-store` refuses
    /// to capture an engine with device noise.
    #[must_use]
    pub fn with_device_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = if noise.is_ideal() { None } else { Some(noise) };
        self
    }

    /// The device-noise model in effect, `None` when ideal.
    #[must_use]
    pub fn device_noise(&self) -> Option<NoiseModel> {
        self.noise
    }

    /// Advances the count-noise stream (e.g. to the global image index),
    /// so per-image noise is reproducible regardless of how images are
    /// sharded across threads or batched. No effect on ideal engines or
    /// on stuck-at faults (the fault map is part of the device).
    pub fn set_noise_epoch(&mut self, epoch: u64) {
        self.noise_epoch = epoch;
    }

    /// Total bytes of backing capacity held by the reusable execution
    /// state (tiles, accumulator, bit-plane scratch, worker arenas).
    /// Exposed so tests can assert the arena-reuse invariant: after a
    /// warm-up call per layer shape, repeated calls must not grow this.
    #[doc(hidden)]
    pub fn scratch_footprint(&self) -> usize {
        let arenas: usize =
            self.arenas.iter().map(|a| a.lock().map(|arena| arena.footprint()).unwrap_or(0)).sum();
        let planes: usize = self
            .planes
            .iter()
            .flat_map(|per_sub| per_sub.iter())
            .map(|m| m.word_capacity() * size_of::<u64>())
            .sum();
        let occ: usize = self.occ.iter().map(|o| o.footprint_bytes()).sum();
        arenas
            + planes
            + occ
            + self.tiles.capacity() * size_of::<Tile>()
            + self.acc.capacity() * size_of::<i64>()
    }

    /// Creates an engine that additionally tallies an exact BL count
    /// histogram per layer (calibration mode). The scheme is forced to
    /// [`AdcScheme::Ideal`] so the collected distribution is the true one.
    /// Its tiles run dense, so the tally sees every count; each worker
    /// tallies into its own histogram and the account stage sums them,
    /// so the result is the same at every thread count.
    pub fn collector(arch: ArchConfig, layers: usize, _config: CollectorConfig) -> Self {
        let mut engine = PimMvm::new(arch, vec![AdcScheme::Ideal; layers]);
        engine.collecting = true;
        engine
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &PimStats {
        &self.stats
    }

    /// Resets statistics (keeps programmed arrays and LUTs).
    pub fn reset_stats(&mut self) {
        self.stats = PimStats::default();
    }

    /// The per-layer ADC plan.
    pub fn plan(&self) -> &[AdcScheme] {
        &self.plan
    }

    /// The architecture this engine simulates.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Runs the program stage for one layer without executing anything:
    /// bit-slices `weights_q` onto differential subarrays and builds the
    /// conversion LUT, exactly as the first `mvm_into` call would. Model
    /// handles use this to pay the whole programming cost up front — and
    /// to have complete state for [`PimMvm::export_programming`] before
    /// any request runs. Idempotent per layer.
    ///
    /// # Panics
    ///
    /// Panics when `weights_q` does not match the layer geometry, or when
    /// the layer's scheme fails [`AdcScheme::validate`] on this engine's
    /// architecture.
    pub fn program_layer(&mut self, info: &MvmLayerInfo, weights_q: &[i32]) {
        assert_eq!(weights_q.len(), info.depth * info.outputs, "weight shape mismatch");
        self.program(info, weights_q);
    }

    /// Heap bytes the program stage allocates for a `depth × outputs`
    /// layer on `arch` — bit planes, skip masks and the conversion LUT —
    /// or `None` when `arch` has no rows or the sum overflows a `u64`.
    /// Callers programming untrusted geometry bound this before
    /// [`PimMvm::program_layer`] allocates anything.
    pub fn programmed_bytes(arch: &ArchConfig, depth: usize, outputs: usize) -> Option<u64> {
        let rows = arch.xbar.rows as u64;
        if rows == 0 {
            return None;
        }
        let cols = (outputs as u64).checked_mul(u64::from(arch.weight_bits))?;
        let mask_words = cols.div_ceil(64).max(1);
        let plane_words = rows.div_ceil(64).checked_mul(cols)?;
        // both sides' planes and masks, plus the subarray record itself
        let subarray = (plane_words.checked_add(mask_words)?)
            .checked_mul(2 * size_of::<u64>() as u64)?
            .checked_add(size_of::<DiffSubarray>() as u64)?;
        // packed entries and the register image
        let fixed = rows.checked_add(1 + 128)?.checked_mul(size_of::<u32>() as u64)?;
        (depth as u64).div_ceil(rows).checked_mul(subarray)?.checked_add(fixed)
    }

    /// Exports the programmed state of every layer, ordered by layer
    /// index — a copy of the program stage's output (bit planes, skip
    /// masks, packed LUTs) for inspection and kernel replay.
    pub fn export_programming(&self) -> Vec<ProgrammedLayerState> {
        let mut out: Vec<ProgrammedLayerState> = self
            .programmed
            .iter()
            .map(|(&mvm_index, prog)| ProgrammedLayerState {
                mvm_index,
                subarrays: prog
                    .subarrays
                    .iter()
                    .map(|s| SubarrayState {
                        pos: s.pos.clone(),
                        neg: s.neg.clone(),
                        pos_live: s.pos_live.clone(),
                        neg_live: s.neg_live.clone(),
                    })
                    .collect(),
                lut_entries: prog.lut.entries().to_vec(),
                lut_delta: prog.lut.delta,
            })
            .collect();
        out.sort_by_key(|s| s.mvm_index);
        out
    }

    /// Takes the collected count histograms, ordered by layer index.
    #[must_use]
    pub fn take_samples(&mut self) -> Vec<LayerSamples> {
        let mut out: Vec<LayerSamples> = self
            .tallies
            .drain()
            .map(|(mvm_index, (label, counts))| LayerSamples {
                mvm_index,
                label,
                // lint: allow(unwrap): a tally has `rows + 1 >= 1` bins
                hist: Histogram::from_counts(counts).expect("non-empty count domain"),
            })
            .collect();
        out.sort_by_key(|s| s.mvm_index);
        out
    }

    /// The ADC scheme layer `mvm_index` runs: its plan entry, or
    /// [`AdcScheme::Ideal`] past the end of the plan.
    pub fn scheme_for(&self, mvm_index: usize) -> AdcScheme {
        self.plan.get(mvm_index).copied().unwrap_or(AdcScheme::Ideal)
    }

    /// Program stage: bit-slice the weights onto differential subarray
    /// pairs, record each side's column occupancy (the static skip masks),
    /// and build the layer's conversion LUT, once per layer.
    fn program(&mut self, info: &MvmLayerInfo, weights_q: &[i32]) {
        if self.programmed.contains_key(&info.mvm_index) {
            return;
        }
        let rows = self.arch.xbar.rows;
        let wbits = self.arch.weight_bits;
        let cols = info.outputs * wbits as usize;
        let n_sub = self.arch.subarrays_for_depth(info.depth);
        let mut subarrays = Vec::with_capacity(n_sub);
        for s in 0..n_sub {
            let d0 = s * rows;
            let d1 = ((s + 1) * rows).min(info.depth);
            let mut pos = BitMatrix::zeros(rows, cols);
            let mut neg = BitMatrix::zeros(rows, cols);
            for d in d0..d1 {
                for o in 0..info.outputs {
                    let w = weights_q[o * info.depth + d];
                    if w == 0 {
                        continue;
                    }
                    let mag = w.unsigned_abs();
                    let target = if w > 0 { &mut pos } else { &mut neg };
                    for alpha in 0..wbits {
                        if (mag >> alpha) & 1 == 1 {
                            target.set(d - d0, o * wbits as usize + alpha as usize, true);
                        }
                    }
                }
            }
            if let Some(noise) =
                self.noise.filter(|nz| nz.stuck_off_rate > 0.0 || nz.stuck_on_rate > 0.0)
            {
                // stuck-at faults: force a deterministic per-cell subset
                // of the sliced planes, keyed on the cell's physical
                // coordinates — the same seed is the same device. Masks
                // are computed *after* forcing, so the skip kernels see
                // the faulted occupancy and stay exact.
                let device = mix64(noise.seed, info.mvm_index as u64);
                for (side, mat) in [(0u64, &mut pos), (1u64, &mut neg)] {
                    for r in 0..rows {
                        for col in 0..cols {
                            let mut h = mix64(device, s as u64);
                            h = mix64(h, side);
                            h = mix64(h, r as u64);
                            h = mix64(h, col as u64);
                            let u = unit_open(h);
                            if u < noise.stuck_off_rate {
                                mat.set(r, col, false);
                            } else if u < noise.stuck_off_rate + noise.stuck_on_rate {
                                mat.set(r, col, true);
                            }
                        }
                    }
                }
            }
            let (pos_live, neg_live) = (ColMask::of(&pos), ColMask::of(&neg));
            subarrays.push(DiffSubarray { pos, neg, pos_live, neg_live });
        }
        let lut = self
            .scheme_for(info.mvm_index)
            .build_lut(&self.arch)
            .unwrap_or_else(|e| panic!("layer {} cannot be programmed: {e}", info.mvm_index));
        self.programmed.insert(info.mvm_index, Programmed { subarrays, lut });
    }

    /// Folds a tile-local accumulator into the layer accumulator.
    fn fold_tile(acc: &mut [i64], n: usize, tile: Tile, tile_acc: &[i64]) {
        debug_assert_eq!(tile_acc.len(), tile.len(), "arena slice must match the tile");
        debug_assert!(tile.o1 * n <= acc.len(), "tile exceeds the layer accumulator");
        let nw = tile.w1 - tile.w0;
        for o in tile.o0..tile.o1 {
            let src = &tile_acc[(o - tile.o0) * nw..(o - tile.o0 + 1) * nw];
            let dst = &mut acc[o * n + tile.w0..o * n + tile.w1];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }
}

impl MvmEngine for PimMvm {
    fn mvm_into(
        &mut self,
        info: &MvmLayerInfo,
        weights_q: &[i32],
        cols: &[u8],
        n: usize,
        out: &mut [f64],
    ) {
        assert_eq!(weights_q.len(), info.depth * info.outputs, "weight shape mismatch");
        assert_eq!(cols.len(), info.depth * n, "cols shape mismatch");
        assert_eq!(out.len(), info.outputs * n, "output buffer shape mismatch");

        // ── program ───────────────────────────────────────────────────
        self.program(info, weights_q);

        let rows = self.arch.xbar.rows;
        let wbits = self.arch.weight_bits as usize;
        let ibits = self.arch.input_bits as usize;
        let exec = self.arch.exec;
        // count-level device noise (σ_prog / σ_read): one stream per
        // (seed, layer, epoch); stuck-at-only noise leaves this None
        let noise = self.noise.and_then(|nz| {
            CountNoise::for_call(&nz, info.mvm_index, self.noise_epoch, rows as u32)
        });

        // batched bit-plane packing: all `input_bits` planes of every
        // subarray in one pass over `cols` each, into reused scratch;
        // the window-occupancy records filled alongside (live planes +
        // live window blocks) drive sparsity-aware skipping
        let n_sub = self.arch.subarrays_for_depth(info.depth);
        while self.planes.len() < n_sub {
            self.planes.push(Vec::new());
        }
        while self.occ.len() < n_sub {
            self.occ.push(WindowOcc::default());
        }
        for (s, (planes, occ)) in
            self.planes.iter_mut().zip(self.occ.iter_mut()).enumerate().take(n_sub)
        {
            let d0 = s * rows;
            let d1 = ((s + 1) * rows).min(info.depth);
            pack_window_planes(cols, n, d0, d1, rows, ibits as u32, planes, occ);
            if !exec.block_skip {
                // keep plane-level skipping, degrade block granularity
                occ.fill_blocks_live();
            }
        }

        // ── execute ───────────────────────────────────────────────────
        let to = exec.tile_outputs_for(info.outputs);
        let tw = exec.tile_windows_for(n);
        self.tiles.clear();
        let mut o0 = 0;
        while o0 < info.outputs {
            let o1 = (o0 + to).min(info.outputs);
            let mut w0 = 0;
            while w0 < n {
                let w1 = (w0 + tw).min(n);
                self.tiles.push(Tile { o0, o1, w0, w1 });
                w0 = w1;
            }
            o0 = o1;
        }

        let threads = exec.effective_threads().clamp(1, self.tiles.len().max(1));
        while self.arenas.len() < threads {
            self.arenas.push(Mutex::new(WorkerArena::default()));
        }
        self.acc.clear();
        self.acc.resize(info.outputs * n, 0);

        let round = Round {
            prog: &self.programmed[&info.mvm_index],
            planes: &self.planes[..n_sub],
            occ: &self.occ[..n_sub],
            tier: self.tier,
            wbits,
            ibits,
            tally: self.collecting,
            noise,
        };
        let tiles = &self.tiles;
        for slot in &self.arenas[..threads] {
            let mut arena = slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            arena.reset_round(if round.tally { rows + 1 } else { 0 });
            // reserve worst-case round capacity up front (one worker
            // could claim every tile) so capacities stay monotone and
            // rounds never allocate after the first call per shape:
            // which tiles a slot claims is scheduling-dependent, and a
            // busy-pool fallback round runs every slot inline on the
            // caller, so a lazily-sized arena would allocate there
            // mid-steady-state
            arena.acc_pool.reserve(info.outputs * n);
            arena.done.reserve(tiles.len());
        }
        // a fork-join tile round: participants claim tiles from the
        // shared counter and execute them into their own arena; the
        // account stage below folds arena results in slot order, so the
        // outcome is independent of which worker ran which tile
        let next = AtomicUsize::new(0);
        let arenas = &self.arenas;
        let worker = |w: usize| {
            let mut arena = arenas[w].lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let arena = &mut *arena;
            loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= tiles.len() {
                    break;
                }
                let tile = tiles[t];
                let offset = arena.acc_pool.len();
                arena.acc_pool.resize(offset + tile.len(), 0);
                execute_tile(
                    &round,
                    tile,
                    &mut arena.acc_pool[offset..],
                    &mut arena.events,
                    &mut arena.hist,
                );
                arena.done.push((t, offset));
            }
        };
        Pool::global().run(threads, &worker);

        // ── account ───────────────────────────────────────────────────
        let mut events = TileEvents::default();
        let mut hist = self.collecting.then(|| {
            let entry = self.tallies.entry(info.mvm_index);
            &mut entry.or_insert_with(|| (info.label.clone(), vec![0; rows + 1])).1
        });
        for slot in &mut self.arenas[..threads] {
            let arena = slot.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner);
            events.merge(&arena.events);
            arena.events = TileEvents::default();
            if let Some(hist) = hist.as_deref_mut() {
                for (h, &c) in hist.iter_mut().zip(&arena.hist) {
                    *h += c;
                }
            }
            for &(t, offset) in &arena.done {
                let tile = self.tiles[t];
                Self::fold_tile(
                    &mut self.acc,
                    n,
                    tile,
                    &arena.acc_pool[offset..offset + tile.len()],
                );
            }
        }
        let prog = round.prog;
        let n_sub = prog.subarrays.len() as u64;
        let delta = prog.lut.delta;
        let phys = self.arch.physical_xbars_for_outputs(info.outputs) as u64;
        let layer = self.stats.layer_mut(info.mvm_index, &info.label);
        layer.conversions += events.conversions;
        layer.ops += events.ops;
        layer.windows += n as u64;
        layer.xbar_activations += n as u64 * ibits as u64 * n_sub * 2 * phys;
        layer.dac_activations += n as u64 * ibits as u64 * n_sub * 2 * phys;
        layer.buffer_bytes += (info.depth * n) as u64 + (info.outputs * n * 2) as u64;
        layer.sa_ops += events.conversions;
        layer.bus_bytes += (info.outputs * n) as u64;
        self.stats.baseline_ops += events.conversions * self.arch.adc_bits as u64;

        for (o, &v) in out.iter_mut().zip(self.acc.iter()) {
            *o = v as f64 * delta;
        }
    }

    fn begin_session(&mut self) {
        // warm the executor once per batch: spawn any missing pool
        // workers and size the arena slots, so every layer call of the
        // session dispatches onto already-parked threads
        let threads = self.arch.exec.effective_threads().max(1);
        while self.arenas.len() < threads {
            self.arenas.push(Mutex::new(WorkerArena::default()));
        }
        Pool::global().warm(threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ExecConfig;
    use trq_nn::ExactMvm;

    fn info(depth: usize, outputs: usize) -> MvmLayerInfo {
        MvmLayerInfo { node: 1, mvm_index: 0, label: "test".into(), depth, outputs }
    }

    fn arch() -> ArchConfig {
        ArchConfig::default()
    }

    #[test]
    fn ideal_scheme_matches_exact_engine() {
        let arch = arch();
        let info = info(150, 3); // spans two subarrays
        let mut state = 0x12345u64;
        let mut next = |m: i64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i64 % m) as i32
        };
        let weights: Vec<i32> = (0..150 * 3).map(|_| next(255) - 127).collect();
        let cols: Vec<u8> = (0..150 * 4).map(|_| next(256) as u8).collect();
        let mut pim = PimMvm::new(arch, vec![AdcScheme::Ideal]);
        let got = pim.mvm(&info, &weights, &cols, 4);
        let want = ExactMvm.mvm(&info, &weights, &cols, 4);
        assert_eq!(got, want, "ideal crossbar datapath must be exact");
    }

    #[test]
    fn programmed_bytes_bounds_what_programming_allocates() {
        for (depth, outputs) in [(1, 1), (150, 3), (300, 17)] {
            let mut pim = PimMvm::new(arch(), vec![]);
            pim.program_layer(&info(depth, outputs), &vec![1; depth * outputs]);
            let words: usize = pim.export_programming()[0]
                .subarrays
                .iter()
                .map(|s| s.pos.word_capacity() + s.neg.word_capacity())
                .sum();
            let planes = (words * size_of::<u64>()) as u64;
            let bytes = PimMvm::programmed_bytes(&arch(), depth, outputs).unwrap();
            // the rest is masks, subarray records and the LUT
            assert!((planes..planes + 4096).contains(&bytes), "{depth}x{outputs}: {bytes}");
        }
        let rowless =
            ArchConfig { xbar: trq_xbar::CrossbarConfig { rows: 0, ..arch().xbar }, ..arch() };
        assert_eq!(PimMvm::programmed_bytes(&rowless, 1, 1), None);
        assert_eq!(PimMvm::programmed_bytes(&arch(), 1, usize::MAX), None);
    }

    #[test]
    fn threaded_tiles_are_bit_identical_to_serial() {
        let serial_arch = arch();
        let mut threaded_arch = arch();
        threaded_arch.exec =
            ExecConfig::serial().with_threads(4).with_tile_outputs(2).with_tile_windows(3);
        let info = info(200, 5); // two subarrays, ragged tiles
        let mut state = 0xFEEDu64;
        let mut next = |m: i64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i64 % m) as i32
        };
        let weights: Vec<i32> = (0..200 * 5).map(|_| next(255) - 127).collect();
        let cols: Vec<u8> = (0..200 * 7).map(|_| next(256) as u8).collect();
        let params = trq_quant::TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
        let mut serial = PimMvm::new(serial_arch, vec![AdcScheme::Trq(params)]);
        let mut threaded = PimMvm::new(threaded_arch, vec![AdcScheme::Trq(params)]);
        let a = serial.mvm(&info, &weights, &cols, 7);
        let b = threaded.mvm(&info, &weights, &cols, 7);
        assert_eq!(a, b, "thread count must never change results");
        assert_eq!(serial.stats(), threaded.stats(), "event ledgers must agree exactly");
    }

    #[test]
    fn conversions_match_eq3_prediction() {
        let arch = arch();
        let info = info(150, 3);
        let weights = vec![1i32; 150 * 3];
        let cols = vec![1u8; 150 * 5];
        let mut pim = PimMvm::new(arch, vec![AdcScheme::Ideal]);
        let _ = pim.mvm(&info, &weights, &cols, 5);
        let expect = 5 * arch.conversions_per_window(150, 3);
        assert_eq!(pim.stats().conversions(), expect);
        assert_eq!(pim.stats().ops(), expect * 8);
        assert_eq!(pim.stats().remaining_ops_ratio(), 1.0);
    }

    #[test]
    fn trq_scheme_reduces_ops_on_skewed_counts() {
        let arch = arch();
        let info = info(128, 2);
        // sparse weights and inputs → small BL counts → early birds
        let mut weights = vec![0i32; 128 * 2];
        for i in 0..16 {
            weights[i * 2] = 3;
            weights[i * 2 + 1] = -2;
        }
        let cols: Vec<u8> = (0..128 * 3).map(|i| if i % 4 == 0 { 9 } else { 0 }).collect();
        let params = trq_quant::TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
        let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params)]);
        let _ = pim.mvm(&info, &weights, &cols, 3);
        let ratio = pim.stats().remaining_ops_ratio();
        assert!(ratio < 0.7, "skewed counts should early-bird: ratio {ratio}");
    }

    #[test]
    fn trq_ideal_config_is_lossless() {
        // ΔR1 = 1, NR2 + M = Rideal, bias = 0 (Eq. 11): reconstruction is
        // exact for every possible count, so results equal the exact engine
        let arch = arch();
        let info = info(100, 2);
        let mut state = 7u64;
        let mut next = |m: i64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i64 % m) as i32
        };
        let weights: Vec<i32> = (0..100 * 2).map(|_| next(255) - 127).collect();
        let cols: Vec<u8> = (0..100 * 3).map(|_| next(256) as u8).collect();
        // counts ≤ 100 < 128 → Rideal = 8 with ΔR1 = 1; NR2 = 4, M = 4
        let params = trq_quant::TrqParams::new(8, 4, 4, 1.0, 0).unwrap();
        let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params)]);
        let got = pim.mvm(&info, &weights, &cols, 3);
        // NR1 = 8 covers [0,256) at Δ=1 → all counts are early birds with
        // exact reconstruction
        let want = ExactMvm.mvm(&info, &weights, &cols, 3);
        assert_eq!(got, want);
    }

    #[test]
    fn collector_gathers_bl_distribution() {
        let arch = arch();
        let info = info(64, 2);
        let weights: Vec<i32> = (0..64 * 2).map(|i| (i % 5) - 2).collect();
        let cols: Vec<u8> = (0..64 * 4).map(|i| (i % 7) as u8 * 30).collect();
        let mut pim = PimMvm::collector(arch, 1, CollectorConfig::default());
        let _ = pim.mvm(&info, &weights, &cols, 4);
        let samples = pim.take_samples();
        assert_eq!(samples.len(), 1);
        let s = &samples[0];
        assert!(s.hist.count() > 0);
        // one bin per possible count, and BL counts are bounded by the rows
        assert_eq!(s.hist.counts().len(), 129);
        assert!(s.hist.sample_max() <= 128.0);
    }

    #[test]
    fn collector_histogram_totals_match_conversions() {
        // two layers, the first called twice: each layer's histogram holds
        // exactly the conversions its ledger counts, across calls
        let arch = arch();
        let layers = [info(150, 4), MvmLayerInfo { mvm_index: 1, ..info(40, 3) }];
        let run = || {
            let mut pim = PimMvm::collector(arch, 2, CollectorConfig::default());
            for (call, layer) in [&layers[0], &layers[1], &layers[0]].into_iter().enumerate() {
                let weights: Vec<i32> =
                    (0..layer.depth * layer.outputs).map(|i| (i as i32 * 7 % 255) - 127).collect();
                let cols: Vec<u8> =
                    (0..layer.depth * 6).map(|i| ((i * 13 + call) % 256) as u8).collect();
                let _ = pim.mvm(layer, &weights, &cols, 6);
            }
            let samples = pim.take_samples();
            assert_eq!(samples.len(), pim.stats().layers.len());
            for (s, l) in samples.iter().zip(&pim.stats().layers) {
                assert_eq!(s.hist.count(), l.conversions, "layer {}", s.label);
            }
            samples.into_iter().map(|s| s.hist).collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first.len(), 2);
        assert_eq!(first, run(), "histograms must repeat across runs");
    }

    #[test]
    fn stats_reset_keeps_programming() {
        let arch = arch();
        let info = info(10, 1);
        let weights = vec![1i32; 10];
        let cols = vec![1u8; 10];
        let mut pim = PimMvm::new(arch, vec![AdcScheme::Ideal]);
        let _ = pim.mvm(&info, &weights, &cols, 1);
        assert!(pim.stats().conversions() > 0);
        pim.reset_stats();
        assert_eq!(pim.stats().conversions(), 0);
        let _ = pim.mvm(&info, &weights, &cols, 1);
        assert!(pim.stats().conversions() > 0);
    }
}
