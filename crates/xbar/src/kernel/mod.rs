//! The vectorised popcount kernel layer — every `AND`+`POPCNT` in the
//! workspace funnels through the primitives in this module, and so does
//! the conversion that turns the counts into partial sums.
//!
//! With 1-bit cells and 1-bit DACs an MVM cycle per bit line is
//! `popcount(cells & inputs)` (paper Section II-C), so this *is* the
//! accelerator model's inner loop and dominates simulation cost. Four
//! layers of specialisation live here, plus the engine's conversion
//! primitive [`convert_diff_tile_into`] (the `decode` module: the popcount
//! fused with packed-LUT conversion, shift-add and the ops ledger per
//! subarray tile, so no count leaves registers or a small stack chunk;
//! from a register-held table on the AVX-512 tier):
//!
//! 1. **Shape-specialised word kernels** — [`and_popcount_words`] /
//!    [`popcount_words`] dispatch on the word count so the common column
//!    heights monomorphise to straight-line code: `words_per_col ∈ {1, 2,
//!    4}` covers rows ≤ 64 / 128 / 256 (128 rows — the paper's default
//!    array — is exactly 2 words). Longer columns take a
//!    Harley–Seal/carry-save path that runs one hardware popcount per
//!    four words.
//! 2. **The fused differential tile kernel** — [`mvm_diff_tile_into`]
//!    computes the positive and negative subarray counts of a (plane ×
//!    window) pair in one pass, loading each input plane word once for
//!    both sides (half the plane-word traffic of two back-to-back
//!    [`BitMatrix::mvm_planes_tile_into`] calls) with 4-wide window
//!    unrolling so count accumulators stay in registers.
//! 3. **An explicit SIMD tier** (the [`simd`] module) — the same tile
//!    kernel with the row loops rewritten in `target_feature`-gated
//!    AVX-512 (`vpopcntdq`), AVX2 (nibble-LUT popcount), or NEON
//!    intrinsics. The tier is picked once at engine construction by
//!    [`resolve_kernel`] (runtime CPU-feature detection, overridable via
//!    the `TRQ_KERNEL` environment variable) and passed down as a
//!    [`KernelTier`]; every tier is bit-identical to the scalar paths.
//! 4. **Sparsity-aware skipping** — a [`WindowOcc`] occupancy record
//!    (live-plane bitmask plus per-(plane × 4-window-block) occupancy
//!    words built by [`crate::pack_window_planes`]) and per-side
//!    [`ColMask`] column occupancy (all-zero weight slice columns) let
//!    the kernel skip work whose count is 0 by construction — whole dead
//!    planes, dead columns, and dead window *blocks inside a live
//!    subarray* (post-ReLU activation maps are zero in spatially
//!    correlated runs, not uniformly). [`mvm_diff_tile_into`] leaves
//!    skipped output slots **unwritten**; the conversion primitive folds
//!    their count-0 conversions into its ledger in closed form.
//!
//! [`mvm_diff_tile_into`] (`u32` counts out) stays public as the count
//! oracle of the conversion's tests and for tools that replay the kernel.
//! The scalar kernel [`BitMatrix::mvm_planes_tile_into`] is deliberately
//! *not* routed through these primitives: it stays an independent
//! reference implementation the specialised paths are pinned against by
//! property tests.

use crate::bits::BitMatrix;
use serde::{Deserialize, Serialize};
use std::ops::Range;

mod decode;
mod simd;

pub use decode::{convert_diff_tile_into, CountVisitor, DecodeTable, NoVisit};
pub(crate) use decode::{COLUMN_LANE_WINDOWS, REGISTER_TABLE_ENTRIES};
pub use simd::{
    cpu_feature_summary, resolve_kernel, resolve_kernel_with, KernelConfigError, KernelSelect,
    KernelTier, KERNEL_ENV,
};

/// Carry-save adder: compresses three one-bit-per-lane addends into a
/// (weight-1, weight-2) pair, the building block of Harley–Seal popcount
/// accumulation.
#[inline]
const fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// `popcount(a & b)` over equal-length word slices — the binary
/// dot-product primitive. Lengths 1, 2, and 4 (rows ≤ 64 / 128 / 256)
/// monomorphise to straight-line code; anything longer takes the
/// Harley–Seal carry-save path.
///
/// # Panics
///
/// Panics when the slice lengths differ.
// no_alloc: the binary dot-product primitive must stay allocation-free
#[inline]
pub fn and_popcount_words(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "word slice length mismatch");
    match a.len() {
        1 => (a[0] & b[0]).count_ones(),
        2 => (a[0] & b[0]).count_ones() + (a[1] & b[1]).count_ones(),
        4 => {
            (a[0] & b[0]).count_ones()
                + (a[1] & b[1]).count_ones()
                + (a[2] & b[2]).count_ones()
                + (a[3] & b[3]).count_ones()
        }
        _ => and_popcount_generic(a, b),
    }
}

/// Harley–Seal tail for the generic word count: carry-save-adds four
/// AND-words at a time so only one hardware popcount runs per four words,
/// with a scalar epilogue for the remainder.
// no_alloc: carry-save tail of the dot-product primitive
fn and_popcount_generic(a: &[u64], b: &[u64]) -> u32 {
    let n = a.len().min(b.len());
    let (mut ones, mut twos) = (0u64, 0u64);
    let mut fours = 0u32;
    let mut i = 0;
    while i + 4 <= n {
        let (s1, c1) = csa(ones, a[i] & b[i], a[i + 1] & b[i + 1]);
        let (s2, c2) = csa(s1, a[i + 2] & b[i + 2], a[i + 3] & b[i + 3]);
        let (t, f) = csa(twos, c1, c2);
        ones = s2;
        twos = t;
        fours += f.count_ones();
        i += 4;
    }
    let mut total = 4 * fours + 2 * twos.count_ones() + ones.count_ones();
    while i < n {
        total += (a[i] & b[i]).count_ones();
        i += 1;
    }
    total
}

/// `popcount` over a word slice, with the same length specialisation as
/// [`and_popcount_words`].
#[inline]
pub fn popcount_words(a: &[u64]) -> u32 {
    match a.len() {
        1 => a[0].count_ones(),
        2 => a[0].count_ones() + a[1].count_ones(),
        4 => a[0].count_ones() + a[1].count_ones() + a[2].count_ones() + a[3].count_ones(),
        _ => {
            let (mut ones, mut twos) = (0u64, 0u64);
            let mut fours = 0u32;
            let mut chunks = a.chunks_exact(4);
            for c in &mut chunks {
                let (s1, c1) = csa(ones, c[0], c[1]);
                let (s2, c2) = csa(s1, c[2], c[3]);
                let (t, f) = csa(twos, c1, c2);
                ones = s2;
                twos = t;
                fours += f.count_ones();
            }
            4 * fours
                + 2 * twos.count_ones()
                + ones.count_ones()
                + chunks.remainder().iter().map(|w| w.count_ones()).sum::<u32>()
        }
    }
}

/// A bitset over matrix columns marking which ones hold at least one set
/// cell — the *static* side of sparsity-aware skipping. Weight slice
/// columns that programmed no cell (e.g. the negative side of an
/// all-positive output channel, or high-magnitude bit slices of small
/// weights) popcount to 0 against every input, so the kernel never visits
/// them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColMask {
    words: Vec<u64>,
}

impl ColMask {
    /// Scans `m` once and records which columns are non-empty.
    pub fn of(m: &BitMatrix) -> Self {
        let mut words = vec![0u64; m.cols().div_ceil(64).max(1)];
        for c in 0..m.cols() {
            if m.column_count_ones(c) != 0 {
                words[c / 64] |= 1u64 << (c % 64);
            }
        }
        ColMask { words }
    }

    /// A mask with every one of `cols` columns marked live (disables
    /// column skipping — useful as a dense baseline). Padding bits beyond
    /// `cols` stay clear, so [`ColMask::live_count`] reports exactly
    /// `cols`.
    pub fn all_live(cols: usize) -> Self {
        let mut words = vec![u64::MAX; cols.div_ceil(64).max(1)];
        let tail = cols % 64;
        if tail != 0 {
            *words.last_mut().expect("at least one word") = (1u64 << tail) - 1;
        } else if cols == 0 {
            words[0] = 0;
        }
        ColMask { words }
    }

    /// True when column `col` holds at least one set cell. Queries in
    /// the padding range of the last word read clear bits (false).
    ///
    /// # Panics
    ///
    /// Panics when `col` is beyond the mask's backing words.
    #[inline]
    pub fn is_live(&self, col: usize) -> bool {
        (self.words[col / 64] >> (col % 64)) & 1 == 1
    }

    /// Number of live columns recorded in the mask.
    pub fn live_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when columns `0..cols` can be queried without panicking.
    pub(crate) fn spans(&self, cols: usize) -> bool {
        cols <= self.words.len() * 64
    }
}

/// Windows per occupancy block: [`WindowOcc`] tracks input-plane
/// occupancy at the granularity of `WINDOW_BLOCK` consecutive windows, so
/// the fused kernel can skip dead window runs *inside* a live subarray.
pub const WINDOW_BLOCK: usize = 4;

/// Windows one window-lane register-table step covers (16 `u32` lanes
/// of a 512-bit vector).
const DECODE_LANES: usize = 16;

/// Per-subarray input occupancy — the *dynamic* side of sparsity-aware
/// skipping, built by [`crate::pack_window_planes`] in the same pass that
/// packs the bit-planes.
///
/// Two granularities are recorded per window batch:
///
/// - a **live-plane bitmask** (bit `p` set ⇔ input bit-plane `p` holds at
///   least one set bit anywhere in the batch — after ReLU the high-order
///   planes are ubiquitously all-zero), and
/// - per plane, one occupancy bit per block of [`WINDOW_BLOCK`]
///   consecutive windows (absolute window index / `WINDOW_BLOCK`), so
///   spatially correlated zero runs — dead image regions, padding
///   windows, low-magnitude patches whose high bits are clear — skip in
///   blocks even when the plane as a whole is live.
///
/// All backing storage is capacity-reusing: [`WindowOcc::reset`] only
/// grows allocations the first time a larger shape is seen, keeping the
/// engine's steady-state forward path allocation-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowOcc {
    n_planes: usize,
    n_windows: usize,
    /// Block-occupancy words per plane (`blocks` is plane-major).
    words_per_plane: usize,
    /// Bit `p` set ⇔ plane `p` holds at least one set bit.
    live_planes: u32,
    /// `blocks[p * words_per_plane + b / 64] >> (b % 64) & 1` — plane `p`,
    /// window block `b` holds at least one set bit.
    blocks: Vec<u64>,
    /// Per-window OR of activation codes, the builder's scratch: filled
    /// by [`WindowOcc::note`], condensed by [`WindowOcc::finish`].
    wcode: Vec<u8>,
}

/// Resizes `v` to `len` zeroed elements, reusing capacity (straight
/// `memset` in steady state, growth only beyond any previously seen len).
fn reset_zeroed<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() == len {
        v.fill(T::default());
    } else {
        v.clear();
        v.resize(len, T::default());
    }
}

impl WindowOcc {
    /// Rewinds the record to an all-dead `n_planes × n_windows` shape,
    /// reusing backing capacity. Call before a packing pass.
    ///
    /// # Panics
    ///
    /// Panics when `n_planes` exceeds the 32-bit live mask.
    pub fn reset(&mut self, n_planes: usize, n_windows: usize) {
        assert!(n_planes <= 32, "live-plane mask covers at most 32 planes");
        self.n_planes = n_planes;
        self.n_windows = n_windows;
        self.words_per_plane = n_windows.div_ceil(WINDOW_BLOCK).div_ceil(64).max(1);
        self.live_planes = 0;
        reset_zeroed(&mut self.blocks, n_planes * self.words_per_plane);
        reset_zeroed(&mut self.wcode, n_windows);
    }

    /// Records that window `w` carries activation code `code` (bits OR
    /// together across the batch rows). Part of the builder pass.
    #[inline]
    pub fn note(&mut self, w: usize, code: u8) {
        self.wcode[w] |= code;
    }

    /// Condenses the noted codes into the live-plane mask and the
    /// per-block occupancy words; returns the live-plane mask. Call once
    /// after the packing pass.
    pub fn finish(&mut self) -> u32 {
        let mut live = 0u32;
        for (w, &code) in self.wcode.iter().enumerate() {
            live |= code as u32;
            let b = w / WINDOW_BLOCK;
            let mut rem = code;
            while rem != 0 {
                let p = rem.trailing_zeros() as usize;
                self.blocks[p * self.words_per_plane + b / 64] |= 1u64 << (b % 64);
                rem &= rem - 1;
            }
        }
        self.live_planes = live;
        live
    }

    /// An occupancy record with every plane and block live — disables
    /// skipping entirely (the dense baseline for benches and tests).
    pub fn all_live(n_planes: usize, n_windows: usize) -> Self {
        let mut occ = WindowOcc::default();
        occ.reset(n_planes, n_windows);
        occ.fill_all_live();
        occ
    }

    /// Builds the occupancy a packing pass would produce for
    /// already-packed planes — the bench/test-side constructor mirroring
    /// what [`crate::pack_window_planes`] records.
    pub fn of_planes(planes: &[BitMatrix]) -> Self {
        let n_windows = planes.first().map_or(0, BitMatrix::cols);
        let mut occ = WindowOcc::default();
        occ.reset(planes.len(), n_windows);
        for (p, plane) in planes.iter().enumerate() {
            for w in 0..plane.cols() {
                if plane.column_count_ones(w) != 0 {
                    occ.note(w, 1 << p);
                }
            }
        }
        occ.finish();
        occ
    }

    /// Forces every block of every plane live while keeping the recorded
    /// live-plane mask — degrades skipping to the plane/subarray
    /// granularity the kernel had before per-block occupancy landed (the
    /// `block_skip = false` baseline).
    pub fn fill_blocks_live(&mut self) {
        self.blocks.fill(u64::MAX);
    }

    /// Marks every plane and every block live in place, keeping the
    /// recorded shape and its capacity — the dense record of
    /// [`WindowOcc::all_live`] without an allocation, for callers that
    /// need every tile slot written.
    pub fn fill_all_live(&mut self) {
        let n = self.n_planes;
        self.live_planes = if n >= 32 { u32::MAX } else { (1u32 << n) - 1 };
        self.fill_blocks_live();
    }

    /// The live-plane bitmask (bit `p` set ⇔ plane `p` is non-zero).
    #[inline]
    pub fn live_planes(&self) -> u32 {
        self.live_planes
    }

    /// True when plane `p` holds at least one set bit.
    #[inline]
    pub fn plane_live(&self, p: usize) -> bool {
        self.live_planes >> p & 1 == 1
    }

    /// True when block `b` of plane `p` holds at least one set bit.
    ///
    /// # Panics
    ///
    /// Panics when the indices are beyond the record's backing words.
    #[inline]
    pub fn block_live(&self, p: usize, b: usize) -> bool {
        debug_assert!(p < self.n_planes, "plane index out of range");
        self.blocks[p * self.words_per_plane + b / 64] >> (b % 64) & 1 == 1
    }

    /// The next maximal same-liveness window segment of plane `p`
    /// starting at `w` and clipped to `w_end`: returns `(segment_end,
    /// live)`. Segments snap to [`WINDOW_BLOCK`] boundaries, so callers
    /// iterate a tile's window range as alternating live/dead runs —
    /// a fully live range comes back as one segment.
    #[inline]
    pub fn next_segment(&self, p: usize, w: usize, w_end: usize) -> (usize, bool) {
        debug_assert!(w < w_end, "empty segment query");
        let live = self.block_live(p, w / WINDOW_BLOCK);
        let mut e = ((w / WINDOW_BLOCK + 1) * WINDOW_BLOCK).min(w_end);
        while e < w_end && self.block_live(p, e / WINDOW_BLOCK) == live {
            e = (e + WINDOW_BLOCK).min(w_end);
        }
        (e, live)
    }

    /// Liveness of the [`DECODE_LANES`] windows `[w, w + DECODE_LANES)` of
    /// plane `p`: bit `i` set ⇔ the block of window `w + i` is live. Blocks
    /// past the record's backing words read dead; the plane's own live bit
    /// is not consulted.
    // no_alloc: per plane of every 16-window conversion chunk
    #[inline]
    pub(crate) fn window_lanes(&self, p: usize, w: usize) -> u32 {
        // lanes from any offset span at most this many blocks
        const SPAN: usize = DECODE_LANES / WINDOW_BLOCK + 1;
        let row = &self.blocks[p * self.words_per_plane..(p + 1) * self.words_per_plane];
        let b0 = w / WINDOW_BLOCK;
        let (i, sh) = (b0 / 64, b0 % 64);
        let mut bits = row.get(i).map_or(0, |x| x >> sh);
        if sh + SPAN > 64 {
            bits |= row.get(i + 1).map_or(0, |x| x << (64 - sh));
        }
        let mut lanes = 0u64;
        for k in 0..SPAN {
            if bits >> k & 1 == 1 {
                lanes |= ((1u64 << WINDOW_BLOCK) - 1) << (k * WINDOW_BLOCK);
            }
        }
        (lanes >> (w % WINDOW_BLOCK)) as u32 & ((1u32 << DECODE_LANES) - 1)
    }

    /// True when every block of plane `p` overlapping `[w0, w1)` is live
    /// — the precheck that routes dense tiles onto the no-segmentation
    /// fast path.
    pub fn range_fully_live(&self, p: usize, w0: usize, w1: usize) -> bool {
        if w0 >= w1 {
            return true;
        }
        let (e, live) = self.next_segment(p, w0, w1);
        live && e == w1
    }

    /// True when the record covers at least `n_planes` planes and
    /// `n_windows` windows — the shape check kernels run before trusting
    /// the occupancy.
    pub fn covers(&self, n_planes: usize, n_windows: usize) -> bool {
        n_planes <= self.n_planes && n_windows <= self.n_windows
    }

    /// Bytes of backing capacity currently held (allocation accounting
    /// for the engine's arena-reuse tests).
    pub fn footprint_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<u64>() + self.wcode.capacity()
    }
}

/// The per-tier row kernels the shared tile loop nest and the row-chunk
/// conversion are monomorphised over: one differential and one
/// single-sided row primitive, each
/// specialised per column word count (`WPC == 0` is the dynamic-length
/// escape hatch). Implementations: scalar (this module) and the
/// feature-gated SIMD tiers ([`simd`]).
pub(crate) trait RowKernels {
    /// Differential counts of one (plane, column-pair) row over `out_p.len()`
    /// windows; each window's plane words serve both subarray sides.
    fn diff_row<const WPC: usize>(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        wpc: usize,
        out_p: &mut [u32],
        out_n: &mut [u32],
    );
    /// Counts of one (plane, column) row against a single subarray side.
    fn single_row<const WPC: usize>(a: &[u64], pw: &[u64], wpc: usize, out: &mut [u32]);
}

/// The portable scalar row kernels — the PR 4 monomorphised paths, and
/// the reference every SIMD tier is pinned against.
pub(crate) struct ScalarRows;

impl RowKernels for ScalarRows {
    #[inline]
    fn diff_row<const WPC: usize>(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        wpc: usize,
        out_p: &mut [u32],
        out_n: &mut [u32],
    ) {
        diff_row_scalar::<WPC>(ap, an, pw, wpc, out_p, out_n);
    }

    #[inline]
    fn single_row<const WPC: usize>(a: &[u64], pw: &[u64], wpc: usize, out: &mut [u32]) {
        single_row_scalar::<WPC>(a, pw, wpc, out);
    }
}

/// Fused differential tile kernel with sparsity-aware skipping — the
/// specialised replacement for two back-to-back
/// [`BitMatrix::mvm_planes_tile_into`] calls on a differential subarray
/// pair.
///
/// For every **live** input bit-plane `p` and window `w` of the tile, the
/// plane's packed words are loaded once and popcounted against both the
/// positive and the negative weight matrix, writing
/// `popcount(pos.col(c) & plane.col(w))` into `out_pos` and the matching
/// negative count into `out_neg` with the scalar kernel's
/// `[plane][c - cols.start][w - windows.start]` layout (windows fastest).
///
/// `tier` selects the row-kernel implementation — the portable scalar
/// paths or one of the `target_feature`-gated SIMD tiers. Resolve it once
/// with [`resolve_kernel`]; every tier produces bit-identical counts. The
/// call re-checks the tier's CPU features at runtime and panics before
/// dispatching if the host lacks them, so a freely constructed
/// [`KernelTier`] value can never reach undefined behaviour.
///
/// **Skipping contract:** planes whose bit is clear in `occ`'s live-plane
/// mask, window blocks dead in `occ`'s per-block occupancy, and columns
/// marked dead in `pos_live`/`neg_live` are skipped outright — their
/// count is 0 by construction and their output slots are **left
/// unwritten**. Callers must consult the same occupancy when reading the
/// buffers, folding the skipped count-0 conversions into any ledger in
/// closed form. Passing [`WindowOcc::all_live`] and [`ColMask::all_live`]
/// disables skipping entirely, making every slot written.
///
/// The inner loops are monomorphised per `words_per_col ∈ {1, 2, 4}`
/// (rows ≤ 64 / 128 / 256; the paper's 128-row arrays take the 2-word
/// path) with 4-wide window unrolling; other word counts take the
/// Harley–Seal carry-save path (or the tier's wide-accumulator loop).
///
/// # Panics
///
/// Panics when the pair's shapes disagree, a plane's row count differs, a
/// range is out of bounds, an output buffer is shorter than the tile's
/// count volume, more than 32 planes are passed, `occ` does not cover the
/// planes and windows, or the host lacks `tier`'s CPU features.
#[allow(clippy::too_many_arguments)]
pub fn mvm_diff_tile_into(
    tier: KernelTier,
    pos: &BitMatrix,
    neg: &BitMatrix,
    planes: &[BitMatrix],
    occ: &WindowOcc,
    pos_live: &ColMask,
    neg_live: &ColMask,
    cols: Range<usize>,
    windows: Range<usize>,
    out_pos: &mut [u32],
    out_neg: &mut [u32],
) {
    assert_eq!(pos.rows(), neg.rows(), "differential pair row mismatch");
    assert_eq!(pos.cols(), neg.cols(), "differential pair column mismatch");
    assert!(cols.start <= cols.end && cols.end <= pos.cols(), "column tile out of range");
    assert!(windows.start <= windows.end, "window tile range reversed");
    assert!(planes.len() <= 32, "live-plane mask covers at most 32 planes");
    assert!(occ.covers(planes.len(), windows.end), "occupancy does not cover the tile");
    let (nc, nw) = (cols.end - cols.start, windows.end - windows.start);
    assert!(out_pos.len() >= planes.len() * nc * nw, "positive tile buffer too short");
    assert!(out_neg.len() >= planes.len() * nc * nw, "negative tile buffer too short");
    assert!(
        tier.available(),
        "kernel tier {} forced on a host without its CPU features (host: {})",
        tier.name(),
        cpu_feature_summary()
    );
    match tier {
        KernelTier::Scalar => dispatch_wpc::<ScalarRows>(
            pos, neg, planes, occ, pos_live, neg_live, cols, windows, out_pos, out_neg,
        ),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => dispatch_wpc::<simd::Avx2Rows>(
            pos, neg, planes, occ, pos_live, neg_live, cols, windows, out_pos, out_neg,
        ),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 => dispatch_wpc::<simd::Avx512Rows>(
            pos, neg, planes, occ, pos_live, neg_live, cols, windows, out_pos, out_neg,
        ),
        #[cfg(target_arch = "aarch64")]
        KernelTier::Neon => dispatch_wpc::<simd::NeonRows>(
            pos, neg, planes, occ, pos_live, neg_live, cols, windows, out_pos, out_neg,
        ),
        // tiers of other architectures: `available()` returned false above
        #[allow(unreachable_patterns)]
        _ => unreachable!("tier availability checked above"),
    }
}

/// Monomorphises the tile loop per column word count for one row-kernel
/// tier. `WPC == 0` is the dynamic-length escape hatch; otherwise the
/// const parameter equals `pos.words_per_col` and every row kernel sees
/// fixed trip counts.
#[allow(clippy::too_many_arguments)]
fn dispatch_wpc<K: RowKernels>(
    pos: &BitMatrix,
    neg: &BitMatrix,
    planes: &[BitMatrix],
    occ: &WindowOcc,
    pos_live: &ColMask,
    neg_live: &ColMask,
    cols: Range<usize>,
    windows: Range<usize>,
    out_pos: &mut [u32],
    out_neg: &mut [u32],
) {
    match pos.words_per_col {
        1 => tile_loop::<1, K>(
            pos, neg, planes, occ, pos_live, neg_live, cols, windows, out_pos, out_neg,
        ),
        2 => tile_loop::<2, K>(
            pos, neg, planes, occ, pos_live, neg_live, cols, windows, out_pos, out_neg,
        ),
        4 => tile_loop::<4, K>(
            pos, neg, planes, occ, pos_live, neg_live, cols, windows, out_pos, out_neg,
        ),
        _ => tile_loop::<0, K>(
            pos, neg, planes, occ, pos_live, neg_live, cols, windows, out_pos, out_neg,
        ),
    }
}

/// The tile loop nest, monomorphised per word count and row-kernel tier.
/// Dead planes skip outright; live planes iterate their window range as
/// maximal live-block runs ([`WindowOcc::next_segment`]), so a fully
/// live plane runs the column loop exactly once over the whole range —
/// identical to the pre-block-skip kernel — while sparse planes visit
/// only live blocks.
// no_alloc: the tile loop nest runs per (plane, window-segment, column)
#[allow(clippy::too_many_arguments)]
fn tile_loop<const WPC: usize, K: RowKernels>(
    pos: &BitMatrix,
    neg: &BitMatrix,
    planes: &[BitMatrix],
    occ: &WindowOcc,
    pos_live: &ColMask,
    neg_live: &ColMask,
    cols: Range<usize>,
    windows: Range<usize>,
    out_pos: &mut [u32],
    out_neg: &mut [u32],
) {
    let wpc = pos.words_per_col;
    debug_assert!(WPC == 0 || WPC == wpc, "const word count must match the matrix");
    let (nc, nw) = (cols.end - cols.start, windows.end - windows.start);
    for (p, plane) in planes.iter().enumerate() {
        if !occ.plane_live(p) {
            continue;
        }
        assert_eq!(pos.rows(), plane.rows(), "plane row count mismatch");
        assert!(windows.end <= plane.cols(), "window tile out of range");
        let mut w = windows.start;
        while w < windows.end {
            let (we, live) = occ.next_segment(p, w, windows.end);
            if !live {
                w = we;
                continue;
            }
            let pw = &plane.words[w * wpc..we * wpc];
            let (off, rn) = (w - windows.start, we - w);
            for (ci, c) in cols.clone().enumerate() {
                let (pl, nl) = (pos_live.is_live(c), neg_live.is_live(c));
                if !pl && !nl {
                    continue;
                }
                let base = (p * nc + ci) * nw + off;
                let ap = &pos.words[c * wpc..(c + 1) * wpc];
                let an = &neg.words[c * wpc..(c + 1) * wpc];
                match (pl, nl) {
                    (true, true) => K::diff_row::<WPC>(
                        ap,
                        an,
                        pw,
                        wpc,
                        &mut out_pos[base..base + rn],
                        &mut out_neg[base..base + rn],
                    ),
                    (true, false) => {
                        K::single_row::<WPC>(ap, pw, wpc, &mut out_pos[base..base + rn])
                    }
                    (false, true) => {
                        K::single_row::<WPC>(an, pw, wpc, &mut out_neg[base..base + rn])
                    }
                    (false, false) => unreachable!(),
                }
            }
            w = we;
        }
    }
}

/// One (plane, column-pair) row: differential counts for every window,
/// loading each window's plane words once for both subarray sides. The
/// 4-wide unroll keeps eight count accumulators in registers for the
/// fixed-`WPC` instantiations.
// no_alloc: per-row inner loop of the tile kernel
#[inline]
fn diff_row_scalar<const WPC: usize>(
    ap: &[u64],
    an: &[u64],
    pw: &[u64],
    wpc: usize,
    out_p: &mut [u32],
    out_n: &mut [u32],
) {
    let nw = out_p.len();
    if WPC == 0 {
        for w in 0..nw {
            let b = &pw[w * wpc..(w + 1) * wpc];
            out_p[w] = and_popcount_generic(ap, b);
            out_n[w] = and_popcount_generic(an, b);
        }
        return;
    }
    let mut a_pos = [0u64; WPC];
    a_pos.copy_from_slice(&ap[..WPC]);
    let mut a_neg = [0u64; WPC];
    a_neg.copy_from_slice(&an[..WPC]);
    let mut w = 0;
    while w + 4 <= nw {
        let mut cp = [0u32; 4];
        let mut cn = [0u32; 4];
        for j in 0..4 {
            let b = &pw[(w + j) * WPC..(w + j + 1) * WPC];
            for k in 0..WPC {
                cp[j] += (a_pos[k] & b[k]).count_ones();
                cn[j] += (a_neg[k] & b[k]).count_ones();
            }
        }
        out_p[w..w + 4].copy_from_slice(&cp);
        out_n[w..w + 4].copy_from_slice(&cn);
        w += 4;
    }
    while w < nw {
        let b = &pw[w * WPC..(w + 1) * WPC];
        let (mut cp, mut cn) = (0u32, 0u32);
        for k in 0..WPC {
            cp += (a_pos[k] & b[k]).count_ones();
            cn += (a_neg[k] & b[k]).count_ones();
        }
        out_p[w] = cp;
        out_n[w] = cn;
        w += 1;
    }
}

/// One (plane, column) row against a single subarray side — the path for
/// columns whose differential partner is empty.
// no_alloc: per-row inner loop of the tile kernel
#[inline]
fn single_row_scalar<const WPC: usize>(a: &[u64], pw: &[u64], wpc: usize, out: &mut [u32]) {
    let nw = out.len();
    if WPC == 0 {
        for w in 0..nw {
            out[w] = and_popcount_generic(a, &pw[w * wpc..(w + 1) * wpc]);
        }
        return;
    }
    let mut aw = [0u64; WPC];
    aw.copy_from_slice(&a[..WPC]);
    let mut w = 0;
    while w + 4 <= nw {
        let mut c = [0u32; 4];
        for j in 0..4 {
            let b = &pw[(w + j) * WPC..(w + j + 1) * WPC];
            for k in 0..WPC {
                c[j] += (aw[k] & b[k]).count_ones();
            }
        }
        out[w..w + 4].copy_from_slice(&c);
        w += 4;
    }
    while w < nw {
        let b = &pw[w * WPC..(w + 1) * WPC];
        let mut acc = 0u32;
        for k in 0..WPC {
            acc += (aw[k] & b[k]).count_ones();
        }
        out[w] = acc;
        w += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lcg_bits(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0xA5);
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        }
    }

    /// Dense matrix with deliberately empty columns per `dead` predicate.
    fn matrix(rows: usize, cols: usize, seed: u64, dead: impl Fn(usize) -> bool) -> BitMatrix {
        let mut next = lcg_bits(seed);
        let mut m = BitMatrix::zeros(rows, cols);
        for c in 0..cols {
            if dead(c) {
                continue;
            }
            for r in 0..rows {
                if next() >> 62 == 3 || r == c % rows.max(1) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Every kernel tier the host can run — scalar always, plus each
    /// SIMD tier the CPU supports. Tier equivalence tests sweep this.
    fn host_tiers() -> Vec<KernelTier> {
        [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512, KernelTier::Neon]
            .into_iter()
            .filter(|t| t.available())
            .collect()
    }

    proptest! {
        #[test]
        fn harley_seal_matches_naive(len in 0usize..40, seed in 0u64..200) {
            let mut next = lcg_bits(seed);
            let a: Vec<u64> = (0..len).map(|_| next()).collect();
            let b: Vec<u64> = (0..len).map(|_| next()).collect();
            let naive: u32 = a.iter().zip(&b).map(|(x, y)| (x & y).count_ones()).sum();
            prop_assert_eq!(and_popcount_generic(&a, &b), naive);
            prop_assert_eq!(and_popcount_words(&a, &b), naive);
            let pop_naive: u32 = a.iter().map(|w| w.count_ones()).sum();
            prop_assert_eq!(popcount_words(&a), pop_naive);
        }

        /// Every host tier's dynamic-length row kernels — the tier's
        /// word-slice `and_popcount` swept over each window — must agree
        /// with the scalar slice primitive at every word length,
        /// including the tails past each tier's vector step.
        #[test]
        fn tier_slice_primitives_match_scalar(len in 0usize..40, seed in 0u64..200) {
            const WINDOWS: usize = 3;
            let mut next = lcg_bits(seed ^ 0x51D);
            let ap: Vec<u64> = (0..len).map(|_| next()).collect();
            let an: Vec<u64> = (0..len).map(|_| next()).collect();
            let pw: Vec<u64> = (0..WINDOWS * len).map(|_| next()).collect();
            let want = |a: &[u64]| -> Vec<u32> {
                (0..WINDOWS)
                    .map(|w| and_popcount_words(a, &pw[w * len..(w + 1) * len]))
                    .collect()
            };
            let (want_p, want_n) = (want(&ap), want(&an));
            for tier in host_tiers() {
                let mut got_p = vec![u32::MAX; WINDOWS];
                let mut got_n = vec![u32::MAX; WINDOWS];
                let mut got_single = vec![u32::MAX; WINDOWS];
                fn run<R: RowKernels>(
                    ap: &[u64],
                    an: &[u64],
                    pw: &[u64],
                    wpc: usize,
                    out: (&mut [u32], &mut [u32], &mut [u32]),
                ) {
                    R::diff_row::<0>(ap, an, pw, wpc, out.0, out.1);
                    R::single_row::<0>(ap, pw, wpc, out.2);
                }
                let out = (&mut got_p[..], &mut got_n[..], &mut got_single[..]);
                match tier {
                    KernelTier::Scalar => run::<ScalarRows>(&ap, &an, &pw, len, out),
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx2 => run::<simd::Avx2Rows>(&ap, &an, &pw, len, out),
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx512 => run::<simd::Avx512Rows>(&ap, &an, &pw, len, out),
                    #[cfg(target_arch = "aarch64")]
                    KernelTier::Neon => run::<simd::NeonRows>(&ap, &an, &pw, len, out),
                    #[allow(unreachable_patterns)]
                    _ => unreachable!("host_tiers yields only available tiers"),
                }
                prop_assert_eq!(&got_p, &want_p, "pos diff row diverged on tier {}", tier.name());
                prop_assert_eq!(&got_n, &want_n, "neg diff row diverged on tier {}", tier.name());
                prop_assert_eq!(
                    &got_single, &want_p,
                    "single row diverged on tier {}", tier.name()
                );
            }
        }

        /// Every wpc path of the fused kernel (1, 2, 4, generic), on
        /// every host tier, must match two scalar `mvm_planes_tile_into`
        /// passes exactly on the slots it writes, and skip exactly the
        /// dead-plane / dead-column / dead-block slots — including ragged
        /// row counts (`rows % 64 != 0`) and ragged window counts
        /// against the 4-window block size. The 10-word generic height
        /// runs every tier's `and_popcount` vector loop (8 words per
        /// AVX-512 step, 4 per AVX2 step, 2 per NEON step) and its tail.
        #[test]
        fn fused_kernel_matches_scalar_reference(
            rows_sel in 0usize..6,
            cols in 2usize..7,
            n in 1usize..11,
            n_planes in 1usize..5,
            blocky in proptest::bool::ANY,
            seed in 0u64..200,
        ) {
            // wpc 1, 1 (ragged), 2 (paper default), 4, 5 and 10 (generic)
            let rows = [40, 64, 128, 250, 300, 600][rows_sel];
            // column 1 is dead on the positive side, column 2 on the
            // negative side, column 3 on both
            let pos = matrix(rows, cols, seed, |c| c == 1 || c == 3);
            let neg = matrix(rows, cols, seed ^ 0xFF, |c| c == 2 || c == 3);
            // plane 0 is forced all-zero; with `blocky`, odd window
            // blocks of every plane are zeroed so block skipping fires
            // inside live planes
            let planes: Vec<BitMatrix> = (0..n_planes)
                .map(|p| {
                    if p == 0 {
                        BitMatrix::zeros(rows, n)
                    } else {
                        let mut m = matrix(rows, n, seed ^ (p as u64) << 8, |_| false);
                        if blocky {
                            for w in 0..n {
                                if (w / WINDOW_BLOCK) % 2 == 1 {
                                    for r in 0..rows {
                                        m.set(r, w, false);
                                    }
                                }
                            }
                        }
                        m
                    }
                })
                .collect();
            let occ = WindowOcc::of_planes(&planes);
            let pos_live = ColMask::of(&pos);
            let neg_live = ColMask::of(&neg);
            prop_assert!(!pos_live.is_live(1) && !pos_live.is_live(3));
            prop_assert!(!neg_live.is_live(2) && !neg_live.is_live(3));

            // an interior tile, ragged against the 4-wide window unroll
            let (c0, c1) = (1, cols);
            let (w0, w1) = (0, n);
            let (nc, nw) = (c1 - c0, w1 - w0);
            let volume = n_planes * nc * nw;
            let mut want_pos = vec![0u32; volume];
            let mut want_neg = vec![0u32; volume];
            pos.mvm_planes_tile_into(&planes, c0..c1, w0..w1, &mut want_pos);
            neg.mvm_planes_tile_into(&planes, c0..c1, w0..w1, &mut want_neg);

            const POISON: u32 = u32::MAX;
            for tier in host_tiers() {
                let mut got_pos = vec![POISON; volume];
                let mut got_neg = vec![POISON; volume];
                mvm_diff_tile_into(
                    tier, &pos, &neg, &planes, &occ, &pos_live, &neg_live,
                    c0..c1, w0..w1, &mut got_pos, &mut got_neg,
                );
                for p in 0..n_planes {
                    let plane_live = occ.plane_live(p);
                    for ci in 0..nc {
                        let col = c0 + ci;
                        for wi in 0..nw {
                            let i = (p * nc + ci) * nw + wi;
                            let block_live =
                                plane_live && occ.block_live(p, (w0 + wi) / WINDOW_BLOCK);
                            if block_live && pos_live.is_live(col) {
                                prop_assert_eq!(
                                    got_pos[i], want_pos[i],
                                    "pos slot {} tier {}", i, tier.name()
                                );
                            } else {
                                prop_assert_eq!(
                                    got_pos[i], POISON,
                                    "pos slot {} must skip on tier {}", i, tier.name()
                                );
                                prop_assert_eq!(want_pos[i], 0, "skipped pos slot must be 0");
                            }
                            if block_live && neg_live.is_live(col) {
                                prop_assert_eq!(
                                    got_neg[i], want_neg[i],
                                    "neg slot {} tier {}", i, tier.name()
                                );
                            } else {
                                prop_assert_eq!(
                                    got_neg[i], POISON,
                                    "neg slot {} must skip on tier {}", i, tier.name()
                                );
                                prop_assert_eq!(want_neg[i], 0, "skipped neg slot must be 0");
                            }
                        }
                    }
                }
            }
        }

        /// With skipping disabled the fused kernel writes every slot and
        /// equals the scalar kernel verbatim — on every host tier.
        #[test]
        fn fused_kernel_dense_masks_write_every_slot(
            rows in 1usize..300,
            cols in 1usize..6,
            n in 1usize..9,
            seed in 0u64..100,
        ) {
            let pos = matrix(rows, cols, seed, |_| false);
            let neg = matrix(rows, cols, seed ^ 0x5A5A, |_| false);
            let planes = vec![matrix(rows, n, seed ^ 0x77, |_| false)];
            let volume = cols * n;
            let mut want_pos = vec![0u32; volume];
            let mut want_neg = vec![0u32; volume];
            pos.mvm_planes_tile_into(&planes, 0..cols, 0..n, &mut want_pos);
            neg.mvm_planes_tile_into(&planes, 0..cols, 0..n, &mut want_neg);
            for tier in host_tiers() {
                let mut got_pos = vec![u32::MAX; volume];
                let mut got_neg = vec![u32::MAX; volume];
                mvm_diff_tile_into(
                    tier, &pos, &neg, &planes, &WindowOcc::all_live(1, n),
                    &ColMask::all_live(cols), &ColMask::all_live(cols),
                    0..cols, 0..n, &mut got_pos, &mut got_neg,
                );
                prop_assert_eq!(&got_pos, &want_pos, "pos diverged on tier {}", tier.name());
                prop_assert_eq!(&got_neg, &want_neg, "neg diverged on tier {}", tier.name());
            }
        }

        /// The occupancy built from packed planes must agree bit-for-bit
        /// with the planes' actual window contents at both granularities.
        #[test]
        fn window_occ_records_block_occupancy(
            n in 1usize..40,
            n_planes in 1usize..6,
            seed in 0u64..100,
        ) {
            let mut next = lcg_bits(seed ^ 0xB10C);
            let planes: Vec<BitMatrix> = (0..n_planes)
                .map(|_| {
                    let mut m = BitMatrix::zeros(64, n);
                    for w in 0..n {
                        // ~half the windows carry a bit
                        if next() & 1 == 1 {
                            m.set((next() % 64) as usize, w, true);
                        }
                    }
                    m
                })
                .collect();
            let occ = WindowOcc::of_planes(&planes);
            for (p, plane) in planes.iter().enumerate() {
                let live = (0..n).any(|w| plane.column_count_ones(w) != 0);
                prop_assert_eq!(occ.plane_live(p), live);
                for b in 0..n.div_ceil(WINDOW_BLOCK) {
                    let blive = (b * WINDOW_BLOCK..((b + 1) * WINDOW_BLOCK).min(n))
                        .any(|w| plane.column_count_ones(w) != 0);
                    prop_assert_eq!(occ.block_live(p, b), blive, "plane {} block {}", p, b);
                }
                // segment iteration covers the range exactly, alternating
                let mut w = 0;
                let mut last: Option<bool> = None;
                while w < n {
                    let (e, seg_live) = occ.next_segment(p, w, n);
                    prop_assert!(e > w && e <= n);
                    prop_assert!(last != Some(seg_live), "segments must alternate");
                    last = Some(seg_live);
                    w = e;
                }
                prop_assert_eq!(
                    occ.range_fully_live(p, 0, n),
                    (0..n.div_ceil(WINDOW_BLOCK)).all(|b| occ.block_live(p, b))
                );
            }
        }
    }

    #[test]
    fn colmask_records_occupancy() {
        let mut m = BitMatrix::zeros(130, 70);
        m.set(129, 0, true);
        m.set(0, 65, true);
        let mask = ColMask::of(&m);
        assert!(mask.is_live(0) && mask.is_live(65));
        assert!(!mask.is_live(1) && !mask.is_live(64) && !mask.is_live(69));
        assert_eq!(mask.live_count(), 2);
        let all = ColMask::all_live(70);
        assert!(all.is_live(69));
        assert!(!all.is_live(70), "padding bits stay clear");
        assert_eq!(all.live_count(), 70);
        assert_eq!(ColMask::all_live(64).live_count(), 64);
        assert_eq!(ColMask::all_live(0).live_count(), 0);
    }

    #[test]
    fn window_occ_reset_reuses_capacity_and_fill_blocks_degrades_granularity() {
        let mut occ = WindowOcc::default();
        occ.reset(8, 12);
        occ.note(0, 0b0001);
        occ.note(9, 0b1000);
        assert_eq!(occ.finish(), 0b1001);
        assert!(occ.plane_live(0) && occ.plane_live(3) && !occ.plane_live(1));
        assert!(occ.block_live(0, 0) && !occ.block_live(0, 1) && !occ.block_live(0, 2));
        assert!(occ.block_live(3, 2) && !occ.block_live(3, 0));
        assert!(!occ.range_fully_live(0, 0, 12));
        assert!(occ.range_fully_live(0, 0, 4));
        // subarray-granularity fallback: blocks all live, planes kept
        occ.fill_blocks_live();
        assert!(occ.block_live(0, 2) && occ.block_live(3, 0));
        assert!(occ.range_fully_live(0, 0, 12));
        assert_eq!(occ.live_planes(), 0b1001);
        // reset to the same shape must not grow capacity
        let cap = occ.footprint_bytes();
        occ.reset(8, 12);
        assert_eq!(occ.live_planes(), 0);
        assert!(!occ.block_live(0, 0));
        assert_eq!(occ.footprint_bytes(), cap, "same-shape reset must not allocate");
        // smaller shapes reuse too
        occ.reset(4, 7);
        assert_eq!(occ.footprint_bytes(), cap);
        assert!(occ.covers(4, 7) && !occ.covers(5, 7) && !occ.covers(4, 8));
    }

    #[test]
    fn all_live_occ_disables_skipping() {
        let occ = WindowOcc::all_live(8, 10);
        assert_eq!(occ.live_planes(), 0xFF);
        for p in 0..8 {
            assert!(occ.range_fully_live(p, 0, 10));
        }
        let (e, live) = occ.next_segment(0, 0, 10);
        assert!(live && e == 10, "all-live occupancy must yield one segment");
    }

    #[test]
    fn fill_all_live_densifies_a_packed_record_in_place() {
        let mut occ = WindowOcc::default();
        occ.reset(8, 10);
        occ.note(6, 0b10);
        occ.finish();
        let cap = occ.footprint_bytes();
        occ.fill_all_live();
        assert_eq!(occ.live_planes(), 0xFF, "dead planes must come alive");
        assert!((0..8).all(|p| occ.range_fully_live(p, 0, 10)), "dead blocks must come alive");
        assert_eq!(occ.footprint_bytes(), cap, "densifying must not reallocate");
    }

    #[test]
    #[should_panic(expected = "occupancy does not cover the tile")]
    fn short_occupancy_is_rejected() {
        let pos = matrix(64, 2, 1, |_| false);
        let neg = matrix(64, 2, 2, |_| false);
        let planes = vec![matrix(64, 6, 3, |_| false)];
        let occ = WindowOcc::all_live(1, 4); // covers 4 windows, tile needs 6
        let mut out_p = vec![0u32; 12];
        let mut out_n = vec![0u32; 12];
        mvm_diff_tile_into(
            KernelTier::Scalar,
            &pos,
            &neg,
            &planes,
            &occ,
            &ColMask::all_live(2),
            &ColMask::all_live(2),
            0..2,
            0..6,
            &mut out_p,
            &mut out_n,
        );
    }
}
