//! The conversion primitive — the popcount kernel fused with the decode.
//!
//! For every (input bit-plane, weight slice) row of a tile, each bit-line
//! count is digitised by the layer's ADC scheme and rebuilt by shift-and-add
//! straight away (paper §III-D, Fig. 4b): the packed conversion entry of
//! the count gives the reconstructed magnitude (LSB units) and the A/D
//! operations the conversion cost. [`convert_diff_tile_into`] popcounts one
//! subarray's differential tile, folds every count into an `i64` tile
//! accumulator and returns the A/D operations they cost; no count goes
//! through a tile-sized buffer. It runs one of three bit-identical ways:
//!
//! - **row chunks** (the scalar, AVX2 and NEON tiers, and tables or
//!   column heights the register paths do not take) — per (plane,
//!   column) row, the window range is walked as maximal live/dead block
//!   runs; live runs are counted by the tier's row kernel into a stack
//!   chunk of at most [`ROW_CHUNK`] windows and decoded from it, dead
//!   rows and runs fold their count-0 conversions into the ledger in
//!   closed form;
//! - **register table, window lanes** (AVX-512 tier, tables that are
//!   [`DecodeTable::register_eligible`] on arrays of one or two words per
//!   column, tiles of at least [`COLUMN_LANE_WINDOWS`] windows or with an
//!   active visitor) — 16 windows of one output row at a time, with the
//!   whole table held in vector registers as byte planes: each live
//!   plane's words are loaded once per chunk through masked loads (lanes
//!   past the tile and dead window blocks read 0), every (plane, slice)
//!   count vector of both sides is popcounted against the broadcast
//!   column words and compacted into one vector of index bytes, looked up
//!   with one byte permute per byte plane, and the magnitude difference
//!   summed into one `i32` lane set per output row, widened to `i64`
//!   once. Dead columns and blocks have all-zero words, so their lanes
//!   count 0 and pick entry 0 by arithmetic;
//! - **register table, column lanes** (the same tables on narrower tiles
//!   without a visitor, such as a one-request serving batch) — 16
//!   consecutive tile columns of one window at a time, as a crossbar
//!   digitises every bit line of an input bit-plane at once: per
//!   16-column group both sides' column words load once, and per window
//!   each live plane's words are broadcast against them, with the same
//!   popcount, lookup and Horner sum over planes; each column's lane then
//!   adds into its output's accumulator shifted by its slice. Window lanes
//!   would leave 15 of 16 lanes idle on a one-window tile.
//!
//! A [`CountVisitor`] sees the raw counts of each chunk before the lookup
//! and may rewrite them — the engine's calibration tally and count-level
//! device noise ride on it. The no-op [`NoVisit`] compiles the hook away.

use super::{cpu_feature_summary, ColMask, KernelTier, RowKernels, ScalarRows, WindowOcc};
use crate::bits::BitMatrix;
use std::ops::Range;

/// Entries the register-table conversion holds in vector registers: one
/// two-register byte permute of 128 entries per byte plane. A count of
/// 128 (the array height of the paper's 128-row arrays, one past the
/// table) is blended in separately, so tables of up to
/// `REGISTER_TABLE_ENTRIES + 1` entries qualify.
pub(crate) const REGISTER_TABLE_ENTRIES: usize = 128;

/// Magnitudes the register table holds: two bytes, read as one signed
/// 16-bit word per side.
const REGISTER_LSB_LIMIT: u64 = 1 << 15;

/// Tile widths (in windows) below which the AVX-512 register conversion
/// puts 16 columns of one window in its lanes instead of 16 windows of
/// one column, when no visitor is active. Set from a sweep of 1–16
/// window tiles over four tile shapes on an AVX-512 host: column lanes
/// won through 9–10 windows and lost from 11–12 (`CHANGES.md` has the
/// numbers).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) const COLUMN_LANE_WINDOWS: usize = 10;

/// Windows one stack chunk of the row-chunk path holds per side.
const ROW_CHUNK: usize = 64;

/// A layer's packed conversion table together with the tile geometry it
/// decodes: one entry per bit-line count `0..=rows`, packed as
/// `ops << OPS_SHIFT | lsb` (A/D operations in the top byte, reconstructed
/// magnitude in LSB units below), for counts laid out as `planes` input
/// bit-planes × `slices` weight slices per output.
///
/// Whether the register-table conversion may run is decided here, once,
/// at construction (see [`DecodeTable::register_eligible`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeTable {
    entries: Vec<u32>,
    planes: usize,
    slices: usize,
    /// The byte planes of the first [`REGISTER_TABLE_ENTRIES`] entries,
    /// padded with entry 0, when the table is register-eligible (empty
    /// otherwise): magnitude low bytes, magnitude high bytes, then ops.
    image: Vec<u8>,
}

impl DecodeTable {
    /// Bit position of the ops byte inside a packed entry.
    pub const OPS_SHIFT: u32 = 24;
    /// Mask of the magnitude bits inside a packed entry.
    pub const LSB_MASK: u32 = (1 << Self::OPS_SHIFT) - 1;

    /// Wraps packed `entries` (indexed by count `0..=rows`) for counts of
    /// `planes` input bit-planes × `slices` weight slices.
    ///
    /// # Panics
    ///
    /// Panics when `entries` is empty.
    pub fn new(entries: Vec<u32>, planes: usize, slices: usize) -> Self {
        assert!(!entries.is_empty(), "a conversion table holds at least the count-0 entry");
        let mut table = DecodeTable { entries, planes, slices, image: Vec::new() };
        if table.fits_registers() {
            let entry = |i: usize| table.entries.get(i).copied().unwrap_or(table.entries[0]);
            table.image = [0, 8, Self::OPS_SHIFT]
                .iter()
                .flat_map(|&shift| {
                    (0..REGISTER_TABLE_ENTRIES).map(move |i| (entry(i) >> shift) as u8)
                })
                .collect();
        }
        table
    }

    /// The eligibility rule: `rows + 1` entries fit the register table
    /// (plus the count-128 blend), every magnitude is below 2^15, and a
    /// whole output row — `max_lsb · (2^slices − 1) · (2^planes − 1)` at
    /// most — fits an `i32` lane.
    fn fits_registers(&self) -> bool {
        if self.entries.len() > REGISTER_TABLE_ENTRIES + 1 || self.planes > 31 || self.slices > 31 {
            return false;
        }
        let max_lsb = self.entries.iter().map(|&e| u64::from(e & Self::LSB_MASK)).max();
        let max_lsb = max_lsb.unwrap_or(0);
        let weight = ((1u64 << self.slices) - 1) * ((1u64 << self.planes) - 1);
        max_lsb < REGISTER_LSB_LIMIT
            && max_lsb.checked_mul(weight).is_some_and(|bound| bound < 1 << 31)
    }

    /// True when the AVX-512 tier converts this table from registers;
    /// other tables (taller arrays, magnitudes of 2^15 and up, or
    /// magnitudes that could overflow an `i32` row sum) take the row-chunk
    /// path on every tier.
    pub fn register_eligible(&self) -> bool {
        !self.image.is_empty()
    }

    /// The padded register image of a register-eligible table — three
    /// byte planes of [`REGISTER_TABLE_ENTRIES`] entries each — empty
    /// otherwise.
    pub(crate) fn register_image(&self) -> &[u8] {
        &self.image
    }

    /// The packed entries, indexed by bit-line count.
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// The largest count the table covers (the array height).
    pub(crate) fn rows(&self) -> usize {
        self.entries.len() - 1
    }

    /// Weight slices per output.
    pub(crate) fn slices(&self) -> usize {
        self.slices
    }
}

/// A hook on the raw bit-line counts of [`convert_diff_tile_into`],
/// between the popcount and the table lookup: the calibration tally reads
/// the counts here, count-level device noise rewrites them.
///
/// An active visitor (`ACTIVE == true`, the default) sees **every** slot
/// of the tile exactly once, on every tier: the primitive then ignores
/// the occupancy and column masks (skipping is only a shortcut, since a
/// dead slot counts 0 anyway). Slots arrive in row chunks, in no
/// particular order, so a visitor must key anything it draws on the slot
/// coordinates, not on the call sequence.
pub trait CountVisitor {
    /// False only for [`NoVisit`]: the primitive then never calls
    /// [`CountVisitor::visit`] and keeps every skip.
    const ACTIVE: bool = true;

    /// Sees and may rewrite the counts of windows `w0..w0 + counts.len()`
    /// (absolute window indices) on one row: `side` 0 is the positive
    /// subarray, 1 the negative; `plane` is the input bit-plane and `col`
    /// the absolute weight column. A rewritten count must stay within the
    /// table (`0..=rows`).
    fn visit(&mut self, side: usize, plane: usize, col: usize, w0: usize, counts: &mut [u32]);
}

/// The no-op [`CountVisitor`]: the plain conversion, with every skip.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoVisit;

impl CountVisitor for NoVisit {
    const ACTIVE: bool = false;

    #[inline]
    fn visit(&mut self, _: usize, _: usize, _: usize, _: usize, _: &mut [u32]) {}
}

/// The operands of one tile conversion, checked by
/// [`convert_diff_tile_into`] before any path runs.
pub(super) struct ConvertTile<'a> {
    pub(super) table: &'a DecodeTable,
    pub(super) pos: &'a BitMatrix,
    pub(super) neg: &'a BitMatrix,
    pub(super) planes: &'a [BitMatrix],
    pub(super) occ: &'a WindowOcc,
    pub(super) pos_live: &'a ColMask,
    pub(super) neg_live: &'a ColMask,
    pub(super) cols: Range<usize>,
    pub(super) windows: Range<usize>,
}

/// Converts one differential subarray tile: for output `o`, slice `α`,
/// plane `p` and window `w`, popcounts `pos.col(c) & planes[p].col(w)`
/// and `neg.col(c) & planes[p].col(w)` (`c = cols.start + o · slices + α`),
/// looks both counts up in `table`, adds `(lsb(pos) − lsb(neg)) << (α + p)`
/// into `acc[o · nw + w − windows.start]`, and returns the A/D operations
/// of every conversion of the tile. The counts stay in registers or a
/// small stack chunk; this is the fusion of [`super::mvm_diff_tile_into`]
/// with the decode.
///
/// `planes` holds one input bit-plane per plane of `table`; `cols` covers
/// whole outputs (one column per weight slice of `table`, starting on an
/// output boundary) and `acc` is `[output][window]`, `nw` windows wide.
///
/// **Skipping contract:** planes dead in `occ`'s live-plane mask, window
/// blocks dead in its per-block occupancy, and columns dead in
/// `pos_live`/`neg_live` must be all-zero — as [`crate::pack_window_planes`],
/// [`WindowOcc::of_planes`] and [`ColMask::of`] record them (all-live
/// records are always valid). They are skipped as shortcuts only: their
/// count-0 conversions fold into the ledger in closed form, so every
/// result equals a dense conversion of every slot.
///
/// `visitor` sees each chunk's raw counts before the lookup (see
/// [`CountVisitor`]); pass [`NoVisit`] for the plain conversion.
///
/// `tier` selects the implementation, with the same runtime feature check
/// as the popcount kernel; every tier returns bit-identical results.
///
/// # Panics
///
/// Panics when the pair's shapes disagree, a plane's shape does not match
/// the tile, the plane count differs from the table's, the array is taller
/// than the table, `cols` is not a whole number of outputs, a range is out
/// of bounds, `acc` is shorter than the tile, `occ` or a mask does not
/// cover the tile, or the host lacks `tier`'s CPU features. A visited
/// count past the table panics on the row-chunk path (its index check);
/// the register table cannot read out of bounds (it indexes registers, not
/// memory) and checks it in debug builds only.
// no_alloc: the conversion runs once per subarray of every tile
#[allow(clippy::too_many_arguments)]
pub fn convert_diff_tile_into<V: CountVisitor>(
    tier: KernelTier,
    table: &DecodeTable,
    pos: &BitMatrix,
    neg: &BitMatrix,
    planes: &[BitMatrix],
    occ: &WindowOcc,
    pos_live: &ColMask,
    neg_live: &ColMask,
    cols: Range<usize>,
    windows: Range<usize>,
    visitor: &mut V,
    acc: &mut [i64],
) -> u64 {
    let slices = table.slices;
    assert_eq!(pos.rows(), neg.rows(), "differential pair row mismatch");
    assert_eq!(pos.cols(), neg.cols(), "differential pair column mismatch");
    assert!(cols.start <= cols.end && cols.end <= pos.cols(), "column tile out of range");
    assert!(windows.start <= windows.end, "window tile range reversed");
    assert_eq!(planes.len(), table.planes, "one input bit-plane per table plane");
    assert!(
        planes.iter().all(|pl| pl.rows() == pos.rows() && windows.end <= pl.cols()),
        "input plane does not match the tile"
    );
    assert!(pos.rows() <= table.rows(), "the table must cover every count of the array");
    let (nc, nw) = (cols.end - cols.start, windows.end - windows.start);
    assert!(nc == 0 || (slices > 0 && nc % slices == 0), "tile columns must cover whole outputs");
    assert!(occ.covers(planes.len(), windows.end), "occupancy does not cover the tile");
    let outputs = nc.checked_div(slices).unwrap_or(0);
    assert!(acc.len() >= outputs * nw, "accumulator shorter than the tile");
    assert!(
        pos_live.spans(cols.end) && neg_live.spans(cols.end),
        "column mask does not cover the tile"
    );
    assert!(
        tier.available(),
        "kernel tier {} forced on a host without its CPU features (host: {})",
        tier.name(),
        cpu_feature_summary()
    );
    if planes.len() * nc * nw == 0 {
        return 0;
    }
    let t = ConvertTile { table, pos, neg, planes, occ, pos_live, neg_live, cols, windows };
    match tier {
        KernelTier::Scalar => convert_wpc::<ScalarRows, V>(&t, visitor, acc),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => convert_wpc::<super::simd::Avx2Rows, V>(&t, visitor, acc),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 if table.register_eligible() && pos.words_per_col <= 2 => {
            super::simd::convert_registers_avx512(&t, visitor, acc)
        }
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 => convert_wpc::<super::simd::Avx512Rows, V>(&t, visitor, acc),
        #[cfg(target_arch = "aarch64")]
        KernelTier::Neon => convert_wpc::<super::simd::NeonRows, V>(&t, visitor, acc),
        // tiers of other architectures: `available()` returned false above
        #[allow(unreachable_patterns)]
        _ => unreachable!("tier availability checked above"),
    }
}

/// Monomorphises the row-chunk path per column word count, as the tile
/// kernel does (`WPC == 0` is the dynamic-length escape hatch).
// no_alloc: dispatch of the per-tile row-chunk conversion
fn convert_wpc<K: RowKernels, V: CountVisitor>(
    t: &ConvertTile<'_>,
    visitor: &mut V,
    acc: &mut [i64],
) -> u64 {
    match t.pos.words_per_col {
        1 => convert_rows::<1, K, V>(t, visitor, acc),
        2 => convert_rows::<2, K, V>(t, visitor, acc),
        4 => convert_rows::<4, K, V>(t, visitor, acc),
        _ => convert_rows::<0, K, V>(t, visitor, acc),
    }
}

/// The row-chunk conversion: per (plane, column) row, the tile's window
/// range as maximal same-liveness runs ([`WindowOcc::next_segment`]);
/// rows whose range is fully live run once over it. Live runs are counted
/// by the tier's row kernel into a stack chunk of at most [`ROW_CHUNK`]
/// windows per side and decoded from it. Dead rows and dead runs fold
/// their count-0 conversions into the ledger in closed form.
// no_alloc: per-subarray conversion of every tile
fn convert_rows<const WPC: usize, K: RowKernels, V: CountVisitor>(
    t: &ConvertTile<'_>,
    visitor: &mut V,
    acc: &mut [i64],
) -> u64 {
    const OPS: u32 = DecodeTable::OPS_SHIFT;
    const LSB: u32 = DecodeTable::LSB_MASK;
    let (slices, wpc) = (t.table.slices, t.pos.words_per_col);
    debug_assert!(WPC == 0 || WPC == wpc, "const word count must match the matrix");
    let (w_start, w_end) = (t.windows.start, t.windows.end);
    let nw = w_end - w_start;
    let entries = t.table.entries();
    let ops0 = u64::from(entries[0] >> OPS);
    let lsb0 = i64::from(entries[0] & LSB);
    let (mut chunk_p, mut chunk_n) = ([0u32; ROW_CHUNK], [0u32; ROW_CHUNK]);
    let mut ops = 0;
    for (p, plane) in t.planes.iter().enumerate() {
        // an active visitor sees every slot: its rows run dense
        let plane_dead = !V::ACTIVE && !t.occ.plane_live(p);
        // fully-live rows (the dense common case) skip segmentation
        let fully = V::ACTIVE || (!plane_dead && t.occ.range_fully_live(p, w_start, w_end));
        for (oc, col) in t.cols.clone().enumerate() {
            let (o, alpha) = (oc / slices, oc % slices);
            let shift = (alpha + p) as u32;
            let pl = V::ACTIVE || t.pos_live.is_live(col);
            let nl = V::ACTIVE || t.neg_live.is_live(col);
            if plane_dead || (!pl && !nl) {
                // every count of the row is 0: the decoded difference is
                // exactly 0 and each conversion costs `ops0`
                ops += 2 * ops0 * nw as u64;
                continue;
            }
            // the dead side of a single-sided row reads count 0 everywhere
            if pl != nl {
                ops += ops0 * nw as u64;
            }
            let ap = &t.pos.words[col * wpc..(col + 1) * wpc];
            let an = &t.neg.words[col * wpc..(col + 1) * wpc];
            let arow = &mut acc[o * nw..(o + 1) * nw];
            let mut w = w_start;
            while w < w_end {
                let (we, seg_live) =
                    if fully { (w_end, true) } else { t.occ.next_segment(p, w, w_end) };
                if !seg_live {
                    let sides = if pl && nl { 2 } else { 1 };
                    ops += sides * ops0 * (we - w) as u64;
                    w = we;
                    continue;
                }
                while w < we {
                    let len = (we - w).min(ROW_CHUNK);
                    let pw = &plane.words[w * wpc..(w + len) * wpc];
                    let aseg = &mut arow[w - w_start..w - w_start + len];
                    let (cps, cns) = (&mut chunk_p[..len], &mut chunk_n[..len]);
                    match (pl, nl) {
                        (true, true) => {
                            K::diff_row::<WPC>(ap, an, pw, wpc, cps, cns);
                            if V::ACTIVE {
                                visitor.visit(0, p, col, w, cps);
                                visitor.visit(1, p, col, w, cns);
                            }
                            for ((a, &cp), &cn) in aseg.iter_mut().zip(&*cps).zip(&*cns) {
                                let (ep, en) = (entries[cp as usize], entries[cn as usize]);
                                ops += u64::from((ep >> OPS) + (en >> OPS));
                                *a += (i64::from(ep & LSB) - i64::from(en & LSB)) << shift;
                            }
                        }
                        (true, false) => {
                            K::single_row::<WPC>(ap, pw, wpc, cps);
                            for (a, &cp) in aseg.iter_mut().zip(&*cps) {
                                let ep = entries[cp as usize];
                                ops += u64::from(ep >> OPS);
                                *a += (i64::from(ep & LSB) - lsb0) << shift;
                            }
                        }
                        (false, true) => {
                            K::single_row::<WPC>(an, pw, wpc, cns);
                            for (a, &cn) in aseg.iter_mut().zip(&*cns) {
                                let en = entries[cn as usize];
                                ops += u64::from(en >> OPS);
                                *a += (lsb0 - i64::from(en & LSB)) << shift;
                            }
                        }
                        (false, false) => unreachable!("dead rows fold above"),
                    }
                    w += len;
                }
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{mvm_diff_tile_into, WINDOW_BLOCK};
    use proptest::prelude::*;

    fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x3D);
        move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m.max(1)
        }
    }

    fn host_tiers() -> Vec<KernelTier> {
        [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512, KernelTier::Neon]
            .into_iter()
            .filter(|t| t.available())
            .collect()
    }

    /// A slot-keyed hash, so a visitor's draws do not depend on the order
    /// chunks arrive in.
    fn slot_key(side: usize, plane: usize, col: usize, w: usize) -> u64 {
        [side, plane, col, w]
            .iter()
            .fold(0x5EED_u64, |h, &x| (h ^ x as u64).wrapping_mul(0x100_0000_01B3).rotate_left(29))
    }

    /// The dense-round visitor of the test: every raw count into a
    /// histogram, then a keyed perturbation of ±2 clamped to the table —
    /// the engine's tally-then-noise order.
    struct TallyPerturb {
        rows: u32,
        hist: Vec<u64>,
    }

    impl TallyPerturb {
        fn apply(&mut self, side: usize, plane: usize, col: usize, w: usize, c: u32) -> u32 {
            self.hist[c as usize] += 1;
            let jitter = (slot_key(side, plane, col, w) % 5) as u32;
            (c + jitter).saturating_sub(2).min(self.rows)
        }
    }

    impl CountVisitor for TallyPerturb {
        fn visit(&mut self, side: usize, plane: usize, col: usize, w0: usize, counts: &mut [u32]) {
            for (i, c) in counts.iter_mut().enumerate() {
                *c = self.apply(side, plane, col, w0 + i, *c);
            }
        }
    }

    /// One random differential tile with its planes, occupancy and masks.
    struct Fixture {
        table: DecodeTable,
        pos: BitMatrix,
        neg: BitMatrix,
        planes: Vec<BitMatrix>,
        occ: WindowOcc,
        pos_live: ColMask,
        neg_live: ColMask,
        cols: Range<usize>,
        windows: Range<usize>,
    }

    impl Fixture {
        fn convert<V: CountVisitor>(&self, tier: KernelTier, v: &mut V, acc: &mut [i64]) -> u64 {
            convert_diff_tile_into(
                tier,
                &self.table,
                &self.pos,
                &self.neg,
                &self.planes,
                &self.occ,
                &self.pos_live,
                &self.neg_live,
                self.cols.clone(),
                self.windows.clone(),
                v,
                acc,
            )
        }

        /// The naive in-test sum over `[plane][column][window]` counts of
        /// both sides: every slot through the table, shift-added.
        fn naive_sum(&self, cp: &[u32], cn: &[u32], acc: &mut [i64]) -> u64 {
            let entries = self.table.entries();
            let (nc, nw, slices) = (self.cols.len(), self.windows.len(), self.table.slices);
            let mut ops = 0;
            for (i, (&p_count, &n_count)) in cp.iter().zip(cn).enumerate() {
                let (row, wi) = (i / nw, i % nw);
                let (p, oc) = (row / nc, row % nc);
                let (ep, en) = (entries[p_count as usize], entries[n_count as usize]);
                ops += u64::from(ep >> DecodeTable::OPS_SHIFT)
                    + u64::from(en >> DecodeTable::OPS_SHIFT);
                let d =
                    i64::from(ep & DecodeTable::LSB_MASK) - i64::from(en & DecodeTable::LSB_MASK);
                acc[(oc / slices) * nw + wi] += d << (oc % slices + p);
            }
            ops
        }
    }

    proptest! {
        /// Every host tier's fused conversion equals the oracle — counts
        /// from the scalar reference kernel, then a naive LUT sum — on
        /// accumulator sums and ledger. Strata: array heights of 1–5 words
        /// per column (40 … 300 rows; 129 and up are never register
        /// tables); ragged tiles (short, starting mid-block, ending
        /// mid-chunk, not a multiple of 4 windows); narrow tiles (fewer
        /// than [`COLUMN_LANE_WINDOWS`] windows, the column-lane path on
        /// AVX-512) with up to 40 outputs, so column groups end in tails
        /// at every non-multiple of 16 and slice counts that do not
        /// divide 16 straddle outputs; dead planes, dead window blocks
        /// and dead columns on either side; saturated columns and
        /// planes, so `count == rows` hits the register table's `top`
        /// blend; magnitudes past the `i32` row bound (the row-chunk
        /// fallback on AVX-512); and dense rounds, where a
        /// tally-plus-perturb visitor must see exactly the slots
        /// `mvm_diff_tile_into` writes, with the same result.
        #[test]
        fn fused_conversion_matches_the_oracle(
            rows_sel in 0usize..7,
            planes in 1usize..9,
            slices in 1usize..9,
            outputs in 1usize..4,
            narrow_outputs in 1usize..41,
            shape in 0usize..4,
            sparse in 0usize..4,
            saturate in proptest::bool::ANY,
            wide in proptest::bool::ANY,
            dense in proptest::bool::ANY,
            loose in proptest::bool::ANY,
            seed in 0u64..1_000_000,
        ) {
            let rows = [40usize, 64, 127, 128, 129, 200, 300][rows_sel];
            let mut next = lcg(seed);
            // tile windows: short; mid-block start with a ragged, odd end
            // inside a 16-lane chunk; narrow, anywhere; anywhere
            let (w0, nw) = match shape {
                0 => (next(8) as usize, 1 + next(15) as usize),
                1 => (
                    WINDOW_BLOCK * next(4) as usize + 1 + next(3) as usize,
                    16 * (1 + next(3) as usize) + 2 * next(7) as usize + 1,
                ),
                2 => (next(40) as usize, 1 + next(COLUMN_LANE_WINDOWS as u64 - 1) as usize),
                _ => (next(40) as usize, 1 + next(90) as usize),
            };
            let n = w0 + nw + next(5) as usize;
            // narrow tiles convert columns in 16-lane groups: span several
            let outputs = if nw < COLUMN_LANE_WINDOWS { narrow_outputs } else { outputs };

            // `wide` magnitudes overflow the i32 row bound for most
            // geometries, pinning the row-chunk fallback
            let max_lsb = if wide { 1 << 20 } else { 256 };
            let entries: Vec<u32> = (0..=rows)
                .map(|_| (next(max_lsb) as u32) | ((next(16) as u32) << DecodeTable::OPS_SHIFT))
                .collect();
            let table = DecodeTable::new(entries, planes, slices);

            // weight columns: output 0 sits left of the tile; dead columns
            // on either side (sparse ≥ 1), all-ones columns when saturating
            let ncols = (outputs + 1) * slices;
            let mut side = |salt: u64| {
                let mut m = BitMatrix::zeros(rows, ncols);
                for c in 0..ncols {
                    let kind = next(6);
                    // the tile's first column saturates whenever asked to
                    let full = saturate && (kind == 1 || c == slices);
                    if !full && sparse >= 1 && kind == 0 {
                        continue;
                    }
                    for r in 0..rows {
                        if full || next(4) == salt {
                            m.set(r, c, true);
                        }
                    }
                }
                m
            };
            let (pos, neg) = (side(0), side(1));

            // input planes: dead planes (sparse ≥ 2), dead block runs like
            // post-ReLU maps (sparse ≥ 3), all-ones planes when saturating
            let live_planes = next(1 << planes) | 1;
            let planes: Vec<BitMatrix> = (0..planes)
                .map(|p| {
                    let mut m = BitMatrix::zeros(rows, n);
                    if sparse >= 2 && live_planes >> p & 1 == 0 {
                        return m;
                    }
                    let full = saturate && p % 2 == 0;
                    for w in 0..n {
                        if !full && sparse >= 3 && (w / WINDOW_BLOCK) % 3 == 1 {
                            continue;
                        }
                        for r in 0..rows {
                            if full || next(3) == 0 {
                                m.set(r, w, true);
                            }
                        }
                    }
                    m
                })
                .collect();

            // the packer's occupancy and tight column masks — or the
            // always-valid loose records, which skip nothing
            let mut occ = WindowOcc::of_planes(&planes);
            let (pos_live, neg_live) = if loose {
                occ.fill_all_live();
                (ColMask::all_live(ncols), ColMask::all_live(ncols))
            } else {
                (ColMask::of(&pos), ColMask::of(&neg))
            };
            let f = Fixture {
                table, pos, neg, planes, occ, pos_live, neg_live,
                cols: slices..ncols, windows: w0..w0 + nw,
            };

            let volume = f.planes.len() * f.cols.len() * nw;
            let start: Vec<i64> = (0..outputs * nw).map(|_| next(1000) as i64 - 500).collect();
            let (mut cp, mut cn) = (vec![0u32; volume], vec![0u32; volume]);
            let mut want = start.clone();
            let mut want_hist = vec![0u64; rows + 1];
            let saturated;
            if dense {
                // the count oracle with skipping off, every slot through
                // the same visitor
                let all = ColMask::all_live(ncols);
                mvm_diff_tile_into(
                    KernelTier::Scalar, &f.pos, &f.neg, &f.planes,
                    &WindowOcc::all_live(f.planes.len(), n), &all, &all,
                    f.cols.clone(), f.windows.clone(), &mut cp, &mut cn,
                );
                saturated = cp.iter().chain(&cn).any(|&c| c as usize == rows);
                let mut v = TallyPerturb { rows: rows as u32, hist: vec![0; rows + 1] };
                let nc = f.cols.len();
                for (side, counts) in [(0, &mut cp), (1, &mut cn)] {
                    for (i, c) in counts.iter_mut().enumerate() {
                        let (row, wi) = (i / nw, i % nw);
                        let col = f.cols.start + row % nc;
                        *c = v.apply(side, row / nc, col, w0 + wi, *c);
                    }
                }
                want_hist = v.hist;
            } else {
                f.pos.mvm_planes_tile_into(&f.planes, f.cols.clone(), f.windows.clone(), &mut cp);
                f.neg.mvm_planes_tile_into(&f.planes, f.cols.clone(), f.windows.clone(), &mut cn);
                saturated = cp.iter().chain(&cn).any(|&c| c as usize == rows);
            }
            let want_ops = f.naive_sum(&cp, &cn, &mut want);
            prop_assert!(saturated || !saturate, "a saturated tile must count `rows`");

            for tier in host_tiers() {
                let mut got = start.clone();
                let ops = if dense {
                    let mut v = TallyPerturb { rows: rows as u32, hist: vec![0; rows + 1] };
                    let ops = f.convert(tier, &mut v, &mut got);
                    prop_assert_eq!(&v.hist, &want_hist, "tally diverged on tier {}", tier.name());
                    ops
                } else {
                    f.convert(tier, &mut NoVisit, &mut got)
                };
                prop_assert_eq!(&got, &want, "sums diverged on tier {}", tier.name());
                prop_assert_eq!(ops, want_ops, "ops diverged on tier {}", tier.name());
            }
        }
    }

    /// A visitor that pushes the last count of every chunk one past the
    /// table.
    struct PastTheTable(u32);

    impl CountVisitor for PastTheTable {
        fn visit(&mut self, _: usize, _: usize, _: usize, _: usize, counts: &mut [u32]) {
            if let Some(c) = counts.last_mut() {
                *c = self.0 + 1;
            }
        }
    }

    /// A 128-row, 2-plane, 2-slice tile of 20 windows with every cell set.
    fn saturated_fixture() -> Fixture {
        let (rows, planes, slices, nw) = (128usize, 2, 2, 20);
        let ones = |cols: usize| {
            let mut m = BitMatrix::zeros(rows, cols);
            for c in 0..cols {
                for r in 0..rows {
                    m.set(r, c, true);
                }
            }
            m
        };
        Fixture {
            table: DecodeTable::new(vec![1 << DecodeTable::OPS_SHIFT; rows + 1], planes, slices),
            pos: ones(slices),
            neg: ones(slices),
            planes: (0..planes).map(|_| ones(nw)).collect(),
            occ: WindowOcc::all_live(planes, nw),
            pos_live: ColMask::all_live(slices),
            neg_live: ColMask::all_live(slices),
            cols: 0..slices,
            windows: 0..nw,
        }
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    /// Debug builds catch a visited count past the table on the register
    /// path, which cannot fault on it.
    #[cfg(debug_assertions)]
    #[test]
    fn register_conversion_rejects_a_count_past_the_table() {
        if !KernelTier::Avx512.available() {
            return;
        }
        let f = saturated_fixture();
        assert!(f.table.register_eligible());
        let mut acc = vec![0i64; f.windows.len()];
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.convert(KernelTier::Avx512, &mut PastTheTable(128), &mut acc)
        }));
        let msg = panic_message(run.expect_err("a count past the table must panic"));
        assert!(msg.contains("count past the conversion table"), "{msg}");
    }

    /// The row-chunk path's table index check catches a visited count past
    /// the table in every build.
    #[test]
    fn row_chunk_conversion_rejects_a_count_past_the_table() {
        let f = saturated_fixture();
        let mut acc = vec![0i64; f.windows.len()];
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.convert(KernelTier::Scalar, &mut PastTheTable(128), &mut acc)
        }));
        let msg = panic_message(run.expect_err("a count past the table must panic"));
        assert!(msg.contains("out of bounds"), "{msg}");
    }

    #[test]
    fn eligibility_follows_table_height_and_row_bound() {
        let ideal = |rows: u32| (0..=rows).map(|c| c | 8 << DecodeTable::OPS_SHIFT).collect();
        // the paper's 128-row arrays: 129 entries, 128 · 255 · 255 < 2^31
        assert!(DecodeTable::new(ideal(128), 8, 8).register_eligible());
        assert!(DecodeTable::new(ideal(40), 8, 8).register_eligible());
        // one entry too many for the registers
        assert!(!DecodeTable::new(ideal(129), 8, 8).register_eligible());
        // magnitudes past the two byte planes (2^15 and up)
        assert!(DecodeTable::new(vec![0, (1 << 15) - 1], 8, 8).register_eligible());
        assert!(!DecodeTable::new(vec![0, 1 << 15], 1, 1).register_eligible());
        // magnitudes whose row sum could overflow an i32 lane:
        // 16480 · 511 · 255 < 2^31 ≤ 16481 · 511 · 255
        assert!(DecodeTable::new(vec![0, 16480], 9, 8).register_eligible());
        assert!(!DecodeTable::new(vec![0, 16481], 9, 8).register_eligible());
    }

    #[test]
    fn window_lanes_expand_block_bits() {
        let mut occ = WindowOcc::default();
        occ.reset(1, 300);
        // live windows: block 1 (4..8) and block 63/64 straddling a word
        for w in [5usize, 253, 258] {
            occ.note(w, 1);
        }
        occ.finish();
        assert_eq!(occ.window_lanes(0, 0), 0x00F0);
        assert_eq!(occ.window_lanes(0, 2), 0x003C);
        // windows 250..266: block 63 (252..256) and block 64 (256..260)
        assert_eq!(occ.window_lanes(0, 250), 0b11_1111_1100);
        // past the backing words everything reads dead
        assert_eq!(occ.window_lanes(0, 296), 0);
    }
}
