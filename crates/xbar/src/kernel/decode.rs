//! The conversion decode primitive — the stage after the popcount kernel.
//!
//! For every (input bit-plane, weight slice) row of a tile, each bit-line
//! count is digitised by the layer's ADC scheme and rebuilt by shift-and-add
//! (paper §III-D, Fig. 4b): the packed conversion entry of the count gives
//! the reconstructed magnitude (LSB units) and the A/D operations the
//! conversion cost. [`decode_diff_tile_into`] folds one subarray's
//! differential counts into an `i64` tile accumulator and returns the A/D
//! operations they cost, in one of two bit-identical ways:
//!
//! - **segment walk** (the scalar, AVX2 and NEON tiers, and tables the
//!   register path does not take) — per row, the window range is walked
//!   as maximal live/dead block runs; live slots read one entry per count,
//!   dead runs fold their count-0 conversions into the ledger in closed
//!   form;
//! - **register table** (AVX-512 tier, tables that are
//!   [`DecodeTable::register_eligible`]) — 16 windows of one output row at
//!   a time, with the whole table held in vector registers: counts come in
//!   through masked loads (plane, window block, column and tile bounds),
//!   so a skipped slot reads as count 0 and picks entry 0 — the closed-form
//!   folds fall out of the arithmetic — and every (plane, slice) row of the
//!   output accumulates in one `i32` lane set, widened to `i64` once.

use super::{cpu_feature_summary, ColMask, KernelTier, WindowOcc};
use std::ops::Range;

/// Entries the register-table decode holds in vector registers: four
/// two-register permutes of 32 entries each. A count equal to the array
/// height (`rows`, one past the table for 128-row arrays) is blended in
/// separately, so tables of up to `REGISTER_TABLE_ENTRIES + 1` entries
/// qualify.
pub(crate) const REGISTER_TABLE_ENTRIES: usize = 128;

/// A layer's packed conversion table together with the tile geometry it
/// decodes: one entry per bit-line count `0..=rows`, packed as
/// `ops << OPS_SHIFT | lsb` (A/D operations in the top byte, reconstructed
/// magnitude in LSB units below), for counts laid out as `planes` input
/// bit-planes × `slices` weight slices per output.
///
/// Whether the register-table decode may run is decided here, once, at
/// construction (see [`DecodeTable::register_eligible`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeTable {
    entries: Vec<u32>,
    planes: usize,
    slices: usize,
    /// The first [`REGISTER_TABLE_ENTRIES`] entries, padded with entry 0,
    /// when the table is register-eligible; empty otherwise.
    image: Vec<u32>,
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
            let mut image = vec![table.entries[0]; REGISTER_TABLE_ENTRIES];
            let n = table.entries.len().min(REGISTER_TABLE_ENTRIES);
            image[..n].copy_from_slice(&table.entries[..n]);
            table.image = image;
        }
        table
    }

    /// The eligibility rule: `rows + 1` entries fit the register table
    /// (plus the `count == rows` blend), and a whole output row —
    /// `max_lsb · (2^slices − 1) · (2^planes − 1)` at most — fits an `i32`
    /// lane.
    fn fits_registers(&self) -> bool {
        if self.entries.len() > REGISTER_TABLE_ENTRIES + 1 || self.planes > 31 || self.slices > 31 {
            return false;
        }
        let max_lsb = self.entries.iter().map(|&e| u64::from(e & Self::LSB_MASK)).max();
        let weight = ((1u64 << self.slices) - 1) * ((1u64 << self.planes) - 1);
        max_lsb.unwrap_or(0).checked_mul(weight).is_some_and(|bound| bound < 1 << 31)
    }

    /// True when the AVX-512 tier decodes this table from registers; other
    /// tables (taller arrays, or magnitudes that could overflow an `i32`
    /// row sum) take the segment walk on every tier.
    pub fn register_eligible(&self) -> bool {
        !self.image.is_empty()
    }

    /// The padded register image of a register-eligible table
    /// ([`REGISTER_TABLE_ENTRIES`] entries), empty otherwise.
    pub(crate) fn register_image(&self) -> &[u32] {
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

    /// Input bit-planes per count block.
    pub(crate) fn planes(&self) -> usize {
        self.planes
    }

    /// Weight slices per output.
    pub(crate) fn slices(&self) -> usize {
        self.slices
    }
}

/// Decodes one subarray's differential tile counts into a tile
/// accumulator: for output `o`, slice `α` and plane `p`, adds
/// `(lsb(pos) − lsb(neg)) << (α + p)` into `acc[o · nw + w]`, and returns
/// the A/D operations of every conversion of the tile.
///
/// `counts_pos` / `counts_neg` hold [`super::mvm_diff_tile_into`]'s output
/// for the same `occ`, masks, `cols` and `windows`: layout
/// `[plane][c − cols.start][w − windows.start]` with `table.planes()`
/// planes. Slots that kernel skipped (dead plane, dead window block, dead
/// column on that side) are never read — they decode as count 0 and cost
/// entry 0's ops, so the returned ops equal a dense decode of every slot.
/// `cols` covers whole outputs (`table.slices()` columns each, starting
/// on an output boundary) and `acc` is `[output][window]`, `nw` windows
/// wide.
///
/// `tier` selects the implementation, with the same runtime feature check
/// as the popcount kernel; every tier returns bit-identical results.
///
/// # Panics
///
/// Panics when `cols` is not a whole number of outputs, a buffer is
/// shorter than the tile, `occ` does not cover the planes and windows, a
/// mask does not cover `cols`, or the host lacks `tier`'s CPU features.
/// A live count beyond the table — a slot the kernel left unwritten —
/// panics in the segment walk; the register table cannot read out of
/// bounds (it indexes registers, not memory) and checks it in debug builds
/// only.
// no_alloc: the decode runs once per subarray of every tile
#[allow(clippy::too_many_arguments)]
pub fn decode_diff_tile_into(
    tier: KernelTier,
    table: &DecodeTable,
    occ: &WindowOcc,
    pos_live: &ColMask,
    neg_live: &ColMask,
    cols: Range<usize>,
    windows: Range<usize>,
    counts_pos: &[u32],
    counts_neg: &[u32],
    acc: &mut [i64],
) -> u64 {
    let (planes, slices) = (table.planes, table.slices);
    assert!(cols.start <= cols.end && windows.start <= windows.end, "decode range reversed");
    let (nc, nw) = (cols.end - cols.start, windows.end - windows.start);
    assert!(nc == 0 || (slices > 0 && nc % slices == 0), "decode columns must cover whole outputs");
    assert!(occ.covers(planes, windows.end), "occupancy does not cover the tile");
    assert!(
        counts_pos.len() >= planes * nc * nw && counts_neg.len() >= planes * nc * nw,
        "count buffer shorter than the tile"
    );
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
    if planes * nc * nw == 0 {
        return 0;
    }
    match tier {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 if table.register_eligible() => super::simd::decode_registers_avx512(
            table, occ, pos_live, neg_live, cols, windows, counts_pos, counts_neg, acc,
        ),
        _ => decode_segments(
            table, occ, pos_live, neg_live, cols, windows, counts_pos, counts_neg, acc,
        ),
    }
}

/// The segment-walking decode: per (plane, slice) row, the tile's window
/// range as maximal same-liveness runs ([`WindowOcc::next_segment`]);
/// rows whose range is fully live run once over it. Dead rows and dead
/// runs fold their count-0 conversions into the ledger in closed form.
// no_alloc: per-subarray decode of every tile
#[allow(clippy::too_many_arguments)]
fn decode_segments(
    table: &DecodeTable,
    occ: &WindowOcc,
    pos_live: &ColMask,
    neg_live: &ColMask,
    cols: Range<usize>,
    windows: Range<usize>,
    counts_pos: &[u32],
    counts_neg: &[u32],
    acc: &mut [i64],
) -> u64 {
    const OPS: u32 = DecodeTable::OPS_SHIFT;
    const LSB: u32 = DecodeTable::LSB_MASK;
    let (planes, slices) = (table.planes, table.slices);
    let (nc, nw) = (cols.end - cols.start, windows.end - windows.start);
    let entries = table.entries();
    let ops0 = u64::from(entries[0] >> OPS);
    let lsb0 = i64::from(entries[0] & LSB);
    let mut ops = 0;
    for p in 0..planes {
        let plane_dead = !occ.plane_live(p);
        // fully-live rows (the dense common case) skip segmentation
        let fully = !plane_dead && occ.range_fully_live(p, windows.start, windows.end);
        for oc in 0..nc {
            let col = cols.start + oc;
            let (o, alpha) = (oc / slices, oc % slices);
            let shift = (alpha + p) as u32;
            let (pl, nl) = (pos_live.is_live(col), neg_live.is_live(col));
            if plane_dead || (!pl && !nl) {
                // every count of the row is 0: the decoded difference is
                // exactly 0 and each conversion costs `ops0`
                ops += 2 * ops0 * nw as u64;
                continue;
            }
            let base = (p * nc + oc) * nw;
            let arow = &mut acc[o * nw..(o + 1) * nw];
            // the dead side of a single-sided row reads count 0 everywhere
            if pl != nl {
                ops += ops0 * nw as u64;
            }
            let mut w = windows.start;
            while w < windows.end {
                let (we, seg_live) =
                    if fully { (windows.end, true) } else { occ.next_segment(p, w, windows.end) };
                let (lo, len) = (w - windows.start, we - w);
                w = we;
                if !seg_live {
                    let sides = if pl && nl { 2 } else { 1 };
                    ops += sides * ops0 * len as u64;
                    continue;
                }
                let aseg = &mut arow[lo..lo + len];
                let cps = &counts_pos[base + lo..base + lo + len];
                let cns = &counts_neg[base + lo..base + lo + len];
                match (pl, nl) {
                    (true, true) => {
                        for ((a, &cp), &cn) in aseg.iter_mut().zip(cps).zip(cns) {
                            let (ep, en) = (entries[cp as usize], entries[cn as usize]);
                            ops += u64::from((ep >> OPS) + (en >> OPS));
                            *a += (i64::from(ep & LSB) - i64::from(en & LSB)) << shift;
                        }
                    }
                    (true, false) => {
                        for (a, &cp) in aseg.iter_mut().zip(cps) {
                            let ep = entries[cp as usize];
                            ops += u64::from(ep >> OPS);
                            *a += (i64::from(ep & LSB) - lsb0) << shift;
                        }
                    }
                    (false, true) => {
                        for (a, &cn) in aseg.iter_mut().zip(cns) {
                            let en = entries[cn as usize];
                            ops += u64::from(en >> OPS);
                            *a += (lsb0 - i64::from(en & LSB)) << shift;
                        }
                    }
                    (false, false) => unreachable!("dead rows fold above"),
                }
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::WINDOW_BLOCK;
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

    /// A skipped slot the kernel left unwritten: any read of it would
    /// decode garbage (or panic in the segment walk).
    const POISON: u32 = u32::MAX;

    proptest! {
        /// Every host tier's decode equals the scalar segment walk —
        /// accumulator sums and ledger — on random tables (register-eligible
        /// or not), random plane/block occupancy (with and without the
        /// block record forced live), random column masks on both sides,
        /// and ragged tiles that start mid-block and end mid-chunk. Slots
        /// the kernel would skip hold poison, so a decode that reads one
        /// diverges.
        #[test]
        fn decode_tiers_match_the_segment_walk(
            rows_sel in 0usize..4,
            planes in 1usize..9,
            slices in 1usize..9,
            outputs in 1usize..4,
            n in 1usize..80,
            w0_sel in 0usize..80,
            wide in proptest::bool::ANY,
            fill_blocks in proptest::bool::ANY,
            seed in 0u64..1_000_000,
        ) {
            let rows = [40usize, 127, 128, 200][rows_sel];
            let mut next = lcg(seed);
            // `wide` magnitudes overflow the i32 row bound for most
            // geometries, pinning the segment-walk fallback
            let max_lsb = if wide { 1 << 20 } else { 256 };
            let entries: Vec<u32> = (0..=rows)
                .map(|_| (next(max_lsb) as u32) | ((next(16) as u32) << DecodeTable::OPS_SHIFT))
                .collect();
            let table = DecodeTable::new(entries, planes, slices);

            // window occupancy: random codes, some planes fully dead
            let mut occ = WindowOcc::default();
            occ.reset(planes, n);
            let live_planes = next(1 << planes) | 1;
            for w in 0..n {
                // zero runs in block-sized stretches, like post-ReLU maps
                if (w / WINDOW_BLOCK) % 3 != 1 {
                    occ.note(w, (next(256) & live_planes) as u8);
                }
            }
            occ.finish();
            if fill_blocks {
                occ.fill_blocks_live();
            }

            let o_total = outputs + 1;
            let ncols = o_total * slices;
            let mask = |next: &mut dyn FnMut(u64) -> u64| {
                let mut m = ColMask::all_live(ncols);
                for c in 0..ncols {
                    if next(4) == 0 {
                        m.words[c / 64] &= !(1u64 << (c % 64));
                    }
                }
                m
            };
            let pos_live = mask(&mut next);
            let neg_live = mask(&mut next);

            // a tile of `outputs` outputs starting at output 1, over a
            // window range starting anywhere
            let cols = slices..(outputs + 1) * slices;
            let w0 = w0_sel % n;
            let windows = w0..n;
            let (nc, nw) = (cols.len(), windows.len());
            let mut counts_pos = vec![POISON; planes * nc * nw];
            let mut counts_neg = vec![POISON; planes * nc * nw];
            for p in 0..planes {
                for ci in 0..nc {
                    for wi in 0..nw {
                        let live = occ.plane_live(p) && occ.block_live(p, (w0 + wi) / WINDOW_BLOCK);
                        let i = (p * nc + ci) * nw + wi;
                        if live && pos_live.is_live(cols.start + ci) {
                            counts_pos[i] = next(rows as u64 + 1) as u32;
                        }
                        if live && neg_live.is_live(cols.start + ci) {
                            counts_neg[i] = next(rows as u64 + 1) as u32;
                        }
                    }
                }
            }
            let start: Vec<i64> = (0..outputs * nw).map(|_| next(1000) as i64 - 500).collect();

            let mut want = start.clone();
            let want_ops = decode_diff_tile_into(
                KernelTier::Scalar, &table, &occ, &pos_live, &neg_live,
                cols.clone(), windows.clone(), &counts_pos, &counts_neg, &mut want,
            );
            for tier in host_tiers() {
                let mut got = start.clone();
                let ops = decode_diff_tile_into(
                    tier, &table, &occ, &pos_live, &neg_live,
                    cols.clone(), windows.clone(), &counts_pos, &counts_neg, &mut got,
                );
                prop_assert_eq!(&got, &want, "sums diverged on tier {}", tier.name());
                prop_assert_eq!(ops, want_ops, "ops diverged on tier {}", tier.name());
            }
        }
    }

    /// Debug builds catch a live count past the table on the register
    /// decode, which cannot fault on it (the segment walk's index check
    /// catches it in every build).
    #[cfg(debug_assertions)]
    #[test]
    fn register_decode_rejects_a_live_count_past_the_table() {
        if !KernelTier::Avx512.available() {
            return;
        }
        let (rows, planes, slices, nw) = (128usize, 2, 2, 20);
        let table = DecodeTable::new(vec![1 << DecodeTable::OPS_SHIFT; rows + 1], planes, slices);
        assert!(table.register_eligible());
        let occ = WindowOcc::all_live(planes, nw);
        let live = ColMask::all_live(slices);
        let mut counts = vec![rows as u32; planes * slices * nw];
        counts[planes * slices * nw - 1] = rows as u32 + 1;
        let mut acc = vec![0i64; nw];
        let decode = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            decode_diff_tile_into(
                KernelTier::Avx512,
                &table,
                &occ,
                &live,
                &live,
                0..slices,
                0..nw,
                &counts,
                &counts,
                &mut acc,
            )
        }));
        let payload = decode.expect_err("a count past the table must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("kernel must write every live slot"), "{msg}");
    }

    #[test]
    fn eligibility_follows_table_height_and_row_bound() {
        let ideal = |rows: u32| (0..=rows).map(|c| c | 8 << DecodeTable::OPS_SHIFT).collect();
        // the paper's 128-row arrays: 129 entries, 128 · 255 · 255 < 2^31
        assert!(DecodeTable::new(ideal(128), 8, 8).register_eligible());
        assert!(DecodeTable::new(ideal(40), 8, 8).register_eligible());
        // one entry too many for the registers
        assert!(!DecodeTable::new(ideal(129), 8, 8).register_eligible());
        // magnitudes whose row sum could overflow an i32 lane
        let wide: Vec<u32> = (0..=128u32).map(|c| c << 9).collect();
        assert!(!DecodeTable::new(wide.clone(), 8, 8).register_eligible());
        assert!(DecodeTable::new(wide, 4, 8).register_eligible());
        // 33025 · 255 · 255 < 2^31 ≤ 33026 · 255 · 255
        assert!(DecodeTable::new(vec![0, 33025], 8, 8).register_eligible());
        assert!(!DecodeTable::new(vec![0, 33026], 8, 8).register_eligible());
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
