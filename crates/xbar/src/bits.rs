//! Packed binary storage for cells and input slices.
//!
//! With 1-bit cells and 1-bit DACs (the paper's architecture-level choice,
//! Section II-C), an MVM cycle per bit line is `popcount(cells & inputs)`.
//! Packing both sides into `u64` words makes a 128-row column two AND+
//! POPCNT instructions — this is the kernel everything else sits on. The
//! popcount arithmetic itself lives in [`crate::kernel`]; the structural
//! accessors here delegate to those shared primitives so there is exactly
//! one popcount implementation to audit. The lone exception is
//! [`BitMatrix::mvm_planes_tile_into`], kept as an independent scalar
//! reference the specialised kernels are pinned against.

use crate::kernel::{and_popcount_words, popcount_words};
use serde::{Deserialize, Serialize};

/// A packed bit vector, LSB of word 0 is element 0.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec { len, words: vec![0; len.div_ceil(64)] }
    }

    /// Builds from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        if value {
            self.words[i / 64] |= 1u64 << (i % 64);
        } else {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// The packed words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// `popcount(self & other)` — the binary dot product, via the shared
    /// specialised kernel primitive.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    pub fn and_popcount(&self, other: &BitVec) -> u32 {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        and_popcount_words(&self.words, &other.words)
    }
}

/// A packed binary matrix stored column-major: each column (bit line) owns
/// a contiguous run of words so the MVM kernel streams linearly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    pub(crate) words_per_col: usize,
    pub(crate) words: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_col = rows.div_ceil(64).max(1);
        BitMatrix { rows, cols, words_per_col, words: vec![0; words_per_col * cols] }
    }

    /// Number of rows (word lines).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bit lines).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads the cell at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "({row}, {col}) out of range");
        let w = col * self.words_per_col + row / 64;
        (self.words[w] >> (row % 64)) & 1 == 1
    }

    /// Writes the cell at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows && col < self.cols, "({row}, {col}) out of range");
        let w = col * self.words_per_col + row / 64;
        if value {
            self.words[w] |= 1u64 << (row % 64);
        } else {
            self.words[w] &= !(1u64 << (row % 64));
        }
    }

    /// Binary MVM: for every column, `popcount(column & input)`, via the
    /// shared specialised kernel primitive.
    ///
    /// # Panics
    ///
    /// Panics when the input length differs from `rows`.
    pub fn mvm(&self, input: &BitVec) -> Vec<u32> {
        assert_eq!(input.len(), self.rows, "input length != rows");
        let iw = input.words();
        let mut out = Vec::with_capacity(self.cols);
        for col in 0..self.cols {
            let base = col * self.words_per_col;
            out.push(and_popcount_words(&self.words[base..base + iw.len()], iw));
        }
        out
    }

    /// Set bits in one column, via the shared kernel primitive.
    pub fn column_count_ones(&self, col: usize) -> u32 {
        let base = col * self.words_per_col;
        popcount_words(&self.words[base..base + self.words_per_col])
    }

    /// Resets to an all-zero `rows × cols` shape, reusing the existing
    /// word allocation — the scratch-buffer primitive of the tiled
    /// execution pipeline (no per-cycle allocation in hot loops).
    ///
    /// Steady state (same shape call after call) is a straight `memset`
    /// of the live words; shape changes rewind the length and only grow
    /// capacity when the new word footprint exceeds anything seen before.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.reshape(rows, cols);
        self.words.fill(0);
    }

    /// Sets the `rows × cols` shape without clearing: words kept from the
    /// old backing hold stale bits and only growth is zeroed. For writers
    /// that overwrite every word ([`pack_window_planes`]).
    pub(crate) fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.words_per_col = rows.div_ceil(64).max(1);
        self.words.resize(self.words_per_col * cols, 0);
    }

    /// Words of backing capacity currently held (allocation accounting
    /// for arena-reuse tests; capacity is monotone across `reset`).
    pub fn word_capacity(&self) -> usize {
        self.words.capacity()
    }

    /// Fused tile kernel: for every input bit-plane in `planes`, computes
    /// `popcount(self.col(c) & plane.col(w))` for the weight columns
    /// `cols` and window columns `windows` of one tile, writing into `out`
    /// with layout `[plane][c - cols.start][w - windows.start]` (row-major,
    /// windows fastest). Allocation-free: `out` is caller-provided scratch.
    ///
    /// One call covers all `input_bits` cycles of one (subarray ×
    /// output-block × window-block) tile. This is the **scalar reference
    /// kernel**, run by the reference engine in `trq-core`'s tests: its
    /// plain zip loop is deliberately independent of the fused kernel
    /// ([`crate::mvm_diff_tile_into`]) so property tests can pin the
    /// fused/skip-enabled kernels against it.
    ///
    /// # Panics
    ///
    /// Panics when a plane's row count differs from `self`, a range is out
    /// of bounds, or `out` is shorter than the tile's count volume.
    pub fn mvm_planes_tile_into(
        &self,
        planes: &[BitMatrix],
        cols: std::ops::Range<usize>,
        windows: std::ops::Range<usize>,
        out: &mut [u32],
    ) {
        assert!(cols.start <= cols.end && cols.end <= self.cols, "column tile out of range");
        let (nc, nw) = (cols.end - cols.start, windows.end - windows.start);
        assert!(out.len() >= planes.len() * nc * nw, "tile output buffer too short");
        let wpc = self.words_per_col;
        for (p, plane) in planes.iter().enumerate() {
            assert_eq!(self.rows, plane.rows, "plane row count mismatch");
            assert!(windows.end <= plane.cols, "window tile out of range");
            for (ci, c) in cols.clone().enumerate() {
                let a = &self.words[c * wpc..(c + 1) * wpc];
                let orow = &mut out[(p * nc + ci) * nw..(p * nc + ci + 1) * nw];
                for (o, w) in orow.iter_mut().zip(windows.clone()) {
                    let b = &plane.words[w * wpc..(w + 1) * wpc];
                    let mut acc = 0u32;
                    for (x, y) in a.iter().zip(b.iter()) {
                        acc += (x & y).count_ones();
                    }
                    *o = acc;
                }
            }
        }
    }
}

/// Packs every input bit-plane of a window batch in one pass over the
/// activation codes — the batched front half of the tiled MVM pipeline.
///
/// `cols` is the engine's `[depth × n]` row-major activation-code matrix;
/// rows `d0..d1` (one crossbar subarray, at most `rows` of them) are packed
/// into `bits` matrices of shape `rows × n` such that
/// `planes[b].get(d - d0, w)` is bit `b` of `cols[d * n + w]`; rows from
/// `d1 - d0` up to `rows` read zero. Matrices already in `planes` are
/// reused (reshaped in place, every word overwritten), so steady-state
/// packing performs no allocation.
///
/// The packing is a bit-matrix transpose, a word at a time and with no
/// branch on the code values:
/// for each run of 8 windows and each 64-row word group, every 8-row slab
/// is loaded as 8 `u64`s (one row's 8 window codes each), byte-transposed
/// so each `u64` holds one window's 8 row codes, and bit-transposed so
/// its byte `b` holds those rows' bit `b`; a second byte transpose over
/// the group's 8 slabs assembles each plane's 64-row word, which is
/// stored once. Windows past the last multiple of 8 load zero-padded.
///
/// Fills `occ` with the batch's **window occupancy** and returns its
/// live-plane mask: bit `b` is set iff plane `b` holds at least one set
/// bit, and per plane one bit per [`crate::kernel::WINDOW_BLOCK`]
/// consecutive windows records which window blocks are non-zero. This is
/// the dynamic side of sparsity-aware skipping — after ReLU the
/// high-order bit-planes of a window batch are ubiquitously all-zero and
/// zero activations cluster in spatially correlated runs, and the fused
/// kernel ([`crate::kernel::mvm_diff_tile_into`]) skips dead planes and
/// dead window blocks outright. Each window's code-OR is the OR of the
/// row words the transpose loads anyway, so occupancy costs no extra
/// sweep.
///
/// # Panics
///
/// Panics when the row window exceeds `rows`, `cols` is too short,
/// `bits` exceeds the 8-bit activation-code width, or a packed code has
/// a set bit at or above `bits` (it would have no plane to land in).
// the argument list is the packing geometry itself; bundling it into a
// struct would just move the same eight names one level down
#[allow(clippy::too_many_arguments)]
pub fn pack_window_planes(
    cols: &[u8],
    n: usize,
    d0: usize,
    d1: usize,
    rows: usize,
    bits: u32,
    planes: &mut Vec<BitMatrix>,
    occ: &mut crate::kernel::WindowOcc,
) -> u32 {
    assert!(d0 <= d1 && d1 - d0 <= rows, "subarray row window exceeds array rows");
    assert!(cols.len() >= d1 * n, "activation matrix too short for row window");
    assert!(bits <= 8, "activation codes are at most 8 bits");
    let n_planes = bits as usize;
    planes.truncate(n_planes);
    for plane in planes.iter_mut() {
        plane.reshape(rows, n);
    }
    while planes.len() < n_planes {
        planes.push(BitMatrix::zeros(rows, n));
    }
    occ.reset(n_planes, n);
    let wpc = rows.div_ceil(64).max(1);
    let depth = d1 - d0;
    let codes = &cols[d0 * n..d1 * n];
    let mut code_or = 0u64;
    for w0 in (0..n).step_by(8) {
        let lanes = (n - w0).min(8);
        // byte `i` = OR of window `w0 + i`'s codes over every row
        let mut window_or = 0u64;
        for g in 0..wpc {
            // words[i][b]: plane `b`'s 64-row word of window `w0 + i`; a
            // group past the row window stays zero
            let mut words = [[0u64; 8]; 8];
            let slabs = depth.saturating_sub(g * 64).div_ceil(8).min(8);
            for slab in 0..slabs {
                let r0 = g * 64 + slab * 8;
                let mut x = [0u64; 8];
                for (i, xi) in x.iter_mut().enumerate().take(depth - r0) {
                    let at = (r0 + i) * n + w0;
                    *xi = load_lanes(&codes[at..at + lanes]);
                    window_or |= *xi;
                }
                transpose_bytes(&mut x);
                for (wi, &xi) in words.iter_mut().zip(x.iter()) {
                    wi[slab] = transpose8(xi);
                }
            }
            for (i, wi) in words.iter_mut().enumerate().take(lanes) {
                if slabs > 0 {
                    transpose_bytes(wi);
                }
                let at = (w0 + i) * wpc + g;
                for (plane, &word) in planes.iter_mut().zip(wi.iter()) {
                    plane.words[at] = word;
                }
            }
        }
        for i in 0..lanes {
            occ.note(w0 + i, (window_or >> (8 * i)) as u8);
        }
        code_or |= window_or;
    }
    let code_or = code_or.to_le_bytes().iter().fold(0u32, |acc, &c| acc | u32::from(c));
    assert!(code_or >> bits == 0, "activation code has bits at or above the {bits}-plane width");
    occ.finish()
}

/// Loads up to 8 codes as the low bytes of a `u64`, zero-padding the rest.
#[inline]
fn load_lanes(codes: &[u8]) -> u64 {
    match <[u8; 8]>::try_from(codes) {
        Ok(full) => u64::from_le_bytes(full),
        Err(_) => codes.iter().rev().fold(0, |acc, &c| acc << 8 | u64::from(c)),
    }
}

/// Transposes the 8×8 byte matrix whose row `i` is `x[i]` (byte `j` of a
/// word is column `j`): afterwards byte `j` of `x[i]` is the old byte `i`
/// of `x[j]`. Three block-swap stages of 4-, 2- and 1-byte blocks.
// no_alloc: per 8-row slab and per window word group of every pack
#[inline]
fn transpose_bytes(x: &mut [u64; 8]) {
    const LO32: u64 = 0x0000_0000_FFFF_FFFF;
    for i in 0..4 {
        let (a, b) = (x[i], x[i + 4]);
        x[i] = (a & LO32) | (b << 32);
        x[i + 4] = (a >> 32) | (b & !LO32);
    }
    const LO16: u64 = 0x0000_FFFF_0000_FFFF;
    for i in [0, 1, 4, 5] {
        let (a, b) = (x[i], x[i + 2]);
        x[i] = (a & LO16) | ((b & LO16) << 16);
        x[i + 2] = ((a >> 16) & LO16) | (b & !LO16);
    }
    const LO8: u64 = 0x00FF_00FF_00FF_00FF;
    for i in [0, 2, 4, 6] {
        let (a, b) = (x[i], x[i + 1]);
        x[i] = (a & LO8) | ((b & LO8) << 8);
        x[i + 1] = ((a >> 8) & LO8) | (b & !LO8);
    }
}

/// Transposes the 8×8 bit matrix held in `x` (bit `j` of byte `i` is
/// row `i`, column `j`) with three delta swaps: afterwards bit `i` of
/// byte `j` is the old bit `j` of byte `i`.
// no_alloc: per window of every 8-row slab of a pack
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bitvec_set_get() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(65));
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn and_popcount_matches_manual() {
        let a = BitVec::from_bools(&[true, true, false, true]);
        let b = BitVec::from_bools(&[true, false, false, true]);
        assert_eq!(a.and_popcount(&b), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitvec_bounds_checked() {
        let v = BitVec::zeros(10);
        let _ = v.get(10);
    }

    #[test]
    #[should_panic(expected = "at or above the 3-plane width")]
    fn pack_rejects_codes_wider_than_bits() {
        // the wide code sits in a tail window of the second 64-row group
        let (n, depth) = (11usize, 70usize);
        let mut cols = vec![0b101u8; depth * n];
        cols[66 * n + 9] = 0b1000;
        let mut occ = crate::kernel::WindowOcc::default();
        pack_window_planes(&cols, n, 0, depth, 128, 3, &mut Vec::new(), &mut occ);
    }

    #[test]
    fn matrix_set_get_across_word_boundary() {
        let mut m = BitMatrix::zeros(128, 3);
        m.set(63, 1, true);
        m.set(64, 1, true);
        m.set(127, 2, true);
        assert!(m.get(63, 1) && m.get(64, 1) && m.get(127, 2));
        assert!(!m.get(63, 0));
        assert_eq!(m.column_count_ones(1), 2);
    }

    #[test]
    fn mvm_small_example() {
        // 3 rows x 2 cols; col0 = [1,0,1], col1 = [0,1,1]; input = [1,1,0]
        let mut m = BitMatrix::zeros(3, 2);
        m.set(0, 0, true);
        m.set(2, 0, true);
        m.set(1, 1, true);
        m.set(2, 1, true);
        let input = BitVec::from_bools(&[true, true, false]);
        assert_eq!(m.mvm(&input), vec![1, 1]);
    }

    proptest! {
        #[test]
        fn mvm_matches_naive(rows in 1usize..200, cols in 1usize..8, seed in 0u64..100) {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 62) & 1 == 1
            };
            let mut m = BitMatrix::zeros(rows, cols);
            let mut dense = vec![vec![false; cols]; rows];
            for (r, dense_row) in dense.iter_mut().enumerate() {
                for (c, cell) in dense_row.iter_mut().enumerate() {
                    let b = next();
                    *cell = b;
                    m.set(r, c, b);
                }
            }
            let in_bools: Vec<bool> = (0..rows).map(|_| next()).collect();
            let input = BitVec::from_bools(&in_bools);
            let got = m.mvm(&input);
            for c in 0..cols {
                let want: u32 = (0..rows).filter(|&r| dense[r][c] && in_bools[r]).count() as u32;
                prop_assert_eq!(got[c], want);
            }
        }

        #[test]
        fn packed_planes_match_code_bits(
            n in 1usize..=70,
            shape in 0usize..5,
            d0 in 0usize..40,
            span_seed in 0usize..1000,
            bits in 1u32..=8,
            seed in 0u64..60,
        ) {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 32) as u32
            };
            // 64-row multiples, ragged windows (d1 − d0 not a multiple of 8
            // or 64), full 8-window runs, tails and batches under 8 windows
            let rows = [40usize, 64, 128, 256, 300][shape];
            let d1 = d0 + span_seed % (rows + 1);
            // rows past d1 exist in the matrix and must stay unpacked;
            // codes fit `bits` and about half are ReLU zeros
            let depth = d1 + 2;
            let code_mask = ((1u32 << bits) - 1) as u8;
            let cols: Vec<u8> = (0..depth * n)
                .map(|_| {
                    let r = next();
                    if r & 1 == 0 { 0 } else { (r >> 8) as u8 & code_mask }
                })
                .collect();
            // dirty scratch: a larger all-ones batch packed into the same
            // planes and occupancy first, so every stale word must be
            // overwritten
            let mut planes = Vec::new();
            let mut occ = crate::kernel::WindowOcc::default();
            let dirty = vec![0xFFu8; 300 * (n + 9)];
            pack_window_planes(&dirty, n + 9, 0, 300, 300, 8, &mut planes, &mut occ);
            let live = pack_window_planes(&cols, n, d0, d1, rows, bits, &mut planes, &mut occ);

            // the naive per-bit reference
            let mut want_planes = vec![BitMatrix::zeros(rows, n); bits as usize];
            let mut want_occ = crate::kernel::WindowOcc::default();
            want_occ.reset(bits as usize, n);
            for d in d0..d1 {
                for w in 0..n {
                    let code = cols[d * n + w];
                    want_occ.note(w, code);
                    for (b, plane) in want_planes.iter_mut().enumerate() {
                        if code >> b & 1 == 1 {
                            plane.set(d - d0, w, true);
                        }
                    }
                }
            }
            let want_live = want_occ.finish();
            prop_assert_eq!(live, want_live, "live-plane mask must OR the packed codes");
            prop_assert_eq!(&occ, &want_occ, "occupancy must match the packed codes");
            prop_assert_eq!(&occ, &crate::kernel::WindowOcc::of_planes(&planes));
            prop_assert_eq!(planes.len(), bits as usize);
            for (b, (got, want)) in planes.iter().zip(&want_planes).enumerate() {
                // whole-matrix equality: rows past d1 and every stale word
                // of the dirty batch must read zero
                prop_assert!(got == want, "plane {} differs from the per-bit reference", b);
            }
        }

        #[test]
        fn tile_kernel_matches_whole_matrix_kernel(
            rows in 1usize..150,
            cols in 2usize..8,
            n in 2usize..7,
            seed in 0u64..40,
        ) {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 61) & 1 == 1
            };
            let mut m = BitMatrix::zeros(rows, cols);
            let mut planes = vec![BitMatrix::zeros(rows, n), BitMatrix::zeros(rows, n)];
            for r in 0..rows {
                for c in 0..cols {
                    m.set(r, c, next());
                }
                for plane in planes.iter_mut() {
                    for w in 0..n {
                        plane.set(r, w, next());
                    }
                }
            }
            // full[p][w][c]: the per-vector MVM of window w of plane p, an
            // independent loop over `BitVec` inputs
            let full: Vec<Vec<Vec<u32>>> = planes
                .iter()
                .map(|p| {
                    (0..n)
                        .map(|w| {
                            let bools: Vec<bool> = (0..rows).map(|r| p.get(r, w)).collect();
                            m.mvm(&BitVec::from_bools(&bools))
                        })
                        .collect()
                })
                .collect();
            // the whole tile, then an interior one: columns [1, cols),
            // windows [1, n)
            for (c0, w0) in [(0, 0), (1, 1)] {
                let (nc, nw) = (cols - c0, n - w0);
                let mut out = vec![0u32; planes.len() * nc * nw];
                m.mvm_planes_tile_into(&planes, c0..cols, w0..n, &mut out);
                for p in 0..planes.len() {
                    for ci in 0..nc {
                        for wi in 0..nw {
                            prop_assert_eq!(
                                out[(p * nc + ci) * nw + wi],
                                full[p][wi + w0][ci + c0],
                                "plane {} col {} win {}", p, ci + c0, wi + w0
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn reset_reuses_allocation_and_zeroes(rows in 1usize..200, cols in 1usize..6) {
            let mut m = BitMatrix::zeros(130, 4);
            m.set(129, 3, true);
            m.reset(rows, cols);
            prop_assert_eq!((m.rows(), m.cols()), (rows, cols));
            for c in 0..cols {
                prop_assert_eq!(m.column_count_ones(c), 0);
            }
        }

        #[test]
        fn steady_state_reset_never_reallocates(rows in 1usize..200, cols in 1usize..6, seed in 0u64..20) {
            // warm to the largest shape once; every later reset — same
            // shape or smaller — must keep the existing backing words
            let mut m = BitMatrix::zeros(rows, cols);
            let cap = m.word_capacity();
            let ptr = m.words.as_ptr();
            for i in 0..8u64 {
                let r = 1 + ((seed + i * 7) as usize % rows);
                let c = 1 + ((seed + i * 13) as usize % cols);
                m.reset(r, c);
                m.set(r - 1, c - 1, true);
                prop_assert_eq!(m.word_capacity(), cap, "reset grew capacity");
                prop_assert_eq!(m.words.as_ptr(), ptr, "reset moved the backing words");
                m.reset(rows, cols);
            }
        }

        #[test]
        fn popcount_bounded_by_rows(rows in 1usize..300, seed in 0u64..50) {
            let mut m = BitMatrix::zeros(rows, 1);
            for r in 0..rows {
                if !(seed + r as u64).is_multiple_of(3) {
                    m.set(r, 0, true);
                }
            }
            let input = BitVec::from_bools(&vec![true; rows]);
            prop_assert!(m.mvm(&input)[0] as usize <= rows);
        }
    }
}
