//! The SIMD kernel tier: tier selection, runtime CPU-feature detection,
//! the `target_feature`-gated row kernels behind
//! [`mvm_diff_tile_into`](super::mvm_diff_tile_into) and the row-chunk
//! path of [`convert_diff_tile_into`](super::convert_diff_tile_into), and
//! the AVX-512 register-table conversion in its window-lane and
//! column-lane forms.
//!
//! Three vector implementations exist, each bit-identical to the scalar
//! reference paths:
//!
//! - **AVX-512** (`avx512f` + `avx512vpopcntdq` + `avx512vl`, plus
//!   `avx512bw` + `avx512vbmi` for the register-table conversion's byte
//!   permutes) — hardware per-qword popcount (`vpopcntq`); the 128-row
//!   paper-default word count processes 4 windows per 512-bit load.
//! - **AVX2** — the classic nibble-LUT popcount (`vpshufb` against a
//!   16-entry bit-count table, horizontal byte sums via `vpsadbw`);
//!   4 windows per iteration on the common word counts.
//! - **NEON** (aarch64) — `cnt.16b` byte popcounts with widening
//!   horizontal adds. NEON is part of the aarch64 base ABI, so no
//!   runtime detection is needed on that architecture.
//!
//! Selection is a two-step affair: configuration carries a
//! [`KernelSelect`] *request* (`auto` by default), and the engine
//! resolves it **once** at construction into a concrete [`KernelTier`]
//! via [`resolve_kernel`] — runtime feature detection picks the widest
//! available tier in `auto` mode, and a forced tier the host cannot run
//! is a typed [`KernelConfigError`], never a silent scalar fallback. The
//! `TRQ_KERNEL` environment variable overrides the configured request so
//! benches and CI can force any tier.
//!
//! # Safety
//!
//! This module is the workspace's documented exception to the
//! `unsafe_code = deny` lint (see the workspace `Cargo.toml`): every
//! `unsafe` block here wraps `target_feature`-gated intrinsic calls and
//! nothing else. Soundness argument: the only callers are the tier
//! dispatchers ([`super::mvm_diff_tile_into`] and
//! [`super::convert_diff_tile_into`]), each of which asserts
//! [`KernelTier::available`] — i.e. the live CPU reports the required
//! features — before dispatching, so a feature-gated function is never
//! entered on a host lacking its features; the register-table shim
//! re-asserts it together with the operand bounds the window-lane
//! accumulator stores rely on, before it picks window or column lanes.
//! Both register conversions load the table image and their masked
//! plane or column lanes through bounds-checked slices; the column-lane
//! conversion touches memory through those loads and safe indexing only.
//! All loads and stores are unaligned-tolerant (`loadu`/`storeu`, or
//! masked forms that suppress unselected lanes) against slices whose
//! bounds the safe callers have already established.

use serde::{Deserialize, Serialize};

#[cfg(target_arch = "x86_64")]
use super::decode::{ConvertTile, CountVisitor};
use super::RowKernels;
#[cfg(target_arch = "x86_64")]
use super::{COLUMN_LANE_WINDOWS, REGISTER_TABLE_ENTRIES};

/// A *requested* kernel implementation, as carried by configuration —
/// resolved against the host CPU (and the `TRQ_KERNEL` environment
/// override) into a concrete [`KernelTier`] by [`resolve_kernel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelSelect {
    /// Pick the widest tier the host supports, falling back to scalar on
    /// hosts with no usable vector extension. The default.
    #[default]
    Auto,
    /// Force the portable scalar paths.
    Scalar,
    /// Require the AVX2 nibble-LUT tier specifically.
    Avx2,
    /// Require the AVX-512 `vpopcntq` tier specifically.
    Avx512,
    /// Require the NEON tier specifically (aarch64 only).
    Neon,
}

impl KernelSelect {
    /// The spelling accepted by the `TRQ_KERNEL` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            KernelSelect::Auto => "auto",
            KernelSelect::Scalar => "scalar",
            KernelSelect::Avx2 => "avx2",
            KernelSelect::Avx512 => "avx512",
            KernelSelect::Neon => "neon",
        }
    }

    fn parse(s: &str) -> Result<Self, KernelConfigError> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(KernelSelect::Auto),
            "scalar" => Ok(KernelSelect::Scalar),
            "avx2" => Ok(KernelSelect::Avx2),
            "avx512" => Ok(KernelSelect::Avx512),
            "neon" => Ok(KernelSelect::Neon),
            _ => Err(KernelConfigError::Unrecognized(s.to_string())),
        }
    }
}

/// A *resolved* kernel implementation — what actually runs. Produced
/// from a [`KernelSelect`] by [`resolve_kernel`]; every variant exists on
/// every architecture (so records and error messages stay portable), but
/// [`KernelTier::available`] is `false` for foreign tiers and the
/// dispatchers refuse to run an unavailable tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelTier {
    /// The portable monomorphised scalar paths — the pinned reference.
    Scalar,
    /// AVX2 nibble-LUT popcount lanes.
    Avx2,
    /// AVX-512 hardware popcount lanes (`avx512f` + `avx512vpopcntdq` +
    /// `avx512vl`), with the register-table conversion's byte permutes
    /// (`avx512bw` + `avx512vbmi`).
    Avx512,
    /// NEON byte-popcount lanes (aarch64).
    Neon,
}

#[cfg(target_arch = "x86_64")]
fn avx2_detected() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(target_arch = "x86_64")]
fn avx512_detected() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512vpopcntdq")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vbmi")
}

impl KernelTier {
    /// The tier's stable lowercase name, as recorded in bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
            KernelTier::Neon => "neon",
        }
    }

    /// True when the live CPU can run this tier. Scalar is always
    /// available; the x86 tiers use (cached) runtime feature detection;
    /// NEON is part of the aarch64 base ABI.
    pub fn available(self) -> bool {
        match self {
            KernelTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => avx2_detected(),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => avx512_detected(),
            KernelTier::Neon => cfg!(target_arch = "aarch64"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// A kernel selection the host cannot honour. Returned by
/// [`resolve_kernel`] so a forced `TRQ_KERNEL=avx512` on a host without
/// AVX-512 fails loudly instead of quietly running the wrong tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelConfigError {
    /// A specific tier was requested but the host CPU lacks the features
    /// to run it.
    Unavailable {
        /// The requested selection's name (`avx2`, `avx512`, …).
        requested: &'static str,
        /// The host's detected feature summary at resolution time.
        host: String,
    },
    /// The `TRQ_KERNEL` value (or other textual selection) did not parse.
    Unrecognized(String),
}

impl std::fmt::Display for KernelConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelConfigError::Unavailable { requested, host } => write!(
                f,
                "kernel tier '{requested}' was requested but this host cannot run it \
                 (detected features: {host}); use TRQ_KERNEL=auto or TRQ_KERNEL=scalar"
            ),
            KernelConfigError::Unrecognized(s) => write!(
                f,
                "unrecognised kernel selection '{s}' \
                 (expected auto | scalar | avx2 | avx512 | neon)"
            ),
        }
    }
}

impl std::error::Error for KernelConfigError {}

/// The environment variable that overrides the configured
/// [`KernelSelect`] (`TRQ_KERNEL=auto|scalar|avx2|avx512|neon`).
pub const KERNEL_ENV: &str = "TRQ_KERNEL";

/// A comma-joined summary of the popcount-relevant CPU features the live
/// host reports (`popcnt`/`avx2`/`avx512f`/…; `neon` on aarch64;
/// `"none"` when nothing relevant is detected) — stamped into bench
/// records and error messages.
pub fn cpu_feature_summary() -> String {
    let mut feats: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("popcnt") {
            feats.push("popcnt");
        }
        if is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        if is_x86_feature_detected!("avx512vpopcntdq") {
            feats.push("avx512vpopcntdq");
        }
        if is_x86_feature_detected!("avx512vl") {
            feats.push("avx512vl");
        }
        if is_x86_feature_detected!("avx512bw") {
            feats.push("avx512bw");
        }
        if is_x86_feature_detected!("avx512vbmi") {
            feats.push("avx512vbmi");
        }
    }
    #[cfg(target_arch = "aarch64")]
    feats.push("neon");
    if feats.is_empty() {
        "none".to_string()
    } else {
        feats.join(",")
    }
}

/// The widest SIMD tier the host supports, if any (AVX-512 ≻ AVX2 ≻
/// NEON).
fn best_simd() -> Option<KernelTier> {
    [KernelTier::Avx512, KernelTier::Avx2, KernelTier::Neon].into_iter().find(|t| t.available())
}

/// Resolves a configured [`KernelSelect`] against the live CPU and the
/// `TRQ_KERNEL` environment variable into the concrete [`KernelTier`] to
/// run. The environment wins over the configured value (so CI can force
/// a tier without touching configs); an empty/whitespace variable counts
/// as unset.
///
/// `Auto` falls back to scalar on hosts with no vector extension; every
/// *forced* tier (`avx2`, `avx512`, `neon`) the host cannot run is a
/// typed [`KernelConfigError`] — never a silent fallback.
pub fn resolve_kernel(select: KernelSelect) -> Result<KernelTier, KernelConfigError> {
    let env = std::env::var(KERNEL_ENV).ok();
    resolve_kernel_with(select, env.as_deref())
}

/// [`resolve_kernel`] with the environment override passed explicitly —
/// the deterministic entry point tests use to pin selection semantics
/// without mutating process environment.
pub fn resolve_kernel_with(
    select: KernelSelect,
    env: Option<&str>,
) -> Result<KernelTier, KernelConfigError> {
    let effective = match env.map(str::trim).filter(|s| !s.is_empty()) {
        Some(s) => KernelSelect::parse(s)?,
        None => select,
    };
    let forced = |tier: KernelTier, requested: &'static str| {
        if tier.available() {
            Ok(tier)
        } else {
            Err(KernelConfigError::Unavailable { requested, host: cpu_feature_summary() })
        }
    };
    match effective {
        KernelSelect::Scalar => Ok(KernelTier::Scalar),
        KernelSelect::Auto => Ok(best_simd().unwrap_or(KernelTier::Scalar)),
        KernelSelect::Avx2 => forced(KernelTier::Avx2, "avx2"),
        KernelSelect::Avx512 => forced(KernelTier::Avx512, "avx512"),
        KernelSelect::Neon => forced(KernelTier::Neon, "neon"),
    }
}

/// The AVX2 nibble-LUT row kernels (see [`avx2`]).
#[cfg(target_arch = "x86_64")]
pub(crate) struct Avx2Rows;

#[cfg(target_arch = "x86_64")]
impl RowKernels for Avx2Rows {
    #[allow(unsafe_code)]
    #[inline]
    fn diff_row<const WPC: usize>(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        wpc: usize,
        out_p: &mut [u32],
        out_n: &mut [u32],
    ) {
        // SAFETY: this kernel is only dispatched after
        // `KernelTier::Avx2.available()` was asserted, so the CPU
        // supports AVX2; slice bounds are established by the safe caller.
        unsafe {
            match WPC {
                1 => avx2::diff_w1(ap, an, pw, out_p, out_n),
                2 => avx2::diff_w2(ap, an, pw, out_p, out_n),
                4 => avx2::diff_w4(ap, an, pw, out_p, out_n),
                _ => avx2::diff_generic(ap, an, pw, wpc, out_p, out_n),
            }
        }
    }

    #[allow(unsafe_code)]
    #[inline]
    fn single_row<const WPC: usize>(a: &[u64], pw: &[u64], wpc: usize, out: &mut [u32]) {
        // SAFETY: as for `diff_row` — AVX2 availability asserted by the
        // dispatching caller.
        unsafe {
            match WPC {
                1 => avx2::single_w1(a, pw, out),
                2 => avx2::single_w2(a, pw, out),
                4 => avx2::single_w4(a, pw, out),
                _ => avx2::single_generic(a, pw, wpc, out),
            }
        }
    }
}

/// The AVX-512 `vpopcntq` row kernels (see [`avx512`]).
#[cfg(target_arch = "x86_64")]
pub(crate) struct Avx512Rows;

#[cfg(target_arch = "x86_64")]
impl RowKernels for Avx512Rows {
    #[allow(unsafe_code)]
    #[inline]
    fn diff_row<const WPC: usize>(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        wpc: usize,
        out_p: &mut [u32],
        out_n: &mut [u32],
    ) {
        // SAFETY: this kernel is only dispatched after
        // `KernelTier::Avx512.available()` was asserted (avx512f +
        // avx512vpopcntdq + avx512vl all detected); slice bounds are
        // established by the safe caller.
        unsafe {
            match WPC {
                1 => avx512::diff_w1(ap, an, pw, out_p, out_n),
                2 => avx512::diff_w2(ap, an, pw, out_p, out_n),
                4 => avx512::diff_w4(ap, an, pw, out_p, out_n),
                _ => avx512::diff_generic(ap, an, pw, wpc, out_p, out_n),
            }
        }
    }

    #[allow(unsafe_code)]
    #[inline]
    fn single_row<const WPC: usize>(a: &[u64], pw: &[u64], wpc: usize, out: &mut [u32]) {
        // SAFETY: as for `diff_row` — AVX-512 availability asserted by
        // the dispatching caller.
        unsafe {
            match WPC {
                1 => avx512::single_w1(a, pw, out),
                2 => avx512::single_w2(a, pw, out),
                4 => avx512::single_w4(a, pw, out),
                _ => avx512::single_generic(a, pw, wpc, out),
            }
        }
    }
}

/// The register-table conversion on the AVX-512 tier (see
/// [`super::decode`] for the contract it shares with the row-chunk path).
/// Tiles narrower than [`COLUMN_LANE_WINDOWS`] windows without an active
/// visitor run with column lanes (16 columns of one window per vector,
/// `avx512::convert_columns`); every other tile with window lanes (16
/// windows of one column per vector, `avx512::convert_registers`).
///
/// # Panics
///
/// Panics when the host lacks AVX-512, `t.table` is not register-eligible,
/// the arrays hold more than two words per column, or the tile's planes or
/// accumulator do not cover it.
// no_alloc: dispatch shim of the per-tile register-table conversion
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(super) fn convert_registers_avx512<V: CountVisitor>(
    t: &ConvertTile<'_>,
    visitor: &mut V,
    acc: &mut [i64],
) -> u64 {
    assert!(KernelTier::Avx512.available(), "register conversion needs the AVX-512 tier");
    assert!(
        t.table.register_image().len() == 3 * REGISTER_TABLE_ENTRIES,
        "table is not register-eligible"
    );
    let (slices, wpc) = (t.table.slices(), t.pos.words_per_col);
    assert!(wpc == 1 || wpc == 2, "register conversion takes one or two words per column");
    assert!(
        t.planes.len() < 32
            && t.planes.iter().all(|pl| pl.words_per_col == wpc && t.windows.end <= pl.cols())
            && t.cols.end <= t.pos.cols()
            && t.pos.cols() == t.neg.cols()
            && t.pos.words_per_col == t.neg.words_per_col
            && acc.len() >= t.cols.len() / slices * t.windows.len(),
        "conversion operands do not cover the tile"
    );
    // Narrow tiles without a visitor convert with column lanes, so a
    // tile of one window fills every lane instead of one.
    let columns = !V::ACTIVE && t.windows.len() < COLUMN_LANE_WINDOWS;
    // SAFETY: the AVX-512 tier (avx512f + avx512vpopcntdq + avx512bw +
    // avx512vbmi among its features) was asserted available above, which
    // is all either body's `unsafe` gate asks. The window-lane body's
    // remaining accesses rest on the invariants asserted here: fewer than
    // 32 planes index its per-plane arrays, and the accumulator covers the
    // tile its masked loads and stores index. Both bodies load the
    // register image and the masked plane or column words through
    // bounds-checked slices.
    unsafe {
        match (wpc, columns) {
            (1, true) => avx512::convert_columns::<1>(t, acc),
            (_, true) => avx512::convert_columns::<2>(t, acc),
            (1, false) => avx512::convert_registers::<1, V>(t, visitor, acc),
            (_, false) => avx512::convert_registers::<2, V>(t, visitor, acc),
        }
    }
}

/// The NEON row kernels (see [`neon`]).
#[cfg(target_arch = "aarch64")]
pub(crate) struct NeonRows;

#[cfg(target_arch = "aarch64")]
impl RowKernels for NeonRows {
    #[inline]
    fn diff_row<const WPC: usize>(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        wpc: usize,
        out_p: &mut [u32],
        out_n: &mut [u32],
    ) {
        let w = if WPC == 0 { wpc } else { WPC };
        for i in 0..out_p.len() {
            let b = &pw[i * w..(i + 1) * w];
            out_p[i] = neon::and_popcount(&ap[..w], b);
            out_n[i] = neon::and_popcount(&an[..w], b);
        }
    }

    #[inline]
    fn single_row<const WPC: usize>(a: &[u64], pw: &[u64], wpc: usize, out: &mut [u32]) {
        let w = if WPC == 0 { wpc } else { WPC };
        for i in 0..out.len() {
            out[i] = neon::and_popcount(&a[..w], &pw[i * w..(i + 1) * w]);
        }
    }
}

/// AVX2 popcount lanes: the nibble-LUT technique — `vpshufb` against a
/// 16-entry bit-count table for each nibble, `vpsadbw` to horizontally
/// sum bytes into per-qword counts. 4 windows per iteration on the
/// monomorphised word counts.
///
/// Every function is `#[target_feature(enable = "avx2")]` and therefore
/// `unsafe` to call; the only callers are the tier dispatchers, which
/// assert AVX2 availability first (see the module-level safety note).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use core::arch::x86_64::*;

    /// Per-qword popcounts of `v` (as 4 u64 lanes).
    // SAFETY: value intrinsics only — no memory access. `unsafe` comes
    // solely from the `target_feature` gate, which every caller
    // discharges because the tier dispatchers assert AVX2 availability
    // before entering this module. The unsafe surface of the module is
    // otherwise confined to the unaligned loads/stores in the row
    // kernels below.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sad_popcnt(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Sum of the 4 u64 lanes (fits u32: counts are bounded by bits
    /// processed per call).
    // SAFETY: value intrinsics only; AVX2 is asserted by the tier
    // dispatchers before any function in this module is entered.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hsum_epi64(v: __m256i) -> u32 {
        let s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
        _mm_cvtsi128_si64(s) as u32
    }

    // SAFETY: AVX2 is asserted by the dispatchers before entry. The
    // unaligned loads read `a[i..i+4]` / `b[i..i+4]` only while
    // `i + 4 <= a.len()`, and the only callers, the generic row kernels,
    // pass both operands as exactly `wpc` words.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn and_popcount(a: &[u64], b: &[u64]) -> u32 {
        unsafe {
            let n = a.len();
            let mut acc = _mm256_setzero_si256();
            let mut i = 0;
            while i + 4 <= n {
                let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
                let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
                acc = _mm256_add_epi64(acc, sad_popcnt(_mm256_and_si256(va, vb)));
                i += 4;
            }
            let mut total = hsum_epi64(acc);
            while i < n {
                total += (a[i] & b[i]).count_ones();
                i += 1;
            }
            total
        }
    }

    /// 1 word per column: 4 windows per 256-bit load.
    // SAFETY: `unsafe` for the AVX2 gate, asserted by the dispatchers.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn diff_w1(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        out_p: &mut [u32],
        out_n: &mut [u32],
    ) {
        // SAFETY: the tile loop passes `pw.len() == out_p.len()` (1 word
        // per column) and `out_n.len() == out_p.len()`; the vector loop
        // loads `pw[w..w+4]` and stores 4 counts only while `w + 4 <= nw`,
        // so every unaligned access is in bounds.
        unsafe {
            let nw = out_p.len();
            let a_p = _mm256_set1_epi64x(ap[0] as i64);
            let a_n = _mm256_set1_epi64x(an[0] as i64);
            // qword k's count sits in dword 2k after vpsadbw
            let idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
            let mut w = 0;
            while w + 4 <= nw {
                let v = _mm256_loadu_si256(pw.as_ptr().add(w) as *const __m256i);
                let sp = sad_popcnt(_mm256_and_si256(v, a_p));
                let sn = sad_popcnt(_mm256_and_si256(v, a_n));
                _mm_storeu_si128(
                    out_p.as_mut_ptr().add(w) as *mut __m128i,
                    _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(sp, idx)),
                );
                _mm_storeu_si128(
                    out_n.as_mut_ptr().add(w) as *mut __m128i,
                    _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(sn, idx)),
                );
                w += 4;
            }
            while w < nw {
                out_p[w] = (ap[0] & pw[w]).count_ones();
                out_n[w] = (an[0] & pw[w]).count_ones();
                w += 1;
            }
        }
    }

    /// 2 words per column (the 128-row paper default): 4 windows per
    /// iteration via two 256-bit loads against a broadcast column pair.
    // SAFETY: `unsafe` for the AVX2 gate, asserted by the dispatchers.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn diff_w2(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        out_p: &mut [u32],
        out_n: &mut [u32],
    ) {
        // SAFETY: the tile loop passes `ap.len() == an.len() == 2`,
        // `pw.len() == 2 * out_p.len()`, `out_n.len() == out_p.len()`;
        // the vector loop reads `pw[2w..2w+8]` and stores 4 counts only
        // while `w + 4 <= nw`, i.e. `2w + 8 <= 2 * nw == pw.len()`.
        unsafe {
            let nw = out_p.len();
            let a_p = _mm256_broadcastsi128_si256(_mm_loadu_si128(ap.as_ptr() as *const __m128i));
            let a_n = _mm256_broadcastsi128_si256(_mm_loadu_si128(an.as_ptr() as *const __m128i));
            // after the unpack/add below the window sums land in qwords
            // [w, w+2, w+1, w+3] → dwords [0, 4, 2, 6]
            let idx = _mm256_setr_epi32(0, 4, 2, 6, 0, 0, 0, 0);
            let mut w = 0;
            while w + 4 <= nw {
                let va = _mm256_loadu_si256(pw.as_ptr().add(w * 2) as *const __m256i);
                let vb = _mm256_loadu_si256(pw.as_ptr().add(w * 2 + 4) as *const __m256i);
                let sap = sad_popcnt(_mm256_and_si256(va, a_p));
                let sbp = sad_popcnt(_mm256_and_si256(vb, a_p));
                let tp = _mm256_add_epi64(
                    _mm256_unpacklo_epi64(sap, sbp),
                    _mm256_unpackhi_epi64(sap, sbp),
                );
                _mm_storeu_si128(
                    out_p.as_mut_ptr().add(w) as *mut __m128i,
                    _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(tp, idx)),
                );
                let san = sad_popcnt(_mm256_and_si256(va, a_n));
                let sbn = sad_popcnt(_mm256_and_si256(vb, a_n));
                let tn = _mm256_add_epi64(
                    _mm256_unpacklo_epi64(san, sbn),
                    _mm256_unpackhi_epi64(san, sbn),
                );
                _mm_storeu_si128(
                    out_n.as_mut_ptr().add(w) as *mut __m128i,
                    _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(tn, idx)),
                );
                w += 4;
            }
            while w < nw {
                let (b0, b1) = (pw[w * 2], pw[w * 2 + 1]);
                out_p[w] = (ap[0] & b0).count_ones() + (ap[1] & b1).count_ones();
                out_n[w] = (an[0] & b0).count_ones() + (an[1] & b1).count_ones();
                w += 1;
            }
        }
    }

    /// 4 words per column: one window per 256-bit load.
    // SAFETY: `unsafe` for the AVX2 gate, asserted by the dispatchers.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn diff_w4(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        out_p: &mut [u32],
        out_n: &mut [u32],
    ) {
        // SAFETY: the tile loop passes `ap.len() == an.len() == 4` and
        // `pw.len() == 4 * out_p.len()`, so each 256-bit load of
        // `pw[4w..4w+4]` (w < out_p.len()) and of the two column operands
        // is in bounds; stores go through the safe `out_p[w]` indexing.
        unsafe {
            let a_p = _mm256_loadu_si256(ap.as_ptr() as *const __m256i);
            let a_n = _mm256_loadu_si256(an.as_ptr() as *const __m256i);
            for w in 0..out_p.len() {
                let v = _mm256_loadu_si256(pw.as_ptr().add(w * 4) as *const __m256i);
                out_p[w] = hsum_epi64(sad_popcnt(_mm256_and_si256(v, a_p)));
                out_n[w] = hsum_epi64(sad_popcnt(_mm256_and_si256(v, a_n)));
            }
        }
    }

    // SAFETY: `unsafe` for the AVX2 gate, asserted by the dispatchers.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn diff_generic(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        wpc: usize,
        out_p: &mut [u32],
        out_n: &mut [u32],
    ) {
        // SAFETY: same AVX2 gate as this function; `and_popcount`'s
        // length contract holds because both operands are sliced (or
        // passed) as exactly `wpc` words.
        unsafe {
            for w in 0..out_p.len() {
                let b = &pw[w * wpc..(w + 1) * wpc];
                out_p[w] = and_popcount(ap, b);
                out_n[w] = and_popcount(an, b);
            }
        }
    }

    // SAFETY: AVX2 asserted by the dispatchers. The tile loop passes
    // `pw.len() == out.len()` (1 word per column); loads of `pw[w..w+4]`
    // and 4-count stores happen only while `w + 4 <= nw`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn single_w1(a: &[u64], pw: &[u64], out: &mut [u32]) {
        unsafe {
            let nw = out.len();
            let av = _mm256_set1_epi64x(a[0] as i64);
            let idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
            let mut w = 0;
            while w + 4 <= nw {
                let v = _mm256_loadu_si256(pw.as_ptr().add(w) as *const __m256i);
                let s = sad_popcnt(_mm256_and_si256(v, av));
                _mm_storeu_si128(
                    out.as_mut_ptr().add(w) as *mut __m128i,
                    _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(s, idx)),
                );
                w += 4;
            }
            while w < nw {
                out[w] = (a[0] & pw[w]).count_ones();
                w += 1;
            }
        }
    }

    // SAFETY: AVX2 asserted by the dispatchers. The tile loop passes
    // `a.len() == 2` and `pw.len() == 2 * out.len()`; the vector loop
    // reads `pw[2w..2w+8]` and stores 4 counts only while `w + 4 <= nw`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn single_w2(a: &[u64], pw: &[u64], out: &mut [u32]) {
        unsafe {
            let nw = out.len();
            let av = _mm256_broadcastsi128_si256(_mm_loadu_si128(a.as_ptr() as *const __m128i));
            let idx = _mm256_setr_epi32(0, 4, 2, 6, 0, 0, 0, 0);
            let mut w = 0;
            while w + 4 <= nw {
                let va = _mm256_loadu_si256(pw.as_ptr().add(w * 2) as *const __m256i);
                let vb = _mm256_loadu_si256(pw.as_ptr().add(w * 2 + 4) as *const __m256i);
                let sa = sad_popcnt(_mm256_and_si256(va, av));
                let sb = sad_popcnt(_mm256_and_si256(vb, av));
                let t =
                    _mm256_add_epi64(_mm256_unpacklo_epi64(sa, sb), _mm256_unpackhi_epi64(sa, sb));
                _mm_storeu_si128(
                    out.as_mut_ptr().add(w) as *mut __m128i,
                    _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(t, idx)),
                );
                w += 4;
            }
            while w < nw {
                out[w] = (a[0] & pw[w * 2]).count_ones() + (a[1] & pw[w * 2 + 1]).count_ones();
                w += 1;
            }
        }
    }

    // SAFETY: AVX2 asserted by the dispatchers. The tile loop passes
    // `a.len() == 4` and `pw.len() == 4 * out.len()`, so each 256-bit
    // load is in bounds; stores go through safe indexing.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn single_w4(a: &[u64], pw: &[u64], out: &mut [u32]) {
        unsafe {
            let av = _mm256_loadu_si256(a.as_ptr() as *const __m256i);
            for (w, o) in out.iter_mut().enumerate() {
                let v = _mm256_loadu_si256(pw.as_ptr().add(w * 4) as *const __m256i);
                *o = hsum_epi64(sad_popcnt(_mm256_and_si256(v, av)));
            }
        }
    }

    // SAFETY: AVX2 asserted by the dispatchers; `and_popcount`'s length
    // contract holds because both operands span exactly `wpc` words.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn single_generic(a: &[u64], pw: &[u64], wpc: usize, out: &mut [u32]) {
        unsafe {
            for w in 0..out.len() {
                out[w] = and_popcount(a, &pw[w * wpc..(w + 1) * wpc]);
            }
        }
    }
}

/// AVX-512 popcount lanes: hardware per-qword popcount (`vpopcntq` from
/// `avx512vpopcntdq`; the 256-bit form additionally needs `avx512vl`).
/// The 128-row paper-default word count processes 4 windows per 512-bit
/// load. The register-table conversion adds byte permutes and byte
/// blends (`avx512vbmi`, `avx512bw`).
///
/// Every function is gated on a subset of the tier's features
/// (`avx512f,avx512vpopcntdq,avx512vl,avx512bw,avx512vbmi`) and therefore
/// `unsafe` to call; the only callers are the tier dispatchers, which
/// assert AVX-512 availability first (see the module-level safety note).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use super::{ConvertTile, CountVisitor, COLUMN_LANE_WINDOWS, REGISTER_TABLE_ENTRIES};
    use crate::kernel::{DecodeTable, WINDOW_BLOCK};
    use core::arch::x86_64::*;

    /// The byte permute that interleaves two count vectors into lookup
    /// indices: lane `k` takes bytes `[pos, pos, neg, neg]` — byte `4k` of
    /// the positive counts twice, then byte `4k` of the negative ones
    /// (`64 + 4k` in the two-register index space).
    const PAIR_INDEX: [u8; 64] = {
        let mut index = [0u8; 64];
        let mut k = 0;
        while k < 16 {
            let b = 4 * k as u8;
            index[4 * k] = b;
            index[4 * k + 1] = b;
            index[4 * k + 2] = 64 + b;
            index[4 * k + 3] = 64 + b;
            k += 1;
        }
        index
    };

    /// The register-held conversion table: its three byte planes
    /// (magnitude low byte, magnitude high byte, ops), 128 entries each in
    /// two registers, and the entry of a count of 128 in the layout
    /// [`lookup_pair`] returns.
    struct RegisterTable {
        lo: [__m512i; 2],
        hi: [__m512i; 2],
        ops: [__m512i; 2],
        top_lsb: __m512i,
        top_ops: __m512i,
    }

    /// Looks up both sides of 16 window lanes at once. `idx` holds per
    /// dword lane the bytes `[pos, pos, neg, neg]` (the two counts, each
    /// twice); one two-register byte permute per plane reads entries
    /// `0..128` from the low 7 bits, and bit 7 — set only by a count of
    /// 128 — blends in the top entry. Returns per lane the magnitude words
    /// `lsb(pos) | lsb(neg) << 16` and the ops bytes
    /// `[ops(pos), ops(pos), ops(neg), ops(neg)]`. Only registers are
    /// indexed — an out-of-range count picks some entry, never a stray
    /// memory read.
    // SAFETY: value intrinsics only — no memory access. `unsafe` comes
    // solely from the target-feature gate, which every caller discharges:
    // the only caller is `convert_registers`, entered after the dispatch
    // shim asserted the AVX-512 tier available.
    // no_alloc: one lookup per (plane, slice) row and 16 windows
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    #[inline]
    unsafe fn lookup_pair(t: &RegisterTable, idx: __m512i) -> (__m512i, __m512i) {
        let lo = _mm512_permutex2var_epi8(t.lo[0], idx, t.lo[1]);
        let hi = _mm512_permutex2var_epi8(t.hi[0], idx, t.hi[1]);
        let ops = _mm512_permutex2var_epi8(t.ops[0], idx, t.ops[1]);
        // odd bytes from the high plane: [lo(p), hi(p), lo(n), hi(n)]
        let lsb = _mm512_mask_blend_epi8(0xAAAA_AAAA_AAAA_AAAA, lo, hi);
        let top = _mm512_movepi8_mask(idx);
        (_mm512_mask_blend_epi8(top, lsb, t.top_lsb), _mm512_mask_blend_epi8(top, ops, t.top_ops))
    }

    /// Loads the register-held form of a register-eligible `table`.
    ///
    /// # Panics
    ///
    /// Panics when the table has no register image.
    // SAFETY: `unsafe` only for the target-feature gate, which every
    // caller discharges (both conversions are entered after the dispatch
    // shim asserted the AVX-512 tier available). The six 64-byte loads
    // read inside a slice of exactly three 128-byte planes, whose bounds
    // the slicing checks.
    // no_alloc: once per register-table conversion call
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    unsafe fn register_table(table: &DecodeTable) -> RegisterTable {
        let image = &table.register_image()[..3 * REGISTER_TABLE_ENTRIES];
        let top = table.entries()[table.rows()];
        let (top_lo, top_hi, top_ops) = (top as u8, (top >> 8) as u8, (top >> 24) as u8);
        let plane = |k: usize| {
            let bytes = &image[128 * k..128 * (k + 1)];
            // SAFETY: each load reads 64 bytes of the 128-byte `bytes`.
            unsafe {
                [
                    _mm512_loadu_si512(bytes.as_ptr() as *const _),
                    _mm512_loadu_si512(bytes[64..].as_ptr() as *const _),
                ]
            }
        };
        RegisterTable {
            lo: plane(0),
            hi: plane(1),
            ops: plane(2),
            top_lsb: _mm512_set1_epi32(i32::from_le_bytes([top_lo, top_hi, top_lo, top_hi])),
            top_ops: _mm512_set1_epi8(top_ops as i8),
        }
    }

    /// Doubles every bit of a 16-lane mask into a 32-lane qword mask:
    /// lane `i` of two-word operands covers qwords `2i` and `2i + 1`.
    // no_alloc: once per 16-lane operand load
    #[inline]
    fn spread_pairs(m: u16) -> u32 {
        let mut x = u32::from(m);
        x = (x | x << 8) & 0x00FF_00FF;
        x = (x | x << 4) & 0x0F0F_0F0F;
        x = (x | x << 2) & 0x3333_3333;
        x = (x | x << 1) & 0x5555_5555;
        x | x << 1
    }

    /// Loads 16 lanes of `WPC`-word operands — a plane's windows or an
    /// array's columns, stored `WPC` words apiece from `words[0]` — in
    /// the layout [`count_lanes`] reads: `WPC · 2` vectors of 8 qwords,
    /// lanes 0–7 word by word, then lanes 8–15. Lanes outside `m` read 0.
    ///
    /// # Panics
    ///
    /// Panics when `words` is shorter than the highest selected lane.
    // SAFETY: `unsafe` only for the target-feature gate (see
    // `register_table`). A masked load touches only the qwords its mask
    // selects (unselected lanes are suppressed and read 0): the words of
    // the lanes in `m`, inside `words` by the length check below.
    // `wrapping_add` keeps the address arithmetic of the unselected tail
    // defined.
    // no_alloc: once per live plane of a window chunk, or per column group
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load_lanes<const WPC: usize>(words: &[u64], m: u16) -> [__m512i; 4] {
        assert!(words.len() >= (16 - m.leading_zeros() as usize) * WPC, "lanes past the operand");
        let base = words.as_ptr();
        // SAFETY: see above — every selected qword lies inside `words`.
        unsafe {
            if WPC == 1 {
                let lo = _mm512_maskz_loadu_epi64(m as u8, base as *const i64);
                let hi =
                    _mm512_maskz_loadu_epi64((m >> 8) as u8, base.wrapping_add(8) as *const i64);
                return [lo, hi, lo, hi];
            }
            // word 0 / word 1 of the 8 lanes of two interleaved vectors
            let word0 = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
            let word1 = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
            let q = spread_pairs(m);
            let load = |k: usize| {
                _mm512_maskz_loadu_epi64(
                    (q >> (8 * k)) as u8,
                    base.wrapping_add(8 * k) as *const i64,
                )
            };
            let (l0, l1, l2, l3) = (load(0), load(1), load(2), load(3));
            [
                _mm512_permutex2var_epi64(l0, word0, l1),
                _mm512_permutex2var_epi64(l0, word1, l1),
                _mm512_permutex2var_epi64(l2, word0, l3),
                _mm512_permutex2var_epi64(l2, word1, l3),
            ]
        }
    }

    /// The counts of 16 lanes of `WPC`-word operands against one
    /// broadcast operand, compacted to 16 `u32` lanes. `pv` holds the
    /// lanes as [`load_lanes`] lays them out and `a` the broadcast
    /// operand's `WPC` words; per-word popcounts of the same lane add
    /// lane-wise, and one `vpermt2d` takes the low dword of every qword
    /// of the two halves. The window-lane conversion passes a plane's
    /// windows and a column's words, the column-lane one a group's
    /// columns and a window's plane words.
    ///
    /// # Safety
    ///
    /// The host must support `avx512f` and `avx512vpopcntdq`.
    // SAFETY: value intrinsics only — no memory access. `unsafe` comes
    // solely from the target-feature gate, which every caller discharges:
    // the callers are the two conversions, entered after the dispatch
    // shim asserted the AVX-512 tier available.
    // no_alloc: two count vectors per converted row and 16 lanes
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    #[inline]
    unsafe fn count_lanes<const WPC: usize>(
        pv: &[__m512i; 4],
        a: &[u64],
        even: __m512i,
    ) -> __m512i {
        let a0 = _mm512_set1_epi64(a[0] as i64);
        if WPC == 1 {
            let lo = _mm512_popcnt_epi64(_mm512_and_si512(pv[0], a0));
            let hi = _mm512_popcnt_epi64(_mm512_and_si512(pv[1], a0));
            return _mm512_permutex2var_epi32(lo, even, hi);
        }
        let a1 = _mm512_set1_epi64(a[1] as i64);
        let lo = _mm512_add_epi64(
            _mm512_popcnt_epi64(_mm512_and_si512(pv[0], a0)),
            _mm512_popcnt_epi64(_mm512_and_si512(pv[1], a1)),
        );
        let hi = _mm512_add_epi64(
            _mm512_popcnt_epi64(_mm512_and_si512(pv[2], a0)),
            _mm512_popcnt_epi64(_mm512_and_si512(pv[3], a1)),
        );
        _mm512_permutex2var_epi32(lo, even, hi)
    }

    /// The register-table conversion of one subarray tile: per 16-window
    /// chunk, every live plane's words are loaded once through masked
    /// loads (window blocks live ∧ lane inside the tile — everything else
    /// reads 0) and split word by word; then per output row, every live
    /// (plane, slice) row is popcounted against the broadcast column words
    /// of both sides ([`count_lanes`]), the two count vectors are
    /// interleaved into index bytes with one byte permute, looked up at once
    /// ([`lookup_pair`]), and `lsb(pos) − lsb(neg)` (one `vpmaddwd`) is
    /// summed into one `i32` lane set by Horner's rule, widened into the
    /// `i64` accumulator once; the ops bytes sum in `u64` lanes (`vpsadbw`)
    /// and flush per output row. An active visitor sees each count vector
    /// through a 16-lane stack array before the lookup.
    ///
    /// # Safety
    ///
    /// The host must support the AVX-512 tier's features; there must be
    /// fewer than 32 planes; and `acc` must hold at least
    /// `t.cols.len() / slices · t.windows.len()` sums (its masked stores
    /// write them). [`super::convert_registers_avx512`] asserts all of
    /// them. The plane and table loads check their own bounds.
    // SAFETY: `unsafe` for the target-feature gate. Callers guarantee (the
    // safe shim `convert_registers_avx512` asserts it) that the AVX-512
    // tier is available, that there are fewer than 32 planes, and that
    // `acc` holds at least `nc / slices · nw` sums.
    // no_alloc: the register-table conversion runs once per subarray of every tile
    #[target_feature(enable = "avx512f,avx512vpopcntdq,avx512bw,avx512vbmi")]
    pub(super) unsafe fn convert_registers<const WPC: usize, V: CountVisitor>(
        t: &ConvertTile<'_>,
        visitor: &mut V,
        acc: &mut [i64],
    ) -> u64 {
        let table = t.table;
        let (planes, slices) = (t.planes.len(), table.slices());
        let (nc, nw) = (t.cols.len(), t.windows.len());
        let ops0 = u64::from(table.entries()[0] >> DecodeTable::OPS_SHIFT);
        let lut = register_table(table);
        let rows_v = _mm512_set1_epi32(table.rows() as i32);
        // the low dword of every qword of two 8-qword vectors
        let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        // SAFETY: `PAIR_INDEX` holds exactly 64 bytes.
        let pairs = unsafe { _mm512_loadu_si512(PAIR_INDEX.as_ptr() as *const _) };
        // vpmaddwd weights: lsb(pos) · 1 + lsb(neg) · −1
        let pos_minus_neg = _mm512_set1_epi32(0xFFFF_0001_u32 as i32);
        let mut ops = 0u64;
        // the current chunk per plane: live window lanes and split words
        let mut plane_lanes = [0u16; 32];
        let mut pv = [[_mm512_setzero_si512(); 4]; 32];
        let mut off = 0;
        while off < nw {
            let lanes = (nw - off).min(16);
            let tail = ((1u32 << lanes) - 1) as u16;
            let w = t.windows.start + off;
            for p in 0..planes {
                // an active visitor sees every slot: its chunks run dense
                let m = if V::ACTIVE {
                    tail
                } else if t.occ.plane_live(p) {
                    t.occ.window_lanes(p, w) as u16 & tail
                } else {
                    0
                };
                plane_lanes[p] = m;
                if m == 0 {
                    continue;
                }
                // the selected windows `w + i` (`i < lanes`) lie below
                // `t.windows.end`, inside the plane's words
                pv[p] = load_lanes::<WPC>(&t.planes[p].words[w * WPC..], m);
            }
            for o in 0..nc / slices {
                let c0 = t.cols.start + o * slices;
                let (pos_words, neg_words) = (
                    &t.pos.words[c0 * WPC..(c0 + slices) * WPC],
                    &t.neg.words[c0 * WPC..(c0 + slices) * WPC],
                );
                let zero = _mm512_setzero_si512();
                // Σ (lsb(pos) − lsb(neg)) << (α + p) by Horner's rule:
                // planes and slices run descending and every step doubles
                // the partial sum, so no row needs its own shift
                let mut acc32 = zero;
                // 2 · (ops(pos) + ops(neg)) summed per pair of windows
                let mut ops64 = zero;
                let mut dead_rows = 0u64;
                for p in (0..planes).rev() {
                    acc32 = _mm512_add_epi32(acc32, acc32);
                    if plane_lanes[p] == 0 {
                        dead_rows += slices as u64;
                        continue;
                    }
                    let mut row32 = zero;
                    for alpha in (0..slices).rev() {
                        row32 = _mm512_add_epi32(row32, row32);
                        let col = c0 + alpha;
                        let pl = V::ACTIVE || t.pos_live.is_live(col);
                        let nl = V::ACTIVE || t.neg_live.is_live(col);
                        if !pl && !nl {
                            dead_rows += 1;
                            continue;
                        }
                        // a dead side's words are all zero: count 0
                        let words = alpha * WPC..(alpha + 1) * WPC;
                        let mut cp = if pl {
                            count_lanes::<WPC>(&pv[p], &pos_words[words.clone()], even)
                        } else {
                            zero
                        };
                        let mut cn = if nl {
                            count_lanes::<WPC>(&pv[p], &neg_words[words], even)
                        } else {
                            zero
                        };
                        if V::ACTIVE {
                            let mut buf = [0u32; 16];
                            for (side, c) in [(0, &mut cp), (1, &mut cn)] {
                                // SAFETY: `buf` holds exactly 16 u32 lanes.
                                unsafe { _mm512_storeu_si512(buf.as_mut_ptr() as *mut _, *c) };
                                visitor.visit(side, p, col, w, &mut buf[..lanes]);
                                // SAFETY: as for the store above.
                                *c = unsafe { _mm512_loadu_si512(buf.as_ptr() as *const _) };
                            }
                            // the register lookup cannot fault on a count
                            // past the table; debug builds catch it
                            debug_assert!(
                                _mm512_cmpgt_epu32_mask(_mm512_max_epu32(cp, cn), rows_v) == 0,
                                "visitor wrote a count past the conversion table"
                            );
                        }
                        let idx = _mm512_permutex2var_epi8(cp, pairs, cn);
                        let (lsb, ops_bytes) = lookup_pair(&lut, idx);
                        row32 = _mm512_add_epi32(row32, _mm512_madd_epi16(lsb, pos_minus_neg));
                        ops64 = _mm512_add_epi64(ops64, _mm512_sad_epu8(ops_bytes, zero));
                    }
                    acc32 = _mm512_add_epi32(acc32, row32);
                }
                // every live row also converted the lanes past the tile
                // (count 0, `2 · ops0` each); rows dead on both sides cost
                // `ops0` per conversion of the tile's lanes
                let live_rows = (planes * slices) as u64 - dead_rows;
                let live_ops = _mm512_reduce_add_epi64(ops64) as u64 / 2;
                ops += live_ops - live_rows * 2 * ops0 * (16 - lanes) as u64
                    + dead_rows * 2 * ops0 * lanes as u64;
                if live_rows == 0 {
                    continue;
                }
                let a = o * nw + off;
                let low = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc32));
                let high = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(acc32));
                // SAFETY: `a + lanes <= (o + 1) · nw <= acc.len()`; the
                // masked load/store pairs touch only lanes below `lanes`
                // (`tail`), the second half only when more than 8 lanes are
                // live, so `a + 8` is then inside the row.
                unsafe {
                    let dst = acc.as_mut_ptr().add(a);
                    let m = tail as u8;
                    let sum = _mm512_add_epi64(_mm512_maskz_loadu_epi64(m, dst), low);
                    _mm512_mask_storeu_epi64(dst, m, sum);
                    if lanes > 8 {
                        let (dst, m) = (dst.add(8), (tail >> 8) as u8);
                        let sum = _mm512_add_epi64(_mm512_maskz_loadu_epi64(m, dst), high);
                        _mm512_mask_storeu_epi64(dst, m, sum);
                    }
                }
            }
            off += 16;
        }
        ops
    }

    /// The column-lane register-table conversion of a narrow tile (fewer
    /// than [`COLUMN_LANE_WINDOWS`] windows, no active visitor): each
    /// vector's 16 lanes hold 16 consecutive tile columns of one window,
    /// as a crossbar digitises every bit line of one input bit-plane at
    /// once. Per 16-column group, both sides' column words load once
    /// ([`load_lanes`]; lanes past the tile read 0). Per window, every
    /// plane live there (plane live ∧ the window's block live) is
    /// popcounted against the broadcast plane words ([`count_lanes`]),
    /// looked up ([`lookup_pair`]) and summed by Horner's rule over the
    /// descending planes into one `i32` lane per column; lane `j` then
    /// adds into its output's accumulator shifted by its slice. The ops
    /// bytes of the lanes past the tile are masked out; a plane dead at a
    /// window folds its `2 · ops0 · nc` count-0 conversions in closed
    /// form; dead columns have all-zero words and count 0 by arithmetic.
    ///
    /// A lane's sum `Σ_p (lsb(pos) − lsb(neg)) << p` is at most
    /// `max_lsb · (2^planes − 1)` in magnitude, inside the output-row
    /// bound that makes the table register-eligible.
    ///
    /// # Safety
    ///
    /// The host must support the AVX-512 tier's features;
    /// [`super::convert_registers_avx512`] asserts it. Every memory access
    /// goes through a bounds-checked slice.
    // SAFETY: `unsafe` only for the target-feature gate, which the safe
    // shim `convert_registers_avx512` discharges by asserting the AVX-512
    // tier available. The column loads go through `load_lanes`, which
    // checks its slice covers the selected lanes; every other access is
    // safe indexing.
    // no_alloc: the column-lane conversion runs once per subarray of every narrow tile
    #[target_feature(enable = "avx512f,avx512vpopcntdq,avx512bw,avx512vbmi")]
    pub(super) unsafe fn convert_columns<const WPC: usize>(
        t: &ConvertTile<'_>,
        acc: &mut [i64],
    ) -> u64 {
        let table = t.table;
        let (planes, slices) = (t.planes.len(), table.slices());
        let (nc, nw) = (t.cols.len(), t.windows.len());
        assert!(nw < COLUMN_LANE_WINDOWS, "column lanes take narrow tiles");
        let ops0 = u64::from(table.entries()[0] >> DecodeTable::OPS_SHIFT);
        let lut = register_table(table);
        // the low dword of every qword of two 8-qword vectors
        let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        // SAFETY: `PAIR_INDEX` holds exactly 64 bytes.
        let pairs = unsafe { _mm512_loadu_si512(PAIR_INDEX.as_ptr() as *const _) };
        // vpmaddwd weights: lsb(pos) · 1 + lsb(neg) · −1
        let pos_minus_neg = _mm512_set1_epi32(0xFFFF_0001_u32 as i32);
        let zero = _mm512_setzero_si512();
        // per window, the planes live there; the dead ones fold here
        let mut live = [0u32; COLUMN_LANE_WINDOWS];
        let mut dead = 0u64;
        for (i, m) in live[..nw].iter_mut().enumerate() {
            let b = (t.windows.start + i) / WINDOW_BLOCK;
            for p in 0..planes {
                if t.occ.plane_live(p) && t.occ.block_live(p, b) {
                    *m |= 1 << p;
                } else {
                    dead += 1;
                }
            }
        }
        let ops = dead * 2 * ops0 * nc as u64;
        // 2 · (ops(pos) + ops(neg)) summed per pair of column lanes
        let mut ops64 = zero;
        let mut g = 0;
        while g < nc {
            let lanes = (nc - g).min(16);
            let c = t.cols.start + g;
            let tail = ((1u32 << lanes) - 1) as u16;
            // the ops bytes of the group's lanes (four per lane)
            let tail_bytes = u64::MAX >> (64 - 4 * lanes);
            let cols_p = load_lanes::<WPC>(&t.pos.words[c * WPC..], tail);
            let cols_n = load_lanes::<WPC>(&t.neg.words[c * WPC..], tail);
            // lane j is tile column g + j: output row and slice shift
            let (mut row, mut shift) = ([0usize; 16], [0u32; 16]);
            for (j, (r, s)) in row.iter_mut().zip(&mut shift).enumerate().take(lanes) {
                let oc = g + j;
                (*r, *s) = (oc / slices * nw, (oc % slices) as u32);
            }
            for (i, &m) in live[..nw].iter().enumerate() {
                if m == 0 {
                    continue;
                }
                let w = t.windows.start + i;
                // Σ (lsb(pos) − lsb(neg)) << p by Horner's rule
                let mut acc32 = zero;
                for p in (0..planes).rev() {
                    acc32 = _mm512_add_epi32(acc32, acc32);
                    if m >> p & 1 == 0 {
                        continue;
                    }
                    let words = &t.planes[p].words[w * WPC..(w + 1) * WPC];
                    let cp = count_lanes::<WPC>(&cols_p, words, even);
                    let cn = count_lanes::<WPC>(&cols_n, words, even);
                    let idx = _mm512_permutex2var_epi8(cp, pairs, cn);
                    let (lsb, ops_bytes) = lookup_pair(&lut, idx);
                    acc32 = _mm512_add_epi32(acc32, _mm512_madd_epi16(lsb, pos_minus_neg));
                    let ops_bytes = _mm512_maskz_mov_epi8(tail_bytes, ops_bytes);
                    ops64 = _mm512_add_epi64(ops64, _mm512_sad_epu8(ops_bytes, zero));
                }
                let mut sums = [0i32; 16];
                // SAFETY: `sums` holds exactly 16 i32 lanes.
                unsafe { _mm512_storeu_si512(sums.as_mut_ptr() as *mut _, acc32) };
                for ((&v, &r), &s) in sums.iter().zip(&row).zip(&shift).take(lanes) {
                    acc[r + i] += i64::from(v) << s;
                }
            }
            g += 16;
        }
        ops + _mm512_reduce_add_epi64(ops64) as u64 / 2
    }

    /// Sum of the 4 u64 lanes of a 256-bit vector.
    // SAFETY: value intrinsics only — no memory access. The enclosing
    // functions are gated on avx512f/avx512vpopcntdq/avx512vl (this
    // helper on the implied avx2), which the dispatchers verified the
    // CPU supports before entering this module. The unsafe surface of
    // the module is otherwise confined to the unaligned loads/stores in
    // the row kernels below.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hsum_epi64(v: __m256i) -> u32 {
        let s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
        _mm_cvtsi128_si64(s) as u32
    }

    // SAFETY: AVX-512 availability (all three features) is asserted by
    // the dispatchers before entry. The unaligned loads read
    // `a[i..i+8]` / `b[i..i+8]` only while `i + 8 <= a.len()`, and the
    // only callers, the generic row kernels, pass both operands as
    // exactly `wpc` words.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,avx512vl")]
    pub(super) unsafe fn and_popcount(a: &[u64], b: &[u64]) -> u32 {
        unsafe {
            let n = a.len();
            let mut acc = _mm512_setzero_si512();
            let mut i = 0;
            while i + 8 <= n {
                let va = _mm512_loadu_si512(a.as_ptr().add(i) as *const _);
                let vb = _mm512_loadu_si512(b.as_ptr().add(i) as *const _);
                acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
                i += 8;
            }
            let folded =
                _mm256_add_epi64(_mm512_castsi512_si256(acc), _mm512_extracti64x4_epi64::<1>(acc));
            let mut total = hsum_epi64(folded);
            while i < n {
                total += (a[i] & b[i]).count_ones();
                i += 1;
            }
            total
        }
    }

    /// 1 word per column: 8 windows per 512-bit load, counts narrowed to
    /// u32 with one `vpmovqd`.
    // SAFETY: `unsafe` for the AVX-512 gate, asserted by the dispatchers.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,avx512vl")]
    pub(super) unsafe fn diff_w1(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        out_p: &mut [u32],
        out_n: &mut [u32],
    ) {
        // SAFETY: the tile loop passes `pw.len() == out_p.len()` (1 word
        // per column) and `out_n.len() == out_p.len()`; the vector loop
        // loads `pw[w..w+8]` and stores 8 counts only while `w + 8 <= nw`,
        // so every unaligned access is in bounds.
        unsafe {
            let nw = out_p.len();
            let a_p = _mm512_set1_epi64(ap[0] as i64);
            let a_n = _mm512_set1_epi64(an[0] as i64);
            let mut w = 0;
            while w + 8 <= nw {
                let v = _mm512_loadu_si512(pw.as_ptr().add(w) as *const _);
                let cp = _mm512_popcnt_epi64(_mm512_and_si512(v, a_p));
                let cn = _mm512_popcnt_epi64(_mm512_and_si512(v, a_n));
                _mm256_storeu_si256(
                    out_p.as_mut_ptr().add(w) as *mut __m256i,
                    _mm512_cvtepi64_epi32(cp),
                );
                _mm256_storeu_si256(
                    out_n.as_mut_ptr().add(w) as *mut __m256i,
                    _mm512_cvtepi64_epi32(cn),
                );
                w += 8;
            }
            while w < nw {
                out_p[w] = (ap[0] & pw[w]).count_ones();
                out_n[w] = (an[0] & pw[w]).count_ones();
                w += 1;
            }
        }
    }

    /// 2 words per column (the 128-row paper default): 4 windows per
    /// 512-bit load against a lane-broadcast column pair; per-128-lane
    /// pair sums are compacted to 4 u32 with one `vpermd`.
    // SAFETY: `unsafe` for the AVX-512 gate, asserted by the dispatchers.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,avx512vl")]
    pub(super) unsafe fn diff_w2(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        out_p: &mut [u32],
        out_n: &mut [u32],
    ) {
        // SAFETY: the tile loop passes `ap.len() == an.len() == 2`,
        // `pw.len() == 2 * out_p.len()`, `out_n.len() == out_p.len()`;
        // the vector loop reads `pw[2w..2w+8]` and stores 4 counts only
        // while `w + 4 <= nw`, i.e. `2w + 8 <= 2 * nw == pw.len()`.
        unsafe {
            let nw = out_p.len();
            let a_p = _mm512_broadcast_i32x4(_mm_loadu_si128(ap.as_ptr() as *const __m128i));
            let a_n = _mm512_broadcast_i32x4(_mm_loadu_si128(an.as_ptr() as *const __m128i));
            // after the per-lane pair sum, window w+k's count sits in
            // qword 2k → dword 4k
            let idx = _mm512_setr_epi32(0, 4, 8, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
            let mut w = 0;
            while w + 4 <= nw {
                let v = _mm512_loadu_si512(pw.as_ptr().add(w * 2) as *const _);
                let cp = _mm512_popcnt_epi64(_mm512_and_si512(v, a_p));
                let cn = _mm512_popcnt_epi64(_mm512_and_si512(v, a_n));
                let sp = _mm512_add_epi64(cp, _mm512_unpackhi_epi64(cp, cp));
                let sn = _mm512_add_epi64(cn, _mm512_unpackhi_epi64(cn, cn));
                _mm_storeu_si128(
                    out_p.as_mut_ptr().add(w) as *mut __m128i,
                    _mm512_castsi512_si128(_mm512_permutexvar_epi32(idx, sp)),
                );
                _mm_storeu_si128(
                    out_n.as_mut_ptr().add(w) as *mut __m128i,
                    _mm512_castsi512_si128(_mm512_permutexvar_epi32(idx, sn)),
                );
                w += 4;
            }
            while w < nw {
                let (b0, b1) = (pw[w * 2], pw[w * 2 + 1]);
                out_p[w] = (ap[0] & b0).count_ones() + (ap[1] & b1).count_ones();
                out_n[w] = (an[0] & b0).count_ones() + (an[1] & b1).count_ones();
                w += 1;
            }
        }
    }

    /// 4 words per column: one window per 256-bit `vpopcntq` (the
    /// `avx512vl` form).
    // SAFETY: `unsafe` for the AVX-512 gate, asserted by the dispatchers.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,avx512vl")]
    pub(super) unsafe fn diff_w4(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        out_p: &mut [u32],
        out_n: &mut [u32],
    ) {
        // SAFETY: the tile loop passes `ap.len() == an.len() == 4` and
        // `pw.len() == 4 * out_p.len()`, so each 256-bit load of
        // `pw[4w..4w+4]` (w < out_p.len()) and of the two column operands
        // is in bounds; stores go through the safe `out_p[w]` indexing.
        unsafe {
            let a_p = _mm256_loadu_si256(ap.as_ptr() as *const __m256i);
            let a_n = _mm256_loadu_si256(an.as_ptr() as *const __m256i);
            for w in 0..out_p.len() {
                let v = _mm256_loadu_si256(pw.as_ptr().add(w * 4) as *const __m256i);
                out_p[w] = hsum_epi64(_mm256_popcnt_epi64(_mm256_and_si256(v, a_p)));
                out_n[w] = hsum_epi64(_mm256_popcnt_epi64(_mm256_and_si256(v, a_n)));
            }
        }
    }

    // SAFETY: `unsafe` for the AVX-512 gate, asserted by the dispatchers.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,avx512vl")]
    pub(super) unsafe fn diff_generic(
        ap: &[u64],
        an: &[u64],
        pw: &[u64],
        wpc: usize,
        out_p: &mut [u32],
        out_n: &mut [u32],
    ) {
        // SAFETY: same AVX-512 gate as this function; `and_popcount`'s
        // length contract holds because both operands are sliced (or
        // passed) as exactly `wpc` words.
        unsafe {
            for w in 0..out_p.len() {
                let b = &pw[w * wpc..(w + 1) * wpc];
                out_p[w] = and_popcount(ap, b);
                out_n[w] = and_popcount(an, b);
            }
        }
    }

    // SAFETY: AVX-512 asserted by the dispatchers. The tile loop passes
    // `pw.len() == out.len()` (1 word per column); loads of `pw[w..w+8]`
    // and 8-count stores happen only while `w + 8 <= nw`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,avx512vl")]
    pub(super) unsafe fn single_w1(a: &[u64], pw: &[u64], out: &mut [u32]) {
        unsafe {
            let nw = out.len();
            let av = _mm512_set1_epi64(a[0] as i64);
            let mut w = 0;
            while w + 8 <= nw {
                let v = _mm512_loadu_si512(pw.as_ptr().add(w) as *const _);
                let c = _mm512_popcnt_epi64(_mm512_and_si512(v, av));
                _mm256_storeu_si256(
                    out.as_mut_ptr().add(w) as *mut __m256i,
                    _mm512_cvtepi64_epi32(c),
                );
                w += 8;
            }
            while w < nw {
                out[w] = (a[0] & pw[w]).count_ones();
                w += 1;
            }
        }
    }

    // SAFETY: AVX-512 asserted by the dispatchers. The tile loop passes
    // `a.len() == 2` and `pw.len() == 2 * out.len()`; the vector loop
    // reads `pw[2w..2w+8]` and stores 4 counts only while `w + 4 <= nw`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,avx512vl")]
    pub(super) unsafe fn single_w2(a: &[u64], pw: &[u64], out: &mut [u32]) {
        unsafe {
            let nw = out.len();
            let av = _mm512_broadcast_i32x4(_mm_loadu_si128(a.as_ptr() as *const __m128i));
            let idx = _mm512_setr_epi32(0, 4, 8, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
            let mut w = 0;
            while w + 4 <= nw {
                let v = _mm512_loadu_si512(pw.as_ptr().add(w * 2) as *const _);
                let c = _mm512_popcnt_epi64(_mm512_and_si512(v, av));
                let s = _mm512_add_epi64(c, _mm512_unpackhi_epi64(c, c));
                _mm_storeu_si128(
                    out.as_mut_ptr().add(w) as *mut __m128i,
                    _mm512_castsi512_si128(_mm512_permutexvar_epi32(idx, s)),
                );
                w += 4;
            }
            while w < nw {
                out[w] = (a[0] & pw[w * 2]).count_ones() + (a[1] & pw[w * 2 + 1]).count_ones();
                w += 1;
            }
        }
    }

    // SAFETY: AVX-512 asserted by the dispatchers. The tile loop passes
    // `a.len() == 4` and `pw.len() == 4 * out.len()`, so each 256-bit
    // load is in bounds; stores go through safe indexing.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,avx512vl")]
    pub(super) unsafe fn single_w4(a: &[u64], pw: &[u64], out: &mut [u32]) {
        unsafe {
            let av = _mm256_loadu_si256(a.as_ptr() as *const __m256i);
            for (w, o) in out.iter_mut().enumerate() {
                let v = _mm256_loadu_si256(pw.as_ptr().add(w * 4) as *const __m256i);
                *o = hsum_epi64(_mm256_popcnt_epi64(_mm256_and_si256(v, av)));
            }
        }
    }

    // SAFETY: AVX-512 asserted by the dispatchers; `and_popcount`'s
    // length contract holds because both operands span exactly `wpc`
    // words.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,avx512vl")]
    pub(super) unsafe fn single_generic(a: &[u64], pw: &[u64], wpc: usize, out: &mut [u32]) {
        unsafe {
            for w in 0..out.len() {
                out[w] = and_popcount(a, &pw[w * wpc..(w + 1) * wpc]);
            }
        }
    }
}

/// NEON popcount lanes: `cnt.16b` byte popcounts with widening
/// horizontal adds (`uaddlv`). NEON is part of the aarch64 base ABI, so
/// these functions are gated only by `cfg(target_arch = "aarch64")` and
/// need no runtime detection; the intrinsic calls are still the
/// workspace's documented `unsafe` exception (see the module-level
/// safety note).
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon {
    use core::arch::aarch64::*;

    /// `popcount(a & b)` over equal-length word slices.
    #[inline]
    pub(super) fn and_popcount(a: &[u64], b: &[u64]) -> u32 {
        let n = a.len().min(b.len());
        let mut total = 0u32;
        let mut i = 0;
        // SAFETY: NEON is mandatory in the aarch64 base ABI; loads stay
        // inside the slice bounds checked by the loop condition.
        unsafe {
            while i + 2 <= n {
                let va = vld1q_u64(a.as_ptr().add(i));
                let vb = vld1q_u64(b.as_ptr().add(i));
                let cnt = vcntq_u8(vreinterpretq_u8_u64(vandq_u64(va, vb)));
                total += vaddlvq_u8(cnt) as u32;
                i += 2;
            }
        }
        while i < n {
            total += (a[i] & b[i]).count_ones();
            i += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_parses_and_env_wins() {
        assert_eq!(KernelSelect::default(), KernelSelect::Auto);
        assert_eq!(resolve_kernel_with(KernelSelect::Scalar, None), Ok(KernelTier::Scalar));
        // env overrides the configured selection
        assert_eq!(resolve_kernel_with(KernelSelect::Auto, Some("scalar")), Ok(KernelTier::Scalar));
        assert_eq!(
            resolve_kernel_with(KernelSelect::Avx512, Some("SCALAR")),
            Ok(KernelTier::Scalar),
            "parsing is case-insensitive"
        );
        // empty / whitespace env counts as unset
        assert_eq!(resolve_kernel_with(KernelSelect::Scalar, Some("")), Ok(KernelTier::Scalar));
        assert_eq!(resolve_kernel_with(KernelSelect::Scalar, Some("  ")), Ok(KernelTier::Scalar));
        // junk is a typed error, not a fallback
        assert!(matches!(
            resolve_kernel_with(KernelSelect::Auto, Some("sse9")),
            Err(KernelConfigError::Unrecognized(s)) if s == "sse9"
        ));
    }

    #[test]
    fn auto_resolves_to_an_available_tier() {
        let tier = resolve_kernel_with(KernelSelect::Auto, None).expect("auto never errors");
        assert!(tier.available(), "auto must resolve to a runnable tier");
    }

    #[test]
    fn forced_foreign_tier_is_a_typed_error() {
        // Neon on x86 / AVX on aarch64: exactly one of these is foreign
        // everywhere we build, so at least one must produce the typed
        // unavailability error with the host summary attached.
        let foreign =
            if cfg!(target_arch = "x86_64") { KernelSelect::Neon } else { KernelSelect::Avx2 };
        match resolve_kernel_with(foreign, None) {
            Err(KernelConfigError::Unavailable { requested, host }) => {
                assert_eq!(requested, foreign.name());
                assert!(!host.is_empty());
            }
            other => panic!("foreign tier must be rejected, got {other:?}"),
        }
        // and the error renders a hint
        let msg =
            KernelConfigError::Unavailable { requested: "avx2", host: "none".into() }.to_string();
        assert!(msg.contains("TRQ_KERNEL=auto"));
    }

    #[test]
    fn feature_summary_is_stable_and_nonempty() {
        let s = cpu_feature_summary();
        assert!(!s.is_empty());
        assert_eq!(s, cpu_feature_summary(), "summary must be deterministic");
    }
}
