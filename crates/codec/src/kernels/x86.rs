//! The SSE2 kernel tier (x86-64).
//!
//! SSE2 is baseline on `x86_64`, so its kernels are plain safe functions
//! (`unsafe` only for the unaligned loads/stores, whose bounds the
//! [`Kernels`](super::Kernels) wrappers assert).
//!
//! # Exactness
//!
//! * SAD: `_mm_sad_epu8` **is** the sum of absolute differences — no
//!   approximation. The bounded variant folds each row's lanes and tests
//!   the limit per row, so `(acc, ops)` match the scalar tier exactly.
//! * DCT pair: both stages are the same Q12 multiply–accumulate with
//!   `(acc + HALF) >> 12` rounding as the scalar transforms; inputs are
//!   range-gated (the gate is derived from the basis in
//!   [`super::dct_range`]) so every intermediate provably fits the lane
//!   width used — stage-1 output is packed to `i16` for `pmaddwd` — and
//!   out-of-gate blocks (possible only via corrupt bitstreams) fall back
//!   to the scalar transform.
//! * Half-pel: `_mm_avg_epu8` computes `(a + b + 1) >> 1`, exactly the
//!   scalar `div_ceil(2)`; the diagonal `(a+b+c+d+2)/4` is done in
//!   widened `u16` lanes (max 1022, no overflow).
//! * Reconstruction: `i32 → i16 → u8` saturating packs equal
//!   `clamp(0, 255)` for **every** `i32`, so no gate is needed.

use super::{halfpel_scalar, within_gate, KernelTier, Kernels};
use crate::dct::{self, BLOCK_LEN, HALF, Q};
use core::arch::x86_64::*;
use std::sync::OnceLock;

const SH: i32 = Q as i32;

static SSE2: Kernels = Kernels {
    tier: KernelTier::Sse2,
    sad16: sad16_sse2,
    sad16_bounded: sad16_bounded_sse2,
    fdct8: fdct8_sse2,
    idct8: idct8_sse2,
    halfpel: halfpel_sse2,
    add_residual8: add_residual8_sse2,
    store_clamped8: store_clamped8_sse2,
};

pub(super) fn sse2_kernels() -> &'static Kernels {
    &SSE2
}

// ---------------------------------------------------------------------
// SAD
// ---------------------------------------------------------------------

#[inline]
unsafe fn row_sad_sse2(a: *const u8, b: *const u8) -> u64 {
    let pa = _mm_loadu_si128(a as *const __m128i);
    let pb = _mm_loadu_si128(b as *const __m128i);
    let s = _mm_sad_epu8(pa, pb); // two u64 lanes of partial sums
    let s = _mm_add_epi64(s, _mm_srli_si128::<8>(s));
    _mm_cvtsi128_si64(s) as u64
}

fn sad16_sse2(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize) -> u64 {
    unsafe {
        let mut acc = _mm_setzero_si128();
        for y in 0..16 {
            let pa = _mm_loadu_si128(a.as_ptr().add(y * a_stride) as *const __m128i);
            let pb = _mm_loadu_si128(b.as_ptr().add(y * b_stride) as *const __m128i);
            acc = _mm_add_epi64(acc, _mm_sad_epu8(pa, pb));
        }
        let acc = _mm_add_epi64(acc, _mm_srli_si128::<8>(acc));
        _mm_cvtsi128_si64(acc) as u64
    }
}

fn sad16_bounded_sse2(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    limit: u64,
) -> (u64, u64) {
    let mut acc = 0u64;
    let mut ops = 0u64;
    for y in 0..16 {
        acc += unsafe { row_sad_sse2(a.as_ptr().add(y * a_stride), b.as_ptr().add(y * b_stride)) };
        ops += 16;
        if acc >= limit {
            return (acc, ops);
        }
    }
    (acc, ops)
}

// ---------------------------------------------------------------------
// DCT pair
//
// Both transforms are `out = rounds(C2 · rounds(stage1(input)))` with
// per-stage `(acc + HALF) >> Q` rounding. The SSE2 path runs each stage
// as `pmaddwd` over coefficient *pairs*: for output lanes j and an input
// pair (m0, m1), one madd of [in_m0, in_m1, ...] against
// [c[j0][m0], c[j0][m1], c[j1][m0], ...] accumulates two terms of four
// output lanes at once. Stage 1 splats the input pair (the inputs of one
// row are contiguous); stage 2 splats the coefficient pair and
// interleaves the stage-1 rows instead (its inputs are columns).
// ---------------------------------------------------------------------

struct DctTables {
    /// Stage-1 madd operands, forward: `[pair p][half h]` holds
    /// `b[k][2p], b[k][2p+1]` interleaved over output lanes `k = 4h+j`.
    fwd_row_pairs: [[[i16; 8]; 2]; 4],
    /// Stage-2 splat pairs, forward: `[k][p]` packs `(b[k][2p], b[k][2p+1])`.
    fwd_col_pairs: [[i32; 4]; 8],
    /// Stage-1 madd operands, inverse: lanes are `b[2p][n], b[2p+1][n]`
    /// over output lanes `n = 4h+j`.
    inv_row_pairs: [[[i16; 8]; 2]; 4],
    /// Stage-2 splat pairs, inverse: `[n][p]` packs `(b[2p][n], b[2p+1][n])`.
    inv_col_pairs: [[i32; 4]; 8],
    /// Exact-domain gate (see [`super::DctRange`]).
    gate_i16: i32,
}

/// Packs two in-`i16`-range values into one `i32` madd operand
/// (low half first, matching `pmaddwd` lane order).
#[inline]
fn pack_pair(lo: i32, hi: i32) -> i32 {
    (((hi as u32) << 16) | (lo as u32 & 0xFFFF)) as i32
}

fn tables() -> &'static DctTables {
    static T: OnceLock<DctTables> = OnceLock::new();
    T.get_or_init(|| {
        let b = dct::basis();
        let mut t = DctTables {
            fwd_row_pairs: [[[0; 8]; 2]; 4],
            fwd_col_pairs: [[0; 4]; 8],
            inv_row_pairs: [[[0; 8]; 2]; 4],
            inv_col_pairs: [[0; 4]; 8],
            gate_i16: super::dct_range().gate_i16,
        };
        for p in 0..4 {
            let (m0, m1) = (2 * p, 2 * p + 1);
            for h in 0..2 {
                for j in 0..4 {
                    let lane = h * 4 + j;
                    t.fwd_row_pairs[p][h][2 * j] = b[lane][m0] as i16;
                    t.fwd_row_pairs[p][h][2 * j + 1] = b[lane][m1] as i16;
                    t.inv_row_pairs[p][h][2 * j] = b[m0][lane] as i16;
                    t.inv_row_pairs[p][h][2 * j + 1] = b[m1][lane] as i16;
                }
            }
            for (lane, row) in b.iter().enumerate() {
                t.fwd_col_pairs[lane][p] = pack_pair(row[m0], row[m1]);
                t.inv_col_pairs[lane][p] = pack_pair(b[m0][lane], b[m1][lane]);
            }
        }
        t
    })
}

/// Shared two-stage `pmaddwd` transform. `row_pairs`/`col_pairs` select
/// forward vs inverse. Caller must have gate-checked the input against
/// `gate_i16`.
unsafe fn dct2d_madd_sse2(
    input: &[i32; BLOCK_LEN],
    output: &mut [i32; BLOCK_LEN],
    row_pairs: &[[[i16; 8]; 2]; 4],
    col_pairs: &[[i32; 4]; 8],
) {
    let half = _mm_set1_epi32(HALF as i32);
    // Stage 1: one madd row per input row, output packed to i16 lanes
    // (exact within the gate).
    let mut tmp = [_mm_setzero_si128(); 8];
    for y in 0..8 {
        let row = &input[y * 8..y * 8 + 8];
        let mut lo = half;
        let mut hi = half;
        for (p, pairs) in row_pairs.iter().enumerate() {
            let a = _mm_set1_epi32(pack_pair(row[2 * p], row[2 * p + 1]));
            let cl = _mm_loadu_si128(pairs[0].as_ptr() as *const __m128i);
            let ch = _mm_loadu_si128(pairs[1].as_ptr() as *const __m128i);
            lo = _mm_add_epi32(lo, _mm_madd_epi16(a, cl));
            hi = _mm_add_epi32(hi, _mm_madd_epi16(a, ch));
        }
        tmp[y] = _mm_packs_epi32(_mm_srai_epi32::<SH>(lo), _mm_srai_epi32::<SH>(hi));
    }
    // Stage 2 input pairs: interleave stage-1 rows (2m, 2m+1) so each
    // i32 lane holds one column's pair.
    let mut inter = [[_mm_setzero_si128(); 2]; 4];
    for (p, dst) in inter.iter_mut().enumerate() {
        dst[0] = _mm_unpacklo_epi16(tmp[2 * p], tmp[2 * p + 1]);
        dst[1] = _mm_unpackhi_epi16(tmp[2 * p], tmp[2 * p + 1]);
    }
    for (i, pairs) in col_pairs.iter().enumerate() {
        let mut lo = half;
        let mut hi = half;
        for (p, lanes) in inter.iter().enumerate() {
            let c = _mm_set1_epi32(pairs[p]);
            lo = _mm_add_epi32(lo, _mm_madd_epi16(lanes[0], c));
            hi = _mm_add_epi32(hi, _mm_madd_epi16(lanes[1], c));
        }
        _mm_storeu_si128(
            output[i * 8..].as_mut_ptr() as *mut __m128i,
            _mm_srai_epi32::<SH>(lo),
        );
        _mm_storeu_si128(
            output[i * 8 + 4..].as_mut_ptr() as *mut __m128i,
            _mm_srai_epi32::<SH>(hi),
        );
    }
}

fn fdct8_sse2(input: &[i32; BLOCK_LEN], output: &mut [i32; BLOCK_LEN]) {
    let t = tables();
    if !within_gate(input, t.gate_i16) {
        return dct::forward(input, output);
    }
    unsafe { dct2d_madd_sse2(input, output, &t.fwd_row_pairs, &t.fwd_col_pairs) }
}

fn idct8_sse2(input: &[i32; BLOCK_LEN], output: &mut [i32; BLOCK_LEN]) {
    let t = tables();
    if !within_gate(input, t.gate_i16) {
        return dct::inverse(input, output);
    }
    unsafe { dct2d_madd_sse2(input, output, &t.inv_row_pairs, &t.inv_col_pairs) }
}

// ---------------------------------------------------------------------
// Half-pel interpolation
// ---------------------------------------------------------------------

fn halfpel_sse2(region: &[u8], rw: usize, hx: usize, hy: usize, out: &mut [u8], side: usize) {
    match side {
        16 => unsafe { halfpel16_sse2(region, rw, hx, hy, out) },
        8 => unsafe { halfpel8_sse2(region, rw, hx, hy, out) },
        _ => halfpel_scalar(region, rw, hx, hy, out, side),
    }
}

unsafe fn halfpel16_sse2(region: &[u8], rw: usize, hx: usize, hy: usize, out: &mut [u8]) {
    let rp = region.as_ptr();
    for y in 0..16 {
        let base = y * rw;
        let dst = out[y * 16..].as_mut_ptr() as *mut __m128i;
        let a = _mm_loadu_si128(rp.add(base) as *const __m128i);
        let v = match (hx, hy) {
            (1, 0) => _mm_avg_epu8(a, _mm_loadu_si128(rp.add(base + 1) as *const __m128i)),
            (0, 1) => _mm_avg_epu8(a, _mm_loadu_si128(rp.add(base + rw) as *const __m128i)),
            _ => {
                let b = _mm_loadu_si128(rp.add(base + 1) as *const __m128i);
                let c = _mm_loadu_si128(rp.add(base + rw) as *const __m128i);
                let d = _mm_loadu_si128(rp.add(base + rw + 1) as *const __m128i);
                let zero = _mm_setzero_si128();
                let two = _mm_set1_epi16(2);
                let lo = _mm_add_epi16(
                    _mm_add_epi16(_mm_unpacklo_epi8(a, zero), _mm_unpacklo_epi8(b, zero)),
                    _mm_add_epi16(_mm_unpacklo_epi8(c, zero), _mm_unpacklo_epi8(d, zero)),
                );
                let hi = _mm_add_epi16(
                    _mm_add_epi16(_mm_unpackhi_epi8(a, zero), _mm_unpackhi_epi8(b, zero)),
                    _mm_add_epi16(_mm_unpackhi_epi8(c, zero), _mm_unpackhi_epi8(d, zero)),
                );
                let lo = _mm_srli_epi16::<2>(_mm_add_epi16(lo, two));
                let hi = _mm_srli_epi16::<2>(_mm_add_epi16(hi, two));
                _mm_packus_epi16(lo, hi)
            }
        };
        _mm_storeu_si128(dst, v);
    }
}

unsafe fn halfpel8_sse2(region: &[u8], rw: usize, hx: usize, hy: usize, out: &mut [u8]) {
    let rp = region.as_ptr();
    for y in 0..8 {
        let base = y * rw;
        let dst = out[y * 8..].as_mut_ptr() as *mut __m128i;
        let a = _mm_loadl_epi64(rp.add(base) as *const __m128i);
        let v = match (hx, hy) {
            (1, 0) => _mm_avg_epu8(a, _mm_loadl_epi64(rp.add(base + 1) as *const __m128i)),
            (0, 1) => _mm_avg_epu8(a, _mm_loadl_epi64(rp.add(base + rw) as *const __m128i)),
            _ => {
                let b = _mm_loadl_epi64(rp.add(base + 1) as *const __m128i);
                let c = _mm_loadl_epi64(rp.add(base + rw) as *const __m128i);
                let d = _mm_loadl_epi64(rp.add(base + rw + 1) as *const __m128i);
                let zero = _mm_setzero_si128();
                let s = _mm_add_epi16(
                    _mm_add_epi16(_mm_unpacklo_epi8(a, zero), _mm_unpacklo_epi8(b, zero)),
                    _mm_add_epi16(_mm_unpacklo_epi8(c, zero), _mm_unpacklo_epi8(d, zero)),
                );
                let s = _mm_srli_epi16::<2>(_mm_add_epi16(s, _mm_set1_epi16(2)));
                _mm_packus_epi16(s, s)
            }
        };
        _mm_storel_epi64(dst, v);
    }
}

// ---------------------------------------------------------------------
// Reconstruction rows
// ---------------------------------------------------------------------

fn add_residual8_sse2(dst: &mut [u8], pred: &[u8], resid: &[i32]) {
    unsafe {
        let zero = _mm_setzero_si128();
        let p = _mm_loadl_epi64(pred.as_ptr() as *const __m128i);
        let p16 = _mm_unpacklo_epi8(p, zero);
        let plo = _mm_unpacklo_epi16(p16, zero);
        let phi = _mm_unpackhi_epi16(p16, zero);
        let rlo = _mm_loadu_si128(resid.as_ptr() as *const __m128i);
        let rhi = _mm_loadu_si128(resid.as_ptr().add(4) as *const __m128i);
        let s16 = _mm_packs_epi32(_mm_add_epi32(plo, rlo), _mm_add_epi32(phi, rhi));
        _mm_storel_epi64(dst.as_mut_ptr() as *mut __m128i, _mm_packus_epi16(s16, s16));
    }
}

fn store_clamped8_sse2(dst: &mut [u8], data: &[i32]) {
    unsafe {
        let lo = _mm_loadu_si128(data.as_ptr() as *const __m128i);
        let hi = _mm_loadu_si128(data.as_ptr().add(4) as *const __m128i);
        let s16 = _mm_packs_epi32(lo, hi);
        _mm_storel_epi64(dst.as_mut_ptr() as *mut __m128i, _mm_packus_epi16(s16, s16));
    }
}
