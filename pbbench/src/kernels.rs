//! Timed pixel-kernel calls at the process's active SIMD tier.
//!
//! These are the `kernels.*_ns` per-layer metrics: nanoseconds per call
//! of each hot kernel the encoder and decoder dispatch through
//! [`Kernels::active`], on deterministic inputs. Each kernel is timed in
//! several batches and the median batch is reported.

use pbpair_codec::fused::fdct_quant_scan_with;
use pbpair_codec::quant::{dequantize_block, quantize_block};
use pbpair_codec::{Kernels, Qp};
use std::hint::black_box;
use std::time::Instant;

/// The kernels measured, as `(metric name, ns per call)`.
pub fn measure(scale: usize) -> Vec<(&'static str, f64)> {
    const STRIDE: usize = 176;
    const ROWS: usize = 144;
    let k = Kernels::active();
    let qp = Qp::new(8).expect("QP 8 is valid");
    let mut plane_a = vec![0u8; STRIDE * ROWS];
    let mut plane_b = vec![0u8; STRIDE * ROWS];
    fill(&mut plane_a, 0x9e37_79b9_7f4a_7c15);
    fill(&mut plane_b, 0xd1b5_4a32_d192_ed03);
    // Power-of-two offset pool so the loops index with a mask.
    let offsets: [usize; 64] =
        std::array::from_fn(|i| ((i * 23) % (ROWS - 16)) * STRIDE + (i * 37) % (STRIDE - 16));
    let spatial: Vec<[i32; 64]> = (0..32)
        .map(|i| {
            let mut bytes = [0u8; 64];
            fill(&mut bytes, 0x100 + i as u64);
            std::array::from_fn(|j| bytes[j] as i32 - 128)
        })
        .collect();
    let coefs: Vec<[i32; 64]> = spatial
        .iter()
        .map(|blk| {
            let mut freq = [0i32; 64];
            k.fdct8(blk, &mut freq);
            dequantize_block(&quantize_block(&freq, qp, false), qp, false)
        })
        .collect();

    let iters = |base: usize| (base / scale).max(64);
    vec![
        (
            "kernels.sad16_ns",
            timed(iters(200_000), |i| {
                k.sad16(
                    &plane_a[offsets[i & 63]..],
                    STRIDE,
                    &plane_b[offsets[(i + 17) & 63]..],
                    STRIDE,
                )
            }),
        ),
        (
            "kernels.sad16_bounded_ns",
            timed(iters(200_000), |i| {
                let (acc, ops) = k.sad16_bounded(
                    &plane_a[offsets[i & 63]..],
                    STRIDE,
                    &plane_b[offsets[(i + 29) & 63]..],
                    STRIDE,
                    2_000,
                );
                acc.wrapping_add(ops)
            }),
        ),
        (
            "kernels.fused_transform_ns",
            timed(iters(50_000), |i| {
                let mut zig = [0i32; 64];
                let coded = fdct_quant_scan_with(k, &spatial[i & 31], qp, false, &mut zig);
                (zig[0] as u64).wrapping_add(coded as u64)
            }),
        ),
        (
            "kernels.idct8_ns",
            timed(iters(50_000), |i| {
                let mut out = [0i32; 64];
                k.idct8(&coefs[i & 31], &mut out);
                out[0] as u64
            }),
        ),
        (
            "kernels.halfpel16_ns",
            timed(iters(50_000), |i| {
                let mut out = [0u8; 256];
                k.halfpel(&plane_a[offsets[i & 63]..], STRIDE, 1, 1, &mut out, 16);
                out[0] as u64
            }),
        ),
    ]
}

/// Median over 5 batches of `iters` calls, ns per call.
fn timed(iters: usize, mut f: impl FnMut(usize) -> u64) -> f64 {
    for i in 0..iters / 8 {
        black_box(f(i));
    }
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                black_box(f(black_box(i)));
            }
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

/// Deterministic byte fill (an LCG): the inputs need to repeat, not to
/// be statistically good.
fn fill(buf: &mut [u8], mut state: u64) {
    for b in buf {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *b = (state >> 33) as u8;
    }
}
