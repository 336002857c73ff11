//! Differential tests proving the optimized kernels bit-equal to their
//! retained naive references for *all* inputs:
//!
//! * bounded SAD ([`me::sad_mb_bounded_with`]) vs. the exhaustive
//!   [`me::sad_mb_with`], including vectors that reach outside the frame and
//!   exercise border clamping;
//! * the fused `dct→quant→zigzag` kernel
//!   ([`pbpair_codec::fused::fdct_quant_scan`]) vs. the separate
//!   three-pass pipeline, over the full QP range 1..=31;
//! * the predicted-candidate pruning search ([`me::search_fast_with`])
//!   vs. the naive [`me::search_with`], for both strategies and arbitrary
//!   prepass candidate lists — the optimized search must return the
//!   *identical* winner (vector, SAD, and cost) while never executing
//!   more SAD operations;
//! * every SIMD kernel tier ([`Kernels::available`]) vs. the scalar
//!   reference tier, per kernel — SAD, bounded SAD (value *and* op
//!   count), forward/inverse DCT, the fused transform, half-pel motion
//!   compensation, and the reconstruction rows — over arbitrary pixels,
//!   the full QP range, border-clamped vectors, and coefficients far
//!   outside what a legal bitstream can produce;
//! * the bounded-SAD caller contract: a deliberately coarser
//!   check granularity ([`Kernels::coarse2_for_tests`]) must still
//!   yield winner-identical searches
//!   ([`coarse_bounded_sad_is_winner_identical`]).

use pbpair_codec::blockcode::block_is_coded;
use pbpair_codec::fused::{fdct_quant_scan, fdct_quant_scan_with};
use pbpair_codec::mb::SubPelVector;
use pbpair_codec::mc::{
    predict_chroma_subpel_with, predict_luma_subpel_with, CHROMA_BLOCK, LUMA_BLOCK,
};
use pbpair_codec::me::{self, MvCandidates};
use pbpair_codec::quant::{dequantize_block, quantize_block};
use pbpair_codec::{dct, zigzag};
use pbpair_codec::{Kernels, MeConfig, MotionVector, Qp, SearchStrategy};
use pbpair_media::{MbIndex, Plane};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic pseudo-random plane. Generating from a seed keeps the
/// proptest cases small (one u64 shrinks much better than 12k pixels).
fn random_plane(width: usize, height: usize, seed: u64) -> Plane {
    let mut rng = StdRng::seed_from_u64(seed);
    Plane::from_fn(width, height, |_, _| rng.gen())
}

/// A plane with smooth content plus noise — more like video than white
/// noise, so searches have meaningful minima.
fn textured_plane(width: usize, height: usize, seed: u64) -> Plane {
    let mut rng = StdRng::seed_from_u64(seed);
    Plane::from_fn(width, height, |x, y| {
        let base = ((x / 7) * 13 + (y / 5) * 29) as u8;
        base.wrapping_add(rng.gen_range(0..32))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With an infinite limit the bounded SAD degenerates to the full
    /// SAD (and charges the full 256 ops); with a finite limit its
    /// result is a valid SAD whenever it comes back under the limit.
    /// Vectors deliberately reach past every frame border.
    #[test]
    fn bounded_sad_equals_naive_sad(
        seed in any::<u64>(),
        mb_row in 0usize..6,
        mb_col in 0usize..8,
        mv_x in -24i16..=24,
        mv_y in -24i16..=24,
        limit in 1u64..60_000,
    ) {
        let k = Kernels::active();
        let cur = random_plane(128, 96, seed);
        let reference = random_plane(128, 96, seed.wrapping_add(1));
        let mb = MbIndex::new(mb_row, mb_col);
        let mv = MotionVector::new(mv_x, mv_y);
        let naive = me::sad_mb_with(k, &cur, &reference, mb, mv);

        let (full, full_ops) = me::sad_mb_bounded_with(k, &cur, &reference, mb, mv, u64::MAX);
        prop_assert_eq!(full, naive);
        prop_assert_eq!(full_ops, 256);

        let (bounded, ops) = me::sad_mb_bounded_with(k, &cur, &reference, mb, mv, limit);
        prop_assert!(ops <= 256);
        if bounded < limit {
            // Came in under the limit ⇒ must be the exact SAD.
            prop_assert_eq!(bounded, naive);
            prop_assert_eq!(ops, 256);
        } else {
            // Abandoned ⇒ the partial sum is a lower bound on the SAD.
            prop_assert!(bounded <= naive);
        }
    }

    /// The fused kernel's zigzag levels and coded flag equal the separate
    /// `dct::forward → quantize_block → zigzag::scan` pipeline for every
    /// QP and both block classes. Intra blocks see pixel-range input,
    /// inter blocks residual-range input.
    #[test]
    fn fused_transform_equals_separate_pipeline(
        seed in any::<u64>(),
        qp_v in 1u8..=31,
        intra in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spatial: [i32; 64] = std::array::from_fn(|_| {
            if intra { rng.gen_range(0..=255) } else { rng.gen_range(-255..=255) }
        });
        let qp = Qp::new(qp_v).unwrap();

        let mut freq = [0i32; 64];
        dct::forward(&spatial, &mut freq);
        let levels = quantize_block(&freq, qp, intra);
        let want_zig = zigzag::scan(&levels);
        let want_coded = block_is_coded(&want_zig, usize::from(intra));

        let mut got_zig = [0i32; 64];
        let got_coded = fdct_quant_scan(&spatial, qp, intra, &mut got_zig);
        prop_assert_eq!(got_zig, want_zig);
        prop_assert_eq!(got_coded, want_coded);
    }

    /// `search_fast` returns the naive search's exact winner — vector,
    /// SAD, and biased cost — for both strategies, any bias, and *any*
    /// prepass candidate list, while never doing more SAD work. The
    /// prepass only tightens the pruning bound; it must never be able to
    /// change the outcome.
    #[test]
    fn fast_search_equals_naive_search(
        seed in any::<u64>(),
        mb_row in 0usize..6,
        mb_col in 0usize..8,
        full in any::<bool>(),
        range in prop::sample::select(vec![4u8, 7, 15]),
        bias_scale in 0i64..=40,
        cand_seeds in prop::collection::vec((-20i16..=20, -20i16..=20), 0..4),
    ) {
        let k = Kernels::active();
        let cur = textured_plane(128, 96, seed);
        let reference = textured_plane(128, 96, seed.wrapping_add(7));
        let mb = MbIndex::new(mb_row, mb_col);
        let cfg = MeConfig {
            search_range: range,
            strategy: if full { SearchStrategy::Full } else { SearchStrategy::ThreeStep },
        };
        let mut bias = |mv: MotionVector| {
            (mv.x.abs() as i64 + mv.y.abs() as i64) * bias_scale
        };
        let mut cands = MvCandidates::default();
        for (x, y) in cand_seeds {
            cands.push_clamped(MotionVector::new(x, y), range);
        }

        let naive = me::search_with(k, &cur, &reference, mb, cfg, &mut bias);
        let fast = me::search_fast_with(k, &cur, &reference, mb, cfg, &mut bias, &cands);

        prop_assert_eq!(fast.mv, naive.mv, "winning vector diverged");
        prop_assert_eq!(fast.sad, naive.sad, "winning SAD diverged");
        prop_assert_eq!(fast.cost, naive.cost, "winning cost diverged");
        prop_assert!(
            fast.sad_ops <= naive.sad_ops,
            "fast search did more work: {} vs {}",
            fast.sad_ops,
            naive.sad_ops
        );
    }
}

/// Corner macroblocks with the window reaching fully outside the frame:
/// the clamped-border code path of both SAD kernels and both searches.
#[test]
fn fast_search_equals_naive_at_frame_borders() {
    let k = Kernels::active();
    let cur = textured_plane(128, 96, 1001);
    let reference = textured_plane(128, 96, 1002);
    // All four corner MBs and the centre of each edge of an 8×6 grid.
    let corners = [
        (0, 0),
        (0, 7),
        (5, 0),
        (5, 7),
        (0, 3),
        (5, 3),
        (2, 0),
        (2, 7),
    ];
    for strategy in [SearchStrategy::Full, SearchStrategy::ThreeStep] {
        let cfg = MeConfig {
            search_range: 15,
            strategy,
        };
        for (row, col) in corners {
            let mb = MbIndex::new(row, col);
            let naive = me::search_with(k, &cur, &reference, mb, cfg, &mut |_| 0);
            let fast = me::search_fast_with(
                k,
                &cur,
                &reference,
                mb,
                cfg,
                &mut |_| 0,
                &MvCandidates::default(),
            );
            assert_eq!(fast.mv, naive.mv, "mb ({row},{col}) {strategy:?}");
            assert_eq!(fast.sad, naive.sad, "mb ({row},{col}) {strategy:?}");
            assert_eq!(fast.cost, naive.cost, "mb ({row},{col}) {strategy:?}");
        }
    }
}

/// The clamp in `push_clamped` must keep every prepass candidate inside
/// the legal window even when fed out-of-range predictions, so the fast
/// search never evaluates an illegal vector.
#[test]
fn candidate_clamping_respects_the_search_window() {
    let mut cands = MvCandidates::default();
    cands.push_clamped(MotionVector::new(100, -100), 15);
    cands.push_clamped(MotionVector::new(-3, 127), 7);
    for mv in cands.as_slice() {
        assert!(mv.x.abs() <= 15 && mv.y.abs() <= 15, "unclamped {mv:?}");
    }
}

// ---------------------------------------------------------------------
// Per-tier differential matrix: every SIMD tier against the scalar
// reference, kernel by kernel. Each property loops over
// `Kernels::available()` so the same binary exercises every tier the
// host has (scalar and SSE2 on x86-64, scalar and NEON on aarch64);
// forcing a tier via PBPAIR_KERNELS is *not*
// needed for coverage here (the CI dispatch matrix covers the
// process-global selection path instead).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SAD and bounded SAD are tier-invariant in both the accumulated
    /// value and the charged op count, for interior *and* border-clamped
    /// candidates and every abandonment limit.
    #[test]
    fn sad_kernels_match_scalar_on_every_tier(
        seed in any::<u64>(),
        mb_row in 0usize..6,
        mb_col in 0usize..8,
        mv_x in -24i16..=24,
        mv_y in -24i16..=24,
        limit in 1u64..60_000,
    ) {
        let cur = random_plane(128, 96, seed);
        let reference = random_plane(128, 96, seed.wrapping_add(1));
        let mb = MbIndex::new(mb_row, mb_col);
        let mv = MotionVector::new(mv_x, mv_y);
        let scalar = Kernels::scalar();
        let want_full = me::sad_mb_with(scalar, &cur, &reference, mb, mv);
        let want_bounded = me::sad_mb_bounded_with(scalar, &cur, &reference, mb, mv, limit);
        for tier in Kernels::available() {
            let k = Kernels::get(tier).expect("available tier resolves");
            prop_assert_eq!(
                me::sad_mb_with(k, &cur, &reference, mb, mv),
                want_full,
                "sad16 diverged on {}", tier
            );
            prop_assert_eq!(
                me::sad_mb_bounded_with(k, &cur, &reference, mb, mv, limit),
                want_bounded,
                "sad16_bounded (acc, ops) diverged on {}", tier
            );
        }
    }

    /// Forward DCT, inverse DCT, and the fused transform are
    /// tier-invariant over pixel-range intra blocks, residual-range
    /// inter blocks, every QP, and — for the inverse — both legal
    /// dequantized coefficients and the oversized values a corrupt
    /// bitstream can produce (which must take the scalar fallback).
    #[test]
    fn transform_kernels_match_scalar_on_every_tier(
        seed in any::<u64>(),
        qp_v in 1u8..=31,
        intra in any::<bool>(),
        corrupt in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spatial: [i32; 64] = std::array::from_fn(|_| {
            if intra { rng.gen_range(0..=255) } else { rng.gen_range(-255..=255) }
        });
        let qp = Qp::new(qp_v).unwrap();
        let scalar = Kernels::scalar();

        let mut want_freq = [0i32; 64];
        scalar.fdct8(&spatial, &mut want_freq);
        let mut want_zig = [0i32; 64];
        let want_coded = fdct_quant_scan_with(scalar, &spatial, qp, intra, &mut want_zig);

        // Inverse input: a genuine quantize→dequantize round trip, or —
        // when `corrupt` — coefficient magnitudes only a damaged stream
        // can carry (far outside the SIMD gate).
        let coefs: [i32; 64] = if corrupt {
            std::array::from_fn(|_| rng.gen_range(-300_000..=300_000))
        } else {
            let levels = quantize_block(&want_freq, qp, intra);
            dequantize_block(&levels, qp, intra)
        };
        let mut want_spatial = [0i32; 64];
        scalar.idct8(&coefs, &mut want_spatial);

        for tier in Kernels::available() {
            let k = Kernels::get(tier).expect("available tier resolves");
            let mut got = [0i32; 64];
            k.fdct8(&spatial, &mut got);
            prop_assert_eq!(got, want_freq, "fdct8 diverged on {}", tier);
            let mut got_zig = [0i32; 64];
            let got_coded = fdct_quant_scan_with(k, &spatial, qp, intra, &mut got_zig);
            prop_assert_eq!(got_zig, want_zig, "fused levels diverged on {}", tier);
            prop_assert_eq!(got_coded, want_coded, "fused coded flag diverged on {}", tier);
            let mut got_sp = [0i32; 64];
            k.idct8(&coefs, &mut got_sp);
            prop_assert_eq!(got_sp, want_spatial, "idct8 diverged on {}", tier);
        }
    }

    /// Half-pel motion compensation (luma 16×16 and chroma 8×8, all four
    /// phases, border-clamped vectors included) is tier-invariant.
    #[test]
    fn motion_comp_matches_scalar_on_every_tier(
        seed in any::<u64>(),
        mb_row in 0usize..6,
        mb_col in 0usize..8,
        hx in -40i16..=40,
        hy in -40i16..=40,
    ) {
        let reference = random_plane(128, 96, seed);
        let mb = MbIndex::new(mb_row, mb_col);
        let mv = SubPelVector::from_half_units(hx, hy);
        let scalar = Kernels::scalar();
        let mut want_y = [0u8; LUMA_BLOCK * LUMA_BLOCK];
        predict_luma_subpel_with(scalar, &reference, mb, mv, &mut want_y);
        let mut want_c = [0u8; CHROMA_BLOCK * CHROMA_BLOCK];
        predict_chroma_subpel_with(scalar, &reference, mb, mv, &mut want_c);
        for tier in Kernels::available() {
            let k = Kernels::get(tier).expect("available tier resolves");
            let mut got_y = [0u8; LUMA_BLOCK * LUMA_BLOCK];
            predict_luma_subpel_with(k, &reference, mb, mv, &mut got_y);
            prop_assert_eq!(&got_y[..], &want_y[..], "luma half-pel diverged on {}", tier);
            let mut got_c = [0u8; CHROMA_BLOCK * CHROMA_BLOCK];
            predict_chroma_subpel_with(k, &reference, mb, mv, &mut got_c);
            prop_assert_eq!(&got_c[..], &want_c[..], "chroma half-pel diverged on {}", tier);
        }
    }

    /// The reconstruction row kernels clamp identically on every tier,
    /// including residuals far outside the ±255 a legal stream yields.
    #[test]
    fn reconstruction_rows_match_scalar_on_every_tier(
        seed in any::<u64>(),
        wild in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pred: [u8; 8] = std::array::from_fn(|_| rng.gen());
        let data: [i32; 8] = std::array::from_fn(|_| {
            if wild { rng.gen_range(-100_000..=100_000) } else { rng.gen_range(-512..=512) }
        });
        let scalar = Kernels::scalar();
        let mut want_add = [0u8; 8];
        scalar.add_residual8(&mut want_add, &pred, &data);
        let mut want_store = [0u8; 8];
        scalar.store_clamped8(&mut want_store, &data);
        for tier in Kernels::available() {
            let k = Kernels::get(tier).expect("available tier resolves");
            let mut got = [0u8; 8];
            k.add_residual8(&mut got, &pred, &data);
            prop_assert_eq!(got, want_add, "add_residual8 diverged on {}", tier);
            let mut got = [0u8; 8];
            k.store_clamped8(&mut got, &data);
            prop_assert_eq!(got, want_store, "store_clamped8 diverged on {}", tier);
        }
    }
}

/// The bounded-SAD caller contract ([`me::sad_mb_bounded_with`] §
/// Contract) promises that any check granularity yields winner-identical searches:
/// searches adopt a candidate only when `sad < limit`, and in that regime
/// the accumulated value is the *exact* SAD regardless of how often the
/// kernel compared against the limit. This test drives the deliberately
/// coarser two-row-granularity tier ([`Kernels::coarse2_for_tests`])
/// through both search strategies and requires the identical winner —
/// vector, SAD, and cost — while only the op counts may differ.
#[test]
fn coarse_bounded_sad_is_winner_identical() {
    let scalar = Kernels::scalar();
    let coarse = Kernels::coarse2_for_tests();

    // Point contract check first: wherever the coarse kernel comes back
    // under the limit it must equal the exact SAD; over the limit it must
    // still be a lower bound that proves the true SAD >= limit.
    let cur = textured_plane(128, 96, 4242);
    let reference = textured_plane(128, 96, 4243);
    for (mb_row, mb_col, mv_x, mv_y, limit) in [
        (2usize, 3usize, 4i16, -3i16, 900u64),
        (0, 0, -15, -15, 2_000),
        (5, 7, 15, 15, 50),
        (3, 1, 0, 0, u64::MAX),
    ] {
        let mb = MbIndex::new(mb_row, mb_col);
        let mv = MotionVector::new(mv_x, mv_y);
        let exact = me::sad_mb_with(scalar, &cur, &reference, mb, mv);
        let (acc, _ops) = me::sad_mb_bounded_with(coarse, &cur, &reference, mb, mv, limit);
        if acc < limit {
            assert_eq!(acc, exact, "in-limit coarse SAD must be exact");
        } else {
            assert!(
                acc <= exact,
                "abandoned coarse SAD must lower-bound the true SAD"
            );
        }
    }

    // Whole-search winner identity, both strategies, biased and unbiased.
    for strategy in [SearchStrategy::Full, SearchStrategy::ThreeStep] {
        let cfg = MeConfig {
            search_range: 15,
            strategy,
        };
        for (seed, bias_scale) in [(7u64, 0i64), (8, 5), (9, 40)] {
            let cur = textured_plane(128, 96, seed);
            let reference = textured_plane(128, 96, seed.wrapping_add(101));
            for (row, col) in [(0usize, 0usize), (2, 3), (5, 7), (0, 4), (3, 0)] {
                let mb = MbIndex::new(row, col);
                let mut cands = MvCandidates::default();
                cands.push_clamped(MotionVector::new(2, -1), 15);
                let mut bias_a =
                    |mv: MotionVector| (mv.x.abs() as i64 + mv.y.abs() as i64) * bias_scale;
                let mut bias_b =
                    |mv: MotionVector| (mv.x.abs() as i64 + mv.y.abs() as i64) * bias_scale;
                let want =
                    me::search_fast_with(scalar, &cur, &reference, mb, cfg, &mut bias_a, &cands);
                let got =
                    me::search_fast_with(coarse, &cur, &reference, mb, cfg, &mut bias_b, &cands);
                assert_eq!(got.mv, want.mv, "mb ({row},{col}) {strategy:?} vector");
                assert_eq!(got.sad, want.sad, "mb ({row},{col}) {strategy:?} SAD");
                assert_eq!(got.cost, want.cost, "mb ({row},{col}) {strategy:?} cost");
                // Only the amount of work may differ — and the coarse
                // granularity can only ever do *more* row accumulation.
                assert!(
                    got.sad_ops >= want.sad_ops,
                    "coarse granularity cannot do less work: {} vs {}",
                    got.sad_ops,
                    want.sad_ops
                );
            }
        }
    }
}
