//! Motion compensation: building predictions from the reference frame.
//!
//! Integer-pixel prediction with H.263-style edge extension (reference
//! reads outside the picture clamp to the border), plus optional
//! half-pixel bilinear interpolation with H.263 rounding
//! ([`predict_luma_subpel_with`]). Chroma uses the floor-halved luma vector.
//! Both encoder and decoder use these exact functions, so prediction is
//! bit-identical end to end.

use crate::kernels::Kernels;
use crate::mb::{MotionVector, SubPelVector};
use pbpair_media::{MbIndex, Plane};

/// Side of a luma prediction block.
pub const LUMA_BLOCK: usize = 16;
/// Side of a chroma prediction block.
pub const CHROMA_BLOCK: usize = 8;

/// Fills `out` (16×16 row-major) with the motion-compensated luma
/// prediction for macroblock `mb` displaced by `mv`.
///
/// # Panics
///
/// Panics if `out.len() != 256`.
pub fn predict_luma(reference: &Plane, mb: MbIndex, mv: MotionVector, out: &mut [u8]) {
    assert_eq!(out.len(), LUMA_BLOCK * LUMA_BLOCK);
    let (ox, oy) = mb.luma_origin();
    reference.copy_block_clamped(
        ox as isize + mv.x as isize,
        oy as isize + mv.y as isize,
        LUMA_BLOCK,
        LUMA_BLOCK,
        out,
    );
}

/// Fills `out` (16×16 row-major) with the half-pixel motion-compensated
/// luma prediction for macroblock `mb`. The sub-pel position is
/// interpolated bilinearly with H.263 rounding:
/// horizontal/vertical half positions average 2 samples with `+1`
/// rounding, the diagonal position averages 4 with `+2`. The region
/// fetch (edge clamping) stays scalar; the averaging runs on the half-pel
/// kernel of `k`.
///
/// # Panics
///
/// Panics if `out.len() != 256`.
pub fn predict_luma_subpel_with(
    k: &Kernels,
    reference: &Plane,
    mb: MbIndex,
    mv: SubPelVector,
    out: &mut [u8],
) {
    assert_eq!(out.len(), LUMA_BLOCK * LUMA_BLOCK);
    let (hx, hy) = (mv.half_x as usize, mv.half_y as usize);
    if hx == 0 && hy == 0 {
        predict_luma(reference, mb, mv.int, out);
        return;
    }
    // Fetch the (16+hx) × (16+hy) integer-pel region, then average.
    let (ox, oy) = mb.luma_origin();
    let w = LUMA_BLOCK + hx;
    let h = LUMA_BLOCK + hy;
    let mut region = [0u8; (LUMA_BLOCK + 1) * (LUMA_BLOCK + 1)];
    reference.copy_block_clamped(
        ox as isize + mv.int.x as isize,
        oy as isize + mv.int.y as isize,
        w,
        h,
        &mut region[..w * h],
    );
    k.halfpel(&region[..w * h], w, hx, hy, out, LUMA_BLOCK);
}

/// Fills `out` (8×8 row-major) with the motion-compensated chroma
/// prediction for macroblock `mb`; the luma vector is halved internally.
///
/// # Panics
///
/// Panics if `out.len() != 64`.
pub fn predict_chroma(reference: &Plane, mb: MbIndex, mv: MotionVector, out: &mut [u8]) {
    assert_eq!(out.len(), CHROMA_BLOCK * CHROMA_BLOCK);
    let (ox, oy) = mb.chroma_origin();
    let cmv = mv.chroma();
    reference.copy_block_clamped(
        ox as isize + cmv.x as isize,
        oy as isize + cmv.y as isize,
        CHROMA_BLOCK,
        CHROMA_BLOCK,
        out,
    );
}

/// Fills `out` (8×8 row-major) with the half-pixel motion-compensated
/// chroma prediction for macroblock `mb`. The chroma displacement is the
/// floor-halved luma half-pel vector, itself in half-pel chroma units.
/// The averaging runs on the half-pel kernel of `k`.
///
/// # Panics
///
/// Panics if `out.len() != 64`.
pub fn predict_chroma_subpel_with(
    k: &Kernels,
    reference: &Plane,
    mb: MbIndex,
    mv: SubPelVector,
    out: &mut [u8],
) {
    assert_eq!(out.len(), CHROMA_BLOCK * CHROMA_BLOCK);
    let (chx, chy) = mv.chroma_half_units();
    let (ix, hx) = (chx.div_euclid(2), chx.rem_euclid(2) as usize);
    let (iy, hy) = (chy.div_euclid(2), chy.rem_euclid(2) as usize);
    let (ox, oy) = mb.chroma_origin();
    if hx == 0 && hy == 0 {
        reference.copy_block_clamped(
            ox as isize + ix as isize,
            oy as isize + iy as isize,
            CHROMA_BLOCK,
            CHROMA_BLOCK,
            out,
        );
        return;
    }
    let w = CHROMA_BLOCK + hx;
    let h = CHROMA_BLOCK + hy;
    let mut region = [0u8; (CHROMA_BLOCK + 1) * (CHROMA_BLOCK + 1)];
    reference.copy_block_clamped(
        ox as isize + ix as isize,
        oy as isize + iy as isize,
        w,
        h,
        &mut region[..w * h],
    );
    k.halfpel(&region[..w * h], w, hx, hy, out, CHROMA_BLOCK);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbpair_media::VideoFormat;

    fn gradient_plane(w: usize, h: usize) -> Plane {
        Plane::from_fn(w, h, |x, y| ((x * 3 + y * 5) % 256) as u8)
    }

    #[test]
    fn zero_vector_copies_colocated_block() {
        let fmt = VideoFormat::QCIF;
        let refp = gradient_plane(fmt.width(), fmt.height());
        let mb = MbIndex::new(2, 3);
        let mut out = vec![0u8; 256];
        predict_luma(&refp, mb, MotionVector::ZERO, &mut out);
        let (ox, oy) = mb.luma_origin();
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(out[y * 16 + x], refp.get(ox + x, oy + y));
            }
        }
    }

    #[test]
    fn displaced_vector_shifts_the_source() {
        let fmt = VideoFormat::QCIF;
        let refp = gradient_plane(fmt.width(), fmt.height());
        let mb = MbIndex::new(4, 5);
        let mv = MotionVector::new(-3, 7);
        let mut out = vec![0u8; 256];
        predict_luma(&refp, mb, mv, &mut out);
        let (ox, oy) = mb.luma_origin();
        assert_eq!(
            out[0],
            refp.get((ox as isize - 3) as usize, (oy as isize + 7) as usize)
        );
    }

    #[test]
    fn prediction_at_frame_edge_clamps() {
        let fmt = VideoFormat::QCIF;
        let refp = gradient_plane(fmt.width(), fmt.height());
        let mb = MbIndex::new(0, 0);
        let mv = MotionVector::new(-10, -10);
        let mut out = vec![0u8; 256];
        predict_luma(&refp, mb, mv, &mut out);
        // The top-left of the prediction clamps to sample (0,0).
        assert_eq!(out[0], refp.get(0, 0));
    }

    #[test]
    fn subpel_integer_position_matches_integer_predictor() {
        let k = Kernels::active();
        let fmt = VideoFormat::QCIF;
        let refp = gradient_plane(fmt.width(), fmt.height());
        let mb = MbIndex::new(3, 3);
        let mv = MotionVector::new(2, -1);
        let mut a = vec![0u8; 256];
        let mut b = vec![0u8; 256];
        predict_luma(&refp, mb, mv, &mut a);
        predict_luma_subpel_with(k, &refp, mb, SubPelVector::integer(mv), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn half_pel_interpolation_averages_with_h263_rounding() {
        // A plane where row y has value 10y and column structure 4x: make
        // averages easy to verify.
        let k = Kernels::active();
        let refp = Plane::from_fn(64, 64, |x, y| (4 * x + 2 * y) as u8);
        let mb = MbIndex::new(1, 1);
        // Horizontal half position: avg of (x, x+1) = 4x+2y + 2.
        let mut out = vec![0u8; 256];
        predict_luma_subpel_with(k, &refp, mb, SubPelVector::from_half_units(1, 0), &mut out);
        let (ox, oy) = mb.luma_origin();
        let a = refp.get(ox, oy) as u16;
        let b = refp.get(ox + 1, oy) as u16;
        assert_eq!(out[0] as u16, (a + b).div_ceil(2));
        // Diagonal half position: average of 4 with +2 rounding.
        predict_luma_subpel_with(k, &refp, mb, SubPelVector::from_half_units(1, 1), &mut out);
        let c = refp.get(ox, oy + 1) as u16;
        let d = refp.get(ox + 1, oy + 1) as u16;
        assert_eq!(out[0] as u16, (a + b + c + d + 2) / 4);
    }

    #[test]
    fn subpel_prediction_reduces_error_for_true_half_pel_motion() {
        // Build a smooth reference; current = reference shifted by
        // exactly half a pixel (sampled via the same averaging). The
        // half-pel predictor must beat the best integer predictor.
        let k = Kernels::active();
        let fmt = VideoFormat::QCIF;
        let refp = Plane::from_fn(fmt.width(), fmt.height(), |x, y| {
            (128.0 + 60.0 * (x as f64 * 0.10).sin() + 40.0 * (y as f64 * 0.08).cos()) as u8
        });
        let mb = MbIndex::new(4, 4);
        // Target block: the reference at +0.5 px horizontally.
        let mut target = [0u8; 256];
        predict_luma_subpel_with(
            k,
            &refp,
            mb,
            SubPelVector::from_half_units(1, 0),
            &mut target,
        );

        let sad_vs = |pred: &[u8]| -> u64 {
            pred.iter()
                .zip(&target)
                .map(|(a, b)| (*a as i32 - *b as i32).unsigned_abs() as u64)
                .sum()
        };
        let mut int0 = vec![0u8; 256];
        predict_luma(&refp, mb, MotionVector::ZERO, &mut int0);
        let mut int1 = vec![0u8; 256];
        predict_luma(&refp, mb, MotionVector::new(1, 0), &mut int1);
        let best_int = sad_vs(&int0).min(sad_vs(&int1));
        assert!(best_int > 0, "integer prediction cannot be exact here");
        // The half-pel position reproduces the target exactly.
        let mut half = vec![0u8; 256];
        predict_luma_subpel_with(k, &refp, mb, SubPelVector::from_half_units(1, 0), &mut half);
        assert_eq!(sad_vs(&half), 0);
    }

    #[test]
    fn chroma_subpel_integer_case_matches_plain_chroma() {
        let k = Kernels::active();
        let fmt = VideoFormat::QCIF;
        let refc = gradient_plane(fmt.chroma_width(), fmt.chroma_height());
        let mb = MbIndex::new(2, 2);
        let mv = MotionVector::new(4, -2); // even: chroma lands on integers
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        predict_chroma(&refc, mb, mv, &mut a);
        predict_chroma_subpel_with(k, &refc, mb, SubPelVector::integer(mv), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn chroma_uses_halved_vector() {
        let fmt = VideoFormat::QCIF;
        let refc = gradient_plane(fmt.chroma_width(), fmt.chroma_height());
        let mb = MbIndex::new(1, 1);
        let mv = MotionVector::new(6, -4); // chroma (3, -2)
        let mut out = vec![0u8; 64];
        predict_chroma(&refc, mb, mv, &mut out);
        let (ox, oy) = mb.chroma_origin();
        assert_eq!(
            out[0],
            refc.get((ox as isize + 3) as usize, (oy as isize - 2) as usize)
        );
    }
}
