//! H.263-style scalar quantization.
//!
//! Inter and intra-AC coefficients use the uniform dead-zone quantizer of
//! H.263 (§6.2 of the recommendation): step `2·QP` with reconstruction at
//! `QP·(2|L|+1)` (odd QP) or `QP·(2|L|+1)−1` (even QP). Intra DC uses a
//! fixed step of 8 and is carried as an 8-bit level.

/// A quantization parameter in `1..=31`, H.263's QP range.
///
/// # Example
///
/// ```rust
/// use pbpair_codec::quant::Qp;
///
/// let qp = Qp::new(8).unwrap();
/// assert_eq!(qp.get(), 8);
/// assert!(Qp::new(0).is_none());
/// assert!(Qp::new(32).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Qp(u8);

impl Qp {
    /// Creates a QP, returning `None` outside `1..=31`.
    pub fn new(qp: u8) -> Option<Qp> {
        (1..=31).contains(&qp).then_some(Qp(qp))
    }

    /// The raw QP value.
    #[inline]
    pub fn get(&self) -> u8 {
        self.0
    }
}

impl Default for Qp {
    /// QP 8: mid-quality, the default the evaluation harness uses.
    fn default() -> Self {
        Qp(8)
    }
}

/// Maximum representable intra-DC level (8-bit carrier).
pub const INTRA_DC_LEVEL_MAX: i32 = 255;
/// Quantizer step for the intra DC coefficient.
pub const INTRA_DC_STEP: i32 = 8;

/// Quantizes one inter (or intra-AC) coefficient with dead zone.
#[inline]
pub fn quantize_ac(coef: i32, qp: Qp) -> i32 {
    let q = qp.0 as i32;
    let mag = coef.abs();
    // H.263 inter quantizer: |L| = (|C| - q/2) / (2q), floor, dead zone.
    let level = (mag - q / 2) / (2 * q);
    let level = level.clamp(0, 127);
    if coef < 0 {
        -level
    } else {
        level
    }
}

/// Reconstructs one inter (or intra-AC) coefficient from its level.
#[inline]
pub fn dequantize_ac(level: i32, qp: Qp) -> i32 {
    if level == 0 {
        return 0;
    }
    let q = qp.0 as i32;
    let mag = level.abs();
    let rec = if q % 2 == 1 {
        q * (2 * mag + 1)
    } else {
        q * (2 * mag + 1) - 1
    };
    if level < 0 {
        -rec
    } else {
        rec
    }
}

/// Quantizes the intra DC coefficient (always non-negative for level-
/// shifted 8-bit content; clamped into the 8-bit carrier).
#[inline]
pub fn quantize_intra_dc(coef: i32) -> i32 {
    ((coef + INTRA_DC_STEP / 2) / INTRA_DC_STEP).clamp(0, INTRA_DC_LEVEL_MAX)
}

/// Reconstructs the intra DC coefficient.
#[inline]
pub fn dequantize_intra_dc(level: i32) -> i32 {
    level * INTRA_DC_STEP
}

/// Quantizes a full 64-coefficient block in natural order. `intra` selects
/// DC handling: intra blocks quantize coefficient 0 with the fixed DC
/// step, inter blocks treat every coefficient uniformly.
pub fn quantize_block(coefs: &[i32; 64], qp: Qp, intra: bool) -> [i32; 64] {
    std::array::from_fn(|i| {
        if intra && i == 0 {
            quantize_intra_dc(coefs[0])
        } else {
            quantize_ac(coefs[i], qp)
        }
    })
}

/// Reconstructs a full 64-coefficient block in natural order.
pub fn dequantize_block(levels: &[i32; 64], qp: Qp, intra: bool) -> [i32; 64] {
    std::array::from_fn(|i| {
        if intra && i == 0 {
            dequantize_intra_dc(levels[0])
        } else {
            dequantize_ac(levels[i], qp)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qp_range_is_validated() {
        assert!(Qp::new(1).is_some());
        assert!(Qp::new(31).is_some());
        assert!(Qp::new(0).is_none());
        assert!(Qp::new(32).is_none());
        assert_eq!(Qp::default().get(), 8);
    }

    #[test]
    fn dead_zone_kills_small_coefficients() {
        let qp = Qp::new(8).unwrap();
        for c in -19..=19 {
            assert_eq!(quantize_ac(c, qp), 0, "coef {c} must fall in dead zone");
        }
        assert_eq!(quantize_ac(20, qp), 1);
        assert_eq!(quantize_ac(-20, qp), -1);
    }

    #[test]
    fn reconstruction_error_is_bounded_by_step() {
        for qp_v in [1u8, 4, 8, 15, 31] {
            let qp = Qp::new(qp_v).unwrap();
            // Stay within the representable range of the ±127 level clamp.
            let range = 800.min(2 * qp_v as i32 * 120);
            for c in (-range..range).step_by(7) {
                let rec = dequantize_ac(quantize_ac(c, qp), qp);
                let err = (c - rec).abs();
                // Step 2q plus the asymmetric dead zone of q/2.
                let bound = 2 * qp_v as i32 + qp_v as i32 / 2 + 1;
                assert!(err <= bound, "qp={qp_v} c={c} rec={rec} err={err}");
            }
        }
    }

    #[test]
    fn dequantize_is_odd_symmetric() {
        let qp = Qp::new(6).unwrap();
        for l in 1..50 {
            assert_eq!(dequantize_ac(-l, qp), -dequantize_ac(l, qp));
        }
    }

    #[test]
    fn even_qp_reconstruction_is_odd_valued_minus_one() {
        // H.263's even-QP rule: reconstruction magnitudes are q(2|L|+1)−1.
        let qp = Qp::new(8).unwrap();
        assert_eq!(dequantize_ac(1, qp), 23);
        assert_eq!(dequantize_ac(2, qp), 39);
        let qp_odd = Qp::new(7).unwrap();
        assert_eq!(dequantize_ac(1, qp_odd), 21);
    }

    #[test]
    fn intra_dc_roundtrip() {
        for dc in (0..2040).step_by(13) {
            let l = quantize_intra_dc(dc);
            let rec = dequantize_intra_dc(l);
            assert!((dc - rec).abs() <= INTRA_DC_STEP / 2, "dc {dc} → {rec}");
        }
        // Clamps at the 8-bit carrier.
        assert_eq!(quantize_intra_dc(99_999), INTRA_DC_LEVEL_MAX);
        assert_eq!(quantize_intra_dc(-50), 0);
    }

    #[test]
    fn block_quantization_respects_intra_dc() {
        let mut coefs = [0i32; 64];
        coefs[0] = 801; // DC
        coefs[1] = 100;
        let qp = Qp::new(8).unwrap();
        let intra = quantize_block(&coefs, qp, true);
        let inter = quantize_block(&coefs, qp, false);
        assert_eq!(intra[0], 100); // 801/8 rounded
        assert_eq!(inter[0], quantize_ac(801, qp));
        assert_eq!(intra[1], inter[1]);
        let rec = dequantize_block(&intra, qp, true);
        assert_eq!(rec[0], 800);
    }

    #[test]
    fn coarser_qp_quantizes_harder() {
        let fine = Qp::new(2).unwrap();
        let coarse = Qp::new(20).unwrap();
        let c = 120;
        assert!(quantize_ac(c, fine) > quantize_ac(c, coarse));
    }
}
