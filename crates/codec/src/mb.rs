//! Macroblock-level types shared by the encoder, decoder, and refresh
//! policies.

use std::fmt;

/// An integer-pixel motion vector (luma units). Chroma prediction uses the
/// arithmetic half of each component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MotionVector {
    /// Horizontal displacement in luma pixels (positive = rightward in the
    /// reference).
    pub x: i16,
    /// Vertical displacement in luma pixels.
    pub y: i16,
}

impl MotionVector {
    /// The zero vector.
    pub const ZERO: MotionVector = MotionVector { x: 0, y: 0 };

    /// Creates a vector.
    pub fn new(x: i16, y: i16) -> Self {
        MotionVector { x, y }
    }

    /// Whether both components are zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.x == 0 && self.y == 0
    }

    /// The chroma-plane vector: each component arithmetically halved
    /// (floor), matching the decoder exactly.
    #[inline]
    pub fn chroma(&self) -> MotionVector {
        MotionVector {
            x: self.x >> 1,
            y: self.y >> 1,
        }
    }

    /// L1 magnitude, used by rate-biased search.
    #[inline]
    pub fn l1(&self) -> u32 {
        self.x.unsigned_abs() as u32 + self.y.unsigned_abs() as u32
    }
}

impl fmt::Display for MotionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A motion vector with half-pixel precision: an integer part plus
/// half-sample offsets. Used when the encoder runs in half-pel mode
/// (H.263's default precision); the bitstream carries the vector in
/// half-pel units (`2·int + half`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SubPelVector {
    /// Integer-pixel part.
    pub int: MotionVector,
    /// Half-sample offset in x (+0.5 pixel when set).
    pub half_x: bool,
    /// Half-sample offset in y.
    pub half_y: bool,
}

impl SubPelVector {
    /// The zero vector.
    pub const ZERO: SubPelVector = SubPelVector {
        int: MotionVector::ZERO,
        half_x: false,
        half_y: false,
    };

    /// A purely integer vector.
    pub fn integer(int: MotionVector) -> Self {
        SubPelVector {
            int,
            half_x: false,
            half_y: false,
        }
    }

    /// Builds from half-pel units (`2·int + half` per component).
    pub fn from_half_units(hx: i16, hy: i16) -> Self {
        SubPelVector {
            int: MotionVector::new(hx.div_euclid(2), hy.div_euclid(2)),
            half_x: hx.rem_euclid(2) == 1,
            half_y: hy.rem_euclid(2) == 1,
        }
    }

    /// The vector in half-pel units.
    pub fn to_half_units(&self) -> (i16, i16) {
        (
            2 * self.int.x + self.half_x as i16,
            2 * self.int.y + self.half_y as i16,
        )
    }

    /// Whether the vector is exactly zero (no integer or half offset).
    pub fn is_zero(&self) -> bool {
        self.int.is_zero() && !self.half_x && !self.half_y
    }

    /// The chroma displacement in chroma half-pel units: the floor-halved
    /// luma half-pel vector (shared by encoder and decoder).
    pub fn chroma_half_units(&self) -> (i16, i16) {
        let (hx, hy) = self.to_half_units();
        (hx.div_euclid(2), hy.div_euclid(2))
    }
}

impl fmt::Display for SubPelVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (hx, hy) = self.to_half_units();
        write!(f, "({:.1},{:.1})", hx as f64 / 2.0, hy as f64 / 2.0)
    }
}

/// How a macroblock was coded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MbMode {
    /// Intra: coded from scratch, no temporal prediction. Serves as a
    /// refresh point for error propagation.
    Intra,
    /// Inter: motion-compensated prediction plus coded residual.
    Inter,
    /// Skipped: bit-free copy of the colocated reference macroblock
    /// (inter with zero vector and no residual).
    Skip,
}

/// Per-frame summary the encoder returns alongside the bitstream: the
/// series behind Figures 5(c)/6(b) (sizes) and the mode mix behind the
/// energy analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Intra-coded macroblocks in the frame.
    pub intra_mbs: u32,
    /// Inter-coded macroblocks in the frame.
    pub inter_mbs: u32,
    /// Skipped macroblocks in the frame.
    pub skip_mbs: u32,
    /// Motion-estimation searches actually performed.
    pub me_invocations: u32,
    /// Exact size of the encoded frame in bits.
    pub bits: u64,
    /// Bits spent on intra-coded macroblocks (COD/mode bits included).
    pub intra_bits: u64,
    /// Bits spent on inter-coded macroblocks.
    pub inter_bits: u64,
    /// Bits spent on skipped macroblocks (one COD bit each).
    pub skip_bits: u64,
}

impl FrameStats {
    /// Total macroblocks accounted for.
    pub fn total_mbs(&self) -> u32 {
        self.intra_mbs + self.inter_mbs + self.skip_mbs
    }

    /// Encoded size in bytes, rounded up — what gets packetized.
    pub fn bytes(&self) -> u64 {
        self.bits.div_ceil(8)
    }

    /// Fraction of macroblocks coded intra, `0.0..=1.0`.
    pub fn intra_ratio(&self) -> f64 {
        if self.total_mbs() == 0 {
            0.0
        } else {
            self.intra_mbs as f64 / self.total_mbs() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chroma_vector_is_floor_halved() {
        assert_eq!(MotionVector::new(5, -5).chroma(), MotionVector::new(2, -3));
        assert_eq!(MotionVector::new(-4, 4).chroma(), MotionVector::new(-2, 2));
        assert_eq!(MotionVector::ZERO.chroma(), MotionVector::ZERO);
    }

    #[test]
    fn l1_magnitude() {
        assert_eq!(MotionVector::new(-3, 4).l1(), 7);
        assert_eq!(MotionVector::ZERO.l1(), 0);
    }

    #[test]
    fn subpel_half_unit_roundtrip() {
        for hx in -33i16..=33 {
            for hy in [-7i16, 0, 1, 12] {
                let v = SubPelVector::from_half_units(hx, hy);
                assert_eq!(v.to_half_units(), (hx, hy));
            }
        }
        // Negative half-unit values decompose with floor semantics.
        let v = SubPelVector::from_half_units(-5, 3);
        assert_eq!(v.int, MotionVector::new(-3, 1));
        assert!(v.half_x && v.half_y);
    }

    #[test]
    fn subpel_zero_and_display() {
        assert!(SubPelVector::ZERO.is_zero());
        assert!(!SubPelVector::from_half_units(0, 1).is_zero());
        assert_eq!(
            SubPelVector::from_half_units(5, -3).to_string(),
            "(2.5,-1.5)"
        );
        assert_eq!(
            SubPelVector::integer(MotionVector::new(2, 2)).to_half_units(),
            (4, 4)
        );
    }

    #[test]
    fn subpel_chroma_halving() {
        // Luma (+2.5, -1.5) → chroma (+1.25, -0.75) floored to half-pel
        // grid: (+1.0, -1.0) in chroma pixels = (2, -2)... in half units
        // floor(5/2)=2, floor(-3/2)=-2.
        let v = SubPelVector::from_half_units(5, -3);
        assert_eq!(v.chroma_half_units(), (2, -2));
    }

    #[test]
    fn frame_stats_aggregates() {
        let s = FrameStats {
            intra_mbs: 25,
            inter_mbs: 50,
            skip_mbs: 24,
            me_invocations: 74,
            bits: 1001,
            intra_bits: 600,
            inter_bits: 340,
            skip_bits: 24,
        };
        assert_eq!(s.total_mbs(), 99);
        assert_eq!(s.bytes(), 126);
        assert!((s.intra_ratio() - 25.0 / 99.0).abs() < 1e-12);
        assert_eq!(
            s.bits - (s.intra_bits + s.inter_bits + s.skip_bits),
            1001 - 600 - 340 - 24
        );
    }
}
