//! Operation accounting — the codec-side half of the energy model.
//!
//! The paper measures encoding energy with a DAQ board on real PDAs. We
//! substitute an operation-accounting model: the codec counts every
//! primitive operation class it executes, and `pbpair-energy` converts
//! those counts to Joules with per-device cost profiles. Because every
//! scheme runs through the same codec, the *ratios* between schemes —
//! the paper's headline result — are preserved by construction.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// Counts of the primitive operations performed by the codec.
///
/// All counters are cumulative; [`OpCounts::add`] and the `+=` operator
/// merge counters from multiple frames or runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Frames encoded.
    pub frames: u64,
    /// Macroblocks coded intra.
    pub intra_mbs: u64,
    /// Macroblocks coded inter.
    pub inter_mbs: u64,
    /// Macroblocks skipped.
    pub skip_mbs: u64,
    /// Motion-estimation searches performed (one per inter-attempted MB).
    pub me_invocations: u64,
    /// Candidate positions evaluated across all searches.
    pub sad_candidates: u64,
    /// Absolute-difference operations performed by SAD kernels — the
    /// dominant energy term, as in the paper ("motion estimation is the
    /// most power consuming operation").
    pub sad_ops: u64,
    /// Forward 8×8 DCTs.
    pub dct_blocks: u64,
    /// Inverse 8×8 DCTs (encoder reconstruction loop and decoder).
    pub idct_blocks: u64,
    /// Quantized 8×8 blocks.
    pub quant_blocks: u64,
    /// Dequantized 8×8 blocks.
    pub dequant_blocks: u64,
    /// Motion-compensated 16×16 luma blocks.
    pub mc_luma_blocks: u64,
    /// Motion-compensated 8×8 chroma blocks.
    pub mc_chroma_blocks: u64,
    /// Bits produced by the entropy coder.
    pub bits_emitted: u64,
    /// Reference-frame bytes read by motion-compensated prediction (the
    /// luma + chroma prediction windows, including the extra row/column a
    /// half-pel interpolation touches). Counted at the macroblock level,
    /// independent of the SIMD kernel tier in use.
    pub ref_read_bytes: u64,
    /// Reconstruction bytes written back by the coding loop (every coded
    /// or skipped macroblock stores its 384-byte YCbCr footprint exactly
    /// once). Kernel-tier independent, like `ref_read_bytes`.
    pub recon_write_bytes: u64,
}

impl OpCounts {
    /// An all-zero counter.
    pub fn new() -> Self {
        OpCounts::default()
    }

    /// Total macroblocks processed.
    pub fn total_mbs(&self) -> u64 {
        self.intra_mbs + self.inter_mbs + self.skip_mbs
    }

    /// Bytes produced by the entropy coder (rounded up per frame happens
    /// at the container level; this is the raw bit total / 8).
    pub fn bytes_emitted(&self) -> u64 {
        self.bits_emitted.div_ceil(8)
    }

    /// Fraction of macroblocks that skipped motion estimation entirely —
    /// PBPAIR's source of energy savings.
    pub fn me_skip_ratio(&self) -> f64 {
        let total = self.total_mbs();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.me_invocations as f64 / total as f64
    }
}

impl Add for OpCounts {
    type Output = OpCounts;

    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            frames: self.frames + rhs.frames,
            intra_mbs: self.intra_mbs + rhs.intra_mbs,
            inter_mbs: self.inter_mbs + rhs.inter_mbs,
            skip_mbs: self.skip_mbs + rhs.skip_mbs,
            me_invocations: self.me_invocations + rhs.me_invocations,
            sad_candidates: self.sad_candidates + rhs.sad_candidates,
            sad_ops: self.sad_ops + rhs.sad_ops,
            dct_blocks: self.dct_blocks + rhs.dct_blocks,
            idct_blocks: self.idct_blocks + rhs.idct_blocks,
            quant_blocks: self.quant_blocks + rhs.quant_blocks,
            dequant_blocks: self.dequant_blocks + rhs.dequant_blocks,
            mc_luma_blocks: self.mc_luma_blocks + rhs.mc_luma_blocks,
            mc_chroma_blocks: self.mc_chroma_blocks + rhs.mc_chroma_blocks,
            bits_emitted: self.bits_emitted + rhs.bits_emitted,
            ref_read_bytes: self.ref_read_bytes + rhs.ref_read_bytes,
            recon_write_bytes: self.recon_write_bytes + rhs.recon_write_bytes,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

impl Sub for OpCounts {
    type Output = OpCounts;

    /// Per-field difference — used to extract the cost of a single frame
    /// from two cumulative snapshots.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any field would underflow (`rhs` must be
    /// an earlier snapshot of the same counter).
    fn sub(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            frames: self.frames - rhs.frames,
            intra_mbs: self.intra_mbs - rhs.intra_mbs,
            inter_mbs: self.inter_mbs - rhs.inter_mbs,
            skip_mbs: self.skip_mbs - rhs.skip_mbs,
            me_invocations: self.me_invocations - rhs.me_invocations,
            sad_candidates: self.sad_candidates - rhs.sad_candidates,
            sad_ops: self.sad_ops - rhs.sad_ops,
            dct_blocks: self.dct_blocks - rhs.dct_blocks,
            idct_blocks: self.idct_blocks - rhs.idct_blocks,
            quant_blocks: self.quant_blocks - rhs.quant_blocks,
            dequant_blocks: self.dequant_blocks - rhs.dequant_blocks,
            mc_luma_blocks: self.mc_luma_blocks - rhs.mc_luma_blocks,
            mc_chroma_blocks: self.mc_chroma_blocks - rhs.mc_chroma_blocks,
            bits_emitted: self.bits_emitted - rhs.bits_emitted,
            ref_read_bytes: self.ref_read_bytes - rhs.ref_read_bytes,
            recon_write_bytes: self.recon_write_bytes - rhs.recon_write_bytes,
        }
    }
}

impl Sum for OpCounts {
    fn sum<I: Iterator<Item = OpCounts>>(iter: I) -> OpCounts {
        iter.fold(OpCounts::new(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_merges_every_field() {
        let a = OpCounts {
            frames: 1,
            intra_mbs: 2,
            inter_mbs: 3,
            skip_mbs: 4,
            me_invocations: 5,
            sad_candidates: 6,
            sad_ops: 7,
            dct_blocks: 8,
            idct_blocks: 9,
            quant_blocks: 10,
            dequant_blocks: 11,
            mc_luma_blocks: 12,
            mc_chroma_blocks: 13,
            bits_emitted: 14,
            ref_read_bytes: 15,
            recon_write_bytes: 16,
        };
        let sum = a + a;
        assert_eq!(sum.frames, 2);
        assert_eq!(sum.bits_emitted, 28);
        assert_eq!(sum.ref_read_bytes, 30);
        assert_eq!(sum.recon_write_bytes, 32);
        assert_eq!(sum.total_mbs(), 18);
        let mut b = OpCounts::new();
        b += a;
        assert_eq!(b, a);
        let s: OpCounts = vec![a, a, a].into_iter().sum();
        assert_eq!(s.sad_ops, 21);
        assert_eq!(s - a - a, a, "subtraction inverts addition");
    }

    #[test]
    fn me_skip_ratio_reflects_skipped_searches() {
        let c = OpCounts {
            intra_mbs: 30,
            inter_mbs: 60,
            skip_mbs: 10,
            me_invocations: 70,
            ..OpCounts::default()
        };
        assert!((c.me_skip_ratio() - 0.3).abs() < 1e-12);
        assert_eq!(OpCounts::new().me_skip_ratio(), 0.0);
    }

    #[test]
    fn bytes_round_up() {
        let c = OpCounts {
            bits_emitted: 9,
            ..OpCounts::default()
        };
        assert_eq!(c.bytes_emitted(), 2);
    }
}
