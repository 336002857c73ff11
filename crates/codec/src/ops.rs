//! Operation accounting — the codec-side half of the energy model.
//!
//! The paper measures encoding energy with a DAQ board on real PDAs. We
//! substitute an operation-accounting model: the codec counts every
//! primitive operation class it executes ([`OpCounts`]), and each
//! device's [`DeviceProfile`] prices one operation of each class in
//! integer picojoules. The table lives here, the lowest crate that
//! prices operations, because the RDE controller ([`crate::rde`]) prices
//! trial codings with it while it encodes; `pbpair-energy` converts the
//! same table to Joules. Because every scheme runs through the same
//! codec, the *ratios* between schemes — the paper's headline result —
//! are preserved by construction.
//!
//! # The device table
//!
//! The paper measures encoding energy on two 400 MHz XScale PDAs (HP
//! iPAQ H5555 and Sharp Zaurus SL-5600) with a National Instruments DAQ
//! board. The per-operation prices are calibrated to two published
//! facts:
//!
//! 1. XScale-class handhelds burn a few tens of millijoules per encoded
//!    QCIF frame (the paper's Figure 5(d): ≈5–25 J over 300 frames);
//! 2. motion estimation dominates the encoder's energy ("the most power
//!    consuming operation in a predictive video compression algorithm").
//!
//! The prices are derived on a cycles basis ([`DeviceProfile::cycle_pj`]:
//! 1,250 pJ per cycle for the iPAQ, a 400 MHz XScale core + memory
//! drawing ≈0.5 W active, and 1,100 pJ for the Zaurus): a SAD step is ~2
//! cycles, an 8×8 DCT ~1200 cycles, and so on. Under the paper's
//! full-search configuration this puts ME at ≈95% of a P-frame's
//! encoding energy and 300 QCIF frames at ≈15–20 J — squarely inside
//! Figure 5(d)'s band — and it keeps ME dominant (≈60%) even under the
//! fast three-step search. Absolute Joules are indicative; the scheme
//! *ratios* are the result.

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

/// Per-operation energy prices of one device, in integer picojoules —
/// the one device table. The RDE controller sums it in integers;
/// `pbpair-energy` reads each price in nanojoules as `pj as f64 /
/// 1000.0`, which is exact. Profiles are compile-time constants with
/// static names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Device name as it appears in reports.
    pub name: &'static str,
    /// One absolute-difference step of a SAD kernel (load, sub, abs,
    /// accumulate).
    pub sad_op_pj: u64,
    /// One forward 8×8 DCT.
    pub dct_block_pj: u64,
    /// One inverse 8×8 DCT.
    pub idct_block_pj: u64,
    /// Quantizing one 8×8 block.
    pub quant_block_pj: u64,
    /// Dequantizing one 8×8 block.
    pub dequant_block_pj: u64,
    /// Motion-compensating one 16×16 luma block.
    pub mc_luma_pj: u64,
    /// Motion-compensating one 8×8 chroma block.
    pub mc_chroma_pj: u64,
    /// Entropy-coding one output bit.
    pub vlc_bit_pj: u64,
    /// Fixed per-macroblock bookkeeping.
    pub mb_overhead_pj: u64,
    /// Fixed per-frame bookkeeping (headers, loop control).
    pub frame_overhead_pj: u64,
    /// Radio transmission cost per bit (802.11b-class), used only for
    /// *total* energy; the paper's Figure 5(d) is encoding energy alone.
    pub tx_bit_pj: u64,
    /// One byte-wide XOR-accumulate in an FEC inner loop (load, xor,
    /// store — ~1 cycle on the ARM core).
    pub fec_xor_byte_pj: u64,
    /// One byte-wide GF(256) multiply-accumulate (two table lookups in
    /// cached SRAM plus an XOR — ~5 cycles).
    pub fec_gf_byte_pj: u64,
    /// Reading one reference-frame byte from SDRAM in the prediction
    /// loop (amortized burst read, ~2 cycles/byte on the PXA bus).
    pub mem_read_byte_pj: u64,
    /// Writing one reconstruction byte back to SDRAM (write buffers
    /// drain slower than reads fill, ~3 cycles/byte).
    pub mem_write_byte_pj: u64,
    /// One core cycle at the maximum operating point: the basis the
    /// prices above are calibrated on, and what the DVS governor scales.
    pub cycle_pj: u64,
}

/// HP iPAQ H5555: 400 MHz PXA255, 128 MB SDRAM, integrated 802.11b.
pub const IPAQ_H5555: DeviceProfile = DeviceProfile {
    name: "iPAQ H5555",
    sad_op_pj: 2_500,
    dct_block_pj: 1_500_000,
    idct_block_pj: 1_500_000,
    quant_block_pj: 320_000,
    dequant_block_pj: 320_000,
    mc_luma_pj: 640_000,
    mc_chroma_pj: 160_000,
    vlc_bit_pj: 10_000,
    mb_overhead_pj: 625_000,
    frame_overhead_pj: 50_000_000,
    tx_bit_pj: 120_000,
    fec_xor_byte_pj: 1_250,
    fec_gf_byte_pj: 6_250,
    mem_read_byte_pj: 2_500,
    mem_write_byte_pj: 3_750,
    cycle_pj: 1_250,
};

/// Sharp Zaurus SL-5600: 400 MHz PXA250, 32 MB SDRAM, CF 802.11b card.
/// Slightly cheaper compute (smaller, slower memory system draws less)
/// but a hungrier external radio.
pub const ZAURUS_SL5600: DeviceProfile = DeviceProfile {
    name: "Zaurus SL-5600",
    sad_op_pj: 2_200,
    dct_block_pj: 1_320_000,
    idct_block_pj: 1_320_000,
    quant_block_pj: 280_000,
    dequant_block_pj: 280_000,
    mc_luma_pj: 560_000,
    mc_chroma_pj: 140_000,
    vlc_bit_pj: 9_000,
    mb_overhead_pj: 550_000,
    frame_overhead_pj: 44_000_000,
    tx_bit_pj: 160_000,
    fec_xor_byte_pj: 1_100,
    fec_gf_byte_pj: 5_500,
    mem_read_byte_pj: 2_200,
    mem_write_byte_pj: 3_300,
    cycle_pj: 1_100,
};

impl DeviceProfile {
    /// The two profiles the paper measures, in its order.
    pub fn paper_devices() -> [DeviceProfile; 2] {
        [IPAQ_H5555, ZAURUS_SL5600]
    }

    /// Looks a profile up by (case-insensitive) name fragment: "ipaq" or
    /// "zaurus".
    pub fn by_name(name: &str) -> Option<DeviceProfile> {
        let lower = name.to_ascii_lowercase();
        if lower.contains("ipaq") {
            Some(IPAQ_H5555)
        } else if lower.contains("zaurus") {
            Some(ZAURUS_SL5600)
        } else {
            None
        }
    }

    /// Prices one macroblock's coding work: the transform/MC/overhead op
    /// classes of `ops` (a delta for just this macroblock), the
    /// memory-traffic term, and `bits` of entropy coding. SAD work is
    /// deliberately not priced here — motion estimation is sunk before
    /// the RDE mode decision.
    pub fn mb_energy_pj(&self, ops: &OpCounts, bits: u64) -> u64 {
        self.dct_block_pj * ops.dct_blocks
            + self.idct_block_pj * ops.idct_blocks
            + self.quant_block_pj * ops.quant_blocks
            + self.dequant_block_pj * ops.dequant_blocks
            + self.mc_luma_pj * ops.mc_luma_blocks
            + self.mc_chroma_pj * ops.mc_chroma_blocks
            + self.mem_read_byte_pj * ops.ref_read_bytes
            + self.mem_write_byte_pj * ops.recon_write_bytes
            + self.vlc_bit_pj * bits
            + self.mb_overhead_pj
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

    #[test]
    fn profiles_are_positive_everywhere() {
        for p in DeviceProfile::paper_devices() {
            for v in [
                p.sad_op_pj,
                p.dct_block_pj,
                p.idct_block_pj,
                p.quant_block_pj,
                p.dequant_block_pj,
                p.mc_luma_pj,
                p.mc_chroma_pj,
                p.vlc_bit_pj,
                p.mb_overhead_pj,
                p.frame_overhead_pj,
                p.tx_bit_pj,
                p.fec_xor_byte_pj,
                p.fec_gf_byte_pj,
                p.mem_read_byte_pj,
                p.mem_write_byte_pj,
                p.cycle_pj,
            ] {
                assert!(v > 0, "{}: non-positive cost", p.name);
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(
            DeviceProfile::by_name("iPAQ H5555").unwrap().name,
            "iPAQ H5555"
        );
        assert_eq!(
            DeviceProfile::by_name("zaurus").unwrap().name,
            "Zaurus SL-5600"
        );
        assert!(DeviceProfile::by_name("nokia").is_none());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the relation between the two const profiles IS the test
    fn zaurus_compute_is_cheaper_but_radio_hungrier() {
        assert!(ZAURUS_SL5600.sad_op_pj < IPAQ_H5555.sad_op_pj);
        assert!(ZAURUS_SL5600.tx_bit_pj > IPAQ_H5555.tx_bit_pj);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // as above
    fn zaurus_memory_is_cheaper_than_ipaq() {
        assert!(ZAURUS_SL5600.mem_read_byte_pj < IPAQ_H5555.mem_read_byte_pj);
        assert!(ZAURUS_SL5600.mem_write_byte_pj < IPAQ_H5555.mem_write_byte_pj);
    }
}
