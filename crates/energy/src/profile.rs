//! Device energy profiles.
//!
//! The paper measures encoding energy on two 400 MHz XScale PDAs (HP iPAQ
//! H5555 and Sharp Zaurus SL-5600) with a National Instruments DAQ board.
//! We substitute per-operation energy costs calibrated to two published
//! facts:
//!
//! 1. XScale-class handhelds burn a few tens of millijoules per encoded
//!    QCIF frame (the paper's Figure 5(d): ≈5–25 J over 300 frames);
//! 2. motion estimation dominates the encoder's energy ("the most power
//!    consuming operation in a predictive video compression algorithm").
//!
//! The constants are derived on a cycles basis (≈1.25 nJ/cycle: a 400 MHz
//! XScale core + memory drawing ≈0.5 W active): a SAD step is ~2 cycles,
//! an 8×8 DCT ~1200 cycles, and so on. Under the paper's full-search
//! configuration this puts ME at ≈95% of a P-frame's encoding energy and
//! 300 QCIF frames at ≈15–20 J — squarely inside Figure 5(d)'s band —
//! and it keeps ME dominant (≈60%) even under the fast three-step search.
//! Absolute Joules are indicative; the scheme *ratios* are the result.

/// Per-operation energy costs of one device, in nanojoules. Profiles are
/// compile-time constants with static names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Device name as it appears in reports.
    pub name: &'static str,
    /// One absolute-difference step of a SAD kernel (load, sub, abs,
    /// accumulate).
    pub sad_op_nj: f64,
    /// One forward 8×8 DCT.
    pub dct_block_nj: f64,
    /// One inverse 8×8 DCT.
    pub idct_block_nj: f64,
    /// Quantizing one 8×8 block.
    pub quant_block_nj: f64,
    /// Dequantizing one 8×8 block.
    pub dequant_block_nj: f64,
    /// Motion-compensating one 16×16 luma block.
    pub mc_luma_nj: f64,
    /// Motion-compensating one 8×8 chroma block.
    pub mc_chroma_nj: f64,
    /// Entropy-coding one output bit.
    pub vlc_bit_nj: f64,
    /// Fixed per-macroblock bookkeeping.
    pub mb_overhead_nj: f64,
    /// Fixed per-frame bookkeeping (headers, loop control).
    pub frame_overhead_nj: f64,
    /// Radio transmission cost per bit (802.11b-class), used only for
    /// *total* energy; the paper's Figure 5(d) is encoding energy alone.
    pub tx_bit_nj: f64,
    /// One byte-wide XOR-accumulate in an FEC inner loop (load, xor,
    /// store — ~1 cycle on the ARM core).
    pub fec_xor_byte_nj: f64,
    /// One byte-wide GF(256) multiply-accumulate (two table lookups in
    /// cached SRAM plus an XOR — ~5 cycles).
    pub fec_gf_byte_nj: f64,
    /// Reading one reference-frame byte from SDRAM in the prediction
    /// loop (amortized burst read, ~2 cycles/byte on the PXA bus).
    pub mem_read_byte_nj: f64,
    /// Writing one reconstruction byte back to SDRAM (write buffers
    /// drain slower than reads fill, ~3 cycles/byte).
    pub mem_write_byte_nj: f64,
}

/// HP iPAQ H5555: 400 MHz PXA255, 128 MB SDRAM, integrated 802.11b.
pub const IPAQ_H5555: DeviceProfile = DeviceProfile {
    name: "iPAQ H5555",
    sad_op_nj: 2.5,
    dct_block_nj: 1_500.0,
    idct_block_nj: 1_500.0,
    quant_block_nj: 320.0,
    dequant_block_nj: 320.0,
    mc_luma_nj: 640.0,
    mc_chroma_nj: 160.0,
    vlc_bit_nj: 10.0,
    mb_overhead_nj: 625.0,
    frame_overhead_nj: 50_000.0,
    tx_bit_nj: 120.0,
    fec_xor_byte_nj: 1.25,
    fec_gf_byte_nj: 6.25,
    mem_read_byte_nj: 2.5,
    mem_write_byte_nj: 3.75,
};

/// Sharp Zaurus SL-5600: 400 MHz PXA250, 32 MB SDRAM, CF 802.11b card.
/// Slightly cheaper compute (smaller, slower memory system draws less)
/// but a hungrier external radio.
pub const ZAURUS_SL5600: DeviceProfile = DeviceProfile {
    name: "Zaurus SL-5600",
    sad_op_nj: 2.2,
    dct_block_nj: 1_320.0,
    idct_block_nj: 1_320.0,
    quant_block_nj: 280.0,
    dequant_block_nj: 280.0,
    mc_luma_nj: 560.0,
    mc_chroma_nj: 140.0,
    vlc_bit_nj: 9.0,
    mb_overhead_nj: 550.0,
    frame_overhead_nj: 44_000.0,
    tx_bit_nj: 160.0,
    fec_xor_byte_nj: 1.1,
    fec_gf_byte_nj: 5.5,
    mem_read_byte_nj: 2.2,
    mem_write_byte_nj: 3.3,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_positive_everywhere() {
        for p in DeviceProfile::paper_devices() {
            for v in [
                p.sad_op_nj,
                p.dct_block_nj,
                p.idct_block_nj,
                p.quant_block_nj,
                p.dequant_block_nj,
                p.mc_luma_nj,
                p.mc_chroma_nj,
                p.vlc_bit_nj,
                p.mb_overhead_nj,
                p.frame_overhead_nj,
                p.tx_bit_nj,
                p.fec_xor_byte_nj,
                p.fec_gf_byte_nj,
                p.mem_read_byte_nj,
                p.mem_write_byte_nj,
            ] {
                assert!(v > 0.0, "{}: non-positive cost", p.name);
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
        assert!(ZAURUS_SL5600.sad_op_nj < IPAQ_H5555.sad_op_nj);
        assert!(ZAURUS_SL5600.tx_bit_nj > IPAQ_H5555.tx_bit_nj);
    }
}
