//! Bit-for-bit pins of the float energy arithmetic.
//!
//! The device table holds integer picojoules and the float model derives
//! each nanojoule factor from it. These pins were taken from the model
//! when its constants were still `f64` nanojoule literals, so they hold
//! only while every derived factor is exactly the `f64` that literal
//! parsed to and every sum keeps its order. `pj as f64 / 1000.0` is
//! exact (both operands are exact and IEEE division rounds correctly);
//! `pj as f64 * 1e-3` is not (`3300.0 * 1e-3` is `3.3000000000000003`,
//! the Zaurus memory-write price) and fails here.

use pbpair_codec::OpCounts;
use pbpair_energy::{DeviceProfile, DvfsGovernor, EnergyModel, IPAQ_H5555, ZAURUS_SL5600};
use pbpair_fec::FecOps;

/// Odd counts in every field a price multiplies, so no factor can hide
/// behind a round product.
fn ops() -> OpCounts {
    OpCounts {
        frames: 7,
        intra_mbs: 131,
        inter_mbs: 509,
        skip_mbs: 53,
        me_invocations: 509,
        sad_candidates: 150_367,
        sad_ops: 38_493_953,
        dct_blocks: 3_841,
        idct_blocks: 3_839,
        quant_blocks: 3_841,
        dequant_blocks: 3_837,
        mc_luma_blocks: 517,
        mc_chroma_blocks: 1_031,
        bits_emitted: 187_771,
        ref_read_bytes: 204_917,
        recon_write_bytes: 266_113,
    }
}

fn fec_ops() -> FecOps {
    FecOps {
        xor_bytes: 92_317,
        gf_mul_bytes: 41_129,
        matrix_inversions: 3,
        ..FecOps::default()
    }
}

/// `to_bits` of: the six breakdown terms (ME, transform, quantization,
/// MC, entropy, overhead), memory, FEC, transmission, then DVS-governed
/// frame energy at 1 s (100 MHz) and 0.4 s (300 MHz).
fn pinned(profile: &DeviceProfile) -> [u64; 11] {
    match profile.name {
        "iPAQ H5555" => [
            0x3fb8a2d969126838,
            0x3f8797cc39ffd60f,
            0x3f64209e5b1f606e,
            0x3f403f684ac21b18,
            0x3f5ec3afc2a5d76b,
            0x3f49a95421c04429,
            0x3f58be4e59d53379,
            0x3f3909c6fe2bbf77,
            0x3f9712c3d1fc6190,
            0x3fa8d0a133eab910,
            0x3fb4c780c925fd4a,
        ],
        "Zaurus SL-5600" => [
            0x3fb5ae07004da365,
            0x3f84c305a3adef92,
            0x3f619c8a8fbb7460,
            0x3f3c6ef682d3af6b,
            0x3f5bb01e2f2edb7a,
            0x3f4695025b241305,
            0x3f55c63078034c03,
            0x3f36089aa23afa69,
            0x3f9ec3afc2a5d76b,
            0x3fa5d7975820b426,
            0x3fb24a3b68cc8c38,
        ],
        other => panic!("no pins for {other}"),
    }
}

#[test]
fn energy_arithmetic_is_bit_identical_to_the_nanojoule_literals() {
    for profile in [IPAQ_H5555, ZAURUS_SL5600] {
        let model = EnergyModel::new(profile);
        let ops = ops();
        let b = model.breakdown(&ops);
        let governor = DvfsGovernor::xscale(profile);
        let encoding = model.encoding_energy(&ops);
        let got = [
            b.motion_estimation,
            b.transform,
            b.quantization,
            b.motion_compensation,
            b.entropy,
            b.overhead,
            model.memory_energy(&ops),
            model.fec_energy(&fec_ops()),
            model.transmission_energy(ops.bits_emitted),
            governor.frame_energy_with_dvs(encoding, 1.0),
            governor.frame_energy_with_dvs(encoding, 0.4),
        ]
        .map(|j| j.get().to_bits());
        let want = pinned(&profile);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g,
                w,
                "{}: value {i} is {} J, pinned {} J",
                profile.name,
                f64::from_bits(*g),
                f64::from_bits(*w)
            );
        }
    }
}
