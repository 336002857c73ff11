//! The energy model: operation counts × device profile → Joules.

use pbpair_codec::{DeviceProfile, OpCounts};
use pbpair_fec::FecOps;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Sub};

/// A device-table price in nanojoules. Exact: `pj` and `1000.0` are
/// exact `f64`s and IEEE division rounds correctly, so this is the `f64`
/// the price's nanojoule decimal parses to (`* 1e-3` is not:
/// `3300.0 * 1e-3` is `3.3000000000000003`).
pub(crate) fn nj(pj: u64) -> f64 {
    pj as f64 / 1000.0
}

/// An energy quantity in Joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

impl Joules {
    /// The raw value in Joules.
    pub fn get(&self) -> f64 {
        self.0
    }

    /// Value in millijoules.
    pub fn millijoules(&self) -> f64 {
        self.0 * 1e3
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} J", self.0)
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        Joules(iter.map(|j| j.0).sum())
    }
}

/// Itemized encoding-energy breakdown, for the "where does the energy go"
/// reports and the ME-dominance sanity checks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Motion estimation (all SAD work).
    pub motion_estimation: Joules,
    /// Forward and inverse transforms.
    pub transform: Joules,
    /// Quantization and dequantization.
    pub quantization: Joules,
    /// Motion compensation.
    pub motion_compensation: Joules,
    /// Entropy coding.
    pub entropy: Joules,
    /// Per-macroblock and per-frame overheads.
    pub overhead: Joules,
}

impl EnergyBreakdown {
    /// Total encoding energy.
    pub fn total(&self) -> Joules {
        self.motion_estimation
            + self.transform
            + self.quantization
            + self.motion_compensation
            + self.entropy
            + self.overhead
    }

    /// Fraction of the total spent in motion estimation.
    pub fn me_fraction(&self) -> f64 {
        let t = self.total().get();
        if t == 0.0 {
            0.0
        } else {
            self.motion_estimation.get() / t
        }
    }
}

/// The energy model for one device.
///
/// # Example
///
/// ```rust
/// use pbpair_energy::{EnergyModel, IPAQ_H5555};
/// use pbpair_codec::OpCounts;
///
/// let model = EnergyModel::new(IPAQ_H5555);
/// let ops = OpCounts { sad_ops: 1_000_000, ..OpCounts::default() };
/// let e = model.encoding_energy(&ops);
/// assert!(e.get() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    profile: DeviceProfile,
}

impl EnergyModel {
    /// Creates a model for the given device.
    pub fn new(profile: DeviceProfile) -> Self {
        EnergyModel { profile }
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Itemized encoding energy for a set of operation counts.
    pub fn breakdown(&self, ops: &OpCounts) -> EnergyBreakdown {
        let p = &self.profile;
        let j = |v: f64| Joules(v * 1e-9);
        EnergyBreakdown {
            motion_estimation: j(ops.sad_ops as f64 * nj(p.sad_op_pj)),
            transform: j(ops.dct_blocks as f64 * nj(p.dct_block_pj)
                + ops.idct_blocks as f64 * nj(p.idct_block_pj)),
            quantization: j(ops.quant_blocks as f64 * nj(p.quant_block_pj)
                + ops.dequant_blocks as f64 * nj(p.dequant_block_pj)),
            motion_compensation: j(ops.mc_luma_blocks as f64 * nj(p.mc_luma_pj)
                + ops.mc_chroma_blocks as f64 * nj(p.mc_chroma_pj)),
            entropy: j(ops.bits_emitted as f64 * nj(p.vlc_bit_pj)),
            overhead: j(ops.total_mbs() as f64 * nj(p.mb_overhead_pj)
                + ops.frames as f64 * nj(p.frame_overhead_pj)),
        }
    }

    /// Total *encoding* energy — the quantity of the paper's Figure 5(d)
    /// ("active energy, i.e., the total energy minus the idle energy").
    ///
    /// Deliberately does **not** include the memory-traffic term
    /// ([`EnergyModel::memory_energy`]): the committed scenario, FEC,
    /// and dashboard bounds in `ci/` were measured against this compute
    /// total, and the RDE layer prices memory separately.
    pub fn encoding_energy(&self, ops: &OpCounts) -> Joules {
        self.breakdown(ops).total()
    }

    /// Energy of the coding loop's external-memory traffic:
    /// reference-window reads and reconstruction writes, as counted
    /// kernel-tier-independently by the codec.
    pub fn memory_energy(&self, ops: &OpCounts) -> Joules {
        let p = &self.profile;
        Joules(
            (ops.ref_read_bytes as f64 * nj(p.mem_read_byte_pj)
                + ops.recon_write_bytes as f64 * nj(p.mem_write_byte_pj))
                * 1e-9,
        )
    }

    /// Radio energy to transmit `bits` of payload.
    pub fn transmission_energy(&self, bits: u64) -> Joules {
        Joules(bits as f64 * nj(self.profile.tx_bit_pj) * 1e-9)
    }

    /// Compute energy of FEC encode/decode work: byte-wide XOR
    /// accumulates, GF(256) multiply-accumulates, plus a nominal
    /// `k³ ≈ 512`-multiply charge per decode-time matrix inversion (the
    /// matrices are tiny next to the shard passes, but a Reed-Solomon
    /// repair should never be free). Radio cost of the parity bytes is
    /// *not* included — parity rides in `bits_emitted`-style wire totals
    /// and must be charged there exactly once.
    pub fn fec_energy(&self, ops: &FecOps) -> Joules {
        let p = &self.profile;
        Joules(
            (ops.xor_bytes as f64 * nj(p.fec_xor_byte_pj)
                + ops.gf_mul_bytes as f64 * nj(p.fec_gf_byte_pj)
                + ops.matrix_inversions as f64 * 512.0 * nj(p.fec_gf_byte_pj))
                * 1e-9,
        )
    }

    /// Encoding plus transmission energy — what the §3.2 budget
    /// controller balances (more intra MBs: cheaper encode, costlier
    /// transmit).
    pub fn total_energy(&self, ops: &OpCounts) -> Joules {
        self.encoding_energy(ops) + self.transmission_energy(ops.bits_emitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbpair_codec::{IPAQ_H5555, ZAURUS_SL5600};

    /// Op counts of a representative plain P-frame (three-step search on
    /// all 99 MBs).
    fn p_frame_ops() -> OpCounts {
        OpCounts {
            frames: 1,
            inter_mbs: 99,
            me_invocations: 99,
            sad_candidates: 99 * 33,
            sad_ops: 99 * 33 * 256,
            dct_blocks: 99 * 6,
            idct_blocks: 99 * 6,
            quant_blocks: 99 * 6,
            dequant_blocks: 99 * 6,
            mc_luma_blocks: 99,
            mc_chroma_blocks: 198,
            bits_emitted: 12_000,
            ..OpCounts::default()
        }
    }

    #[test]
    fn me_dominates_a_plain_p_frame() {
        // The paper's premise: ME is the most power consuming stage. Even
        // under the cheap three-step search it must be the single largest
        // component; under full search (below) it is overwhelming.
        for profile in [IPAQ_H5555, ZAURUS_SL5600] {
            let b = EnergyModel::new(profile).breakdown(&p_frame_ops());
            let me = b.motion_estimation.get();
            for (name, other) in [
                ("transform", b.transform.get()),
                ("quantization", b.quantization.get()),
                ("motion compensation", b.motion_compensation.get()),
                ("entropy", b.entropy.get()),
                ("overhead", b.overhead.get()),
            ] {
                assert!(
                    me > other,
                    "{}: ME {me} not above {name} {other}",
                    profile.name
                );
            }
            assert!(
                b.me_fraction() > 0.4,
                "{}: ME fraction {}",
                profile.name,
                b.me_fraction()
            );
        }
    }

    /// Op counts of a P-frame under the paper's full-search (±15)
    /// configuration.
    fn full_search_p_frame_ops() -> OpCounts {
        OpCounts {
            sad_candidates: 99 * 961,
            sad_ops: 99 * 961 * 256,
            ..p_frame_ops()
        }
    }

    #[test]
    fn per_frame_energy_is_pda_plausible() {
        // Figure 5(d): ~5-25 J over 300 frames → ~15-90 mJ/frame under
        // the paper's full-search configuration.
        let e = EnergyModel::new(IPAQ_H5555).encoding_energy(&full_search_p_frame_ops());
        assert!(
            (0.015..0.09).contains(&e.get()),
            "per-frame energy {e} out of the PDA band"
        );
    }

    #[test]
    fn full_search_me_fraction_is_overwhelming() {
        let b = EnergyModel::new(IPAQ_H5555).breakdown(&full_search_p_frame_ops());
        assert!(b.me_fraction() > 0.9, "ME fraction {}", b.me_fraction());
    }

    #[test]
    fn breakdown_sums_to_total() {
        let model = EnergyModel::new(IPAQ_H5555);
        let ops = p_frame_ops();
        let b = model.breakdown(&ops);
        let total = b.motion_estimation
            + b.transform
            + b.quantization
            + b.motion_compensation
            + b.entropy
            + b.overhead;
        assert!((total.get() - model.encoding_energy(&ops).get()).abs() < 1e-12);
    }

    #[test]
    fn energy_is_additive_in_ops() {
        let model = EnergyModel::new(ZAURUS_SL5600);
        let ops = p_frame_ops();
        let double = ops + ops;
        let e1 = model.encoding_energy(&ops);
        let e2 = model.encoding_energy(&double);
        assert!((e2.get() - 2.0 * e1.get()).abs() < 1e-9);
    }

    #[test]
    fn transmission_energy_scales_with_bits() {
        let model = EnergyModel::new(IPAQ_H5555);
        let a = model.transmission_energy(1_000_000);
        let b = model.transmission_energy(2_000_000);
        assert!((b.get() - 2.0 * a.get()).abs() < 1e-12);
        assert!(model.total_energy(&p_frame_ops()) > model.encoding_energy(&p_frame_ops()));
    }

    #[test]
    fn joules_arithmetic_and_display() {
        let a = Joules(1.5) + Joules(0.5);
        assert_eq!(a, Joules(2.0));
        assert_eq!((a - Joules(0.5)).get(), 1.5);
        assert_eq!(a.millijoules(), 2000.0);
        assert_eq!(format!("{a}"), "2.000 J");
        let s: Joules = vec![Joules(1.0), Joules(2.0)].into_iter().sum();
        assert_eq!(s, Joules(3.0));
    }

    #[test]
    fn zero_ops_costs_nothing() {
        let model = EnergyModel::new(IPAQ_H5555);
        assert_eq!(model.encoding_energy(&OpCounts::default()).get(), 0.0);
        assert_eq!(model.breakdown(&OpCounts::default()).me_fraction(), 0.0);
        assert_eq!(model.fec_energy(&FecOps::default()).get(), 0.0);
    }

    #[test]
    fn fec_energy_is_additive_and_gf_work_costs_more_than_xor() {
        let model = EnergyModel::new(IPAQ_H5555);
        let xor = FecOps {
            xor_bytes: 10_000,
            ..FecOps::default()
        };
        let gf = FecOps {
            gf_mul_bytes: 10_000,
            ..FecOps::default()
        };
        let e_xor = model.fec_energy(&xor);
        let e_gf = model.fec_energy(&gf);
        assert!(e_gf > e_xor, "GF mac must cost more than plain xor");
        let both = model.fec_energy(&(xor + gf));
        assert!((both.get() - (e_xor + e_gf).get()).abs() < 1e-15);
        // An RS repair's inversion is charged even with no shard work.
        let inv = FecOps {
            matrix_inversions: 1,
            ..FecOps::default()
        };
        assert!(model.fec_energy(&inv).get() > 0.0);
    }

    #[test]
    fn integer_price_matches_the_float_model() {
        // The RDE's integer pricing of a candidate (compute without ME
        // and frame overhead, plus memory, entropy and one macroblock's
        // overhead) and the float model over the same table agree to
        // float precision.
        let ops = OpCounts {
            inter_mbs: 1,
            dct_blocks: 6,
            idct_blocks: 6,
            quant_blocks: 6,
            dequant_blocks: 6,
            mc_luma_blocks: 1,
            mc_chroma_blocks: 2,
            bits_emitted: 173,
            ref_read_bytes: 418,
            recon_write_bytes: 384,
            ..OpCounts::default()
        };
        for p in DeviceProfile::paper_devices() {
            let model = EnergyModel::new(p);
            let float_j = model.encoding_energy(&ops).get() + model.memory_energy(&ops).get();
            let int_j = p.mb_energy_pj(&ops, ops.bits_emitted) as f64 * 1e-12;
            assert!(
                (float_j - int_j).abs() < 1e-12,
                "{}: integer {int_j} J vs float {float_j} J",
                p.name
            );
        }
    }
}
