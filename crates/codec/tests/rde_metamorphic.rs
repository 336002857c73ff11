//! Metamorphic properties of the joint RDE controller over the λ-plane
//! (ROADMAP item 4, satellite battery).
//!
//! The clip is two foreman-class frames: frame 0 is intra (the RDE
//! controller only arbitrates P-frame macroblocks, so the reference
//! frame 1 predicts from is identical at every λ), and frame 1 is the
//! measured P-frame. With a fixed reference the per-macroblock candidate
//! set is λ-independent — the searched vector, the natural intra test,
//! and the skip option do not depend on the prices — so the exchange
//! argument applies exactly: for λ_a < λ_b,
//! `J_a(C_a) ≤ J_a(C_b)` and `J_b(C_b) ≤ J_b(C_a)` subtract to
//! `(λ_b − λ_a)·(E(C_b) − E(C_a)) ≤ 0`, i.e. the chosen energy (bits)
//! is monotone non-increasing in λ2 (λ1), *without* any tolerance.
//!
//! The measured energy is `IPAQ_H5555.mb_energy_pj` over the frame's
//! op-count delta. That model deliberately excludes SAD work: motion
//! estimation is sunk cost, and its op count is the one quantity that
//! legitimately wiggles across λ (chosen modes feed the next
//! macroblock's predicted-MV pruning seeds — the search *winners* are
//! unchanged, the pruning effort is not).
//!
//! The sweep starts at λ = 1, not 0: zero λ is the *inert gate* (the
//! baseline policy decision, asserted bit-identical to `rde: None`
//! below), not the λ→0 limit of the argmin, so monotonicity is only
//! claimed on the active side of the gate.

use pbpair_codec::policy::NaturalPolicy;
use pbpair_codec::{Encoder, EncoderConfig, MbMode, OpCounts, RdeConfig, IPAQ_H5555};
use pbpair_media::synth::SyntheticSequence;

/// λ values swept along each axis (Q16.16), smallest active weight to
/// saturation.
const LAMBDA_SWEEP: [u32; 7] = [1, 1 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 26, u32::MAX];

struct FrameRecord {
    data: Vec<u8>,
    bits: u64,
    /// Integer-pJ energy of this frame's op delta at the RDE's iPAQ rates.
    energy_pj: u64,
    skip_mbs: u32,
    modes: Vec<MbMode>,
}

/// Encodes `frames` foreman-class frames and returns per-frame records.
fn encode_clip(rde: Option<RdeConfig>, frames: usize) -> Vec<FrameRecord> {
    let mut enc = Encoder::new(EncoderConfig {
        rde,
        ..EncoderConfig::default()
    });
    let mut policy = NaturalPolicy::new();
    let mut seq = SyntheticSequence::foreman_class(2005);
    let mut out = Vec::with_capacity(frames);
    let mut prev_ops = OpCounts::new();
    for _ in 0..frames {
        let encoded = enc.encode_frame(&seq.next_frame(), &mut policy);
        let ops = *enc.ops();
        let delta = ops - prev_ops;
        prev_ops = ops;
        out.push(FrameRecord {
            data: encoded.data.clone(),
            bits: encoded.stats.bits,
            energy_pj: IPAQ_H5555.mb_energy_pj(&delta, encoded.stats.bits),
            skip_mbs: encoded.stats.skip_mbs,
            modes: encoded.mb_modes.clone(),
        });
    }
    out
}

/// Raising λ2 (the energy price) never raises the P-frame's coding
/// energy, and the sweep is non-vacuous: saturation costs strictly less
/// than the near-zero end.
#[test]
fn chosen_energy_is_monotone_non_increasing_in_lambda2() {
    let mut last = u64::MAX;
    let mut first = None;
    for l2 in LAMBDA_SWEEP {
        let clip = encode_clip(Some(RdeConfig::energy_weighted(l2)), 2);
        let e = clip[1].energy_pj;
        assert!(
            e <= last,
            "λ2 {l2:#x}: P-frame energy rose from {last} to {e} pJ"
        );
        first.get_or_insert(e);
        last = e;
    }
    assert!(
        last < first.unwrap(),
        "sweep is vacuous: energy never moved ({last} pJ at both ends)"
    );
}

/// Raising λ1 (the bit price) never raises the P-frame's coded bits,
/// and the sweep strictly reduces them overall.
#[test]
fn chosen_bits_are_monotone_non_increasing_in_lambda1() {
    let mut last = u64::MAX;
    let mut first = None;
    for l1 in LAMBDA_SWEEP {
        let clip = encode_clip(Some(RdeConfig::rate_weighted(l1)), 2);
        let bits = clip[1].bits;
        assert!(
            bits <= last,
            "λ1 {l1:#x}: P-frame bits rose from {last} to {bits}"
        );
        first.get_or_insert(bits);
        last = bits;
    }
    assert!(
        last < first.unwrap(),
        "sweep is vacuous: bits never moved ({last} at both ends)"
    );
}

/// The zero-λ gate: `rde: None` and `rde: Some(zero λ)` are the same
/// encoder — byte-identical bitstreams, identical per-MB modes, and
/// identical operation counts over a five-frame clip. A pure
/// distortion argmin (no gate) would fail this.
#[test]
fn zero_lambda_reproduces_the_plain_encoder_bit_identically() {
    let zero = RdeConfig::default();
    assert!(!zero.is_active());
    let plain = encode_clip(None, 5);
    let gated = encode_clip(Some(zero), 5);
    assert_eq!(plain.len(), gated.len());
    for (i, (p, g)) in plain.iter().zip(&gated).enumerate() {
        assert_eq!(p.data, g.data, "frame {i}: bitstream diverged at zero λ");
        assert_eq!(p.modes, g.modes, "frame {i}: mode map diverged at zero λ");
        assert_eq!(p.energy_pj, g.energy_pj, "frame {i}: op counts diverged");
    }
}

/// Saturated λ2 hits the all-skip floor: skip is the cheapest candidate
/// in energy for every macroblock (one COD bit, a colocated copy, no
/// transform work), so pricing energy at u32::MAX forces every P-frame
/// macroblock to skip, and the frame's bits collapse to roughly one bit
/// per macroblock plus the picture header.
#[test]
fn saturated_lambda2_forces_the_all_skip_floor() {
    let clip = encode_clip(Some(RdeConfig::energy_weighted(u32::MAX)), 4);
    let mb_count = clip[1].modes.len() as u32;
    assert_eq!(mb_count, 99, "QCIF has 99 macroblocks");
    for (i, f) in clip.iter().enumerate().skip(1) {
        assert_eq!(
            f.skip_mbs, mb_count,
            "frame {i}: {} of {mb_count} MBs skipped under saturated λ2",
            f.skip_mbs
        );
        assert!(
            f.modes.iter().all(|&m| m == MbMode::Skip),
            "frame {i}: non-skip mode survived saturated λ2"
        );
        // Picture header plus one COD bit per MB, with byte-align slack.
        assert!(
            f.bits < 64 + 2 * mb_count as u64,
            "frame {i}: {} bits is too many for an all-skip frame",
            f.bits
        );
    }
}

/// A moderate joint λ point sits strictly between the extremes — it
/// spends less energy than the near-zero point and more than the
/// all-skip floor, so the controller genuinely trades along the curve
/// rather than toggling between endpoints.
#[test]
fn moderate_lambda_trades_between_the_extremes() {
    let low = encode_clip(Some(RdeConfig::energy_weighted(1)), 2);
    let mid = encode_clip(Some(RdeConfig::energy_weighted(1 << 8)), 2);
    let floor = encode_clip(Some(RdeConfig::energy_weighted(u32::MAX)), 2);
    assert!(
        mid[1].energy_pj < low[1].energy_pj,
        "mid λ2 saved nothing over the near-zero point"
    );
    assert!(
        mid[1].energy_pj > floor[1].energy_pj,
        "mid λ2 already sits on the all-skip floor — the sweep has no interior"
    );
}
