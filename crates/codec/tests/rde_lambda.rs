//! Worker-count invariance of the joint RDE controller: with both λ
//! weights active, the slice schedule must reproduce the serial
//! bitstream at every worker count, and its operation counts must not
//! depend on the worker count.

use pbpair_codec::policy::NaturalPolicy;
use pbpair_codec::{Encoder, EncoderConfig, OpCounts, OptConfig, RdeConfig};
use pbpair_media::synth::SyntheticSequence;

/// Encodes `frames` foreman frames with the given slice count and an
/// *active* RDE configuration, returning per-frame bytes and the final
/// cumulative op counts.
fn encode_with_slices(slices: u8, frames: usize) -> (Vec<Vec<u8>>, OpCounts) {
    let mut enc = Encoder::new(EncoderConfig {
        rde: Some(RdeConfig {
            lambda1_q16: 1 << 24,
            lambda2_q16: 1 << 10,
        }),
        opt: OptConfig {
            slices,
            ..OptConfig::default()
        },
        ..EncoderConfig::default()
    });
    let mut policy = NaturalPolicy::new();
    let mut seq = SyntheticSequence::foreman_class(77);
    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        out.push(enc.encode_frame(&seq.next_frame(), &mut policy).data);
    }
    (out, *enc.ops())
}

/// The RDE decision is macroblock-local (frozen reference, λ-independent
/// candidate set, integer cost), so the bitstream is byte-identical at
/// 1, 2, and 8 slice workers even with both λ weights active — and the
/// slice schedule's op accounting is itself worker-count invariant.
#[test]
fn active_rde_is_invariant_across_slice_workers() {
    let (serial, _) = encode_with_slices(1, 8);
    let (two, ops_two) = encode_with_slices(2, 8);
    let (eight, ops_eight) = encode_with_slices(8, 8);
    for (i, f) in serial.iter().enumerate() {
        assert_eq!(f, &two[i], "frame {i}: 1 vs 2 workers diverged");
        assert_eq!(f, &eight[i], "frame {i}: 1 vs 8 workers diverged");
    }
    // The serial and slice schedules may count ME pruning work
    // differently (their prepass candidate lists differ by design), but
    // the slice schedule's counts must not depend on the worker count.
    assert_eq!(ops_two, ops_eight, "slice op counts vary with workers");
}
