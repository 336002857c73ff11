//! Differential tests pinning the RDE memory-traffic term.
//!
//! The encoder charges [`OpCounts::ref_read_bytes`] and
//! [`OpCounts::recon_write_bytes`] at the macroblock level, from the
//! coding decision alone. This suite replays the per-MB provenance
//! trace ([`Event::MbCoded`]) and recomputes the traffic brute-force
//! from first principles:
//!
//! * every coded or skipped macroblock writes its full 384-byte YCbCr
//!   footprint to the reconstruction exactly once;
//! * a skip reads the same 384 colocated reference bytes it copies;
//! * an inter prediction reads [`mc_read_bytes`] of its vector — note
//!   an *odd* integer luma component floor-halves to a half-pel chroma
//!   position, widening the chroma window to 9 samples even with
//!   half-pel motion off (the trace carries integer-pel vectors, which
//!   with `half_pel: false` is the full vector);
//! * intra macroblocks read no reference at all.
//!
//! Trial codings inside the RDE controller must leave no trace in the
//! counters (their ops are tallied into scratch and discarded), so the
//! replay must match the encoder's deltas *exactly*, with the
//! controller both off and active.
//!
//! The second half pins tier invariance: the memory-traffic counts (and
//! every other op count) are byte-for-byte identical across every kernel
//! tier the host has (scalar and SSE2 on x86-64, scalar and NEON on
//! aarch64), because they are charged per decision, never per SIMD lane.

use pbpair_codec::mb::SubPelVector;
use pbpair_codec::policy::NaturalPolicy;
use pbpair_codec::rde::mc_read_bytes;
use pbpair_codec::{
    Encoder, EncoderConfig, KernelTier, Kernels, MotionVector, OpCounts, OptConfig, RdeConfig,
};
use pbpair_media::synth::SyntheticSequence;
use pbpair_trace::event::{MODE_INTER, MODE_INTRA, MODE_SKIP};
use pbpair_trace::{Event, Tracer};

const MB_BYTES: u64 = 16 * 16 + 2 * 8 * 8;

/// Brute-force replay: expected (ref reads, recon writes) of one frame,
/// summed over its `MbCoded` provenance events.
fn replay_traffic(events: &[Event], frame: u32) -> (u64, u64) {
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut mbs = 0u32;
    for ev in events {
        let Event::MbCoded {
            frame: f,
            mode,
            mv_x,
            mv_y,
            ..
        } = *ev
        else {
            continue;
        };
        if f != frame {
            continue;
        }
        mbs += 1;
        writes += MB_BYTES;
        reads += match mode {
            MODE_INTRA => 0,
            MODE_SKIP => MB_BYTES,
            MODE_INTER => mc_read_bytes(SubPelVector::integer(MotionVector::new(mv_x, mv_y))),
            other => panic!("unknown mode code {other}"),
        };
    }
    assert_eq!(mbs, 99, "frame {frame}: trace covers all QCIF macroblocks");
    (reads, writes)
}

/// Encodes `frames` foreman frames under `rde`, returning per-frame
/// op-count deltas and the full provenance event log.
fn encode_traced(rde: Option<RdeConfig>, frames: usize) -> (Vec<OpCounts>, Vec<Event>) {
    let mut enc = Encoder::new(EncoderConfig {
        rde,
        ..EncoderConfig::default()
    });
    let tracer = Tracer::new();
    enc.set_tracer(&tracer);
    let mut policy = NaturalPolicy::new();
    let mut seq = SyntheticSequence::foreman_class(2005);
    let mut deltas = Vec::with_capacity(frames);
    let mut prev = OpCounts::new();
    for _ in 0..frames {
        enc.encode_frame(&seq.next_frame(), &mut policy);
        let ops = *enc.ops();
        deltas.push(ops - prev);
        prev = ops;
    }
    (deltas, tracer.log_snapshot().events)
}

fn assert_replay_matches(rde: Option<RdeConfig>, label: &str) {
    let frames = 6;
    let (deltas, events) = encode_traced(rde, frames);
    let mut saw_inter = false;
    let mut saw_skip = false;
    let mut saw_odd_mv = false;
    for ev in &events {
        if let Event::MbCoded {
            mode: MODE_INTER,
            mv_x,
            mv_y,
            ..
        } = *ev
        {
            saw_inter = true;
            saw_odd_mv |= mv_x.rem_euclid(2) == 1 || mv_y.rem_euclid(2) == 1;
        }
        saw_skip |= matches!(
            ev,
            Event::MbCoded {
                mode: MODE_SKIP,
                ..
            }
        );
    }
    assert!(
        saw_inter && saw_skip,
        "{label}: clip exercises too few modes"
    );
    assert!(
        saw_odd_mv,
        "{label}: no odd-component vector — the chroma-widening case went untested"
    );
    for (i, delta) in deltas.iter().enumerate() {
        let (reads, writes) = replay_traffic(&events, i as u32);
        assert_eq!(
            delta.ref_read_bytes, reads,
            "{label}: frame {i} reference reads diverge from the brute-force replay"
        );
        assert_eq!(
            delta.recon_write_bytes, writes,
            "{label}: frame {i} reconstruction writes diverge from the replay"
        );
    }
}

/// With the controller off, the charged memory traffic equals the
/// brute-force replay of the provenance trace, frame by frame.
#[test]
fn memory_traffic_matches_brute_force_replay_without_rde() {
    assert_replay_matches(None, "plain");
}

/// With the controller *active* the equality still holds: trial codings
/// are scratch-only, so only the winning candidate's traffic lands in
/// the counters — the energy model never double-charges the search.
#[test]
fn memory_traffic_matches_brute_force_replay_with_active_rde() {
    assert_replay_matches(
        Some(RdeConfig {
            lambda1_q16: 1 << 12,
            lambda2_q16: 1 << 8,
        }),
        "rde",
    );
}

/// Every available SIMD tier produces byte-identical bitstreams *and*
/// bit-identical op counts (memory traffic included) with the RDE
/// controller active: the decision layer is above the kernel dispatch,
/// so λ-driven choices cannot vary by tier.
#[test]
fn rde_op_counts_are_kernel_tier_invariant() {
    let encode = |tier: KernelTier| {
        let mut enc = Encoder::new(EncoderConfig {
            rde: Some(RdeConfig {
                lambda1_q16: 1 << 24,
                lambda2_q16: 1 << 10,
            }),
            opt: OptConfig {
                kernels: Some(tier),
                ..OptConfig::default()
            },
            ..EncoderConfig::default()
        });
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(41);
        let mut stream = Vec::new();
        for _ in 0..6 {
            stream.extend_from_slice(&enc.encode_frame(&seq.next_frame(), &mut policy).data);
        }
        (stream, *enc.ops())
    };

    let tiers = Kernels::available();
    assert!(!tiers.is_empty(), "scalar tier is always available");
    let (base_stream, base_ops) = encode(tiers[0]);
    assert!(base_ops.ref_read_bytes > 0 && base_ops.recon_write_bytes > 0);
    for &tier in &tiers[1..] {
        let (stream, ops) = encode(tier);
        assert_eq!(
            stream, base_stream,
            "{tier:?}: bitstream diverged from scalar"
        );
        assert_eq!(ops, base_ops, "{tier:?}: op counts diverged from scalar");
    }
}
