//! Property tests of the causal tracer against the *real* pipeline:
//! PBPAIR encoder → RTP packetization → lossy/corrupting channel →
//! resilient decoder, all instrumented. Whatever damage the channel's
//! loss and corruption models invent, the replayed provenance DAG must
//! stay acyclic and every macroblock the decoder reports bad must be
//! reachable from at least one recorded transport event — no orphan
//! damage, no phantom attribution sources.

use pbpair::{PbpairConfig, PbpairPolicy};
use pbpair_codec::{Decoder, Encoder, EncoderConfig};
use pbpair_media::synth::{MotionClass, SyntheticSequence};
use pbpair_media::VideoFormat;
use pbpair_netsim::{
    reassemble_frame_damaged, CorruptingChannel, CorruptionProfile, Packetizer, UniformLoss,
};
use pbpair_trace::{analyze, Analysis, AnalyzeParams, Tracer};
use proptest::prelude::*;

/// Runs `frames` frames of a fully traced single-session pipeline and
/// replays the log.
fn traced_pipeline(
    seed: u64,
    plr: f64,
    corruption: f64,
    intra_th: f64,
    mtu: usize,
    frames: u32,
) -> Analysis {
    let format = VideoFormat::QCIF;
    let mut policy = PbpairPolicy::new(
        format,
        PbpairConfig {
            intra_th,
            plr,
            ..PbpairConfig::default()
        },
    )
    .expect("valid policy");
    let mut encoder = Encoder::new(EncoderConfig::default());
    let mut decoder = Decoder::new(format);
    let mut packetizer = Packetizer::new(mtu);
    let mut channel = CorruptingChannel::new(
        Box::new(UniformLoss::new(plr, seed ^ 0xdead_beef)),
        CorruptionProfile::with_intensity(corruption),
        seed ^ 0x5eed,
    );
    let tracer = Tracer::new();
    encoder.set_tracer(&tracer);
    decoder.set_tracer(&tracer);
    channel.set_tracer(&tracer);

    let mut source = SyntheticSequence::for_class(MotionClass::all()[(seed % 3) as usize], seed);
    for _ in 0..frames {
        let original = source.next_frame();
        let encoded = encoder.encode_frame(&original, &mut policy);
        tracer.set_frame(encoded.index);
        let packets = packetizer.packetize(encoded.index, &encoded.data);
        let survivors = channel.transmit_packets(&packets);
        decoder.receive(reassemble_frame_damaged(&survivors).as_deref());
    }

    analyze(
        &tracer.log_snapshot(),
        AnalyzeParams {
            cols: format.mb_cols(),
            rows: format.mb_rows(),
            mtu,
            frames,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dag_acyclic_and_every_bad_mb_attributed(
        seed in any::<u64>(),
        plr in 0.0f64..0.45,
        corruption in 0.0f64..=1.0,
        intra_th in 0.1f64..0.95,
        mtu in 120usize..600,
    ) {
        let analysis = traced_pipeline(seed, plr, corruption, intra_th, mtu, 5);
        prop_assert!(analysis.dag.is_acyclic(), "provenance DAG must be acyclic");
        for (frame, bad) in &analysis.decoder_bad {
            let reach = analysis.loss_reach.get(frame);
            for (mb, &is_bad) in bad.iter().enumerate() {
                if is_bad {
                    prop_assert!(
                        reach.is_some_and(|r| r[mb]),
                        "frame {frame} MB {mb} reported bad by the decoder \
                         but reachable from no recorded loss/corruption event"
                    );
                }
            }
        }
    }

    #[test]
    fn clean_channel_records_no_damage(
        seed in any::<u64>(),
        intra_th in 0.1f64..0.95,
        mtu in 120usize..600,
    ) {
        // Zero loss, zero corruption: no damage events, no dirty MBs,
        // and a calibration that scores every observed MB as correct.
        let analysis = traced_pipeline(seed, 0.0, 0.0, intra_th, mtu, 4);
        prop_assert!(analysis.blasts.is_empty());
        prop_assert!(analysis.decoder_bad.values().all(|f| f.iter().all(|&b| !b)));
        prop_assert!(analysis.dirty.values().all(|f| f.iter().all(|&d| !d)));
    }
}
