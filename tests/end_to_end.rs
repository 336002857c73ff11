//! Cross-crate integration: the full encode → packetize → channel →
//! decode → measure path, for every scheme, across crate boundaries.

use pbpair_repro::codec::{Decoder, Encoder, EncoderConfig, NaturalPolicy};
use pbpair_repro::eval::pipeline::{run, LossSpec, RunConfig, SequenceSpec};
use pbpair_repro::media::metrics::psnr_y;
use pbpair_repro::media::synth::{MotionClass, SyntheticSequence};
use pbpair_repro::media::VideoFormat;
use pbpair_repro::netsim::{reassemble_frame, LossyChannel, NoLoss, Packetizer};
use pbpair_repro::schemes::{PbpairConfig, SchemeSpec};

fn all_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::No,
        SchemeSpec::Gop(4),
        SchemeSpec::Air(12),
        SchemeSpec::Pgop(2),
        SchemeSpec::Pbpair(PbpairConfig::default()),
    ]
}

#[test]
fn every_scheme_survives_the_full_pipeline_losslessly() {
    for scheme in all_schemes() {
        let result = run(&RunConfig {
            scheme,
            sequence: SequenceSpec::Synthetic {
                class: MotionClass::MediumForeman,
                seed: 1,
            },
            frames: 10,
            encoder: EncoderConfig::default(),
            loss: LossSpec::None,
            mtu: 1400,
        })
        .unwrap();
        assert_eq!(result.quality.frames(), 10, "{}", result.scheme_label);
        assert!(
            result.quality.average_psnr() > 28.0,
            "{}: lossless PSNR {}",
            result.scheme_label,
            result.quality.average_psnr()
        );
        assert_eq!(result.channel.frames_lost, 0);
        assert_eq!(result.ops.frames, 10);
    }
}

#[test]
fn every_scheme_degrades_gracefully_under_loss() {
    for scheme in all_schemes() {
        let clean = run(&RunConfig {
            scheme,
            sequence: SequenceSpec::Synthetic {
                class: MotionClass::LowAkiyo,
                seed: 2,
            },
            frames: 15,
            encoder: EncoderConfig::default(),
            loss: LossSpec::None,
            mtu: 1400,
        })
        .unwrap();
        let lossy = run(&RunConfig {
            scheme,
            sequence: SequenceSpec::Synthetic {
                class: MotionClass::LowAkiyo,
                seed: 2,
            },
            frames: 15,
            encoder: EncoderConfig::default(),
            loss: LossSpec::Uniform { rate: 0.2, seed: 3 },
            mtu: 1400,
        })
        .unwrap();
        assert!(lossy.channel.frames_lost > 0);
        assert!(
            lossy.quality.average_psnr() <= clean.quality.average_psnr(),
            "{}: loss cannot improve quality",
            clean.scheme_label
        );
        // Encoded bits are channel-independent (no rate feedback).
        assert_eq!(clean.frame_bits, lossy.frame_bits);
    }
}

#[test]
fn decoder_tracks_encoder_reconstruction_through_real_packets() {
    // Tiny MTU forces multi-fragment frames; the decoder must still be
    // bit-identical to the encoder's reconstruction loop.
    let mut encoder = Encoder::new(EncoderConfig::default());
    let mut decoder = Decoder::new(VideoFormat::QCIF);
    let mut policy = NaturalPolicy::new();
    let mut packetizer = Packetizer::new(100);
    let mut channel = LossyChannel::new(Box::new(NoLoss));
    let mut seq = SyntheticSequence::garden_class(4);
    for _ in 0..6 {
        let frame = seq.next_frame();
        let encoded = encoder.encode_frame(&frame, &mut policy);
        let packets = packetizer.packetize(encoded.index, &encoded.data);
        assert!(
            packets.len() > 1,
            "garden frames must exceed a 100-byte MTU"
        );
        let bytes = reassemble_frame(&channel.transmit(&packets)).expect("lossless channel");
        let (decoded, info) = decoder.decode_frame(&bytes).unwrap();
        assert_eq!(&decoded, encoder.reconstructed());
        assert_eq!(info.mb_modes, encoded.mb_modes);
    }
}

#[test]
fn pipeline_is_deterministic_across_schemes_and_seeds() {
    for scheme in all_schemes() {
        let cfg = RunConfig {
            scheme,
            sequence: SequenceSpec::Synthetic {
                class: MotionClass::HighGarden,
                seed: 77,
            },
            frames: 8,
            encoder: EncoderConfig::default(),
            loss: LossSpec::Uniform {
                rate: 0.15,
                seed: 5,
            },
            mtu: 500,
        };
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.quality.psnr_series(), b.quality.psnr_series());
        assert_eq!(a.frame_bits, b.frame_bits);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.channel, b.channel);
    }
}

#[test]
fn concealment_then_recovery_round_trip() {
    // Lose one mid-stream frame and verify the decoder output equals the
    // previous frame (copy concealment), then keeps decoding.
    let mut encoder = Encoder::new(EncoderConfig::default());
    let mut decoder = Decoder::new(VideoFormat::QCIF);
    let mut policy = NaturalPolicy::new();
    let mut seq = SyntheticSequence::foreman_class(6);
    let mut last_shown = None;
    for i in 0..5u64 {
        let frame = seq.next_frame();
        let encoded = encoder.encode_frame(&frame, &mut policy);
        let shown = if i == 2 {
            let concealed = decoder.conceal_lost_frame();
            assert_eq!(Some(concealed.clone()), last_shown, "copy concealment");
            concealed
        } else {
            decoder.decode_frame(&encoded.data).unwrap().0
        };
        // Quality of the concealed frame is worse but bounded (consecutive
        // frames are correlated).
        let p = psnr_y(&frame, &shown);
        assert!(p > 15.0, "frame {i}: psnr {p}");
        last_shown = Some(shown);
    }
}
