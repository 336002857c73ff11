//! Robustness fuzzing: no byte sequence may panic the decoder. This is
//! what "erroneous data streams" (paper §2) actually look like to a
//! receiver — and the resilient entry point must do better than not
//! crashing: it must return a frame and an honest [`DecodeReport`] for
//! *anything*.
//!
//! The main harness is a seeded 10 000-mutation loop over valid
//! bitstreams (bit flips, byte overwrites, truncations, deletions,
//! insertions, splices), checked for totality and report consistency.
//! A parity test pins the picture loop the strict and resilient entry
//! points share, and proptests below cover the classic `decode_frame`
//! error path.

use pbpair_codec::{Concealment, DecodeReport, Decoder, Encoder, EncoderConfig, NaturalPolicy};
use pbpair_media::synth::SyntheticSequence;
use pbpair_media::VideoFormat;
use pbpair_netsim::{
    reassemble_frame, reassemble_frame_damaged, FecOps, FecProtector, FecSpec, LossModel,
    MarkovBurstErasure, Packetizer,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The first `frames` pictures of a valid stream.
fn valid_stream(frames: usize) -> Vec<Vec<u8>> {
    let mut enc = Encoder::new(EncoderConfig::default());
    let mut policy = NaturalPolicy::new();
    let mut seq = SyntheticSequence::foreman_class(8);
    (0..frames)
        .map(|_| enc.encode_frame(&seq.next_frame(), &mut policy).data)
        .collect()
}

/// A valid three-frame stream to mutate.
fn valid_frames() -> Vec<Vec<u8>> {
    valid_stream(3)
}

/// Display names of the structural mutation classes, indexed by the
/// class id that [`mutate_once`] accepts.
const MUTATION_CLASSES: [&str; 6] = [
    "bit-flip",
    "overwrite",
    "truncate",
    "delete",
    "insert",
    "duplicate",
];

/// Applies 1–4 random structural mutations to `data`.
fn mutate(rng: &mut StdRng, data: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..=4usize) {
        if data.is_empty() {
            data.extend((0..rng.gen_range(1..64usize)).map(|_| rng.gen::<u8>()));
            continue;
        }
        let class = rng.gen_range(0..6u8);
        mutate_once(rng, data, class);
    }
}

/// Applies one structural mutation of the given class (0..6); empty
/// inputs are replenished with random bytes first so every class has
/// something to chew on.
fn mutate_once(rng: &mut StdRng, data: &mut Vec<u8>, class: u8) {
    if data.is_empty() {
        data.extend((0..rng.gen_range(1..64usize)).map(|_| rng.gen::<u8>()));
    }
    match class {
        // Bit flips.
        0 => {
            for _ in 0..rng.gen_range(1..=16usize) {
                let i = rng.gen_range(0..data.len());
                data[i] ^= 1 << rng.gen_range(0..8u8);
            }
        }
        // Overwrite a span with random bytes.
        1 => {
            let start = rng.gen_range(0..data.len());
            let end = (start + rng.gen_range(1..48usize)).min(data.len());
            for b in &mut data[start..end] {
                *b = rng.gen();
            }
        }
        // Truncate.
        2 => {
            data.truncate(rng.gen_range(0..data.len()));
        }
        // Delete a span.
        3 => {
            let start = rng.gen_range(0..data.len());
            let end = (start + rng.gen_range(1..32usize)).min(data.len());
            data.drain(start..end);
        }
        // Insert random bytes.
        4 => {
            let at = rng.gen_range(0..=data.len());
            let insert: Vec<u8> = (0..rng.gen_range(1..32usize)).map(|_| rng.gen()).collect();
            data.splice(at..at, insert);
        }
        // Duplicate a span somewhere else (packet duplication).
        _ => {
            let start = rng.gen_range(0..data.len());
            let end = (start + rng.gen_range(1..64usize)).min(data.len());
            let span: Vec<u8> = data[start..end].to_vec();
            let at = rng.gen_range(0..=data.len());
            data.splice(at..at, span);
        }
    }
}

/// The report's books must balance regardless of input.
fn check_report(frames_emitted: usize, report: &DecodeReport, input_len: usize) {
    assert_eq!(report.frames_decoded as usize, frames_emitted);
    assert!(report.frames_recovered <= report.frames_decoded);
    assert!(report.bytes_skipped <= input_len as u64);
}

#[test]
fn ten_thousand_seeded_corruptions_never_panic() {
    let originals = valid_frames();
    let mut rng = StdRng::seed_from_u64(0x5EED_F00D);
    let mut recovered_seen = 0u64;
    let mut concealed_seen = 0u64;

    for case in 0..10_000u64 {
        let mut data = originals[(case % originals.len() as u64) as usize].clone();
        mutate(&mut rng, &mut data);

        let mut dec = Decoder::new(VideoFormat::QCIF);
        // Single-picture path: always exactly one frame, whatever the bytes.
        let (frame, report) = dec.decode_frame_resilient(&data);
        assert_eq!(frame.format(), VideoFormat::QCIF, "case {case}");
        check_report(1, &report, data.len());
        recovered_seen += report.frames_recovered;
        concealed_seen += report.mbs_concealed;

        // The decoder must not be poisoned: an intact picture still
        // decodes afterwards.
        let (ok, clean) = dec.decode_frame_resilient(&originals[0]);
        assert_eq!(ok.format(), VideoFormat::QCIF);
        assert_eq!(clean.frames_decoded, 1);
    }

    // The harness must actually exercise the recovery machinery, not
    // just produce benign mutations.
    assert!(
        recovered_seen > 100,
        "too few recoveries to call this a fuzz run: {recovered_seen}"
    );
    assert!(
        concealed_seen > 1000,
        "concealment barely hit: {concealed_seen}"
    );
}

/// The strict and the resilient entry points walk a picture in one
/// loop, so on any input — the valid frames and seeded mutations of
/// them — `decode_frame` succeeds exactly when the resilient report
/// shows a clean picture (no recovered frame, no resync, no skipped
/// byte), the two then emit the same frame, and a strict failure
/// commits nothing. `receive` of bytes is the resilient decode, frame
/// and report alike; over an intact stream with frames dropped it shows
/// what the strict decoder with explicit concealment shows, under
/// either concealment.
#[test]
fn strict_and_resilient_decoding_agree() {
    let originals = valid_frames();
    let mut rng = StdRng::seed_from_u64(0x5A1D_F00D);
    let (mut clean, mut damaged) = (0u32, 0u32);

    for case in 0..2_000usize {
        let mut data = originals[case % originals.len()].clone();
        if case >= originals.len() {
            mutate(&mut rng, &mut data);
        }

        let mut strict = Decoder::new(VideoFormat::QCIF);
        let mut resilient = Decoder::new(VideoFormat::QCIF);
        let mut receiver = Decoder::new(VideoFormat::QCIF);
        let before = strict.last_frame().clone();
        let (frame, report) = resilient.decode_frame_resilient(&data);
        let (shown, received) = receiver.receive(Some(&data));
        assert_eq!(shown, &frame, "case {case}: receive shows another frame");
        assert_eq!(received, report, "case {case}: receive reports otherwise");
        let report_clean = !report.any_damage();
        match strict.decode_frame(&data) {
            Ok((decoded, _)) => {
                assert!(report_clean, "case {case}: strict Ok but {report:?}");
                assert_eq!(decoded, frame, "case {case}: the two decoders disagree");
                clean += 1;
            }
            Err(e) => {
                assert!(!report_clean, "case {case}: strict {e} but a clean report");
                assert_eq!(
                    strict.last_frame(),
                    &before,
                    "case {case}: a failed strict decode committed"
                );
                damaged += 1;
            }
        }
    }
    assert!(
        clean > 25 && damaged > 1500,
        "too one-sided to pin the loop: {clean} clean, {damaged} damaged"
    );

    // Frames 2, 6, 7 and 10 never arrive; 6 and 7 are a run of two.
    let stream = valid_stream(12);
    for concealment in [Concealment::CopyPrevious, Concealment::MotionCopy] {
        let mut receiver = Decoder::with_concealment(VideoFormat::QCIF, concealment);
        let mut strict = Decoder::with_concealment(VideoFormat::QCIF, concealment);
        for (i, data) in stream.iter().enumerate() {
            let arrived = (i % 4 != 2 && i != 7).then_some(data.as_slice());
            let (shown, report) = receiver.receive(arrived);
            let expected = match arrived {
                Some(bytes) => strict.decode_frame(bytes).expect("intact frame").0,
                None => strict.conceal_lost_frame(),
            };
            assert_eq!(shown, &expected, "{concealment:?}, frame {i}");
            assert_eq!(report.frames_decoded, u64::from(arrived.is_some()));
            assert!(!report.any_damage(), "{concealment:?}, frame {i}");
        }
    }
}

/// Every mutation class, pushed through a Markov burst-erasure channel
/// whose bursts are re-anchored to the picture header: whatever loss the
/// `(B, G)` channel deals a picture's fragment stream is taken from
/// fragment 0 upward, so the picture header — the resync anchor — dies
/// first. The resilient decoder must stay total on the reassembled
/// remains, keep honest books, and come out unpoisoned, and the recovery
/// machinery must demonstrably engage for every class.
#[test]
fn every_mutation_class_survives_header_aligned_burst_erasure() {
    let originals = valid_frames();
    let mut rng = StdRng::seed_from_u64(0xB125_7EED);

    for (class, name) in MUTATION_CLASSES.iter().enumerate() {
        // A fresh seeded channel per class keeps each class's burst
        // phasing independent while the whole run stays reproducible.
        let mut channel = MarkovBurstErasure::new(3.0, 9.0, 0x1000 + class as u64);
        let mut header_kills = 0u64;
        let mut frames_out = 0u64;
        let mut recovered = 0u64;
        let mut concealed = 0u64;

        for case in 0..400u64 {
            let mut data = originals[(case % originals.len() as u64) as usize].clone();
            mutate_once(&mut rng, &mut data, class as u8);
            if data.is_empty() {
                // A truncation can erase the picture entirely; there is
                // no transport leg for zero bytes.
                continue;
            }

            // Small MTU so every picture spans many fragments, then one
            // channel sample per fragment. The lost count is applied
            // from fragment 0 upward — burst aligned to the header.
            let mut pkt = Packetizer::new(96);
            let packets = pkt.packetize(case, &data);
            let lost = packets.iter().filter(|_| channel.next_lost()).count();
            if lost > 0 {
                header_kills += 1;
            }
            let survivors: Vec<_> = packets.into_iter().skip(lost).collect();

            let mut dec = Decoder::new(VideoFormat::QCIF);
            if let Some(bytes) = reassemble_frame_damaged(&survivors) {
                let (frame, report) = dec.decode_frame_resilient(&bytes);
                assert_eq!(frame.format(), VideoFormat::QCIF, "{name} case {case}");
                check_report(1, &report, bytes.len());
                frames_out += 1;
                recovered += report.frames_recovered;
                concealed += report.mbs_concealed;
            }
            // else: the burst swallowed every fragment — the receiver
            // conceals from its reference; nothing to decode, no panic.

            // The decoder must not be poisoned by the damaged picture:
            // an intact one still decodes afterwards.
            let (ok, clean) = dec.decode_frame_resilient(&originals[0]);
            assert_eq!(
                ok.format(),
                VideoFormat::QCIF,
                "{name} case {case}: decoder poisoned"
            );
            assert_eq!(clean.frames_decoded, 1, "{name} case {case}");
        }

        // Recovery reporting per class: the channel must actually have
        // burst, most pictures must still decode, and header loss must
        // have driven the recovery/concealment path.
        assert!(
            header_kills > 100,
            "{name}: bursts barely fired ({header_kills}/400)"
        );
        assert!(
            frames_out > 200,
            "{name}: almost nothing decoded ({frames_out}/400)"
        );
        assert!(
            recovered + concealed > 0,
            "{name}: recovery machinery never engaged"
        );
    }
}

/// Satellite leg: the same mutation classes and burst channel, but with
/// the fragment stream RS-protected before transmission. The FEC layer
/// must repair what the code allows (≤ r erasures per block), fail
/// cleanly beyond it, and whatever `recover` + reassembly hand the
/// resilient decoder — a fully restored picture, a partial repair, or
/// the unrepaired remains — must never panic it or poison the next
/// picture. The repair machinery must demonstrably engage per class.
#[test]
fn every_mutation_class_survives_rs_protected_burst_erasure() {
    let originals = valid_frames();
    let mut rng = StdRng::seed_from_u64(0xFEC5_7EED);
    let fec = FecProtector::new(FecSpec::Rs { k: 4, r: 2 }).expect("valid RS spec");

    for (class, name) in MUTATION_CLASSES.iter().enumerate() {
        let mut channel = MarkovBurstErasure::new(3.0, 9.0, 0x2000 + class as u64);
        let mut ops = FecOps::default();
        let mut frames_out = 0u64;
        let mut lossy_cases = 0u64;
        let mut complete_after_loss = 0u64;

        for case in 0..400u64 {
            let mut data = originals[(case % originals.len() as u64) as usize].clone();
            mutate_once(&mut rng, &mut data, class as u8);
            if data.is_empty() {
                continue;
            }

            // Small MTU → many fragments per picture → multi-block RS.
            // Here the channel erases *by packet*, bursts landing
            // wherever the Markov chain puts them — parity included.
            let mut pkt = Packetizer::new(96);
            let packets = pkt.packetize(case, &data);
            let sent = fec.protect(&packets, &mut ops);
            let survivors: Vec<_> = sent
                .iter()
                .filter(|_| !channel.next_lost())
                .cloned()
                .collect();
            let lost = sent.len() - survivors.len();
            if lost > 0 {
                lossy_cases += 1;
            }

            let bytes = match fec.recover(&survivors, &mut ops) {
                Some(rec) => {
                    if rec.complete {
                        if lost > 0 {
                            complete_after_loss += 1;
                        }
                        reassemble_frame(&rec.data)
                    } else {
                        reassemble_frame_damaged(&rec.data)
                    }
                }
                None => reassemble_frame_damaged(&survivors),
            };

            let mut dec = Decoder::new(VideoFormat::QCIF);
            if let Some(bytes) = bytes {
                let (frame, report) = dec.decode_frame_resilient(&bytes);
                assert_eq!(frame.format(), VideoFormat::QCIF, "{name} case {case}");
                check_report(1, &report, bytes.len());
                frames_out += 1;
            }

            // Unpoisoned: an intact picture still decodes afterwards.
            let (ok, clean) = dec.decode_frame_resilient(&originals[0]);
            assert_eq!(
                ok.format(),
                VideoFormat::QCIF,
                "{name} case {case}: decoder poisoned"
            );
            assert_eq!(clean.frames_decoded, 1, "{name} case {case}");
        }

        assert!(
            lossy_cases > 100,
            "{name}: bursts barely fired ({lossy_cases}/400)"
        );
        assert!(
            ops.blocks_repaired > 0,
            "{name}: RS repair machinery never engaged"
        );
        assert!(
            complete_after_loss > 0,
            "{name}: RS never restored a lossy picture to completeness"
        );
        assert!(
            frames_out > 200,
            "{name}: almost nothing decoded ({frames_out}/400)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_never_panic_the_decoder(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let mut dec = Decoder::new(VideoFormat::QCIF);
        // The strict path may return anything but a panic...
        let _ = dec.decode_frame(&data);
        // ...and the resilient path must return a frame and a report.
        let (frame, report) = dec.decode_frame_resilient(&data);
        prop_assert_eq!(frame.format(), VideoFormat::QCIF);
        prop_assert_eq!(report.frames_decoded, 1);
    }

    #[test]
    fn truncated_valid_streams_never_panic(cut in 0usize..10_000) {
        let frames = valid_frames();
        let data = &frames[0];
        let cut = cut.min(data.len());
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let _ = dec.decode_frame(&data[..cut]);
        // The decoder must still work on the intact stream afterwards.
        let (frame, _) = dec.decode_frame(data).expect("intact stream decodes");
        prop_assert_eq!(frame.format(), VideoFormat::QCIF);
    }

    #[test]
    fn bit_flips_never_panic(
        byte_idx in 0usize..10_000,
        bit in 0u8..8
    ) {
        let frames = valid_frames();
        for data in &frames {
            let mut corrupted = data.clone();
            let idx = byte_idx % corrupted.len();
            corrupted[idx] ^= 1 << bit;
            let mut dec = Decoder::new(VideoFormat::QCIF);
            // A flipped bit may still decode (to a wrong picture) or
            // error; both are acceptable. No panic, no OOB.
            let _ = dec.decode_frame(&corrupted);
        }
    }

    #[test]
    fn byte_deletions_never_panic(at in 0usize..10_000) {
        let frames = valid_frames();
        let data = &frames[1];
        let at = at % data.len();
        let mut corrupted = data.clone();
        corrupted.remove(at);
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let _ = dec.decode_frame(&frames[0]);
        let _ = dec.decode_frame(&corrupted);
    }
}
