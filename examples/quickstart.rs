//! Quickstart: encode a clip with PBPAIR, push it through a lossy
//! channel, decode with concealment, and report quality + energy.
//!
//! Run with: `cargo run --release --example quickstart`

use pbpair_repro::codec::{Decoder, Encoder, EncoderConfig};
use pbpair_repro::energy::{EnergyModel, IPAQ_H5555};
use pbpair_repro::media::metrics::QualityStats;
use pbpair_repro::media::synth::SyntheticSequence;
use pbpair_repro::media::VideoFormat;
use pbpair_repro::netsim::{LossyChannel, Packetizer, UniformLoss};
use pbpair_repro::schemes::{PbpairConfig, PbpairPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const FRAMES: usize = 60;
    const PLR: f64 = 0.10;

    // 1. A deterministic "talking head" test clip (AKIYO-class, QCIF).
    let mut clip = SyntheticSequence::akiyo_class(42);

    // 2. The PBPAIR policy: refresh macroblocks whose probability of
    //    correctness drops below Intra_Th, given the expected loss rate.
    let mut policy = PbpairPolicy::new(
        VideoFormat::QCIF,
        PbpairConfig {
            intra_th: 0.93,
            plr: PLR,
            ..PbpairConfig::default()
        },
    )?;

    // 3. Codec + transport.
    let mut encoder = Encoder::new(EncoderConfig::default());
    let mut decoder = Decoder::new(VideoFormat::QCIF);
    let mut packetizer = Packetizer::default();
    let mut channel = LossyChannel::new(Box::new(UniformLoss::new(PLR, 7)));

    let mut quality = QualityStats::new();
    for _ in 0..FRAMES {
        let original = clip.next_frame();
        let encoded = encoder.encode_frame(&original, &mut policy);
        let packets = packetizer.packetize(encoded.index, &encoded.data);
        let arrived = channel.transmit_frame_atomic(&packets);
        // Decode what arrived; a lost frame gets copy-previous concealment.
        let (shown, _) = decoder.receive(arrived.as_deref());
        quality.record(&original, shown);
    }

    // 4. Report.
    let ops = encoder.take_ops();
    let energy = EnergyModel::new(IPAQ_H5555).encoding_energy(&ops);
    println!("frames encoded        : {FRAMES}");
    println!("frames lost in transit: {}", channel.stats().frames_lost);
    println!("average PSNR          : {:.2} dB", quality.average_psnr());
    println!("bad pixels (total)    : {}", quality.total_bad_pixels());
    println!("encoded size          : {} KB", ops.bytes_emitted() / 1024);
    println!(
        "ME searches skipped   : {:.1}%",
        ops.me_skip_ratio() * 100.0
    );
    println!("encoding energy (iPAQ): {energy}");
    Ok(())
}
