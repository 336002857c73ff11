//! A mobile video-conference segment over a bursty wireless channel.
//!
//! Models the paper's motivating scenario: a handheld device encoding a
//! moderate-motion talking head (FOREMAN-class) over an 802.11-like
//! channel with Gilbert–Elliott fading bursts. The receiver estimates the
//! loss rate over a sliding window and feeds it back; PBPAIR adopts the
//! estimate as its loss-rate assumption `α` (the §3.2 extension in
//! quality-priority mode), so robustness rises during fades and
//! compression recovers in calm periods.
//!
//! Run with: `cargo run --release --example lossy_conference`

use pbpair_repro::codec::{Decoder, Encoder, EncoderConfig};
use pbpair_repro::energy::{EnergyModel, IPAQ_H5555};
use pbpair_repro::media::metrics::{bad_pixels, psnr_y};
use pbpair_repro::media::synth::SyntheticSequence;
use pbpair_repro::media::VideoFormat;
use pbpair_repro::netsim::{GilbertElliott, LossyChannel, Packetizer, WindowPlrEstimator};
use pbpair_repro::schemes::{PbpairConfig, PbpairPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SECONDS: usize = 10;
    const FPS: usize = 15;

    let base = PbpairConfig {
        intra_th: 0.9,
        plr: 0.05,
        ..PbpairConfig::default()
    };
    let mut policy = PbpairPolicy::new(VideoFormat::QCIF, base)?;
    let mut encoder = Encoder::new(EncoderConfig::default());
    let mut decoder = Decoder::new(VideoFormat::QCIF);
    let mut packetizer = Packetizer::default();
    // Bursty channel: mostly clean, ~8 s⁻¹ chance of entering a fade with
    // 50% loss, mean fade length ~5 frames.
    let mut channel = LossyChannel::new(Box::new(GilbertElliott::new(0.04, 0.20, 0.01, 0.5, 11)));
    let mut clip = SyntheticSequence::foreman_class(2005);
    let mut estimator = WindowPlrEstimator::new(2 * FPS);

    println!("sec |  plr-est  Intra_Th  intra%  PSNR(dB)  bad-px  lost");
    println!("----+---------------------------------------------------");
    for sec in 0..SECONDS {
        let mut psnr_acc = 0.0;
        let mut bad_acc = 0u64;
        let mut intra_acc = 0.0;
        let lost_before = channel.stats().frames_lost;
        for _ in 0..FPS {
            // Feedback-driven adaptation (the §3.2 extension), in
            // quality-priority mode: the estimated loss rate becomes the
            // probability model's α, so during fades σ decays faster and
            // PBPAIR refreshes more aggressively. (The alternative,
            // bit-rate-priority mode, additionally lowers Intra_Th via
            // `adapt::compensated_intra_th` to hold the intra count.)
            if estimator.observations() >= FPS {
                policy.set_plr(estimator.estimate().clamp(0.0, 0.9));
            }
            let original = clip.next_frame();
            let encoded = encoder.encode_frame(&original, &mut policy);
            intra_acc += encoded.stats.intra_ratio();
            let packets = packetizer.packetize(encoded.index, &encoded.data);
            let arrived = channel.transmit_frame_atomic(&packets);
            estimator.record(arrived.is_none());
            let (shown, _) = decoder.receive(arrived.as_deref());
            psnr_acc += psnr_y(&original, shown).min(99.0);
            bad_acc += bad_pixels(&original, shown);
        }
        println!(
            "{sec:>3} |  {:>7.3}  {:>8.3}  {:>5.1}%  {:>8.2}  {:>6}  {:>4}",
            estimator.estimate(),
            policy.intra_th(),
            intra_acc / FPS as f64 * 100.0,
            psnr_acc / FPS as f64,
            bad_acc,
            channel.stats().frames_lost - lost_before,
        );
    }

    let ops = encoder.take_ops();
    let model = EnergyModel::new(IPAQ_H5555);
    println!("\ncall summary:");
    println!(
        "  channel loss     : {:.1}% of {} frames",
        channel.stats().frame_loss_ratio() * 100.0,
        SECONDS * FPS
    );
    println!("  encoding energy  : {}", model.encoding_energy(&ops));
    println!(
        "  radio energy     : {}",
        model.transmission_energy(ops.bits_emitted)
    );
    println!("  ME skip ratio    : {:.1}%", ops.me_skip_ratio() * 100.0);
    Ok(())
}
