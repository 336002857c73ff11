//! Does the probability model track reality?
//!
//! PBPAIR's whole premise is that the encoder-side matrix `C^k` predicts
//! which decoder macroblocks are damaged. This example runs a lossy
//! session, then prints the encoder's *belief* (`1 − σ` as a heatmap)
//! next to the decoder's *actual* per-macroblock damage, and reports the
//! correlation between the two — the quantitative version of the paper's
//! Figure 3 intuition.
//!
//! Run with: `cargo run --release --example probability_map`

use pbpair_repro::codec::{Decoder, Encoder, EncoderConfig};
use pbpair_repro::media::metrics::{bad_pixel_map, render_mb_heatmap};
use pbpair_repro::media::synth::SyntheticSequence;
use pbpair_repro::media::VideoFormat;
use pbpair_repro::netsim::{LossModel, UniformLoss};
use pbpair_repro::schemes::{PbpairConfig, PbpairPolicy};

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va * vb).sqrt()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const FRAMES: usize = 40;
    const PLR: f64 = 0.15;

    let mut policy = PbpairPolicy::new(
        VideoFormat::QCIF,
        PbpairConfig {
            intra_th: 0.55, // low threshold: let damage accumulate visibly
            plr: PLR,
            ..PbpairConfig::default()
        },
    )?;
    let mut encoder = Encoder::new(EncoderConfig::default());
    let mut decoder = Decoder::new(VideoFormat::QCIF);
    let mut loss = UniformLoss::new(PLR, 23);
    let mut seq = SyntheticSequence::foreman_class(2005);

    let mut last_belief = Vec::new();
    let mut last_truth = Vec::new();
    let mut all_belief = Vec::new();
    let mut all_truth = Vec::new();

    for f in 0..FRAMES {
        let original = seq.next_frame();
        let encoded = encoder.encode_frame(&original, &mut policy);
        let (shown, _) = decoder.receive((!loss.next_lost()).then_some(&encoded.data));

        // Encoder belief (1 − σ) vs measured damage (threshold 20).
        let belief: Vec<f64> = policy
            .matrix()
            .sigma_values()
            .iter()
            .map(|s| 1.0 - s)
            .collect();
        let truth = bad_pixel_map(&original, shown, 20);
        if f >= 5 {
            all_belief.extend_from_slice(&belief);
            all_truth.extend_from_slice(&truth);
        }
        last_belief = belief;
        last_truth = truth;
    }

    // Normalize each map to its own maximum for display contrast.
    let normalize = |v: &[f64]| -> Vec<f64> {
        let max = v.iter().cloned().fold(0.0f64, f64::max);
        if max == 0.0 {
            v.to_vec()
        } else {
            v.iter().map(|x| x / max).collect()
        }
    };
    println!("frame {FRAMES} — encoder belief (1−σ)      vs      actual decoder damage");
    println!("(each map normalized to its own peak)\n");
    let left = render_mb_heatmap(&normalize(&last_belief), 11);
    let right = render_mb_heatmap(&normalize(&last_truth), 11);
    for (l, r) in left.lines().zip(right.lines()) {
        println!("   {l:<11}        {r}");
    }
    let mean_r = pearson(&all_belief, &all_truth);
    println!(
        "\npooled Pearson correlation, frames 5..{FRAMES} ({} MB samples): {mean_r:.3}",
        all_truth.len()
    );
    println!("(positive correlation = the probability model points toward the");
    println!(" macroblocks that are actually damaged. It is necessarily modest:");
    println!(" the encoder only knows the loss *rate*, never which frames were");
    println!(" actually lost — σ is a prior, not an observation. A blind sweep");
    println!(" like PGOP's has correlation 0 by construction.)");
    Ok(())
}
