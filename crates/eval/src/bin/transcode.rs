//! `transcode` — a command-line front end for the whole stack.
//!
//! Encodes a clip (a real `.y4m` file or a synthetic class) under a
//! chosen error-resilience scheme, optionally pushes it through a lossy
//! channel, decodes with concealment, and writes the reconstructed video
//! to a `.y4m` file alongside a stats summary.
//!
//! ```text
//! USAGE:
//!   transcode [--input CLIP.y4m | --synth akiyo|foreman|garden]
//!             [--scheme no|gop-N|air-N|pgop-N|pbpair]
//!             [--intra-th X] [--plr X] [--qp N] [--frames N]
//!             [--full-search] [--half-pel] [--deblock] [--output OUT.y4m] [--device ipaq|zaurus]
//! ```
//!
//! Example:
//!   `cargo run --release -p pbpair-eval --bin transcode -- \
//!      --synth foreman --scheme pbpair --plr 0.1 --frames 90 --output out.y4m`
//!
//! An unknown flag, a malformed value or a `PBPAIR_KERNELS` value that
//! names no kernel tier of this host exits with status 2 and the usage
//! line; a failed run exits with status 1.

use pbpair::{PbpairConfig, SchemeSpec};
use pbpair_codec::{Decoder, Encoder, EncoderConfig, Kernels, MeConfig, Qp, SearchStrategy};
use pbpair_energy::{DeviceProfile, EnergyModel, IPAQ_H5555};
use pbpair_eval::pipeline::{transport, SequenceSpec};
use pbpair_media::metrics::QualityStats;
use pbpair_media::synth::MotionClass;
use pbpair_media::y4m::Y4mWriter;
use pbpair_media::VideoFormat;
use pbpair_netsim::{LossyChannel, NoLoss, Packetizer, UniformLoss};

#[derive(Debug)]
struct Args {
    sequence: SequenceSpec,
    scheme: SchemeSpec,
    plr: f64,
    qp: Qp,
    frames: usize,
    full_search: bool,
    half_pel: bool,
    deblock: bool,
    output: Option<String>,
    device: DeviceProfile,
}

fn usage() -> ! {
    eprintln!(
        "usage: transcode [--input CLIP.y4m | --synth akiyo|foreman|garden] \
         [--scheme no|gop-N|air-N|pgop-N|pbpair] [--intra-th X] [--plr X] \
         [--qp N] [--frames N] [--full-search] [--half-pel] [--deblock] \
         [--output OUT.y4m] [--device ipaq|zaurus]"
    );
    std::process::exit(2);
}

/// A probability: a number in [0, 1]. NaN is not one.
fn parse_unit(s: &str) -> Option<f64> {
    s.parse().ok().filter(|x| (0.0..=1.0).contains(x))
}

fn parse_scheme(s: &str, intra_th: f64, plr: f64) -> Option<SchemeSpec> {
    if s == "no" {
        return Some(SchemeSpec::No);
    }
    if s == "pbpair" {
        return Some(SchemeSpec::Pbpair(PbpairConfig {
            intra_th,
            plr,
            ..PbpairConfig::default()
        }));
    }
    let (kind, n) = s.split_once('-')?;
    match kind {
        "gop" => Some(SchemeSpec::Gop(n.parse().ok()?)),
        "air" => Some(SchemeSpec::Air(n.parse().ok()?)),
        "pgop" => Some(SchemeSpec::Pgop(n.parse().ok()?)),
        _ => None,
    }
}

fn parse_args() -> Args {
    let mut sequence = SequenceSpec::Synthetic {
        class: MotionClass::MediumForeman,
        seed: 2005,
    };
    let mut scheme_str = "pbpair".to_string();
    let mut intra_th = 0.93;
    let mut plr = 0.10;
    let mut qp = Qp::default();
    let mut frames = 90usize;
    let mut full_search = false;
    let mut half_pel = false;
    let mut deblock = false;
    let mut output = None;
    let mut device = IPAQ_H5555;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| -> String {
            it.next().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--input" => {
                sequence = SequenceSpec::Y4mFile {
                    path: value(&mut it),
                }
            }
            "--synth" => {
                let class = match value(&mut it).as_str() {
                    "akiyo" => MotionClass::LowAkiyo,
                    "foreman" => MotionClass::MediumForeman,
                    "garden" => MotionClass::HighGarden,
                    _ => usage(),
                };
                sequence = SequenceSpec::Synthetic { class, seed: 2005 };
            }
            "--scheme" => scheme_str = value(&mut it),
            "--intra-th" => intra_th = parse_unit(&value(&mut it)).unwrap_or_else(|| usage()),
            "--plr" => plr = parse_unit(&value(&mut it)).unwrap_or_else(|| usage()),
            "--qp" => {
                qp = value(&mut it)
                    .parse()
                    .ok()
                    .and_then(Qp::new)
                    .unwrap_or_else(|| usage())
            }
            "--frames" => {
                frames = value(&mut it)
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--full-search" => full_search = true,
            "--half-pel" => half_pel = true,
            "--deblock" => deblock = true,
            "--output" => output = Some(value(&mut it)),
            "--device" => {
                device = DeviceProfile::by_name(&value(&mut it)).unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let scheme = parse_scheme(&scheme_str, intra_th, plr).unwrap_or_else(|| usage());
    if let Err(e) = Kernels::from_env() {
        eprintln!("transcode: {e}");
        usage();
    }
    Args {
        sequence,
        scheme,
        plr,
        qp,
        frames,
        full_search,
        half_pel,
        deblock,
        output,
        device,
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = transcode(&args) {
        eprintln!("transcode failed: {e}");
        std::process::exit(1);
    }
}

fn transcode(args: &Args) -> Result<(), String> {
    let mut source = args.sequence.build()?;
    let format = source.format();
    if format != VideoFormat::QCIF {
        // Non-QCIF input works as long as dimensions are multiples of 16;
        // the encoder config below follows the source format.
        eprintln!("note: input is {format}, not QCIF");
    }
    let enc_cfg = EncoderConfig {
        format,
        qp: args.qp,
        me: MeConfig {
            search_range: 15,
            strategy: if args.full_search {
                SearchStrategy::Full
            } else {
                SearchStrategy::ThreeStep
            },
        },
        half_pel: args.half_pel,
        deblock: args.deblock,
        ..EncoderConfig::default()
    };
    let mut policy = pbpair::build_policy(args.scheme, format)?;
    let mut encoder = Encoder::new(enc_cfg);
    let mut decoder = Decoder::new(format);
    let mut packetizer = Packetizer::default();
    let mut channel = LossyChannel::new(if args.plr > 0.0 {
        Box::new(UniformLoss::new(args.plr, 77))
    } else {
        Box::new(NoLoss)
    });

    // An input with no frames fails before the output file is created.
    let mut first = source.try_next_frame();
    if first.is_none() {
        let input = match &args.sequence {
            SequenceSpec::Y4mFile { path } => path.clone(),
            synthetic => synthetic.label(),
        };
        return Err(format!("{input} holds no frames"));
    }
    let mut writer = match &args.output {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            Some(
                Y4mWriter::new(std::io::BufWriter::new(file), format, 30)
                    .map_err(|e| format!("cannot write y4m header: {e}"))?,
            )
        }
        None => None,
    };

    let mut quality = QualityStats::new();
    for i in 0..args.frames {
        let Some(original) = first.take().or_else(|| source.try_next_frame()) else {
            eprintln!("input ended after {i} frames");
            break;
        };
        let encoded = encoder.encode_frame(&original, policy.as_mut());
        let shown = transport(&mut packetizer, &mut channel, &mut decoder, &encoded);
        quality.record(&original, shown);
        if let Some(w) = writer.as_mut() {
            w.write_frame(shown)
                .map_err(|e| format!("cannot write frame: {e}"))?;
        }
    }

    let ops = encoder.take_ops();
    let model = EnergyModel::new(args.device);
    println!("scheme            : {}", policy.label());
    println!("frames            : {}", quality.frames());
    println!("frames lost       : {}", channel.stats().frames_lost);
    println!("avg PSNR          : {:.2} dB", quality.average_psnr());
    println!("bad pixels        : {}", quality.total_bad_pixels());
    println!(
        "encoded size      : {:.1} KB",
        ops.bytes_emitted() as f64 / 1024.0
    );
    println!("ME skip ratio     : {:.1}%", ops.me_skip_ratio() * 100.0);
    println!(
        "encoding energy   : {} ({})",
        model.encoding_energy(&ops),
        args.device.name
    );
    println!(
        "radio energy      : {}",
        model.transmission_energy(ops.bits_emitted)
    );
    if let Some(w) = writer {
        let inner = w.finish().map_err(|e| format!("flush failed: {e}"))?;
        drop(inner);
        println!(
            "wrote             : {}",
            args.output.as_deref().unwrap_or("-")
        );
    }
    Ok(())
}
