//! The end-to-end experiment pipeline:
//! encode → packetize → lossy channel → receive (decode or conceal) →
//! measure.
//!
//! One [`RunConfig`] describes a complete experimental cell (scheme ×
//! sequence × channel); [`run`] executes it and returns every measurement
//! the paper's figures plot. All randomness is seeded, so a cell is a
//! pure function of its config.

use pbpair::{build_policy, SchemeSpec};
use pbpair_codec::{Decoder, EncodedFrame, Encoder, EncoderConfig, FrameKind, OpCounts};
use pbpair_energy::{EnergyModel, Joules};
use pbpair_media::metrics::QualityStats;
use pbpair_media::synth::{FrameSource, MotionClass, SyntheticSequence};
use pbpair_media::y4m::Y4mReader;
use pbpair_media::Frame;
use pbpair_netsim::loss::{LossModel, NoLoss, ScriptedLoss, UniformLoss};
use pbpair_netsim::{ChannelStats, LossyChannel, Packetizer, DEFAULT_MTU};
use pbpair_sched::Pool;

/// Which video sequence a run encodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SequenceSpec {
    /// A seeded synthetic sequence of the given motion class.
    Synthetic {
        /// Motion class (akiyo/foreman/garden analogue).
        class: MotionClass,
        /// Generator seed.
        seed: u64,
    },
    /// A real 4:2:0 clip in a YUV4MPEG2 file (dimensions must match the
    /// encoder configuration). Use this to run the evaluation on the
    /// actual FOREMAN/AKIYO/GARDEN clips when available.
    Y4mFile {
        /// Path to the `.y4m` file.
        path: String,
    },
}

impl SequenceSpec {
    /// The three paper workloads with the default seed.
    pub fn paper_sequences() -> [SequenceSpec; 3] {
        MotionClass::all().map(|class| SequenceSpec::Synthetic { class, seed: 2005 })
    }

    /// Display label ("foreman", "akiyo", "garden", or the file name).
    pub fn label(&self) -> String {
        match self {
            SequenceSpec::Synthetic { class, .. } => class.label().to_string(),
            SequenceSpec::Y4mFile { path } => std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.clone()),
        }
    }

    /// Builds the frame source.
    ///
    /// # Errors
    ///
    /// Returns an error when a Y4M file cannot be opened or parsed.
    pub fn build(&self) -> Result<Box<dyn FrameSource>, String> {
        match self {
            SequenceSpec::Synthetic { class, seed } => {
                Ok(Box::new(SyntheticSequence::for_class(*class, *seed)))
            }
            SequenceSpec::Y4mFile { path } => {
                let file =
                    std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
                let reader = Y4mReader::new(std::io::BufReader::new(file))
                    .map_err(|e| format!("cannot parse {path}: {e}"))?;
                Ok(Box::new(reader))
            }
        }
    }
}

/// Which loss process the channel applies (always at frame granularity,
/// as in the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum LossSpec {
    /// Loss-free channel.
    None,
    /// The paper's uniform frame discard at the given rate.
    Uniform {
        /// Frame loss rate `α`.
        rate: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Drop exactly these frame indices (Figure 6's e1..e7 events).
    Scripted {
        /// Frame indices to drop.
        lost_frames: Vec<u64>,
    },
}

impl LossSpec {
    /// Builds the loss model.
    pub fn build(&self) -> Box<dyn LossModel> {
        match self {
            LossSpec::None => Box::new(NoLoss),
            LossSpec::Uniform { rate, seed } => Box::new(UniformLoss::new(*rate, *seed)),
            LossSpec::Scripted { lost_frames } => {
                Box::new(ScriptedLoss::new(lost_frames.iter().copied()))
            }
        }
    }

    /// A re-seeded copy for replicate `rep` (statistical replication of
    /// the channel realization). Deterministic specs (`None`, `Scripted`)
    /// are returned unchanged.
    pub fn reseed(&self, rep: u64) -> LossSpec {
        match self {
            LossSpec::Uniform { rate, seed } => LossSpec::Uniform {
                rate: *rate,
                seed: seed.wrapping_add(rep.wrapping_mul(0x9e37_79b9)),
            },
            other => other.clone(),
        }
    }
}

/// One experimental cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The error-resilience scheme under test.
    pub scheme: SchemeSpec,
    /// The video workload.
    pub sequence: SequenceSpec,
    /// How many frames to encode (the paper uses 300 for Figure 5, 50
    /// for Figure 6).
    pub frames: usize,
    /// Codec settings.
    pub encoder: EncoderConfig,
    /// Channel behaviour.
    pub loss: LossSpec,
    /// Payload MTU for packetization.
    pub mtu: usize,
}

/// Every measurement one cell produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme label as the policy reports it.
    pub scheme_label: String,
    /// Sequence label.
    pub sequence_label: String,
    /// Decoder-side quality vs the originals (per-frame PSNR and bad
    /// pixels).
    pub quality: QualityStats,
    /// Bits of every encoded frame in order (Figure 6(b)).
    pub frame_bits: Vec<u64>,
    /// Frame coding types in order.
    pub frame_kinds: Vec<FrameKind>,
    /// Mean intra-macroblock ratio over all frames.
    pub mean_intra_ratio: f64,
    /// Total encoded size in bytes (Figure 5(c)).
    pub total_bytes: u64,
    /// Cumulative encoder operation counts (energy-model input).
    pub ops: OpCounts,
    /// Channel statistics.
    pub channel: ChannelStats,
}

impl RunResult {
    /// Encoding energy under the given device model (Figure 5(d)).
    pub fn encoding_energy(&self, model: &EnergyModel) -> Joules {
        model.encoding_energy(&self.ops)
    }

    /// Encoding + transmission energy.
    pub fn total_energy(&self, model: &EnergyModel) -> Joules {
        model.total_energy(&self.ops)
    }
}

/// Refuses the channel settings the packetizer and the loss model cannot
/// take: a zero MTU and a uniform loss rate outside [0, 1] or NaN.
fn check_channel(cfg: &RunConfig) -> Result<(), String> {
    if cfg.mtu == 0 {
        return Err("mtu must be positive".into());
    }
    match cfg.loss {
        LossSpec::Uniform { rate, .. } if !(0.0..=1.0).contains(&rate) => {
            Err(format!("loss rate {rate} outside [0,1]"))
        }
        _ => Ok(()),
    }
}

/// Opens the cell's frame source, refusing one whose frames differ in
/// format from what the configured encoder takes.
fn open_source(cfg: &RunConfig) -> Result<Box<dyn FrameSource>, String> {
    let source = cfg.sequence.build()?;
    let (got, want) = (source.format(), cfg.encoder.format);
    if got != want {
        return Err(format!(
            "sequence '{}' is {got}, but the encoder is configured for {want}",
            cfg.sequence.label()
        ));
    }
    Ok(source)
}

/// The paper cell's frame step: carries one encoded frame to the
/// receiver and returns what it displays, the decoder's new reference.
/// Packetize, deliver the frame whole or lose it
/// ([`LossyChannel::transmit_frame_atomic`]), then [`Decoder::receive`]
/// decodes it or conceals the loss.
pub fn transport<'d>(
    packetizer: &mut Packetizer,
    channel: &mut LossyChannel,
    decoder: &'d mut Decoder,
    encoded: &EncodedFrame,
) -> &'d Frame {
    let packets = packetizer.packetize(encoded.index, &encoded.data);
    let arrived = channel.transmit_frame_atomic(&packets);
    decoder.receive(arrived.as_deref()).0
}

/// The encoder side of a cell, shared by [`run`] and [`run_replicated`]:
/// pulls `cfg.frames` source frames, encodes each and hands it with its
/// original to `deliver`. Returns the cell's result with every
/// channel-independent field filled; `quality` and `channel` are left
/// empty for the caller.
fn encode_cell(
    cfg: &RunConfig,
    mut deliver: impl FnMut(Frame, EncodedFrame),
) -> Result<RunResult, String> {
    let mut policy = build_policy(cfg.scheme, cfg.encoder.format)?;
    let mut encoder = Encoder::new(cfg.encoder);
    let mut source = open_source(cfg)?;
    let mut frame_bits = Vec::with_capacity(cfg.frames);
    let mut frame_kinds = Vec::with_capacity(cfg.frames);
    let mut intra_ratio_acc = 0.0;
    for i in 0..cfg.frames {
        let Some(original) = source.try_next_frame() else {
            return Err(format!(
                "sequence '{}' ended after {i} frames (requested {})",
                cfg.sequence.label(),
                cfg.frames
            ));
        };
        let encoded = encoder.encode_frame(&original, policy.as_mut());
        frame_bits.push(encoded.stats.bits);
        frame_kinds.push(encoded.kind);
        intra_ratio_acc += encoded.stats.intra_ratio();
        deliver(original, encoded);
    }
    let total_bits: u64 = frame_bits.iter().sum();
    Ok(RunResult {
        scheme_label: policy.label(),
        sequence_label: cfg.sequence.label(),
        quality: QualityStats::new(),
        mean_intra_ratio: intra_ratio_acc / cfg.frames.max(1) as f64,
        total_bytes: total_bits.div_ceil(8),
        frame_bits,
        frame_kinds,
        ops: encoder.take_ops(),
        channel: ChannelStats::default(),
    })
}

/// Executes one cell.
///
/// # Errors
///
/// Returns an error for a zero `mtu` or a uniform loss rate outside
/// [0, 1] (before encoding anything), for invalid scheme configurations,
/// and for a source that cannot be opened, runs short, or differs in
/// format from the encoder configuration.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    check_channel(cfg)?;
    let mut decoder = Decoder::new(cfg.encoder.format);
    let mut packetizer = Packetizer::new(cfg.mtu);
    let mut channel = LossyChannel::new(cfg.loss.build());
    let mut quality = QualityStats::new();
    let sent = encode_cell(cfg, |original, encoded| {
        let displayed = transport(&mut packetizer, &mut channel, &mut decoder, &encoded);
        quality.record(&original, displayed);
    })?;
    Ok(RunResult {
        quality,
        channel: *channel.stats(),
        ..sent
    })
}

/// Result of a replicated run: the first replicate's full [`RunResult`]
/// plus channel-realization statistics over all replicates.
#[derive(Debug, Clone)]
pub struct ReplicatedResult {
    /// The first replicate (carries sizes, ops, frame series — all of
    /// which are channel-independent).
    pub base: RunResult,
    /// Mean of the per-replicate average PSNR.
    pub psnr_mean: f64,
    /// Sample standard deviation of the per-replicate average PSNR.
    pub psnr_std: f64,
    /// Mean of the per-replicate total bad pixels.
    pub bad_pixels_mean: f64,
    /// Sample standard deviation of the per-replicate bad pixels.
    pub bad_pixels_std: f64,
    /// Number of channel realizations.
    pub replicates: usize,
}

/// Runs one cell across `replicates` independent channel realizations.
/// The sequence is **encoded once** (the bitstream does not depend on the
/// channel); each replicate replays packetization, loss, decoding and
/// measurement with a re-seeded loss process.
///
/// # Errors
///
/// Returns the errors [`run`] returns; `replicates` must be ≥ 1.
pub fn run_replicated(cfg: &RunConfig, replicates: usize) -> Result<ReplicatedResult, String> {
    if replicates == 0 {
        return Err("replicates must be at least 1".to_string());
    }
    check_channel(cfg)?;
    // Encode once, retaining originals and bitstreams.
    let mut originals = Vec::with_capacity(cfg.frames);
    let mut encoded = Vec::with_capacity(cfg.frames);
    let sent = encode_cell(cfg, |original, e| {
        originals.push(original);
        encoded.push(e);
    })?;

    // Replay the transport per replicate.
    let mut psnrs = Vec::with_capacity(replicates);
    let mut bads = Vec::with_capacity(replicates);
    let mut base = None;
    for rep in 0..replicates {
        let mut decoder = Decoder::new(cfg.encoder.format);
        let mut packetizer = Packetizer::new(cfg.mtu);
        let mut channel = LossyChannel::new(cfg.loss.reseed(rep as u64).build());
        let mut quality = QualityStats::new();
        for (original, e) in originals.iter().zip(&encoded) {
            let displayed = transport(&mut packetizer, &mut channel, &mut decoder, e);
            quality.record(original, displayed);
        }
        psnrs.push(quality.average_psnr());
        bads.push(quality.total_bad_pixels() as f64);
        if rep == 0 {
            base = Some((quality, *channel.stats()));
        }
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let std = |v: &[f64]| {
        if v.len() < 2 {
            return 0.0;
        }
        let m = mean(v);
        (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64).sqrt()
    };

    let (quality, channel) = base.expect("replicates >= 1");
    Ok(ReplicatedResult {
        psnr_mean: mean(&psnrs),
        psnr_std: std(&psnrs),
        bad_pixels_mean: mean(&bads),
        bad_pixels_std: std(&bads),
        base: RunResult {
            quality,
            channel,
            ..sent
        },
        replicates,
    })
}

/// Executes a batch of cells in parallel (bounded by the logical CPU
/// count), preserving input order in the output.
///
/// # Errors
///
/// Each cell reports its own `Result`; one failing cell does not abort
/// the others.
pub fn run_batch_parallel(configs: &[RunConfig]) -> Vec<Result<RunResult, String>> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(configs.len().max(1));
    // Placeholders only: the pool runs every cell exactly once.
    let mut results: Vec<Result<RunResult, String>> =
        configs.iter().map(|_| Err(String::new())).collect();
    Pool::new(workers).for_each_mut(&mut results, |i, result| *result = run(&configs[i]));
    results
}

/// Calibrates PBPAIR's `Intra_Th` so its encoded size matches a target —
/// the paper's procedure for Figure 5 ("we choose Intra_Th that gives
/// similar compression ratio with PGOP-3, GOP-3, and AIR-24").
///
/// Binary search over the threshold: encoded size grows monotonically
/// with `Intra_Th` (more intra macroblocks → more bits). Calibration runs
/// on a loss-free channel because the encoded size does not depend on the
/// channel.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn calibrate_intra_th(
    base: pbpair::PbpairConfig,
    sequence: SequenceSpec,
    encoder: EncoderConfig,
    frames: usize,
    target_bytes: u64,
) -> Result<f64, String> {
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    for _ in 0..10 {
        let mid = 0.5 * (lo + hi);
        let cfg = RunConfig {
            scheme: SchemeSpec::Pbpair(pbpair::PbpairConfig {
                intra_th: mid,
                ..base
            }),
            sequence: sequence.clone(),
            frames,
            encoder,
            loss: LossSpec::None,
            mtu: DEFAULT_MTU,
        };
        let result = run(&cfg)?;
        if result.total_bytes > target_bytes {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbpair::PbpairConfig;

    fn short(scheme: SchemeSpec, loss: LossSpec) -> RunConfig {
        RunConfig {
            scheme,
            sequence: SequenceSpec::Synthetic {
                class: MotionClass::MediumForeman,
                seed: 3,
            },
            frames: 12,
            encoder: EncoderConfig::default(),
            loss,
            mtu: DEFAULT_MTU,
        }
    }

    #[test]
    fn lossless_run_has_high_quality_and_no_losses() {
        let r = run(&short(SchemeSpec::No, LossSpec::None)).unwrap();
        assert_eq!(r.quality.frames(), 12);
        assert!(
            r.quality.average_psnr() > 28.0,
            "{}",
            r.quality.average_psnr()
        );
        assert_eq!(r.channel.frames_lost, 0);
        assert_eq!(r.frame_bits.len(), 12);
        assert_eq!(r.total_bytes, r.ops.bits_emitted.div_ceil(8));
    }

    #[test]
    fn lossy_run_degrades_quality() {
        let clean = run(&short(SchemeSpec::No, LossSpec::None)).unwrap();
        let lossy = run(&short(
            SchemeSpec::No,
            LossSpec::Uniform {
                rate: 0.25,
                seed: 5,
            },
        ))
        .unwrap();
        assert!(lossy.channel.frames_lost > 0);
        assert!(lossy.quality.average_psnr() < clean.quality.average_psnr());
        assert!(lossy.quality.total_bad_pixels() > clean.quality.total_bad_pixels());
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = short(
            SchemeSpec::Pbpair(PbpairConfig::default()),
            LossSpec::Uniform { rate: 0.1, seed: 9 },
        );
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.quality.psnr_series(), b.quality.psnr_series());
        assert_eq!(a.frame_bits, b.frame_bits);
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn scripted_loss_drops_exact_frames() {
        let r = run(&short(
            SchemeSpec::No,
            LossSpec::Scripted {
                lost_frames: vec![3, 7],
            },
        ))
        .unwrap();
        assert_eq!(r.channel.frames_lost, 2);
        // Quality must dip at exactly the dropped frames.
        let s = r.quality.psnr_series();
        assert!(s[3] < s[2], "loss at frame 3 must dent PSNR");
    }

    #[test]
    fn gop_scheme_produces_periodic_i_frames_through_the_pipeline() {
        let r = run(&short(SchemeSpec::Gop(3), LossSpec::None)).unwrap();
        for (i, k) in r.frame_kinds.iter().enumerate() {
            let expect = if i % 4 == 0 {
                FrameKind::Intra
            } else {
                FrameKind::Inter
            };
            assert_eq!(*k, expect, "frame {i}");
        }
    }

    #[test]
    fn calibration_tracks_the_target() {
        let seq = SequenceSpec::Synthetic {
            class: MotionClass::MediumForeman,
            seed: 3,
        };
        let enc = EncoderConfig::default();
        // Measure a mid-threshold run as the target, then recover a
        // threshold with a similar size.
        let target = run(&RunConfig {
            scheme: SchemeSpec::Pbpair(PbpairConfig {
                intra_th: 0.93,
                ..PbpairConfig::default()
            }),
            sequence: seq.clone(),
            frames: 10,
            encoder: enc,
            loss: LossSpec::None,
            mtu: DEFAULT_MTU,
        })
        .unwrap()
        .total_bytes;
        let th = calibrate_intra_th(PbpairConfig::default(), seq.clone(), enc, 10, target).unwrap();
        let check = run(&RunConfig {
            scheme: SchemeSpec::Pbpair(PbpairConfig {
                intra_th: th,
                ..PbpairConfig::default()
            }),
            sequence: seq,
            frames: 10,
            encoder: enc,
            loss: LossSpec::None,
            mtu: DEFAULT_MTU,
        })
        .unwrap();
        let ratio = check.total_bytes as f64 / target as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "calibrated size off target: {ratio} (th={th})"
        );
    }

    #[test]
    fn y4m_file_sequence_runs_through_the_pipeline() {
        use pbpair_media::y4m::Y4mWriter;
        use std::io::Write as _;

        // Write a short synthetic clip to a temp y4m file, then run the
        // pipeline from the file and from the generator; identical frames
        // must produce identical bitstreams.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pbpair_test_{}.y4m", std::process::id()));
        {
            let file = std::fs::File::create(&path).unwrap();
            let mut w = Y4mWriter::new(
                std::io::BufWriter::new(file),
                pbpair_media::VideoFormat::QCIF,
                30,
            )
            .unwrap();
            let mut seq = pbpair_media::synth::SyntheticSequence::foreman_class(3);
            for _ in 0..6 {
                w.write_frame(&seq.next_frame()).unwrap();
            }
            w.finish().unwrap().flush().unwrap();
        }
        let y4m_spec = SequenceSpec::Y4mFile {
            path: path.to_string_lossy().into_owned(),
        };
        let from_file = run(&RunConfig {
            scheme: SchemeSpec::No,
            sequence: y4m_spec.clone(),
            frames: 6,
            encoder: EncoderConfig::default(),
            loss: LossSpec::None,
            mtu: DEFAULT_MTU,
        })
        .unwrap();
        let from_synth = run(&short(SchemeSpec::No, LossSpec::None)).unwrap();
        assert_eq!(from_file.frame_bits, from_synth.frame_bits[..6].to_vec());
        // Requesting more frames than the file holds is an error, not a
        // silent truncation.
        let err = run(&RunConfig {
            scheme: SchemeSpec::No,
            sequence: y4m_spec,
            frames: 100,
            encoder: EncoderConfig::default(),
            loss: LossSpec::None,
            mtu: DEFAULT_MTU,
        });
        assert!(err.unwrap_err().contains("ended after"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replicated_run_encodes_once_and_varies_the_channel() {
        let cfg = short(SchemeSpec::No, LossSpec::Uniform { rate: 0.3, seed: 1 });
        let r = run_replicated(&cfg, 4).unwrap();
        assert_eq!(r.replicates, 4);
        // Encoder ran once: ops reflect a single pass.
        assert_eq!(r.base.ops.frames, cfg.frames as u64);
        // Replicate 0 equals a plain run with the same (reseeded-by-0) seed.
        let plain = run(&cfg).unwrap();
        assert_eq!(r.base.frame_bits, plain.frame_bits);
        assert_eq!(r.base.quality.psnr_series(), plain.quality.psnr_series());
        // With 30% loss over 12 frames, realizations differ → std > 0.
        assert!(r.psnr_std > 0.0, "channel replicates should differ");
        assert!(r.psnr_mean > 0.0);
        // Degenerate cases.
        assert!(run_replicated(&cfg, 0).is_err());
        let lossless = run_replicated(&short(SchemeSpec::No, LossSpec::None), 3).unwrap();
        assert_eq!(
            lossless.psnr_std, 0.0,
            "a deterministic channel has no spread"
        );
    }

    #[test]
    fn batch_parallel_matches_serial() {
        let configs: Vec<RunConfig> = [0.0, 0.1, 0.2]
            .iter()
            .map(|&rate| {
                short(
                    SchemeSpec::Pbpair(PbpairConfig::default()),
                    if rate == 0.0 {
                        LossSpec::None
                    } else {
                        LossSpec::Uniform { rate, seed: 5 }
                    },
                )
            })
            .collect();
        let parallel = run_batch_parallel(&configs);
        assert_eq!(parallel.len(), configs.len());
        for (cfg, result) in configs.iter().zip(&parallel) {
            let serial = run(cfg).unwrap();
            let p = result.as_ref().unwrap();
            assert_eq!(p.frame_bits, serial.frame_bits);
            assert_eq!(p.quality.psnr_series(), serial.quality.psnr_series());
        }
    }

    #[test]
    fn mis_sized_source_is_a_clean_error() {
        use pbpair_media::y4m::Y4mWriter;
        use std::io::Write as _;

        // A 32×16 clip under the default (QCIF) encoder configuration.
        let path =
            std::env::temp_dir().join(format!("pbpair_mis_sized_{}.y4m", std::process::id()));
        {
            let small = pbpair_media::VideoFormat::custom(32, 16).unwrap();
            let file = std::fs::File::create(&path).unwrap();
            let mut w = Y4mWriter::new(std::io::BufWriter::new(file), small, 30).unwrap();
            for _ in 0..3 {
                w.write_frame(&Frame::flat(small, 90)).unwrap();
            }
            w.finish().unwrap().flush().unwrap();
        }
        let cfg = RunConfig {
            scheme: SchemeSpec::No,
            sequence: SequenceSpec::Y4mFile {
                path: path.to_string_lossy().into_owned(),
            },
            frames: 3,
            encoder: EncoderConfig::default(),
            loss: LossSpec::None,
            mtu: DEFAULT_MTU,
        };
        let single = run(&cfg).unwrap_err();
        let replicated = run_replicated(&cfg, 2).unwrap_err();
        let _ = std::fs::remove_file(&path);
        for err in [single, replicated] {
            assert!(
                err.contains("32x16") && err.contains("QCIF"),
                "error must name both formats: {err}"
            );
        }
    }

    #[test]
    fn missing_y4m_file_is_a_clean_error() {
        let err = run(&RunConfig {
            scheme: SchemeSpec::No,
            sequence: SequenceSpec::Y4mFile {
                path: "/nonexistent/clip.y4m".into(),
            },
            frames: 5,
            encoder: EncoderConfig::default(),
            loss: LossSpec::None,
            mtu: DEFAULT_MTU,
        });
        assert!(err.unwrap_err().contains("cannot open"));
    }

    #[test]
    fn bad_channel_settings_are_errors_before_any_work() {
        // The clip does not exist, so an error naming the channel shows
        // the settings were refused before the source was opened.
        let mut cfg = short(SchemeSpec::No, LossSpec::None);
        cfg.sequence = SequenceSpec::Y4mFile {
            path: "/nonexistent/clip.y4m".into(),
        };
        let mut cases = vec![(
            RunConfig {
                mtu: 0,
                ..cfg.clone()
            },
            "mtu must be positive",
        )];
        for rate in [1.5, f64::NAN, -0.1] {
            let loss = LossSpec::Uniform { rate, seed: 1 };
            cases.push((
                RunConfig {
                    loss,
                    ..cfg.clone()
                },
                "outside [0,1]",
            ));
        }
        for (cfg, message) in cases {
            for err in [run(&cfg).unwrap_err(), run_replicated(&cfg, 2).unwrap_err()] {
                assert!(err.contains(message), "{:?}/{}: {err}", cfg.loss, cfg.mtu);
            }
        }
    }
}
