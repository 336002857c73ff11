//! `paper-cell` and `paper-cell-2slice`: the paper's Fig. 5 cell.
//!
//! The benchmark drives the body of `pbpair_eval::pipeline::run` itself —
//! `Encoder::encode_frame_into` → `Packetizer` →
//! `LossyChannel::transmit_frame_atomic` → `Decoder` → `QualityStats` —
//! over clips rendered during set-up, so that it can time each frame and
//! each layer. An untimed check proves the loop equals `pipeline::run`
//! on the same cell.
//!
//! Settings: `EncoderConfig::paper()` (full search ±15), PBPAIR with
//! `Intra_Th` 0.93 and PLR 0.10, 10 % uniform frame loss, the akiyo,
//! foreman and garden clips on one thread (`paper-cell`) or two slice
//! threads (`paper-cell-2slice`).

use crate::policy::TimedPolicy;
use crate::report::{Check, WorkloadResult};
use crate::spans::{clock_overhead_ns, Spans};
use crate::{kernels, mix, repeat, stats, sys, Fnv, RunOpts, REFERENCE_SEED};
use pbpair::{PbpairConfig, PbpairPolicy, SchemeSpec};
use pbpair_codec::{Decoder, EncodedFrame, Encoder, EncoderConfig, OpCounts, OptConfig};
use pbpair_energy::{EnergyModel, IPAQ_H5555};
use pbpair_eval::pipeline::{self, LossSpec, RunConfig, SequenceSpec};
use pbpair_media::metrics::QualityStats;
use pbpair_media::synth::{MotionClass, SyntheticSequence};
use pbpair_media::{Frame, VideoFormat};
use pbpair_netsim::{LossyChannel, Packetizer, UniformLoss, DEFAULT_MTU};
use std::time::Instant;

/// The user's error-resiliency expectation in the paper's Fig. 5 cell.
const INTRA_TH: f64 = 0.93;
/// Uniform frame-loss rate of the channel, also PBPAIR's assumed α.
const PLR: f64 = 0.10;

/// Frames per clip and repetition.
#[derive(Debug, Clone, Copy)]
struct Depth {
    /// Warm-up frames per clip, counted in `setup_s`.
    warmup: usize,
    /// Timed frames per clip.
    timed: usize,
    /// Frames per clip of the untimed equivalence checks.
    check: usize,
}

impl Depth {
    fn for_opts(opts: &RunOpts) -> Self {
        if opts.smoke {
            Depth {
                warmup: 2,
                timed: 4,
                check: 4,
            }
        } else {
            Depth {
                warmup: 8,
                timed: 100,
                check: 16,
            }
        }
    }
}

/// One pre-rendered clip and the seeds of its cell.
struct Clip {
    class: MotionClass,
    video_seed: u64,
    loss_seed: u64,
    frames: Vec<Frame>,
}

fn pbpair_config() -> PbpairConfig {
    PbpairConfig {
        intra_th: INTRA_TH,
        plr: PLR,
        ..PbpairConfig::default()
    }
}

fn encoder_config(slices: u8) -> EncoderConfig {
    EncoderConfig {
        opt: OptConfig {
            slices,
            ..OptConfig::default()
        },
        ..EncoderConfig::paper()
    }
}

/// One clip's cell: every program object of the loop.
struct Stream {
    clip: u32,
    policy: TimedPolicy<PbpairPolicy>,
    encoder: Encoder,
    decoder: Decoder,
    packetizer: Packetizer,
    channel: LossyChannel,
    quality: QualityStats,
    out: EncodedFrame,
    bits: u64,
    digest: Fnv,
    encode_allocs: u64,
    concealed_frames: u64,
}

impl Stream {
    fn new(clip: u32, slices: u8, loss_seed: u64, clock_ns: u64) -> Result<Self, String> {
        Ok(Stream {
            clip,
            policy: TimedPolicy::new(
                PbpairPolicy::new(VideoFormat::QCIF, pbpair_config())?,
                false,
                clock_ns,
            ),
            encoder: Encoder::new(encoder_config(slices)),
            decoder: Decoder::new(VideoFormat::QCIF),
            packetizer: Packetizer::new(DEFAULT_MTU),
            channel: LossyChannel::new(Box::new(UniformLoss::new(PLR, loss_seed))),
            quality: QualityStats::new(),
            out: EncodedFrame::empty(),
            bits: 0,
            digest: Fnv::default(),
            encode_allocs: 0,
            concealed_frames: 0,
        })
    }

    /// One frame of the `pipeline::run` loop, with a span around each
    /// layer call. The untraced loop runs this same code with `spans`
    /// switched off.
    fn step(&mut self, original: &Frame, spans: &mut Spans) {
        let (clip, frame) = (self.clip, self.encoder.next_frame_index());
        let root = spans.open("frame", clip, frame);
        let enc = spans.open("codec.encode", clip, frame);
        let allocs = sys::allocations();
        self.encoder
            .encode_frame_into(original, &mut self.policy, &mut self.out);
        self.encode_allocs += sys::allocations() - allocs;
        spans.close(enc);
        let (busy, calls) = self.policy.take();
        spans.aggregate(enc, "core.policy", busy, calls);
        self.bits += self.out.stats.bits;
        self.digest.update(&self.out.data);

        let out = &self.out;
        let packetizer = &mut self.packetizer;
        let packets = spans.time("netsim.packetize", clip, frame, || {
            packetizer.packetize(out.index, &out.data)
        });
        let channel = &mut self.channel;
        let delivered = spans.time("netsim.channel", clip, frame, || {
            channel.transmit_frame_atomic(&packets)
        });
        let decoder = &mut self.decoder;
        let concealed = &mut self.concealed_frames;
        let displayed = spans.time("codec.decode", clip, frame, || {
            match delivered.map(|bytes| decoder.decode_frame(&bytes)) {
                Some(Ok((frame, _info))) => frame,
                Some(Err(_)) | None => {
                    *concealed += 1;
                    decoder.conceal_lost_frame()
                }
            }
        });
        let quality = &mut self.quality;
        spans.time("media.quality", clip, frame, || {
            quality.record(original, &displayed)
        });
        spans.close(root);
    }
}

/// What one repetition measured.
struct Rep {
    traced: bool,
    setup_s: f64,
    timed_s: f64,
    cpu_s: f64,
    frame_ms: Vec<f64>,
    digest: String,
    frames: u64,
    timed_frames: u64,
    ops: OpCounts,
    bits: u64,
    wire_bytes: u64,
    packets: u64,
    frames_lost: u64,
    concealed_frames: u64,
    psnr_sum: f64,
    encode_allocs: u64,
}

/// Builds the streams, warms them up (the set-up), then times the
/// remaining frames clip by clip.
fn rep(
    clips: &[Clip],
    slices: u8,
    depth: Depth,
    spans: &mut Spans,
    traced: bool,
    clock_ns: u64,
) -> Result<Rep, String> {
    let t_setup = Instant::now();
    let mut streams = clips
        .iter()
        .enumerate()
        .map(|(i, c)| Stream::new(i as u32, slices, c.loss_seed, clock_ns))
        .collect::<Result<Vec<_>, _>>()?;
    for (stream, clip) in streams.iter_mut().zip(clips) {
        for f in &clip.frames[..depth.warmup] {
            stream.step(f, spans);
        }
        stream.encode_allocs = 0;
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    spans.set_enabled(traced);
    let cpu0 = sys::cpu_seconds().unwrap_or(0.0);
    let t0 = Instant::now();
    let mut frame_ms = Vec::with_capacity(clips.len() * depth.timed);
    for (stream, clip) in streams.iter_mut().zip(clips) {
        stream.policy.set_timing(traced);
        for f in &clip.frames[depth.warmup..] {
            let t = Instant::now();
            stream.step(f, spans);
            frame_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        stream.policy.set_timing(false);
    }
    let timed_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds().unwrap_or(0.0) - cpu0;
    spans.set_enabled(false);

    let mut digest = Fnv::default();
    let mut r = Rep {
        traced,
        setup_s,
        timed_s,
        cpu_s,
        timed_frames: frame_ms.len() as u64,
        frame_ms,
        digest: String::new(),
        frames: 0,
        ops: OpCounts::default(),
        bits: 0,
        wire_bytes: 0,
        packets: 0,
        frames_lost: 0,
        concealed_frames: 0,
        psnr_sum: 0.0,
        encode_allocs: 0,
    };
    for s in &mut streams {
        digest.update(&s.digest.0.to_le_bytes());
        r.frames += s.quality.frames() as u64;
        r.ops += s.encoder.take_ops();
        r.bits += s.bits;
        r.wire_bytes += s.channel.stats().bytes_sent;
        r.packets += s.channel.stats().packets_sent;
        r.frames_lost += s.channel.stats().frames_lost;
        r.concealed_frames += s.concealed_frames;
        r.psnr_sum += s.quality.average_psnr() * s.quality.frames() as f64;
        r.encode_allocs += s.encode_allocs;
    }
    r.digest = digest.hex();
    Ok(r)
}

/// Renders the clips (input generation, outside the measured set-up).
fn render(seed: u64, depth: Depth) -> (Vec<Clip>, f64) {
    let t = Instant::now();
    let clips: Vec<Clip> = MotionClass::all()
        .into_iter()
        .enumerate()
        .map(|(i, class)| {
            let video_seed = mix(seed, 1 + i as u64);
            let mut seq = SyntheticSequence::for_class(class, video_seed);
            Clip {
                class,
                video_seed,
                loss_seed: mix(seed, 101 + i as u64),
                frames: (0..depth.warmup + depth.timed)
                    .map(|_| seq.next_frame())
                    .collect(),
            }
        })
        .collect();
    let frames = clips.iter().map(|c| c.frames.len()).sum::<usize>();
    (clips, t.elapsed().as_secs_f64() * 1e3 / frames as f64)
}

/// The untimed output checks: the loop equals `pipeline::run` on the
/// same cell (total bytes, PSNR series, op counts except `sad_ops`), and
/// serial and 2-slice encoding produce the identical bitstream.
fn equivalence_checks(clips: &[Clip], slices: u8, frames: usize, clock_ns: u64) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut digests = [Fnv::default(), Fnv::default()];
    for (i, clip) in clips.iter().enumerate() {
        let mut ours = Vec::new();
        for (v, s) in [1u8, 2].into_iter().enumerate() {
            let mut spans = Spans::new(false);
            let mut stream = match Stream::new(i as u32, s, clip.loss_seed, clock_ns) {
                Ok(stream) => stream,
                Err(e) => {
                    checks.push(Check::new("stream construction", false, e));
                    return checks;
                }
            };
            for f in &clip.frames[..frames] {
                stream.step(f, &mut spans);
            }
            digests[v].update(&stream.digest.0.to_le_bytes());
            ours.push(stream);
        }
        let ours = &mut ours[if slices > 1 { 1 } else { 0 }];
        let reference = pipeline::run(&RunConfig {
            scheme: SchemeSpec::Pbpair(pbpair_config()),
            sequence: SequenceSpec::Synthetic {
                class: clip.class,
                seed: clip.video_seed,
            },
            frames,
            encoder: encoder_config(slices),
            loss: LossSpec::Uniform {
                rate: PLR,
                seed: clip.loss_seed,
            },
            mtu: DEFAULT_MTU,
        });
        let name = format!(
            "{} frames of {} equal pipeline::run (bytes, PSNR series, op counts except sad_ops)",
            frames,
            clip.class.label()
        );
        match reference {
            Err(e) => checks.push(Check::new(name, false, e)),
            Ok(reference) => {
                let without_sad = |mut ops: OpCounts| {
                    ops.sad_ops = 0;
                    ops
                };
                let bytes = ours.bits.div_ceil(8);
                let ok = bytes == reference.total_bytes
                    && ours.quality.psnr_series() == reference.quality.psnr_series()
                    && without_sad(*ours.encoder.ops()) == without_sad(reference.ops);
                checks.push(Check::new(
                    name,
                    ok,
                    format!(
                        "bytes {bytes} vs {}, mean PSNR {:.4} vs {:.4} dB",
                        reference.total_bytes,
                        ours.quality.average_psnr(),
                        reference.quality.average_psnr()
                    ),
                ));
            }
        }
    }
    checks.push(Check::new(
        format!("serial and 2-slice bitstreams identical over {frames} frames per clip"),
        digests[0] == digests[1],
        format!("{} vs {}", digests[0].hex(), digests[1].hex()),
    ));
    checks
}

/// Runs `paper-cell` (`slices` 1) or `paper-cell-2slice` (`slices` 2).
pub fn run(name: &str, slices: u8, opts: &RunOpts) -> WorkloadResult {
    let depth = Depth::for_opts(opts);
    let clock_ns = clock_overhead_ns();
    let mut result = WorkloadResult::new(name, opts.seed, opts.trace);

    // The untimed warm-up encodes the reference inputs; the
    // deterministic metrics come from it. Its clips are dropped before
    // the seed's are rendered, so they add nothing to the peak RSS.
    let slots_per_rep = (MotionClass::all().len() * depth.timed) as u64;
    let mut spans = Spans::new(false);
    let reference = rep(
        &render(REFERENCE_SEED, depth).0,
        slices,
        depth,
        &mut spans,
        false,
        clock_ns,
    );
    let reference = match reference {
        Ok(reference) => reference,
        Err(e) => {
            result.attempted = slots_per_rep;
            result.failed = slots_per_rep;
            result
                .checks
                .push(Check::new("reference repetition", false, e));
            return result;
        }
    };
    let (clips, synth_ms) = render(opts.seed, depth);
    result
        .checks
        .extend(equivalence_checks(&clips, slices, depth.check, clock_ns));

    // The traced run alternates traced (even) and untraced (odd)
    // repetitions, so the tracing overhead is measured under the same
    // conditions.
    let (reps, failures) = repeat(opts.seconds, opts.min_reps(), |i| {
        rep(
            &clips,
            slices,
            depth,
            &mut spans,
            opts.trace && i % 2 == 0,
            clock_ns,
        )
    });
    result.reps = reps.len();
    result.attempted = (reps.len() + failures.len()) as u64 * slots_per_rep;
    result.failed = failures.len() as u64 * slots_per_rep;
    result.notes.extend(failures);

    let digests: Vec<&str> = reps.iter().map(|r| r.digest.as_str()).collect();
    result.digest = digests.first().copied().unwrap_or_default().to_string();
    result.checks.push(Check::new(
        "bitstream digest identical across repetitions",
        !digests.is_empty() && digests.iter().all(|d| *d == digests[0]),
        format!("{} repetitions, digest {}", digests.len(), result.digest),
    ));
    if reps.is_empty() {
        return result;
    }

    let model = EnergyModel::new(IPAQ_H5555);
    let per_frame = |v: f64| v / reference.frames as f64;
    if !opts.trace {
        let series = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
        result.metric(
            "frames_per_s",
            &series(&|r| r.timed_frames as f64 / r.timed_s),
        );
        result.metric(
            "frame_ms_p50",
            &series(&|r| stats::nearest_rank(&r.frame_ms, 0.50)),
        );
        result.metric(
            "frame_ms_p99",
            &series(&|r| stats::nearest_rank(&r.frame_ms, 0.99)),
        );
        let energy = model.encoding_energy(&reference.ops).millijoules();
        result.metric("mj_per_frame", &[per_frame(energy)]);
        result.metric("psnr_db", &[per_frame(reference.psnr_sum)]);
        result.metric("bytes_per_frame", &[per_frame(reference.wire_bytes as f64)]);
        result.metric(
            "failed_frac",
            &[result.failed as f64 / result.attempted.max(1) as f64],
        );
        result.metric("setup_s", &series(&|r| r.setup_s));
        result.metric("peak_rss_mb", &[sys::peak_rss_mib().unwrap_or(0.0)]);
        return result;
    }

    // Traced run: per-layer metrics from the traced repetitions.
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let traced_frames: u64 = traced.iter().map(|r| r.timed_frames).sum();
    let traced_s: f64 = traced.iter().map(|r| r.timed_s).sum();
    let ms_per_frame = |name: &str| spans.self_ns(name) as f64 / 1e6 / traced_frames as f64;
    result.layer("codec.encode_ms", ms_per_frame("codec.encode"));
    result.layer("core.policy_us", ms_per_frame("core.policy") * 1e3);
    result.layer(
        "netsim.packetize_us",
        ms_per_frame("netsim.packetize") * 1e3,
    );
    // The atomic channel reassembles inside `transmit_frame_atomic`, so
    // reassembly time is part of `netsim.channel_us` here.
    result.layer("netsim.channel_us", ms_per_frame("netsim.channel") * 1e3);
    result.layer("codec.decode_ms", ms_per_frame("codec.decode"));
    result.layer("media.quality_ms", ms_per_frame("media.quality"));
    result.layer("media.synth_ms", synth_ms);
    let ops = reference.ops;
    let b = model.breakdown(&ops);
    result.layer("codec.sad_ops_per_frame", per_frame(ops.sad_ops as f64));
    result.layer(
        "codec.sad_candidates_per_frame",
        per_frame(ops.sad_candidates as f64),
    );
    result.layer("codec.me_skip_ratio", ops.me_skip_ratio());
    result.layer(
        "codec.intra_mb_ratio",
        ops.intra_mbs as f64 / ops.total_mbs().max(1) as f64,
    );
    result.layer("codec.bits_per_frame", per_frame(reference.bits as f64));
    result.layer(
        "codec.ref_read_bytes_per_frame",
        per_frame(ops.ref_read_bytes as f64),
    );
    result.layer(
        "codec.recon_write_bytes_per_frame",
        per_frame(ops.recon_write_bytes as f64),
    );
    result.layer(
        "energy.me_mj_per_frame",
        per_frame(b.motion_estimation.millijoules()),
    );
    result.layer(
        "energy.transform_mj_per_frame",
        per_frame(b.transform.millijoules()),
    );
    result.layer(
        "energy.quant_mj_per_frame",
        per_frame(b.quantization.millijoules()),
    );
    result.layer(
        "energy.mc_mj_per_frame",
        per_frame(b.motion_compensation.millijoules()),
    );
    result.layer(
        "energy.entropy_mj_per_frame",
        per_frame(b.entropy.millijoules()),
    );
    result.layer(
        "energy.memory_mj_per_frame",
        per_frame(model.memory_energy(&ops).millijoules()),
    );
    let all_timed: u64 = reps.iter().map(|r| r.timed_frames).sum();
    result.layer(
        "codec.allocs_per_frame",
        reps.iter().map(|r| r.encode_allocs).sum::<u64>() as f64 / all_timed as f64,
    );
    let wall: f64 = reps.iter().map(|r| r.timed_s).sum();
    let cpu: f64 = reps.iter().map(|r| r.cpu_s).sum();
    result.layer("sched.cpu_util", cpu / (wall * slices as f64));
    result.layer(
        "codec.concealed_mbs_per_frame",
        per_frame((reference.concealed_frames * VideoFormat::QCIF.mb_count() as u64) as f64),
    );
    result.layer(
        "netsim.packets_per_frame",
        per_frame(reference.packets as f64),
    );
    result.layer(
        "netsim.frames_lost_frac",
        per_frame(reference.frames_lost as f64),
    );
    for (name, ns) in kernels::measure(if opts.smoke { 50 } else { 1 }) {
        result.layer(name, ns);
    }
    result.complete_layers();

    let layers: u64 = spans
        .self_by_name()
        .iter()
        .filter(|(name, _, _)| *name != "frame")
        .map(|e| e.1)
        .sum();
    let coverage = layers as f64 / 1e9 / traced_s;
    let fps = |traced: bool| {
        let v: Vec<f64> = reps
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.timed_frames as f64 / r.timed_s)
            .collect();
        (!v.is_empty()).then(|| stats::summarize(&v).median)
    };
    let overhead = match (fps(true), fps(false)) {
        (Some(on), Some(off)) => on / off,
        _ => f64::NAN,
    };
    result.checks.push(Check::new(
        "layer self times cover >= 95% of traced wall time",
        coverage >= 0.95,
        format!("coverage {coverage:.4}"),
    ));
    result.notes.push(format!(
        "layer coverage {coverage:.4}; tracing overhead (traced / untraced frames_per_s) {overhead:.4}"
    ));
    let summary = [("coverage", coverage), ("overhead", overhead)];
    if let Err(e) = crate::write_trace(opts, name, &spans, &summary, clock_ns) {
        result
            .checks
            .push(Check::new("span JSON written", false, e));
    }
    result
}
