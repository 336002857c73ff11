//! `fleet-uniform` and `fleet-burst-fec`: 16-session serving fleets
//! through `pbpair_serve::run`, advancing in round-barrier frame slots on
//! two workers.
//!
//! An untimed full-length run of the reference inputs is the warm-up;
//! the deterministic metrics and the fleet's exact per-layer counts come
//! from its report. The untraced run then times whole fleet runs of the
//! seed's inputs. The traced run also times a one-worker run of each
//! timed fleet (`serve.fleet_efficiency`) and adds a single-thread
//! **layer replay** built from public calls only: it calls the layers a
//! session frame runs — source → encode → packetize / protect → channel
//! → recover / reassemble → decode → quality — at the fleet's settings,
//! with the sessions' content classes and `Intra_Th` 0.9, and records a
//! span around each call.

use crate::policy::TimedPolicy;
use crate::report::{Check, WorkloadResult};
use crate::spans::{clock_overhead_ns, Spans};
use crate::{kernels, mix, repeat, stats, sys, write_trace, RunOpts, REFERENCE_SEED};
use pbpair::{PbpairConfig, PbpairPolicy};
use pbpair_codec::{Decoder, Encoder, EncoderConfig, OpCounts};
use pbpair_energy::{EnergyBreakdown, EnergyModel, Joules};
use pbpair_media::metrics::QualityStats;
use pbpair_media::synth::{MotionClass, SyntheticSequence};
use pbpair_media::VideoFormat;
use pbpair_netsim::{
    reassemble_frame, reassemble_frame_damaged, ChannelSpec, CorruptingChannel, CorruptionProfile,
    FecOps, FecProtector, FecSpec, LossModel, Packetizer, UniformLoss,
};
use pbpair_serve::{DeviceMix, RedundancyConfig, ServeConfig, ServeReport};
use std::time::Instant;

/// `Intra_Th` of the layer replay: the sessions' base operating point.
const REPLAY_INTRA_TH: f64 = 0.9;

/// Worker threads of every fleet: two, or fewer on a smaller host.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Fleet size and run lengths.
#[derive(Debug, Clone, Copy)]
struct Depth {
    sessions: usize,
    /// Rounds of the untimed full-length run and of the layer replay.
    rounds: usize,
    /// Rounds of each timed repetition.
    timed_rounds: usize,
    /// Rounds of the fixed warm-up counted in `setup_s`.
    warmup_rounds: usize,
}

impl Depth {
    fn for_opts(opts: &RunOpts) -> Self {
        if opts.smoke {
            Depth {
                sessions: 16,
                rounds: 4,
                timed_rounds: 4,
                warmup_rounds: 2,
            }
        } else {
            Depth {
                sessions: 16,
                rounds: 80,
                timed_rounds: 20,
                warmup_rounds: 8,
            }
        }
    }
}

/// The fleet configuration of workload `name`.
fn serve_config(name: &str, seed: u64, sessions: usize, rounds: usize) -> ServeConfig {
    let mut cfg = ServeConfig {
        sessions,
        frames: rounds,
        workers: workers(),
        seed,
        pacing_us: 0,
        ..ServeConfig::default()
    };
    // Unbounded capacity disables admission control: no frame is
    // dropped or shed, so every slot is served and replays exactly.
    cfg.admission.capacity_j_per_round = f64::MAX;
    if name == "fleet-burst-fec" {
        // The committed FEC matrix's burst channel and adaptive-RS arm.
        // MTU 36 splits a frame into about 8 fragments, one RS block.
        cfg.channel = Some(ChannelSpec::BurstErasure {
            burst_len: 4.0,
            guard_len: 28.0,
        });
        cfg.redundancy = Some(RedundancyConfig {
            family: FecSpec::Rs { k: 8, r: 2 },
            max_parity: 2,
            budget_ratio: 1.25,
            gop: 8,
        });
        cfg.mtu = 36;
        cfg.corruption = 0.0;
        cfg.device_mix = DeviceMix::Alternating;
    }
    cfg
}

/// One timed fleet repetition.
struct FleetRep {
    setup_s: f64,
    setup_digest: String,
    call_s: f64,
    cpu_s: f64,
    report: ServeReport,
}

fn fleet_rep(cfg: &ServeConfig, warm: &ServeConfig) -> Result<FleetRep, String> {
    // Set-up: constructing the sessions and the fixed warm-up rounds,
    // through the only public entry point that builds a fleet.
    let t = Instant::now();
    let warm_report = pbpair_serve::run(warm)?;
    let setup_s = t.elapsed().as_secs_f64();
    let cpu0 = sys::cpu_seconds().unwrap_or(0.0);
    let t = Instant::now();
    let report = pbpair_serve::run(cfg)?;
    Ok(FleetRep {
        setup_s,
        setup_digest: warm_report.deterministic_digest(),
        call_s: t.elapsed().as_secs_f64(),
        cpu_s: sys::cpu_seconds().unwrap_or(0.0) - cpu0,
        report,
    })
}

/// `pbpair_serve::run` with a panic on this thread turned into `Err`.
fn serve(cfg: &ServeConfig) -> Result<ServeReport, String> {
    std::panic::catch_unwind(|| pbpair_serve::run(cfg))
        .unwrap_or_else(|_| Err("pbpair_serve::run panicked".to_string()))
}

/// Frame slots of a fleet run that were not served: rate-dropped frames
/// and the slots of shed sessions.
fn failed_slots(report: &ServeReport) -> u64 {
    report
        .sessions
        .iter()
        .map(|s| {
            let unserved = report.rounds as u64 - s.frames_encoded - s.frames_rate_dropped;
            s.frames_rate_dropped + if s.shed { unserved } else { 0 }
        })
        .sum()
}

/// Accumulated outcome of the layer replays.
#[derive(Default)]
struct LayerTotals {
    frames: u64,
    wall_s: f64,
    ops: OpCounts,
    energy: EnergyBreakdown,
    memory: Joules,
    packets: u64,
    encode_allocs: u64,
}

/// One session's layer objects in the layer replay.
struct Layers {
    source: SyntheticSequence,
    policy: TimedPolicy<PbpairPolicy>,
    encoder: Encoder,
    packetizer: Packetizer,
    fec: Option<FecProtector>,
    channel: CorruptingChannel,
    decoder: Decoder,
    quality: QualityStats,
    energy: EnergyModel,
}

impl Layers {
    fn new(cfg: &ServeConfig, id: u32, clock_ns: u64) -> Result<Self, String> {
        let class = cfg.clip.unwrap_or(MotionClass::all()[id as usize % 3]);
        let seed = mix(cfg.seed, 1000 + id as u64);
        let loss: Box<dyn LossModel> = match &cfg.channel {
            Some(spec) => spec.build_loss(mix(seed, 2))?,
            None => Box::new(UniformLoss::new(cfg.plr, mix(seed, 2))),
        };
        let fec_spec = cfg.redundancy.map(|rc| rc.family).or(cfg.fec);
        Ok(Layers {
            source: SyntheticSequence::for_class(class, mix(seed, 1)),
            policy: TimedPolicy::new(
                PbpairPolicy::new(
                    VideoFormat::QCIF,
                    PbpairConfig {
                        intra_th: REPLAY_INTRA_TH,
                        plr: cfg.plr,
                        ..PbpairConfig::default()
                    },
                )?,
                true,
                clock_ns,
            ),
            encoder: Encoder::new(EncoderConfig {
                rde: cfg.rde,
                ..EncoderConfig::default()
            }),
            packetizer: Packetizer::new(cfg.mtu),
            fec: fec_spec.map(FecProtector::new).transpose()?,
            channel: CorruptingChannel::new(
                loss,
                CorruptionProfile::with_intensity(cfg.corruption),
                mix(seed, 3),
            ),
            decoder: Decoder::new(VideoFormat::QCIF),
            quality: QualityStats::new(),
            energy: EnergyModel::new(cfg.device_mix.device_for(id).profile()),
        })
    }

    /// One frame through every layer a session frame runs, each call in
    /// its own span.
    fn step(&mut self, spans: &mut Spans, id: u32, frame: u64, totals: &mut LayerTotals) {
        let root = spans.open("frame", id, frame);
        let source = &mut self.source;
        let original = spans.time("media.synth", id, frame, || source.next_frame());
        let enc = spans.open("codec.encode", id, frame);
        let allocs = sys::allocations();
        let ops_before = *self.encoder.ops();
        let encoded = self.encoder.encode_frame(&original, &mut self.policy);
        totals.encode_allocs += sys::allocations() - allocs;
        spans.close(enc);
        let (busy, calls) = self.policy.take();
        spans.aggregate(enc, "core.policy", busy, calls);
        let frame_ops = *self.encoder.ops() - ops_before;
        let b = self.energy.breakdown(&frame_ops);
        let e = &mut totals.energy;
        e.motion_estimation = e.motion_estimation + b.motion_estimation;
        e.transform = e.transform + b.transform;
        e.quantization = e.quantization + b.quantization;
        e.motion_compensation = e.motion_compensation + b.motion_compensation;
        e.entropy = e.entropy + b.entropy;
        e.overhead = e.overhead + b.overhead;
        totals.memory = totals.memory + self.energy.memory_energy(&frame_ops);
        totals.ops += frame_ops;

        let packetizer = &mut self.packetizer;
        let packets = spans.time("netsim.packetize", id, frame, || {
            packetizer.packetize(encoded.index, &encoded.data)
        });
        let mut fec_ops = FecOps::default();
        let sent = match &self.fec {
            Some(fec) => spans.time("fec.protect", id, frame, || {
                fec.protect(&packets, &mut fec_ops)
            }),
            None => packets,
        };
        totals.packets += sent.len() as u64;
        let channel = &mut self.channel;
        channel.on_frame(frame);
        let survivors = spans.time("netsim.channel", id, frame, || {
            channel.transmit_packets(&sent)
        });
        let recovered = match &self.fec {
            Some(fec) => spans.time("fec.recover", id, frame, || {
                fec.recover(&survivors, &mut fec_ops)
            }),
            None => None,
        };
        let bytes = spans.time("netsim.reassemble", id, frame, || match &recovered {
            Some(rec) if rec.complete => reassemble_frame(&rec.data),
            Some(rec) => reassemble_frame_damaged(&rec.data),
            None => reassemble_frame_damaged(&survivors),
        });
        let decoder = &mut self.decoder;
        let displayed = spans.time("codec.decode", id, frame, || match &bytes {
            Some(data) => decoder.decode_frame_resilient(data).0,
            None => decoder.conceal_lost_frame(),
        });
        let quality = &mut self.quality;
        spans.time("media.quality", id, frame, || {
            quality.record(&original, &displayed)
        });
        spans.close(root);
        totals.frames += 1;
    }
}

/// Replays the layer calls of every session, round by round.
fn layer_replay(
    cfg: &ServeConfig,
    spans: &mut Spans,
    clock_ns: u64,
    totals: &mut LayerTotals,
) -> Result<(), String> {
    let mut layers = (0..cfg.sessions as u32)
        .map(|id| Layers::new(cfg, id, clock_ns))
        .collect::<Result<Vec<_>, String>>()?;
    spans.set_enabled(true);
    let t = Instant::now();
    for round in 0..cfg.frames as u64 {
        for (id, l) in layers.iter_mut().enumerate() {
            l.step(spans, id as u32, round, totals);
        }
    }
    totals.wall_s += t.elapsed().as_secs_f64();
    spans.set_enabled(false);
    Ok(())
}

/// Runs `fleet-uniform` or `fleet-burst-fec`.
pub fn run(name: &str, opts: &RunOpts) -> WorkloadResult {
    let depth = Depth::for_opts(opts);
    let reference = serve_config(name, REFERENCE_SEED, depth.sessions, depth.rounds);
    let timed = serve_config(name, opts.seed, depth.sessions, depth.timed_rounds);
    let warm = ServeConfig {
        frames: depth.warmup_rounds,
        ..timed.clone()
    };
    let mut result = WorkloadResult::new(name, opts.seed, opts.trace);
    let clock_ns = clock_overhead_ns();

    // The untimed full-length run of the reference inputs: the warm-up,
    // the deterministic metrics and the exact per-layer counts.
    let full_slots = (reference.sessions * reference.frames) as u64;
    let long = match serve(&reference) {
        Ok(report) => report,
        Err(e) => {
            result.attempted = full_slots;
            result.failed = full_slots;
            result
                .checks
                .push(Check::new("full-length fleet run", false, e));
            return result;
        }
    };
    result.digest = {
        let mut d = crate::Fnv::default();
        d.update(long.deterministic_digest().as_bytes());
        d.hex()
    };
    let mut spans = Spans::new(false);
    let mut efficiency = Vec::new();
    let mut totals = LayerTotals::default();
    let (reps, failures) = repeat(opts.seconds, opts.min_reps(), |_| {
        let rep = fleet_rep(&timed, &warm)?;
        if opts.trace {
            let single = pbpair_serve::run(&ServeConfig {
                workers: 1,
                ..timed.clone()
            })?;
            efficiency.push(
                rep.report.timing.throughput_fps
                    / (timed.workers as f64 * single.timing.throughput_fps),
            );
            layer_replay(&reference, &mut spans, clock_ns, &mut totals)?;
        }
        Ok(rep)
    });
    let rep_slots = (timed.sessions * timed.frames) as u64;
    result.reps = reps.len();
    result.attempted = full_slots + (reps.len() + failures.len()) as u64 * rep_slots;
    result.failed = failed_slots(&long)
        + reps.iter().map(|r| failed_slots(&r.report)).sum::<u64>()
        + failures.len() as u64 * rep_slots;
    result.notes.extend(failures);

    let digests: Vec<String> = reps
        .iter()
        .map(|r| r.report.deterministic_digest())
        .collect();
    result.checks.push(Check::new(
        "fleet deterministic_digest identical across repetitions",
        !digests.is_empty() && digests.iter().all(|d| *d == digests[0]),
        format!("{} repetitions", digests.len()),
    ));
    let Some(first) = reps.first() else {
        return result;
    };
    let single = serve(&ServeConfig {
        workers: 1,
        ..warm.clone()
    });
    result.checks.push(Check::new(
        format!(
            "{}-worker digest equals a 1-worker run at {} rounds",
            warm.workers, warm.frames
        ),
        single
            .as_ref()
            .is_ok_and(|s| s.deterministic_digest() == first.setup_digest),
        format!("{} sessions", warm.sessions),
    ));

    let frames = long.total_frames as f64;
    if !opts.trace {
        let series = |f: &dyn Fn(&FleetRep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
        result.metric("frames_per_s", &series(&|r| r.report.timing.throughput_fps));
        result.metric("frame_ms_p50", &series(&|r| r.report.timing.p50_frame_ms));
        result.metric("frame_ms_p99", &series(&|r| r.report.timing.p99_frame_ms));
        result.metric(
            "mj_per_frame",
            &[(long.total_encode_joules + long.total_fec_joules) * 1e3 / frames],
        );
        result.metric("psnr_db", &[long.mean_psnr_db]);
        result.metric("bytes_per_frame", &[long.total_sent_bytes as f64 / frames]);
        result.metric(
            "failed_frac",
            &[result.failed as f64 / result.attempted.max(1) as f64],
        );
        result.metric("setup_s", &series(&|r| r.setup_s));
        result.metric("peak_rss_mb", &[sys::peak_rss_mib().unwrap_or(0.0)]);
        return result;
    }

    // Exact per-layer counts from the fleet's own report.
    let sum = |f: &dyn Fn(&pbpair_serve::SessionReport) -> u64| {
        long.sessions.iter().map(f).sum::<u64>() as f64
    };
    result.layer(
        "codec.concealed_mbs_per_frame",
        sum(&|s| s.decode.mbs_concealed) / frames,
    );
    result.layer(
        "codec.resyncs_per_kframe",
        sum(&|s| s.decode.resyncs) * 1e3 / frames,
    );
    result.layer("netsim.frames_lost_frac", sum(&|s| s.frames_lost) / frames);
    result.layer(
        "fec.parity_bytes_per_frame",
        sum(&|s| s.fec.parity_bytes) / frames,
    );
    let with_erasures = sum(&|s| s.fec.blocks_decoded);
    result.layer(
        "fec.repair_ratio",
        if with_erasures > 0.0 {
            sum(&|s| s.fec.blocks_repaired) / with_erasures
        } else {
            0.0
        },
    );
    result.layer(
        "energy.fec_mj_per_frame",
        long.total_fec_joules * 1e3 / frames,
    );
    let rounds: f64 = reps.iter().map(|r| r.report.rounds as f64).sum();
    result.layer(
        "sched.migrations_per_round",
        reps.iter()
            .map(|r| r.report.timing.migrations as f64)
            .sum::<f64>()
            / rounds,
    );
    let cpu: f64 = reps.iter().map(|r| r.cpu_s).sum();
    let call: f64 = reps.iter().map(|r| r.call_s).sum();
    result.layer("sched.cpu_util", cpu / (call * timed.workers as f64));
    result.layer(
        "serve.fleet_efficiency",
        stats::summarize(&efficiency).median,
    );

    // Layer replay.
    let tf = totals.frames.max(1) as f64;
    let ms = |name: &str| spans.self_ns(name) as f64 / 1e6 / tf;
    result.layer("media.synth_ms", ms("media.synth"));
    result.layer("codec.encode_ms", ms("codec.encode"));
    result.layer("core.policy_us", ms("core.policy") * 1e3);
    result.layer("netsim.packetize_us", ms("netsim.packetize") * 1e3);
    result.layer("fec.protect_us", ms("fec.protect") * 1e3);
    result.layer("netsim.channel_us", ms("netsim.channel") * 1e3);
    result.layer("fec.recover_us", ms("fec.recover") * 1e3);
    result.layer("netsim.reassemble_us", ms("netsim.reassemble") * 1e3);
    result.layer("codec.decode_ms", ms("codec.decode"));
    result.layer("media.quality_ms", ms("media.quality"));
    let ops = totals.ops;
    result.layer("codec.sad_ops_per_frame", ops.sad_ops as f64 / tf);
    result.layer(
        "codec.sad_candidates_per_frame",
        ops.sad_candidates as f64 / tf,
    );
    result.layer("codec.me_skip_ratio", ops.me_skip_ratio());
    result.layer(
        "codec.intra_mb_ratio",
        ops.intra_mbs as f64 / ops.total_mbs().max(1) as f64,
    );
    result.layer("codec.bits_per_frame", ops.bits_emitted as f64 / tf);
    result.layer(
        "codec.ref_read_bytes_per_frame",
        ops.ref_read_bytes as f64 / tf,
    );
    result.layer(
        "codec.recon_write_bytes_per_frame",
        ops.recon_write_bytes as f64 / tf,
    );
    result.layer("codec.allocs_per_frame", totals.encode_allocs as f64 / tf);
    result.layer("netsim.packets_per_frame", totals.packets as f64 / tf);
    let e = &totals.energy;
    result.layer(
        "energy.me_mj_per_frame",
        e.motion_estimation.millijoules() / tf,
    );
    result.layer(
        "energy.transform_mj_per_frame",
        e.transform.millijoules() / tf,
    );
    result.layer(
        "energy.quant_mj_per_frame",
        e.quantization.millijoules() / tf,
    );
    result.layer(
        "energy.mc_mj_per_frame",
        e.motion_compensation.millijoules() / tf,
    );
    result.layer("energy.entropy_mj_per_frame", e.entropy.millijoules() / tf);
    result.layer(
        "energy.memory_mj_per_frame",
        totals.memory.millijoules() / tf,
    );
    for (name, ns) in kernels::measure(if opts.smoke { 50 } else { 1 }) {
        result.layer(name, ns);
    }
    result.complete_layers();

    let layer_ns: u64 = spans
        .self_by_name()
        .iter()
        .filter(|(name, _, _)| *name != "frame")
        .map(|e| e.1)
        .sum();
    let coverage = layer_ns as f64 / 1e9 / totals.wall_s;
    // The fleet's sessions run the same layers plus their controllers,
    // feedback and bookkeeping, on the seed's inputs.
    let replay_ms = spans.total_ns("frame") as f64 / 1e6 / tf;
    let fleet_frames: u64 = reps.iter().map(|r| r.report.total_frames).sum();
    let fleet_cpu_ms = cpu * 1e3 / fleet_frames.max(1) as f64;
    result.notes.push(format!(
        "layer replay: coverage {coverage:.4} of replay wall time; replayed layers \
         {replay_ms:.4} ms per frame vs fleet CPU time {fleet_cpu_ms:.4} ms per frame"
    ));
    if (fleet_cpu_ms - replay_ms).abs() > 0.1 * fleet_cpu_ms {
        result.notes.push(format!(
            "flag: the fleet's CPU time per frame differs from the replayed layers' by \
             {:.4} ms, more than 10%",
            fleet_cpu_ms - replay_ms
        ));
    }
    let summary = [
        ("coverage", coverage),
        ("replay_ms_per_frame", replay_ms),
        ("fleet_cpu_ms_per_frame", fleet_cpu_ms),
    ];
    if let Err(e) = write_trace(opts, name, &spans, &summary, clock_ns) {
        result
            .checks
            .push(Check::new("span JSON written", false, e));
    }
    result
}
