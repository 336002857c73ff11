//! Golden bitstream digests for every scheme × motion-search strategy,
//! and the schedule contract behind them.
//!
//! Each vector encodes a seeded synthetic sequence under one refresh
//! policy and one search strategy and asserts the FNV-1a digest of the
//! length-prefixed bitstream against a committed constant. Before the
//! digest is checked, the same vector is re-encoded under every
//! optimization setting — the naive reference path, the default fast
//! path, and slice-parallel encoding at 2 and 4 threads — and every
//! setting must match the naive serial run on more than the bitstream:
//! the policy's `begin_frame` kinds, each pre-ME and post-ME call and
//! its decision, every macroblock outcome and frame's stats, the
//! tracer's `MbCoded` events, the `enc.*` telemetry (except SAD work)
//! and the operation counts (except the SAD work the fast search
//! prunes). Half-pel and active-RDE arms run the same comparison without
//! digests of their own. One constant therefore pins the format for the
//! whole optimization matrix.
//!
//! To re-bless after an *intentional* format change, run
//! `PBPAIR_BLESS=1 cargo test -p pbpair --test golden_schemes -- --nocapture`
//! and paste the printed digests into `VECTORS`.

use std::collections::BTreeMap;

use pbpair::schemes::LatePbpairPolicy;
use pbpair::{AirPolicy, GopPolicy, NoPolicy, PbpairConfig, PbpairPolicy, PgopPolicy};
use pbpair_codec::policy::RefreshPolicy;
use pbpair_codec::{
    Decoder, Encoder, EncoderConfig, FrameContext, FrameKind, FrameStats, FrozenMeBias, Kernels,
    MbContext, MbMode, MbOutcome, MeConfig, MeResult, MotionVector, OpCounts, OptConfig,
    PostMeDecision, PreMeDecision, RdeConfig, SearchStrategy,
};
use pbpair_media::synth::SyntheticSequence;
use pbpair_media::{Frame, MbIndex, VideoFormat};
use pbpair_telemetry::{HistogramSnapshot, Telemetry};
use pbpair_trace::{Event as TraceEvent, Tracer};

const FRAMES: usize = 10;
const SEED: u64 = 77;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn make_policy(scheme: &str) -> Box<dyn RefreshPolicy> {
    match scheme {
        "no" => Box::new(NoPolicy::new()),
        "gop8" => Box::new(GopPolicy::new(8)),
        "air24" => Box::new(AirPolicy::new(VideoFormat::QCIF, 24)),
        "pgop3" => Box::new(PgopPolicy::new(VideoFormat::QCIF, 3)),
        "pbpair" => Box::new(
            PbpairPolicy::new(VideoFormat::QCIF, PbpairConfig::default())
                .expect("default config validates"),
        ),
        // At the default 0.9 no σ falls below the threshold within the
        // ten frames, and the late ablation would code exactly what
        // "pbpair" does; 0.97 makes its post-ME refresh fire.
        "pbpair-late" => Box::new(
            LatePbpairPolicy::new(
                VideoFormat::QCIF,
                PbpairConfig {
                    intra_th: 0.97,
                    ..PbpairConfig::default()
                },
            )
            .expect("config validates"),
        ),
        other => panic!("unknown scheme {other}"),
    }
}

/// Everything one encode exposes about its decisions: the stream, each
/// policy hook call in the order that hook saw them, the trace, the
/// `enc.*` telemetry and the operation counts.
#[derive(Debug, Default)]
struct Observed {
    /// Length-prefixed concatenation of `FRAMES` encoded frames.
    stream: Vec<u8>,
    kinds: Vec<FrameKind>,
    pre_me: Vec<(MbIndex, u64, PreMeDecision)>,
    post_me: Vec<(MbIndex, MotionVector, u64, i64, PostMeDecision)>,
    outcomes: Vec<(MbIndex, MbMode, MotionVector, Option<u64>, bool, u64)>,
    stats: Vec<FrameStats>,
    trace: Vec<TraceEvent>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
    ops: OpCounts,
}

impl Observed {
    /// The name of the first observation on which `self` and `other`
    /// differ, ignoring SAD work: `enc.sad_ops`, `sad_ops` and
    /// `sad_candidates` depend on the prepass, which the naive, serial
    /// and slice searches build differently by design.
    fn first_difference(&self, other: &Observed) -> Option<&'static str> {
        let without_sad = |ops: OpCounts| OpCounts {
            sad_ops: 0,
            sad_candidates: 0,
            ..ops
        };
        [
            ("bitstream", self.stream == other.stream),
            ("begin_frame kinds", self.kinds == other.kinds),
            ("pre_me_mode calls", self.pre_me == other.pre_me),
            ("post_me_mode calls", self.post_me == other.post_me),
            ("mb_coded outcomes", self.outcomes == other.outcomes),
            ("end_frame stats", self.stats == other.stats),
            ("MbCoded trace events", self.trace == other.trace),
            ("enc.* counters", self.counters == other.counters),
            ("enc.* histograms", self.histograms == other.histograms),
            ("op counts", without_sad(self.ops) == without_sad(other.ops)),
        ]
        .into_iter()
        .find(|(_, same)| !same)
        .map(|(name, _)| name)
    }
}

/// A forwarding policy that records every decision hook into
/// [`Observed`]. It forwards `frame_frozen_bias` too, so the encoder
/// takes the same schedule with or without it.
struct Recorder {
    inner: Box<dyn RefreshPolicy>,
    seen: Observed,
}

impl RefreshPolicy for Recorder {
    fn begin_frame(&mut self, ctx: &FrameContext) -> FrameKind {
        let kind = self.inner.begin_frame(ctx);
        self.seen.kinds.push(kind);
        kind
    }

    fn pre_me_mode(&mut self, ctx: &MbContext<'_>) -> PreMeDecision {
        let decision = self.inner.pre_me_mode(ctx);
        self.seen.pre_me.push((ctx.mb, ctx.colocated_sad, decision));
        decision
    }

    fn me_bias(&mut self, ctx: &MbContext<'_>, mv: MotionVector) -> i64 {
        self.inner.me_bias(ctx, mv)
    }

    fn post_me_mode(&mut self, ctx: &MbContext<'_>, me: &MeResult) -> PostMeDecision {
        let decision = self.inner.post_me_mode(ctx, me);
        self.seen
            .post_me
            .push((ctx.mb, me.mv, me.sad, me.cost, decision));
        decision
    }

    fn frame_frozen_bias(&self, ctx: &FrameContext) -> Option<FrozenMeBias> {
        self.inner.frame_frozen_bias(ctx)
    }

    fn mb_coded(&mut self, ctx: &FrameContext, o: &MbOutcome) {
        self.inner.mb_coded(ctx, o);
        self.seen.outcomes.push((
            o.mb,
            o.mode,
            o.mv,
            o.sad_mv,
            o.me_performed,
            o.colocated_sad,
        ));
    }

    fn end_frame(&mut self, ctx: &FrameContext, stats: &FrameStats) {
        self.inner.end_frame(ctx, stats);
        self.seen.stats.push(*stats);
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// A coding-tool arm: the digests pin the integer-pel, plain arm; the
/// half-pel and active-RDE arms are compared across settings only.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arm {
    half_pel: bool,
    rde: Option<RdeConfig>,
}

const PLAIN: Arm = Arm {
    half_pel: false,
    rde: None,
};

fn arms() -> [Arm; 4] {
    let rde = Some(RdeConfig::rate_weighted(1 << 16));
    [
        PLAIN,
        Arm {
            half_pel: true,
            rde: None,
        },
        Arm {
            half_pel: false,
            rde,
        },
        Arm {
            half_pel: true,
            rde,
        },
    ]
}

/// Encodes `FRAMES` frames of the vector's sequence under `opt` with a
/// recording policy, an attached tracer and telemetry, and returns what
/// the run exposed. The SIMD tier sweep asserts the operation counts
/// (and therefore the energy model built on them) are tier-invariant,
/// not just the bitstream.
fn observe(scheme: &str, strategy: SearchStrategy, arm: Arm, opt: OptConfig) -> Observed {
    let mut enc = Encoder::new(EncoderConfig {
        me: MeConfig {
            search_range: 15,
            strategy,
        },
        half_pel: arm.half_pel,
        rde: arm.rde,
        opt,
        ..EncoderConfig::default()
    });
    let tel = Telemetry::new();
    let tracer = Tracer::new();
    enc.set_telemetry(&tel);
    enc.set_tracer(&tracer);
    let mut policy = Recorder {
        inner: make_policy(scheme),
        seen: Observed::default(),
    };
    let mut seq = SyntheticSequence::foreman_class(SEED);
    for _ in 0..FRAMES {
        let e = enc.encode_frame(&seq.next_frame(), &mut policy);
        let stream = &mut policy.seen.stream;
        stream.extend_from_slice(&u32::try_from(e.data.len()).expect("fits").to_le_bytes());
        stream.extend_from_slice(&e.data);
    }
    let mut seen = policy.seen;
    let report = tel.report();
    let enc_metric = |name: &String| name.starts_with("enc.");
    seen.counters = report
        .counters
        .into_iter()
        .filter(|(name, _)| enc_metric(name) && name != "enc.sad_ops")
        .collect();
    seen.histograms = report
        .histograms
        .into_iter()
        .filter(|(name, _)| enc_metric(name))
        .collect();
    seen.trace = tracer
        .log_snapshot()
        .events
        .into_iter()
        .filter(|e| matches!(e, TraceEvent::MbCoded { .. }))
        .collect();
    seen.ops = *enc.ops();
    seen
}

/// Splits a length-prefixed stream back into frames and decodes each with
/// the given kernel tier, returning the decoded frames.
fn decode_all(stream: &[u8], tier: pbpair_codec::KernelTier) -> Vec<Frame> {
    let mut dec = Decoder::new(VideoFormat::QCIF);
    dec.set_kernels(tier);
    let mut frames = Vec::new();
    let mut rest = stream;
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let (frame, _) = dec.decode_frame(&rest[4..4 + len]).expect("decodable");
        frames.push(frame);
        rest = &rest[4 + len..];
    }
    frames
}

struct Vector {
    scheme: &'static str,
    strategy: SearchStrategy,
    digest: u64,
}

const VECTORS: &[Vector] = &[
    Vector {
        scheme: "no",
        strategy: SearchStrategy::Full,
        digest: 0xc1b1_0767_d2a4_7ce1,
    },
    Vector {
        scheme: "no",
        strategy: SearchStrategy::ThreeStep,
        digest: 0x32b8_7636_07e9_5ecf,
    },
    Vector {
        scheme: "gop8",
        strategy: SearchStrategy::Full,
        digest: 0x035e_3191_0088_d539,
    },
    Vector {
        scheme: "gop8",
        strategy: SearchStrategy::ThreeStep,
        digest: 0x4fe3_dc77_e57e_0cfa,
    },
    Vector {
        scheme: "air24",
        strategy: SearchStrategy::Full,
        digest: 0x1b2c_4a48_e647_cdd4,
    },
    Vector {
        scheme: "air24",
        strategy: SearchStrategy::ThreeStep,
        digest: 0x45b6_b01f_f595_4d22,
    },
    Vector {
        scheme: "pgop3",
        strategy: SearchStrategy::Full,
        digest: 0xd599_56a5_0c44_de93,
    },
    Vector {
        scheme: "pgop3",
        strategy: SearchStrategy::ThreeStep,
        digest: 0x478a_9d95_6b6e_be05,
    },
    Vector {
        scheme: "pbpair",
        strategy: SearchStrategy::Full,
        digest: 0xc149_cef4_7714_e29a,
    },
    Vector {
        scheme: "pbpair",
        strategy: SearchStrategy::ThreeStep,
        digest: 0xf807_99b4_3768_4cf9,
    },
    Vector {
        scheme: "pbpair-late",
        strategy: SearchStrategy::Full,
        digest: 0x0ef1_acb3_2250_dcd6,
    },
    Vector {
        scheme: "pbpair-late",
        strategy: SearchStrategy::ThreeStep,
        digest: 0x0500_a2bf_6609_84e2,
    },
];

#[test]
fn every_scheme_and_search_matches_its_golden_digest_under_all_optimizations() {
    let blessing = std::env::var_os("PBPAIR_BLESS").is_some();
    for v in VECTORS {
        for arm in arms() {
            let reference = observe(v.scheme, v.strategy, arm, OptConfig::naive());
            assert!(
                !reference.trace.is_empty() && !reference.counters.is_empty(),
                "sanity: the tracer and telemetry observed the encoder"
            );
            for (label, opt) in [
                ("fast", OptConfig::default()),
                (
                    "slices=2",
                    OptConfig {
                        slices: 2,
                        ..OptConfig::default()
                    },
                ),
                (
                    "slices=4",
                    OptConfig {
                        slices: 4,
                        ..OptConfig::default()
                    },
                ),
            ] {
                let got = observe(v.scheme, v.strategy, arm, opt);
                assert_eq!(
                    got.first_difference(&reference),
                    None,
                    "{} {:?} {:?}: {} diverged from the naive serial reference",
                    v.scheme,
                    v.strategy,
                    arm,
                    label
                );
            }
            if arm != PLAIN {
                continue;
            }
            let digest = fnv1a(&reference.stream);
            if blessing {
                println!(
                    "Vector {{ scheme: \"{}\", strategy: SearchStrategy::{:?}, digest: 0x{:016x} }},",
                    v.scheme, v.strategy, digest
                );
            } else {
                assert_eq!(
                    digest, v.digest,
                    "{} {:?}: bitstream drifted from the committed golden digest",
                    v.scheme, v.strategy
                );
            }
        }
    }
}

/// The forced-dispatch kernel matrix: every golden vector re-encoded with
/// every available SIMD tier pinned via `OptConfig::kernels` must
/// reproduce the committed digest byte for byte, with identical
/// operation counts (so the paper's energy model sees the same inputs
/// regardless of the host's vector units). Decoder side, every tier must
/// reproduce pixel-identical frames from the golden streams.
#[test]
fn golden_digests_are_kernel_tier_invariant() {
    if std::env::var_os("PBPAIR_BLESS").is_some() {
        return; // Blessing happens against the scalar-checked test above.
    }
    let tiers = Kernels::available();
    assert!(
        tiers.contains(&pbpair_codec::KernelTier::Scalar),
        "the scalar reference tier must always be available"
    );
    for v in VECTORS {
        let mut reference: Option<(Vec<u8>, OpCounts, Vec<Frame>)> = None;
        for &tier in &tiers {
            let opt = OptConfig {
                kernels: Some(tier),
                ..OptConfig::default()
            };
            let Observed { stream, ops, .. } = observe(v.scheme, v.strategy, PLAIN, opt);
            assert_eq!(
                fnv1a(&stream),
                v.digest,
                "{} {:?}: tier {} drifted from the golden digest",
                v.scheme,
                v.strategy,
                tier
            );
            let decoded = decode_all(&stream, tier);
            match &reference {
                None => reference = Some((stream, ops, decoded)),
                Some((want_stream, want_ops, want_frames)) => {
                    assert_eq!(
                        &stream, want_stream,
                        "{} {:?}: tier {} bitstream diverged",
                        v.scheme, v.strategy, tier
                    );
                    assert_eq!(
                        &ops, want_ops,
                        "{} {:?}: tier {} op counts (sad_ops/energy inputs) diverged",
                        v.scheme, v.strategy, tier
                    );
                    assert_eq!(
                        &decoded, want_frames,
                        "{} {:?}: tier {} decoded pixels diverged",
                        v.scheme, v.strategy, tier
                    );
                }
            }
        }
    }
}
