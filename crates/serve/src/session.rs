//! One streaming session: the complete per-client loop.
//!
//! A [`Session`] owns every stage the single-clip eval pipeline runs —
//! synthetic source → PBPAIR encoder → RTP packetization (with optional
//! FEC) → lossy + corrupting channel → resilient decoder → PLR feedback
//! over its own lossy return link — and one arbiter,
//! [`arbitrate_intra_th`], that sets each frame's `Intra_Th` from three
//! inputs:
//!
//! | Source | Proposes | When |
//! |---|---|---|
//! | [`IntraThSource::Network`] | the session's one network proposer, fixed at construction: a [`DegradationController`] (PLR compensation, backoff while feedback is dark) or, for adaptive-FEC sessions, the [`RedundancyController`] (joint intra/parity split per GOP) | every frame |
//! | [`IntraThSource::Load`] | the fleet admission controller's floor ([`Session::set_load_floor`]): under overload, cheap high-intra encodes (intra decisions skip motion estimation) | while the fleet is over budget; 0 otherwise |
//! | [`IntraThSource::Quarantine`] | the staleness watchdog's [`QUARANTINE_FLOOR_TH`](crate::health::QUARANTINE_FLOOR_TH) | while [`HealthState::Quarantined`]; 0 otherwise |
//!
//! The rule is `th = max(network, load, quarantine)`; ties go to
//! quarantine, then load, then network. The frame step, the reported
//! [`Session::current_intra_th`] and the fleet report all read it, and
//! every frame records its winner in [`FrameOutcome::intra_th_source`].
//!
//! Feedback darkness has one clock: the frame of the last applied
//! report. The degradation backoff, the watchdog and
//! [`Session::feedback_dark`] all read it.
//!
//! Everything inside a session is seeded from (master seed, session id),
//! so a session's entire trajectory is deterministic no matter which
//! worker threads execute its frames, or in what interleaving with other
//! sessions.

use crate::chaos::{ChaosEvent, ChaosFault};
use crate::health::{HealthLedger, HealthState, StalenessWatchdog};
use crate::redundancy::{RedundancyConfig, RedundancyController, RedundancyDecision};
use pbpair::adapt::{DegradationConfig, DegradationController};
use pbpair::{AirPolicy, GopPolicy, PbpairConfig, PbpairPolicy, PgopPolicy};
use pbpair_codec::{
    DecodeReport, Decoder, Encoder, EncoderConfig, OpCounts, RdeConfig, RefreshPolicy,
};
use pbpair_energy::{DeviceProfile, EnergyModel, IPAQ_H5555, ZAURUS_SL5600};
use pbpair_media::metrics::QualityStats;
use pbpair_media::synth::{MotionClass, SyntheticSequence};
use pbpair_netsim::{
    reassemble_frame, reassemble_frame_damaged, BurstEstimator, ChannelSpec, CorruptingChannel,
    CorruptionProfile, FecOps, FecProtector, FecSpec, FeedbackLink, LossModel, Packetizer,
    UniformLoss, WindowPlrEstimator,
};
use pbpair_telemetry::{Counter, Telemetry};
use pbpair_trace::{Event as TraceEvent, Tracer};
use std::collections::VecDeque;

/// The receiver sends a feedback report every this many frames.
const FEEDBACK_INTERVAL: u64 = 5;
/// Return-path transit delay of a feedback report, in frame periods.
const FEEDBACK_DELAY: u64 = 2;
/// Loss rate of the feedback return path.
const FEEDBACK_PLR: f64 = 0.10;

/// The refresh scheme a session encodes with. PBPAIR is the adaptive
/// default; the fixed schemes are the paper's comparison points, run
/// through the same serving loop so scenario matrices can put them side
/// by side under identical channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionScheme {
    /// Adaptive PBPAIR (feedback-steered `Intra_Th`).
    Pbpair,
    /// Fixed GOP with N P-frames per I-frame.
    Gop(u32),
    /// AIR refreshing N macroblocks per frame.
    Air(usize),
    /// PGOP refreshing N columns per frame.
    Pgop(usize),
}

impl SessionScheme {
    /// Rejects the parameters the fixed schemes cannot run with.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            SessionScheme::Gop(0) => Err("GOP-0 has no P-frame per GOP".into()),
            SessionScheme::Pgop(0) => Err("PGOP-0 refreshes no column".into()),
            _ => Ok(()),
        }
    }

    /// Short display name matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            SessionScheme::Pbpair => "PBPAIR".to_string(),
            SessionScheme::Gop(n) => format!("GOP-{n}"),
            SessionScheme::Air(n) => format!("AIR-{n}"),
            SessionScheme::Pgop(n) => format!("PGOP-{n}"),
        }
    }
}

/// The device whose energy model prices a session's encode work — the
/// paper's two handheld evaluation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// iPAQ h5555 (XScale 400 MHz).
    Ipaq,
    /// Zaurus SL-5600 (cheaper SAD ops, pricier radio).
    Zaurus,
}

impl DeviceKind {
    /// The energy profile constants for this device.
    pub fn profile(&self) -> DeviceProfile {
        match self {
            DeviceKind::Ipaq => IPAQ_H5555,
            DeviceKind::Zaurus => ZAURUS_SL5600,
        }
    }

    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::Ipaq => "ipaq",
            DeviceKind::Zaurus => "zaurus",
        }
    }
}

/// Per-session knobs, normally filled in by the manager from a
/// fleet-level [`crate::ServeConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Session id (stable across the run; also picks the session's home
    /// worker in the fleet's pool).
    pub id: u32,
    /// Seed for every seeded component, already mixed per session.
    pub seed: u64,
    /// Source content class (sessions get diverse motion classes so
    /// per-frame cost is uneven — the load the scheduler must balance).
    pub class: MotionClass,
    /// Per-packet loss rate of the forward channel.
    pub plr: f64,
    /// Payload corruption intensity in `[0, 1]`.
    pub corruption: f64,
    /// FEC codec applied to the packet path; `None` disables FEC.
    pub fec: Option<FecSpec>,
    /// Joint intra/FEC redundancy controller. Carries its own codec
    /// family, so `fec` must be `None` when set.
    pub redundancy: Option<RedundancyConfig>,
    /// Payload MTU.
    pub mtu: usize,
    /// Anchor operating point for the degradation controller.
    pub base_intra_th: f64,
    /// Modeled transmission/pacing wait per frame, microseconds. This is
    /// the blocking network phase of a real streaming server: the worker
    /// sleeps, so waits from different sessions overlap when the pool has
    /// spare workers. Affects wall-clock timing only — never the
    /// deterministic outcome.
    pub pacing_us: u64,
    /// Forward-channel description from the scenario zoo; `None` keeps
    /// the classic uniform loss at [`SessionConfig::plr`]. Schedule
    /// channels also drive the feedback RTT per phase.
    pub channel: Option<ChannelSpec>,
    /// Refresh scheme the session encodes with.
    pub scheme: SessionScheme,
    /// Device whose energy model prices the encode work.
    pub device: DeviceKind,
    /// Joint rate–distortion–energy controller for this session's
    /// encoder ([`pbpair_codec::rde`]). `None` — and `Some` with both λ
    /// weights zero — keep the refresh scheme's decisions bit-identical
    /// to a plain encoder, so every committed digest is unchanged.
    pub rde: Option<RdeConfig>,
}

impl SessionConfig {
    /// A session at the paper's standard operating point: 10% packet
    /// loss, light corruption, no FEC, RTCP-ish feedback cadence.
    pub fn standard(id: u32, seed: u64) -> Self {
        SessionConfig {
            id,
            seed,
            class: MotionClass::all()[id as usize % 3],
            plr: 0.10,
            corruption: 0.2,
            fec: None,
            redundancy: None,
            mtu: pbpair_netsim::DEFAULT_MTU,
            base_intra_th: 0.9,
            pacing_us: 0,
            channel: None,
            scheme: SessionScheme::Pbpair,
            device: DeviceKind::Ipaq,
            rde: None,
        }
    }
}

/// What one frame step produced — the deterministic per-frame record the
/// admission controller and the report aggregate from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameOutcome {
    /// Encoding energy of this frame under the session's device model.
    pub encode_joules: f64,
    /// FEC encode/decode processing energy of this frame (0 without FEC).
    pub fec_joules: f64,
    /// Encoded size in bytes (before FEC overhead).
    pub encoded_bytes: u64,
    /// Bytes actually offered to the channel (with FEC overhead).
    pub sent_bytes: u64,
    /// Whether nothing usable arrived (whole-frame concealment).
    pub lost: bool,
    /// Whether the frame arrived damaged and went through resilient
    /// decode (false for clean or lost frames).
    pub damaged: bool,
    /// Whether FEC reconstructed at least one erased fragment of this
    /// frame (a block was actually *repaired*, not merely complete).
    pub fec_recovered: bool,
    /// Whether the decoder was stalled (chaos) and the display held.
    pub stalled: bool,
    /// `Intra_Th` in force for this frame.
    pub intra_th: f64,
    /// Which arbiter input set `intra_th`.
    pub intra_th_source: IntraThSource,
}

/// The lever that set a frame's `Intra_Th` (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntraThSource {
    /// The session's network proposer (degradation or redundancy
    /// controller).
    Network,
    /// The fleet admission controller's load floor.
    Load,
    /// The staleness watchdog's quarantine floor.
    Quarantine,
}

/// The session's one `Intra_Th` rule: `max(network, load, quarantine)`,
/// ties going to quarantine, then load, then network. Returns the
/// threshold and the input that set it.
pub fn arbitrate_intra_th(network: f64, load: f64, quarantine: f64) -> (f64, IntraThSource) {
    if quarantine >= load && quarantine >= network {
        (quarantine, IntraThSource::Quarantine)
    } else if load >= network {
        (load, IntraThSource::Load)
    } else {
        (network, IntraThSource::Network)
    }
}

/// Lifetime counters of one session (deterministic).
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Frames encoded and transmitted.
    pub frames_encoded: u64,
    /// Frames skipped by fleet-imposed frame-rate degradation.
    pub frames_rate_dropped: u64,
    /// Frames lost outright on the channel.
    pub frames_lost: u64,
    /// Frames delivered damaged.
    pub frames_damaged: u64,
    /// Frames where FEC reconstructed at least one erased fragment.
    pub fec_recoveries: u64,
    /// Lifetime FEC arithmetic ledger (all zero without FEC).
    pub fec: FecOps,
    /// FEC encode/decode processing energy total (Joules).
    pub fec_joules: f64,
    /// Encoded payload bytes.
    pub encoded_bytes: u64,
    /// Bytes offered to the channel (incl. FEC parity).
    pub sent_bytes: u64,
    /// Encoding energy total (Joules).
    pub encode_joules: f64,
    /// Frame slots the decoder spent stalled (chaos injection).
    pub frames_stalled: u64,
    /// Chaos faults applied to this session.
    pub chaos_injected: u64,
    /// Aggregate resilient-decode accounting.
    pub decode: DecodeReport,
}

/// The live policy behind a [`SessionScheme`]. PBPAIR keeps its concrete
/// type so the feedback loop can steer it (`set_plr`, `set_intra_th`,
/// `C^k` snapshots); fixed schemes ride behind the dyn trait.
enum SchemeDriver {
    Pbpair(PbpairPolicy),
    Fixed(Box<dyn RefreshPolicy + Send>),
}

impl SchemeDriver {
    fn as_dyn(&mut self) -> &mut dyn RefreshPolicy {
        match self {
            SchemeDriver::Pbpair(p) => p,
            SchemeDriver::Fixed(b) => b.as_mut(),
        }
    }

    /// The encoder's `C^k` expected-damage forecast in `[0, 1]`: the
    /// probability-weighted fraction of the picture a loss *now* would
    /// visibly damage. PBPAIR reads it off the committed correctness
    /// matrix (`1 − mean σ`); fixed refresh schemes carry no per-MB
    /// forecast and report the uninformative prior 0.5. The joint
    /// redundancy controller re-rates FEC with it.
    fn expected_damage(&self) -> f64 {
        match self {
            SchemeDriver::Pbpair(policy) => 1.0 - policy.matrix().mean_sigma(),
            SchemeDriver::Fixed(_) => 0.5,
        }
    }
}

/// The session's single network-side `Intra_Th` proposer, fixed at
/// construction.
enum NetworkProposer {
    /// PLR compensation with staleness backoff (sessions without
    /// adaptive FEC).
    Degradation(DegradationController),
    /// Joint intra/FEC controller (adaptive-FEC sessions): also owns the
    /// parity depth of the session's protector.
    Redundancy(RedundancyController),
}

impl NetworkProposer {
    fn intra_th(&self) -> f64 {
        match self {
            NetworkProposer::Degradation(c) => c.intra_th(),
            NetworkProposer::Redundancy(c) => c.decision().intra_th,
        }
    }

    fn redundancy(&self) -> Option<&RedundancyController> {
        match self {
            NetworkProposer::Degradation(_) => None,
            NetworkProposer::Redundancy(c) => Some(c),
        }
    }
}

/// One live streaming session. See the module docs for the loop.
pub struct Session {
    cfg: SessionConfig,
    source: SyntheticSequence,
    driver: SchemeDriver,
    encoder: Encoder,
    decoder: Decoder,
    packetizer: Packetizer,
    fec: Option<FecProtector>,
    /// The network input of the `Intra_Th` arbiter.
    network: NetworkProposer,
    channel: CorruptingChannel,
    feedback: FeedbackLink,
    plr_estimator: WindowPlrEstimator,
    /// Receiver-side *pre-repair packet*-loss estimator. The frame-level
    /// `plr_estimator` above sees post-FEC outcomes, so a redundancy
    /// controller steering on it would read its own repairs as a clean
    /// channel and oscillate; this one counts raw wire erasures.
    packet_plr_estimator: WindowPlrEstimator,
    /// Receiver-side erasure-burst-length estimator (PRNG-free; feeds
    /// the `burst` field of every feedback report).
    burst_estimator: BurstEstimator,
    /// Health state machine; its quarantine floor is an arbiter input.
    watchdog: StalenessWatchdog,
    energy: EnergyModel,
    ops_snapshot: OpCounts,
    /// Admission-control floor, the arbiter's load input (0 when idle).
    load_floor: f64,
    /// Frame of the last applied feedback report — the session's one
    /// darkness clock (`None` before the first report).
    last_report: Option<u64>,
    /// Pending chaos events, in firing order.
    chaos: VecDeque<ChaosEvent>,
    /// Receiver feedback suppressed until this frame (chaos blackout).
    blackout_until: u64,
    /// Decoder held until this frame (chaos stall).
    stall_until: u64,
    /// Every packet erased until this frame (chaos burst kill).
    kill_until: u64,
    /// Consecutive whole-frame losses ending at the previous slot (the
    /// watchdog's display-starvation signal).
    lost_streak: u64,
    /// Next frame index to encode.
    frame: u64,
    quality: QualityStats,
    stats: SessionStats,
    shed: bool,
    /// Session-level telemetry handles; `None` until
    /// [`Session::set_telemetry`]. The encoder, decoder, and channel
    /// carry their own handles wired by the same call.
    tel: Option<SessionTelemetry>,
    /// Causal tracer; disabled until [`Session::set_tracer`]. The
    /// encoder, decoder, and forward channel share clones of it.
    trace: Tracer,
}

/// Telemetry the session flushes per frame slot — all deterministic
/// quantities (frame outcomes are a pure function of the session seed).
#[derive(Debug)]
struct SessionTelemetry {
    frames_encoded: Counter,
    frames_rate_dropped: Counter,
    frames_lost: Counter,
    frames_damaged: Counter,
    fec_recovered: Counter,
    /// `serve.intra_th_source.*`, in [`IntraThSource`] declaration order.
    intra_th_source: [Counter; 3],
    /// `fec.*` counters; created only for FEC-enabled sessions so
    /// FEC-off telemetry dumps (and their goldens) are unchanged.
    fec: Option<FecTelemetry>,
}

/// Per-frame FEC ledger flushes (`fec.*` namespace).
#[derive(Debug)]
struct FecTelemetry {
    blocks_repaired: Counter,
    blocks_failed: Counter,
    parity_bytes: Counter,
    xor_bytes: Counter,
    gf_mul_bytes: Counter,
}

impl SessionTelemetry {
    fn new(tel: &Telemetry, fec_enabled: bool) -> Self {
        SessionTelemetry {
            frames_encoded: tel.counter("serve.frames_encoded"),
            frames_rate_dropped: tel.counter("serve.frames_rate_dropped"),
            frames_lost: tel.counter("serve.frames_lost"),
            frames_damaged: tel.counter("serve.frames_damaged"),
            fec_recovered: tel.counter("serve.fec_recovered"),
            intra_th_source: ["network", "load", "quarantine"]
                .map(|s| tel.counter(&format!("serve.intra_th_source.{s}"))),
            fec: fec_enabled.then(|| FecTelemetry {
                blocks_repaired: tel.counter("fec.blocks_repaired"),
                blocks_failed: tel.counter("fec.blocks_failed"),
                parity_bytes: tel.counter("fec.parity_bytes"),
                xor_bytes: tel.counter("fec.xor_bytes"),
                gf_mul_bytes: tel.counter("fec.gf_mul_bytes"),
            }),
        }
    }
}

impl Session {
    /// Builds a session; all components are seeded from `cfg.seed` with
    /// distinct stream constants so they do not correlate.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid scheme, PBPAIR or controller
    /// configuration.
    pub fn new(cfg: SessionConfig) -> Result<Self, String> {
        cfg.scheme.validate()?;
        let sub = |stream: u64| splitmix(cfg.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let format = pbpair_media::VideoFormat::QCIF;
        let driver = match cfg.scheme {
            SessionScheme::Pbpair => SchemeDriver::Pbpair(PbpairPolicy::new(
                format,
                PbpairConfig {
                    intra_th: cfg.base_intra_th,
                    plr: cfg.plr,
                    ..PbpairConfig::default()
                },
            )?),
            SessionScheme::Gop(n) => SchemeDriver::Fixed(Box::new(GopPolicy::new(n))),
            SessionScheme::Air(n) => SchemeDriver::Fixed(Box::new(AirPolicy::new(format, n))),
            SessionScheme::Pgop(n) => SchemeDriver::Fixed(Box::new(PgopPolicy::new(format, n))),
        };
        // One FEC source of truth: the redundancy controller carries its
        // own family and is then also the network proposer.
        let (network, fec_spec) = match cfg.redundancy {
            Some(rc) => {
                if cfg.fec.is_some() {
                    return Err("redundancy carries its own fec family; leave fec unset".into());
                }
                let ctl = RedundancyController::new(rc, cfg.plr, cfg.base_intra_th)?;
                let d = ctl.decision();
                let spec = (d.parity > 0).then(|| ctl.family().with_parity(d.parity));
                (NetworkProposer::Redundancy(ctl), spec)
            }
            None => {
                let ctl = DegradationController::new(DegradationConfig {
                    base_th: cfg.base_intra_th,
                    base_plr: cfg.plr,
                    ..DegradationConfig::default()
                })?;
                (NetworkProposer::Degradation(ctl), cfg.fec)
            }
        };
        let fec = fec_spec.map(FecProtector::new).transpose()?;
        let forward: Box<dyn LossModel> = match &cfg.channel {
            Some(spec) => spec.build_loss(sub(2))?,
            None => Box::new(UniformLoss::new(cfg.plr, sub(2))),
        };
        let feedback = FeedbackLink::new(
            Box::new(UniformLoss::new(FEEDBACK_PLR, sub(4))),
            FEEDBACK_DELAY,
        );
        Ok(Session {
            source: SyntheticSequence::for_class(cfg.class, sub(1)),
            driver,
            encoder: Encoder::new(EncoderConfig {
                rde: cfg.rde,
                ..EncoderConfig::default()
            }),
            decoder: Decoder::new(format),
            packetizer: Packetizer::new(cfg.mtu),
            fec,
            network,
            channel: CorruptingChannel::new(
                forward,
                CorruptionProfile::with_intensity(cfg.corruption),
                sub(3),
            ),
            feedback,
            plr_estimator: WindowPlrEstimator::new(30),
            packet_plr_estimator: WindowPlrEstimator::new(240),
            burst_estimator: BurstEstimator::new(0.2),
            watchdog: StalenessWatchdog::new(),
            energy: EnergyModel::new(cfg.device.profile()),
            ops_snapshot: OpCounts::default(),
            load_floor: 0.0,
            last_report: None,
            chaos: VecDeque::new(),
            blackout_until: 0,
            stall_until: 0,
            kill_until: 0,
            lost_streak: 0,
            frame: 0,
            quality: QualityStats::new(),
            stats: SessionStats::default(),
            shed: false,
            tel: None,
            trace: Tracer::disabled(),
            cfg,
        })
    }

    /// Schedules chaos faults against this session (sorted by frame;
    /// events already past the session's frame clock never fire).
    pub fn set_chaos(&mut self, mut events: Vec<ChaosEvent>) {
        events.sort_by_key(|e| e.at_frame);
        self.chaos = events.into();
    }

    /// Attaches a telemetry context to the session and every pipeline
    /// stage it owns (encoder, decoder, forward channel). Pass a handle
    /// pre-bound to a shard (see `Telemetry::shard`) so concurrent
    /// sessions write to disjoint cache lines; totals are identical for
    /// any sharding. A disabled context detaches everything.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.encoder.set_telemetry(tel);
        self.decoder.set_telemetry(tel);
        self.channel.set_telemetry(tel);
        let fec_enabled = self.fec_enabled();
        self.tel = tel
            .is_enabled()
            .then(|| SessionTelemetry::new(tel, fec_enabled));
    }

    /// Attaches a causal tracer to the session and every stage it owns.
    /// The encoder then records per-MB coding provenance, the channel
    /// per-packet loss/corruption events, the decoder
    /// concealment/resync events, and the session itself the `C^k`
    /// snapshots and per-MB pixel cost the replay joins against.
    pub fn set_tracer(&mut self, trace: &Tracer) {
        self.encoder.set_tracer(trace);
        self.decoder.set_tracer(trace);
        self.channel.set_tracer(trace);
        self.trace = trace.clone();
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Decoder-side quality accounting.
    pub fn quality(&self) -> &QualityStats {
        &self.quality
    }

    /// The receiver's current PLR estimate.
    pub fn plr_estimate(&self) -> f64 {
        self.plr_estimator.estimate()
    }

    /// The receiver's current erasure-burst-length estimate (packets).
    pub fn burst_estimate(&self) -> f64 {
        self.burst_estimator.estimate()
    }

    /// Whether any FEC (fixed or adaptive) protects this session.
    pub fn fec_enabled(&self) -> bool {
        self.fec.is_some() || self.network.redundancy().is_some()
    }

    /// The codec currently on the packet path (`None` when FEC is off —
    /// including adaptive GOPs where the controller chose zero parity).
    pub fn fec_spec(&self) -> Option<FecSpec> {
        self.fec.as_ref().map(|p| p.spec())
    }

    /// Stable codec label for reports: the active codec, or for an
    /// adaptive session currently at zero parity, the family at rate 0.
    pub fn fec_label(&self) -> Option<String> {
        self.fec_spec().map(|s| s.label()).or_else(|| {
            self.network
                .redundancy()
                .map(|c| c.family().with_parity(c.decision().parity).label())
        })
    }

    /// The joint redundancy decision in force, if the controller runs.
    pub fn redundancy_decision(&self) -> Option<RedundancyDecision> {
        self.network.redundancy().map(|c| c.decision())
    }

    /// The arbitrated `Intra_Th` in force: what the last frame encoded
    /// at, until the next frame step moves an input.
    pub fn current_intra_th(&self) -> f64 {
        self.arbitrate().0
    }

    /// [`arbitrate_intra_th`] over the session's three inputs as they
    /// stand.
    fn arbitrate(&self) -> (f64, IntraThSource) {
        arbitrate_intra_th(
            self.network.intra_th(),
            self.load_floor,
            self.watchdog.floor_th(),
        )
    }

    /// The session's current health classification.
    pub fn health(&self) -> HealthState {
        self.watchdog.state()
    }

    /// The session's health transition log.
    pub fn health_ledger(&self) -> &HealthLedger {
        self.watchdog.ledger()
    }

    /// Consecutive whole-frame losses ending at the last processed slot
    /// (resets to zero the moment a frame lands).
    pub fn lost_streak(&self) -> u64 {
        self.lost_streak
    }

    /// Feedback staleness (frames since the last applied report) as of
    /// the last processed frame slot; `None` before any report arrives.
    pub fn feedback_dark(&self) -> Option<u64> {
        self.dark_at(self.frame.saturating_sub(1))
    }

    /// Frames since the last applied report at frame `now`.
    fn dark_at(&self, now: u64) -> Option<u64> {
        self.last_report.map(|f| now.saturating_sub(f))
    }

    /// Most recent displayed-frame PSNR in milli-dB, clamped to 120 dB
    /// because identical frames report infinite PSNR. Zero before the
    /// first frame.
    pub fn last_psnr_mdb(&self) -> u64 {
        self.quality
            .psnr_series()
            .last()
            .map(|p| (p.clamp(0.0, 120.0) * 1000.0).round() as u64)
            .unwrap_or(0)
    }

    /// Applies a fleet-level SLO alert to this session's watchdog. A
    /// resulting quarantine reaches the arbiter through the watchdog
    /// state, so an alerting session encodes conservatively until the
    /// ledger clears it.
    pub fn on_slo_alert(&mut self, frame: u64, slo: &str) {
        self.watchdog.alert(frame, slo);
    }

    /// Sets the fleet-imposed threshold floor (admission control).
    pub fn set_load_floor(&mut self, th: f64) {
        self.load_floor = th.clamp(0.0, 1.0);
    }

    /// Marks the session shed; it will not be stepped again.
    pub fn shed(&mut self) {
        self.shed = true;
    }

    /// Whether the session has been shed.
    pub fn is_shed(&self) -> bool {
        self.shed
    }

    /// Frames encoded so far.
    pub fn frames_encoded(&self) -> u64 {
        self.stats.frames_encoded
    }

    /// Skips one source frame (fleet-imposed frame-rate degradation).
    /// The viewer keeps watching the last displayed picture while the
    /// scene moves on, so the quality ledger charges the drop honestly.
    pub fn drop_frame(&mut self) {
        let original = self.source.next_frame();
        let held = self.decoder.last_frame().clone();
        self.quality.record(&original, &held);
        self.stats.frames_rate_dropped += 1;
        if let Some(t) = &self.tel {
            t.frames_rate_dropped.inc(1);
        }
    }

    /// Runs one frame through the whole loop. Returns the deterministic
    /// outcome record.
    pub fn step_frame(&mut self) -> FrameOutcome {
        let now = self.frame;
        self.frame += 1;

        // Chaos activation: fire every fault scheduled at or before now.
        while self.chaos.front().is_some_and(|e| e.at_frame <= now) {
            let event = self.chaos.pop_front().expect("front checked");
            self.stats.chaos_injected += 1;
            match event.fault {
                ChaosFault::FeedbackBlackout { frames } => {
                    self.blackout_until = now.saturating_add(frames);
                }
                ChaosFault::DecoderStall { frames } => {
                    self.stall_until = now.saturating_add(frames)
                }
                ChaosFault::BurstKill { frames } => self.kill_until = now.saturating_add(frames),
                ChaosFault::ChannelSwap { spec } => {
                    let seed =
                        splitmix(self.cfg.seed ^ 0xC4A0_5EED ^ now.wrapping_mul(0x9e37_79b9));
                    let model = spec
                        .build_loss(seed)
                        .expect("chaos specs are validated at plan construction");
                    let _ = self.channel.swap_model(model);
                }
            }
        }

        // Advance the channel's frame clock (phase switches for mobility
        // schedules) and apply the phase's feedback RTT, if the channel
        // constrains it.
        self.channel.on_frame(now);
        if let Some(rtt) = self.cfg.channel.as_ref().and_then(|c| c.rtt_at(now)) {
            self.feedback.set_delay(rtt);
        }

        // Encoder side: feedback in, threshold out.
        if let Some(report) = self.feedback.poll(now) {
            self.last_report = Some(now);
            match &mut self.network {
                NetworkProposer::Degradation(c) => c.on_feedback(report.plr),
                NetworkProposer::Redundancy(c) => c.on_feedback(report.packet_plr, report.burst),
            }
            if let SchemeDriver::Pbpair(policy) = &mut self.driver {
                policy.set_plr(report.plr.clamp(0.0, 0.999));
            }
        }
        let stalled = now < self.stall_until;
        let dark = self.dark_at(now);
        self.watchdog.observe(now, dark, stalled, self.lost_streak);
        // The network proposer moves: the degradation controller every
        // frame; the joint controller at GOP boundaries, re-rating the
        // protector when parity moves.
        match &mut self.network {
            NetworkProposer::Degradation(c) => {
                c.tick(dark);
            }
            NetworkProposer::Redundancy(ctl) if now.is_multiple_of(ctl.gop()) => {
                let d = ctl.decide(self.driver.expected_damage());
                let want = (d.parity > 0).then(|| ctl.family().with_parity(d.parity));
                if want != self.fec.as_ref().map(|p| p.spec()) {
                    self.fec = want.map(|spec| {
                        FecProtector::new(spec)
                            .expect("a validated family re-rated within max_parity stays valid")
                    });
                }
            }
            NetworkProposer::Redundancy(_) => {}
        }
        let (th, intra_th_source) = self.arbitrate();
        if let SchemeDriver::Pbpair(policy) = &mut self.driver {
            policy.set_intra_th(th);
        }

        // Encode.
        let original = self.source.next_frame();
        let encoded = self.encoder.encode_frame(&original, self.driver.as_dyn());
        let frame_ops = *self.encoder.ops() - self.ops_snapshot;
        self.ops_snapshot = *self.encoder.ops();
        let encode_joules = self.energy.encoding_energy(&frame_ops).get();
        // Publish the frame index for stages that can't know it (the
        // decoder), and snapshot the committed C^k predictions the
        // calibration scorer tests against ground truth.
        self.trace.set_frame(encoded.index);
        if let SchemeDriver::Pbpair(policy) = &self.driver {
            self.trace
                .record_sigma(encoded.index, policy.matrix().sigma_values());
        }

        // Packetize (+ FEC) and transmit at packet granularity.
        let packets = self.packetizer.packetize(encoded.index, &encoded.data);
        let mut frame_fec = FecOps::default();
        let sent = match &self.fec {
            Some(fec) => fec.protect(&packets, &mut frame_fec),
            None => packets,
        };
        let sent_bytes: u64 = sent.iter().map(|p| p.len() as u64).sum();
        if self.cfg.pacing_us > 0 {
            // The blocking transmission phase. Wall-clock only: the
            // channel outcome below is drawn from seeded state.
            std::thread::sleep(std::time::Duration::from_micros(self.cfg.pacing_us));
        }
        let mut survivors = self.channel.transmit_packets(&sent);
        if now < self.kill_until {
            // Burst-aligned kill: the whole frame dies at its picture
            // header, first fragment included.
            survivors.clear();
        }

        // Receiver-side burst bookkeeping: per-packet loss flags derived
        // from what was offered vs what materialized (seq identifies
        // each packet; parity packets count — they ride the same
        // channel). PRNG-free, so it is always on.
        let survivor_seqs: Vec<u32> = survivors.iter().map(|p| p.seq).collect();
        for p in &sent {
            let erased = !survivor_seqs.contains(&p.seq);
            self.burst_estimator.record(erased);
            self.packet_plr_estimator.record(erased);
        }

        // Receiver: FEC repair of every recoverable block, best-effort
        // reassembly of the rest, resilient decode of whatever
        // materialized. A partial repair still shrinks the damage.
        let mut fec_recovered = false;
        let bytes = match &self.fec {
            Some(fec) => match fec.recover(&survivors, &mut frame_fec) {
                Some(rec) => {
                    fec_recovered = frame_fec.blocks_repaired > 0;
                    if rec.complete {
                        reassemble_frame(&rec.data)
                    } else {
                        reassemble_frame_damaged(&rec.data)
                    }
                }
                None => reassemble_frame_damaged(&survivors),
            },
            None => reassemble_frame_damaged(&survivors),
        };
        let lost = bytes.is_none();
        let mut damaged = false;
        let displayed = if stalled {
            // The decoder is wedged: arriving data is discarded and the
            // viewer keeps watching the last picture.
            self.stats.frames_stalled += 1;
            self.decoder.last_frame().clone()
        } else {
            match &bytes {
                Some(data) => {
                    let (frame, report) = self.decoder.decode_frame_resilient(data);
                    damaged = report.any_damage();
                    self.stats.decode.absorb(&report);
                    frame
                }
                None => self.decoder.conceal_lost_frame(),
            }
        };
        self.quality.record(&original, &displayed);
        if self.trace.is_enabled() {
            if fec_recovered {
                self.trace.emit(TraceEvent::FecRecovered {
                    frame: encoded.index as u32,
                });
            }
            // Per-MB pixel cost ground truth: receiver picture vs the
            // encoder's own reconstruction (what a loss-free receiver
            // would display), so blast radii price only channel damage.
            let grid = pbpair_media::MbGrid::new(pbpair_media::VideoFormat::QCIF);
            let enc_y = self.encoder.reconstructed().y();
            let dec_y = displayed.y();
            let sad: Vec<u64> = grid
                .iter()
                .map(|mb| {
                    let (x, y) = mb.luma_origin();
                    dec_y.sad_colocated(enc_y, x, y, 16, 16)
                })
                .collect();
            self.trace.record_mb_sad(encoded.index, sad);
        }

        // Receiver-side PLR estimation and feedback (suppressed during a
        // chaos blackout — the receiver cannot reach back at all).
        self.plr_estimator.record(lost);
        if now.is_multiple_of(FEEDBACK_INTERVAL) && now >= self.blackout_until {
            self.feedback.send(
                now,
                self.plr_estimator.estimate(),
                self.packet_plr_estimator.estimate(),
                self.burst_estimator.estimate(),
            );
        }

        // Ledger.
        let fec_joules = self.energy.fec_energy(&frame_fec).get();
        self.lost_streak = if lost { self.lost_streak + 1 } else { 0 };
        self.stats.frames_encoded += 1;
        self.stats.frames_lost += lost as u64;
        self.stats.frames_damaged += damaged as u64;
        self.stats.fec_recoveries += fec_recovered as u64;
        self.stats.fec += frame_fec;
        self.stats.fec_joules += fec_joules;
        self.stats.encoded_bytes += encoded.data.len() as u64;
        self.stats.sent_bytes += sent_bytes;
        self.stats.encode_joules += encode_joules;

        if let Some(t) = &self.tel {
            t.frames_encoded.inc(1);
            t.frames_lost.inc(lost as u64);
            t.frames_damaged.inc(damaged as u64);
            t.fec_recovered.inc(fec_recovered as u64);
            t.intra_th_source[intra_th_source as usize].inc(1);
            if let Some(f) = &t.fec {
                f.blocks_repaired.inc(frame_fec.blocks_repaired);
                f.blocks_failed.inc(frame_fec.blocks_failed);
                f.parity_bytes.inc(frame_fec.parity_bytes);
                f.xor_bytes.inc(frame_fec.xor_bytes);
                f.gf_mul_bytes.inc(frame_fec.gf_mul_bytes);
            }
        }

        FrameOutcome {
            encode_joules,
            fec_joules,
            encoded_bytes: encoded.data.len() as u64,
            sent_bytes,
            lost,
            damaged,
            fec_recovered,
            stalled,
            intra_th: th,
            intra_th_source,
        }
    }
}

/// SplitMix64 finalizer — decorrelates per-stream seeds derived from one
/// master seed.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cfg: SessionConfig, frames: u64) -> (SessionStats, Vec<f64>) {
        let mut s = Session::new(cfg).unwrap();
        for _ in 0..frames {
            s.step_frame();
        }
        (s.stats().clone(), s.quality().psnr_series().to_vec())
    }

    #[test]
    fn session_is_deterministic() {
        let cfg = SessionConfig::standard(3, 99);
        let (a_stats, a_psnr) = run(cfg.clone(), 24);
        let (b_stats, b_psnr) = run(cfg, 24);
        assert_eq!(a_psnr, b_psnr);
        assert_eq!(a_stats.frames_lost, b_stats.frames_lost);
        assert_eq!(a_stats.encoded_bytes, b_stats.encoded_bytes);
        assert_eq!(a_stats.encode_joules, b_stats.encode_joules);
    }

    #[test]
    fn different_sessions_diverge() {
        let (a, _) = run(SessionConfig::standard(0, 7), 12);
        let (b, _) = run(SessionConfig::standard(1, 7), 12);
        // Different ids → different classes and seeds → different bytes.
        assert_ne!(a.encoded_bytes, b.encoded_bytes);
    }

    #[test]
    fn lossy_session_records_losses_and_survives() {
        let mut cfg = SessionConfig::standard(0, 5);
        cfg.plr = 0.35;
        cfg.corruption = 0.5;
        let (stats, psnr) = run(cfg, 40);
        assert_eq!(stats.frames_encoded, 40);
        assert_eq!(psnr.len(), 40);
        assert!(stats.frames_lost + stats.frames_damaged > 0);
        assert!(stats.encode_joules > 0.0);
    }

    #[test]
    fn fec_session_recovers_fragments() {
        let mut cfg = SessionConfig::standard(0, 11);
        cfg.plr = 0.10;
        cfg.corruption = 0.0;
        cfg.mtu = 200; // force multi-fragment frames so FEC has groups
        cfg.fec = Some(FecSpec::Xor { k: 3 });
        let mut s = Session::new(cfg).unwrap();
        for _ in 0..60 {
            s.step_frame();
        }
        assert!(
            s.stats().fec_recoveries > 0,
            "10% packet loss over 60 multi-fragment frames must exercise FEC"
        );
        // Parity overhead must show up on the wire.
        assert!(s.stats().sent_bytes > s.stats().encoded_bytes);
    }

    #[test]
    fn fec_beats_no_fec_on_fragment_loss() {
        let base = {
            let mut c = SessionConfig::standard(0, 21);
            c.plr = 0.08;
            c.corruption = 0.0;
            c.mtu = 250;
            c
        };
        let mut with = base.clone();
        with.fec = Some(FecSpec::Xor { k: 3 });
        let (no_fec, _) = run(base, 80);
        let (fec, _) = run(with, 80);
        assert!(
            fec.frames_lost < no_fec.frames_lost,
            "fec {} vs plain {}",
            fec.frames_lost,
            no_fec.frames_lost
        );
    }

    #[test]
    fn load_floor_raises_intra_th_and_cuts_energy() {
        let cfg = SessionConfig::standard(1, 13);
        let mut free = Session::new(cfg.clone()).unwrap();
        let mut capped = Session::new(cfg).unwrap();
        capped.set_load_floor(0.999);
        let mut free_j = 0.0;
        let mut capped_j = 0.0;
        for _ in 0..12 {
            free_j += free.step_frame().encode_joules;
            let out = capped.step_frame();
            assert!(out.intra_th >= 0.999);
            assert_eq!(out.intra_th_source, IntraThSource::Load);
            capped_j += out.encode_joules;
        }
        assert!(
            capped_j < free_j,
            "high-intra floor must cut encode energy: {capped_j} vs {free_j}"
        );
    }

    #[test]
    fn drop_frame_charges_quality_but_no_energy() {
        let mut s = Session::new(SessionConfig::standard(2, 17)).unwrap();
        s.step_frame();
        let j = s.stats().encode_joules;
        s.drop_frame();
        assert_eq!(s.stats().frames_rate_dropped, 1);
        assert_eq!(
            s.stats().encode_joules,
            j,
            "a dropped frame encodes nothing"
        );
        assert_eq!(s.quality().frames(), 2, "the viewer still saw a frame slot");
    }

    #[test]
    fn conflicting_fec_sources_rejected() {
        let mut cfg = SessionConfig::standard(0, 1);
        cfg.fec = Some(FecSpec::Rs { k: 4, r: 2 });
        cfg.redundancy = Some(RedundancyConfig::new(FecSpec::Rs { k: 4, r: 1 }));
        assert!(Session::new(cfg).is_err());
        let mut cfg = SessionConfig::standard(0, 1);
        cfg.fec = Some(FecSpec::Rs { k: 200, r: 60 });
        assert!(Session::new(cfg).is_err(), "invalid spec must not build");
    }

    #[test]
    fn rs_session_charges_fec_ops_and_energy() {
        let mut cfg = SessionConfig::standard(0, 31);
        cfg.plr = 0.10;
        cfg.corruption = 0.0;
        cfg.mtu = 200;
        cfg.fec = Some(FecSpec::Rs { k: 4, r: 2 });
        let mut s = Session::new(cfg).unwrap();
        for _ in 0..60 {
            s.step_frame();
        }
        let stats = s.stats();
        assert!(stats.fec.blocks_encoded > 0);
        assert!(stats.fec.parity_bytes > 0);
        assert!(stats.fec.gf_mul_bytes > 0, "RS parity is GF(256) work");
        assert!(stats.fec_joules > 0.0);
        assert!(
            stats.fec_recoveries > 0,
            "10% loss over 60 multi-fragment frames must repair something"
        );
        assert!(stats.sent_bytes > stats.encoded_bytes);
    }

    #[test]
    fn parity_bytes_hit_the_wire_exactly_once() {
        // Same seed with and without FEC: frame 0 is encoded before any
        // feedback diverges the trajectories, so the wire-byte delta of
        // that frame must be exactly the parity bytes the ops ledger
        // charged — parity is neither double-counted nor free.
        let base = {
            let mut c = SessionConfig::standard(0, 77);
            c.corruption = 0.0;
            c.mtu = 200;
            c
        };
        let mut with = base.clone();
        with.fec = Some(FecSpec::Rs { k: 4, r: 2 });
        let mut plain = Session::new(base).unwrap();
        let mut protected = Session::new(with).unwrap();
        let a = plain.step_frame();
        let b = protected.step_frame();
        assert_eq!(a.encoded_bytes, b.encoded_bytes, "same seed, same encode");
        let parity = protected.stats().fec.parity_bytes;
        assert!(parity > 0);
        assert_eq!(
            b.sent_bytes,
            a.sent_bytes + parity,
            "wire delta must equal charged parity bytes exactly"
        );
    }

    #[test]
    fn burst_estimate_reaches_the_controller() {
        let mut cfg = SessionConfig::standard(0, 51);
        cfg.plr = 0.20;
        cfg.corruption = 0.0;
        cfg.mtu = 200;
        let mut s = Session::new(cfg).unwrap();
        for _ in 0..40 {
            s.step_frame();
        }
        assert!(
            s.burst_estimate() >= 1.0,
            "estimator must have a run-length estimate"
        );
    }

    #[test]
    fn arbiter_takes_the_max_and_breaks_ties_toward_the_floors() {
        use IntraThSource::{Load, Network, Quarantine};
        let grid = [0.0f64, 0.5, 0.9, 0.99, 1.0];
        for n in grid {
            for l in grid {
                for q in grid {
                    let th = n.max(l).max(q);
                    let want = [(q, Quarantine), (l, Load), (n, Network)]
                        .into_iter()
                        .find(|&(v, _)| v == th)
                        .unwrap();
                    assert_eq!(arbitrate_intra_th(n, l, q), want, "({n}, {l}, {q})");
                }
            }
        }
    }

    #[test]
    fn adaptive_session_decides_replays_and_reports_its_threshold() {
        // The benchmark's burst-fleet session. The joint controller is
        // its only network proposer, so the reported threshold is the
        // one every frame was encoded at.
        let mut cfg = SessionConfig::standard(0, 2005);
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
        let run_once = || {
            let mut s = Session::new(cfg.clone()).unwrap();
            for _ in 0..43 {
                let out = s.step_frame();
                let d = s.redundancy_decision().expect("controller runs");
                assert_eq!(s.current_intra_th(), out.intra_th);
                assert_eq!(out.intra_th, d.intra_th);
                assert_eq!(out.intra_th_source, IntraThSource::Network);
            }
            assert!(s.fec_enabled());
            let d = s.redundancy_decision().expect("controller runs");
            (s.stats().clone(), s.quality().psnr_series().to_vec(), d)
        };
        let (a_stats, a_psnr, a_d) = run_once();
        let (b_stats, b_psnr, b_d) = run_once();
        assert_eq!(a_psnr, b_psnr, "adaptive FEC must replay");
        assert_eq!(a_d, b_d);
        assert_eq!(a_stats.fec, b_stats.fec);
        assert!(
            a_d.parity >= 1,
            "burst loss must keep the controller protecting"
        );
        assert!(a_stats.fec.blocks_encoded > 0);
    }
}
