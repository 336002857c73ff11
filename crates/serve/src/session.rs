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
//! quarantine, then load, then network. The frame step and the
//! `final_intra_th` of [`Session::report`] read it, and every frame
//! records its winner in [`FrameOutcome::intra_th_source`].
//!
//! Feedback darkness has one clock: the frame of the last applied
//! report. The degradation backoff, the watchdog and
//! [`Session::feedback_dark`] all read it.
//!
//! A session is built from the fleet's [`ServeConfig`] and its id, and
//! everything inside it is seeded from (master seed, session id), so a
//! session's entire trajectory is deterministic no matter which worker
//! threads execute its frames, or in what interleaving with other
//! sessions. Its counters live in the [`SessionReport`] it keeps, which
//! [`Session::report`] completes and returns.

use crate::chaos::{ChaosEvent, ChaosFault};
use crate::health::{HealthLedger, HealthState, StalenessWatchdog};
use crate::manager::ServeConfig;
use crate::redundancy::RedundancyController;
use crate::report::SessionReport;
use pbpair::adapt::{DegradationConfig, DegradationController};
use pbpair::{AirPolicy, GopPolicy, PbpairConfig, PbpairPolicy, PgopPolicy};
use pbpair_codec::{DecodeReport, Decoder, Encoder, EncoderConfig, OpCounts, RefreshPolicy};
use pbpair_energy::{DeviceProfile, EnergyModel, IPAQ_H5555, ZAURUS_SL5600};
use pbpair_media::metrics::QualityStats;
use pbpair_media::synth::{MotionClass, SyntheticSequence};
use pbpair_netsim::{
    reassemble_frame_damaged, BurstEstimator, ChannelSpec, CorruptingChannel, CorruptionProfile,
    FecOps, FecProtector, FeedbackLink, LossModel, Packetizer, UniformLoss, WindowPlrEstimator,
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
/// Session `id`'s seed is the fleet seed plus `(id + 1)` times this odd
/// constant.
const SESSION_SEED_STEP: u64 = 0x2545_f491_4f6c_dd1d;

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

/// What one frame step produced — the deterministic per-frame record the
/// admission controller and the report aggregate from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameOutcome {
    /// Encoding energy of this frame under the session's device model.
    pub encode_joules: f64,
    /// FEC encode/decode processing energy of this frame (0 without FEC).
    pub fec_joules: f64,
    /// Whether nothing usable arrived (whole-frame concealment).
    pub lost: bool,
    /// Whether the frame arrived damaged and went through resilient
    /// decode (false for clean or lost frames).
    pub damaged: bool,
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
    /// The session's seed, mixed from the fleet seed and the session id.
    seed: u64,
    /// The forward-channel description in force: the fleet's, until a
    /// chaos [`ChaosFault::ChannelSwap`] replaces it together with the
    /// loss model built from it. Schedule channels set the feedback RTT
    /// per phase. `None` is uniform loss at [`ServeConfig::plr`].
    channel_spec: Option<ChannelSpec>,
    /// Modeled transmission wait per frame ([`ServeConfig::pacing_us`]).
    pacing_us: u64,
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
    /// The report's counters, labels and shed flag, kept as the frames
    /// run; [`Session::report`] fills in the rest.
    ledger: SessionReport,
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
    /// Builds session `id` of the fleet `cfg` describes. The session
    /// seed, content class, device and chaos events derive from
    /// `(cfg, id)`; every other setting is `cfg`'s own. All components
    /// are seeded from the session seed with distinct stream constants so
    /// they do not correlate.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid `cfg` or an invalid PBPAIR or
    /// controller configuration.
    pub fn new(cfg: &ServeConfig, id: u32) -> Result<Self, String> {
        cfg.validate()?;
        let seed = cfg
            .seed
            .wrapping_add((id as u64 + 1).wrapping_mul(SESSION_SEED_STEP));
        let class = cfg.clip.unwrap_or(MotionClass::all()[id as usize % 3]);
        let device = cfg.device_mix.device_for(id);
        let sub = |stream: u64| splitmix(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
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
            seed,
            channel_spec: cfg.channel.clone(),
            pacing_us: cfg.pacing_us,
            source: SyntheticSequence::for_class(class, sub(1)),
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
            energy: EnergyModel::new(device.profile()),
            ops_snapshot: OpCounts::default(),
            load_floor: 0.0,
            last_report: None,
            chaos: cfg.chaos.for_session(id).into(),
            blackout_until: 0,
            stall_until: 0,
            kill_until: 0,
            lost_streak: 0,
            frame: 0,
            quality: QualityStats::new(),
            ledger: SessionReport {
                id,
                class: class.label().to_string(),
                scheme: cfg.scheme.label(),
                device: device.label().to_string(),
                ..SessionReport::default()
            },
            tel: None,
            trace: Tracer::disabled(),
        })
    }

    /// Attaches a telemetry context to the session and every pipeline
    /// stage it owns (encoder, decoder, forward channel). Concurrent
    /// sessions may share one context: each metric's total is a sum of
    /// relaxed atomic adds, identical in any order. A disabled context
    /// detaches everything.
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

    /// The session's report: the counters it keeps, completed with the
    /// FEC codec label, mean PSNR, PLR estimate and `Intra_Th` in force,
    /// the bytes its forward channel was offered, and the watchdog's
    /// health state and log, as they stand.
    pub fn report(&self) -> SessionReport {
        // The active codec or, for an adaptive session at zero parity,
        // the family at that rate; empty when FEC is off.
        let fec_codec = match (&self.fec, self.network.redundancy()) {
            (Some(p), _) => p.spec().label(),
            (None, Some(c)) => c.family().with_parity(c.decision().parity).label(),
            (None, None) => String::new(),
        };
        SessionReport {
            fec_codec,
            avg_psnr_db: self.quality.average_psnr(),
            plr_estimate: self.plr_estimator.estimate(),
            final_intra_th: self.arbitrate().0,
            sent_bytes: self.channel.sent_bytes(),
            health: self.watchdog.state(),
            health_log: self.watchdog.ledger().transitions().to_vec(),
            ..self.ledger.clone()
        }
    }

    /// Whether any FEC (fixed or adaptive) protects this session.
    fn fec_enabled(&self) -> bool {
        self.fec.is_some() || self.network.redundancy().is_some()
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

    /// Decoder resyncs so far.
    pub(crate) fn resyncs(&self) -> u64 {
        self.ledger.decode.resyncs
    }

    /// Marks the session shed; it will not be stepped again.
    pub fn shed(&mut self) {
        self.ledger.shed = true;
    }

    /// Whether the session has been shed.
    pub fn is_shed(&self) -> bool {
        self.ledger.shed
    }

    /// Skips one source frame (fleet-imposed frame-rate degradation).
    /// The viewer keeps watching the last displayed picture while the
    /// scene moves on, so the quality ledger charges the drop honestly.
    pub fn drop_frame(&mut self) {
        let original = self.source.next_frame();
        self.quality.record(&original, self.decoder.last_frame());
        self.ledger.frames_rate_dropped += 1;
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
            self.ledger.chaos_injected += 1;
            match event.fault {
                ChaosFault::FeedbackBlackout { frames } => {
                    self.blackout_until = now.saturating_add(frames);
                }
                ChaosFault::DecoderStall { frames } => {
                    self.stall_until = now.saturating_add(frames)
                }
                ChaosFault::BurstKill { frames } => self.kill_until = now.saturating_add(frames),
                ChaosFault::ChannelSwap { spec } => {
                    let seed = splitmix(self.seed ^ 0xC4A0_5EED ^ now.wrapping_mul(0x9e37_79b9));
                    let model = spec
                        .build_loss(seed)
                        .expect("chaos specs are validated at plan construction");
                    let _ = self.channel.swap_model(model);
                    self.channel_spec = Some(spec);
                }
            }
        }

        // Advance the channel's frame clock (phase switches for mobility
        // schedules) and apply the phase's feedback RTT, or the standard
        // delay when the channel in force sets none.
        self.channel.on_frame(now);
        let rtt = self.channel_spec.as_ref().and_then(|c| c.rtt_at(now));
        self.feedback.set_delay(rtt.unwrap_or(FEEDBACK_DELAY));

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
        if self.pacing_us > 0 {
            // The blocking transmission phase. Wall-clock only: the
            // channel outcome below is drawn from seeded state.
            std::thread::sleep(std::time::Duration::from_micros(self.pacing_us));
        }
        let mut survivors = self.channel.transmit_packets(&sent);
        // Burst-aligned kill: the whole frame dies at its picture header,
        // first fragment included.
        let killed = now < self.kill_until;
        if killed {
            survivors.clear();
        }

        // Receiver-side burst bookkeeping from the channel's fate record:
        // one erasure flag per packet sent, parity included (it rides the
        // same channel). PRNG-free, so it is always on.
        for &lost in self.channel.lost() {
            self.burst_estimator.record(lost || killed);
            self.packet_plr_estimator.record(lost || killed);
        }

        // Receiver: FEC repair of every recoverable block, best-effort
        // reassembly of the rest, resilient decode of whatever
        // materialized. A partial repair still shrinks the damage; a
        // complete one comes back deduplicated and in fragment order, so
        // best-effort reassembly returns the whole frame.
        let recovered = self
            .fec
            .as_ref()
            .and_then(|fec| fec.recover(&survivors, &mut frame_fec));
        let fec_recovered = recovered.is_some() && frame_fec.blocks_repaired > 0;
        let bytes = reassemble_frame_damaged(recovered.as_ref().map_or(&survivors, |r| &r.data));
        let lost = bytes.is_none();
        let (displayed, report) = if stalled {
            // The decoder is wedged: arriving data is discarded and the
            // viewer keeps watching the last picture.
            self.ledger.frames_stalled += 1;
            (self.decoder.last_frame(), DecodeReport::default())
        } else {
            self.decoder.receive(bytes.as_deref())
        };
        let damaged = report.any_damage();
        self.ledger.decode.absorb(&report);
        self.quality.record(&original, displayed);
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
        self.ledger.frames_encoded += 1;
        self.ledger.frames_lost += lost as u64;
        self.ledger.frames_damaged += damaged as u64;
        self.ledger.fec_recoveries += fec_recovered as u64;
        self.ledger.fec += frame_fec;
        self.ledger.fec_joules += fec_joules;
        self.ledger.encoded_bytes += encoded.data.len() as u64;
        self.ledger.encode_joules += encode_joules;

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
            lost,
            damaged,
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
    use crate::{ChaosPlan, RedundancyConfig};
    use pbpair_netsim::{FecSpec, Phase, PhaseKind};

    /// A fleet at the paper's standard operating point (10% packet loss,
    /// light corruption, no FEC, no pacing sleep) whose session `id`
    /// runs on session seed `seed`.
    fn standard(id: u32, seed: u64) -> ServeConfig {
        ServeConfig {
            seed: seed.wrapping_sub((id as u64 + 1).wrapping_mul(SESSION_SEED_STEP)),
            pacing_us: 0,
            ..ServeConfig::default()
        }
    }

    fn run(cfg: &ServeConfig, id: u32, frames: u64) -> (SessionReport, Vec<f64>) {
        let mut s = Session::new(cfg, id).unwrap();
        for _ in 0..frames {
            s.step_frame();
        }
        (s.report(), s.quality.psnr_series().to_vec())
    }

    #[test]
    fn session_is_deterministic() {
        let cfg = standard(3, 99);
        let (a_stats, a_psnr) = run(&cfg, 3, 24);
        let (b_stats, b_psnr) = run(&cfg, 3, 24);
        assert_eq!(a_psnr, b_psnr);
        assert_eq!(a_stats.frames_lost, b_stats.frames_lost);
        assert_eq!(a_stats.encoded_bytes, b_stats.encoded_bytes);
        assert_eq!(a_stats.encode_joules, b_stats.encode_joules);
    }

    #[test]
    fn different_sessions_diverge() {
        let (a, _) = run(&standard(0, 7), 0, 12);
        let (b, _) = run(&standard(1, 7), 1, 12);
        // Different ids → different classes and seeds → different bytes.
        assert_ne!(a.encoded_bytes, b.encoded_bytes);
    }

    #[test]
    fn lossy_session_records_losses_and_survives() {
        let cfg = ServeConfig {
            plr: 0.35,
            corruption: 0.5,
            ..standard(0, 5)
        };
        let (stats, psnr) = run(&cfg, 0, 40);
        assert_eq!(stats.frames_encoded, 40);
        assert_eq!(psnr.len(), 40);
        assert!(stats.frames_lost + stats.frames_damaged > 0);
        assert!(stats.encode_joules > 0.0);
    }

    #[test]
    fn fec_session_recovers_fragments() {
        let cfg = ServeConfig {
            plr: 0.10,
            corruption: 0.0,
            mtu: 200, // force multi-fragment frames so FEC has groups
            fec: Some(FecSpec::Xor { k: 3 }),
            ..standard(0, 11)
        };
        let (stats, _) = run(&cfg, 0, 60);
        assert!(
            stats.fec_recoveries > 0,
            "10% packet loss over 60 multi-fragment frames must exercise FEC"
        );
        // Parity overhead must show up on the wire.
        assert!(stats.sent_bytes > stats.encoded_bytes);
    }

    #[test]
    fn fec_beats_no_fec_on_fragment_loss() {
        let base = ServeConfig {
            plr: 0.08,
            corruption: 0.0,
            mtu: 250,
            ..standard(0, 21)
        };
        let with = ServeConfig {
            fec: Some(FecSpec::Xor { k: 3 }),
            ..base.clone()
        };
        let (no_fec, _) = run(&base, 0, 80);
        let (fec, _) = run(&with, 0, 80);
        assert!(
            fec.frames_lost < no_fec.frames_lost,
            "fec {} vs plain {}",
            fec.frames_lost,
            no_fec.frames_lost
        );
    }

    #[test]
    fn load_floor_raises_intra_th_and_cuts_energy() {
        let cfg = standard(1, 13);
        let mut free = Session::new(&cfg, 1).unwrap();
        let mut capped = Session::new(&cfg, 1).unwrap();
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
        let mut s = Session::new(&standard(2, 17), 2).unwrap();
        s.step_frame();
        let j = s.report().encode_joules;
        s.drop_frame();
        assert_eq!(s.report().frames_rate_dropped, 1);
        assert_eq!(
            s.report().encode_joules,
            j,
            "a dropped frame encodes nothing"
        );
        assert_eq!(s.quality.frames(), 2, "the viewer still saw a frame slot");
    }

    #[test]
    fn conflicting_fec_sources_rejected() {
        let cfg = ServeConfig {
            fec: Some(FecSpec::Rs { k: 4, r: 2 }),
            redundancy: Some(RedundancyConfig::new(FecSpec::Rs { k: 4, r: 1 })),
            ..standard(0, 1)
        };
        assert!(Session::new(&cfg, 0).is_err());
        let cfg = ServeConfig {
            fec: Some(FecSpec::Rs { k: 200, r: 60 }),
            ..standard(0, 1)
        };
        assert!(
            Session::new(&cfg, 0).is_err(),
            "invalid spec must not build"
        );
    }

    #[test]
    fn rs_session_charges_fec_ops_and_energy() {
        let cfg = ServeConfig {
            plr: 0.10,
            corruption: 0.0,
            mtu: 200,
            fec: Some(FecSpec::Rs { k: 4, r: 2 }),
            ..standard(0, 31)
        };
        let (stats, _) = run(&cfg, 0, 60);
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
        let base = ServeConfig {
            corruption: 0.0,
            mtu: 200,
            ..standard(0, 77)
        };
        let with = ServeConfig {
            fec: Some(FecSpec::Rs { k: 4, r: 2 }),
            ..base.clone()
        };
        let (a, _) = run(&base, 0, 1);
        let (b, _) = run(&with, 0, 1);
        assert_eq!(a.encoded_bytes, b.encoded_bytes, "same seed, same encode");
        let parity = b.fec.parity_bytes;
        assert!(parity > 0);
        assert_eq!(
            b.sent_bytes,
            a.sent_bytes + parity,
            "wire delta must equal charged parity bytes exactly"
        );
    }

    #[test]
    fn burst_estimate_reaches_the_controller() {
        let cfg = ServeConfig {
            plr: 0.20,
            corruption: 0.0,
            mtu: 200,
            ..standard(0, 51)
        };
        let mut s = Session::new(&cfg, 0).unwrap();
        for _ in 0..40 {
            s.step_frame();
        }
        assert!(
            s.burst_estimator.estimate() >= 1.0,
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
        let cfg = ServeConfig {
            channel: Some(ChannelSpec::BurstErasure {
                burst_len: 4.0,
                guard_len: 28.0,
            }),
            redundancy: Some(RedundancyConfig {
                family: FecSpec::Rs { k: 8, r: 2 },
                max_parity: 2,
                budget_ratio: 1.25,
                gop: 8,
            }),
            mtu: 36,
            corruption: 0.0,
            ..standard(0, 2005)
        };
        let decision = |s: &Session| s.network.redundancy().expect("controller runs").decision();
        let run_once = || {
            let mut s = Session::new(&cfg, 0).unwrap();
            for _ in 0..43 {
                let out = s.step_frame();
                let d = decision(&s);
                assert_eq!(s.report().final_intra_th, out.intra_th);
                assert_eq!(out.intra_th, d.intra_th);
                assert_eq!(out.intra_th_source, IntraThSource::Network);
            }
            assert!(s.fec_enabled());
            let d = decision(&s);
            (s.report(), s.quality.psnr_series().to_vec(), d)
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

    /// A schedule whose first ten frames have a feedback RTT of 8 and
    /// whose second phase, which holds, has an RTT of 3.
    fn rtt_schedule() -> ChannelSpec {
        let steady = |frames, rtt_frames| Phase {
            frames,
            rtt_frames,
            kind: PhaseKind::Steady { plr: 0.1 },
        };
        ChannelSpec::Schedule {
            phases: vec![steady(10, 8), steady(1, 3)],
        }
    }

    /// Steps session 0 of `cfg` with `spec` swapped in at frame `at`,
    /// returning the feedback delay in force after each frame.
    fn delays_with_swap(cfg: ServeConfig, at: u64, spec: ChannelSpec) -> Vec<u64> {
        let cfg = ServeConfig {
            chaos: ChaosPlan::new(vec![ChaosEvent {
                session: 0,
                at_frame: at,
                fault: ChaosFault::ChannelSwap { spec },
            }])
            .unwrap(),
            ..cfg
        };
        let mut s = Session::new(&cfg, 0).unwrap();
        (0..16)
            .map(|_| {
                s.step_frame();
                s.feedback.delay_frames()
            })
            .collect()
    }

    #[test]
    fn swapping_a_schedule_out_restores_the_standard_feedback_delay() {
        let cfg = ServeConfig {
            channel: Some(rtt_schedule()),
            ..standard(0, 41)
        };
        let delays = delays_with_swap(cfg, 6, ChannelSpec::Uniform { plr: 0.1 });
        assert_eq!(delays[..6], [8; 6]);
        assert_eq!(delays[6..], [FEEDBACK_DELAY; 10], "{delays:?}");
    }

    #[test]
    fn a_swapped_in_schedule_sets_the_feedback_delay_per_phase() {
        let delays = delays_with_swap(standard(0, 41), 4, rtt_schedule());
        assert_eq!(delays[..4], [FEEDBACK_DELAY; 4]);
        assert_eq!(delays[4..10], [8; 6], "{delays:?}");
        assert_eq!(delays[10..], [3; 6], "{delays:?}");
    }
}
