//! Fault-injection resilience: the decoder and the feedback loop under
//! attack.
//!
//! The paper evaluates PBPAIR against *frame drops*; a real channel also
//! delivers damaged bytes, and the feedback path the §3.2 extension
//! leans on crosses the same unreliable network. Two scenarios close
//! that gap:
//!
//! * [`run_corruption_sweep`] — the full stack (encode → packetize →
//!   [`pbpair_netsim::CorruptingChannel`] → damaged reassembly →
//!   resilient decode) swept over corruption intensity. The decoder must
//!   stay total at every point and the per-intensity
//!   [`pbpair_codec::DecodeReport`] shows where the recovery machinery
//!   spent its effort.
//! * [`run_feedback_blackout`] — PLR reports travel through a
//!   [`pbpair_netsim::FeedbackLink`] that goes completely dark for the
//!   middle third of the run. The
//!   [`pbpair::adapt::DegradationController`] must back `Intra_Th` off
//!   toward its conservative high-intra point while blind, then glide
//!   back once reports resume — both visible in the report's trajectory.

use crate::report::{fmt_f, Table};
use pbpair::adapt::{DegradationConfig, DegradationController};
use pbpair::{PbpairConfig, PbpairPolicy};
use pbpair_codec::{DecodeReport, Decoder, Encoder, EncoderConfig};
use pbpair_media::metrics::QualityStats;
use pbpair_media::synth::{MotionClass, SyntheticSequence};
use pbpair_media::VideoFormat;
use pbpair_netsim::{
    CorruptingChannel, CorruptionProfile, Delivery, FeedbackLink, FeedbackLinkStats, Packetizer,
    ScriptedLoss, UniformLoss, WindowPlrEstimator,
};
use pbpair_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

/// One intensity point of the corruption sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Corruption intensity in `[0, 1]` (see
    /// [`CorruptionProfile::with_intensity`]).
    pub intensity: f64,
    /// Decoder-side quality against the pristine source.
    pub quality: QualityStats,
    /// Frames the channel dropped outright (concealed whole).
    pub frames_lost: u64,
    /// Frames that arrived damaged (decoded resiliently).
    pub frames_damaged: u64,
    /// Aggregate resilience accounting across the run.
    pub decode: DecodeReport,
}

/// The corruption sweep: one [`SweepPoint`] per intensity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorruptionSweep {
    /// Points in sweep order.
    pub points: Vec<SweepPoint>,
    /// Frames per point.
    pub frames: usize,
}

/// Sweeps the full encode→corrupt→decode stack over corruption
/// intensities. Every frame is displayed — lost ones via whole-frame
/// concealment, damaged ones via the resilient decode path — so the
/// quality column measures graceful degradation, not survivorship.
///
/// # Errors
///
/// Returns an error for invalid PBPAIR configurations.
pub fn run_corruption_sweep(frames: usize, intensities: &[f64]) -> Result<CorruptionSweep, String> {
    run_corruption_sweep_instrumented(frames, intensities, &Telemetry::disabled())
}

/// Like [`run_corruption_sweep`], but every stage (encoder, resilient
/// decoder, corrupting channel) reports into `tel`.
///
/// # Errors
///
/// Returns an error for invalid PBPAIR configurations.
pub fn run_corruption_sweep_instrumented(
    frames: usize,
    intensities: &[f64],
    tel: &Telemetry,
) -> Result<CorruptionSweep, String> {
    let mut points = Vec::with_capacity(intensities.len());
    for &intensity in intensities {
        points.push(sweep_point(frames, intensity, tel)?);
    }
    Ok(CorruptionSweep { points, frames })
}

fn sweep_point(frames: usize, intensity: f64, tel: &Telemetry) -> Result<SweepPoint, String> {
    let mut policy = PbpairPolicy::new(
        VideoFormat::QCIF,
        PbpairConfig {
            intra_th: 0.9,
            plr: 0.10,
            ..PbpairConfig::default()
        },
    )?;
    let mut encoder = Encoder::new(EncoderConfig::default());
    let mut decoder = Decoder::new(VideoFormat::QCIF);
    let mut packetizer = Packetizer::default();
    let mut seq = SyntheticSequence::for_class(MotionClass::MediumForeman, 2005);
    // 5% packet loss under every intensity; the corruption rides on top.
    let mut channel = CorruptingChannel::new(
        Box::new(UniformLoss::new(0.05, 4242)),
        CorruptionProfile::with_intensity(intensity),
        7001,
    );
    encoder.set_telemetry(tel);
    decoder.set_telemetry(tel);
    channel.set_telemetry(tel);

    let mut quality = QualityStats::new();
    let mut decode = DecodeReport::default();
    let mut frames_lost = 0u64;
    let mut frames_damaged = 0u64;

    for _ in 0..frames {
        let original = seq.next_frame();
        let encoded = encoder.encode_frame(&original, &mut policy);
        let packets = packetizer.packetize(encoded.index, &encoded.data);
        let displayed = match channel.transmit_frame(&packets) {
            Delivery::Intact(bytes) => {
                let (frame, report) = decoder.decode_frame_resilient(&bytes);
                decode.absorb(&report);
                frame
            }
            Delivery::Damaged(bytes) => {
                frames_damaged += 1;
                let (frame, report) = decoder.decode_frame_resilient(&bytes);
                decode.absorb(&report);
                frame
            }
            Delivery::Lost => {
                frames_lost += 1;
                decoder.conceal_lost_frame()
            }
        };
        quality.record(&original, &displayed);
    }

    Ok(SweepPoint {
        intensity,
        quality,
        frames_lost,
        frames_damaged,
        decode,
    })
}

impl CorruptionSweep {
    /// Renders the sweep table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(format!(
            "Resilience: corruption-intensity sweep ({} frames per point)",
            self.frames
        ));
        t.set_headers([
            "intensity",
            "PSNR (dB)",
            "lost",
            "damaged",
            "recovered",
            "MBs concealed",
            "resyncs",
            "bytes skipped",
        ]);
        for p in &self.points {
            t.add_row([
                fmt_f(p.intensity, 2),
                fmt_f(p.quality.average_psnr(), 2),
                p.frames_lost.to_string(),
                p.frames_damaged.to_string(),
                p.decode.frames_recovered.to_string(),
                p.decode.mbs_concealed.to_string(),
                p.decode.resyncs.to_string(),
                p.decode.bytes_skipped.to_string(),
            ]);
        }
        t
    }
}

/// The feedback-blackout run: every per-frame trajectory plus the
/// summary statistics the report prints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlackoutReport {
    /// Frames simulated.
    pub frames: usize,
    /// `[start, end)` of the feedback blackout, in frames.
    pub blackout: (u64, u64),
    /// `Intra_Th` actually used per frame.
    pub th_trace: Vec<f64>,
    /// Whether the controller considered itself past the staleness
    /// timeout, per frame.
    pub degraded_trace: Vec<bool>,
    /// Decoder-side quality.
    pub quality: QualityStats,
    /// Return-channel accounting.
    pub feedback: FeedbackLinkStats,
    /// Resilience accounting of the video path.
    pub decode: DecodeReport,
}

impl BlackoutReport {
    /// Mean threshold over `[start, end)` of the trace.
    pub fn mean_th(&self, start: usize, end: usize) -> f64 {
        let slice = &self.th_trace[start.min(self.th_trace.len())..end.min(self.th_trace.len())];
        if slice.is_empty() {
            f64::NAN
        } else {
            slice.iter().sum::<f64>() / slice.len() as f64
        }
    }

    /// Renders the blackout summary: the threshold before, late in, and
    /// after the blackout, so the backoff and the recovery are visible
    /// as numbers.
    pub fn table(&self) -> Table {
        let (b0, b1) = (self.blackout.0 as usize, self.blackout.1 as usize);
        let late_dark = self.mean_th((b0 + b1) / 2, b1);
        let tail = self.mean_th(self.frames.saturating_sub(self.frames / 6), self.frames);
        let mut t = Table::new(format!(
            "Resilience: Intra_Th under a feedback blackout (frames {b0}..{b1} dark)"
        ));
        t.set_headers(["phase", "mean Intra_Th", "degraded frames"]);
        let degraded_in = |s: usize, e: usize| {
            self.degraded_trace[s.min(self.degraded_trace.len())..e.min(self.degraded_trace.len())]
                .iter()
                .filter(|&&d| d)
                .count()
        };
        t.add_row([
            "before blackout".to_string(),
            fmt_f(self.mean_th(0, b0), 3),
            degraded_in(0, b0).to_string(),
        ]);
        t.add_row([
            "late blackout".to_string(),
            fmt_f(late_dark, 3),
            degraded_in((b0 + b1) / 2, b1).to_string(),
        ]);
        t.add_row([
            "after recovery".to_string(),
            fmt_f(tail, 3),
            degraded_in(self.frames.saturating_sub(self.frames / 6), self.frames).to_string(),
        ]);
        t.add_row([
            "feedback reports".to_string(),
            format!(
                "{} sent / {} lost / {} delivered",
                self.feedback.sent, self.feedback.lost, self.feedback.delivered
            ),
            String::new(),
        ]);
        t
    }
}

/// Drives the full loop — lossy corrupting video path forward, lossy
/// delayed [`FeedbackLink`] back — with the return channel scripted to
/// drop *every* report in the middle third of the run. The
/// [`DegradationController`] steers `Intra_Th`.
///
/// # Errors
///
/// Returns an error for invalid PBPAIR or controller configurations.
pub fn run_feedback_blackout(frames: usize) -> Result<BlackoutReport, String> {
    run_feedback_blackout_instrumented(frames, &Telemetry::disabled())
}

/// Like [`run_feedback_blackout`], but the codec and channel report
/// into `tel`.
///
/// # Errors
///
/// Returns an error for invalid PBPAIR or controller configurations.
pub fn run_feedback_blackout_instrumented(
    frames: usize,
    tel: &Telemetry,
) -> Result<BlackoutReport, String> {
    let blackout = (frames as u64 / 3, 2 * frames as u64 / 3);
    let degradation = DegradationConfig {
        base_th: 0.9,
        base_plr: 0.1,
        conservative_th: 0.99,
        staleness_timeout: 12,
        backoff_rate: 0.08,
        recovery_rate: 0.2,
    };
    let mut controller = DegradationController::new(degradation)?;
    let mut policy = PbpairPolicy::new(
        VideoFormat::QCIF,
        PbpairConfig {
            intra_th: degradation.base_th,
            plr: degradation.base_plr,
            ..PbpairConfig::default()
        },
    )?;
    let mut encoder = Encoder::new(EncoderConfig::default());
    let mut decoder = Decoder::new(VideoFormat::QCIF);
    let mut packetizer = Packetizer::default();
    let mut seq = SyntheticSequence::for_class(MotionClass::MediumForeman, 2005);
    let mut channel = CorruptingChannel::new(
        Box::new(UniformLoss::new(0.10, 5150)),
        CorruptionProfile::light(),
        9099,
    );
    encoder.set_telemetry(tel);
    decoder.set_telemetry(tel);
    channel.set_telemetry(tel);
    // One report per frame → report seq == frame index, so a scripted
    // drop of seqs in [b0, b1) is exactly the blackout window.
    let mut link = FeedbackLink::new(Box::new(ScriptedLoss::new(blackout.0..blackout.1)), 2);
    let mut estimator = WindowPlrEstimator::new(30);

    let mut quality = QualityStats::new();
    let mut decode = DecodeReport::default();
    let mut th_trace = Vec::with_capacity(frames);
    let mut degraded_trace = Vec::with_capacity(frames);
    // Frame of the last applied report: the loop's one darkness clock.
    let mut last_report: Option<u64> = None;

    for f in 0..frames as u64 {
        // Encoder side: consume whatever feedback has arrived, then pick
        // the threshold for this frame.
        if let Some(report) = link.poll(f) {
            last_report = Some(f);
            controller.on_feedback(report.plr);
            policy.set_plr(report.plr.clamp(0.01, 0.9));
        }
        let dark = last_report.map(|r| f - r);
        let th = controller.tick(dark);
        policy.set_intra_th(th);
        th_trace.push(th);
        degraded_trace.push(controller.is_degraded(dark));

        let original = seq.next_frame();
        let encoded = encoder.encode_frame(&original, &mut policy);
        let packets = packetizer.packetize(encoded.index, &encoded.data);
        let (displayed, lost) = match channel.transmit_frame(&packets) {
            Delivery::Intact(bytes) | Delivery::Damaged(bytes) => {
                let (frame, report) = decoder.decode_frame_resilient(&bytes);
                decode.absorb(&report);
                (frame, false)
            }
            Delivery::Lost => (decoder.conceal_lost_frame(), true),
        };
        quality.record(&original, &displayed);

        // Receiver side: update the estimate and offer a report to the
        // (possibly dark) return channel.
        estimator.record(lost);
        link.send(f, estimator.estimate().clamp(0.01, 0.9));
    }

    Ok(BlackoutReport {
        frames,
        blackout,
        th_trace,
        degraded_trace,
        quality,
        feedback: *link.stats(),
        decode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_sweep_is_total_and_degrades_gracefully() {
        let sweep = run_corruption_sweep(30, &[0.0, 0.5, 1.0]).unwrap();
        assert_eq!(sweep.points.len(), 3);
        for p in &sweep.points {
            // Totality: every frame was displayed, none panicked.
            assert_eq!(p.quality.frames(), 30);
            assert_eq!(
                p.decode.frames_decoded + p.frames_lost,
                30,
                "intensity {}: every frame decoded or concealed whole",
                p.intensity
            );
        }
        // The clean point must not need recovery; the heavy point must.
        assert_eq!(sweep.points[0].decode.frames_recovered, 0);
        assert_eq!(sweep.points[0].frames_damaged, 0);
        assert!(
            sweep.points[2].decode.any_damage(),
            "full intensity must exercise the recovery machinery"
        );
        // Quality falls as intensity rises (graceful, not cliff-edge).
        let clean = sweep.points[0].quality.average_psnr();
        let heavy = sweep.points[2].quality.average_psnr();
        assert!(
            heavy < clean,
            "corruption must cost quality: {heavy} vs {clean}"
        );
        assert!(heavy > 5.0, "but frames still resemble video: {heavy}");
        assert!(sweep.table().to_string().contains("resyncs"));
    }

    #[test]
    fn blackout_backs_off_and_recovers() {
        let frames = 120;
        let report = run_feedback_blackout(frames).unwrap();
        let (b0, b1) = (report.blackout.0 as usize, report.blackout.1 as usize);
        assert_eq!(report.th_trace.len(), frames);
        // The return channel really went dark: every blackout report lost.
        assert_eq!(report.feedback.lost, (b1 - b0) as u64);

        let pre = report.mean_th(b0.saturating_sub(10), b0);
        let late_dark = report.mean_th((b0 + b1) / 2, b1);
        let tail = report.mean_th(frames - frames / 6, frames);
        assert!(
            late_dark > pre + 0.02,
            "blackout must raise Intra_Th: {late_dark} vs {pre}"
        );
        assert!(
            tail < late_dark - 0.02,
            "recovery must bring it back down: {tail} vs {late_dark}"
        );
        // Degradation is flagged inside the blackout and clear at the end.
        assert!(report.degraded_trace[b1 - 1]);
        assert!(!report.degraded_trace[frames - 1]);
        let rendered = report.table().to_string();
        assert!(rendered.contains("late blackout"));
        assert!(rendered.contains("after recovery"));
    }
}
