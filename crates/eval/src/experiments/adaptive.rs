//! §3.2 extension: PBPAIR with live network feedback.
//!
//! The paper's future-work interface — "the codec can adjust its
//! operations based on the network conditions" — implemented end to end:
//! the receiver estimates the loss rate over a sliding window, feeds it
//! back, and the encoder both updates PBPAIR's `α` and re-derives
//! `Intra_Th` with the closed-form PLR compensation
//! ([`pbpair::adapt::compensated_intra_th`]). The experiment drives a
//! channel whose loss rate changes mid-stream and compares the adaptive
//! encoder against a static one tuned for the initial conditions.

use crate::report::{fmt_f, Table};
use pbpair::adapt::compensated_intra_th;
use pbpair::{PbpairConfig, PbpairPolicy};
use pbpair_codec::{Decoder, Encoder, EncoderConfig};
use pbpair_energy::{EnergyModel, IPAQ_H5555};
use pbpair_media::metrics::QualityStats;
use pbpair_media::synth::{MotionClass, SyntheticSequence};
use pbpair_netsim::{UniformLoss, WindowPlrEstimator};

/// A piecewise-constant loss schedule: `(start_frame, rate)` segments.
#[derive(Debug, Clone, PartialEq)]
pub struct LossSchedule {
    segments: Vec<(u64, f64)>,
}

impl LossSchedule {
    /// Creates a schedule from `(start_frame, rate)` pairs; the first
    /// segment must start at 0.
    ///
    /// # Panics
    ///
    /// Panics if the segments are empty, unsorted, or do not start at 0,
    /// or any rate is outside `[0, 1]`.
    pub fn new(segments: Vec<(u64, f64)>) -> Self {
        assert!(!segments.is_empty(), "schedule needs at least one segment");
        assert_eq!(segments[0].0, 0, "first segment must start at frame 0");
        assert!(
            segments.windows(2).all(|w| w[0].0 < w[1].0),
            "segments must be sorted"
        );
        assert!(
            segments.iter().all(|(_, r)| (0.0..=1.0).contains(r)),
            "rates must be probabilities"
        );
        LossSchedule { segments }
    }

    /// The paper-flavoured default: calm 2%, a congested 25% burst, then
    /// 5%.
    pub fn calm_burst_calm(frames: u64) -> Self {
        LossSchedule::new(vec![(0, 0.02), (frames / 3, 0.25), (2 * frames / 3, 0.05)])
    }

    /// The loss rate in effect at `frame`.
    pub fn rate_at(&self, frame: u64) -> f64 {
        self.segments
            .iter()
            .rev()
            .find(|(start, _)| *start <= frame)
            .map(|(_, r)| *r)
            .expect("first segment starts at 0")
    }
}

/// Result of one (static or adaptive) run.
#[derive(Debug, Clone)]
pub struct AdaptiveRun {
    /// "static" or "adaptive".
    pub mode: String,
    /// Decoder-side quality.
    pub quality: QualityStats,
    /// Encoding energy (iPAQ), Joules.
    pub encoding_energy: f64,
    /// Total encoded bytes.
    pub total_bytes: u64,
    /// The `Intra_Th` trajectory (per frame).
    pub th_trace: Vec<f64>,
    /// The PLR estimate trajectory (per frame; static mode holds its
    /// assumption).
    pub plr_trace: Vec<f64>,
}

/// Which feedback strategy a run uses — §3.2 names both goals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptMode {
    /// No adaptation: the paper's fixed operating point (α = 10%).
    Static,
    /// Quality priority ("guarantee image quality"): the PLR estimate
    /// becomes the probability model's α, so refresh intensity follows
    /// the channel; `Intra_Th` stays put.
    QualityPriority,
    /// Bit-rate priority ("minimize energy consumption with satisfying a
    /// given image quality constraint"): additionally re-derive
    /// `Intra_Th` with the closed-form compensation so the intra count —
    /// and hence the bit rate and radio energy — stays near the design
    /// point.
    BitratePriority,
}

impl AdaptMode {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            AdaptMode::Static => "static",
            AdaptMode::QualityPriority => "quality-priority",
            AdaptMode::BitratePriority => "bitrate-priority",
        }
    }
}

/// The adaptive-vs-static comparison.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// The static baseline.
    pub fixed: AdaptiveRun,
    /// Feedback into α only (quality priority).
    pub quality_priority: AdaptiveRun,
    /// Feedback into α and `Intra_Th` (bit-rate priority).
    pub bitrate_priority: AdaptiveRun,
    /// Frames simulated.
    pub frames: usize,
}

/// Runs the adaptive experiment.
///
/// # Errors
///
/// Returns an error for invalid PBPAIR configurations.
pub fn run_adaptive(frames: usize, schedule: &LossSchedule) -> Result<AdaptiveReport, String> {
    Ok(AdaptiveReport {
        fixed: drive(frames, schedule, AdaptMode::Static)?,
        quality_priority: drive(frames, schedule, AdaptMode::QualityPriority)?,
        bitrate_priority: drive(frames, schedule, AdaptMode::BitratePriority)?,
        frames,
    })
}

fn drive(frames: usize, schedule: &LossSchedule, mode: AdaptMode) -> Result<AdaptiveRun, String> {
    let base = PbpairConfig {
        intra_th: 0.9,
        plr: 0.10,
        // §3.2's analysis (and the closed-form compensation) is built on
        // the Equation-3 approximation, so this experiment runs the
        // probability model in that regime.
        similarity: pbpair::SimilarityModel::None,
        ..PbpairConfig::default()
    };
    let mut policy = PbpairPolicy::new(pbpair_media::VideoFormat::QCIF, base)?;
    let mut encoder = Encoder::new(EncoderConfig::default());
    let mut decoder = Decoder::new(pbpair_media::VideoFormat::QCIF);
    let mut seq = SyntheticSequence::for_class(MotionClass::MediumForeman, 2005);
    let mut estimator = WindowPlrEstimator::new(30);

    let mut quality = QualityStats::new();
    let mut th_trace = Vec::with_capacity(frames);
    let mut plr_trace = Vec::with_capacity(frames);
    let mut total_bits = 0u64;

    for f in 0..frames as u64 {
        // Channel loss for this frame. A fresh seeded Bernoulli draw per
        // frame keeps the loss pattern identical between the two runs.
        let mut coin = UniformLoss::new(schedule.rate_at(f), 9000 + f);
        let lost = {
            use pbpair_netsim::LossModel;
            coin.next_lost()
        };

        if mode != AdaptMode::Static && estimator.observations() >= 10 {
            // Clamp away the degenerate ends: an estimate of exactly 0
            // would freeze the probability model, and the compensation is
            // undefined at α = 1.
            let est = estimator.estimate().clamp(0.01, 0.9);
            policy.set_plr(est);
            if mode == AdaptMode::BitratePriority {
                policy.set_intra_th(compensated_intra_th(base.intra_th, base.plr, est));
            }
        }
        th_trace.push(policy.intra_th());
        plr_trace.push(policy.plr());

        let original = seq.next_frame();
        let encoded = encoder.encode_frame(&original, &mut policy);
        total_bits += encoded.stats.bits;
        // The channel is frame-atomic: the frame arrives whole or not at all.
        let (displayed, _) = decoder.receive((!lost).then_some(&encoded.data));
        quality.record(&original, displayed);
        // Receiver feedback (delayed by transport in reality; immediate
        // here, which only makes the static/adaptive contrast cleaner).
        estimator.record(lost);
    }

    Ok(AdaptiveRun {
        mode: mode.label().to_string(),
        encoding_energy: EnergyModel::new(IPAQ_H5555)
            .encoding_energy(encoder.ops())
            .get(),
        total_bytes: total_bits.div_ceil(8),
        quality,
        th_trace,
        plr_trace,
    })
}

impl AdaptiveReport {
    /// Renders the comparison table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Sec 3.2: PBPAIR with PLR feedback vs static configuration");
        t.set_headers([
            "mode",
            "PSNR (dB)",
            "bad pixels",
            "size (KB)",
            "enc energy (J)",
            "final Intra_Th",
        ]);
        for r in [&self.fixed, &self.quality_priority, &self.bitrate_priority] {
            t.add_row([
                r.mode.clone(),
                fmt_f(r.quality.average_psnr(), 2),
                r.quality.total_bad_pixels().to_string(),
                fmt_f(r.total_bytes as f64 / 1024.0, 1),
                fmt_f(r.encoding_energy, 3),
                fmt_f(*r.th_trace.last().unwrap_or(&f64::NAN), 3),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_lookup() {
        let s = LossSchedule::new(vec![(0, 0.02), (10, 0.3), (20, 0.05)]);
        assert_eq!(s.rate_at(0), 0.02);
        assert_eq!(s.rate_at(9), 0.02);
        assert_eq!(s.rate_at(10), 0.3);
        assert_eq!(s.rate_at(25), 0.05);
    }

    #[test]
    #[should_panic(expected = "start at frame 0")]
    fn schedule_must_start_at_zero() {
        let _ = LossSchedule::new(vec![(5, 0.1)]);
    }

    #[test]
    fn adaptive_tracks_the_burst() {
        let frames = 45;
        let schedule = LossSchedule::calm_burst_calm(frames as u64);
        let report = run_adaptive(frames, &schedule).unwrap();
        // Static mode never moves its knobs.
        assert!(report
            .fixed
            .th_trace
            .iter()
            .all(|&t| (t - 0.9).abs() < 1e-12));
        // Both adaptive modes must register the 25% burst in their α.
        let burst_start = frames / 3;
        for run in [&report.quality_priority, &report.bitrate_priority] {
            let during = &run.plr_trace[burst_start + 10..2 * frames / 3];
            let peak = during.iter().cloned().fold(0.0, f64::max);
            assert!(
                peak > 0.1,
                "{}: estimator missed the burst: {peak}",
                run.mode
            );
        }
        // Quality priority keeps the threshold; bitrate priority lowers it
        // during the burst.
        assert!(report
            .quality_priority
            .th_trace
            .iter()
            .all(|&t| (t - 0.9).abs() < 1e-12));
        let min_th = report
            .bitrate_priority
            .th_trace
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_th < 0.9,
            "compensation must lower the threshold during the burst: {min_th}"
        );
        assert_eq!(report.quality_priority.quality.frames(), frames);
        assert!(report.table().to_string().contains("bitrate-priority"));
    }

    #[test]
    fn bitrate_priority_saves_bits_in_calm_periods() {
        // A mostly-calm schedule: the bitrate-priority mode must emit
        // fewer bits than the static α = 10% design point (whose refresh
        // budget is provisioned for a worse channel than it gets).
        let frames = 60;
        let schedule = LossSchedule::new(vec![(0, 0.02)]);
        let report = run_adaptive(frames, &schedule).unwrap();
        assert!(
            report.bitrate_priority.total_bytes < report.fixed.total_bytes,
            "bitrate priority {} must undercut static {}",
            report.bitrate_priority.total_bytes,
            report.fixed.total_bytes
        );
    }
}
