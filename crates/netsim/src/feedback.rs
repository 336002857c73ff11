//! Receiver-side packet-loss-rate estimation — the feedback path of the
//! paper's §3.2 extension ("based on the feedback information from the
//! network, PBPAIR can be extended to adjust Intra_Th").
//!
//! Two estimators: a sliding-window empirical rate (what an RTCP receiver
//! report would carry) and an erasure-burst-length EWMA.
//! [`FeedbackLink`] then carries those estimates back to the encoder
//! through the *same* unreliable network the video crossed — reports can
//! be delayed or lost outright, which is what the degradation-aware
//! controller on the encoder side has to survive.

use crate::loss::LossModel;
use std::collections::VecDeque;

/// Sliding-window PLR estimator: the fraction of the last `window`
/// transmissions that were lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowPlrEstimator {
    window: usize,
    history: VecDeque<bool>,
    lost_in_window: usize,
}

impl WindowPlrEstimator {
    /// Creates an estimator over the last `window` transmissions.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        WindowPlrEstimator {
            window,
            history: VecDeque::with_capacity(window),
            lost_in_window: 0,
        }
    }

    /// Records one transmission outcome.
    pub fn record(&mut self, lost: bool) {
        if self.history.len() == self.window && self.history.pop_front() == Some(true) {
            self.lost_in_window -= 1;
        }
        self.history.push_back(lost);
        if lost {
            self.lost_in_window += 1;
        }
    }

    /// The current estimate; `0.0` before any observation.
    pub fn estimate(&self) -> f64 {
        if self.history.is_empty() {
            0.0
        } else {
            self.lost_in_window as f64 / self.history.len() as f64
        }
    }

    /// Observations currently in the window.
    pub fn observations(&self) -> usize {
        self.history.len()
    }
}

/// One receiver report travelling back to the encoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackReport {
    /// Report sequence number (receiver-side send order).
    pub seq: u64,
    /// Frame index at which the receiver emitted the report.
    pub sent_at_frame: u64,
    /// The receiver's PLR estimate at that instant.
    pub plr: f64,
    /// The receiver's *pre-repair packet*-level loss-rate estimate. The
    /// `plr` field above is whatever granularity the caller's main
    /// estimator tracks (whole frames, in the serving stack); a FEC
    /// controller steering on that would see its own repairs echoed back
    /// as a clean channel and oscillate. This field reports raw wire
    /// erasures, before any FEC recovery.
    pub packet_plr: f64,
    /// The receiver's mean erasure-burst-length estimate (consecutive
    /// losses per loss event, ≥ 1 once any loss was seen). `1.0` when no
    /// burst structure has been observed — i.e. losses look independent.
    pub burst: f64,
}

/// Receiver-side erasure-burst-length estimator: an EWMA over the length
/// of each completed run of consecutive losses. On a memoryless channel
/// this converges near `1/(1−p)` ≈ 1; on a Markov burst channel it tracks
/// the mean dwell in the bad state — the statistic the joint redundancy
/// controller needs to pick interleaving depth and parity rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstEstimator {
    beta: f64,
    estimate: f64,
    current_run: u64,
    runs_seen: u64,
}

impl BurstEstimator {
    /// Creates an estimator with EWMA smoothing factor `beta`.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is outside `(0, 1]`.
    pub fn new(beta: f64) -> Self {
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0,1]");
        BurstEstimator {
            beta,
            estimate: 1.0,
            current_run: 0,
            runs_seen: 0,
        }
    }

    /// Records one transmission outcome, in wire order.
    pub fn record(&mut self, lost: bool) {
        if lost {
            self.current_run += 1;
            return;
        }
        if self.current_run > 0 {
            let len = self.current_run as f64;
            if self.runs_seen == 0 {
                self.estimate = len;
            } else {
                self.estimate = (1.0 - self.beta) * self.estimate + self.beta * len;
            }
            self.runs_seen += 1;
            self.current_run = 0;
        }
    }

    /// Mean burst length; `1.0` before any completed loss run. An open
    /// run (losses not yet terminated by a delivery) is counted once it
    /// exceeds the running estimate, so a hard outage raises the signal
    /// without waiting for the first survivor.
    pub fn estimate(&self) -> f64 {
        let open = self.current_run as f64;
        if open > self.estimate {
            open
        } else {
            self.estimate
        }
    }

    /// Completed loss runs observed so far.
    pub fn runs_seen(&self) -> u64 {
        self.runs_seen
    }
}

/// Cumulative statistics of the feedback path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedbackLinkStats {
    /// Reports the receiver offered to the link.
    pub sent: u64,
    /// Reports the return channel dropped.
    pub lost: u64,
    /// Reports the encoder actually polled off the link.
    pub delivered: u64,
    /// Reports that arrived after a fresher report had already been
    /// applied (the RTT shrank mid-flight) and were discarded instead of
    /// applied out of order.
    pub out_of_order: u64,
}

/// The return channel for receiver reports: a [`LossModel`] plus a fixed
/// transit delay, measured in frame periods.
///
/// The video path already models the forward direction; this closes the
/// loop the paper's §3.2 extension depends on ("based on the feedback
/// information from the network, PBPAIR can be extended to adjust
/// Intra_Th") — but honestly: the feedback crosses the same lossy
/// network, so the encoder may be steering on stale or missing data.
///
/// # Example
///
/// ```rust
/// use pbpair_netsim::feedback::FeedbackLink;
/// use pbpair_netsim::loss::NoLoss;
///
/// let mut link = FeedbackLink::new(Box::new(NoLoss), 3);
/// link.send(10, 0.07, 0.07, 1.0);
/// assert!(link.poll(12).is_none(), "still in flight");
/// let report = link.poll(13).expect("arrived after 3 frames");
/// assert_eq!(report.sent_at_frame, 10);
/// ```
pub struct FeedbackLink {
    loss: Box<dyn LossModel>,
    delay_frames: u64,
    /// Reports in flight, tagged with their arrival frame. Send order,
    /// not arrival order: the delay may change mid-run (handoff RTT
    /// jumps), so `poll` scans the whole queue.
    in_flight: VecDeque<(u64, FeedbackReport)>,
    next_seq: u64,
    /// Sequence number of the newest report ever returned by `poll`;
    /// anything at or below it that arrives later is discarded.
    last_applied_seq: Option<u64>,
    stats: FeedbackLinkStats,
}

impl std::fmt::Debug for FeedbackLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedbackLink")
            .field("delay_frames", &self.delay_frames)
            .field("in_flight", &self.in_flight.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FeedbackLink {
    /// Creates a return channel that drops reports per `loss` and delays
    /// survivors by `delay_frames` frame periods.
    pub fn new(loss: Box<dyn LossModel>, delay_frames: u64) -> Self {
        FeedbackLink {
            loss,
            delay_frames,
            in_flight: VecDeque::new(),
            next_seq: 0,
            last_applied_seq: None,
            stats: FeedbackLinkStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &FeedbackLinkStats {
        &self.stats
    }

    /// The transit delay currently in force, in frame periods.
    pub fn delay_frames(&self) -> u64 {
        self.delay_frames
    }

    /// Changes the transit delay for reports sent *from now on* — how a
    /// mobility schedule applies its per-phase RTT. Reports already in
    /// flight keep their original arrival time, so an RTT drop can make
    /// a newer report overtake an older one; `poll`'s out-of-order guard
    /// discards the straggler.
    pub fn set_delay(&mut self, delay_frames: u64) {
        self.delay_frames = delay_frames;
    }

    /// Reports currently in transit.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Receiver side: offers a report to the return channel at frame
    /// `now_frame` — the PLR estimate, the pre-repair packet loss rate
    /// and the erasure-burst-length estimate. The report is dropped
    /// immediately if the loss model says so; otherwise it arrives
    /// `delay_frames` later.
    pub fn send(&mut self, now_frame: u64, plr: f64, packet_plr: f64, burst: f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.sent += 1;
        if self.loss.next_lost() {
            self.stats.lost += 1;
            return;
        }
        self.in_flight.push_back((
            now_frame.saturating_add(self.delay_frames),
            FeedbackReport {
                seq,
                sent_at_frame: now_frame,
                plr,
                packet_plr,
                burst,
            },
        ));
    }

    /// Encoder side: drains every report that has arrived by frame
    /// `now_frame` and returns the freshest *applicable* one, if any.
    /// Reports at or below the last applied sequence number (late
    /// reordered stragglers) are discarded as out-of-order. Superseded
    /// same-poll reports still count as delivered.
    pub fn poll(&mut self, now_frame: u64) -> Option<FeedbackReport> {
        let mut arrived = Vec::new();
        self.in_flight.retain(|&(arrival, report)| {
            if arrival <= now_frame {
                arrived.push(report);
                false
            } else {
                true
            }
        });
        let mut latest: Option<FeedbackReport> = None;
        for report in arrived {
            if self.last_applied_seq.is_some_and(|last| report.seq <= last) {
                self.stats.out_of_order += 1;
                continue;
            }
            self.stats.delivered += 1;
            if latest.is_none_or(|prev| report.seq > prev.seq) {
                latest = Some(report);
            }
        }
        if let Some(r) = latest {
            self.last_applied_seq = Some(r.seq);
        }
        latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{NoLoss, ScriptedLoss, UniformLoss};

    #[test]
    fn window_estimator_tracks_exact_rate() {
        let mut e = WindowPlrEstimator::new(10);
        assert_eq!(e.estimate(), 0.0);
        for i in 0..10 {
            e.record(i % 5 == 0); // 2 of 10 lost
        }
        assert!((e.estimate() - 0.2).abs() < 1e-12);
        assert_eq!(e.observations(), 10);
    }

    #[test]
    fn window_estimator_forgets_old_outcomes() {
        let mut e = WindowPlrEstimator::new(4);
        for _ in 0..4 {
            e.record(true);
        }
        assert_eq!(e.estimate(), 1.0);
        for _ in 0..4 {
            e.record(false);
        }
        assert_eq!(e.estimate(), 0.0, "old losses must age out");
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = WindowPlrEstimator::new(0);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn bad_beta_rejected() {
        let _ = BurstEstimator::new(0.0);
    }

    #[test]
    fn feedback_link_delays_by_the_configured_frames() {
        let mut link = FeedbackLink::new(Box::new(NoLoss), 5);
        link.send(100, 0.12, 0.4, 2.5);
        assert_eq!(link.in_flight(), 1);
        for now in 100..105 {
            assert!(link.poll(now).is_none(), "too early at frame {now}");
        }
        let r = link.poll(105).expect("due at send + delay");
        assert_eq!(r.sent_at_frame, 100);
        assert_eq!(r.seq, 0);
        assert!((r.plr - 0.12).abs() < 1e-12);
        assert!((r.packet_plr - 0.4).abs() < 1e-12);
        assert!((r.burst - 2.5).abs() < 1e-12);
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn feedback_link_zero_delay_is_immediate() {
        let mut link = FeedbackLink::new(Box::new(NoLoss), 0);
        link.send(7, 0.3, 0.3, 1.0);
        assert!(link.poll(7).is_some());
    }

    #[test]
    fn feedback_link_drops_scripted_reports() {
        // Reports 1 and 2 die on the return path.
        let mut link = FeedbackLink::new(Box::new(ScriptedLoss::new([1, 2])), 1);
        for f in 0..4 {
            link.send(f * 10, 0.1 * f as f64, 0.1 * f as f64, 1.0);
        }
        let mut seen = Vec::new();
        for now in 0..=40 {
            if let Some(r) = link.poll(now) {
                seen.push(r.seq);
            }
        }
        assert_eq!(seen, vec![0, 3]);
        assert_eq!(link.stats().sent, 4);
        assert_eq!(link.stats().lost, 2);
        assert_eq!(link.stats().delivered, 2);
    }

    #[test]
    fn feedback_link_poll_supersedes_with_the_freshest_report() {
        let mut link = FeedbackLink::new(Box::new(NoLoss), 2);
        link.send(0, 0.1, 0.1, 1.0);
        link.send(1, 0.2, 0.2, 1.0);
        link.send(2, 0.3, 0.3, 1.0);
        // By frame 4 all three have arrived; only the newest wins.
        let r = link.poll(4).expect("reports arrived");
        assert_eq!(r.seq, 2);
        assert!((r.plr - 0.3).abs() < 1e-12);
        assert_eq!(link.stats().delivered, 3, "superseded still delivered");
        assert!(link.poll(100).is_none(), "queue drained");
    }

    #[test]
    fn window_estimator_all_lost_window_is_exactly_one() {
        // Every transmission in the window lost (a hard outage): the
        // estimate must be exactly 1.0, never NaN or a division error.
        let mut e = WindowPlrEstimator::new(8);
        for _ in 0..20 {
            e.record(true);
        }
        assert_eq!(e.estimate(), 1.0);
        assert!(e.estimate().is_finite());
        assert_eq!(e.observations(), 8);
        // Recovery after the outage drains the window cleanly.
        for _ in 0..8 {
            e.record(false);
        }
        assert_eq!(e.estimate(), 0.0);
    }

    #[test]
    fn rtt_shrink_cannot_apply_reports_out_of_order() {
        // Handoff: RTT drops from 8 to 1 mid-run. The newer report
        // overtakes the older one; the straggler must be discarded, not
        // applied on top of fresher state.
        let mut link = FeedbackLink::new(Box::new(NoLoss), 8);
        link.send(0, 0.5, 0.5, 1.0); // seq 0, arrives at frame 8
        link.set_delay(1);
        link.send(2, 0.1, 0.1, 1.0); // seq 1, arrives at frame 3
        let first = link.poll(3).expect("fast report lands first");
        assert_eq!(first.seq, 1);
        let late = link.poll(8);
        assert!(late.is_none(), "overtaken report must be dropped");
        assert_eq!(link.stats().out_of_order, 1);
        assert_eq!(link.stats().delivered, 1);
    }

    #[test]
    fn burst_estimator_sees_independent_losses_as_short_bursts() {
        let mut e = BurstEstimator::new(0.2);
        assert_eq!(e.estimate(), 1.0, "prior is memoryless");
        // Isolated losses: every run has length 1.
        for i in 0..100 {
            e.record(i % 7 == 0);
        }
        assert!((e.estimate() - 1.0).abs() < 1e-9, "got {}", e.estimate());
        assert!(e.runs_seen() > 10);
    }

    #[test]
    fn burst_estimator_tracks_burst_length() {
        let mut e = BurstEstimator::new(0.3);
        // Repeating pattern: 4 losses then 8 deliveries.
        for _ in 0..50 {
            for _ in 0..4 {
                e.record(true);
            }
            for _ in 0..8 {
                e.record(false);
            }
        }
        assert!(
            (e.estimate() - 4.0).abs() < 1e-6,
            "mean burst should be 4, got {}",
            e.estimate()
        );
    }

    #[test]
    fn burst_estimator_reports_an_open_outage() {
        let mut e = BurstEstimator::new(0.3);
        e.record(true);
        e.record(false); // one run of length 1
        for _ in 0..9 {
            e.record(true); // outage, never terminated
        }
        assert!(
            e.estimate() >= 9.0,
            "open run must raise the estimate, got {}",
            e.estimate()
        );
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn burst_estimator_rejects_bad_beta() {
        let _ = BurstEstimator::new(1.5);
    }

    #[test]
    fn feedback_link_loss_rate_shows_up_in_stats() {
        let mut link = FeedbackLink::new(Box::new(UniformLoss::new(0.4, 77)), 1);
        for f in 0..1000 {
            link.send(f, 0.05, 0.05, 1.0);
            let _ = link.poll(f);
        }
        let _ = link.poll(2000);
        let s = *link.stats();
        assert_eq!(s.sent, 1000);
        assert_eq!(s.delivered + s.lost, 1000, "no report may vanish");
        let rate = s.lost as f64 / s.sent as f64;
        assert!((rate - 0.4).abs() < 0.05, "observed loss {rate}");
    }
}
