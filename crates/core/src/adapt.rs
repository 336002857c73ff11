//! Power- and network-aware adaptation of `Intra_Th` (paper §3.2).
//!
//! The paper's extension: with feedback from the network and the battery,
//! PBPAIR "can adaptively change its operating points either to guarantee
//! image quality within a given power constraint or to minimize power
//! consumption with satisfying a given image quality constraint". Three
//! controllers realize this:
//!
//! * [`compensated_intra_th`] — the closed-form PLR compensation the paper
//!   sketches ("adapting the Intra_Th by the amount of the PLR increase
//!   can generate similar number of intra macro blocks"),
//! * [`IntraRatioController`] — integral feedback holding a target intra
//!   ratio (a proxy for a target resilience/bit-rate point),
//! * [`EnergyBudgetController`] — raises the resilience level while the
//!   measured per-frame energy stays within the budget, backs off when the
//!   budget is exceeded,
//! * [`DegradationController`] — wraps the PLR compensation with
//!   staleness awareness: the feedback reports cross the same lossy
//!   network as the video, so while they are dark the controller backs
//!   off exponentially toward a conservative high-intra threshold, and
//!   recovers smoothly when reports return.

use serde::{Deserialize, Serialize};

/// Compensates `Intra_Th` for a change in packet-loss rate so the number
/// of generated intra macroblocks stays approximately constant.
///
/// Under the paper's Equation-3 approximation the correctness of a
/// continuously inter-coded macroblock is `σ_k = (1−α)^k`, so the refresh
/// period at threshold `th` is `k = ln th / ln(1−α)`. Holding `k` fixed
/// while `α` moves from `base_plr` to `plr` yields
/// `th' = th^(ln(1−plr) / ln(1−base_plr))` — the threshold *decreases* as
/// PLR grows, exactly the direction §3.2 describes.
///
/// # Panics
///
/// Panics if any probability argument is outside `[0, 1)` (a PLR of
/// exactly 1 has no finite refresh period) or `base_th` is outside
/// `(0, 1]`.
pub fn compensated_intra_th(base_th: f64, base_plr: f64, plr: f64) -> f64 {
    assert!((0.0..1.0).contains(&base_plr), "base_plr must be in [0,1)");
    assert!((0.0..1.0).contains(&plr), "plr must be in [0,1)");
    assert!(base_th > 0.0 && base_th <= 1.0, "base_th must be in (0,1]");
    if base_plr == 0.0 {
        // No refresh at zero loss; any positive PLR needs a threshold, so
        // fall back to the base threshold.
        return base_th;
    }
    let exponent = (1.0 - plr).ln() / (1.0 - base_plr).ln();
    base_th.powf(exponent).clamp(0.0, 1.0)
}

/// Closed-form operating-point planner for the paper's design space
/// ("PBPAIR provides various operating points in terms of image quality
/// and resource constraints", §3.1).
///
/// Under the Equation-3 model a continuously inter-coded macroblock has
/// `σ_k = (1−α)^k`, so threshold `th` refreshes each macroblock every
/// `k = ln th / ln(1−α)` frames — an intra ratio of `1/k`. These helpers
/// invert that relationship so a designer can pick a target refresh
/// intensity (≈ bit-rate/robustness point) directly.
///
/// # Example
///
/// ```rust
/// use pbpair::adapt::{intra_ratio_for, intra_th_for_ratio};
///
/// // At 10% loss, what threshold yields ~25% intra macroblocks?
/// let th = intra_th_for_ratio(0.25, 0.10);
/// let achieved = intra_ratio_for(th, 0.10);
/// assert!((achieved - 0.25).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if `plr` is outside `(0, 1)` or `target_ratio` outside `(0, 1]`.
pub fn intra_th_for_ratio(target_ratio: f64, plr: f64) -> f64 {
    assert!(plr > 0.0 && plr < 1.0, "plr must be in (0,1)");
    assert!(
        target_ratio > 0.0 && target_ratio <= 1.0,
        "target ratio must be in (0,1]"
    );
    // k = 1 / ratio refresh period → th = (1−α)^k.
    (1.0 - plr).powf(1.0 / target_ratio).clamp(0.0, 1.0)
}

/// The Equation-3 intra ratio that threshold `th` produces at loss rate
/// `plr` (inverse of [`intra_th_for_ratio`]). Returns 0 for `th ≤ 0` (no
/// refresh) and 1 for `th ≥ 1` (all intra).
///
/// # Panics
///
/// Panics if `plr` is outside `(0, 1)`.
pub fn intra_ratio_for(th: f64, plr: f64) -> f64 {
    assert!(plr > 0.0 && plr < 1.0, "plr must be in (0,1)");
    if th <= 0.0 {
        return 0.0;
    }
    if th >= 1.0 {
        return 1.0;
    }
    let period = th.ln() / (1.0 - plr).ln();
    (1.0 / period).clamp(0.0, 1.0)
}

/// Integral controller holding a target intra-macroblock ratio by nudging
/// `Intra_Th` after every frame.
///
/// # Example
///
/// ```rust
/// use pbpair::adapt::IntraRatioController;
///
/// let mut c = IntraRatioController::new(0.25, 0.9, 0.3);
/// // Observed too few intra MBs → threshold rises.
/// let th1 = c.update(0.05);
/// assert!(th1 > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntraRatioController {
    target_ratio: f64,
    intra_th: f64,
    gain: f64,
}

impl IntraRatioController {
    /// Creates a controller with a target intra ratio, an initial
    /// threshold, and an integral gain.
    ///
    /// # Panics
    ///
    /// Panics if the target ratio or initial threshold is outside
    /// `[0, 1]`, or the gain is not positive.
    pub fn new(target_ratio: f64, initial_th: f64, gain: f64) -> Self {
        assert!((0.0..=1.0).contains(&target_ratio));
        assert!((0.0..=1.0).contains(&initial_th));
        assert!(gain > 0.0);
        IntraRatioController {
            target_ratio,
            intra_th: initial_th,
            gain,
        }
    }

    /// The threshold to use for the next frame.
    pub fn intra_th(&self) -> f64 {
        self.intra_th
    }

    /// The ratio the controller is holding.
    pub fn target_ratio(&self) -> f64 {
        self.target_ratio
    }

    /// Feeds back the intra ratio observed in the last frame; returns the
    /// updated threshold.
    pub fn update(&mut self, observed_ratio: f64) -> f64 {
        let error = self.target_ratio - observed_ratio.clamp(0.0, 1.0);
        self.intra_th = (self.intra_th + self.gain * error).clamp(0.0, 1.0);
        self.intra_th
    }
}

/// Budget-tracking controller implementing §3.2's "maximize error
/// resilient level within current residual energy constraint".
///
/// In PBPAIR's energy landscape (§4.3), a **higher** `Intra_Th` means
/// more intra macroblocks, *less* encoding energy (motion estimation is
/// skipped) and worse compression. The user therefore prefers the lowest
/// threshold their quality target needs (`preferred_th`); the controller
/// raises the threshold above that only while the measured per-frame
/// energy exceeds the budget, and relaxes back toward the preference when
/// there is headroom. It is model-free: it just walks the threshold
/// against the measured signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBudgetController {
    budget_joules_per_frame: f64,
    preferred_th: f64,
    intra_th: f64,
    step: f64,
}

impl EnergyBudgetController {
    /// Creates the controller with a per-frame energy budget, the user's
    /// preferred (compression-optimal) threshold, and a step size per
    /// frame. The threshold starts at the preference.
    ///
    /// # Panics
    ///
    /// Panics if the budget is not positive, the preference is outside
    /// `[0, 1]`, or the step is not positive.
    pub fn new(budget_joules_per_frame: f64, preferred_th: f64, step: f64) -> Self {
        assert!(budget_joules_per_frame > 0.0);
        assert!((0.0..=1.0).contains(&preferred_th));
        assert!(step > 0.0);
        EnergyBudgetController {
            budget_joules_per_frame,
            preferred_th,
            intra_th: preferred_th,
            step,
        }
    }

    /// The threshold to use for the next frame.
    pub fn intra_th(&self) -> f64 {
        self.intra_th
    }

    /// The per-frame budget in Joules.
    pub fn budget(&self) -> f64 {
        self.budget_joules_per_frame
    }

    /// Re-targets the budget (e.g. re-spreading a draining battery over
    /// the remaining frames) without losing the walker state.
    pub fn set_budget(&mut self, budget_joules_per_frame: f64) {
        assert!(budget_joules_per_frame > 0.0);
        self.budget_joules_per_frame = budget_joules_per_frame;
    }

    /// Feeds back the measured energy of the last frame; returns the
    /// updated threshold.
    pub fn update(&mut self, measured_joules: f64) -> f64 {
        if measured_joules > self.budget_joules_per_frame {
            // Over budget: buy energy headroom with more intra refresh.
            self.intra_th = (self.intra_th + self.step).clamp(self.preferred_th, 1.0);
        } else {
            // Headroom: relax toward the compression-optimal preference.
            self.intra_th = (self.intra_th - self.step).clamp(self.preferred_th, 1.0);
        }
        self.intra_th
    }
}

/// Configuration of the [`DegradationController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationConfig {
    /// Threshold the encoder wants at `base_plr` (the operating point the
    /// PLR compensation is anchored to).
    pub base_th: f64,
    /// PLR the `base_th` was tuned for.
    pub base_plr: f64,
    /// High-intra fallback threshold the controller drifts toward while
    /// feedback is dark. In this codebase a *higher* `Intra_Th` means
    /// more intra refresh — more resilient against whatever the (now
    /// invisible) network is doing.
    pub conservative_th: f64,
    /// Frames without a feedback report before the controller declares
    /// the channel dark and starts backing off.
    pub staleness_timeout: u64,
    /// Per-frame fraction of the remaining gap closed toward
    /// `conservative_th` while dark (exponential backoff).
    pub backoff_rate: f64,
    /// Per-frame fraction of the remaining gap closed toward the
    /// compensated tracking threshold while feedback is live (smooth
    /// recovery — no discontinuity when reports reappear).
    pub recovery_rate: f64,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            base_th: 0.9,
            base_plr: 0.1,
            conservative_th: 0.995,
            staleness_timeout: 30,
            backoff_rate: 0.05,
            recovery_rate: 0.2,
        }
    }
}

/// Degradation-aware `Intra_Th` controller: PLR compensation that
/// survives the feedback path itself failing.
///
/// The §3.2 loop assumes the encoder *has* a PLR estimate. When the
/// return channel is lossy or delayed (see
/// `pbpair_netsim::feedback::FeedbackLink`) that assumption breaks: the
/// last report goes stale, and steering on it is steering blind. This
/// controller:
///
/// * tracks `compensated_intra_th(base_th, base_plr, plr)` while reports
///   are fresh, approaching it at `recovery_rate` per frame (smooth, no
///   jumps when a report lands after a blackout),
/// * after `staleness_timeout` frames of silence, backs off
///   exponentially toward `conservative_th` — the longer the dark, the
///   closer to full intra refresh, because an invisible network must be
///   assumed hostile,
/// * resumes tracking the moment a report arrives.
///
/// The controller keeps no clock of its own: the caller owns the frame
/// of the last applied report and passes the resulting darkness (frames
/// since that report, `None` before the first) to every
/// [`tick`](Self::tick), so one clock serves every consumer of it.
///
/// # Example
///
/// ```rust
/// use pbpair::adapt::{DegradationConfig, DegradationController};
///
/// let mut c = DegradationController::new(DegradationConfig::default()).unwrap();
/// c.on_feedback(0.1); // a report lands at frame 0
/// let tracking = c.tick(Some(1));
/// // 200 frames of silence: well past the timeout, deep into backoff.
/// let mut dark = tracking;
/// for f in 2..200 {
///     dark = c.tick(Some(f));
/// }
/// assert!(c.is_degraded(Some(199)));
/// assert!(dark > tracking, "blackout must raise the threshold");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationController {
    config: DegradationConfig,
    intra_th: f64,
    /// Threshold the compensation asks for, from the freshest report.
    tracking_th: f64,
}

impl DegradationController {
    /// Creates the controller; the threshold starts at the compensated
    /// base point.
    ///
    /// # Errors
    ///
    /// Returns a message if `base_th` or `conservative_th` is outside
    /// `(0, 1]`, `base_plr` outside `[0, 1)`, or either rate outside
    /// `(0, 1]`.
    pub fn new(config: DegradationConfig) -> Result<Self, String> {
        if !(config.base_th > 0.0 && config.base_th <= 1.0) {
            return Err(format!("base_th must be in (0,1]: {}", config.base_th));
        }
        if !(0.0..1.0).contains(&config.base_plr) {
            return Err(format!("base_plr must be in [0,1): {}", config.base_plr));
        }
        if !(config.conservative_th > 0.0 && config.conservative_th <= 1.0) {
            return Err(format!(
                "conservative_th must be in (0,1]: {}",
                config.conservative_th
            ));
        }
        for (name, rate) in [
            ("backoff_rate", config.backoff_rate),
            ("recovery_rate", config.recovery_rate),
        ] {
            if !(rate > 0.0 && rate <= 1.0) {
                return Err(format!("{name} must be in (0,1]: {rate}"));
            }
        }
        Ok(DegradationController {
            config,
            intra_th: config.base_th,
            tracking_th: config.base_th,
        })
    }

    /// The threshold to use for the next frame (without advancing time).
    pub fn intra_th(&self) -> f64 {
        self.intra_th
    }

    /// Whether `dark` frames without a report are past the staleness
    /// timeout (never before the first report, `dark == None` — silence
    /// at startup is ignorance, not degradation, and the base point
    /// already covers it).
    pub fn is_degraded(&self, dark: Option<u64>) -> bool {
        dark.is_some_and(|d| d > self.config.staleness_timeout)
    }

    /// Feeds in a PLR report; re-anchors the tracking threshold via
    /// [`compensated_intra_th`]. The operating threshold itself moves
    /// only in [`tick`](Self::tick), so a report after a long blackout
    /// starts a glide, not a jump.
    pub fn on_feedback(&mut self, plr: f64) {
        let plr = plr.clamp(0.0, 0.999_999);
        self.tracking_th = compensated_intra_th(self.config.base_th, self.config.base_plr, plr);
    }

    /// Advances one frame, `dark` frames after the last applied report,
    /// and returns the threshold for it.
    pub fn tick(&mut self, dark: Option<u64>) -> f64 {
        let (target, rate) = if self.is_degraded(dark) {
            (self.config.conservative_th, self.config.backoff_rate)
        } else {
            (self.tracking_th, self.config.recovery_rate)
        };
        self.intra_th += (target - self.intra_th) * rate;
        self.intra_th = self.intra_th.clamp(0.0, 1.0);
        self.intra_th
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compensation_lowers_threshold_when_plr_rises() {
        let base = compensated_intra_th(0.9, 0.1, 0.1);
        assert!((base - 0.9).abs() < 1e-12, "no change at base plr");
        let higher = compensated_intra_th(0.9, 0.1, 0.3);
        assert!(
            higher < 0.9,
            "higher plr must lower the threshold: {higher}"
        );
        let lower = compensated_intra_th(0.9, 0.1, 0.02);
        assert!(lower > 0.9, "lower plr must raise the threshold: {lower}");
    }

    #[test]
    fn compensation_preserves_refresh_period() {
        // k = ln th / ln(1−α) must be invariant.
        let th2 = compensated_intra_th(0.85, 0.1, 0.25);
        let k1 = (0.85f64).ln() / (0.9f64).ln();
        let k2 = th2.ln() / (0.75f64).ln();
        assert!((k1 - k2).abs() < 1e-9, "{k1} vs {k2}");
    }

    #[test]
    fn compensation_handles_zero_base_plr() {
        assert_eq!(compensated_intra_th(0.9, 0.0, 0.2), 0.9);
    }

    #[test]
    #[should_panic(expected = "base_th")]
    fn compensation_rejects_zero_threshold() {
        let _ = compensated_intra_th(0.0, 0.1, 0.2);
    }

    #[test]
    fn planner_roundtrips_and_orders_sensibly() {
        for plr in [0.02, 0.1, 0.3] {
            for ratio in [0.05, 0.25, 0.5, 1.0] {
                let th = intra_th_for_ratio(ratio, plr);
                assert!((0.0..=1.0).contains(&th));
                assert!(
                    (intra_ratio_for(th, plr) - ratio).abs() < 1e-9,
                    "roundtrip at plr {plr} ratio {ratio}"
                );
            }
            // More refresh needs a higher threshold.
            assert!(intra_th_for_ratio(0.5, plr) > intra_th_for_ratio(0.1, plr));
        }
        // At higher loss, the same threshold refreshes more.
        assert!(intra_ratio_for(0.9, 0.2) > intra_ratio_for(0.9, 0.05));
        // Boundaries.
        assert_eq!(intra_ratio_for(0.0, 0.1), 0.0);
        assert_eq!(intra_ratio_for(1.0, 0.1), 1.0);
    }

    #[test]
    fn planner_matches_the_encoder_in_the_eq3_regime() {
        // Closed-loop check: run PBPAIR with SimilarityModel::None at a
        // planned operating point and verify the achieved intra ratio is
        // in the right neighbourhood.
        use crate::{PbpairConfig, PbpairPolicy, SimilarityModel};
        use pbpair_codec::{Encoder, EncoderConfig};
        use pbpair_media::synth::SyntheticSequence;

        let plr = 0.15;
        let target = 0.2;
        let th = intra_th_for_ratio(target, plr);
        let mut policy = PbpairPolicy::new(
            pbpair_media::VideoFormat::QCIF,
            PbpairConfig {
                intra_th: th,
                plr,
                similarity: SimilarityModel::None,
                ..PbpairConfig::default()
            },
        )
        .unwrap();
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut seq = SyntheticSequence::foreman_class(13);
        let mut ratio = 0.0;
        let frames = 40;
        for _ in 0..frames {
            ratio += enc
                .encode_frame(&seq.next_frame(), &mut policy)
                .stats
                .intra_ratio();
        }
        ratio /= frames as f64;
        assert!(
            (ratio - target).abs() < 0.1,
            "planned {target}, achieved {ratio}"
        );
    }

    #[test]
    fn ratio_controller_converges_on_a_linear_plant() {
        // Toy plant: intra ratio responds linearly to threshold.
        let plant = |th: f64| (th - 0.6).clamp(0.0, 0.4) / 0.4;
        let mut c = IntraRatioController::new(0.25, 0.5, 0.2);
        let mut ratio = 0.0;
        for _ in 0..200 {
            let th = c.update(ratio);
            ratio = plant(th);
        }
        assert!(
            (ratio - 0.25).abs() < 0.05,
            "controller should settle near target: {ratio}"
        );
    }

    #[test]
    fn ratio_controller_clamps_threshold() {
        let mut c = IntraRatioController::new(1.0, 0.9, 10.0);
        let th = c.update(0.0);
        assert_eq!(th, 1.0);
        let mut c2 = IntraRatioController::new(0.0, 0.1, 10.0);
        let th2 = c2.update(1.0);
        assert_eq!(th2, 0.0);
    }

    #[test]
    fn energy_controller_walks_toward_the_budget() {
        // Toy plant matching §4.3: encoding energy falls as the threshold
        // (intra ratio) rises.
        let plant = |th: f64| 5.0 - 4.0 * th;
        let mut c = EnergyBudgetController::new(3.0, 0.1, 0.02);
        let mut th = c.intra_th();
        for _ in 0..200 {
            th = c.update(plant(th));
        }
        // Budget 3.0 → equilibrium th = 0.5; the walker oscillates ±step.
        assert!((th - 0.5).abs() < 0.05, "equilibrium near 0.5: {th}");
    }

    #[test]
    fn energy_controller_raises_resilience_over_budget() {
        let mut c = EnergyBudgetController::new(1.0, 0.8, 0.05);
        let th = c.update(5.0);
        assert!(th > 0.8, "over budget must raise the threshold: {th}");
        let th2 = c.update(0.1);
        assert!(th2 < th, "headroom must relax toward the preference");
    }

    #[test]
    fn energy_controller_never_drops_below_preference() {
        let mut c = EnergyBudgetController::new(10.0, 0.7, 0.05);
        for _ in 0..50 {
            c.update(0.0); // permanently under budget
        }
        assert_eq!(c.intra_th(), 0.7);
    }

    #[test]
    fn energy_controller_budget_retarget() {
        let mut c = EnergyBudgetController::new(5.0, 0.5, 0.05);
        assert_eq!(c.budget(), 5.0);
        c.set_budget(1.0);
        assert_eq!(c.budget(), 1.0);
        let th = c.update(2.0); // now over the tightened budget
        assert!(th > 0.5);
    }

    fn degradation_config() -> DegradationConfig {
        DegradationConfig {
            base_th: 0.9,
            base_plr: 0.1,
            conservative_th: 0.99,
            staleness_timeout: 10,
            backoff_rate: 0.1,
            recovery_rate: 0.25,
        }
    }

    #[test]
    fn degradation_tracks_compensation_while_feedback_is_fresh() {
        let mut c = DegradationController::new(degradation_config()).unwrap();
        let target = compensated_intra_th(0.9, 0.1, 0.25);
        for _ in 0..200 {
            c.on_feedback(0.25); // report every frame — never stale
            c.tick(Some(0));
        }
        assert!(!c.is_degraded(Some(0)));
        assert!(
            (c.intra_th() - target).abs() < 1e-6,
            "must settle on the compensated threshold: {} vs {target}",
            c.intra_th()
        );
    }

    #[test]
    fn degradation_backs_off_toward_conservative_during_blackout() {
        let cfg = degradation_config();
        let mut c = DegradationController::new(cfg).unwrap();
        c.on_feedback(0.1); // the only report, at frame 0
        let mut prev = c.tick(Some(1));
        assert!(
            !c.is_degraded(Some(5)),
            "within the timeout is not degraded"
        );
        // Silence. Past the timeout the threshold must climb
        // monotonically toward (and never past) the conservative point.
        let mut climbed = false;
        for f in 2..150 {
            let th = c.tick(Some(f));
            if c.is_degraded(Some(f)) {
                assert!(th >= prev, "backoff must be monotone: {th} < {prev}");
                assert!(th <= cfg.conservative_th + 1e-12);
                climbed = climbed || th > prev;
            }
            prev = th;
        }
        assert!(climbed);
        assert!(
            (c.intra_th() - cfg.conservative_th).abs() < 0.01,
            "long blackout must approach conservative: {}",
            c.intra_th()
        );
    }

    #[test]
    fn degradation_recovers_smoothly_when_feedback_returns() {
        let cfg = degradation_config();
        let mut c = DegradationController::new(cfg).unwrap();
        c.on_feedback(0.1);
        for f in 1..100 {
            c.tick(Some(f)); // blackout
        }
        let dark_th = c.intra_th();
        // Reports resume: no jump — the threshold glides back down.
        let mut prev = dark_th;
        for _ in 100..160 {
            c.on_feedback(0.1);
            let th = c.tick(Some(0));
            let step = (prev - th).abs();
            assert!(
                step <= (prev - 0.9).abs() * cfg.recovery_rate + 1e-12,
                "recovery step too large: {step}"
            );
            assert!(th <= prev + 1e-12, "recovery must descend: {th} > {prev}");
            prev = th;
        }
        assert!(
            (c.intra_th() - 0.9).abs() < 1e-3,
            "must re-settle on tracking: {}",
            c.intra_th()
        );
    }

    #[test]
    fn degradation_never_degrades_before_first_report() {
        let mut c = DegradationController::new(degradation_config()).unwrap();
        for _ in 0..100 {
            c.tick(None);
        }
        assert!(!c.is_degraded(None), "startup silence is not a blackout");
        assert!((c.intra_th() - 0.9).abs() < 1e-9, "holds the base point");
    }

    #[test]
    fn degradation_staleness_boundary_is_exclusive() {
        let c = DegradationController::new(degradation_config()).unwrap();
        assert!(
            !c.is_degraded(Some(10)),
            "exactly at the timeout is still live"
        );
        assert!(c.is_degraded(Some(11)));
    }

    #[test]
    fn degradation_rejects_bad_config() {
        let bad_th = DegradationConfig {
            base_th: 0.0,
            ..degradation_config()
        };
        assert!(DegradationController::new(bad_th).is_err());
        let bad_rate = DegradationConfig {
            backoff_rate: 1.5,
            ..degradation_config()
        };
        assert!(DegradationController::new(bad_rate).is_err());
        let bad_plr = DegradationConfig {
            base_plr: 1.0,
            ..degradation_config()
        };
        assert!(DegradationController::new(bad_plr).is_err());
    }

    #[test]
    fn degradation_clamps_reported_plr() {
        let mut c = DegradationController::new(degradation_config()).unwrap();
        c.on_feedback(7.3); // garbage from a corrupted report
        let th = c.tick(Some(1));
        assert!((0.0..=1.0).contains(&th));
    }
}
