//! Per-session health: staleness watchdog and fleet health ledger.
//!
//! The degradation controller (`pbpair::adapt`) already *steers* around
//! feedback loss — it glides `Intra_Th` toward a conservative point
//! while the return channel is dark. What it does not do is *classify*:
//! operators of a serving fleet need to know which sessions are merely
//! weathering loss and which are effectively dead, and tests need a
//! crisp statement of the recovery path a chaos fault is supposed to
//! traverse. This module adds that classification:
//!
//! * [`StalenessWatchdog`] — a per-session state machine fed one
//!   observation per frame slot (feedback darkness + decoder liveness)
//!   that escalates strictly one step at a time through
//!   [`HealthState::Healthy`] → [`HealthState::Degraded`] →
//!   [`HealthState::Quarantined`], and de-escalates to
//!   [`HealthState::Recovered`] after a sustained fresh streak.
//!   Quarantine is not just a label: [`StalenessWatchdog::floor_th`]
//!   reads it as an `Intra_Th` floor (maximum resilience, minimum cost),
//!   one of the three inputs the session's `Intra_Th` arbiter
//!   (`crate::session::arbitrate_intra_th`) takes beside the network
//!   proposal and the fleet's admission floor.
//! * [`HealthLedger`] — the append-only transition log
//!   ([`HealthTransition`]: frame, from, to, reason), deterministic and
//!   reported alongside the digest, so a chaos test can assert the
//!   *full* watchdog → degradation → recovery path, not just the final
//!   state.
//!
//! Everything is a pure function of the deterministic per-frame inputs,
//! so health reports are byte-identical at any worker count.

/// Where a session stands in the fleet's health state machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HealthState {
    /// Feedback flowing, decoder live.
    #[default]
    Healthy,
    /// Feedback dark past the degrade threshold (or decoder stalling);
    /// the session is steering blind.
    Degraded,
    /// Dark past the quarantine threshold: the watchdog imposes a
    /// maximum-resilience `Intra_Th` floor until signs of life return.
    Quarantined,
    /// Was degraded or quarantined, then saw a sustained fresh streak.
    /// Operationally identical to [`HealthState::Healthy`]; the distinct
    /// state records that the session went down and came back.
    Recovered,
}

impl HealthState {
    /// Stable lowercase label for digests.
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Recovered => "recovered",
        }
    }

    /// Whether the session is currently impaired.
    pub fn is_impaired(&self) -> bool {
        matches!(self, HealthState::Degraded | HealthState::Quarantined)
    }
}

// Watchdog thresholds, in frame slots. The dark thresholds tolerate a
// couple of lost feedback reports at the standard cadence (interval 5,
// delay 2): one lost report leaves the encoder ~12 frames dark, which is
// weather, not ill health.

/// Feedback darkness beyond which a healthy session degrades.
pub const DEGRADE_AFTER_DARK: u64 = 18;
/// Darkness beyond which a degraded session is quarantined.
pub const QUARANTINE_AFTER_DARK: u64 = 40;
/// Consecutive whole-frame losses before the display is declared
/// starved (a session showing nothing is impaired even when the feedback
/// path is perfectly fresh — the burst-kill and channel-swap failure
/// signature).
pub const STARVE_AFTER_LOST: u64 = 6;
/// Consecutive healthy observations an impaired session needs to be
/// declared recovered.
pub const RECOVER_AFTER_FRESH: u64 = 6;
/// `Intra_Th` floor imposed while quarantined.
pub const QUARANTINE_FLOOR_TH: f64 = 0.99;

/// One recorded state change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    /// Frame slot at which the transition fired.
    pub frame: u64,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Deterministic human-readable cause (`dark=14`, `stall`,
    /// `fresh=6`).
    pub reason: String,
}

/// Append-only per-session health log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthLedger {
    transitions: Vec<HealthTransition>,
}

impl HealthLedger {
    /// The recorded transitions, in frame order.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    fn record(&mut self, frame: u64, from: HealthState, to: HealthState, reason: String) {
        self.transitions.push(HealthTransition {
            frame,
            from,
            to,
            reason,
        });
    }
}

/// The per-session watchdog. Feed it one [`StalenessWatchdog::observe`]
/// per frame slot; read [`StalenessWatchdog::floor_th`] into the
/// session's `Intra_Th` arbiter.
#[derive(Debug, Clone, Default)]
pub struct StalenessWatchdog {
    state: HealthState,
    fresh_streak: u64,
    ledger: HealthLedger,
}

impl StalenessWatchdog {
    /// Creates a watchdog in the healthy state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The transition log.
    pub fn ledger(&self) -> &HealthLedger {
        &self.ledger
    }

    /// The `Intra_Th` floor the current state imposes:
    /// [`QUARANTINE_FLOOR_TH`] while quarantined, `0.0` otherwise.
    pub fn floor_th(&self) -> f64 {
        if self.state == HealthState::Quarantined {
            QUARANTINE_FLOOR_TH
        } else {
            0.0
        }
    }

    /// Feeds one frame slot: `dark` is the session's feedback staleness
    /// (frames since the last applied report; `None` before the first
    /// report — startup silence is ignorance, not ill health), `stalled`
    /// whether the decoder failed to advance this slot, `lost_streak`
    /// the run of consecutive whole-frame losses ending at the previous
    /// slot (display starvation).
    ///
    /// Escalation is strictly one step per observation (healthy →
    /// degraded → quarantined), so the ledger always shows the full
    /// path; recovery requires [`RECOVER_AFTER_FRESH`] consecutive calm
    /// observations.
    pub fn observe(&mut self, frame: u64, dark: Option<u64>, stalled: bool, lost_streak: u64) {
        let dark_frames = dark.unwrap_or(0);
        let starved = lost_streak >= STARVE_AFTER_LOST;
        let degrade_signal = stalled || starved || dark_frames > DEGRADE_AFTER_DARK;
        let quarantine_signal = dark_frames > QUARANTINE_AFTER_DARK
            || ((stalled || starved) && self.state == HealthState::Degraded);

        if degrade_signal || quarantine_signal {
            self.fresh_streak = 0;
            let reason = if stalled {
                "stall".to_string()
            } else if starved {
                format!("starved={lost_streak}")
            } else {
                format!("dark={dark_frames}")
            };
            match self.state {
                HealthState::Healthy | HealthState::Recovered => {
                    self.transition(frame, HealthState::Degraded, reason);
                }
                HealthState::Degraded if quarantine_signal => {
                    self.transition(frame, HealthState::Quarantined, reason);
                }
                _ => {}
            }
        } else if self.state.is_impaired() {
            self.fresh_streak += 1;
            if self.fresh_streak >= RECOVER_AFTER_FRESH {
                let streak = self.fresh_streak;
                self.transition(frame, HealthState::Recovered, format!("fresh={streak}"));
                self.fresh_streak = 0;
            }
        }
    }

    /// Records an externally detected SLO violation against this
    /// session — the observability plane's burn-rate alerts feed the
    /// ledger through here. Escalation follows the same strict one-step
    /// rule as [`StalenessWatchdog::observe`] (healthy/recovered →
    /// degraded → quarantined) with reason `slo:<name>`, and the fresh
    /// streak resets: an SLO breach is evidence of ill health even when
    /// the per-session signals look calm.
    pub fn alert(&mut self, frame: u64, slo: &str) {
        self.fresh_streak = 0;
        match self.state {
            HealthState::Healthy | HealthState::Recovered => {
                self.transition(frame, HealthState::Degraded, format!("slo:{slo}"));
            }
            HealthState::Degraded => {
                self.transition(frame, HealthState::Quarantined, format!("slo:{slo}"));
            }
            HealthState::Quarantined => {}
        }
    }

    fn transition(&mut self, frame: u64, to: HealthState, reason: String) {
        let from = self.state;
        self.state = to;
        self.ledger.record(frame, from, to, reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observing darkness `f` at frames `f = 0..DEGRADED_BY` degrades the
    /// watchdog at the last of them, the first past the threshold.
    const DEGRADED_BY: u64 = DEGRADE_AFTER_DARK + 2;

    #[test]
    fn quiet_session_stays_healthy() {
        let mut w = StalenessWatchdog::new();
        for f in 0..50 {
            w.observe(f, Some(f.min(2)), false, 0);
            assert_eq!(w.floor_th(), 0.0);
        }
        assert_eq!(w.state(), HealthState::Healthy);
        assert!(w.ledger().transitions().is_empty());
    }

    #[test]
    fn startup_silence_is_not_ill_health() {
        let mut w = StalenessWatchdog::new();
        for f in 0..100 {
            w.observe(f, None, false, 0);
        }
        assert_eq!(w.state(), HealthState::Healthy);
    }

    #[test]
    fn sustained_darkness_walks_the_full_escalation_path() {
        let mut w = StalenessWatchdog::new();
        for f in 0..QUARANTINE_AFTER_DARK + 5 {
            w.observe(f, Some(f), false, 0);
        }
        assert_eq!(w.state(), HealthState::Quarantined);
        assert_eq!(
            w.floor_th(),
            QUARANTINE_FLOOR_TH,
            "quarantine must impose the floor"
        );
        let log = w.ledger().transitions();
        assert_eq!(log.len(), 2, "one step per level: {log:?}");
        assert_eq!(
            (log[0].from, log[0].to),
            (HealthState::Healthy, HealthState::Degraded)
        );
        assert_eq!(
            (log[1].from, log[1].to),
            (HealthState::Degraded, HealthState::Quarantined)
        );
        assert!(log[0].frame < log[1].frame);
    }

    #[test]
    fn recovery_needs_the_full_fresh_streak() {
        let mut w = StalenessWatchdog::new();
        let dark_until = QUARANTINE_AFTER_DARK + 2;
        for f in 0..dark_until {
            w.observe(f, Some(f), false, 0);
        }
        assert_eq!(w.state(), HealthState::Quarantined);
        // One calm frame short of the streak: not yet recovered.
        let recovered_at = dark_until + RECOVER_AFTER_FRESH - 1;
        for f in dark_until..recovered_at {
            w.observe(f, Some(1), false, 0);
            assert_eq!(
                w.floor_th(),
                QUARANTINE_FLOOR_TH,
                "floor holds until recovered"
            );
        }
        assert_eq!(w.state(), HealthState::Quarantined);
        // The last calm frame completes the streak.
        w.observe(recovered_at, Some(1), false, 0);
        assert_eq!(w.floor_th(), 0.0);
        assert_eq!(w.state(), HealthState::Recovered);
        let last = w.ledger().transitions().last().unwrap();
        assert_eq!(last.to, HealthState::Recovered);
        assert_eq!(last.reason, format!("fresh={RECOVER_AFTER_FRESH}"));
    }

    #[test]
    fn relapse_interrupts_a_fresh_streak() {
        let mut w = StalenessWatchdog::new();
        for f in 0..DEGRADED_BY {
            w.observe(f, Some(f), false, 0);
        }
        assert_eq!(w.state(), HealthState::Degraded);
        let mut f = DEGRADED_BY;
        w.observe(f, Some(1), false, 0);
        w.observe(f + 1, Some(1), false, 0);
        // A relapse resets the streak.
        w.observe(f + 2, Some(DEGRADE_AFTER_DARK + 1), false, 0);
        f += 3;
        for _ in 1..RECOVER_AFTER_FRESH {
            w.observe(f, Some(1), false, 0);
            f += 1;
        }
        assert_eq!(w.state(), HealthState::Degraded, "streak must restart");
        w.observe(f, Some(1), false, 0);
        assert_eq!(w.state(), HealthState::Recovered);
    }

    #[test]
    fn decoder_stall_escalates_even_with_fresh_feedback() {
        let mut w = StalenessWatchdog::new();
        w.observe(0, Some(0), true, 0);
        assert_eq!(w.state(), HealthState::Degraded);
        w.observe(1, Some(0), true, 0);
        assert_eq!(w.state(), HealthState::Quarantined);
        assert_eq!(w.floor_th(), QUARANTINE_FLOOR_TH);
    }

    #[test]
    fn recovered_session_can_degrade_again() {
        let mut w = StalenessWatchdog::new();
        for f in 0..DEGRADED_BY {
            w.observe(f, Some(f), false, 0);
        }
        let calm_until = DEGRADED_BY + RECOVER_AFTER_FRESH;
        for f in DEGRADED_BY..calm_until {
            w.observe(f, Some(1), false, 0);
        }
        assert_eq!(w.state(), HealthState::Recovered);
        w.observe(calm_until, Some(DEGRADE_AFTER_DARK + 2), false, 0);
        assert_eq!(w.state(), HealthState::Degraded);
        assert_eq!(w.ledger().transitions().len(), 3);
    }

    #[test]
    fn display_starvation_escalates_with_fresh_feedback() {
        // Burst-kill / channel-swap signature: feedback is perfectly
        // fresh, but the display shows nothing frame after frame.
        let mut w = StalenessWatchdog::new();
        w.observe(0, Some(1), false, STARVE_AFTER_LOST - 1);
        assert_eq!(w.state(), HealthState::Healthy, "short runs are noise");
        w.observe(1, Some(1), false, STARVE_AFTER_LOST);
        assert_eq!(w.state(), HealthState::Degraded);
        w.observe(2, Some(1), false, STARVE_AFTER_LOST + 1);
        assert_eq!(w.state(), HealthState::Quarantined);
        assert_eq!(w.floor_th(), QUARANTINE_FLOOR_TH);
        assert!(w.ledger().transitions()[0].reason.starts_with("starved="));
        // Frames start arriving again: full fresh streak → recovered.
        for f in 3..3 + RECOVER_AFTER_FRESH {
            w.observe(f, Some(1), false, 0);
        }
        assert_eq!(w.state(), HealthState::Recovered);
    }
}
