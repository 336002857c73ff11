//! Fleet admission control: shed or degrade before drowning.
//!
//! The manager runs the fleet in rounds (one frame per live session per
//! round) and tells the controller, after each round, how much *work*
//! the round cost — measured in modeled encode Joules, which are a
//! deterministic function of the sessions' streams, not of wall clock
//! or worker count. The controller compares that against a configured
//! service capacity and integrates the excess into a **lag** value:
//! how far the fleet has fallen behind a real-time schedule, in units
//! of round-budgets.
//!
//! Responses escalate, with hysteresis:
//!
//! 1. **Degrade** (`lag >` [`DEGRADE_LAG`]): every session gets a high
//!    `Intra_Th` floor. Intra decisions skip motion estimation — the
//!    dominant cost — so degraded frames are several times cheaper; the
//!    stream also becomes more loss-resilient, which matters because a
//!    congested serving fleet usually coincides with a congested
//!    network. On deeper lag ([`RATE_DROP_LAG`]), degraded sessions also
//!    drop every [`RATE_DROP_STRIDE`]-th frame.
//! 2. **Shed** (`lag >` [`SHED_LAG`]): the most expensive session (by last
//!    round's energy; ties to the lowest id) is terminated outright.
//!    At most one session is shed per round, so a transient spike
//!    cannot wipe the fleet.
//! 3. **Recover** (`lag <` [`RECOVER_LAG`]): the floor is lifted and
//!    sessions resume full rate. Shed sessions stay shed — admission
//!    is cheaper than re-buffering a client that was already dropped.
//!
//! The thresholds are constants; the capacity is the controller's one
//! setting.
//!
//! Everything here is pure integer/float state machinery on
//! deterministic inputs, so fleet behaviour replays bit-identically at
//! any worker count — the property the replay test pins down.

/// Lag below which degradation is lifted.
pub const RECOVER_LAG: f64 = 0.5;
/// Lag (in rounds of budget, i.e. `lag_j / capacity_j_per_round`)
/// beyond which sessions are degraded.
pub const DEGRADE_LAG: f64 = 2.0;
/// Lag beyond which degraded sessions also drop frames.
pub const RATE_DROP_LAG: f64 = 6.0;
/// Lag beyond which one session per round is shed.
pub const SHED_LAG: f64 = 12.0;

// The escalation climbs in order, and recovery sits below all of it.
const _: () = assert!(
    RECOVER_LAG <= DEGRADE_LAG && DEGRADE_LAG <= RATE_DROP_LAG && RATE_DROP_LAG <= SHED_LAG
);

/// The `Intra_Th` floor imposed while degraded.
pub const DEGRADE_FLOOR_TH: f64 = 0.995;
/// While rate-dropping, every `RATE_DROP_STRIDE`-th frame of each
/// degraded session is skipped.
pub const RATE_DROP_STRIDE: u64 = 3;

/// The capacity model, admission control's one setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Modeled Joules of encode work the fleet may spend per round while
    /// staying "real time". Round cost beyond this accrues as lag.
    pub capacity_j_per_round: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity_j_per_round: 1.0,
        }
    }
}

impl AdmissionConfig {
    /// Validates the capacity.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity_j_per_round.is_nan() || self.capacity_j_per_round <= 0.0 {
            return Err(format!(
                "capacity_j_per_round {} must be positive",
                self.capacity_j_per_round
            ));
        }
        Ok(())
    }
}

/// The fleet-level service state the controller is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceLevel {
    /// Full quality, full rate.
    Normal,
    /// `Intra_Th` floor in force.
    Degraded,
    /// Floor in force and degraded sessions dropping frames.
    RateDropping,
}

/// What the manager must do after a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundDecision {
    /// Service level for the next round.
    pub level: ServiceLevel,
    /// `Intra_Th` floor to apply to every live session (0 when normal).
    pub floor_th: f64,
    /// Whether the stride-[`RATE_DROP_STRIDE`] frame drop applies.
    pub drop_frames: bool,
    /// Session to shed this round, if any.
    pub shed: Option<u32>,
    /// Lag after this round, in round-budget units.
    pub lag: f64,
}

/// The integrating admission controller. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionController {
    capacity_j_per_round: f64,
    lag_j: f64,
    level: ServiceLevel,
    shed_count: u32,
    degraded_rounds: u64,
}

impl AdmissionController {
    /// Creates a controller.
    ///
    /// # Errors
    ///
    /// Propagates [`AdmissionConfig::validate`].
    pub fn new(cfg: AdmissionConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(AdmissionController {
            capacity_j_per_round: cfg.capacity_j_per_round,
            lag_j: 0.0,
            level: ServiceLevel::Normal,
            shed_count: 0,
            degraded_rounds: 0,
        })
    }

    /// Sessions shed so far.
    pub fn shed_count(&self) -> u32 {
        self.shed_count
    }

    /// Rounds spent at a level below [`ServiceLevel::Normal`].
    pub fn degraded_rounds(&self) -> u64 {
        self.degraded_rounds
    }

    /// Current lag in round-budget units.
    pub fn lag(&self) -> f64 {
        self.lag_j / self.capacity_j_per_round
    }

    /// Feeds one finished round: `(session id, compute Joules)` for every
    /// session that stepped. Returns the decision for the next round.
    pub fn observe_round(&mut self, round_cost: &[(u32, f64)]) -> RoundDecision {
        let spent: f64 = round_cost.iter().map(|&(_, joules)| joules).sum();
        self.lag_j = (self.lag_j + spent - self.capacity_j_per_round).max(0.0);
        let lag = self.lag();

        self.level = if lag > RATE_DROP_LAG {
            ServiceLevel::RateDropping
        } else if lag > DEGRADE_LAG {
            ServiceLevel::Degraded
        } else if lag < RECOVER_LAG {
            ServiceLevel::Normal
        } else {
            // Hysteresis band: hold the current level (but entering the
            // band from Normal is not an escalation).
            self.level
        };
        if self.level != ServiceLevel::Normal {
            self.degraded_rounds += 1;
        }

        let shed = if lag > SHED_LAG {
            // Shed the costliest session; ties break to the lowest id so
            // the choice is independent of observation order.
            round_cost
                .iter()
                .max_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .expect("energy is never NaN")
                        .then(b.0.cmp(&a.0))
                })
                .map(|&(id, _)| id)
        } else {
            None
        };
        if shed.is_some() {
            self.shed_count += 1;
        }

        RoundDecision {
            level: self.level,
            floor_th: if self.level == ServiceLevel::Normal {
                0.0
            } else {
                DEGRADE_FLOOR_TH
            },
            drop_frames: self.level == ServiceLevel::RateDropping,
            shed,
            lag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            capacity_j_per_round: 10.0,
        }
    }

    #[test]
    fn under_capacity_stays_normal() {
        let mut c = AdmissionController::new(cfg()).unwrap();
        for _ in 0..50 {
            let d = c.observe_round(&[(0, 3.0), (1, 4.0)]);
            assert_eq!(d.level, ServiceLevel::Normal);
            assert_eq!(d.floor_th, 0.0);
            assert_eq!(d.shed, None);
            assert_eq!(d.lag, 0.0);
        }
        assert_eq!(c.degraded_rounds(), 0);
    }

    #[test]
    fn sustained_overload_escalates_then_sheds_costliest() {
        let mut c = AdmissionController::new(cfg()).unwrap();
        let mut saw_degrade = false;
        let mut saw_rate_drop = false;
        let mut shed = None;
        for _ in 0..40 {
            // 15 J per round against a 10 J budget: lag grows 0.5/round.
            let d = c.observe_round(&[(0, 4.0), (1, 6.0), (2, 5.0)]);
            saw_degrade |= d.level == ServiceLevel::Degraded;
            saw_rate_drop |= d.drop_frames;
            if let Some(id) = d.shed {
                shed = Some(id);
                break;
            }
        }
        assert!(saw_degrade, "must pass through Degraded");
        assert!(saw_rate_drop, "must escalate to rate dropping");
        assert_eq!(shed, Some(1), "costliest session is shed first");
        assert_eq!(c.shed_count(), 1);
    }

    #[test]
    fn recovery_needs_lag_to_drain_below_recover() {
        let mut c = AdmissionController::new(cfg()).unwrap();
        // Build lag to ~3 budgets → Degraded.
        for _ in 0..6 {
            c.observe_round(&[(0, 15.0)]);
        }
        assert_eq!(c.observe_round(&[(0, 15.0)]).level, ServiceLevel::Degraded);
        // Run exactly at capacity: lag holds, level must not bounce back
        // to normal inside the hysteresis band.
        let d = c.observe_round(&[(0, 10.0)]);
        assert_eq!(d.level, ServiceLevel::Degraded);
        // Idle rounds drain the lag; eventually normal.
        let mut level = d.level;
        for _ in 0..10 {
            level = c.observe_round(&[]).level;
        }
        assert_eq!(level, ServiceLevel::Normal);
    }

    #[test]
    fn tie_breaks_to_lowest_id() {
        let mut c = AdmissionController::new(cfg()).unwrap();
        for _ in 0..100 {
            c.observe_round(&[(7, 30.0), (3, 30.0)]);
        }
        let d = c.observe_round(&[(7, 30.0), (3, 30.0)]);
        assert_eq!(d.shed, Some(3));
    }

    #[test]
    fn bad_configs_rejected() {
        for capacity_j_per_round in [0.0, -1.0, f64::NAN] {
            let bad = AdmissionConfig {
                capacity_j_per_round,
            };
            assert!(AdmissionController::new(bad).is_err(), "{bad:?}");
        }
    }
}
