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
//! 1. **Degrade** (`lag > degrade_lag`): every session gets a high
//!    `Intra_Th` floor. Intra decisions skip motion estimation — the
//!    dominant cost — so degraded frames are several times cheaper; the
//!    stream also becomes more loss-resilient, which matters because a
//!    congested serving fleet usually coincides with a congested
//!    network. On deeper lag (`rate_drop_lag`), degraded sessions also
//!    drop every `rate_drop_stride`-th frame.
//! 2. **Shed** (`lag > shed_lag`): the most expensive session (by last
//!    round's energy; ties to the lowest id) is terminated outright.
//!    At most one session is shed per round, so a transient spike
//!    cannot wipe the fleet.
//! 3. **Recover** (`lag < recover_lag`): the floor is lifted and
//!    sessions resume full rate. Shed sessions stay shed — admission
//!    is cheaper than re-buffering a client that was already dropped.
//!
//! Everything here is pure integer/float state machinery on
//! deterministic inputs, so fleet behaviour replays bit-identically at
//! any worker count — the property the replay test pins down.

/// Capacity model and escalation thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Modeled Joules of encode work the fleet may spend per round while
    /// staying "real time". Round cost beyond this accrues as lag.
    pub capacity_j_per_round: f64,
    /// Lag (in rounds of budget, i.e. `lag_j / capacity_j_per_round`)
    /// beyond which sessions are degraded.
    pub degrade_lag: f64,
    /// Lag beyond which degraded sessions also drop frames.
    pub rate_drop_lag: f64,
    /// Lag beyond which one session per round is shed.
    pub shed_lag: f64,
    /// Lag below which degradation is lifted.
    pub recover_lag: f64,
    /// The `Intra_Th` floor imposed while degraded.
    pub degrade_floor_th: f64,
    /// While rate-dropping, every `rate_drop_stride`-th frame of each
    /// degraded session is skipped (must be ≥ 2).
    pub rate_drop_stride: u64,
    /// Shed ranking metric. `false` (the default, and the behaviour of
    /// every committed scenario digest) sheds the session with the
    /// highest raw round energy. `true` ranks by **Joules per quality
    /// point** — round energy divided by the session's delivered
    /// quality, where the manager supplies quality as the last
    /// displayed PSNR discounted by the encoder's `C^k` expected-damage
    /// forecast — so the controller sheds the session spending the most
    /// energy per unit of quality it actually delivers to a viewer.
    pub rank_energy_per_quality: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity_j_per_round: 1.0,
            degrade_lag: 2.0,
            rate_drop_lag: 6.0,
            shed_lag: 12.0,
            recover_lag: 0.5,
            degrade_floor_th: 0.995,
            rate_drop_stride: 3,
            rank_energy_per_quality: false,
        }
    }
}

impl AdmissionConfig {
    /// Validates threshold ordering and ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity_j_per_round <= 0.0 {
            return Err("capacity_j_per_round must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.degrade_floor_th) {
            return Err(format!(
                "degrade_floor_th {} outside [0,1]",
                self.degrade_floor_th
            ));
        }
        if !(self.recover_lag <= self.degrade_lag
            && self.degrade_lag <= self.rate_drop_lag
            && self.rate_drop_lag <= self.shed_lag)
        {
            return Err(format!(
                "lag thresholds must be ordered recover ≤ degrade ≤ rate_drop ≤ shed: \
                 {} / {} / {} / {}",
                self.recover_lag, self.degrade_lag, self.rate_drop_lag, self.shed_lag
            ));
        }
        if self.rate_drop_stride < 2 {
            return Err("rate_drop_stride must be at least 2".into());
        }
        Ok(())
    }
}

/// One live session's contribution to a finished round, as the manager
/// reports it to the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionRoundCost {
    /// Session id.
    pub id: u32,
    /// Modeled compute Joules the session spent this round (encode plus
    /// FEC processing).
    pub joules: f64,
    /// Delivered quality in points — the manager supplies the last
    /// displayed PSNR in dB, discounted by the encoder's `C^k`
    /// expected-damage forecast. Only consulted when
    /// [`AdmissionConfig::rank_energy_per_quality`] is set.
    pub quality: f64,
}

/// Quality floor used when ranking by Joules per quality point: a
/// session that has delivered no measurable quality yet (or reports
/// zero) ranks as maximally expensive rather than dividing by zero.
const MIN_QUALITY_POINTS: f64 = 1e-3;

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
    /// Whether the stride-`rate_drop_stride` frame drop applies.
    pub drop_frames: bool,
    /// Session to shed this round, if any.
    pub shed: Option<u32>,
    /// Lag after this round, in round-budget units.
    pub lag: f64,
}

/// The integrating admission controller. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
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
            cfg,
            lag_j: 0.0,
            level: ServiceLevel::Normal,
            shed_count: 0,
            degraded_rounds: 0,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
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
        self.lag_j / self.cfg.capacity_j_per_round
    }

    /// Feeds one finished round: `(session id, encode Joules)` for every
    /// session that stepped. Returns the decision for the next round.
    ///
    /// Legacy entry point: every session's quality is taken as one
    /// point, so shedding ranks by raw Joules regardless of
    /// [`AdmissionConfig::rank_energy_per_quality`].
    pub fn observe_round(&mut self, round_cost: &[(u32, f64)]) -> RoundDecision {
        let costs: Vec<SessionRoundCost> = round_cost
            .iter()
            .map(|&(id, joules)| SessionRoundCost {
                id,
                joules,
                quality: 1.0,
            })
            .collect();
        self.observe_round_ranked(&costs)
    }

    /// Feeds one finished round with per-session delivered quality.
    /// Identical to [`AdmissionController::observe_round`] except that,
    /// with [`AdmissionConfig::rank_energy_per_quality`] set, the shed
    /// ranking key becomes `joules / quality` (Joules per quality
    /// point) instead of raw Joules. Lag accounting is unchanged —
    /// quality never buys capacity, it only chooses the victim.
    pub fn observe_round_ranked(&mut self, round_cost: &[SessionRoundCost]) -> RoundDecision {
        let spent: f64 = round_cost.iter().map(|c| c.joules).sum();
        self.lag_j = (self.lag_j + spent - self.cfg.capacity_j_per_round).max(0.0);
        let lag = self.lag();

        self.level = if lag > self.cfg.rate_drop_lag {
            ServiceLevel::RateDropping
        } else if lag > self.cfg.degrade_lag {
            ServiceLevel::Degraded
        } else if lag < self.cfg.recover_lag {
            ServiceLevel::Normal
        } else {
            // Hysteresis band: hold the current level (but entering the
            // band from Normal is not an escalation).
            self.level
        };
        if self.level != ServiceLevel::Normal {
            self.degraded_rounds += 1;
        }

        let shed = if lag > self.cfg.shed_lag {
            // Shed the costliest session by the configured metric; ties
            // break to the lowest id so the choice is independent of
            // observation order.
            let key = |c: &SessionRoundCost| {
                if self.cfg.rank_energy_per_quality {
                    c.joules / c.quality.max(MIN_QUALITY_POINTS)
                } else {
                    c.joules
                }
            };
            round_cost
                .iter()
                .copied()
                .max_by(|a, b| {
                    key(a)
                        .partial_cmp(&key(b))
                        .expect("energy and quality are never NaN")
                        .then(b.id.cmp(&a.id))
                })
                .map(|c| c.id)
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
                self.cfg.degrade_floor_th
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
            degrade_lag: 2.0,
            rate_drop_lag: 4.0,
            shed_lag: 8.0,
            recover_lag: 0.5,
            degrade_floor_th: 0.99,
            rate_drop_stride: 3,
            rank_energy_per_quality: false,
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
    fn quality_ranking_sheds_the_least_efficient_session_not_the_costliest() {
        // Session 0: 30 J for 40 quality points → 0.75 J/point.
        // Session 1: 20 J for 10 quality points → 2.0 J/point.
        // Raw-energy ranking sheds 0; per-quality ranking sheds 1.
        let round = [
            SessionRoundCost {
                id: 0,
                joules: 30.0,
                quality: 40.0,
            },
            SessionRoundCost {
                id: 1,
                joules: 20.0,
                quality: 10.0,
            },
        ];
        let mut raw = AdmissionController::new(cfg()).unwrap();
        let mut ranked = AdmissionController::new(AdmissionConfig {
            rank_energy_per_quality: true,
            ..cfg()
        })
        .unwrap();
        let mut shed_raw = None;
        let mut shed_ranked = None;
        for _ in 0..100 {
            shed_raw = shed_raw.or(raw.observe_round_ranked(&round).shed);
            shed_ranked = shed_ranked.or(ranked.observe_round_ranked(&round).shed);
        }
        assert_eq!(shed_raw, Some(0), "raw metric sheds the costliest");
        assert_eq!(
            shed_ranked,
            Some(1),
            "per-quality metric sheds the worst Joules-per-point"
        );
    }

    #[test]
    fn zero_quality_session_ranks_as_maximally_expensive() {
        let round = [
            SessionRoundCost {
                id: 0,
                joules: 50.0,
                quality: 30.0,
            },
            // Delivered nothing yet: must be the shed candidate even
            // with far less raw energy, and must not divide by zero.
            SessionRoundCost {
                id: 1,
                joules: 1.0,
                quality: 0.0,
            },
        ];
        let mut c = AdmissionController::new(AdmissionConfig {
            rank_energy_per_quality: true,
            ..cfg()
        })
        .unwrap();
        let mut shed = None;
        for _ in 0..100 {
            shed = shed.or(c.observe_round_ranked(&round).shed);
        }
        assert_eq!(shed, Some(1));
    }

    #[test]
    fn legacy_observe_round_is_unchanged_by_the_ranking_flag() {
        // Through the tuple entry point every quality is one point, so
        // the flag must not alter which session is shed.
        let round = [(0u32, 30.0f64), (1, 20.0)];
        let mut raw = AdmissionController::new(cfg()).unwrap();
        let mut flagged = AdmissionController::new(AdmissionConfig {
            rank_energy_per_quality: true,
            ..cfg()
        })
        .unwrap();
        for _ in 0..100 {
            let a = raw.observe_round(&round);
            let b = flagged.observe_round(&round);
            assert_eq!(a.shed, b.shed);
            assert_eq!(a.level, b.level);
        }
    }

    #[test]
    fn bad_configs_rejected() {
        let mut bad = cfg();
        bad.capacity_j_per_round = 0.0;
        assert!(AdmissionController::new(bad).is_err());
        let mut bad = cfg();
        bad.shed_lag = 1.0; // below rate_drop_lag
        assert!(AdmissionController::new(bad).is_err());
        let mut bad = cfg();
        bad.rate_drop_stride = 1;
        assert!(AdmissionController::new(bad).is_err());
        let mut bad = cfg();
        bad.degrade_floor_th = 1.5;
        assert!(AdmissionController::new(bad).is_err());
    }
}
