//! Scenario channel zoo: adverse channels beyond i.i.d. loss.
//!
//! The loss models in [`crate::loss`] are stationary. Real mobile
//! channels are not: fades arrive as *bursts* whose length matters more
//! than the average rate (Etezadi et al., sequential coding over
//! burst-erasure channels), and mobility adds *non-stationarity* —
//! piecewise PLR ramps as a client walks away from an access point,
//! hard outage windows during handoffs, RTT jumps that stale the
//! feedback path. This module provides:
//!
//! * [`MarkovBurstErasure`] — a two-state Markov erasure channel
//!   parameterized directly by mean burst length and mean guard space,
//!   the burst-channel family the sequential-coding literature analyses;
//! * [`ScheduleChannel`] — a composable piecewise schedule of phases
//!   ([`PhaseKind::Steady`], [`PhaseKind::Ramp`], [`PhaseKind::Outage`],
//!   [`PhaseKind::Burst`]), each with its own feedback RTT, driven by
//!   frame time through [`LossModel::on_frame`];
//! * [`ChannelSpec`] — a plain value describing any channel in the zoo,
//!   what scenario matrices and fleet configs carry.
//!
//! Everything is seeded and fully deterministic: the same spec and seed
//! replay the same loss pattern packet for packet.

use crate::loss::{markov_step, GilbertElliott, LossModel, UniformLoss};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two-state Markov burst-erasure channel, parameterized by the mean
/// burst length `B` and the mean guard space `G` (both in packets).
///
/// In the Burst state every packet is erased; in the Guard state every
/// packet survives. Sojourn times are geometric with means `B` and `G`,
/// so the stationary loss rate is `B / (B + G)` and the mean erasure
/// burst is exactly `B` — the `(B, G)` parameterization the
/// burst-erasure coding literature (Etezadi et al.) states its recovery
/// guarantees in.
#[derive(Debug, Clone)]
pub struct MarkovBurstErasure {
    burst_len: f64,
    guard_len: f64,
    rng: StdRng,
    in_burst: bool,
}

impl MarkovBurstErasure {
    /// Creates the channel starting in the Guard state.
    ///
    /// # Panics
    ///
    /// Panics if either mean length is below 1 packet.
    pub fn new(burst_len: f64, guard_len: f64, seed: u64) -> Self {
        assert!(burst_len >= 1.0, "mean burst length must be >= 1 packet");
        assert!(guard_len >= 1.0, "mean guard space must be >= 1 packet");
        MarkovBurstErasure {
            burst_len,
            guard_len,
            rng: StdRng::seed_from_u64(seed),
            in_burst: false,
        }
    }

    /// The configured mean burst length `B`.
    pub fn burst_len(&self) -> f64 {
        self.burst_len
    }

    /// The configured mean guard space `G`.
    pub fn guard_len(&self) -> f64 {
        self.guard_len
    }

    /// Stationary loss rate `B / (B + G)`.
    pub fn stationary_loss_rate(&self) -> f64 {
        self.burst_len / (self.burst_len + self.guard_len)
    }
}

impl LossModel for MarkovBurstErasure {
    fn next_lost(&mut self) -> bool {
        markov_step(
            &mut self.rng,
            &mut self.in_burst,
            1.0 / self.guard_len,
            1.0 / self.burst_len,
        )
    }
}

/// What the channel does during one [`Phase`] of a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseKind {
    /// Independent loss at a fixed rate.
    Steady {
        /// Per-packet loss probability.
        plr: f64,
    },
    /// Loss rate ramping linearly over the phase — a client walking out
    /// of (or into) coverage.
    Ramp {
        /// PLR at the first frame of the phase.
        from: f64,
        /// PLR reached at the last frame of the phase.
        to: f64,
    },
    /// Hard outage: every packet is lost — the dead window of a handoff.
    Outage,
    /// Markov burst erasures with the given mean burst/guard lengths.
    Burst {
        /// Mean erasure-burst length in packets.
        burst_len: f64,
        /// Mean guard space in packets.
        guard_len: f64,
    },
}

/// One segment of a [`ScheduleChannel`]: a behavior, a duration in frame
/// slots, and the feedback RTT in force while it lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Duration in frame slots. The final phase of a schedule holds
    /// forever once reached.
    pub frames: u64,
    /// Feedback return-path delay (frame periods) during this phase.
    pub rtt_frames: u64,
    /// What the channel does.
    pub kind: PhaseKind,
}

impl Phase {
    fn validate(&self) -> Result<(), String> {
        if self.frames == 0 {
            return Err("phase duration must be at least one frame".into());
        }
        match self.kind {
            PhaseKind::Steady { plr } => {
                if !(0.0..=1.0).contains(&plr) {
                    return Err(format!("steady plr {plr} outside [0,1]"));
                }
            }
            PhaseKind::Ramp { from, to } => {
                for p in [from, to] {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("ramp plr {p} outside [0,1]"));
                    }
                }
            }
            PhaseKind::Outage => {}
            PhaseKind::Burst {
                burst_len,
                guard_len,
            } => {
                // Written so NaN fails too.
                if !(1.0..).contains(&burst_len) || !(1.0..).contains(&guard_len) {
                    return Err(format!(
                        "burst phase lengths must be >= 1 packet: B={burst_len} G={guard_len}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A piecewise time-varying channel: mobility traces, handoffs, outage
/// windows. Frame time advances through [`LossModel::on_frame`] (the
/// serving session calls it once per frame slot before transmitting);
/// packets inside one frame slot all see the same phase.
#[derive(Debug, Clone)]
pub struct ScheduleChannel {
    phases: Vec<Phase>,
    rng: StdRng,
    /// Index of the phase in force.
    cursor: usize,
    /// First frame of the phase in force.
    phase_start: u64,
    /// Current frame (set by `on_frame`).
    frame: u64,
    /// Markov state for `Burst` phases.
    in_burst: bool,
}

impl ScheduleChannel {
    /// Creates a schedule channel.
    ///
    /// # Errors
    ///
    /// Returns an error if the schedule is empty or any phase is invalid.
    pub fn new(phases: Vec<Phase>, seed: u64) -> Result<Self, String> {
        if phases.is_empty() {
            return Err("schedule must have at least one phase".into());
        }
        for p in &phases {
            p.validate()?;
        }
        Ok(ScheduleChannel {
            phases,
            rng: StdRng::seed_from_u64(seed),
            cursor: 0,
            phase_start: 0,
            frame: 0,
            in_burst: false,
        })
    }

    /// The loss probability a packet sent *now* faces (the Markov burst
    /// phases sample their own state instead).
    fn current_plr(&self) -> f64 {
        let phase = &self.phases[self.cursor];
        match phase.kind {
            PhaseKind::Steady { plr } => plr,
            PhaseKind::Ramp { from, to } => {
                let span = phase.frames.max(1) as f64;
                let t = (self.frame - self.phase_start) as f64 / span;
                from + (to - from) * t.clamp(0.0, 1.0)
            }
            PhaseKind::Outage => 1.0,
            PhaseKind::Burst { .. } => unreachable!("burst phases sample the Markov state"),
        }
    }

    /// The phase index in force at an arbitrary frame (pure).
    fn phase_index_at(phases: &[Phase], frame: u64) -> usize {
        let mut start = 0u64;
        for (i, p) in phases.iter().enumerate() {
            let end = start.saturating_add(p.frames);
            if frame < end || i == phases.len() - 1 {
                return i;
            }
            start = end;
        }
        phases.len() - 1
    }
}

impl LossModel for ScheduleChannel {
    fn next_lost(&mut self) -> bool {
        match self.phases[self.cursor].kind {
            PhaseKind::Burst {
                burst_len,
                guard_len,
            } => markov_step(
                &mut self.rng,
                &mut self.in_burst,
                1.0 / guard_len,
                1.0 / burst_len,
            ),
            PhaseKind::Outage => true,
            _ => self.rng.gen::<f64>() < self.current_plr(),
        }
    }

    fn on_frame(&mut self, frame: u64) {
        self.frame = frame;
        while self.cursor + 1 < self.phases.len()
            && frame
                >= self
                    .phase_start
                    .saturating_add(self.phases[self.cursor].frames)
        {
            self.phase_start += self.phases[self.cursor].frames;
            self.cursor += 1;
            // A fresh phase starts outside a fade.
            self.in_burst = false;
        }
    }
}

/// Fluent builder for mobility/handoff schedules.
///
/// # Example
///
/// ```rust
/// use pbpair_netsim::scenario::ScheduleBuilder;
///
/// // Walk away from the AP, hand off, settle on the next cell.
/// let spec = ScheduleBuilder::new()
///     .steady(0.02, 30, 2)
///     .ramp(0.02, 0.35, 40, 4)
///     .outage(6, 8)
///     .steady(0.08, 30, 3)
///     .build()
///     .unwrap();
/// assert_eq!(spec.rtt_at(0), Some(2));
/// assert_eq!(spec.rtt_at(75), Some(8)); // mid-handoff
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScheduleBuilder {
    phases: Vec<Phase>,
}

impl ScheduleBuilder {
    /// An empty schedule.
    pub fn new() -> Self {
        ScheduleBuilder { phases: Vec::new() }
    }

    /// Appends a steady-loss phase.
    #[must_use]
    pub fn steady(mut self, plr: f64, frames: u64, rtt_frames: u64) -> Self {
        self.phases.push(Phase {
            frames,
            rtt_frames,
            kind: PhaseKind::Steady { plr },
        });
        self
    }

    /// Appends a linear PLR ramp.
    #[must_use]
    pub fn ramp(mut self, from: f64, to: f64, frames: u64, rtt_frames: u64) -> Self {
        self.phases.push(Phase {
            frames,
            rtt_frames,
            kind: PhaseKind::Ramp { from, to },
        });
        self
    }

    /// Appends a hard outage window.
    #[must_use]
    pub fn outage(mut self, frames: u64, rtt_frames: u64) -> Self {
        self.phases.push(Phase {
            frames,
            rtt_frames,
            kind: PhaseKind::Outage,
        });
        self
    }

    /// Appends a Markov burst-erasure phase.
    #[must_use]
    pub fn burst(mut self, burst_len: f64, guard_len: f64, frames: u64, rtt_frames: u64) -> Self {
        self.phases.push(Phase {
            frames,
            rtt_frames,
            kind: PhaseKind::Burst {
                burst_len,
                guard_len,
            },
        });
        self
    }

    /// Finishes the schedule as a declarative [`ChannelSpec`].
    ///
    /// # Errors
    ///
    /// Returns an error if the schedule is empty or a phase is invalid.
    pub fn build(self) -> Result<ChannelSpec, String> {
        let spec = ChannelSpec::Schedule {
            phases: self.phases,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Plain-value description of any channel in the zoo — what scenario
/// and fleet configurations carry. [`ChannelSpec::build_loss`] turns it
/// into a live seeded channel.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelSpec {
    /// Independent per-packet loss at a fixed rate.
    Uniform {
        /// Per-packet loss probability.
        plr: f64,
    },
    /// Classic Gilbert–Elliott good/bad chain.
    GilbertElliott {
        /// P(Good → Bad) per packet.
        p_gb: f64,
        /// P(Bad → Good) per packet.
        p_bg: f64,
        /// Loss probability while Good.
        loss_good: f64,
        /// Loss probability while Bad.
        loss_bad: f64,
    },
    /// Markov burst erasures parameterized by mean burst/guard lengths.
    BurstErasure {
        /// Mean erasure-burst length in packets.
        burst_len: f64,
        /// Mean guard space in packets.
        guard_len: f64,
    },
    /// Piecewise time-varying schedule (mobility, handoff, outage).
    Schedule {
        /// The phases, in order; the last phase holds forever.
        phases: Vec<Phase>,
    },
}

impl ChannelSpec {
    /// Validates every parameter without building.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ChannelSpec::Uniform { plr } => {
                if !(0.0..=1.0).contains(plr) {
                    return Err(format!("uniform plr {plr} outside [0,1]"));
                }
            }
            ChannelSpec::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                for (name, p) in [
                    ("p_gb", p_gb),
                    ("p_bg", p_bg),
                    ("loss_good", loss_good),
                    ("loss_bad", loss_bad),
                ] {
                    if !(0.0..=1.0).contains(p) {
                        return Err(format!("gilbert-elliott {name} {p} outside [0,1]"));
                    }
                }
            }
            ChannelSpec::BurstErasure {
                burst_len,
                guard_len,
            } => {
                // Written so NaN fails too.
                if !(1.0..).contains(burst_len) || !(1.0..).contains(guard_len) {
                    return Err(format!(
                        "burst-erasure lengths must be >= 1 packet: B={burst_len} G={guard_len}"
                    ));
                }
            }
            ChannelSpec::Schedule { phases } => {
                if phases.is_empty() {
                    return Err("schedule must have at least one phase".into());
                }
                for p in phases {
                    p.validate()?;
                }
            }
        }
        Ok(())
    }

    /// Builds the live seeded channel this spec describes, as the plain
    /// boxed [`LossModel`] every channel wrapper consumes
    /// ([`crate::LossyChannel`], [`crate::CorruptingChannel`]).
    ///
    /// # Errors
    ///
    /// Propagates [`ChannelSpec::validate`].
    pub fn build_loss(&self, seed: u64) -> Result<Box<dyn LossModel>, String> {
        self.validate()?;
        Ok(match self {
            ChannelSpec::Uniform { plr } => Box::new(UniformLoss::new(*plr, seed)),
            ChannelSpec::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => Box::new(GilbertElliott::new(
                *p_gb, *p_bg, *loss_good, *loss_bad, seed,
            )),
            ChannelSpec::BurstErasure {
                burst_len,
                guard_len,
            } => Box::new(MarkovBurstErasure::new(*burst_len, *guard_len, seed)),
            ChannelSpec::Schedule { phases } => {
                Box::new(ScheduleChannel::new(phases.clone(), seed)?)
            }
        })
    }

    /// Stable display label.
    pub fn label(&self) -> String {
        match self {
            ChannelSpec::Uniform { plr } => format!("uniform({plr:.3})"),
            ChannelSpec::GilbertElliott { .. } => "gilbert-elliott".to_string(),
            ChannelSpec::BurstErasure {
                burst_len,
                guard_len,
            } => format!("burst(B={burst_len:.1},G={guard_len:.1})"),
            ChannelSpec::Schedule { phases } => format!("schedule({} phases)", phases.len()),
        }
    }

    /// Feedback RTT (frame periods) this channel imposes at `frame`, if
    /// it constrains the return path (schedules do; stationary channels
    /// leave the session default in force). Pure — no channel state.
    pub fn rtt_at(&self, frame: u64) -> Option<u64> {
        match self {
            ChannelSpec::Schedule { phases } => {
                let i = ScheduleChannel::phase_index_at(phases, frame);
                Some(phases[i].rtt_frames)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed_rate_and_burst(model: &mut dyn LossModel, n: u64) -> (f64, f64) {
        let mut lost = 0u64;
        let mut bursts = Vec::new();
        let mut run = 0u64;
        for _ in 0..n {
            if model.next_lost() {
                lost += 1;
                run += 1;
            } else if run > 0 {
                bursts.push(run);
                run = 0;
            }
        }
        let mean_burst = if bursts.is_empty() {
            0.0
        } else {
            bursts.iter().sum::<u64>() as f64 / bursts.len() as f64
        };
        (lost as f64 / n as f64, mean_burst)
    }

    #[test]
    fn burst_erasure_converges_to_its_parameters() {
        let mut m = MarkovBurstErasure::new(5.0, 45.0, 11);
        let expected = m.stationary_loss_rate();
        assert!((expected - 0.1).abs() < 1e-12);
        let (rate, burst) = observed_rate_and_burst(&mut m, 400_000);
        assert!((rate - expected).abs() < 0.01, "rate {rate} vs {expected}");
        assert!((burst - 5.0).abs() < 0.3, "mean burst {burst} vs 5");
    }

    #[test]
    fn burst_erasure_replays_per_seed() {
        let mut a = MarkovBurstErasure::new(4.0, 20.0, 7);
        let mut b = MarkovBurstErasure::new(4.0, 20.0, 7);
        let seq: Vec<bool> = (0..200).map(|_| a.next_lost()).collect();
        let replay: Vec<bool> = (0..200).map(|_| b.next_lost()).collect();
        assert_eq!(seq, replay);
    }

    #[test]
    #[should_panic(expected = "burst length")]
    fn burst_erasure_rejects_sub_packet_burst() {
        let _ = MarkovBurstErasure::new(0.5, 10.0, 0);
    }

    #[test]
    fn schedule_switches_phases_on_frame_boundaries() {
        let spec = ScheduleBuilder::new()
            .steady(0.0, 10, 1)
            .outage(5, 9)
            .steady(0.0, 10, 2)
            .build()
            .unwrap();
        let mut chan = spec.build_loss(3).unwrap();
        let mut lost_by_frame = Vec::new();
        for f in 0..25u64 {
            chan.on_frame(f);
            lost_by_frame.push(chan.next_lost());
        }
        // Clean before, total during, clean after the outage.
        assert!(lost_by_frame[..10].iter().all(|&l| !l));
        assert!(lost_by_frame[10..15].iter().all(|&l| l));
        assert!(lost_by_frame[15..].iter().all(|&l| !l));
        assert_eq!(spec.rtt_at(12), Some(9));
        assert_eq!(spec.rtt_at(20), Some(2));
        let ChannelSpec::Schedule { phases } = &spec else {
            unreachable!("the builder makes a schedule")
        };
        let kind_at = |f| phases[ScheduleChannel::phase_index_at(phases, f)].kind;
        assert_eq!(kind_at(12), PhaseKind::Outage);
        assert_ne!(kind_at(16), PhaseKind::Outage);
    }

    #[test]
    fn ramp_raises_loss_over_the_phase() {
        let spec = ScheduleBuilder::new()
            .ramp(0.0, 1.0, 100, 2)
            .build()
            .unwrap();
        let mut chan = spec.build_loss(5).unwrap();
        let window_loss = |chan: &mut Box<dyn LossModel>, frames: std::ops::Range<u64>| {
            let mut lost = 0u64;
            let mut n = 0u64;
            for f in frames {
                chan.on_frame(f);
                for _ in 0..50 {
                    lost += chan.next_lost() as u64;
                    n += 1;
                }
            }
            lost as f64 / n as f64
        };
        let early = window_loss(&mut chan, 0..20);
        let late = window_loss(&mut chan, 80..100);
        assert!(
            late > early + 0.5,
            "ramp must raise loss: early {early}, late {late}"
        );
    }

    #[test]
    fn final_phase_holds_forever() {
        let spec = ScheduleBuilder::new()
            .steady(0.0, 5, 1)
            .steady(1.0, 5, 4)
            .build()
            .unwrap();
        let mut chan = spec.build_loss(1).unwrap();
        chan.on_frame(10_000);
        assert!(chan.next_lost(), "last phase must persist past its window");
        assert_eq!(spec.rtt_at(10_000), Some(4));
    }

    #[test]
    fn specs_validate_and_label() {
        assert!(ChannelSpec::Uniform { plr: 1.2 }.validate().is_err());
        assert!(ChannelSpec::BurstErasure {
            burst_len: 0.2,
            guard_len: 10.0
        }
        .validate()
        .is_err());
        assert!(ChannelSpec::Schedule { phases: vec![] }.validate().is_err());
        assert!(ScheduleBuilder::new().build().is_err());
        let spec = ChannelSpec::BurstErasure {
            burst_len: 4.0,
            guard_len: 36.0,
        };
        assert_eq!(spec.label(), "burst(B=4.0,G=36.0)");
        assert!(spec.build_loss(9).is_ok());
        let chan = MarkovBurstErasure::new(4.0, 36.0, 9);
        assert_eq!(chan.stationary_loss_rate(), 0.1);
        assert_eq!(chan.burst_len(), 4.0);
    }

    #[test]
    fn nan_burst_phase_is_rejected() {
        assert!(ScheduleBuilder::new()
            .steady(0.05, 4, 2)
            .burst(f64::NAN, 20.0, 8, 2)
            .build()
            .is_err());
        assert!(ScheduleBuilder::new()
            .burst(4.0, f64::NAN, 8, 2)
            .build()
            .is_err());
    }

    #[test]
    fn spec_is_cloneable_and_comparable() {
        let spec = ScheduleBuilder::new()
            .steady(0.05, 20, 2)
            .burst(6.0, 54.0, 40, 3)
            .build()
            .unwrap();
        let copy = spec.clone();
        assert_eq!(spec, copy);
        assert_ne!(copy, ChannelSpec::Uniform { plr: 0.05 });
    }

    #[test]
    fn stationary_channels_do_not_constrain_rtt() {
        assert_eq!(ChannelSpec::Uniform { plr: 0.1 }.rtt_at(5), None);
    }
}
