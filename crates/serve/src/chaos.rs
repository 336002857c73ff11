//! Fault injection for the serving fleet.
//!
//! A [`ChaosPlan`] is a declarative list of session-level faults fired
//! at exact frame slots — the serving counterpart of the netsim scenario
//! zoo. Faults model the failure classes a mobile streaming fleet
//! actually sees:
//!
//! * [`ChaosFault::FeedbackBlackout`] — the receiver's return path goes
//!   silent (NAT rebind, RTCP starvation); the encoder steers blind and
//!   the staleness watchdog must notice.
//! * [`ChaosFault::ChannelSwap`] — the forward channel's loss regime
//!   changes mid-GOP (cell handoff to a worse link), invalidating every
//!   PLR estimate in flight.
//! * [`ChaosFault::DecoderStall`] — the client stops consuming frames
//!   (CPU starvation, app backgrounded); the display holds and the
//!   watchdog escalates on liveness rather than loss.
//! * [`ChaosFault::BurstKill`] — a hard erasure burst aligned to
//!   picture-header boundaries: whole frames vanish, first fragment
//!   included, the worst case for resynchronization.
//!
//! Plans are plain cloneable values and fire deterministically:
//! the same plan against the same seeds produces the same trajectory at
//! any worker count.

use pbpair_netsim::ChannelSpec;

/// One injectable session-level fault.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosFault {
    /// Suppress the receiver's feedback sends for `frames` slots.
    FeedbackBlackout {
        /// Blackout duration in frame slots.
        frames: u64,
    },
    /// Replace the forward channel's loss model with the one `spec`
    /// describes (loss statistics carry over — same link, new weather).
    ChannelSwap {
        /// The new channel.
        spec: ChannelSpec,
    },
    /// Hold the decoder: the display repeats the last picture for
    /// `frames` slots and arriving data is discarded.
    DecoderStall {
        /// Stall duration in frame slots.
        frames: u64,
    },
    /// Erase every packet of `frames` consecutive frames, starting at a
    /// frame boundary (fragment 0 — the picture header — dies too).
    BurstKill {
        /// Kill-window length in frames.
        frames: u64,
    },
}

impl ChaosFault {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosFault::FeedbackBlackout { .. } => "feedback_blackout",
            ChaosFault::ChannelSwap { .. } => "channel_swap",
            ChaosFault::DecoderStall { .. } => "decoder_stall",
            ChaosFault::BurstKill { .. } => "burst_kill",
        }
    }

    fn validate(&self) -> Result<(), String> {
        match self {
            ChaosFault::FeedbackBlackout { frames }
            | ChaosFault::DecoderStall { frames }
            | ChaosFault::BurstKill { frames } => {
                if *frames == 0 {
                    return Err(format!(
                        "{} duration must be at least 1 frame",
                        self.label()
                    ));
                }
                Ok(())
            }
            ChaosFault::ChannelSwap { spec } => spec.validate(),
        }
    }
}

/// A fault scheduled against one session.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    /// Target session id.
    pub session: u32,
    /// Frame slot at which the fault fires.
    pub at_frame: u64,
    /// The fault.
    pub fault: ChaosFault,
}

/// A deterministic fault schedule for the whole fleet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Builds a plan from events (any order; they are sorted by frame).
    ///
    /// # Errors
    ///
    /// Returns an error if any fault is invalid.
    pub fn new(mut events: Vec<ChaosEvent>) -> Result<Self, String> {
        for e in &events {
            e.fault.validate()?;
        }
        events.sort_by_key(|e| (e.session, e.at_frame));
        Ok(ChaosPlan { events })
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All events, sorted by (session, frame).
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// The events targeting one session, in firing order.
    pub fn for_session(&self, id: u32) -> Vec<ChaosEvent> {
        self.events
            .iter()
            .filter(|e| e.session == id)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_and_filters_per_session() {
        let plan = ChaosPlan::new(vec![
            ChaosEvent {
                session: 1,
                at_frame: 9,
                fault: ChaosFault::BurstKill { frames: 2 },
            },
            ChaosEvent {
                session: 0,
                at_frame: 4,
                fault: ChaosFault::FeedbackBlackout { frames: 10 },
            },
            ChaosEvent {
                session: 1,
                at_frame: 2,
                fault: ChaosFault::DecoderStall { frames: 3 },
            },
        ])
        .unwrap();
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        let s1 = plan.for_session(1);
        assert_eq!(s1.len(), 2);
        assert_eq!(s1[0].at_frame, 2, "events fire in frame order");
        assert_eq!(s1[1].at_frame, 9);
        assert!(plan.for_session(7).is_empty());
    }

    #[test]
    fn invalid_faults_rejected() {
        assert!(ChaosPlan::new(vec![ChaosEvent {
            session: 0,
            at_frame: 0,
            fault: ChaosFault::BurstKill { frames: 0 },
        }])
        .is_err());
        assert!(ChaosPlan::new(vec![ChaosEvent {
            session: 0,
            at_frame: 0,
            fault: ChaosFault::ChannelSwap {
                spec: ChannelSpec::Uniform { plr: 2.0 },
            },
        }])
        .is_err());
    }

    #[test]
    fn nan_channel_swap_is_rejected_at_plan_time() {
        // A worker builds the swapped-in channel mid-run; the plan is
        // the only place a NaN burst length can be refused.
        assert!(ChaosPlan::new(vec![ChaosEvent {
            session: 0,
            at_frame: 3,
            fault: ChaosFault::ChannelSwap {
                spec: ChannelSpec::BurstErasure {
                    burst_len: f64::NAN,
                    guard_len: 28.0,
                },
            },
        }])
        .is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            ChaosFault::FeedbackBlackout { frames: 1 }.label(),
            "feedback_blackout"
        );
        assert_eq!(
            ChaosFault::ChannelSwap {
                spec: ChannelSpec::Uniform { plr: 0.5 }
            }
            .label(),
            "channel_swap"
        );
        assert_eq!(
            ChaosFault::DecoderStall { frames: 1 }.label(),
            "decoder_stall"
        );
        assert_eq!(ChaosFault::BurstKill { frames: 1 }.label(), "burst_kill");
    }
}
