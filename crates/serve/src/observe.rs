//! The fleet's live observability plane: round-indexed time-series,
//! SLO burn-rate alerting, and the optional scrape endpoint, all wired
//! into the session manager's round barrier.
//!
//! The plane is strictly layered so the determinism contract survives
//! each hop:
//!
//! 1. **Ingest** — at every round barrier the manager folds each live
//!    slot's [`FrameOutcome`] into integer `slo.*` counters, in
//!    session-id order, in the same pass that folds `serve.*` and
//!    `fec.*`. Pure virtual-unit arithmetic.
//! 2. **Series** — after every round the registry is snapshotted into a
//!    [`TimeSeries`] delta frame keyed by round index. The deterministic
//!    half is byte-identical across worker counts; wall-clock material
//!    stays in the timing scope.
//! 3. **Alerting** — the [`SloEngine`] evaluates [`STANDARD_SLOS`] over
//!    the deterministic counters only, so the alert stream
//!    `(round, slo, state)` is itself deterministic.
//! 4. **Reaction** — a firing alert escalates every live session's
//!    [`StalenessWatchdog`](crate::health::StalenessWatchdog) one step
//!    (reason `slo:<name>`) and triggers a flight-tail dump with
//!    reason `"slo"`.
//! 5. **Exposure** — when a scrape port is configured, `/metrics`,
//!    `/health` and `/timeseries` serve the live registry. Exposure is
//!    read-only: scraping cannot perturb the run.
//!
//! The plane's only settings are [`ServeConfig::observe`] and
//! [`ServeConfig::expose_port`] (a port implies the plane). Both are off
//! by default, and a run with the plane off produces bit-identical
//! reports.
//!
//! [`ServeConfig::observe`]: crate::manager::ServeConfig::observe
//! [`ServeConfig::expose_port`]: crate::manager::ServeConfig::expose_port

use crate::manager::ServeConfig;
use crate::session::FrameOutcome;
use pbpair_telemetry::expose::ExposeServer;
use pbpair_telemetry::json;
use pbpair_telemetry::slo::{AlertEvent, AlertState, BurnWindow, SloEngine, SloSpec};
use pbpair_telemetry::timeseries::TimeSeries;
use pbpair_telemetry::{Counter, Telemetry};

/// The standard fleet SLO set, expressed over the `slo.*` counters the
/// manager maintains (all integer virtual units, so the alert stream is
/// deterministic):
///
/// * `residual_loss` — whole frames lost after repair per frame slot.
///   Objective 12% (the resilience bar the scenario matrix holds);
///   pages at 2× fast burn, keeps a 1× slow window.
/// * `heal_backlog` — outstanding loss-streak frames per slot; a proxy
///   for frames-to-heal. Objective 0.5 streak-frames/slot.
/// * `energy_per_psnr` — encode+FEC microjoules per delivered
///   milli-dB of PSNR. Objective 0.5 µJ/mdB: catches energy burn that
///   buys no quality.
/// * `feedback_staleness` — dark frames (no NACK feedback applied) per
///   slot. Objective 12 dark-frames/slot tolerates the feedback delay;
///   a blackout blows through it.
pub const STANDARD_SLOS: &[SloSpec] = &[
    SloSpec {
        name: "residual_loss",
        numerator: "slo.frames_lost",
        denominator: "slo.frame_slots",
        objective_ppm: 120_000,
        fast: BurnWindow {
            ticks: 4,
            factor_milli: 2000,
        },
        slow: BurnWindow {
            ticks: 12,
            factor_milli: 1000,
        },
    },
    SloSpec {
        name: "heal_backlog",
        numerator: "slo.heal_frames",
        denominator: "slo.frame_slots",
        objective_ppm: 500_000,
        fast: BurnWindow {
            ticks: 6,
            factor_milli: 2000,
        },
        slow: BurnWindow {
            ticks: 18,
            factor_milli: 1000,
        },
    },
    SloSpec {
        name: "energy_per_psnr",
        numerator: "slo.energy_uj",
        denominator: "slo.psnr_mdb",
        objective_ppm: 500_000,
        fast: BurnWindow {
            ticks: 6,
            factor_milli: 2000,
        },
        slow: BurnWindow {
            ticks: 18,
            factor_milli: 1000,
        },
    },
    SloSpec {
        name: "feedback_staleness",
        numerator: "slo.dark_frames",
        denominator: "slo.frame_slots",
        objective_ppm: 12_000_000,
        fast: BurnWindow {
            ticks: 4,
            factor_milli: 2000,
        },
        slow: BurnWindow {
            ticks: 12,
            factor_milli: 1000,
        },
    },
];

/// What an observed run hands back to the caller: the time-series and,
/// if a scrape port was configured, the live server (kept alive as long
/// as the caller holds it).
pub struct Observability {
    /// One delta frame per round of the run.
    pub series: TimeSeries,
    /// Every alert transition, in firing order.
    pub alerts: Vec<AlertEvent>,
    /// The scrape endpoint, still serving the final registry state.
    pub expose: Option<ExposeServer>,
}

/// The SLO input counters. The manager registers them once per observed
/// fleet and folds each live slot's [`FrameOutcome`] into them at the
/// round barrier, in session-id order, so they are deterministic like
/// every other counter in the registry.
pub(crate) struct SloCounters {
    frame_slots: Counter,
    frames_lost: Counter,
    frames_damaged: Counter,
    heal_frames: Counter,
    dark_frames: Counter,
    energy_uj: Counter,
    psnr_mdb: Counter,
}

impl SloCounters {
    pub(crate) fn register(tel: &Telemetry) -> SloCounters {
        SloCounters {
            frame_slots: tel.counter("slo.frame_slots"),
            frames_lost: tel.counter("slo.frames_lost"),
            frames_damaged: tel.counter("slo.frames_damaged"),
            heal_frames: tel.counter("slo.heal_frames"),
            dark_frames: tel.counter("slo.dark_frames"),
            energy_uj: tel.counter("slo.energy_uj"),
            psnr_mdb: tel.counter("slo.psnr_mdb"),
        }
    }

    /// Folds one live slot's record. A rate-dropped slot still counts as
    /// a slot; it carried no transmission.
    pub(crate) fn fold(&self, o: &FrameOutcome) {
        self.frame_slots.inc(1);
        self.frames_lost.inc(o.lost as u64);
        self.frames_damaged.inc(o.damaged as u64);
        self.energy_uj
            .inc(((o.encode_joules + o.fec_joules) * 1e6).round() as u64);
        self.heal_frames.inc(o.lost_streak);
        self.dark_frames.inc(o.dark);
        self.psnr_mdb.inc(o.psnr_mdb);
    }
}

/// Run-time observability state the manager threads through its round
/// loop, mirroring [`TraceState`](crate::trace::TraceState).
pub(crate) struct ObserveState {
    series: TimeSeries,
    engine: SloEngine,
    expose: Option<ExposeServer>,
}

impl ObserveState {
    /// Builds the state, or `None` when the plane is off. Observability
    /// reads the registry, so it refuses a disabled telemetry context
    /// rather than silently exporting zeros.
    pub fn build(cfg: &ServeConfig, tel: &Telemetry) -> Result<Option<ObserveState>, String> {
        if !cfg.observe && cfg.expose_port.is_none() {
            return Ok(None);
        }
        if !tel.is_enabled() {
            return Err("observability requires an enabled telemetry context".into());
        }
        let expose = match cfg.expose_port {
            Some(port) => Some(
                ExposeServer::start(port, tel.clone())
                    .map_err(|e| format!("observability: expose bind failed: {e}"))?,
            ),
            None => None,
        };
        Ok(Some(ObserveState {
            series: TimeSeries::new(),
            engine: SloEngine::new(STANDARD_SLOS),
            expose,
        }))
    }

    /// Snapshots the registry into the round's delta frame and evaluates
    /// the SLOs. Returns the alert transitions this round produced.
    pub fn tick(&mut self, round: u64, tel: &Telemetry) -> Vec<AlertEvent> {
        let frame = self.series.tick(round, tel.report());
        self.engine.observe(frame)
    }

    /// Whether a scrape endpoint is live (guards per-round publishing).
    pub fn has_expose(&self) -> bool {
        self.expose.is_some()
    }

    /// Pushes fresh `/health` and `/timeseries` bodies to the endpoint.
    pub fn publish(&self, health_json: String) {
        if let Some(srv) = &self.expose {
            srv.publish_health(health_json);
            srv.publish_timeseries(self.series.to_json());
        }
    }

    /// Alert transitions so far (manager copies these into the report).
    pub fn alerts(&self) -> &[AlertEvent] {
        self.engine.alerts()
    }

    /// Names of SLOs currently firing, for the health body.
    pub fn firing(&self) -> Vec<&'static str> {
        self.engine.firing()
    }

    /// Finishes the run, handing series/alerts/endpoint to the caller.
    pub fn finish(self) -> Observability {
        Observability {
            alerts: self.engine.alerts().to_vec(),
            series: self.series,
            expose: self.expose,
        }
    }
}

/// Splits a tick's events into the firing subset (these drive health
/// escalation and trace dumps; clears are bookkeeping only).
pub(crate) fn firing_events(events: &[AlertEvent]) -> Vec<&AlertEvent> {
    events
        .iter()
        .filter(|e| e.state == AlertState::Firing)
        .collect()
}

/// Renders the `/health` body: fleet tally plus per-session state and
/// the currently-firing SLO set. Integer/string JSON only.
pub(crate) fn fleet_health_json(
    rounds_done: u64,
    sessions: &[(u32, &'static str, usize, bool)],
    firing: &[&str],
) -> String {
    json::object(|o| {
        o.field("rounds", rounds_done)
            .array("sessions", |a| {
                for &(id, health, transitions, shed) in sessions {
                    a.object(|s| {
                        s.field("id", id)
                            .string("health", health)
                            .field("transitions", transitions)
                            .field("shed", shed);
                    });
                }
            })
            .array("alerts_firing", |a| {
                for name in firing {
                    a.string(name);
                }
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_observability_requires_enabled_telemetry() {
        let cfg = ServeConfig {
            observe: true,
            ..ServeConfig::default()
        };
        let tel = Telemetry::disabled();
        assert!(ObserveState::build(&cfg, &tel).is_err());
    }

    #[test]
    fn standard_slos_are_well_formed_and_unique() {
        assert_eq!(STANDARD_SLOS.len(), 4);
        for (i, slo) in STANDARD_SLOS.iter().enumerate() {
            let name = slo.name;
            assert!(!name.is_empty(), "SLO {i} has no name");
            assert!(
                STANDARD_SLOS[..i].iter().all(|s| s.name != name),
                "{name}: duplicate name"
            );
            assert!(!slo.numerator.is_empty() && !slo.denominator.is_empty());
            // A zero objective divides by zero in the burn rate.
            assert!(slo.objective_ppm > 0, "{name}: zero objective");
            for w in [slo.fast, slo.slow] {
                assert!(w.ticks > 0 && w.factor_milli > 0, "{name}: empty window");
            }
            assert!(
                slo.slow.ticks >= slo.fast.ticks,
                "{name}: slow window shorter than fast"
            );
        }
    }

    #[test]
    fn health_json_escapes_slo_names() {
        let body = fleet_health_json(0, &[], &["a\"b\\c"]);
        assert_eq!(
            body,
            "{\"rounds\":0,\"sessions\":[],\"alerts_firing\":[\"a\\\"b\\\\c\"]}"
        );
    }

    #[test]
    fn health_json_shape() {
        let body = fleet_health_json(
            3,
            &[(0, "healthy", 0, false), (1, "degraded", 2, true)],
            &["residual_loss"],
        );
        assert_eq!(
            body,
            "{\"rounds\":3,\"sessions\":[\
             {\"id\":0,\"health\":\"healthy\",\"transitions\":0,\"shed\":false},\
             {\"id\":1,\"health\":\"degraded\",\"transitions\":2,\"shed\":true}],\
             \"alerts_firing\":[\"residual_loss\"]}"
        );
    }
}
