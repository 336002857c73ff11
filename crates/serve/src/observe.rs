//! The fleet's live observability plane: frame-indexed time-series,
//! SLO burn-rate alerting, and the optional scrape endpoint, all wired
//! into the session manager's round barrier.
//!
//! The plane is strictly layered so the determinism contract survives
//! each hop:
//!
//! 1. **Ingest** — after every round barrier the manager folds each
//!    live session's outcome into integer `slo.*` counters, in
//!    session-id order. Pure virtual-unit arithmetic.
//! 2. **Series** — every `tick_every` rounds the registry is
//!    snapshotted into a [`TimeSeries`] delta frame keyed by round
//!    index. The deterministic half is byte-identical across worker
//!    counts; wall-clock material stays in the timing scope.
//! 3. **Alerting** — the [`SloEngine`] evaluates declarative burn-rate
//!    specs over the deterministic counters only, so the alert stream
//!    `(round, slo, state)` is itself deterministic.
//! 4. **Reaction** — a firing alert escalates every live session's
//!    [`StalenessWatchdog`](crate::health::StalenessWatchdog) one step
//!    (reason `slo:<name>`) and triggers a flight-recorder dump with
//!    reason `"slo"`.
//! 5. **Exposure** — when a scrape port is configured, `/metrics`,
//!    `/health` and `/timeseries` serve the live registry. Exposure is
//!    read-only: scraping cannot perturb the run.
//!
//! Everything here is off by default; a default [`ServeConfig`]
//! produces bit-identical reports with or without this module compiled
//! in the loop.
//!
//! [`ServeConfig`]: crate::manager::ServeConfig

use crate::session::FrameOutcome;
use pbpair_telemetry::expose::ExposeServer;
use pbpair_telemetry::json;
use pbpair_telemetry::slo::{AlertEvent, AlertState, BurnWindow, SloEngine, SloSpec};
use pbpair_telemetry::timeseries::{SeriesConfig, TimeSeries};
use pbpair_telemetry::{Counter, Telemetry};

/// Observability knobs on [`ServeConfig`](crate::manager::ServeConfig).
/// The default is fully off — no counters, no ticks, no socket — so
/// existing runs and goldens are unaffected.
#[derive(Clone, Debug, PartialEq)]
pub struct ObservabilityConfig {
    /// Snapshot the registry into a time-series delta frame every this
    /// many rounds. `0` disables the time-series and SLO engine.
    pub tick_every: u64,
    /// Bounded ring of retained delta frames; older frames are dropped
    /// (and counted) once full.
    pub ring_capacity: usize,
    /// Serve Prometheus text exposition on `127.0.0.1:<port>` for the
    /// run's duration (`0` picks an ephemeral port). Requires an
    /// enabled telemetry context.
    pub expose_port: Option<u16>,
    /// Burn-rate SLOs evaluated on every tick. Requires `tick_every`.
    pub slos: Vec<SloSpec>,
}

impl Default for ObservabilityConfig {
    fn default() -> ObservabilityConfig {
        ObservabilityConfig {
            tick_every: 0,
            ring_capacity: 256,
            expose_port: None,
            slos: Vec::new(),
        }
    }
}

impl ObservabilityConfig {
    /// Whether any part of the plane is switched on.
    pub fn enabled(&self) -> bool {
        self.tick_every > 0 || self.expose_port.is_some()
    }

    /// Validates the knobs; `Err` carries a human-readable reason.
    pub fn validate(&self) -> Result<(), String> {
        if !self.slos.is_empty() && self.tick_every == 0 {
            return Err("observability: slos require tick_every > 0".into());
        }
        if self.tick_every > 0 && self.ring_capacity == 0 {
            return Err("observability: ring_capacity must be nonzero".into());
        }
        for slo in &self.slos {
            slo.validate().map_err(|e| format!("observability: {e}"))?;
        }
        Ok(())
    }
}

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
pub fn standard_slos() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "residual_loss".into(),
            numerator: "slo.frames_lost".into(),
            denominator: "slo.frame_slots".into(),
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
            name: "heal_backlog".into(),
            numerator: "slo.heal_frames".into(),
            denominator: "slo.frame_slots".into(),
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
            name: "energy_per_psnr".into(),
            numerator: "slo.energy_uj".into(),
            denominator: "slo.psnr_mdb".into(),
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
            name: "feedback_staleness".into(),
            numerator: "slo.dark_frames".into(),
            denominator: "slo.frame_slots".into(),
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
    ]
}

/// What an observed run hands back to the caller: the retained
/// time-series ring and, if a scrape port was configured, the live
/// server (kept alive as long as the caller holds it).
pub struct Observability {
    /// The delta-frame ring accumulated over the run.
    pub series: TimeSeries,
    /// Every alert transition, in firing order.
    pub alerts: Vec<AlertEvent>,
    /// The scrape endpoint, still serving the final registry state.
    pub expose: Option<ExposeServer>,
}

/// Per-round SLO input counters. Incremented only at the round barrier
/// in session-id order, so they are deterministic like every other
/// `slo.*`-free counter in the registry.
struct SloCounters {
    frame_slots: Counter,
    frames_lost: Counter,
    frames_damaged: Counter,
    heal_frames: Counter,
    dark_frames: Counter,
    energy_uj: Counter,
    psnr_mdb: Counter,
}

impl SloCounters {
    fn register(tel: &Telemetry) -> SloCounters {
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
}

/// Run-time observability state the manager threads through its round
/// loop, mirroring [`TraceState`](crate::trace::TraceState).
pub(crate) struct ObserveState {
    series: TimeSeries,
    engine: SloEngine,
    counters: Option<SloCounters>,
    expose: Option<ExposeServer>,
    alerts: Vec<AlertEvent>,
}

impl ObserveState {
    /// Builds the state, or `None` when the config is fully off.
    /// Observability reads the registry, so it refuses a disabled
    /// telemetry context rather than silently exporting zeros.
    pub fn build(
        cfg: &ObservabilityConfig,
        tel: &Telemetry,
    ) -> Result<Option<ObserveState>, String> {
        cfg.validate()?;
        if !cfg.enabled() {
            return Ok(None);
        }
        if !tel.is_enabled() {
            return Err("observability requires an enabled telemetry context".into());
        }
        let series = if cfg.tick_every > 0 {
            TimeSeries::new(SeriesConfig {
                every: cfg.tick_every,
                capacity: cfg.ring_capacity,
            })
            .map_err(|e| format!("observability: {e}"))?
        } else {
            TimeSeries::disabled()
        };
        let engine = SloEngine::new(cfg.slos.clone()).map_err(|e| format!("observability: {e}"))?;
        let counters = (cfg.tick_every > 0).then(|| SloCounters::register(tel));
        let expose = match cfg.expose_port {
            Some(port) => Some(
                ExposeServer::start(port, tel.clone())
                    .map_err(|e| format!("observability: expose bind failed: {e}"))?,
            ),
            None => None,
        };
        Ok(Some(ObserveState {
            series,
            engine,
            counters,
            expose,
            alerts: Vec::new(),
        }))
    }

    /// Folds one live session's round outcome into the SLO counters.
    /// `outcome` is `None` when admission rate-dropped the slot (the
    /// slot still counts; it just carried no transmission).
    pub fn note_session(
        &self,
        outcome: Option<&FrameOutcome>,
        lost_streak: u64,
        dark: u64,
        psnr_mdb: u64,
    ) {
        let Some(c) = &self.counters else { return };
        c.frame_slots.inc(1);
        if let Some(o) = outcome {
            c.frames_lost.inc(o.lost as u64);
            c.frames_damaged.inc(o.damaged as u64);
            c.energy_uj
                .inc(((o.encode_joules + o.fec_joules) * 1e6).round() as u64);
        }
        c.heal_frames.inc(lost_streak);
        c.dark_frames.inc(dark);
        c.psnr_mdb.inc(psnr_mdb);
    }

    /// Whether this round closes a sampling interval.
    pub fn tick_due(&self, round: u64) -> bool {
        self.series.tick_due(round)
    }

    /// Snapshots the registry into a delta frame and evaluates the
    /// SLOs. Returns the alert transitions this tick produced.
    pub fn tick(&mut self, round: u64, tel: &Telemetry) -> Vec<AlertEvent> {
        let report = tel.report();
        let Some(frame) = self.series.tick(round, &report) else {
            return Vec::new();
        };
        let events = self.engine.observe(frame);
        self.alerts.extend(events.iter().cloned());
        events
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
        &self.alerts
    }

    /// Names of SLOs currently firing, for the health body.
    pub fn firing(&self) -> Vec<&str> {
        self.engine.firing()
    }

    /// Finishes the run, handing series/alerts/endpoint to the caller.
    pub fn finish(self) -> Observability {
        Observability {
            series: self.series,
            alerts: self.alerts,
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
    fn default_config_is_fully_off_and_valid() {
        let cfg = ObservabilityConfig::default();
        assert!(!cfg.enabled());
        assert!(cfg.validate().is_ok());
        let tel = Telemetry::disabled();
        assert!(ObserveState::build(&cfg, &tel).unwrap().is_none());
    }

    #[test]
    fn slos_without_ticks_are_rejected() {
        let cfg = ObservabilityConfig {
            slos: standard_slos(),
            ..ObservabilityConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn enabled_observability_requires_enabled_telemetry() {
        let cfg = ObservabilityConfig {
            tick_every: 1,
            ..ObservabilityConfig::default()
        };
        let tel = Telemetry::disabled();
        assert!(ObserveState::build(&cfg, &tel).is_err());
    }

    #[test]
    fn standard_slos_validate_and_are_unique() {
        let slos = standard_slos();
        assert_eq!(slos.len(), 4);
        SloEngine::new(slos).expect("standard set must construct");
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
