//! The session manager: N concurrent streaming sessions on a
//! fork–join pool, with admission control in the loop.
//!
//! Execution is round-based. A round hands every session slot to the
//! pool — "advance this live session by one frame slot", session `id`
//! starting on worker `id % workers` — and returns once the whole fleet
//! has stepped (a worker that runs out takes its siblings' remaining
//! sessions, which balances uneven per-session cost). It then feeds the
//! round's deterministic energy ledger to the [`AdmissionController`]
//! and applies its decision: raise/lift the fleet `Intra_Th` floor, drop
//! frames, or shed a session.
//!
//! Because every session is internally seeded and sessions never share
//! mutable state, the *results* of a run are a pure function of the
//! [`ServeConfig`]; worker count and scheduling order only move the
//! wall-clock numbers in [`FleetTiming`]. The round barrier is what
//! keeps admission decisions on that deterministic side of the line:
//! the controller always observes complete rounds in session-id order.

use crate::admission::{AdmissionConfig, AdmissionController, RATE_DROP_STRIDE};
use crate::chaos::ChaosPlan;
use crate::observe::{firing_events, fleet_health_json, Observability, ObserveState};
use crate::redundancy::RedundancyConfig;
use crate::report::{quantile_ms, FleetHealth, FleetTiming, ServeReport, SessionReport};
use crate::session::{DeviceKind, FrameOutcome, Session, SessionScheme};
use crate::trace::{FleetTrace, TraceState};
use pbpair_codec::RdeConfig;
use pbpair_media::synth::MotionClass;
use pbpair_netsim::{ChannelSpec, FecSpec};
use pbpair_sched::Pool;
use pbpair_telemetry::Telemetry;
use std::time::Instant;

/// How encode-energy device profiles are assigned across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceMix {
    /// Every session uses the same device.
    Uniform(DeviceKind),
    /// Sessions alternate iPAQ / Zaurus by id — the paper's two λ
    /// profiles side by side in one fleet.
    Alternating,
}

impl DeviceMix {
    /// The device for session `id`.
    pub fn device_for(&self, id: u32) -> DeviceKind {
        match self {
            DeviceMix::Uniform(d) => *d,
            DeviceMix::Alternating => {
                if id.is_multiple_of(2) {
                    DeviceKind::Ipaq
                } else {
                    DeviceKind::Zaurus
                }
            }
        }
    }
}

/// Most worker threads a fleet may ask for: far above any core count,
/// far below what a thread spawn can fail on.
pub const MAX_WORKERS: usize = 1024;

/// Fleet-level configuration of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Concurrent sessions admitted at start.
    pub sessions: usize,
    /// Rounds to run (frame slots per session).
    pub frames: usize,
    /// Worker threads, counting the thread that runs the fleet (`n`
    /// workers spawn `n − 1` helpers); at most [`MAX_WORKERS`].
    pub workers: usize,
    /// Master seed; every session derives its own streams from it.
    pub seed: u64,
    /// Forward-channel per-packet loss rate for every session.
    pub plr: f64,
    /// Payload corruption intensity in `[0, 1]`.
    pub corruption: f64,
    /// FEC codec applied to every session's packet path (`None` = off).
    pub fec: Option<FecSpec>,
    /// Joint intra/FEC redundancy controller for every session. Carries
    /// its own codec family, so `fec` must be `None`.
    pub redundancy: Option<RedundancyConfig>,
    /// Payload MTU.
    pub mtu: usize,
    /// Anchor `Intra_Th` operating point in `[0, 1]` every session
    /// starts from (the degradation controller moves around it).
    pub base_intra_th: f64,
    /// Retired: sessions do not sleep a modeled transmission wait, so
    /// [`ServeConfig::validate`] refuses any value but 0. The field stays
    /// only because the benchmark harness (`pbbench`) names it, and goes
    /// with the next change to the benchmark.
    pub pacing_us: u64,
    /// Admission-control capacity.
    pub admission: AdmissionConfig,
    /// Forward-channel scenario for every session; `None` keeps classic
    /// uniform loss at [`ServeConfig::plr`]. Schedule channels also set
    /// the feedback RTT per phase.
    pub channel: Option<ChannelSpec>,
    /// Content class for every session; `None` keeps the default
    /// per-session rotation through all classes (diverse load).
    pub clip: Option<MotionClass>,
    /// Refresh scheme every session encodes with.
    pub scheme: SessionScheme,
    /// Joint rate–distortion–energy controller for every session's
    /// encoder (`None` or zero λ weights leave the fleet's bitstreams —
    /// and every committed digest — unchanged). It prices every session
    /// at iPAQ rates ([`pbpair_codec::IPAQ_H5555`]), whatever its
    /// [`ServeConfig::device_mix`] device.
    pub rde: Option<RdeConfig>,
    /// Device-profile assignment across sessions.
    pub device_mix: DeviceMix,
    /// Fault-injection schedule.
    pub chaos: ChaosPlan,
    /// Run the live observability plane: a time-series frame and an
    /// evaluation of [`STANDARD_SLOS`](crate::observe::STANDARD_SLOS)
    /// after every round. Needs an enabled telemetry context. Off by
    /// default.
    pub observe: bool,
    /// Serve `/metrics`, `/health` and `/timeseries` on
    /// `127.0.0.1:<port>` for the run's duration (`0` picks an ephemeral
    /// port). A port implies [`ServeConfig::observe`].
    pub expose_port: Option<u16>,
}

impl Default for ServeConfig {
    /// A small, healthy fleet: 4 sessions, ample capacity, no FEC.
    fn default() -> Self {
        ServeConfig {
            sessions: 4,
            frames: 16,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            seed: 2005,
            plr: 0.10,
            corruption: 0.2,
            fec: None,
            redundancy: None,
            mtu: pbpair_netsim::DEFAULT_MTU,
            base_intra_th: 0.9,
            pacing_us: 0,
            admission: AdmissionConfig::default(),
            channel: None,
            clip: None,
            scheme: SessionScheme::Pbpair,
            rde: None,
            device_mix: DeviceMix::Uniform(DeviceKind::Ipaq),
            chaos: ChaosPlan::none(),
            observe: false,
            expose_port: None,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.sessions == 0 {
            return Err("at least one session required".into());
        }
        if self.frames == 0 {
            return Err("at least one frame required".into());
        }
        if self.workers == 0 {
            return Err("at least one worker required".into());
        }
        if self.workers > MAX_WORKERS {
            return Err(format!(
                "{} workers exceed the limit of {MAX_WORKERS}",
                self.workers
            ));
        }
        if !(0.0..1.0).contains(&self.plr) {
            return Err(format!("plr {} outside [0,1)", self.plr));
        }
        if !(0.0..=1.0).contains(&self.corruption) {
            return Err(format!("corruption {} outside [0,1]", self.corruption));
        }
        if !(0.0..=1.0).contains(&self.base_intra_th) {
            return Err(format!(
                "base_intra_th {} outside [0,1]",
                self.base_intra_th
            ));
        }
        if self.pacing_us != 0 {
            return Err(format!(
                "pacing_us {} is retired: sessions do not sleep, so it must be 0",
                self.pacing_us
            ));
        }
        if self.mtu == 0 {
            return Err("mtu must be positive".into());
        }
        if let Some(chan) = &self.channel {
            chan.validate()?;
        }
        if self.redundancy.is_some() && self.fec.is_some() {
            return Err("redundancy carries its own fec family; leave fec unset".into());
        }
        if let Some(spec) = &self.fec {
            spec.validate()?;
        }
        if let Some(rc) = &self.redundancy {
            rc.validate()?;
        }
        self.scheme.validate()?;
        self.admission.validate()
    }
}

/// One session plus what its last round left for the ledger.
struct Slot {
    session: Session,
    outcome: Option<FrameOutcome>,
    /// Milliseconds from round start until this session's frame was done;
    /// `None` when the session was shed.
    latency_ms: Option<f64>,
}

/// What one fleet run hands back: the report, plus whatever optional
/// plane the run switched on.
pub struct FleetRun {
    /// The fleet report: deterministic digest material plus wall-clock
    /// [`FleetTiming`].
    pub report: ServeReport,
    /// The causal trace, present exactly when the run was traced.
    pub trace: Option<FleetTrace>,
    /// The observability plane's series, alerts and scrape endpoint,
    /// present exactly when [`ServeConfig::observe`] is set or a scrape
    /// port is configured.
    pub observability: Option<Observability>,
}

/// Runs the fleet to completion with telemetry and tracing off. This is
/// the serving subsystem's main entry point; [`run_with`] switches the
/// optional planes on.
///
/// # Errors
///
/// Returns an error for invalid configuration, including an enabled
/// observability plane (it needs the registry only [`run_with`] takes);
/// the run itself is total.
pub fn run(cfg: &ServeConfig) -> Result<ServeReport, String> {
    run_with(cfg, &Telemetry::disabled(), false).map(|run| run.report)
}

/// Runs the fleet to completion with every plane the caller asks for:
///
/// * **Telemetry** — every pipeline stage reports into `tel`: the codec
///   (`enc.*`/`dec.*`), the channels (`net.*`), the sessions and
///   scheduler (`serve.*`), plus a `serve.frame_latency_ms` timing
///   histogram. Every session writes into `tel` itself, once per frame
///   per layer; the registry's deterministic section is identical for
///   any worker count (the counter sums commute). A disabled `tel`
///   costs nothing.
/// * **Tracing** (`trace`) — a causal tracer on every session: the
///   encoder records per-MB coding provenance, the channel per-packet
///   loss/corruption, the decoder concealment/resync — and the run
///   replays the joined log into per-event blast radii plus a fleet
///   `C^k` calibration score. Each session's flight tail is dumped
///   whenever the admission controller raises the service-degradation
///   level, a decoder resync fires, or (with observability) an SLO alert
///   fires (reason `"slo"`). [`FleetTrace`]'s deterministic report is
///   byte-identical for any worker count.
/// * **Observability** ([`ServeConfig::observe`], or a scrape port) —
///   after every round barrier the manager updates the `slo.*`
///   counters, appends a time-series delta frame, evaluates
///   [`STANDARD_SLOS`](crate::observe::STANDARD_SLOS), and — when
///   [`ServeConfig::expose_port`] is set — publishes `/health` and
///   `/timeseries` next to the live `/metrics`. The returned
///   [`Observability`] keeps the endpoint alive until dropped, so
///   callers can hold it open for scrapers after the run.
///
/// # Errors
///
/// Returns an error for invalid configuration, for an enabled
/// observability plane over a disabled `tel` (it would export zeros),
/// and when the scrape endpoint fails to bind; the run itself is total.
pub fn run_with(cfg: &ServeConfig, tel: &Telemetry, trace: bool) -> Result<FleetRun, String> {
    cfg.validate()?;
    let mut tracing = trace.then(|| TraceState::new(cfg.sessions));
    let mut obs = ObserveState::build(cfg, tel)?;
    let mut controller = AdmissionController::new(cfg.admission)?;
    let mut slots: Vec<Slot> = (0..cfg.sessions)
        .map(|id| {
            Session::new(cfg, id as u32).map(|mut session| {
                session.set_telemetry(tel);
                if let Some(ts) = &tracing {
                    session.set_tracer(ts.tracer(id));
                }
                Slot {
                    session,
                    outcome: None,
                    latency_ms: None,
                }
            })
        })
        .collect::<Result<_, _>>()?;

    let mut pool = Pool::new(cfg.workers);
    let rounds_counter = tel.counter("serve.rounds");
    let shed_counter = tel.counter("serve.shed_sessions");
    let steals_counter = tel.timing_counter("serve.steals");
    let latency_hist = tel.timing_histogram(
        "serve.frame_latency_ms",
        &[1, 2, 5, 10, 20, 50, 100, 250, 1000],
    );
    let mut latencies = Vec::new();

    let started = Instant::now();
    let mut floor_th = 0.0f64;
    let mut drop_frames = false;
    let mut final_lag = 0.0;

    for round in 0..cfg.frames {
        let rate_dropping = drop_frames && (round as u64 + 1).is_multiple_of(RATE_DROP_STRIDE);
        // Every live session's frame falls due at round start.
        let round_start = Instant::now();
        let migrations_before = pool.migrations();
        pool.for_each_mut(&mut slots, |_, slot| {
            if slot.session.is_shed() {
                return;
            }
            slot.session.set_load_floor(floor_th);
            slot.outcome = if rate_dropping {
                slot.session.drop_frame();
                None
            } else {
                Some(slot.session.step_frame())
            };
            let elapsed_ms = round_start.elapsed().as_secs_f64() * 1e3;
            latency_hist.record(elapsed_ms as u64);
            slot.latency_ms = Some(elapsed_ms);
        });
        steals_counter.inc(pool.migrations() - migrations_before);
        rounds_counter.inc(1);

        // Deterministic post-round ledger, in session-id order.
        let mut round_cost = Vec::with_capacity(slots.len());
        for (id, slot) in slots.iter_mut().enumerate() {
            latencies.extend(slot.latency_ms.take());
            let outcome = slot.outcome.take();
            if let Some(outcome) = &outcome {
                // FEC processing is session compute too; the admission
                // controller budgets the sum (identical when FEC is off).
                round_cost.push((id as u32, outcome.encode_joules + outcome.fec_joules));
            }
            if let Some(obs) = &obs {
                // Live sessions only: a shed slot carries no traffic and
                // would dilute every per-slot SLO ratio.
                if !slot.session.is_shed() {
                    let s = &slot.session;
                    obs.note_session(
                        outcome.as_ref(),
                        s.lost_streak(),
                        s.feedback_dark().unwrap_or(0),
                        s.last_psnr_mdb(),
                    );
                }
            }
        }
        let decision = controller.observe_round(&round_cost);
        floor_th = decision.floor_th;
        drop_frames = decision.drop_frames;
        final_lag = decision.lag;
        if let Some(id) = decision.shed {
            slots[id as usize].session.shed();
            shed_counter.inc(1);
        }
        if let Some(ts) = tracing.as_mut() {
            // Deterministic: derived from the admission decision and
            // per-session decode counters, both seed-pure.
            let level = if decision.shed.is_some() {
                3
            } else if drop_frames {
                2
            } else if floor_th > 0.0 {
                1
            } else {
                0
            };
            let affected: Vec<bool> = slots
                .iter()
                .enumerate()
                .map(|(id, slot)| decision.shed == Some(id as u32) || !slot.session.is_shed())
                .collect();
            ts.note_degrade(round as u32, level, &affected);
            for (id, slot) in slots.iter().enumerate() {
                ts.note_resyncs(round as u32, id, slot.session.resyncs());
            }
        }
        if let Some(obs) = obs.as_mut() {
            // Snapshot → delta frame → SLO evaluation, all on the
            // deterministic side of the registry. A firing alert
            // escalates every live session's watchdog one step (reason
            // `slo:<name>`) and dumps its flight tail.
            let events = obs.tick(round as u64, tel);
            let firing = firing_events(&events);
            if !firing.is_empty() {
                let mut affected = vec![false; slots.len()];
                for (id, slot) in slots.iter_mut().enumerate() {
                    if slot.session.is_shed() {
                        continue;
                    }
                    affected[id] = true;
                    for e in &firing {
                        slot.session.on_slo_alert(round as u64, &e.slo);
                    }
                }
                if let Some(ts) = tracing.as_mut() {
                    ts.note_slo(round as u32, &affected);
                }
            }
            if obs.has_expose() {
                obs.publish(health_body(round as u64 + 1, &slots, obs));
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let migrations = pool.migrations();
    drop(pool);
    if let Some(obs) = &obs {
        // Final publish so a scraper holding the endpoint open after the
        // run sees the completed-run state.
        if obs.has_expose() {
            obs.publish(health_body(cfg.frames as u64, &slots, obs));
        }
    }

    // Assemble the report.
    let sessions: Vec<SessionReport> = slots.iter().map(|slot| slot.session.report()).collect();
    let total_frames = sessions.iter().map(|s| s.frames_encoded).sum();
    let total_sent_bytes = sessions.iter().map(|s| s.sent_bytes).sum();
    let total_encode_joules = sessions.iter().map(|s| s.encode_joules).sum();
    let total_fec_joules = sessions.iter().map(|s| s.fec_joules).sum();
    let mut health = FleetHealth::default();
    let (mut psnr_sum, mut psnr_n) = (0.0, 0usize);
    for s in &sessions {
        health.count(s.health);
        if !s.shed {
            psnr_sum += s.avg_psnr_db;
            psnr_n += 1;
        }
    }
    let timing = FleetTiming {
        wall_s,
        throughput_fps: if wall_s > 0.0 {
            total_frames as f64 / wall_s
        } else {
            0.0
        },
        p50_frame_ms: quantile_ms(&latencies, 0.50),
        p99_frame_ms: quantile_ms(&latencies, 0.99),
        migrations,
    };

    let report = ServeReport {
        workers: cfg.workers,
        rounds: cfg.frames,
        sessions,
        shed_count: controller.shed_count(),
        degraded_rounds: controller.degraded_rounds(),
        final_lag,
        total_frames,
        total_sent_bytes,
        mean_psnr_db: if psnr_n > 0 {
            psnr_sum / psnr_n as f64
        } else {
            0.0
        },
        total_encode_joules,
        total_fec_joules,
        health,
        alerts: obs
            .as_ref()
            .map(|o| o.alerts().to_vec())
            .unwrap_or_default(),
        timing,
    };
    Ok(FleetRun {
        report,
        trace: tracing.map(|ts| ts.finish(cfg)),
        observability: obs.map(ObserveState::finish),
    })
}

/// Renders the `/health` body for the scrape endpoint: per-session
/// health snapshot plus the firing SLO set.
fn health_body(rounds_done: u64, slots: &[Slot], obs: &ObserveState) -> String {
    let entries: Vec<(u32, &'static str, usize, bool)> = slots
        .iter()
        .enumerate()
        .map(|(id, slot)| {
            let s = &slot.session;
            (
                id as u32,
                s.health().label(),
                s.health_ledger().transitions().len(),
                s.is_shed(),
            )
        })
        .collect();
    fleet_health_json(rounds_done, &entries, &obs.firing())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(sessions: usize, frames: usize, workers: usize) -> ServeConfig {
        ServeConfig {
            sessions,
            frames,
            workers,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn fleet_runs_and_reports() {
        let r = run(&small(3, 6, 2)).unwrap();
        assert_eq!(r.sessions.len(), 3);
        assert_eq!(r.rounds, 6);
        assert_eq!(r.total_frames, 18, "no shedding under default capacity");
        assert!(r.mean_psnr_db > 10.0);
        assert!(r.timing.throughput_fps > 0.0);
        assert!(r.timing.p99_frame_ms >= r.timing.p50_frame_ms);
        assert_eq!(r.shed_count, 0);
    }

    #[test]
    fn single_worker_single_session() {
        let r = run(&small(1, 4, 1)).unwrap();
        assert_eq!(r.total_frames, 4);
        assert_eq!(r.timing.migrations, 0, "one worker cannot steal");
    }

    #[test]
    fn overload_degrades_and_sheds_deterministically() {
        let mut cfg = small(6, 24, 2);
        // Starvation-level capacity: a fraction of one frame's energy.
        cfg.admission.capacity_j_per_round = 1e-4;
        let a = run(&cfg).unwrap();
        assert!(a.degraded_rounds > 0, "overload must degrade");
        assert!(a.shed_count > 0, "overload must shed");
        assert!(
            a.sessions.iter().any(|s| s.frames_rate_dropped > 0),
            "overload must drop frames"
        );
        // Shed sessions stop encoding.
        let shed: Vec<_> = a.sessions.iter().filter(|s| s.shed).collect();
        assert!(!shed.is_empty());
        assert!(shed
            .iter()
            .all(|s| s.frames_encoded + s.frames_rate_dropped < a.rounds as u64));
        // And the whole trajectory replays identically.
        let b = run(&cfg).unwrap();
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
    }

    #[test]
    fn overloaded_fleet_spends_less_energy_per_frame() {
        // An overloaded fleet encodes the frames it still serves under
        // the Intra_Th floor, so each costs less than a healthy frame.
        // (`session::tests::load_floor_raises_intra_th_and_cuts_energy`
        // pins the floor alone.)
        let healthy = run(&small(4, 16, 2)).unwrap();
        let mut tight = small(4, 16, 2);
        tight.admission.capacity_j_per_round = 1e-4;
        let overloaded = run(&tight).unwrap();
        assert!(overloaded.degraded_rounds > 0, "overload must degrade");
        let per_frame = |r: &ServeReport| r.total_encode_joules / r.total_frames as f64;
        assert!(
            per_frame(&overloaded) < per_frame(&healthy),
            "overload must cut per-frame energy: {} vs {}",
            per_frame(&overloaded),
            per_frame(&healthy)
        );
    }

    #[test]
    fn corrupted_fec_fleet_runs_to_completion() {
        // Corruption resizes surviving parity packets; recovery must
        // treat them as erasures, not trip the codec's length check.
        let cfg = ServeConfig {
            fec: Some(FecSpec::Rs { k: 8, r: 2 }),
            mtu: 36,
            corruption: 0.2,
            ..small(4, 16, 2)
        };
        let r = run(&cfg).expect("a corrupted FEC fleet must complete");
        assert_eq!(r.total_frames, 64);
    }

    #[test]
    fn every_pipeline_stage_reports_its_wall_time() {
        let tel = Telemetry::new();
        run_with(&small(2, 6, 2), &tel, false).unwrap();
        let report = tel.report();
        for name in ["encode", "decode", "channel"] {
            let stage = &report.stages[name];
            assert!(stage.calls > 0, "{name} never ran");
            assert!(stage.wall_ns > 0, "{name} must report wall time: {stage:?}");
        }
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(run(&small(0, 4, 1)).is_err());
        assert!(run(&small(1, 0, 1)).is_err());
        assert!(run(&small(1, 4, 0)).is_err());
        let mut bad = small(1, 1, 1);
        bad.plr = 1.5;
        assert!(run(&bad).is_err());
        // Values that would run silently as another config: a NaN
        // capacity as no admission, a NaN budget as an unlimited one,
        // corruption clamped into [0, 1], a fixed-scheme adaptive-FEC
        // fleet on any anchor `Intra_Th`, and a pacing wait nothing
        // sleeps.
        let refused = |field: &str, cfg: ServeConfig| {
            let err = run(&cfg).expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        };
        let mut cfg = small(1, 2, 1);
        cfg.admission.capacity_j_per_round = f64::NAN;
        refused("capacity_j_per_round", cfg);
        let budget = |budget_ratio| ServeConfig {
            redundancy: Some(RedundancyConfig {
                budget_ratio,
                ..RedundancyConfig::new(FecSpec::Rs { k: 8, r: 2 })
            }),
            ..small(1, 2, 1)
        };
        refused("budget_ratio", budget(f64::NAN));
        for corruption in [f64::NAN, 7.5, -0.5] {
            refused(
                "corruption",
                ServeConfig {
                    corruption,
                    ..small(1, 2, 1)
                },
            );
        }
        for base_intra_th in [f64::NAN, 2.0, -1.0] {
            refused(
                "base_intra_th",
                ServeConfig {
                    base_intra_th,
                    scheme: SessionScheme::Gop(4),
                    ..budget(1.25)
                },
            );
        }
        refused(
            "pacing_us",
            ServeConfig {
                pacing_us: 1,
                ..small(1, 2, 1)
            },
        );
    }

    #[test]
    fn zero_mtu_is_rejected_not_a_packetizer_panic() {
        let cfg = ServeConfig {
            mtu: 0,
            ..small(1, 2, 1)
        };
        assert!(cfg.validate().is_err());
        assert!(run(&cfg).is_err());
    }

    #[test]
    fn nan_burst_length_is_rejected_not_a_channel_panic() {
        let cfg = ServeConfig {
            channel: Some(ChannelSpec::BurstErasure {
                burst_len: f64::NAN,
                guard_len: 28.0,
            }),
            ..small(1, 2, 1)
        };
        assert!(run(&cfg).is_err());
    }
}
