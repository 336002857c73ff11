//! The session manager: N concurrent streaming sessions on a
//! work-stealing pool, with admission control in the loop.
//!
//! Execution is round-based. A round submits one job per live session —
//! "advance this session by one frame slot" — with the session id as the
//! worker-affinity hint, waits for the fleet to drain (the scheduler
//! balances uneven per-session cost by stealing), then feeds the round's
//! deterministic energy ledger to the [`AdmissionController`] and
//! applies its decision: raise/lift the fleet `Intra_Th` floor, drop
//! frames, or shed a session.
//!
//! Because every session is internally seeded and sessions never share
//! mutable state, the *results* of a run are a pure function of the
//! [`ServeConfig`]; worker count and scheduling order only move the
//! wall-clock numbers in [`FleetTiming`]. The round barrier is what
//! keeps admission decisions on that deterministic side of the line:
//! the controller always observes complete rounds in session-id order.

use crate::admission::{AdmissionConfig, AdmissionController, SessionRoundCost};
use crate::chaos::ChaosPlan;
use crate::health::WatchdogConfig;
use crate::observe::{
    firing_events, fleet_health_json, Observability, ObservabilityConfig, ObserveState,
};
use crate::redundancy::RedundancyConfig;
use crate::report::{quantile_ms, FleetHealth, FleetTiming, ServeReport, SessionReport};
use crate::sched::WorkStealingPool;
use crate::session::{DeviceKind, FrameOutcome, Session, SessionConfig, SessionScheme};
use crate::trace::{FleetTrace, TraceState};
use pbpair_codec::RdeConfig;
use pbpair_media::synth::MotionClass;
use pbpair_netsim::{ChannelSpec, FecSpec, RetryConfig};
use pbpair_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How encode-energy device profiles are assigned across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// Fleet-level configuration of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Concurrent sessions admitted at start.
    pub sessions: usize,
    /// Rounds to run (frame slots per session).
    pub frames: usize,
    /// Worker threads.
    pub workers: usize,
    /// In-flight job bound of the scheduler; 0 → `2 × workers`.
    pub queue_capacity: usize,
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
    /// Anchor `Intra_Th` operating point every session starts from
    /// (the degradation controller moves around it).
    pub base_intra_th: f64,
    /// Per-frame transmission/pacing wait in microseconds (wall-clock
    /// only; see [`SessionConfig::pacing_us`]). Waits overlap across
    /// workers, so this is what makes added workers pay off even when
    /// the encode work itself saturates the cores.
    pub pacing_us: u64,
    /// Admission-control thresholds and capacity.
    pub admission: AdmissionConfig,
    /// Forward-channel scenario for every session; `None` keeps classic
    /// uniform loss at [`ServeConfig::plr`].
    pub channel: Option<ChannelSpec>,
    /// Content class for every session; `None` keeps the default
    /// per-session rotation through all classes (diverse load).
    pub clip: Option<MotionClass>,
    /// Refresh scheme every session encodes with.
    pub scheme: SessionScheme,
    /// Joint rate–distortion–energy controller for every session's
    /// encoder (`None` or zero λ weights leave the fleet's bitstreams —
    /// and every committed digest — unchanged).
    #[serde(default)]
    pub rde: Option<RdeConfig>,
    /// Device-profile assignment across sessions.
    pub device_mix: DeviceMix,
    /// Feedback-report staleness window (frames); `None` disables expiry.
    pub feedback_staleness: Option<u64>,
    /// Feedback retry/backoff policy (`max_retries == 0` disables).
    pub retry: RetryConfig,
    /// Per-session staleness-watchdog thresholds.
    pub watchdog: WatchdogConfig,
    /// Fault-injection schedule.
    pub chaos: ChaosPlan,
    /// Live observability plane (time-series, SLO alerting, scrape
    /// endpoint). Off by default.
    pub observability: ObservabilityConfig,
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
            queue_capacity: 0,
            seed: 2005,
            plr: 0.10,
            corruption: 0.2,
            fec: None,
            redundancy: None,
            mtu: pbpair_netsim::DEFAULT_MTU,
            base_intra_th: 0.9,
            pacing_us: 3000,
            admission: AdmissionConfig::default(),
            channel: None,
            clip: None,
            scheme: SessionScheme::Pbpair,
            rde: None,
            device_mix: DeviceMix::Uniform(DeviceKind::Ipaq),
            feedback_staleness: None,
            retry: RetryConfig::default(),
            watchdog: WatchdogConfig::default(),
            chaos: ChaosPlan::none(),
            observability: ObservabilityConfig::default(),
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
        if !(0.0..1.0).contains(&self.plr) {
            return Err(format!("plr {} outside [0,1)", self.plr));
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
        self.watchdog.validate()?;
        self.observability.validate()?;
        self.admission.validate()
    }

    /// Builds the per-session configuration for session `id`.
    fn session_config(&self, id: u32) -> SessionConfig {
        let mut cfg = SessionConfig::standard(
            id,
            self.seed
                .wrapping_add((id as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d)),
        );
        cfg.plr = self.plr;
        cfg.corruption = self.corruption;
        cfg.fec = self.fec;
        cfg.redundancy = self.redundancy;
        cfg.mtu = self.mtu;
        cfg.base_intra_th = self.base_intra_th;
        cfg.pacing_us = self.pacing_us;
        cfg.channel = self.channel.clone();
        if let Some(class) = self.clip {
            cfg.class = class;
        }
        cfg.scheme = self.scheme;
        cfg.rde = self.rde;
        cfg.device = self.device_mix.device_for(id);
        cfg.feedback_staleness = self.feedback_staleness;
        cfg.retry = self.retry;
        cfg.watchdog = self.watchdog;
        cfg
    }
}

/// One session plus its per-round scratch, shared with the pool.
struct Slot {
    session: Session,
    outcome: Option<FrameOutcome>,
}

/// Runs the fleet to completion. This is the serving subsystem's main
/// entry point.
///
/// # Errors
///
/// Returns an error for invalid configuration; the run itself is total.
pub fn run(cfg: &ServeConfig) -> Result<ServeReport, String> {
    run_instrumented(cfg, &Telemetry::disabled())
}

/// Like [`run`], but with every pipeline stage reporting into `tel`:
/// the codec (`enc.*`/`dec.*`), the channels (`net.*`), the sessions and
/// scheduler (`serve.*`), plus a `serve.frame_latency_ms` timing
/// histogram. Each session writes through `tel.shard(id)` so concurrent
/// flushes touch disjoint cache lines; the report's deterministic
/// section is identical for any worker count (the counter sums commute).
///
/// # Errors
///
/// Returns an error for invalid configuration; the run itself is total.
pub fn run_instrumented(cfg: &ServeConfig, tel: &Telemetry) -> Result<ServeReport, String> {
    run_internal(cfg, tel, None).map(|(report, _, _)| report)
}

/// Like [`run_instrumented`], but with a causal tracer attached to every
/// session: the encoder records per-MB coding provenance, the channel
/// per-packet loss/corruption, the decoder concealment/resync — and the
/// run replays the joined log into per-event blast radii plus a fleet
/// `C^k` calibration score. Flight-recorder rings are dumped whenever
/// the admission controller raises the service-degradation level or a
/// decoder resync fires. The returned [`FleetTrace`]'s deterministic
/// report is byte-identical for any worker count.
///
/// # Errors
///
/// Returns an error for invalid configuration; the run itself is total.
pub fn run_traced(cfg: &ServeConfig, tel: &Telemetry) -> Result<(ServeReport, FleetTrace), String> {
    let (report, trace, _) = run_internal(cfg, tel, Some(TraceState::new(cfg.sessions)))?;
    Ok((report, trace.expect("tracing was enabled")))
}

/// Like [`run_instrumented`], but with the observability plane active:
/// the manager maintains `slo.*` counters at every round barrier, ticks
/// the time-series ring, evaluates the configured burn-rate SLOs, and —
/// when [`ObservabilityConfig::expose_port`] is set — serves `/metrics`,
/// `/health` and `/timeseries` for the duration of the run. The
/// returned [`Observability`] keeps the endpoint alive until dropped,
/// so callers can hold it open for scrapers after the run finishes.
///
/// # Errors
///
/// Returns an error for invalid configuration, when
/// [`ServeConfig::observability`] is fully disabled, or when the
/// telemetry context is disabled (the plane would export zeros).
pub fn run_observed(
    cfg: &ServeConfig,
    tel: &Telemetry,
) -> Result<(ServeReport, Observability), String> {
    if !cfg.observability.enabled() {
        return Err("observability is disabled; set tick_every or expose_port".into());
    }
    let (report, _, obs) = run_internal(cfg, tel, None)?;
    Ok((report, obs.expect("observability was enabled")))
}

/// [`run_traced`] and [`run_observed`] combined: causal tracing plus the
/// observability plane, with firing SLO alerts dumping flight-recorder
/// rings (reason `"slo"`).
///
/// # Errors
///
/// Same contract as [`run_observed`].
pub fn run_traced_observed(
    cfg: &ServeConfig,
    tel: &Telemetry,
) -> Result<(ServeReport, FleetTrace, Observability), String> {
    if !cfg.observability.enabled() {
        return Err("observability is disabled; set tick_every or expose_port".into());
    }
    let (report, trace, obs) = run_internal(cfg, tel, Some(TraceState::new(cfg.sessions)))?;
    Ok((
        report,
        trace.expect("tracing was enabled"),
        obs.expect("observability was enabled"),
    ))
}

fn run_internal(
    cfg: &ServeConfig,
    tel: &Telemetry,
    mut tracing: Option<TraceState>,
) -> Result<(ServeReport, Option<FleetTrace>, Option<Observability>), String> {
    cfg.validate()?;
    let mut obs = ObserveState::build(&cfg.observability, tel)?;
    let mut controller = AdmissionController::new(cfg.admission)?;
    let slots: Vec<Arc<Mutex<Slot>>> = (0..cfg.sessions)
        .map(|id| {
            Session::new(cfg.session_config(id as u32)).map(|mut session| {
                session.set_telemetry(&tel.shard(id));
                session.set_chaos(cfg.chaos.for_session(id as u32));
                if let Some(ts) = &tracing {
                    session.set_tracer(ts.tracer(id));
                }
                Arc::new(Mutex::new(Slot {
                    session,
                    outcome: None,
                }))
            })
        })
        .collect::<Result<_, _>>()?;

    let capacity = if cfg.queue_capacity == 0 {
        2 * cfg.workers
    } else {
        cfg.queue_capacity
    };
    let pool = WorkStealingPool::with_telemetry(cfg.workers, capacity, tel);
    let rounds_counter = tel.counter("serve.rounds");
    let shed_counter = tel.counter("serve.shed_sessions");
    let latency_hist = tel.timing_histogram(
        "serve.frame_latency_ms",
        &[1, 2, 5, 10, 20, 50, 100, 250, 1000],
    );
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));

    let started = Instant::now();
    let mut floor_th = 0.0f64;
    let mut drop_frames = false;
    let stride = cfg.admission.rate_drop_stride;
    let mut final_lag = 0.0;

    for round in 0..cfg.frames {
        let rate_dropping = drop_frames && (round as u64 + 1).is_multiple_of(stride);
        for (id, slot) in slots.iter().enumerate() {
            if slot.lock().expect("slot lock").session.is_shed() {
                continue;
            }
            let slot = Arc::clone(slot);
            let latencies = Arc::clone(&latencies);
            let latency_hist = latency_hist.clone();
            let submitted = Instant::now();
            pool.submit_to(
                id,
                Box::new(move || {
                    let mut slot = slot.lock().expect("slot lock");
                    slot.session.set_load_floor(floor_th);
                    let outcome = if rate_dropping {
                        slot.session.drop_frame();
                        None
                    } else {
                        Some(slot.session.step_frame())
                    };
                    slot.outcome = outcome;
                    let elapsed_ms = submitted.elapsed().as_secs_f64() * 1e3;
                    latency_hist.record(elapsed_ms as u64);
                    latencies.lock().expect("latency lock").push(elapsed_ms);
                }),
            );
        }
        pool.wait_idle();
        rounds_counter.inc(1);

        // Deterministic post-round ledger, in session-id order.
        let mut round_cost = Vec::with_capacity(slots.len());
        for (id, slot) in slots.iter().enumerate() {
            let mut slot = slot.lock().expect("slot lock");
            let outcome = slot.outcome.take();
            if let Some(outcome) = &outcome {
                // FEC processing is session compute too; the admission
                // controller budgets the sum (identical when FEC is off).
                // The quality term is displayed dB discounted by the
                // session's C^k expected-damage forecast: fragile quality
                // counts for less, so under the energy-per-quality
                // ranking a fragile expensive session sheds first. It is
                // ignored entirely unless that ranking is enabled.
                let s = &slot.session;
                round_cost.push(SessionRoundCost {
                    id: id as u32,
                    joules: outcome.encode_joules + outcome.fec_joules,
                    quality: (s.last_psnr_mdb() as f64 / 1000.0) * (1.0 - s.expected_damage()),
                });
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
        let decision = controller.observe_round_ranked(&round_cost);
        floor_th = decision.floor_th;
        drop_frames = decision.drop_frames;
        final_lag = decision.lag;
        if let Some(id) = decision.shed {
            slots[id as usize].lock().expect("slot lock").session.shed();
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
                .map(|(id, slot)| {
                    decision.shed == Some(id as u32)
                        || !slot.lock().expect("slot lock").session.is_shed()
                })
                .collect();
            ts.note_degrade(round as u32, level, &affected);
            for (id, slot) in slots.iter().enumerate() {
                let resyncs = slot
                    .lock()
                    .expect("slot lock")
                    .session
                    .stats()
                    .decode
                    .resyncs;
                ts.note_resyncs(round as u32, id, resyncs);
            }
        }
        if let Some(obs) = obs.as_mut() {
            if obs.tick_due(round as u64) {
                // Snapshot → delta frame → SLO evaluation, all on the
                // deterministic side of the registry. A firing alert
                // escalates every live session's watchdog one step
                // (reason `slo:<name>`) and dumps its flight recorder.
                let events = obs.tick(round as u64, tel);
                let firing = firing_events(&events);
                if !firing.is_empty() {
                    let mut affected = vec![false; slots.len()];
                    for (id, slot) in slots.iter().enumerate() {
                        let mut slot = slot.lock().expect("slot lock");
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
    let mut sessions = Vec::with_capacity(slots.len());
    let mut total_frames = 0u64;
    let mut total_sent = 0u64;
    let mut total_joules = 0.0;
    let mut total_fec_joules = 0.0;
    let mut psnr_sum = 0.0;
    let mut psnr_n = 0usize;
    let mut health = FleetHealth::default();
    for slot in &slots {
        let slot = slot.lock().expect("slot lock");
        let s = &slot.session;
        let stats = s.stats();
        health.count(s.health());
        let report = SessionReport {
            id: s.config().id,
            class: s.config().class.label().to_string(),
            scheme: s.config().scheme.label(),
            device: s.config().device.label().to_string(),
            frames_encoded: stats.frames_encoded,
            frames_rate_dropped: stats.frames_rate_dropped,
            frames_lost: stats.frames_lost,
            frames_damaged: stats.frames_damaged,
            frames_stalled: stats.frames_stalled,
            chaos_injected: stats.chaos_injected,
            fec_recoveries: stats.fec_recoveries,
            fec: stats.fec,
            fec_joules: stats.fec_joules,
            fec_codec: s.fec_label().unwrap_or_default(),
            avg_psnr_db: s.quality().average_psnr(),
            encoded_bytes: stats.encoded_bytes,
            sent_bytes: stats.sent_bytes,
            encode_joules: stats.encode_joules,
            plr_estimate: s.plr_estimate(),
            final_intra_th: s.current_intra_th(),
            shed: s.is_shed(),
            health: s.health(),
            health_log: s.health_ledger().transitions().to_vec(),
            decode: stats.decode,
        };
        total_frames += report.frames_encoded;
        total_sent += report.sent_bytes;
        total_joules += report.encode_joules;
        total_fec_joules += report.fec_joules;
        if !report.shed {
            psnr_sum += report.avg_psnr_db;
            psnr_n += 1;
        }
        sessions.push(report);
    }
    let lat = latencies.lock().expect("latency lock");
    let timing = FleetTiming {
        wall_s,
        throughput_fps: if wall_s > 0.0 {
            total_frames as f64 / wall_s
        } else {
            0.0
        },
        p50_frame_ms: quantile_ms(&lat, 0.50),
        p99_frame_ms: quantile_ms(&lat, 0.99),
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
        total_sent_bytes: total_sent,
        mean_psnr_db: if psnr_n > 0 {
            psnr_sum / psnr_n as f64
        } else {
            0.0
        },
        total_encode_joules: total_joules,
        total_fec_joules,
        health,
        alerts: obs
            .as_ref()
            .map(|o| o.alerts().to_vec())
            .unwrap_or_default(),
        timing,
    };
    Ok((
        report,
        tracing.map(|ts| ts.finish(cfg)),
        obs.map(ObserveState::finish),
    ))
}

/// Renders the `/health` body for the scrape endpoint: per-session
/// health snapshot plus the firing SLO set.
fn health_body(rounds_done: u64, slots: &[Arc<Mutex<Slot>>], obs: &ObserveState) -> String {
    let entries: Vec<(u32, &'static str, usize, bool)> = slots
        .iter()
        .enumerate()
        .map(|(id, slot)| {
            let slot = slot.lock().expect("slot lock");
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
        cfg.admission.degrade_lag = 1.0;
        cfg.admission.rate_drop_lag = 2.0;
        cfg.admission.shed_lag = 4.0;
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
    fn degraded_fleet_spends_less_energy_per_frame() {
        let healthy = run(&small(4, 16, 2)).unwrap();
        let mut tight = small(4, 16, 2);
        tight.admission.capacity_j_per_round = 1e-4;
        tight.admission.degrade_lag = 0.5;
        tight.admission.rate_drop_lag = 1e6; // isolate the Intra_Th lever
        tight.admission.shed_lag = 1e6;
        let degraded = run(&tight).unwrap();
        let per_frame = |r: &ServeReport| r.total_encode_joules / r.total_frames as f64;
        assert!(
            per_frame(&degraded) < per_frame(&healthy),
            "the Intra_Th floor must cut per-frame energy: {} vs {}",
            per_frame(&degraded),
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
            pacing_us: 0,
            ..small(4, 16, 2)
        };
        let r = run(&cfg).expect("a corrupted FEC fleet must complete");
        assert_eq!(r.total_frames, 64);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(run(&small(0, 4, 1)).is_err());
        assert!(run(&small(1, 0, 1)).is_err());
        assert!(run(&small(1, 4, 0)).is_err());
        let mut bad = small(1, 1, 1);
        bad.plr = 1.5;
        assert!(run(&bad).is_err());
    }
}
