//! Fleet-level causal tracing: one [`Tracer`] per session, flight-tail
//! dumps on control transitions, and the joined deterministic report
//! (blast radii + `C^k` calibration).
//!
//! The split mirrors the telemetry crate's: everything in
//! [`FleetTrace::deterministic_json`] is a pure function of the
//! [`ServeConfig`] — byte-identical for any worker
//! count — while wall-clock timestamps live only in the tracers' flight
//! tails and surface through [`FleetTrace::chrome_trace_json`], which
//! loads directly into `chrome://tracing` / Perfetto.

use crate::manager::ServeConfig;
use pbpair_media::VideoFormat;
use pbpair_telemetry::json;
use pbpair_trace::{analyze, Analysis, AnalyzeParams, Calibration, RecordedEvent, Tracer};

/// A snapshot of one session's flight tail, taken when the
/// admission controller changed service level or a decoder resync
/// fired — the "what just happened" record for that incident.
#[derive(Clone, Debug)]
pub struct TraceDump {
    /// Session whose flight tail was dumped.
    pub session: u32,
    /// Round (frame slot) the incident landed in.
    pub round: u32,
    /// `"degraded"` (service-level transition), `"resync"` (the decoder
    /// scanned forward past damage this round), or `"slo"` (a burn-rate
    /// alert started firing this round).
    pub reason: &'static str,
    /// Flight-tail contents at dump time, oldest first.
    pub events: Vec<RecordedEvent>,
}

/// One session's replayed trace.
#[derive(Clone, Debug)]
pub struct SessionTrace {
    /// Session id.
    pub id: u32,
    /// Causal replay: DAG, per-event blast radii, calibration.
    pub analysis: Analysis,
    /// Final flight-tail contents.
    pub ring: Vec<RecordedEvent>,
    /// Flight events emitted over the session, evicted ones included.
    pub ring_pushed: u64,
}

/// Everything tracing captured across one fleet run.
#[derive(Clone, Debug)]
pub struct FleetTrace {
    /// Per-session replays, in session-id order.
    pub sessions: Vec<SessionTrace>,
    /// Fleet-wide `C^k` calibration (per-session scores merged in id
    /// order; the merge is commutative integer addition, so this is
    /// identical for any worker count).
    pub calibration: Calibration,
    /// Incident dumps in the order they were taken (round-major,
    /// session-id order within a round — deterministic).
    pub dumps: Vec<TraceDump>,
}

impl FleetTrace {
    /// The deterministic report: calibration, every blast radius, and
    /// incident-dump summaries. Integer-only JSON, byte-identical
    /// across worker counts; wall-clock timestamps are deliberately
    /// excluded (see [`FleetTrace::chrome_trace_json`]).
    pub fn deterministic_json(&self) -> String {
        json::object(|o| {
            o.field("sessions", self.sessions.len())
                .raw("calibration", &self.calibration.deterministic_json())
                .array("blasts", |a| {
                    for s in &self.sessions {
                        for b in &s.analysis.blasts {
                            b.push_json(a, s.id as u64);
                        }
                    }
                })
                .array("per_session", |a| {
                    for s in &self.sessions {
                        let dirty_mbs: u64 = s
                            .analysis
                            .dirty
                            .values()
                            .map(|m| m.iter().filter(|&&d| d).count() as u64)
                            .sum();
                        a.object(|o| {
                            o.field("id", s.id)
                                .field("blasts", s.analysis.blasts.len())
                                .field("dirty_mbs", dirty_mbs)
                                .field("brier_e9", s.analysis.calibration.brier_e9())
                                .field("ring_pushed", s.ring_pushed);
                        });
                    }
                })
                .array("dumps", |a| {
                    for d in &self.dumps {
                        a.object(|o| {
                            o.field("session", d.session)
                                .field("round", d.round)
                                .string("reason", d.reason)
                                .array("events", |ev| {
                                    for e in &d.events {
                                        ev.object(|o| {
                                            o.field("ticket", e.ticket)
                                                .string("name", e.event.name())
                                                .field("frame", e.event.frame());
                                        });
                                    }
                                });
                        });
                    }
                });
        })
    }

    /// The timing-side export: every session's final flight tail as
    /// `chrome://tracing` instant events (`ph: "i"`), one pid per
    /// session. Timestamps are microseconds since the tracer's epoch.
    pub fn chrome_trace_json(&self) -> String {
        json::object(|o| {
            o.array("traceEvents", |a| {
                for s in &self.sessions {
                    for e in &s.ring {
                        a.object(|o| {
                            o.string("name", e.event.name())
                                .string("ph", "i")
                                .string("s", "t")
                                .field("ts", e.ts_us)
                                .field("pid", s.id)
                                .field("tid", 0)
                                .object("args", |args| {
                                    args.field("frame", e.event.frame())
                                        .field("ticket", e.ticket);
                                });
                        });
                    }
                }
            });
        })
    }
}

/// Run-time tracing state the manager threads through its round loop.
pub(crate) struct TraceState {
    tracers: Vec<Tracer>,
    dumps: Vec<TraceDump>,
    /// Current fleet service-degradation level (0 none … 3 shed).
    degrade_level: u8,
}

impl TraceState {
    pub fn new(sessions: usize) -> TraceState {
        TraceState {
            tracers: (0..sessions).map(|_| Tracer::new()).collect(),
            dumps: Vec::new(),
            degrade_level: 0,
        }
    }

    pub fn tracer(&self, id: usize) -> &Tracer {
        &self.tracers[id]
    }

    /// Records the fleet's service level after a round's admission
    /// decision. On a level *increase* every affected session gets a
    /// `degraded` marker event and a flight-tail dump — the tail's
    /// reason to exist.
    pub fn note_degrade(&mut self, round: u32, level: u8, affected: &[bool]) {
        if level > self.degrade_level {
            for (id, tracer) in self.tracers.iter().enumerate() {
                if affected[id] {
                    tracer.emit(pbpair_trace::Event::Degraded { round, level });
                }
            }
            self.dump(round, "degraded", affected);
        }
        self.degrade_level = level;
    }

    /// Dumps the flight tail of every session `affected` marks, in id
    /// order, with one of [`TraceDump::reason`]'s reasons: `"resync"`
    /// for a session whose decoder resynced this round, `"slo"` for every
    /// live session when a burn-rate alert starts firing (the
    /// metric → alert → causal-trace hop of the observability plane).
    pub fn dump(&mut self, round: u32, reason: &'static str, affected: &[bool]) {
        for (id, tracer) in self.tracers.iter().enumerate() {
            if affected[id] {
                self.dumps.push(TraceDump {
                    session: id as u32,
                    round,
                    reason,
                    events: tracer.ring_snapshot(),
                });
            }
        }
    }

    /// Replays every session's log and assembles the fleet report.
    /// Sessions are analyzed and calibration merged in id order, so the
    /// result is independent of scheduling.
    pub fn finish(self, cfg: &ServeConfig) -> FleetTrace {
        let format = VideoFormat::QCIF;
        let params = AnalyzeParams {
            cols: format.mb_cols(),
            rows: format.mb_rows(),
            mtu: cfg.mtu,
            frames: cfg.frames as u32,
        };
        let mut calibration = Calibration::default();
        let sessions: Vec<SessionTrace> = self
            .tracers
            .iter()
            .enumerate()
            .map(|(id, tracer)| {
                let analysis = analyze(&tracer.log_snapshot(), params);
                calibration.merge(&analysis.calibration);
                SessionTrace {
                    id: id as u32,
                    analysis,
                    ring: tracer.ring_snapshot(),
                    ring_pushed: tracer.ring_pushed(),
                }
            })
            .collect();
        FleetTrace {
            sessions,
            calibration,
            dumps: self.dumps,
        }
    }
}
