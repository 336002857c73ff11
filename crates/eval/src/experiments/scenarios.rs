//! Declarative scenario matrix: channels × clips × schemes × device
//! mix, run through the serving layer with tracing on.
//!
//! Each cell of the matrix is one traced serve fleet under a named
//! channel scenario (burst erasure, mobility handoff, chaos fault),
//! one content class, and one refresh scheme, over an alternating
//! IPAQ/ZAURUS device mix. The cell reports:
//!
//! * an FNV-1a digest of the fleet's deterministic report — the replay
//!   anchor (byte-identical at any worker count, goldens commit it);
//! * resilience statistics: frames-to-heal from the causal trace,
//!   PSNR, modeled energy, `C^k` Brier score, and the final health
//!   tally;
//!
//! all in integer fixed point so `ci/validate_scenarios.py` can gate
//! committed per-scenario bounds without float-formatting hazards.

use super::fleet;
use crate::report::{fmt_f, Table};
use pbpair_media::synth::MotionClass;
use pbpair_netsim::{ChannelSpec, ScheduleBuilder};
use pbpair_serve::{ChaosEvent, ChaosFault, ChaosPlan, DeviceMix, ServeConfig, SessionScheme};
use pbpair_telemetry::json;
use pbpair_telemetry::Telemetry;

/// One named channel-plus-faults workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name, the key `ci/scenario_bounds.json` gates on.
    pub name: &'static str,
    /// Forward-channel description (`None` = uniform loss at the
    /// config's base PLR).
    pub channel: Option<ChannelSpec>,
    /// Fault schedule injected into the fleet.
    pub chaos: ChaosPlan,
}

impl Scenario {
    /// The fleet one `(clip, scheme)` cell of this scenario runs: an
    /// alternating IPAQ/ZAURUS fleet over multi-fragment frames (MTU
    /// 300, so damage events are packet-level) under this scenario's
    /// channel and faults. The scenario matrix, the dashboard replay and
    /// the scenario goldens all build their cells here.
    pub fn fleet(
        &self,
        clip: MotionClass,
        scheme: SessionScheme,
        frames: usize,
        sessions: usize,
        workers: usize,
    ) -> ServeConfig {
        ServeConfig {
            corruption: 0.2,
            mtu: 300,
            channel: self.channel.clone(),
            clip: Some(clip),
            scheme,
            device_mix: DeviceMix::Alternating,
            chaos: self.chaos.clone(),
            ..fleet::base(frames, sessions, workers)
        }
    }
}

/// The three committed scenarios the golden digests and CI bounds pin.
///
/// Durations are written for runs of ≥ 16 frames/session: every phase
/// change and fault fires inside the shortest smoke run.
pub fn committed_scenarios() -> Vec<Scenario> {
    let burst = ChannelSpec::BurstErasure {
        burst_len: 4.0,
        guard_len: 28.0,
    };
    let handoff = ScheduleBuilder::new()
        .steady(0.03, 4, 2)
        .ramp(0.03, 0.25, 6, 4)
        .outage(3, 8)
        .steady(0.10, 8, 3)
        .build()
        .expect("committed schedule validates");
    // Long enough to push the victim past the watchdog's dark
    // threshold once the run depth allows it (~25 frames); at smoke
    // depth the fault still fires and perturbs the digest.
    let blackout = ChaosPlan::new(vec![ChaosEvent {
        session: 0,
        at_frame: 4,
        fault: ChaosFault::FeedbackBlackout { frames: 24 },
    }])
    .expect("committed plan validates");
    vec![
        Scenario {
            name: "steady_burst",
            channel: Some(burst),
            chaos: ChaosPlan::none(),
        },
        Scenario {
            name: "handoff_ramp",
            channel: Some(handoff),
            chaos: ChaosPlan::none(),
        },
        Scenario {
            name: "feedback_blackout",
            channel: Some(ChannelSpec::Uniform { plr: 0.05 }),
            chaos: blackout,
        },
    ]
}

/// The clip dimension of the matrix.
pub fn matrix_clips() -> Vec<MotionClass> {
    vec![MotionClass::LowAkiyo, MotionClass::MediumForeman]
}

/// The scheme dimension of the matrix.
pub fn matrix_schemes() -> Vec<SessionScheme> {
    vec![
        SessionScheme::Pbpair,
        SessionScheme::Gop(4),
        SessionScheme::Air(11),
    ]
}

/// One (scenario, clip, scheme) cell's deterministic outcome.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    /// Scenario name.
    pub scenario: String,
    /// Content-class label.
    pub clip: String,
    /// Refresh-scheme label.
    pub scheme: String,
    /// FNV-1a of the fleet's deterministic digest.
    pub digest: u64,
    /// Fleet mean PSNR in milli-dB fixed point.
    pub psnr_mdb: u64,
    /// Total modeled encode energy in microjoules.
    pub energy_uj: u64,
    /// `C^k` Brier score in 1e9 fixed point.
    pub brier_e9: u64,
    /// Damage events recorded by the causal trace.
    pub heal_events: u64,
    /// Sum of per-event frames-to-heal.
    pub heal_sum: u64,
    /// Worst single-event frames-to-heal.
    pub heal_max: u32,
    /// Whole frames lost on the channel, fleet-wide.
    pub frames_lost: u64,
    /// Sessions ending the run impaired (degraded or quarantined).
    pub impaired: u32,
    /// Sessions that went down and recovered.
    pub recovered: u32,
}

impl ScenarioCell {
    /// Mean frames-to-heal per damage event.
    pub fn mean_heal_frames(&self) -> f64 {
        if self.heal_events == 0 {
            0.0
        } else {
            self.heal_sum as f64 / self.heal_events as f64
        }
    }
}

/// The full matrix result.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// Frames per session in every cell.
    pub frames: usize,
    /// Sessions per cell.
    pub sessions: usize,
    /// Cells in scenario-major, clip-second, scheme-third order.
    pub cells: Vec<ScenarioCell>,
}

impl ScenarioMatrix {
    /// Human-readable summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(format!(
            "scenario matrix, {} sessions x {} frames/cell",
            self.sessions, self.frames
        ));
        t.set_headers([
            "scenario",
            "clip",
            "scheme",
            "digest",
            "PSNR dB",
            "mJ",
            "Brier",
            "heal fr",
            "worst",
            "lost",
            "impaired",
            "recovered",
        ]);
        for c in &self.cells {
            t.add_row([
                c.scenario.clone(),
                c.clip.clone(),
                c.scheme.clone(),
                format!("{:016x}", c.digest),
                fmt_f(c.psnr_mdb as f64 / 1000.0, 2),
                fmt_f(c.energy_uj as f64 / 1000.0, 2),
                fmt_f(c.brier_e9 as f64 / 1e9, 3),
                fmt_f(c.mean_heal_frames(), 1),
                c.heal_max.to_string(),
                c.frames_lost.to_string(),
                c.impaired.to_string(),
                c.recovered.to_string(),
            ]);
        }
        t
    }

    /// Deterministic integer-only JSON export (fixed-point rates, hex
    /// digests). Byte-identical at any worker count — the property the
    /// CI gate and the golden digests stand on.
    pub fn deterministic_json(&self) -> String {
        json::object(|o| {
            o.field("frames", self.frames)
                .field("sessions", self.sessions)
                .array("cells", |a| {
                    for c in &self.cells {
                        a.object(|o| {
                            o.string("scenario", &c.scenario)
                                .string("clip", &c.clip)
                                .string("scheme", &c.scheme)
                                .string("digest", &format!("{:016x}", c.digest))
                                .field("psnr_mdb", c.psnr_mdb)
                                .field("energy_uj", c.energy_uj)
                                .field("brier_e9", c.brier_e9)
                                .field("heal_events", c.heal_events)
                                .field("heal_sum", c.heal_sum)
                                .field("heal_max", c.heal_max)
                                .field("frames_lost", c.frames_lost)
                                .field("impaired", c.impaired)
                                .field("recovered", c.recovered);
                        });
                    }
                });
        })
    }
}

/// Runs the full matrix — every committed scenario × clip × scheme —
/// with every cell's fleet traced and reporting into `tel` (same
/// semantics as the serve binary's `--telemetry`).
///
/// # Errors
///
/// Returns an error for invalid fleet configuration.
pub fn run_scenario_matrix(
    frames: usize,
    sessions: usize,
    workers: usize,
    tel: &Telemetry,
) -> Result<ScenarioMatrix, String> {
    let mut grid = Vec::new();
    for scenario in committed_scenarios() {
        for clip in matrix_clips() {
            for scheme in matrix_schemes() {
                let cfg = scenario.fleet(clip, scheme, frames, sessions, workers);
                grid.push(((scenario.name, clip, scheme), cfg));
            }
        }
    }
    let cells = fleet::run_cells(grid, tel, true, |(name, clip, scheme), run| {
        let report = run.report;
        let trace = run.trace.expect("scenario cells are traced");
        let mut cell = ScenarioCell {
            scenario: name.to_string(),
            clip: clip.label().to_string(),
            scheme: scheme.label(),
            digest: fleet::digest(&report),
            psnr_mdb: (report.mean_psnr_db * 1000.0).round() as u64,
            energy_uj: (report.total_encode_joules * 1e6).round() as u64,
            brier_e9: trace.calibration.brier_e9(),
            heal_events: 0,
            heal_sum: 0,
            heal_max: 0,
            frames_lost: report.sessions.iter().map(|s| s.frames_lost).sum(),
            impaired: report.health.impaired(),
            recovered: report.health.recovered,
        };
        for blast in trace.sessions.iter().flat_map(|s| &s.analysis.blasts) {
            cell.heal_events += 1;
            cell.heal_sum += u64::from(blast.frames_to_heal);
            cell.heal_max = cell.heal_max.max(blast.frames_to_heal);
        }
        cell
    })?;
    Ok(ScenarioMatrix {
        frames,
        sessions,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_dimension() {
        let m = run_scenario_matrix(16, 2, 2, &Telemetry::disabled()).unwrap();
        assert_eq!(
            m.cells.len(),
            3 * 2 * 3,
            "3 scenarios x 2 clips x 3 schemes"
        );
        for c in &m.cells {
            assert!(c.psnr_mdb > 0, "every cell must decode something: {c:?}");
            assert!(c.energy_uj > 0);
            assert_ne!(c.digest, 0);
        }
        assert!(
            m.cells.iter().any(|c| c.heal_events > 0),
            "lossy scenarios must record damage events"
        );
        let json = m.deterministic_json();
        assert!(json.contains("\"scenario\":\"steady_burst\""));
        assert!(json.contains("\"scheme\":\"PBPAIR\""));
        assert!(
            !json.contains('.'),
            "deterministic JSON must be integer-only"
        );
    }

    #[test]
    fn matrix_json_is_worker_count_invariant() {
        let a = run_scenario_matrix(12, 2, 1, &Telemetry::disabled())
            .unwrap()
            .deterministic_json();
        let b = run_scenario_matrix(12, 2, 4, &Telemetry::disabled())
            .unwrap()
            .deterministic_json();
        assert_eq!(a, b);
    }

    #[test]
    fn blackout_scenario_impairs_and_recovers_a_session() {
        let m = run_scenario_matrix(40, 2, 2, &Telemetry::disabled()).unwrap();
        let blackout_cells: Vec<_> = m
            .cells
            .iter()
            .filter(|c| c.scenario == "feedback_blackout")
            .collect();
        assert!(
            blackout_cells
                .iter()
                .any(|c| c.recovered > 0 || c.impaired > 0),
            "the blackout fault must leave a mark in the health tally: {blackout_cells:?}"
        );
    }
}
