//! Dashboard replay: every committed channel scenario — plus a
//! header-aligned burst-kill incident — run through the serving layer
//! with the full observability plane on (per-round time-series, the
//! standard SLO set, causal tracing), emitting the per-round CSV a
//! dashboard would plot and a deterministic alert/health summary that
//! `ci/validate_scenarios.py --dashboard` gates against committed
//! bounds.
//!
//! One cell per scenario (LowAkiyo clip, PBPAIR scheme): the matrix
//! already covers the clip × scheme plane; the dashboard's job is the
//! metric → alert → ledger → flight-recorder chain per channel regime.

use super::scenarios::{committed_scenarios, Scenario};
use crate::report::Table;
use pbpair_media::synth::MotionClass;
use pbpair_netsim::ChannelSpec;
use pbpair_serve::{run_with, ChaosEvent, ChaosFault, ChaosPlan, SessionScheme};
use pbpair_telemetry::json;
use pbpair_telemetry::slo::AlertState;
use pbpair_telemetry::Telemetry;
use std::collections::BTreeMap;

/// The committed scenarios plus `burst_kill`: a quiet channel with a
/// 10-frame whole-frame kill on session 0 starting at frame 2 — the
/// incident the residual-loss SLO exists to page on.
pub fn dashboard_scenarios() -> Vec<Scenario> {
    let mut scenarios = committed_scenarios();
    scenarios.push(Scenario {
        name: "burst_kill",
        channel: Some(ChannelSpec::Uniform { plr: 0.02 }),
        chaos: ChaosPlan::new(vec![ChaosEvent {
            session: 0,
            at_frame: 2,
            fault: ChaosFault::BurstKill { frames: 10 },
        }])
        .expect("committed plan validates"),
    });
    scenarios
}

/// Per-SLO alert tally of one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlertTally {
    /// Transitions into the firing state.
    pub fired: u64,
    /// Transitions back to cleared.
    pub cleared: u64,
}

/// One scenario's observed replay.
#[derive(Debug, Clone)]
pub struct DashboardCell {
    /// Scenario name (the key the bounds file gates on).
    pub scenario: String,
    /// Alert transitions per SLO, name-sorted.
    pub alerts: BTreeMap<String, AlertTally>,
    /// Flight-recorder dumps with reason `"slo"`.
    pub slo_dumps: u64,
    /// Health-ledger transitions with an `slo:` reason, fleet-wide.
    pub slo_transitions: u64,
    /// Sessions ending the run impaired (degraded or quarantined).
    pub impaired: u32,
    /// Sessions that went down and recovered.
    pub recovered: u32,
    /// Per-round time-series CSV rows for this cell, each prefixed with
    /// the scenario name (timing rows included — wall-clock columns are
    /// for plotting, not gating).
    pub csv_rows: String,
}

impl DashboardCell {
    /// Total firing transitions across every SLO.
    pub fn total_fired(&self) -> u64 {
        self.alerts.values().map(|t| t.fired).sum()
    }

    /// Total cleared transitions across every SLO.
    pub fn total_cleared(&self) -> u64 {
        self.alerts.values().map(|t| t.cleared).sum()
    }
}

/// The full dashboard replay result.
#[derive(Debug, Clone)]
pub struct DashboardReport {
    /// Frames per session in every cell.
    pub frames: usize,
    /// Sessions per cell.
    pub sessions: usize,
    /// One cell per scenario, in [`dashboard_scenarios`] order.
    pub cells: Vec<DashboardCell>,
}

impl DashboardReport {
    /// Human-readable summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(format!(
            "dashboard replay, {} sessions x {} frames/cell",
            self.sessions, self.frames
        ));
        t.set_headers([
            "scenario",
            "fired",
            "cleared",
            "slo dumps",
            "slo transitions",
            "impaired",
            "recovered",
        ]);
        for c in &self.cells {
            t.add_row([
                c.scenario.clone(),
                c.total_fired().to_string(),
                c.total_cleared().to_string(),
                c.slo_dumps.to_string(),
                c.slo_transitions.to_string(),
                c.impaired.to_string(),
                c.recovered.to_string(),
            ]);
        }
        t
    }

    /// Deterministic integer-only JSON export: the alert tallies and
    /// health/trace consequences per scenario. Byte-identical at any
    /// worker count — the CI gate stands on it. The CSV (wall-clock
    /// columns included) deliberately stays out of this export.
    pub fn deterministic_json(&self) -> String {
        json::object(|o| {
            o.field("frames", self.frames)
                .field("sessions", self.sessions)
                .array("cells", |a| {
                    for c in &self.cells {
                        a.object(|o| {
                            o.string("scenario", &c.scenario)
                                .map("alerts", &c.alerts, |t, tally| {
                                    t.field("fired", tally.fired)
                                        .field("cleared", tally.cleared);
                                })
                                .field("slo_dumps", c.slo_dumps)
                                .field("slo_transitions", c.slo_transitions)
                                .field("impaired", c.impaired)
                                .field("recovered", c.recovered);
                        });
                    }
                });
        })
    }

    /// The concatenated per-round CSV across every cell:
    /// `scenario,round,scope,kind,name,field,value`.
    pub fn csv(&self) -> String {
        let mut out = String::from("scenario,round,scope,kind,name,field,value\n");
        for c in &self.cells {
            out.push_str(&c.csv_rows);
        }
        out
    }
}

/// Runs every dashboard scenario through an observed, traced fleet:
/// the scenario matrix's LowAkiyo/PBPAIR cell with the standard SLOs
/// ticking every round, each cell on a fresh registry so its
/// time-series starts from zero.
///
/// # Errors
///
/// Returns an error for invalid fleet configuration.
pub fn run_dashboard(
    frames: usize,
    sessions: usize,
    workers: usize,
) -> Result<DashboardReport, String> {
    let mut cells = Vec::new();
    for scenario in dashboard_scenarios() {
        let mut cfg = scenario.fleet(
            MotionClass::LowAkiyo,
            SessionScheme::Pbpair,
            frames,
            sessions,
            workers,
        );
        cfg.observe = true;
        let run = run_with(&cfg, &Telemetry::new(), true)?;
        let report = run.report;
        let trace = run.trace.expect("dashboard cells are traced");
        let obs = run.observability.expect("dashboard cells are observed");
        let mut alerts: BTreeMap<String, AlertTally> = BTreeMap::new();
        for a in &report.alerts {
            let t = alerts.entry(a.slo.clone()).or_default();
            match a.state {
                AlertState::Firing => t.fired += 1,
                AlertState::Cleared => t.cleared += 1,
            }
        }
        let csv_rows: String = obs
            .series
            .to_csv()
            .lines()
            .skip(1) // per-cell header; the report adds the global one
            .map(|line| format!("{},{line}\n", scenario.name))
            .collect();
        cells.push(DashboardCell {
            scenario: scenario.name.to_string(),
            alerts,
            slo_dumps: trace.dumps.iter().filter(|d| d.reason == "slo").count() as u64,
            slo_transitions: report
                .sessions
                .iter()
                .flat_map(|s| &s.health_log)
                .filter(|t| t.reason.starts_with("slo:"))
                .count() as u64,
            impaired: report.health.impaired(),
            recovered: report.health.recovered,
            csv_rows,
        });
    }
    Ok(DashboardReport {
        frames,
        sessions,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_kill_drives_the_full_alert_chain() {
        let r = run_dashboard(16, 2, 2).unwrap();
        assert_eq!(r.cells.len(), 4, "3 committed scenarios + burst_kill");
        let kill = r
            .cells
            .iter()
            .find(|c| c.scenario == "burst_kill")
            .expect("burst_kill cell");
        let residual = kill
            .alerts
            .get("residual_loss")
            .copied()
            .unwrap_or_default();
        assert!(
            residual.fired >= 1,
            "burst kill must fire residual_loss: {kill:?}"
        );
        assert!(kill.slo_dumps >= 1, "alert must dump the flight recorder");
        assert!(
            kill.slo_transitions >= 1,
            "alert must reach the health ledger"
        );
    }

    #[test]
    fn dashboard_json_is_worker_count_invariant() {
        let a = run_dashboard(12, 2, 1).unwrap().deterministic_json();
        let b = run_dashboard(12, 2, 4).unwrap().deterministic_json();
        assert_eq!(a, b);
        assert!(!a.contains('.'), "deterministic JSON must be integer-only");
    }

    #[test]
    fn json_escapes_alert_names() {
        let alerts = BTreeMap::from([(
            "a\"b\\c".to_string(),
            AlertTally {
                fired: 1,
                cleared: 0,
            },
        )]);
        let r = DashboardReport {
            frames: 1,
            sessions: 1,
            cells: vec![DashboardCell {
                scenario: "s".into(),
                alerts,
                slo_dumps: 0,
                slo_transitions: 0,
                impaired: 0,
                recovered: 0,
                csv_rows: String::new(),
            }],
        };
        assert!(r
            .deterministic_json()
            .contains("\"alerts\":{\"a\\\"b\\\\c\":{\"fired\":1,\"cleared\":0}}"));
    }

    #[test]
    fn csv_carries_per_round_slo_series() {
        let r = run_dashboard(12, 2, 1).unwrap();
        let csv = r.csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("scenario,round,scope,kind,name,field,value")
        );
        assert!(csv.contains("burst_kill,"));
        assert!(
            csv.contains(",deterministic,counter,slo.frame_slots,total,"),
            "the SLO denominators must appear in the plot stream"
        );
    }
}
