//! Causal-tracing experiment: sweep the `(PLR, Intra_Th)` grid with
//! traced serve fleets, scoring at each point how well the encoder's
//! `C^k` predictions calibrate against the replayed ground truth, and
//! how far each loss/corruption event's damage actually travels
//! (blast radius: MBs touched, frames until healed, pixel cost).
//!
//! The paper's premise is that `C^k` — the probability a macroblock is
//! correct at the decoder — is accurate enough to steer intra refresh.
//! This experiment tests that premise directly: the provenance DAG
//! gives per-MB ground truth, the Brier score measures the prediction
//! against it, and the reliability bins show *where* on the probability
//! scale the estimate drifts.
//!
//! Everything reported here is deterministic: the JSON export is
//! byte-identical for any worker count.

use super::fleet;
use crate::report::{fmt_f, Table};
use pbpair_serve::ServeConfig;
use pbpair_telemetry::json;
use pbpair_telemetry::Telemetry;
use pbpair_trace::{Calibration, LossKind};

/// One `(PLR, Intra_Th)` grid point of the sweep.
#[derive(Clone, Debug)]
pub struct TracePoint {
    /// Channel packet-loss rate of this point.
    pub plr: f64,
    /// Anchor `Intra_Th` of this point.
    pub intra_th: f64,
    /// Fleet-merged `C^k` calibration.
    pub calibration: Calibration,
    /// Damage events that were packet losses.
    pub loss_events: u64,
    /// Damage events that were payload corruptions.
    pub corrupt_events: u64,
    /// Sum of per-event blast radii in (frame, MB) nodes.
    pub mbs_touched: u64,
    /// Sum of per-event heal times in frames.
    pub frames_to_heal_sum: u64,
    /// Worst single-event heal time in frames.
    pub max_frames_to_heal: u32,
    /// Sum of per-event pixel cost (decoder-vs-encoder SAD).
    pub sad_cost: u64,
    /// Flight-recorder incident dumps taken during the run.
    pub dumps: u64,
}

impl TracePoint {
    /// Damage events of either kind.
    pub fn events(&self) -> u64 {
        self.loss_events + self.corrupt_events
    }

    /// Mean blast radius in MBs per damage event.
    pub fn mean_blast_mbs(&self) -> f64 {
        if self.events() == 0 {
            0.0
        } else {
            self.mbs_touched as f64 / self.events() as f64
        }
    }

    /// Mean frames-to-heal per damage event.
    pub fn mean_heal_frames(&self) -> f64 {
        if self.events() == 0 {
            0.0
        } else {
            self.frames_to_heal_sum as f64 / self.events() as f64
        }
    }
}

/// Result of [`run_trace_sweep`].
#[derive(Clone, Debug)]
pub struct TraceExperiment {
    /// Frames per session at every point.
    pub frames: usize,
    /// Grid points in sweep order (PLR-major).
    pub points: Vec<TracePoint>,
}

impl TraceExperiment {
    /// Human-readable blast-radius/calibration table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(format!(
            "C^k calibration and blast radii, {} frames/session",
            self.frames
        ));
        t.set_headers([
            "PLR",
            "Intra_Th",
            "obs",
            "Brier",
            "losses",
            "corrupt",
            "MBs/event",
            "heal fr",
            "worst",
            "SAD cost",
            "dumps",
        ]);
        for p in &self.points {
            t.add_row([
                fmt_f(p.plr, 2),
                fmt_f(p.intra_th, 2),
                p.calibration.count.to_string(),
                fmt_f(p.calibration.brier(), 4),
                p.loss_events.to_string(),
                p.corrupt_events.to_string(),
                fmt_f(p.mean_blast_mbs(), 1),
                fmt_f(p.mean_heal_frames(), 1),
                p.max_frames_to_heal.to_string(),
                p.sad_cost.to_string(),
                p.dumps.to_string(),
            ]);
        }
        t
    }

    /// Deterministic integer-only JSON export: rates appear in
    /// per-mille fixed point, scores through the calibration's own
    /// fixed-point encoding. Byte-identical for any worker count.
    pub fn deterministic_json(&self) -> String {
        json::object(|o| {
            o.field("frames", self.frames).array("points", |a| {
                for p in &self.points {
                    a.object(|o| {
                        o.field("plr_pm", (p.plr * 1000.0).round() as u64)
                            .field("intra_th_pm", (p.intra_th * 1000.0).round() as u64)
                            .field("loss_events", p.loss_events)
                            .field("corrupt_events", p.corrupt_events)
                            .field("mbs_touched", p.mbs_touched)
                            .field("frames_to_heal_sum", p.frames_to_heal_sum)
                            .field("max_frames_to_heal", p.max_frames_to_heal)
                            .field("sad_cost", p.sad_cost)
                            .field("dumps", p.dumps)
                            .raw("calibration", &p.calibration.deterministic_json());
                    });
                }
            });
        })
    }

    /// Aggregate Brier score across the whole grid (observation-
    /// weighted), in [`pbpair_trace::SIGMA_SCALE`] fixed point.
    pub fn overall_brier_e9(&self) -> u64 {
        let mut all = Calibration::default();
        for p in &self.points {
            all.merge(&p.calibration);
        }
        all.brier_e9()
    }
}

/// Runs the `(PLR, Intra_Th)` sweep: one traced serve fleet per grid
/// point, all from the same master seed.
///
/// # Errors
///
/// Returns an error for invalid fleet configuration.
pub fn run_trace_sweep(
    frames: usize,
    plrs: &[f64],
    intra_ths: &[f64],
    workers: usize,
) -> Result<TraceExperiment, String> {
    let mut grid = Vec::with_capacity(plrs.len() * intra_ths.len());
    for &plr in plrs {
        for &intra_th in intra_ths {
            let cfg = ServeConfig {
                sessions: 3,
                frames,
                workers,
                seed: 2005,
                plr,
                corruption: 0.3,
                mtu: 300, // multi-fragment frames → packet-level events
                base_intra_th: intra_th,
                ..ServeConfig::default()
            };
            grid.push(((plr, intra_th), cfg));
        }
    }
    let points = fleet::run_cells(
        grid,
        &Telemetry::disabled(),
        true,
        |(plr, intra_th), run| {
            let trace = run.trace.expect("trace points are traced");
            let mut point = TracePoint {
                plr,
                intra_th,
                calibration: trace.calibration,
                loss_events: 0,
                corrupt_events: 0,
                mbs_touched: 0,
                frames_to_heal_sum: 0,
                max_frames_to_heal: 0,
                sad_cost: 0,
                dumps: trace.dumps.len() as u64,
            };
            for blast in trace.sessions.iter().flat_map(|s| &s.analysis.blasts) {
                match blast.kind {
                    LossKind::Loss => point.loss_events += 1,
                    LossKind::Corrupt => point.corrupt_events += 1,
                }
                point.mbs_touched += blast.mbs_touched;
                point.frames_to_heal_sum += u64::from(blast.frames_to_heal);
                point.max_frames_to_heal = point.max_frames_to_heal.max(blast.frames_to_heal);
                point.sad_cost += blast.sad_cost;
            }
            point
        },
    )?;
    Ok(TraceExperiment { frames, points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_scored_points() {
        let exp = run_trace_sweep(10, &[0.15], &[0.5, 0.9], 2).unwrap();
        assert_eq!(exp.points.len(), 2);
        for p in &exp.points {
            assert!(p.calibration.count > 0, "every point must score MBs");
        }
        assert!(
            exp.points.iter().any(|p| p.events() > 0),
            "a 15% PLR grid must record damage events"
        );
        let json = exp.deterministic_json();
        assert!(json.contains("\"plr_pm\":150"));
        assert!(
            !json.contains('.'),
            "deterministic JSON must be integer-only"
        );
    }

    #[test]
    fn sweep_json_is_worker_count_invariant() {
        let a = run_trace_sweep(8, &[0.2], &[0.9], 1)
            .unwrap()
            .deterministic_json();
        let b = run_trace_sweep(8, &[0.2], &[0.9], 4)
            .unwrap()
            .deterministic_json();
        assert_eq!(a, b);
    }

    #[test]
    fn higher_intra_th_heals_faster() {
        // More intra refresh → shorter error propagation chains. The
        // mean heal time at Intra_Th 0.95 must not exceed the one at
        // 0.05 (nearly no forced intra).
        let exp = run_trace_sweep(16, &[0.2], &[0.05, 0.95], 2).unwrap();
        let lo = &exp.points[0];
        let hi = &exp.points[1];
        if lo.events() > 0 && hi.events() > 0 {
            assert!(
                hi.mean_heal_frames() <= lo.mean_heal_frames() + 1e-9,
                "Intra_Th 0.95 heal {} vs 0.05 heal {}",
                hi.mean_heal_frames(),
                lo.mean_heal_frames()
            );
        }
    }
}
