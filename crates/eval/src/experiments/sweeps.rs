//! Sections 4.3 / 4.4: the trade-off sweeps.
//!
//! §4.3 (error resiliency vs energy): sweep `Intra_Th` over its whole
//! range and report intra-MB counts, encoded size, and encoding energy —
//! including the boundary behaviours the paper calls out (`Th → 0` means
//! no resilience, `Th → 1` means all-intra).
//!
//! §4.4 (error resiliency vs image quality): sweep (`Intra_Th` × PLR) and
//! report PSNR and bad pixels, demonstrating that higher thresholds buy
//! quality under loss.

use crate::pipeline::{run_batch_parallel, LossSpec, RunConfig, SequenceSpec};
use crate::report::{fmt_f, Table};
use pbpair::{PbpairConfig, SchemeSpec};
use pbpair_codec::EncoderConfig;
use pbpair_energy::{EnergyModel, IPAQ_H5555};
use pbpair_media::synth::MotionClass;
use pbpair_netsim::DEFAULT_MTU;

/// One point of the `Intra_Th` sweep.
#[derive(Debug, Clone)]
pub struct ThSweepPoint {
    /// The threshold.
    pub intra_th: f64,
    /// Mean intra-MB ratio.
    pub intra_ratio: f64,
    /// Encoded size, bytes.
    pub bytes: u64,
    /// Encoding energy (iPAQ), Joules.
    pub encoding_energy: f64,
    /// Encoding + transmission energy (iPAQ), Joules.
    pub total_energy: f64,
    /// Average PSNR at the sweep's loss rate.
    pub avg_psnr: f64,
    /// Total bad pixels at the sweep's loss rate.
    pub bad_pixels: u64,
}

/// §4.3 sweep output.
#[derive(Debug, Clone)]
pub struct ThSweepReport {
    /// The sweep points, ascending threshold.
    pub points: Vec<ThSweepPoint>,
    /// Frames per point.
    pub frames: usize,
    /// Loss rate used.
    pub plr: f64,
}

/// Runs the §4.3 `Intra_Th` sweep on the foreman workload.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn sweep_intra_th(frames: usize, plr: f64) -> Result<ThSweepReport, String> {
    let thresholds = [0.0, 0.25, 0.5, 0.75, 0.85, 0.9, 0.95, 0.99, 1.0];
    let sequence = SequenceSpec::Synthetic {
        class: MotionClass::MediumForeman,
        seed: 2005,
    };
    let model = EnergyModel::new(IPAQ_H5555);
    let configs: Vec<RunConfig> = thresholds
        .iter()
        .map(|&th| RunConfig {
            scheme: SchemeSpec::Pbpair(PbpairConfig {
                intra_th: th,
                plr,
                ..PbpairConfig::default()
            }),
            sequence: sequence.clone(),
            frames,
            encoder: EncoderConfig::paper(),
            loss: LossSpec::Uniform {
                rate: plr,
                seed: 77,
            },
            mtu: DEFAULT_MTU,
        })
        .collect();
    let mut points = Vec::new();
    for (result, th) in run_batch_parallel(&configs).into_iter().zip(thresholds) {
        let result = result?;
        points.push(ThSweepPoint {
            intra_th: th,
            intra_ratio: result.mean_intra_ratio,
            bytes: result.total_bytes,
            encoding_energy: result.encoding_energy(&model).get(),
            total_energy: result.total_energy(&model).get(),
            avg_psnr: result.quality.average_psnr(),
            bad_pixels: result.quality.total_bad_pixels(),
        });
    }
    Ok(ThSweepReport {
        points,
        frames,
        plr,
    })
}

impl ThSweepReport {
    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(format!(
            "Sec 4.3: Intra_Th sweep (foreman, {} frames, PLR {:.0}%)",
            self.frames,
            self.plr * 100.0
        ));
        t.set_headers([
            "Intra_Th",
            "intra ratio",
            "size (KB)",
            "enc energy (J)",
            "enc+tx (J)",
            "PSNR (dB)",
            "bad pixels",
        ]);
        for p in &self.points {
            t.add_row([
                fmt_f(p.intra_th, 2),
                fmt_f(p.intra_ratio, 3),
                fmt_f(p.bytes as f64 / 1024.0, 1),
                fmt_f(p.encoding_energy, 3),
                fmt_f(p.total_energy, 3),
                fmt_f(p.avg_psnr, 2),
                p.bad_pixels.to_string(),
            ]);
        }
        t
    }
}

/// One point of the PLR × `Intra_Th` grid.
#[derive(Debug, Clone)]
pub struct PlrGridPoint {
    /// Channel loss rate.
    pub plr: f64,
    /// PBPAIR threshold (its `α` is set to the same PLR).
    pub intra_th: f64,
    /// Average PSNR.
    pub avg_psnr: f64,
    /// Total bad pixels.
    pub bad_pixels: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
}

/// §4.4 grid output.
#[derive(Debug, Clone)]
pub struct PlrGridReport {
    /// Grid points, PLR-major.
    pub points: Vec<PlrGridPoint>,
    /// Frames per point.
    pub frames: usize,
}

/// Runs the §4.4 quality grid on the foreman workload.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn sweep_plr_grid(frames: usize) -> Result<PlrGridReport, String> {
    let plrs = [0.0, 0.05, 0.10, 0.20];
    let thresholds = [0.5, 0.9, 0.99];
    let sequence = SequenceSpec::Synthetic {
        class: MotionClass::MediumForeman,
        seed: 2005,
    };
    let mut grid = Vec::new();
    for plr in plrs {
        for th in thresholds {
            grid.push((plr, th));
        }
    }
    let configs: Vec<RunConfig> = grid
        .iter()
        .map(|&(plr, th)| RunConfig {
            scheme: SchemeSpec::Pbpair(PbpairConfig {
                intra_th: th,
                plr,
                ..PbpairConfig::default()
            }),
            sequence: sequence.clone(),
            frames,
            encoder: EncoderConfig::paper(),
            loss: if plr == 0.0 {
                LossSpec::None
            } else {
                LossSpec::Uniform {
                    rate: plr,
                    seed: 77,
                }
            },
            mtu: DEFAULT_MTU,
        })
        .collect();
    let mut points = Vec::new();
    for (result, (plr, th)) in run_batch_parallel(&configs).into_iter().zip(grid) {
        let result = result?;
        points.push(PlrGridPoint {
            plr,
            intra_th: th,
            avg_psnr: result.quality.average_psnr(),
            bad_pixels: result.quality.total_bad_pixels(),
            bytes: result.total_bytes,
        });
    }
    Ok(PlrGridReport { points, frames })
}

impl PlrGridReport {
    /// Renders the grid as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(format!(
            "Sec 4.4: image quality vs error resiliency (foreman, {} frames)",
            self.frames
        ));
        t.set_headers(["PLR", "Intra_Th", "PSNR (dB)", "bad pixels", "size (KB)"]);
        for p in &self.points {
            t.add_row([
                fmt_f(p.plr, 2),
                fmt_f(p.intra_th, 2),
                fmt_f(p.avg_psnr, 2),
                p.bad_pixels.to_string(),
                fmt_f(p.bytes as f64 / 1024.0, 1),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn th_sweep_shows_the_papers_boundary_behaviour() {
        let r = sweep_intra_th(14, 0.10).unwrap();
        let first = r.points.first().unwrap();
        let last = r.points.last().unwrap();
        // Th = 0: no forced refresh → intra ratio near the natural level.
        assert!(first.intra_ratio < 0.5, "th=0 ratio {}", first.intra_ratio);
        // Th = 1: everything intra (the first frame is intra anyway).
        assert!(last.intra_ratio > 0.95, "th=1 ratio {}", last.intra_ratio);
        // Monotone trends: intra ratio and size grow with th; encoding
        // energy falls with th.
        assert!(last.intra_ratio >= first.intra_ratio);
        assert!(last.bytes > first.bytes);
        assert!(
            last.encoding_energy < first.encoding_energy,
            "all-intra must encode cheaper: {} vs {}",
            last.encoding_energy,
            first.encoding_energy
        );
        assert_eq!(r.table().len(), r.points.len());
    }

    #[test]
    fn plr_grid_quality_improves_with_threshold_under_loss() {
        let r = sweep_plr_grid(14).unwrap();
        // At PLR 20%, the highest threshold must beat the lowest on bad
        // pixels.
        let at = |plr: f64, th: f64| {
            r.points
                .iter()
                .find(|p| (p.plr - plr).abs() < 1e-9 && (p.intra_th - th).abs() < 1e-9)
                .unwrap()
        };
        assert!(
            at(0.20, 0.99).bad_pixels <= at(0.20, 0.5).bad_pixels,
            "more refresh must reduce bad pixels under heavy loss"
        );
        // At PLR 0 the loss-free PSNR is high everywhere.
        assert!(at(0.0, 0.5).avg_psnr > 25.0);
        assert_eq!(r.points.len(), 4 * 3);
    }
}
