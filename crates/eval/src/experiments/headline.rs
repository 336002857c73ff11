//! The headline claim: PBPAIR's encoding-energy reduction vs AIR, GOP,
//! and PGOP at matched compression.
//!
//! The paper's abstract: "our approach reduces energy consumption by 34%,
//! 24% and 17% compared with AIR, GOP and PGOP schemes respectively".
//! This experiment derives the same three percentages from the Figure 5
//! dataset (averaged over the three workloads) on both devices.

use crate::experiments::fig5::{run_fig5, Fig5Options, Fig5Report};
use crate::report::{fmt_f, fmt_pct, Table};

/// Energy-reduction summary for one device.
#[derive(Debug, Clone)]
pub struct HeadlineRow {
    /// Device name.
    pub device: String,
    /// PBPAIR mean encoding energy (J) over the three workloads.
    pub pbpair_energy: f64,
    /// Relative reduction vs AIR-24 (the paper claims ≈34%).
    pub vs_air: f64,
    /// Relative reduction vs GOP-3 (≈24%).
    pub vs_gop: f64,
    /// Relative reduction vs PGOP-3 (≈17%).
    pub vs_pgop: f64,
}

/// The headline dataset.
#[derive(Debug, Clone)]
pub struct HeadlineReport {
    /// One row per device (iPAQ, Zaurus).
    pub rows: Vec<HeadlineRow>,
    /// The Figure 5 data the rows were derived from.
    pub fig5: Fig5Report,
}

/// Runs Figure 5 and derives the headline percentages.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn run_headline(opts: Fig5Options) -> Result<HeadlineReport, String> {
    let fig5 = run_fig5(opts)?;
    Ok(derive_headline(fig5))
}

/// Derives the headline rows from an existing Figure 5 report.
pub fn derive_headline(fig5: Fig5Report) -> HeadlineReport {
    let mean_energy = |scheme: &str, zaurus: bool| -> f64 {
        let cells: Vec<f64> = fig5
            .cells
            .iter()
            .filter(|c| c.scheme == scheme)
            .map(|c| {
                if zaurus {
                    c.energy_zaurus
                } else {
                    c.energy_ipaq
                }
            })
            .collect();
        cells.iter().sum::<f64>() / cells.len().max(1) as f64
    };
    let mut rows = Vec::new();
    for (device, zaurus) in [("iPAQ H5555", false), ("Zaurus SL-5600", true)] {
        let pb = mean_energy("PBPAIR", zaurus);
        let reduction = |other: f64| (other - pb) / other;
        rows.push(HeadlineRow {
            device: device.to_string(),
            pbpair_energy: pb,
            vs_air: reduction(mean_energy("AIR-24", zaurus)),
            vs_gop: reduction(mean_energy("GOP-3", zaurus)),
            vs_pgop: reduction(mean_energy("PGOP-3", zaurus)),
        });
    }
    HeadlineReport { rows, fig5 }
}

impl HeadlineReport {
    /// Renders the summary table (paper bands: 34% / 24% / 17%).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Headline: PBPAIR encoding-energy reduction (paper: 34% vs AIR, 24% vs GOP, 17% vs PGOP)",
        );
        t.set_headers(["device", "PBPAIR (J)", "vs AIR-24", "vs GOP-3", "vs PGOP-3"]);
        for r in &self.rows {
            t.add_row([
                r.device.clone(),
                fmt_f(r.pbpair_energy, 2),
                fmt_pct(r.vs_air),
                fmt_pct(r.vs_gop),
                fmt_pct(r.vs_pgop),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_ordering_holds_on_a_miniature_run() {
        let report = run_headline(Fig5Options::quick(30)).unwrap();
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            // The paper's ordering: the saving vs AIR is the largest, vs
            // PGOP the smallest, and all three are positive.
            assert!(row.vs_air > 0.0, "{}: vs AIR {}", row.device, row.vs_air);
            assert!(row.vs_gop > 0.0, "{}: vs GOP {}", row.device, row.vs_gop);
            assert!(row.vs_pgop > 0.0, "{}: vs PGOP {}", row.device, row.vs_pgop);
            assert!(
                row.vs_air >= row.vs_pgop,
                "{}: AIR saving must exceed PGOP saving",
                row.device
            );
        }
        assert!(report.table().to_string().contains("vs AIR-24"));
    }
}
