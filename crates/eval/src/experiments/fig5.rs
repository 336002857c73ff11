//! Figure 5: scheme comparison at PLR = 10% over the three workloads.
//!
//! Reproduces all four panels — (a) average PSNR, (b) bad pixels, (c)
//! encoded file size, (d) encoding energy — for NO, PBPAIR, PGOP-3,
//! GOP-3, and AIR-24 on the foreman/akiyo/garden workloads, 300 frames
//! each, exactly as the paper's §4.2. PBPAIR's `Intra_Th` is calibrated
//! per sequence so its compressed size matches PGOP-3, mirroring "we
//! choose Intra_Th that gives similar compression ratio with PGOP-3,
//! GOP-3, and AIR-24".

use crate::pipeline::{calibrate_intra_th, run, run_replicated, LossSpec, RunConfig, SequenceSpec};
use crate::report::{fmt_f, Table};
use pbpair::{PbpairConfig, SchemeSpec};
use pbpair_codec::EncoderConfig;
use pbpair_energy::{EnergyModel, IPAQ_H5555, ZAURUS_SL5600};
use pbpair_netsim::DEFAULT_MTU;
use pbpair_sched::Pool;

/// Options for the Figure 5 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Options {
    /// Frames per sequence (the paper uses 300).
    pub frames: usize,
    /// Frames used by the `Intra_Th` size calibration (shorter = faster).
    pub calibration_frames: usize,
    /// Uniform frame-loss rate (the paper assumes 10%).
    pub plr: f64,
    /// Channel RNG seed.
    pub seed: u64,
    /// Use the paper's full-search encoder configuration. Figure
    /// regeneration keeps this on; quick smoke runs may switch to the
    /// three-step search.
    pub full_search: bool,
    /// Independent channel realizations per cell; PSNR/bad-pixel cells
    /// report the mean (the encoder runs once per cell regardless).
    pub replicates: usize,
}

impl Default for Fig5Options {
    fn default() -> Self {
        Fig5Options {
            frames: 300,
            calibration_frames: 90,
            plr: 0.10,
            seed: 77,
            full_search: true,
            replicates: 3,
        }
    }
}

impl Fig5Options {
    /// Scaled-down options for tests and smoke runs.
    pub fn quick(frames: usize) -> Self {
        Fig5Options {
            frames,
            calibration_frames: frames.min(30),
            replicates: 1,
            ..Fig5Options::default()
        }
    }
}

/// One (scheme × sequence) measurement.
#[derive(Debug, Clone)]
pub struct Fig5Cell {
    /// Scheme name ("NO", "PBPAIR", "PGOP-3", "GOP-3", "AIR-24").
    pub scheme: String,
    /// Sequence label.
    pub sequence: String,
    /// Panel (a): average luma PSNR in dB.
    pub avg_psnr: f64,
    /// Panel (b): total bad pixels over the sequence.
    pub bad_pixels: u64,
    /// Panel (c): encoded size in bytes.
    pub bytes: u64,
    /// Panel (d): encoding energy on the iPAQ, Joules.
    pub energy_ipaq: f64,
    /// Panel (d), second device: encoding energy on the Zaurus, Joules.
    pub energy_zaurus: f64,
    /// Sample std of the average PSNR across channel replicates.
    pub psnr_std: f64,
    /// Mean intra-macroblock ratio (diagnostic).
    pub mean_intra_ratio: f64,
    /// ME searches per P-frame macroblock (diagnostic: the energy story).
    pub me_invocations: u64,
}

/// The full Figure 5 dataset.
#[derive(Debug, Clone)]
pub struct Fig5Report {
    /// All cells, scheme-major in the paper's legend order.
    pub cells: Vec<Fig5Cell>,
    /// The calibrated PBPAIR `Intra_Th` per sequence.
    pub calibrated_th: Vec<(String, f64)>,
    /// The options that produced the report.
    pub options: Fig5Options,
}

/// The schemes of Figure 5 in legend order, given PBPAIR's calibrated
/// threshold and the assumed PLR.
fn schemes(th: f64, plr: f64) -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::No,
        SchemeSpec::Pbpair(PbpairConfig {
            intra_th: th,
            plr,
            ..PbpairConfig::default()
        }),
        SchemeSpec::Pgop(3),
        SchemeSpec::Gop(3),
        SchemeSpec::Air(24),
    ]
}

/// Per-sequence worker output: the scheme cells plus the calibrated
/// `(sequence, Intra_Th)` pair.
type SequenceCells = (Vec<Fig5Cell>, (String, f64));

/// Runs the Figure 5 experiment; sequences are processed in parallel.
///
/// # Errors
///
/// Propagates pipeline errors.
///
/// # Panics
///
/// Re-raises a panic from any sequence once every sequence is done.
pub fn run_fig5(opts: Fig5Options) -> Result<Fig5Report, String> {
    let sequences = SequenceSpec::paper_sequences();
    // Placeholders only: the pool runs every sequence exactly once.
    let mut results: Vec<Result<SequenceCells, String>> =
        sequences.iter().map(|_| Err(String::new())).collect();
    Pool::new(sequences.len()).for_each_mut(&mut results, |i, result| {
        *result = run_sequence(sequences[i].clone(), opts);
    });

    let mut cells = Vec::new();
    let mut calibrated_th = Vec::new();
    let mut per_sequence = Vec::new();
    for r in results {
        let (seq_cells, th) = r?;
        per_sequence.push(seq_cells);
        calibrated_th.push(th);
    }
    // Reorder scheme-major to match the paper's grouped bars.
    let scheme_count = per_sequence[0].len();
    for s in 0..scheme_count {
        for seq_cells in &per_sequence {
            cells.push(seq_cells[s].clone());
        }
    }
    Ok(Fig5Report {
        cells,
        calibrated_th,
        options: opts,
    })
}

fn run_sequence(seq: SequenceSpec, opts: Fig5Options) -> Result<SequenceCells, String> {
    let encoder = if opts.full_search {
        EncoderConfig::paper()
    } else {
        EncoderConfig::default()
    };
    let loss = LossSpec::Uniform {
        rate: opts.plr,
        seed: opts.seed,
    };
    // Size target: PGOP-3 over the calibration prefix.
    let pgop_cal = run(&RunConfig {
        scheme: SchemeSpec::Pgop(3),
        sequence: seq.clone(),
        frames: opts.calibration_frames,
        encoder,
        loss: LossSpec::None,
        mtu: DEFAULT_MTU,
    })?;
    let th = calibrate_intra_th(
        PbpairConfig {
            plr: opts.plr,
            ..PbpairConfig::default()
        },
        seq.clone(),
        encoder,
        opts.calibration_frames,
        pgop_cal.total_bytes,
    )?;

    let mut cells = Vec::new();
    for scheme in schemes(th, opts.plr) {
        let replicated = run_replicated(
            &RunConfig {
                scheme,
                sequence: seq.clone(),
                frames: opts.frames,
                encoder,
                loss: loss.clone(),
                mtu: DEFAULT_MTU,
            },
            opts.replicates.max(1),
        )?;
        let result = &replicated.base;
        cells.push(Fig5Cell {
            scheme: scheme.name(),
            sequence: result.sequence_label.clone(),
            avg_psnr: replicated.psnr_mean,
            bad_pixels: replicated.bad_pixels_mean as u64,
            psnr_std: replicated.psnr_std,
            bytes: result.total_bytes,
            energy_ipaq: result.encoding_energy(&EnergyModel::new(IPAQ_H5555)).get(),
            energy_zaurus: result
                .encoding_energy(&EnergyModel::new(ZAURUS_SL5600))
                .get(),
            mean_intra_ratio: result.mean_intra_ratio,
            me_invocations: result.ops.me_invocations,
        });
    }
    Ok((cells, (seq.label(), th)))
}

impl Fig5Report {
    /// The sequence labels in column order.
    pub fn sequences(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.sequence) {
                out.push(c.sequence.clone());
            }
        }
        out
    }

    /// The scheme labels in row order.
    pub fn schemes(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.scheme) {
                out.push(c.scheme.clone());
            }
        }
        out
    }

    fn cell(&self, scheme: &str, sequence: &str) -> Option<&Fig5Cell> {
        self.cells
            .iter()
            .find(|c| c.scheme == scheme && c.sequence == sequence)
    }

    /// Renders the four panels as tables in the paper's layout.
    pub fn tables(&self) -> Vec<Table> {
        let seqs = self.sequences();
        let mut out = Vec::new();
        type CellFormatter = Box<dyn Fn(&Fig5Cell) -> String>;
        let panels: [(&str, CellFormatter); 6] = [
            (
                "Fig 5(a) Average PSNR (dB), PLR = 10% (mean ± std over channel replicates)",
                Box::new(|c| {
                    if c.psnr_std > 0.0 {
                        format!("{}±{}", fmt_f(c.avg_psnr, 2), fmt_f(c.psnr_std, 2))
                    } else {
                        fmt_f(c.avg_psnr, 2)
                    }
                }),
            ),
            (
                "Fig 5(b) Number of bad pixels (millions)",
                Box::new(|c| fmt_f(c.bad_pixels as f64 / 1e6, 3)),
            ),
            (
                "Fig 5(c) Encoded file size (KBytes)",
                Box::new(|c| fmt_f(c.bytes as f64 / 1024.0, 1)),
            ),
            (
                "Fig 5(d) Encoding energy (J, iPAQ H5555)",
                Box::new(|c| fmt_f(c.energy_ipaq, 2)),
            ),
            (
                "Fig 5(d') Encoding energy (J, Zaurus SL-5600)",
                Box::new(|c| fmt_f(c.energy_zaurus, 2)),
            ),
            (
                "Diagnostic: mean intra-MB ratio",
                Box::new(|c| fmt_f(c.mean_intra_ratio, 3)),
            ),
        ];
        for (title, fmt_cell) in panels {
            let mut t = Table::new(title);
            let mut headers = vec!["scheme".to_string()];
            headers.extend(seqs.iter().cloned());
            t.set_headers(headers);
            for scheme in self.schemes() {
                let mut row = vec![scheme.clone()];
                for seq in &seqs {
                    row.push(
                        self.cell(&scheme, seq)
                            .map(&fmt_cell)
                            .unwrap_or_else(|| "n/a".to_string()),
                    );
                }
                t.add_row(row);
            }
            out.push(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig5_produces_all_cells_with_expected_shapes() {
        // A miniature Figure 5 (30 frames): the orderings the paper
        // reports must already hold.
        let report = run_fig5(Fig5Options::quick(30)).unwrap();
        assert_eq!(report.cells.len(), 5 * 3);
        assert_eq!(
            report.schemes(),
            vec!["NO", "PBPAIR", "PGOP-3", "GOP-3", "AIR-24"]
        );
        for (seq, th) in &report.calibrated_th {
            assert!((0.0..=1.0).contains(th), "{seq}: calibrated threshold {th}");
        }
        for seq in report.sequences() {
            let get = |s: &str| report.cell(s, &seq).unwrap();
            // Energy ordering (the headline): PBPAIR below AIR and NO.
            assert!(
                get("PBPAIR").energy_ipaq < get("AIR-24").energy_ipaq,
                "{seq}: PBPAIR {} vs AIR {}",
                get("PBPAIR").energy_ipaq,
                get("AIR-24").energy_ipaq
            );
            assert!(get("PBPAIR").energy_ipaq < get("NO").energy_ipaq);
            // Resilient schemes beat NO on bad pixels under loss.
            assert!(
                get("PBPAIR").bad_pixels <= get("NO").bad_pixels,
                "{seq}: PBPAIR bad pixels must not exceed NO"
            );
            // Sizes within a factor band of the PGOP-3 anchor.
            let anchor = get("PGOP-3").bytes as f64;
            let ratio = get("PBPAIR").bytes as f64 / anchor;
            assert!(
                (0.6..1.6).contains(&ratio),
                "{seq}: size calibration ratio {ratio}"
            );
        }
        let tables = report.tables();
        assert_eq!(tables.len(), 6);
        assert!(tables[0].to_string().contains("PBPAIR"));
    }
}
