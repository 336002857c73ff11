//! Figure 6: per-frame behaviour under scripted packet loss.
//!
//! Reproduces (a) the PSNR-variation series and (b) the frame-size
//! series for PBPAIR vs PGOP-1, GOP-8, and AIR-10 on the foreman
//! workload, 50 frames, with seven scripted loss events e1..e7. As in the
//! paper, e7 lands on a GOP-8 I-frame so the catastrophic case ("when GOP
//! loses an I-frame it fails to reconstruct N consecutive P-frames") is
//! exercised, and the four schemes are size-matched (PBPAIR's `Intra_Th`
//! is calibrated against AIR-10's bitstream).

use crate::pipeline::{calibrate_intra_th, run, LossSpec, RunConfig, SequenceSpec};
use crate::report::{fmt_f, Table};
use pbpair::{PbpairConfig, SchemeSpec};
use pbpair_codec::EncoderConfig;
use pbpair_media::synth::MotionClass;
use pbpair_netsim::DEFAULT_MTU;

/// Options for the Figure 6 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Options {
    /// Frames (the paper plots 50).
    pub frames: usize,
    /// The scripted loss events (frame indices). The default places e7 at
    /// frame 45, an I-frame of GOP-8.
    pub loss_events: Vec<u64>,
    /// The PLR PBPAIR assumes (its `α`); scripted events are sparse, so
    /// this is the operator-configured expectation, 10% as in §4.
    pub assumed_plr: f64,
    /// Sequence seed.
    pub seed: u64,
}

impl Default for Fig6Options {
    fn default() -> Self {
        Fig6Options {
            frames: 50,
            // e1..e7; 45 = 5 * 9 is an I-frame of GOP-8 (period N+1 = 9).
            loss_events: vec![4, 8, 14, 19, 27, 35, 45],
            assumed_plr: 0.10,
            seed: 2005,
        }
    }
}

/// One scheme's per-frame series.
#[derive(Debug, Clone)]
pub struct Fig6Series {
    /// Scheme name.
    pub scheme: String,
    /// Panel (a): PSNR per frame, dB.
    pub psnr: Vec<f64>,
    /// Panel (b): encoded size per frame, bytes.
    pub frame_bytes: Vec<u64>,
    /// Frames needed to recover after each loss event (first frame at
    /// which PSNR returns within 1 dB of the pre-loss level; `None` if it
    /// never recovers before the next event).
    pub recovery_frames: Vec<Option<u64>>,
}

/// The full Figure 6 dataset.
#[derive(Debug, Clone)]
pub struct Fig6Report {
    /// One series per scheme, paper legend order: PBPAIR, PGOP-1, GOP-8,
    /// AIR-10.
    pub series: Vec<Fig6Series>,
    /// The loss-event frame indices.
    pub loss_events: Vec<u64>,
    /// PBPAIR's calibrated threshold.
    pub calibrated_th: f64,
    /// The options used.
    pub options: Fig6Options,
}

/// Runs the Figure 6 experiment.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn run_fig6(opts: Fig6Options) -> Result<Fig6Report, String> {
    let sequence = SequenceSpec::Synthetic {
        class: MotionClass::MediumForeman,
        seed: opts.seed,
    };
    let encoder = EncoderConfig::paper();
    let loss = LossSpec::Scripted {
        lost_frames: opts.loss_events.clone(),
    };

    // Size-match PBPAIR to AIR-10 over the clip length.
    let air_cal = run(&RunConfig {
        scheme: SchemeSpec::Air(10),
        sequence: sequence.clone(),
        frames: opts.frames,
        encoder,
        loss: LossSpec::None,
        mtu: DEFAULT_MTU,
    })?;
    let th = calibrate_intra_th(
        PbpairConfig {
            plr: opts.assumed_plr,
            ..PbpairConfig::default()
        },
        sequence.clone(),
        encoder,
        opts.frames,
        air_cal.total_bytes,
    )?;

    let schemes = vec![
        SchemeSpec::Pbpair(PbpairConfig {
            intra_th: th,
            plr: opts.assumed_plr,
            ..PbpairConfig::default()
        }),
        SchemeSpec::Pgop(1),
        SchemeSpec::Gop(8),
        SchemeSpec::Air(10),
    ];

    let mut series = Vec::new();
    for scheme in schemes {
        let result = run(&RunConfig {
            scheme,
            sequence: sequence.clone(),
            frames: opts.frames,
            encoder,
            loss: loss.clone(),
            mtu: DEFAULT_MTU,
        })?;
        let psnr: Vec<f64> = result.quality.psnr_series().to_vec();
        let recovery = recovery_times(&psnr, &opts.loss_events);
        series.push(Fig6Series {
            scheme: scheme.name(),
            frame_bytes: result.frame_bits.iter().map(|b| b.div_ceil(8)).collect(),
            psnr,
            recovery_frames: recovery,
        });
    }

    Ok(Fig6Report {
        series,
        loss_events: opts.loss_events.clone(),
        calibrated_th: th,
        options: opts,
    })
}

/// For each loss event, the number of frames until PSNR returns within
/// 1 dB of the frame *before* the loss (bounded by the next event or the
/// end of the clip).
pub fn recovery_times(psnr: &[f64], events: &[u64]) -> Vec<Option<u64>> {
    let mut out = Vec::with_capacity(events.len());
    for (i, &e) in events.iter().enumerate() {
        let e = e as usize;
        if e == 0 || e >= psnr.len() {
            out.push(None);
            continue;
        }
        let baseline = psnr[e - 1];
        let horizon = events
            .get(i + 1)
            .map(|&n| (n as usize).min(psnr.len()))
            .unwrap_or(psnr.len());
        let mut found = None;
        for (k, &p) in psnr.iter().enumerate().take(horizon).skip(e) {
            if p >= baseline - 1.0 {
                found = Some((k - e) as u64);
                break;
            }
        }
        out.push(found);
    }
    out
}

impl Fig6Report {
    /// Mean recovery time per scheme (counting unrecovered events at the
    /// horizon length) — the scalar behind "PBPAIR recovers faster".
    pub fn mean_recovery(&self, scheme_index: usize) -> f64 {
        let s = &self.series[scheme_index];
        let horizon = self.options.frames as u64;
        let vals: Vec<u64> = s
            .recovery_frames
            .iter()
            .map(|r| r.unwrap_or(horizon))
            .collect();
        vals.iter().sum::<u64>() as f64 / vals.len().max(1) as f64
    }

    /// Panel (a) as a table: one row per frame, one column per scheme.
    pub fn psnr_table(&self) -> Table {
        let mut t = Table::new("Fig 6(a) PSNR variation (dB); * marks lost frames");
        let mut headers = vec!["frame".to_string()];
        headers.extend(self.series.iter().map(|s| s.scheme.clone()));
        t.set_headers(headers);
        for f in 0..self.options.frames {
            let marker = if self.loss_events.contains(&(f as u64)) {
                format!("{f}*")
            } else {
                f.to_string()
            };
            let mut row = vec![marker];
            for s in &self.series {
                row.push(fmt_f(s.psnr[f].min(99.0), 2));
            }
            t.add_row(row);
        }
        t
    }

    /// Panel (b) as a table.
    pub fn size_table(&self) -> Table {
        let mut t = Table::new("Fig 6(b) Frame size variation (bytes)");
        let mut headers = vec!["frame".to_string()];
        headers.extend(self.series.iter().map(|s| s.scheme.clone()));
        t.set_headers(headers);
        for f in 0..self.options.frames {
            let mut row = vec![f.to_string()];
            for s in &self.series {
                row.push(s.frame_bytes[f].to_string());
            }
            t.add_row(row);
        }
        t
    }

    /// Recovery summary table.
    pub fn recovery_table(&self) -> Table {
        let mut t = Table::new("Recovery frames per loss event (smaller = faster recovery)");
        let mut headers = vec!["scheme".to_string()];
        headers.extend(
            self.loss_events
                .iter()
                .enumerate()
                .map(|(i, e)| format!("e{} (f{})", i + 1, e)),
        );
        headers.push("mean".to_string());
        t.set_headers(headers);
        for (i, s) in self.series.iter().enumerate() {
            let mut row = vec![s.scheme.clone()];
            for r in &s.recovery_frames {
                row.push(match r {
                    Some(k) => k.to_string(),
                    None => ">horizon".to_string(),
                });
            }
            row.push(fmt_f(self.mean_recovery(i), 1));
            t.add_row(row);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_time_extraction() {
        // PSNR 30 everywhere, dips to 20 at frame 3, back at frame 5.
        let psnr = vec![30.0, 30.0, 30.0, 20.0, 22.0, 29.5, 30.0];
        let r = recovery_times(&psnr, &[3]);
        assert_eq!(r, vec![Some(2)]);
        // Never recovers before the horizon.
        let flat = vec![30.0, 30.0, 10.0, 10.0, 10.0];
        assert_eq!(recovery_times(&flat, &[2]), vec![None]);
        // Event at 0 or out of range yields None.
        assert_eq!(recovery_times(&psnr, &[0, 100]), vec![None, None]);
    }

    #[test]
    fn quick_fig6_shapes() {
        // 24-frame miniature with three events; e3 at frame 18 = GOP-8
        // I-frame.
        let opts = Fig6Options {
            frames: 24,
            loss_events: vec![4, 10, 18],
            ..Fig6Options::default()
        };
        let report = run_fig6(opts).unwrap();
        assert_eq!(report.series.len(), 4);
        assert_eq!(
            report
                .series
                .iter()
                .map(|s| s.scheme.as_str())
                .collect::<Vec<_>>(),
            vec!["PBPAIR", "PGOP-1", "GOP-8", "AIR-10"]
        );
        for s in &report.series {
            assert_eq!(s.psnr.len(), 24);
            assert_eq!(s.frame_bytes.len(), 24);
            // Every loss event must dent PSNR at that frame relative to
            // the frame before (all schemes lose the same frames).
            for &e in &report.loss_events {
                let e = e as usize;
                assert!(
                    s.psnr[e] < s.psnr[e - 1],
                    "{}: no dip at lost frame {e}",
                    s.scheme
                );
            }
        }
        // GOP-8's I-frames dominate its size series.
        let gop = &report.series[2];
        assert!(gop.frame_bytes[9] > gop.frame_bytes[1] * 2);
        let tables = [
            report.psnr_table(),
            report.size_table(),
            report.recovery_table(),
        ];
        assert!(tables.iter().all(|t| !t.is_empty()));
    }
}
