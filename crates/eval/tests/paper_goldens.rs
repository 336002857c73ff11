//! Golden digests for the paper experiments.
//!
//! Every PSNR and bad-pixel number of Figs. 5–6, and of the resilience
//! and extension tables, is measured on the decoder's output, so these
//! digests pin the strict decoder (`run_fig5`, `run_fig6`,
//! `run_concealment`) and the resilient one (`run_corruption_sweep`,
//! `run_feedback_blackout`, `run_fec`) together with the encoder that
//! feeds them. Each digest is FNV-1a over `f64::to_bits` of the PSNR
//! series (or the per-cell PSNR where a report keeps only that) plus the
//! bad pixels, bytes and operation-count-derived Joules the report
//! carries. Depths are small so the file runs in a few seconds in
//! release.
//!
//! To re-bless after an *intentional* behavior change, run
//! `PBPAIR_BLESS=1 cargo test --release -p pbpair-eval --test paper_goldens -- --nocapture`
//! and paste the printed digests into the constants.

use pbpair_codec::DecodeReport;
use pbpair_eval::experiments::extensions::{run_concealment, run_fec};
use pbpair_eval::experiments::fig5::{run_fig5, Fig5Options};
use pbpair_eval::experiments::fig6::{run_fig6, Fig6Options};
use pbpair_eval::experiments::resilience::{run_corruption_sweep, run_feedback_blackout};
use pbpair_media::metrics::QualityStats;

/// Streaming FNV-1a, the digest DESIGN.md uses for deterministic reports.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn quality(&mut self, q: &QualityStats) {
        q.psnr_series().iter().for_each(|&p| self.f64(p));
        q.bad_pixel_series().iter().for_each(|&b| self.u64(b));
    }

    fn decode(&mut self, d: &DecodeReport) {
        for v in [
            d.frames_decoded,
            d.frames_recovered,
            d.mbs_concealed,
            d.resyncs,
            d.bytes_skipped,
        ] {
            self.u64(v);
        }
    }
}

/// Compares `got` to the committed digest, or prints it under
/// `PBPAIR_BLESS`.
fn check(name: &str, got: u64, committed: u64) {
    if std::env::var("PBPAIR_BLESS").is_ok() {
        println!("const {name}: u64 = 0x{got:016x};");
    } else {
        assert_eq!(
            got, committed,
            "{name}: digest drifted from the committed golden \
             (0x{got:016x} vs 0x{committed:016x}); if the change is \
             intentional, re-bless with PBPAIR_BLESS=1"
        );
    }
}

const FIG5: u64 = 0xcf64_8a8a_8a88_c84d;
const FIG6: u64 = 0xc50e_6358_f466_84de;
const CORRUPTION_SWEEP: u64 = 0xc98c_9052_0b23_f550;
const FEEDBACK_BLACKOUT: u64 = 0x289f_32a6_7aa9_5c66;
const FEC: u64 = 0xcf1d_95e5_1bf3_4e57;
const CONCEALMENT: u64 = 0x622f_61ff_680c_1d88;

#[test]
fn fig5_three_step_cells_match_the_golden() {
    let report = run_fig5(Fig5Options {
        full_search: false,
        ..Fig5Options::quick(12)
    })
    .expect("fig5 runs");
    let mut h = Fnv::new();
    for (seq, th) in &report.calibrated_th {
        h.bytes(seq.as_bytes());
        h.f64(*th);
    }
    for c in &report.cells {
        h.bytes(c.scheme.as_bytes());
        h.bytes(c.sequence.as_bytes());
        for v in [
            c.avg_psnr,
            c.psnr_std,
            c.energy_ipaq,
            c.energy_zaurus,
            c.mean_intra_ratio,
        ] {
            h.f64(v);
        }
        h.u64(c.bad_pixels);
        h.u64(c.bytes);
        h.u64(c.me_invocations);
    }
    check("FIG5", h.0, FIG5);
}

#[test]
fn fig6_series_match_the_golden() {
    // 18 = 2 × 9 is an I-frame of GOP-8, like the full run's e7.
    let report = run_fig6(Fig6Options {
        frames: 20,
        loss_events: vec![4, 8, 14, 18],
        ..Fig6Options::default()
    })
    .expect("fig6 runs");
    let mut h = Fnv::new();
    h.f64(report.calibrated_th);
    for s in &report.series {
        h.bytes(s.scheme.as_bytes());
        s.psnr.iter().for_each(|&p| h.f64(p));
        s.frame_bytes.iter().for_each(|&b| h.u64(b));
        for r in &s.recovery_frames {
            h.u64(r.map_or(u64::MAX, |f| f));
        }
    }
    check("FIG6", h.0, FIG6);
}

#[test]
fn corruption_sweep_matches_the_golden() {
    let sweep = run_corruption_sweep(16, &[0.0, 0.5, 1.0]).expect("sweep runs");
    let mut h = Fnv::new();
    for p in &sweep.points {
        h.f64(p.intensity);
        h.quality(&p.quality);
        h.u64(p.frames_lost);
        h.u64(p.frames_damaged);
        h.decode(&p.decode);
    }
    check("CORRUPTION_SWEEP", h.0, CORRUPTION_SWEEP);
}

#[test]
fn feedback_blackout_matches_the_golden() {
    let report = run_feedback_blackout(48).expect("blackout runs");
    let mut h = Fnv::new();
    report.th_trace.iter().for_each(|&t| h.f64(t));
    report.degraded_trace.iter().for_each(|&d| h.u64(d as u64));
    h.quality(&report.quality);
    let f = &report.feedback;
    for v in [f.sent, f.lost, f.delivered, f.out_of_order] {
        h.u64(v);
    }
    h.decode(&report.decode);
    check("FEEDBACK_BLACKOUT", h.0, FEEDBACK_BLACKOUT);
}

#[test]
fn fec_extension_matches_the_golden() {
    let rows = run_fec(16, 0.05, 120).expect("fec runs");
    let mut h = Fnv::new();
    for r in &rows {
        h.bytes(r.label.as_bytes());
        h.u64(r.frames_usable);
        h.f64(r.avg_psnr);
        h.u64(r.bytes_sent);
    }
    check("FEC", h.0, FEC);
}

#[test]
fn concealment_extension_matches_the_golden() {
    let rows = run_concealment(16, 0.15).expect("concealment runs");
    let mut h = Fnv::new();
    for r in &rows {
        h.bytes(r.label.as_bytes());
        h.f64(r.avg_psnr);
        h.u64(r.bad_pixels);
        h.f64(r.intra_ratio);
    }
    check("CONCEALMENT", h.0, CONCEALMENT);
}
