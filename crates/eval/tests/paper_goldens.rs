//! Golden digests for the paper experiments.
//!
//! Every PSNR and bad-pixel number of Figs. 5–6, the §4.3/§4.4 sweeps,
//! the §3.2 adaptation, and the resilience and extension tables is
//! measured on the decoder's output, so these digests pin the strict
//! decoder (`run_fig5`, `run_fig6`, the sweeps, `run_adaptive`,
//! `run_concealment`) and the resilient one (`run_corruption_sweep`,
//! `run_feedback_blackout`, `run_fec`) together with the encoder that
//! feeds them; the headline, congestion and DVS digests pin the Joules,
//! link delays and DVS gains derived from the same runs. Each digest is
//! FNV-1a over `f64::to_bits` of the PSNR series (or the per-cell PSNR
//! where a report keeps only that) plus the bad pixels, bytes and
//! operation-count-derived Joules the report carries. Depths are small
//! so the file runs in a few seconds in release.
//!
//! To re-bless after an *intentional* behavior change, run
//! `PBPAIR_BLESS=1 cargo test --release -p pbpair-eval --test paper_goldens -- --nocapture`
//! and paste the printed digests into the constants.

use pbpair_codec::DecodeReport;
use pbpair_eval::experiments::adaptive::{run_adaptive, LossSchedule};
use pbpair_eval::experiments::extensions::{run_concealment, run_congestion, run_dvs, run_fec};
use pbpair_eval::experiments::fig5::{run_fig5, Fig5Options};
use pbpair_eval::experiments::fig6::{run_fig6, Fig6Options};
use pbpair_eval::experiments::headline::derive_headline;
use pbpair_eval::experiments::resilience::{run_corruption_sweep, run_feedback_blackout};
use pbpair_eval::experiments::sweeps::{sweep_intra_th, sweep_plr_grid};
use pbpair_media::metrics::QualityStats;
use pbpair_telemetry::Telemetry;

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
const HEADLINE: u64 = 0x2970_64e2_2d01_1fdd;
const SWEEP_INTRA_TH: u64 = 0x4b16_b2c8_7e8e_a5cf;
const SWEEP_PLR: u64 = 0x7cdb_474f_356c_56db;
const ADAPTIVE: u64 = 0xc99f_6dfa_ceab_c3c7;
const CONGESTION: u64 = 0x2261_9753_46ee_f734;
const DVS: u64 = 0xc39c_59b8_2edb_8809;

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

    let headline = derive_headline(report);
    let mut h = Fnv::new();
    for r in &headline.rows {
        h.bytes(r.device.as_bytes());
        for v in [r.pbpair_energy, r.vs_air, r.vs_gop, r.vs_pgop] {
            h.f64(v);
        }
    }
    check("HEADLINE", h.0, HEADLINE);
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
    // Telemetry never changes a result: disabled and enabled runs both
    // match the one committed digest.
    for tel in [Telemetry::disabled(), Telemetry::new()] {
        let sweep = run_corruption_sweep(16, &[0.0, 0.5, 1.0], &tel).expect("sweep runs");
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
}

#[test]
fn feedback_blackout_matches_the_golden() {
    for tel in [Telemetry::disabled(), Telemetry::new()] {
        let report = run_feedback_blackout(48, &tel).expect("blackout runs");
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

#[test]
fn intra_th_sweep_matches_the_golden() {
    let report = sweep_intra_th(12, 0.10).expect("sweep runs");
    let mut h = Fnv::new();
    h.u64(report.frames as u64);
    h.f64(report.plr);
    for p in &report.points {
        for v in [
            p.intra_th,
            p.intra_ratio,
            p.encoding_energy,
            p.total_energy,
            p.avg_psnr,
        ] {
            h.f64(v);
        }
        h.u64(p.bytes);
        h.u64(p.bad_pixels);
    }
    check("SWEEP_INTRA_TH", h.0, SWEEP_INTRA_TH);
}

#[test]
fn plr_grid_matches_the_golden() {
    let report = sweep_plr_grid(12).expect("grid runs");
    let mut h = Fnv::new();
    h.u64(report.frames as u64);
    for p in &report.points {
        for v in [p.plr, p.intra_th, p.avg_psnr] {
            h.f64(v);
        }
        h.u64(p.bad_pixels);
        h.u64(p.bytes);
    }
    check("SWEEP_PLR", h.0, SWEEP_PLR);
}

#[test]
fn adaptive_runs_match_the_golden() {
    let report = run_adaptive(24, &LossSchedule::calm_burst_calm(24)).expect("adaptive runs");
    let mut h = Fnv::new();
    h.u64(report.frames as u64);
    for run in [
        &report.fixed,
        &report.quality_priority,
        &report.bitrate_priority,
    ] {
        h.bytes(run.mode.as_bytes());
        h.quality(&run.quality);
        h.f64(run.encoding_energy);
        h.u64(run.total_bytes);
        run.th_trace.iter().for_each(|&t| h.f64(t));
        run.plr_trace.iter().for_each(|&p| h.f64(p));
    }
    check("ADAPTIVE", h.0, ADAPTIVE);
}

#[test]
fn congestion_extension_matches_the_golden() {
    let rows = run_congestion(20, 15.0).expect("congestion runs");
    let mut h = Fnv::new();
    for r in &rows {
        h.bytes(r.scheme.as_bytes());
        for v in [r.avg_kbps, r.mean_delay_ms, r.max_delay_ms] {
            h.f64(v);
        }
        h.u64(r.late_frames);
        h.u64(r.max_backlog);
    }
    check("CONGESTION", h.0, CONGESTION);
}

#[test]
fn dvs_extension_matches_the_golden() {
    let rows = run_dvs(6, 5.0).expect("dvs runs");
    let mut h = Fnv::new();
    for r in &rows {
        h.bytes(r.scheme.as_bytes());
        for v in [r.energy_max_level, r.energy_with_dvs, r.dvs_gain] {
            h.f64(v);
        }
    }
    check("DVS", h.0, DVS);
}
