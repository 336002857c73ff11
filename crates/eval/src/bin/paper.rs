//! The paper's evaluation, one binary. Each experiment regenerates one
//! figure or section:
//!
//! * `fig5` — Figure 5: NO / PBPAIR / PGOP-3 / GOP-3 / AIR-24 on the
//!   foreman/akiyo/garden workloads at PLR = 10% (average PSNR, bad
//!   pixels, encoded size, encoding energy on both PDAs);
//! * `fig6` — Figure 6: per-frame PSNR and frame sizes for PBPAIR vs
//!   PGOP-1 / GOP-8 / AIR-10 under seven scripted loss events, foreman,
//!   50 frames (a fixed depth: `PBPAIR_FRAMES` does not change it);
//! * `headline` — PBPAIR's encoding-energy reduction vs AIR-24 / GOP-3 /
//!   PGOP-3 at matched compression (paper: 34% / 24% / 17%);
//! * `sweep_intra_th` — §4.3: intra count, size and energy across the
//!   `Intra_Th` range;
//! * `sweep_plr` — §4.4: PSNR and bad pixels over the (PLR × `Intra_Th`)
//!   grid;
//! * `adaptive` — §3.2: receiver PLR feedback (α update and closed-form
//!   `Intra_Th` compensation) vs a static configuration over a
//!   calm → burst → calm loss schedule;
//! * `extensions` — §5: FEC, concealment, congestion and DVS/DFS
//!   cooperation;
//! * `resilience` — the corruption-intensity sweep (resilient decode of
//!   damaged payloads) and the feedback blackout (the degradation
//!   controller backing `Intra_Th` off while the return channel is dark);
//! * `summary` — every experiment at reduced scale, beside the paper's
//!   claims.
//!
//! Usage: `cargo run --release -p pbpair-eval --bin paper -- \
//!   <experiment> [--telemetry] [--trace-out PATH]`
//!
//! `PBPAIR_FRAMES=<n>` (n ≥ 10) overrides the depth for a quick pass;
//! any other value is a bad argument, whichever experiment runs, and so
//! is a `PBPAIR_KERNELS` value that names no kernel tier of this host.
//!
//! `--telemetry` and `--trace-out` apply only to `resilience`. With
//! `--telemetry` both of its experiments run instrumented and the merged
//! [`pbpair_telemetry::TelemetryReport`] is printed as JSON on stdout;
//! the tables move to stderr so stdout stays machine-parseable.
//! `--trace-out <path>` (implies `--telemetry`) writes that JSON to a
//! file instead, leaving the tables on stdout.
//!
//! Bad arguments exit with status 2 and a message; a failed run exits
//! with status 1.

use pbpair_codec::Kernels;
use pbpair_eval::experiments::adaptive::{run_adaptive, LossSchedule};
use pbpair_eval::experiments::extensions::{
    concealment_table, congestion_table, dvs_table, fec_table, run_concealment, run_congestion,
    run_dvs, run_fec,
};
use pbpair_eval::experiments::fig5::{run_fig5, Fig5Options};
use pbpair_eval::experiments::fig6::{run_fig6, Fig6Options};
use pbpair_eval::experiments::frames_from_env;
use pbpair_eval::experiments::headline::run_headline;
use pbpair_eval::experiments::resilience::{run_corruption_sweep, run_feedback_blackout};
use pbpair_eval::experiments::sweeps::{sweep_intra_th, sweep_plr_grid};
use pbpair_eval::report::{fmt_f, fmt_pct, Table};
use pbpair_telemetry::Telemetry;

const USAGE: &str = "usage: paper <fig5|fig6|headline|sweep_intra_th|sweep_plr|adaptive|\
                     extensions|resilience|summary> [--telemetry] [--trace-out PATH]";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Experiment {
    Fig5,
    Fig6,
    Headline,
    SweepIntraTh,
    SweepPlr,
    Adaptive,
    Extensions,
    Resilience,
    Summary,
}

impl Experiment {
    /// Name, experiment and the default depth `PBPAIR_FRAMES` overrides
    /// (`fig6` always runs its fixed 50 frames).
    const ALL: [(&'static str, Experiment, usize); 9] = [
        ("fig5", Experiment::Fig5, 300),
        ("fig6", Experiment::Fig6, 50),
        ("headline", Experiment::Headline, 300),
        ("sweep_intra_th", Experiment::SweepIntraTh, 150),
        ("sweep_plr", Experiment::SweepPlr, 150),
        ("adaptive", Experiment::Adaptive, 300),
        ("extensions", Experiment::Extensions, 150),
        ("resilience", Experiment::Resilience, 240),
        ("summary", Experiment::Summary, 60),
    ];
}

struct Args {
    name: String,
    experiment: Experiment,
    frames: usize,
    telemetry: bool,
    trace_out: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let name = argv.next().ok_or("missing experiment name")?;
    let (experiment, default_frames) = Experiment::ALL
        .iter()
        .find(|&&(n, ..)| n == name)
        .map(|&(_, e, frames)| (e, frames))
        .ok_or_else(|| format!("unknown experiment {name:?}"))?;
    let (mut telemetry, mut trace_out) = (false, None);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--telemetry" => telemetry = true,
            "--trace-out" => trace_out = Some(argv.next().ok_or("--trace-out expects a value")?),
            _ if arg.starts_with('-') => return Err(format!("unknown flag {arg:?}")),
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    if experiment != Experiment::Resilience {
        if telemetry {
            return Err(format!("--telemetry does not apply to {name}"));
        }
        if trace_out.is_some() {
            return Err(format!("--trace-out does not apply to {name}"));
        }
    }
    Kernels::from_env()?;
    Ok(Args {
        name,
        experiment,
        frames: frames_from_env(default_frames)?,
        telemetry,
        trace_out,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("paper: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let frames = args.frames;
    let result = match args.experiment {
        Experiment::Fig5 => fig5(frames),
        Experiment::Fig6 => fig6(),
        Experiment::Headline => headline(frames),
        Experiment::SweepIntraTh => {
            sweep_intra_th(frames, 0.10).map(|report| println!("{}", report.table()))
        }
        Experiment::SweepPlr => sweep_plr_grid(frames).map(|report| println!("{}", report.table())),
        Experiment::Adaptive => adaptive(frames),
        Experiment::Extensions => extensions(frames),
        Experiment::Resilience => resilience(frames, args.telemetry, args.trace_out.as_deref()),
        Experiment::Summary => {
            summary(frames);
            Ok(())
        }
    };
    if let Err(e) = result {
        eprintln!("{} failed: {e}", args.name);
        std::process::exit(1);
    }
}

/// The Figure-5 options at `frames` per sequence, as `fig5` and
/// `headline` run them.
fn fig5_options(frames: usize) -> Fig5Options {
    Fig5Options {
        frames,
        calibration_frames: frames.min(90),
        ..Fig5Options::default()
    }
}

fn fig5(frames: usize) -> Result<(), String> {
    let opts = fig5_options(frames);
    eprintln!(
        "fig5: {} frames/sequence, PLR {:.0}% (uniform frame discard)",
        opts.frames,
        opts.plr * 100.0
    );
    let report = run_fig5(opts)?;
    for (seq, th) in &report.calibrated_th {
        println!(
            "calibrated Intra_Th for {seq}: {} (size-matched to PGOP-3)",
            fmt_f(*th, 4)
        );
    }
    println!();
    for t in report.tables() {
        println!("{t}");
    }
    Ok(())
}

fn fig6() -> Result<(), String> {
    let opts = Fig6Options::default();
    eprintln!(
        "fig6: {} frames, loss events at {:?}",
        opts.frames, opts.loss_events
    );
    let report = run_fig6(opts)?;
    println!(
        "calibrated Intra_Th: {} (size-matched to AIR-10)\n",
        fmt_f(report.calibrated_th, 4)
    );
    println!("{}", report.psnr_table());
    println!("{}", report.size_table());
    println!("{}", report.recovery_table());
    Ok(())
}

fn headline(frames: usize) -> Result<(), String> {
    eprintln!("headline: deriving energy reductions from a {frames}-frame Figure-5 run");
    let report = run_headline(fig5_options(frames))?;
    println!("{}", report.table());
    Ok(())
}

fn adaptive(frames: usize) -> Result<(), String> {
    let schedule = LossSchedule::calm_burst_calm(frames as u64);
    eprintln!("adaptive: {frames} frames, loss schedule 2% → 25% → 5%");
    let report = run_adaptive(frames, &schedule)?;
    println!("{}", report.table());
    // The trajectories every 10 frames make the adaptation visible in
    // text.
    println!("## trajectories (every 10th frame)");
    println!("frame  th(static)  th(quality)  th(bitrate)  plr-estimate");
    for f in (0..report.frames).step_by(10) {
        println!(
            "{f:>5}  {:>10.3}  {:>11.3}  {:>11.3}  {:>12.3}",
            report.fixed.th_trace[f],
            report.quality_priority.th_trace[f],
            report.bitrate_priority.th_trace[f],
            report.bitrate_priority.plr_trace[f]
        );
    }
    Ok(())
}

fn extensions(frames: usize) -> Result<(), String> {
    let rows = run_fec(frames, 0.05, 120).map_err(|e| format!("fec: {e}"))?;
    println!("{}", fec_table(&rows, frames, 0.05));
    let rows = run_concealment(frames, 0.15).map_err(|e| format!("concealment: {e}"))?;
    println!("{}", concealment_table(&rows, frames, 0.15));
    let rows = run_congestion(frames, 15.0).map_err(|e| format!("congestion: {e}"))?;
    println!("{}", congestion_table(&rows, frames, 15.0));
    let dvs_frames = frames.min(60); // full-search frames are expensive
    let rows = run_dvs(dvs_frames, 5.0).map_err(|e| format!("dvs: {e}"))?;
    println!("{}", dvs_table(&rows, dvs_frames, 5.0));
    Ok(())
}

fn resilience(frames: usize, telemetry: bool, trace_out: Option<&str>) -> Result<(), String> {
    let telemetry = telemetry || trace_out.is_some();
    let tel = if telemetry {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    // With --telemetry on stdout, tables move to stderr so stdout
    // carries only JSON; with --trace-out the JSON goes to a file and
    // the tables keep stdout.
    let json_on_stdout = telemetry && trace_out.is_none();
    let emit = |text: String| {
        if json_on_stdout {
            eprintln!("{text}");
        } else {
            println!("{text}");
        }
    };
    eprintln!("resilience: corruption sweep, {frames} frames per intensity");
    let sweep = run_corruption_sweep(frames, &[0.0, 0.25, 0.5, 0.75, 1.0], &tel)
        .map_err(|e| format!("corruption sweep: {e}"))?;
    emit(sweep.table().to_string());

    eprintln!("resilience: feedback blackout, {frames} frames");
    let report =
        run_feedback_blackout(frames, &tel).map_err(|e| format!("feedback blackout: {e}"))?;
    emit(report.table().to_string());
    let mut trace = String::from("## Intra_Th trajectory (every 10th frame)\n");
    trace.push_str("frame  Intra_Th  degraded\n");
    for f in (0..report.frames).step_by(10) {
        trace.push_str(&format!(
            "{f:>5}  {:>8.3}  {}\n",
            report.th_trace[f],
            if report.degraded_trace[f] { "yes" } else { "" }
        ));
    }
    emit(trace);

    if telemetry {
        let json = tel.report().to_json();
        match trace_out {
            Some(path) => {
                std::fs::write(path, &json).map_err(|e| format!("failed to write {path}: {e}"))?;
                eprintln!("telemetry report written to {path}");
            }
            None => println!("{json}"),
        }
    }
    Ok(())
}

/// One-page digest: every experiment at reduced scale (60 frames per
/// cell by default), its headline numbers beside the paper's claims. A
/// failed experiment leaves its rows out and the digest still prints.
fn summary(frames: usize) {
    eprintln!("summary: {frames} frames per cell (PBPAIR_FRAMES to change)\n");
    let mut digest = Table::new("PBPAIR reproduction digest (reduced scale)");
    digest.set_headers(["claim", "paper", "measured"]);

    // Headline energy reductions (drives a Figure-5 run).
    match run_headline(Fig5Options::quick(frames)) {
        Ok(report) => {
            let row = &report.rows[0];
            digest.add_row([
                "encoding energy saved vs AIR-24".to_string(),
                "34%".to_string(),
                fmt_pct(row.vs_air),
            ]);
            digest.add_row([
                "… vs GOP-3".to_string(),
                "24%".to_string(),
                fmt_pct(row.vs_gop),
            ]);
            digest.add_row([
                "… vs PGOP-3".to_string(),
                "17%".to_string(),
                fmt_pct(row.vs_pgop),
            ]);
            let fig5 = &report.fig5;
            let psnr_gap = |scheme: &str| -> f64 {
                fig5.cells
                    .iter()
                    .filter(|c| c.scheme == scheme)
                    .map(|c| c.avg_psnr)
                    .sum::<f64>()
                    / 3.0
            };
            digest.add_row([
                "PSNR at matched size: PBPAIR − PGOP-3 (dB)".to_string(),
                "≈0".to_string(),
                fmt_f(psnr_gap("PBPAIR") - psnr_gap("PGOP-3"), 2),
            ]);
        }
        Err(e) => eprintln!("headline failed: {e}"),
    }

    // Figure 6: recovery ordering.
    match run_fig6(Fig6Options {
        frames: frames.min(50),
        ..Fig6Options::default()
    }) {
        Ok(report) => {
            let mean = |i: usize| report.mean_recovery(i);
            digest.add_row([
                "mean recovery: PBPAIR ≤ AIR-10 (frames)".to_string(),
                "faster".to_string(),
                format!("{} vs {}", fmt_f(mean(0), 1), fmt_f(mean(3), 1)),
            ]);
            digest.add_row([
                "GOP-8 worst mean recovery (I-frame loss)".to_string(),
                "worst case N frames".to_string(),
                fmt_f(mean(2), 1),
            ]);
            let gop = &report.series[2];
            let spike =
                gop.frame_bytes[9] as f64 / gop.frame_bytes[1..9].iter().sum::<u64>() as f64 * 8.0;
            digest.add_row([
                "GOP I-frame size spike over its P-frames".to_string(),
                "~5–6×".to_string(),
                format!("{}×", fmt_f(spike, 1)),
            ]);
        }
        Err(e) => eprintln!("fig6 failed: {e}"),
    }

    // §3.2 adaptation.
    match run_adaptive(frames, &LossSchedule::calm_burst_calm(frames as u64)) {
        Ok(report) => {
            digest.add_row([
                "quality-priority adaptation bits vs static".to_string(),
                "lower".to_string(),
                format!(
                    "{} vs {} KB",
                    report.quality_priority.total_bytes / 1024,
                    report.fixed.total_bytes / 1024
                ),
            ]);
        }
        Err(e) => eprintln!("adaptive failed: {e}"),
    }

    // §5 extensions.
    match run_fec(frames.min(60), 0.05, 120) {
        Ok(rows) => {
            digest.add_row([
                "frames usable with XOR FEC k=4 (5% pkt loss)".to_string(),
                "—".to_string(),
                format!(
                    "{} vs {} without",
                    rows[1].frames_usable, rows[0].frames_usable
                ),
            ]);
        }
        Err(e) => eprintln!("fec failed: {e}"),
    }
    match run_congestion(frames.min(60), 15.0) {
        Ok(rows) => {
            let gop = rows.iter().find(|r| r.scheme == "GOP-8").unwrap();
            let pb = rows.iter().find(|r| r.scheme == "PBPAIR capped").unwrap();
            digest.add_row([
                "peak link delay: GOP-8 vs capped PBPAIR (ms)".to_string(),
                "GOP congests".to_string(),
                format!(
                    "{} vs {}",
                    fmt_f(gop.max_delay_ms, 0),
                    fmt_f(pb.max_delay_ms, 0)
                ),
            ]);
        }
        Err(e) => eprintln!("congestion failed: {e}"),
    }
    match run_dvs(frames.min(24), 5.0) {
        Ok(rows) => {
            digest.add_row([
                "DVS gain: PBPAIR vs NO".to_string(),
                "amplified".to_string(),
                format!(
                    "{} vs {}",
                    fmt_pct(rows[1].dvs_gain),
                    fmt_pct(rows[0].dvs_gain)
                ),
            ]);
        }
        Err(e) => eprintln!("dvs failed: {e}"),
    }

    println!("{digest}");
    println!("Full-scale numbers and analysis: EXPERIMENTS.md");
}
