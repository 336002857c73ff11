//! The serve-driven experiment matrices, one binary. Every matrix runs
//! one serve fleet per cell through the same runner
//! ([`pbpair_eval::experiments::fleet`]):
//!
//! * `scenarios` — every committed channel scenario (steady burst
//!   erasure, mobility handoff ramp, feedback-blackout chaos) × content
//!   clip × refresh scheme over an alternating IPAQ/ZAURUS device mix,
//!   with causal tracing on;
//! * `dashboard` — the committed scenarios plus the `burst_kill`
//!   incident with the observability plane on (per-round time-series,
//!   standard SLOs, tracing); `--csv <path>` writes the per-round
//!   time-series CSV a dashboard would plot;
//! * `fec` — {uniform, Markov-burst} channel × {none, XOR, RS, LT} codec
//!   × {fixed, adaptive} control, every protected arm at the same 1.25×
//!   wire-byte budget;
//! * `rde` — the pure-PBPAIR baseline, the inert zero-λ gate and five
//!   (λ1, λ2) points on the committed burst channel, reduced to a Pareto
//!   front over (encode energy, wire bytes, displayed quality);
//! * `trace` — the `(PLR, Intra_Th)` grid, scoring `C^k` calibration
//!   (Brier score plus reliability bins) and per-event blast radii.
//!
//! Usage: `cargo run --release -p pbpair-eval --bin matrix -- \
//!   <scenarios|dashboard|fec|rde|trace> [--smoke] [--workers N] \
//!   [--out <path>] [--telemetry] [--csv <path>]`
//!
//! The deterministic JSON report goes to stdout by default; `--out
//! <path>` redirects it to a file (the human table then stays on
//! stdout unless `--telemetry` claims it, otherwise it moves to stderr
//! so stdout remains machine-parseable). The JSON is byte-identical for
//! any `--workers N` — `ci/validate_scenarios.py
//! [--dashboard|--fec|--rde|--trace]` gates it against the committed
//! bounds. `--smoke` runs the CI depth; `PBPAIR_FRAMES` overrides the
//! frames-per-session depth. A bad `PBPAIR_FRAMES` or `PBPAIR_KERNELS`
//! value is a bad argument.
//!
//! `--telemetry` reports every fleet into one shared registry and
//! prints the full [`pbpair_telemetry::TelemetryReport`] as JSON on
//! stdout (same flag semantics as the serve binary; use `--out` to
//! capture the matrix JSON, which otherwise moves to stderr so stdout
//! carries exactly one JSON stream). The run fails if the registry saw
//! no rounds. `dashboard` and `trace` refuse it: each dashboard cell
//! runs on a registry of its own, and the trace sweep reports none.
//!
//! Bad arguments exit with status 2 and a message; a failed run exits
//! with status 1.

use pbpair_codec::Kernels;
use pbpair_eval::experiments::{
    dashboard, fec, frames_from_env, parse_workers, rde, scenarios, trace,
};
use pbpair_telemetry::Telemetry;
use std::fmt::Write as _;

const USAGE: &str = "usage: matrix <scenarios|dashboard|fec|rde|trace> \
                     [--smoke] [--workers N] [--out PATH] [--telemetry] [--csv PATH]";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Matrix {
    Scenarios,
    Dashboard,
    Fec,
    Rde,
    Trace,
}

impl Matrix {
    const ALL: [(&'static str, Matrix); 5] = [
        ("scenarios", Matrix::Scenarios),
        ("dashboard", Matrix::Dashboard),
        ("fec", Matrix::Fec),
        ("rde", Matrix::Rde),
        ("trace", Matrix::Trace),
    ];

    fn name(self) -> &'static str {
        Matrix::ALL
            .iter()
            .find(|&&(_, m)| m == self)
            .map_or("", |&(name, _)| name)
    }

    /// Frames per session and sessions per cell: the CI depth under
    /// `--smoke`, the full run otherwise, with `PBPAIR_FRAMES` overriding
    /// the frames. (Trace points fix their own session count.)
    fn depth(self, smoke: bool) -> Result<(usize, usize), String> {
        let (smoke_frames, full_frames) = match self {
            Matrix::Scenarios | Matrix::Dashboard => (16, 48),
            Matrix::Fec | Matrix::Rde => (48, 96),
            Matrix::Trace => (12, 24),
        };
        Ok(if smoke {
            (frames_from_env(smoke_frames)?, 2)
        } else {
            (frames_from_env(full_frames)?, 4)
        })
    }
}

struct Args {
    matrix: Matrix,
    /// Frames per session and sessions per cell ([`Matrix::depth`]).
    depth: (usize, usize),
    smoke: bool,
    workers: usize,
    out: Option<String>,
    telemetry: bool,
    csv: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let name = argv.next().ok_or("missing matrix name")?;
    let matrix = Matrix::ALL
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, m)| m)
        .ok_or_else(|| format!("unknown matrix {name:?}"))?;
    let mut args = Args {
        matrix,
        depth: (0, 0),
        smoke: false,
        workers: 2,
        out: None,
        telemetry: false,
        csv: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--telemetry" => args.telemetry = true,
            "--workers" => args.workers = parse_workers(&value()?)?,
            "--out" => args.out = Some(value()?),
            "--csv" => args.csv = Some(value()?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.telemetry && matches!(matrix, Matrix::Dashboard | Matrix::Trace) {
        return Err(format!("--telemetry does not apply to {name}"));
    }
    if args.csv.is_some() && matrix != Matrix::Dashboard {
        return Err("--csv applies only to dashboard".into());
    }
    args.depth = matrix.depth(args.smoke)?;
    Kernels::from_env()?;
    Ok(args)
}

/// Runs the chosen matrix at its depth, and returns its human table and
/// deterministic JSON report.
fn run_matrix(args: &Args, tel: &Telemetry) -> Result<(String, String), String> {
    let (frames, sessions) = args.depth;
    let workers = args.workers;
    eprintln!(
        "{}: {frames} frames/session, {workers} workers",
        args.matrix.name()
    );
    Ok(match args.matrix {
        Matrix::Scenarios => {
            let m = scenarios::run_scenario_matrix(frames, sessions, workers, tel)?;
            (m.table().to_string(), m.deterministic_json())
        }
        Matrix::Dashboard => {
            let r = dashboard::run_dashboard(frames, sessions, workers)?;
            if let Some(path) = &args.csv {
                std::fs::write(path, r.csv())
                    .map_err(|e| format!("failed to write {path}: {e}"))?;
                eprintln!("per-round time-series CSV written to {path}");
            }
            (r.table().to_string(), r.deterministic_json())
        }
        Matrix::Fec => {
            let m = fec::run_fec_matrix(frames, sessions, workers, tel)?;
            (m.table().to_string(), m.deterministic_json())
        }
        Matrix::Rde => {
            let s = rde::run_rde_sweep(frames, sessions, workers, tel)?;
            (s.table().to_string(), s.deterministic_json())
        }
        Matrix::Trace => {
            let (plrs, intra_ths): (&[f64], &[f64]) = if args.smoke {
                (&[0.15], &[0.5, 0.9])
            } else {
                (&[0.05, 0.10, 0.20], &[0.3, 0.6, 0.9])
            };
            let exp = trace::run_trace_sweep(frames, plrs, intra_ths, workers)?;
            let mut text = exp.table().to_string();
            for p in &exp.points {
                let _ = write!(
                    text,
                    "\nreliability bins at PLR {:.2}, Intra_Th {:.2}:\n{}",
                    p.plr,
                    p.intra_th,
                    p.calibration.table()
                );
            }
            let _ = write!(
                text,
                "\noverall Brier (fixed point e9): {}",
                exp.overall_brier_e9()
            );
            (text, exp.deterministic_json())
        }
    })
}

fn run(args: &Args) -> Result<(), String> {
    let tel = if args.telemetry {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let (table, json) = run_matrix(args, &tel)?;
    // Stdout carries the table only when no JSON stream claims it.
    if args.out.is_some() && !args.telemetry {
        println!("{table}");
    } else {
        eprintln!("{table}");
    }
    match &args.out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("failed to write {path}: {e}"))?;
            eprintln!(
                "deterministic {} report written to {path}",
                args.matrix.name()
            );
        }
        None if args.telemetry => eprintln!("{json}"),
        None => println!("{json}"),
    }
    if args.telemetry {
        let report = tel.report();
        println!("{}", report.to_json());
        if report.counter("serve.rounds") == 0 {
            return Err("telemetry registry saw no rounds".into());
        }
    }
    Ok(())
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("matrix: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("matrix {} failed: {e}", args.matrix.name());
        std::process::exit(1);
    }
}
