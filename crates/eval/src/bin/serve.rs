//! Throughput evaluation of the `pbpair-serve` streaming service: a
//! session-count scaling sweep (1 → 64 concurrent sessions) and a
//! worker-count sweep showing that the fork–join pool turns extra cores
//! into aggregate frames/second on the same session load.
//!
//! Usage: `cargo run --release -p pbpair-eval --bin serve \
//!   [-- --smoke] [--telemetry] [--workers N] [--trace] \
//!   [--trace-out <path>] [--trace-chrome <path>] \
//!   [--expose <port>] [--expose-hold <secs>]`
//!
//! `--smoke` runs the minimal CI configuration (4 sessions × 16 frames)
//! and exits nonzero unless the fleet reports nonzero throughput.
//! `--telemetry` instruments the smoke run and prints the full
//! [`pbpair_telemetry::TelemetryReport`] as JSON on stdout (the human
//! summary moves to stderr so stdout stays machine-parseable); its
//! `"deterministic"` section is byte-identical for any `--workers N`.
//! `--trace` attaches the causal tracer to every session of the smoke
//! fleet and emits the deterministic [`pbpair_serve::FleetTrace`]
//! report (blast radii, `C^k` calibration, incident dumps) — to stdout
//! by default, or to a file with `--trace-out <path>`. `--trace-chrome
//! <path>` additionally writes the flight-recorder timeline as a
//! `chrome://tracing` / Perfetto JSON file.
//! `--expose <port>` switches the smoke run onto the observability
//! plane: per-round time-series, the standard SLO set, and a live
//! Prometheus scrape endpoint on `127.0.0.1:<port>` serving `/metrics`
//! (text exposition 0.0.4), `/health`, and `/timeseries` (port `0`
//! picks an ephemeral port; the bound address is announced on stderr).
//! `--expose-hold <secs>` keeps the endpoint serving the finished run's
//! registry for that many seconds after the run — CI's scrape validator
//! polls it during the hold, then kills the process.
//! `PBPAIR_FRAMES` overrides the frames-per-session depth of the sweeps.
//!
//! `--trace`, `--expose` and `--smoke` each select the smoke run; the
//! other flags apply only to it, and `--trace-out`/`--trace-chrome` only
//! with `--trace`, `--expose-hold` only with `--expose`. Bad arguments
//! (an unknown or misplaced flag, a missing or malformed value, a bad
//! `PBPAIR_FRAMES` or `PBPAIR_KERNELS` value) exit with status 2 and a
//! message; a failed run exits with status 1.

use pbpair_codec::Kernels;
use pbpair_eval::experiments::{frames_from_env, parse_workers};
use pbpair_eval::report::{fmt_f, Table};
use pbpair_serve::admission::DEGRADE_FLOOR_TH;
use pbpair_serve::{run, run_with, ServeConfig};
use pbpair_telemetry::Telemetry;

const USAGE: &str = "usage: serve [--smoke] [--telemetry] [--workers N] [--trace] \
                     [--trace-out PATH] [--trace-chrome PATH] [--expose PORT] [--expose-hold SECS]";

fn base_config(sessions: usize, frames: usize, workers: usize) -> ServeConfig {
    ServeConfig {
        sessions,
        frames,
        workers,
        seed: 2005,
        ..ServeConfig::default()
    }
}

/// What the smoke run should trace and where the outputs go.
#[derive(Default)]
struct TraceArgs {
    enabled: bool,
    out: Option<String>,
    chrome: Option<String>,
}

/// The parsed command line; the smoke run's flags stay unset without one.
#[derive(Default)]
struct Args {
    /// Frames per session of the sweeps (`PBPAIR_FRAMES`, default 24);
    /// unset for the smoke run.
    sweep_frames: usize,
    smoke: bool,
    telemetry: bool,
    workers: Option<usize>,
    trace: TraceArgs,
    expose: Option<u16>,
    hold_secs: Option<u64>,
}

impl Args {
    /// Whether the flags select the smoke run instead of the sweeps.
    fn smoke_run(&self) -> bool {
        self.smoke || self.trace.enabled || self.expose.is_some()
    }
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--telemetry" => args.telemetry = true,
            "--trace" => args.trace.enabled = true,
            "--workers" => args.workers = Some(parse_workers(&value()?)?),
            "--trace-out" => args.trace.out = Some(value()?),
            "--trace-chrome" => args.trace.chrome = Some(value()?),
            "--expose" => {
                let v = value()?;
                let port = v
                    .parse()
                    .map_err(|_| format!("--expose expects a port number, got {v:?}"))?;
                args.expose = Some(port);
            }
            "--expose-hold" => {
                let v = value()?;
                let secs = v
                    .parse()
                    .map_err(|_| format!("--expose-hold expects seconds, got {v:?}"))?;
                args.hold_secs = Some(secs);
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !args.trace.enabled && (args.trace.out.is_some() || args.trace.chrome.is_some()) {
        return Err("--trace-out and --trace-chrome need --trace".into());
    }
    if args.expose.is_none() && args.hold_secs.is_some() {
        return Err("--expose-hold needs --expose".into());
    }
    if !args.smoke_run() {
        if args.telemetry || args.workers.is_some() {
            return Err("--telemetry and --workers apply only to the smoke run".into());
        }
        args.sweep_frames = frames_from_env(24)?;
    }
    Kernels::from_env()?;
    Ok(args)
}

fn smoke(args: &Args) -> Result<(), String> {
    let trace_args = &args.trace;
    let cfg = ServeConfig {
        // A scrape port switches the observability plane on.
        expose_port: args.expose,
        ..base_config(4, 16, args.workers.unwrap_or(2))
    };
    let tel = if args.telemetry || args.expose.is_some() {
        // The scrape endpoint needs a live registry.
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let fleet = run_with(&cfg, &tel, trace_args.enabled)?;
    let report = fleet.report;
    if let Some(trace) = &fleet.trace {
        let json = trace.deterministic_json();
        match &trace_args.out {
            Some(path) => {
                std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
                eprintln!("trace report written to {path}");
            }
            None => println!("{json}"),
        }
        if let Some(path) = &trace_args.chrome {
            std::fs::write(path, trace.chrome_trace_json())
                .map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("chrome://tracing timeline written to {path}");
        }
    }
    let summary = format!(
        "serve smoke: {} frames, {:.1} fps, mean PSNR {:.2} dB, \
         p50 {:.2} ms, p99 {:.2} ms, {} shed",
        report.total_frames,
        report.timing.throughput_fps,
        report.mean_psnr_db,
        report.timing.p50_frame_ms,
        report.timing.p99_frame_ms,
        report.shed_count
    );
    // Keep stdout pure JSON for downstream tooling whenever a JSON
    // stream (telemetry or trace) is being emitted there.
    let stdout_is_json = args.telemetry || (trace_args.enabled && trace_args.out.is_none());
    if stdout_is_json {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    if args.telemetry {
        println!("{}", tel.report().to_json());
    }
    if report.total_frames != 64 {
        return Err(format!("expected 64 frames, got {}", report.total_frames));
    }
    if report.timing.throughput_fps <= 0.0 {
        return Err("throughput must be nonzero".into());
    }
    if let Some(obs) = &fleet.observability {
        if let Some(srv) = &obs.expose {
            // Announced on stderr so scrapers can find an ephemeral port.
            eprintln!("expose: serving /metrics on http://{}/metrics", srv.addr());
            if let Some(hold_secs) = args.hold_secs.filter(|&secs| secs > 0) {
                eprintln!("expose: holding the endpoint for {hold_secs}s");
                std::thread::sleep(std::time::Duration::from_secs(hold_secs));
            }
        }
    }
    Ok(())
}

fn session_sweep(frames: usize, workers: usize) {
    let mut table = Table::new(format!(
        "Session scaling, {workers} workers, {frames} frames/session"
    ));
    table.set_headers([
        "sessions", "fps", "p50 ms", "p99 ms", "PSNR dB", "J/frame", "migr", "shed",
    ]);
    for sessions in [1usize, 2, 4, 8, 16, 32, 64] {
        match run(&base_config(sessions, frames, workers)) {
            Ok(r) => {
                table.add_row([
                    sessions.to_string(),
                    fmt_f(r.timing.throughput_fps, 1),
                    fmt_f(r.timing.p50_frame_ms, 2),
                    fmt_f(r.timing.p99_frame_ms, 2),
                    fmt_f(r.mean_psnr_db, 2),
                    fmt_f(r.total_encode_joules / r.total_frames as f64, 4),
                    r.timing.migrations.to_string(),
                    r.shed_count.to_string(),
                ]);
            }
            Err(e) => {
                eprintln!("serve failed at {sessions} sessions: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{table}");
}

fn worker_sweep(sessions: usize, frames: usize) {
    let mut table = Table::new(format!(
        "Worker scaling, {sessions} sessions, {frames} frames/session"
    ));
    table.set_headers(["workers", "fps", "speedup", "p50 ms", "p99 ms", "migr"]);
    let mut base_fps = 0.0;
    let mut fps_at = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        match run(&base_config(sessions, frames, workers)) {
            Ok(r) => {
                let fps = r.timing.throughput_fps;
                if workers == 1 {
                    base_fps = fps;
                }
                fps_at.push((workers, fps));
                table.add_row([
                    workers.to_string(),
                    fmt_f(fps, 1),
                    format!("{:.2}x", if base_fps > 0.0 { fps / base_fps } else { 0.0 }),
                    fmt_f(r.timing.p50_frame_ms, 2),
                    fmt_f(r.timing.p99_frame_ms, 2),
                    r.timing.migrations.to_string(),
                ]);
            }
            Err(e) => {
                eprintln!("serve failed at {workers} workers: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{table}");

    let one = fps_at.iter().find(|&&(w, _)| w == 1).map(|&(_, f)| f);
    let best_multi = fps_at
        .iter()
        .filter(|&&(w, _)| w >= 4)
        .map(|&(_, f)| f)
        .fold(0.0f64, f64::max);
    match one {
        Some(one_fps) if best_multi > one_fps => {
            println!("scaling check: {best_multi:.1} fps at >=4 workers vs {one_fps:.1} fps at 1 worker — pool scales\n");
        }
        Some(one_fps) => {
            eprintln!(
                "scaling check FAILED: best multi-worker fps {best_multi:.1} \
                 does not beat single worker {one_fps:.1}"
            );
            std::process::exit(1);
        }
        None => unreachable!("worker sweep always includes 1"),
    }
}

fn overload_demo(frames: usize) {
    // A deliberately starved capacity so admission control is visible:
    // the fleet degrades (cheap high-Intra_Th frames), rate-drops, and
    // sheds its costliest sessions instead of falling behind forever.
    let mut cfg = base_config(12, frames, 4);
    cfg.admission.capacity_j_per_round = 1e-4;
    cfg.admission.degrade_lag = 1.0;
    cfg.admission.rate_drop_lag = 2.0;
    cfg.admission.shed_lag = 4.0;
    match run(&cfg) {
        Ok(r) => {
            let dropped: u64 = r.sessions.iter().map(|s| s.frames_rate_dropped).sum();
            println!(
                "Overload demo (capacity {} J/round): {} of {} sessions shed, \
                 {} degraded rounds, {} frames rate-dropped, final Intra_Th floor in \
                 force: {}",
                cfg.admission.capacity_j_per_round,
                r.shed_count,
                cfg.sessions,
                r.degraded_rounds,
                dropped,
                r.sessions
                    .iter()
                    .any(|s| !s.shed && s.final_intra_th >= DEGRADE_FLOOR_TH)
            );
        }
        Err(e) => {
            eprintln!("overload demo failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("serve: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.smoke_run() {
        if let Err(e) = smoke(&args) {
            eprintln!("serve smoke failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let frames = args.sweep_frames;
    // At least 4 workers even on small machines: pacing waits overlap
    // across workers regardless of core count.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().clamp(4, 8))
        .unwrap_or(4);
    eprintln!("serve: sweeps at {frames} frames/session, {workers} workers for session sweep");
    session_sweep(frames, workers);
    worker_sweep(16, frames);
    overload_demo(frames);
}
