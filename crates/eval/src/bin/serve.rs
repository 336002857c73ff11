//! One serving run of the `pbpair-serve` streaming service: a fixed
//! fleet of 4 sessions × 16 frames that exits nonzero unless it encodes
//! all 64 frames at nonzero throughput.
//!
//! Usage: `cargo run --release -p pbpair-eval --bin serve -- \
//!   [--telemetry] [--workers N] [--trace] \
//!   [--trace-out <path>] [--trace-chrome <path>] \
//!   [--expose <port>] [--expose-hold <secs>]`
//!
//! `--workers N` runs the fleet on `N` workers (default 2).
//! `--telemetry` instruments the run and prints the full
//! [`pbpair_telemetry::TelemetryReport`] as JSON on stdout (the human
//! summary moves to stderr so stdout stays machine-parseable); its
//! `"deterministic"` section is byte-identical for any `--workers N`.
//! `--trace` attaches the causal tracer to every session of the fleet
//! and emits the deterministic [`pbpair_serve::FleetTrace`]
//! report (blast radii, `C^k` calibration, incident dumps) — to stdout
//! by default, or to a file with `--trace-out <path>`. `--trace-chrome
//! <path>` additionally writes the flight-recorder timeline as a
//! `chrome://tracing` / Perfetto JSON file.
//! `--expose <port>` switches the run onto the observability
//! plane: per-round time-series, the standard SLO set, and a live
//! Prometheus scrape endpoint on `127.0.0.1:<port>` serving `/metrics`
//! (text exposition 0.0.4), `/health`, and `/timeseries` (port `0`
//! picks an ephemeral port; the bound address is announced on stderr).
//! `--expose-hold <secs>` keeps the endpoint serving the finished run's
//! registry for that many seconds after the run — CI's scrape validator
//! polls it during the hold, then kills the process.
//!
//! `--trace-out`/`--trace-chrome` apply only with `--trace`, and
//! `--expose-hold` only with `--expose`. Bad arguments (an unknown or
//! misplaced flag, a missing or malformed value, a bad `PBPAIR_KERNELS`
//! value) exit with status 2 and a message; a failed run exits with
//! status 1.

use pbpair_codec::Kernels;
use pbpair_eval::experiments::parse_workers;
use pbpair_serve::{run_with, ServeConfig};
use pbpair_telemetry::Telemetry;

const USAGE: &str = "usage: serve [--telemetry] [--workers N] [--trace] \
                     [--trace-out PATH] [--trace-chrome PATH] [--expose PORT] [--expose-hold SECS]";

/// What the run should trace and where the outputs go.
#[derive(Default)]
struct TraceArgs {
    enabled: bool,
    out: Option<String>,
    chrome: Option<String>,
}

/// The parsed command line.
#[derive(Default)]
struct Args {
    telemetry: bool,
    workers: Option<usize>,
    trace: TraceArgs,
    expose: Option<u16>,
    hold_secs: Option<u64>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
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
    Kernels::from_env()?;
    Ok(args)
}

fn serve(args: &Args) -> Result<(), String> {
    let trace_args = &args.trace;
    let cfg = ServeConfig {
        sessions: 4,
        frames: 16,
        workers: args.workers.unwrap_or(2),
        seed: 2005,
        // A scrape port switches the observability plane on.
        expose_port: args.expose,
        ..ServeConfig::default()
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
        "serve: {} frames, {:.1} fps, mean PSNR {:.2} dB, \
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

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("serve: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = serve(&args) {
        eprintln!("serve failed: {e}");
        std::process::exit(1);
    }
}
