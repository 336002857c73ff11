//! Regenerates the fault-injection resilience experiments: the
//! corruption-intensity sweep (resilient decode of damaged payloads) and
//! the feedback-blackout scenario (the degradation controller backing
//! `Intra_Th` off while the return channel is dark, then recovering).
//!
//! Usage: `cargo run --release -p pbpair-eval --bin resilience \
//!   [-- --telemetry] [--trace-out <path>]`
//!
//! With `--telemetry` both experiments run instrumented and the merged
//! [`pbpair_telemetry::TelemetryReport`] is printed as JSON on stdout;
//! the human-readable tables move to stderr so stdout stays
//! machine-parseable. `--trace-out <path>` (implies `--telemetry`)
//! writes that JSON to a file instead, leaving the tables on stdout.
//!
//! Bad arguments (an unknown flag, a missing value) exit with status 2
//! and a message; a failed run exits with status 1.

use pbpair_eval::experiments::frames_from_env;
use pbpair_eval::experiments::resilience::{
    run_corruption_sweep_instrumented, run_feedback_blackout_instrumented,
};
use pbpair_telemetry::Telemetry;

const USAGE: &str = "usage: resilience [--telemetry] [--trace-out PATH]";

/// Parses the flags into `(telemetry, trace_out)`.
fn parse(mut argv: impl Iterator<Item = String>) -> Result<(bool, Option<String>), String> {
    let (mut telemetry, mut trace_out) = (false, None);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--telemetry" => telemetry = true,
            "--trace-out" => trace_out = Some(argv.next().ok_or("--trace-out expects a value")?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((telemetry, trace_out))
}

fn main() {
    let (telemetry, trace_out) = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("resilience: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let telemetry = telemetry || trace_out.is_some();
    let tel = if telemetry {
        Telemetry::with_config(1, true)
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
    let frames = frames_from_env(240);

    eprintln!("resilience: corruption sweep, {frames} frames per intensity");
    match run_corruption_sweep_instrumented(frames, &[0.0, 0.25, 0.5, 0.75, 1.0], &tel) {
        Ok(sweep) => emit(sweep.table().to_string()),
        Err(e) => {
            eprintln!("corruption sweep failed: {e}");
            std::process::exit(1);
        }
    }

    eprintln!("resilience: feedback blackout, {frames} frames");
    match run_feedback_blackout_instrumented(frames, &tel) {
        Ok(report) => {
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
        }
        Err(e) => {
            eprintln!("feedback blackout failed: {e}");
            std::process::exit(1);
        }
    }

    if telemetry {
        let json = tel.report().to_json();
        match &trace_out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("telemetry report written to {path}");
            }
            None => println!("{json}"),
        }
    }
}
