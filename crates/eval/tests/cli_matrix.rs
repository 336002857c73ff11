//! End-to-end tests of the command-line binaries: the matrix report is
//! worker-count invariant, and bad arguments to `matrix`, `serve`,
//! `perf`, `paper` or `transcode` exit 2 with a message instead of a
//! panic.

use pbpair_codec::Kernels;
use std::process::{Command, Output};

/// Runs binary `bin` (`"matrix"`, `"serve"`, `"perf"`, `"paper"` or
/// `"transcode"`) with `args` and the environment variables `env`.
fn run_bin_with(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let exe = match bin {
        "matrix" => env!("CARGO_BIN_EXE_matrix"),
        "serve" => env!("CARGO_BIN_EXE_serve"),
        "perf" => env!("CARGO_BIN_EXE_perf"),
        "paper" => env!("CARGO_BIN_EXE_paper"),
        "transcode" => env!("CARGO_BIN_EXE_transcode"),
        _ => unreachable!("no binary {bin}"),
    };
    Command::new(exe)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("binary runs")
}

/// Runs binary `bin` with `args` at the shallowest allowed depth, the
/// override CI pins too.
fn run_bin(bin: &str, args: &[&str]) -> Output {
    run_bin_with(bin, args, &[("PBPAIR_FRAMES", "10")])
}

/// Asserts that `output` is a bad-argument exit: status 2, `message` and
/// the usage line on stderr, no panic.
fn assert_bad_argument(output: &Output, bin: &str, args: &[&str], message: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{bin} {args:?} must fail");
    assert_ne!(
        output.status.code(),
        Some(101),
        "{bin} {args:?} panicked: {stderr}"
    );
    assert_eq!(
        output.status.code(),
        Some(2),
        "{bin} {args:?} is a bad argument: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked: {stderr}"
    );
    assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {bin}")),
        "{bin} {args:?}: {stderr}"
    );
}

fn matrix(args: &[&str]) -> Output {
    run_bin("matrix", args)
}

#[test]
fn trace_smoke_report_is_identical_at_one_and_three_workers() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let reports: Vec<Vec<u8>> = ["1", "3"]
        .iter()
        .map(|workers| {
            let out = dir.join(format!("pbpair_cli_matrix_{pid}_{workers}.json"));
            let output = matrix(&[
                "trace",
                "--smoke",
                "--workers",
                workers,
                "--out",
                out.to_str().unwrap(),
            ]);
            assert!(
                output.status.success(),
                "stderr: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let bytes = std::fs::read(&out).expect("--out file written");
            let _ = std::fs::remove_file(&out);
            bytes
        })
        .collect();
    assert!(!reports[0].is_empty());
    assert!(String::from_utf8_lossy(&reports[0]).starts_with("{\"frames\":10,\"points\":["));
    assert_eq!(
        reports[0], reports[1],
        "trace report depends on worker count"
    );
}

#[test]
fn bad_arguments_fail_with_a_message_not_a_panic() {
    for (bin, args, message) in [
        (
            "matrix",
            &["nope", "--smoke"][..],
            "unknown matrix \"nope\"",
        ),
        (
            "matrix",
            &["trace", "--workers", "abc"][..],
            "--workers expects a number",
        ),
        (
            "matrix",
            &["trace", "--smoke", "--workers", "0"][..],
            "--workers expects a number in 1..=1024",
        ),
        (
            "matrix",
            &["trace", "--smoke", "--workers", "1025"][..],
            "--workers expects a number in 1..=1024",
        ),
        (
            "matrix",
            &["trace", "--smoke", "--out"][..],
            "--out expects a value",
        ),
        (
            "matrix",
            &["trace", "--smoke", "--telemetry"][..],
            "--telemetry does not apply to trace",
        ),
        (
            "serve",
            &["--smoke", "--workers", "abc"][..],
            "--workers expects a number",
        ),
        (
            "serve",
            &["--smoke", "--workers", "0"][..],
            "--workers expects a number in 1..=1024",
        ),
        (
            "serve",
            &["--smoke", "--workers", "1025"][..],
            "--workers expects a number in 1..=1024",
        ),
        (
            "serve",
            &["--expose", "notaport"][..],
            "--expose expects a port number",
        ),
        (
            "serve",
            &["--smoke", "--expose-hold", "abc"][..],
            "--expose-hold expects seconds",
        ),
        ("serve", &["--smok"][..], "unknown flag \"--smok\""),
        (
            "serve",
            &["--smoke", "--trace-out", "never-written.json"][..],
            "need --trace",
        ),
        (
            "serve",
            &["--smoke", "--trace-chrome", "never-written.json"][..],
            "need --trace",
        ),
        (
            "serve",
            &["--smoke", "--trace", "--trace-out"][..],
            "--trace-out expects a value",
        ),
        (
            "serve",
            &["--smoke", "--expose-hold", "5"][..],
            "--expose-hold needs --expose",
        ),
        ("serve", &["--telemetry"][..], "apply only to the smoke run"),
        ("perf", &["--out"][..], "--out expects a value"),
        (
            "perf",
            &["--smoke", "--bogus"][..],
            "unknown flag \"--bogus\"",
        ),
        // The retired modes: `perf` is the kernel microbench alone.
        (
            "perf",
            &["--kernels-info"][..],
            "unknown flag \"--kernels-info\"",
        ),
        ("perf", &["--overhead"][..], "unknown flag \"--overhead\""),
        (
            "perf",
            &["--out", "never-written.json", "--kernels"][..],
            "unknown flag \"--kernels\"",
        ),
        ("paper", &[][..], "missing experiment name"),
        ("paper", &["nope"][..], "unknown experiment \"nope\""),
        (
            "paper",
            &["fig5", "--frames", "60"][..],
            "unknown flag \"--frames\"",
        ),
        (
            "paper",
            &["fig5", "--telemetry"][..],
            "--telemetry does not apply to fig5",
        ),
        (
            "paper",
            &["summary", "--trace-out", "never-written.json"][..],
            "--trace-out does not apply to summary",
        ),
        (
            "paper",
            &["fig5", "fig6"][..],
            "unexpected argument \"fig6\"",
        ),
        (
            "paper",
            &["resilience", "--trace-out"][..],
            "--trace-out expects a value",
        ),
        (
            "paper",
            &["resilience", "--telemetry", "--bogus"][..],
            "unknown flag \"--bogus\"",
        ),
    ] {
        let output = run_bin(bin, args);
        assert_bad_argument(&output, bin, args, message);
        assert!(output.stdout.is_empty(), "{bin} {args:?} did work");
        assert!(
            !std::path::Path::new("never-written.json").exists(),
            "{bin} {args:?} wrote its output file"
        );
    }
}

#[test]
fn a_bad_frame_override_fails_before_any_work() {
    // A value that does not parse and one below the 10-frame floor are
    // bad arguments, not a silent fall-back to the full default depth.
    for (bin, args) in [
        ("paper", &["summary"][..]),
        ("matrix", &["trace", "--smoke"][..]),
        ("serve", &[][..]),
    ] {
        for frames in ["abc", "5"] {
            let message = format!("PBPAIR_FRAMES expects a number of at least 10, got {frames:?}");
            let output = run_bin_with(bin, args, &[("PBPAIR_FRAMES", frames)]);
            assert_bad_argument(&output, bin, args, &message);
            assert!(output.stdout.is_empty(), "{bin} {args:?} did work");
        }
    }
}

#[test]
fn a_bad_kernel_tier_fails_before_any_work() {
    // `avx2` named a tier once and `mmx` never did; neither names one now,
    // so each is a bad argument rather than a panic at the first kernel
    // call.
    let tiers: Vec<_> = Kernels::available().iter().map(|t| t.label()).collect();
    for (bin, args) in [
        ("paper", &["sweep_intra_th"][..]),
        ("matrix", &["trace", "--smoke"][..]),
        ("serve", &["--smoke"][..]),
        ("transcode", &["--frames", "10"][..]),
        ("perf", &["--smoke"][..]),
    ] {
        for tier in ["avx2", "mmx"] {
            let message = format!(
                "PBPAIR_KERNELS expects one of {}, got {tier:?}",
                tiers.join(", ")
            );
            let env = [("PBPAIR_FRAMES", "10"), ("PBPAIR_KERNELS", tier)];
            let output = run_bin_with(bin, args, &env);
            assert_bad_argument(&output, bin, args, &message);
            assert!(output.stdout.is_empty(), "{bin} {args:?} did work");
        }
    }
}
