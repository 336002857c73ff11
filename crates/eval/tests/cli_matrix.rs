//! End-to-end tests of the `matrix` command-line binary: the report is
//! worker-count invariant, and bad arguments fail with a message
//! instead of a panic.

use std::process::{Command, Output};

fn matrix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_matrix"))
        .args(args)
        // Shallowest allowed depth; the override is what CI pins too.
        .env("PBPAIR_FRAMES", "10")
        .output()
        .expect("binary runs")
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
    for (args, message) in [
        (&["nope", "--smoke"][..], "unknown matrix \"nope\""),
        (
            &["trace", "--workers", "abc"][..],
            "--workers expects a number",
        ),
        (&["trace", "--smoke", "--out"][..], "--out expects a value"),
        (
            &["trace", "--smoke", "--telemetry"][..],
            "--telemetry does not apply to trace",
        ),
    ] {
        let output = matrix(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{args:?} must fail");
        assert_ne!(
            output.status.code(),
            Some(101),
            "{args:?} panicked: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: matrix"), "{args:?}: {stderr}");
    }
}
