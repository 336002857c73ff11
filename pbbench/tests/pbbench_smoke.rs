//! Drives the `pbbench` binary end to end at smoke depth: every workload
//! in its own child process, untraced and traced.

use pbbench::json::{self, Value};
use pbbench::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn named_metrics(bench: &Value, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_string(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn pbbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pbbench"))
        .args(args)
        .output()
        .expect("pbbench runs")
}

fn last_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("pbbench prints a result line");
    json::parse(line).unwrap_or_else(|e| panic!("result line is JSON ({e}): {line}"))
}

/// Checks that the result line carries every listed metric, with its
/// unit, for every workload, and that all output checks passed.
fn assert_metrics(out: &Output, metrics: &[(String, String)]) {
    assert!(
        out.status.success(),
        "pbbench failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let line = last_line(out);
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let printed = line.get("metrics").expect("metrics");
    let table = String::from_utf8_lossy(&out.stdout);
    for w in WORKLOADS {
        for (name, unit) in metrics {
            let m = printed
                .get(&format!("{w}/{name}"))
                .unwrap_or_else(|| panic!("{w}: {name} missing from the result line"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            assert!(m
                .get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite));
            assert!(
                table.lines().any(|l| {
                    let mut cols = l.split_whitespace();
                    cols.next() == Some(name) && cols.next() == Some(unit)
                }),
                "{name} is not printed with unit {unit}"
            );
        }
    }
}

fn trace_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let bench = benchmark_json();
    let dir = trace_dir("untraced");
    let out = pbbench(&[
        "--smoke",
        "--seconds",
        "0",
        "--seed",
        "11",
        "--trace-dir",
        dir.to_str().unwrap(),
    ]);
    assert_metrics(&out, &named_metrics(&bench, "end_to_end"));
}

#[test]
fn traced_run_prints_every_layer_metric_and_writes_spans() {
    let bench = benchmark_json();
    let dir = trace_dir("traced");
    let out = pbbench(&[
        "--smoke",
        "--trace",
        "--seconds",
        "0",
        "--seed",
        "11",
        "--trace-dir",
        dir.to_str().unwrap(),
    ]);
    assert_metrics(&out, &named_metrics(&bench, "per_layer"));
    for w in WORKLOADS {
        let path = dir.join(format!("trace-{w}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let trace = json::parse(&text).expect("span JSON parses");
        let spans = trace.get("spans").and_then(Value::as_arr).unwrap();
        assert!(!spans.is_empty(), "{w}: no spans");
        for span in spans {
            for key in ["name", "start_ns", "dur_ns", "parent", "stream", "frame"] {
                assert!(span.get(key).is_some(), "{w}: span without {key}");
            }
        }
        if w == "paper-cell" {
            let coverage = trace.get("coverage").and_then(Value::as_f64).unwrap();
            assert!(coverage >= 0.95, "paper-cell layer coverage {coverage}");
        }
    }
}
