//! `--compare A.json B.json`: two sets of runs side by side.
//!
//! Each file holds one or more runs (`--out` appends one line per
//! invocation). For every metric there is one row per workload with both
//! sides' median and interquartile range *across their runs*; a side with
//! a single run shows the spread of that run's repetitions instead.
//! End-to-end metrics get a verdict under the bounds in
//! `BENCHMARK.json`: a metric whose spread (IQR over median, on either
//! side) is wider than its bound is *unresolved*; otherwise it
//! *regressed* when B's median is worse than A's by more than the bound.
//! A metric with bound 0 (the deterministic ones) is compared run by run
//! between runs of the same seed, and regressed when any such pair got
//! worse at all. Metrics without a bound there are shown without a
//! verdict.

use crate::json;
use crate::report::{fmt_num, MetricDef, WorkloadResult, END_TO_END};
use crate::stats::summarize;
use std::fmt::Write as _;

/// The `end_to_end` bounds of a `BENCHMARK.json`, `(name, bound)`.
///
/// # Errors
///
/// Returns a message when the file does not parse or lacks the list.
pub fn load_bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let v = json::parse(benchmark_json)?;
    v.get("end_to_end")
        .and_then(json::Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(json::Value::as_str);
            let bound = m.get("bound").and_then(json::Value::as_f64);
            match (name, bound) {
                (Some(name), Some(bound)) => Ok((name.to_string(), bound)),
                _ => Err("BENCHMARK.json: end_to_end entry without name or bound".to_string()),
            }
        })
        .collect()
}

/// The runs of workload `w` in `set`.
fn runs<'a>(set: &'a [WorkloadResult], w: &str) -> Vec<&'a WorkloadResult> {
    set.iter().filter(|r| r.workload == w).collect()
}

/// One side's median and relative spread of a metric.
fn side(runs: &[&WorkloadResult], name: &str) -> Option<(f64, f64)> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.get(name).map(|m| m.reps.median))
        .collect();
    match values.len() {
        0 => None,
        1 => {
            let m = runs.iter().find_map(|r| r.get(name))?;
            Some((m.reps.median, m.reps.rel_iqr()))
        }
        _ => {
            let sm = summarize(&values);
            Some((sm.median, sm.rel_iqr()))
        }
    }
}

/// Relative change from `a` to `b` (0 when both are 0).
fn change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY * b.signum()
        }
    } else {
        (b - a) / a.abs()
    }
}

/// How much worse B is than A for every pair of runs with the same
/// seed, as a share of A (negative when better).
fn paired_worse_by(a: &[&WorkloadResult], b: &[&WorkloadResult], d: &MetricDef) -> Vec<f64> {
    let mut out = Vec::new();
    for ra in a {
        for rb in b.iter().filter(|rb| rb.seed == ra.seed) {
            if let (Some(ma), Some(mb)) = (ra.get(d.name), rb.get(d.name)) {
                let c = change(ma.reps.median, mb.reps.median);
                out.push(if d.higher_is_better { -c } else { c });
            }
        }
    }
    out
}

/// The verdict on one metric of one workload under `bound`, and
/// whether it is a regression. `worse_by` and `spread` compare the two
/// sides' medians; `paired` holds the same-seed comparisons that decide
/// a metric with bound 0.
fn verdict(
    bound: f64,
    worse_by: f64,
    spread: f64,
    identical: bool,
    paired: &[f64],
) -> (&'static str, bool) {
    if bound == 0.0 && !paired.is_empty() {
        if paired.iter().any(|&p| p > 0.0) {
            ("REGRESSED (paired by seed)", true)
        } else if paired.iter().all(|&p| p == 0.0) {
            ("identical (paired by seed)", false)
        } else {
            ("ok (paired by seed)", false)
        }
    } else if spread > bound && worse_by > 0.0 {
        ("unresolved", false)
    } else if worse_by > bound {
        ("REGRESSED", true)
    } else if identical {
        ("identical", false)
    } else if spread > bound {
        ("unresolved", false)
    } else {
        ("ok", false)
    }
}

/// Renders the comparison and reports whether any metric regressed.
pub fn compare(
    a: &[WorkloadResult],
    b: &[WorkloadResult],
    bounds: &[(String, f64)],
) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let mut workloads: Vec<&str> = Vec::new();
    for r in a {
        if !workloads.contains(&r.workload.as_str()) && b.iter().any(|x| x.workload == r.workload) {
            workloads.push(&r.workload);
        }
    }
    let _ = writeln!(out, "A = {} runs, B = {} runs", a.len(), b.len());
    for d in END_TO_END {
        let bound = bounds.iter().find(|(n, _)| n == d.name).map(|(_, b)| *b);
        let _ = writeln!(
            out,
            "{} ({}, {} is better, {})",
            d.name,
            d.unit,
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            bound.map_or("no bound".to_string(), |b| format!(
                "bound {:.0}%",
                b * 100.0
            ))
        );
        let _ = writeln!(
            out,
            "  {:<18} {:>12} {:>8} {:>12} {:>8} {:>8}  verdict",
            "workload", "A median", "A IQR", "B median", "B IQR", "change"
        );
        for w in &workloads {
            let (ra, rb) = (runs(a, w), runs(b, w));
            let (Some((ma, sa)), Some((mb, sb))) = (side(&ra, d.name), side(&rb, d.name)) else {
                continue;
            };
            let change = change(ma, mb);
            let worse_by = if d.higher_is_better { -change } else { change };
            let spread = sa.max(sb);
            let paired = paired_worse_by(&ra, &rb, &d);
            let verdict = match bound {
                Some(bound) => {
                    let (text, worse) = verdict(bound, worse_by, spread, ma == mb, &paired);
                    regressed |= worse;
                    text
                }
                None => "-",
            };
            let _ = writeln!(
                out,
                "  {:<18} {:>12} {:>7.2}% {:>12} {:>7.2}% {:>+7.2}%  {}",
                w,
                fmt_num(ma),
                sa * 100.0,
                fmt_num(mb),
                sb * 100.0,
                change * 100.0,
                verdict
            );
        }
    }
    let mut layer_names: Vec<&str> = Vec::new();
    for r in a {
        for (name, _, _) in &r.layers {
            if !layer_names.contains(&name.as_str()) {
                layer_names.push(name);
            }
        }
    }
    if !layer_names.is_empty() {
        let _ = writeln!(out, "per-layer metrics (no bounds), median over runs");
    }
    let layer_median = |set: &[&WorkloadResult], name: &str| {
        let v: Vec<f64> = set.iter().filter_map(|r| r.layer_value(name)).collect();
        (!v.is_empty()).then(|| summarize(&v).median)
    };
    for name in layer_names {
        let _ = writeln!(out, "{name}");
        for w in &workloads {
            if let (Some(va), Some(vb)) = (
                layer_median(&runs(a, w), name),
                layer_median(&runs(b, w), name),
            ) {
                let _ = writeln!(out, "  {:<18} {:>12} {:>12}", w, fmt_num(va), fmt_num(vb));
            }
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(fps: f64) -> WorkloadResult {
        let mut r = WorkloadResult::new("paper-cell", 1, false);
        r.metric("frames_per_s", &[fps * 0.99, fps, fps * 1.01]);
        r.metric("failed_frac", &[0.0]);
        r
    }

    fn psnr_run(seed: u64, psnr: f64) -> WorkloadResult {
        let mut r = WorkloadResult::new("paper-cell", seed, false);
        r.metric("psnr_db", &[psnr]);
        r
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let bounds = load_bounds(
            r#"{"end_to_end":[{"name":"frames_per_s","unit":"frames/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let base: Vec<_> = [100.0, 101.0, 99.0, 100.0, 100.5].map(run).into();
        let (text, regressed) = compare(&base, &base, &bounds);
        assert!(!regressed);
        assert!(text.contains("identical"), "{text}");
        let slow: Vec<_> = [80.0, 81.0, 79.0, 80.0, 80.5].map(run).into();
        let (text, regressed) = compare(&base, &slow, &bounds);
        assert!(regressed, "{text}");
        let noisy: Vec<_> = [60.0, 140.0, 95.0, 80.0, 120.0].map(run).into();
        let (text, regressed) = compare(&base, &noisy, &bounds);
        assert!(!regressed);
        assert!(text.contains("unresolved"), "{text}");
        // A single run falls back to the spread of its repetitions.
        let (text, regressed) = compare(&[run(100.0)], &[run(97.0)], &bounds);
        assert!(!regressed);
        assert!(text.contains(" ok"), "{text}");
    }

    #[test]
    fn bound_zero_metrics_compare_runs_of_the_same_seed() {
        let bounds = load_bounds(
            r#"{"end_to_end":[{"name":"psnr_db","unit":"dB","better":"higher","bound":0}]}"#,
        )
        .unwrap();
        let a = [psnr_run(1, 30.0), psnr_run(2, 36.0)];
        // The same values in another order: identical seed by seed.
        let (text, regressed) = compare(&a, &[psnr_run(2, 36.0), psnr_run(1, 30.0)], &bounds);
        assert!(!regressed);
        assert!(text.contains("identical (paired by seed)"), "{text}");
        // One seed a hair worse regresses, although the medians match.
        let b = [psnr_run(1, 29.99), psnr_run(2, 36.01)];
        let (text, regressed) = compare(&a, &b, &bounds);
        assert!(regressed, "{text}");
    }
}
