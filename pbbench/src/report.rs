//! The result of one workload run: end-to-end metrics summarized over
//! repetitions, per-layer metrics from the traced run, output checks and
//! failure accounting. A workload's child process prints it as one JSON
//! line; the parent parses it, prints the tables and the final result
//! line, and `--compare` reads it back from `--out` files.

use crate::json::{self, n, obj, s, Value};
use crate::stats::{summarize, Summary};
use std::fmt::Write as _;

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Whether the metric is part of the benchmark's result line and
    /// `BENCHMARK.json`. They carry only metrics that are never 0 and
    /// that repeat from run to run within a 10 % bound. `failed_frac` is
    /// 0 on a healthy run, and the frame rate and latencies swing with
    /// the host by more than 10 % between runs (README, "Noise"), so
    /// these are printed in the tables only.
    pub in_result_line: bool,
}

const fn def(name: &'static str, unit: &'static str, higher: bool, line: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        in_result_line: line,
    }
}

/// Every end-to-end metric, in print order.
pub const END_TO_END: [MetricDef; 9] = [
    def("frames_per_s", "frames/s", true, false),
    def("frame_ms_p50", "ms", false, false),
    def("frame_ms_p99", "ms", false, false),
    def("mj_per_frame", "mJ", false, true),
    def("psnr_db", "dB", true, true),
    def("bytes_per_frame", "bytes", false, true),
    def("failed_frac", "ratio", false, false),
    def("setup_s", "s", false, true),
    def("peak_rss_mb", "MiB", false, true),
];

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// Metric name: the layer's crate and module, then the quantity.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether the metric is part of the traced result line. Times of
    /// layers that only some workloads reach (FEC, separate reassembly)
    /// read a constant 0 elsewhere, so they are printed in the tables
    /// only.
    pub in_result_line: bool,
}

const fn layer(name: &'static str, unit: &'static str, line: bool) -> LayerDef {
    LayerDef {
        name,
        unit,
        in_result_line: line,
    }
}

/// Every per-layer metric of the traced run. Every workload prints all
/// of them; a layer the workload's path does not reach reads 0.
pub const PER_LAYER: [LayerDef; 39] = [
    layer("codec.encode_ms", "ms", true),
    layer("codec.decode_ms", "ms", true),
    layer("core.policy_us", "us", true),
    layer("media.synth_ms", "ms", true),
    layer("media.quality_ms", "ms", true),
    layer("netsim.packetize_us", "us", true),
    layer("netsim.channel_us", "us", true),
    layer("netsim.reassemble_us", "us", false),
    layer("fec.protect_us", "us", false),
    layer("fec.recover_us", "us", false),
    layer("serve.fleet_efficiency", "ratio", true),
    layer("sched.cpu_util", "ratio", true),
    layer("sched.migrations_per_round", "count", true),
    layer("codec.sad_ops_per_frame", "count", true),
    layer("codec.sad_candidates_per_frame", "count", true),
    layer("codec.me_skip_ratio", "ratio", true),
    layer("codec.intra_mb_ratio", "ratio", true),
    layer("codec.bits_per_frame", "bits", true),
    layer("codec.ref_read_bytes_per_frame", "bytes", true),
    layer("codec.recon_write_bytes_per_frame", "bytes", true),
    layer("codec.allocs_per_frame", "count", true),
    layer("codec.concealed_mbs_per_frame", "count", true),
    layer("codec.resyncs_per_kframe", "count", true),
    layer("netsim.packets_per_frame", "count", true),
    layer("netsim.frames_lost_frac", "ratio", true),
    layer("fec.parity_bytes_per_frame", "bytes", true),
    layer("fec.repair_ratio", "ratio", true),
    layer("energy.me_mj_per_frame", "mJ", true),
    layer("energy.transform_mj_per_frame", "mJ", true),
    layer("energy.quant_mj_per_frame", "mJ", true),
    layer("energy.mc_mj_per_frame", "mJ", true),
    layer("energy.entropy_mj_per_frame", "mJ", true),
    layer("energy.memory_mj_per_frame", "mJ", true),
    layer("energy.fec_mj_per_frame", "mJ", true),
    layer("kernels.sad16_ns", "ns", true),
    layer("kernels.sad16_bounded_ns", "ns", true),
    layer("kernels.fused_transform_ns", "ns", true),
    layer("kernels.idct8_ns", "ns", true),
    layer("kernels.halfpel16_ns", "ns", true),
];

fn layer_def(name: &str) -> Option<&'static LayerDef> {
    PER_LAYER.iter().find(|d| d.name == name)
}

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Values behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check that holds when `ok`.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// One end-to-end metric of a run: its per-repetition values, whose
/// median is the run's value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median, quartiles and count of the per-repetition values.
    pub reps: Summary,
}

/// The result of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Timed repetitions completed.
    pub reps: usize,
    /// Frame slots attempted.
    pub attempted: u64,
    /// Frame slots that failed (see `failed_frac` in the README).
    pub failed: u64,
    /// End-to-end metrics (untraced runs).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics, `(name, unit, value)` (traced runs).
    pub layers: Vec<(String, String, f64)>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Digest of the workload's deterministic output.
    pub digest: String,
    /// Remarks (tracing overhead, coverage, flags).
    pub notes: Vec<String>,
}

impl WorkloadResult {
    /// An empty result for `workload`.
    pub fn new(workload: &str, seed: u64, traced: bool) -> Self {
        WorkloadResult {
            workload: workload.to_string(),
            seed,
            traced,
            reps: 0,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            layers: Vec::new(),
            checks: Vec::new(),
            digest: String::new(),
            notes: Vec::new(),
        }
    }

    /// A run whose child process produced no result (panic, timeout,
    /// unreadable output): every attempted slot failed.
    pub fn failed_run(workload: &str, seed: u64, traced: bool, why: &str) -> Self {
        let mut r = WorkloadResult::new(workload, seed, traced);
        r.attempted = 1;
        r.failed = 1;
        r.checks
            .push(Check::new("workload process completed", false, why));
        r
    }

    /// Records an end-to-end metric from its per-repetition `samples`
    /// (one sample for a deterministic metric). The unit comes from
    /// [`END_TO_END`].
    ///
    /// # Panics
    ///
    /// Panics on an unknown metric name or no samples.
    pub fn metric(&mut self, name: &str, samples: &[f64]) {
        let d = END_TO_END
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("unknown end-to-end metric {name}"));
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: d.unit.to_string(),
            reps: summarize(samples),
        });
    }

    /// Records a per-layer metric; the unit comes from [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on an unknown metric name.
    pub fn layer(&mut self, name: &str, value: f64) {
        let d = layer_def(name).unwrap_or_else(|| panic!("unknown layer metric {name}"));
        self.layers
            .push((name.to_string(), d.unit.to_string(), value));
    }

    /// Fills every per-layer metric not yet recorded with 0 and sorts
    /// them into [`PER_LAYER`] order.
    pub fn complete_layers(&mut self) {
        for d in PER_LAYER {
            if !self.layers.iter().any(|(n, _, _)| n == d.name) {
                self.layer(d.name, 0.0);
            }
        }
        self.layers
            .sort_by_key(|(n, _, _)| PER_LAYER.iter().position(|d| d.name == n));
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// End-to-end metric `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The value of per-layer metric `name`.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }

    /// Serializes the full result.
    pub fn to_json(&self) -> Value {
        obj([
            ("workload", s(&self.workload)),
            ("seed", n(self.seed as f64)),
            ("traced", Value::Bool(self.traced)),
            ("reps", n(self.reps as f64)),
            ("attempted", n(self.attempted as f64)),
            ("failed", n(self.failed as f64)),
            (
                "metrics",
                obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        obj([
                            ("unit", s(&m.unit)),
                            ("median", n(m.reps.median)),
                            ("q1", n(m.reps.q1)),
                            ("q3", n(m.reps.q3)),
                            ("n", n(m.reps.n as f64)),
                        ]),
                    )
                })),
            ),
            (
                "layers",
                obj(self.layers.iter().map(|(name, unit, v)| {
                    (name.clone(), obj([("unit", s(unit)), ("value", n(*v))]))
                })),
            ),
            (
                "checks",
                Value::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            obj([
                                ("name", s(&c.name)),
                                ("ok", Value::Bool(c.ok)),
                                ("detail", s(&c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("digest", s(&self.digest)),
            ("notes", Value::Arr(self.notes.iter().map(s).collect())),
        ])
    }

    /// Parses a result written by [`WorkloadResult::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result: missing {k}"));
        let num = |x: &Value, what: &str| {
            x.as_f64()
                .ok_or_else(|| format!("result: {what} is not a number"))
        };
        let text = |x: &Value, what: &str| {
            x.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("result: {what} is not a string"))
        };
        let mut r = WorkloadResult::new(
            &text(field("workload")?, "workload")?,
            num(field("seed")?, "seed")? as u64,
            field("traced")?
                .as_bool()
                .ok_or("result: traced is not a bool")?,
        );
        r.reps = num(field("reps")?, "reps")? as usize;
        r.attempted = num(field("attempted")?, "attempted")? as u64;
        r.failed = num(field("failed")?, "failed")? as u64;
        for (name, m) in field("metrics")?.as_obj().ok_or("result: metrics")? {
            let get = |k: &str| {
                m.get(k)
                    .and_then(Value::as_f64)
                    .ok_or(format!("metric {name}: {k}"))
            };
            r.metrics.push(Metric {
                name: name.clone(),
                unit: text(m.get("unit").ok_or("unit")?, "unit")?,
                reps: Summary {
                    median: get("median")?,
                    q1: get("q1")?,
                    q3: get("q3")?,
                    n: get("n")? as usize,
                },
            });
        }
        for (name, l) in field("layers")?.as_obj().ok_or("result: layers")? {
            r.layers.push((
                name.clone(),
                text(l.get("unit").ok_or("unit")?, "unit")?,
                l.get("value")
                    .and_then(Value::as_f64)
                    .ok_or(format!("layer {name}: value"))?,
            ));
        }
        for c in field("checks")?.as_arr().ok_or("result: checks")? {
            r.checks.push(Check::new(
                text(c.get("name").ok_or("check name")?, "check name")?,
                c.get("ok").and_then(Value::as_bool).ok_or("check ok")?,
                text(c.get("detail").ok_or("check detail")?, "check detail")?,
            ));
        }
        r.digest = text(field("digest")?, "digest")?;
        for note in field("notes")?.as_arr().ok_or("result: notes")? {
            r.notes.push(text(note, "note")?);
        }
        Ok(r)
    }

    /// The benchmark's result line: end-to-end metrics for an untraced
    /// run, per-layer metrics for a traced one.
    pub fn result_line(&self) -> String {
        let metrics: Vec<(String, Value)> = if self.traced {
            self.layers
                .iter()
                .filter(|(name, _, _)| layer_def(name).is_some_and(|d| d.in_result_line))
                .map(|(name, unit, v)| (name.clone(), obj([("value", n(*v)), ("unit", s(unit))])))
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|d| d.in_result_line)
                .filter_map(|d| {
                    self.get(d.name).map(|m| {
                        (
                            d.name.to_string(),
                            obj([("value", n(m.reps.median)), ("unit", s(d.unit))]),
                        )
                    })
                })
                .collect()
        };
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", n(self.attempted.max(1) as f64)),
            ("failed", n(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_json()
    }

    /// Human-readable tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}, {} timed repetitions, trace {}) ==",
            self.workload,
            self.seed,
            self.reps,
            if self.traced { "on" } else { "off" }
        );
        if !self.metrics.is_empty() {
            let _ = writeln!(
                out,
                "{:<16} {:<9} {:>12} {:>12} {:>12} {:>4}",
                "metric", "unit", "median", "q1", "q3", "n"
            );
            for m in &self.metrics {
                let _ = writeln!(
                    out,
                    "{:<16} {:<9} {:>12} {:>12} {:>12} {:>4}",
                    m.name,
                    m.unit,
                    fmt_num(m.reps.median),
                    fmt_num(m.reps.q1),
                    fmt_num(m.reps.q3),
                    m.reps.n
                );
            }
        }
        if !self.layers.is_empty() {
            let _ = writeln!(out, "{:<34} {:<6} {:>12}", "layer metric", "unit", "value");
            for (name, unit, v) in &self.layers {
                let _ = writeln!(out, "{:<34} {:<6} {:>12}", name, unit, fmt_num(*v));
            }
        }
        let _ = writeln!(
            out,
            "slots: {} attempted, {} failed; digest {}",
            self.attempted, self.failed, self.digest
        );
        let passed = self.checks.iter().filter(|c| c.ok).count();
        let _ = writeln!(out, "checks: {passed}/{} passed", self.checks.len());
        for c in &self.checks {
            let _ = writeln!(
                out,
                "  {} {} ({})",
                if c.ok { "ok  " } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }
}

/// Formats a metric value with about six significant digits.
pub fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        let digits = 5 - (v.abs().log10().floor() as i32).clamp(-3, 5);
        format!("{v:.*}", digits.max(0) as usize)
    }
}

/// Parses a results file: JSON lines (what `--out` appends, one line
/// per invocation), each either one result or an object with a
/// `workloads` array of them.
///
/// # Errors
///
/// Returns a message when a line does not parse.
pub fn parse_results(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line)?;
        match v.get("workloads") {
            Some(list) => {
                for r in list.as_arr().ok_or("workloads is not an array")? {
                    out.push(WorkloadResult::from_json(r)?);
                }
            }
            None => out.push(WorkloadResult::from_json(&v)?),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_round_trips_through_json() {
        let mut r = WorkloadResult::new("paper-cell", 7, true);
        r.attempted = 300;
        r.metric("frames_per_s", &[1.0, 2.0, 3.0]);
        r.layer("codec.encode_ms", 4.5);
        r.complete_layers();
        r.checks.push(Check::new("c", true, "d"));
        r.notes.push("n".into());
        let back = parse_results(&r.to_json().to_json()).unwrap();
        assert_eq!(back, vec![r.clone()]);
        assert!(r.correct());
        let line = json::parse(&r.result_line()).unwrap();
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        let in_line = PER_LAYER.iter().filter(|d| d.in_result_line).count();
        assert_eq!(metrics.len(), in_line);
        assert!(metrics.iter().all(|(k, _)| k != "fec.protect_us"));
    }

    #[test]
    fn result_line_carries_only_gated_metrics() {
        let mut r = WorkloadResult::new("fleet-uniform", 1, false);
        for d in END_TO_END {
            r.metric(d.name, &[1.0]);
        }
        r.checks.push(Check::new("c", true, ""));
        let line = json::parse(&r.result_line()).unwrap();
        let metrics = line.get("metrics").unwrap();
        assert!(metrics.get("failed_frac").is_none());
        assert!(metrics.get("frames_per_s").is_none());
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
    }

    #[test]
    fn numbers_print_with_six_significant_digits() {
        assert_eq!(fmt_num(142.31234), "142.312");
        assert_eq!(fmt_num(0.0123456), "0.0123456");
        assert_eq!(fmt_num(0.0), "0");
    }
}
