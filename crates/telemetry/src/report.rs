//! Report snapshots and their JSON/CSV export.
//!
//! JSON goes through [`crate::json`], the workspace's one writer. The
//! export guarantees the byte-level properties the determinism contract
//! needs: `BTreeMap` iteration gives sorted keys, and the deterministic
//! section contains only integers, so there is no float formatting to
//! drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json;

/// Merged view of one histogram: bucket counts over inclusive upper
/// `bounds` plus an implicit overflow bucket (`counts.len() ==
/// bounds.len() + 1`), with total observation count and value sum.
///
/// # Bucket-edge convention
///
/// Bounds are **inclusive upper edges**: bucket `i` covers the half-open
/// integer range `(bounds[i-1], bounds[i]]` (with an implicit lower edge
/// of 0 for bucket 0), so a value exactly equal to a bound lands in that
/// bound's bucket — the same convention as Prometheus `le` buckets,
/// which lets the scrape endpoint render cumulative `le` counts without
/// reshuffling. The regression test
/// `histogram_buckets_are_inclusive_upper_edges` in the crate root pins
/// this; every consumer (quantiles, JSON/CSV export, the Prometheus
/// renderer) assumes it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket edges, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; the final entry is the overflow
    /// bucket above the last bound.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Element-wise merge of two snapshots over the same bounds.
    /// Addition of per-bucket counts makes this associative and
    /// commutative (property-tested in `tests/histogram_props.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the two snapshots have different bounds.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(self.bounds, other.bounds, "merging mismatched histograms");
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
            count: self.count + other.count,
            sum: self.sum + other.sum,
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`,
    /// or the last finite bound for the overflow bucket. `None` when
    /// empty.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(match self.bounds.get(i) {
                    Some(&b) => b,
                    None => self.bounds.last().copied().unwrap_or(u64::MAX),
                });
            }
        }
        self.bounds.last().copied()
    }

    /// Estimated value at quantile `q` in `[0, 1]` by linear
    /// interpolation inside the containing bucket (the standard
    /// `histogram_quantile` estimator). Bucket `i` is treated as the
    /// interval `(lower, bounds[i]]` where `lower` is the previous bound
    /// (or 0 for the first bucket); the rank's position within the
    /// bucket's count picks the point on that interval. Observations in
    /// the overflow bucket are reported as the last finite bound — the
    /// estimator cannot see past it. `None` when empty.
    ///
    /// The error versus an exact sorted reference is at most one bucket
    /// width (property-tested in `tests/proptest_telemetry.rs`).
    pub fn quantile_estimate(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                return Some(match self.bounds.get(i) {
                    Some(&hi) => {
                        let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                        let frac = (rank - seen) as f64 / c as f64;
                        lo as f64 + frac * (hi - lo) as f64
                    }
                    // Overflow bucket: clamp to the last finite edge.
                    None => self.bounds.last().copied().unwrap_or(u64::MAX) as f64,
                });
            }
            seen += c;
        }
        self.bounds.last().map(|&b| b as f64)
    }

    /// Median estimate ([`Self::quantile_estimate`] at 0.5).
    pub fn p50(&self) -> Option<f64> {
        self.quantile_estimate(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<f64> {
        self.quantile_estimate(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile_estimate(0.99)
    }

    /// What this snapshot accumulated since `prev`, as a slim per-bucket
    /// delta. `prev` must be an earlier snapshot of the same histogram
    /// (same bounds, element-wise `counts >= prev.counts`); counts are
    /// monotone, so saturating subtraction only guards against misuse.
    ///
    /// # Panics
    ///
    /// Panics if the two snapshots have different bounds.
    pub fn delta(&self, prev: &HistogramSnapshot) -> HistogramDelta {
        assert_eq!(self.bounds, prev.bounds, "delta over mismatched histograms");
        HistogramDelta {
            counts: self
                .counts
                .iter()
                .zip(&prev.counts)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(prev.count),
            sum: self.sum.saturating_sub(prev.sum),
        }
    }
}

/// Per-bucket increments of one histogram between two snapshots. Bounds
/// are omitted — a delta only makes sense alongside the histogram it
/// came from, and repeating edges every time-series tick would bloat the
/// ring.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramDelta {
    /// Per-bucket new observations, overflow bucket last.
    pub counts: Vec<u64>,
    /// New observations in the interval.
    pub count: u64,
    /// Sum of values observed in the interval.
    pub sum: u64,
}

/// Last-set value and running max of a gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    pub last: i64,
    pub max: i64,
}

/// Accumulated cost of one pipeline stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Invocations (span drops + direct records).
    pub calls: u64,
    /// Deterministic virtual units (ops / bits / MBs — per-stage choice).
    pub units: u64,
    /// Wall nanoseconds; zero unless the registry collects wall clock.
    pub wall_ns: u64,
}

/// A point-in-time snapshot of every registered metric, split into a
/// deterministic section (counters, histograms, stage calls/units) and a
/// timing section (wall clock, gauges, scheduling counters).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    pub stages: BTreeMap<String, StageSnapshot>,
    pub timing_counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    pub timing_histograms: BTreeMap<String, HistogramSnapshot>,
}

impl TelemetryReport {
    /// Value of a deterministic counter, zero when unregistered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// True when nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.stages.is_empty()
            && self.timing_counters.is_empty()
            && self.gauges.is_empty()
            && self.timing_histograms.is_empty()
    }

    /// The deterministic section only, as canonical JSON: sorted keys,
    /// integers only, no whitespace. For a fixed workload configuration
    /// this string is byte-identical regardless of worker count or
    /// thread interleaving — the serve determinism tests compare it
    /// directly.
    pub fn deterministic_json(&self) -> String {
        json::object(|o| {
            o.object("counters", |m| {
                m.fields(&self.counters);
            })
            .map("histograms", &self.histograms, histogram_json)
            .map("stages", &self.stages, |o, s| {
                o.field("calls", s.calls).field("units", s.units);
            });
        })
    }

    /// Full report as JSON: the deterministic section plus a `timing`
    /// object (scheduling counters, gauges, latency histograms, span
    /// wall times).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.raw("deterministic", &self.deterministic_json())
                .object("timing", |t| {
                    t.object("counters", |m| {
                        m.fields(&self.timing_counters);
                    })
                    .map("gauges", &self.gauges, gauge_json)
                    .map("histograms", &self.timing_histograms, histogram_json)
                    .object("stage_wall_ns", |m| {
                        m.fields(self.stages.iter().map(|(name, s)| (name, s.wall_ns)));
                    });
                });
        })
    }

    /// Flat CSV export: `section,kind,name,field,value` rows, sorted the
    /// same way as the JSON (header first).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("section,kind,name,field,value\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "deterministic,counter,{},total,{}", csv_field(name), v);
        }
        for (name, h) in &self.histograms {
            write_histogram_csv(&mut out, "deterministic", name, h);
        }
        for (name, s) in &self.stages {
            let name = csv_field(name);
            let _ = writeln!(out, "deterministic,stage,{},calls,{}", name, s.calls);
            let _ = writeln!(out, "deterministic,stage,{},units,{}", name, s.units);
        }
        for (name, v) in &self.timing_counters {
            let _ = writeln!(out, "timing,counter,{},total,{}", csv_field(name), v);
        }
        for (name, g) in &self.gauges {
            let name = csv_field(name);
            let _ = writeln!(out, "timing,gauge,{},last,{}", name, g.last);
            let _ = writeln!(out, "timing,gauge,{},max,{}", name, g.max);
        }
        for (name, h) in &self.timing_histograms {
            write_histogram_csv(&mut out, "timing", name, h);
        }
        for (name, s) in &self.stages {
            let _ = writeln!(
                out,
                "timing,stage,{},wall_ns,{}",
                csv_field(name),
                s.wall_ns
            );
        }
        out
    }
}

pub(crate) fn gauge_json(o: &mut json::Object<'_>, g: &GaugeSnapshot) {
    o.field("last", g.last).field("max", g.max);
}

fn histogram_json(o: &mut json::Object<'_>, h: &HistogramSnapshot) {
    o.list("bounds", &h.bounds)
        .list("counts", &h.counts)
        .field("count", h.count)
        .field("sum", h.sum);
}

/// Metric names avoid commas/quotes by convention; replace them if they
/// ever appear so a row can't split.
pub(crate) fn csv_field(s: &str) -> String {
    s.replace([',', '"', '\n', '\r'], "_")
}

fn write_histogram_csv(out: &mut String, section: &str, name: &str, h: &HistogramSnapshot) {
    let name = csv_field(name);
    for (i, c) in h.counts.iter().enumerate() {
        let edge = match h.bounds.get(i) {
            Some(b) => format!("le_{b}"),
            None => "overflow".to_string(),
        };
        let _ = writeln!(out, "{section},histogram,{name},{edge},{c}");
    }
    let _ = writeln!(out, "{section},histogram,{name},count,{}", h.count);
    let _ = writeln!(out, "{section},histogram,{name},sum,{}", h.sum);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hist() -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: vec![10, 100],
            counts: vec![2, 3, 1],
            count: 6,
            sum: 321,
        }
    }

    #[test]
    fn deterministic_json_is_sorted_and_integer_only() {
        let mut r = TelemetryReport::default();
        r.counters.insert("z.last".into(), 2);
        r.counters.insert("a.first".into(), 1);
        r.stages.insert(
            "encode".into(),
            StageSnapshot {
                calls: 4,
                units: 99,
                wall_ns: 123_456,
            },
        );
        let json = r.deterministic_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a.first\":1,\"z.last\":2},\"histograms\":{},\
             \"stages\":{\"encode\":{\"calls\":4,\"units\":99}}}"
        );
        assert!(!json.contains("123456"), "wall ns must not leak");
    }

    #[test]
    fn full_json_nests_timing_section() {
        let mut r = TelemetryReport::default();
        r.counters.insert("c".into(), 1);
        r.timing_counters.insert("steals".into(), 7);
        r.gauges
            .insert("depth".into(), GaugeSnapshot { last: 3, max: 9 });
        r.timing_histograms.insert("lat".into(), sample_hist());
        r.stages.insert(
            "s".into(),
            StageSnapshot {
                calls: 1,
                units: 2,
                wall_ns: 50,
            },
        );
        let json = r.to_json();
        assert!(json.starts_with("{\"deterministic\":{"));
        assert!(json.contains("\"timing\":{\"counters\":{\"steals\":7}"));
        assert!(json.contains("\"gauges\":{\"depth\":{\"last\":3,\"max\":9}}"));
        assert!(json.contains("\"stage_wall_ns\":{\"s\":50}"));
        assert!(json.contains("\"count\":6,\"sum\":321"));
    }

    #[test]
    fn csv_rows_cover_every_metric() {
        let mut r = TelemetryReport::default();
        r.counters.insert("c".into(), 5);
        r.histograms.insert("h".into(), sample_hist());
        r.gauges
            .insert("g".into(), GaugeSnapshot { last: -1, max: 4 });
        let csv = r.to_csv();
        assert!(csv.starts_with("section,kind,name,field,value\n"));
        assert!(csv.contains("deterministic,counter,c,total,5\n"));
        assert!(csv.contains("deterministic,histogram,h,le_10,2\n"));
        assert!(csv.contains("deterministic,histogram,h,overflow,1\n"));
        assert!(csv.contains("timing,gauge,g,last,-1\n"));
    }

    #[test]
    fn merge_adds_element_wise() {
        let a = sample_hist();
        let merged = a.merge(&a);
        assert_eq!(merged.counts, vec![4, 6, 2]);
        assert_eq!(merged.count, 12);
        assert_eq!(merged.sum, 642);
    }

    #[test]
    fn quantile_estimate_interpolates_within_buckets() {
        // 10 observations, all in (0, 10]: ranks map linearly onto the
        // bucket interval, so p50 = 5.0 exactly.
        let h = HistogramSnapshot {
            bounds: vec![10, 100],
            counts: vec![10, 0, 0],
            count: 10,
            sum: 55,
        };
        assert_eq!(h.quantile_estimate(0.5), Some(5.0));
        assert_eq!(h.p50(), Some(5.0));
        assert_eq!(h.quantile_estimate(1.0), Some(10.0));

        // Mixed buckets: ranks 1-2 in (0,10], ranks 3-5 in (10,100],
        // rank 6 in overflow (clamped to the last finite bound).
        let h = sample_hist();
        assert_eq!(h.quantile_estimate(0.0), Some(5.0));
        let p50 = h.p50().unwrap();
        assert!(p50 > 10.0 && p50 <= 100.0, "p50 {p50} in second bucket");
        assert_eq!(h.p99(), Some(100.0), "overflow clamps to last bound");
        assert_eq!(HistogramSnapshot::default().p95(), None);
    }

    #[test]
    fn quantile_estimate_brackets_the_exact_quantile_bucket() {
        // Estimate and exact reference always land in the same bucket,
        // so they differ by at most one bucket width (the proptest in
        // tests/proptest_telemetry.rs sweeps this; here we pin one case).
        let values = [1u64, 2, 9, 10, 11, 40, 99, 100];
        let bounds = [10u64, 100];
        let mut counts = vec![0u64; 3];
        for &v in &values {
            counts[bounds.partition_point(|&b| b < v)] += 1;
        }
        let h = HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts,
            count: values.len() as u64,
            sum: values.iter().sum(),
        };
        for q in [0.25, 0.5, 0.75, 0.95] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1] as f64;
            let est = h.quantile_estimate(q).unwrap();
            let width = if exact <= 10.0 { 10.0 } else { 90.0 };
            assert!(
                (est - exact).abs() <= width,
                "q={q}: est {est} vs exact {exact} exceeds bucket width"
            );
        }
    }

    #[test]
    fn delta_subtracts_element_wise() {
        let prev = sample_hist();
        let mut cur = prev.clone();
        cur.counts = vec![3, 5, 1];
        cur.count = 9;
        cur.sum = 500;
        let d = cur.delta(&prev);
        assert_eq!(d.counts, vec![1, 2, 0]);
        assert_eq!(d.count, 3);
        assert_eq!(d.sum, 179);
        let zero = prev.delta(&prev);
        assert_eq!(zero.count, 0);
        assert!(zero.counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn quantile_bound_picks_bucket_edges() {
        let h = sample_hist();
        assert_eq!(h.quantile_bound(0.0), Some(10));
        assert_eq!(h.quantile_bound(0.5), Some(100));
        assert_eq!(
            h.quantile_bound(1.0),
            Some(100),
            "overflow reports last bound"
        );
        assert_eq!(HistogramSnapshot::default().quantile_bound(0.5), None);
    }
}
