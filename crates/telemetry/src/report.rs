//! Report snapshots and their JSON export.
//!
//! JSON goes through [`crate::json`], the workspace's one writer. The
//! export guarantees the byte-level properties the determinism contract
//! needs: `BTreeMap` iteration gives sorted keys, and the deterministic
//! section contains only integers, so there is no float formatting to
//! drift.

use std::collections::BTreeMap;

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
/// this; every consumer (JSON export, time-series deltas, the Prometheus
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
/// series.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramDelta {
    /// Per-bucket new observations, overflow bucket last.
    pub counts: Vec<u64>,
    /// New observations in the interval.
    pub count: u64,
    /// Sum of values observed in the interval.
    pub sum: u64,
}

/// Accumulated cost of one pipeline stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Invocations (span drops + direct records).
    pub calls: u64,
    /// Deterministic virtual units (ops / bits / MBs — per-stage choice).
    pub units: u64,
    /// Wall nanoseconds its spans took (direct records add none).
    pub wall_ns: u64,
}

/// A point-in-time snapshot of every registered metric, split into a
/// deterministic section (counters, histograms, stage calls/units) and a
/// timing section (wall clock, scheduling counters, latency histograms).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    pub stages: BTreeMap<String, StageSnapshot>,
    pub timing_counters: BTreeMap<String, u64>,
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
    /// object (scheduling counters, latency histograms, span wall
    /// times).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.raw("deterministic", &self.deterministic_json())
                .object("timing", |t| {
                    t.object("counters", |m| {
                        m.fields(&self.timing_counters);
                    })
                    .map("histograms", &self.timing_histograms, histogram_json)
                    .object("stage_wall_ns", |m| {
                        m.fields(self.stages.iter().map(|(name, s)| (name, s.wall_ns)));
                    });
                });
        })
    }
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
        assert!(json.contains("\"stage_wall_ns\":{\"s\":50}"));
        assert!(json.contains("\"count\":6,\"sum\":321"));
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
}
