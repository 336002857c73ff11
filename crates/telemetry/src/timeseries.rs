//! Round-indexed time-series: one deterministic metric delta per round.
//!
//! End-of-run [`TelemetryReport`]s answer "what happened in total"; the
//! observability plane needs "what happened *when*". A [`TimeSeries`]
//! takes one registry snapshot after every session-manager round and
//! stores the *difference* against the previous snapshot as a
//! [`DeltaFrame`] keyed by round index, for the whole run.
//!
//! The determinism contract carries over unchanged from the report
//! layer: a delta frame's deterministic section (counters, histogram
//! buckets, stage calls/units) is a pure function of the workload, so
//! [`TimeSeries::deterministic_json`] is byte-identical across worker
//! counts — the serve observability tests compare it at 1/2/8 workers.
//! Wall-clock deltas ride along in a timing scope that only the full
//! exports ([`TimeSeries::to_json`], [`TimeSeries::to_csv`]) include.
//!
//! A series exists only while the observability plane is on. With the
//! plane off the serve manager holds no series at all, so its per-round
//! cost is one `None` check on its own state.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json;
use crate::report::{csv_field, HistogramDelta, HistogramSnapshot, TelemetryReport};

/// Stage activity between two ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageDelta {
    /// New invocations.
    pub calls: u64,
    /// New deterministic virtual units.
    pub units: u64,
}

/// What every registered metric accumulated over one tick interval,
/// keyed by the round index the tick fired on. Zero-delta entries are
/// omitted so idle metrics cost nothing in the series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeltaFrame {
    /// Round index this tick fired on (the last round of the interval).
    pub round: u64,
    /// Deterministic counter increments (nonzero only).
    pub counters: BTreeMap<String, u64>,
    /// Deterministic histogram bucket increments (active only).
    pub histograms: BTreeMap<String, HistogramDelta>,
    /// Stage call/unit increments (active only).
    pub stages: BTreeMap<String, StageDelta>,
    /// Timing-scope counter increments (nonzero only).
    pub timing_counters: BTreeMap<String, u64>,
    /// Timing-scope histogram increments (active only).
    pub timing_histograms: BTreeMap<String, HistogramDelta>,
}

impl DeltaFrame {
    /// Increment of a deterministic counter this interval, zero when
    /// absent (SLO evaluation reads rates through this).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Deterministic section only — canonical JSON, sorted keys,
    /// integers only, byte-identical across worker counts.
    pub fn deterministic_json(&self) -> String {
        json::object(|o| {
            o.field("round", self.round)
                .object("counters", |m| {
                    m.fields(&self.counters);
                })
                .map("histograms", &self.histograms, delta_json)
                .map("stages", &self.stages, |o, s| {
                    o.field("calls", s.calls).field("units", s.units);
                });
        })
    }

    /// Full frame: the deterministic section plus a timing object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.raw("deterministic", &self.deterministic_json())
                .object("timing", |t| {
                    t.object("counters", |m| {
                        m.fields(&self.timing_counters);
                    })
                    .map("histograms", &self.timing_histograms, delta_json);
                });
        })
    }
}

fn delta_json(o: &mut json::Object<'_>, h: &HistogramDelta) {
    o.list("counts", &h.counts)
        .field("count", h.count)
        .field("sum", h.sum);
}

/// Every round's [`DeltaFrame`], oldest first.
///
/// The owner (the serve session manager) hands [`TimeSeries::tick`] a
/// registry snapshot after each round.
#[derive(Debug, Default)]
pub struct TimeSeries {
    prev: TelemetryReport,
    frames: Vec<DeltaFrame>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Folds a registry snapshot into the series as a delta against the
    /// previous tick, returning the new frame.
    pub fn tick(&mut self, round: u64, report: TelemetryReport) -> &DeltaFrame {
        self.frames.push(diff_reports(round, &self.prev, &report));
        self.prev = report;
        &self.frames[self.frames.len() - 1]
    }

    /// Every delta frame, oldest first.
    pub fn frames(&self) -> &[DeltaFrame] {
        &self.frames
    }

    /// The whole series' deterministic sections as canonical JSON —
    /// byte-identical across worker counts for a fixed workload.
    pub fn deterministic_json(&self) -> String {
        self.series_json(DeltaFrame::deterministic_json)
    }

    /// The whole series including timing scopes — what the
    /// `/timeseries` scrape endpoint serves.
    pub fn to_json(&self) -> String {
        self.series_json(DeltaFrame::to_json)
    }

    /// Wraps the frames in the scrape body's fixed header: one tick per
    /// round (`every` 1), every tick kept (`dropped` 0).
    fn series_json(&self, frame_json: fn(&DeltaFrame) -> String) -> String {
        json::object(|o| {
            o.field("every", 1)
                .field("ticks", self.frames.len())
                .field("dropped", 0)
                .array("frames", |a| {
                    for f in &self.frames {
                        a.raw(&frame_json(f));
                    }
                });
        })
    }

    /// Long-format CSV for offline plotting:
    /// `round,scope,kind,name,field,value` rows, one per metric field
    /// per tick, ordered by tick then the report's sort order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,scope,kind,name,field,value\n");
        for f in &self.frames {
            let r = f.round;
            for (name, v) in &f.counters {
                let _ = writeln!(
                    out,
                    "{r},deterministic,counter,{},total,{v}",
                    csv_field(name)
                );
            }
            for (name, h) in &f.histograms {
                write_delta_csv(&mut out, r, "deterministic", name, h);
            }
            for (name, s) in &f.stages {
                let name = csv_field(name);
                let _ = writeln!(out, "{r},deterministic,stage,{name},calls,{}", s.calls);
                let _ = writeln!(out, "{r},deterministic,stage,{name},units,{}", s.units);
            }
            for (name, v) in &f.timing_counters {
                let _ = writeln!(out, "{r},timing,counter,{},total,{v}", csv_field(name));
            }
            for (name, h) in &f.timing_histograms {
                write_delta_csv(&mut out, r, "timing", name, h);
            }
        }
        out
    }
}

fn write_delta_csv(out: &mut String, round: u64, scope: &str, name: &str, h: &HistogramDelta) {
    let name = csv_field(name);
    let _ = writeln!(out, "{round},{scope},histogram,{name},count,{}", h.count);
    let _ = writeln!(out, "{round},{scope},histogram,{name},sum,{}", h.sum);
}

fn diff_reports(round: u64, prev: &TelemetryReport, cur: &TelemetryReport) -> DeltaFrame {
    let mut frame = DeltaFrame {
        round,
        ..DeltaFrame::default()
    };
    diff_u64_maps(&cur.counters, &prev.counters, &mut frame.counters);
    diff_u64_maps(
        &cur.timing_counters,
        &prev.timing_counters,
        &mut frame.timing_counters,
    );
    for (name, h) in &cur.histograms {
        let d = match prev.histograms.get(name) {
            Some(p) => h.delta(p),
            None => h.delta(&zero_like(h)),
        };
        if d.count > 0 {
            frame.histograms.insert(name.clone(), d);
        }
    }
    for (name, h) in &cur.timing_histograms {
        let d = match prev.timing_histograms.get(name) {
            Some(p) => h.delta(p),
            None => h.delta(&zero_like(h)),
        };
        if d.count > 0 {
            frame.timing_histograms.insert(name.clone(), d);
        }
    }
    for (name, s) in &cur.stages {
        let p = prev.stages.get(name).copied().unwrap_or_default();
        let d = StageDelta {
            calls: s.calls.saturating_sub(p.calls),
            units: s.units.saturating_sub(p.units),
        };
        if d.calls > 0 || d.units > 0 {
            frame.stages.insert(name.clone(), d);
        }
    }
    frame
}

fn zero_like(h: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        bounds: h.bounds.clone(),
        counts: vec![0; h.counts.len()],
        count: 0,
        sum: 0,
    }
}

fn diff_u64_maps(
    cur: &BTreeMap<String, u64>,
    prev: &BTreeMap<String, u64>,
    out: &mut BTreeMap<String, u64>,
) {
    for (name, &v) in cur {
        let d = v.saturating_sub(prev.get(name).copied().unwrap_or(0));
        if d > 0 {
            out.insert(name.clone(), d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn ticks_capture_deltas_not_totals() {
        let tel = Telemetry::new();
        let c = tel.counter("x.ops");
        let h = tel.histogram("x.size", &[10, 100]);
        let mut ts = TimeSeries::new();

        c.inc(5);
        h.record(7);
        ts.tick(0, tel.report());
        c.inc(3);
        h.record(50);
        h.record(500);
        ts.tick(1, tel.report());
        c.inc(0);
        ts.tick(2, tel.report());

        let frames = ts.frames();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].counter("x.ops"), 5);
        assert_eq!(frames[1].counter("x.ops"), 3);
        assert_eq!(frames[0].histograms["x.size"].counts, vec![1, 0, 0]);
        assert_eq!(frames[1].histograms["x.size"].counts, vec![0, 1, 1]);
        assert_eq!(frames[1].histograms["x.size"].sum, 550);
        // An idle interval omits every entry.
        assert!(frames[2].counters.is_empty());
        assert!(frames[2].histograms.is_empty());
    }

    #[test]
    fn deterministic_json_excludes_timing_scope() {
        let tel = Telemetry::new();
        tel.counter("det.c").inc(1);
        tel.timing_counter("sched.steals").inc(9);
        tel.timing_histogram("lat", &[10]).record(4);
        let mut ts = TimeSeries::new();
        ts.tick(0, tel.report());
        let det = ts.deterministic_json();
        assert!(det.starts_with("{\"every\":1,\"ticks\":1,\"dropped\":0,\"frames\":["));
        assert!(det.contains("det.c"));
        assert!(!det.contains("steals") && !det.contains("lat"));
        let full = ts.to_json();
        assert!(full.contains("steals") && full.contains("lat"));
        let csv = ts.to_csv();
        assert!(csv.contains("0,deterministic,counter,det.c,total,1\n"));
        assert!(csv.contains("0,timing,histogram,lat,count,1\n"));
    }
}
