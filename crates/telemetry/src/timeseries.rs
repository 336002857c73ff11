//! Frame-indexed time-series: a ring of deterministic metric deltas.
//!
//! End-of-run [`TelemetryReport`]s answer "what happened in total"; the
//! observability plane needs "what happened *when*". A [`TimeSeries`]
//! snapshots the registry every N session-manager rounds and stores the
//! *difference* against the previous snapshot as a [`DeltaFrame`] keyed
//! by round index, in a bounded ring (old frames fall off the front).
//!
//! The determinism contract carries over unchanged from the report
//! layer: a delta frame's deterministic section (counters, histogram
//! buckets, stage calls/units) is a pure function of the workload and
//! the tick schedule, so [`TimeSeries::deterministic_json`] is
//! byte-identical across worker counts — the serve observability tests
//! compare it at 1/2/8 workers. Wall-clock deltas and gauge readings
//! ride along in a timing scope that only the full exports
//! ([`TimeSeries::to_json`], [`TimeSeries::to_csv`]) include.
//!
//! Like [`Telemetry`](crate::Telemetry), a series has a disabled mode
//! whose per-round check ([`TimeSeries::tick_due`]) is a `None` test —
//! the `telemetry` bench gates that the disabled tick path adds no
//! measurable overhead to the serve round loop.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use crate::json;
use crate::report::{csv_field, gauge_json, GaugeSnapshot, HistogramDelta, TelemetryReport};

/// Tick cadence and retention for a [`TimeSeries`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesConfig {
    /// Snapshot every `every` rounds: a tick is due when
    /// `(round + 1) % every == 0`, so `every = 1` ticks after each round
    /// and the first tick of `every = 4` lands on round 3.
    pub every: u64,
    /// Maximum delta frames retained; the oldest frame is dropped once
    /// the ring is full (the drop count is reported, never silent).
    pub capacity: usize,
}

impl Default for SeriesConfig {
    fn default() -> Self {
        SeriesConfig {
            every: 1,
            capacity: 256,
        }
    }
}

impl SeriesConfig {
    /// Validates the cadence (`every > 0`, `capacity > 0`).
    pub fn validate(&self) -> Result<(), String> {
        if self.every == 0 {
            return Err("timeseries: every must be > 0 (use TimeSeries::disabled)".into());
        }
        if self.capacity == 0 {
            return Err("timeseries: capacity must be > 0".into());
        }
        Ok(())
    }
}

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
/// omitted so idle metrics cost nothing in the ring.
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
    /// Gauge readings at the tick (instantaneous, timing scope).
    pub gauges: BTreeMap<String, GaugeSnapshot>,
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
                    .map("histograms", &self.timing_histograms, delta_json)
                    .map("gauges", &self.gauges, gauge_json);
                });
        })
    }
}

fn delta_json(o: &mut json::Object<'_>, h: &HistogramDelta) {
    o.list("counts", &h.counts)
        .field("count", h.count)
        .field("sum", h.sum);
}

struct Inner {
    cfg: SeriesConfig,
    prev: TelemetryReport,
    frames: VecDeque<DeltaFrame>,
    ticks: u64,
    dropped: u64,
}

/// A bounded ring of [`DeltaFrame`]s with a disabled no-op mode.
///
/// The owner (the serve session manager) drives it: call
/// [`TimeSeries::tick_due`] each round on the hot path, and on a due
/// round snapshot the registry and hand the report to
/// [`TimeSeries::tick`].
pub struct TimeSeries {
    inner: Option<Inner>,
}

impl std::fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSeries")
            .field("enabled", &self.inner.is_some())
            .field("frames", &self.len())
            .finish()
    }
}

impl TimeSeries {
    /// An enabled series with the given cadence.
    ///
    /// # Errors
    ///
    /// Fails when the config does not validate.
    pub fn new(cfg: SeriesConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(TimeSeries {
            inner: Some(Inner {
                cfg,
                prev: TelemetryReport::default(),
                // Grown on demand: the capacity is outside input and may
                // be far beyond what is ever ticked.
                frames: VecDeque::new(),
                ticks: 0,
                dropped: 0,
            }),
        })
    }

    /// The no-op series: never due, records nothing.
    pub fn disabled() -> Self {
        TimeSeries { inner: None }
    }

    /// Whether this series records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether a tick is due after `round`. This is the only call on the
    /// per-round hot path; disabled series answer with a `None` check.
    #[inline]
    pub fn tick_due(&self, round: u64) -> bool {
        match &self.inner {
            Some(inner) => (round + 1).is_multiple_of(inner.cfg.every),
            None => false,
        }
    }

    /// Folds a registry snapshot into the ring as a delta against the
    /// previous tick, returning the new frame. No-op (returning `None`)
    /// when disabled.
    pub fn tick(&mut self, round: u64, report: &TelemetryReport) -> Option<&DeltaFrame> {
        let inner = self.inner.as_mut()?;
        let frame = diff_reports(round, &inner.prev, report);
        inner.prev = report.clone();
        inner.ticks += 1;
        if inner.frames.len() == inner.cfg.capacity {
            inner.frames.pop_front();
            inner.dropped += 1;
        }
        inner.frames.push_back(frame);
        inner.frames.back()
    }

    /// Retained delta frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &DeltaFrame> {
        self.inner.iter().flat_map(|i| i.frames.iter())
    }

    /// Frames currently retained.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.frames.len())
    }

    /// True when nothing is retained (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total ticks taken, including ones whose frames aged out.
    pub fn ticks(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ticks)
    }

    /// Frames that aged out of the ring.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped)
    }

    /// The whole ring's deterministic sections as canonical JSON —
    /// byte-identical across worker counts for a fixed workload and
    /// tick schedule.
    pub fn deterministic_json(&self) -> String {
        self.ring_json(DeltaFrame::deterministic_json)
    }

    /// The whole ring including timing scopes — what the `/timeseries`
    /// scrape endpoint serves.
    pub fn to_json(&self) -> String {
        self.ring_json(DeltaFrame::to_json)
    }

    fn ring_json(&self, frame_json: fn(&DeltaFrame) -> String) -> String {
        let (every, ticks, dropped) = match &self.inner {
            Some(i) => (i.cfg.every, i.ticks, i.dropped),
            None => (0, 0, 0),
        };
        json::object(|o| {
            o.field("every", every)
                .field("ticks", ticks)
                .field("dropped", dropped)
                .array("frames", |a| {
                    for f in self.frames() {
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
        for f in self.frames() {
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
            for (name, g) in &f.gauges {
                let name = csv_field(name);
                let _ = writeln!(out, "{r},timing,gauge,{name},last,{}", g.last);
                let _ = writeln!(out, "{r},timing,gauge,{name},max,{}", g.max);
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
    frame.gauges = cur.gauges.clone();
    frame
}

fn zero_like(h: &crate::report::HistogramSnapshot) -> crate::report::HistogramSnapshot {
    crate::report::HistogramSnapshot {
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
        let tel = Telemetry::with_shards(1);
        let c = tel.counter("x.ops");
        let h = tel.histogram("x.size", &[10, 100]);
        let mut ts = TimeSeries::new(SeriesConfig {
            every: 1,
            capacity: 8,
        })
        .unwrap();

        c.inc(5);
        h.record(7);
        ts.tick(0, &tel.report());
        c.inc(3);
        h.record(50);
        h.record(500);
        ts.tick(1, &tel.report());
        c.inc(0);
        ts.tick(2, &tel.report());

        let frames: Vec<_> = ts.frames().collect();
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
    fn ring_is_bounded_and_reports_drops() {
        let tel = Telemetry::with_shards(1);
        let c = tel.counter("c");
        let mut ts = TimeSeries::new(SeriesConfig {
            every: 1,
            capacity: 2,
        })
        .unwrap();
        for round in 0..5 {
            c.inc(1);
            ts.tick(round, &tel.report());
        }
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.ticks(), 5);
        assert_eq!(ts.dropped(), 3);
        let rounds: Vec<_> = ts.frames().map(|f| f.round).collect();
        assert_eq!(rounds, vec![3, 4], "oldest frames fall off the front");
    }

    #[test]
    fn tick_cadence_matches_every() {
        let ts = TimeSeries::new(SeriesConfig {
            every: 4,
            capacity: 8,
        })
        .unwrap();
        let due: Vec<u64> = (0..12).filter(|&r| ts.tick_due(r)).collect();
        assert_eq!(due, vec![3, 7, 11]);
    }

    #[test]
    fn disabled_series_is_inert() {
        let mut ts = TimeSeries::disabled();
        assert!(!ts.is_enabled());
        assert!(!ts.tick_due(0));
        assert!(ts.tick(0, &TelemetryReport::default()).is_none());
        assert!(ts.is_empty());
        assert_eq!(
            ts.deterministic_json(),
            "{\"every\":0,\"ticks\":0,\"dropped\":0,\"frames\":[]}"
        );
    }

    #[test]
    fn deterministic_json_excludes_timing_scope() {
        let tel = Telemetry::with_shards(1);
        tel.counter("det.c").inc(1);
        tel.timing_counter("sched.steals").inc(9);
        tel.gauge("depth").set(3);
        tel.timing_histogram("lat", &[10]).record(4);
        let mut ts = TimeSeries::new(SeriesConfig::default()).unwrap();
        ts.tick(0, &tel.report());
        let det = ts.deterministic_json();
        assert!(det.contains("det.c"));
        assert!(!det.contains("steals") && !det.contains("depth") && !det.contains("lat"));
        let full = ts.to_json();
        assert!(full.contains("steals") && full.contains("depth") && full.contains("lat"));
        let csv = ts.to_csv();
        assert!(csv.contains("0,deterministic,counter,det.c,total,1\n"));
        assert!(csv.contains("0,timing,gauge,depth,last,3\n"));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(TimeSeries::new(SeriesConfig {
            every: 0,
            capacity: 4
        })
        .is_err());
        assert!(TimeSeries::new(SeriesConfig {
            every: 1,
            capacity: 0
        })
        .is_err());
    }
}
