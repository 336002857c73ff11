//! Zero-dependency observability for the PBPAIR reproduction.
//!
//! Every crate in the workspace measures itself through this one layer:
//! counters, fixed-bucket histograms, and per-stage spans. Two
//! properties drive the design:
//!
//! * **Determinism.** The paper's argument is quantitative (ME searches
//!   skipped, bits per frame, concealed macroblocks), so the primary
//!   measurement domain is *deterministic virtual units* — operations,
//!   bits, macroblocks, packets — never wall time. A [`TelemetryReport`]
//!   splits along that line: the deterministic section is a pure
//!   function of the workload configuration and serializes
//!   byte-identically no matter how many threads executed the run
//!   ([`TelemetryReport::deterministic_json`]); wall-clock measurements
//!   (span timings, scheduling counters, latency histograms) live in a
//!   separate timing section that is expected to vary.
//! * **Near-zero cost, exactly zero when off.** Handles are cheap
//!   clonable wrappers over one shared, cache-line-aligned atomic cell
//!   per metric; updates are lock-free relaxed atomics, and every layer
//!   flushes once per frame or call, so threads sharing a cell rarely
//!   meet on it. A handle minted from [`Telemetry::disabled`] carries
//!   no cells at all — every operation is an inlined `None` check, so
//!   instrumented hot loops stay within noise of uninstrumented ones
//!   (`perf --overhead`, in `pbpair-eval`, guards this).
//!
//! Locks are confined to metric *registration* (a `Mutex` around a
//! `BTreeMap`); the hot path — `inc`, `record`, `observe` — touches only
//! pre-resolved atomics.
//!
//! On top of the registry sits the live observability plane:
//! [`timeseries`] turns one report snapshot per round into round-indexed
//! delta frames (same deterministic/timing split),
//! [`slo`] evaluates burn-rate SLOs over those frames into
//! deterministic alert events, and [`expose`] serves the whole thing
//! over a std-only Prometheus scrape endpoint.
//!
//! # Quick start
//!
//! ```rust
//! use pbpair_telemetry::Telemetry;
//!
//! let tel = Telemetry::new();
//! let mbs = tel.counter("enc.mbs_intra");
//! let bits = tel.histogram("enc.frame_bits", &[1_000, 10_000, 100_000]);
//! mbs.inc(99);
//! bits.record(5_432);
//! let report = tel.report();
//! assert_eq!(report.counter("enc.mbs_intra"), 99);
//! assert!(report.deterministic_json().contains("\"enc.mbs_intra\":99"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod expose;
pub mod json;
mod report;
pub mod slo;
pub mod timeseries;

pub use report::{HistogramDelta, HistogramSnapshot, StageSnapshot, TelemetryReport};

/// A cache-line-aligned atomic cell. Each metric owns its own (a
/// histogram one row of them), so relaxed increments to different
/// metrics never contend on a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

impl PaddedU64 {
    #[inline]
    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram storage: `bounds` are inclusive upper bucket edges in
/// ascending order, with an implicit overflow bucket above the last.
struct HistogramCells {
    bounds: Box<[u64]>,
    /// `bounds.len() + 1` bucket counts, then count, then sum.
    cells: Box<[PaddedU64]>,
}

impl HistogramCells {
    fn new(bounds: &[u64]) -> Self {
        HistogramCells {
            bounds: bounds.into(),
            cells: (0..bounds.len() + 3)
                .map(|_| PaddedU64::default())
                .collect(),
        }
    }

    #[inline]
    fn record(&self, value: u64) {
        let n = self.bounds.len() + 1;
        self.cells[self.bounds.partition_point(|&b| b < value)].add(1);
        self.cells[n].add(1);
        self.cells[n + 1].add(value);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let n = self.bounds.len() + 1;
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self.cells[..n].iter().map(PaddedU64::get).collect(),
            count: self.cells[n].get(),
            sum: self.cells[n + 1].get(),
        }
    }
}

/// Per-stage cost accounting: invocations and deterministic virtual
/// units (ops / bits / macroblocks — the caller picks the unit and
/// documents it), plus the wall nanoseconds its spans took.
#[derive(Default)]
struct StageCells {
    calls: PaddedU64,
    units: PaddedU64,
    wall_ns: PaddedU64,
}

/// Registration state: name → shared cells. Touched only when a handle
/// is minted, never on the measurement path.
#[derive(Default)]
struct State {
    counters: BTreeMap<String, Arc<PaddedU64>>,
    timing_counters: BTreeMap<String, Arc<PaddedU64>>,
    histograms: BTreeMap<String, Arc<HistogramCells>>,
    timing_histograms: BTreeMap<String, Arc<HistogramCells>>,
    stages: BTreeMap<String, Arc<StageCells>>,
}

/// The telemetry context: a cheap, clonable handle to a shared metric
/// registry. Clones share the registry, so every thread may hold one.
///
/// A disabled context ([`Telemetry::disabled`]) mints no-op handles;
/// every measurement call on them is a branch on a `None`.
#[derive(Clone)]
pub struct Telemetry {
    registry: Option<Arc<Mutex<State>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.registry.is_some())
            .finish()
    }
}

impl Telemetry {
    /// An enabled context with an empty registry. Not `Default`:
    /// whether a context records is always spelled out, `new()` or
    /// [`Telemetry::disabled`].
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Telemetry {
            registry: Some(Arc::default()),
        }
    }

    /// The no-op context: handles minted from it measure nothing.
    pub fn disabled() -> Self {
        Telemetry { registry: None }
    }

    /// Whether this context records anything.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The cells registered under `name` in the map `pick` selects,
    /// made by `make` on first use; `None` when disabled.
    fn resolve<T>(
        &self,
        name: &str,
        pick: fn(&mut State) -> &mut BTreeMap<String, Arc<T>>,
        make: impl FnOnce() -> T,
    ) -> Option<Arc<T>> {
        self.registry.as_ref().map(|r| {
            let mut s = r.lock().expect("telemetry registry lock");
            Arc::clone(
                pick(&mut s)
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(make())),
            )
        })
    }

    /// Registers (or re-resolves) a deterministic counter. Counters may
    /// only ever be fed deterministic virtual units — ops, bits,
    /// macroblocks, packets — so their totals replay exactly.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.resolve(name, |s| &mut s.counters, PaddedU64::default),
        }
    }

    /// Registers a counter in the timing section — for totals that
    /// depend on scheduling (steals, contention events) and therefore
    /// must not participate in the determinism contract.
    pub fn timing_counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.resolve(name, |s| &mut s.timing_counters, PaddedU64::default),
        }
    }

    /// Registers a deterministic fixed-bucket histogram. `bounds` are
    /// inclusive upper edges in ascending order; values above the last
    /// edge land in an implicit overflow bucket. If the name is already
    /// registered, the existing bounds win.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            cells: self.resolve(name, |s| &mut s.histograms, || HistogramCells::new(bounds)),
        }
    }

    /// Registers a histogram in the timing section — for wall-clock
    /// domains like per-frame service latency.
    pub fn timing_histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            cells: self.resolve(
                name,
                |s| &mut s.timing_histograms,
                || HistogramCells::new(bounds),
            ),
        }
    }

    /// Registers a pipeline stage for span accounting. Invocations and
    /// virtual units are deterministic; the wall time its spans take
    /// goes to the timing section.
    pub fn stage(&self, name: &str) -> Stage {
        Stage {
            cells: self.resolve(name, |s| &mut s.stages, StageCells::default),
        }
    }

    /// Snapshots every metric into a report. Safe to call while other
    /// threads keep measuring; each cell is read once, relaxed.
    pub fn report(&self) -> TelemetryReport {
        let mut out = TelemetryReport::default();
        let Some(r) = &self.registry else {
            return out;
        };
        let s = r.lock().expect("telemetry registry lock");
        for (name, c) in &s.counters {
            out.counters.insert(name.clone(), c.get());
        }
        for (name, c) in &s.timing_counters {
            out.timing_counters.insert(name.clone(), c.get());
        }
        for (name, h) in &s.histograms {
            out.histograms.insert(name.clone(), h.snapshot());
        }
        for (name, h) in &s.timing_histograms {
            out.timing_histograms.insert(name.clone(), h.snapshot());
        }
        for (name, st) in &s.stages {
            out.stages.insert(
                name.clone(),
                StageSnapshot {
                    calls: st.calls.get(),
                    units: st.units.get(),
                    wall_ns: st.wall_ns.get(),
                },
            );
        }
        out
    }
}

macro_rules! handle_debug {
    ($ty:ident, $field:ident) => {
        impl std::fmt::Debug for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($ty))
                    .field("enabled", &self.$field.is_some())
                    .finish()
            }
        }
    };
}

handle_debug!(Counter, cell);
handle_debug!(Histogram, cells);
handle_debug!(Stage, cells);
handle_debug!(Span, cells);

/// A monotonically increasing total of deterministic units (or, when
/// registered via [`Telemetry::timing_counter`], scheduling events).
#[derive(Clone)]
pub struct Counter {
    cell: Option<Arc<PaddedU64>>,
}

impl Counter {
    /// Adds `n` to the counter. No-op on disabled handles.
    #[inline]
    pub fn inc(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.add(n);
        }
    }
}

/// A fixed-bucket histogram handle.
#[derive(Clone)]
pub struct Histogram {
    cells: Option<Arc<HistogramCells>>,
}

impl Histogram {
    /// Records one observation. No-op on disabled handles.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cells) = &self.cells {
            cells.record(value);
        }
    }
}

/// A pipeline stage handle; every invocation is a [`Span`] spawned
/// from it.
#[derive(Clone)]
pub struct Stage {
    cells: Option<Arc<StageCells>>,
}

impl Stage {
    /// Opens a span over this stage. The span records one invocation
    /// and its elapsed wall time on drop.
    #[inline]
    pub fn span(&self) -> Span {
        Span {
            cells: self.cells.as_ref().map(|c| (Arc::clone(c), Instant::now())),
            units: 0,
        }
    }
}

/// An in-flight measurement of one stage invocation. Accumulate virtual
/// units with [`Span::add_units`]; the drop commits calls, units, and
/// wall nanoseconds.
pub struct Span {
    cells: Option<(Arc<StageCells>, Instant)>,
    units: u64,
}

impl Span {
    /// Adds deterministic virtual units to this invocation's cost.
    #[inline]
    pub fn add_units(&mut self, units: u64) {
        self.units += units;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((cells, start)) = &self.cells {
            cells.calls.add(1);
            cells.units.add(self.units);
            cells.wall_ns.add(start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_sum_across_threads() {
        let tel = Telemetry::new();
        let ops = tel.counter("t.ops");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = ops.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc(3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tel.report().counter("t.ops"), 12_000);
    }

    #[test]
    fn disabled_context_measures_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter("x").inc(5);
        tel.histogram("h", &[10]).record(3);
        tel.stage("s").span().add_units(9);
        let report = tel.report();
        assert!(report.counters.is_empty());
        assert!(report.is_empty());
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_edges() {
        let tel = Telemetry::new();
        let h = tel.histogram("h", &[10, 100]);
        for v in [0, 10, 11, 100, 101, 5_000] {
            h.record(v);
        }
        let snap = &tel.report().histograms["h"];
        assert_eq!(snap.counts, vec![2, 2, 2]);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 10 + 11 + 100 + 101 + 5_000);
    }

    #[test]
    fn same_name_resolves_to_same_cells() {
        let tel = Telemetry::new();
        tel.counter("dup").inc(1);
        tel.clone().counter("dup").inc(2);
        assert_eq!(tel.report().counter("dup"), 3);
    }

    #[test]
    fn spans_accumulate_units() {
        let tel = Telemetry::new();
        let stage = tel.stage("encode");
        {
            let mut span = stage.span();
            span.add_units(100);
            span.add_units(23);
        }
        stage.span().add_units(7);
        let snap = &tel.report().stages["encode"];
        assert_eq!(snap.calls, 2);
        assert_eq!(snap.units, 130);
    }

    #[test]
    fn every_span_records_wall_time() {
        let tel = Telemetry::new();
        let stage = tel.stage("s");
        {
            let mut span = stage.span();
            span.add_units(1);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = &tel.report().stages["s"];
        assert!(snap.wall_ns > 0, "a span must record its time");
        // But the deterministic export never mentions wall time.
        assert!(!tel.report().deterministic_json().contains("wall"));
    }

    #[test]
    fn timing_metrics_stay_out_of_the_deterministic_export() {
        let tel = Telemetry::new();
        tel.counter("det.c").inc(1);
        tel.timing_counter("sched.steals").inc(4);
        tel.timing_histogram("lat_ms", &[1, 10]).record(3);
        let det = tel.report().deterministic_json();
        assert!(det.contains("det.c"));
        assert!(!det.contains("steals"));
        assert!(!det.contains("lat_ms"));
        let full = tel.report().to_json();
        assert!(full.contains("steals") && full.contains("lat_ms"));
    }
}
