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
//!   clonable wrappers over shared atomic cells; updates are lock-free
//!   relaxed atomics, sharded per worker thread so the serve pool's
//!   counters never bounce a cache line. A handle minted from
//!   [`Telemetry::disabled`] carries no cells at all — every operation
//!   is an inlined `None` check, so instrumented hot loops stay within
//!   noise of uninstrumented ones (`perf --overhead`, in `pbpair-eval`,
//!   guards this).
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
//! let tel = Telemetry::with_shards(4); // e.g. one shard per worker
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

/// A cache-line-padded atomic cell: one per shard per metric, so relaxed
/// increments from different worker threads never contend on a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Per-metric sharded cells. The metric's value is the sum over shards —
/// addition commutes, so totals are independent of which thread bumped
/// which shard in which order.
struct Cells {
    shards: Box<[PaddedU64]>,
}

impl Cells {
    fn new(shards: usize) -> Self {
        Cells {
            shards: (0..shards).map(|_| PaddedU64::default()).collect(),
        }
    }

    #[inline]
    fn add(&self, shard: usize, n: u64) {
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Sharded histogram storage: `bounds` are inclusive upper bucket edges
/// in ascending order, with an implicit overflow bucket above the last.
struct HistogramCells {
    bounds: Box<[u64]>,
    /// Per shard: `bounds.len() + 1` bucket counts, then count, then sum.
    shards: Box<[Box<[PaddedU64]>]>,
}

impl HistogramCells {
    fn new(bounds: &[u64], shards: usize) -> Self {
        let width = bounds.len() + 3;
        HistogramCells {
            bounds: bounds.into(),
            shards: (0..shards)
                .map(|_| (0..width).map(|_| PaddedU64::default()).collect())
                .collect(),
        }
    }

    #[inline]
    fn record(&self, shard: usize, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        let cells = &self.shards[shard];
        cells[idx].0.fetch_add(1, Ordering::Relaxed);
        cells[self.bounds.len() + 1]
            .0
            .fetch_add(1, Ordering::Relaxed);
        cells[self.bounds.len() + 2]
            .0
            .fetch_add(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let n = self.bounds.len() + 1;
        let mut counts = vec![0u64; n];
        let mut count = 0u64;
        let mut sum = 0u64;
        for shard in self.shards.iter() {
            for (i, c) in counts.iter_mut().enumerate() {
                *c += shard[i].0.load(Ordering::Relaxed);
            }
            count += shard[n].0.load(Ordering::Relaxed);
            sum += shard[n + 1].0.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts,
            count,
            sum,
        }
    }
}

/// Per-stage cost accounting: invocations and deterministic virtual
/// units (ops / bits / macroblocks — the caller picks the unit and
/// documents it), plus wall nanoseconds when the registry collects wall
/// clock.
struct StageCells {
    calls: Cells,
    units: Cells,
    wall_ns: Cells,
}

/// Registration state: name → shared cells. Touched only when a handle
/// is minted, never on the measurement path.
#[derive(Default)]
struct State {
    counters: BTreeMap<String, Arc<Cells>>,
    timing_counters: BTreeMap<String, Arc<Cells>>,
    histograms: BTreeMap<String, Arc<HistogramCells>>,
    timing_histograms: BTreeMap<String, Arc<HistogramCells>>,
    stages: BTreeMap<String, Arc<StageCells>>,
}

struct Registry {
    shards: usize,
    wall_clock: bool,
    state: Mutex<State>,
}

/// The telemetry context: a cheap, clonable handle to a shared metric
/// registry, carrying the shard index its handles will write to.
///
/// A disabled context ([`Telemetry::disabled`]) mints no-op handles;
/// every measurement call on them is a branch on a `None`.
#[derive(Clone)]
pub struct Telemetry {
    registry: Option<Arc<Registry>>,
    shard: usize,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.registry.is_some())
            .field("shard", &self.shard)
            .finish()
    }
}

impl Default for Telemetry {
    /// Single-shard enabled context without wall-clock collection.
    fn default() -> Self {
        Telemetry::with_shards(1)
    }
}

impl Telemetry {
    /// An enabled context with `shards` independent write lanes per
    /// metric (use one per worker thread) and no wall-clock collection —
    /// the fully deterministic mode.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(shards: usize) -> Self {
        Telemetry::with_config(shards, false)
    }

    /// An enabled context; `wall_clock` additionally records span wall
    /// times into the report's timing section. Deterministic output is
    /// unaffected either way.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_config(shards: usize, wall_clock: bool) -> Self {
        assert!(shards > 0, "telemetry needs at least one shard");
        Telemetry {
            registry: Some(Arc::new(Registry {
                shards,
                wall_clock,
                state: Mutex::new(State::default()),
            })),
            shard: 0,
        }
    }

    /// The no-op context: handles minted from it measure nothing.
    pub fn disabled() -> Self {
        Telemetry {
            registry: None,
            shard: 0,
        }
    }

    /// Whether this context records anything.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// A context writing to shard `idx % shards` of the same registry.
    /// Hand one to each worker thread.
    pub fn shard(&self, idx: usize) -> Telemetry {
        match &self.registry {
            Some(r) => Telemetry {
                shard: idx % r.shards,
                registry: Some(Arc::clone(r)),
            },
            None => Telemetry::disabled(),
        }
    }

    /// Registers (or re-resolves) a deterministic counter. Counters may
    /// only ever be fed deterministic virtual units — ops, bits,
    /// macroblocks, packets — so their totals replay exactly.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cells: self.registry.as_ref().map(|r| {
                let mut s = r.state.lock().expect("telemetry registry lock");
                let cells = s
                    .counters
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(Cells::new(r.shards)));
                (Arc::clone(cells), self.shard)
            }),
        }
    }

    /// Registers a counter in the timing section — for totals that
    /// depend on scheduling (steals, contention events) and therefore
    /// must not participate in the determinism contract.
    pub fn timing_counter(&self, name: &str) -> Counter {
        Counter {
            cells: self.registry.as_ref().map(|r| {
                let mut s = r.state.lock().expect("telemetry registry lock");
                let cells = s
                    .timing_counters
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(Cells::new(r.shards)));
                (Arc::clone(cells), self.shard)
            }),
        }
    }

    /// Registers a deterministic fixed-bucket histogram. `bounds` are
    /// inclusive upper edges in ascending order; values above the last
    /// edge land in an implicit overflow bucket. If the name is already
    /// registered, the existing bounds win.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            cells: self.registry.as_ref().map(|r| {
                let mut s = r.state.lock().expect("telemetry registry lock");
                let cells = s
                    .histograms
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCells::new(bounds, r.shards)));
                (Arc::clone(cells), self.shard)
            }),
        }
    }

    /// Registers a histogram in the timing section — for wall-clock
    /// domains like per-frame service latency.
    pub fn timing_histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            cells: self.registry.as_ref().map(|r| {
                let mut s = r.state.lock().expect("telemetry registry lock");
                let cells = s
                    .timing_histograms
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCells::new(bounds, r.shards)));
                (Arc::clone(cells), self.shard)
            }),
        }
    }

    /// Registers a pipeline stage for span accounting. Invocations and
    /// virtual units are deterministic; wall time is collected only when
    /// the registry was built with `wall_clock = true`.
    pub fn stage(&self, name: &str) -> Stage {
        Stage {
            cells: self.registry.as_ref().map(|r| {
                let mut s = r.state.lock().expect("telemetry registry lock");
                let cells = s.stages.entry(name.to_string()).or_insert_with(|| {
                    Arc::new(StageCells {
                        calls: Cells::new(r.shards),
                        units: Cells::new(r.shards),
                        wall_ns: Cells::new(r.shards),
                    })
                });
                (Arc::clone(cells), self.shard, r.wall_clock)
            }),
        }
    }

    /// Snapshots every metric into a report. Safe to call while other
    /// threads keep measuring; each cell is read once, relaxed.
    pub fn report(&self) -> TelemetryReport {
        let mut out = TelemetryReport::default();
        let Some(r) = &self.registry else {
            return out;
        };
        let s = r.state.lock().expect("telemetry registry lock");
        for (name, c) in &s.counters {
            out.counters.insert(name.clone(), c.total());
        }
        for (name, c) in &s.timing_counters {
            out.timing_counters.insert(name.clone(), c.total());
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
                    calls: st.calls.total(),
                    units: st.units.total(),
                    wall_ns: st.wall_ns.total(),
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

handle_debug!(Counter, cells);
handle_debug!(Histogram, cells);
handle_debug!(Stage, cells);
handle_debug!(Span, cells);

/// A monotonically increasing total of deterministic units (or, when
/// registered via [`Telemetry::timing_counter`], scheduling events).
#[derive(Clone)]
pub struct Counter {
    cells: Option<(Arc<Cells>, usize)>,
}

impl Counter {
    /// Adds `n` to the counter. No-op on disabled handles.
    #[inline]
    pub fn inc(&self, n: u64) {
        if let Some((cells, shard)) = &self.cells {
            cells.add(*shard, n);
        }
    }
}

/// A fixed-bucket histogram handle.
#[derive(Clone)]
pub struct Histogram {
    cells: Option<(Arc<HistogramCells>, usize)>,
}

impl Histogram {
    /// Records one observation. No-op on disabled handles.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some((cells, shard)) = &self.cells {
            cells.record(*shard, value);
        }
    }
}

/// A pipeline stage handle; spawn [`Span`]s from it or record costs
/// directly.
#[derive(Clone)]
pub struct Stage {
    cells: Option<(Arc<StageCells>, usize, bool)>,
}

impl Stage {
    /// Records one invocation costing `units` deterministic virtual
    /// units, without wall-clock measurement.
    #[inline]
    pub fn record(&self, units: u64) {
        if let Some((cells, shard, _)) = &self.cells {
            cells.calls.add(*shard, 1);
            cells.units.add(*shard, units);
        }
    }

    /// Opens a span over this stage. The span records one invocation on
    /// drop, plus elapsed wall time when the registry collects it.
    #[inline]
    pub fn span(&self) -> Span {
        Span {
            cells: self.cells.as_ref().map(|(c, shard, wall)| {
                (
                    Arc::clone(c),
                    *shard,
                    if *wall { Some(Instant::now()) } else { None },
                )
            }),
            units: 0,
        }
    }
}

/// An in-flight measurement of one stage invocation. Accumulate virtual
/// units with [`Span::add_units`]; the drop commits calls, units, and
/// (optionally) wall nanoseconds.
pub struct Span {
    cells: Option<(Arc<StageCells>, usize, Option<Instant>)>,
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
        if let Some((cells, shard, start)) = &self.cells {
            cells.calls.add(*shard, 1);
            cells.units.add(*shard, self.units);
            if let Some(start) = start {
                cells.wall_ns.add(*shard, start.elapsed().as_nanos() as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_sum_across_shards_and_threads() {
        let tel = Telemetry::with_shards(4);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let shard = tel.shard(i);
                thread::spawn(move || {
                    let c = shard.counter("t.ops");
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
        tel.stage("s").record(9);
        let report = tel.report();
        assert!(report.counters.is_empty());
        assert!(report.is_empty());
        // Sharding a disabled context stays disabled.
        assert!(!tel.shard(3).is_enabled());
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_edges() {
        let tel = Telemetry::with_shards(1);
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
        let tel = Telemetry::with_shards(2);
        tel.counter("dup").inc(1);
        tel.shard(1).counter("dup").inc(2);
        assert_eq!(tel.report().counter("dup"), 3);
    }

    #[test]
    fn spans_accumulate_units_without_wall_clock_by_default() {
        let tel = Telemetry::with_shards(1);
        let stage = tel.stage("encode");
        {
            let mut span = stage.span();
            span.add_units(100);
            span.add_units(23);
        }
        stage.record(7);
        let snap = &tel.report().stages["encode"];
        assert_eq!(snap.calls, 2);
        assert_eq!(snap.units, 130);
        assert_eq!(snap.wall_ns, 0, "wall clock off by default");
    }

    #[test]
    fn wall_clock_mode_records_span_time() {
        let tel = Telemetry::with_config(1, true);
        let stage = tel.stage("s");
        {
            let mut span = stage.span();
            span.add_units(1);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = &tel.report().stages["s"];
        assert!(snap.wall_ns > 0, "wall clock on must record time");
        // But the deterministic export never mentions wall time.
        assert!(!tel.report().deterministic_json().contains("wall"));
    }

    #[test]
    fn timing_metrics_stay_out_of_the_deterministic_export() {
        let tel = Telemetry::with_shards(1);
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

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Telemetry::with_shards(0);
    }
}
