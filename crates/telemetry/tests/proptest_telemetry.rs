//! Property tests of the telemetry aggregation. The whole determinism
//! story rests on aggregation being order-insensitive: every handle to a
//! metric, whichever clone of the context minted it, adds into the one
//! cell the registry keeps for that name, so *which* handle or worker
//! observed an event must not leak into the report. Each handle test
//! sprays a stream across handles minted from separate clones and
//! compares the report with a single handle that saw the same stream.

use pbpair_telemetry::{HistogramSnapshot, Telemetry};
use proptest::prelude::*;

const BOUNDS: &[u64] = &[4, 16, 64, 256, 1024];

/// Builds a snapshot by recording `values` through a real registry.
fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let tel = Telemetry::new();
    let h = tel.histogram("h", BOUNDS);
    for &v in values {
        h.record(v);
    }
    tel.report().histograms["h"].clone()
}

/// How many clones of one context the handle tests spray across.
const HANDLES: usize = 8;

proptest! {
    #[test]
    fn counter_totals_are_handle_insensitive(
        increments in prop::collection::vec((0usize..HANDLES, 1u64..1000), 0..200),
    ) {
        // Spraying increments across handles minted from arbitrary
        // clones must produce the same total as a single handle on
        // another registry seeing the same stream.
        let sprayed = Telemetry::new();
        let handles: Vec<_> = (0..HANDLES).map(|_| sprayed.clone().counter("c")).collect();
        let flat = Telemetry::new();
        let single = flat.counter("c");
        for &(i, n) in &increments {
            handles[i].inc(n);
            single.inc(n);
        }
        prop_assert_eq!(
            sprayed.report().counter("c"),
            flat.report().counter("c")
        );
    }

    #[test]
    fn histogram_totals_are_handle_insensitive(
        observations in prop::collection::vec((0usize..HANDLES, 0u64..5000), 0..200),
    ) {
        // Registered up front on both registries, so an empty draw still
        // reports the (empty) histogram on each side.
        let sprayed = Telemetry::new();
        let handles: Vec<_> = (0..HANDLES)
            .map(|_| sprayed.clone().histogram("h", BOUNDS))
            .collect();
        let flat = Telemetry::new();
        let single = flat.histogram("h", BOUNDS);
        for &(i, v) in &observations {
            handles[i].record(v);
            single.record(v);
        }
        prop_assert_eq!(
            &sprayed.report().histograms["h"],
            &flat.report().histograms["h"]
        );
    }

    #[test]
    fn histogram_count_and_sum_track_observations(
        values in prop::collection::vec(0u64..10_000, 0..200),
    ) {
        let s = snapshot_of(&values);
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.sum, values.iter().sum::<u64>());
        prop_assert_eq!(s.counts.iter().sum::<u64>(), s.count);
    }
}
