//! Property tests of the telemetry aggregation. The whole determinism
//! story rests on aggregation being order-insensitive: the registry
//! sums each metric's per-shard cells, so *which* shard or worker
//! observed an event must not leak into the report. Each shard test
//! sprays a stream across arbitrary shards and compares the report with
//! a single-shard registry that saw the same stream.

use pbpair_telemetry::{HistogramSnapshot, Telemetry};
use proptest::prelude::*;

const BOUNDS: &[u64] = &[4, 16, 64, 256, 1024];

/// Builds a snapshot by recording `values` through a real registry.
fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let tel = Telemetry::with_shards(1);
    let h = tel.histogram("h", BOUNDS);
    for &v in values {
        h.record(v);
    }
    tel.report().histograms["h"].clone()
}

proptest! {
    #[test]
    fn counter_totals_are_shard_insensitive(
        increments in prop::collection::vec((0usize..8, 1u64..1000), 0..200),
        shards in 1usize..8,
    ) {
        // Spraying increments across arbitrary shards must produce the
        // same total as a single-shard registry seeing the same stream.
        let sharded = Telemetry::with_shards(shards);
        let flat = Telemetry::with_shards(1);
        for &(shard, n) in &increments {
            sharded.shard(shard).counter("c").inc(n);
            flat.counter("c").inc(n);
        }
        prop_assert_eq!(
            sharded.report().counter("c"),
            flat.report().counter("c")
        );
    }

    #[test]
    fn histogram_totals_are_shard_insensitive(
        observations in prop::collection::vec((0usize..8, 0u64..5000), 0..200),
        shards in 1usize..8,
    ) {
        // Registered up front on both registries, so an empty draw still
        // reports the (empty) histogram on each side.
        let sharded = Telemetry::with_shards(shards);
        let flat = Telemetry::with_shards(1);
        sharded.histogram("h", BOUNDS);
        flat.histogram("h", BOUNDS);
        for &(shard, v) in &observations {
            sharded.shard(shard).histogram("h", BOUNDS).record(v);
            flat.histogram("h", BOUNDS).record(v);
        }
        prop_assert_eq!(
            &sharded.report().histograms["h"],
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
