//! Property-based tests of the network simulator.

use pbpair_netsim::loss::{GilbertElliott, LossModel, ScriptedLoss, UniformLoss};
use pbpair_netsim::rtp::{reassemble_frame, Packetizer};
use pbpair_netsim::{
    reassemble_frame_damaged, Corrupter, CorruptionProfile, LossyChannel, MarkovBurstErasure,
    NoLoss, WindowPlrEstimator,
};
use proptest::prelude::*;

/// Empirical loss rate and mean erasure-burst length over `n` packets.
fn observe(model: &mut dyn LossModel, n: u64) -> (f64, f64) {
    let mut lost = 0u64;
    let mut burst_total = 0u64;
    let mut burst_count = 0u64;
    let mut run = 0u64;
    for _ in 0..n {
        if model.next_lost() {
            lost += 1;
            run += 1;
        } else if run > 0 {
            burst_total += run;
            burst_count += 1;
            run = 0;
        }
    }
    let mean_burst = if burst_count == 0 {
        0.0
    } else {
        burst_total as f64 / burst_count as f64
    };
    (lost as f64 / n as f64, mean_burst)
}

proptest! {
    #[test]
    fn reorder_and_duplicate_round_trip_preserves_payload(
        data in prop::collection::vec(any::<u8>(), 1..4000),
        mtu in 1usize..1600,
        duplicate_prob in 0.0f64..=1.0,
        reorder_prob in 0.0f64..=1.0,
        seed in any::<u64>()
    ) {
        // Duplication and reordering are non-destructive transport
        // damage: fragment indices still identify every payload byte, so
        // best-effort reassembly must reproduce the frame exactly,
        // in order, for every packet size.
        let mut p = Packetizer::new(mtu);
        let pkts = p.packetize(7, &data);
        let mut corrupter = Corrupter::new(
            CorruptionProfile {
                duplicate_prob,
                reorder_prob,
                ..CorruptionProfile::clean()
            },
            seed,
        );
        let mut delivered = pkts.clone();
        corrupter.corrupt_stream(&mut delivered);
        prop_assert!(delivered.len() >= pkts.len(), "nothing is dropped");
        prop_assert_eq!(
            reassemble_frame_damaged(&delivered).unwrap(),
            data
        );
    }

    #[test]
    fn packetize_reassemble_identity(
        data in prop::collection::vec(any::<u8>(), 1..5000),
        mtu in 1usize..2000,
        frame_index in any::<u64>()
    ) {
        let mut p = Packetizer::new(mtu);
        let pkts = p.packetize(frame_index, &data);
        prop_assert_eq!(pkts.len(), data.len().div_ceil(mtu));
        for pkt in &pkts {
            prop_assert!(pkt.len() <= mtu);
            prop_assert_eq!(pkt.frame_index, frame_index);
        }
        prop_assert_eq!(reassemble_frame(&pkts).unwrap(), data);
    }

    #[test]
    fn reassembly_is_permutation_invariant(
        data in prop::collection::vec(any::<u8>(), 100..2000),
        order_seed in any::<u64>()
    ) {
        let mut p = Packetizer::new(97);
        let mut pkts = p.packetize(0, &data);
        // Deterministic shuffle from the seed.
        let mut s = order_seed;
        for i in (1..pkts.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s % (i as u64 + 1)) as usize;
            pkts.swap(i, j);
        }
        prop_assert_eq!(reassemble_frame(&pkts).unwrap(), data);
    }

    #[test]
    fn dropping_any_fragment_fails_reassembly(
        data in prop::collection::vec(any::<u8>(), 200..2000),
        victim_seed in any::<u64>()
    ) {
        let mut p = Packetizer::new(89);
        let mut pkts = p.packetize(0, &data);
        prop_assume!(pkts.len() >= 2);
        let victim = (victim_seed % pkts.len() as u64) as usize;
        pkts.remove(victim);
        prop_assert!(reassemble_frame(&pkts).is_none());
    }

    #[test]
    fn uniform_loss_rate_statistics(rate in 0.0f64..=1.0, seed in any::<u64>()) {
        let mut m = UniformLoss::new(rate, seed);
        let n = 20_000;
        let lost = (0..n).filter(|_| m.next_lost()).count() as f64 / n as f64;
        prop_assert!((lost - rate).abs() < 0.02, "observed {} target {}", lost, rate);
    }

    #[test]
    fn loss_models_are_deterministic_per_seed(
        rate in 0.0f64..=1.0,
        seed in any::<u64>(),
        n in 1usize..500
    ) {
        let mut a = UniformLoss::new(rate, seed);
        let mut b = UniformLoss::new(rate, seed);
        let first: Vec<bool> = (0..n).map(|_| a.next_lost()).collect();
        let second: Vec<bool> = (0..n).map(|_| b.next_lost()).collect();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn gilbert_elliott_steady_state_within_tolerance(
        p_gb in 0.01f64..=0.5,
        p_bg in 0.01f64..=0.5,
        loss_bad in 0.1f64..=1.0,
        seed in any::<u64>()
    ) {
        let mut m = GilbertElliott::new(p_gb, p_bg, 0.0, loss_bad, seed);
        let expected = m.steady_state_loss();
        let n = 60_000;
        let observed = (0..n).filter(|_| m.next_lost()).count() as f64 / n as f64;
        prop_assert!(
            (observed - expected).abs() < 0.03,
            "observed {} vs steady {}",
            observed,
            expected
        );
    }

    #[test]
    fn burst_erasure_converges_to_stationary_rate_and_burst_length(
        burst_len in 1.5f64..=12.0,
        guard_ratio in 3.0f64..=40.0,
        seed in any::<u64>()
    ) {
        // The (B, G) parameterization must mean what it says over a long
        // seeded run: loss rate → B/(B+G) and mean erasure burst → B.
        let guard_len = burst_len * guard_ratio;
        let mut m = MarkovBurstErasure::new(burst_len, guard_len, seed);
        let expected = m.stationary_loss_rate();
        let (rate, mean_burst) = observe(&mut m, 300_000);
        prop_assert!(
            (rate - expected).abs() < 0.015 + 0.1 * expected,
            "observed rate {} vs stationary {}",
            rate,
            expected
        );
        prop_assert!(
            (mean_burst - burst_len).abs() < 0.05 + 0.12 * burst_len,
            "observed mean burst {} vs configured {}",
            mean_burst,
            burst_len
        );
    }

    #[test]
    fn gilbert_elliott_converges_to_stationary_burst_length(
        p_gb in 0.005f64..=0.05,
        p_bg in 0.1f64..=0.6,
        seed in any::<u64>()
    ) {
        // With loss_bad = 1 and loss_good = 0, an erasure burst is
        // exactly one Bad sojourn, so its mean length must converge to
        // 1/p_bg — the GE counterpart of the Markov (B, G) contract.
        let mut m = GilbertElliott::new(p_gb, p_bg, 0.0, 1.0, seed);
        let expected_rate = m.steady_state_loss();
        let expected_burst = 1.0 / p_bg;
        let (rate, mean_burst) = observe(&mut m, 300_000);
        prop_assert!(
            (rate - expected_rate).abs() < 0.01 + 0.1 * expected_rate,
            "observed rate {} vs stationary {}",
            rate,
            expected_rate
        );
        prop_assert!(
            (mean_burst - expected_burst).abs() < 0.05 + 0.15 * expected_burst,
            "observed mean burst {} vs stationary {}",
            mean_burst,
            expected_burst
        );
    }

    #[test]
    fn channel_conserves_packets(
        sizes in prop::collection::vec(1usize..4000, 1..50),
        seed in any::<u64>()
    ) {
        let mut chan = LossyChannel::new(Box::new(UniformLoss::new(0.3, seed)));
        let mut p = Packetizer::new(500);
        let (mut offered, mut delivered, mut delivered_bytes) = (0u64, 0u64, 0u64);
        for (i, size) in sizes.iter().enumerate() {
            let data = vec![i as u8; *size];
            let sent = p.packetize(i as u64, &data);
            let survivors = chan.transmit(&sent);
            // One fate per offered packet; the survivors are exactly the
            // packets the record keeps.
            prop_assert_eq!(chan.lost().len(), sent.len());
            let kept: Vec<&_> = sent
                .iter()
                .zip(chan.lost())
                .filter_map(|(p, &lost)| (!lost).then_some(p))
                .collect();
            prop_assert_eq!(kept, survivors.iter().collect::<Vec<_>>());
            offered += sent.len() as u64;
            delivered += survivors.len() as u64;
            delivered_bytes += survivors.iter().map(|p| p.len() as u64).sum::<u64>();
        }
        let s = chan.stats();
        prop_assert_eq!(s.packets_sent, offered);
        prop_assert_eq!(s.packets_sent - s.packets_lost, delivered);
        prop_assert_eq!(s.bytes_sent - s.bytes_lost, delivered_bytes);
        prop_assert_eq!(s.bytes_sent, sizes.iter().map(|&n| n as u64).sum::<u64>());
    }

    #[test]
    fn scripted_loss_hits_exactly_the_script(indices in prop::collection::btree_set(0u64..200, 0..50)) {
        let mut m = ScriptedLoss::new(indices.iter().copied());
        for i in 0..200u64 {
            prop_assert_eq!(m.next_lost(), indices.contains(&i));
        }
    }

    #[test]
    fn lossless_channel_is_identity(data in prop::collection::vec(any::<u8>(), 1..3000)) {
        let mut chan = LossyChannel::new(Box::new(NoLoss));
        let mut p = Packetizer::new(333);
        let got = chan.transmit_frame_atomic(&p.packetize(0, &data)).unwrap();
        prop_assert_eq!(got, data);
    }

    #[test]
    fn window_estimator_matches_brute_force_recount(
        outcomes in prop::collection::vec(any::<bool>(), 0..400),
        window in 1usize..64
    ) {
        // The incremental bookkeeping (pop-front decrement / push-back
        // increment) must agree with recounting the raw suffix at every
        // single step, not just at the end.
        let mut est = WindowPlrEstimator::new(window);
        for i in 0..outcomes.len() {
            est.record(outcomes[i]);
            let tail = &outcomes[i.saturating_sub(window - 1)..=i];
            let expected = tail.iter().filter(|&&l| l).count() as f64 / tail.len() as f64;
            prop_assert_eq!(est.observations(), tail.len());
            prop_assert!(
                (est.estimate() - expected).abs() < 1e-12,
                "step {}: incremental {} vs recount {}",
                i,
                est.estimate(),
                expected
            );
        }
        if outcomes.is_empty() {
            prop_assert_eq!(est.estimate(), 0.0);
        }
    }
}
