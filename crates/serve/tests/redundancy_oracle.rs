//! Monte Carlo oracle for the joint controller's residual-loss model.
//!
//! `residual_block_loss(plr, burst, n, cap)` is a dynamic program over a
//! two-state Gilbert chain. The oracle shares no code with it: it runs
//! real RS-protected frames through the real netsim channel, a
//! `MarkovBurstErasure` with mean burst `B = burst` and mean guard
//! `G = B(1 − plr)/plr` (stationary loss `B/(B+G) = plr`), and counts a
//! block as failed exactly when `FecProtector::recover` does not report
//! it complete.
//!
//! Trials are independent: the chain is burned in to stationarity
//! before the first block, and each block is followed by a gap of
//! [`GAP`] unprotected packets. The chain's memory decays as
//! `|1 − 1/G − 1/B|^t`, at most `0.72^40 < 2e-6` at the points below,
//! so the failure count is binomial and the tolerance follows from the
//! trial count alone: [`Z`] standard errors of a binomial mean,
//! `Z·sqrt(p(1 − p)/TRIALS)` with `p` the DP's value.

use pbpair_netsim::{
    FecOps, FecProtector, FecSpec, LossyChannel, MarkovBurstErasure, Packet, Packetizer,
};
use pbpair_serve::redundancy::residual_block_loss;

/// Blocks simulated per point.
const TRIALS: usize = 40_000;
/// Unprotected packets between blocks, so consecutive blocks see
/// independent channel states.
const GAP: usize = 40;
/// Packets sent before the first block to reach the stationary state.
const BURN_IN: usize = 2_000;
/// Standard errors the Monte Carlo rate may sit from the DP: a seeded
/// run of a correct model lands outside with probability 6e-5.
const Z: f64 = 4.0;

/// Fraction of `TRIALS` RS{k, r} blocks that `recover` leaves
/// incomplete on the burst channel fitted to (`plr`, `burst`).
fn monte_carlo(plr: f64, burst: f64, k: usize, r: usize, seed: u64) -> f64 {
    let guard = burst * (1.0 - plr) / plr;
    let mut channel = LossyChannel::new(Box::new(MarkovBurstErasure::new(burst, guard, seed)));
    let fec = FecProtector::new(FecSpec::Rs { k, r }).unwrap();
    let mut packetizer = Packetizer::new(16);
    let filler = |n: usize| -> Vec<Packet> { Packetizer::new(1).packetize(0, &vec![0u8; n]) };
    let (burn_in, gap) = (filler(BURN_IN), filler(GAP));
    let _ = channel.transmit(&burn_in);
    let mut failed = 0usize;
    for trial in 0..TRIALS {
        // k fragments of one frame: exactly one block.
        let data: Vec<u8> = (0..16 * k).map(|i| (i + trial) as u8).collect();
        let sent = fec.protect(
            &packetizer.packetize(trial as u64, &data),
            &mut FecOps::default(),
        );
        assert_eq!(sent.len(), k + r);
        let survivors = channel.transmit(&sent);
        let complete = fec
            .recover(&survivors, &mut FecOps::default())
            .is_some_and(|rec| rec.complete);
        failed += usize::from(!complete);
        let _ = channel.transmit(&gap);
    }
    failed as f64 / TRIALS as f64
}

fn check(plr: f64, burst: f64, k: usize, r: usize, seed: u64) {
    let dp = residual_block_loss(plr, burst, k + r, r);
    let mc = monte_carlo(plr, burst, k, r, seed);
    let tolerance = Z * (dp * (1.0 - dp) / TRIALS as f64).sqrt();
    eprintln!("plr {plr} B {burst} RS{{{k},{r}}}: DP {dp:.5}, Monte Carlo {mc:.5}, tolerance {tolerance:.5}");
    assert!(
        (mc - dp).abs() <= tolerance,
        "plr {plr} B {burst} RS{{{k},{r}}}: DP {dp} vs Monte Carlo {mc} (tolerance {tolerance})"
    );
}

#[test]
fn dp_matches_monte_carlo_at_the_burst_fec_fleet_point() {
    // fleet-burst-fec: plr 0.125, B = 4 (G = 28), RS{8,2}.
    check(0.125, 4.0, 8, 2, 0xB0_0057);
}

#[test]
fn dp_matches_monte_carlo_on_isolated_erasures() {
    // B = 1: every burst is one packet long (G = 7).
    check(0.125, 1.0, 8, 2, 0x150_1A7E);
}
