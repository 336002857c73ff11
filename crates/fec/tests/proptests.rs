//! Property and statistical tests for the FEC family.
//!
//! Three legs, mirroring the crate's correctness story:
//!
//! 1. Reed-Solomon is MDS: over random blocks, decode succeeds for
//!    *every* erasure pattern of weight ≤ r and fails cleanly for every
//!    pattern of weight > r — the pattern set is enumerated exhaustively
//!    per case, not sampled.
//! 2. LT is a fountain: decode success is probabilistic, rising with
//!    repair overhead. 1 000 seeded trials per operating point pin the
//!    success-rate ordering and floor.
//! 3. GF(256) table arithmetic agrees with the O(bits²) shift-and-reduce
//!    reference on random operands (the in-crate unit tests already do
//!    this exhaustively; the property form documents the contract).

use pbpair_fec::gf256;
use pbpair_fec::{FecCodec, FecOps, FecSpec, LtCodec, ReedSolomon};
use proptest::prelude::*;

fn random_block(seed: u64, k: usize, len: usize) -> Vec<Vec<u8>> {
    // Small deterministic generator; content is irrelevant to the
    // algebra, it just must be uneven enough to catch index mixups.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..k)
        .map(|_| (0..len).map(|_| next() as u8).collect())
        .collect()
}

fn protect(codec: &dyn FecCodec, data: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
    let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
    let mut ops = FecOps::default();
    let parity = codec.encode(&refs, &mut ops);
    data.iter()
        .cloned()
        .map(Some)
        .chain(parity.into_iter().map(Some))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MDS property, exhaustive over erasure patterns: for random
    /// (k, r, payload), every pattern with ≤ r erasures round-trips and
    /// every pattern with > r erasures is refused without touching the
    /// surviving shards.
    #[test]
    fn rs_decodes_exactly_the_patterns_within_capability(
        k in 1usize..=7,
        r in 1usize..=4,
        len in 1usize..=48,
        seed in any::<u64>()
    ) {
        let codec = ReedSolomon::new(k, r).unwrap();
        let data = random_block(seed, k, len);
        let pristine = protect(&codec, &data);
        let n = k + r;
        for mask in 0u32..(1 << n) {
            let erased = mask.count_ones() as usize;
            let mut shards = pristine.clone();
            for (i, slot) in shards.iter_mut().enumerate() {
                if mask & (1 << i) != 0 {
                    *slot = None;
                }
            }
            let mut ops = FecOps::default();
            let ok = codec.decode(&mut shards, &mut ops);
            prop_assert_eq!(
                ok,
                erased <= r,
                "k={} r={} mask={:#b}", k, r, mask
            );
            if ok {
                for i in 0..k {
                    prop_assert_eq!(shards[i].as_deref(), Some(&data[i][..]));
                }
            } else {
                // Clean failure: erasures stay erased, survivors untouched.
                for (i, slot) in shards.iter().enumerate() {
                    if mask & (1 << i) != 0 && i < k {
                        prop_assert!(slot.is_none());
                    }
                }
                // Fully-erased blocks bail before any accounting; every
                // other refusal is charged as a failed block.
                if erased < n {
                    prop_assert_eq!(ops.blocks_failed, 1);
                }
                prop_assert_eq!(ops.blocks_repaired, 0);
            }
        }
    }

    /// The GF(256) log/exp fast path agrees with the shift-and-reduce
    /// reference, and division inverts multiplication.
    #[test]
    fn gf256_table_arithmetic_matches_reference(a in any::<u8>(), b in any::<u8>()) {
        prop_assert_eq!(gf256::mul(a, b), gf256::mul_slow(a, b));
        if b != 0 {
            let q = gf256::div(a, b);
            prop_assert_eq!(gf256::mul_slow(q, b), a);
            prop_assert_eq!(gf256::mul(b, gf256::inv(b)), 1);
        }
    }

    /// Spec round-trip: any valid spec builds a codec whose advertised
    /// geometry matches, and encode output honours it.
    #[test]
    fn spec_geometry_is_honoured(
        k in 1usize..=10,
        r in 1usize..=4,
        seed in any::<u64>(),
        len in 1usize..=32
    ) {
        for spec in [
            FecSpec::Xor { k },
            FecSpec::Rs { k, r },
            FecSpec::Lt { k, r, seed },
        ] {
            let codec = spec.build().unwrap();
            let data = random_block(seed ^ 0xabcd, k, len);
            let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
            let mut ops = FecOps::default();
            let parity = codec.encode(&refs, &mut ops);
            prop_assert_eq!(parity.len(), codec.parity_shards());
            prop_assert!(parity.iter().all(|p| p.len() == len));
            prop_assert_eq!(ops.parity_bytes, (codec.parity_shards() * len) as u64);
            prop_assert_eq!(ops.blocks_encoded, 1);
        }
    }
}

/// Runs `trials` seeded LT decodes at the given geometry and erasure
/// weight; returns the fraction that fully recovered.
fn lt_success_rate(k: usize, r: usize, erasures: usize, trials: u64) -> f64 {
    let mut successes = 0u64;
    for trial in 0..trials {
        let codec = LtCodec::new(k, r, 0x17ee ^ trial);
        let data = random_block(trial.wrapping_mul(0x9e37) | 1, k, 16);
        let mut shards = protect(&codec, &data);
        // Erase a deterministic pseudo-random set of data shards.
        let mut state = trial.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        let mut erased = 0usize;
        while erased < erasures {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let idx = (state % k as u64) as usize;
            if shards[idx].is_some() {
                shards[idx] = None;
                erased += 1;
            }
        }
        let mut ops = FecOps::default();
        if codec.decode(&mut shards, &mut ops) {
            let ok = (0..k).all(|i| shards[i].as_deref() == Some(&data[i][..]));
            assert!(ok, "lt decode returned true with wrong bytes");
            successes += 1;
        }
    }
    successes as f64 / trials as f64
}

/// LT satellite: 1 000 seeded trials per operating point. Success
/// probability must rise with repair overhead and clear family-typical
/// floors — LT at these tiny block sizes is lossy (that is its energy
/// trade), but more repair shards must always buy more recovery.
#[test]
fn lt_success_rate_rises_with_overhead() {
    const TRIALS: u64 = 1_000;
    let two_loss_r2 = lt_success_rate(8, 2, 2, TRIALS);
    let two_loss_r3 = lt_success_rate(8, 3, 2, TRIALS);
    let two_loss_r4 = lt_success_rate(8, 4, 2, TRIALS);
    assert!(
        two_loss_r2 < two_loss_r3 && two_loss_r3 < two_loss_r4,
        "success must rise with overhead: r=2 {two_loss_r2:.3}, r=3 {two_loss_r3:.3}, r=4 {two_loss_r4:.3}"
    );
    assert!(
        two_loss_r4 > 0.5,
        "double overhead should recover most double erasures, got {two_loss_r4:.3}"
    );
    // Single-erasure recovery at 50% overhead is the family's bread and
    // butter; it must be commonplace even for a fountain.
    let one_loss_r4 = lt_success_rate(8, 4, 1, TRIALS);
    assert!(
        one_loss_r4 > 0.8,
        "single-loss recovery at r=4 should be routine, got {one_loss_r4:.3}"
    );
}
