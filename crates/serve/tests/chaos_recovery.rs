//! Chaos-fault acceptance: every injected fault class must demonstrably
//! walk the watchdog → degradation → recovery path, with the
//! [`HealthLedger`] recording the full state transition — and the whole
//! trajectory must stay deterministic at any worker count.

use pbpair_netsim::ChannelSpec;
use pbpair_serve::{
    run, ChaosEvent, ChaosFault, ChaosPlan, HealthState, IntraThSource, ServeConfig, Session,
};

/// A fleet whose session 0 has a quiet baseline (near-lossless,
/// uncorrupted forward channel) so the only impairment is the injected
/// fault. Session 0's seed is the fleet seed plus this constant, so
/// `seed` names the session seed each trajectory was tuned on.
fn quiet_config(seed: u64, faults: Vec<(u64, ChaosFault)>) -> ServeConfig {
    const SESSION_0_SEED_STEP: u64 = 0x2545_f491_4f6c_dd1d;
    ServeConfig {
        seed: seed.wrapping_sub(SESSION_0_SEED_STEP),
        plr: 0.01,
        corruption: 0.0,
        pacing_us: 0,
        chaos: ChaosPlan::new(
            faults
                .into_iter()
                .map(|(at_frame, fault)| ChaosEvent {
                    session: 0,
                    at_frame,
                    fault,
                })
                .collect(),
        )
        .expect("valid faults"),
        ..ServeConfig::default()
    }
}

/// Runs session 0 with the fault schedule and returns it for
/// inspection.
fn run_with_faults(seed: u64, faults: Vec<(u64, ChaosFault)>, frames: u64) -> Session {
    let mut s = Session::new(&quiet_config(seed, faults), 0).expect("valid config");
    for _ in 0..frames {
        s.step_frame();
    }
    s
}

/// Asserts the ledger shows the complete escalation-and-recovery path:
/// healthy → degraded → quarantined → recovered, in frame order.
fn assert_full_path(s: &Session, fault: &str) {
    let log = s.health_ledger().transitions();
    let path: Vec<(HealthState, HealthState)> = log.iter().map(|t| (t.from, t.to)).collect();
    assert!(
        path.windows(1).next().is_some(),
        "{fault}: ledger must not be empty"
    );
    assert_eq!(
        path[0],
        (HealthState::Healthy, HealthState::Degraded),
        "{fault}: first transition must degrade: {log:?}"
    );
    assert_eq!(
        path[1],
        (HealthState::Degraded, HealthState::Quarantined),
        "{fault}: second transition must quarantine: {log:?}"
    );
    assert_eq!(
        path[2].1,
        HealthState::Recovered,
        "{fault}: third transition must recover: {log:?}"
    );
    assert!(
        log.windows(2).all(|w| w[0].frame < w[1].frame),
        "{fault}: transitions must be in frame order: {log:?}"
    );
    assert_eq!(
        s.health(),
        HealthState::Recovered,
        "{fault}: session must end recovered"
    );
}

#[test]
fn feedback_blackout_walks_the_full_recovery_path() {
    let s = run_with_faults(
        11,
        vec![(10, ChaosFault::FeedbackBlackout { frames: 60 })],
        120,
    );
    assert_full_path(&s, "feedback_blackout");
    let log = s.health_ledger().transitions();
    assert!(
        log[0].reason.starts_with("dark="),
        "blackout impairs via feedback darkness: {log:?}"
    );
    assert_eq!(s.report().chaos_injected, 1);
}

#[test]
fn decoder_stall_walks_the_full_recovery_path() {
    let s = run_with_faults(12, vec![(10, ChaosFault::DecoderStall { frames: 12 })], 60);
    assert_full_path(&s, "decoder_stall");
    let log = s.health_ledger().transitions();
    assert_eq!(log[0].reason, "stall");
    assert_eq!(s.report().frames_stalled, 12);
}

#[test]
fn burst_kill_walks_the_full_recovery_path() {
    let s = run_with_faults(13, vec![(10, ChaosFault::BurstKill { frames: 12 })], 60);
    assert_full_path(&s, "burst_kill");
    let log = s.health_ledger().transitions();
    assert!(
        log[0].reason.starts_with("starved="),
        "burst kill impairs via display starvation: {log:?}"
    );
    assert!(
        s.report().frames_lost >= 12,
        "the kill window erases frames"
    );
}

#[test]
fn mid_gop_channel_swap_walks_the_full_recovery_path() {
    // Swap to a saturated channel mid-stream, then hand back to a clean
    // one: the PLR estimate in flight is invalidated, the display
    // starves, and the watchdog must see the session back to recovered.
    let s = run_with_faults(
        14,
        vec![
            (
                10,
                ChaosFault::ChannelSwap {
                    spec: ChannelSpec::Uniform { plr: 1.0 },
                },
            ),
            (
                30,
                ChaosFault::ChannelSwap {
                    spec: ChannelSpec::Uniform { plr: 0.0 },
                },
            ),
        ],
        80,
    );
    assert_full_path(&s, "channel_swap");
    let log = s.health_ledger().transitions();
    assert!(
        log[0].reason.starts_with("starved="),
        "saturated swap impairs via display starvation: {log:?}"
    );
    assert_eq!(s.report().chaos_injected, 2);
}

#[test]
fn quarantine_imposes_the_intra_th_floor() {
    let cfg = quiet_config(15, vec![(5, ChaosFault::BurstKill { frames: 15 })]);
    let mut s = Session::new(&cfg, 0).unwrap();
    let mut floor_seen = false;
    for _ in 0..25 {
        let out = s.step_frame();
        if s.health() == HealthState::Quarantined {
            assert!(
                out.intra_th >= 0.99,
                "quarantine must force the 0.99 Intra_Th floor, got {}",
                out.intra_th
            );
            assert_eq!(out.intra_th_source, IntraThSource::Quarantine);
            floor_seen = true;
        }
    }
    assert!(floor_seen, "the session must actually reach quarantine");
}

#[test]
fn chaotic_fleet_replays_across_worker_counts() {
    // The whole point of deterministic chaos: a fleet under injected
    // faults must still produce byte-identical digests at any worker
    // count, with the health ledger included in the digest.
    let mut cfg = ServeConfig {
        sessions: 4,
        frames: 120,
        seed: 99,
        plr: 0.02,
        ..ServeConfig::default()
    };
    cfg.chaos = ChaosPlan::new(vec![
        ChaosEvent {
            session: 0,
            at_frame: 10,
            fault: ChaosFault::FeedbackBlackout { frames: 60 },
        },
        ChaosEvent {
            session: 2,
            at_frame: 12,
            fault: ChaosFault::BurstKill { frames: 12 },
        },
    ])
    .unwrap();

    let digest = |workers: usize| {
        let mut c = cfg.clone();
        c.workers = workers;
        run(&c).expect("valid config").deterministic_digest()
    };
    let one = digest(1);
    assert_eq!(one, digest(2), "digest must not depend on worker count");
    assert_eq!(one, digest(8), "digest must not depend on worker count");
    assert!(
        one.contains("health_transition"),
        "the ledger must be part of the deterministic digest:\n{one}"
    );

    let report = run(&cfg).unwrap();
    assert!(
        report.health.recovered >= 2,
        "both faulted sessions must end recovered: {:?}",
        report.health
    );
    assert_eq!(
        report.health.healthy
            + report.health.degraded
            + report.health.quarantined
            + report.health.recovered,
        4,
        "every session is tallied exactly once"
    );
    for id in [0usize, 2] {
        let log = &report.sessions[id].health_log;
        assert!(
            log.iter().any(|t| t.to == HealthState::Quarantined),
            "session {id} must have been quarantined: {log:?}"
        );
        assert_eq!(
            report.sessions[id].health,
            HealthState::Recovered,
            "session {id} must end recovered"
        );
    }
}
