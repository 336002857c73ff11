//! Deterministic-replay contract: the schedule-independent portion of a
//! [`ServeReport`] is a pure function of the [`ServeConfig`]. Running
//! the same fleet on 2 workers and on 8 workers must produce
//! byte-identical deterministic digests, even while admission control is
//! actively degrading, rate-dropping, and shedding sessions. And a
//! session is a pure function of `(ServeConfig, id)`: built and stepped
//! on its own, it reports what the fleet reported for it.

use pbpair_netsim::{ChannelSpec, FecSpec};
use pbpair_serve::{
    run, run_with, ChaosEvent, ChaosFault, ChaosPlan, RedundancyConfig, ServeConfig, Session,
};
use pbpair_telemetry::Telemetry;

fn digest(cfg: &ServeConfig, workers: usize) -> String {
    let mut cfg = cfg.clone();
    cfg.workers = workers;
    run(&cfg).expect("valid config").deterministic_digest()
}

/// The deterministic telemetry export for a run at `workers` workers.
fn telemetry_json(cfg: &ServeConfig, workers: usize) -> String {
    let mut cfg = cfg.clone();
    cfg.workers = workers;
    let tel = Telemetry::new();
    run_with(&cfg, &tel, false).expect("valid config");
    tel.report().deterministic_json()
}

#[test]
fn telemetry_counters_identical_across_worker_counts() {
    // The instrumented counters are sums of per-session deterministic
    // quantities; addition commutes, so the deterministic JSON must be
    // byte-identical for 1, 2 and 8 workers — even under overload.
    let mut cfg = ServeConfig {
        sessions: 6,
        frames: 12,
        seed: 77,
        ..ServeConfig::default()
    };
    cfg.admission.capacity_j_per_round = 1e-4;

    let one = telemetry_json(&cfg, 1);
    let two = telemetry_json(&cfg, 2);
    let eight = telemetry_json(&cfg, 8);
    assert_eq!(one, two, "telemetry must not depend on worker count");
    assert_eq!(two, eight, "telemetry must not depend on worker count");
    // Sanity: the export carries real counts, not an empty registry.
    assert!(one.contains("\"enc.frames\":"));
    assert!(one.contains("\"serve.rounds\":12"));
    // The overloaded fleet's admission floor shows as the lever that
    // set `Intra_Th`.
    let load = one
        .split("\"serve.intra_th_source.load\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse::<u64>().ok())
        .expect("load counter exported");
    assert!(load > 0, "overload must raise the load floor: {one}");
    assert!(one.contains("\"serve.intra_th_source.network\":"));
}

#[test]
fn instrumented_run_matches_uninstrumented_report() {
    // Instrumentation must observe, not perturb: the deterministic
    // digest of an instrumented run equals the plain run's.
    let cfg = ServeConfig {
        sessions: 4,
        frames: 8,
        seed: 31,
        ..ServeConfig::default()
    };
    let tel = Telemetry::new();
    let instrumented = run_with(&cfg, &tel, false)
        .expect("valid config")
        .report
        .deterministic_digest();
    assert_eq!(instrumented, digest(&cfg, cfg.workers));
}

#[test]
fn healthy_fleet_replays_across_worker_counts() {
    let cfg = ServeConfig {
        sessions: 6,
        frames: 12,
        seed: 77,
        ..ServeConfig::default()
    };
    let two = digest(&cfg, 2);
    let eight = digest(&cfg, 8);
    assert_eq!(two, eight, "digest must not depend on worker count");
    // And replaying the same worker count is also stable.
    assert_eq!(two, digest(&cfg, 2));
}

#[test]
fn overloaded_fleet_replays_across_worker_counts() {
    // Capacity far below demand so the full escalation path runs:
    // Intra_Th floor, stride frame drops, and at least one shed. All of
    // it must replay identically regardless of parallelism.
    let mut cfg = ServeConfig {
        sessions: 8,
        frames: 20,
        seed: 4242,
        ..ServeConfig::default()
    };
    cfg.admission.capacity_j_per_round = 1e-4;

    let two = digest(&cfg, 2);
    let eight = digest(&cfg, 8);
    assert_eq!(two, eight);
    assert!(
        two.contains("shed=") && !two.contains("shed=0 "),
        "test must actually exercise shedding: {}",
        two.lines().next().unwrap_or("")
    );
}

#[test]
fn fec_fleet_replays_across_worker_counts() {
    let cfg = ServeConfig {
        sessions: 4,
        frames: 10,
        seed: 9,
        plr: 0.15,
        fec: Some(FecSpec::Xor { k: 4 }),
        mtu: 300, // small MTU → many fragments → FEC actually exercised
        ..ServeConfig::default()
    };
    assert_eq!(digest(&cfg, 2), digest(&cfg, 8));
}

#[test]
fn adaptive_fec_fleet_replays_across_worker_counts() {
    // The joint controller re-decides (Intra_Th, parity) every GOP from
    // fed-back channel state. All of that state is per-session, so the
    // digest — including the fec sub-lines — must be byte-identical at
    // 1, 2 and 8 workers.
    let mut cfg = ServeConfig {
        sessions: 4,
        frames: 24,
        seed: 2005,
        plr: 0.12,
        mtu: 300,
        ..ServeConfig::default()
    };
    cfg.redundancy = Some(RedundancyConfig {
        budget_ratio: 1.4,
        gop: 6,
        ..RedundancyConfig::new(FecSpec::Rs { k: 4, r: 2 })
    });
    let one = digest(&cfg, 1);
    let two = digest(&cfg, 2);
    let eight = digest(&cfg, 8);
    assert_eq!(one, two, "digest must not depend on worker count");
    assert_eq!(two, eight, "digest must not depend on worker count");
    assert!(
        one.contains("fec session="),
        "adaptive run must surface fec sub-lines in the digest:\n{one}"
    );
}

#[test]
fn fec_counters_merge_commutatively_across_worker_counts() {
    // fec.* telemetry counters are sums of per-session FecOps deltas;
    // the additions must commute, so the deterministic JSON export is
    // identical no matter how sessions were spread over workers.
    let cfg = ServeConfig {
        sessions: 6,
        frames: 16,
        seed: 123,
        plr: 0.18,
        mtu: 300,
        fec: Some(FecSpec::Rs { k: 4, r: 2 }),
        ..ServeConfig::default()
    };
    let one = telemetry_json(&cfg, 1);
    let two = telemetry_json(&cfg, 2);
    let eight = telemetry_json(&cfg, 8);
    assert_eq!(one, two, "fec telemetry must not depend on worker count");
    assert_eq!(two, eight, "fec telemetry must not depend on worker count");
    assert!(one.contains("\"fec.parity_bytes\":"));
    assert!(one.contains("\"fec.blocks_repaired\":"));
}

#[test]
fn a_session_built_alone_replays_its_fleet_session() {
    // The manager adds nothing to a session beyond admission and the
    // optional planes. With admission out of reach, each session built
    // from the fleet config and stepped on its own must report exactly
    // what the fleet reported for it: adaptive RS, burst channel, chaos
    // and all.
    let mut cfg = ServeConfig {
        sessions: 4,
        frames: 24,
        workers: 2,
        seed: 2005,
        mtu: 36,
        channel: Some(ChannelSpec::BurstErasure {
            burst_len: 4.0,
            guard_len: 28.0,
        }),
        redundancy: Some(RedundancyConfig {
            family: FecSpec::Rs { k: 8, r: 2 },
            max_parity: 2,
            budget_ratio: 1.25,
            gop: 8,
        }),
        chaos: ChaosPlan::new(vec![ChaosEvent {
            session: 1,
            at_frame: 8,
            fault: ChaosFault::BurstKill { frames: 4 },
        }])
        .unwrap(),
        ..ServeConfig::default()
    };
    cfg.admission.capacity_j_per_round = f64::MAX;
    let fleet = run(&cfg).expect("valid config");
    assert_eq!(fleet.degraded_rounds, 0, "admission must never step in");
    assert_eq!(fleet.sessions[1].chaos_injected, 1, "the fault must fire");
    for (id, want) in fleet.sessions.iter().enumerate() {
        assert!(!want.fec_codec.is_empty(), "session {id} runs adaptive RS");
        let mut s = Session::new(&cfg, id as u32).expect("valid config");
        for _ in 0..cfg.frames {
            s.step_frame();
        }
        assert_eq!(&s.report(), want, "session {id}");
    }
}
