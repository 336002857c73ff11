//! Observability-plane contract tests: the frame-indexed time-series
//! and the SLO alert stream are deterministic (byte-identical across
//! worker counts), a burst-kill incident drives the full
//! metric → alert → health-ledger → flight-recorder chain, a fleet
//! that calms down after an alert walks the ledger back to recovered,
//! an alert lands in a rate-dropping session's log at the session's own
//! frame, and the `serve.*`, `fec.*` and `slo.*` counters agree with the
//! session reports they are folded beside.

use pbpair_netsim::FecSpec;
use pbpair_serve::{
    run_with, ChaosEvent, ChaosFault, ChaosPlan, HealthState, ServeConfig, SessionReport,
};
use pbpair_telemetry::slo::AlertState;
use pbpair_telemetry::Telemetry;

/// A small fleet with a header-aligned whole-frame burst kill on every
/// session early in the run: residual frame loss saturates during the
/// burst, then the channel goes quiet so alerts clear and sessions heal.
fn burst_cfg(frames: usize) -> ServeConfig {
    let mut cfg = ServeConfig {
        sessions: 2,
        frames,
        workers: 2,
        seed: 919,
        plr: 0.01,
        corruption: 0.05,
        ..ServeConfig::default()
    };
    cfg.chaos = ChaosPlan::new(
        (0..cfg.sessions)
            .map(|id| ChaosEvent {
                session: id as u32,
                at_frame: 4,
                fault: ChaosFault::BurstKill { frames: 8 },
            })
            .collect(),
    )
    .expect("valid plan");
    cfg.observe = true;
    cfg
}

/// Observed run at `workers`, returning the deterministic series JSON
/// and the alert stream as comparable tuples.
fn observed(cfg: &ServeConfig, workers: usize) -> (String, Vec<(u64, String, &'static str)>) {
    let mut cfg = cfg.clone();
    cfg.workers = workers;
    let tel = Telemetry::new();
    let run = run_with(&cfg, &tel, false).expect("valid config");
    let obs = run.observability.expect("observed run");
    let alerts = run
        .report
        .alerts
        .iter()
        .map(|a| (a.round, a.slo.clone(), a.state.label()))
        .collect();
    (obs.series.deterministic_json(), alerts)
}

#[test]
fn time_series_and_alert_stream_identical_across_worker_counts() {
    let cfg = burst_cfg(24);
    let (s1, a1) = observed(&cfg, 1);
    let (s2, a2) = observed(&cfg, 2);
    let (s8, a8) = observed(&cfg, 8);
    assert!(!a1.is_empty(), "the burst must produce alerts");
    assert_eq!(s1, s2, "series must not depend on worker count");
    assert_eq!(s2, s8, "series must not depend on worker count");
    assert_eq!(a1, a2, "alert stream must not depend on worker count");
    assert_eq!(a2, a8, "alert stream must not depend on worker count");
    // The ring actually carries per-round deltas of the slo counters.
    assert!(s1.contains("\"slo.frame_slots\":"));
}

#[test]
fn burst_kill_fires_residual_loss_and_dumps_the_flight_recorder() {
    let cfg = burst_cfg(24);
    let tel = Telemetry::new();
    let run = run_with(&cfg, &tel, true).expect("valid config");
    let (report, trace) = (run.report, run.trace.expect("traced run"));
    let obs = run.observability.expect("observed run");

    // The SLO fires…
    let fired: Vec<_> = report
        .alerts
        .iter()
        .filter(|a| a.slo == "residual_loss" && a.state == AlertState::Firing)
        .collect();
    assert!(!fired.is_empty(), "burst kill must fire residual_loss");
    assert_eq!(report.alerts, obs.alerts, "report and plane must agree");

    // …escalates the health ledger with the new reason…
    let slo_reasons: Vec<_> = report
        .sessions
        .iter()
        .flat_map(|s| &s.health_log)
        .filter(|t| t.reason.starts_with("slo:"))
        .collect();
    assert!(
        slo_reasons
            .iter()
            .any(|t| t.reason == "slo:residual_loss" && t.to == HealthState::Degraded),
        "an slo:residual_loss transition must reach the ledger: {slo_reasons:?}"
    );

    // …and dumps the flight recorder with the dedicated reason.
    assert!(
        trace.dumps.iter().any(|d| d.reason == "slo"),
        "a firing alert must dump the flight recorder"
    );
    assert!(trace.deterministic_json().contains("\"reason\":\"slo\""));
}

#[test]
fn alerts_clear_and_sessions_recover_after_the_burst() {
    // Long calm tail: the burst ends at frame 12, leaving 36 quiet
    // rounds — enough for every burn window to drain and the watchdog's
    // fresh streak to reach its recovery threshold.
    let cfg = burst_cfg(48);
    let tel = Telemetry::new();
    let report = run_with(&cfg, &tel, false).expect("valid config").report;

    let residual: Vec<_> = report
        .alerts
        .iter()
        .filter(|a| a.slo == "residual_loss")
        .collect();
    assert!(
        residual.iter().any(|a| a.state == AlertState::Cleared),
        "residual_loss must clear once the channel calms: {residual:?}"
    );
    let fired_at = residual[0].round;
    let cleared_at = residual
        .iter()
        .find(|a| a.state == AlertState::Cleared)
        .unwrap()
        .round;
    assert!(cleared_at > fired_at);

    // Every session that the alert degraded walks back to recovered.
    for s in &report.sessions {
        assert!(
            s.health_log.iter().any(|t| t.reason.starts_with("slo:")),
            "session {} must carry an slo transition",
            s.id
        );
        assert_eq!(
            s.health,
            HealthState::Recovered,
            "session {} must heal after the burst: {:?}",
            s.id,
            s.health_log
        );
    }
}

#[test]
fn observability_is_returned_exactly_when_enabled_and_needs_telemetry() {
    let off = ServeConfig {
        frames: 4,
        workers: 1,
        ..ServeConfig::default()
    };
    let tel = Telemetry::new();
    assert!(
        run_with(&off, &tel, false)
            .expect("valid config")
            .observability
            .is_none(),
        "fully-off observability returns no plane"
    );
    let mut on = burst_cfg(8);
    on.workers = 1;
    assert!(
        run_with(&on, &Telemetry::disabled(), false).is_err(),
        "observability over a disabled registry must be rejected"
    );
}

/// An observed RS{8,2} fleet at MTU 36 whose capacity makes admission
/// rate-drop and shed, and whose burst kill on session 0 raises an SLO
/// alert while the other sessions are behind the fleet round: every
/// sink sees shedding, rate drops, losses, damage, FEC repairs and
/// decoder resyncs.
fn drop_and_alert_cfg() -> ServeConfig {
    let mut cfg = ServeConfig {
        sessions: 6,
        frames: 60,
        workers: 2,
        seed: 9,
        plr: 0.15,
        mtu: 36,
        fec: Some(FecSpec::Rs { k: 8, r: 2 }),
        corruption: 0.2,
        observe: true,
        ..ServeConfig::default()
    };
    cfg.admission.capacity_j_per_round = 0.010;
    cfg.chaos = ChaosPlan::new(vec![ChaosEvent {
        session: 0,
        at_frame: 20,
        fault: ChaosFault::BurstKill { frames: 10 },
    }])
    .expect("valid plan");
    cfg
}

#[test]
fn an_slo_alert_keeps_a_rate_dropping_session_log_in_frame_order() {
    let cfg = drop_and_alert_cfg();
    let report = run_with(&cfg, &Telemetry::new(), false)
        .expect("valid config")
        .report;
    let dropped: u64 = report.sessions.iter().map(|s| s.frames_rate_dropped).sum();
    assert!(dropped > 0, "the fleet must rate-drop");
    assert!(
        report
            .sessions
            .iter()
            .flat_map(|s| &s.health_log)
            .any(|t| t.reason.starts_with("slo:")),
        "an SLO alert must reach a health log"
    );
    for s in &report.sessions {
        assert!(
            s.health_log.windows(2).all(|w| w[0].frame <= w[1].frame),
            "session {}: log out of frame order: {:?}",
            s.id,
            s.health_log
        );
    }
}

#[test]
fn serve_fec_and_slo_counters_match_the_session_reports() {
    let cfg = drop_and_alert_cfg();
    let tel = Telemetry::new();
    let report = run_with(&cfg, &tel, false).expect("valid config").report;
    let c = tel.report();
    let sum = |f: fn(&SessionReport) -> u64| report.sessions.iter().map(f).sum::<u64>();
    // Every identity below compares nonzero totals.
    assert!(report.shed_count > 0);
    for (what, n) in [
        ("rate drops", sum(|s| s.frames_rate_dropped)),
        ("losses", sum(|s| s.frames_lost)),
        ("damaged frames", sum(|s| s.frames_damaged)),
        ("FEC recoveries", sum(|s| s.fec_recoveries)),
        ("resyncs", sum(|s| s.decode.resyncs)),
        ("parity bytes", sum(|s| s.fec.parity_bytes)),
    ] {
        assert!(n > 0, "the fleet must produce {what}");
    }

    type Field = fn(&SessionReport) -> u64;
    let folded: [(&str, Field); 10] = [
        ("serve.frames_encoded", |s| s.frames_encoded),
        ("serve.frames_rate_dropped", |s| s.frames_rate_dropped),
        ("serve.frames_lost", |s| s.frames_lost),
        ("serve.frames_damaged", |s| s.frames_damaged),
        ("serve.fec_recovered", |s| s.fec_recoveries),
        ("fec.blocks_repaired", |s| s.fec.blocks_repaired),
        ("fec.blocks_failed", |s| s.fec.blocks_failed),
        ("fec.parity_bytes", |s| s.fec.parity_bytes),
        ("fec.xor_bytes", |s| s.fec.xor_bytes),
        ("fec.gf_mul_bytes", |s| s.fec.gf_mul_bytes),
    ];
    for (name, field) in folded {
        assert!(c.counters.contains_key(name), "{name} is not registered");
        assert_eq!(c.counter(name), sum(field), "{name}");
    }
    let sources: u64 = ["network", "load", "quarantine"]
        .iter()
        .map(|s| c.counter(&format!("serve.intra_th_source.{s}")))
        .sum();
    assert_eq!(sources, c.counter("serve.frames_encoded"));
    assert_eq!(
        c.counter("slo.frame_slots"),
        sum(|s| s.frames_encoded + s.frames_rate_dropped)
    );
    assert_eq!(c.counter("slo.frames_lost"), c.counter("serve.frames_lost"));
    assert_eq!(
        c.counter("slo.frames_damaged"),
        c.counter("serve.frames_damaged")
    );
}
